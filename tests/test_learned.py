"""Window building, LSTM forward/backward/training, and baseline predictors."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import kink_free_lstm_fixture
from gazecast import learned as L
from gazecast.classify import EventKind, EventSegment
from gazecast.errors import ConfigError, DataError, DivergenceError, EmptyInputError, check_int
from gazecast.metrics import score_run
from gazecast.signal import DiffConfig, compute_velocity, recording_from_arrays

PI = 40
CAUSAL = DiffConfig(mode="causal")

# Output of the pre-rewrite LSTM (commit d916e65: two matmuls and a
# masked-index sigmoid per layer-step, per-step tuple cache) for seed-123
# weights on reference_batch(): predictions, loss, every loss_and_grad
# tensor, and the parameters after one 2-batch lstm_train epoch.
REFERENCE = Path(__file__).parent / "data" / "lstm_reference.npz"


def ramp_recording(vx, vy, n, subject="T"):
    t = np.arange(n)
    return recording_from_arrays(subject, vx * t / 1000.0, vy * t / 1000.0)


def ramp_windows(vx, vy, n=175, pi=PI):
    rec = ramp_recording(vx, vy, n)
    return L.make_windows(rec, compute_velocity(rec, CAUSAL), pi)


def concat(batches):
    return L.WindowBatch(
        np.concatenate([b.inputs for b in batches]),
        np.concatenate([b.targets for b in batches]),
        np.concatenate([b.end_indices for b in batches]),
    )


class TestMakeWindows:
    def test_constant_velocity_targets(self):
        wb = ramp_windows(10.0, 0.0, n=400)
        assert len(wb) > 100
        assert np.allclose(wb.targets, [0.4, 0.0], atol=1e-9)
        # a polynomial smoother reproduces a linear ramp exactly
        assert np.allclose(wb.inputs[:, :, 0], 10.0, atol=1e-6)
        assert np.allclose(wb.inputs[:, :, 1], 0.0, atol=1e-6)

    def test_short_recording_empty(self):
        # first window end with a full causal velocity history is sample
        # 105 (6 samples of derivative history + 99); target needs +PI
        assert len(ramp_windows(5.0, 0.0, n=145)) == 0
        assert len(ramp_windows(5.0, 0.0, n=146)) == 1
        assert len(ramp_windows(5.0, 0.0, n=60)) == 0

    def test_blink_never_touched(self):
        n = 600
        t = np.arange(n)
        valid = np.ones(n, dtype=bool)
        valid[150] = False
        rec = recording_from_arrays("T", 8.0 * t / 1000.0, np.zeros(n), valid=valid)
        wb = L.make_windows(rec, compute_velocity(rec, CAUSAL), PI)
        assert len(wb) > 0
        ends = wb.end_indices
        spans_blink = (ends - (L.WINDOW_SAMPLES - 1) <= 150) & (150 <= ends)
        assert not spans_blink.any()
        assert not (ends + PI == 150).any()

    def test_stride_one_in_interior(self):
        ends = ramp_windows(3.0, -4.0, n=400).end_indices
        assert (np.diff(ends) == 1).all()

    def test_targets_are_displacements(self):
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.normal(scale=0.01, size=500))
        y = np.cumsum(rng.normal(scale=0.01, size=500))
        rec = recording_from_arrays("T", x, y)
        wb = L.make_windows(rec, compute_velocity(rec, CAUSAL), 25)
        e = wb.end_indices
        assert np.array_equal(wb.targets[:, 0], x[e + 25] - x[e])
        assert np.array_equal(wb.targets[:, 1], y[e + 25] - y[e])

    def test_batch_indexing(self):
        wb = ramp_windows(10.0, 0.0, n=300)
        sub = wb[2:7]
        assert isinstance(sub, L.WindowBatch)
        assert len(sub) == 5
        with pytest.raises(ConfigError, match="slices and index arrays"):
            wb[2]

    def test_index_arrays_select_like_numpy(self):
        wb = ramp_windows(3.0, -4.0, n=400)
        for key in (np.array([5, -1, 0, 5]), np.arange(len(wb)) % 3 == 0):
            sub = wb[key]
            assert np.array_equal(sub.inputs, wb.inputs[key])
            assert np.array_equal(sub.targets, wb.targets[key])
            assert np.array_equal(sub.end_indices, wb.end_indices[key])
        with pytest.raises(IndexError):
            wb[np.array([len(wb)])]

    def test_inputs_are_the_trailing_velocity(self):
        rng = np.random.default_rng(1)
        rec = recording_from_arrays(
            "T", np.cumsum(rng.normal(scale=0.01, size=1300)), np.cumsum(rng.normal(scale=0.01, size=1300))
        )
        vel = compute_velocity(rec, CAUSAL)
        wb = L.make_windows(rec, vel, PI)
        assert len(wb) > 1024  # the gather runs in blocks of 512 windows
        vxy = np.column_stack([vel.vx, vel.vy])
        expected = np.stack([vxy[e - (L.WINDOW_SAMPLES - 1) : e + 1] for e in wb.end_indices])
        assert np.array_equal(wb.inputs, expected)

    @pytest.mark.parametrize("pi", [40.5, 0, -5])
    @pytest.mark.parametrize(
        "call",
        [
            L.make_windows,
            lambda rec, vel, pi: L.baseline_predict("constant-velocity", rec, vel, pi),
            lambda rec, vel, pi: L.lstm_predict_recording(L.LstmModel.init_seeded(0), rec, vel, pi),
        ],
        ids=["make_windows", "baseline_predict", "lstm_predict_recording"],
    )
    def test_bad_pi(self, call, pi):
        rec = ramp_recording(1.0, 0.0, 300)
        with pytest.raises(ConfigError, match="pi_ms"):
            call(rec, compute_velocity(rec, CAUSAL), pi)

    def test_centered_trace_rejected(self):
        # a centered derivative looks 3 samples ahead of the window end
        rec = ramp_recording(1.0, 0.0, 300)
        centered = compute_velocity(rec, DiffConfig(mode="centered"))
        with pytest.raises(ConfigError, match="causal"):
            L.make_windows(rec, centered, PI)
        with pytest.raises(ConfigError, match="causal"):
            L.lstm_predict_recording(L.LstmModel.init_seeded(0), rec, centered, PI)
        with pytest.raises(ConfigError, match="causal"):
            L.baseline_predict("constant-velocity", rec, centered, PI)


class TestForward:
    def test_parameter_count_closed_form(self):
        h = 32
        expected = (
            4 * h * (2 + h + 1)  # lstm1
            + 4 * h * (h + h + 1)  # lstm2
            + 32 * h + 32  # fc1
            + 16 * 32 + 16  # fc2
            + 2 * 16 + 2  # output projection
        )
        assert expected == 14418
        assert L.N_PARAMS == expected

    def test_zero_network_outputs_zero(self):
        model = L.LstmModel({k: np.zeros(s) for k, s in L.PARAM_SHAPES.items()})
        out = L.lstm_forward(model, np.random.default_rng(0).normal(size=(100, 2))[None])[0]
        assert np.array_equal(out, [0.0, 0.0])

    def test_golden_scalar_reference(self):
        # frozen output of seed-123 weights on a fixed window; the scalar
        # loop below re-derives it without numpy linear algebra
        golden = (-0.0038382840583629551, 0.000334518761491212)
        model = L.LstmModel.init_seeded(123)
        k = np.arange(100)
        win = np.column_stack([120.0 * np.sin(k / 7.0), 80.0 * np.cos(k / 13.0)])
        out = L.lstm_forward(model, win[None])[0]
        assert abs(out[0] - golden[0]) < 1e-12
        assert abs(out[1] - golden[1]) < 1e-12

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v)) if v >= 0 else math.exp(v) / (1.0 + math.exp(v))

        p = {name: arr.tolist() for name, arr in model.params.items()}
        h = L.HIDDEN
        h1, c1, h2, c2 = [0.0] * h, [0.0] * h, [0.0] * h, [0.0] * h
        for t in range(100):
            xin = [win[t, 0] * L.INPUT_SCALE, win[t, 1] * L.INPUT_SCALE]
            for wx, wh, b, hs, cs, src in (
                ("lstm1.Wx", "lstm1.Wh", "lstm1.b", h1, c1, xin),
                ("lstm2.Wx", "lstm2.Wh", "lstm2.b", h2, c2, h1),
            ):
                src = list(src)
                gates = []
                for r in range(4 * h):
                    acc = p[b][r]
                    for j, xv in enumerate(src):
                        acc += p[wx][r][j] * xv
                    for j in range(h):
                        acc += p[wh][r][j] * hs[j]
                    gates.append(acc)
                for u in range(h):
                    i = sig(gates[u])
                    f = sig(gates[h + u])
                    g = math.tanh(gates[2 * h + u])
                    o = sig(gates[3 * h + u])
                    cs[u] = f * cs[u] + i * g
                    hs[u] = o * math.tanh(cs[u])
        a1 = [max(0.0, sum(p["fc1.W"][r][j] * h2[j] for j in range(h)) + p["fc1.b"][r]) for r in range(32)]
        a2 = [max(0.0, sum(p["fc2.W"][r][j] * a1[j] for j in range(32)) + p["fc2.b"][r]) for r in range(16)]
        ref = [sum(p["out.W"][r][j] * a2[j] for j in range(16)) + p["out.b"][r] for r in range(2)]
        assert abs(ref[0] - golden[0]) < 1e-12
        assert abs(ref[1] - golden[1]) < 1e-12

    def test_single_matches_batch(self):
        model = L.LstmModel.init_seeded(4)
        rng = np.random.default_rng(2)
        xs = rng.normal(scale=100.0, size=(4, 100, 2))
        batch = L.lstm_forward(model, xs)
        for i in range(4):
            assert np.allclose(L.lstm_forward(model, xs[i : i + 1])[0], batch[i], atol=1e-12)

    def test_forward_passes_at_most_infer_chunk_windows(self, monkeypatch):
        model = L.LstmModel.init_seeded(4)
        xs = np.random.default_rng(5).normal(scale=100.0, size=(20, 30, 2))
        whole = L.lstm_forward(model, xs)
        sizes = []
        forward = L._forward

        def counting_forward(model, xs, want_cache):
            sizes.append(len(xs))
            return forward(model, xs, want_cache)

        monkeypatch.setattr(L, "_forward", counting_forward)
        monkeypatch.setattr(L, "INFER_CHUNK", 7)
        chunked = L.lstm_forward(model, xs)
        assert sizes == [7, 7, 6]
        assert np.allclose(chunked, whole, atol=1e-12)

    def test_shape_errors(self):
        model = L.LstmModel.init_seeded(0)
        with pytest.raises(ConfigError):
            L.lstm_forward(model, np.zeros((100, 3)))
        with pytest.raises(ConfigError):
            L.lstm_forward(model, np.zeros(100))
        with pytest.raises(ConfigError):
            L.lstm_forward(model, np.zeros((100, 2)))

    def test_missing_or_misshapen_params(self):
        good = L.LstmModel.init_seeded(0).params
        broken = dict(good)
        del broken["fc1.W"]
        with pytest.raises(ConfigError):
            L.LstmModel(broken)
        broken = dict(good)
        broken["out.W"] = np.zeros((3, 16))
        with pytest.raises(ConfigError):
            L.LstmModel(broken)


def reference_batch():
    """A fixed 16x100x2 batch of mixed-frequency velocities with targets."""
    k = np.arange(100)[None, :]
    j = np.arange(16)[:, None]
    vx = 150.0 * np.sin(k / (5.0 + j) + 0.7 * j) + 40.0 * np.sin(k * 1.3 + j)
    vy = 90.0 * np.cos(k / (11.0 - 0.4 * j) - 0.3 * j) - 30.0 * np.cos(k * 2.1 * (j + 1))
    jj = np.arange(16)
    targets = np.column_stack([0.4 * np.sin(1.7 * jj), 0.3 * np.cos(2.3 * jj + 0.5)])
    return np.stack([vx, vy], axis=-1), targets


class TestReferenceEquivalence:
    @pytest.fixture(scope="class")
    def ref(self):
        with np.load(REFERENCE) as data:
            return dict(data)

    @staticmethod
    def assert_close(actual, expected):
        scale = np.abs(expected).max()
        assert np.abs(actual - expected).max() <= 1e-12 * scale

    def test_forward_and_loss(self, ref):
        xs, ys = reference_batch()
        model = L.LstmModel.init_seeded(123)
        self.assert_close(L.lstm_forward(model, xs), ref["pred"])
        loss, _ = L.loss_and_grad(model, xs, ys)
        self.assert_close(loss, ref["loss"])

    def test_gradients(self, ref):
        xs, ys = reference_batch()
        _, grads = L.loss_and_grad(L.LstmModel.init_seeded(123), xs, ys)
        for name in L.PARAM_SHAPES:
            self.assert_close(grads[name], ref[f"grad/{name}"])

    def test_one_training_epoch(self, ref):
        xs, ys = reference_batch()
        model = L.LstmModel.init_seeded(123)
        cfg = L.TrainConfig(batch_size=8, epochs=1, rng_seed=3)
        L.lstm_train(model, L.WindowBatch(xs, ys, np.arange(16)), cfg)
        for name in L.PARAM_SHAPES:
            self.assert_close(model.params[name], ref[f"trained/{name}"])


def gradient_check(
    model: L.LstmModel,
    inputs: np.ndarray,
    targets: np.ndarray,
    eps: float = 1e-5,
    entry_stride: int = 1,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Deliberately brute force: two full forward passes per checked scalar so
    the reference stays independent of the backward code. ``entry_stride``
    checks every k-th entry of each tensor (still touching all tensors) for
    quick partial runs; 1 checks every parameter.
    """
    check_int("entry_stride", entry_stride, 1)
    if not (math.isfinite(eps) and eps > 0):
        raise ConfigError(f"eps must be finite and > 0, got {eps!r}")
    xs = np.asarray(inputs, dtype=float)
    ys = np.asarray(targets, dtype=float)
    _, grads = L.loss_and_grad(model, xs, ys)
    worst = 0.0
    for name in L.PARAM_SHAPES:
        flat = model.params[name].reshape(-1)
        g_flat = grads[name].reshape(-1)
        for j in range(0, flat.size, entry_stride):
            keep = flat[j]
            flat[j] = keep + eps
            up_pred, _ = L._forward(model, xs, False)
            loss_up, _ = L._loss_grad_from_pred(up_pred, ys)
            flat[j] = keep - eps
            dn_pred, _ = L._forward(model, xs, False)
            loss_dn, _ = L._loss_grad_from_pred(dn_pred, ys)
            flat[j] = keep
            numeric = (loss_up - loss_dn) / (2.0 * eps)
            # the difference quotient carries ~1e-11 absolute roundoff, so
            # entries below 1e-6 are compared on that absolute scale instead
            denom = max(abs(numeric) + abs(g_flat[j]), 1e-6)
            worst = max(worst, abs(numeric - g_flat[j]) / denom)
    return worst


class TestLossAndGradient:
    def test_loss_nonnegative_zero_iff_exact(self):
        model = L.LstmModel({k: np.zeros(s) for k, s in L.PARAM_SHAPES.items()})
        xs = np.random.default_rng(0).normal(size=(5, 20, 2))
        loss_zero, _ = L.loss_and_grad(model, xs, np.zeros((5, 2)))
        assert loss_zero == 0.0
        loss_pos, _ = L.loss_and_grad(model, xs, np.full((5, 2), 0.3))
        assert loss_pos > 0.0

    def test_gradient_check_strided(self):
        model, xs, ys = kink_free_lstm_fixture()
        worst = gradient_check(model, xs, ys, eps=1e-5, entry_stride=24)
        assert worst < 1e-4

    @pytest.mark.parametrize(
        "shape",
        [(4, 10, 1), (4, 0, 2), (4, 10, 3)],
        ids=["one-channel-broadcast", "no-steps", "three-channels"],
    )
    @pytest.mark.parametrize("call", ["loss_and_grad", "gradient_check", "lstm_train"])
    def test_malformed_windows_rejected(self, call, shape):
        model = L.LstmModel.init_seeded(0)
        xs, ys = np.ones(shape), np.zeros((shape[0], 2))
        with pytest.raises(ConfigError, match="windows shaped"):
            if call == "lstm_train":
                L.lstm_train(model, L.WindowBatch(xs, ys, np.arange(shape[0])))
            else:
                {"loss_and_grad": L.loss_and_grad, "gradient_check": gradient_check}[call](model, xs, ys)

    def test_empty_batch_has_no_loss(self):
        with pytest.raises(EmptyInputError):
            L.loss_and_grad(L.LstmModel.init_seeded(0), np.empty((0, 10, 2)), np.empty((0, 2)))

    def test_reused_block_gives_a_fresh_blocks_result(self):
        rng = np.random.default_rng(4)
        model = L.LstmModel.init_seeded(6)
        block = L._pass_block(12, 40)
        first = rng.normal(scale=90.0, size=(40, 12, 2)), rng.normal(scale=0.4, size=(40, 2))
        xs, ys = rng.normal(scale=90.0, size=(40, 12, 2)), rng.normal(scale=0.4, size=(40, 2))
        L.loss_and_grad(model, *first, block)
        reused = L.loss_and_grad(model, xs, ys, block)
        fresh = L.loss_and_grad(model, xs, ys)
        assert reused[0] == fresh[0]
        for name in L.PARAM_SHAPES:
            assert np.array_equal(reused[1][name], fresh[1][name])
        with pytest.raises(ConfigError, match="pass block"):
            L.loss_and_grad(model, xs[:39], ys[:39], block)

    @pytest.mark.parametrize(
        "eps, entry_stride",
        [(1e-5, -1), (1e-5, 0), (1e-5, 2.5), (1e-5, True), (0.0, 1), (-1e-5, 1), (math.nan, 1), (math.inf, 1)],
    )
    def test_gradient_check_rejects_vacuous_settings(self, eps, entry_stride):
        # unchecked, a negative stride checks no entry and reports a perfect gradient
        model, xs, ys = kink_free_lstm_fixture()
        with pytest.raises(ConfigError):
            gradient_check(model, xs, ys, eps=eps, entry_stride=entry_stride)


class TestColumnBlocks:
    """Passes run on column blocks in threads; the result must not depend on their number."""

    @staticmethod
    def windows(n, t_len, seed):
        rng = np.random.default_rng(seed)
        return rng.normal(scale=90.0, size=(n, t_len, 2)), rng.normal(scale=0.4, size=(n, 2))

    @staticmethod
    def each_block_count(monkeypatch, run):
        results = []
        for k in (1, 2, 3):
            monkeypatch.setattr(L, "_n_blocks", lambda b, k=k: k)
            results.append(run())
        return results

    def test_blocks_cover_the_batch_once_with_aligned_bounds(self, monkeypatch):
        for b in (1, 63, 64, 300, 1100, 4096):
            for k in (1, 2, 3, 7):
                monkeypatch.setattr(L, "_n_blocks", lambda b, k=k: k)
                blocks = L._column_blocks(b)
                assert [lo for lo, _, _ in blocks[1:]] == [hi for _, hi, _ in blocks[:-1]]
                assert blocks[0][0] == 0 and blocks[-1][1] == b
                assert all(lo % L.BLOCK_ALIGN == 0 and hi > lo for lo, hi, _ in blocks)
                assert [lo + cut for lo, _, cut in blocks][-1] == b - b % L.BLOCK_ALIGN

    def test_block_count_is_bounded_by_cpus_and_width(self):
        assert L._n_blocks(1) == 1
        assert L._n_blocks(L.BLOCK_MIN * 2 - 1) == 1
        assert 1 <= L._n_blocks(10**6) <= L._usable_cpus()

    @pytest.mark.parametrize(("threads", "per_cpu"), [(1, 1), (2, 2), (None, 1)])
    def test_block_count_leaves_blas_threads_their_cpus(self, monkeypatch, threads, per_cpu):
        # a missing library or symbol leaves one block per usable CPU
        monkeypatch.setattr(L, "_blas_thread_reader", lambda: None if threads is None else lambda: threads)
        for cpus in (1, 2, 3, 4, 8):
            monkeypatch.setattr(L, "_usable_cpus", lambda cpus=cpus: cpus)
            for b in range(1, 10 * L.BLOCK_MIN):
                assert L._n_blocks(b) == max(1, min(cpus // per_cpu, b // L.BLOCK_MIN))

    def test_blas_thread_count_reads_a_count_or_none(self):
        threads = L._blas_threads()
        assert threads is None or threads >= 1

    def test_loss_and_grad_invariant(self, monkeypatch):
        # 300 is not a multiple of the block alignment: the batch has a ragged tail
        model = L.LstmModel.init_seeded(7)
        xs, ys = self.windows(300, 12, 1)
        runs = self.each_block_count(monkeypatch, lambda: L.loss_and_grad(model, xs, ys))
        for loss, grads in runs[1:]:
            assert loss == runs[0][0]
            for name in L.PARAM_SHAPES:
                assert np.array_equal(grads[name], runs[0][1][name])

    def test_lstm_forward_invariant(self, monkeypatch):
        model = L.LstmModel.init_seeded(8)
        xs, _ = self.windows(1100, 20, 2)
        runs = self.each_block_count(monkeypatch, lambda: L.lstm_forward(model, xs))
        for pred in runs[1:]:
            assert np.array_equal(pred, runs[0])

    def test_lstm_train_invariant(self, monkeypatch):
        # batches of 300, 300 and a short last one of 100
        xs, ys = self.windows(700, 12, 3)
        wb = L.WindowBatch(xs, ys, np.arange(len(xs)))
        cfg = L.TrainConfig(batch_size=300, epochs=2, rng_seed=4)

        def train():
            model = L.LstmModel.init_seeded(9)
            losses = [h.train_loss for h in L.lstm_train(model, wb, cfg).history]
            return losses, model.params

        runs = self.each_block_count(monkeypatch, train)
        for losses, params in runs[1:]:
            assert losses == runs[0][0]
            for name in L.PARAM_SHAPES:
                assert np.array_equal(params[name], runs[0][1][name])

    def test_block_loops_allocate_no_temporaries(self):
        # every per-step temporary goes to the pass block's scratch; one
        # (HIDDEN, 128) float64 array, or a numpy buffer for a strided
        # operand, would be 32 KB
        b, lo, t_len = 256, 128, 20
        xs, _ = self.windows(b, t_len, 5)
        model = L.LstmModel.init_seeded(0)
        layers = L._fused_layers(model.params)
        back = [np.ascontiguousarray(w[:, :-1].T) for w, _, _ in layers]
        dh_head = np.ones((L.HIDDEN, b))
        train, infer = L._pass_block(t_len, b), L._pass_block(0, b)
        loops = [
            lambda: L._forward_block(layers, xs, 1e-3, train, True, lo, b, b - lo),
            lambda: L._forward_block(layers, xs, 1e-3, infer, False, lo, b, b - lo),
            lambda: L._backward_block(back, dh_head, train, lo, b, b - lo),
        ]
        for loop in loops:
            loop()  # numpy's first-call caches
            tracemalloc.start()
            try:
                loop()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8192

    def test_failure_in_a_pool_block_reaches_the_caller(self, monkeypatch):
        class BlockFailure(Exception):
            pass

        forward_block = L._forward_block

        def failing_block(*args):
            lo = args[-3]
            if lo > 0:
                raise BlockFailure(lo)
            forward_block(*args)

        monkeypatch.setattr(L, "_forward_block", failing_block)
        monkeypatch.setattr(L, "_n_blocks", lambda b: 3)
        xs, _ = self.windows(1024, 5, 4)
        with pytest.raises(BlockFailure):
            L.lstm_forward(L.LstmModel.init_seeded(0), xs)


class TestEvaluateLoss:
    @staticmethod
    def windows(n):
        rng = np.random.default_rng(8)
        return L.WindowBatch(
            rng.normal(scale=80.0, size=(n, 12, 2)), rng.normal(scale=0.4, size=(n, 2)), np.arange(n)
        )

    def test_equals_single_pass_sum_over_n(self):
        model = L.LstmModel.init_seeded(5)
        wb = self.windows(50)
        diff = L.lstm_forward(model, wb.inputs) - wb.targets
        assert L.evaluate_loss(model, wb) == (0.0 + float(np.hypot(diff[:, 0], diff[:, 1]).sum())) / 50

    def test_many_passes_give_the_mean_distance(self, monkeypatch):
        model = L.LstmModel.init_seeded(5)
        wb = self.windows(50)
        pred = np.array([L.lstm_forward(model, x[None])[0] for x in wb.inputs])
        mean = float(np.mean(np.hypot(*(pred - wb.targets).T)))
        monkeypatch.setattr(L, "INFER_CHUNK", 16)
        assert L.evaluate_loss(model, wb) == pytest.approx(mean, rel=1e-12)


class TestTraining:
    def test_shuffle_is_permutation(self):
        order = L.shuffle_order(257, rng_seed=3, epoch=2)
        assert np.array_equal(np.sort(order), np.arange(257))
        assert not np.array_equal(order, L.shuffle_order(257, rng_seed=3, epoch=3))

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(9)
        wb = L.WindowBatch(
            rng.normal(scale=50.0, size=(64, 10, 2)),
            rng.normal(scale=0.3, size=(64, 2)),
            np.arange(64),
        )
        cfg = L.TrainConfig(batch_size=32, epochs=2, rng_seed=5)
        runs = []
        for _ in range(2):
            model = L.LstmModel.init_seeded(5)
            L.lstm_train(model, wb, cfg)
            runs.append(model.copy_params())
        for name in L.PARAM_SHAPES:
            assert np.array_equal(runs[0][name], runs[1][name])

    def test_training_reduces_loss(self):
        wb = ramp_windows(10.0, -6.0, n=400)
        model = L.LstmModel.init_seeded(1)
        res = L.lstm_train(model, wb, L.TrainConfig(batch_size=128, epochs=4, rng_seed=0))
        assert res.history[-1].train_loss < res.history[0].train_loss

    def test_divergence_reports_location(self):
        wb = ramp_windows(5.0, 0.0, n=300)
        inputs = wb.inputs.copy()
        inputs[0, 0, 0] = np.nan
        broken = L.WindowBatch(inputs, wb.targets, wb.end_indices)
        model = L.LstmModel.init_seeded(1)
        with pytest.raises(DivergenceError, match="epoch 0"):
            L.lstm_train(model, broken, L.TrainConfig(batch_size=1024, epochs=1))

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("batch_size", 2.5),
            ("batch_size", True),
            ("epochs", 1.5),
            ("epochs", 0),
            ("patience", 0),
            ("rng_seed", -1),
            ("rng_seed", 0.5),
            ("lr", math.nan),
            ("lr", math.inf),
            ("lr", 0.0),
        ],
    )
    def test_config_rejects_bad_values(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            L.TrainConfig(**{field: bad})

    def test_empty_training_set(self):
        empty = L.WindowBatch(np.empty((0, 100, 2)), np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(EmptyInputError):
            L.lstm_train(L.LstmModel.init_seeded(0), empty)
        with pytest.raises(EmptyInputError):
            L.evaluate_loss(L.LstmModel.init_seeded(0), empty)

    def test_best_weights_restored(self):
        rng = np.random.default_rng(3)
        wb = L.WindowBatch(
            rng.normal(scale=80.0, size=(96, 12, 2)),
            rng.normal(scale=0.4, size=(96, 2)),
            np.arange(96),
        )
        val = L.WindowBatch(
            rng.normal(scale=80.0, size=(32, 12, 2)),
            rng.normal(scale=0.4, size=(32, 2)),
            np.arange(32),
        )
        model = L.LstmModel.init_seeded(2)
        res = L.lstm_train(model, wb, L.TrainConfig(batch_size=32, epochs=6, rng_seed=1), val_windows=val)
        best = min(h.val_loss for h in res.history)
        assert L.evaluate_loss(model, val) == pytest.approx(best, abs=1e-12)
        assert res.history[res.best_epoch].val_loss == pytest.approx(best, abs=0)

    def test_toy_corpus_converges_to_analytic_displacement(self, monkeypatch):
        # constant-velocity corpus: every window's true displacement is v*PI
        grid = np.linspace(-10, 10, 5)
        wb = concat([ramp_windows(vx, vy) for vx in grid for vy in grid])
        order = np.random.default_rng(1).permutation(len(wb))
        n_hold = len(wb) // 5
        hold, train = wb[order[:n_hold]], wb[order[n_hold:]]
        model = L.LstmModel.init_seeded(3)
        monkeypatch.setattr(L, "INPUT_SCALE", 3e-2)  # slow-velocity corpus: keep gates off the flat region
        cfg = L.TrainConfig(batch_size=256, lr=3e-3, epochs=50, patience=50, rng_seed=7)
        res = L.lstm_train(model, train, cfg, val_windows=hold)
        assert res.history[-1].train_loss < res.history[0].train_loss
        pred = L.lstm_forward(model, hold.inputs)
        err = np.hypot(*(pred - hold.targets).T)
        assert err.max() <= 0.02


class TestBaselines:
    def test_constant_position_on_static_fixation(self):
        n = 500
        rec = recording_from_arrays("T", np.full(n, 3.0), np.full(n, -1.5))
        run = L.baseline_predict("constant-position", rec, None, PI)
        idx = np.flatnonzero(run.valid_mask)
        assert idx.size == n - PI
        assert np.array_equal(run.predicted[idx, 0], rec.x[idx + PI])
        assert np.array_equal(run.predicted[idx, 1], rec.y[idx + PI])

    def test_constant_velocity_exact_on_ramp(self):
        rec = ramp_recording(10.0, -5.0, 500)
        run = L.baseline_predict("constant-velocity", rec, compute_velocity(rec, CAUSAL), PI)
        idx = np.flatnonzero(run.valid_mask)
        assert idx.size > 300
        assert np.allclose(run.predicted[idx, 0], rec.x[idx + PI], atol=1e-9)
        assert np.allclose(run.predicted[idx, 1], rec.y[idx + PI], atol=1e-9)

    def test_constant_position_lag_on_ramp(self):
        rec = ramp_recording(10.0, 0.0, 500)
        run = L.baseline_predict("constant-position", rec, None, PI)
        idx = np.flatnonzero(run.valid_mask)
        err = np.hypot(
            run.predicted[idx, 0] - rec.x[idx + PI], run.predicted[idx, 1] - rec.y[idx + PI]
        )
        assert np.allclose(err, 0.4, atol=1e-9)

    def test_mask_excludes_tail_and_invalid_targets(self):
        n = 500
        valid = np.ones(n, dtype=bool)
        valid[300] = False
        t = np.arange(n)
        rec = recording_from_arrays("T", t / 100.0, np.zeros(n), valid=valid)
        run = L.baseline_predict("constant-position", rec, None, PI)
        assert not run.valid_mask[n - PI :].any()
        assert not run.valid_mask[300 - PI]
        assert not run.valid_mask[300]

    @pytest.mark.parametrize("kind", ["constant-position", "constant-velocity"])
    def test_equals_mask_scatter(self, kind):
        # the blink-injected OPKF reference recording: invalid samples, and
        # valid ones without a velocity estimate
        with np.load(Path(__file__).parent / "data" / "opkf_reference.npz") as data:
            rec = recording_from_arrays("ref", data["x"], data["y"], valid=data["valid"])
        vel = compute_velocity(rec, CAUSAL)
        assert (rec.valid & ~vel.valid).any() and (~rec.valid).any()
        want = np.full((rec.n_samples, 2), np.nan)
        if kind == "constant-position":
            issued = rec.valid
            want[issued, 0] = rec.x[issued]
            want[issued, 1] = rec.y[issued]
        else:
            issued = rec.valid & vel.valid
            want[issued, 0] = rec.x[issued] + vel.vx[issued] * (PI / 1000.0)
            want[issued, 1] = rec.y[issued] + vel.vy[issued] * (PI / 1000.0)
        run = L.baseline_predict(kind, rec, vel, PI)
        assert np.array_equal(run.predicted, want, equal_nan=True)

    def test_bad_inputs(self):
        rec = ramp_recording(1.0, 0.0, 300)
        with pytest.raises(ConfigError):
            L.baseline_predict("quadratic", rec, None, PI)
        with pytest.raises(ConfigError):
            L.baseline_predict("constant-velocity", rec, None, PI)


class TestLstmPredictRecording:
    def test_zero_net_predicts_current_position(self):
        rec = ramp_recording(10.0, 2.0, 400)
        vel = compute_velocity(rec, CAUSAL)
        model = L.LstmModel({k: np.zeros(s) for k, s in L.PARAM_SHAPES.items()})
        run = L.lstm_predict_recording(model, rec, vel, PI)
        idx = np.flatnonzero(run.valid_mask)
        assert idx.size > 0
        assert idx.min() >= L.WINDOW_SAMPLES - 1
        assert np.array_equal(run.predicted[idx, 0], rec.x[idx])
        assert np.array_equal(run.predicted[idx, 1], rec.y[idx])
        assert not run.valid_mask[400 - PI :].any()

    def test_chunked_equals_single_pass(self, monkeypatch):
        rec = ramp_recording(-4.0, 7.0, 450)
        vel = compute_velocity(rec, CAUSAL)
        model = L.LstmModel.init_seeded(6)
        monkeypatch.setattr(L, "INFER_CHUNK", 64)
        a = L.lstm_predict_recording(model, rec, vel, PI)
        monkeypatch.setattr(L, "INFER_CHUNK", 100000)
        b = L.lstm_predict_recording(model, rec, vel, PI)
        assert np.array_equal(a.valid_mask, b.valid_mask)
        assert np.allclose(a.predicted, b.predicted, atol=1e-12, equal_nan=True)

    def test_nan_model_fails_scoring(self):
        # every flagged prediction is NaN; unchecked, scoring returns NaN errors
        rec = ramp_recording(-4.0, 7.0, 450)
        vel = compute_velocity(rec, CAUSAL)
        model = L.LstmModel({k: np.full(s, np.nan) for k, s in L.PARAM_SHAPES.items()})
        run = L.lstm_predict_recording(model, rec, vel, PI)
        first = int(np.flatnonzero(run.valid_mask)[0])
        with pytest.raises(DataError, match=f"prediction {first} "):
            score_run(run, rec, [EventSegment(EventKind.FIXATION, 0, 449)])
