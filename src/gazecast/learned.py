"""Baseline extrapolators and a small from-scratch LSTM displacement forecaster.

The LSTM consumes 100 ms windows of 2-D velocity and emits the gaze
displacement from the window end to the window end + PI. Everything here is
plain numpy in float64: forward, backpropagation through time, and Adam are
written out explicitly so the gradient can be checked against central finite
differences.

Each layer-step is one matmul and one tanh. A layer keeps its operand
``[x_t, h_{t-1}, 1]`` in one buffer and multiplies it by the fused
``[Wx | Wh | b]``, with the gate blocks reordered to [i, f, o, g] so the
three sigmoid gates are contiguous. Since sigmoid(z) = 0.5 + 0.5 tanh(z/2)
and halving is exact in binary floating point, the sigmoid rows of the fused
matrix are halved once per call, and one tanh over the whole gate block
followed by an in-place ``*0.5 + 0.5`` on the sigmoid block yields all four
gates. Arrays are laid out feature-major with the batch last, so each gate
block is a run of contiguous rows. Training keeps the operands, activations
and cell states of every step in views of one preallocated block; BPTT
overwrites each spent activation slot with its gate gradient, so each
layer's weight gradient is one matmul over all T·B columns after the loop.
Inference runs through ``lstm_forward``, ``INFER_CHUNK`` windows per pass,
so its pass buffers do not grow with the number of windows.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ConfigError, DivergenceError, EmptyInputError, check_int
from .metrics import PredictionRun, _check_pi
from .signal import GazeRecording, VelocityTrace

WINDOW_SAMPLES = 100
HIDDEN = 32
INFER_CHUNK = 4096  # windows per inference pass

# velocities arrive in dva/s; the net sees dva/ms so the inputs live in a
# range where the gate nonlinearities are not saturated from the start
INPUT_SCALE = 1e-3

# gate rows within each stacked (4*HIDDEN, .) LSTM matrix
_I, _F, _G, _O = (slice(k * HIDDEN, (k + 1) * HIDDEN) for k in range(4))

# row order of the fused layer matrix, [i, f, o, g]: the three sigmoid gates
# form one block. Swapping the last two blocks is its own inverse.
_FUSED_ORDER = np.r_[_I, _F, _O, _G]
_SIG = slice(0, 3 * HIDDEN)

PARAM_SHAPES: dict[str, tuple[int, ...]] = {
    "lstm1.Wx": (4 * HIDDEN, 2),
    "lstm1.Wh": (4 * HIDDEN, HIDDEN),
    "lstm1.b": (4 * HIDDEN,),
    "lstm2.Wx": (4 * HIDDEN, HIDDEN),
    "lstm2.Wh": (4 * HIDDEN, HIDDEN),
    "lstm2.b": (4 * HIDDEN,),
    "fc1.W": (32, HIDDEN),
    "fc1.b": (32,),
    "fc2.W": (16, 32),
    "fc2.b": (16,),
    "out.W": (2, 16),
    "out.b": (2,),
}

N_PARAMS = sum(int(np.prod(s)) for s in PARAM_SHAPES.values())  # 14418


def _mapped_zeros(shape) -> np.ndarray:
    """Float64 zeros in an anonymous memory mapping of their own.

    The mapping is released whole when the last view of the array goes. The
    multi-megabyte window and pass arrays otherwise come from the C heap once
    glibc has raised its mmap threshold, and a small block left above them
    keeps the heap from shrinking: the ``lstm`` benchmark's peak RSS then
    rose by about 27 MB at a pass that varied from run to run.
    """
    n = math.prod(shape)
    buf = mmap.mmap(-1, max(n, 1) * 8, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        # as numpy does for its own large arrays; with 4 KiB pages the
        # benchmark's lstm passes ran about 0.5 s (12%) slower
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=float, count=n).reshape(shape)


@dataclass
class WindowBatch:
    """Column-wise window storage; slices and index arrays select sub-batches."""

    inputs: np.ndarray  # (n, 100, 2) velocity in dva/s
    targets: np.ndarray  # (n, 2) displacement in dva, window end -> end + PI
    end_indices: np.ndarray  # (n,) sample index of each window end

    def __post_init__(self):
        n = len(self.inputs)
        if len(self.targets) != n or len(self.end_indices) != n:
            raise AlignmentError("window arrays disagree on length")

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise ConfigError(f"only slices and index arrays select windows, got int {key}")
        if isinstance(key, slice):
            return WindowBatch(self.inputs[key], self.targets[key], self.end_indices[key])
        rows = np.arange(len(self))[key]
        inputs = _mapped_zeros(rows.shape + self.inputs.shape[1:])
        # rows are in range; "clip" lets take write straight into ``inputs``
        np.take(self.inputs, rows, axis=0, out=inputs, mode="clip")
        return WindowBatch(inputs, self.targets[rows], self.end_indices[rows])


def _check_causal(rec: GazeRecording, vel: VelocityTrace, user: str) -> None:
    if len(vel.vx) != rec.n_samples:
        raise AlignmentError("velocity trace misaligned with recording")
    if vel.cfg.mode != "causal":
        # a centered trace looks ahead, so a prediction from it would see the future
        raise ConfigError(f"{user} needs a causal velocity trace, got mode {vel.cfg.mode!r}")


def _valid_window_ends(rec: GazeRecording, vel: VelocityTrace) -> np.ndarray:
    """Window-end indices whose trailing 100 samples are all usable."""
    _check_causal(rec, vel, "an LSTM window")
    n = rec.n_samples
    ok = vel.valid & rec.valid
    csum = np.concatenate([[0], np.cumsum(ok.astype(np.int64))])
    ends = np.arange(WINDOW_SAMPLES - 1, n)
    full = (csum[ends + 1] - csum[ends + 1 - WINDOW_SAMPLES]) == WINDOW_SAMPLES
    return ends[full]


def _window_inputs(vel: VelocityTrace, ends: np.ndarray) -> np.ndarray:
    """The (len(ends), 100, 2) contiguous velocity windows ending at ``ends``."""
    if ends.size == 0:  # also when the recording is shorter than a window
        return np.empty((0, WINDOW_SAMPLES, 2))
    vxy = np.column_stack([vel.vx, vel.vy])
    view = np.lib.stride_tricks.sliding_window_view(vxy, WINDOW_SAMPLES, axis=0).transpose(0, 2, 1)
    out = _mapped_zeros((ends.size, WINDOW_SAMPLES, 2))
    for s in range(0, ends.size, 512):  # blocks keep the gather's temporary small
        out[s : s + 512] = view[ends[s : s + 512] - (WINDOW_SAMPLES - 1)]
    return out


def make_windows(rec: GazeRecording, vel: VelocityTrace, pi_ms: int) -> WindowBatch:
    """Sliding windows at stride 1 ms; invalid spans and targets are dropped.

    A window ending at sample t needs velocity for samples [t-99, t] and a
    valid gaze position at t and t + PI; anything touching a blink fails the
    validity flags and vanishes here. An empty batch is a legal result.
    """
    _check_pi(pi_ms)
    ends = _valid_window_ends(rec, vel)
    ends = ends[ends + pi_ms < rec.n_samples]
    ends = ends[rec.valid[ends + pi_ms]]
    targets = np.column_stack(
        [rec.x[ends + pi_ms] - rec.x[ends], rec.y[ends + pi_ms] - rec.y[ends]]
    )
    return WindowBatch(_window_inputs(vel, ends), targets, ends.astype(np.int64))


# ---------------------------------------------------------------------------
# model


class LstmModel:
    """Two stacked LSTM layers (hidden 32) with a small dense head.

    Head wiring: last hidden state -> FC 32->32 (rectified) -> FC 32->16
    (rectified) -> linear 16->2. The 2-unit projection exists to reach the
    displacement output and is counted in N_PARAMS.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        for name, shape in PARAM_SHAPES.items():
            if name not in params:
                raise ConfigError(f"missing parameter tensor {name}")
            if params[name].shape != shape:
                raise ConfigError(
                    f"parameter {name} has shape {params[name].shape}, expected {shape}"
                )
        self.params = {name: np.asarray(params[name], dtype=float) for name in PARAM_SHAPES}
        self.input_scale = INPUT_SCALE

    @classmethod
    def init_seeded(cls, rng_seed: int) -> "LstmModel":
        """Glorot-uniform weights, zero biases, forget-gate bias +1."""
        rng = np.random.default_rng(rng_seed)
        params = {}
        for name, shape in PARAM_SHAPES.items():
            if name.endswith(".b"):
                params[name] = np.zeros(shape)
            else:
                limit = math.sqrt(6.0 / (shape[0] + shape[1]))
                params[name] = rng.uniform(-limit, limit, size=shape)
        params["lstm1.b"][_F] = 1.0
        params["lstm2.b"][_F] = 1.0
        return cls(params)

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def _fused_layers(p: dict[str, np.ndarray]):
    """Per layer: (W, W_half, n_in).

    W is [Wx | Wh | b] with rows in [i, f, o, g] order, (4H, n_in + H + 1);
    W_half is W with the sigmoid rows halved, the forward matmul's operand.
    """
    layers = []
    for prefix in ("lstm1", "lstm2"):
        wx = p[f"{prefix}.Wx"]
        w = np.hstack([wx, p[f"{prefix}.Wh"], p[f"{prefix}.b"][:, None]])[_FUSED_ORDER]
        half = w.copy()
        half[_SIG] *= 0.5
        layers.append((w, half, wx.shape[1]))
    return layers


def _gate_views(z: np.ndarray):
    """The i, f, o, g row blocks of a fused-order (4H, B) gate array."""
    return z[:HIDDEN], z[HIDDEN : 2 * HIDDEN], z[2 * HIDDEN : 3 * HIDDEN], z[3 * HIDDEN :]


def _pass_buffers(layers, slots: int, rows: int, b: int):
    """Operand (bias row 1, rest 0), cell-state (0) and activation arrays.

    They are views of one mapped block (a 256-window training pass needs
    86 MB), so the block is released whole. As separate heap arrays they
    left multi-megabyte holes in the heap, and 6 of 10 identical ``lstm``
    benchmark runs peaked about 25 MB higher.
    """
    shapes = [(n_in + HIDDEN + 1, slots, b) for _, _, n_in in layers]
    shapes += [(len(layers), HIDDEN, slots, b), (len(layers), 4 * HIDDEN, rows, b)]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(_mapped_zeros((sum(sizes),)), np.cumsum(sizes)[:-1])
    *ops, cs, acts = (part.reshape(shape) for part, shape in zip(parts, shapes))
    for op in ops:
        op[-1] = 1.0
    return ops, cs, acts


def _forward(model: LstmModel, xs: np.ndarray, want_cache: bool):
    """Batched sequence-to-one pass; xs is (B, T, 2) in dva/s.

    The recurrence runs feature-major, batch last, so every gate block and
    state is a run of contiguous rows. Slot r of ``ops[l]`` (K, slots, B) is
    layer l's operand [x, h, 1] for step r, and slot r of ``cs[l]`` the cell
    state entering it. With the cache every step owns its slot of each
    array, (T + 1) for operands and cell states and T for activations;
    without it two slots alternate and one activation slot is reused, so
    memory does not grow with T.
    """
    b, t_len, _ = xs.shape
    layers = _fused_layers(model.params)
    slots, rows = (t_len + 1, t_len) if want_cache else (2, 1)
    ops, cs, acts = _pass_buffers(layers, slots, rows, b)
    tc = np.empty((HIDDEN, b))

    nxt = 0
    for t in range(t_len):
        cur, nxt, row = (t, t + 1, t) if want_cache else (t % 2, 1 - t % 2, 0)
        np.multiply(xs[:, t].T, model.input_scale, out=ops[0][:2, cur])
        for li, (_, w_half, n_in) in enumerate(layers):
            z = acts[li][:, row]
            np.matmul(w_half, ops[li][:, cur], out=z)
            np.tanh(z, out=z)
            sig = z[_SIG]
            sig *= 0.5
            sig += 0.5
            i, f, o, g = _gate_views(z)
            c = cs[li][:, nxt]
            np.multiply(f, cs[li][:, cur], out=c)
            c += i * g
            np.tanh(c, out=tc)
            h = ops[li][n_in:-1, nxt]
            np.multiply(o, tc, out=h)
            if li == 0:
                # layer 2 reads layer 1's hidden state at the same step
                ops[1][:HIDDEN, cur] = h

    p = model.params
    h_last = ops[1][HIDDEN:-1, nxt].T
    a1_pre = h_last @ p["fc1.W"].T + p["fc1.b"]
    a1 = np.maximum(a1_pre, 0.0)
    a2_pre = a1 @ p["fc2.W"].T + p["fc2.b"]
    a2 = np.maximum(a2_pre, 0.0)
    pred = a2 @ p["out.W"].T + p["out.b"]
    cache = None
    if want_cache:
        cache = {
            "layers": layers,
            "ops": ops,
            "cs": cs,
            "acts": acts,
            "head": (h_last, a1_pre, a1, a2_pre, a2),
        }
    return pred, cache


def lstm_forward(model: LstmModel, inputs: np.ndarray) -> np.ndarray:
    """Predict displacement for one window (T, 2) or a batch (B, T, 2).

    Each forward pass takes at most INFER_CHUNK windows.
    """
    xs = np.asarray(inputs, dtype=float)
    single = xs.ndim == 2
    if single:
        xs = xs[None]
    if xs.ndim != 3 or xs.shape[-1] != 2 or xs.shape[1] < 1:
        raise ConfigError(f"expected windows shaped (B, T, 2), got {np.shape(inputs)}")
    pred = np.empty((len(xs), 2))
    for s in range(0, len(xs), INFER_CHUNK):
        pred[s : s + INFER_CHUNK] = _forward(model, xs[s : s + INFER_CHUNK], want_cache=False)[0]
    return pred[0] if single else pred


def _loss_grad_from_pred(pred: np.ndarray, targets: np.ndarray):
    diff = pred - targets
    dist = np.hypot(diff[:, 0], diff[:, 1])
    loss = float(dist.mean())
    # distance is non-differentiable at 0; the floor only guards division
    dpred = diff / (np.maximum(dist, 1e-12)[:, None] * len(pred))
    return loss, dpred


def loss_and_grad(model: LstmModel, inputs: np.ndarray, targets: np.ndarray):
    """Mean Euclidean loss and its gradient for every parameter tensor."""
    xs = np.asarray(inputs, dtype=float)
    ys = np.asarray(targets, dtype=float)
    if xs.ndim != 3 or ys.shape != (len(xs), 2):
        raise ConfigError("inputs must be (B, T, 2) with targets (B, 2)")
    p = model.params
    pred, cache = _forward(model, xs, want_cache=True)
    loss, dpred = _loss_grad_from_pred(pred, ys)

    grads = {}
    h_last, a1_pre, a1, a2_pre, a2 = cache["head"]

    grads["out.W"] = dpred.T @ a2
    grads["out.b"] = dpred.sum(axis=0)
    da2 = (dpred @ p["out.W"]) * (a2_pre > 0)
    grads["fc2.W"] = da2.T @ a1
    grads["fc2.b"] = da2.sum(axis=0)
    da1 = (da2 @ p["fc2.W"]) * (a1_pre > 0)
    grads["fc1.W"] = da1.T @ h_last
    grads["fc1.b"] = da1.sum(axis=0)
    dh_head = da1 @ p["fc1.W"]

    layers, ops, cs, acts = (cache[k] for k in ("layers", "ops", "cs", "acts"))
    b, t_len, _ = xs.shape
    back = [np.ascontiguousarray(w[:, :-1].T) for w, _, _ in layers]  # [Wx | Wh]^T
    dh = [np.zeros((HIDDEN, b)), np.ascontiguousarray(dh_head.T)]
    dc = [np.zeros((HIDDEN, b)), np.zeros((HIDDEN, b))]
    d_sig = np.empty((3 * HIDDEN, b))  # dL/d[i, f, o]
    for t in range(t_len - 1, -1, -1):
        for li in (1, 0):
            z = acts[li][:, t]
            i, f, o, g = _gate_views(z)
            tc = np.tanh(cs[li][:, t + 1])
            dct = dh[li] * o
            dct *= 1.0 - tc * tc
            dct += dc[li]
            np.multiply(dct, g, out=d_sig[:HIDDEN])
            np.multiply(dct, cs[li][:, t], out=d_sig[HIDDEN : 2 * HIDDEN])
            np.multiply(dh[li], tc, out=d_sig[2 * HIDDEN :])
            dc[li] = dct * f
            # the spent activations become the pre-activation gradients
            dg = 1.0 - g * g
            dg *= i
            np.multiply(dg, dct, out=g)
            sig = z[_SIG]
            sig -= sig * sig
            sig *= d_sig
            d_op = back[li] @ z
            dh[li] = d_op[-HIDDEN:]
            if li == 1:
                # layer 2's input is layer 1's hidden state at the same step
                dh[0] += d_op[:HIDDEN]

    for (w, _, n_in), op, dz, prefix in zip(layers, ops, acts, ("lstm1", "lstm2")):
        # one matmul over all T*B columns; indexing by _FUSED_ORDER restores [i, f, g, o]
        dw = (dz.reshape(4 * HIDDEN, t_len * b) @ op[:, :t_len].reshape(len(op), t_len * b).T)[_FUSED_ORDER]
        grads[f"{prefix}.Wx"] = dw[:, :n_in]
        grads[f"{prefix}.Wh"] = dw[:, n_in:-1]
        grads[f"{prefix}.b"] = dw[:, -1]
    return loss, grads


def evaluate_loss(model: LstmModel, windows) -> float:
    """Mean Euclidean distance over a window batch, forward-only."""
    if len(windows.inputs) == 0:
        raise EmptyInputError("no windows to evaluate")
    return _loss_grad_from_pred(lstm_forward(model, windows.inputs), windows.targets)[0]


def gradient_check(
    model: LstmModel,
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
    _, grads = loss_and_grad(model, xs, ys)
    worst = 0.0
    for name in PARAM_SHAPES:
        flat = model.params[name].reshape(-1)
        g_flat = grads[name].reshape(-1)
        for j in range(0, flat.size, entry_stride):
            keep = flat[j]
            flat[j] = keep + eps
            up_pred, _ = _forward(model, xs, False)
            loss_up, _ = _loss_grad_from_pred(up_pred, ys)
            flat[j] = keep - eps
            dn_pred, _ = _forward(model, xs, False)
            loss_dn, _ = _loss_grad_from_pred(dn_pred, ys)
            flat[j] = keep
            numeric = (loss_up - loss_dn) / (2.0 * eps)
            # the difference quotient carries ~1e-11 absolute roundoff, so
            # entries below 1e-6 are compared on that absolute scale instead
            denom = max(abs(numeric) + abs(g_flat[j]), 1e-6)
            worst = max(worst, abs(numeric - g_flat[j]) / denom)
    return worst


# ---------------------------------------------------------------------------
# training

# Adam's moment decay rates and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 256
    lr: float = 3e-4
    epochs: int = 10
    patience: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        for name, least in (("batch_size", 1), ("epochs", 1), ("patience", 1), ("rng_seed", 0)):
            check_int(name, getattr(self, name), least)
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr!r}")


class EpochStats(NamedTuple):
    epoch: int
    train_loss: float
    val_loss: float  # NaN when no validation windows were given


@dataclass(frozen=True)
class TrainResult:
    history: tuple[EpochStats, ...]
    best_epoch: int


def shuffle_order(n: int, rng_seed: int, epoch: int) -> np.ndarray:
    """Permutation of range(n), deterministic in (seed, epoch)."""
    return np.random.default_rng([rng_seed, epoch]).permutation(n)


def lstm_train(model: LstmModel, windows, cfg: TrainConfig = TrainConfig(), val_windows=None) -> TrainResult:
    """Mini-batch Adam; mutates the model in place and returns the history.

    Shuffles window order each epoch (keyed by seed and epoch), never
    dropping a window. With validation windows the loop early-stops after
    ``patience`` epochs without improvement and restores the best weights.
    """
    xs = np.asarray(windows.inputs, dtype=float)
    ys = np.asarray(windows.targets, dtype=float)
    n = len(xs)
    if n == 0:
        raise EmptyInputError("no training windows")

    adam_t = 0
    m = {k: np.zeros_like(v) for k, v in model.params.items()}
    v = {k: np.zeros_like(val) for k, val in model.params.items()}

    history: list[EpochStats] = []
    best_val = math.inf
    best_snapshot = None
    best_epoch = 0
    bad_epochs = 0

    for epoch in range(cfg.epochs):
        order = shuffle_order(n, cfg.rng_seed, epoch)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            loss, grads = loss_and_grad(model, xs[sel], ys[sel])
            if not math.isfinite(loss):
                raise DivergenceError(epoch, start // cfg.batch_size)
            total += loss * len(sel)
            adam_t += 1
            bc1 = 1.0 - ADAM_BETA1**adam_t
            bc2 = 1.0 - ADAM_BETA2**adam_t
            for name, p in model.params.items():
                g = grads[name]
                m[name] = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
                v[name] = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * (g * g)
                p -= cfg.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
        train_loss = total / n

        val_loss = float("nan")
        if val_windows is not None and len(val_windows) > 0:
            val_loss = evaluate_loss(model, val_windows)
        history.append(EpochStats(epoch, train_loss, val_loss))

        if math.isfinite(val_loss):
            if val_loss < best_val:
                best_val = val_loss
                best_snapshot = model.copy_params()
                best_epoch = epoch
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break
        else:
            best_epoch = epoch

    if best_snapshot is not None:
        for name in model.params:
            model.params[name][...] = best_snapshot[name]
    return TrainResult(history=tuple(history), best_epoch=best_epoch)


# ---------------------------------------------------------------------------
# recording-level prediction


def baseline_predict(kind: str, rec: GazeRecording, vel: VelocityTrace | None, pi_ms: int) -> PredictionRun:
    """Reference extrapolators: hold the position, or project the velocity."""
    _check_pi(pi_ms)
    n = rec.n_samples
    predicted = np.full((n, 2), np.nan)
    if kind == "constant-position":
        issued = rec.valid.copy()
        predicted[issued, 0] = rec.x[issued]
        predicted[issued, 1] = rec.y[issued]
    elif kind == "constant-velocity":
        if vel is None:
            raise ConfigError("constant-velocity needs a velocity trace")
        _check_causal(rec, vel, "constant-velocity")
        issued = rec.valid & vel.valid
        dt_s = pi_ms / 1000.0
        predicted[issued, 0] = rec.x[issued] + vel.vx[issued] * dt_s
        predicted[issued, 1] = rec.y[issued] + vel.vy[issued] * dt_s
    else:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    return PredictionRun.from_issued(rec, pi_ms, predicted, issued)


def lstm_predict_recording(model: LstmModel, rec: GazeRecording, vel: VelocityTrace, pi_ms: int) -> PredictionRun:
    """Causal pass: at each sample with a clean trailing window, position +
    predicted displacement."""
    _check_pi(pi_ms)
    n = rec.n_samples
    ends = _valid_window_ends(rec, vel)
    disp = lstm_forward(model, _window_inputs(vel, ends))
    predicted = np.full((n, 2), np.nan)
    predicted[ends, 0] = rec.x[ends] + disp[:, 0]
    predicted[ends, 1] = rec.y[ends] + disp[:, 1]
    issued = np.zeros(n, dtype=bool)
    issued[ends] = True
    return PredictionRun.from_issued(rec, pi_ms, predicted, issued)
