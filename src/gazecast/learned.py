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
block is a run of contiguous rows.

Every window is an independent recurrence, so the forward and BPTT loops of
a pass run on column blocks of the batch, at least ``BLOCK_MIN`` windows
wide and one per usable CPU divided by the thread count of the OpenBLAS
bundled with numpy (by 1 where that count cannot be read): the calling
thread runs the first block and an executor made for the call the rest, so
no thread outlives a pass. numpy's matmul and ufuncs release the interpreter
lock while they compute. A block works in its own contiguous rows of the
pass block's scratch, where numpy's elementwise calls run about three times
faster than on the strided per-step slots, and writes every per-step
temporary there through ``out=``. The head and the loss run on the whole
batch in the calling thread, each layer's weight gradient is one product
over the whole batch (the two layers' on two threads), and the matmuls of
the loops respect ``BLOCK_ALIGN``, so every result is the same for any
number of blocks. One block is the loop in the calling thread.

Training copies each step's operands, gates and cell states out to views of
one mapped pass block; BPTT turns each step's gates into their gradients,
so each layer's weight gradient is one matmul over all T·B columns after the
loop. ``lstm_train`` maps that block once per call (a short last batch gets
its own) and reuses it for every batch, which is exact: a forward pass
rewrites every entry that a pass reads, except the operands' bias rows and
the zero cell state entering step 0, which no pass writes. Inference runs
through ``lstm_forward``, ``INFER_CHUNK`` windows per pass, and keeps only
each window's last hidden state, so its memory does not grow with the
number of windows.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .errors import AlignmentError, ConfigError, DivergenceError, EmptyInputError, check_int
from .metrics import PredictionRun, _check_pi
from .signal import GazeRecording, VelocityTrace, check_trace

WINDOW_SAMPLES = 100
HIDDEN = 32
INFER_CHUNK = 4096  # windows per inference pass
BLOCK_MIN = 128  # windows per column block, at least
# Block bounds and the start of a batch's ragged tail are multiples of this
# many windows. BLAS computes a product's columns in groups of a few (8 with
# OpenBLAS on AVX-512), and the last, partial group with kernels that depend
# on the product's size, whose sums can differ in the last bit. So a matmul
# covers whole groups, or exactly the batch's ragged tail, and every column
# comes out the same for any number of blocks.
BLOCK_ALIGN = 64

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
_N_IN = (PARAM_SHAPES["lstm1.Wx"][1], PARAM_SHAPES["lstm2.Wx"][1])  # per layer


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


def _valid_window_ends(rec: GazeRecording, vel: VelocityTrace) -> np.ndarray:
    """Window-end indices whose trailing 100 samples are all usable."""
    check_trace(rec, vel, "an LSTM window")
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


class _PassBlock(NamedTuple):
    """The arrays of one pass over B windows, views of one mapped block."""

    ops: list[np.ndarray]  # per layer (n_in + H + 1, T, B): operand [x, h, 1] of each step
    cs: np.ndarray  # (layers, H, T + 1, B): cell state entering each step, and the last
    acts: np.ndarray  # (layers, 4H, T, B): gate activations, then their gradients
    h_last: np.ndarray  # (H, B): layer 2's last hidden state
    scratch: np.ndarray  # (rows * B,): each column block's per-step arrays, block after block

    def columns(self, lo: int, hi: int) -> "_PassBlock":
        """The same arrays for windows lo..hi-1; the scratch is a contiguous (rows, hi - lo)."""
        rows = len(self.scratch) // self.h_last.shape[1]
        return _PassBlock(
            [op[..., lo:hi] for op in self.ops],
            self.cs[..., lo:hi],
            self.acts[..., lo:hi],
            self.h_last[:, lo:hi],
            self.scratch[rows * lo : rows * hi].reshape(rows, hi - lo),
        )


# per column: the forward pass's two operands, gates, two cell states,
# tanh(c) and i*g; BPTT's gates, three rows of temporaries, the sigmoid-gate
# gradients, two carried cell-state gradients and each layer's dL/d[x, h]
_FORWARD_ROWS = [n_in + HIDDEN + 1 for n_in in _N_IN] + [4 * HIDDEN] + [HIDDEN] * 4
_BACKWARD_ROWS = [4 * HIDDEN, 3 * HIDDEN, 3 * HIDDEN, HIDDEN, HIDDEN] + [n_in + HIDDEN for n_in in _N_IN]


def _row_blocks(scratch: np.ndarray, sizes) -> list[np.ndarray]:
    """Consecutive row blocks of ``scratch`` with the given sizes."""
    edges = np.cumsum([0, *sizes])
    return [scratch[lo:hi] for lo, hi in zip(edges, edges[1:])]


def _pass_block(t_len: int, b: int) -> _PassBlock:
    """Zeroed pass arrays (operand bias rows 1) for b windows in one mapped block.

    A training block (t_len >= 1 steps) keeps what BPTT needs of every step
    (a 256-window training pass needs 87 MB); an inference block (t_len 0)
    keeps only the last hidden state. The block is released whole: as
    separate heap arrays these left multi-megabyte holes in the heap, and 6
    of 10 identical ``lstm`` benchmark runs peaked about 25 MB higher.
    """
    layers = len(_N_IN)
    rows = max(sum(_FORWARD_ROWS), sum(_BACKWARD_ROWS)) if t_len else sum(_FORWARD_ROWS)
    shapes = [(n_in + HIDDEN + 1, t_len, b) for n_in in _N_IN]
    shapes += [(layers, HIDDEN, t_len + 1 if t_len else 0, b), (layers, 4 * HIDDEN, t_len, b), (HIDDEN, b), (rows * b,)]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(_mapped_zeros((sum(sizes),)), np.cumsum(sizes)[:-1])
    *ops, cs, acts, h_last, scratch = (part.reshape(shape) for part, shape in zip(parts, shapes))
    for op in ops:
        op[-1] = 1.0
    return _PassBlock(ops, cs, acts, h_last, scratch)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@cache
def _blas_thread_reader():
    """The thread-count getter of the OpenBLAS bundled with numpy, or None
    when there is no such library or it lacks the symbol."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        names = (n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_") and n.endswith(".so"))
        getter = ctypes.CDLL(os.path.join(libs, next(names))).scipy_openblas_get_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter


def _blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs each matmul on, or None if unreadable."""
    getter = _blas_thread_reader()
    return None if getter is None else getter()


def _n_blocks(b: int) -> int:
    """Column blocks for a pass over b windows.

    Each block's matmuls run on BLAS's own threads, so the usable CPUs are
    divided by that thread count; where it cannot be read, there is one
    block per usable CPU.
    """
    cpus = _usable_cpus() // max(1, _blas_threads() or 1)
    return max(1, min(cpus, b // BLOCK_MIN))


def _run_tasks(tasks) -> None:
    """Run tasks[0] in this thread and the rest on an executor of their own.

    Every task has finished when this returns or raises, so none still
    writes into arrays the caller goes on to read. The first failure is
    raised with its own type.
    """
    if len(tasks) == 1:  # ThreadPoolExecutor(0) raises
        tasks[0]()
        return
    with ThreadPoolExecutor(len(tasks) - 1, thread_name_prefix="gazecast-lstm") as pool:
        futures = [pool.submit(task) for task in tasks[1:]]
        tasks[0]()
    for future in futures:
        future.result()


def _column_blocks(b: int) -> list[tuple[int, int, int]]:
    """(lo, hi, cut) per column block of a pass over b >= 1 windows.

    The block holds windows lo..hi-1, and its matmuls take the columns from
    lo + cut on, the batch's ragged tail, as a product of their own.
    """
    n = _n_blocks(b)
    units = -(-b // BLOCK_ALIGN)
    bounds = [min(b, BLOCK_ALIGN * (units * k // n)) for k in range(n + 1)]
    tail = b - b % BLOCK_ALIGN
    return [(lo, hi, min(tail, hi) - lo) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def _run_blocks(work, b: int) -> None:
    """Call ``work(lo, hi, cut)`` once per column block."""
    _run_tasks([partial(work, *block) for block in _column_blocks(b)])


def _block_matmul(a: np.ndarray, x: np.ndarray, out: np.ndarray, cut: int) -> None:
    """``a @ x`` into ``out``; the columns from ``cut`` on are a product of their own."""
    if cut:
        np.matmul(a, x[:, :cut], out=out[:, :cut])
    if cut < x.shape[1]:
        np.matmul(a, x[:, cut:], out=out[:, cut:])


def _forward_block(layers, xs, scale, whole: _PassBlock, want_cache: bool, lo: int, hi: int, cut: int) -> None:
    """The recurrence of both layers over every step, for windows lo..hi-1.

    It runs in the block's contiguous scratch; with the cache each step's
    operands, gates and cell states are copied out for BPTT.
    """
    ops, cs, acts, h_last, scratch = whole.columns(lo, hi)
    *operands, z, c0, c1, tc, ig = _row_blocks(scratch, _FORWARD_ROWS)
    for op in operands:
        op[:-1] = 0.0
        op[-1] = 1.0
    cells = (c0, c1)
    c0.fill(0.0)
    c1.fill(0.0)
    i, f, o, g = _gate_views(z)
    sig = z[_SIG]
    for t in range(xs.shape[1]):
        x = operands[0][:2]
        np.copyto(x, xs[lo:hi, t].T)
        x *= scale
        for li, (_, w_half, n_in) in enumerate(layers):
            op, c = operands[li], cells[li]
            if want_cache:
                np.copyto(ops[li][:-1, t], op[:-1])
            _block_matmul(w_half, op, z, cut)
            np.tanh(z, out=z)
            sig *= 0.5
            sig += 0.5
            c *= f
            np.multiply(i, g, out=ig)
            c += ig
            if want_cache:
                np.copyto(acts[li][:, t], z)
                np.copyto(cs[li][:, t + 1], c)
            np.tanh(c, out=tc)
            h = op[n_in:-1]
            np.multiply(o, tc, out=h)
            if li == 0:
                # layer 2 reads layer 1's hidden state at the same step
                operands[1][:HIDDEN] = h
    np.copyto(h_last, operands[1][HIDDEN:-1])


def _forward(model: LstmModel, xs: np.ndarray, want_cache: bool, block: _PassBlock | None = None):
    """Batched sequence-to-one pass; xs is (B >= 1, T, 2) in dva/s.

    The recurrence runs feature-major, batch last, so every gate block and
    state is a run of contiguous rows. With the cache, ``ops[l][:, t]`` is
    layer l's operand [x, h, 1] at step t, ``cs[l][:, t]`` the cell state
    entering it and ``acts[l][:, t]`` its gates, in ``block`` if one is given
    (see ``_pass_block``). Without it only the last hidden state is kept, so
    memory does not grow with T.
    """
    b, t_len, _ = xs.shape
    layers = _fused_layers(model.params)
    if block is None:
        block = _pass_block(t_len if want_cache else 0, b)
    _run_blocks(partial(_forward_block, layers, xs, INPUT_SCALE, block, want_cache), b)

    p = model.params
    h_last = block.h_last.T
    a1_pre = h_last @ p["fc1.W"].T + p["fc1.b"]
    a1 = np.maximum(a1_pre, 0.0)
    a2_pre = a1 @ p["fc2.W"].T + p["fc2.b"]
    a2 = np.maximum(a2_pre, 0.0)
    pred = a2 @ p["out.W"].T + p["out.b"]
    cache = None
    if want_cache:
        cache = {"layers": layers, "block": block, "head": (h_last, a1_pre, a1, a2_pre, a2)}
    return pred, cache


def _window_array(inputs) -> np.ndarray:
    """``inputs`` as float64 windows (B, T, 2) with T >= 1."""
    xs = np.asarray(inputs, dtype=float)
    if xs.ndim != 3 or xs.shape[1] < 1 or xs.shape[2] != 2:
        raise ConfigError(f"expected windows shaped (B, T >= 1, 2), got {xs.shape}")
    return xs


def lstm_forward(model: LstmModel, inputs: np.ndarray) -> np.ndarray:
    """Predict displacement for a batch of windows (B, T, 2).

    Each forward pass takes at most INFER_CHUNK windows.
    """
    xs = _window_array(inputs)
    pred = np.empty((len(xs), 2))
    for s in range(0, len(xs), INFER_CHUNK):
        pred[s : s + INFER_CHUNK] = _forward(model, xs[s : s + INFER_CHUNK], False)[0]
    return pred


def _loss_grad_from_pred(pred: np.ndarray, targets: np.ndarray):
    diff = pred - targets
    dist = np.hypot(diff[:, 0], diff[:, 1])
    loss = float(dist.mean())
    # distance is non-differentiable at 0; the floor only guards division
    dpred = diff / (np.maximum(dist, 1e-12)[:, None] * len(pred))
    return loss, dpred


def _backward_block(back, dh_head: np.ndarray, whole: _PassBlock, lo: int, hi: int, cut: int) -> None:
    """BPTT through both layers for windows lo..hi-1.

    Each step's gates are copied into the block's contiguous scratch, turned
    into pre-activation gradients there and copied back to their slot.
    """
    _, cs, acts, _, scratch = whole.columns(lo, hi)
    z, temps, d_sig, dc0, dc1, d_op0, d_op1 = _row_blocks(scratch, _BACKWARD_ROWS)
    tc, dct, sq_h = _row_blocks(temps, [HIDDEN] * 3)
    dc, d_op = (dc0, dc1), (d_op0, d_op1)
    dh = [d[-HIDDEN:] for d in d_op]  # each matmul below leaves dL/dh for the step before
    dc0.fill(0.0)
    dc1.fill(0.0)
    dh[0].fill(0.0)
    np.copyto(dh[1], dh_head[:, lo:hi])
    i, f, o, g = _gate_views(z)
    sig = z[_SIG]
    for t in range(acts.shape[2] - 1, -1, -1):
        for li in (1, 0):
            np.copyto(z, acts[li][:, t])
            np.copyto(tc, cs[li][:, t + 1])
            np.tanh(tc, out=tc)
            np.multiply(dh[li], o, out=dct)
            np.multiply(tc, tc, out=sq_h)
            np.subtract(1.0, sq_h, out=sq_h)
            dct *= sq_h
            dct += dc[li]
            np.multiply(dct, g, out=d_sig[:HIDDEN])
            np.copyto(d_sig[HIDDEN : 2 * HIDDEN], cs[li][:, t])
            d_sig[HIDDEN : 2 * HIDDEN] *= dct
            np.multiply(dh[li], tc, out=d_sig[2 * HIDDEN :])
            np.multiply(dct, f, out=dc[li])
            # the gates become the pre-activation gradients
            np.multiply(g, g, out=sq_h)
            np.subtract(1.0, sq_h, out=sq_h)
            sq_h *= i
            np.multiply(sq_h, dct, out=g)
            np.multiply(sig, sig, out=temps)  # tc, dct and sq_h are spent
            sig -= temps
            sig *= d_sig
            np.copyto(acts[li][:, t], z)
            _block_matmul(back[li], z, d_op[li], cut)
            if li == 1:
                # layer 2's input is layer 1's hidden state at the same step
                dh[0] += d_op1[:HIDDEN]


def loss_and_grad(model: LstmModel, inputs: np.ndarray, targets: np.ndarray, block: _PassBlock | None = None):
    """Mean Euclidean loss and its gradient for every parameter tensor.

    ``block`` is a training pass block from ``_pass_block`` for this batch,
    which ``lstm_train`` reuses across batches; without one the call maps
    its own.
    """
    xs = _window_array(inputs)
    ys = np.asarray(targets, dtype=float)
    if ys.shape != (len(xs), 2):
        raise ConfigError(f"targets must be (B, 2) for {len(xs)} windows, got {ys.shape}")
    if len(xs) == 0:
        raise EmptyInputError("no windows for a loss")
    b, t_len, _ = xs.shape
    if block is not None and block.acts.shape[2:] != (t_len, b):
        raise ConfigError(f"pass block holds {block.acts.shape[2:]} (steps, windows), the batch is {(t_len, b)}")
    p = model.params
    pred, cache = _forward(model, xs, True, block)
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

    layers, block = cache["layers"], cache["block"]
    back = [np.ascontiguousarray(w[:, :-1].T) for w, _, _ in layers]  # [Wx | Wh]^T
    _run_blocks(partial(_backward_block, back, dh_head.T, block), b)

    # one matmul per layer over all T*B columns, the two on separate threads
    # when the batch is wide enough for blocks
    dws = [np.empty((4 * HIDDEN, len(op))) for op in block.ops]
    weight_grads = [
        partial(np.matmul, dz.reshape(4 * HIDDEN, t_len * b), op.reshape(len(op), t_len * b).T, out=dw)
        for dz, op, dw in zip(block.acts, block.ops, dws)
    ]
    if _n_blocks(b) > 1:
        _run_tasks(weight_grads)
    else:
        for task in weight_grads:
            task()
    for (_, _, n_in), dw, prefix in zip(layers, dws, ("lstm1", "lstm2")):
        dw = dw[_FUSED_ORDER]  # restores the [i, f, g, o] row order
        grads[f"{prefix}.Wx"] = dw[:, :n_in]
        grads[f"{prefix}.Wh"] = dw[:, n_in:-1]
        grads[f"{prefix}.b"] = dw[:, -1]
    return loss, grads


def evaluate_loss(model: LstmModel, windows) -> float:
    """Mean Euclidean distance over a window batch, forward-only."""
    if len(windows.inputs) == 0:
        raise EmptyInputError("no windows to evaluate")
    return _loss_grad_from_pred(lstm_forward(model, windows.inputs), windows.targets)[0]


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
    xs = _window_array(windows.inputs)
    ys = np.asarray(windows.targets, dtype=float)
    n = len(xs)
    if n == 0:
        raise EmptyInputError("no training windows")
    blocks: dict[int, _PassBlock] = {}  # per batch width, released on return

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
            if len(sel) not in blocks:
                blocks[len(sel)] = _pass_block(xs.shape[1], len(sel))
            loss, grads = loss_and_grad(model, xs[sel], ys[sel], blocks[len(sel)])
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
    if kind == "constant-position":
        issued, x, y = rec.valid, rec.x, rec.y
    elif kind == "constant-velocity":
        if vel is None:
            raise ConfigError("constant-velocity needs a velocity trace")
        check_trace(rec, vel, "constant-velocity")
        issued = rec.valid & vel.valid
        dt_s = pi_ms / 1000.0
        x, y = rec.x + vel.vx * dt_s, rec.y + vel.vy * dt_s
    else:
        raise ConfigError(f"unknown baseline kind {kind!r}")
    predicted = np.where(issued[:, None], np.column_stack([x, y]), np.nan)
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
