"""Plant-informed Kalman prediction of gaze position PI ms ahead.

The filter runs one 4-state Kalman filter per axis over [theta, omega, g_ag,
g_ant], where g = F / (K/2) rescales the plant's muscle-force states into
dva-equivalent units (the holding level for position theta is then g_ag ==
theta exactly), which keeps process-noise scales interpretable. Both axes
share the same dynamics, measurement model, and noise, so their covariances
are identical and the implementation carries the two means through one
covariance recursion.

Two regimes, switched per sample by ``classify.causal_saccade_mask``, a
zero-lookahead online labeler:

* fixation: constant-velocity kinematics with the force states relaxing
  toward the holding pair of the current position;
* saccade: the plant's target-blind re-equilibration dynamics, under which
  an excited force state coasts the eye through a ballistic completion.

Measurements are position plus a causal (right-edge) Savitzky-Golay
velocity, so every prediction issued at time t depends only on samples <= t.
A sample without a velocity estimate measures position alone. The
measurement matrix therefore only selects the first one or two state rows:
the update reads the innovation covariance and the gain off the state
covariance, inverts the 1x1 or 2x2 innovation covariance in closed form,
and runs position alone as the two-row update with a zero velocity gain.

The recursion is one loop over local Python floats, with no numpy call and
no function call per sample: at this size (4 states, 2 axes) the fixed cost
of a call outweighs its arithmetic. Its state is the 8 entries of the mean
and the 10 of the covariance's upper triangle, and the algebra of each step
is written out once, entry by entry, in the loop body. The time update
forms T = Phi P and only the upper triangle of T Phi^T + Q. The fixation
time update, which runs at most samples, reads only the five entries of
its Phi that are neither 0 nor 1. That is exact: every remaining product
and sum is evaluated as in the generic update, x*1.0 is x, and a dropped
x*0.0 term changes a finite sum by at most the sign of a zero. The
measurement update takes the standard form (I - KH) P, which equals the
Joseph form whenever K = P H^T S^-1 with S formed from the same P, as here.
A zero velocity gain makes every term it enters subtract an exact zero. If
S is not positive definite it is jittered once by (1e-9 + 1e-9 trace S) I,
which is logged; if that does not help, InstabilityError.

Each sample's posterior mean is written into a preallocated (n, 4, 2)
array with one packed 64-byte store, and everything outside the recursion
stays vectorized: the regime labels before it, the divergence check and
the PI-ahead output after it. That output propagates the posterior pi_ms
steps holding the current regime. Per-subject plant parameters can be
fitted by Nelder-Mead on a calibration slice of the subject's own
saccades, over the four plant quantities the filter reads: K/J and B/J of
the saccade regime and the fixation regime's force time constants
tau_ag_deact, tau_ant_act.
"""

from __future__ import annotations

import logging
import math
import struct
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .classify import EventKind, EventSegment, causal_saccade_mask
from .errors import ConfigError, FitError, InstabilityError, InsufficientDataError, check_int
from .metrics import CEP_WINDOW_MS, PredictionRun, _check_pi, score_run
from .plant import DEFAULT_PARAMS, PlantParams, transition_matrices
from .signal import DiffConfig, GazeRecording, VelocityTrace, compute_velocity

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# configuration and state

# diagonal of the process noise Q over [theta, omega, g_ag, g_ant], per regime
Q_FIXATION = (1e-4, 1e-4, 1e-3, 1e-3)
Q_SACCADE = (1e-6, 25.0, 0.1, 0.1)

# Measurement variances of position and velocity at a 0.1 dva precision.
# Per-axis position noise sigma is precision/2 for isotropic noise (RMS-S2S
# of iid two-axis noise is 2 sigma); velocity noise follows by the causal
# differentiator's white-noise gain.
PRECISION_DVA = 0.1
_POS_VAR = (PRECISION_DVA / 2.0) ** 2
MEASUREMENT_NOISE = (_POS_VAR, _POS_VAR * DiffConfig(mode="causal").noise_gain() ** 2)


@dataclass(frozen=True)
class OpkfConfig:
    """The filter's plant parameters, its one per-subject setting.

    The noise is ``Q_FIXATION``, ``Q_SACCADE`` and ``MEASUREMENT_NOISE``,
    the regime is ``classify.causal_saccade_mask`` at the classifier's
    thresholds, and the prediction intervals are arguments of the calls.
    """

    params: PlantParams = DEFAULT_PARAMS


# one posterior row, the (4, 2) mean in row-major order, as 64 packed bytes
_MEAN_ROW = struct.Struct("8d")

# the entries of the fixation Phi that are neither 0 nor 1, in the order of
# ``_RegimeMatrices.fix_coeffs``
_FIX_ROWS, _FIX_COLS = (0, 2, 2, 3, 3), (1, 0, 2, 0, 3)


class _RegimeMatrices:
    """Discrete transition/process matrices per regime plus PI-ahead rows.

    ``fix_coeffs`` holds the five entries of ``phi_fix`` that the filter
    loop reads, and ``phi_sac_flat`` the 16 floats of ``phi_sac`` row-major.
    """

    def __init__(self, cfg: OpkfConfig, pi_list: tuple[int, ...]):
        p = cfg.params
        k = p.k_total
        dt = 1e-3

        a_fix = np.eye(4)
        a_fix[0, 1] = dt
        for row, tau, sgn in ((2, p.tau_ag_deact, 1.0), (3, p.tau_ant_act, -1.0)):
            alpha = float(np.exp(-dt / tau))
            a_fix[row, row] = alpha
            a_fix[row, 0] = sgn * (1.0 - alpha)
        self.phi_fix = a_fix
        # .tolist() gives Python floats; numpy scalars would be slower
        self.fix_coeffs = tuple(a_fix[_FIX_ROWS, _FIX_COLS].tolist())

        phi_phys, _ = transition_matrices(p)
        scale = np.diag([1.0, 1.0, 2.0 / k, 2.0 / k])
        unscale = np.diag([1.0, 1.0, k / 2.0, k / 2.0])
        self.phi_sac = scale @ phi_phys @ unscale
        self.phi_sac_flat = tuple(self.phi_sac.ravel().tolist())

        self.pi_rows: dict[tuple[bool, int], np.ndarray] = {}
        for pi in pi_list:
            self.pi_rows[(False, pi)] = np.linalg.matrix_power(self.phi_fix, pi)[0]
            self.pi_rows[(True, pi)] = np.linalg.matrix_power(self.phi_sac, pi)[0]


def _initial_state(x: float, y: float) -> tuple[tuple, tuple]:
    """Position and the agonist/antagonist holding pair (g_ag = theta,
    g_ant = -theta) at the first sample, with a wide velocity prior."""
    mean = (x, y, 0.0, 0.0, x, y, -x, -y)
    cov = (_POS_VAR, 0.0, 0.0, 0.0, 500.0**2, 0.0, 0.0, 25.0, 0.0, 25.0)
    return mean, cov


def _floats(values: np.ndarray) -> memoryview:
    """A view that yields Python floats, without copying a float64 array."""
    return memoryview(np.ascontiguousarray(values, dtype=np.float64))


def opkf_predict_multi(
    rec: GazeRecording,
    cfg: OpkfConfig,
    pi_list: Iterable[int],
) -> dict[int, PredictionRun]:
    """One causal filter pass, predictions for every PI in pi_list.

    The measurement velocity is the causal right-edge differentiator,
    computed here from the recording, and the regime at each sample is
    ``causal_saccade_mask`` on that velocity, so a prediction issued at
    sample t depends only on samples <= t. The filter starts at the first
    valid sample and issues a prediction at every valid sample from there
    on. ``pi_list`` is a non-empty iterable of PIs, read once, and each PI
    must be an integer >= 1.
    """
    try:
        pi_list = tuple(pi_list)
    except TypeError:
        raise ConfigError(f"pi_list must be an iterable of pi_ms values, got {pi_list!r}") from None
    if not pi_list:
        raise ConfigError("pi_list must name at least one pi_ms")
    for pi in pi_list:
        _check_pi(pi)
    vel, saccade = _regime_inputs(rec)
    return _filter_pass(rec, cfg, pi_list, vel, saccade)


def _regime_inputs(rec) -> tuple[VelocityTrace, np.ndarray]:
    """Causal velocity and per-sample saccade regime: the plant-free inputs."""
    vel = compute_velocity(rec, DiffConfig(mode="causal"))
    return vel, causal_saccade_mask(rec, vel)


def _jittered_pd_inverse(s) -> tuple[float, ...]:
    """Inverse of the symmetric 1x1 ``(a,)`` or 2x2 ``(a, b, d)`` S plus
    (1e-9 + 1e-9 trace S) I, packed the same way and logged;
    InstabilityError unless that is positive definite."""
    jitter = 1e-9 + 1e-9 * sum(s[::2])
    a = s[0] + jitter
    if len(s) == 1:
        s_inv = (1.0 / a,) if a > 0 else None
    else:
        b, d = s[1], s[2] + jitter
        det = a * d - b * b
        s_inv = (d / det, -b / det, a / det) if a > 0 and det > 0 else None
    if s_inv is None:
        raise InstabilityError("innovation covariance not positive definite")
    log.warning("innovation covariance not positive definite; added %.3g jitter", jitter)
    return s_inv


def _filter_pass(rec, cfg, pi_list, vel, saccade) -> dict[int, PredictionRun]:
    """The filter pass of ``opkf_predict_multi`` on ``_regime_inputs``."""
    n = rec.n_samples
    sample_ok = rec.valid.tolist()
    vel_ok = vel.valid.tolist()
    matrices = _RegimeMatrices(cfg, pi_list)

    # Each posterior row is packed into its 64 bytes of a preallocated array
    # through a byte view, in the (4, 2) row-major order of a mean; rows
    # before the start stay NaN.
    valid_idx = np.flatnonzero(rec.valid)
    start = int(valid_idx[0]) if valid_idx.size else n
    posterior = np.full((n, 4, 2), np.nan)
    if start < n:
        view = memoryview(posterior).cast("B")
        pack_into = _MEAN_ROW.pack_into
        # The state: the mean (x0, y0, ..., x3, y3), one column per axis,
        # and the upper triangle p00, p01, ..., p33 of the shared covariance.
        mean, cov = _initial_state(float(rec.x[start]), float(rec.y[start]))
        pack_into(view, _MEAN_ROW.size * start, *mean)
        x0, y0, x1, y1, x2, y2, x3, y3 = mean
        p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
        a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = (
            matrices.phi_sac_flat
        )
        f01, f20, f22, f30, f33 = matrices.fix_coeffs
        qs0, qs1, qs2, qs3 = Q_SACCADE
        qf0, qf1, qf2, qf3 = Q_FIXATION
        r0, r1 = MEASUREMENT_NOISE
        columns = (_floats(rec.x), _floats(rec.y), _floats(vel.vx), _floats(vel.vy))
        offsets = range(0, _MEAN_ROW.size * n, _MEAN_ROW.size)
        samples = zip(offsets, saccade.tolist(), sample_ok, vel_ok, *columns)
        for offset, sac, s_ok, v_ok, zx, zy, zvx, zvy in islice(samples, start + 1, None):
            if sac:
                # T = Phi P, then the upper triangle of T Phi^T + Q
                t00 = a00 * p00 + a01 * p01 + a02 * p02 + a03 * p03
                t01 = a00 * p01 + a01 * p11 + a02 * p12 + a03 * p13
                t02 = a00 * p02 + a01 * p12 + a02 * p22 + a03 * p23
                t03 = a00 * p03 + a01 * p13 + a02 * p23 + a03 * p33
                t10 = a10 * p00 + a11 * p01 + a12 * p02 + a13 * p03
                t11 = a10 * p01 + a11 * p11 + a12 * p12 + a13 * p13
                t12 = a10 * p02 + a11 * p12 + a12 * p22 + a13 * p23
                t13 = a10 * p03 + a11 * p13 + a12 * p23 + a13 * p33
                t20 = a20 * p00 + a21 * p01 + a22 * p02 + a23 * p03
                t21 = a20 * p01 + a21 * p11 + a22 * p12 + a23 * p13
                t22 = a20 * p02 + a21 * p12 + a22 * p22 + a23 * p23
                t23 = a20 * p03 + a21 * p13 + a22 * p23 + a23 * p33
                t30 = a30 * p00 + a31 * p01 + a32 * p02 + a33 * p03
                t31 = a30 * p01 + a31 * p11 + a32 * p12 + a33 * p13
                t32 = a30 * p02 + a31 * p12 + a32 * p22 + a33 * p23
                t33 = a30 * p03 + a31 * p13 + a32 * p23 + a33 * p33
                p00 = t00 * a00 + t01 * a01 + t02 * a02 + t03 * a03 + qs0
                p01 = t00 * a10 + t01 * a11 + t02 * a12 + t03 * a13
                p02 = t00 * a20 + t01 * a21 + t02 * a22 + t03 * a23
                p03 = t00 * a30 + t01 * a31 + t02 * a32 + t03 * a33
                p11 = t10 * a10 + t11 * a11 + t12 * a12 + t13 * a13 + qs1
                p12 = t10 * a20 + t11 * a21 + t12 * a22 + t13 * a23
                p13 = t10 * a30 + t11 * a31 + t12 * a32 + t13 * a33
                p22 = t20 * a20 + t21 * a21 + t22 * a22 + t23 * a23 + qs2
                p23 = t20 * a30 + t21 * a31 + t22 * a32 + t23 * a33
                p33 = t30 * a30 + t31 * a31 + t32 * a32 + t33 * a33 + qs3
                x0, x1, x2, x3 = (
                    a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3,
                    a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3,
                    a20 * x0 + a21 * x1 + a22 * x2 + a23 * x3,
                    a30 * x0 + a31 * x1 + a32 * x2 + a33 * x3,
                )
                y0, y1, y2, y3 = (
                    a00 * y0 + a01 * y1 + a02 * y2 + a03 * y3,
                    a10 * y0 + a11 * y1 + a12 * y2 + a13 * y3,
                    a20 * y0 + a21 * y1 + a22 * y2 + a23 * y3,
                    a30 * y0 + a31 * y1 + a32 * y2 + a33 * y3,
                )
            else:
                # the same on the five entries of the fixation Phi that are
                # neither 0 nor 1; row 1 of T is row 1 of P, and every entry
                # is assigned after the last read of its old value
                t00 = p00 + f01 * p01
                t01 = p01 + f01 * p11
                t02 = p02 + f01 * p12
                t03 = p03 + f01 * p13
                t20 = f20 * p00 + f22 * p02
                t22 = f20 * p02 + f22 * p22
                t23 = f20 * p03 + f22 * p23
                t30 = f30 * p00 + f33 * p03
                t33 = f30 * p03 + f33 * p33
                p12 = p01 * f20 + p12 * f22
                p13 = p01 * f30 + p13 * f33
                p00 = t00 + t01 * f01 + qf0
                p01 = t01
                p02 = t00 * f20 + t02 * f22
                p03 = t00 * f30 + t03 * f33
                p11 = p11 + qf1
                p22 = t20 * f20 + t22 * f22 + qf2
                p23 = t20 * f30 + t23 * f33
                p33 = t30 * f30 + t33 * f33 + qf3
                x2 = f20 * x0 + f22 * x2
                y2 = f20 * y0 + f22 * y2
                x3 = f30 * x0 + f33 * x3
                y3 = f30 * y0 + f33 * y3
                x0 = x0 + f01 * x1
                y0 = y0 + f01 * y1
            if s_ok:
                # S^-1 in closed form, then the gain K = P[:, :2] S^-1 with one
                # row (k_i0, k_i1) per state; position alone has a zero
                # velocity column
                s00 = p00 + r0
                if v_ok:
                    s11 = p11 + r1
                    det = s00 * s11 - p01 * p01
                    if s00 > 0.0 and det > 0.0:
                        i00, i01, i11 = s11 / det, -p01 / det, s00 / det
                    else:
                        i00, i01, i11 = _jittered_pd_inverse((s00, p01, s11))
                    evx, evy = zvx - x1, zvy - y1
                else:
                    if s00 > 0.0:
                        i00 = 1.0 / s00
                    else:
                        (i00,) = _jittered_pd_inverse((s00,))
                    i01 = i11 = evx = evy = 0.0
                k00, k01 = p00 * i00 + p01 * i01, p00 * i01 + p01 * i11
                k10, k11 = p01 * i00 + p11 * i01, p01 * i01 + p11 * i11
                k20, k21 = p02 * i00 + p12 * i01, p02 * i01 + p12 * i11
                k30, k31 = p03 * i00 + p13 * i01, p03 * i01 + p13 * i11
                ex, ey = zx - x0, zy - y0
                x0 = x0 + k00 * ex + k01 * evx
                y0 = y0 + k00 * ey + k01 * evy
                x1 = x1 + k10 * ex + k11 * evx
                y1 = y1 + k10 * ey + k11 * evy
                x2 = x2 + k20 * ex + k21 * evx
                y2 = y2 + k20 * ey + k21 * evy
                x3 = x3 + k30 * ex + k31 * evx
                y3 = y3 + k30 * ey + k31 * evy
                # upper triangle of (I - KH) P: row i of P minus k_i0 times
                # row 0 and k_i1 times row 1; the pairs read each other
                p22 = p22 - k20 * p02 - k21 * p12
                p23 = p23 - k20 * p03 - k21 * p13
                p33 = p33 - k30 * p03 - k31 * p13
                p00 = p00 - k00 * p00 - k01 * p01
                p01, p11 = p01 - k00 * p01 - k01 * p11, p11 - k10 * p01 - k11 * p11
                p02, p12 = p02 - k00 * p02 - k01 * p12, p12 - k10 * p02 - k11 * p12
                p03, p13 = p03 - k00 * p03 - k01 * p13, p13 - k10 * p03 - k11 * p13
            pack_into(view, offset, x0, y0, x1, y1, x2, y2, x3, y3)

    # The covariance does not depend on the measurements, so a diverged mean
    # cannot make a later step fail first; the first non-finite row is the
    # sample at which a per-sample check would have stopped.
    finite = np.isfinite(posterior[start:]).all(axis=(1, 2))
    if not finite.all():
        raise InstabilityError(f"filter diverged at sample {start + int(np.argmin(finite))}")

    in_saccade = saccade[:, None]
    runs = {}
    for pi in pi_list:
        rows = np.where(in_saccade, matrices.pi_rows[(True, pi)], matrices.pi_rows[(False, pi)])
        predicted = np.einsum("nk,nkj->nj", rows, posterior)
        runs[pi] = PredictionRun.from_issued(rec, pi, predicted, rec.valid)
    return runs


# ---------------------------------------------------------------------------
# Nelder-Mead

NM_SIZE_TOL = 1e-6  # relative simplex size at which the search has converged


class _BudgetSpent(Exception):
    """Raised in place of an evaluation past the budget."""


@dataclass(frozen=True)
class NMResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


def nelder_mead(objective, x0, max_evals: int | None = None) -> NMResult:
    """Downhill simplex: reflect / expand / contract / shrink.

    Stops when the simplex's relative size drops below NM_SIZE_TOL or the
    evaluation budget (default 500 per dimension) runs out. The budget is a
    hard cap on objective calls: an integer that covers the first simplex.
    Always returns the best vertex seen. Vertices where the objective is
    non-finite act as infinite barriers; if the whole initial simplex is
    non-finite, that is an initialization error.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 1:
        raise ConfigError("need at least one parameter")
    budget = max_evals if max_evals is not None else 500 * n
    check_int("max_evals", budget, n + 1)  # the first simplex takes n + 1
    evals = 0

    def f(x):
        nonlocal evals
        if evals == budget:
            raise _BudgetSpent
        evals += 1
        try:
            v = float(objective(x))
        except (ArithmeticError, ValueError):
            return np.inf
        return v if np.isfinite(v) else np.inf

    simplex = [x0.copy()]
    for i in range(n):
        step = 0.05 * abs(x0[i]) if x0[i] != 0 else 0.00025
        v = x0.copy()
        v[i] += step
        simplex.append(v)
    simplex = np.array(simplex)
    fvals = np.array([f(v) for v in simplex])
    if not np.isfinite(fvals).any():
        raise FitError("objective non-finite over the whole initial simplex")

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    converged = False
    try:
        while True:
            order = np.argsort(fvals, kind="stable")
            simplex = simplex[order]
            fvals = fvals[order]
            best = simplex[0]
            size = np.max(np.abs(simplex[1:] - best)) / max(1.0, np.max(np.abs(best)))
            if size < NM_SIZE_TOL:
                converged = True
                break
            centroid = simplex[:-1].mean(axis=0)
            xr = centroid + alpha * (centroid - simplex[-1])
            fr = f(xr)
            if fr < fvals[0]:
                simplex[-1], fvals[-1] = xr, fr
                xe = centroid + gamma * (xr - centroid)
                fe = f(xe)
                if fe < fr:
                    simplex[-1], fvals[-1] = xe, fe
            elif fr < fvals[-2]:
                simplex[-1], fvals[-1] = xr, fr
            else:
                if fr < fvals[-1]:
                    xc = centroid + rho * (xr - centroid)
                else:
                    xc = centroid + rho * (simplex[-1] - centroid)
                fc = f(xc)
                if fc < min(fr, fvals[-1]):
                    simplex[-1], fvals[-1] = xc, fc
                else:
                    for i in range(1, n + 1):  # a spent budget leaves no stale value
                        v = simplex[0] + sigma * (simplex[i] - simplex[0])
                        fvals[i] = f(v)
                        simplex[i] = v
    except _BudgetSpent:
        pass

    order = np.argsort(fvals, kind="stable")
    return NMResult(
        x=simplex[order[0]].copy(),
        fun=float(fvals[order[0]]),
        n_evals=evals,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# per-subject parameter fitting

CALIBRATION_FRACTION = 0.4


@dataclass(frozen=True)
class FitOutcome:
    params: PlantParams
    cal_error: float
    base_error: float
    n_evals: int
    converged: bool


def _params_from_log(base: PlantParams, theta: np.ndarray) -> PlantParams:
    """``base`` moved to log(k_total, b_total, tau_ag_deact, tau_ant_act) = theta.

    Kp, Kse and Klt are scaled by one common factor and Bp, Bag and Bant by
    another, so each keeps its share of its total; J stays at base.
    """
    k_total, b_total, tau_ag_deact, tau_ant_act = np.exp(theta).tolist()
    scale = dict.fromkeys(("Kp", "Kse", "Klt"), k_total / base.k_total)
    scale.update(dict.fromkeys(("Bp", "Bag", "Bant"), b_total / base.b_total))
    scaled = {name: getattr(base, name) * c for name, c in scale.items()}
    return replace(base, **scaled, tau_ag_deact=tau_ag_deact, tau_ant_act=tau_ant_act)


def fit_subject_params(
    rec: GazeRecording,
    segs: list[EventSegment],
    base: PlantParams = DEFAULT_PARAMS,
    max_evals: int = 200,
    pi_ms: int = 40,
) -> FitOutcome:
    """Nelder-Mead over the four plant quantities the filter reads.

    The filter reads the plant only through K/J and B/J (saccade regime)
    and tau_ag_deact, tau_ant_act (fixation regime); every other field is
    unread or lies on a ridge. So the search runs over log(k_total,
    b_total, tau_ag_deact, tau_ant_act) from the base values, with J held
    at base, since it would only rescale K and B.

    The objective is the mean ``pi_ms``-ahead error, as ``score_run``
    scores it, over targets in the first 40% of detected saccades and the
    ``CEP_WINDOW_MS`` samples after each, of the filter with the candidate
    plant and the module's noise constants, run from the start of the
    recording. Unlike the "cep" class of ``class_errors``, those samples
    are not cut at the next saccade or blink. The velocity and regime
    labels are computed once, and so is the base set's error, which the
    first simplex vertex reuses. Returns the fitted parameters only when
    they score better than the base set on calibration.
    """
    check_int("max_evals", max_evals, 5)  # the first simplex takes 4 + 1
    _check_pi(pi_ms)
    sacc = [s for s in segs if s.kind is EventKind.SACCADE]
    if len(sacc) < 10:
        raise InsufficientDataError(f"need >= 10 saccades to fit, got {len(sacc)}")
    n_cal = max(1, int(CALIBRATION_FRACTION * len(sacc)))
    cal = sacc[:n_cal]
    cal_end = min(cal[-1].end_idx + CEP_WINDOW_MS + pi_ms + 1, rec.n_samples)

    target_mask = np.zeros(cal_end, dtype=bool)
    for s in cal:
        target_mask[s.start_idx : s.end_idx + CEP_WINDOW_MS + 1] = True

    prefix = replace(rec, **{k: getattr(rec, k)[:cal_end] for k in ("x", "y", "valid")})
    prefix_segs = [s for s in segs if s.start_idx < cal_end]
    prefix_segs[-1] = replace(prefix_segs[-1], end_idx=cal_end - 1)
    vel, saccade = _regime_inputs(prefix)

    def error_of(params: PlantParams) -> float:
        run = _filter_pass(prefix, OpkfConfig(params), (pi_ms,), vel, saccade)
        scored = score_run(run[pi_ms], prefix, prefix_segs)
        err = scored.error_dva[target_mask[scored.sample_idx]]
        if err.size == 0:
            raise InsufficientDataError("no calibration samples to score")
        return float(np.mean(err))

    base_error = error_of(base)
    x0 = np.log([base.k_total, base.b_total, base.tau_ag_deact, base.tau_ant_act])

    def objective(theta: np.ndarray) -> float:
        # _params_from_log(base, x0) is base only up to rounding, and could
        # score a hair below base_error without any real improvement
        if np.array_equal(theta, x0):
            return base_error
        try:
            return error_of(_params_from_log(base, theta))
        except (ConfigError, InstabilityError):
            return math.inf

    result = nelder_mead(objective, x0, max_evals=max_evals)
    params, cal_error = base, base_error
    if result.fun < base_error:
        params, cal_error = _params_from_log(base, result.x), result.fun
    return FitOutcome(params, cal_error, base_error, result.n_evals, result.converged)

