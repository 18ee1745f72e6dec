"""Plant-informed Kalman prediction of gaze position PI ms ahead.

The filter runs one 4-state Kalman filter per axis over [theta, omega, g_ag,
g_ant], where g = F / (K/2) rescales the plant's muscle-force states into
dva-equivalent units (the holding level for position theta is then g_ag ==
theta exactly), which keeps process-noise scales interpretable. Both axes
share the same dynamics, measurement model, and noise, so their covariances
are identical and the implementation carries the two means through one
covariance recursion.

Two regimes, switched per sample by a zero-lookahead online labeler:

* fixation: constant-velocity kinematics with the force states relaxing
  toward the holding pair of the current position;
* saccade: the plant's target-blind re-equilibration dynamics, under which
  an excited force state coasts the eye through a ballistic completion.

Measurements are position plus a causal (right-edge) Savitzky-Golay
velocity, so every prediction issued at time t depends only on samples <= t.
A sample without a velocity estimate measures position alone. The
measurement matrix therefore only selects the first one or two state rows:
the update reads the innovation covariance and the gain off slices of the
state covariance and inverts the 1x1 or 2x2 innovation covariance in closed
form. The PI-ahead output propagates the posterior pi_ms steps holding the
current regime. Per-subject plant parameters can be fitted by Nelder-Mead on
a calibration slice of the subject's own saccades.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .classify import (
    LARGE_SACCADE,
    SACCADE,
    CausalLabeler,
    ClassifierConfig,
    EventKind,
    EventSegment,
    event_labels,
)
from .errors import (
    ConfigError,
    FitError,
    InstabilityError,
    InsufficientDataError,
)
from .plant import DEFAULT_PARAMS, PlantParams, transition_matrices
from .signal import DiffConfig, GazeRecording, compute_velocity

log = logging.getLogger(__name__)

_EYE4 = np.eye(4)


# ---------------------------------------------------------------------------
# Kalman core: 4 states; the mean may carry several columns (one per axis)
# that share one covariance


def kalman_predict(mean, cov, phi, phi_t, q):
    """Time update; ``phi_t`` is ``phi.T``, passed in so callers transpose once."""
    cov = phi @ cov @ phi_t + q
    return phi @ mean, 0.5 * (cov + cov.T)


def _pd_inverse(s) -> np.ndarray | None:
    """Closed-form inverse of a 1x1 or 2x2 matrix given as nested lists.

    The matrix is re-symmetrized first. Returns None unless it is positive
    definite (the condition under which a Cholesky factorization exists).
    """
    if len(s) == 1:
        ((a,),) = s
        return np.array([[1.0 / a]]) if a > 0 else None
    (a, b), (c, d) = s
    b = 0.5 * (b + c)
    det = a * d - b * b
    if a > 0 and det > 0:
        return np.array([[d / det, -b / det], [-b / det, a / det]])
    return None


def kalman_update(mean, cov, z, r):
    """Joseph-form update with ``z`` measuring the first ``len(z)`` state rows.

    ``r`` is the (m, m) measurement noise. Because H only selects rows,
    S = cov[:m, :m] + R, the gain is cov[:, :m] S^-1 and I - KH is the
    identity with the gain subtracted from its first m columns. If S is not
    positive definite it is jittered once by (1e-9 + 1e-9 trace S) I, which
    is logged; if that does not help, InstabilityError.
    """
    m = len(z)
    s = (cov[:m, :m] + r).tolist()
    s_inv = _pd_inverse(s)
    if s_inv is None:
        jitter = 1e-9 + 1e-9 * sum(s[k][k] for k in range(m))
        for k in range(m):
            s[k][k] += jitter
        s_inv = _pd_inverse(s)
        if s_inv is None:
            raise InstabilityError("innovation covariance not positive definite")
        log.warning("innovation covariance not positive definite; added %.3g jitter", jitter)
    gain = cov[:, :m] @ s_inv
    mean = mean + gain @ (z - mean[:m])
    ikh = _EYE4 - gain @ _EYE4[:m]
    cov = ikh @ cov @ ikh.T + gain @ r @ gain.T
    return mean, 0.5 * (cov + cov.T)


# ---------------------------------------------------------------------------
# configuration and state


@dataclass(frozen=True)
class OpkfConfig:
    """Filter settings; R defaults derive from the subject's precision."""

    pi_ms: int = 40
    params: PlantParams = DEFAULT_PARAMS
    q_fix_pos: float = 1e-4
    q_fix_vel: float = 1e-4
    q_fix_force: float = 1e-3
    q_sac_pos: float = 1e-6
    q_sac_vel: float = 25.0
    q_sac_force: float = 0.1
    r_pos: float | None = None
    r_vel: float | None = None
    precision_dva: float = 0.1
    regime_source: str = "online"  # "online" (causal) or "segments" (offline labels)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)

    def __post_init__(self):
        if self.pi_ms < 1:
            raise ConfigError(f"pi_ms must be >= 1, got {self.pi_ms}")
        if self.regime_source not in ("online", "segments"):
            raise ConfigError(f"unknown regime_source {self.regime_source!r}")
        for name in ("q_fix_pos", "q_fix_vel", "q_fix_force", "q_sac_pos", "q_sac_vel", "q_sac_force"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def measurement_noise(self) -> tuple[float, float]:
        """(r_pos, r_vel) variances, derived from precision unless overridden.

        Per-axis position noise sigma is precision/2 for isotropic noise
        (RMS-S2S of iid two-axis noise is 2 sigma); velocity noise follows by
        the causal differentiator's white-noise gain.
        """
        sigma = max(self.precision_dva / 2.0, 1e-3)
        r_pos = self.r_pos if self.r_pos is not None else sigma**2
        if self.r_vel is not None:
            return r_pos, self.r_vel
        gain = DiffConfig(mode="causal").noise_gain()
        return r_pos, r_pos * gain**2


@dataclass(frozen=True)
class PredictionRun:
    """Predictions aligned so predicted[i] targets ground-truth sample i+PI."""

    predictor_id: str
    pi_ms: int
    predicted: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        n = len(self.valid_mask)
        if self.predicted.shape != (n, 2):
            raise ConfigError("predicted must be (n, 2) aligned with valid_mask")

    @classmethod
    def from_issued(
        cls,
        rec: GazeRecording,
        predictor_id: str,
        pi_ms: int,
        predicted: np.ndarray,
        issued: np.ndarray,
    ) -> PredictionRun:
        """Run valid where a prediction was issued and its target sample
        i+PI lies inside the recording and is valid."""
        n = rec.n_samples
        target_ok = np.zeros(n, dtype=bool)
        if pi_ms < n:
            target_ok[: n - pi_ms] = rec.valid[pi_ms:]
        return cls(predictor_id, pi_ms, predicted, issued & target_ok)


class _RegimeMatrices:
    """Discrete transition/process matrices per regime plus PI-ahead rows.

    ``step[saccade]`` is the (phi, phi.T, q) triple that ``kalman_predict``
    takes.
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
        self.q_fix = np.diag([cfg.q_fix_pos, cfg.q_fix_vel, cfg.q_fix_force, cfg.q_fix_force])

        phi_phys, _ = transition_matrices(p, 1.0)
        scale = np.diag([1.0, 1.0, 2.0 / k, 2.0 / k])
        unscale = np.diag([1.0, 1.0, k / 2.0, k / 2.0])
        self.phi_sac = scale @ phi_phys @ unscale
        self.q_sac = np.diag([cfg.q_sac_pos, cfg.q_sac_vel, cfg.q_sac_force, cfg.q_sac_force])

        self.pi_rows: dict[tuple[bool, int], np.ndarray] = {}
        for pi in pi_list:
            self.pi_rows[(False, pi)] = np.linalg.matrix_power(self.phi_fix, pi)[0]
            self.pi_rows[(True, pi)] = np.linalg.matrix_power(self.phi_sac, pi)[0]

        self.step = {
            False: (self.phi_fix, self.phi_fix.T, self.q_fix),
            True: (self.phi_sac, self.phi_sac.T, self.q_sac),
        }


def _initial_state(z_pos: np.ndarray, r_pos: float) -> tuple[np.ndarray, np.ndarray]:
    mean = np.zeros((4, 2))
    mean[0] = z_pos
    mean[2] = z_pos
    mean[3] = -z_pos
    cov = np.diag([max(r_pos, 1e-6), 500.0**2, 25.0, 25.0])
    return mean, cov


def opkf_predict_multi(
    rec: GazeRecording,
    cfg: OpkfConfig,
    pi_list: tuple[int, ...],
    segs: list[EventSegment] | None = None,
) -> dict[int, PredictionRun]:
    """One causal filter pass, predictions for every PI in pi_list.

    The measurement velocity is always the causal right-edge differentiator,
    computed here from the recording. With the default
    regime_source="online" the event regime comes from a zero-lookahead
    labeler on that causal velocity; "segments" instead consumes the offline
    labels in ``segs`` (which look ahead, breaking causality — analysis use).
    The filter starts at the first valid sample and issues a prediction at
    every valid sample from there on.
    """
    n = rec.n_samples
    vel = compute_velocity(rec, DiffConfig(mode="causal"))
    sample_ok = rec.valid.tolist()
    vel_ok = vel.valid.tolist()
    if cfg.regime_source == "segments":
        if segs is None:
            raise ConfigError('regime_source="segments" needs segs')
        saccade = (np.isin(event_labels(segs, n), (SACCADE, LARGE_SACCADE)) & rec.valid).tolist()
    else:
        labeler = CausalLabeler(cfg.classifier)
        saccade = [
            labeler.update(v_r, v_ok, s_ok) is EventKind.SACCADE
            for v_r, v_ok, s_ok in zip(vel.v_radial.tolist(), vel_ok, sample_ok)
        ]

    matrices = _RegimeMatrices(cfg, tuple(pi_list))
    r_pos, r_vel = cfg.measurement_noise()
    r_full = np.diag([r_pos, r_vel])
    r_pos_only = np.array([[r_pos]])
    # z[i] = [[x, y], [vx, vy]]: the measured state rows of sample i
    z = np.stack([np.column_stack([rec.x, rec.y]), np.column_stack([vel.vx, vel.vy])], axis=1)

    posterior = np.full((n, 4, 2), np.nan)
    valid_idx = np.flatnonzero(rec.valid)
    start = int(valid_idx[0]) if valid_idx.size else n
    for i in range(start, n):
        if i == start:
            mean, cov = _initial_state(z[i, 0], r_pos)
        else:
            mean, cov = kalman_predict(mean, cov, *matrices.step[saccade[i]])
            if sample_ok[i]:
                if vel_ok[i]:
                    mean, cov = kalman_update(mean, cov, z[i], r_full)
                else:
                    mean, cov = kalman_update(mean, cov, z[i, :1], r_pos_only)
        if not np.isfinite(mean).all():
            raise InstabilityError(f"filter diverged at sample {i}")
        posterior[i] = mean

    in_saccade = np.array(saccade, dtype=bool)[:, None]
    runs = {}
    for pi in pi_list:
        rows = np.where(in_saccade, matrices.pi_rows[(True, pi)], matrices.pi_rows[(False, pi)])
        predicted = np.einsum("nk,nkj->nj", rows, posterior)
        runs[pi] = PredictionRun.from_issued(rec, "opkf", pi, predicted, rec.valid)
    return runs


# ---------------------------------------------------------------------------
# Nelder-Mead


@dataclass(frozen=True)
class NMResult:
    x: np.ndarray
    fun: float
    n_evals: int
    converged: bool


def nelder_mead(
    objective,
    x0,
    max_evals: int | None = None,
    size_tol: float = 1e-6,
) -> NMResult:
    """Downhill simplex: reflect / expand / contract / shrink.

    Stops when the simplex's relative size drops below size_tol or the
    evaluation budget (default 500 per dimension) runs out; always returns
    the best vertex seen. Vertices where the objective is non-finite act as
    infinite barriers; if the whole initial simplex is non-finite, that is an
    initialization error.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    if n < 1:
        raise ConfigError("need at least one parameter")
    budget = max_evals if max_evals is not None else 500 * n
    evals = 0

    def f(x):
        nonlocal evals
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
    while evals < budget:
        order = np.argsort(fvals, kind="stable")
        simplex = simplex[order]
        fvals = fvals[order]
        best = simplex[0]
        size = np.max(np.abs(simplex[1:] - best)) / max(1.0, np.max(np.abs(best)))
        if size < size_tol:
            converged = True
            break
        centroid = simplex[:-1].mean(axis=0)
        xr = centroid + alpha * (centroid - simplex[-1])
        fr = f(xr)
        if fr < fvals[0]:
            xe = centroid + gamma * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], fvals[-1] = xe, fe
            else:
                simplex[-1], fvals[-1] = xr, fr
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
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + sigma * (simplex[i] - simplex[0])
                    fvals[i] = f(simplex[i])

    order = np.argsort(fvals, kind="stable")
    return NMResult(
        x=simplex[order[0]].copy(),
        fun=float(fvals[order[0]]),
        n_evals=evals,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# per-subject parameter fitting

FIT_FIELDS = (
    "Kse",
    "Klt",
    "Bag",
    "Bant",
    "tau_ag_act",
    "pulse_height_coeff",
    "pulse_width_coeff",
)
CALIBRATION_FRACTION = 0.4
CEP_TAIL_MS = 100


@dataclass(frozen=True)
class FitOutcome:
    params: PlantParams
    cal_error: float
    base_error: float
    n_evals: int
    converged: bool


def _params_from_log(base: PlantParams, theta: np.ndarray) -> PlantParams:
    values = dict(zip(FIT_FIELDS, np.exp(theta)))
    return replace(base, **values)


def fit_subject_params(
    rec: GazeRecording,
    segs: list[EventSegment],
    base: PlantParams = DEFAULT_PARAMS,
    cfg: OpkfConfig = OpkfConfig(),
    max_evals: int = 200,
) -> FitOutcome:
    """Nelder-Mead over log-scaled plant parameters on a calibration slice.

    The calibration slice is the first 40% of detected saccades plus a
    100 ms tail after each; the objective is the mean PI-ahead error over
    samples whose target time falls in that slice, filtering from the start
    of the recording with the filter's own causal velocity and online
    regime labels. Returns the fitted parameters only when they do not
    score worse than the base set on calibration.
    """
    sacc = [s for s in segs if s.kind is EventKind.SACCADE]
    if len(sacc) < 10:
        raise InsufficientDataError(f"need >= 10 saccades to fit, got {len(sacc)}")
    n_cal = max(1, int(CALIBRATION_FRACTION * len(sacc)))
    cal = sacc[:n_cal]
    n = rec.n_samples
    cal_end = min(cal[-1].end_idx + CEP_TAIL_MS + cfg.pi_ms + 1, n)

    target_mask = np.zeros(n, dtype=bool)
    for s in cal:
        target_mask[s.start_idx : min(s.end_idx + CEP_TAIL_MS + 1, n)] = True
    target_mask &= rec.valid

    prefix = GazeRecording(
        subject_id=rec.subject_id,
        session_id=rec.session_id,
        t_ms=rec.t_ms[:cal_end],
        x=rec.x[:cal_end],
        y=rec.y[:cal_end],
        valid=rec.valid[:cal_end],
        targets=rec.targets,
    )

    def objective_for(params: PlantParams) -> float:
        run = opkf_predict_multi(prefix, replace(cfg, params=params), (cfg.pi_ms,))[cfg.pi_ms]
        pi = cfg.pi_ms
        idx = np.flatnonzero(run.valid_mask)  # run.valid_mask already needs idx+pi < cal_end
        idx = idx[target_mask[idx + pi]]
        if idx.size == 0:
            raise InsufficientDataError("no calibration samples to score")
        err = np.hypot(
            run.predicted[idx, 0] - rec.x[idx + pi],
            run.predicted[idx, 1] - rec.y[idx + pi],
        )
        return float(np.mean(err))

    def objective(theta: np.ndarray) -> float:
        try:
            params = _params_from_log(base, theta)
        except ConfigError:
            return np.inf
        try:
            return objective_for(params)
        except InstabilityError:
            return np.inf

    x0 = np.log([getattr(base, name) for name in FIT_FIELDS])
    base_error = objective_for(base)
    result = nelder_mead(objective, x0, max_evals=max_evals)
    fitted = _params_from_log(base, result.x)
    if result.fun <= base_error:
        return FitOutcome(
            params=fitted,
            cal_error=result.fun,
            base_error=base_error,
            n_evals=result.n_evals,
            converged=result.converged,
        )
    return FitOutcome(
        params=base,
        cal_error=base_error,
        base_error=base_error,
        n_evals=result.n_evals,
        converged=result.converged,
    )


def save_fits(fits: dict[str, FitOutcome], path) -> None:
    data = {}
    for subject_id, fit in fits.items():
        data[subject_id] = {
            "params": json.loads(fit.params.to_json()),
            "cal_error": fit.cal_error,
            "base_error": fit.base_error,
            "n_evals": fit.n_evals,
            "converged": fit.converged,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)


def load_fits(path) -> dict[str, FitOutcome]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    out = {}
    for subject_id, row in data.items():
        out[subject_id] = FitOutcome(
            params=PlantParams.from_json(json.dumps(row["params"])),
            cal_error=float(row["cal_error"]),
            base_error=float(row["base_error"]),
            n_evals=int(row["n_evals"]),
            converged=bool(row["converged"]),
        )
    return out
