"""Linear two-muscle oculomotor plant, per axis, plus a synthetic cohort generator.

State per axis is x = [theta, omega, F_ag, F_ant]: position (dva), velocity
(dva/s), and agonist/antagonist muscle force states (signed deviations around
the straight-ahead tonic level). Mechanics:

    theta_dot = omega
    J * omega_dot = (F_ag - F_ant) - K*theta - B*omega

with lumped stiffness K = Kp + 2*Kse*Klt/(Kse+Klt) and damping
B = Bp + Bag + Bant. Forces follow first-order activation dynamics toward a
neural level N with a phase-dependent time constant:

    F_dot = (N - F) / tau

Holding a position theta takes the tonic pair N_ag = +(K/2)*theta,
N_ant = -(K/2)*theta. A saccade is a pulse-step: during the pulse (width
pulse_width_coeff * |amplitude| ms) the neural levels are the new holding
pair plus/minus a pulse of height pulse_height_coeff * |amplitude|; the step
phase drops back to the holding pair, which makes the trajectory converge to
the target exactly. The model is linear, so each phase is advanced with the
exact matrix exponential of its affine system and a 1 ms grid is not an
approximation.

The same mechanics serve the predictor through a second, target-blind form
(``plant_transition`` / ``transition_matrices``): forces re-equilibrate
toward the holding pair of the *current* position, so an excited state
coasts through a ballistic completion without knowing where the saccade was
aimed. Any settled position is a fixed point of that form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .classify import FIXATION, SACCADE, EventSegment, segments_from_labels
from .errors import ConfigError, FitError, InstabilityError
from .signal import GazeRecording, recording_from_arrays

SETTLE_SUSTAIN_MS = 20.0
SIMULATION_CAP_MS = 400.0
TRUTH_VELOCITY_THRESHOLD = 20.0  # dva/s; matches the classifier's onset/offset default
MIN_TARGET_STEP_DVA = 5.0


@dataclass(frozen=True)
class PlantParams:
    """The 13 plant parameters, one set per subject.

    Elasticities and viscosities are in consistent torque-per-dva units with
    J the inertia; time constants are seconds; the two pulse coefficients
    scale neural pulse height (force per dva of intended amplitude) and
    width (ms per dva).
    """

    Kse: float = 12800.0
    Klt: float = 12800.0
    J: float = 2.0
    Bag: float = 200.0
    Bant: float = 160.0
    Kp: float = 6400.0
    Bp: float = 60.0
    tau_ag_act: float = 0.010
    tau_ag_deact: float = 0.014
    tau_ant_act: float = 0.007
    tau_ant_deact: float = 0.008
    pulse_height_coeff: float = 11500.0
    pulse_width_coeff: float = 0.46

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (np.isfinite(v) and v > 0):
                raise ConfigError(f"plant parameter {f.name} must be strictly positive, got {v}")
        for name in ("tau_ag_act", "tau_ag_deact", "tau_ant_act", "tau_ant_deact"):
            v = getattr(self, name)
            if not 0.001 <= v <= 0.5:
                raise ConfigError(f"{name} must lie in [0.001, 0.5] s, got {v}")

    @property
    def k_total(self) -> float:
        return self.Kp + 2.0 * self.Kse * self.Klt / (self.Kse + self.Klt)

    @property
    def b_total(self) -> float:
        return self.Bp + self.Bag + self.Bant


DEFAULT_PARAMS = PlantParams()


@dataclass(frozen=True)
class PlantState:
    theta: float
    omega: float
    f_ag: float
    f_ant: float

    def as_array(self) -> np.ndarray:
        return np.array([self.theta, self.omega, self.f_ag, self.f_ant])

    @classmethod
    def from_array(cls, a) -> "PlantState":
        return cls(float(a[0]), float(a[1]), float(a[2]), float(a[3]))


def equilibrium_state(params: PlantParams, theta: float) -> PlantState:
    h = 0.5 * params.k_total * theta
    return PlantState(theta=theta, omega=0.0, f_ag=h, f_ant=-h)


def _mechanics_rows(params: PlantParams) -> tuple[list[float], list[float]]:
    k, b, j = params.k_total, params.b_total, params.J
    return [0.0, 1.0, 0.0, 0.0], [-k / j, -b / j, 1.0 / j, -1.0 / j]


@lru_cache(maxsize=512)
def _affine_step(params: PlantParams, tau1: float, tau2: float, dt_ms: float):
    """Exact discrete (Phi, M) for the position-command form.

    Continuous system: x_dot = A x + b with force rows relaxing toward
    constant neural levels; the caller supplies b = [0, 0, N_ag/tau1,
    N_ant/tau2]. Returns Phi = expm(A dt) and M = A^-1 (Phi - I) so that
    x' = Phi x + M b.
    """
    r0, r1 = _mechanics_rows(params)
    a = np.array(
        [
            r0,
            r1,
            [0.0, 0.0, -1.0 / tau1, 0.0],
            [0.0, 0.0, 0.0, -1.0 / tau2],
        ]
    )
    dt = dt_ms / 1000.0
    phi = expm(a * dt)
    m = np.linalg.solve(a, phi - np.eye(4))
    return phi, m


@lru_cache(maxsize=64)
def _tracking_step(params: PlantParams, dt_ms: float):
    """Exact discrete (Phi, Gamma) for the target-blind re-equilibration form.

    Continuous system: forces relax toward the holding pair of the current
    position plus a symmetric drive u: N_ag = (K/2)*theta + u,
    N_ant = -(K/2)*theta - u. The A matrix is singular (every settled
    position is a fixed point), so Gamma comes from the augmented
    exponential rather than A^-1.
    """
    k = params.k_total
    t1, t2 = params.tau_ag_deact, params.tau_ant_act
    r0, r1 = _mechanics_rows(params)
    a = np.array(
        [
            r0,
            r1,
            [0.5 * k / t1, 0.0, -1.0 / t1, 0.0],
            [-0.5 * k / t2, 0.0, 0.0, -1.0 / t2],
        ]
    )
    b_unit = np.array([0.0, 0.0, 1.0 / t1, -1.0 / t2])
    aug = np.zeros((5, 5))
    aug[:4, :4] = a
    aug[:4, 4] = b_unit
    m = expm(aug * (dt_ms / 1000.0))
    return m[:4, :4].copy(), m[:4, 4].copy()


def transition_matrices(params: PlantParams, dt_ms: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Gamma) of the target-blind form: x' = Phi x + Gamma u."""
    phi, gamma = _tracking_step(params, float(dt_ms))
    return phi.copy(), gamma.copy()


def plant_transition(
    params: PlantParams, state: PlantState, input_level: float = 0.0, dt_ms: float = 1.0
) -> PlantState:
    """One exact discrete step of the target-blind plant form."""
    x = state.as_array()
    if not np.all(np.isfinite(x)):
        raise InstabilityError(f"non-finite plant state {state}")
    phi, gamma = _tracking_step(params, float(dt_ms))
    out = phi @ x + gamma * float(input_level)
    if not np.all(np.isfinite(out)):
        raise InstabilityError(f"plant step diverged with params {params}")
    return PlantState.from_array(out)


def _phase_taus(params: PlantParams, direction: float, pulse: bool) -> tuple[float, float]:
    # the muscle whose force magnitude grows uses its activation constant
    if (direction >= 0) == pulse:
        return params.tau_ag_act, params.tau_ant_deact
    return params.tau_ag_deact, params.tau_ant_act


def simulate_saccade(
    params: PlantParams,
    start_dva: float,
    target_dva: float,
    dt_ms: float = 1.0,
) -> list[PlantState]:
    """Simulate one single-axis saccade on a dt_ms grid, starting settled.

    The trajectory begins at the equilibrium for start_dva and runs until
    |theta - target| < 1% of the commanded amplitude has been sustained for
    20 ms, or a 400 ms cap. Pulse width is honored exactly: a grid step that
    straddles the pulse/step boundary is advanced in two exact sub-steps.
    """
    if dt_ms > 1.0 or dt_ms <= 0:
        raise ConfigError(f"dt_ms must be in (0, 1], got {dt_ms}")
    amp = target_dva - start_dva
    if abs(amp) > 40.0:
        raise ConfigError(f"saccade amplitude {amp:.2f} dva exceeds the 40 dva limit")

    k = params.k_total
    sign = 1.0 if amp >= 0 else -1.0
    height = params.pulse_height_coeff * abs(amp)
    width_ms = params.pulse_width_coeff * abs(amp)
    hold = 0.5 * k * target_dva

    def phase_b(pulse: bool, taus: tuple[float, float]) -> np.ndarray:
        drive = sign * height if pulse else 0.0
        return np.array([0.0, 0.0, (hold + drive) / taus[0], (-hold - drive) / taus[1]])

    taus_pulse = _phase_taus(params, sign, pulse=True)
    taus_step = _phase_taus(params, sign, pulse=False)
    b_pulse = phase_b(True, taus_pulse)
    b_step = phase_b(False, taus_step)

    def advance(x: np.ndarray, t_from: float, t_to: float) -> np.ndarray:
        """Advance across [t_from, t_to], honoring the phase boundary."""
        if t_to <= width_ms or t_from >= width_ms:
            pulse = t_to <= width_ms
            taus = taus_pulse if pulse else taus_step
            phi, m = _affine_step(params, taus[0], taus[1], round(t_to - t_from, 9))
            return phi @ x + m @ (b_pulse if pulse else b_step)
        x = advance(x, t_from, width_ms)
        return advance(x, width_ms, t_to)

    tol = max(0.01 * abs(amp), 1e-9)
    sustain_steps = int(np.ceil(SETTLE_SUSTAIN_MS / dt_ms))
    cap_steps = int(np.ceil(SIMULATION_CAP_MS / dt_ms))

    x = equilibrium_state(params, start_dva).as_array()
    traj = [PlantState.from_array(x)]
    settled_run = 1 if abs(x[0] - target_dva) < tol else 0
    t = 0.0
    for step in range(1, cap_steps + 1):
        t_next = step * dt_ms
        x = advance(x, t, t_next)
        t = t_next
        if not np.all(np.isfinite(x)):
            raise InstabilityError(f"saccade simulation diverged with params {params}")
        traj.append(PlantState.from_array(x))
        settled_run = settled_run + 1 if abs(x[0] - target_dva) < tol else 0
        if settled_run >= sustain_steps:
            break
    return traj


# ---------------------------------------------------------------------------
# synthetic cohort


@dataclass(frozen=True)
class SynthConfig:
    """Random-saccade cohort settings.

    Targets step to a uniform random point every second inside the
    horizontal/vertical ranges; each step triggers a plant-simulated saccade
    after a jittered response latency. Per-subject fixation noise sigma is
    spread geometrically across [noise_sigma_lo, noise_sigma_hi] unless an
    explicit list is given. Output is deterministic for a fixed seed.
    """

    n_subjects: int = 30
    duration_s: float = 12.0
    target_range_h: float = 8.0
    target_range_v: float = 5.0
    latency_ms: float = 200.0
    latency_jitter_ms: float = 30.0
    noise_sigma_lo: float = 0.05
    noise_sigma_hi: float = 0.8
    noise_sigma_per_subject: tuple[float, ...] | None = None
    speed_factor_per_subject: tuple[float, ...] | None = None
    drift_corner_hz: float = 3.0
    white_fraction: float = 0.05
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_subjects < 1:
            raise ConfigError("n_subjects must be >= 1")
        if self.duration_s < 2.0:
            raise ConfigError("duration_s must be >= 2 s (one target hold plus margin)")
        if self.noise_sigma_per_subject is not None:
            if len(self.noise_sigma_per_subject) != self.n_subjects:
                raise ConfigError("noise_sigma_per_subject length must equal n_subjects")
            if any(s < 0 for s in self.noise_sigma_per_subject):
                raise ConfigError("noise sigmas must be >= 0")
        elif not 0 <= self.noise_sigma_lo <= self.noise_sigma_hi:
            raise ConfigError("need 0 <= noise_sigma_lo <= noise_sigma_hi")
        if self.speed_factor_per_subject is not None:
            if len(self.speed_factor_per_subject) != self.n_subjects:
                raise ConfigError("speed_factor_per_subject length must equal n_subjects")
            if any(not 0.5 <= f <= 1.5 for f in self.speed_factor_per_subject):
                raise ConfigError("speed factors must lie in [0.5, 1.5]")

    def subject_sigmas(self) -> np.ndarray:
        if self.noise_sigma_per_subject is not None:
            return np.asarray(self.noise_sigma_per_subject, dtype=float)
        if self.n_subjects == 1:
            return np.array([self.noise_sigma_hi])
        lo = max(self.noise_sigma_lo, 1e-6)
        return np.geomspace(lo, max(self.noise_sigma_hi, lo), self.n_subjects)


@dataclass(frozen=True)
class CohortMember:
    recording: GazeRecording
    truth: list[EventSegment]
    noise_sigma: float
    params: PlantParams


def default_param_sampler(rng: np.random.Generator) -> PlantParams:
    """Per-subject plant variation.

    Pulse height spans +/-40% (the dominant saccade-speed axis: faster
    subjects reach higher peak velocities in shorter spans at matched
    amplitude); neural time constants share one +/-15% timing factor;
    viscosities jitter upward only, since damping below the default brings
    the largest amplitudes close to the overshoot knee.
    """
    timing = rng.uniform(0.85, 1.15)
    return replace(
        DEFAULT_PARAMS,
        pulse_height_coeff=DEFAULT_PARAMS.pulse_height_coeff * rng.uniform(0.6, 1.4),
        pulse_width_coeff=DEFAULT_PARAMS.pulse_width_coeff * rng.uniform(0.9, 1.1),
        Bag=DEFAULT_PARAMS.Bag * rng.uniform(0.95, 1.10),
        Bant=DEFAULT_PARAMS.Bant * rng.uniform(0.95, 1.10),
        tau_ag_act=DEFAULT_PARAMS.tau_ag_act * timing,
        tau_ag_deact=DEFAULT_PARAMS.tau_ag_deact * timing,
        tau_ant_act=DEFAULT_PARAMS.tau_ant_act * timing,
        tau_ant_deact=DEFAULT_PARAMS.tau_ant_deact * timing,
    )


def drift_noise(rng: np.random.Generator, n: int, sigma: float, corner_hz: float) -> np.ndarray:
    """Band-limited drift: two cascaded AR(1) poles at corner_hz, unit-free.

    The cascade of two identical AR(1) filters driven by white noise has
    stationary variance (1 + a^2) / (1 - a^2)^3 per unit innovation, which
    normalizes the output to std exactly ``sigma``.
    """
    if sigma == 0.0 or n == 0:
        return np.zeros(n)
    a = float(np.exp(-2.0 * np.pi * corner_hz / 1000.0))
    e = rng.standard_normal(n)
    y = np.empty(n)
    z1 = rng.standard_normal() / np.sqrt(1.0 - a * a)  # stationary start
    # second stage starts at its own stationary draw to avoid a warm-up ramp
    var2 = (1.0 + a * a) / (1.0 - a * a) ** 3
    z2 = rng.standard_normal() * np.sqrt(var2)
    for i in range(n):
        z1 = a * z1 + e[i]
        z2 = a * z2 + z1
        y[i] = z2
    return y * (sigma / np.sqrt(var2))


def _draw_targets(rng: np.random.Generator, cfg: SynthConfig, count: int) -> np.ndarray:
    pts = np.empty((count, 2))
    prev = None
    for i in range(count):
        for _ in range(100):
            cand = np.array(
                [
                    rng.uniform(-cfg.target_range_h, cfg.target_range_h),
                    rng.uniform(-cfg.target_range_v, cfg.target_range_v),
                ]
            )
            if prev is None or np.hypot(*(cand - prev)) >= MIN_TARGET_STEP_DVA:
                break
        pts[i] = cand
        prev = cand
    return pts


def _simulate_subject(
    rng: np.random.Generator,
    cfg: SynthConfig,
    params: PlantParams,
    sigma: float,
    subject_id: str,
    targets: np.ndarray,
) -> CohortMember:
    n = int(round(cfg.duration_s * 1000))
    target_times = np.arange(0, n, 1000)
    latencies = rng.uniform(
        cfg.latency_ms - cfg.latency_jitter_ms, cfg.latency_ms + cfg.latency_jitter_ms, len(target_times)
    )
    calib_offset = rng.uniform(-0.5, 0.5, size=2)

    x = np.empty(n)
    y = np.empty(n)
    wx = np.zeros(n)
    wy = np.zeros(n)
    pos = targets[0].copy()
    x[:], y[:] = pos
    sacc_windows: list[tuple[int, int]] = []

    for k in range(1, len(target_times)):
        onset = int(target_times[k] + round(latencies[k]))
        if onset >= n:
            break
        traj_x = simulate_saccade(params, pos[0], targets[k][0])
        traj_y = simulate_saccade(params, pos[1], targets[k][1])
        span = max(len(traj_x), len(traj_y))
        end = min(onset + span, n)
        for i in range(onset, end):
            sx = traj_x[min(i - onset, len(traj_x) - 1)]
            sy = traj_y[min(i - onset, len(traj_y) - 1)]
            x[i], y[i] = sx.theta, sy.theta
            wx[i], wy[i] = sx.omega, sy.omega
        pos = np.array([x[end - 1], y[end - 1]])
        x[end:], y[end:] = pos
        sacc_windows.append((onset, end - 1))

    # ground truth from the noiseless velocity: the fast run around each peak
    labels = np.full(n, FIXATION, dtype=np.int8)
    v_true = np.hypot(wx, wy)
    for onset, end in sacc_windows:
        seg_v = v_true[onset : end + 1]
        fast = seg_v >= TRUTH_VELOCITY_THRESHOLD
        if not fast.any():
            continue
        peak = int(np.argmax(seg_v))
        lo = peak
        while lo > 0 and fast[lo - 1]:
            lo -= 1
        hi = peak
        while hi + 1 < len(fast) and fast[hi + 1]:
            hi += 1
        labels[onset + lo : onset + hi + 1] = SACCADE

    truth = segments_from_labels(labels, x, y, v_true)

    white = cfg.white_fraction * sigma
    gx = x + calib_offset[0] + drift_noise(rng, n, sigma, cfg.drift_corner_hz)
    gy = y + calib_offset[1] + drift_noise(rng, n, sigma, cfg.drift_corner_hz)
    if white > 0:
        gx = gx + rng.normal(0.0, white, n)
        gy = gy + rng.normal(0.0, white, n)

    target_rows = np.column_stack([target_times[: len(targets)], targets])
    rec = recording_from_arrays(subject_id, gx, gy, targets=target_rows, session_id="synth")
    return CohortMember(recording=rec, truth=truth, noise_sigma=float(sigma), params=params)


def generate_cohort(cfg: SynthConfig, param_sampler=default_param_sampler) -> list[CohortMember]:
    """Deterministic labeled cohort; per-subject RNG streams from the seed.

    Every subject views the same target sequence (one stimulus protocol for
    the whole cohort, as in a shared-task experiment); latency, calibration
    offset, noise, and plant parameters vary per subject.
    """
    protocol, *streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_subjects + 1)
    n_steps = len(np.arange(0, int(round(cfg.duration_s * 1000)), 1000))
    targets = _draw_targets(np.random.default_rng(protocol), cfg, n_steps)
    sigmas = cfg.subject_sigmas()
    members = []
    for i, (ss, sigma) in enumerate(zip(streams, sigmas)):
        rng = np.random.default_rng(ss)
        params = None
        for attempt in range(10):
            cand = param_sampler(rng)
            if cfg.speed_factor_per_subject is not None:
                # controlled speed ladder: pin the pulse-height axis, keep
                # the sampler's timing and damping jitter
                cand = replace(
                    cand,
                    pulse_height_coeff=DEFAULT_PARAMS.pulse_height_coeff
                    * cfg.speed_factor_per_subject[i],
                )
            try:
                simulate_saccade(cand, 0.0, 10.0)
            except InstabilityError:
                continue
            params = cand
            break
        if params is None:
            raise FitError(f"no stable plant parameters after 10 draws for subject {i}")
        members.append(_simulate_subject(rng, cfg, params, float(sigma), f"S{i + 1:03d}", targets))
    return members
