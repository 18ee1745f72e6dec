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

``simulate_saccade`` returns the trajectory as a (steps, 4) array of states.
Each phase's one-step map x' = Phi x + c is built once per call, and the
recursion fills a preallocated array; only the step that straddles the
pulse/step boundary is split into two exact sub-steps.

The same mechanics serve the predictor through a second, target-blind form
(``transition_matrices``): forces re-equilibrate toward the holding pair of
the *current* position, so an excited state coasts through a ballistic
completion without knowing where the saccade was aimed. Any settled position
is a fixed point of that form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.linalg import expm

from .classify import FIXATION, ONSET_OFFSET_THRESHOLD, SACCADE, EventSegment, segments_from_labels
from .errors import ConfigError, InstabilityError, check_int
from .signal import GazeRecording, recording_from_arrays

SETTLE_SUSTAIN_MS = 20  # whole ms: the simulator's grid is 1 ms
SIMULATION_CAP_MS = 400
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


def equilibrium_state(params: PlantParams, theta: float) -> np.ndarray:
    """The settled state [theta, 0, F_ag, F_ant] holding position theta."""
    h = 0.5 * params.k_total * theta
    return np.array([theta, 0.0, h, -h])


def _mechanics_rows(params: PlantParams) -> tuple[list[float], list[float]]:
    k, b, j = params.k_total, params.b_total, params.J
    return [0.0, 1.0, 0.0, 0.0], [-k / j, -b / j, 1.0 / j, -1.0 / j]


def _affine_step(params: PlantParams, taus: tuple[float, float], b: np.ndarray, dt_ms: float):
    """Exact discrete (Phi, c) for one phase of the position-command form.

    Continuous system: x_dot = A x + b with force rows relaxing toward
    constant neural levels; the caller supplies b = [0, 0, N_ag/tau1,
    N_ant/tau2]. Returns Phi = expm(A dt) and c = A^-1 (Phi - I) b so that
    x' = Phi x + c.
    """
    r0, r1 = _mechanics_rows(params)
    a = np.array(
        [
            r0,
            r1,
            [0.0, 0.0, -1.0 / taus[0], 0.0],
            [0.0, 0.0, 0.0, -1.0 / taus[1]],
        ]
    )
    phi = expm(a * (dt_ms / 1000.0))
    m = np.linalg.solve(a, phi - np.eye(4))
    return phi, m @ b


def transition_matrices(params: PlantParams) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, Gamma) of the target-blind form over 1 ms: x' = Phi x + Gamma u.

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
    m = expm(aug * 1e-3)  # 1 ms in seconds
    return m[:4, :4].copy(), m[:4, 4].copy()


def _phase_taus(params: PlantParams, direction: float, pulse: bool) -> tuple[float, float]:
    # the muscle whose force magnitude grows uses its activation constant
    if (direction >= 0) == pulse:
        return params.tau_ag_act, params.tau_ant_deact
    return params.tau_ag_deact, params.tau_ant_act


def simulate_saccade(params: PlantParams, start_dva: float, target_dva: float) -> np.ndarray:
    """Simulate one single-axis saccade on a 1 ms grid, starting settled.

    Returns a (steps, 4) array of states [theta, omega, F_ag, F_ant], the
    first row being the equilibrium for start_dva. The trajectory runs until
    |theta - target| < 1% of the commanded amplitude has been sustained for
    20 ms, or a 400 ms cap. Pulse width is honored exactly: the grid step
    that straddles the pulse/step boundary is advanced in two exact
    sub-steps.
    """
    amp = target_dva - start_dva
    if abs(amp) > 40.0:
        raise ConfigError(f"saccade amplitude {amp:.2f} dva exceeds the 40 dva limit")

    k = params.k_total
    sign = 1.0 if amp >= 0 else -1.0
    height = params.pulse_height_coeff * abs(amp)
    width_ms = params.pulse_width_coeff * abs(amp)
    hold = 0.5 * k * target_dva

    def phase(pulse: bool, dt_ms: float):
        taus = _phase_taus(params, sign, pulse)
        drive = sign * height if pulse else 0.0
        b = np.array([0.0, 0.0, (hold + drive) / taus[0], (-hold - drive) / taus[1]])
        return _affine_step(params, taus, b, dt_ms)

    tol = max(0.01 * abs(amp), 1e-9)
    # steps 1..n_pulse lie inside the pulse; step n_pulse + 1 straddles the
    # boundary unless the width is a whole number of ms
    n_pulse = int(width_ms)
    split = n_pulse < width_ms
    phi_pulse, c_pulse = phase(True, 1.0)
    phi_step, c_step = phase(False, 1.0)
    if split:
        phi_head, c_head = phase(True, round(width_ms - n_pulse, 9))
        phi_tail, c_tail = phase(False, round(n_pulse + 1 - width_ms, 9))

    traj = np.empty((SIMULATION_CAP_MS + 1, 4))
    traj[0] = equilibrium_state(params, start_dva)
    settled_run = 1 if abs(traj[0, 0] - target_dva) < tol else 0
    for step in range(1, SIMULATION_CAP_MS + 1):
        x, out = traj[step - 1], traj[step]
        if step <= n_pulse:
            np.matmul(phi_pulse, x, out=out)
            out += c_pulse
        elif split and step == n_pulse + 1:
            np.matmul(phi_tail, phi_head @ x + c_head, out=out)
            out += c_tail
        else:
            np.matmul(phi_step, x, out=out)
            out += c_step
        settled_run = settled_run + 1 if abs(out[0] - target_dva) < tol else 0
        if settled_run >= SETTLE_SUSTAIN_MS:
            break
    traj = traj[: step + 1]
    if not np.all(np.isfinite(traj)):
        raise InstabilityError(f"saccade simulation diverged with params {params}")
    return traj


# ---------------------------------------------------------------------------
# synthetic cohort


# the cohort protocol: targets, response latency and fixation noise
TARGET_RANGE_H_DVA = 8.0
TARGET_RANGE_V_DVA = 5.0
LATENCY_MS = 200.0
LATENCY_JITTER_MS = 30.0
NOISE_SIGMA_LO = 0.05
NOISE_SIGMA_HI = 0.8
DRIFT_CORNER_HZ = 3.0
WHITE_FRACTION = 0.05  # white noise std as a fraction of the drift sigma


@dataclass(frozen=True)
class SynthConfig:
    """Random-saccade cohort settings.

    Targets step every second to a uniform random point within +/-8 dva
    horizontally and +/-5 dva vertically, redrawn (up to 100 times) while
    within 5 dva of the previous one. Each step triggers a plant-simulated
    saccade after a response latency drawn uniformly from 200 +/- 30 ms.
    Fixation noise is 3 Hz band-limited drift of std sigma plus white noise
    of std 0.05 * sigma. Per-subject sigma is spread geometrically across
    [0.05, 0.8] dva unless ``noise_sigma_per_subject`` lists one per
    subject. Those protocol values are the module constants above; output
    is deterministic for a fixed seed.
    """

    n_subjects: int = 30
    duration_s: float = 12.0
    noise_sigma_per_subject: tuple[float, ...] | None = None
    rng_seed: int = 0

    def __post_init__(self):
        check_int("n_subjects", self.n_subjects, 1)
        check_int("rng_seed", self.rng_seed, 0)
        if not (np.isfinite(self.duration_s) and self.duration_s >= 2.0):
            raise ConfigError("duration_s must be finite and >= 2 s (one target hold plus margin)")
        if self.noise_sigma_per_subject is not None:
            if len(self.noise_sigma_per_subject) != self.n_subjects:
                raise ConfigError("noise_sigma_per_subject length must equal n_subjects")
            if not all(np.isfinite(s) and s >= 0 for s in self.noise_sigma_per_subject):
                raise ConfigError("noise sigmas must be finite and >= 0")

    def subject_sigmas(self) -> np.ndarray:
        if self.noise_sigma_per_subject is not None:
            return np.asarray(self.noise_sigma_per_subject, dtype=float)
        if self.n_subjects == 1:
            return np.array([NOISE_SIGMA_HI])
        return np.geomspace(NOISE_SIGMA_LO, NOISE_SIGMA_HI, self.n_subjects)


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


def drift_noise(rng: np.random.Generator, n: int, sigma: float) -> np.ndarray:
    """Band-limited drift: two cascaded AR(1) poles at DRIFT_CORNER_HZ.

    The cascade of two identical AR(1) filters driven by white noise has
    stationary variance (1 + a^2) / (1 - a^2)^3 per unit innovation, which
    normalizes the output to std exactly ``sigma``.
    """
    if sigma == 0.0 or n == 0:
        return np.zeros(n)
    a = float(np.exp(-2.0 * np.pi * DRIFT_CORNER_HZ / 1000.0))
    e = rng.standard_normal(n)
    z1 = float(rng.standard_normal() / np.sqrt(1.0 - a * a))  # stationary start
    # second stage starts at its own stationary draw to avoid a warm-up ramp
    var2 = (1.0 + a * a) / (1.0 - a * a) ** 3
    z2 = float(rng.standard_normal() * np.sqrt(var2))
    y = []
    for ei in e.tolist():  # Python floats: the recursion is sequential
        z1 = a * z1 + ei
        z2 = a * z2 + z1
        y.append(z2)
    return np.array(y) * (sigma / np.sqrt(var2))


def _draw_targets(rng: np.random.Generator, count: int) -> np.ndarray:
    pts = np.empty((count, 2))
    prev = None
    for i in range(count):
        for _ in range(100):
            cand = np.array(
                [
                    rng.uniform(-TARGET_RANGE_H_DVA, TARGET_RANGE_H_DVA),
                    rng.uniform(-TARGET_RANGE_V_DVA, TARGET_RANGE_V_DVA),
                ]
            )
            if prev is None or np.hypot(*(cand - prev)) >= MIN_TARGET_STEP_DVA:
                break
        pts[i] = cand
        prev = cand
    return pts


def _simulate_subject(
    rng: np.random.Generator,
    n: int,
    params: PlantParams,
    sigma: float,
    subject_id: str,
    targets: np.ndarray,
) -> CohortMember:
    target_times = np.arange(0, n, 1000)
    latencies = rng.uniform(
        LATENCY_MS - LATENCY_JITTER_MS, LATENCY_MS + LATENCY_JITTER_MS, len(target_times)
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
        end = min(onset + max(len(traj_x), len(traj_y)), n)
        # the shorter trajectory holds its final state until the longer settles
        ks = np.arange(end - onset)
        sx = traj_x[np.minimum(ks, len(traj_x) - 1)]
        sy = traj_y[np.minimum(ks, len(traj_y) - 1)]
        x[onset:end], wx[onset:end] = sx[:, 0], sx[:, 1]
        y[onset:end], wy[onset:end] = sy[:, 0], sy[:, 1]
        pos = np.array([x[end - 1], y[end - 1]])
        x[end:], y[end:] = pos
        sacc_windows.append((onset, end - 1))

    # ground truth from the noiseless velocity: the fast run around each peak
    labels = np.full(n, FIXATION, dtype=np.int8)
    v_true = np.hypot(wx, wy)
    for onset, end in sacc_windows:
        seg_v = v_true[onset : end + 1]
        fast = seg_v >= ONSET_OFFSET_THRESHOLD
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

    white = WHITE_FRACTION * sigma
    gx = x + calib_offset[0] + drift_noise(rng, n, sigma)
    gy = y + calib_offset[1] + drift_noise(rng, n, sigma)
    if white > 0:
        gx = gx + rng.normal(0.0, white, n)
        gy = gy + rng.normal(0.0, white, n)

    target_rows = np.column_stack([target_times[: len(targets)], targets])
    rec = recording_from_arrays(subject_id, gx, gy, targets=target_rows)
    return CohortMember(recording=rec, truth=truth, noise_sigma=float(sigma), params=params)


def generate_cohort(cfg: SynthConfig) -> list[CohortMember]:
    """Deterministic labeled cohort; per-subject RNG streams from the seed.

    Every subject views the same target sequence (one stimulus protocol for
    the whole cohort, as in a shared-task experiment); latency, calibration
    offset, noise, and plant parameters vary per subject.
    """
    protocol, *streams = np.random.SeedSequence(cfg.rng_seed).spawn(cfg.n_subjects + 1)
    n = int(round(cfg.duration_s * 1000))
    targets = _draw_targets(np.random.default_rng(protocol), len(np.arange(0, n, 1000)))
    sigmas = cfg.subject_sigmas()
    members = []
    for i, (ss, sigma) in enumerate(zip(streams, sigmas)):
        rng = np.random.default_rng(ss)
        params = default_param_sampler(rng)
        members.append(_simulate_subject(rng, n, params, float(sigma), f"S{i + 1:03d}", targets))
    return members
