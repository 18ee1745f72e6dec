import dataclasses

import numpy as np
import pytest

from gazecast.errors import ConfigError, FitError, InstabilityError
from gazecast.plant import (
    DEFAULT_PARAMS,
    CohortMember,
    PlantParams,
    PlantState,
    SynthConfig,
    drift_noise,
    equilibrium_state,
    generate_cohort,
    plant_transition,
    simulate_saccade,
    transition_matrices,
)


def lumped(params):
    k = params.Kp + 2 * params.Kse * params.Klt / (params.Kse + params.Klt)
    b = params.Bp + params.Bag + params.Bant
    return k, b


def rk4(deriv, x0, t_end_ms, dt_ms):
    """Classical fixed-step RK4, time in ms, dynamics in seconds."""
    x = np.asarray(x0, dtype=float)
    out = [x.copy()]
    steps = int(round(t_end_ms / dt_ms))
    h = dt_ms / 1000.0
    for i in range(steps):
        t = i * dt_ms
        k1 = deriv(x, t)
        k2 = deriv(x + 0.5 * h * k1, t + 0.5 * dt_ms)
        k3 = deriv(x + 0.5 * h * k2, t + 0.5 * dt_ms)
        k4 = deriv(x + h * k3, t + dt_ms)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(x.copy())
    return np.array(out)


def saccade_deriv(params, start, target):
    """Independent right-hand side of the pulse-step saccade ODE."""
    k, b = lumped(params)
    j = params.J
    amp = target - start
    s = 1.0 if amp >= 0 else -1.0
    height = params.pulse_height_coeff * abs(amp)
    width = params.pulse_width_coeff * abs(amp)
    hold = 0.5 * k * target

    def deriv(x, t_ms):
        pulse = t_ms < width
        if (s >= 0) == pulse:
            t1, t2 = params.tau_ag_act, params.tau_ant_deact
        else:
            t1, t2 = params.tau_ag_deact, params.tau_ant_act
        drive = s * height if pulse else 0.0
        th, om, fa, fan = x
        return np.array(
            [
                om,
                ((fa - fan) - k * th - b * om) / j,
                (hold + drive - fa) / t1,
                (-hold - drive - fan) / t2,
            ]
        )

    return deriv


def tracking_deriv(params, u):
    """Independent right-hand side of the target-blind form."""
    k, b = lumped(params)
    j = params.J
    t1, t2 = params.tau_ag_deact, params.tau_ant_act

    def deriv(x, t_ms):
        th, om, fa, fan = x
        return np.array(
            [
                om,
                ((fa - fan) - k * th - b * om) / j,
                (0.5 * k * th + u - fa) / t1,
                (-0.5 * k * th - u - fan) / t2,
            ]
        )

    return deriv


class TestParams:
    def test_exactly_13_parameters(self):
        assert len(dataclasses.fields(PlantParams)) == 13

    def test_positivity_enforced(self):
        with pytest.raises(ConfigError):
            PlantParams(Kse=0.0)
        with pytest.raises(ConfigError):
            PlantParams(J=-1.0)

    def test_tau_range_enforced(self):
        with pytest.raises(ConfigError):
            PlantParams(tau_ag_act=0.0005)
        with pytest.raises(ConfigError):
            PlantParams(tau_ant_deact=0.6)


class TestSimulateSaccade:
    def test_zero_amplitude_stays_put(self):
        traj = simulate_saccade(DEFAULT_PARAMS, 5.0, 5.0)
        assert all(abs(s.theta - 5.0) < 1e-9 for s in traj)
        assert all(abs(s.omega) < 1e-6 for s in traj)

    def test_settles_within_150ms(self):
        traj = simulate_saccade(DEFAULT_PARAMS, 0.0, 10.0)
        th = np.array([s.theta for s in traj])
        # trajectory ends once |theta - target| < 0.1 held for 20 ms
        assert len(traj) - 1 - 20 < 150
        assert abs(th[-1] - 10.0) < 0.1

    def test_matches_rk4_oracle(self):
        # independent fine-step integration of the documented ODE
        params = DEFAULT_PARAMS
        fine = rk4(saccade_deriv(params, 0.0, 10.0), equilibrium_state(params, 0.0).as_array(), 160.0, 0.01)
        coarse = simulate_saccade(params, 0.0, 10.0)
        n = min(len(coarse), 161)
        got = np.array([coarse[i].theta for i in range(n)])
        want = fine[::100][:n, 0]
        assert np.max(np.abs(got - want)) < 5e-3
        # oracle settles fast too
        assert np.all(np.abs(fine[14000:, 0] - 10.0) < 0.1)

    def test_grid_refinement_is_exact(self):
        # exact discretization: a finer grid hits the same states at shared
        # times, including when the pulse boundary splits a step
        params = DEFAULT_PARAMS
        a = simulate_saccade(params, 0.0, 10.3, dt_ms=1.0)
        b = simulate_saccade(params, 0.0, 10.3, dt_ms=0.5)
        n = min(len(a), (len(b) + 1) // 2)
        for i in range(n):
            assert a[i].theta == pytest.approx(b[2 * i].theta, abs=1e-9)
            assert a[i].omega == pytest.approx(b[2 * i].omega, abs=1e-7)

    def test_main_sequence_monotone(self):
        peaks = []
        for amp in (2.0, 5.0, 10.0, 15.0, 20.0):
            traj = simulate_saccade(DEFAULT_PARAMS, 0.0, amp)
            peaks.append(max(abs(s.omega) for s in traj))
        assert all(b > a for a, b in zip(peaks, peaks[1:]))

    def test_at_most_one_overshoot_crossing(self):
        for amp in (2.0, 5.0, 10.0, 20.0, 30.0):
            traj = simulate_saccade(DEFAULT_PARAMS, 0.0, amp)
            th = np.array([s.theta for s in traj])
            signs = np.sign(th - amp)
            signs = signs[signs != 0]
            assert np.sum(np.diff(signs) != 0) <= 1

    def test_mirror_symmetry_when_activation_equals_deactivation(self):
        # reversing direction swaps which phase each muscle activates in, so
        # trajectories mirror exactly when act == deact per muscle (the
        # default set keeps them distinct, hence a dedicated parameter set)
        params = dataclasses.replace(
            DEFAULT_PARAMS,
            tau_ag_act=0.014,
            tau_ag_deact=0.014,
            tau_ant_act=0.011,
            tau_ant_deact=0.011,
        )
        fwd = simulate_saccade(params, 2.0, 12.0)
        rev = simulate_saccade(params, -2.0, -12.0)
        assert len(fwd) == len(rev)
        for a, b in zip(fwd, rev):
            assert a.theta == pytest.approx(-b.theta, abs=1e-9)
            assert a.f_ag == pytest.approx(-b.f_ag, abs=1e-6)
            assert a.f_ant == pytest.approx(-b.f_ant, abs=1e-6)

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            simulate_saccade(DEFAULT_PARAMS, 0.0, 45.0)
        with pytest.raises(ConfigError):
            simulate_saccade(DEFAULT_PARAMS, 0.0, 10.0, dt_ms=2.0)


class TestPlantTransition:
    def test_equilibrium_is_fixed_point(self):
        state = equilibrium_state(DEFAULT_PARAMS, 7.0)
        x = state
        for _ in range(1000):  # one second
            x = plant_transition(DEFAULT_PARAMS, x)
        assert abs(x.theta - 7.0) < 1e-9
        assert abs(x.omega) < 1e-9

    def test_composed_steps_match_fine_rk4(self):
        params = DEFAULT_PARAMS
        x0 = np.array([1.0, 120.0, 900.0, -300.0])
        u = 500.0
        state = PlantState.from_array(x0)
        for _ in range(40):
            state = plant_transition(params, state, input_level=u)
        fine = rk4(tracking_deriv(params, u), x0, 40.0, 0.01)
        assert abs(state.theta - fine[-1, 0]) < 0.01
        assert abs(state.theta - fine[-1, 0]) < 1e-6  # exact discretization is much tighter

    def test_transition_matrix_matches_finite_differences(self):
        params = DEFAULT_PARAMS
        phi, gamma = transition_matrices(params, 1.0)
        x0 = np.array([0.5, 50.0, 400.0, -100.0])
        base = plant_transition(params, PlantState.from_array(x0)).as_array()
        eps = 1e-4
        for i in range(4):
            xp = x0.copy()
            xp[i] += eps
            col = (plant_transition(params, PlantState.from_array(xp)).as_array() - base) / eps
            assert np.allclose(col, phi[:, i], atol=1e-5, rtol=1e-6)
        du = (
            plant_transition(params, PlantState.from_array(x0), input_level=eps).as_array() - base
        ) / eps
        assert np.allclose(du, gamma, atol=1e-5, rtol=1e-6)

    def test_nonfinite_state_rejected(self):
        with pytest.raises(InstabilityError):
            plant_transition(DEFAULT_PARAMS, PlantState(np.nan, 0.0, 0.0, 0.0))


class TestDriftNoise:
    def test_std_matches_sigma(self):
        rng = np.random.default_rng(3)
        y = drift_noise(rng, 200_000, 0.5, 3.0)
        assert np.std(y) == pytest.approx(0.5, rel=0.05)

    def test_zero_sigma(self):
        rng = np.random.default_rng(3)
        assert np.all(drift_noise(rng, 100, 0.0, 3.0) == 0.0)

    def test_band_limited(self):
        # drift velocity should be gentle: well under saccadic speeds
        rng = np.random.default_rng(4)
        y = drift_noise(rng, 50_000, 0.8, 3.0)
        v = np.diff(y) * 1000.0
        assert np.std(v) < 25.0


class TestCohort:
    def test_determinism(self):
        cfg = SynthConfig(n_subjects=3, duration_s=4.0, rng_seed=99)
        a = generate_cohort(cfg)
        b = generate_cohort(cfg)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.recording.x, mb.recording.x)
            assert np.array_equal(ma.recording.y, mb.recording.y)
            assert ma.truth == mb.truth
            assert ma.params == mb.params
        c = generate_cohort(SynthConfig(n_subjects=3, duration_s=4.0, rng_seed=100))
        assert not np.array_equal(a[0].recording.x, c[0].recording.x)

    def test_zero_noise_single_step_is_pure_plant(self):
        cfg = SynthConfig(
            n_subjects=1,
            duration_s=2.0,
            noise_sigma_per_subject=(0.0,),
            rng_seed=5,
        )
        member = generate_cohort(cfg)[0]
        rec = member.recording
        x0, y0 = rec.targets[0, 1], rec.targets[0, 2]
        x1 = rec.targets[1, 1]
        calib_x = rec.x[0] - x0
        # before the response latency the eye holds the first target exactly
        assert np.allclose(rec.x[:1100] - calib_x, x0, atol=1e-12)
        # the saccadic part replays simulate_saccade sample for sample
        moving = np.flatnonzero(np.abs(np.diff(rec.x)) > 0)
        onset = moving[0]  # first sample whose successor differs
        traj = simulate_saccade(member.params, float(x0), float(x1))
        got = rec.x[onset : onset + len(traj)] - calib_x
        want = np.array([s.theta for s in traj])
        n = min(len(got), len(want))
        assert np.allclose(got[:n], want[:n], atol=1e-9)
        # after settling it holds the trajectory's final position
        assert np.allclose(rec.x[onset + len(traj) :] - calib_x, want[-1], atol=1e-9)

    def test_truth_segments_tile(self):
        cfg = SynthConfig(n_subjects=2, duration_s=5.0, rng_seed=1)
        for member in generate_cohort(cfg):
            segs = member.truth
            assert segs[0].start_idx == 0
            assert segs[-1].end_idx == member.recording.n_samples - 1
            for a, b in zip(segs, segs[1:]):
                assert b.start_idx == a.end_idx + 1

    def test_truth_saccades_carry_props(self):
        cfg = SynthConfig(n_subjects=1, duration_s=6.0, rng_seed=2)
        member = generate_cohort(cfg)[0]
        sacc = [s for s in member.truth if s.props is not None]
        assert len(sacc) >= 4
        for s in sacc:
            assert s.props.peak_vel >= s.props.mean_vel > 0
            assert s.props.amplitude_dva > 1.0

    def test_sigma_sweep_drives_noise_threshold(self):
        from gazecast.classify import classify_events, fixation_noise_threshold
        from gazecast.metrics import spearman
        from gazecast.signal import compute_velocity

        cfg = SynthConfig(n_subjects=10, duration_s=8.0, rng_seed=7)
        thresholds, sigmas = [], []
        for member in generate_cohort(cfg):
            vel = compute_velocity(member.recording)
            segs = classify_events(member.recording, vel)
            thresholds.append(fixation_noise_threshold(member.recording, vel, segs))
            sigmas.append(member.noise_sigma)
        r, _ = spearman(sigmas, thresholds)
        assert r >= 0.95

    def test_unstable_sampler_exhausts_retries(self, monkeypatch):
        import gazecast.plant as plant_mod

        def explode(*args, **kwargs):
            raise InstabilityError("boom")

        monkeypatch.setattr(plant_mod, "simulate_saccade", explode)
        with pytest.raises(FitError):
            generate_cohort(SynthConfig(n_subjects=1, duration_s=2.0))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SynthConfig(n_subjects=0)
        with pytest.raises(ConfigError):
            SynthConfig(duration_s=1.0)
        with pytest.raises(ConfigError):
            SynthConfig(n_subjects=2, noise_sigma_per_subject=(0.1,))
