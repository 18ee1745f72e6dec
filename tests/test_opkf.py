"""OPKF filter core, prediction pass, Nelder-Mead, and the per-subject fit."""

import logging
import math
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hysteresis_loop
from gazecast import opkf as O
from gazecast.classify import EventKind, classify_events
from gazecast.errors import ConfigError, InstabilityError
from gazecast.metrics import CEP_WINDOW_MS, ScoredRun, class_errors, score_run
from gazecast.plant import DEFAULT_PARAMS, PlantParams, SynthConfig, generate_cohort
from gazecast.signal import DiffConfig, compute_velocity, recording_from_arrays

PIS = (20, 40, 60)

# One 1.8 s synthetic subject (generate_cohort(SynthConfig(n_subjects=3,
# duration_s=3.0, rng_seed=5))[1], samples 800-2600) with blinks injected at
# [0, 15), [440, 470) and [1000, 1060), and two saccades. The "online_*"
# predictions and masks are the output of the dense-matrix filter at commit
# aa8280d, before the row-selecting rewrite; inputs are stored so the gate
# does not depend on the plant simulator. The file holds only those inputs
# and outputs.
REFERENCE = Path(__file__).parent / "data" / "opkf_reference.npz"


@pytest.fixture(scope="module")
def reference():
    with np.load(REFERENCE) as data:
        ref = dict(data)
    return ref, recording_from_arrays("ref", ref["x"], ref["y"], valid=ref["valid"])


@pytest.fixture(scope="module")
def short_rec(reference):
    """The first 600 reference samples: a leading blink, a saccade, a blink."""
    _, rec = reference
    return recording_from_arrays("short", rec.x[:600], rec.y[:600], valid=rec.valid[:600])


@pytest.fixture(scope="module")
def subject():
    """A 12 s synthetic subject with 11 detected saccades and no blinks."""
    rec = generate_cohort(SynthConfig(n_subjects=1, duration_s=12.0, rng_seed=1))[0].recording
    return rec, classify_events(rec, compute_velocity(rec))


def predict(rec):
    return O.opkf_predict_multi(rec, O.OpkfConfig(), PIS)


class TestReferenceEquivalence:
    def test_matches_pre_rewrite_filter(self, reference):
        ref, rec = reference
        runs = predict(rec)
        for pi in PIS:
            np.testing.assert_array_equal(runs[pi].valid_mask, ref[f"online_mask_{pi}"])
            np.testing.assert_allclose(
                runs[pi].predicted, ref[f"online_pred_{pi}"], rtol=0, atol=1e-12, equal_nan=True
            )


class TestFilterProperties:
    @given(cut=st.integers(20, 598), seed=st.integers(0, 2**32 - 1), blank=st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_causality(self, short_rec, cut, seed, blank):
        rng = np.random.default_rng(seed)
        n = short_rec.n_samples
        x, y, valid = short_rec.x.copy(), short_rec.y.copy(), short_rec.valid.copy()
        x[cut + 1 :] += rng.normal(0.0, 5.0, n - cut - 1)
        y[cut + 1 :] += rng.normal(0.0, 5.0, n - cut - 1)
        if blank:
            valid[cut + 1 : cut + 30] = False
        changed = recording_from_arrays("p", x, y, valid=valid)
        base, pert = predict(short_rec), predict(changed)
        for pi in PIS:
            before = slice(0, cut + 1)
            np.testing.assert_array_equal(base[pi].predicted[before], pert[pi].predicted[before])

    @given(dx=st.floats(-20.0, 20.0), dy=st.floats(-20.0, 20.0))
    @settings(max_examples=10, deadline=None)
    def test_translation_equivariance(self, short_rec, dx, dy):
        shifted = recording_from_arrays(
            "s", short_rec.x + dx, short_rec.y + dy, valid=short_rec.valid
        )
        base, moved = predict(short_rec), predict(shifted)
        for pi in PIS:
            mask = base[pi].valid_mask
            np.testing.assert_array_equal(mask, moved[pi].valid_mask)
            diff = moved[pi].predicted[mask] - base[pi].predicted[mask]
            shift = np.broadcast_to([dx, dy], diff.shape)
            np.testing.assert_allclose(diff, shift, rtol=0, atol=1e-9)

    @given(x0=st.floats(-20.0, 20.0), y0=st.floats(-20.0, 20.0))
    @settings(max_examples=10, deadline=None)
    def test_stationary_input_predicts_its_position(self, x0, y0):
        rec = recording_from_arrays("c", np.full(300, x0), np.full(300, y0))
        for run in predict(rec).values():
            pred = run.predicted[run.valid_mask]
            assert pred.shape[0] == 300 - run.pi_ms
            here = np.broadcast_to([x0, y0], pred.shape)
            np.testing.assert_allclose(pred, here, rtol=0, atol=1e-12)

    def test_starts_at_first_valid_sample(self, short_rec):
        run = predict(short_rec)[20]
        first = int(np.flatnonzero(short_rec.valid)[0])
        assert np.isnan(run.predicted[:first]).all()
        assert np.isfinite(run.predicted[first:]).all()

    def test_divergence_names_first_bad_sample(self):
        x = np.zeros(200)
        x[120] = 1e308  # finite and valid, so the filter takes it as a measurement
        rec = recording_from_arrays("d", x, np.zeros(200), valid=np.ones(200, dtype=bool))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(InstabilityError, match="sample 120"):
                predict(rec)

    @pytest.mark.parametrize("speed", [2.0, 5.0, 10.0])
    def test_fixation_ramp_extrapolates_over_pi(self, speed):
        # constant velocity below the saccade threshold: the fixation regime
        # is constant-velocity kinematics, so it extrapolates the ramp
        t = np.arange(3000) / 1000.0
        x, y = 1.0 + 0.8 * speed * t, -2.0 + 0.6 * speed * t
        runs = predict(recording_from_arrays("ramp", x, y))
        for pi, run in runs.items():
            idx = np.flatnonzero(run.valid_mask)
            idx = idx[idx >= 1000]
            assert idx.size == 2000 - pi
            truth = np.column_stack([x[idx + pi], y[idx + pi]])
            np.testing.assert_allclose(run.predicted[idx], truth, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("pi_list", [(-5,), (40.5,), (0,), (20, 0)])
    def test_bad_pi_rejected(self, short_rec, pi_list):
        with pytest.raises(ConfigError, match="pi_ms"):
            O.opkf_predict_multi(short_rec, O.OpkfConfig(), pi_list)


class TestDenseReference:
    def test_long_recording_matches_dense_loop(self, subject):
        """The float step against textbook numpy predict + dense_update over
        12 s, long fixations included (the reference file is 1.8 s)."""
        rec, _ = subject
        cfg = O.OpkfConfig()
        runs = O.opkf_predict_multi(rec, cfg, PIS)
        want = dense_filter(rec, cfg, PIS)
        for pi in PIS:
            mask = runs[pi].valid_mask
            assert mask.sum() == rec.n_samples - pi
            np.testing.assert_allclose(runs[pi].predicted[mask], want[pi][mask], rtol=0, atol=1e-12)


def dense_filter(rec, cfg, pis):
    """Predictions of a dense-matrix filter with the same regimes, noise and
    start state as ``opkf_predict_multi``."""
    vel = compute_velocity(rec, DiffConfig(mode="causal"))
    sac = hysteresis_loop(vel.v_radial, vel.valid, rec.valid)
    mats = O._RegimeMatrices(cfg, pis)
    phis = {False: mats.phi_fix, True: mats.phi_sac}
    qs = {False: np.diag(O.Q_FIXATION), True: np.diag(O.Q_SACCADE)}
    pos_var, vel_var = O.MEASUREMENT_NOISE
    z = np.stack([np.column_stack([rec.x, rec.y]), np.column_stack([vel.vx, vel.vy])], axis=1)
    post = np.full((rec.n_samples, 4, 2), np.nan)
    start = int(np.flatnonzero(rec.valid)[0])
    mean = np.array([z[start, 0], [0.0, 0.0], z[start, 0], -z[start, 0]])
    cov = np.diag([pos_var, 500.0**2, 25.0, 25.0])
    post[start] = mean
    for i in range(start + 1, rec.n_samples):
        phi, q = phis[sac[i]], qs[sac[i]]
        mean = phi @ mean
        cov = phi @ cov @ phi.T + q
        cov = 0.5 * (cov + cov.T)
        if rec.valid[i]:
            if vel.valid[i]:
                mean, cov = dense_update(mean, cov, z[i], np.diag([pos_var, vel_var]))
            else:
                mean, cov = dense_update(mean, cov, z[i, :1], np.array([[pos_var]]))
        post[i] = mean
    out = {}
    for pi in pis:
        rows = {s: np.linalg.matrix_power(phis[s], pi)[0] for s in (False, True)}
        out[pi] = np.array([rows[s] @ m for s, m in zip(sac, post)])
    return out


def dense_update(mean, cov, z, r):
    """Textbook Joseph-form update with an explicit H and a generic solve."""
    m = len(z)
    h = np.eye(4)[:m]
    s = h @ cov @ h.T + r
    gain = cov @ h.T @ np.linalg.inv(s)
    ikh = np.eye(4) - gain @ h
    new_cov = ikh @ cov @ ikh.T + gain @ r @ gain.T
    return mean + gain @ (z - h @ mean), 0.5 * (new_cov + new_cov.T)


UPPER = np.triu_indices(4)


def unpack_cov(packed):
    cov = np.zeros((4, 4))
    cov[UPPER] = packed
    cov.T[UPPER] = packed
    return cov


def update(mean, cov, z, r):
    """``kalman_update`` on dense arrays: (4, 2) mean, (4, 4) cov, (m, 2) z,
    diagonal (m, m) r in, dense mean and covariance out."""
    new_mean, new_cov = O.kalman_update(
        tuple(mean.ravel().tolist()),
        tuple(cov[UPPER].tolist()),
        tuple(z.ravel().tolist()),
        tuple(np.diag(r).tolist()),
    )
    assert len(new_mean) == 8 and len(new_cov) == 10
    return np.reshape(new_mean, (4, 2)), unpack_cov(new_cov)


def random_state(rng):
    a = rng.normal(size=(4, 4))
    return rng.normal(size=(4, 2)), a @ a.T + 0.1 * np.eye(4)


class TestKalmanPredict:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_form(self, seed):
        rng = np.random.default_rng(seed)
        mean, cov = random_state(rng)
        phi = rng.normal(size=(4, 4))
        q = rng.uniform(0.01, 1.0, 4)
        got_mean, got_cov = O.kalman_predict(
            tuple(mean.ravel().tolist()),
            tuple(cov[UPPER].tolist()),
            tuple(phi.ravel().tolist()),
            tuple(q.tolist()),
        )
        np.testing.assert_allclose(np.reshape(got_mean, (4, 2)), phi @ mean, rtol=1e-9, atol=1e-12)
        want = phi @ cov @ phi.T + np.diag(q)
        np.testing.assert_allclose(unpack_cov(got_cov), want, rtol=1e-9, atol=1e-12)


class TestPredictFixation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau_ag=st.floats(0.001, 0.5),
        tau_ant=st.floats(0.001, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_equals_generic_time_update(self, seed, tau_ag, tau_ant):
        params = replace(DEFAULT_PARAMS, tau_ag_deact=tau_ag, tau_ant_act=tau_ant)
        m = O._RegimeMatrices(O.OpkfConfig(params=params), PIS)
        # the five coefficients are the only entries of phi_fix off 0 and 1
        rebuilt = np.eye(4)
        rebuilt[O._FIX_ROWS, O._FIX_COLS] = m.fix_coeffs
        assert np.array_equal(rebuilt, m.phi_fix)
        phi = tuple(m.phi_fix.ravel().tolist())
        # a change of summation order shows in a few percent of states only
        rng = np.random.default_rng(seed)
        for _ in range(50):
            mean, cov = random_state(rng)
            mean, cov = tuple(mean.ravel().tolist()), tuple(cov[UPPER].tolist())
            got = O._predict_fixation(mean, cov, m.fix_coeffs, O.Q_FIXATION)
            assert got == O.kalman_predict(mean, cov, phi, O.Q_FIXATION)

    def test_filter_pass_equals_generic_step(self, reference, monkeypatch):
        """The blink-injected reference recording reaches the 0-, 1- and
        2-measurement branches; the predictions stay bit-equal when the
        fixation step is the generic one."""
        _, rec = reference
        vel = compute_velocity(rec, DiffConfig(mode="causal"))
        assert (~rec.valid).any() and (rec.valid & ~vel.valid).any() and vel.valid.any()
        want = predict(rec)
        phi = tuple(O._RegimeMatrices(O.OpkfConfig(), PIS).phi_fix.ravel().tolist())
        calls = []

        def generic(mean, cov, coeffs, q):
            calls.append(coeffs)
            return O.kalman_predict(mean, cov, phi, q)

        monkeypatch.setattr(O, "_predict_fixation", generic)
        got = predict(rec)
        assert len(calls) > rec.n_samples // 2
        for pi in PIS:
            np.testing.assert_array_equal(got[pi].valid_mask, want[pi].valid_mask)
            np.testing.assert_array_equal(got[pi].predicted, want[pi].predicted)


class TestKalmanUpdate:
    @given(seed=st.integers(0, 2**32 - 1), m=st.sampled_from([1, 2]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_form(self, seed, m):
        rng = np.random.default_rng(seed)
        mean, cov = random_state(rng)
        z = rng.normal(size=(m, 2))
        r = np.diag(rng.uniform(0.01, 1.0, m))
        got = update(mean, cov, z, r)
        want = dense_update(mean, cov, z, r)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-9, atol=1e-12)
        assert np.array_equal(got[1], got[1].T)

    def test_singular_innovation_jitters_and_logs(self, caplog):
        cov = np.diag([0.0, 1.0, 1.0, 1.0])
        with caplog.at_level(logging.WARNING, logger="gazecast.opkf"):
            mean, new_cov = update(np.zeros((4, 2)), cov, np.ones((1, 2)), np.zeros((1, 1)))
        jitter = [r for r in caplog.records if r.name == "gazecast.opkf"]
        # S = 0 with a zero trace gets the 1e-9 floor
        assert len(jitter) == 1 and "1e-09 jitter" in jitter[0].getMessage()
        assert np.isfinite(mean).all() and np.isfinite(new_cov).all()

    def test_negative_innovation_raises(self):
        cov = np.diag([-1.0, 1.0, 1.0, 1.0])
        with pytest.raises(InstabilityError, match="positive definite"):
            update(np.zeros((4, 2)), cov, np.ones((1, 2)), np.zeros((1, 1)))

    def test_indefinite_2x2_raises(self):
        cov = np.eye(4)
        cov[0, 1] = cov[1, 0] = 2.0  # det of the position/velocity block is -3
        with pytest.raises(InstabilityError):
            update(np.zeros((4, 2)), cov, np.ones((2, 2)), np.zeros((2, 2)))


class TestNelderMead:
    def test_quadratic(self):
        target = np.array([1.5, -2.0, 0.5])
        res = O.nelder_mead(lambda v: float(np.sum((v - target) ** 2)), np.zeros(3))
        assert res.converged
        np.testing.assert_allclose(res.x, target, atol=1e-4)
        assert res.fun < 1e-8

    def test_rosenbrock(self):
        def rosen(v):
            return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

        res = O.nelder_mead(rosen, [-1.2, 1.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-3)
        assert res.n_evals <= 1000

    @pytest.mark.parametrize("budget", [4, 5, 6, 9, 15, 40])
    def test_budget_caps_objective_calls(self, budget):
        values = []

        def quadratic(v):
            values.append(float(np.sum((v - [1.5, -2.0, 0.5]) ** 2)))
            return values[-1]

        res = O.nelder_mead(quadratic, np.zeros(3), max_evals=budget)
        assert res.n_evals == len(values) == budget
        assert not res.converged
        assert res.fun == min(values)

    def test_budget_must_cover_first_simplex(self):
        with pytest.raises(ConfigError, match="max_evals"):
            O.nelder_mead(lambda v: 0.0, np.zeros(3), max_evals=3)


# the plant fields the filter never reads
UNREAD = ("tau_ag_act", "tau_ant_deact", "pulse_height_coeff", "pulse_width_coeff")


def filter_matrices(params):
    """Everything the filter takes from the plant, as one flat array."""
    m = O._RegimeMatrices(O.OpkfConfig(params=params), PIS)
    rows = [m.pi_rows[key] for key in sorted(m.pi_rows)]
    return np.concatenate([m.phi_fix.ravel(), m.phi_sac.ravel(), *rows])


def log_filter_quantities(p):
    """The fit's coordinates of the filter that ``p`` gives, J at base."""
    j = DEFAULT_PARAMS.J / p.J
    return np.log([p.k_total * j, p.b_total * j, p.tau_ag_deact, p.tau_ant_act])


class TestFitSearchSpace:
    @given(
        c=st.floats(0.5, 2.0),
        kse=st.floats(0.6, 3.0),
        dbag=st.floats(-100.0, 100.0),
        factors=st.lists(st.floats(0.5, 2.0), min_size=13, max_size=13),
    )
    @settings(max_examples=25, deadline=None)
    def test_filter_reads_only_what_the_fit_moves(self, c, kse, dbag, factors):
        base = DEFAULT_PARAMS
        want = filter_matrices(base)
        # the fit moves every field but J and the unread ones
        moved = O._params_from_log(base, log_filter_quantities(base) + 0.1)
        held = {f.name for f in fields(base) if getattr(moved, f.name) == getattr(base, f.name)}
        assert held == {"J", *UNREAD}
        for name in UNREAD:
            scaled = replace(base, **{name: getattr(base, name) * c})
            np.testing.assert_array_equal(filter_matrices(scaled), want)
        joint = {n: getattr(base, n) * c for n in ("Kp", "Kse", "Klt", "Bp", "Bag", "Bant", "J")}
        np.testing.assert_allclose(filter_matrices(replace(base, **joint)), want, rtol=1e-12, atol=0)
        # Kse and Klt reach the filter only through their series stiffness
        series = base.Kse * base.Klt / (base.Kse + base.Klt)
        a = base.Kse * kse
        ridge = replace(
            base, Kse=a, Klt=series * a / (a - series), Bag=base.Bag + dbag, Bant=base.Bant - dbag
        )
        np.testing.assert_allclose(filter_matrices(ridge), want, rtol=1e-12, atol=0)
        # so the fit reaches the filter of any plant
        p = PlantParams(**{f.name: getattr(base, f.name) * k for f, k in zip(fields(base), factors)})
        reached = O._params_from_log(base, log_filter_quantities(p))
        np.testing.assert_allclose(filter_matrices(reached), filter_matrices(p), rtol=1e-12, atol=0)


def held_out_small_saccade_median(rec, segs, params, pi=40):
    """Median small-saccade error over the targets after the calibration slice."""
    sacc = [s for s in segs if s.kind is EventKind.SACCADE]
    n_cal = max(1, int(O.CALIBRATION_FRACTION * len(sacc)))
    cal_end = sacc[n_cal - 1].end_idx + CEP_WINDOW_MS + pi + 1
    run = O.opkf_predict_multi(rec, O.OpkfConfig(params=params), (pi,))[pi]
    scored = score_run(run, rec, segs)
    later = scored.sample_idx >= cal_end
    held_out = ScoredRun(scored.sample_idx[later], scored.error_dva[later])
    return float(np.median(class_errors(held_out, segs)["small_saccade"]))


@pytest.fixture(scope="module")
def fit15(subject):
    rec, segs = subject
    return O.fit_subject_params(rec, segs, max_evals=15)


class TestFit:
    def test_fit_never_scores_worse_than_base(self, subject):
        rec, segs = subject
        fit = O.fit_subject_params(rec, segs, max_evals=15)
        assert fit.cal_error <= fit.base_error
        if fit.cal_error == fit.base_error:  # the fit did not beat the base
            assert fit.params == DEFAULT_PARAMS

    def test_base_parameters_scored_once(self, subject, monkeypatch):
        rec, segs = subject
        filter_pass, passes = O._filter_pass, []

        def counted(*args):
            passes.append(args)
            return filter_pass(*args)

        monkeypatch.setattr(O, "_filter_pass", counted)
        fit = O.fit_subject_params(rec, segs, max_evals=15)
        # one pass for base_error, one per evaluation after the first vertex
        assert len(passes) <= fit.n_evals

    @pytest.mark.parametrize("pi_ms", [0, 40.5])
    def test_bad_pi_rejected(self, subject, pi_ms):
        rec, segs = subject
        with pytest.raises(ConfigError, match="pi_ms"):
            O.fit_subject_params(rec, segs, max_evals=15, pi_ms=pi_ms)

    def test_base_error_pinned(self, fit15):
        # the value before the fit scored through score_run on hoisted inputs
        assert fit15.base_error == 2.0089713451434257

    def test_fitted_params_finite_and_valid(self, fit15):
        assert fit15.n_evals <= 15
        values = asdict(fit15.params)
        assert all(math.isfinite(v) for v in values.values())
        assert PlantParams(**values) == fit15.params

    def test_held_out_error_below_base(self, subject, fit15):
        rec, segs = subject
        fitted = held_out_small_saccade_median(rec, segs, fit15.params)
        base = held_out_small_saccade_median(rec, segs, DEFAULT_PARAMS)
        assert fitted < base

