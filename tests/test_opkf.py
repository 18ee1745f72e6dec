"""OPKF filter core, prediction pass, Nelder-Mead, and the per-subject fit."""

import logging
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hysteresis_loop
from gazecast import opkf as O
from gazecast.classify import EventKind, causal_saccade_mask, classify_events
from gazecast.errors import ConfigError, InstabilityError
from gazecast.metrics import CEP_WINDOW_MS, PredictionRun, ScoredRun, class_errors, class_masks, score_run
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

    @pytest.mark.parametrize(
        "valid_at, finite_rows", [((), []), ((0,), range(50)), ((49,), [49])], ids=["none", "first", "last"]
    )
    def test_edge_recordings(self, valid_at, finite_rows):
        # no valid sample, only the first, only the last: the first and the
        # last posterior rows of a recording, and none at all
        valid = np.zeros(50, dtype=bool)
        valid[list(valid_at)] = True
        x, y = np.linspace(1.0, 2.0, 50), np.linspace(-1.0, 0.0, 50)
        run = O.opkf_predict_multi(recording_from_arrays("e", x, y, valid=valid), O.OpkfConfig(), (20,))[20]
        finite = np.isfinite(run.predicted).all(axis=1)
        assert np.flatnonzero(finite).tolist() == list(finite_rows)
        assert np.isnan(run.predicted[~finite]).all()
        assert not run.valid_mask.any()
        # with no velocity measured, the position held at the start is predicted
        for i in valid_at:
            assert (run.predicted[finite] == [x[i], y[i]]).all()

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

    @pytest.mark.parametrize("pi_list", [(-5,), (40.5,), (0,), (20, 0), (), 40])
    def test_bad_pi_rejected(self, short_rec, pi_list):
        with pytest.raises(ConfigError, match="pi_ms"):
            O.opkf_predict_multi(short_rec, O.OpkfConfig(), pi_list)

    def test_pi_iterator_read_once(self, short_rec):
        from_iter = O.opkf_predict_multi(short_rec, O.OpkfConfig(), iter((20, 40)))
        from_tuple = O.opkf_predict_multi(short_rec, O.OpkfConfig(), (20, 40))
        assert list(from_iter) == list(from_tuple) == [20, 40]
        for pi, run in from_tuple.items():
            assert np.array_equal(from_iter[pi].predicted, run.predicted, equal_nan=True)
            assert np.array_equal(from_iter[pi].valid_mask, run.valid_mask)


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


# ---------------------------------------------------------------------------
# The reference steps: the filter loop's algebra as one function per step,
# on float tuples. A mean is the 8 floats of a (4, 2) posterior row in
# row-major order (x0, y0, x1, y1, x2, y2, x3, y3), one column per axis,
# sharing one covariance. A covariance is the 10 floats of its upper
# triangle in row-major order (p00, p01, p02, p03, p11, p12, p13, p22, p23,
# p33). Phi is 16 floats row-major, Q the 4 floats of its diagonal.


def kalman_predict(mean, cov, phi, q):
    """Time update: Phi mean and the upper triangle of Phi P Phi^T + Q."""
    a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = phi
    x0, y0, x1, y1, x2, y2, x3, y3 = mean
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    # T = Phi P
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
    q0, q1, q2, q3 = q
    mean = (
        a00 * x0 + a01 * x1 + a02 * x2 + a03 * x3,
        a00 * y0 + a01 * y1 + a02 * y2 + a03 * y3,
        a10 * x0 + a11 * x1 + a12 * x2 + a13 * x3,
        a10 * y0 + a11 * y1 + a12 * y2 + a13 * y3,
        a20 * x0 + a21 * x1 + a22 * x2 + a23 * x3,
        a20 * y0 + a21 * y1 + a22 * y2 + a23 * y3,
        a30 * x0 + a31 * x1 + a32 * x2 + a33 * x3,
        a30 * y0 + a31 * y1 + a32 * y2 + a33 * y3,
    )
    # upper triangle of T Phi^T + Q; the lower one mirrors it
    cov = (
        t00 * a00 + t01 * a01 + t02 * a02 + t03 * a03 + q0,
        t00 * a10 + t01 * a11 + t02 * a12 + t03 * a13,
        t00 * a20 + t01 * a21 + t02 * a22 + t03 * a23,
        t00 * a30 + t01 * a31 + t02 * a32 + t03 * a33,
        t10 * a10 + t11 * a11 + t12 * a12 + t13 * a13 + q1,
        t10 * a20 + t11 * a21 + t12 * a22 + t13 * a23,
        t10 * a30 + t11 * a31 + t12 * a32 + t13 * a33,
        t20 * a20 + t21 * a21 + t22 * a22 + t23 * a23 + q2,
        t20 * a30 + t21 * a31 + t22 * a32 + t23 * a33,
        t30 * a30 + t31 * a31 + t32 * a32 + t33 * a33 + q3,
    )
    return mean, cov


def predict_fixation(mean, cov, coeffs, q):
    """``kalman_predict`` for a Phi that is the identity except at [0,1],
    [2,0], [2,2], [3,0] and [3,3], whose values ``coeffs`` holds."""
    a01, a20, a22, a30, a33 = coeffs
    x0, y0, x1, y1, x2, y2, x3, y3 = mean
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    # the rows of T = Phi P that T Phi^T reads; row 1 of T is row 1 of P
    t00 = p00 + a01 * p01
    t01 = p01 + a01 * p11
    t02 = p02 + a01 * p12
    t03 = p03 + a01 * p13
    t20 = a20 * p00 + a22 * p02
    t22 = a20 * p02 + a22 * p22
    t23 = a20 * p03 + a22 * p23
    t30 = a30 * p00 + a33 * p03
    t33 = a30 * p03 + a33 * p33
    q0, q1, q2, q3 = q
    mean = (
        x0 + a01 * x1,
        y0 + a01 * y1,
        x1,
        y1,
        a20 * x0 + a22 * x2,
        a20 * y0 + a22 * y2,
        a30 * x0 + a33 * x3,
        a30 * y0 + a33 * y3,
    )
    cov = (
        t00 + t01 * a01 + q0,
        t01,
        t00 * a20 + t02 * a22,
        t00 * a30 + t03 * a33,
        p11 + q1,
        p01 * a20 + p12 * a22,
        p01 * a30 + p13 * a33,
        t20 * a20 + t22 * a22 + q2,
        t20 * a30 + t23 * a33,
        t30 * a30 + t33 * a33 + q3,
    )
    return mean, cov


def pd_inverse(s):
    """Closed-form inverse of a symmetric 1x1 ``(a,)`` or 2x2 ``(a, b, d)``
    in the same packing, or None unless it is positive definite."""
    if len(s) == 1:
        (a,) = s
        return (1.0 / a,) if a > 0 else None
    a, b, d = s
    det = a * d - b * b
    if a > 0 and det > 0:
        return (d / det, -b / det, a / det)
    return None


def kalman_update(mean, cov, z, r):
    """Standard-form update measuring the first ``len(r)`` state rows.

    ``z`` is (x, y) for position alone or (x, y, vx, vy) for position and
    velocity; ``r`` holds the matching diagonal of R. S is the leading 1x1
    or 2x2 block of P plus R, the gain K is the first columns of P times
    S^-1, and the posterior covariance is the upper triangle of (I - KH) P.
    Position alone zeroes the velocity entries of S^-1 and the velocity
    innovation.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = mean
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    if len(r) == 1:
        (r0,) = r
        zx, zy = z
        s = (p00 + r0,)
        (i00,) = pd_inverse(s) or O._jittered_pd_inverse(s)
        i01 = i11 = evx = evy = 0.0
    else:
        r0, r1 = r
        zx, zy, zvx, zvy = z
        s = (p00 + r0, p01, p11 + r1)
        i00, i01, i11 = pd_inverse(s) or O._jittered_pd_inverse(s)
        evx, evy = zvx - x1, zvy - y1
    # K = P[:, :2] S^-1, one row (k_i0, k_i1) per state
    k00, k01 = p00 * i00 + p01 * i01, p00 * i01 + p01 * i11
    k10, k11 = p01 * i00 + p11 * i01, p01 * i01 + p11 * i11
    k20, k21 = p02 * i00 + p12 * i01, p02 * i01 + p12 * i11
    k30, k31 = p03 * i00 + p13 * i01, p03 * i01 + p13 * i11
    ex, ey = zx - x0, zy - y0
    mean = (
        x0 + k00 * ex + k01 * evx,
        y0 + k00 * ey + k01 * evy,
        x1 + k10 * ex + k11 * evx,
        y1 + k10 * ey + k11 * evy,
        x2 + k20 * ex + k21 * evx,
        y2 + k20 * ey + k21 * evy,
        x3 + k30 * ex + k31 * evx,
        y3 + k30 * ey + k31 * evy,
    )
    cov = (
        p00 - k00 * p00 - k01 * p01,
        p01 - k00 * p01 - k01 * p11,
        p02 - k00 * p02 - k01 * p12,
        p03 - k00 * p03 - k01 * p13,
        p11 - k10 * p01 - k11 * p11,
        p12 - k10 * p02 - k11 * p12,
        p13 - k10 * p03 - k11 * p13,
        p22 - k20 * p02 - k21 * p12,
        p23 - k20 * p03 - k21 * p13,
        p33 - k30 * p03 - k31 * p13,
    )
    return mean, cov


def position_only_update(mean, cov, z, r):
    """The one-row standard-form update for a position-only sample: row i of
    P minus k_i times row 0. Packed in and out."""
    x0, y0, x1, y1, x2, y2, x3, y3 = mean
    p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = cov
    (r0,) = r
    zx, zy = z
    s = (p00 + r0,)
    (i00,) = pd_inverse(s) or O._jittered_pd_inverse(s)
    k0, k1, k2, k3 = p00 * i00, p01 * i00, p02 * i00, p03 * i00
    ex, ey = zx - x0, zy - y0
    mean = (
        x0 + k0 * ex,
        y0 + k0 * ey,
        x1 + k1 * ex,
        y1 + k1 * ey,
        x2 + k2 * ex,
        y2 + k2 * ey,
        x3 + k3 * ex,
        y3 + k3 * ey,
    )
    cov = (
        p00 - k0 * p00,
        p01 - k0 * p01,
        p02 - k0 * p02,
        p03 - k0 * p03,
        p11 - k1 * p01,
        p12 - k1 * p02,
        p13 - k1 * p03,
        p22 - k2 * p02,
        p23 - k2 * p03,
        p33 - k3 * p03,
    )
    return mean, cov


UPPER = np.triu_indices(4)


def unpack_cov(packed):
    cov = np.zeros((4, 4))
    cov[UPPER] = packed
    cov.T[UPPER] = packed
    return cov


def update(mean, cov, z, r):
    """``kalman_update`` on dense arrays: (4, 2) mean, (4, 4) cov, (m, 2) z,
    diagonal (m, m) r in, dense mean and covariance out."""
    new_mean, new_cov = kalman_update(
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
        got_mean, got_cov = kalman_predict(
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
            got = predict_fixation(mean, cov, m.fix_coeffs, O.Q_FIXATION)
            assert got == kalman_predict(mean, cov, phi, O.Q_FIXATION)

    def test_filter_pass_equals_generic_step(self, reference):
        """The blink-injected reference recording reaches the 0-, 1- and
        2-measurement branches; the predictions stay bit-equal whether the
        fixation step is the generic one or the five-coefficient one."""
        _, rec = reference
        vel = compute_velocity(rec, DiffConfig(mode="causal"))
        assert (~rec.valid).any() and (rec.valid & ~vel.valid).any() and vel.valid.any()
        sac = causal_saccade_mask(rec, vel)
        assert (~sac[1:]).sum() > rec.n_samples // 2
        got = predict(rec)
        assert_runs_equal(got, reference_loop(rec, O.OpkfConfig(), PIS))
        assert_runs_equal(got, reference_loop(rec, O.OpkfConfig(), PIS, fixation_coeffs=True))


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


class TestPositionOnlyUpdate:
    """The position-only update runs the two-row algebra with a zero
    velocity gain; its results equal the one-row update's (``==`` holds
    for zeros of either sign)."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_one_row_update(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            mean, cov = random_state(rng)
            mean, cov = tuple(mean.ravel().tolist()), tuple(cov[UPPER].tolist())
            z, r = tuple(rng.normal(size=2).tolist()), (float(rng.uniform(0.01, 1.0)),)
            assert kalman_update(mean, cov, z, r) == position_only_update(mean, cov, z, r)

    def test_start_covariance_equals_one_row_update(self, caplog):
        # the start covariance's exact zeros, some of which one fixation
        # step keeps, are where the sign of a zero could differ; a zero S
        # takes the jitter path
        mean, cov = O._initial_state(1.5, -2.0)
        coeffs = O._RegimeMatrices(O.OpkfConfig(), PIS).fix_coeffs
        stepped = predict_fixation(mean, cov, coeffs, O.Q_FIXATION)
        cases = [
            (mean, cov, O.MEASUREMENT_NOISE[:1]),
            (*stepped, O.MEASUREMENT_NOISE[:1]),
            (mean, (0.0,) + cov[1:], (0.0,)),
        ]
        z = (1.7, -2.2)
        with caplog.at_level(logging.WARNING, logger="gazecast.opkf"):
            for m, c, r in cases:
                assert kalman_update(m, c, z, r) == position_only_update(m, c, z, r)
        assert len([rec for rec in caplog.records if rec.name == "gazecast.opkf"]) == 2

    def test_filter_pass_equals_one_row_update(self, reference):
        """The blink-injected reference recording updates position alone
        after each blink; its predictions are the same whether those updates
        run the one-row form or the two-row form with a zero velocity gain."""
        _, rec = reference
        calls = []

        def merged(mean, cov, z, r):
            calls.append(r)
            return kalman_update(mean, cov, z, r)

        got = predict(rec)
        assert_runs_equal(got, reference_loop(rec, O.OpkfConfig(), PIS))
        assert_runs_equal(got, reference_loop(rec, O.OpkfConfig(), PIS, position_update=merged))
        assert calls


def covariance_paths(rec):
    """Posterior covariances of the reference steps' packed recursion beside
    those of a dense Joseph recursion, both (n, 4, 4) from the first valid sample on,
    and the count of samples that measured nothing, position, and both."""
    vel = compute_velocity(rec, DiffConfig(mode="causal"))
    sac = causal_saccade_mask(rec, vel)
    mats = O._RegimeMatrices(O.OpkfConfig(), PIS)
    start = int(np.flatnonzero(rec.valid)[0])
    mean, cov = O._initial_state(float(rec.x[start]), float(rec.y[start]))
    dense = unpack_cov(cov)
    packed_path, joseph_path, branches = [], [], [0, 0, 0]
    for i in range(start + 1, rec.n_samples):
        if sac[i]:
            mean, cov = kalman_predict(mean, cov, mats.phi_sac_flat, O.Q_SACCADE)
            phi, q = mats.phi_sac, O.Q_SACCADE
        else:
            mean, cov = predict_fixation(mean, cov, mats.fix_coeffs, O.Q_FIXATION)
            phi, q = mats.phi_fix, O.Q_FIXATION
        dense = phi @ dense @ phi.T + np.diag(q)
        dense = 0.5 * (dense + dense.T)
        m = (1 + bool(vel.valid[i])) if rec.valid[i] else 0
        branches[m] += 1
        if m:
            z = (rec.x[i], rec.y[i], vel.vx[i], vel.vy[i])[: 2 * m]
            r = O.MEASUREMENT_NOISE[:m]
            mean, cov = kalman_update(mean, cov, tuple(map(float, z)), r)
            _, dense = dense_update(np.zeros((4, 2)), dense, np.zeros((m, 2)), np.diag(r))
        packed_path.append(unpack_cov(cov))
        joseph_path.append(dense)
    return np.array(packed_path), np.array(joseph_path), branches


class TestCovarianceNumerics:
    """What the Joseph form guaranteed by construction, checked along whole
    recordings for the standard form (I - KH) P: the covariance stays
    positive definite and tracks the Joseph recursion to rounding."""

    @pytest.mark.parametrize(("fixture", "item"), [("reference", 1), ("subject", 0)])
    def test_tracks_joseph_and_stays_positive_definite(self, request, fixture, item):
        rec = request.getfixturevalue(fixture)[item]
        packed, joseph, branches = covariance_paths(rec)
        if fixture == "reference":
            assert min(branches) > 0  # blinks reach the 0- and 1-measurement branches
        # a stacked Cholesky raises LinAlgError unless every factor exists
        np.linalg.cholesky(packed)
        sd = np.sqrt(np.diagonal(joseph, axis1=1, axis2=2))
        scaled = np.abs(packed - joseph) / (sd[:, :, None] * sd[:, None, :])
        assert scaled.max() <= 1e-12


def reference_loop(rec, cfg, pis, fixation_coeffs=False, position_update=position_only_update):
    """``opkf_predict_multi`` from the reference steps: ``kalman_predict`` on
    either regime's full Phi, ``kalman_update`` for position and velocity
    and ``position_only_update`` for position alone. ``fixation_coeffs``
    runs fixation samples through ``predict_fixation`` instead, and
    ``position_update`` replaces the position-only step."""
    vel = compute_velocity(rec, DiffConfig(mode="causal"))
    sac = causal_saccade_mask(rec, vel)
    mats = O._RegimeMatrices(cfg, pis)
    steps = {
        False: (tuple(mats.phi_fix.ravel().tolist()), O.Q_FIXATION),
        True: (mats.phi_sac_flat, O.Q_SACCADE),
    }
    post = np.full((rec.n_samples, 4, 2), np.nan)
    start = int(np.flatnonzero(rec.valid)[0])
    mean, cov = O._initial_state(float(rec.x[start]), float(rec.y[start]))
    post[start] = np.reshape(mean, (4, 2))
    for i in range(start + 1, rec.n_samples):
        if fixation_coeffs and not sac[i]:
            mean, cov = predict_fixation(mean, cov, mats.fix_coeffs, O.Q_FIXATION)
        else:
            mean, cov = kalman_predict(mean, cov, *steps[bool(sac[i])])
        if rec.valid[i]:
            z = (float(rec.x[i]), float(rec.y[i]))
            if vel.valid[i]:
                z += (float(vel.vx[i]), float(vel.vy[i]))
                mean, cov = kalman_update(mean, cov, z, O.MEASUREMENT_NOISE)
            else:
                mean, cov = position_update(mean, cov, z, O.MEASUREMENT_NOISE[:1])
        post[i] = np.reshape(mean, (4, 2))
    runs = {}
    for pi in pis:
        rows = np.where(sac[:, None], mats.pi_rows[(True, pi)], mats.pi_rows[(False, pi)])
        predicted = np.einsum("nk,nkj->nj", rows, post)
        runs[pi] = PredictionRun.from_issued(rec, pi, predicted, rec.valid)
    return runs


def assert_runs_equal(got, want):
    assert list(got) == list(want)
    for pi, run in want.items():
        assert np.array_equal(got[pi].valid_mask, run.valid_mask)
        assert np.array_equal(got[pi].predicted, run.predicted, equal_nan=True)


class TestFilterLoop:
    """The filter loop is bit-equal to the reference loop of the generic
    time update and the one-row position update."""

    @pytest.mark.parametrize(("fixture", "item"), [("reference", 1), ("subject", 0)])
    def test_equals_reference_loop(self, request, fixture, item):
        rec = request.getfixturevalue(fixture)[item]
        if fixture == "reference":
            # the blinks reach the 0-, 1- and 2-measurement branches
            vel = compute_velocity(rec, DiffConfig(mode="causal"))
            assert (~rec.valid).any() and (rec.valid & ~vel.valid).any() and vel.valid.any()
        assert_runs_equal(predict(rec), reference_loop(rec, O.OpkfConfig(), PIS))

    def test_jitter_branches_equal_reference_loop(self, reference, monkeypatch, caplog):
        # with no measurement noise, no fixation process noise and a zero
        # start covariance, S is singular until the first saccade
        _, rec = reference
        monkeypatch.setattr(O, "MEASUREMENT_NOISE", (0.0, 0.0))
        monkeypatch.setattr(O, "Q_FIXATION", (0.0,) * 4)
        monkeypatch.setattr(
            O, "_initial_state", lambda x, y: ((x, y, 0.0, 0.0, x, y, -x, -y), (0.0,) * 10)
        )
        jittered, sizes = O._jittered_pd_inverse, []

        def counted(s):
            sizes.append(len(s))
            return jittered(s)

        monkeypatch.setattr(O, "_jittered_pd_inverse", counted)
        with caplog.at_level(logging.WARNING, logger="gazecast.opkf"):
            got = predict(rec)
        warnings = [r for r in caplog.records if r.name == "gazecast.opkf"]
        assert set(sizes) == {1, 3} and len(warnings) == len(sizes)
        assert_runs_equal(got, reference_loop(rec, O.OpkfConfig(), PIS))

    def test_no_python_call_per_sample(self, reference):
        _, rec = reference
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            calls += event == "call"

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            predict(rec)
        finally:
            sys.setprofile(previous)
        assert calls < rec.n_samples // 4


class TestNelderMead:
    def test_quadratic(self):
        target = np.array([1.5, -2.0, 0.5])
        res = O.nelder_mead(lambda v: float(np.sum((v - target) ** 2)), np.zeros(3), max_evals=1500)
        assert res.converged
        np.testing.assert_allclose(res.x, target, atol=1e-4)
        assert res.fun < 1e-8

    def test_rosenbrock(self):
        def rosen(v):
            return float(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

        res = O.nelder_mead(rosen, [-1.2, 1.0], max_evals=1000)
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

    @pytest.mark.parametrize("max_evals", [3, 10.5])
    def test_budget_must_cover_first_simplex(self, max_evals):
        # a fractional budget would never equal the evaluation count
        with pytest.raises(ConfigError, match="max_evals"):
            O.nelder_mead(lambda v: 0.0, np.zeros(3), max_evals=max_evals)


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

    def test_bad_max_evals_rejected_before_filter_pass(self, subject, monkeypatch):
        rec, segs = subject
        filter_pass, passes = O._filter_pass, []

        def counted(*args):
            passes.append(args)
            return filter_pass(*args)

        monkeypatch.setattr(O, "_filter_pass", counted)
        with pytest.raises(ConfigError, match="max_evals"):
            O.fit_subject_params(rec, segs, max_evals=10.5)
        assert passes == []

    @pytest.mark.parametrize("pi_ms", [0, 40.5])
    def test_bad_pi_rejected(self, subject, pi_ms):
        rec, segs = subject
        with pytest.raises(ConfigError, match="pi_ms"):
            O.fit_subject_params(rec, segs, max_evals=15, pi_ms=pi_ms)

    def test_targets_are_the_prefix_saccade_and_cep_classes(self, subject):
        # a blink inside a calibration saccade's post-saccadic window ends
        # that window for the fit as it does for scoring
        rec, segs = subject
        end = [s for s in segs if s.kind is EventKind.SACCADE][1].end_idx
        valid = rec.valid.copy()
        valid[end + 40 : end + 60] = False
        rec = recording_from_arrays("blink", rec.x, rec.y, valid=valid)
        segs = classify_events(rec, compute_velocity(rec))
        sacc = [s for s in segs if s.kind is EventKind.SACCADE]
        n_cal = int(O.CALIBRATION_FRACTION * len(sacc))
        assert len(sacc) >= 10 and sacc[1].end_idx == end and n_cal > 1
        cal_end = sacc[n_cal - 1].end_idx + CEP_WINDOW_MS + 40 + 1
        prefix = recording_from_arrays("blink", rec.x[:cal_end], rec.y[:cal_end], valid=valid[:cal_end])
        prefix_segs = [s for s in segs if s.start_idx < cal_end]
        prefix_segs[-1] = replace(prefix_segs[-1], end_idx=cal_end - 1)
        masks = class_masks(prefix_segs)
        targets = masks["small_saccade"] | masks["large_saccade"] | masks["cep"]
        scored = score_run(O.opkf_predict_multi(prefix, O.OpkfConfig(), (40,))[40], prefix, prefix_segs)
        want = float(np.mean(scored.error_dva[targets[scored.sample_idx]]))
        assert O.fit_subject_params(rec, segs, max_evals=5).base_error == want

    def test_base_error_pinned(self, fit15):
        # exact, so a change in the filter's rounding shows here
        assert fit15.base_error == 2.0089713451434252

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

