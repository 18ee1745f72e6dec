import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast.errors import ConfigError, DataError, EmptyInputError
from gazecast.signal import (
    CAUSAL_TAPS,
    CENTERED_TAPS,
    SG_POLYORDER,
    SG_WINDOW,
    DiffConfig,
    GazeRecording,
    compute_velocity,
    recording_from_arrays,
)


class TestRecordingInvariants:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            recording_from_arrays("s", [], [])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_valid_sample_rejected(self, bad):
        x = np.zeros(50)
        x[17] = bad
        with pytest.raises(DataError, match="sample 17"):
            recording_from_arrays("s", x, np.zeros(50), valid=np.ones(50, dtype=bool))
        # the same value on a sample flagged invalid is a legal gap
        valid = np.ones(50, dtype=bool)
        valid[17] = False
        rec = recording_from_arrays("s", x, np.zeros(50), valid=valid)
        assert rec.valid.sum() == 49
        assert rec.duration_ms == rec.n_samples == 50

    @pytest.mark.parametrize(
        "valid", [np.ones(10, dtype=int), np.ones(10), [True] * 10, np.ones((10, 10), dtype=bool)]
    )
    def test_non_bool_validity_rejected(self, valid):
        # an int array would index samples instead of masking them
        with pytest.raises(DataError, match="valid must be a bool array"):
            GazeRecording("s", np.zeros(10), np.zeros(10), valid)

    @pytest.mark.parametrize(
        "x",
        [[0.0] * 10, np.zeros((10, 1)), np.zeros((2, 10)), np.zeros(10, dtype=int), np.zeros(10, dtype=bool)],
    )
    def test_positions_must_be_1d_float_arrays(self, x):
        # unchecked, a list reaches score_run and fails there with a bare TypeError
        valid = np.ones(10, dtype=bool)
        with pytest.raises(DataError, match="x must be a float array with one axis"):
            GazeRecording("s", x, np.zeros(10), valid)
        with pytest.raises(DataError, match="y must be a float array with one axis"):
            GazeRecording("s", np.zeros(10), x, valid)

    @pytest.mark.parametrize(
        "targets",
        [
            np.array([0.0, 1.0, 2.0]),  # 1-D: an IndexError in data_quality
            np.array([[0.0, 1.0], [500.0, 2.0]]),  # no y column: a ValueError there
            np.array([[0.0, 1.0, 2.0], [500.0, np.nan, 2.0]]),
            np.array([[500.0, 1.0, 2.0], [0.0, 3.0, 4.0]]),  # onsets out of order
            [[0.0, 1.0, 2.0]],
        ],
    )
    def test_malformed_targets_rejected(self, targets):
        with pytest.raises(DataError, match="targets"):
            recording_from_arrays("s", np.zeros(10), np.zeros(10), targets=targets)

    def test_targets_accepted(self):
        tied = np.array([[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [7.0, 5.0, 6.0]])
        assert recording_from_arrays("s", np.zeros(10), np.zeros(10), targets=tied).targets is tied
        empty = np.empty((0, 3))
        assert recording_from_arrays("s", np.zeros(10), np.zeros(10), targets=empty).targets is empty


class TestVelocity:
    def test_constant_position_zero_velocity(self):
        rec = recording_from_arrays("s", np.full(30, 2.5), np.full(30, -1.0))
        vel = compute_velocity(rec)
        assert np.allclose(vel.vx[vel.valid], 0.0, atol=1e-9)
        assert np.allclose(vel.v_radial[vel.valid], 0.0, atol=1e-9)

    def test_linear_ramp_exact(self):
        # 0.01 dva per 1 ms sample = 10 dva/s
        t = np.arange(60)
        rec = recording_from_arrays("s", 0.01 * t, np.zeros(60))
        vel = compute_velocity(rec)
        assert np.allclose(vel.vx[vel.valid], 10.0, atol=1e-9)
        assert np.allclose(vel.vy[vel.valid], 0.0, atol=1e-9)

    def test_quadratic_matches_analytic_derivative(self):
        # x(t) = a t^2 is inside the order-2 model, so SG is exact at the center
        t_s = np.arange(200) / 1000.0
        a = 3.7
        rec = recording_from_arrays("s", a * t_s**2, np.zeros(200))
        vel = compute_velocity(rec)
        expect = 2 * a * t_s
        m = vel.valid
        assert np.allclose(vel.vx[m], expect[m], atol=1e-9)

    def test_causal_mode_exact_on_quadratic_too(self):
        t_s = np.arange(200) / 1000.0
        a = -1.9
        rec = recording_from_arrays("s", np.zeros(200), a * t_s**2)
        vel = compute_velocity(rec, DiffConfig(mode="causal"))
        expect = 2 * a * t_s
        m = vel.valid
        assert np.allclose(vel.vy[m], expect[m], atol=1e-8)
        # first valid estimate needs a full trailing window
        assert not vel.valid[:6].any() and vel.valid[6]

    def test_low_frequency_sinusoid_near_exact(self):
        # SG window 7 / order 2 has relative truncation error ~1.167*(2*pi*f/fs)^2
        # at the window center: < 1e-6 only well below 1 Hz, ~2.9e-2 at 25 Hz.
        fs = 1000.0
        t = np.arange(4000) / fs
        for f, tol in [(0.1, 1e-6), (5.0, 4e-3), (25.0, 3.5e-2)]:
            rec = recording_from_arrays("s", np.sin(2 * np.pi * f * t), np.zeros(t.size))
            vel = compute_velocity(rec)
            expect = 2 * np.pi * f * np.cos(2 * np.pi * f * t)
            m = vel.valid
            rel = np.max(np.abs(vel.vx[m] - expect[m])) / (2 * np.pi * f)
            assert rel < tol, f"f={f}: rel err {rel:.2e} >= {tol}"

    def test_invalid_sample_poisons_overlapping_windows(self):
        valid = np.ones(40, dtype=bool)
        valid[20] = False
        rec = recording_from_arrays("s", np.zeros(40), np.zeros(40), valid)
        vel = compute_velocity(rec)
        # centered window 7: samples 17..23 all overlap index 20
        assert not vel.valid[17:24].any()
        assert vel.valid[16] and vel.valid[24]
        assert np.isnan(vel.vx[20])

    def test_edges_invalid(self):
        rec = recording_from_arrays("s", np.zeros(20), np.zeros(20))
        vel = compute_velocity(rec)
        assert not vel.valid[:3].any() and not vel.valid[-3:].any()
        assert vel.valid[3:-3].all()

    def test_radial_speed_rotation_invariant(self):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.normal(size=300)) * 1e-3
        y = np.cumsum(rng.normal(size=300)) * 1e-3
        rec = recording_from_arrays("s", x, y)
        v1 = compute_velocity(rec)
        ang = 0.73
        xr = x * np.cos(ang) - y * np.sin(ang)
        yr = x * np.sin(ang) + y * np.cos(ang)
        v2 = compute_velocity(recording_from_arrays("s", xr, yr))
        m = v1.valid
        assert np.allclose(v1.v_radial[m], v2.v_radial[m], atol=1e-9)

    def test_window_too_large(self):
        rec = recording_from_arrays("s", np.zeros(5), np.zeros(5))
        with pytest.raises(ConfigError):
            compute_velocity(rec)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            DiffConfig(mode="sideways")

    @pytest.mark.parametrize("mode, pos", [("centered", 3), ("causal", 6)])
    def test_taps_equal_savgol_coeffs(self, mode, pos):
        from scipy.signal import savgol_coeffs

        want = savgol_coeffs(SG_WINDOW, SG_POLYORDER, deriv=1, pos=pos, use="dot")
        assert np.array_equal(DiffConfig(mode=mode).derivative_coeffs(), want)

    @pytest.mark.parametrize("taps", [CENTERED_TAPS, CAUSAL_TAPS])
    def test_taps_read_only(self, taps):
        with pytest.raises(ValueError):
            taps[0] = 1.0

    def test_centered_noise_gain(self):
        # window 7 order 2 centered derivative taps are k/28, so the white-noise
        # gain is 1000*sqrt(28)/28
        g = DiffConfig().noise_gain()
        assert g == pytest.approx(1000.0 / math.sqrt(28.0), rel=1e-12)

    @given(
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=8, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_gap_isolation_property(self, start, width):
        # velocities computed from samples entirely left of a gap are
        # unaffected by whatever lies right of it
        n = 80
        stop = min(start + max(1, width // 4), n)
        rng = np.random.default_rng(start * 31 + width)
        x = np.cumsum(rng.normal(size=n)) * 1e-2
        valid = np.ones(n, dtype=bool)
        valid[start:stop] = False
        rec_a = recording_from_arrays("s", x, np.zeros(n), valid)
        x2 = x.copy()
        x2[stop:] += 100.0
        rec_b = recording_from_arrays("s", x2, np.zeros(n), valid)
        va = compute_velocity(rec_a)
        vb = compute_velocity(rec_b)
        cut = max(start - 3, 0)
        np.testing.assert_array_equal(va.valid[:cut], vb.valid[:cut])
        m = va.valid[:cut]
        assert np.array_equal(va.vx[:cut][m], vb.vx[:cut][m])
