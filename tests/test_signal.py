import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazecast.classify import EventKind, EventSegment
from gazecast.errors import ConfigError, DataError, EmptyInputError, ParseError, RateError
from gazecast.features import data_quality
from gazecast.signal import (
    CAUSAL_TAPS,
    CENTERED_TAPS,
    SG_POLYORDER,
    SG_WINDOW,
    ColumnMapping,
    DiffConfig,
    GazeRecording,
    compute_velocity,
    ingest_csv,
    recording_from_arrays,
)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestIngest:
    def test_three_row_passthrough(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva\n0,1.5,-2.0\n1,1.6,-2.1\n2,1.7,-2.2\n",
        )
        rec = ingest_csv(p, ColumnMapping())
        assert rec.n_samples == 3
        assert rec.x[0] == 1.5 and rec.y[2] == -2.2
        assert rec.valid.all()

    def test_nan_field_becomes_invalid(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva\n0,1.0,1.0\n1,NaN,1.0\n2,1.0,1.0\n",
        )
        rec = ingest_csv(p, ColumnMapping())
        assert list(rec.valid) == [True, False, True]
        assert math.isnan(rec.x[1])

    def test_empty_field_becomes_invalid(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva\n0,1.0,1.0\n1,,1.0\n2,1.0,1.0\n",
        )
        rec = ingest_csv(p, ColumnMapping())
        assert list(rec.valid) == [True, False, True]

    def test_gap_in_timestamps_rejected(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva\n0,1.0,1.0\n1,1.0,1.0\n3,1.0,1.0\n4,1.0,1.0\n",
        )
        with pytest.raises(RateError, match=r"step of 2 ms after t=1 \(row 4\)"):
            ingest_csv(p, ColumnMapping())

    def test_offset_timestamps_index_from_zero(self, tmp_path):
        # target (5, 0) from the first row, (-5, 0) from row 300; gaze sits
        # 0.3 dva beside each target
        n = 600
        tx = np.where(np.arange(n) < 300, 5.0, -5.0)
        gx = tx + 0.3
        recs = []
        for t0 in (0, 1000):
            rows = [f"{t0 + i},{g!r},0.0,{t!r},0.0" for i, (g, t) in enumerate(zip(gx.tolist(), tx.tolist()))]
            p = write_csv(tmp_path / f"r{t0}.csv", "t_ms,x_dva,y_dva,tx,ty\n" + "\n".join(rows) + "\n")
            recs.append(ingest_csv(p, ColumnMapping(target_x="tx", target_y="ty")))
        late = recs[1]
        assert late.n_samples == n and late.duration_ms == n
        assert np.array_equal(late.x, gx)
        assert late.targets.tolist() == [[0.0, 5.0, 0.0], [300.0, -5.0, 0.0]]
        # the fixations starting 100 and 120 ms after a target step are
        # target-locked; those starting 0 and 10 ms after one are not
        fix = EventKind.FIXATION
        segs = [
            EventSegment(fix, 0, 99),
            EventSegment(fix, 100, 299),
            EventSegment(EventKind.SACCADE, 300, 309),
            EventSegment(fix, 310, 419),
            EventSegment(fix, 420, n - 1),
        ]
        assert data_quality(late, segs) == data_quality(recs[0], segs)
        assert data_quality(late, segs)[0] == pytest.approx(0.3)

    def test_no_data_rows(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "t_ms,x_dva,y_dva\n")
        with pytest.raises(EmptyInputError):
            ingest_csv(p, ColumnMapping())

    def test_malformed_row_reports_line(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva\n0,1.0,1.0\noops,1.0,1.0\n",
        )
        with pytest.raises(ParseError) as exc:
            ingest_csv(p, ColumnMapping())
        assert exc.value.row == 3

    def test_short_row_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "t_ms,x_dva,y_dva\n0,1.0,1.0\n1,1.0\n")
        with pytest.raises(ParseError, match="fewer fields") as exc:
            ingest_csv(p, ColumnMapping())
        assert exc.value.row == 3

    def test_long_row_reports_line(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "t_ms,x_dva,y_dva\n0,1.0,1.0\n1,2.0,2.0,99\n")
        with pytest.raises(ParseError, match="more fields") as exc:
            ingest_csv(p, ColumnMapping())
        assert exc.value.row == 3

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "t_ms,x_dva\n0,1.0\n")
        with pytest.raises(ParseError):
            ingest_csv(p, ColumnMapping())

    def test_validity_column(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t,gx,gy,ok\n0,1.0,1.0,1\n1,1.0,1.0,0\n",
        )
        rec = ingest_csv(p, ColumnMapping(timestamp="t", x="gx", y="gy", validity="ok"))
        assert list(rec.valid) == [True, False]

    def test_target_columns_collapse_to_steps(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva,tx,ty\n"
            "0,0.0,0.0,5.0,0.0\n"
            "1,0.1,0.0,5.0,0.0\n"
            "2,0.2,0.0,-5.0,0.0\n"
            "3,0.3,0.0,-5.0,0.0\n",
        )
        rec = ingest_csv(p, ColumnMapping(target_x="tx", target_y="ty"))
        assert rec.targets.tolist() == [[0.0, 5.0, 0.0], [2.0, -5.0, 0.0]]

    def test_empty_target_cell_logs_no_step(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva,tx,ty\n0,0.0,0.0,,\n1,0.1,0.0,5.0,0.0\n",
        )
        rec = ingest_csv(p, ColumnMapping(target_x="tx", target_y="ty"))
        assert rec.targets.tolist() == [[1.0, 5.0, 0.0]]

    def test_malformed_target_reports_line(self, tmp_path):
        p = write_csv(
            tmp_path / "r.csv",
            "t_ms,x_dva,y_dva,tx,ty\n0,0.0,0.0,5.0,0.0\n1,0.1,0.0,abc,0.0\n",
        )
        with pytest.raises(ParseError, match="target") as exc:
            ingest_csv(p, ColumnMapping(target_x="tx", target_y="ty"))
        assert exc.value.row == 3

    @pytest.mark.parametrize("named", [{"target_x": "tx"}, {"target_y": "ty"}])
    def test_one_target_column_rejected(self, named):
        with pytest.raises(ConfigError, match="together"):
            ColumnMapping(**named)

    @pytest.mark.parametrize(
        "mapping, missing",
        [(ColumnMapping(target_x="tx", target_y="ty"), "ty"), (ColumnMapping(validity="ok"), "ok")],
    )
    def test_missing_optional_column(self, tmp_path, mapping, missing):
        p = write_csv(tmp_path / "r.csv", "t_ms,x_dva,y_dva,tx\n0,0.0,0.0,5.0\n")
        with pytest.raises(ParseError, match=f"missing column '{missing}'") as exc:
            ingest_csv(p, mapping)
        assert exc.value.row == 1

    def test_roundtrip(self, tmp_path):
        # floats written with repr read back bit-exactly; an invalid sample
        # is written with empty gaze fields
        rng = np.random.default_rng(7)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        valid = np.ones(50, dtype=bool)
        valid[10:13] = False
        rec = recording_from_arrays("s1", x, y, valid)
        rows = [
            f"{t},{xi!r},{yi!r}" if ok else f"{t},,"
            for t, xi, yi, ok in zip(range(rec.n_samples), rec.x.tolist(), rec.y.tolist(), rec.valid)
        ]
        out = write_csv(tmp_path / "out.csv", "t_ms,x_dva,y_dva\n" + "\n".join(rows) + "\n")
        back = ingest_csv(out, ColumnMapping(), subject_id="s1")
        assert np.array_equal(back.valid, rec.valid)
        m = rec.valid
        assert np.array_equal(back.x[m], rec.x[m])
        assert np.array_equal(back.y[m], rec.y[m])


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
        assert recording_from_arrays("s", x, np.zeros(50), valid=valid).valid.sum() == 49

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
