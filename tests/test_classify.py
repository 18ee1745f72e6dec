import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import hysteresis_loop
from gazecast.classify import (
    ClassifierConfig,
    EventKind,
    causal_saccade_mask,
    classify_events,
    fixation_noise_threshold,
    saccade_class,
)
from gazecast.errors import AlignmentError, ConfigError, InsufficientDataError
from gazecast.signal import DiffConfig, VelocityTrace, compute_velocity, recording_from_arrays


def make_step_recording(n=700, step_at=300, amplitude=8.0, step_ms=40):
    """Smooth sigmoid-ish transition so velocity has a clean single peak."""
    x = np.zeros(n)
    t = np.arange(step_ms) / (step_ms - 1)
    ramp = amplitude * (3 * t**2 - 2 * t**3)  # smoothstep
    x[step_at : step_at + step_ms] = ramp
    x[step_at + step_ms :] = amplitude
    return recording_from_arrays("s", x, np.zeros(n))


def assert_tiling(segs, n):
    assert segs[0].start_idx == 0
    assert segs[-1].end_idx == n - 1
    for a, b in zip(segs, segs[1:]):
        assert b.start_idx == a.end_idx + 1
    for seg in segs:
        assert seg.start_idx <= seg.end_idx
        assert (seg.props is not None) == (seg.kind is EventKind.SACCADE)


class TestClassifyEvents:
    def test_all_zero_velocity_single_fixation(self):
        rec = recording_from_arrays("s", np.zeros(200), np.zeros(200))
        segs = classify_events(rec, compute_velocity(rec))
        assert len(segs) == 1
        assert segs[0].kind is EventKind.FIXATION
        assert (segs[0].start_idx, segs[0].end_idx) == (0, 199)

    def test_blink_block_splits_fixation(self):
        valid = np.ones(300, dtype=bool)
        valid[120:170] = False
        rec = recording_from_arrays("s", np.zeros(300), np.zeros(300), valid)
        segs = classify_events(rec, compute_velocity(rec))
        kinds = [s.kind for s in segs]
        assert kinds == [EventKind.FIXATION, EventKind.BLINK, EventKind.FIXATION]
        blink = segs[1]
        assert (blink.start_idx, blink.end_idx) == (120, 169)
        assert_tiling(segs, 300)

    def test_step_yields_one_saccade(self):
        rec = make_step_recording()
        segs = classify_events(rec, compute_velocity(rec))
        sacc = [s for s in segs if s.kind is EventKind.SACCADE]
        assert len(sacc) == 1
        s = sacc[0]
        assert s.props.amplitude_dva == pytest.approx(8.0, abs=0.1)
        assert s.props.peak_vel > 100.0
        assert s.props.peak_vel >= s.props.mean_vel > 0
        assert s.props.duration_ms == s.props.sample_count
        # smoothstep peak velocity 1.5*A/T at center, onset threshold crossing near edges
        assert 300 - 6 <= s.start_idx <= 310
        assert_tiling(segs, rec.n_samples)

    def test_short_spike_becomes_other(self):
        n = 400
        x = np.zeros(n)
        x[200] = 2.0  # one-sample glitch: fast enough to seed, far too short
        rec = recording_from_arrays("s", x, np.zeros(n))
        segs = classify_events(rec, compute_velocity(rec))
        assert not any(s.kind is EventKind.SACCADE for s in segs)
        assert any(s.kind is EventKind.OTHER for s in segs)

    def test_overlong_fast_span_becomes_other(self):
        n = 900
        # 200 ms of sustained 150 dva/s drift exceeds max_saccade_ms
        x = np.zeros(n)
        x[300:500] = np.cumsum(np.full(200, 0.15))
        x[500:] = x[499]
        rec = recording_from_arrays("s", x, np.zeros(n))
        segs = classify_events(rec, compute_velocity(rec))
        assert not any(s.kind is EventKind.SACCADE for s in segs)

    def test_short_gap_between_events_is_other(self):
        rec = make_step_recording(n=700, step_at=100)
        segs = classify_events(rec, compute_velocity(rec))
        # span before the saccade is 100 ms fixation; confirm min_fixation rule
        short = ClassifierConfig(min_fixation_ms=120)
        segs2 = classify_events(rec, compute_velocity(rec), short)
        first_kind = segs2[0].kind
        assert first_kind is EventKind.OTHER
        assert segs[0].kind is EventKind.FIXATION

    def test_raising_peak_threshold_never_adds_saccades(self):
        rng = np.random.default_rng(8)
        x = np.cumsum(rng.normal(scale=0.05, size=3000))
        rec = recording_from_arrays("s", x, np.zeros(3000))
        vel = compute_velocity(rec)
        counts = []
        for peak in (60.0, 100.0, 160.0, 260.0):
            segs = classify_events(rec, vel, ClassifierConfig(peak_threshold=peak))
            counts.append(sum(s.kind is EventKind.SACCADE for s in segs))
        assert counts == sorted(counts, reverse=True)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_tiling_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 600))
        x = np.cumsum(rng.normal(scale=rng.uniform(0.001, 0.2), size=n))
        y = np.cumsum(rng.normal(scale=0.01, size=n))
        valid = rng.uniform(size=n) > 0.03
        rec = recording_from_arrays("s", x, y, valid)
        w = 7 if n >= 7 else 3
        segs = classify_events(rec, compute_velocity(rec, DiffConfig(window=w)))
        assert_tiling(segs, n)


class TestAgainstGenerator:
    def test_boundaries_near_ground_truth(self):
        from gazecast.plant import DEFAULT_PARAMS, simulate_saccade

        traj = simulate_saccade(DEFAULT_PARAMS, 0.0, 10.0)
        x = np.concatenate([np.zeros(300), [s.theta for s in traj]])
        x = np.concatenate([x, np.full(300, x[-1])])
        rec = recording_from_arrays("s", x, np.zeros(x.size))
        om = np.abs(np.array([s.omega for s in traj]))
        fast = np.flatnonzero(om >= 20.0)
        truth_start, truth_end = 300 + fast[0], 300 + fast[-1]
        segs = classify_events(rec, compute_velocity(rec))
        sacc = [s for s in segs if s.kind is EventKind.SACCADE]
        assert len(sacc) == 1
        assert abs(sacc[0].start_idx - truth_start) <= 4
        assert abs(sacc[0].end_idx - truth_end) <= 4

    def test_cohort_detection_f1(self):
        from gazecast.plant import SynthConfig, generate_cohort

        cohort = generate_cohort(SynthConfig(n_subjects=20, duration_s=8.0, rng_seed=21))
        tp = fp = fn = 0
        for member in cohort:
            segs = classify_events(member.recording, compute_velocity(member.recording))
            det = [(s.start_idx, s.end_idx) for s in segs if s.kind is EventKind.SACCADE]
            tru = [
                (s.start_idx, s.end_idx) for s in member.truth if s.kind is EventKind.SACCADE
            ]
            used = set()
            matched = 0
            for ts, te in tru:
                for i, (ds, de) in enumerate(det):
                    if i not in used and ds <= te and ts <= de:
                        used.add(i)
                        matched += 1
                        break
            tp += matched
            fp += len(det) - len(used)
            fn += len(tru) - matched
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.95


class TestSaccadeClass:
    def test_split(self):
        assert saccade_class(9.99) == "small"
        assert saccade_class(10.0) == "large"
        assert saccade_class(21.5) == "large"


class TestFixationNoiseThreshold:
    def test_constant_distribution(self):
        n = 400
        x = np.cumsum(np.full(n, 0.0005))  # 0.5 dva/s everywhere
        rec = recording_from_arrays("s", x, np.zeros(n))
        vel = compute_velocity(rec)
        segs = classify_events(rec, vel)
        assert fixation_noise_threshold(rec, vel, segs) == pytest.approx(0.5, abs=1e-9)

    def test_percentile_oracle(self):
        # hand-built velocity trace: fixation v_radial = 1..100 dva/s
        from gazecast.classify import EventSegment
        from gazecast.signal import VelocityTrace

        n = 100
        rec = recording_from_arrays("s", np.zeros(n), np.zeros(n))
        v = np.arange(1.0, 101.0)
        vel = VelocityTrace(vx=v, vy=np.zeros(n), v_radial=v, valid=np.ones(n, dtype=bool))
        segs = [EventSegment(EventKind.FIXATION, 0, n - 1)]
        assert fixation_noise_threshold(rec, vel, segs) == pytest.approx(90.1)

    def test_insufficient_fixation(self):
        rec = recording_from_arrays("s", np.zeros(60), np.zeros(60))
        vel = compute_velocity(rec)
        segs = classify_events(rec, vel)
        with pytest.raises(InsufficientDataError):
            fixation_noise_threshold(rec, vel, segs)


class TestConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ConfigError):
            ClassifierConfig(peak_threshold=10.0, onset_offset_threshold=20.0)
        with pytest.raises(ConfigError):
            ClassifierConfig(onset_offset_threshold=0.0)


def causal_mask(v, vel_ok=None, sample_ok=None):
    """``causal_saccade_mask`` on a bare radial-velocity array."""
    n = len(v)
    v = np.asarray(v, dtype=float)
    vel_ok = np.ones(n, dtype=bool) if vel_ok is None else np.asarray(vel_ok)
    sample_ok = np.ones(n, dtype=bool) if sample_ok is None else np.asarray(sample_ok)
    rec = recording_from_arrays("m", np.zeros(n), np.zeros(n), valid=sample_ok)
    vel = VelocityTrace(vx=v, vy=np.zeros(n), v_radial=v, valid=vel_ok, cfg=DiffConfig(mode="causal"))
    return causal_saccade_mask(rec, vel)


# the two thresholds themselves, either side of each, and NaN
SPEEDS = st.sampled_from(
    [0.0, 10.0, 19.999, 20.0, 20.001, 50.0, 99.999, 100.0, 100.001, 150.0, np.nan]
)


class TestCausalSaccadeMask:
    def test_hysteresis(self):
        v = [5.0, 150.0, 50.0, 10.0, np.nan, 150.0]
        sample_ok = [True, True, True, True, False, True]
        got = causal_mask(v, vel_ok=sample_ok, sample_ok=sample_ok)
        # above the offset threshold a saccade stays; a blink is not one
        assert got.tolist() == [False, True, True, False, False, True]

    def test_no_lookahead(self):
        rng = np.random.default_rng(2)
        v = np.abs(rng.normal(scale=80, size=200))
        v2 = v.copy()
        v2[120:] = 500.0
        np.testing.assert_array_equal(causal_mask(v)[:120], causal_mask(v2)[:120])

    @given(data=st.data(), n=st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_sample_loop(self, data, n):
        v = data.draw(hnp.arrays(float, n, elements=SPEEDS))
        vel_ok = data.draw(hnp.arrays(bool, n))
        sample_ok = data.draw(hnp.arrays(bool, n))
        want = hysteresis_loop(v, vel_ok, sample_ok)
        np.testing.assert_array_equal(causal_mask(v, vel_ok, sample_ok), want)

    def test_centered_trace_rejected(self):
        rec = recording_from_arrays("c", np.zeros(50), np.zeros(50))
        with pytest.raises(ConfigError, match="causal"):
            causal_saccade_mask(rec, compute_velocity(rec))

    def test_length_mismatch_rejected(self):
        rec = recording_from_arrays("c", np.zeros(50), np.zeros(50))
        short = recording_from_arrays("d", np.zeros(40), np.zeros(40))
        vel = compute_velocity(short, DiffConfig(mode="causal"))
        with pytest.raises(AlignmentError):
            causal_saccade_mask(rec, vel)
