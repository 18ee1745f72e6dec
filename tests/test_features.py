import numpy as np
import pytest

from gazecast.classify import EventKind, EventSegment, SaccadeProps, classify_events
from gazecast.errors import InsufficientDataError
from gazecast.features import (
    data_quality,
    mn_vel_r_md,
    pk_vel_dur_ratio_r_md,
    subject_features,
)
from gazecast.signal import compute_velocity, recording_from_arrays


def sacc_seg(start, peak, mean, count):
    return EventSegment(
        EventKind.SACCADE,
        start,
        start + count - 1,
        SaccadeProps(
            amplitude_dva=5.0,
            duration_ms=count,
            peak_vel=peak,
            mean_vel=mean,
            sample_count=count,
        ),
    )


def sacc_list(ratios):
    segs = []
    pos = 0
    for r in ratios:
        segs.append(sacc_seg(pos, peak=r * 40.0, mean=r * 20.0, count=40))
        pos += 100
    return segs


class TestSaccadeFeatures:
    def test_single_saccade_ratio(self):
        segs = sacc_list([10.0] * 10)
        segs[0] = sacc_seg(0, peak=400.0, mean=200.0, count=40)
        assert pk_vel_dur_ratio_r_md(segs[:1] * 10) == pytest.approx(10.0)

    def test_odd_count_median(self):
        segs = sacc_list([5, 5, 5, 10, 10, 10, 10, 20, 20, 20, 20])
        assert pk_vel_dur_ratio_r_md(segs) == pytest.approx(10.0)

    def test_mn_vel_median_of_means(self):
        segs = sacc_list([1] * 9) + [sacc_seg(2000, peak=500.0, mean=300.0, count=10)]
        vals = sorted([s.props.mean_vel for s in segs])
        assert mn_vel_r_md(segs) == pytest.approx((vals[4] + vals[5]) / 2)

    def test_insufficient_saccades(self):
        with pytest.raises(InsufficientDataError):
            pk_vel_dur_ratio_r_md(sacc_list([1] * 9))


class TestDataQuality:
    def _rec(self, offset=(0.0, 0.0), noise=None, n=600):
        rng = np.random.default_rng(0)
        x = np.full(n, 5.0 + offset[0])
        y = np.full(n, -2.0 + offset[1])
        if noise is not None:
            x = x + noise[0]
            y = y + noise[1]
        targets = np.array([[0.0, 5.0, -2.0]])
        return recording_from_arrays("s", x, y, targets=targets)

    def _fix_segs(self, n=600):
        # start the fixation past the 100 ms target-lock delay
        return [
            EventSegment(EventKind.OTHER, 0, 149),
            EventSegment(EventKind.FIXATION, 150, n - 1),
        ]

    def test_on_target_noiseless(self):
        rec = self._rec()
        acc, prec = data_quality(rec, self._fix_segs())
        assert acc == pytest.approx(0.0, abs=1e-12)
        assert prec == pytest.approx(0.0, abs=1e-12)

    def test_pythagorean_offset(self):
        rec = self._rec(offset=(3.0, 4.0))
        # a 5 dva offset is outside the 2.5 dva lock radius, so shrink it
        rec2 = self._rec(offset=(0.9, 1.2))
        acc, prec = data_quality(rec2, self._fix_segs())
        assert acc == pytest.approx(1.5)
        assert prec == 0.0
        with pytest.raises(InsufficientDataError):
            data_quality(rec, self._fix_segs())

    def test_precision_single_axis_white_noise(self):
        n = 200_000
        rng = np.random.default_rng(1)
        sigma = 0.25
        noise = (rng.normal(0, sigma, n), np.zeros(n))
        rec = self._rec(noise=noise, n=n)
        _, prec = data_quality(rec, self._fix_segs(n))
        assert prec == pytest.approx(sigma * np.sqrt(2), rel=0.05)

    def test_precision_two_axis_white_noise(self):
        # iid noise on both axes doubles the squared step: RMS-S2S = 2 sigma
        n = 200_000
        rng = np.random.default_rng(2)
        sigma = 0.25
        noise = (rng.normal(0, sigma, n), rng.normal(0, sigma, n))
        rec = self._rec(noise=noise, n=n)
        _, prec = data_quality(rec, self._fix_segs(n))
        assert prec == pytest.approx(2 * sigma, rel=0.05)

    def test_no_targets_marks_accuracy_absent(self):
        rec = recording_from_arrays("s", np.full(300, 1.0), np.zeros(300))
        acc, prec = data_quality(rec, self._fix_segs(300))
        assert acc is None
        assert prec == 0.0

    def test_diffs_do_not_cross_segments(self):
        # a big jump between two fixation segments must not leak into precision
        x = np.concatenate([np.zeros(300), np.full(300, 30.0)])
        rec = recording_from_arrays("s", x, np.zeros(600))
        segs = [
            EventSegment(EventKind.FIXATION, 0, 299),
            EventSegment(EventKind.FIXATION, 300, 599),
        ]
        _, prec = data_quality(rec, segs)
        assert prec == 0.0

    def test_late_fixation_not_target_locked(self):
        # fixation starting before the 100 ms lock delay is skipped
        n = 400
        x = np.full(n, 1.0)
        targets = np.array([[0.0, 1.0, 0.0]])
        rec = recording_from_arrays("s", x, np.zeros(n), targets=targets)
        early = [EventSegment(EventKind.FIXATION, 0, n - 1)]
        with pytest.raises(InsufficientDataError):
            data_quality(rec, early)
        late = [
            EventSegment(EventKind.OTHER, 0, 149),
            EventSegment(EventKind.FIXATION, 150, n - 1),
        ]
        acc, _ = data_quality(rec, late)
        assert acc == pytest.approx(0.0, abs=1e-12)

    def test_fixation_before_first_target_skipped(self):
        # targets start at t=200: the fixation before them has no target
        # and is skipped, though it lies within the lock radius of the
        # first one; the fixation after the 100 ms lock is counted
        n = 600
        x = np.concatenate([np.full(200, 3.5), np.full(n - 200, 1.0)])
        targets = np.array([[200.0, 1.5, 0.0]])
        rec = recording_from_arrays("s", x, np.zeros(n), targets=targets)
        segs = [
            EventSegment(EventKind.FIXATION, 0, 199),
            EventSegment(EventKind.OTHER, 200, 349),
            EventSegment(EventKind.FIXATION, 350, n - 1),
        ]
        acc, _ = data_quality(rec, segs)
        assert acc == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(InsufficientDataError):
            data_quality(rec, segs[:2])


class TestInvariancesAndCohort:
    def test_translation_invariance(self):
        from gazecast.plant import SynthConfig, generate_cohort

        member = generate_cohort(SynthConfig(n_subjects=1, duration_s=12.0, rng_seed=3))[0]
        rec = member.recording
        vel = compute_velocity(rec)
        segs = classify_events(rec, vel)
        base = subject_features(rec, vel, segs)

        shifted = recording_from_arrays(
            rec.subject_id,
            rec.x + 2.0,
            rec.y - 1.0,
            rec.valid,
            targets=rec.targets,
        )
        vel2 = compute_velocity(shifted)
        segs2 = classify_events(shifted, vel2)
        moved = subject_features(shifted, vel2, segs2)

        assert moved.fix_noise_thr == pytest.approx(base.fix_noise_thr, rel=1e-9)
        assert moved.pk_vel_dur_ratio_r_md == pytest.approx(base.pk_vel_dur_ratio_r_md, rel=1e-9)
        assert moved.mn_vel_r_md == pytest.approx(base.mn_vel_r_md, rel=1e-9)
        assert moved.precision_dva == pytest.approx(base.precision_dva, rel=1e-9)

    def test_speed_scaling_raises_velocity_features(self):
        import dataclasses

        from gazecast.plant import DEFAULT_PARAMS, SynthConfig, generate_cohort

        feats = []
        for scale in (0.7, 1.0, 1.3):
            def sampler(rng, s=scale):
                return dataclasses.replace(
                    DEFAULT_PARAMS, pulse_height_coeff=DEFAULT_PARAMS.pulse_height_coeff * s
                )

            cfg = SynthConfig(
                n_subjects=1,
                duration_s=12.0,
                rng_seed=11,
                noise_sigma_per_subject=(0.1,),
            )
            member = generate_cohort(cfg, sampler)[0]
            vel = compute_velocity(member.recording)
            segs = classify_events(member.recording, vel)
            feats.append(pk_vel_dur_ratio_r_md(segs))
        assert feats[0] < feats[1] < feats[2]

