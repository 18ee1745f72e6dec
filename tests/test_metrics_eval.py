"""Run scoring, CEP windows, class splits, progress curves, subject stats."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gazecast import metrics as M
from gazecast.classify import EventKind, EventSegment, SaccadeProps, classify_events
from gazecast.errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyInputError,
    InsufficientDataError,
    UndefinedStatisticError,
)
from gazecast.learned import baseline_predict
from gazecast.opkf import OpkfConfig, opkf_predict_multi
from gazecast.plant import SynthConfig, generate_cohort
from gazecast.signal import DiffConfig, compute_velocity, recording_from_arrays

CAUSAL = DiffConfig(mode="causal")


def sacc_props(amp, dur=20):
    return SaccadeProps(amplitude_dva=amp, duration_ms=dur, peak_vel=40.0 * amp, mean_vel=20.0 * amp)


def three_part_segs(n=300, sac=(150, 169), amp=12.0):
    return [
        EventSegment(EventKind.FIXATION, 0, sac[0] - 1),
        EventSegment(EventKind.SACCADE, sac[0], sac[1], sacc_props(amp, sac[1] - sac[0] + 1)),
        EventSegment(EventKind.FIXATION, sac[1] + 1, n - 1),
    ]


def run_from(predicted, mask, pi=40):
    return M.PredictionRun(pi_ms=pi, predicted=predicted, valid_mask=mask)


def scored(errors_by_idx):
    """A score table from {target sample: error}."""
    return M.ScoredRun(
        np.array(list(errors_by_idx), dtype=int), np.array(list(errors_by_idx.values()), dtype=float)
    )


class TestScoreRun:
    def test_perfect_prediction_zero_error(self):
        n = 300
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.normal(scale=0.02, size=n))
        y = np.cumsum(rng.normal(scale=0.02, size=n))
        rec = recording_from_arrays("S", x, y)
        pi = 40
        predicted = np.full((n, 2), np.nan)
        predicted[: n - pi, 0] = x[pi:]
        predicted[: n - pi, 1] = y[pi:]
        mask = np.zeros(n, dtype=bool)
        mask[: n - pi] = True
        table = M.score_run(run_from(predicted, mask, pi), rec, three_part_segs(n))
        assert len(table) == n - pi
        assert (table.error_dva == 0.0).all()

    def test_three_four_five(self):
        n = 200
        rec = recording_from_arrays("S", np.full(n, 3.0), np.full(n, 4.0))
        predicted = np.zeros((n, 2))
        mask = np.zeros(n, dtype=bool)
        mask[10] = True
        table = M.score_run(
            run_from(predicted, mask, 40), rec, [EventSegment(EventKind.FIXATION, 0, n - 1)]
        )
        assert len(table) == 1
        assert table.error_dva[0] == pytest.approx(5.0, abs=1e-12)
        assert table.sample_idx[0] == 50

    def test_attribution_at_target_time(self):
        # issued during fixation at 120; lands at 160 inside the saccade
        n = 300
        # x = sample index, so each error names the sample it targeted
        rec = recording_from_arrays("S", np.arange(n, dtype=float), np.zeros(n))
        predicted = np.zeros((n, 2))
        mask = np.zeros(n, dtype=bool)
        mask[120] = True
        mask[40] = True  # lands at 80, still fixation
        segs = three_part_segs(n, sac=(150, 169), amp=12.0)
        split = M.class_errors(M.score_run(run_from(predicted, mask, 40), rec, segs), segs)
        assert split["large_saccade"].tolist() == [160.0]
        assert split["small_saccade"].size == 0
        assert split["fixation"].tolist() == [80.0]

    def test_small_class_from_amplitude(self):
        n = 300
        rec = recording_from_arrays("S", np.zeros(n), np.zeros(n))
        predicted = np.zeros((n, 2))
        mask = np.zeros(n, dtype=bool)
        mask[120] = True
        segs = three_part_segs(n, amp=4.0)
        split = M.class_errors(M.score_run(run_from(predicted, mask, 40), rec, segs), segs)
        assert split["small_saccade"].size == 1
        assert split["large_saccade"].size == 0

    def test_invalid_target_not_scored(self):
        n = 300
        valid = np.ones(n, dtype=bool)
        valid[160] = False
        rec = recording_from_arrays("S", np.zeros(n), np.zeros(n), valid=valid)
        predicted = np.zeros((n, 2))
        mask = np.zeros(n, dtype=bool)
        mask[120] = True  # targets the invalid sample
        mask[121] = True
        table = M.score_run(run_from(predicted, mask, 40), rec, three_part_segs(n))
        assert table.sample_idx.tolist() == [161]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_flagged_prediction_rejected(self, bad):
        n = 300
        valid = np.ones(n, dtype=bool)
        valid[160] = False
        rec = recording_from_arrays("S", np.zeros(n), np.zeros(n), valid=valid)
        predicted = np.zeros((n, 2))
        predicted[[120, 130, 140], 1] = bad
        mask = np.zeros(n, dtype=bool)
        mask[[110, 120]] = True  # 120 targets the invalid sample, so it is dropped
        assert M.score_run(run_from(predicted, mask, 40), rec, three_part_segs(n)).sample_idx.tolist() == [150]
        mask[[130, 140]] = True
        with pytest.raises(DataError, match="prediction 130 "):
            M.score_run(run_from(predicted, mask, 40), rec, three_part_segs(n))

    @pytest.mark.parametrize("pi", [-5, 0, 2.7, True, "40"])
    def test_run_rejects_bad_pi(self, pi):
        # unchecked, pi_ms=-5 scores every row against wrapped negative target indices
        with pytest.raises(ConfigError, match="pi_ms"):
            run_from(np.zeros((200, 2)), np.ones(200, dtype=bool), pi)

    def test_alignment_errors(self):
        n = 300
        rec = recording_from_arrays("S", np.zeros(n), np.zeros(n))
        segs = three_part_segs(n)
        with pytest.raises(AlignmentError):
            M.score_run(run_from(np.zeros((n - 1, 2)), np.zeros(n - 1, dtype=bool)), rec, segs)
        mask = np.zeros(n, dtype=bool)
        mask[n - 10] = True  # target beyond the recording
        with pytest.raises(AlignmentError):
            M.score_run(run_from(np.zeros((n, 2)), mask), rec, segs)
        with pytest.raises(AlignmentError):
            M.score_run(
                run_from(np.zeros((n, 2)), np.zeros(n, dtype=bool)),
                rec,
                [EventSegment(EventKind.FIXATION, 0, n - 2)],
            )

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(list(EventKind)),
                st.integers(1, 60),
                st.one_of(st.floats(0.5, 9.99), st.just(10.0), st.floats(10.0, 30.0)),
            ),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_class_errors_match_per_sample_loop(self, spans, seed, data):
        segs, pos = [], 0
        for kind, length, amp in spans:
            props = sacc_props(amp, length) if kind is EventKind.SACCADE else None
            segs.append(EventSegment(kind, pos, pos + length - 1, props))
            pos += length
        n = pos
        assume(n >= 2)
        pi = data.draw(st.integers(1, n - 1))
        rng = np.random.default_rng(seed)
        rec = recording_from_arrays(
            "S", rng.normal(size=n), rng.normal(size=n), valid=rng.random(n) < 0.8
        )
        predicted = rng.normal(size=(n, 2))
        mask = np.zeros(n, dtype=bool)
        mask[: n - pi] = rng.random(n - pi) < 0.7

        seg_of = [s for s in segs for _ in range(s.n_samples)]
        expected = {name: [] for name in M.EVENT_CLASSES}
        for i in range(n - pi):
            t = i + pi
            if not (mask[i] and rec.valid[t]):
                continue
            dx, dy = predicted[i, 0] - rec.x[t], predicted[i, 1] - rec.y[t]
            err = float(np.sqrt(dx * dx + dy * dy))
            seg = seg_of[t]
            if seg.kind is EventKind.FIXATION:
                expected["fixation"].append(err)
            elif seg.kind is EventKind.SACCADE:
                big = seg.props.amplitude_dva >= 10.0
                expected["large_saccade" if big else "small_saccade"].append(err)
            # post-saccadic: a saccade ended within the last 100 samples and
            # no saccade or blink sample lies between its end and t
            for j in range(t, max(t - 100, 0) - 1, -1):
                kind = seg_of[j].kind
                if kind is EventKind.BLINK or (kind is EventKind.SACCADE and j == t):
                    break
                if kind is EventKind.SACCADE:
                    expected["cep"].append(err)
                    break
            expected["all"].append(err)

        table = M.score_run(run_from(predicted, mask, pi), rec, segs)
        assert len(table) == len(expected["all"])
        tgt = table.sample_idx
        hypot = np.hypot(predicted[tgt - pi, 0] - rec.x[tgt], predicted[tgt - pi, 1] - rec.y[tgt])
        np.testing.assert_allclose(table.error_dva, hypot, rtol=4.5e-16, atol=0)
        split = M.class_errors(table, segs)
        for name in M.EVENT_CLASSES:
            assert split[name].tolist() == expected[name], name

    def test_blinks_and_invalid_targets_score_with_fp_errors_raised(self):
        # ground truth inside blinks and the rows of the baselines issued
        # there are NaN, so the aligned slices hold NaN rows that the score
        # must leave out without a floating-point error
        base = generate_cohort(SynthConfig(n_subjects=1, duration_s=6.0, rng_seed=1))[0].recording
        valid = base.valid.copy()
        for start in (0, 1500, 3900):
            valid[start : start + 120] = False
        rec = recording_from_arrays("S", base.x, base.y, valid=valid)
        segs = classify_events(rec, compute_velocity(rec))
        vel = compute_velocity(rec, CAUSAL)
        runs = [*opkf_predict_multi(rec, OpkfConfig(), (20, 60)).values()]
        runs += [baseline_predict(kind, rec, vel, 40) for kind in ("constant-position", "constant-velocity")]
        for run in runs:
            pi, n = run.pi_ms, rec.n_samples
            # flag every issued row, targets inside blinks included
            issued = np.isfinite(run.predicted).all(axis=1)
            issued[n - pi :] = False
            assert np.isnan(run.predicted).any() and (issued[: n - pi] & ~valid[pi:]).any()
            with np.errstate(all="raise"):
                table = M.score_run(run_from(run.predicted, issued, pi), rec, segs)
            # the per-row gather it replaces
            idx = np.flatnonzero(issued)
            idx = idx[valid[idx + pi]]
            dx, dy = run.predicted[idx, 0] - rec.x[idx + pi], run.predicted[idx, 1] - rec.y[idx + pi]
            np.testing.assert_array_equal(table.sample_idx, idx + pi)
            np.testing.assert_array_equal(table.error_dva, np.sqrt(dx * dx + dy * dy))

    def test_records_nonnegative_finite(self):
        cohort = generate_cohort(SynthConfig(n_subjects=1, duration_s=6.0, rng_seed=1))
        rec = cohort[0].recording
        vel = compute_velocity(rec)
        segs = classify_events(rec, vel)
        run = baseline_predict("constant-position", rec, None, 40)
        table = M.score_run(run, rec, segs)
        errs = table.error_dva
        assert np.isfinite(errs).all() and (errs >= 0).all()
        assert len(table) == int(run.valid_mask.sum())


def post_saccade_segs(*tail):
    """Fixation, an 8 dva saccade over samples 480-500, then ``tail``."""
    return [
        EventSegment(EventKind.FIXATION, 0, 479),
        EventSegment(EventKind.SACCADE, 480, 500, sacc_props(8.0)),
        *tail,
    ]


# segments -> the [start, end] sample runs class_errors puts in "cep"
CEP_CASES = {
    "full_interval": (
        post_saccade_segs(
            EventSegment(EventKind.FIXATION, 501, 899),
            EventSegment(EventKind.SACCADE, 900, 920, sacc_props(8.0)),
            EventSegment(EventKind.FIXATION, 921, 1500),
        ),
        [(501, 600), (921, 1020)],
    ),
    # 30 fixation samples between saccade end 500 and next onset 531
    "truncated_by_next_saccade": (
        post_saccade_segs(
            EventSegment(EventKind.FIXATION, 501, 530),
            EventSegment(EventKind.SACCADE, 531, 560, sacc_props(8.0)),
            EventSegment(EventKind.FIXATION, 561, 1000),
        ),
        [(501, 530), (561, 660)],
    ),
    "truncated_at_recording_end": (
        post_saccade_segs(EventSegment(EventKind.FIXATION, 501, 520)),
        [(501, 520)],
    ),
    "blink_cuts_window": (
        post_saccade_segs(
            EventSegment(EventKind.FIXATION, 501, 540),
            EventSegment(EventKind.BLINK, 541, 580),
            EventSegment(EventKind.FIXATION, 581, 1000),
        ),
        [(501, 540)],
    ),
    "no_saccades": ([EventSegment(EventKind.FIXATION, 0, 999)], []),
}


class TestClassErrors:
    @pytest.mark.parametrize("segs, windows", list(CEP_CASES.values()), ids=list(CEP_CASES))
    def test_cep_samples(self, segs, windows):
        # one row per sample, its error being its index
        n = segs[-1].end_idx + 1
        table = M.ScoredRun(np.arange(n), np.arange(n, dtype=float))
        want = [float(i) for a, b in windows for i in range(a, b + 1)]
        assert M.class_errors(table, segs)["cep"].tolist() == want

    def test_routing(self):
        segs = [
            EventSegment(EventKind.FIXATION, 0, 479),
            EventSegment(EventKind.SACCADE, 480, 500, sacc_props(15.0)),
            EventSegment(EventKind.FIXATION, 501, 999),
        ]
        table = scored({100: 0.1, 490: 3.0, 550: 0.5, 700: 0.2})  # 550: inside CEP window
        split = M.class_errors(table, segs)
        assert split["fixation"].tolist() == [0.1, 0.5, 0.2]
        assert split["large_saccade"].tolist() == [3.0]
        assert split["small_saccade"].size == 0
        assert split["cep"].tolist() == [0.5]
        assert split["all"].size == 4

    def test_cep_membership_ignores_kind(self):
        # a short post-saccadic Other span still counts toward CEP
        segs = [
            EventSegment(EventKind.FIXATION, 0, 479),
            EventSegment(EventKind.SACCADE, 480, 500, sacc_props(6.0)),
            EventSegment(EventKind.OTHER, 501, 520),
            EventSegment(EventKind.FIXATION, 521, 999),
        ]
        split = M.class_errors(scored({510: 1.0}), segs)
        assert split["cep"].tolist() == [1.0]
        assert split["fixation"].size == 0

    def test_empty_records(self):
        split = M.class_errors(scored({}), [EventSegment(EventKind.FIXATION, 0, 99)])
        assert all(split[k].size == 0 for k in M.EVENT_CLASSES)

    @pytest.mark.parametrize(
        "idx, segs",
        [
            (5, []),
            (100, [EventSegment(EventKind.FIXATION, 0, 99)]),
            (-1, [EventSegment(EventKind.FIXATION, 0, 99)]),
        ],
    )
    def test_record_outside_segments(self, idx, segs):
        with pytest.raises(AlignmentError, match="outside"):
            M.class_errors(scored({idx: 0.1}), segs)


class TestSubjectStats:
    def test_two_subject_ratio_and_iqr(self):
        per_subject = {"S1": np.full(40, 1.0), "S2": np.full(40, 2.0)}
        stats = M.subject_stats(per_subject, "fixation")
        assert stats.medians == (1.0, 2.0)
        assert stats.cohort_ratio == pytest.approx(2.0)
        assert stats.cohort_iqr == pytest.approx(0.5)

    def test_identical_subjects(self):
        per_subject = {f"S{i}": np.full(35, 0.7) for i in range(4)}
        stats = M.subject_stats(per_subject, "all")
        assert stats.cohort_ratio == pytest.approx(1.0)
        assert stats.cohort_iqr == 0.0

    def test_sparse_subjects_dropped(self):
        per_subject = {"S1": np.full(40, 1.0), "S2": np.full(10, 9.0)}
        stats = M.subject_stats(per_subject, "fixation")
        assert stats.subject_ids == ("S1",)

    def test_errors(self):
        with pytest.raises(ConfigError):
            M.subject_stats({"S1": np.full(40, 1.0)}, "everything")
        with pytest.raises(InsufficientDataError):
            M.subject_stats({"S1": np.full(5, 1.0)}, "fixation")

    def test_nan_errors_rejected(self):
        # unchecked, a NaN median makes the cohort ratio infinite
        errors = np.full(40, 1.0)
        errors[3] = np.nan
        with pytest.raises(UndefinedStatisticError):
            M.subject_stats({"S1": np.full(40, 2.0), "S2": errors}, "fixation")


class TestCorrelateFeatures:
    def test_fewer_than_ten_subjects_rejected(self):
        feats = {"F": list(range(8))}
        meds = {"m": list(range(8))}
        with pytest.raises(InsufficientDataError):
            M.correlate_features(feats, meds, "fixation")

    def test_perfect_monotone_significant(self):
        feats = {"F": list(range(12))}
        meds = {"m": [0.1 * k + 0.05 for k in range(12)]}
        (res,) = M.correlate_features(feats, meds, "fixation")
        assert res.r_s == pytest.approx(1.0)
        assert res.significant_after_bonferroni

    def test_random_column_rarely_significant(self):
        # an independent feature survives the family correction in at most
        # 5% of runs; seeds are fixed so the count is reproducible
        meds = {"m": [0.1 * k + 0.05 for k in range(14)]}
        hits = 0
        for seed in range(20):
            feats = {"Noise": np.random.default_rng(seed).normal(size=14)}
            (res,) = M.correlate_features(feats, meds, "fixation", family_size=114)
            hits += bool(res.significant_after_bonferroni)
        assert hits <= 1

    def test_family_defaults_to_pair_count(self):
        feats = {"A": list(range(12)), "B": list(range(12))}
        meds = {"m1": list(range(12)), "m2": list(range(12)), "m3": list(range(12))}
        results = M.correlate_features(feats, meds, "all")
        assert len(results) == 6
        assert all(r.event_class == "all" for r in results)

    def test_family_smaller_than_pair_count_rejected(self):
        feats = {"A": list(range(12)), "B": list(range(12))}
        meds = {"m1": list(range(12)), "m2": list(range(12))}
        for family_size in (0, 3):
            with pytest.raises(ConfigError, match="family size"):
                M.correlate_features(feats, meds, "all", family_size=family_size)

    def test_misaligned_vectors(self):
        with pytest.raises(AlignmentError):
            M.correlate_features({"F": range(12)}, {"m": range(11)}, "fixation")
        with pytest.raises(EmptyInputError):
            M.correlate_features({}, {"m": range(12)}, "fixation")


class TestCohortConcordance:
    def test_three_models_agree_on_fixation_ranking(self):
        cohort = generate_cohort(SynthConfig(n_subjects=5, duration_s=8.0, rng_seed=12))
        medians = []
        for kind in ("constant-position", "constant-velocity", None):
            per_model = []
            for member in cohort:
                rec = member.recording
                vel = compute_velocity(rec)
                segs = classify_events(rec, vel)
                if kind is None:
                    run = opkf_predict_multi(rec, OpkfConfig(), (40,))[40]
                else:
                    run = baseline_predict(kind, rec, compute_velocity(rec, CAUSAL), 40)
                errs = M.class_errors(M.score_run(run, rec, segs), segs)["fixation"]
                per_model.append(float(np.median(errs)))
            medians.append(per_model)
        w = M.kendall_w(np.asarray(medians))
        assert w >= 0.8
