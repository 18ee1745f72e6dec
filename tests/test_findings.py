"""The paper's two findings, reached by the library on a pinned cohort.

Fixation noise goes with worse fixation prediction, and faster saccades go
with worse saccade prediction. Each finding must be significant after a
Bonferroni correction over every feature against both classes, and the
cross pairs must not be. Only signs and significance are asserted, so a
better predictor that keeps the findings keeps these tests.
"""

import pytest

from gazecast import features
from gazecast.classify import classify_events
from gazecast.metrics import class_errors, correlate_features, score_run, subject_stats
from gazecast.opkf import OpkfConfig, opkf_predict_multi
from gazecast.plant import SynthConfig, generate_cohort
from gazecast.signal import compute_velocity

PI = 40
CLASSES = ("fixation", "small_saccade")
FEATURES = features.FEATURE_COLUMNS[1:]
VELOCITY_FEATURES = ("mn_vel_r_md", "pk_vel_dur_ratio_r_md")


@pytest.fixture(scope="module")
def correlations():
    """(feature, class) -> CorrelationResult for the OPKF on 30 subjects x 12 s."""
    feats, errors = {}, {cls: {} for cls in CLASSES}
    for member in generate_cohort(SynthConfig(30, 12.0, rng_seed=0)):
        rec = member.recording
        vel = compute_velocity(rec)
        segs = classify_events(rec, vel)
        run = opkf_predict_multi(rec, OpkfConfig(), [PI])[PI]
        by_class = class_errors(score_run(run, rec, segs), segs)
        for cls in CLASSES:
            errors[cls][rec.subject_id] = by_class[cls]
        feats[rec.subject_id] = features.subject_features(rec, vel, segs)
    out = {}
    for cls in CLASSES:
        stats = subject_stats(errors[cls], cls)
        columns = {name: [getattr(feats[s], name) for s in stats.subject_ids] for name in FEATURES}
        results = correlate_features(
            columns, {"opkf": stats.medians}, cls, family_size=len(FEATURES) * len(CLASSES)
        )
        out.update({(r.feature, cls): r for r in results})
    return out


def test_fixation_noise_predicts_fixation_error(correlations):
    res = correlations[("fix_noise_thr", "fixation")]
    assert res.r_s > 0
    assert res.significant_after_bonferroni


@pytest.mark.parametrize("feature", VELOCITY_FEATURES)
def test_saccade_velocity_predicts_small_saccade_error(correlations, feature):
    res = correlations[(feature, "small_saccade")]
    assert res.r_s > 0
    assert res.significant_after_bonferroni


@pytest.mark.parametrize(
    "feature, cls",
    [("fix_noise_thr", "small_saccade")] + [(f, "fixation") for f in VELOCITY_FEATURES],
)
def test_cross_pairs_not_significant(correlations, feature, cls):
    assert not correlations[(feature, cls)].significant_after_bonferroni
