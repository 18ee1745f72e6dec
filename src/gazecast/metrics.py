"""Event-conditioned error analysis and the rank statistics behind it.

The first half of this module is small, self-contained statistics
(quantiles, Spearman correlation, Bonferroni flags, Kendall's W) written
directly from their defining formulas. The second half defines the
``PredictionRun`` that every predictor returns, scores runs against ground
truth into a two-column table (target sample, error) and aggregates those
errors per event class and subject; event classes come from the segments,
expanded once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import stdtr

from .classify import BLINK, FIXATION, LARGE_SACCADE, SACCADE, EventSegment, event_labels
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyInputError,
    InsufficientDataError,
    UndefinedStatisticError,
    check_int,
)
from .signal import GazeRecording

ALPHA = 0.05  # family-wise significance level of the Bonferroni correction
MIN_RECORDS = 30  # errors a subject needs in a class to enter subject_stats


# ---------------------------------------------------------------------------
# rank/statistics primitives


def quantile(values, p: float) -> float:
    """Order-statistic quantile with linear interpolation at rank (n-1)*p.

    A NaN or infinite value has no rank and raises UndefinedStatisticError.
    """
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"quantile level must be in [0, 1], got {p}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InsufficientDataError("quantile of empty data")
    if not np.isfinite(v).all():
        raise UndefinedStatisticError("quantile undefined for non-finite values")
    v = np.sort(v)
    h = (v.size - 1) * p
    lo = int(np.floor(h))
    hi = min(lo + 1, v.size - 1)
    frac = h - lo
    return float(v[lo] + frac * (v[hi] - v[lo]))


def iqr(values) -> float:
    return quantile(values, 0.75) - quantile(values, 0.25)


def rankdata(values) -> np.ndarray:
    """1-based ranks with ties assigned the average of their positions.

    A NaN or infinite value has no rank and raises UndefinedStatisticError.
    """
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise UndefinedStatisticError("ranks undefined for non-finite values")
    # a tie group of c values ending at rank e shares the mean of e-c+1..e
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group]


def spearman(x, y) -> tuple[float, float]:
    """Spearman rank correlation with a Student-t p-value (n-2 dof).

    Ties get average ranks; r_s is the Pearson correlation of the ranks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise AlignmentError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    if n < 5:
        raise InsufficientDataError(f"need at least 5 pairs, got {n}")
    rx = rankdata(x)
    ry = rankdata(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedStatisticError("correlation undefined for a constant input")
    r = float(np.sum(dx * dy) / (sx * sy))
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return r, 0.0
    t = r * np.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p


def bonferroni(p_values, family_size: int | None = None) -> list[bool]:
    """Per-test significance flags at the ALPHA/m Bonferroni threshold.

    ``family_size`` lets the caller correct over a family larger than the
    p-values actually supplied; by default m = len(p_values). A family
    that is not an integer at least as large as the p-values supplied
    raises ConfigError.
    """
    p = list(p_values)
    if not p:
        raise EmptyInputError("no p-values to correct")
    m = family_size if family_size is not None else len(p)
    check_int("family size", m, len(p))
    thr = ALPHA / m
    return [pi < thr for pi in p]


def kendall_w(scores) -> float:
    """Kendall's coefficient of concordance across raters, tie-corrected.

    ``scores`` is an (m raters x n subjects) array; each rater's scores are
    converted to average ranks. W = 12*S / (m^2*(n^3 - n) - m*sum(T)) where S
    is the squared deviation of rank sums and T the per-rater tie terms.
    """
    a = np.asarray(scores, dtype=float)
    if a.ndim != 2:
        raise ConfigError("scores must be a 2-D raters x subjects array")
    m, n = a.shape
    if m < 2:
        raise InsufficientDataError(f"need at least 2 raters, got {m}")
    if n < 3:
        raise InsufficientDataError(f"need at least 3 subjects, got {n}")
    ranks = np.empty_like(a)
    tie_total = 0.0
    for i in range(m):
        if np.all(a[i] == a[i, 0]):
            raise UndefinedStatisticError(f"rater {i} ranks all subjects equal")
        ranks[i] = rankdata(a[i])
        _, counts = np.unique(a[i], return_counts=True)
        tie_total += float(np.sum(counts.astype(float) ** 3 - counts))
    rank_sums = ranks.sum(axis=0)
    s = float(np.sum((rank_sums - rank_sums.mean()) ** 2))
    denom = m * m * (n**3 - n) - m * tie_total
    if denom <= 0:
        raise UndefinedStatisticError("concordance undefined: ties exhaust all variance")
    return 12.0 * s / denom


# ---------------------------------------------------------------------------
# scoring prediction runs against labeled recordings


def _check_pi(pi_ms) -> None:
    check_int("pi_ms", pi_ms, 1)


@dataclass(frozen=True)
class PredictionRun:
    """One predictor's output over a recording at one prediction interval.

    ``predicted[i]`` targets ground-truth sample i + ``pi_ms``, and only the
    rows flagged in ``valid_mask`` are scored.
    """

    pi_ms: int
    predicted: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        _check_pi(self.pi_ms)
        n = len(self.valid_mask)
        if self.predicted.shape != (n, 2):
            raise ConfigError("predicted must be (n, 2) aligned with valid_mask")

    @classmethod
    def from_issued(
        cls, rec: GazeRecording, pi_ms: int, predicted: np.ndarray, issued: np.ndarray
    ) -> PredictionRun:
        """Run valid where a prediction was issued and its target sample
        i+PI lies inside the recording and is valid."""
        n = rec.n_samples
        target_ok = np.zeros(n, dtype=bool)
        if pi_ms < n:
            target_ok[: n - pi_ms] = rec.valid[pi_ms:]
        return cls(pi_ms, predicted, issued & target_ok)


@dataclass(frozen=True)
class ScoredRun:
    """Scored predictions of one run, one row per scored prediction.

    Rows are indexed by the sample each prediction targeted (t + PI), so
    the event class of a row is that of its target sample: a prediction
    issued during fixation that lands inside a saccade counts against the
    saccade.
    """

    sample_idx: np.ndarray  # (k,) target sample of each prediction
    error_dva: np.ndarray  # (k,) Euclidean prediction error

    def __post_init__(self):
        if len(self.sample_idx) != len(self.error_dva):
            raise AlignmentError("score columns disagree on length")

    def __len__(self) -> int:
        return len(self.sample_idx)


EVENT_CLASSES = ("fixation", "small_saccade", "large_saccade", "cep", "all")

CEP_WINDOW_MS = 100


def _check_tiling(segs: Sequence[EventSegment], n: int) -> None:
    if not segs:
        raise EmptyInputError("no segments")
    if segs[0].start_idx != 0 or segs[-1].end_idx != n - 1:
        raise AlignmentError(
            f"segments cover [{segs[0].start_idx}, {segs[-1].end_idx}], recording has {n} samples"
        )


def score_run(run: PredictionRun, rec: GazeRecording, segs: Sequence[EventSegment]) -> ScoredRun:
    """Score every unmasked prediction of a run against the recording.

    A scored prediction that is not finite raises DataError.
    """
    n = len(rec.x)
    pred = np.asarray(run.predicted, dtype=float)
    mask = np.asarray(run.valid_mask, dtype=bool)
    if pred.shape != (n, 2) or mask.shape != (n,):
        raise AlignmentError(
            f"run shaped {pred.shape}/{mask.shape} does not align with {n}-sample recording"
        )
    _check_tiling(segs, n)
    pi = run.pi_ms

    # row i of the first m rows targets sample i + pi; a flagged row past
    # them targets a sample beyond the recording
    m = max(n - pi, 0)
    late = np.flatnonzero(mask[m:])
    if late.size:
        i = m + int(late[-1])
        raise AlignmentError(f"prediction at {i} targets sample {i + pi} beyond the recording")
    # a target sample with no ground truth cannot be scored; well-behaved
    # producers already exclude these from valid_mask
    idx = np.flatnonzero(mask[:m] & rec.valid[pi:])
    # errors on the aligned slices, then the scored rows; not np.hypot, which
    # costs several times more and differs by <= 1 ulp
    dx, dy = pred[:m, 0] - rec.x[pi:], pred[:m, 1] - rec.y[pi:]
    err = np.sqrt(dx * dx + dy * dy)[idx]
    if not np.isfinite(err).all():
        raise DataError(f"prediction {int(idx[~np.isfinite(err)][0])} is flagged valid but its error is not finite")
    return ScoredRun(idx + pi, err)


def class_errors(scored: ScoredRun, segs: Sequence[EventSegment]) -> dict[str, np.ndarray]:
    """Split scored errors into the five reporting classes.

    "cep" selects rows in a post-saccadic window regardless of their own
    event kind: the latest saccade or blink sample at or before the row's
    target sample is a saccade sample 1 to CEP_WINDOW_MS samples earlier,
    so a window stops at the next saccade or blink. The other classes
    select by the label of the row's target sample. A row whose sample
    index lies outside the segments raises AlignmentError.
    """
    n = segs[-1].end_idx + 1 if segs else 0
    idxs = scored.sample_idx
    outside = (idxs < 0) | (idxs >= n)
    if outside.any():
        raise AlignmentError(
            f"scored sample_idx {int(idxs[outside][0])} lies outside the {n} segmented samples"
        )
    labels = event_labels(segs, n)
    saccade = (labels == SACCADE) | (labels == LARGE_SACCADE)
    latest = np.maximum.accumulate(np.where(saccade | (labels == BLINK), np.arange(n), -1))[idxs]
    lag = idxs - latest
    in_cep = (latest >= 0) & saccade[latest] & (lag >= 1) & (lag <= CEP_WINDOW_MS)
    kind = labels[idxs]
    err = scored.error_dva
    return {
        "fixation": err[kind == FIXATION],
        "small_saccade": err[kind == SACCADE],
        "large_saccade": err[kind == LARGE_SACCADE],
        "cep": err[in_cep],
        "all": err,
    }


# ---------------------------------------------------------------------------
# cohort aggregation


@dataclass(frozen=True)
class SubjectStats:
    """Per-subject median errors in one event class, and their cohort spread.

    The cohort ratio is max/min of the per-subject medians (Inf when some
    subject's median is exactly zero); the cohort IQR is their IQR.
    """

    event_class: str
    subject_ids: tuple[str, ...]
    medians: tuple[float, ...]
    cohort_ratio: float
    cohort_iqr: float


def subject_stats(per_subject_errors: Mapping[str, Sequence[float]], event_class: str) -> SubjectStats:
    """Cohort statistics over per-subject medians for one event class.

    Subjects with fewer than MIN_RECORDS errors in the class are dropped;
    at least one subject must survive.
    """
    if event_class not in EVENT_CLASSES:
        raise ConfigError(f"unknown event class {event_class!r}, expected one of {EVENT_CLASSES}")
    ids, meds = [], []
    for sid in sorted(per_subject_errors):
        e = np.asarray(per_subject_errors[sid], dtype=float)
        if e.size < MIN_RECORDS:
            continue
        ids.append(sid)
        meds.append(quantile(e, 0.5))
    if not ids:
        raise InsufficientDataError(
            f"no subject has >= {MIN_RECORDS} records in class {event_class!r}"
        )
    mn, mx = min(meds), max(meds)
    return SubjectStats(
        event_class=event_class,
        subject_ids=tuple(ids),
        medians=tuple(meds),
        cohort_ratio=mx / mn if mn > 0 else float("inf"),
        cohort_iqr=iqr(meds) if len(meds) > 1 else 0.0,
    )


@dataclass(frozen=True)
class CorrelationResult:
    feature: str
    model: str
    event_class: str
    r_s: float
    p_value: float
    significant_after_bonferroni: bool


def correlate_features(
    features: Mapping[str, Sequence[float]],
    medians: Mapping[str, Sequence[float]],
    event_class: str,
    family_size: int | None = None,
) -> list[CorrelationResult]:
    """Spearman of every (feature, model) pair with family-wise Bonferroni.

    ``features`` maps feature name -> per-subject values and ``medians``
    maps model name -> per-subject error medians, in one shared subject
    order. The correction family defaults to all pairs tested here;
    ``family_size`` widens it when this call is one slice of a larger table.
    """
    if not features or not medians:
        raise EmptyInputError("need at least one feature and one model")
    sizes = {len(v) for v in features.values()} | {len(v) for v in medians.values()}
    if len(sizes) != 1:
        raise AlignmentError(f"feature/median vectors disagree on subject count: {sorted(sizes)}")
    n = sizes.pop()
    if n < 10:
        raise InsufficientDataError(f"need >= 10 complete subjects, got {n}")
    pairs = [(f, m) for f in sorted(features) for m in sorted(medians)]
    rs, ps = [], []
    for f, m in pairs:
        r, p = spearman(features[f], medians[m])
        rs.append(r)
        ps.append(p)
    flags = bonferroni(ps, family_size=family_size)
    return [
        CorrelationResult(f, m, event_class, r, p, bool(sig))
        for (f, m), r, p, sig in zip(pairs, rs, ps, flags)
    ]
