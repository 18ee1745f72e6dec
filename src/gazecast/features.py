"""Per-subject oculomotor features and signal-quality measures.

These feed the correlation analysis: saccade-velocity features summarize how
fast a subject's saccades are, and the quality pair (accuracy, precision)
summarizes calibration offset and sample-to-sample noise. All are computed
from a classified recording and are deterministic given (rec, segs).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .classify import FIXATION, EventKind, EventSegment, event_labels
from .errors import AlignmentError, InsufficientDataError
from .metrics import quantile
from .signal import GazeRecording, VelocityTrace

MIN_SACCADES = 10
MIN_FIXATION_SAMPLES = 100
TARGET_LOCK_RADIUS_DVA = 2.5
TARGET_LOCK_DELAY_MS = 100


@dataclass(frozen=True)
class SubjectFeatures:
    subject_id: str
    fix_noise_thr: float
    pk_vel_dur_ratio_r_md: float
    mn_vel_r_md: float
    accuracy_dva: float | None
    precision_dva: float


def fixation_noise_threshold(
    rec: GazeRecording, vel: VelocityTrace, segs: list[EventSegment]
) -> float:
    """90th percentile of radial velocity over valid fixation samples."""
    n = rec.n_samples
    if len(vel.v_radial) != n:
        raise AlignmentError("velocity trace misaligned with recording")
    values = vel.v_radial[(event_labels(segs, n) == FIXATION) & vel.valid]
    if values.size < MIN_FIXATION_SAMPLES:
        raise InsufficientDataError(
            f"need >= {MIN_FIXATION_SAMPLES} valid fixation samples for the noise threshold, got {values.size}"
        )
    return quantile(values, 0.9)


def _saccade_segs(segs: list[EventSegment]) -> list[EventSegment]:
    sacc = [s for s in segs if s.kind is EventKind.SACCADE]
    if len(sacc) < MIN_SACCADES:
        raise InsufficientDataError(f"need >= {MIN_SACCADES} saccades, got {len(sacc)}")
    return sacc


def pk_vel_dur_ratio_r_md(segs: list[EventSegment]) -> float:
    """Median across saccades of peak radial velocity / duration in ms."""
    sacc = _saccade_segs(segs)
    return quantile([s.props.peak_vel / s.props.duration_ms for s in sacc], 0.5)


def mn_vel_r_md(segs: list[EventSegment]) -> float:
    """Median across saccades of the per-saccade mean radial velocity."""
    return quantile([s.props.mean_vel for s in _saccade_segs(segs)], 0.5)


def data_quality(
    rec: GazeRecording, segs: list[EventSegment]
) -> tuple[float | None, float]:
    """(accuracy, precision) signal-quality pair.

    Accuracy is the mean centroid-to-target distance over target-locked
    fixations (centroid within 2.5 dva of the concurrent target, fixation
    begins at least 100 ms after that target appeared); None when the
    recording has no target log. Precision is RMS sample-to-sample radial
    displacement over fixation samples, diffs never crossing segment edges.
    """
    sq_disp: list[np.ndarray] = []
    offsets: list[float] = []
    have_targets = rec.targets is not None and len(rec.targets) > 0
    for seg in segs:
        if seg.kind is not EventKind.FIXATION:
            continue
        sl = slice(seg.start_idx, seg.end_idx + 1)
        ok = rec.valid[sl]
        x = rec.x[sl][ok]
        y = rec.y[sl][ok]
        if x.size >= 2:
            sq_disp.append(np.diff(x) ** 2 + np.diff(y) ** 2)
        if have_targets and x.size > 0:
            # the target step in effect when the fixation starts
            tgt_idx = int(np.searchsorted(rec.targets[:, 0], seg.start_idx, side="right")) - 1
            if tgt_idx < 0:  # before the first target step
                continue
            tgt_onset, tgt_x, tgt_y = rec.targets[tgt_idx].tolist()
            if seg.start_idx - tgt_onset < TARGET_LOCK_DELAY_MS:
                continue
            cx, cy = float(np.mean(x)), float(np.mean(y))
            dist = float(np.hypot(cx - tgt_x, cy - tgt_y))
            if dist <= TARGET_LOCK_RADIUS_DVA:
                offsets.append(dist)

    if not sq_disp:
        raise InsufficientDataError("no fixation sample pairs for precision")
    precision = float(np.sqrt(np.mean(np.concatenate(sq_disp))))
    if not have_targets:
        return None, precision
    if not offsets:
        raise InsufficientDataError("no target-locked fixations for accuracy")
    return float(np.mean(offsets)), precision


def subject_features(
    rec: GazeRecording, vel: VelocityTrace, segs: list[EventSegment]
) -> SubjectFeatures:
    """Feature bundle for one subject; raises when event counts fall short."""
    accuracy, precision = data_quality(rec, segs)
    return SubjectFeatures(
        subject_id=rec.subject_id,
        fix_noise_thr=fixation_noise_threshold(rec, vel, segs),
        pk_vel_dur_ratio_r_md=pk_vel_dur_ratio_r_md(segs),
        mn_vel_r_md=mn_vel_r_md(segs),
        accuracy_dva=accuracy,
        precision_dva=precision,
    )


FEATURE_COLUMNS = [f.name for f in fields(SubjectFeatures)]

