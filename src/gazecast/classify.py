"""Velocity-threshold event segmentation.

A two-threshold seed-and-expand pass over radial velocity: runs exceeding
the peak threshold seed saccades, each seed grows outward while velocity
stays at or above the onset/offset threshold, and duration limits weed out
spikes and drifts. Invalid samples become blinks; what remains is fixation
when long enough, Other when not. Every sample ends up in exactly one
segment and segments tile the recording in order.

That pass looks ahead, since a seed's extent depends on later samples.
``causal_saccade_mask`` is the online counterpart the OPKF switches its
regime on: a hysteresis between the same two thresholds whose flag at
sample t depends only on samples <= t.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AlignmentError, ConfigError, InsufficientDataError
from .signal import GazeRecording, VelocityTrace

SMALL_LARGE_SPLIT_DVA = 10.0


class EventKind(str, Enum):
    FIXATION = "Fixation"
    SACCADE = "Saccade"
    BLINK = "Blink"
    OTHER = "Other"


@dataclass(frozen=True)
class SaccadeProps:
    amplitude_dva: float
    duration_ms: int
    peak_vel: float
    mean_vel: float
    sample_count: int


# per-sample label codes: classify_events labels samples in these before it
# builds segments, and event_labels expands segments back into them
UNLABELED, FIXATION, SACCADE, BLINK, OTHER, LARGE_SACCADE = -1, 0, 1, 2, 3, 4
_CODE_OF = {
    EventKind.FIXATION: FIXATION,
    EventKind.SACCADE: SACCADE,
    EventKind.BLINK: BLINK,
    EventKind.OTHER: OTHER,
}


@dataclass(frozen=True)
class EventSegment:
    kind: EventKind
    start_idx: int
    end_idx: int
    props: SaccadeProps | None = None

    @property
    def n_samples(self) -> int:
        return self.end_idx - self.start_idx + 1


@dataclass(frozen=True)
class ClassifierConfig:
    peak_threshold: float = 100.0
    onset_offset_threshold: float = 20.0
    min_saccade_ms: int = 6
    min_fixation_ms: int = 40
    max_saccade_ms: int = 150

    def __post_init__(self):
        if not self.peak_threshold > self.onset_offset_threshold > 0:
            raise ConfigError(
                "thresholds must satisfy peak > onset/offset > 0, got "
                f"{self.peak_threshold} / {self.onset_offset_threshold}"
            )
        if self.min_saccade_ms < 1 or self.min_fixation_ms < 1:
            raise ConfigError("minimum durations must be >= 1 ms")
        if self.max_saccade_ms < self.min_saccade_ms:
            raise ConfigError("max_saccade_ms must be >= min_saccade_ms")


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end] index runs where mask is True."""
    if mask.size == 0:
        return []
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return [(int(edges[i]), int(edges[i + 1]) - 1) for i in range(0, edges.size, 2)]


def segments_from_labels(
    labels: np.ndarray, x: np.ndarray, y: np.ndarray, v: np.ndarray
) -> list[EventSegment]:
    """Segments over the runs of equal per-sample label codes.

    Every sample needs a FIXATION, SACCADE, BLINK or OTHER code. A saccade
    segment carries its amplitude from ``x`` and ``y`` and its peak and
    mean speed from ``v``.
    """
    kind_of = {code: kind for kind, code in _CODE_OF.items()}
    boundaries = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries - 1, [len(labels) - 1]))
    segments: list[EventSegment] = []
    for s, e in zip(starts, ends):
        kind = kind_of[int(labels[s])]
        props = None
        if kind is EventKind.SACCADE:
            seg_v = v[s : e + 1]
            props = SaccadeProps(
                amplitude_dva=float(np.hypot(x[e] - x[s], y[e] - y[s])),
                duration_ms=int(e - s + 1),
                peak_vel=float(np.max(seg_v)),
                mean_vel=float(np.mean(seg_v)),
                sample_count=int(e - s + 1),
            )
        segments.append(EventSegment(kind=kind, start_idx=int(s), end_idx=int(e), props=props))
    return segments


def classify_events(
    rec: GazeRecording,
    vel: VelocityTrace,
    cfg: ClassifierConfig = ClassifierConfig(),
) -> list[EventSegment]:
    """Segment a recording into Fixation / Saccade / Blink / Other."""
    n = rec.n_samples
    if len(vel.v_radial) != n:
        raise AlignmentError(f"velocity trace has {len(vel.v_radial)} entries for {n} samples")

    labels = np.full(n, UNLABELED, dtype=np.int8)
    labels[~rec.valid] = BLINK

    v = vel.v_radial
    seeds = vel.valid & (v > cfg.peak_threshold)
    grow = vel.valid & (v >= cfg.onset_offset_threshold)

    for start, end in _runs(grow):
        if not seeds[start : end + 1].any():
            continue
        dur = end - start + 1
        labels[start : end + 1] = SACCADE if cfg.min_saccade_ms <= dur <= cfg.max_saccade_ms else OTHER

    for start, end in _runs(labels == UNLABELED):
        dur = end - start + 1
        labels[start : end + 1] = FIXATION if dur >= cfg.min_fixation_ms else OTHER

    return segments_from_labels(labels, rec.x, rec.y, v)


def saccade_class(amplitude_dva: float) -> str:
    """Amplitude split used throughout the evaluation: >= 10 dva is 'large'."""
    return "large" if amplitude_dva >= SMALL_LARGE_SPLIT_DVA else "small"


def event_labels(segs: list[EventSegment], n: int) -> np.ndarray:
    """Per-sample int8 label codes expanded from segments.

    A saccade whose amplitude ``saccade_class`` calls "large" is
    LARGE_SACCADE; other saccades, including any without props, are SACCADE.
    Samples that no segment covers stay UNLABELED.
    """
    out = np.full(n, UNLABELED, dtype=np.int8)
    for seg in segs:
        code = _CODE_OF[seg.kind]
        if seg.props is not None and code == SACCADE and saccade_class(seg.props.amplitude_dva) == "large":
            code = LARGE_SACCADE
        out[seg.start_idx : seg.end_idx + 1] = code
    return out


def fixation_noise_threshold(
    rec: GazeRecording, vel: VelocityTrace, segs: list[EventSegment]
) -> float:
    """90th percentile of radial velocity over valid fixation samples."""
    n = rec.n_samples
    if len(vel.v_radial) != n:
        raise AlignmentError("velocity trace misaligned with recording")
    values = vel.v_radial[(event_labels(segs, n) == FIXATION) & vel.valid]
    if values.size < 100:
        raise InsufficientDataError(
            f"need >= 100 valid fixation samples for the noise threshold, got {values.size}"
        )
    from .metrics import quantile  # deferred: metrics consumes this module's segments

    return quantile(values, 0.9)


def causal_saccade_mask(
    rec: GazeRecording, vel: VelocityTrace, cfg: ClassifierConfig = ClassifierConfig()
) -> np.ndarray:
    """Per-sample saccade flags of an online hysteresis labeler.

    A sample whose velocity is above the peak threshold switches the
    saccade state on; one whose velocity is below the onset/offset
    threshold, or an invalid sample, switches it off. Any other sample,
    including one without a velocity estimate, keeps the state, which
    starts off. So each flag is whether the latest switch at or before the
    sample turned the state on: it depends only on samples <= t. The
    velocity trace must be causal for that to hold.
    """
    n = rec.n_samples
    if len(vel.v_radial) != n:
        raise AlignmentError(f"velocity trace has {len(vel.v_radial)} entries for {n} samples")
    if vel.cfg.mode != "causal":
        raise ConfigError(f"the online labeler needs a causal velocity trace, got mode {vel.cfg.mode!r}")
    v = vel.v_radial
    on = rec.valid & vel.valid & (v > cfg.peak_threshold)
    off = ~rec.valid | (vel.valid & (v < cfg.onset_offset_threshold))
    latest = np.maximum.accumulate(np.where(on | off, np.arange(n), -1))
    return (latest >= 0) & on[latest]

