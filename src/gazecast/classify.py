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

Both passes read the same module constants: a seed needs a velocity above
100 dva/s and grows while it stays at or above 20 dva/s; a grown run is a
saccade if it lasts 6 to 150 ms and Other otherwise; a fixation needs at
least 40 ms. A saccade of 10 dva or more is "large".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signal import GazeRecording, VelocityTrace, check_trace

PEAK_THRESHOLD = 100.0  # dva/s
ONSET_OFFSET_THRESHOLD = 20.0  # dva/s
MIN_SACCADE_MS = 6
MAX_SACCADE_MS = 150
MIN_FIXATION_MS = 40
SMALL_LARGE_SPLIT_DVA = 10.0  # a saccade at least this large is "large"


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


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and exclusive ends of the maximal runs where mask is True."""
    padded = np.concatenate(([False], mask, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return edges[0::2], edges[1::2]


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
            )
        segments.append(EventSegment(kind=kind, start_idx=int(s), end_idx=int(e), props=props))
    return segments


def classify_events(rec: GazeRecording, vel: VelocityTrace) -> list[EventSegment]:
    """Segment a recording into Fixation / Saccade / Blink / Other."""
    check_trace(rec, vel)
    n = rec.n_samples
    labels = np.full(n, UNLABELED, dtype=np.int8)
    labels[~rec.valid] = BLINK

    v = vel.v_radial
    seeds = vel.valid & (v > PEAK_THRESHOLD)
    grow = vel.valid & (v >= ONSET_OFFSET_THRESHOLD)

    # only the grow runs that hold a seed are visited: cs[k] counts the
    # seeds before sample k
    starts, ends = _runs(grow)
    cs = np.concatenate(([0], np.cumsum(seeds)))
    seeded = cs[ends] > cs[starts]
    for start, end in zip(starts[seeded].tolist(), ends[seeded].tolist()):
        dur = end - start
        labels[start:end] = SACCADE if MIN_SACCADE_MS <= dur <= MAX_SACCADE_MS else OTHER

    starts, ends = _runs(labels == UNLABELED)
    for start, end in zip(starts.tolist(), ends.tolist()):
        labels[start:end] = FIXATION if end - start >= MIN_FIXATION_MS else OTHER

    return segments_from_labels(labels, rec.x, rec.y, v)


def event_labels(segs: list[EventSegment], n: int) -> np.ndarray:
    """Per-sample int8 label codes expanded from segments.

    A saccade whose amplitude is at least SMALL_LARGE_SPLIT_DVA is
    LARGE_SACCADE; other saccades, including any without props, are SACCADE.
    Samples that no segment covers stay UNLABELED.
    """
    out = np.full(n, UNLABELED, dtype=np.int8)
    for seg in segs:
        code = _CODE_OF[seg.kind]
        if seg.props is not None and code == SACCADE and seg.props.amplitude_dva >= SMALL_LARGE_SPLIT_DVA:
            code = LARGE_SACCADE
        out[seg.start_idx : seg.end_idx + 1] = code
    return out


def causal_saccade_mask(rec: GazeRecording, vel: VelocityTrace) -> np.ndarray:
    """Per-sample saccade flags of an online hysteresis labeler.

    A sample whose velocity is above the peak threshold switches the
    saccade state on; one whose velocity is below the onset/offset
    threshold, or an invalid sample, switches it off. Any other sample,
    including one without a velocity estimate, keeps the state, which
    starts off. So each flag is whether the latest switch at or before the
    sample turned the state on: it depends only on samples <= t. The
    velocity trace must be causal for that to hold.
    """
    check_trace(rec, vel, "the online labeler")
    n = rec.n_samples
    v = vel.v_radial
    on = rec.valid & vel.valid & (v > PEAK_THRESHOLD)
    off = ~rec.valid | (vel.valid & (v < ONSET_OFFSET_THRESHOLD))
    latest = np.maximum.accumulate(np.where(on | off, np.arange(n), -1))
    return (latest >= 0) & on[latest]

