"""Recording ingestion, validation, and velocity estimation.

Positions are degrees of visual angle (dva) sampled at a fixed 1000 Hz, so
a recording holds no clock: sample ``i`` is at ``i`` ms. Velocities are
dva/s estimated with a fixed 7-sample, order-2 Savitzky-Golay derivative
whose taps are stored as constants; any derivative window that overlaps an
invalid (blink / track-loss) sample is itself invalid, and edge samples
where the window does not fit are invalid too. No interpolation is ever
performed across gaps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyInputError,
    ParseError,
    RateError,
)

SG_WINDOW = 7
SG_POLYORDER = 2


def _taps(*values: float) -> np.ndarray:
    taps = np.array(values)
    taps.flags.writeable = False
    return taps


# Per-ms derivative taps of the order-2 fit over a 7-sample window, oldest
# sample first: the exact float64 values of scipy.signal.savgol_coeffs(7, 2,
# deriv=1, pos=3 | 6, use="dot"). The centered set is k/28 up to rounding.
CENTERED_TAPS = _taps(
    -0.10714285714285723,
    -0.07142857142857136,
    -0.035714285714285546,
    2.1251522528685812e-16,
    0.0357142857142859,
    0.07142857142857155,
    0.10714285714285711,
)
CAUSAL_TAPS = _taps(
    0.25000000000000033,
    -0.07142857142857159,
    -0.25000000000000017,
    -0.2857142857142859,
    -0.1785714285714283,
    0.0714285714285717,
    0.464285714285715,
)


@dataclass(frozen=True)
class GazeRecording:
    """A single 1000 Hz recording for one subject; sample ``i`` is at ``i`` ms.

    Samples are stored as parallel arrays; ``x``/``y`` hold NaN where
    ``valid`` is False. ``targets`` optionally lists stimulus steps as rows
    of (sample index, x_dva, y_dva), one row per target change.
    """

    subject_id: str
    x: np.ndarray
    y: np.ndarray
    valid: np.ndarray
    targets: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.x)
        if n == 0:
            raise EmptyInputError("recording has no samples")
        if not (len(self.y) == len(self.valid) == n):
            raise AlignmentError("sample arrays have mismatched lengths")
        if not (isinstance(self.valid, np.ndarray) and self.valid.dtype == bool):
            got = getattr(self.valid, "dtype", type(self.valid).__name__)
            raise DataError(f"valid must be a bool array, got {got}")
        bad = self.valid & ~(np.isfinite(self.x) & np.isfinite(self.y))
        if bad.any():
            raise DataError(f"sample {int(np.argmax(bad))} is marked valid but its position is not finite")

    @property
    def n_samples(self) -> int:
        return len(self.x)

    @property
    def duration_ms(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the CSV columns carrying each field.

    ``validity`` and the target columns are optional; the two target
    columns are named together or not at all. When ``validity`` is absent,
    a sample is valid iff both gaze fields parse to finite floats.
    """

    timestamp: str = "t_ms"
    x: str = "x_dva"
    y: str = "y_dva"
    validity: str | None = None
    target_x: str | None = None
    target_y: str | None = None

    def __post_init__(self):
        if (self.target_x is None) != (self.target_y is None):
            raise ConfigError("target_x and target_y must be named together")


@dataclass(frozen=True)
class DiffConfig:
    """Savitzky-Golay differentiator settings.

    ``mode`` selects where in the window the derivative is evaluated:
    "centered" (symmetric, lowest noise, 3-sample lookahead) or "causal"
    (right-edge evaluation, strictly uses past samples only).
    """

    mode: str = "centered"

    def __post_init__(self):
        if self.mode not in ("centered", "causal"):
            raise ConfigError(f"unknown differentiation mode {self.mode!r}")

    def derivative_coeffs(self) -> np.ndarray:
        """Read-only per-ms derivative taps over the window, oldest sample first."""
        return CENTERED_TAPS if self.mode == "centered" else CAUSAL_TAPS

    def noise_gain(self) -> float:
        """Std of the dva/s velocity estimate per unit of white position noise."""
        c = self.derivative_coeffs()
        return float(np.sqrt(np.sum(c * c))) * 1000.0


@dataclass(frozen=True)
class VelocityTrace:
    """Per-sample velocity estimates aligned 1:1 with a recording.

    Entries are NaN wherever the derivative window overlapped an invalid
    sample or ran off the recording edge; ``valid`` flags the rest.
    """

    vx: np.ndarray
    vy: np.ndarray
    v_radial: np.ndarray
    valid: np.ndarray
    cfg: DiffConfig = field(default=DiffConfig(), compare=False)

    def __post_init__(self):
        if not (len(self.vx) == len(self.vy) == len(self.v_radial) == len(self.valid)):
            raise AlignmentError("velocity arrays have mismatched lengths")


def _parse_float(text: str) -> float:
    text = text.strip()
    if not text:
        return math.nan
    return float(text)


def ingest_csv(path, mapping: ColumnMapping, subject_id: str = "") -> GazeRecording:
    """Read one recording from a UTF-8 CSV with a header row.

    The timestamps must advance by exactly 1 ms and are not stored: the
    first row becomes sample 0, and target onsets become sample indices.
    Rows whose gaze fields are empty, "NaN", or non-finite become
    valid=False samples; a row whose target fields are empty or non-finite
    logs no target step. Raises ParseError (with row number) on a missing
    column or a malformed row, RateError (with row number) on a timestamp
    step other than 1 ms, EmptyInputError on a file with no data rows.
    """
    t_first = t_prev = None
    x_list: list[float] = []
    y_list: list[float] = []
    valid_list: list[bool] = []
    tgt_rows: list[tuple[int, float, float]] = []

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path}: empty file")
        named = (mapping.timestamp, mapping.x, mapping.y, mapping.validity, mapping.target_x, mapping.target_y)
        for col in named:
            if col is not None and col not in reader.fieldnames:
                raise ParseError(f"{path}: missing column {col!r}", row=1)
        for rownum, row in enumerate(reader, start=2):
            if None in row:  # DictReader keeps a long row's extra fields under the key None
                raise ParseError(f"{path}: row has more fields than the header", row=rownum)
            if None in row.values():  # and fills a short row's missing fields with None
                raise ParseError(f"{path}: row has fewer fields than the header", row=rownum)
            raw_t = row[mapping.timestamp]
            if raw_t.strip() == "":
                raise ParseError(f"{path}: missing timestamp", row=rownum)
            try:
                t = int(raw_t)
            except ValueError:
                raise ParseError(f"{path}: bad timestamp {raw_t!r}", row=rownum) from None
            if t_prev is None:
                t_first = t
            elif t - t_prev != 1:
                raise RateError(
                    f"{path}: timestamps must advance by exactly 1 ms; "
                    f"step of {t - t_prev} ms after t={t_prev} (row {rownum})"
                )
            t_prev = t
            try:
                x = _parse_float(row[mapping.x])
                y = _parse_float(row[mapping.y])
            except ValueError as exc:
                raise ParseError(f"{path}: bad gaze value ({exc})", row=rownum) from None
            ok = math.isfinite(x) and math.isfinite(y)
            if ok and mapping.validity is not None:
                flag = row[mapping.validity].strip().lower()
                ok = flag in ("1", "true", "t", "yes", "valid")
            x_list.append(x if ok else math.nan)
            y_list.append(y if ok else math.nan)
            valid_list.append(ok)
            if mapping.target_x is not None:
                try:
                    tx = _parse_float(row[mapping.target_x])
                    ty = _parse_float(row[mapping.target_y])
                except ValueError as exc:
                    raise ParseError(f"{path}: bad target value ({exc})", row=rownum) from None
                if math.isfinite(tx) and math.isfinite(ty):
                    if not tgt_rows or (tgt_rows[-1][1], tgt_rows[-1][2]) != (tx, ty):
                        tgt_rows.append((t - t_first, tx, ty))

    if t_first is None:
        raise EmptyInputError(f"{path}: no data rows")
    targets = np.array(tgt_rows, dtype=float) if tgt_rows else None
    return GazeRecording(
        subject_id=subject_id or str(path),
        x=np.asarray(x_list, dtype=float),
        y=np.asarray(y_list, dtype=float),
        valid=np.asarray(valid_list, dtype=bool),
        targets=targets,
    )


def compute_velocity(rec: GazeRecording, cfg: DiffConfig = DiffConfig()) -> VelocityTrace:
    """Savitzky-Golay first derivative of gaze position, in dva/s.

    Windows overlapping any invalid sample yield invalid velocity, as do
    edge samples where the window does not fit.
    """
    n = rec.n_samples
    w = SG_WINDOW
    if w > n:
        raise ConfigError(f"SG window {w} larger than recording ({n} samples)")

    c = cfg.derivative_coeffs() * 1000.0  # per-ms taps -> dva/s
    # taps are aligned oldest-first over offsets [i-left, i-left+w)
    left = (w - 1) // 2 if cfg.mode == "centered" else w - 1

    x = np.where(rec.valid, rec.x, 0.0)
    y = np.where(rec.valid, rec.y, 0.0)
    # "valid" convolution: entry j covers input window [j, j+w)
    vx_core = np.convolve(x, c[::-1], mode="valid")
    vy_core = np.convolve(y, c[::-1], mode="valid")
    ok_core = np.convolve(rec.valid.astype(float), np.ones(w), mode="valid") == w

    vx = np.full(n, np.nan)
    vy = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    # window starting at j produces the estimate for sample j+left
    lo, hi = left, left + (n - w + 1)
    vx[lo:hi] = vx_core
    vy[lo:hi] = vy_core
    ok[lo:hi] = ok_core
    vx[~ok] = np.nan
    vy[~ok] = np.nan
    v_radial = np.hypot(vx, vy)
    return VelocityTrace(vx=vx, vy=vy, v_radial=v_radial, valid=ok, cfg=cfg)


def recording_from_arrays(
    subject_id: str,
    x: Sequence[float],
    y: Sequence[float],
    valid: Sequence[bool] | None = None,
    targets: np.ndarray | None = None,
) -> GazeRecording:
    """Convenience constructor used by the generator and by tests."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if valid is None:
        valid_arr = np.isfinite(x) & np.isfinite(y)
    else:
        valid_arr = np.asarray(valid, dtype=bool)
    x = np.where(valid_arr, x, np.nan)
    y = np.where(valid_arr, y, np.nan)
    return GazeRecording(
        subject_id=subject_id,
        x=x,
        y=y,
        valid=valid_arr,
        targets=targets,
    )
