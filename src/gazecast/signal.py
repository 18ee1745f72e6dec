"""Recording ingestion, validation, and velocity estimation.

Positions are degrees of visual angle (dva), timestamps are integer
milliseconds at a fixed 1000 Hz rate. Velocities are dva/s estimated with a
Savitzky-Golay derivative; any derivative window that overlaps an invalid
(blink / track-loss) sample is itself invalid, and edge samples where the
window does not fit are invalid too. No interpolation is ever performed
across gaps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.signal import savgol_coeffs

from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    EmptyInputError,
    ParseError,
    RateError,
)

RATE_HZ = 1000
MIN_VALID_FOR_EVALUATION = 1000


@dataclass(frozen=True)
class GazeRecording:
    """A single 1000 Hz recording for one subject/session.

    Samples are stored as parallel arrays; ``x``/``y`` hold NaN where
    ``valid`` is False. ``targets`` optionally lists stimulus steps as rows
    of (t_ms, x_dva, y_dva), one row per target change.
    """

    subject_id: str
    session_id: str
    t_ms: np.ndarray
    x: np.ndarray
    y: np.ndarray
    valid: np.ndarray
    targets: np.ndarray | None = None
    rate_hz: int = RATE_HZ

    def __post_init__(self):
        if self.rate_hz != RATE_HZ:
            raise RateError(f"only {RATE_HZ} Hz recordings are supported, got {self.rate_hz}")
        n = len(self.t_ms)
        if n == 0:
            raise EmptyInputError("recording has no samples")
        if not (len(self.x) == len(self.y) == len(self.valid) == n):
            raise AlignmentError("sample arrays have mismatched lengths")
        bad = self.valid & ~(np.isfinite(self.x) & np.isfinite(self.y))
        if bad.any():
            raise DataError(f"sample {int(np.argmax(bad))} is marked valid but its position is not finite")
        steps = np.diff(self.t_ms)
        if n > 1 and not np.all(steps == 1):
            bad = int(np.argmax(steps != 1))
            raise RateError(
                f"timestamps must advance by exactly 1 ms; step of {int(steps[bad])} ms "
                f"after t={int(self.t_ms[bad])}"
            )

    @property
    def n_samples(self) -> int:
        return len(self.t_ms)

    @property
    def n_valid(self) -> int:
        return int(np.count_nonzero(self.valid))

    @property
    def duration_ms(self) -> int:
        return int(self.t_ms[-1] - self.t_ms[0] + 1)

    def target_at(self, t_ms: int) -> tuple[float, float] | None:
        """Target position in effect at time t_ms, or None before the first step."""
        if self.targets is None or len(self.targets) == 0:
            return None
        idx = int(np.searchsorted(self.targets[:, 0], t_ms, side="right")) - 1
        if idx < 0:
            return None
        return float(self.targets[idx, 1]), float(self.targets[idx, 2])


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the CSV columns carrying each field.

    ``validity`` and the target columns are optional. When ``validity`` is
    absent, a sample is valid iff both gaze fields parse to finite floats.
    """

    timestamp: str = "t_ms"
    x: str = "x_dva"
    y: str = "y_dva"
    validity: str | None = None
    target_x: str | None = None
    target_y: str | None = None


@dataclass(frozen=True)
class DiffConfig:
    """Savitzky-Golay differentiator settings.

    ``mode`` selects where in the window the derivative is evaluated:
    "centered" (symmetric, lowest noise, 3-sample lookahead at window 7) or
    "causal" (right-edge evaluation, strictly uses past samples only).
    """

    window: int = 7
    polyorder: int = 2
    mode: str = "centered"

    def __post_init__(self):
        if self.window % 2 == 0 or self.window < 3:
            raise ConfigError(f"SG window must be odd and >= 3, got {self.window}")
        if not 1 <= self.polyorder < self.window:
            raise ConfigError("SG polyorder must satisfy 1 <= order < window")
        if self.mode not in ("centered", "causal"):
            raise ConfigError(f"unknown differentiation mode {self.mode!r}")

    def derivative_coeffs(self) -> np.ndarray:
        """Per-sample derivative taps c such that v[i] = sum_k c[k]·x[i+offsets[k]]."""
        pos = (self.window - 1) // 2 if self.mode == "centered" else self.window - 1
        # savgol_coeffs with use="dot" returns taps aligned oldest-first
        return savgol_coeffs(self.window, self.polyorder, deriv=1, pos=pos, use="dot")

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


def ingest_csv(path, mapping: ColumnMapping, subject_id: str = "", session_id: str = "") -> GazeRecording:
    """Read one recording from a UTF-8 CSV with a header row.

    Rows whose gaze fields are empty, "NaN", or non-finite become
    valid=False samples. Raises ParseError (with row number) on malformed
    rows, RateError on non-1 ms timestamp steps, EmptyInputError on a file
    with no data rows.
    """
    t_list: list[int] = []
    x_list: list[float] = []
    y_list: list[float] = []
    valid_list: list[bool] = []
    tgt_rows: list[tuple[int, float, float]] = []

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyInputError(f"{path}: empty file")
        for col in (mapping.timestamp, mapping.x, mapping.y):
            if col not in reader.fieldnames:
                raise ParseError(f"{path}: missing column {col!r}", row=1)
        for rownum, row in enumerate(reader, start=2):
            raw_t = row.get(mapping.timestamp)
            if raw_t is None or raw_t.strip() == "":
                raise ParseError(f"{path}: missing timestamp", row=rownum)
            try:
                t = int(raw_t)
            except ValueError:
                raise ParseError(f"{path}: bad timestamp {raw_t!r}", row=rownum) from None
            try:
                x = _parse_float(row.get(mapping.x, ""))
                y = _parse_float(row.get(mapping.y, ""))
            except ValueError as exc:
                raise ParseError(f"{path}: bad gaze value ({exc})", row=rownum) from None
            ok = math.isfinite(x) and math.isfinite(y)
            if ok and mapping.validity is not None:
                flag = (row.get(mapping.validity) or "").strip().lower()
                ok = flag in ("1", "true", "t", "yes", "valid")
            t_list.append(t)
            x_list.append(x if ok else math.nan)
            y_list.append(y if ok else math.nan)
            valid_list.append(ok)
            if mapping.target_x and mapping.target_y:
                try:
                    tx = _parse_float(row.get(mapping.target_x, ""))
                    ty = _parse_float(row.get(mapping.target_y, ""))
                except ValueError:
                    tx = ty = math.nan
                if math.isfinite(tx) and math.isfinite(ty):
                    if not tgt_rows or (tgt_rows[-1][1], tgt_rows[-1][2]) != (tx, ty):
                        tgt_rows.append((t, tx, ty))

    if not t_list:
        raise EmptyInputError(f"{path}: no data rows")
    targets = np.array(tgt_rows, dtype=float) if tgt_rows else None
    return GazeRecording(
        subject_id=subject_id or str(path),
        session_id=session_id,
        t_ms=np.asarray(t_list, dtype=np.int64),
        x=np.asarray(x_list, dtype=float),
        y=np.asarray(y_list, dtype=float),
        valid=np.asarray(valid_list, dtype=bool),
        targets=targets,
    )


def export_csv(rec: GazeRecording, path, mapping: ColumnMapping = ColumnMapping()) -> None:
    """Write a recording in the same CSV dialect ingest_csv reads.

    Valid rows round-trip bit-exactly (floats are written with repr).
    Invalid samples are written with empty gaze fields.
    """
    tgt = rec.targets
    write_targets = tgt is not None and mapping.target_x and mapping.target_y
    header = [mapping.timestamp, mapping.x, mapping.y]
    if write_targets:
        header += [mapping.target_x, mapping.target_y]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(rec.n_samples):
            t = int(rec.t_ms[i])
            if rec.valid[i]:
                row = [t, repr(float(rec.x[i])), repr(float(rec.y[i]))]
            else:
                row = [t, "", ""]
            if write_targets:
                at = rec.target_at(t)
                row += ["", ""] if at is None else [repr(at[0]), repr(at[1])]
            writer.writerow(row)


def compute_velocity(rec: GazeRecording, cfg: DiffConfig = DiffConfig()) -> VelocityTrace:
    """Savitzky-Golay first derivative of gaze position, in dva/s.

    Windows overlapping any invalid sample yield invalid velocity, as do
    edge samples where the window does not fit.
    """
    n = rec.n_samples
    if cfg.window > n:
        raise ConfigError(f"SG window {cfg.window} larger than recording ({n} samples)")

    c = cfg.derivative_coeffs() * 1000.0  # per-ms taps -> dva/s
    w = cfg.window
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
    session_id: str = "S1",
    t0_ms: int = 0,
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
    t = t0_ms + np.arange(len(x), dtype=np.int64)
    return GazeRecording(
        subject_id=subject_id,
        session_id=session_id,
        t_ms=t,
        x=x,
        y=y,
        valid=valid_arr,
        targets=targets,
    )
