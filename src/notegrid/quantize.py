"""Conversion of continuous-time annotations into framewise label matrices.

Six labeling functions map a continuous [onset, offset) interval to a pair
of discrete frame indices, differing in how they round and whether they
add a random +-1 frame shift:

    a  round both boundaries to the nearest frame (half-up)
    b  ceil both boundaries
    c  floor both boundaries
    d  floor the onset, end at floored onset plus floored duration
    e  like a, then shift both indices jointly by one draw from {-1, 0, 1}
    f  like a, then shift onset and offset by two independent draws

Functions a-d are deterministic; e and f take an array of shifts drawn
from a seeded stream, so every conversion is reproducible from a seed. A
quantized boundary also records its signed quantization error in
seconds, measured before any clamping or random shift.

All time arithmetic is plain 64-bit floating point with no epsilon
nudging before floor/ceil/round; the systematic-error measurements in
this package depend on the rounding behavior staying untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import NamedTuple

import numpy as np

from .annotation import Annotation
from .errors import ContractError
from .util import MASK64, derive_seed, splitmix64


class LabelingFunction(Enum):
    """The six interval-to-frame-index conversion schemes."""

    A = "a"
    B = "b"
    C = "c"
    D = "d"
    E = "e"
    F = "f"

    @property
    def letter(self) -> str:
        return self.value

    @property
    def is_random(self) -> bool:
        return self in (LabelingFunction.E, LabelingFunction.F)

    @property
    def shifts_per_interval(self) -> int:  # e: one joint shift; f: onset, offset
        return {"e": 1, "f": 2}.get(self.value, 0)

    @classmethod
    def from_letter(cls, letter: str) -> "LabelingFunction":
        try:
            return cls(letter.lower())
        except ValueError:
            raise ContractError(f"unknown labeling function {letter!r}, expected a-f") from None


class ShiftStream:
    """Counter-based stream of uniform draws from {-1, 0, 1}.

    Seeded by (seed, labeling function), so distinct functions never share
    draws and a rasterization is reproducible from its seed alone. The
    underlying generator hashes an incrementing 64-bit counter with
    splitmix64; 2**64 % 3 == 1, so exactly one output value is rejected to
    keep the three shifts exactly uniform.
    """

    def __init__(self, seed: int, fn: LabelingFunction):
        # the function's position in "abcdef" is its stable stream identifier
        self._counter = derive_seed(seed, "abcdef".index(fn.letter))

    def draws(self, n: int) -> np.ndarray:
        """The next n draws as an int64 array, from n + 1 counters hashed
        at once. splitmix64 is a bijection, so only counter 0x31628af67b2131ab
        hashes to the rejected 2**64 - 1; it is dropped if among them."""
        z = splitmix64(np.uint64(self._counter) + np.arange(n + 1, dtype=np.uint64))
        kept = z != MASK64
        self._counter = (self._counter + n + int(not kept[:n].all())) & MASK64
        return (z[kept][:n] % 3).astype(np.int64) - 1


def seeded_shifts(fn: LabelingFunction, seed: int, num_intervals: int) -> np.ndarray | None:
    """quantize's shifts for num_intervals intervals from the (seed, fn) stream; None for a-d."""
    n = fn.shifts_per_interval * num_intervals
    return ShiftStream(seed, fn).draws(n) if fn.is_random else None


@dataclass(frozen=True)
class FrameGrid:
    """A frame rate and a frame count; the discretization target.

    dt is derived as 1/fps, so the dt*fps == 1 invariant holds to float
    precision by construction.
    """

    fps: float
    num_frames: int

    def __post_init__(self):
        if not (self.fps > 0 and math.isfinite(self.fps)):
            raise ContractError(f"fps must be positive and finite, got {self.fps}")
        if self.num_frames < 1:
            raise ContractError(f"num_frames must be >= 1, got {self.num_frames}")

    @property
    def dt(self) -> float:
        """Seconds per frame."""
        return 1.0 / self.fps

    @property
    def duration_sec(self) -> float:
        return self.num_frames * self.dt

    @classmethod
    def covering(cls, fps: float, seconds: float) -> "FrameGrid":
        """Smallest grid at the given rate whose frames span `seconds`."""
        if not (fps > 0 and math.isfinite(fps)):
            raise ContractError(f"fps must be positive and finite, got {fps}")
        if not math.isfinite(seconds * fps):
            raise ContractError(f"cannot cover {seconds} s at {fps} fps: not finite")
        return cls(fps=fps, num_frames=max(1, math.ceil(seconds * fps)))


@dataclass(frozen=True, eq=False)
class LabelMatrix:
    """Binary frames-by-labels activity matrix tied to its FrameGrid.

    labeling_function and seed record how the matrix was produced, when
    known; they let disagreement analysis re-derive per-event indices.
    Matrices produced by other means (predictions, resampling) carry None.
    """

    frames: np.ndarray
    grid: FrameGrid
    labeling_function: LabelingFunction | None = None
    seed: int | None = None

    def __post_init__(self):
        frames = np.ascontiguousarray(self.frames, dtype=np.uint8)
        if frames.ndim != 2:
            raise ContractError(f"frames must be 2-D, got shape {frames.shape}")
        if frames.shape[0] != self.grid.num_frames:
            raise ContractError(
                f"frames has {frames.shape[0]} rows but grid expects {self.grid.num_frames}")
        if frames.size and frames.max() > 1:
            raise ContractError("frames must contain only 0 and 1")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_labels(self) -> int:
        return self.frames.shape[1]


class QuantizedArrays(NamedTuple):
    """Discrete [t_s, t_e) frame indices of intervals, plus diagnostics.

    Each field holds one entry per interval: an array from quantize, a
    Python scalar from quantize_interval. eps_s and eps_e are the signed
    rounding errors in seconds (quantized boundary time minus true
    boundary time), taken before clamping and before any random shift.
    `clamped` marks intervals whose shifted start or end fell below frame
    0; `degenerate` marks intervals that quantized to zero or negative
    length and therefore activate no frames.
    """

    t_s: np.ndarray
    t_e: np.ndarray
    eps_s: np.ndarray
    eps_e: np.ndarray
    clamped: np.ndarray
    degenerate: np.ndarray


def quantize(fn: LabelingFunction, onsets, offsets, dt: float,
             shifts: np.ndarray | None = None) -> QuantizedArrays:
    """Map continuous intervals [onsets[i], offsets[i]) to frame indices.

    `shifts` must be given for the random functions e and f only: exactly
    one integer per interval for e (a joint shift), and for f an onset
    shift, then an offset shift, in interval order. Negative indices after
    shifting clamp to zero.
    """
    onsets = np.asarray(onsets, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if onsets.ndim != 1 or onsets.shape != offsets.shape:
        raise ContractError(f"onsets {onsets.shape} and offsets {offsets.shape} differ or not 1-D")
    if not (dt > 0 and math.isfinite(dt)):
        raise ContractError(f"dt must be positive and finite, got {dt}")
    if fn.is_random != (shifts is not None):
        raise ContractError(f"labeling function {fn.letter} takes shifts "
                            "if and only if it is random (e, f)")
    # a NaN fails every comparison, so it fails this check too
    bad = ~((onsets >= 0) & (offsets > onsets) & np.isfinite(offsets))
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"interval {i} [{onsets[i]}, {offsets[i]}): "
                            "times must be finite with 0 <= onset < offset")

    x_s = onsets / dt
    x_e = offsets / dt
    # below 2**52 every index, and d's sum of two, is exact in float64
    if x_e.size and x_e.max() >= 2.0 ** 52:
        raise ContractError(f"offset {offsets.max()} is too many frames of {dt} s to index")
    if fn is LabelingFunction.B:
        t_s, t_e = np.ceil(x_s), np.ceil(x_e)
    elif fn is LabelingFunction.C:
        t_s, t_e = np.floor(x_s), np.floor(x_e)
    elif fn is LabelingFunction.D:
        t_s = np.floor(x_s)
        t_e = t_s + np.floor((offsets - onsets) / dt)
    else:  # a, and the base for e and f: round half up
        t_s, t_e = np.floor(x_s + 0.5), np.floor(x_e + 0.5)
    t_s = t_s.astype(np.int64)
    t_e = t_e.astype(np.int64)

    # errors of the pre-shift, pre-clamp indices
    eps_s = t_s * dt - onsets
    eps_e = t_e * dt - offsets

    if fn.is_random:
        per_interval = fn.shifts_per_interval
        shifts = np.asarray(shifts)
        if shifts.shape != (len(onsets) * per_interval,) or not np.can_cast(shifts, np.int64):
            raise ContractError(f"labeling function {fn.letter} takes {per_interval} integer "
                                f"shift(s) per interval, got {shifts.dtype} {shifts.shape} "
                                f"for {len(onsets)} intervals")
        # e's one column shifts both boundaries; f has an onset and an offset column
        shifts = shifts.reshape(-1, per_interval)
        t_s += shifts[:, 0]
        t_e += shifts[:, -1]

    clamped = (t_s < 0) | (t_e < 0)
    np.maximum(t_s, 0, out=t_s)
    np.maximum(t_e, 0, out=t_e)
    return QuantizedArrays(t_s, t_e, eps_s, eps_e, clamped, t_e <= t_s)


def quantize_interval(fn: LabelingFunction, onset_sec: float, offset_sec: float,
                      dt: float, shifts: np.ndarray | None = None) -> QuantizedArrays:
    """Map one continuous interval to frame indices: quantize for one
    interval, with Python-scalar fields."""
    q = quantize(fn, [onset_sec], [offset_sec], dt, shifts)
    return QuantizedArrays(*(field.item() for field in q))


# The most cells a label matrix may have: 2**31 uint8 cells is 2 GiB, or
# about 67 h of 88 labels at 100 fps. _parts, behind the one painter of
# rasterize and render_features and behind noise_ceiling, checks it before
# anything is allocated or counted.
MAX_LABEL_CELLS = 2 ** 31


def _parts(num_frames: int, num_labels: int, starts, ends, labels
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frames [starts[i], ends[i]) of label labels[i], clipped to the
    grid and cut into sorted, disjoint [lo, hi) parts of one line, on
    which frame t of label k sits at k * (num_frames + 1) + t; returns
    (lo, hi, label) int64 arrays, one entry per non-empty part.

    Bounds may be integers or whole-valued floats. A grid of more than
    MAX_LABEL_CELLS cells raises ContractError, as do labels outside
    [0, num_labels) and non-finite bounds.
    """
    if int(num_frames) * int(num_labels) > MAX_LABEL_CELLS:
        frames = num_frames if num_frames < 2 ** 64 else f"{Decimal(num_frames):.3g}"
        raise ContractError(
            f"a label matrix of {frames} frames x {num_labels} labels exceeds "
            f"the budget of {MAX_LABEL_CELLS} cells")
    labels = np.asarray(labels, dtype=np.int64)
    outside = (labels < 0) | (labels >= num_labels)
    if outside.any():
        raise ContractError(
            f"event label {labels[np.argmax(outside)]} outside [0, {num_labels})")
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        raise ContractError("range bounds must be finite")
    lo = np.clip(starts, 0, num_frames).astype(np.int64)
    hi = np.clip(ends, lo, num_frames).astype(np.int64)
    # The stretch of label k ends at frame num_frames, one before the next
    # label's starts, so no range reaches into another label's. Sorted by
    # start, the parts of the ranges past every earlier range's end are
    # disjoint and cover what the ranges cover.
    base = labels * (num_frames + 1)
    order = np.argsort(base + lo, kind="stable")
    label, lo, hi = labels[order], (base + lo)[order], (base + hi)[order]
    reached = np.maximum.accumulate(np.concatenate(([0], hi))[:-1])
    lo = np.maximum(lo, reached)
    hi = np.maximum(hi, reached)
    part = lo < hi
    return lo[part], hi[part], label[part]


def paint_ranges(num_frames: int, num_labels: int, starts, ends, labels) -> np.ndarray:
    """A uint8 frames-by-labels matrix with frames [starts[i], ends[i]) of
    column labels[i] set to 1.

    Ranges are clipped to the grid, empty ones paint nothing, and
    overlapping ones of the same label OR together. Bounds may be integers
    or whole-valued floats. A matrix of more than MAX_LABEL_CELLS cells
    raises ContractError.
    """
    lo, hi, label = _parts(num_frames, num_labels, starts, ends, labels)
    # Toggling a cell at each disjoint part's start and end, then XOR-ing
    # down each column, gives the 0/1 coverage without allocating anything
    # wider than the matrix.
    span = num_frames + 1
    base = label * span
    frames = np.zeros((span, num_labels), dtype=np.uint8)
    frames[lo - base, label] = 1
    frames[hi - base, label] ^= 1  # a part may end where the next starts
    # XOR carries nothing between bytes, so a row's bytes go a word at a time
    words = frames.view(f"u{math.gcd(num_labels, 8)}")
    np.bitwise_xor.accumulate(words, axis=0, out=words)
    return frames[:num_frames]


def rasterize_with_records(annotation: Annotation, grid: FrameGrid,
                           fn: LabelingFunction, seed: int = 0, *,
                           shifts: np.ndarray | None = None,
                           ) -> tuple[LabelMatrix, QuantizedArrays]:
    """Rasterize and also return the per-event quantized intervals.

    Events are processed in annotation sort order and, for e/f, take
    shifts in that order from a stream derived from (seed, fn), so the
    result is a pure function of its arguments. Passing explicit `shifts`
    overrides the seeded stream (test hook); the output matrix then
    carries seed=None since it is not reproducible from a seed.
    """
    provenance_seed = seed if shifts is None else None
    if shifts is None:
        shifts = seeded_shifts(fn, seed, len(annotation))
    q = quantize(fn, annotation.onsets, annotation.offsets, grid.dt, shifts)
    frames = paint_ranges(grid.num_frames, annotation.num_labels, q.t_s, q.t_e,
                          annotation.labels)
    matrix = LabelMatrix(frames=frames, grid=grid, labeling_function=fn,
                         seed=provenance_seed)
    return matrix, q


def rasterize(annotation: Annotation, grid: FrameGrid, fn: LabelingFunction,
              seed: int = 0, *, rng: np.ndarray | None = None) -> LabelMatrix:
    """Rasterize an Annotation into a binary frames-by-labels matrix.

    Each event activates the half-open frame range [t_s, t_e) produced by
    `fn`; ranges are clipped to the grid, degenerate intervals activate
    nothing, and overlapping events of the same label OR together. The
    seed only matters for the random functions e and f. `rng` is the
    `shifts` array of rasterize_with_records, named as bench/spans.py reads it.
    """
    return rasterize_with_records(annotation, grid, fn, seed, shifts=rng)[0]


def noise_ceiling(annotation: Annotation, grid: FrameGrid, fn: LabelingFunction,
                  seed: int = 0):
    """Model-free misalignment ceiling of a labeling function.

    Scores the fn-rasterization against the round-both reference
    rasterization on the same grid, bounding what any classifier trained
    on fn-labels could score against that reference. The counts come from
    the two rasterizations' disjoint frame ranges, so no matrix is
    painted; they equal framewise_counts of the two matrices exactly.
    """
    from .metrics import EvalCounts, prf

    def parts(f: LabelingFunction, s: int) -> tuple[np.ndarray, np.ndarray]:
        q = quantize(f, annotation.onsets, annotation.offsets, grid.dt,
                     seeded_shifts(f, s, len(annotation)))
        return _parts(grid.num_frames, annotation.num_labels, q.t_s, q.t_e,
                      annotation.labels)[:2]

    pred_lo, pred_hi = parts(fn, seed)
    ref_lo, ref_hi = parts(LabelingFunction.A, 0)
    # The reference cells below line position x are those of the parts
    # starting at or before x, less what the last of them runs past x.
    ref_below = np.concatenate(([0], np.cumsum(ref_hi - ref_lo)))
    ref_ends = np.concatenate(([0], ref_hi))
    x = np.stack((pred_lo, pred_hi))
    j = np.searchsorted(ref_lo, x, side="right")
    below = ref_below[j] - np.maximum(ref_ends[j] - x, 0)
    tp = int((below[1] - below[0]).sum())
    pred_cells = int((pred_hi - pred_lo).sum())
    return prf(EvalCounts(tp=tp, fp=pred_cells - tp, fn_=int(ref_below[-1]) - tp))
