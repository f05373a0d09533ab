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

Functions a-d are deterministic; e and f consume draws from an explicit
stream so every conversion is reproducible from a seed. A quantized
boundary also records its signed quantization error in seconds, measured
before any clamping or random shift.

All time arithmetic is plain 64-bit floating point with no epsilon
nudging before floor/ceil/round; the systematic-error measurements in
this package depend on the rounding behavior staying untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

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

    @classmethod
    def from_letter(cls, letter: str) -> "LabelingFunction":
        try:
            return cls(letter.lower())
        except ValueError:
            raise ContractError(f"unknown labeling function {letter!r}, expected a-f") from None


# stable stream identifiers per labeling function
_KIND_INDEX = {
    LabelingFunction.A: 0,
    LabelingFunction.B: 1,
    LabelingFunction.C: 2,
    LabelingFunction.D: 3,
    LabelingFunction.E: 4,
    LabelingFunction.F: 5,
}


class ShiftStream:
    """Counter-based stream of uniform draws from {-1, 0, 1}.

    Seeded by (seed, labeling function), so distinct functions never share
    draws and a rasterization is reproducible from its seed alone. The
    underlying generator hashes an incrementing 64-bit counter with
    splitmix64; 2**64 % 3 == 1, so exactly one output value is rejected to
    keep the three shifts exactly uniform.
    """

    def __init__(self, seed: int, fn: LabelingFunction):
        self._counter = derive_seed(seed, _KIND_INDEX[fn])

    def __iter__(self) -> "ShiftStream":
        return self

    def __next__(self) -> int:
        while True:
            z = splitmix64(self._counter)
            self._counter = (self._counter + 1) & MASK64
            if z < MASK64:
                return z % 3 - 1


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


@dataclass(frozen=True)
class QuantizedInterval:
    """Discrete (t_s, t_e) frame indices for one interval, plus diagnostics.

    eps_s and eps_e are the signed rounding errors in seconds (quantized
    boundary time minus true boundary time), taken before clamping and
    before any random shift. `clamped` marks intervals whose shifted start
    or end fell below frame 0; `degenerate` marks intervals that quantized
    to zero or negative length and therefore activate no frames.
    """

    t_s: int
    t_e: int
    eps_s: float
    eps_e: float
    clamped: bool
    degenerate: bool


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


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def quantize_interval(fn: LabelingFunction, onset_sec: float, offset_sec: float,
                      dt: float, rng: Iterator[int] | None = None) -> QuantizedInterval:
    """Map one continuous interval to frame indices under a labeling function.

    `rng` must be given exactly for the random functions e and f (one draw
    is consumed for e, two for f: onset shift first, then offset shift).
    Negative indices after shifting clamp to zero.
    """
    if dt <= 0:
        raise ContractError(f"dt must be positive, got {dt}")
    if onset_sec < 0:
        raise ContractError(f"onset must be non-negative, got {onset_sec}")
    if offset_sec <= onset_sec:
        raise ContractError(f"offset {offset_sec} must exceed onset {onset_sec}")
    if fn.is_random and rng is None:
        raise ContractError(f"labeling function {fn.letter} requires a draw stream")
    if not fn.is_random and rng is not None:
        raise ContractError(f"labeling function {fn.letter} is deterministic; no draw stream")

    x_s = onset_sec / dt
    x_e = offset_sec / dt

    if fn is LabelingFunction.B:
        t_s = math.ceil(x_s)
        t_e = math.ceil(x_e)
    elif fn is LabelingFunction.C:
        t_s = math.floor(x_s)
        t_e = math.floor(x_e)
    elif fn is LabelingFunction.D:
        t_s = math.floor(x_s)
        t_e = math.floor(x_s) + math.floor((offset_sec - onset_sec) / dt)
    else:  # a, and the base for e and f
        t_s = _round_half_up(x_s)
        t_e = _round_half_up(x_e)

    # errors of the pre-shift, pre-clamp indices
    eps_s = t_s * dt - onset_sec
    eps_e = t_e * dt - offset_sec

    if fn is LabelingFunction.E:
        shift = next(rng)
        t_s += shift
        t_e += shift
    elif fn is LabelingFunction.F:
        t_s += next(rng)
        t_e += next(rng)

    clamped = t_s < 0 or t_e < 0
    t_s = max(t_s, 0)
    t_e = max(t_e, 0)
    return QuantizedInterval(
        t_s=t_s, t_e=t_e, eps_s=eps_s, eps_e=eps_e,
        clamped=clamped, degenerate=t_e <= t_s,
    )


def rasterize_with_records(annotation: Annotation, grid: FrameGrid,
                           fn: LabelingFunction, seed: int = 0, *,
                           rng: Iterator[int] | None = None,
                           ) -> tuple[LabelMatrix, tuple[QuantizedInterval, ...]]:
    """Rasterize and also return the per-event quantized intervals.

    Events are processed in annotation sort order and, for e/f, consume
    draws in that order from a stream derived from (seed, fn), so the
    result is a pure function of its arguments. Passing an explicit `rng`
    overrides the seeded stream (test hook); the output matrix then
    carries seed=None since it is not reproducible from a seed.
    """
    for event in annotation.events:
        if not 0 <= event.label < annotation.num_labels:
            raise ContractError(
                f"event label {event.label} outside [0, {annotation.num_labels})")

    provenance_seed: int | None = seed
    stream: Iterator[int] | None = None
    if fn.is_random:
        if rng is not None:
            stream = rng
            provenance_seed = None
        else:
            stream = ShiftStream(seed, fn)
    elif rng is not None:
        raise ContractError(f"labeling function {fn.letter} is deterministic; no draw stream")

    num_frames = grid.num_frames
    frames = np.zeros((num_frames, annotation.num_labels), dtype=np.uint8)
    records = []
    for event in annotation.events:
        q = quantize_interval(fn, event.onset_sec, event.offset_sec, grid.dt, rng=stream)
        records.append(q)
        if q.degenerate:
            continue
        lo = min(q.t_s, num_frames)
        hi = min(q.t_e, num_frames)
        if lo < hi:
            frames[lo:hi, event.label] = 1
    matrix = LabelMatrix(frames=frames, grid=grid, labeling_function=fn,
                         seed=provenance_seed)
    return matrix, tuple(records)


def rasterize(annotation: Annotation, grid: FrameGrid, fn: LabelingFunction,
              seed: int = 0, *, rng: Iterator[int] | None = None) -> LabelMatrix:
    """Rasterize an Annotation into a binary frames-by-labels matrix.

    Each event activates the half-open frame range [t_s, t_e) produced by
    `fn`; ranges are clipped to the grid, degenerate intervals activate
    nothing, and overlapping events of the same label OR together. The
    seed only matters for the random functions e and f.
    """
    matrix, _ = rasterize_with_records(annotation, grid, fn, seed, rng=rng)
    return matrix


def noise_ceiling(annotation: Annotation, grid: FrameGrid, fn: LabelingFunction,
                  seed: int = 0):
    """Model-free misalignment ceiling of a labeling function.

    Evaluates the fn-rasterization directly against the round-both
    reference rasterization on the same grid, bounding what any classifier
    trained on fn-labels could score against that reference.
    """
    from .metrics import framewise_counts, prf

    pred = rasterize(annotation, grid, fn, seed)
    ref = rasterize(annotation, grid, LabelingFunction.A, 0)
    return prf(framewise_counts(pred, ref))
