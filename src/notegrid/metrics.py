"""Framewise evaluation: counts, precision/recall/f-measure, resampling,
windowing, and disagreement statistics between two rasterizations.

Precision is TP/(TP+FP), recall TP/(TP+FN), f-measure their harmonic
mean, with counts summed over all frames and labels. Any 0/0 evaluates
to 0.0 instead of raising, so batch evaluation stays total; whether a
score is defined is read from the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotation import Annotation
from .errors import ContractError
from .quantize import (FrameGrid, LabelingFunction, LabelMatrix,
                       QuantizedArrays, event_records, rasterize)


@dataclass(frozen=True)
class EvalCounts:
    """True/false positive and false negative totals over all (t, k) cells,
    and the precision, recall and f-measure they give."""

    tp: int
    fp: int
    fn_: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn_) if self.tp + self.fn_ else 0.0

    @property
    def fmeasure(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


@dataclass(frozen=True)
class DisagreementStats:
    """How two label matrices of the same annotation differ.

    differing_frames counts (t, k) cells that disagree;
    frame_rate_of_disagreement is that count over T*K. The histograms map
    nonzero signed boundary shifts (second matrix minus first, in frames)
    to the number of events shifted by that amount; they are empty when
    the matrices agree event-for-event or when per-event indices cannot
    be attributed.
    """

    differing_frames: int
    frame_rate_of_disagreement: float
    onset_shift_histogram: dict[int, int] = field(default_factory=dict)
    offset_shift_histogram: dict[int, int] = field(default_factory=dict)


def _check_comparable(a: LabelMatrix, b: LabelMatrix) -> None:
    if a.frames.shape != b.frames.shape:
        raise ContractError(
            f"shape mismatch: {a.frames.shape} vs {b.frames.shape}")
    if a.grid.fps != b.grid.fps:
        raise ContractError(f"frame rate mismatch: {a.grid.fps} vs {b.grid.fps}")


def count_cells(pred: np.ndarray, ref: np.ndarray) -> EvalCounts:
    """Count TP/FP/FN cells between two boolean or 0/1 arrays of the same
    shape."""
    tp = int(np.count_nonzero(pred & ref))
    return EvalCounts(tp=tp, fp=int(np.count_nonzero(pred)) - tp,
                      fn_=int(np.count_nonzero(ref)) - tp)


def framewise_counts(pred: LabelMatrix, ref: LabelMatrix) -> EvalCounts:
    """Count TP/FP/FN cells between a prediction and a reference matrix."""
    _check_comparable(pred, ref)
    return count_cells(pred.frames, ref.frames)


def resample(matrix: LabelMatrix, target: FrameGrid) -> LabelMatrix:
    """Change a label matrix's frame rate by sample-and-hold.

    Target row t' copies source row min(floor(t' * src_fps / target_fps),
    T_src - 1), with the floor taken exactly in rational arithmetic; works
    for both up- and downsampling and is the identity when the grids
    match. The result carries no labeling-function provenance since
    per-event indices are only meaningful at the source rate.
    """
    if matrix.frames.size == 0:
        raise ContractError("cannot resample an empty matrix")
    if matrix.grid.fps == target.fps and matrix.grid.num_frames == target.num_frames:
        return LabelMatrix(frames=matrix.frames, grid=matrix.grid)
    (src_num, src_den), (tgt_num, tgt_den) = (matrix.grid.fps.as_integer_ratio(),
                                              target.fps.as_integer_ratio())
    mul, div = src_num * tgt_den, src_den * tgt_num
    # int64 while every t' * mul fits; Python integers past that, so that
    # exotic rates stay exact
    fits = target.num_frames * mul < 2 ** 63 and div < 2 ** 63
    rows = np.arange(target.num_frames, dtype=np.int64 if fits else object) * mul // div
    source_rows = np.minimum(rows, matrix.num_frames - 1).astype(np.int64)
    return LabelMatrix(frames=matrix.frames[source_rows], grid=target)


def _window_grid(grid: FrameGrid, seconds: float) -> FrameGrid:
    """The grid of the frames inside the first `seconds` of `grid`: `grid`
    itself when the window reaches its end. A window shorter than one frame
    raises ContractError."""
    if not seconds > 0:
        raise ContractError(f"window must be positive, got {seconds}")
    if seconds * grid.fps >= grid.num_frames:
        return grid
    if seconds * grid.fps < 1:
        raise ContractError(f"a window of {seconds} s holds no frame at {grid.fps} fps")
    return FrameGrid(fps=grid.fps, num_frames=math.floor(seconds * grid.fps))


def truncate(matrix: LabelMatrix, seconds: float) -> LabelMatrix:
    """Keep only the frames inside the first `seconds` of the matrix.

    Truncating at or past the end, an infinite window included, is the
    identity.
    """
    grid = _window_grid(matrix.grid, seconds)
    if grid is matrix.grid:
        return matrix
    return LabelMatrix(
        frames=matrix.frames[:grid.num_frames],
        grid=grid,
        labeling_function=matrix.labeling_function,
        seed=matrix.seed,
    )


def _boundaries(matrix: LabelMatrix, events: Annotation,
                records: QuantizedArrays | None) -> np.ndarray | None:
    """Per-event (t_s, t_e) rows behind a matrix, or None if unknown."""
    if records is None:
        records = event_records(matrix, events)
        if records is None:
            return None
    elif len(records.t_s) != len(events):
        raise ContractError("records do not match the annotation's event count")
    return np.column_stack((records.t_s, records.t_e))


def _shift_histogram(shifts: np.ndarray) -> dict[int, int]:
    values, counts = np.unique(shifts[shifts != 0], return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def disagreement(a: LabelMatrix, b: LabelMatrix, events: Annotation,
                 records_a: QuantizedArrays | None = None,
                 records_b: QuantizedArrays | None = None,
                 ) -> DisagreementStats:
    """Quantify how two rasterizations of the same annotation differ.

    Cellwise statistics come straight from the matrices. The per-event
    onset/offset shift histograms need the per-event quantized indices;
    these are re-derived from each matrix's recorded labeling function and
    seed (event_records), or taken from explicitly passed records (as
    event_records or rasterize_with_records return them). Without either,
    the histograms stay empty.
    """
    _check_comparable(a, b)
    differing = int(np.count_nonzero(a.frames != b.frames))
    rate = differing / a.frames.size if a.frames.size else 0.0

    bounds_a = _boundaries(a, events, records_a)
    bounds_b = _boundaries(b, events, records_b)
    if bounds_a is None or bounds_b is None:
        return DisagreementStats(differing, rate)
    shifts = bounds_b - bounds_a
    return DisagreementStats(differing, rate, _shift_histogram(shifts[:, 0]),
                             _shift_histogram(shifts[:, 1]))


def windowed_counts(pred: LabelMatrix, ref: LabelMatrix,
                    window_sec: float) -> EvalCounts:
    """The evaluation protocol: resample the prediction to the reference
    grid, truncate both sides to the first `window_sec` seconds, and count
    TP/FP/FN cells. The prediction is resampled onto the truncated grid,
    which gives the truncated rows: resample's row t' depends only on t',
    the two rates and the prediction's length."""
    return windowed_block_counts(pred, ref, window_sec, 1)[0]


def windowed_block_counts(pred: LabelMatrix, ref: LabelMatrix, window_sec: float,
                          blocks: int) -> list[EvalCounts]:
    """windowed_counts of each of `blocks` equal column blocks of `pred`
    against `ref`, resampling and truncating once for all of them; resample
    only selects rows, so each block counts as it would alone."""
    if blocks < 1 or pred.num_labels % blocks:
        raise ContractError(f"{pred.num_labels} columns cannot be split into {blocks} blocks")
    ref = truncate(ref, window_sec)
    pred = resample(pred, ref.grid)
    k = pred.num_labels // blocks
    return [framewise_counts(LabelMatrix(frames=pred.frames[:, j * k:(j + 1) * k],
                                         grid=pred.grid), ref)
            for j in range(blocks)]


def reference_labels(annotation: Annotation, *, window_sec: float = 30.0,
                     ref_fps: float = 100.0) -> LabelMatrix:
    """The reference of evaluate_against_reference: the annotation
    rasterized by the round-both function a at ref_fps, painted only on the
    frames the window keeps of the grid covering the annotation, which are
    the rows truncating the whole one would keep. A window that keeps no
    frame gets one, so that windowed_counts reports it."""
    grid = FrameGrid.covering(ref_fps, annotation.duration_sec)
    grid = (_window_grid(grid, window_sec) if window_sec * grid.fps >= 1
            else FrameGrid(fps=grid.fps, num_frames=1))
    return rasterize(annotation, grid, LabelingFunction.A)


def evaluate_against_reference(pred: LabelMatrix, annotation: Annotation, *,
                               window_sec: float = 30.0, ref_fps: float = 100.0) -> EvalCounts:
    """Standard evaluation of a prediction matrix against an annotation:
    windowed_counts against reference_labels, the round-both rasterization
    of the annotation at 100 fps (the rate configurable)."""
    ref = reference_labels(annotation, window_sec=window_sec, ref_fps=ref_fps)
    return windowed_counts(pred, ref, window_sec)
