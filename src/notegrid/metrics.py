"""Framewise evaluation: counts, precision/recall/f-measure, resampling,
windowing, and disagreement statistics between two rasterizations.

Precision is TP/(TP+FP), recall TP/(TP+FN), f-measure their harmonic
mean, with counts summed over all frames and labels. Any 0/0 evaluates
to 0.0 and lowers the corresponding `defined` flag instead of raising,
so batch evaluation stays total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .annotation import Annotation
from .errors import ContractError
from .quantize import (FrameGrid, LabelingFunction, LabelMatrix,
                       QuantizedArrays, quantize, rasterize, seeded_shifts)


@dataclass(frozen=True)
class EvalCounts:
    """True/false positive and false negative totals over all (t, k) cells."""

    tp: int
    fp: int
    fn_: int


@dataclass(frozen=True)
class EvalResult:
    """Precision/recall/f-measure with their zero-denominator flags."""

    precision: float
    recall: float
    fmeasure: float
    counts: EvalCounts
    precision_defined: bool = True
    recall_defined: bool = True
    fmeasure_defined: bool = True


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
    """Count TP/FP/FN cells between two boolean arrays of the same shape."""
    tp = int(np.count_nonzero(pred & ref))
    return EvalCounts(tp=tp, fp=int(np.count_nonzero(pred)) - tp,
                      fn_=int(np.count_nonzero(ref)) - tp)


def framewise_counts(pred: LabelMatrix, ref: LabelMatrix) -> EvalCounts:
    """Count TP/FP/FN cells between a prediction and a reference matrix."""
    _check_comparable(pred, ref)
    return count_cells(pred.frames.astype(bool), ref.frames.astype(bool))


def prf(counts: EvalCounts) -> EvalResult:
    """Precision, recall and f-measure from cell counts."""
    p_denom = counts.tp + counts.fp
    r_denom = counts.tp + counts.fn_
    precision = counts.tp / p_denom if p_denom else 0.0
    recall = counts.tp / r_denom if r_denom else 0.0
    f_denom = precision + recall
    fmeasure = 2.0 * precision * recall / f_denom if f_denom else 0.0
    return EvalResult(
        precision=precision, recall=recall, fmeasure=fmeasure, counts=counts,
        precision_defined=p_denom > 0,
        recall_defined=r_denom > 0,
        fmeasure_defined=f_denom > 0,
    )


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


def truncate(matrix: LabelMatrix, seconds: float) -> LabelMatrix:
    """Keep only the frames inside the first `seconds` of the matrix.

    Truncating at or past the end, an infinite window included, is the
    identity.
    """
    if not seconds > 0:
        raise ContractError(f"window must be positive, got {seconds}")
    if seconds * matrix.grid.fps >= matrix.num_frames:
        return matrix
    keep = math.floor(seconds * matrix.grid.fps)
    return LabelMatrix(
        frames=matrix.frames[:keep],
        grid=FrameGrid(fps=matrix.grid.fps, num_frames=keep),
        labeling_function=matrix.labeling_function,
        seed=matrix.seed,
    )


def _boundaries(matrix: LabelMatrix, events: Annotation,
                records: QuantizedArrays | None) -> np.ndarray | None:
    """Per-event (t_s, t_e) rows behind a matrix, or None if unknown."""
    if records is None:
        fn = matrix.labeling_function
        if fn is None or (fn.is_random and matrix.seed is None):
            return None
        records = quantize(fn, events.onsets, events.offsets, matrix.grid.dt,
                           seeded_shifts(fn, matrix.seed, len(events)))
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
    seed, or taken from explicitly passed records (as returned by
    rasterize_with_records). Without either, the histograms stay empty.
    """
    _check_comparable(a, b)
    differing = int(np.count_nonzero(a.frames != b.frames))
    rate = differing / a.frames.size if a.frames.size else 0.0

    bounds_a = _boundaries(a, events, records_a)
    bounds_b = _boundaries(b, events, records_b)
    onset_hist: dict[int, int] = {}
    offset_hist: dict[int, int] = {}
    if bounds_a is not None and bounds_b is not None:
        shifts = bounds_b - bounds_a
        onset_hist = _shift_histogram(shifts[:, 0])
        offset_hist = _shift_histogram(shifts[:, 1])

    return DisagreementStats(
        differing_frames=differing,
        frame_rate_of_disagreement=rate,
        onset_shift_histogram=onset_hist,
        offset_shift_histogram=offset_hist,
    )


def windowed_counts(pred: LabelMatrix, ref: LabelMatrix,
                    window_sec: float) -> EvalCounts:
    """The evaluation protocol: resample the prediction to the reference
    grid, truncate both sides to the first `window_sec` seconds, and count
    TP/FP/FN cells."""
    return framewise_counts(truncate(resample(pred, ref.grid), window_sec),
                            truncate(ref, window_sec))


def evaluate_against_reference(pred: LabelMatrix, annotation: Annotation, *,
                               window_sec: float = 30.0, ref_fps: float = 100.0,
                               reference_fn: LabelingFunction = LabelingFunction.A,
                               reference_seed: int = 0) -> EvalResult:
    """Standard evaluation of a prediction matrix against an annotation.

    The reference is the round-both rasterization of the annotation at
    100 fps (both configurable), scored by windowed_counts.
    """
    ref_grid = FrameGrid.covering(ref_fps, annotation.duration_sec)
    ref = rasterize(annotation, ref_grid, reference_fn, reference_seed)
    return prf(windowed_counts(pred, ref, window_sec))
