import math
from fractions import Fraction

import numpy as np
import pytest

from notegrid import (Annotation, ContractError, EvalCounts, FrameGrid,
                      LabelingFunction, LabelMatrix, NoteEvent, QuantizedArrays,
                      disagreement, evaluate_against_reference, framewise_counts,
                      prf, rasterize, rasterize_with_records, resample, truncate,
                      windowed_counts)

A, C, E = LabelingFunction.A, LabelingFunction.C, LabelingFunction.E


def matrix_of(rows, fps=100.0):
    frames = np.array(rows, dtype=np.uint8)
    return LabelMatrix(frames=frames, grid=FrameGrid(fps=fps, num_frames=frames.shape[0]))


def random_matrix(rng, num_frames, num_labels, fps=100.0, density=0.4):
    frames = (rng.random((num_frames, num_labels)) < density).astype(np.uint8)
    return LabelMatrix(frames=frames, grid=FrameGrid(fps=fps, num_frames=num_frames))


def loop_counts(pred, ref):
    tp = fp = fn_ = 0
    for t in range(pred.num_frames):
        for k in range(pred.num_labels):
            p = pred.frames[t, k]
            r = ref.frames[t, k]
            if p and r:
                tp += 1
            elif p and not r:
                fp += 1
            elif not p and r:
                fn_ += 1
    return tp, fp, fn_


class TestFramewiseCounts:
    def test_identical_matrices(self):
        m = matrix_of([[1, 0, 1], [0, 1, 0]])
        counts = framewise_counts(m, m)
        assert (counts.tp, counts.fp, counts.fn_) == (3, 0, 0)

    def test_all_ones_vs_all_zeros(self):
        pred = matrix_of([[1, 1, 1], [1, 1, 1]])
        ref = matrix_of([[0, 0, 0], [0, 0, 0]])
        counts = framewise_counts(pred, ref)
        assert (counts.tp, counts.fp, counts.fn_) == (0, 6, 0)

    def test_hand_counted_pair(self):
        pred = matrix_of([[1, 1, 0], [0, 1, 0]])
        ref = matrix_of([[1, 0, 0], [1, 1, 0]])
        counts = framewise_counts(pred, ref)
        assert (counts.tp, counts.fp, counts.fn_) == (2, 1, 1)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            framewise_counts(matrix_of([[1, 0]]), matrix_of([[1, 0, 0]]))

    def test_fps_mismatch(self):
        with pytest.raises(ContractError):
            framewise_counts(matrix_of([[1]], fps=100.0), matrix_of([[1]], fps=31.25))

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = random_matrix(rng, 12, 5)
            b = random_matrix(rng, 12, 5)
            ab = framewise_counts(a, b)
            ba = framewise_counts(b, a)
            assert ab.tp == ba.tp
            assert ab.fp == ba.fn_
            assert ab.fn_ == ba.fp

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = random_matrix(rng, int(rng.integers(1, 20)), int(rng.integers(1, 8)))
            b = LabelMatrix(frames=(rng.random(a.frames.shape) < 0.5).astype(np.uint8),
                            grid=a.grid)
            counts = framewise_counts(a, b)
            assert (counts.tp, counts.fp, counts.fn_) == loop_counts(a, b)


class TestPrf:
    def test_hand_evaluated(self):
        result = prf(EvalCounts(tp=3, fp=1, fn_=1))
        assert result.precision == 0.75
        assert result.recall == 0.75
        assert result.fmeasure == 0.75

    def test_all_zero_counts(self):
        result = prf(EvalCounts(tp=0, fp=0, fn_=0))
        assert (result.precision, result.recall, result.fmeasure) == (0.0, 0.0, 0.0)
        assert not result.precision_defined
        assert not result.recall_defined
        assert not result.fmeasure_defined

    def test_perfect_prediction(self):
        result = prf(EvalCounts(tp=7, fp=0, fn_=0))
        assert (result.precision, result.recall, result.fmeasure) == (1.0, 1.0, 1.0)
        assert result.precision_defined and result.recall_defined

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tp, fp, fn_ = (int(rng.integers(0, 40)) for _ in range(3))
            scale = int(rng.integers(1, 9))
            base = prf(EvalCounts(tp, fp, fn_))
            scaled = prf(EvalCounts(tp * scale, fp * scale, fn_ * scale))
            assert abs(base.fmeasure - scaled.fmeasure) < 1e-12

    def test_self_comparison_is_perfect(self):
        rng = np.random.default_rng(6)
        m = random_matrix(rng, 15, 4)
        result = prf(framewise_counts(m, m))
        assert (result.precision, result.recall, result.fmeasure) == (1.0, 1.0, 1.0)


class TestResample:
    def test_identity_on_equal_grid(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 10, 3)
        out = resample(m, m.grid)
        assert np.array_equal(out.frames, m.frames)

    def test_two_rows_to_seven(self):
        m = matrix_of([[1, 0], [0, 1]], fps=31.25)
        out = resample(m, FrameGrid(fps=100.0, num_frames=7))
        expected = np.array([[1, 0]] * 4 + [[0, 1]] * 3, dtype=np.uint8)
        assert np.array_equal(out.frames, expected)

    def test_rows_are_the_exact_rational_floor(self):
        # float floor(t * 30 / 86.1328125) is one row off at 16 of these rows
        src = FrameGrid(fps=30.0, num_frames=10400)
        target = FrameGrid(fps=86.1328125, num_frames=30000)
        bits = (np.arange(src.num_frames)[:, None] >> np.arange(14)) & 1
        out = resample(LabelMatrix(frames=bits, grid=src), target)
        rows = out.frames.astype(np.int64) @ (1 << np.arange(14))
        ratio = Fraction(30.0) / Fraction(86.1328125)
        expected = [min(math.floor(t * ratio), src.num_frames - 1)
                    for t in range(target.num_frames)]
        assert rows.tolist() == expected

    @pytest.mark.parametrize("src_fps,tgt_fps,num_frames,past_bound", [
        (31.25, 100.0, 60000, False), (100.0, 31.25, 18750, False),
        (30.0, 86.1328125, 30000, False), (44100 / 512, 100.0, 5000, False),
        (0.75, 2.5, 4000, False), (1 / 3, 1 / 7, 4000, True)])
    def test_int64_rows_equal_python_integer_rows(self, src_fps, tgt_fps, num_frames,
                                                  past_bound):
        (src_num, src_den), (tgt_num, tgt_den) = (src_fps.as_integer_ratio(),
                                                  tgt_fps.as_integer_ratio())
        # past the bound t' * src_num * tgt_den overflows int64: Python integers only
        assert (num_frames * src_num * tgt_den >= 2 ** 63) == past_bound
        src = FrameGrid(fps=src_fps, num_frames=2 ** 14 - 1)
        bits = (np.arange(src.num_frames)[:, None] >> np.arange(14)) & 1
        out = resample(LabelMatrix(frames=bits, grid=src),
                       FrameGrid(fps=tgt_fps, num_frames=num_frames))
        rows = out.frames.astype(np.int64) @ (1 << np.arange(14))
        exact = np.arange(num_frames, dtype=object) * (src_num * tgt_den) // (src_den * tgt_num)
        assert rows.tolist() == np.minimum(exact, src.num_frames - 1).tolist()
        if not past_bound:
            in_int64 = np.arange(num_frames) * (src_num * tgt_den) // (src_den * tgt_num)
            assert in_int64.dtype == np.int64
            assert rows.tolist() == np.minimum(in_int64, src.num_frames - 1).tolist()

    def test_idempotent_at_fixed_target(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, 32, 4, fps=31.25)
        target = FrameGrid(fps=100.0, num_frames=100)
        once = resample(m, target)
        twice = resample(once, target)
        assert np.array_equal(once.frames, twice.frames)

    def test_round_trip_deviation_bounded_at_run_boundaries(self):
        # three notes with runs of at least 4 frames at 100 fps
        grid = FrameGrid(fps=100.0, num_frames=120)
        frames = np.zeros((120, 3), dtype=np.uint8)
        runs = [(10, 30, 0), (42, 60, 1), (75, 110, 2)]
        for lo, hi, k in runs:
            frames[lo:hi, k] = 1
        m = LabelMatrix(frames=frames, grid=grid)
        down = resample(m, FrameGrid(fps=31.25, num_frames=38))
        back = resample(down, grid)
        for lo, hi, k in runs:
            diff_rows = np.nonzero(back.frames[:, k] != m.frames[:, k])[0]
            assert all(min(abs(t - lo), abs(t - hi)) <= 3 for t in diff_rows)

    def test_empty_source_rejected(self):
        grid = FrameGrid(fps=100.0, num_frames=2)
        empty = LabelMatrix(frames=np.zeros((2, 0), dtype=np.uint8), grid=grid)
        with pytest.raises(ContractError):
            resample(empty, FrameGrid(fps=50.0, num_frames=1))

    def test_provenance_dropped(self):
        ann = Annotation.from_events([NoteEvent(0.1, 0.6, 0)], num_labels=1)
        m = rasterize(ann, FrameGrid(fps=31.25, num_frames=20), A)
        out = resample(m, FrameGrid(fps=100.0, num_frames=64))
        assert out.labeling_function is None


class TestTruncate:
    def test_thirty_seconds_at_hundred_fps(self):
        grid = FrameGrid(fps=100.0, num_frames=4500)
        m = LabelMatrix(frames=np.ones((4500, 2), dtype=np.uint8), grid=grid)
        out = truncate(m, 30.0)
        assert out.num_frames == 3000

    def test_longer_than_matrix_is_identity(self):
        rng = np.random.default_rng(9)
        m = random_matrix(rng, 100, 2)
        out = truncate(m, 60.0)
        assert out is m

    def test_exact_length_is_identity(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 100, 2)
        out = truncate(m, m.num_frames * m.grid.dt)
        assert out.num_frames == 100

    def test_non_positive_window_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ContractError):
            truncate(random_matrix(rng, 10, 2), 0.0)

    def test_nan_window_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ContractError):
            truncate(random_matrix(rng, 10, 2), float("nan"))

    def test_infinite_window_is_identity(self):
        rng = np.random.default_rng(13)
        m = random_matrix(rng, 10, 2)
        assert truncate(m, float("inf")) is m


class TestDisagreement:
    def test_equal_matrices(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        m = rasterize(hundred_notes, grid, A, 0)
        stats = disagreement(m, m, hundred_notes)
        assert stats.differing_frames == 0
        assert stats.frame_rate_of_disagreement == 0.0
        assert stats.onset_shift_histogram == {}
        assert stats.offset_shift_histogram == {}

    def test_forced_joint_shift_concentrates_histograms(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        base, records_a = rasterize_with_records(hundred_notes, grid, A, 0)
        shifted, records_b = rasterize_with_records(
            hundred_notes, grid, E, shifts=np.ones(len(hundred_notes), dtype=int))
        stats = disagreement(base, shifted, hundred_notes,
                             records_a=records_a, records_b=records_b)
        n = len(hundred_notes)
        assert stats.onset_shift_histogram == {1: n}
        assert stats.offset_shift_histogram == {1: n}
        assert stats.differing_frames > 0

    def test_random_pair_matches_brute_force(self):
        rng = np.random.default_rng(12)
        a = random_matrix(rng, 10, 4)
        b = LabelMatrix(frames=(rng.random((10, 4)) < 0.5).astype(np.uint8), grid=a.grid)
        stats = disagreement(a, b, Annotation.from_events([], num_labels=4))
        brute = sum(
            int(a.frames[t, k] != b.frames[t, k])
            for t in range(10) for k in range(4))
        assert stats.differing_frames == brute
        assert stats.frame_rate_of_disagreement == brute / 40
        assert stats.onset_shift_histogram == {}

    def test_records_derived_from_provenance(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        a = rasterize(hundred_notes, grid, A, 0)
        c = rasterize(hundred_notes, grid, C, 0)
        stats = disagreement(a, c, hundred_notes)
        assert stats.differing_frames > 0
        assert stats.onset_shift_histogram  # floor shifts some onsets down
        assert all(shift == -1 for shift in stats.onset_shift_histogram)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            disagreement(matrix_of([[1, 0]]), matrix_of([[1, 0], [0, 0]]),
                         Annotation.from_events([], num_labels=2))

    def test_record_length_mismatch_rejected(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        m, records = rasterize_with_records(hundred_notes, grid, A, 0)
        with pytest.raises(ContractError):
            disagreement(m, m, hundred_notes,
                         records_a=QuantizedArrays(*(f[:-1] for f in records)),
                         records_b=records)


class TestEvaluationProtocol:
    def test_reference_against_itself(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        pred = rasterize(hundred_notes, grid, A, 0)
        result = evaluate_against_reference(pred, hundred_notes)
        assert result.fmeasure == 1.0

    def test_matches_manual_composition(self, hundred_notes):
        low_grid = FrameGrid.covering(31.25, hundred_notes.duration_sec)
        pred = rasterize(hundred_notes, low_grid, A, 0)
        result = evaluate_against_reference(pred, hundred_notes,
                                            window_sec=30.0, ref_fps=100.0)
        ref_grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        ref = truncate(rasterize(hundred_notes, ref_grid, A, 0), 30.0)
        manual = prf(framewise_counts(truncate(resample(pred, ref_grid), 30.0), ref))
        assert result == manual
        full_ref = rasterize(hundred_notes, ref_grid, A, 0)
        assert windowed_counts(pred, full_ref, 30.0) == manual.counts
        assert result.fmeasure < 1.0
