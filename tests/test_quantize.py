import itertools
import math
import random
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import smf
from conftest import annotation_of
from notegrid import (Annotation, ContractError, FrameGrid, LabelingFunction,
                      LabelMatrix, QuantizedArrays, disagreement, evaluate_against_reference,
                      noise_ceiling, parse_midi, parse_tsv, quantize_interval, rasterize,
                      rasterize_with_records, render_features)
from notegrid import quantize as quantize_module
from notegrid.quantize import (MAX_CACHED_QUANTIZATIONS, MAX_CELLS_PER_NOTE, MAX_LABEL_CELLS,
                               _draws, _parts, paint_ranges, quantize, seeded_shifts)
from notegrid.util import MASK64, derive_seed, splitmix64

A, B, C, D, E, F = LabelingFunction

# the one counter whose splitmix64 hash, 2**64 - 1, the shift stream rejects
REJECTED_COUNTER = 0x31628AF67B2131AB


def random_intervals(count, seed, dts=(0.01, 0.032)):
    r = random.Random(seed)
    for _ in range(count):
        onset = r.random() * 60.0
        offset = onset + 1e-6 + r.random() * (60.0 - onset)
        yield onset, offset, r.choice(dts)


def per_interval(records):
    """One QuantizedArrays of Python scalars per interval."""
    return [QuantizedArrays(*fields) for fields in zip(*(f.tolist() for f in records))]


def oracle_indices(fn, onset, offset, dt):
    """Straight-line re-evaluation of the four deterministic conversions
    in exact rational arithmetic."""
    xs = Fraction(onset) / Fraction(dt)
    xe = Fraction(offset) / Fraction(dt)
    half = Fraction(1, 2)
    if fn is A:
        return math.floor(xs + half), math.floor(xe + half)
    if fn is B:
        return math.ceil(xs), math.ceil(xe)
    if fn is C:
        return math.floor(xs), math.floor(xe)
    if fn is D:
        dur = (Fraction(offset) - Fraction(onset)) / Fraction(dt)
        return math.floor(xs), math.floor(xs) + math.floor(dur)
    raise AssertionError(fn)


def scalar_draws(counter):
    """The scalar splitmix64 rejection loop, one draw per hash: the
    reference _draws must equal."""
    while True:
        z = splitmix64(counter)
        counter = (counter + 1) & MASK64
        if z < MASK64:
            yield z % 3 - 1


def reference_stream(seed, fn):
    """scalar_draws from the counter seeded_shifts(fn, seed, n) starts at."""
    return scalar_draws(derive_seed(seed, "abcdef".index(fn.letter)))


def reference_quantize(fn, onset_sec, offset_sec, dt, rng):
    """The per-note quantizer as a straight line of scalar code: the
    reference the array quantizer must equal field for field."""
    x_s = onset_sec / dt
    x_e = offset_sec / dt
    if fn is B:
        t_s, t_e = math.ceil(x_s), math.ceil(x_e)
    elif fn is C:
        t_s, t_e = math.floor(x_s), math.floor(x_e)
    elif fn is D:
        t_s = math.floor(x_s)
        t_e = math.floor(x_s) + math.floor((offset_sec - onset_sec) / dt)
    else:
        t_s, t_e = math.floor(x_s + 0.5), math.floor(x_e + 0.5)
    eps_s = t_s * dt - onset_sec
    eps_e = t_e * dt - offset_sec
    if fn is E:
        shift = next(rng)
        t_s += shift
        t_e += shift
    elif fn is F:
        t_s += next(rng)
        t_e += next(rng)
    clamped = t_s < 0 or t_e < 0
    t_s, t_e = max(t_s, 0), max(t_e, 0)
    return t_s, t_e, eps_s, eps_e, clamped, t_e <= t_s


class TestQuantize:
    def assert_matches_reference(self, onsets, offsets, dt, seed):
        clamped = 0
        for fn in LabelingFunction:
            shifts = seeded_shifts(fn, seed, len(onsets))
            q = quantize(fn, onsets, offsets, dt, shifts)
            got = list(zip(*(field.tolist() for field in q)))
            stream = reference_stream(seed, fn)
            want = [reference_quantize(fn, on, off, dt, stream)
                    for on, off in zip(onsets, offsets)]
            assert got == want, fn
            clamped += int(q.clamped.sum())
        return clamped

    @pytest.mark.parametrize("fps", [100.0, 31.25, 86.1328125])
    def test_matches_reference_on_fixture(self, hundred_notes, fps):
        onsets = hundred_notes.onsets.tolist()
        offsets = hundred_notes.offsets.tolist()
        self.assert_matches_reference(onsets, offsets, 1.0 / fps, seed=3)

    def test_matches_reference_on_random_arrays(self):
        r = random.Random(23)
        for trial in range(20):
            dt = r.choice([0.01, 0.032, 1 / 86.1328125, 0.5])
            # a third of the onsets within two frames of 0, so e/f shifts clamp
            onsets = [r.random() * (2 * dt if r.random() < 0.3 else 60.0) for _ in range(200)]
            offsets = [on + r.choice([1e-6, dt / 3, dt, 5.0]) * r.random() + 1e-9
                       for on in onsets]
            clamped = self.assert_matches_reference(onsets, offsets, dt, seed=trial)
            assert clamped > 0

    def test_draw_order_onset_then_offset(self):
        q = quantize(F, [0.10, 0.50], [0.30, 0.70], 0.01, shifts=np.array([1, -1, 0, 1]))
        assert q.t_s.tolist() == [11, 50] and q.t_e.tolist() == [29, 71]
        q = quantize(E, [0.10, 0.50], [0.30, 0.70], 0.01, shifts=np.array([1, -1]))
        assert q.t_s.tolist() == [11, 49] and q.t_e.tolist() == [31, 69]

    @pytest.mark.parametrize("onset,offset", [(math.nan, 1.0), (0.5, math.inf),
                                              (-math.inf, 1.0), (0.5, math.nan)])
    def test_non_finite_times_rejected(self, onset, offset):
        for fn in (A, D):
            with pytest.raises(ContractError, match="finite"):
                quantize(fn, [0.1, onset], [0.2, offset], 0.01)

    def test_wrong_length_shifts_rejected(self):
        for fn, shifts in [
            (F, np.array([1, 0, -1])),           # one short of 2 per interval
            (F, np.array([1, 0, -1, 0, 1])),     # one too many
            (E, np.array([1, 0, -1, 0])),        # f's count for e
            (E, np.array([[1, 0]])),             # the right count, not 1-D
            (E, np.array([0.5, 1.0])),           # not integers
            (E, iter([1, -1])),                  # an iterator is not an array
        ]:
            with pytest.raises(ContractError, match=f"{fn.letter} takes"):
                quantize(fn, [0.1, 0.3], [0.2, 0.4], 0.01, shifts=shifts)
        with pytest.raises(ContractError, match="e takes 1 integer shift"):
            quantize_interval(E, 0.1, 0.2, 0.01, shifts=np.array([], dtype=np.int64))

    def test_empty_input(self):
        q = quantize(F, [], [], 0.01, shifts=seeded_shifts(F, 0, 0))
        assert all(field.shape == (0,) for field in q)

    @pytest.mark.parametrize("onsets,offsets", [([0.1, 0.2], [0.3]),      # lengths differ
                                                ([[0.1]], [[0.3]])])      # not 1-D
    def test_mismatched_or_nested_times_rejected(self, onsets, offsets):
        with pytest.raises(ContractError, match="differ or not 1-D"):
            quantize(A, onsets, offsets, 0.01)

    def test_offset_past_exact_frame_indices_rejected(self):
        # from 2**52 frames on, a float64 index is no longer exact
        with pytest.raises(ContractError, match="too many frames"):
            quantize(A, [0.0], [2.0 ** 52], 1.0)
        assert quantize(A, [0.0], [2.0 ** 52 - 1], 1.0).t_e.tolist() == [2 ** 52 - 1]


class TestQuantizeInterval:
    def test_exact_grid_multiples(self):
        q = quantize_interval(A, 0.10, 0.25, 0.01)
        assert (q.t_s, q.t_e) == (10, 25)
        assert q.eps_s == 0.0 and q.eps_e == 0.0
        assert not q.clamped and not q.degenerate

    def test_ceil_and_floor_worked_example(self):
        qb = quantize_interval(B, 0.035, 0.100, 0.032)
        assert (qb.t_s, qb.t_e) == (2, 4)
        qc = quantize_interval(C, 0.035, 0.100, 0.032)
        assert (qc.t_s, qc.t_e) == (1, 3)

    def test_floored_duration_degenerates(self):
        q = quantize_interval(D, 0.05, 0.07, 0.032)
        assert (q.t_s, q.t_e) == (1, 1)
        assert q.degenerate

    def test_joint_shift_preserves_duration(self):
        q = quantize_interval(E, 0.10, 0.25, 0.01, shifts=np.array([1]))
        assert (q.t_s, q.t_e) == (11, 26)
        base = quantize_interval(A, 0.10, 0.25, 0.01)
        assert q.t_e - q.t_s == base.t_e - base.t_s

    def test_joint_shift_duration_over_random_sample(self):
        for i, (onset, offset, dt) in enumerate(random_intervals(300, seed=5)):
            shift = (i % 3) - 1
            base = quantize_interval(A, onset, offset, dt)
            shifted = quantize_interval(E, onset, offset, dt,
                                        shifts=np.array([shift]))
            if not shifted.clamped:
                assert shifted.t_e - shifted.t_s == base.t_e - base.t_s

    def test_independent_zero_shifts_equal_round_both(self):
        for onset, offset, dt in random_intervals(1000, seed=11):
            base = quantize_interval(A, onset, offset, dt)
            forced = quantize_interval(F, onset, offset, dt, shifts=np.zeros(2, dtype=int))
            assert (forced.t_s, forced.t_e, forced.eps_s, forced.eps_e) == \
                (base.t_s, base.t_e, base.eps_s, base.eps_e)

    def test_shift_errors_report_pre_shift_values(self):
        base = quantize_interval(A, 0.10, 0.25, 0.01)
        shifted = quantize_interval(F, 0.10, 0.25, 0.01, shifts=np.array([1, -1]))
        assert shifted.eps_s == base.eps_s
        assert shifted.eps_e == base.eps_e
        assert (shifted.t_s, shifted.t_e) == (base.t_s + 1, base.t_e - 1)

    def test_negative_shift_clamps_to_zero(self):
        q = quantize_interval(E, 0.001, 0.5, 0.01, shifts=np.array([-1]))
        assert q.t_s == 0
        assert q.clamped

    def test_ordering_floor_round_ceil(self):
        for onset, offset, dt in random_intervals(1000, seed=13):
            qa = quantize_interval(A, onset, offset, dt)
            qb = quantize_interval(B, onset, offset, dt)
            qc = quantize_interval(C, onset, offset, dt)
            assert qc.t_s <= qa.t_s <= qb.t_s
            assert qc.t_e <= qa.t_e <= qb.t_e

    def test_error_bounds(self):
        for onset, offset, dt in random_intervals(1000, seed=17):
            qa = quantize_interval(A, onset, offset, dt)
            assert abs(qa.eps_s) <= dt / 2 + 1e-12
            assert abs(qa.eps_e) <= dt / 2 + 1e-12
            qb = quantize_interval(B, onset, offset, dt)
            assert 0 <= qb.eps_s < dt and 0 <= qb.eps_e < dt
            qc = quantize_interval(C, onset, offset, dt)
            assert -dt < qc.eps_s <= 0 and -dt < qc.eps_e <= 0
            qd = quantize_interval(D, onset, offset, dt)
            assert -dt < qd.eps_s <= 0
            assert -2 * dt < qd.eps_e <= 0  # floored onset plus floored duration

    def test_oracle_equivalence(self):
        for onset, offset, dt in random_intervals(1000, seed=19):
            for fn in (A, B, C, D):
                q = quantize_interval(fn, onset, offset, dt)
                assert (q.t_s, q.t_e) == oracle_indices(fn, onset, offset, dt)

    def test_contract_errors(self):
        with pytest.raises(ContractError):
            quantize_interval(E, 0.1, 0.2, 0.01)  # draws required
        with pytest.raises(ContractError):
            quantize_interval(F, 0.1, 0.2, 0.01)
        with pytest.raises(ContractError):
            quantize_interval(A, 0.1, 0.2, 0.01, shifts=np.zeros(1, dtype=int))
        with pytest.raises(ContractError):
            quantize_interval(A, 0.2, 0.2, 0.01)  # zero length
        with pytest.raises(ContractError):
            quantize_interval(A, 0.3, 0.2, 0.01)  # reversed
        with pytest.raises(ContractError):
            quantize_interval(A, -0.1, 0.2, 0.01)
        with pytest.raises(ContractError):
            quantize_interval(A, 0.1, 0.2, 0.0)


class TestSeededShifts:
    def test_deterministic_per_seed_and_fn(self):
        first = seeded_shifts(E, 42, 50).tolist()
        second = seeded_shifts(E, 42, 50).tolist()
        assert first == second

    def test_distinct_functions_get_distinct_streams(self):
        stream_e = seeded_shifts(E, 42, 50).tolist()
        stream_f = seeded_shifts(F, 42, 25).tolist()
        assert stream_e != stream_f

    def test_values_uniform_over_three(self):
        draws = seeded_shifts(F, 7, 1500).tolist()
        assert set(draws) == {-1, 0, 1}
        for value in (-1, 0, 1):
            assert 850 <= draws.count(value) <= 1150

    def test_draws_are_int64(self):
        assert seeded_shifts(E, 0, 5).dtype == np.int64
        assert seeded_shifts(F, 0, 5).shape == (10,)
        assert seeded_shifts(E, 0, 0).shape == (0,)
        assert _draws(0, 0).shape == (0,)

    def test_none_for_deterministic_functions(self):
        assert all(seeded_shifts(fn, 0, 5) is None for fn in (A, B, C, D))

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("fn", [E, F])
    def test_first_million_equal_scalar_loop(self, seed, fn):
        want = list(itertools.islice(reference_stream(seed, fn), 10 ** 6))
        assert seeded_shifts(fn, seed, 10 ** 6 // fn.shifts_per_interval).tolist() == want

    def test_rejected_counter_hashes_to_the_rejected_value(self):
        assert splitmix64(REJECTED_COUNTER) == MASK64

    @pytest.mark.parametrize("k", range(11))
    def test_matches_scalar_loop_across_rejection(self, k):
        # the counters start 3 before the one rejected hash
        got = _draws(REJECTED_COUNTER - 3, k).tolist()
        assert got == list(itertools.islice(scalar_draws(REJECTED_COUNTER - 3), k))

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 5), (5, 0), (1, 1), (17, 1000), (999, 2)])
    def test_shorter_draw_is_a_prefix_of_a_longer_one(self, a, b):
        # from an ordinary counter, from 3 before the rejected hash, and
        # from 2 before the 2**64 wrap
        for counter in (derive_seed(12345, 5), REJECTED_COUNTER - 3, MASK64 - 1):
            assert _draws(counter, a + b)[:a].tolist() == _draws(counter, a).tolist()
        assert (seeded_shifts(F, 12345, a + b)[:2 * a].tolist()
                == seeded_shifts(F, 12345, a).tolist())

    def test_counter_wraps_at_2_to_64(self):
        want = list(itertools.islice(scalar_draws(MASK64 - 1), 6))
        assert _draws(MASK64 - 1, 6).tolist() == want


class TestFrameGrid:
    def test_dt_fps_inverse(self):
        for fps in (31.25, 100.0, 44.1, 7.0):
            grid = FrameGrid(fps=fps, num_frames=10)
            assert abs(grid.dt * grid.fps - 1.0) <= 1e-12

    def test_covering(self):
        assert FrameGrid.covering(100.0, 30.0).num_frames == 3000
        assert FrameGrid.covering(31.25, 30.0).num_frames == 938
        assert FrameGrid.covering(100.0, 0.0).num_frames == 1

    def test_invalid(self):
        with pytest.raises(ContractError):
            FrameGrid(fps=0.0, num_frames=10)
        with pytest.raises(ContractError):
            FrameGrid(fps=100.0, num_frames=0)

    # past float range, a bool, a float32 and a string are no float either
    @pytest.mark.parametrize("fps", [0.0, -1.0, float("nan"), float("inf"),
                                     pytest.param(10 ** 400, id="1e400"), True,
                                     pytest.param(np.float32(100.0), id="float32"), "100"])
    def test_covering_rejects_a_bad_rate(self, fps):
        with pytest.raises(ContractError, match="fps must be positive and finite"):
            FrameGrid(fps, 1)
        with pytest.raises(ContractError, match="fps must be positive and finite"):
            FrameGrid.covering(fps, 1.0)

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan"), 1e307])
    def test_covering_rejects_non_finite_span(self, seconds):
        with pytest.raises(ContractError):
            FrameGrid.covering(100.0, seconds)


class TestLabelMatrix:
    def test_binary_enforced(self):
        grid = FrameGrid(fps=100.0, num_frames=2)
        with pytest.raises(ContractError):
            LabelMatrix(frames=np.array([[0, 2], [0, 0]]), grid=grid)

    @pytest.mark.parametrize("cell", [256, 0.5, 1.9, -255, math.nan])
    def test_cells_are_checked_before_the_uint8_cast(self, cell):
        """The cast would make 256 and 0.5 a 0, 1.9 and -255 a 1, and NaN a
        0 with a RuntimeWarning: each is a ContractError, with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="cells must be 0 or 1"):
                LabelMatrix(frames=np.array([[0, 1, cell]]),
                            grid=FrameGrid(fps=100.0, num_frames=1))

    def test_shape_must_match_grid(self):
        grid = FrameGrid(fps=100.0, num_frames=3)
        with pytest.raises(ContractError):
            LabelMatrix(frames=np.zeros((2, 4), dtype=np.uint8), grid=grid)

    @pytest.mark.parametrize("shape", [(3,), (3, 2, 1)])
    def test_frames_must_be_2d(self, shape):
        with pytest.raises(ContractError, match="2-D"):
            LabelMatrix(frames=np.zeros(shape, dtype=np.uint8),
                        grid=FrameGrid(fps=100.0, num_frames=3))

    def test_frames_immutable(self):
        grid = FrameGrid(fps=100.0, num_frames=2)
        matrix = LabelMatrix(frames=np.zeros((2, 3), dtype=np.uint8), grid=grid)
        with pytest.raises(ValueError):
            matrix.frames[0, 0] = 1


class TestRasterize:
    def test_empty_annotation_all_zero(self):
        ann = annotation_of([], num_labels=4)
        grid = FrameGrid(fps=100.0, num_frames=30)
        matrix = rasterize(ann, grid, A)
        assert matrix.frames.shape == (30, 4)
        assert not matrix.frames.any()

    def test_single_event_half_open(self):
        ann = annotation_of([(0.10, 0.25, 3)], num_labels=4, duration_sec=0.3)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=30), A)
        expected = np.zeros((30, 4), dtype=np.uint8)
        expected[10:25, 3] = 1
        assert np.array_equal(matrix.frames, expected)

    def test_random_function_shifts_one_boundary_frame(self):
        ann = annotation_of([(0.10, 0.25, 3)], num_labels=4, duration_sec=0.3)
        grid = FrameGrid(fps=100.0, num_frames=30)
        base, qa = rasterize_with_records(ann, grid, A, 0)
        m1, q1 = rasterize_with_records(ann, grid, F, 1)
        m2, q2 = rasterize_with_records(ann, grid, F, 2)
        for q in (q1, q2):
            assert abs(q.t_s - qa.t_s) <= 1 and abs(q.t_e - qa.t_e) <= 1
        assert (q1.t_s, q1.t_e) != (q2.t_s, q2.t_e)
        assert not np.array_equal(m1.frames, m2.frames)

    def test_deterministic_given_seed(self):
        ann = annotation_of([(0.1, 0.5, 0), (0.3, 0.9, 2)], num_labels=3)
        grid = FrameGrid(fps=31.25, num_frames=40)
        first = rasterize(ann, grid, F, 123)
        second = rasterize(ann, grid, F, 123)
        assert np.array_equal(first.frames, second.frames)
        assert first.frames.tobytes() == second.frames.tobytes()

    def test_same_label_overlap_ors(self):
        ann = annotation_of([(0.0, 0.2, 1), (0.1, 0.3, 1)], num_labels=2)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=30), A)
        assert matrix.frames[:30, 1].sum() == 30

    def test_indices_clipped_at_grid_end(self):
        ann = annotation_of([(0.1, 5.0, 0)], num_labels=1)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=20), A)
        assert matrix.frames[10:, 0].all()

    def test_event_entirely_past_grid(self):
        ann = annotation_of([(1.0, 2.0, 0)], num_labels=1)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=10), A)
        assert not matrix.frames.any()

    def test_label_out_of_range_rejected(self):
        ann = Annotation([0.0], [0.5], [7], num_labels=4, duration_sec=1.0)
        with pytest.raises(ContractError):
            rasterize(ann, FrameGrid(fps=100.0, num_frames=10), A)

    def test_provenance_recorded(self):
        ann = annotation_of([(0.1, 0.5, 0)], num_labels=1)
        grid = FrameGrid(fps=100.0, num_frames=60)
        matrix = rasterize(ann, grid, E, 99)
        assert matrix.labeling_function is E
        assert matrix.seed == 99
        overridden = rasterize(ann, grid, E, 99, rng=np.zeros(1, dtype=int))
        assert overridden.seed is None

    def test_records_match_matrix(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        matrix, records = rasterize_with_records(hundred_notes, grid, F, 5)
        assert len(records.t_s) == len(hundred_notes)
        rebuilt = np.zeros_like(matrix.frames)
        for label, q in zip(hundred_notes.labels.tolist(), per_interval(records)):
            if not q.degenerate:
                rebuilt[min(q.t_s, grid.num_frames):min(q.t_e, grid.num_frames), label] = 1
        assert np.array_equal(rebuilt, matrix.frames)

    @pytest.mark.parametrize("num_labels", [3, 8])  # part of a byte, and a whole one
    def test_matrix_matches_per_note_painting(self, num_labels):
        # many same-label overlaps and touching ranges, one note stacked
        # 300 deep, shifts below frame 0, and a grid that ends before the
        # last notes
        r = random.Random(29)
        events = [(0.5, 0.9, 1)] * 300
        for _ in range(100 * num_labels):
            onset = r.random() * (0.05 if r.random() < 0.3 else 4.0)
            events.append((onset, onset + 1e-6 + r.random() * r.choice([0.02, 1.5]),
                                    r.randrange(num_labels)))
        ann = annotation_of(events, num_labels=num_labels)
        grid = FrameGrid(fps=31.25, num_frames=100)
        for fn in LabelingFunction:
            matrix, records = rasterize_with_records(ann, grid, fn, 4)
            painted = np.zeros_like(matrix.frames)
            for label, q in zip(ann.labels.tolist(), per_interval(records)):
                painted[q.t_s:q.t_e, label] = 1
            assert np.array_equal(matrix.frames, painted), fn
            assert np.array_equal(rasterize(ann, grid, fn, 4).frames, painted), fn

    def test_grid_past_cell_budget_rejected(self):
        ann = annotation_of([(0.5, 0.9, 1)], num_labels=4)
        with pytest.raises(ContractError, match=f"{2 ** 62} frames x 4 labels exceeds "
                                                f"the budget of {2 ** 31} cells"):
            rasterize(ann, FrameGrid(fps=100.0, num_frames=2 ** 62), A)

    @pytest.mark.parametrize("ann", [
        parse_tsv("OnsetTime\tOffsetTime\tMidiPitch\n0\t244000\t60\n"),
        parse_midi(smf.simple_file([(0, smf.VLQ_MAX, 60)], tempo_events=[(0, 400000)]))],
        ids=["43-byte-tsv", "44-byte-smf"])
    def test_far_note_of_a_small_file_rejected(self, ann):
        # one note that ends at 244,000 s, or at an SMF's largest delta time
        # (223,696 s), asks for about 2e9 cells at 100 fps: within
        # MAX_LABEL_CELLS, but past MAX_CELLS_PER_NOTE for its one note
        grid = FrameGrid.covering(100.0, ann.duration_sec)
        assert grid.num_frames * 88 <= MAX_LABEL_CELLS
        for paint in (rasterize, rasterize_with_records, noise_ceiling):
            with pytest.raises(ContractError, match=f"x 88 labels exceeds the budget of "
                                                    f"{MAX_CELLS_PER_NOTE} cells per note; "
                                                    f"it paints 1$"):
                paint(ann, grid, A)

    @pytest.mark.parametrize("num_frames,named", [
        (2 ** 62, None), (2 ** 63 - 1, str(2 ** 63 - 1)), (2 ** 63, str(2 ** 63)),
        (2 ** 64 + 5, "1.84e+19")], ids=["2**62", "2**63-1", "2**63", "2**64+5"])
    def test_zero_label_grid_must_fit_int64(self, num_frames, named):
        # with no labels no cell budget applies; the frame line must still
        # fit int64, and a grid of 2**62 frames still rasterizes
        ann = annotation_of([], num_labels=0)
        grid = FrameGrid(fps=100.0, num_frames=num_frames)
        if named is None:
            assert rasterize(ann, grid, A).frames.shape == (num_frames, 0)
            assert noise_ceiling(ann, grid, B, 1).tp == 0
            return
        for call in (lambda: rasterize(ann, grid, A), lambda: noise_ceiling(ann, grid, B, 1)):
            with pytest.raises(ContractError,
                               match=f"grid of {re.escape(named)} frames does not fit"):
                call()

    def test_draws_consumed_in_event_order(self):
        ann = annotation_of([(0.1, 0.3, 0), (0.5, 0.7, 1)], num_labels=2)
        grid = FrameGrid(fps=100.0, num_frames=100)
        _, records = rasterize_with_records(ann, grid, E, 0,
                                            shifts=np.array([1, -1]))
        assert records.t_s[0] == 10 + 1
        assert records.t_s[1] == 50 - 1


def per_range_painting(num_frames, num_labels, starts, ends, labels):
    """Each range painted on its own, clipped to the grid."""
    frames = np.zeros((num_frames, num_labels), dtype=np.uint8)
    for start, end, label in zip(starts, ends, labels):
        frames[max(start, 0):min(max(end, 0), num_frames), label] = 1
    return frames


def composite_key_parts(num_frames, num_labels, starts, ends, labels):
    """_parts with its ranges sorted by one stable argsort of the line
    position label * (num_frames + 1) + lo."""
    labels = np.asarray(labels, dtype=np.int64)
    lo = np.clip(starts, 0, num_frames).astype(np.int64)
    hi = np.clip(ends, lo, num_frames).astype(np.int64)
    base = labels * (num_frames + 1)
    order = np.argsort(base + lo, kind="stable")
    label, lo, hi = labels[order], (base + lo)[order], (base + hi)[order]
    reached = np.maximum.accumulate(np.concatenate(([0], hi))[:-1])
    lo, hi = np.maximum(lo, reached), np.maximum(hi, reached)
    part = lo < hi
    return lo[part], hi[part], label[part]


class TestPaintRanges:
    @pytest.mark.parametrize("notes", [0, 1, 3])
    def test_cells_per_note_budget(self, notes):
        # the budget is MAX_CELLS_PER_NOTE cells for each range, an empty
        # set of ranges counted as one: the matrix at it is painted, and
        # one label more is rejected
        frames, labels = MAX_CELLS_PER_NOTE // 2 ** 8, 2 ** 8 * max(notes, 1)
        ranges = ([0] * notes, [1] * notes, list(range(notes)))
        assert paint_ranges(frames, labels, *ranges).sum() == notes
        with pytest.raises(ContractError, match=f"{frames} frames x {labels + 1} labels "
                                                f"exceeds the budget of {MAX_CELLS_PER_NOTE} "
                                                f"cells per note; it paints {notes}$"):
            paint_ranges(frames, labels + 1, *ranges)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_non_finite_bounds_rejected(self, bound):
        for starts, ends in (([bound], [3.0]), ([0.0], [bound])):
            with pytest.raises(ContractError, match="range bounds must be finite"):
                paint_ranges(5, 2, starts, ends, [1])

    # rows of 0, 1 and 2 words, and word edges at 8 and 64 bits
    @pytest.mark.parametrize("num_labels", [0, 1, 7, 8, 9, 63, 64, 65, 88, 200])
    @pytest.mark.parametrize("num_frames", [1, 37])
    def test_equals_per_range_painting(self, num_labels, num_frames):
        rng = np.random.default_rng(1000 * num_labels + num_frames)
        n = 30 * num_labels
        # overlapping, empty (end <= start) and clipped (past either edge) ranges
        starts = rng.integers(-6, num_frames + 6, n)
        ends = starts + rng.integers(-4, 20, n)
        labels = rng.integers(0, max(num_labels, 1), n)
        # each of these starts on the frame where a range of its label ends
        touching = rng.integers(0, n, n // 3) if n else np.zeros(0, dtype=np.int64)
        starts = np.concatenate((starts, ends[touching]))
        ends = np.concatenate((ends, ends[touching] + rng.integers(1, 9, len(touching))))
        labels = np.concatenate((labels, labels[touching]))
        expected = per_range_painting(num_frames, num_labels, starts, ends, labels)
        for bounds in ((starts, ends), (starts.astype(float), ends.astype(float))):
            painted = paint_ranges(num_frames, num_labels, *bounds, labels)
            assert painted.dtype == np.uint8
            assert painted.shape == (num_frames, num_labels)
            assert np.array_equal(painted, expected)

    @pytest.mark.parametrize("fn", [E, F])
    def test_parts_sort_as_the_composite_key(self, fn):
        # notes stacked on one onset, and shifts that move others onto it,
        # give parts of one label starting on one frame: ties, whose order
        # decides how the later ones are cut
        rng = np.random.default_rng(17)
        onsets = np.round(rng.random(3000) * 20.0, 1)
        offsets = onsets + 0.01 + np.round(rng.random(3000), 2)
        labels = rng.integers(0, 12, 3000)
        order = np.lexsort((offsets, labels, onsets))
        onsets, offsets, labels = onsets[order], offsets[order], labels[order]
        grid = FrameGrid(fps=100.0, num_frames=1900)
        q = quantize(fn, onsets, offsets, grid.dt, seeded_shifts(fn, 5, len(onsets)))
        keys = labels * (grid.num_frames + 1) + np.clip(q.t_s, 0, grid.num_frames)
        assert len(np.unique(keys)) < len(keys)
        args = (grid.num_frames, 12, q.t_s, q.t_e, labels)
        for got, expected in zip(_parts(*args), composite_key_parts(*args)):
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_parts_sort_labels_wider_than_16_bits(self):
        rng = np.random.default_rng(4)
        num_frames, num_labels = 9, 70_000
        labels = rng.integers(0, num_labels, 5000)
        labels[:50] = num_labels - 1
        starts = rng.integers(-2, num_frames + 2, 5000)
        ends = starts + rng.integers(0, 6, 5000)
        args = (num_frames, num_labels, starts, ends, labels)
        for got, expected in zip(_parts(*args), composite_key_parts(*args)):
            assert np.array_equal(got, expected)
        assert np.array_equal(paint_ranges(*args), per_range_painting(*args))


class TestNoiseCeiling:
    def test_reference_scores_one(self, hundred_notes):
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        result = noise_ceiling(hundred_notes, grid, A, 12345)
        assert result.precision == 1.0
        assert result.recall == 1.0
        assert result.fmeasure == 1.0

    def test_floor_boundaries_lose_fmeasure(self):
        # every boundary sits at fractional part 0.6, so floor disagrees
        # with round on all of them
        events = [(0.06, 0.26, 0), (0.46, 0.66, 1),
                  (0.86, 1.06, 2)]
        ann = annotation_of(events, num_labels=3, duration_sec=1.2)
        grid = FrameGrid(fps=10.0, num_frames=12)
        result = noise_ceiling(ann, grid, C, 0)
        assert result.fmeasure < 1.0

    @staticmethod
    def assert_equals_matrix_count(ann, grid, seed):
        """noise_ceiling, counted from ranges, equals the cellwise count of
        the two painted matrices for every labeling function."""
        from notegrid import framewise_counts

        ref = rasterize(ann, grid, A, 0)
        for fn in LabelingFunction:
            expected = framewise_counts(rasterize(ann, grid, fn, seed), ref)
            assert noise_ceiling(ann, grid, fn, seed) == expected, (fn, grid, seed)

    @pytest.mark.parametrize("fps", [100.0, 31.25])
    @pytest.mark.parametrize("clipped", [False, True])
    def test_range_count_equals_matrix_count(self, hundred_notes, fps, clipped):
        # a clipped grid ends mid-annotation, so notes run past its end
        grid = FrameGrid.covering(fps, 20.0 if clipped else hundred_notes.duration_sec)
        for seed in (0, 1, 12345):
            self.assert_equals_matrix_count(hundred_notes, grid, seed)

    @pytest.mark.parametrize("case", range(8))
    def test_range_count_on_random_annotations(self, case):
        r = random.Random(case)
        num_labels = r.randint(1, 6)
        onsets = [r.random() * 3.0 for _ in range(r.randint(0, 60))]
        ann = Annotation(onsets, [t + 1e-4 + r.random() * r.choice([0.02, 0.5]) for t in onsets],
                         [r.randrange(num_labels) for _ in onsets], num_labels, 3.6)
        for fps in (100.0, 31.25):
            for seconds in (1.0, 3.6):
                self.assert_equals_matrix_count(ann, FrameGrid.covering(fps, seconds), case)

    def test_range_count_on_stacked_clamped_and_degenerate_notes(self):
        events = ([(0.0, 0.02, 0), (0.001, 0.004, 1)]  # shifts clamp at 0
                  + [(0.1 + 0.01 * i, 0.3 + 0.02 * i, 2) for i in range(6)]  # stacked
                  + [(0.2, 0.25, 2), (0.25, 0.3, 2)]  # end-to-end
                  + [(0.5 + 0.1 * i, 0.5 + 0.1 * i + 0.003, 3) for i in range(5)])
        ann = annotation_of(events, num_labels=4, duration_sec=1.0)
        grid = FrameGrid(fps=100.0, num_frames=100)
        for fn in (C, D):  # 3 ms notes quantize to zero length
            assert quantize(fn, ann.onsets, ann.offsets, grid.dt).degenerate.any(), fn
        clamps = 0
        for seed in range(40):
            clamps += sum(rasterize_with_records(ann, grid, fn, seed)[1].clamped.sum()
                          for fn in (E, F))
            self.assert_equals_matrix_count(ann, grid, seed)
        assert clamps

    def test_paints_no_matrix(self, hundred_notes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("noise_ceiling painted a matrix")

        for painter in ("paint_ranges", "_paint"):
            monkeypatch.setattr(quantize_module, painter, refuse)
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        # a fresh copy quantizes on the first round and reads the kept parts
        # on the second, so both paths run, whatever earlier tests kept
        ann = replace(hundred_notes)
        for _ in range(2):
            for fn in LabelingFunction:
                noise_ceiling(ann, grid, fn, 3)

    def test_grid_past_cell_budget_rejected(self):
        ann = annotation_of([(0.5, 0.9, 1)], num_labels=4)
        with pytest.raises(ContractError, match=f"{2 ** 62} frames x 4 labels exceeds "
                                                f"the budget of {2 ** 31} cells"):
            noise_ceiling(ann, FrameGrid(fps=100.0, num_frames=2 ** 62), B)

    def test_zero_shifts_reduce_to_reference(self, hundred_notes):
        from notegrid import framewise_counts

        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        forced = rasterize(hundred_notes, grid, E, rng=np.zeros(len(hundred_notes), dtype=int))
        ref = rasterize(hundred_notes, grid, A, 0)
        assert framewise_counts(forced, ref).fmeasure == 1.0


class TestNegativeLabelCount:
    @pytest.mark.parametrize("call", [
        lambda ann, grid: rasterize(ann, grid, A),
        lambda ann, grid: rasterize_with_records(ann, grid, E, shifts=np.zeros(0, dtype=int)),
        lambda ann, grid: noise_ceiling(ann, grid, F, 3),
        # SynthConfig requires a label, so a duck-typed config reaches the painter
        lambda ann, grid: render_features(ann, grid, SimpleNamespace(num_labels=-5)),
        lambda ann, grid: paint_ranges(grid.num_frames, -5, [], [], []),
    ], ids=["rasterize", "explicit-shifts", "noise_ceiling", "render_features", "paint_ranges"])
    def test_rejected_with_its_value(self, call):
        ann = annotation_of([], num_labels=-5)
        with pytest.raises(ContractError, match=r"^num_labels must be >= 0, got -5$"):
            call(ann, FrameGrid(fps=100.0, num_frames=10))


def random_annotation(seed: int, num_notes: int, num_labels: int,
                      seconds: float) -> Annotation:
    """Notes with onsets on a 1 ms grid, so that some stack, touch or
    quantize to zero length."""
    r = random.Random(seed)
    notes = []
    for _ in range(num_notes):
        onset = round(r.random() * seconds * 0.98, 3)
        notes.append((onset, onset + 0.001 + r.random() * r.choice([0.02, 0.9]),
                      r.randrange(num_labels)))
    return annotation_of(notes, num_labels, seconds)


class TestQuantizationCache:
    def test_label_study_file_quantizes_once_per_key(self, monkeypatch):
        # one label-study file's operation, at a seed that is not 0: the seed-0
        # reference of noise_ceiling shares rasterize's entry for a
        ann = random_annotation(3, 400, 88, 45.0)
        calls = []

        def counting_quantize(fn, onsets, offsets, dt, shifts=None):
            calls.append((fn, dt))
            return quantize(fn, onsets, offsets, dt, shifts)

        monkeypatch.setattr(quantize_module, "quantize", counting_quantize)
        grid = FrameGrid.covering(100.0, ann.duration_sec)
        matrices = [rasterize(ann, grid, fn, 7) for fn in LabelingFunction]
        for fn in (B, C, D, E, F):
            noise_ceiling(ann, grid, fn, 7)
        disagreement(matrices[0], matrices[-1], ann)
        coarse = rasterize(ann, FrameGrid.covering(31.25, ann.duration_sec), F, 7)
        evaluate_against_reference(coarse, ann)
        # six functions at 100 fps, f at 31.25 fps, and a on the 30 s window's grid
        assert calls == [(fn, 0.01) for fn in LabelingFunction] + [(F, 0.032), (A, 0.01)]

    @pytest.mark.parametrize("case", range(4))
    def test_outputs_equal_a_fresh_copy(self, case):
        r = random.Random(case)
        ann = random_annotation(case, r.randint(0, 150), r.randint(1, 9), 4.0)
        grids = [FrameGrid.covering(fps, seconds) for fps in (100.0, 31.25)
                 for seconds in (2.0, 4.0)]
        keys = [(grid, fn, seed) for grid in grids for fn in LabelingFunction
                for seed in (0, 5)]
        # 48 keys overrun the cap; the second, reversed round hits the entries
        # the first one kept last
        order = r.sample(keys, len(keys))
        for grid, fn, seed in order + order[::-1]:
            matrix, records = rasterize_with_records(ann, grid, fn, seed)
            fresh_matrix, fresh_records = rasterize_with_records(replace(ann), grid, fn, seed)
            assert matrix.frames.tobytes() == fresh_matrix.frames.tobytes()
            assert (matrix.labeling_function, matrix.seed) == (fn, seed)
            for got, want in zip(records, fresh_records):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert noise_ceiling(ann, grid, fn, seed) == noise_ceiling(replace(ann), grid, fn,
                                                                        seed)
            reference = rasterize(ann, grid, A)
            assert disagreement(reference, matrix, ann) == disagreement(
                reference, matrix, replace(ann))

    def test_returned_records_are_read_only(self):
        ann = random_annotation(1, 10, 4, 3.0)
        _, records = rasterize_with_records(ann, FrameGrid(100.0, 300), F, 2)
        for field in records:
            with pytest.raises(ValueError, match="read-only"):
                field[0] = field[1]

    def test_disagreement_reads_kept_records_and_keeps_none(self, monkeypatch):
        ann = random_annotation(5, 80, 6, 3.0)
        grid = FrameGrid(100.0, 300)
        a, f = rasterize(ann, grid, A), rasterize(ann, grid, F, 4)
        want = disagreement(a, f, replace(ann))
        calls = []

        def counting_quantize(fn, onsets, offsets, dt, shifts=None):
            calls.append(fn)
            return quantize(fn, onsets, offsets, dt, shifts)

        monkeypatch.setattr(quantize_module, "quantize", counting_quantize)
        monkeypatch.setattr(quantize_module, "_parts", None)
        assert disagreement(a, f, ann) == want and calls == []
        copy = replace(ann)
        assert disagreement(a, f, copy) == want and calls == [A, F]
        assert copy._quantized == {}

    def test_explicit_shifts_neither_read_nor_fill_it(self):
        ann = random_annotation(2, 60, 4, 3.0)
        grid = FrameGrid(100.0, 300)
        zeros = np.zeros(len(ann), dtype=int)
        rasterize(ann, grid, E, 0, rng=zeros)
        assert ann._quantized == {}
        seeded = rasterize_with_records(ann, grid, E, 0)[1]
        forced = rasterize_with_records(ann, grid, E, 0, shifts=zeros)[1]
        assert len(ann._quantized) == 1
        assert all(field.flags.writeable for field in forced)
        assert not np.array_equal(forced.t_s, seeded.t_s)
        assert np.array_equal(forced.t_s, quantize(A, ann.onsets, ann.offsets, grid.dt).t_s)

    def test_contract_error_keeps_no_entry(self):
        grid = FrameGrid(fps=100.0, num_frames=100)
        for ann in (Annotation([0.1], [0.5], [7], num_labels=4, duration_sec=1.0),
                    Annotation([0.5], [0.1], [0], num_labels=4, duration_sec=1.0),
                    annotation_of([], num_labels=-5)):
            with pytest.raises(ContractError):
                rasterize(ann, grid, E, 1)
            with pytest.raises(ContractError):
                noise_ceiling(ann, grid, B, 1)
            assert ann._quantized == {}

    def test_a_sweep_keeps_the_newest_entries_up_to_the_cap(self):
        ann = random_annotation(4, 30, 3, 2.0)
        grids = [FrameGrid(100.0, n) for n in range(150, 190)]
        for grid in grids:
            rasterize(ann, grid, A)
        assert MAX_CACHED_QUANTIZATIONS == 16
        assert [grid for grid, _, _ in ann._quantized] == grids[-16:]
