import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from notegrid import (Annotation, ContractError, FrameGrid, LabelingFunction,
                      LabelMatrix, NoteEvent, QuantizedArrays, ShiftStream,
                      noise_ceiling, quantize_interval, rasterize,
                      rasterize_with_records)
from notegrid.quantize import quantize, seeded_shifts
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
    reference ShiftStream.draws must equal."""
    while True:
        z = splitmix64(counter)
        counter = (counter + 1) & MASK64
        if z < MASK64:
            yield z % 3 - 1


def reference_stream(seed, fn):
    """scalar_draws from the counter ShiftStream(seed, fn) starts at."""
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
        onsets = [e.onset_sec for e in hundred_notes.events]
        offsets = [e.offset_sec for e in hundred_notes.events]
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
        q = quantize(F, [], [], 0.01, shifts=ShiftStream(0, F).draws(0))
        assert all(field.shape == (0,) for field in q)


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


class TestShiftStream:
    def test_deterministic_per_seed_and_fn(self):
        first = ShiftStream(42, E).draws(50).tolist()
        second = ShiftStream(42, E).draws(50).tolist()
        assert first == second

    def test_distinct_functions_get_distinct_streams(self):
        stream_e = ShiftStream(42, E).draws(50).tolist()
        stream_f = ShiftStream(42, F).draws(50).tolist()
        assert stream_e != stream_f

    def test_values_uniform_over_three(self):
        draws = ShiftStream(7, F).draws(3000).tolist()
        assert set(draws) == {-1, 0, 1}
        for value in (-1, 0, 1):
            assert 850 <= draws.count(value) <= 1150

    def test_draws_are_int64(self):
        assert ShiftStream(0, E).draws(5).dtype == np.int64
        assert ShiftStream(0, E).draws(0).shape == (0,)

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    @pytest.mark.parametrize("fn", [E, F])
    def test_first_million_equal_scalar_loop(self, seed, fn):
        want = list(itertools.islice(reference_stream(seed, fn), 10 ** 6))
        assert ShiftStream(seed, fn).draws(10 ** 6).tolist() == want

    def test_rejected_counter_hashes_to_the_rejected_value(self):
        assert splitmix64(REJECTED_COUNTER) == MASK64

    @pytest.mark.parametrize("split", range(11))
    def test_matches_scalar_loop_across_rejection(self, split):
        # the stream starts 3 counters before the one rejected hash, and
        # the draws are taken in two calls split at every point
        stream = ShiftStream(0, E)
        stream._counter = REJECTED_COUNTER - 3
        got = stream.draws(split).tolist() + stream.draws(10 - split).tolist()
        assert got == list(itertools.islice(scalar_draws(REJECTED_COUNTER - 3), 10))
        # the counter stopped where ten scalar draws leave it
        assert stream._counter == REJECTED_COUNTER + 8

    @pytest.mark.parametrize("a,b", [(0, 0), (0, 5), (5, 0), (1, 1), (17, 1000), (999, 2)])
    def test_consecutive_calls_equal_one_call(self, a, b):
        split = ShiftStream(12345, F)
        joined = np.concatenate([split.draws(a), split.draws(b)])
        assert joined.tolist() == ShiftStream(12345, F).draws(a + b).tolist()

    def test_counter_wraps_at_2_to_64(self):
        stream = ShiftStream(0, F)
        stream._counter = MASK64 - 1
        assert stream.draws(6).tolist() == list(itertools.islice(scalar_draws(MASK64 - 1), 6))
        assert stream._counter == 4


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

    @pytest.mark.parametrize("seconds", [float("inf"), float("nan"), 1e307])
    def test_covering_rejects_non_finite_span(self, seconds):
        with pytest.raises(ContractError):
            FrameGrid.covering(100.0, seconds)


class TestLabelMatrix:
    def test_binary_enforced(self):
        grid = FrameGrid(fps=100.0, num_frames=2)
        with pytest.raises(ContractError):
            LabelMatrix(frames=np.array([[0, 2], [0, 0]]), grid=grid)

    def test_shape_must_match_grid(self):
        grid = FrameGrid(fps=100.0, num_frames=3)
        with pytest.raises(ContractError):
            LabelMatrix(frames=np.zeros((2, 4), dtype=np.uint8), grid=grid)

    def test_frames_immutable(self):
        grid = FrameGrid(fps=100.0, num_frames=2)
        matrix = LabelMatrix(frames=np.zeros((2, 3), dtype=np.uint8), grid=grid)
        with pytest.raises(ValueError):
            matrix.frames[0, 0] = 1


class TestRasterize:
    def test_empty_annotation_all_zero(self):
        ann = Annotation.from_events([], num_labels=4)
        grid = FrameGrid(fps=100.0, num_frames=30)
        matrix = rasterize(ann, grid, A)
        assert matrix.frames.shape == (30, 4)
        assert not matrix.frames.any()

    def test_single_event_half_open(self):
        ann = Annotation.from_events([NoteEvent(0.10, 0.25, 3)], num_labels=4,
                                     duration_sec=0.3)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=30), A)
        expected = np.zeros((30, 4), dtype=np.uint8)
        expected[10:25, 3] = 1
        assert np.array_equal(matrix.frames, expected)

    def test_random_function_shifts_one_boundary_frame(self):
        ann = Annotation.from_events([NoteEvent(0.10, 0.25, 3)], num_labels=4,
                                     duration_sec=0.3)
        grid = FrameGrid(fps=100.0, num_frames=30)
        base, qa = rasterize_with_records(ann, grid, A, 0)
        m1, q1 = rasterize_with_records(ann, grid, F, 1)
        m2, q2 = rasterize_with_records(ann, grid, F, 2)
        for q in (q1, q2):
            assert abs(q.t_s - qa.t_s) <= 1 and abs(q.t_e - qa.t_e) <= 1
        assert (q1.t_s, q1.t_e) != (q2.t_s, q2.t_e)
        assert not np.array_equal(m1.frames, m2.frames)

    def test_deterministic_given_seed(self):
        ann = Annotation.from_events(
            [NoteEvent(0.1, 0.5, 0), NoteEvent(0.3, 0.9, 2)], num_labels=3)
        grid = FrameGrid(fps=31.25, num_frames=40)
        first = rasterize(ann, grid, F, 123)
        second = rasterize(ann, grid, F, 123)
        assert np.array_equal(first.frames, second.frames)
        assert first.frames.tobytes() == second.frames.tobytes()

    def test_same_label_overlap_ors(self):
        ann = Annotation.from_events(
            [NoteEvent(0.0, 0.2, 1), NoteEvent(0.1, 0.3, 1)], num_labels=2)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=30), A)
        assert matrix.frames[:30, 1].sum() == 30

    def test_indices_clipped_at_grid_end(self):
        ann = Annotation.from_events([NoteEvent(0.1, 5.0, 0)], num_labels=1)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=20), A)
        assert matrix.frames[10:, 0].all()

    def test_event_entirely_past_grid(self):
        ann = Annotation.from_events([NoteEvent(1.0, 2.0, 0)], num_labels=1)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=10), A)
        assert not matrix.frames.any()

    def test_label_out_of_range_rejected(self):
        ann = Annotation([0.0], [0.5], [7], num_labels=4, duration_sec=1.0)
        with pytest.raises(ContractError):
            rasterize(ann, FrameGrid(fps=100.0, num_frames=10), A)

    def test_provenance_recorded(self):
        ann = Annotation.from_events([NoteEvent(0.1, 0.5, 0)], num_labels=1)
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
        for event, q in zip(hundred_notes.events, per_interval(records)):
            if not q.degenerate:
                rebuilt[min(q.t_s, grid.num_frames):min(q.t_e, grid.num_frames),
                        event.label] = 1
        assert np.array_equal(rebuilt, matrix.frames)

    @pytest.mark.parametrize("num_labels", [3, 8])  # rows of bytes, and of 8-byte words
    def test_matrix_matches_per_note_painting(self, num_labels):
        # many same-label overlaps and touching ranges, one note stacked
        # 300 deep, shifts below frame 0, and a grid that ends before the
        # last notes
        r = random.Random(29)
        events = [NoteEvent(0.5, 0.9, 1)] * 300
        for _ in range(100 * num_labels):
            onset = r.random() * (0.05 if r.random() < 0.3 else 4.0)
            events.append(NoteEvent(onset, onset + 1e-6 + r.random() * r.choice([0.02, 1.5]),
                                    r.randrange(num_labels)))
        ann = Annotation.from_events(events, num_labels=num_labels)
        grid = FrameGrid(fps=31.25, num_frames=100)
        for fn in LabelingFunction:
            matrix, records = rasterize_with_records(ann, grid, fn, 4)
            painted = np.zeros_like(matrix.frames)
            for event, q in zip(ann.events, per_interval(records)):
                painted[q.t_s:q.t_e, event.label] = 1
            assert np.array_equal(matrix.frames, painted), fn
            assert np.array_equal(rasterize(ann, grid, fn, 4).frames, painted), fn

    def test_grid_past_cell_budget_rejected(self):
        ann = Annotation.from_events([NoteEvent(0.5, 0.9, 1)], num_labels=4)
        with pytest.raises(ContractError, match=f"{2 ** 62} frames x 4 labels exceeds "
                                                f"the budget of {2 ** 31} cells"):
            rasterize(ann, FrameGrid(fps=100.0, num_frames=2 ** 62), A)

    def test_draws_consumed_in_event_order(self):
        ann = Annotation.from_events(
            [NoteEvent(0.1, 0.3, 0), NoteEvent(0.5, 0.7, 1)], num_labels=2)
        grid = FrameGrid(fps=100.0, num_frames=100)
        _, records = rasterize_with_records(ann, grid, E, 0,
                                            shifts=np.array([1, -1]))
        assert records.t_s[0] == 10 + 1
        assert records.t_s[1] == 50 - 1


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
        events = [NoteEvent(0.06, 0.26, 0), NoteEvent(0.46, 0.66, 1),
                  NoteEvent(0.86, 1.06, 2)]
        ann = Annotation.from_events(events, num_labels=3, duration_sec=1.2)
        grid = FrameGrid(fps=10.0, num_frames=12)
        result = noise_ceiling(ann, grid, C, 0)
        assert result.fmeasure < 1.0

    @staticmethod
    def assert_equals_matrix_count(ann, grid, seed):
        """noise_ceiling, counted from ranges, equals the cellwise count of
        the two painted matrices for every labeling function."""
        from notegrid import framewise_counts, prf

        ref = rasterize(ann, grid, A, 0)
        for fn in LabelingFunction:
            expected = prf(framewise_counts(rasterize(ann, grid, fn, seed), ref))
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
        events = ([NoteEvent(0.0, 0.02, 0), NoteEvent(0.001, 0.004, 1)]  # shifts clamp at 0
                  + [NoteEvent(0.1 + 0.01 * i, 0.3 + 0.02 * i, 2) for i in range(6)]  # stacked
                  + [NoteEvent(0.2, 0.25, 2), NoteEvent(0.25, 0.3, 2)]  # end-to-end
                  + [NoteEvent(0.5 + 0.1 * i, 0.5 + 0.1 * i + 0.003, 3) for i in range(5)])
        ann = Annotation.from_events(events, num_labels=4, duration_sec=1.0)
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
        import notegrid.quantize

        def refuse(*args, **kwargs):
            raise AssertionError("noise_ceiling painted a matrix")

        monkeypatch.setattr(notegrid.quantize, "paint_ranges", refuse)
        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        for fn in LabelingFunction:
            noise_ceiling(hundred_notes, grid, fn, 3)

    def test_grid_past_cell_budget_rejected(self):
        ann = Annotation.from_events([NoteEvent(0.5, 0.9, 1)], num_labels=4)
        with pytest.raises(ContractError, match=f"{2 ** 62} frames x 4 labels exceeds "
                                                f"the budget of {2 ** 31} cells"):
            noise_ceiling(ann, FrameGrid(fps=100.0, num_frames=2 ** 62), B)

    def test_zero_shifts_reduce_to_reference(self, hundred_notes):
        from notegrid import framewise_counts, prf

        grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
        forced = rasterize(hundred_notes, grid, E, rng=np.zeros(len(hundred_notes), dtype=int))
        ref = rasterize(hundred_notes, grid, A, 0)
        assert prf(framewise_counts(forced, ref)).fmeasure == 1.0
