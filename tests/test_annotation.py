import hashlib
import math
import random

import numpy as np
import pytest

import notegrid
from conftest import annotation_of, notes_of
from notegrid import (Annotation, ContractError, FormatError, RangeError,
                      ValidationError, parse_tsv, to_tsv, validate)
from notegrid.util import brief

HEADER = "OnsetTime\tOffsetTime\tMidiPitch"


class TestParseTsv:
    def test_single_event(self):
        ann = parse_tsv(HEADER + "\n0.500 1.250 60\n")
        assert len(ann) == 1
        assert ann.onsets.tolist() == [0.5]
        assert ann.offsets.tolist() == [1.25]
        assert ann.labels.tolist() == [39]  # pitch 60 minus piano offset 21
        assert ann.num_labels == 88
        assert ann.duration_sec == 1.25

    def test_empty_body(self):
        ann = parse_tsv(HEADER + "\n")
        assert len(ann) == 0
        assert ann.duration_sec == 0.0

    def test_zero_duration_line_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_tsv(HEADER + "\n1.0 1.0 60\n")

    def test_negative_onset_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_tsv(HEADER + "\n-0.5 1.0 60\n")

    @pytest.mark.parametrize("line", ["nan 1.0 60", "0.5 inf 60", "-inf 1.0 60"])
    def test_non_finite_time_rejected(self, line):
        with pytest.raises(ValidationError, match="line 2: non-finite"):
            parse_tsv(HEADER + "\n" + line + "\n")

    def test_non_integer_pitch_rejected(self):
        with pytest.raises(FormatError, match="line 2: non-integer pitch 60.5"):
            parse_tsv(HEADER + "\n0.5 1.0 60.5\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError):
            parse_tsv("Onset Offset Pitch\n0.5 1.0 60\n")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_tsv("")

    def test_pitch_out_of_range_names_line(self):
        with pytest.raises(RangeError, match="line 3"):
            parse_tsv(HEADER + "\n0.5 1.0 60\n0.6 1.1 120\n")
        with pytest.raises(RangeError, match="line 2"):
            parse_tsv(HEADER + "\n0.5 1.0 20\n")

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_tsv(HEADER + "\n0.5 1.0\n")

    def test_non_numeric_field(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_tsv(HEADER + "\n0.5 abc 60\n")

    def test_accepts_tabs_spaces_crlf_and_exponents(self):
        text = "OnsetTime OffsetTime MidiPitch\r\n5e-1\t1.25e0  60\r\n"
        ann = parse_tsv(text)
        assert ann.onsets[0] == 0.5
        assert ann.offsets[0] == 1.25

    def test_line_numbers_count_only_newline_breaks(self):
        # a vertical tab ends no line of the file, so the bad note is on line 3
        text = "OnsetTime\tOffsetTime\tMidiPitch\n0.1\t0.2\t60\x0b\n0.5\t0.4\t61\n"
        with pytest.raises(ValidationError) as info:
            parse_tsv(text)
        assert str(info.value) == "line 3: offset 0.4 <= onset 0.5"

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029"])
    def test_other_line_separators_are_whitespace_in_a_line(self, separator):
        ann = parse_tsv(HEADER + f"\n0.5{separator}1.0\t60\n")
        assert (ann.onsets.tolist(), ann.offsets.tolist(), ann.labels.tolist()) == (
            [0.5], [1.0], [39])

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_line_break_counts_once(self, newline):
        text = newline.join([HEADER, "0.1 0.2 60", "", "0.5 0.4 61", ""])
        with pytest.raises(ValidationError, match="^line 4: offset 0.4 <= onset 0.5$"):
            parse_tsv(text)
        assert len(parse_tsv(newline.join([HEADER, "0.1 0.2 60", ""]))) == 1

    def test_reordered_header_columns(self):
        ann = parse_tsv("MidiPitch OnsetTime OffsetTime\n60 0.5 1.25\n")
        assert ann.labels[0] == 39
        assert ann.onsets[0] == 0.5

    def test_blank_lines_skipped(self):
        ann = parse_tsv(HEADER + "\n\n0.5 1.0 60\n\n")
        assert len(ann) == 1

    def test_pitch_offset_override(self):
        ann = parse_tsv(HEADER + "\n0.5 1.0 3\n", pitch_offset=0, num_labels=12)
        assert ann.labels[0] == 3
        assert ann.num_labels == 12

    def test_events_sorted(self):
        text = HEADER + "\n2.0 3.0 70\n0.5 1.0 60\n0.5 2.0 55\n"
        ann = parse_tsv(text)
        onsets = ann.onsets.tolist()
        assert onsets == sorted(onsets)
        assert ann.labels[:2].tolist() == [34, 39]

    def test_parser_output_validates_clean(self):
        text = HEADER + "\n0.5 1.0 60\n0.25 0.75 21\n5.0 9.0 108\n"
        assert validate(parse_tsv(text)) == ()


class TestRoundTrip:
    def test_round_trip_exact_on_six_decimals(self):
        r = random.Random(99)
        notes = []
        for _ in range(200):
            onset_us = r.randrange(0, 60_000_000)
            dur_us = r.randrange(1, 2_000_000)
            pitch = r.randrange(21, 109)
            notes.append((onset_us / 1e6, (onset_us + dur_us) / 1e6, pitch - 21))
        ann = annotation_of(notes, num_labels=88)
        again = parse_tsv(to_tsv(ann))
        assert again == ann

    def test_round_trip_empty(self):
        ann = annotation_of([], num_labels=88)
        assert parse_tsv(to_tsv(ann)) == ann


class TestAnnotationType:
    def test_constructor_sorts(self):
        ann = Annotation([2.0, 0.5, 0.5], [3.0, 1.0, 1.0], [5, 7, 2], num_labels=12,
                         duration_sec=3.0)
        assert ann.labels.tolist() == [2, 7, 5]

    def test_tie_broken_by_offset(self):
        ann = Annotation([1.0, 1.0], [5.0, 2.0], [3, 3], num_labels=12, duration_sec=5.0)
        assert ann.offsets.tolist() == [2.0, 5.0]

    def test_order_is_stable_event_sort(self):
        # heavy ties: few distinct times, duplicate events, and -0.0 beside
        # 0.0, which compare equal, so only a stable sort keeps their order
        r = random.Random(0x50E7)
        times = [-0.0, 0.0, 0.25, 0.5, 1.0, 2.0]
        for _ in range(300):
            notes = [(r.choice(times), r.choice(times), r.randrange(3))
                     for _ in range(r.randrange(40))]
            notes += r.sample(notes, len(notes) // 3)
            ann = annotation_of(notes, num_labels=3)
            expected = sorted(notes, key=lambda note: (note[0], note[2], note[1]))
            assert [repr(note) for note in notes_of(ann)] == [repr(note) for note in expected]

    def test_columns_are_read_only_arrays(self):
        ann = Annotation([1.0, 0.5], [2.0, 1.5], [3, 4], num_labels=5, duration_sec=2.0)
        assert ann.onsets.dtype == np.float64 and ann.labels.dtype == np.int64
        assert ann.onsets.tolist() == [0.5, 1.0] and ann.labels.tolist() == [4, 3]
        for column in (ann.onsets, ann.offsets, ann.labels):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_equality_compares_columns_and_fields(self):
        ann = Annotation([0.5], [1.0], [2], num_labels=3, duration_sec=1.0)
        assert ann == annotation_of([(0.5, 1.0, 2)], num_labels=3)
        assert ann != Annotation([0.5], [1.0], [1], num_labels=3, duration_sec=1.0)
        assert ann != Annotation([0.5], [1.0], [2], num_labels=4, duration_sec=1.0)
        assert ann != Annotation([0.5], [1.0], [2], num_labels=3, duration_sec=2.0)
        assert (ann == 5) is False  # no Annotation: Python falls back to identity
        with pytest.raises(TypeError):
            hash(ann)

    @pytest.mark.parametrize("onsets,offsets,labels", [
        ([0.0, 1.0], [2.0], [0, 1]),
        ([0.0], [2.0], [0, 1]),
        ([[0.0]], [[2.0]], [[0]]),
    ])
    def test_column_shapes_must_agree(self, onsets, offsets, labels):
        with pytest.raises(ContractError):
            Annotation(onsets, offsets, labels, num_labels=2, duration_sec=2.0)

    @pytest.mark.parametrize("label", [2 ** 63, -2 ** 63 - 1])
    def test_label_past_int64_is_a_contract_error(self, label):
        with pytest.raises(ContractError, match="int64"):
            Annotation([0.0], [1.0], [label], 1, 1.0)

    # the first two used to cast to -2**63 with a RuntimeWarning, the last to
    # wrap to -2**63 without one
    @pytest.mark.parametrize("labels", [np.array([1e300]), np.array([np.nan]),
                                        np.array([2 ** 63], dtype=np.uint64)],
                             ids=["1e300", "nan", "uint64-2**63"])
    def test_label_array_past_int64_is_a_contract_error(self, labels):
        with pytest.raises(ContractError, match="^labels must lie within the int64 range$"):
            Annotation([0.0], [1.0], labels, 1, 1.0)

    def test_label_arrays_within_int64_are_kept(self):
        for labels in (np.array([2.0, -2.0 ** 63]), np.array([2 ** 63 - 1, 0], dtype=np.uint64)):
            ann = Annotation([0.0, 0.5], [1.0, 1.0], labels, 1, 1.0)
            assert ann.labels.dtype == np.int64
            assert sorted(ann.labels.tolist()) == sorted(int(label) for label in labels)

    def test_hundred_notes_fixture_is_frozen(self, hundred_notes):
        # the golden numbers in the acceptance tests are frozen against
        # these exact columns, dtypes and fields
        digest = hashlib.sha256()
        for column in (hundred_notes.onsets, hundred_notes.offsets, hundred_notes.labels):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
        assert digest.hexdigest() == (
            "a8f0fa6edbb695f241bbf7291e3ce73c0825d67ecff639a9f3774e7ba9756c14")
        assert (hundred_notes.num_labels, hundred_notes.duration_sec) == (12, 30.0)

    def test_per_note_names_are_gone(self):
        for name in ("NoteEvent", "ValidationReport", "ShiftStream"):
            assert not hasattr(notegrid, name)
            assert name not in notegrid.__all__
        assert not hasattr(Annotation, "events")
        assert not hasattr(Annotation, "from_events")


def reference_validate(annotation: Annotation) -> tuple[str, ...]:
    """validate as one Python loop over the notes, the reference its
    column masks must equal message for message."""
    violations: list[str] = []
    if annotation.num_labels <= 0:
        violations.append(f"num_labels must be positive, got {brief(annotation.num_labels)}")
    if not 0 <= annotation.duration_sec < math.inf:
        violations.append(f"duration_sec must be finite and >= 0, got {annotation.duration_sec}")
    for i, (onset, offset, label) in enumerate(notes_of(annotation)):
        if not (math.isfinite(onset) and math.isfinite(offset)):
            violations.append(f"event {i}: non-finite onset or offset")
        if onset < 0:
            violations.append(f"event {i}: negative onset {onset}")
        if offset <= onset:
            violations.append(
                f"event {i}: non-positive duration (onset {onset}, offset {offset})")
        if not 0 <= label < annotation.num_labels:
            violations.append(
                f"event {i}: label {label} outside [0, {brief(annotation.num_labels)})")
        if offset > annotation.duration_sec:
            violations.append(
                f"event {i}: offset {offset} past duration {annotation.duration_sec}")
    return tuple(violations)


class TestValidate:
    def test_well_formed_two_events(self):
        ann = annotation_of([(0.0, 1.0, 0), (0.5, 2.0, 3)], num_labels=4)
        assert validate(ann) == ()

    def test_label_at_num_labels(self):
        ann = annotation_of([(0.0, 1.0, 4)], num_labels=4)
        assert validate(ann) == ("event 0: label 4 outside [0, 4)",)

    def test_huge_label_count_echoed_briefly(self):
        ann = Annotation([0.0], [1.0], [-1], num_labels=10 ** 400, duration_sec=1.0)
        assert validate(ann) == ("event 0: label -1 outside [0, 1.00e+400)",)

    def test_event_past_duration(self):
        ann = Annotation([0.0], [5.0], [0], num_labels=4, duration_sec=2.0)
        assert validate(ann) == ("event 0: offset 5.0 past duration 2.0",)

    def test_zero_duration_event(self):
        ann = Annotation([1.0], [1.0], [0], num_labels=4, duration_sec=2.0)
        assert any("non-positive duration" in v for v in validate(ann))

    def test_multiple_violations_all_reported(self):
        ann = Annotation([-1.0], [5.0], [9], num_labels=4, duration_sec=2.0)
        assert len(validate(ann)) == 3  # negative onset, label, past duration

    def test_non_finite_times_reported(self):
        ann = Annotation([float("nan"), 0.5], [1.0, float("inf")], [0, 1],
                         num_labels=2, duration_sec=float("inf"))
        violations = validate(ann)
        assert any("duration_sec" in v for v in violations)
        assert sum("non-finite" in v for v in violations) == 2

    @pytest.mark.filterwarnings("error")
    def test_matches_the_per_event_loop_on_a_fuzz(self):
        # odd times, labels near the int64 edges and label spaces past them,
        # checked message for message, with every NumPy warning an error
        r = random.Random(0xF022)
        times = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1.5, 0.25, 1.0, 2.0, 1e308]
        labels = [-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2, 11, 12, 2 ** 63 - 2, 2 ** 63 - 1]
        num_labels = [-2 ** 70, -2 ** 63, -1, 0, 1, 3, 12, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 70]
        durations = [math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 1.0, 2.0, 1e308]

        def time():
            return r.choice(times) if r.random() < 0.3 else r.uniform(-1.0, 3.0)

        for _ in range(3000):
            size = r.randrange(12)
            ann = Annotation([time() for _ in range(size)], [time() for _ in range(size)],
                             [r.choice(labels) if r.random() < 0.5 else r.randrange(-3, 15)
                              for _ in range(size)],
                             r.choice(num_labels), r.choice(durations))
            assert validate(ann) == reference_validate(ann)
