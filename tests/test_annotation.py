import random

import numpy as np
import pytest

import smf
from notegrid import (Annotation, ContractError, FormatError, NoteEvent,
                      RangeError, SynthConfig, ValidationError, generate_piece,
                      parse_midi, parse_tsv, to_tsv, validate)

HEADER = "OnsetTime\tOffsetTime\tMidiPitch"


class TestParseTsv:
    def test_single_event(self):
        ann = parse_tsv(HEADER + "\n0.500 1.250 60\n")
        assert len(ann) == 1
        event = ann.events[0]
        assert event.onset_sec == 0.5
        assert event.offset_sec == 1.25
        assert event.label == 39  # pitch 60 minus piano offset 21
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
        assert ann.events[0].onset_sec == 0.5
        assert ann.events[0].offset_sec == 1.25

    def test_reordered_header_columns(self):
        ann = parse_tsv("MidiPitch OnsetTime OffsetTime\n60 0.5 1.25\n")
        assert ann.events[0].label == 39
        assert ann.events[0].onset_sec == 0.5

    def test_blank_lines_skipped(self):
        ann = parse_tsv(HEADER + "\n\n0.5 1.0 60\n\n")
        assert len(ann) == 1

    def test_pitch_offset_override(self):
        ann = parse_tsv(HEADER + "\n0.5 1.0 3\n", pitch_offset=0, num_labels=12)
        assert ann.events[0].label == 3
        assert ann.num_labels == 12

    def test_events_sorted(self):
        text = HEADER + "\n2.0 3.0 70\n0.5 1.0 60\n0.5 2.0 55\n"
        ann = parse_tsv(text)
        onsets = [e.onset_sec for e in ann.events]
        assert onsets == sorted(onsets)
        assert [e.label for e in ann.events[:2]] == [34, 39]

    def test_parser_output_validates_clean(self):
        text = HEADER + "\n0.5 1.0 60\n0.25 0.75 21\n5.0 9.0 108\n"
        assert validate(parse_tsv(text)).ok


class TestRoundTrip:
    def test_round_trip_exact_on_six_decimals(self):
        r = random.Random(99)
        events = []
        for _ in range(200):
            onset_us = r.randrange(0, 60_000_000)
            dur_us = r.randrange(1, 2_000_000)
            pitch = r.randrange(21, 109)
            events.append(NoteEvent(onset_us / 1e6, (onset_us + dur_us) / 1e6, pitch - 21))
        ann = Annotation.from_events(events, num_labels=88)
        again = parse_tsv(to_tsv(ann))
        assert again == ann

    def test_round_trip_empty(self):
        ann = Annotation.from_events([], num_labels=88)
        assert parse_tsv(to_tsv(ann)) == ann


class TestAnnotationType:
    def test_constructor_sorts(self):
        ann = Annotation([2.0, 0.5, 0.5], [3.0, 1.0, 1.0], [5, 7, 2], num_labels=12,
                         duration_sec=3.0)
        assert [e.label for e in ann.events] == [2, 7, 5]

    def test_tie_broken_by_offset(self):
        ann = Annotation([1.0, 1.0], [5.0, 2.0], [3, 3], num_labels=12, duration_sec=5.0)
        assert [e.offset_sec for e in ann.events] == [2.0, 5.0]

    def test_from_events_extends_duration(self):
        ann = Annotation.from_events([NoteEvent(0.0, 4.5, 0)], num_labels=1,
                                     duration_sec=2.0)
        assert ann.duration_sec == 4.5

    def test_duration_property(self):
        assert NoteEvent(0.25, 1.0, 0).duration_sec == 0.75

    def test_order_is_stable_event_sort(self):
        # heavy ties: few distinct times, duplicate events, and -0.0 beside
        # 0.0, which compare equal, so only a stable sort keeps their order
        r = random.Random(0x50E7)
        times = [-0.0, 0.0, 0.25, 0.5, 1.0, 2.0]
        for _ in range(300):
            events = [NoteEvent(r.choice(times), r.choice(times), r.randrange(3))
                      for _ in range(r.randrange(40))]
            events += r.sample(events, len(events) // 3)
            ann = Annotation.from_events(events, num_labels=3)
            expected = sorted(events, key=lambda e: (e.onset_sec, e.label, e.offset_sec))
            assert [repr(e) for e in ann.events] == [repr(e) for e in expected]

    def test_columns_are_read_only_arrays(self):
        ann = Annotation([1.0, 0.5], [2.0, 1.5], [3, 4], num_labels=5, duration_sec=2.0)
        assert ann.onsets.dtype == np.float64 and ann.labels.dtype == np.int64
        assert ann.onsets.tolist() == [0.5, 1.0] and ann.labels.tolist() == [4, 3]
        for column in (ann.onsets, ann.offsets, ann.labels):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_equality_compares_columns_and_fields(self):
        ann = Annotation([0.5], [1.0], [2], num_labels=3, duration_sec=1.0)
        assert ann == Annotation.from_events([NoteEvent(0.5, 1.0, 2)], num_labels=3)
        assert ann != Annotation([0.5], [1.0], [1], num_labels=3, duration_sec=1.0)
        assert ann != Annotation([0.5], [1.0], [2], num_labels=4, duration_sec=1.0)
        assert ann != Annotation([0.5], [1.0], [2], num_labels=3, duration_sec=2.0)
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

    def test_parsers_build_no_note_event(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("NoteEvent built")

        monkeypatch.setattr(NoteEvent, "__init__", refuse)
        assert len(parse_tsv(HEADER + "\n0.5 1.0 60\n0.25 2.0 61\n")) == 2
        assert len(parse_midi(smf.simple_file([(0, 480, 60), (240, 960, 62)]))) == 2
        assert len(generate_piece(SynthConfig(piece_duration_sec=5.0), 0)) > 0


class TestValidate:
    def test_well_formed_two_events(self):
        ann = Annotation.from_events(
            [NoteEvent(0.0, 1.0, 0), NoteEvent(0.5, 2.0, 3)], num_labels=4)
        report = validate(ann)
        assert report.ok
        assert report.violations == ()

    def test_label_at_num_labels(self):
        ann = Annotation.from_events([NoteEvent(0.0, 1.0, 4)], num_labels=4)
        report = validate(ann)
        assert len(report.violations) == 1
        assert "label 4" in report.violations[0]

    def test_event_past_duration(self):
        ann = Annotation([0.0], [5.0], [0], num_labels=4, duration_sec=2.0)
        report = validate(ann)
        assert len(report.violations) == 1
        assert "past duration" in report.violations[0]

    def test_zero_duration_event(self):
        ann = Annotation([1.0], [1.0], [0], num_labels=4, duration_sec=2.0)
        assert any("non-positive duration" in v for v in validate(ann).violations)

    def test_multiple_violations_all_reported(self):
        ann = Annotation([-1.0], [5.0], [9], num_labels=4, duration_sec=2.0)
        report = validate(ann)
        assert len(report.violations) == 3  # negative onset, label, past duration

    def test_non_finite_times_reported(self):
        ann = Annotation([float("nan"), 0.5], [1.0, float("inf")], [0, 1],
                         num_labels=2, duration_sec=float("inf"))
        violations = validate(ann).violations
        assert any("duration_sec" in v for v in violations)
        assert sum("non-finite" in v for v in violations) == 2
