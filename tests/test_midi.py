import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import smf
from notegrid import (FormatError, RangeError, UnsupportedError,
                      ValidationError, parse_midi, validate)
from notegrid.midi import _vlq


def seconds(tick: int, tempo_segments: list[tuple[int, int]], ppqn: int) -> float:
    """Expected tick time computed independently with exact arithmetic.

    tempo_segments: (start_tick, us_per_quarter), first entry at tick 0.
    """
    total = Fraction(0)
    for i, (start, us) in enumerate(tempo_segments):
        end = tempo_segments[i + 1][0] if i + 1 < len(tempo_segments) else None
        if tick <= start:
            break
        span = (tick - start) if end is None or tick < end else (end - start)
        total += Fraction(span * us, ppqn) / 1_000_000
    return float(total)


class TestVariableLengthQuantities:
    @pytest.mark.parametrize("data,value", [
        (b"\x00", 0),
        (b"\x40", 0x40),
        (b"\x7f", 0x7F),
        (b"\x81\x48", 200),
        (b"\x81\x00", 0x80),
        (b"\xc0\x00", 0x2000),
        (b"\xff\x7f", 0x3FFF),
        (b"\x81\x80\x00", 0x4000),
        (b"\xff\xff\xff\x7f", 0x0FFFFFFF),
    ])
    def test_known_encodings(self, data, value):
        assert _vlq(data, 0, len(data)) == (value, len(data))

    def test_overlong_rejected(self):
        with pytest.raises(FormatError):
            _vlq(b"\xff\xff\xff\xff\x7f", 0, 5)

    def test_truncated_rejected(self):
        with pytest.raises(FormatError):
            _vlq(b"\x81", 0, 1)

    def test_writer_round_trip(self):
        for value in (0, 1, 127, 128, 200, 8191, 8192, 16383, 16384, 0x0FFFFFFF):
            data = b"\x00" + smf.vlq(value) + b"\x00"
            assert _vlq(data, 1, len(data) - 1) == (value, len(data) - 1)

    def test_stops_at_the_given_end(self):
        # a continuation byte just before `end` is truncation, whatever follows
        with pytest.raises(FormatError, match="wanted 1 bytes at offset 2"):
            _vlq(b"\x00\x81\x00", 1, 2)


class TestBasicParsing:
    def test_default_tempo_quarter_note(self):
        # 480 ticks at 480 ppqn under the default 500000 us/quarter = 0.5 s
        data = smf.simple_file([(0, 480, 60)])
        ann = parse_midi(data)
        assert len(ann) == 1
        assert ann.events[0].onset_sec == 0.0
        assert abs(ann.events[0].offset_sec - 0.5) < 1e-12
        assert ann.events[0].label == 39
        assert ann.num_labels == 88

    def test_explicit_tempo_meta(self):
        data = smf.simple_file([(0, 480, 60)], tempo_events=[(0, 500000)])
        ann = parse_midi(data)
        assert abs(ann.events[0].offset_sec - 0.5) < 1e-12

    def test_delta_vlq_in_context(self):
        # onset after a 200-tick delta encoded as 0x81 0x48
        data = smf.simple_file([(200, 680, 60)])
        ann = parse_midi(data)
        expected = seconds(200, [(0, 500000)], 480)
        assert abs(ann.events[0].onset_sec - expected) < 1e-12

    def test_velocity_zero_is_note_off(self):
        events = [(0, smf.note_on(60, 80)), (480, smf.note_on(60, 0))]
        data = smf.build([smf.track(events)], fmt=0)
        ann = parse_midi(data)
        assert len(ann) == 1
        assert abs(ann.events[0].offset_sec - 0.5) < 1e-12

    def test_running_status(self):
        # second and third events reuse the note-on status byte; a note-on
        # with velocity 0 closes the first note
        events = [
            (0, smf.note_on(60, 80)),
            (240, bytes([64, 80])),     # running status: on(64)
            (240, bytes([60, 0])),      # running status: off(60) via vel 0
            (240, bytes([64, 0])),
        ]
        data = smf.build([smf.track(events)], fmt=0)
        ann = parse_midi(data)
        assert len(ann) == 2
        by_label = {e.label: e for e in ann.events}
        assert abs(by_label[39].offset_sec - 0.5) < 1e-12
        assert abs(by_label[43].onset_sec - 0.25) < 1e-12
        assert abs(by_label[43].offset_sec - 0.75) < 1e-12

    def test_meta_event_cancels_running_status(self):
        events = [
            (0, smf.note_on(60, 80)),
            (240, smf.set_tempo(500000)),
            (240, bytes([60, 0])),  # would need running status: invalid here
        ]
        data = smf.build([smf.track(events)], fmt=0)
        with pytest.raises(FormatError, match="running status"):
            parse_midi(data)

    def test_mid_note_tempo_change_integrates(self):
        # note spans a tempo change at tick 480: 500000 then 250000 us/quarter
        data = smf.simple_file([(240, 720, 60)], tempo_events=[(0, 500000), (480, 250000)])
        ann = parse_midi(data)
        segments = [(0, 500000), (480, 250000)]
        assert abs(ann.events[0].onset_sec - seconds(240, segments, 480)) < 1e-12
        assert abs(ann.events[0].offset_sec - seconds(720, segments, 480)) < 1e-12
        assert abs(ann.events[0].offset_sec - 0.625) < 1e-12

    def test_tick_products_past_int64_stay_exact(self):
        # 2,100 maximal deltas put the note near tick 2**39.04, and at
        # 2**24 - 1 us per quarter tick * tempo passes 2**63
        step, tempo = 2 ** 28 - 1, 2 ** 24 - 1
        text = bytes([0xFF, 0x01, 0x00])
        events = ([(0, smf.set_tempo(tempo))] + [(step, text)] * 2100
                  + [(0, smf.note_on(60)), (step, smf.note_off(60))])
        ann = parse_midi(smf.build([smf.track(events)], fmt=0, ppqn=1))
        onset_tick, offset_tick = 2100 * step, 2101 * step
        assert onset_tick * tempo >= 2 ** 63
        # the scalar formula, with the integer product rounded to float once
        assert ann.onsets.tolist() == [onset_tick * tempo * 1e-6 / 1]
        assert ann.offsets.tolist() == [offset_tick * tempo * 1e-6 / 1]
        exact = seconds(offset_tick, [(0, tempo)], 1)
        assert abs(ann.offsets[0] - exact) <= 1e-15 * exact

    def test_overlapping_same_pitch_fifo(self):
        events = [
            (0, smf.note_on(60, 80)),
            (100, smf.note_on(60, 80)),
            (100, smf.note_off(60)),   # closes the tick-0 onset
            (100, smf.note_off(60)),   # closes the tick-100 onset
        ]
        data = smf.build([smf.track(events)], fmt=0)
        ann = parse_midi(data)
        starts_ends = [(e.onset_sec, e.offset_sec) for e in ann.events]
        ppqn_seconds = 0.5 / 480
        expected = [(0.0, 200 * ppqn_seconds), (100 * ppqn_seconds, 300 * ppqn_seconds)]
        for (got_on, got_off), (want_on, want_off) in zip(starts_ends, expected):
            assert abs(got_on - want_on) < 1e-12
            assert abs(got_off - want_off) < 1e-12

    def test_channels_pair_independently(self):
        # absolute ticks: on ch0 @0, on ch1 @100, off ch1 @200, off ch0 @400;
        # pitch-only FIFO would instead yield durations of 200 and 300 ticks
        events = [
            (0, smf.note_on(60, 80, channel=0)),
            (100, smf.note_on(60, 80, channel=1)),
            (100, smf.note_off(60, channel=1)),
            (200, smf.note_off(60, channel=0)),
        ]
        data = smf.build([smf.track(events)], fmt=0)
        ann = parse_midi(data)
        assert len(ann) == 2
        durations = sorted(e.duration_sec for e in ann.events)
        tick = 0.5 / 480
        assert abs(durations[0] - 100 * tick) < 1e-12
        assert abs(durations[1] - 400 * tick) < 1e-12

    def test_format1_tracks_merge(self):
        tempo_track = smf.track([(0, smf.set_tempo(600000))])
        notes = smf.track([(0, smf.note_on(60, 80)), (480, smf.note_off(60))])
        ann = parse_midi(smf.build([tempo_track, notes], fmt=1))
        assert abs(ann.events[0].offset_sec - 0.6) < 1e-12

    def test_stray_note_off_ignored(self):
        events = [(0, smf.note_off(72)), (0, smf.note_on(60, 80)),
                  (480, smf.note_off(60))]
        ann = parse_midi(smf.build([smf.track(events)], fmt=0))
        assert len(ann) == 1

    def test_other_channel_messages_skipped(self):
        events = [
            (0, bytes([0xB0, 64, 127])),        # control change
            (0, bytes([0xC0, 5])),              # program change (1 data byte)
            (0, bytes([0xE0, 0x00, 0x40])),     # pitch bend
            (0, smf.note_on(60, 80)),
            (0, bytes([0xA0, 60, 30])),         # aftertouch
            (480, smf.note_off(60)),
        ]
        ann = parse_midi(smf.build([smf.track(events)], fmt=0))
        assert len(ann) == 1

    def test_sysex_skipped(self):
        events = [
            (0, bytes([0xF0, 0x03, 0x01, 0x02, 0xF7])),  # sysex, vlq length 3
            (0, smf.note_on(60, 80)),
            (480, smf.note_off(60)),
        ]
        ann = parse_midi(smf.build([smf.track(events)], fmt=0))
        assert len(ann) == 1

    def test_alien_chunk_skipped(self):
        alien = b"XFIH" + (4).to_bytes(4, "big") + b"\x00\x01\x02\x03"
        notes = smf.track([(0, smf.note_on(60, 80)), (480, smf.note_off(60))])
        ann = parse_midi(smf.build([alien, notes], fmt=0, num_tracks=1))
        assert len(ann) == 1

    def test_pitch_label_override(self):
        data = smf.simple_file([(0, 480, 3)])
        ann = parse_midi(data, pitch_offset=0, num_labels=12)
        assert ann.events[0].label == 3

    def test_output_validates_clean(self):
        data = smf.simple_file([(0, 480, 60), (240, 960, 72), (480, 960, 60)])
        ann = parse_midi(data)
        assert validate(ann).ok
        assert ann.duration_sec == max(e.offset_sec for e in ann.events)


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(FormatError, match="MThd"):
            parse_midi(b"RIFF" + bytes(20))

    def test_bad_header_length(self):
        data = b"MThd" + (2).to_bytes(4, "big") + bytes(2)
        with pytest.raises(FormatError):
            parse_midi(data)

    def test_smpte_division_unsupported(self):
        data = smf.build([smf.track([])], fmt=0, division=0x8000 | (25 << 8) | 40)
        with pytest.raises(UnsupportedError, match="SMPTE"):
            parse_midi(data)

    def test_format2_unsupported(self):
        data = smf.build([smf.track([])], fmt=2)
        with pytest.raises(UnsupportedError, match="format 2"):
            parse_midi(data)

    def test_unknown_format_rejected(self):
        data = smf.build([smf.track([])], fmt=7)
        with pytest.raises(FormatError):
            parse_midi(data)

    def test_dangling_note_on_lists_pitches(self):
        events = [(0, smf.note_on(60, 80)), (0, smf.note_on(72, 80)),
                  (480, smf.note_off(60))]
        with pytest.raises(ValidationError, match="72"):
            parse_midi(smf.build([smf.track(events)], fmt=0))

    def test_zero_duration_note(self):
        events = [(0, smf.note_on(60, 80)), (0, smf.note_off(60))]
        with pytest.raises(ValidationError, match="zero-duration"):
            parse_midi(smf.build([smf.track(events)], fmt=0))

    def test_pitch_out_of_range(self):
        data = smf.simple_file([(0, 480, 5)])
        with pytest.raises(RangeError, match="pitch 5"):
            parse_midi(data)

    def test_truncated_track(self):
        intact = smf.build([smf.track([(0, smf.note_on(60, 80))])], fmt=0)
        with pytest.raises(FormatError):
            parse_midi(intact[:-3])

    def test_missing_tracks(self):
        header_only = b"MThd" + (6).to_bytes(4, "big") + bytes([0, 1, 0, 2, 1, 224])
        with pytest.raises(FormatError, match="tracks"):
            parse_midi(header_only)

    def test_zero_ppqn(self):
        data = smf.build([smf.track([])], fmt=0, division=0)
        with pytest.raises(FormatError):
            parse_midi(data)


def outcome(data: bytes) -> str:
    try:
        ann = parse_midi(data)
    except Exception as exc:  # the exception type is part of the outcome
        return f"{type(exc).__name__}: {exc}"
    return f"ok {ann.onsets.tolist()} {ann.offsets.tolist()} {ann.labels.tolist()}"


class TestPinnedOutcomes:
    """Every prefix of one file and 300 seeded mutations of it give the
    exception type and message, offsets included, or the notes that the
    byte-at-a-time reader gave; its outcomes are frozen as one sha256."""

    def test_prefixes_and_mutations(self):
        base = smf.mixed_file()
        rng = random.Random(9)
        cases = [base[:n] for n in range(len(base) + 1)]
        cases += [smf.mutate(base, rng) for _ in range(300)]
        outcomes = [outcome(case) for case in cases]
        kinds = Counter(o.split(":")[0] if not o.startswith("ok") else "ok" for o in outcomes)
        assert kinds == {"FormatError": 352, "UnsupportedError": 14, "ValidationError": 7,
                         "ok": 14}
        assert sum("longer than 4 bytes" in o for o in outcomes) == 22
        assert sum("without running status" in o for o in outcomes) == 21
        assert sum("unexpected status byte" in o for o in outcomes) == 1
        assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == \
            "14db4567a685511ccb1f524dac06906d72f7a59c76444c246d6df34c405941e0"
