"""Standard MIDI File ingestion.

Reads format 0 and 1 files with metrical (pulses per quarter note) time
division and converts matched note-on/note-off pairs into an Annotation
with times in seconds. Tick times are converted through the full tempo
map, i.e. piecewise-constant integration over every Set Tempo event, with
the conventional 500000 microseconds per quarter note before the first.

Not supported by design: SMPTE time division, format 2 files, sustain
pedal extension of note durations.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

from .annotation import PIANO_NUM_LABELS, PIANO_PITCH_OFFSET, Annotation
from .errors import FormatError, RangeError, UnsupportedError, ValidationError

_DEFAULT_TEMPO_US = 500000  # microseconds per quarter note (120 bpm)

_NOTE_OFF = 0x80
_NOTE_ON = 0x90
_META = 0xFF
_SYSEX_START = 0xF0
_SYSEX_CONT = 0xF7
_META_SET_TEMPO = 0x51
_META_END_OF_TRACK = 0x2F

# data byte counts for channel messages, keyed by the high status nibble
_CHANNEL_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


class _Reader:
    """Cursor over a byte buffer raising FormatError on truncation."""

    def __init__(self, data: bytes, start: int = 0, end: int | None = None):
        self.data = data
        self.pos = start
        self.end = len(data) if end is None else end

    @property
    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise FormatError(f"truncated file: wanted {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        b = self.take(2)
        return (b[0] << 8) | b[1]

    def u32(self) -> int:
        b = self.take(4)
        return (b[0] << 24) | (b[1] << 16) | (b[2] << 8) | b[3]

    def vlq(self) -> int:
        """Read a variable-length quantity (7 bits per byte, MSB first)."""
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise FormatError(f"variable-length quantity longer than 4 bytes at offset {self.pos}")


class _TempoMap:
    """Tick to seconds conversion through piecewise-constant tempo."""

    def __init__(self, changes: list[tuple[int, int]], ppqn: int):
        # changes: (tick, us_per_quarter) sorted by tick, later-at-same-tick wins
        self.ticks = [0]
        self.seconds = [0.0]
        self.us = [_DEFAULT_TEMPO_US]
        for tick, tempo_us in changes:
            if tempo_us <= 0:
                raise FormatError(f"non-positive tempo {tempo_us} at tick {tick}")
            if tick == self.ticks[-1]:
                self.us[-1] = tempo_us
                continue
            elapsed = (tick - self.ticks[-1]) * self.us[-1] * 1e-6 / ppqn
            self.ticks.append(tick)
            self.seconds.append(self.seconds[-1] + elapsed)
            self.us.append(tempo_us)
        self.ppqn = ppqn

    def to_seconds(self, tick: int) -> float:
        i = bisect_right(self.ticks, tick) - 1
        return self.seconds[i] + (tick - self.ticks[i]) * self.us[i] * 1e-6 / self.ppqn


def parse_midi(data: bytes, *, pitch_offset: int = PIANO_PITCH_OFFSET,
               num_labels: int = PIANO_NUM_LABELS) -> Annotation:
    """Parse a Standard MIDI File into an Annotation.

    Note-on and note-off events are matched per (channel, pitch) in FIFO
    order, so overlapping notes of the same pitch close oldest-first. A
    note-on with velocity zero counts as a note-off. Running status is
    honored; meta and sysex events cancel it, as the format requires.

    Raises FormatError for malformed bytes, UnsupportedError for SMPTE
    division or format 2 files, RangeError for pitches outside the label
    space, and ValidationError for zero-duration or dangling notes.
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise FormatError("not a Standard MIDI File: missing MThd header")
    header_len = reader.u32()
    if header_len < 6:
        raise FormatError(f"bad MThd length {header_len}, expected at least 6")
    fmt = reader.u16()
    num_tracks = reader.u16()
    division = reader.u16()
    reader.take(header_len - 6)  # tolerate extended headers

    if fmt == 2:
        raise UnsupportedError("format 2 files are not supported")
    if fmt not in (0, 1):
        raise FormatError(f"unknown file format {fmt}")
    if division & 0x8000:
        raise UnsupportedError("SMPTE time division is not supported")
    ppqn = division & 0x7FFF
    if ppqn == 0:
        raise FormatError("zero pulses per quarter note")

    # (tick, arrival order, channel, pitch, is_on) across all tracks
    notes: list[tuple[int, int, int, int, bool]] = []
    tempo_changes: list[tuple[int, int]] = []
    order = 0

    tracks_seen = 0
    while tracks_seen < num_tracks:
        if reader.remaining == 0:
            raise FormatError(f"expected {num_tracks} tracks, found {tracks_seen}")
        chunk_id = reader.take(4)
        chunk_len = reader.u32()
        if chunk_id != b"MTrk":
            reader.take(chunk_len)  # alien chunk: skip, per the format
            continue
        track = _Reader(reader.data, reader.pos, reader.pos + chunk_len)
        reader.take(chunk_len)
        tracks_seen += 1

        tick = 0
        running_status: int | None = None
        while track.remaining > 0:
            tick += track.vlq()
            first = track.u8()
            if first == _META:
                running_status = None
                meta_type = track.u8()
                length = track.vlq()
                payload = track.take(length)
                if meta_type == _META_SET_TEMPO:
                    if length != 3:
                        raise FormatError(f"Set Tempo payload of {length} bytes, expected 3")
                    tempo_us = (payload[0] << 16) | (payload[1] << 8) | payload[2]
                    tempo_changes.append((tick, tempo_us))
                elif meta_type == _META_END_OF_TRACK:
                    break
                continue
            if first in (_SYSEX_START, _SYSEX_CONT):
                running_status = None
                track.take(track.vlq())
                continue
            if first & 0x80:
                status = first
                running_status = status
                data1 = track.u8()
            else:
                if running_status is None:
                    raise FormatError(
                        f"data byte 0x{first:02X} without running status at offset {track.pos}")
                status = running_status
                data1 = first
            kind = status & 0xF0
            if kind not in _CHANNEL_DATA_BYTES:
                raise FormatError(f"unexpected status byte 0x{status:02X}")
            data2 = track.u8() if _CHANNEL_DATA_BYTES[kind] == 2 else 0
            if kind == _NOTE_ON:
                notes.append((tick, order, status & 0x0F, data1, data2 > 0))
                order += 1
            elif kind == _NOTE_OFF:
                notes.append((tick, order, status & 0x0F, data1, False))
                order += 1

    tempo_changes.sort(key=lambda change: change[0])
    tempo_map = _TempoMap(tempo_changes, ppqn)

    lowest = pitch_offset
    highest = pitch_offset + num_labels - 1
    pending: dict[tuple[int, int], deque[int]] = {}
    onsets, offsets, labels = [], [], []
    for tick, _, channel, pitch, is_on in sorted(notes, key=lambda n: (n[0], n[1])):
        if is_on:
            pending.setdefault((channel, pitch), deque()).append(tick)
            continue
        queue = pending.get((channel, pitch))
        if not queue:
            continue  # stray note-off: ignore
        onset_tick = queue.popleft()
        if onset_tick == tick:
            raise ValidationError(
                f"zero-duration note for pitch {pitch} at tick {tick}")
        if not lowest <= pitch <= highest:
            raise RangeError(f"MIDI pitch {pitch} outside [{lowest}, {highest}]")
        onsets.append(tempo_map.to_seconds(onset_tick))
        offsets.append(tempo_map.to_seconds(tick))
        labels.append(pitch - pitch_offset)

    dangling = sorted({pitch for (_, pitch), queue in pending.items() if queue})
    if dangling:
        raise ValidationError(
            "dangling note-on at end of track for pitch(es): "
            + ", ".join(str(p) for p in dangling))

    return Annotation(onsets, offsets, labels, num_labels, max(offsets, default=0.0))
