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

from collections import deque
from typing import NoReturn

import numpy as np

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


def _truncated(pos: int, wanted: int = 1) -> NoReturn:
    raise FormatError(f"truncated file: wanted {wanted} bytes at offset {pos}")


def _skip(pos: int, n: int, end: int) -> int:
    """The position n bytes past pos; FormatError if that passes end."""
    return pos + n if pos + n <= end else _truncated(pos, n)


def _uint(data: bytes, pos: int, n: int, end: int) -> int:
    """The n-byte big-endian unsigned integer at pos."""
    return int.from_bytes(data[pos:_skip(pos, n, end)], "big")


def _vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """The variable-length quantity (7 bits per byte, MSB first) at pos,
    and the position after it."""
    value = 0
    for pos in range(pos, pos + 4):
        byte = data[pos] if pos < end else _truncated(pos)
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos + 1
    raise FormatError(f"variable-length quantity longer than 4 bytes at offset {pos + 1}")


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

    def to_seconds(self, ticks: list[int]) -> np.ndarray:
        """The times of ticks in seconds: seconds[i] + (tick - ticks[i]) *
        us[i] * 1e-6 / ppqn for the last tempo change i at or before each
        tick, with the integer product exact and rounded to float once."""
        # int64 while every tick and product fits; Python integers past that
        top = max(max(ticks, default=0), self.ticks[-1])
        dtype = np.int64 if top * max(self.us) < 2 ** 63 else object
        ticks = np.array(ticks, dtype=dtype)
        starts = np.array(self.ticks, dtype=dtype)
        i = np.searchsorted(starts, ticks, side="right") - 1
        product = (ticks - starts[i]) * np.array(self.us, dtype=dtype)[i]
        return np.array(self.seconds)[i] + product.astype(np.float64) * 1e-6 / self.ppqn


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
    end = len(data)
    if data[:_skip(0, 4, end)] != b"MThd":
        raise FormatError("not a Standard MIDI File: missing MThd header")
    header_len = _uint(data, 4, 4, end)
    if header_len < 6:
        raise FormatError(f"bad MThd length {header_len}, expected at least 6")
    fmt, num_tracks, division = (_uint(data, at, 2, end) for at in (8, 10, 12))
    pos = _skip(14, header_len - 6, end)  # tolerate extended headers

    if fmt == 2:
        raise UnsupportedError("format 2 files are not supported")
    if fmt not in (0, 1):
        raise FormatError(f"unknown file format {fmt}")
    if division & 0x8000:
        raise UnsupportedError("SMPTE time division is not supported")
    ppqn = division & 0x7FFF
    if ppqn == 0:
        raise FormatError("zero pulses per quarter note")

    # (tick, channel, pitch, is_on) across all tracks, in arrival order
    notes: list[tuple[int, int, int, bool]] = []
    tempo_changes: list[tuple[int, int]] = []

    tracks_seen = 0
    while tracks_seen < num_tracks:
        if pos == end:
            raise FormatError(f"expected {num_tracks} tracks, found {tracks_seen}")
        chunk_id = data[pos:_skip(pos, 4, end)]
        chunk_len = _uint(data, pos + 4, 4, end)
        pos += 8
        chunk_end = _skip(pos, chunk_len, end)
        if chunk_id != b"MTrk":
            pos = chunk_end  # alien chunk: skip, per the format
            continue
        tracks_seen += 1

        tick = 0
        running_status: int | None = None
        while pos < chunk_end:
            delta, pos = _vlq(data, pos, chunk_end)
            tick += delta
            # one byte at a time, checked in line: this loop runs per event
            first = data[pos] if pos < chunk_end else _truncated(pos)
            pos += 1
            if first == _META:
                running_status = None
                meta_type = data[pos] if pos < chunk_end else _truncated(pos)
                length, pos = _vlq(data, pos + 1, chunk_end)
                payload, pos = data[pos:_skip(pos, length, chunk_end)], pos + length
                if meta_type == _META_SET_TEMPO:
                    if length != 3:
                        raise FormatError(f"Set Tempo payload of {length} bytes, expected 3")
                    tempo_changes.append((tick, int.from_bytes(payload, "big")))
                elif meta_type == _META_END_OF_TRACK:
                    break
                continue
            if first in (_SYSEX_START, _SYSEX_CONT):
                running_status = None
                length, pos = _vlq(data, pos, chunk_end)
                pos = _skip(pos, length, chunk_end)
                continue
            if first & 0x80:
                status = running_status = first
                data1 = data[pos] if pos < chunk_end else _truncated(pos)
                pos += 1
            elif running_status is None:
                raise FormatError(
                    f"data byte 0x{first:02X} without running status at offset {pos}")
            else:
                status, data1 = running_status, first
            kind = status & 0xF0
            if kind not in _CHANNEL_DATA_BYTES:
                raise FormatError(f"unexpected status byte 0x{status:02X}")
            data2 = 0
            if _CHANNEL_DATA_BYTES[kind] == 2:
                data2 = data[pos] if pos < chunk_end else _truncated(pos)
                pos += 1
            if kind == _NOTE_ON:
                notes.append((tick, status & 0x0F, data1, data2 > 0))
            elif kind == _NOTE_OFF:
                notes.append((tick, status & 0x0F, data1, False))
        pos = chunk_end

    tempo_changes.sort(key=lambda change: change[0])
    tempo_map = _TempoMap(tempo_changes, ppqn)

    lowest = pitch_offset
    highest = pitch_offset + num_labels - 1
    pending: dict[tuple[int, int], deque[int]] = {}
    onset_ticks, offset_ticks, labels = [], [], []
    # a stable sort by tick keeps arrival order among equal ticks
    for tick, channel, pitch, is_on in sorted(notes, key=lambda n: n[0]):
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
        onset_ticks.append(onset_tick)
        offset_ticks.append(tick)
        labels.append(pitch - pitch_offset)

    dangling = sorted({pitch for (_, pitch), queue in pending.items() if queue})
    if dangling:
        raise ValidationError(
            "dangling note-on at end of track for pitch(es): "
            + ", ".join(str(p) for p in dangling))

    seconds = tempo_map.to_seconds(onset_ticks + offset_ticks)
    onsets, offsets = seconds[:len(labels)], seconds[len(labels):]
    return Annotation(onsets, offsets, labels, num_labels,
                      float(offsets.max()) if len(labels) else 0.0)
