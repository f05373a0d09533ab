"""Minimal Standard MIDI File writer used to build parser fixtures.

Only what the tests need: format 0/1 headers, note on/off, Set Tempo and
End of Track events, raw byte injection for running-status cases, and a
seeded mutator for fuzz cases.
"""

from __future__ import annotations

import random


def vlq(value: int) -> bytes:
    """Encode a variable-length quantity (7 bits per byte, MSB first)."""
    if value < 0:
        raise ValueError("negative delta")
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.insert(0, (value & 0x7F) | 0x80)
        value >>= 7
    return bytes(out)


def note_on(pitch: int, velocity: int = 64, channel: int = 0) -> bytes:
    return bytes([0x90 | channel, pitch, velocity])


def note_off(pitch: int, velocity: int = 64, channel: int = 0) -> bytes:
    return bytes([0x80 | channel, pitch, velocity])


def set_tempo(us_per_quarter: int) -> bytes:
    return bytes([0xFF, 0x51, 0x03]) + us_per_quarter.to_bytes(3, "big")


def end_of_track() -> bytes:
    return bytes([0xFF, 0x2F, 0x00])


def track(events: list[tuple[int, bytes]], *, terminate: bool = True) -> bytes:
    """Assemble an MTrk chunk from (delta, event bytes) pairs."""
    body = bytearray()
    for delta, event in events:
        body += vlq(delta) + event
    if terminate:
        body += vlq(0) + end_of_track()
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def build(tracks: list[bytes], *, fmt: int = 1, ppqn: int = 480,
          division: int | None = None, num_tracks: int | None = None) -> bytes:
    """Assemble a complete file; `division` overrides ppqn verbatim.

    num_tracks overrides the declared track count, e.g. when some chunks
    are non-MTrk filler that the header must not count.
    """
    div = ppqn if division is None else division
    declared = len(tracks) if num_tracks is None else num_tracks
    header = (fmt.to_bytes(2, "big") + declared.to_bytes(2, "big")
              + div.to_bytes(2, "big"))
    out = b"MThd" + (6).to_bytes(4, "big") + header
    for chunk in tracks:
        out += chunk
    return out


def simple_file(notes: list[tuple[int, int, int]], *, ppqn: int = 480,
                tempo_events: list[tuple[int, int]] | None = None,
                fmt: int = 0) -> bytes:
    """One-track file from (onset_tick, offset_tick, pitch) triples.

    tempo_events are (tick, us_per_quarter) pairs merged in at their
    absolute ticks; events at equal ticks keep list order, offs before
    ons written by the caller's ordering of `notes`.
    """
    timeline: list[tuple[int, int, bytes]] = []
    order = 0
    for tick, us in tempo_events or []:
        timeline.append((tick, order, set_tempo(us)))
        order += 1
    for onset, offset, pitch in notes:
        timeline.append((onset, order, note_on(pitch)))
        order += 1
        timeline.append((offset, order, note_off(pitch)))
        order += 1
    timeline.sort(key=lambda item: (item[0], item[1]))
    events = []
    cursor = 0
    for tick, _, payload in timeline:
        events.append((tick - cursor, payload))
        cursor = tick
    return build([track(events)], fmt=fmt, ppqn=ppqn)


def mixed_tracks() -> list[list[tuple[int, bytes]]]:
    """The (delta, event bytes) pairs of mixed_file's two tracks."""
    tempo = [(0, set_tempo(600000)), (700, set_tempo(400000))]
    notes = [
        (0, bytes([0xF0, 0x03, 0x01, 0x02, 0xF7])),
        (0, note_on(60, 80)),
        (120, bytes([64, 80])),         # running status: on(64)
        (120, bytes([60, 0])),          # running status: off(60) via vel 0
        (200, bytes([0xC0, 5])),
        (40, note_on(67, 70, channel=1)),
        (1000, note_off(64)),
        (100, note_off(67, channel=1)),
    ]
    return [tempo, notes]


def mixed_file() -> bytes:
    """A format-1 file with a tempo track and a note track holding a
    sysex event, running status and a program change."""
    return build([track(events) for events in mixed_tracks()], fmt=1)


MUTATION_BYTES = (0x00, 0x7F, 0x80, 0x81, 0xF0, 0xF2, 0xF7, 0xFE, 0xFF, 0x51, 0x2F, 0x90)


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three edits: insert a byte, insert an over-long VLQ, flip a
    bit or delete a byte."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        at = rng.randrange(len(out) + 1)
        if op == 0:
            out.insert(at, rng.choice(MUTATION_BYTES))
        elif op == 1:
            out[at:at] = b"\x81" * rng.randint(4, 5)
        elif at < len(out):
            if op == 2:
                out[at] ^= 1 << rng.randrange(8)
            else:
                del out[at]
    return bytes(out)


VLQ_MAX = 0x0FFFFFFF  # the largest four-byte variable-length quantity
FIELD_MUTATIONS = ("vlq-max-delta", "tempo-0", "ppqn-0", "chunk-past-end",
                   "broken-running-status")


def mutate_field(kind: str, rng: random.Random) -> bytes:
    """mixed_file with one field edited as `kind` names, where rng picks:
    an event's delta time set to VLQ_MAX; a Set Tempo of 0 inserted in the
    tempo track; the ppqn set to 0; a chunk's length set past the end of
    the file; or a data byte pair inserted where no running status holds,
    first in a track or after a meta or sysex event."""
    tracks = mixed_tracks()
    if kind == "vlq-max-delta":
        events = rng.choice(tracks)
        at = rng.randrange(len(events))
        events[at] = (VLQ_MAX, events[at][1])
    elif kind == "tempo-0":  # in the tempo track, where it breaks no running status
        tracks[0].insert(rng.randrange(len(tracks[0]) + 1), (rng.randrange(500), set_tempo(0)))
    elif kind == "broken-running-status":
        places = [(0, at) for at in range(len(tracks[0]) + 1)] + [(1, 0), (1, 1)]
        which, at = rng.choice(places)
        tracks[which].insert(at, (rng.randrange(500), bytes([rng.randrange(128),
                                                             rng.randrange(128)])))
    data = build([track(events) for events in tracks], fmt=1,
                 ppqn=0 if kind == "ppqn-0" else 480)
    if kind == "chunk-past-end":
        at = rng.choice([0] + [i for i in range(len(data)) if data.startswith(b"MTrk", i)])
        length = len(data) - (at + 8) + rng.randint(1, 2 ** 16)
        data = data[:at + 4] + length.to_bytes(4, "big") + data[at + 8:]
    return data
