"""Seeded annotation corpora for the benchmark: TSV text and SMF bytes.

The generators here are the benchmark's own, so that set-up time does not
move when the program's serializers change. The same (seed, tag) always
gives the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
PITCH_LOW, PITCH_HIGH = 21, 108  # the 88 piano keys
PPQN = 480
DEFAULT_TEMPO_US = 500_000


@dataclass(frozen=True)
class Piece:
    """One annotation file: its name, format ("tsv" or "mid") and bytes."""

    name: str
    fmt: str
    data: bytes
    num_notes: int


def piano_notes(rng: np.random.Generator, duration_sec: float, rate: float,
                dur_range=(0.05, 1.5)):
    """round(rate * duration) notes over the 88 keys, sorted by onset.

    Onsets are uniform, i.e. a Poisson process conditioned on its count, so
    the amount of work depends on the duration and rate, not on the seed.
    Same-pitch notes never overlap: a note ends at least 10 ms before the
    next onset of its pitch, and a note that would be shorter than 20 ms is
    dropped. That keeps SMF note-on/off pairing unambiguous.
    """
    count = round(rate * duration_sec)
    onsets = np.sort(rng.uniform(0.0, duration_sec - 0.1, size=count))
    pitches = rng.integers(PITCH_LOW, PITCH_HIGH + 1, size=count)
    offsets = np.minimum(onsets + rng.uniform(*dur_range, size=count), duration_sec)
    last_onset: dict[int, int] = {}
    keep = np.ones(count, dtype=bool)
    for i in range(count):
        pitch = int(pitches[i])
        j = last_onset.get(pitch)
        if j is not None and offsets[j] > onsets[i] - 0.01:
            offsets[j] = onsets[i] - 0.01
            if offsets[j] - onsets[j] < 0.02:
                keep[j] = False
        last_onset[pitch] = i
    return onsets[keep], offsets[keep], pitches[keep]


def tsv_bytes(onsets, offsets, pitches) -> bytes:
    lines = ["OnsetTime\tOffsetTime\tMidiPitch"]
    lines += [f"{on:.6f}\t{off:.6f}\t{p}" for on, off, p in
              zip(onsets.tolist(), offsets.tolist(), pitches.tolist())]
    return ("\n".join(lines) + "\n").encode("ascii")


def _vlq(value: int) -> bytes:
    out = bytearray([value & 0x7F])
    value >>= 7
    while value:
        out.insert(0, (value & 0x7F) | 0x80)
        value >>= 7
    return bytes(out)


def _seconds_to_ticks(seconds: np.ndarray, tempo_change) -> np.ndarray:
    """Invert a tempo map of 120 bpm, optionally switching at one tick."""
    sec_per_tick = DEFAULT_TEMPO_US * 1e-6 / PPQN
    ticks = seconds / sec_per_tick
    if tempo_change is not None:
        at_tick, tempo_us = tempo_change
        at_sec = at_tick * sec_per_tick
        late = seconds > at_sec
        ticks[late] = at_tick + (seconds[late] - at_sec) / (tempo_us * 1e-6 / PPQN)
    return np.rint(ticks).astype(np.int64)


def smf_bytes(onsets, offsets, pitches, tempo_change=None) -> bytes:
    """A format-0 Standard MIDI File, with an optional Set Tempo change.

    tempo_change is (tick, microseconds per quarter) or None.
    """
    on_ticks = _seconds_to_ticks(onsets, tempo_change)
    off_ticks = np.maximum(_seconds_to_ticks(offsets, tempo_change), on_ticks + 1)
    # (tick, order, payload): offs sort before ons at the same tick
    timeline = [(0, 0, b"\xff\x51\x03" + DEFAULT_TEMPO_US.to_bytes(3, "big"))]
    if tempo_change is not None:
        timeline.append((tempo_change[0], 0, b"\xff\x51\x03" + tempo_change[1].to_bytes(3, "big")))
    for on, off, p in zip(on_ticks.tolist(), off_ticks.tolist(), pitches.tolist()):
        timeline.append((on, 2, bytes([0x90, p, 64])))
        timeline.append((off, 1, bytes([0x80, p, 64])))
    timeline.sort(key=lambda item: (item[0], item[1]))
    body = bytearray()
    cursor = 0
    for tick, _, payload in timeline:
        body += _vlq(tick - cursor) + payload
        cursor = tick
    body += b"\x00\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") \
        + (1).to_bytes(2, "big") + PPQN.to_bytes(2, "big")
    return header + b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def piece(seed: int, tag: int, index: int, duration: float, fmt: str,
          tempo_change: bool = False) -> Piece:
    """Piece `index` of corpus `tag`, as "tsv" text or "mid" bytes.

    Every piece has 9 notes/s, so pieces of one duration cost about the
    same and a latency percentile does not land between two costs. With
    tempo_change, an SMF piece switches to 100 bpm a third of the way in.
    """
    rng = np.random.default_rng([seed & MASK64, tag, index])
    onsets, offsets, pitches = piano_notes(rng, duration, 9.0)
    if fmt == "tsv":
        data = tsv_bytes(onsets, offsets, pitches)
    else:
        change = None
        if tempo_change:
            change = (int(duration / 3 / (DEFAULT_TEMPO_US * 1e-6 / PPQN)), 600_000)
        data = smf_bytes(onsets, offsets, pitches, change)
    return Piece(name=f"p{index:02d}_{int(duration)}s.{fmt}", fmt=fmt, data=data,
                 num_notes=len(onsets))
