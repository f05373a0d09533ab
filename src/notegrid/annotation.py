"""High-resolution interval annotations and the tab-separated text format.

An Annotation is a set of labeled time intervals with continuous start and
end times in seconds, the ground truth from which framewise label matrices
are derived. The text format parsed here is the one used for piano
ground-truth files: a header line naming the columns OnsetTime, OffsetTime
and MidiPitch, followed by one whitespace-separated event per line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import FormatError, RangeError, ValidationError

# MIDI pitch of the lowest piano key (A0); pitches 21..108 map to labels
# 0..87. Both values can be overridden for non-piano label spaces.
PIANO_PITCH_OFFSET = 21
PIANO_NUM_LABELS = 88

_TSV_COLUMNS = ("OnsetTime", "OffsetTime", "MidiPitch")


@dataclass(frozen=True)
class NoteEvent:
    """One labeled interval: [onset_sec, offset_sec) carrying a label index."""

    onset_sec: float
    offset_sec: float
    label: int

    @property
    def duration_sec(self) -> float:
        return self.offset_sec - self.onset_sec


def _sort_key(event: NoteEvent):
    return (event.onset_sec, event.label, event.offset_sec)


@dataclass(frozen=True)
class Annotation:
    """An ordered collection of NoteEvents over [0, duration_sec).

    Events are kept sorted by (onset, label, offset); the constructor
    normalizes the order, so every Annotation is sorted regardless of how
    the events were supplied. Structural invariants beyond ordering (labels
    within range, positive durations, events inside the duration) are
    checked by :func:`validate`, which reports violations instead of
    raising, so that defective annotations can still be inspected.
    """

    events: tuple[NoteEvent, ...]
    num_labels: int
    duration_sec: float

    def __post_init__(self):
        ordered = tuple(sorted(self.events, key=_sort_key))
        object.__setattr__(self, "events", ordered)

    @classmethod
    def from_events(cls, events, num_labels: int,
                    duration_sec: float | None = None) -> "Annotation":
        """Build an Annotation, extending the duration to cover all events."""
        events = tuple(events)
        max_offset = max((e.offset_sec for e in events), default=0.0)
        duration = max(max_offset, duration_sec if duration_sec is not None else 0.0)
        return cls(events=events, num_labels=num_labels, duration_sec=duration)

    def __len__(self) -> int:
        return len(self.events)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (onsets, offsets, labels) arrays in event order."""
        n = len(self.events)
        out = (np.fromiter((e.onset_sec for e in self.events), np.float64, n),
               np.fromiter((e.offset_sec for e in self.events), np.float64, n),
               np.fromiter((e.label for e in self.events), np.int64, n))
        for column in out:
            column.setflags(write=False)
        return out


@dataclass(frozen=True)
class ValidationReport:
    """List of invariant violations found in an Annotation; empty means OK."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(annotation: Annotation) -> ValidationReport:
    """Check all Annotation invariants and report every violation found.

    Checks: positive label space, sorted event order, finite times,
    non-negative onsets, strictly positive durations, labels within
    [0, num_labels), and no event extending past duration_sec.
    """
    violations: list[str] = []
    if annotation.num_labels <= 0:
        violations.append(f"num_labels must be positive, got {annotation.num_labels}")
    if not 0 <= annotation.duration_sec < math.inf:
        violations.append(f"duration_sec must be finite and >= 0, got {annotation.duration_sec}")
    previous_key = None
    for i, event in enumerate(annotation.events):
        key = _sort_key(event)
        if previous_key is not None and key < previous_key:
            violations.append(f"event {i}: out of sort order")
        previous_key = key
        if not (math.isfinite(event.onset_sec) and math.isfinite(event.offset_sec)):
            violations.append(f"event {i}: non-finite onset or offset")
        if event.onset_sec < 0:
            violations.append(f"event {i}: negative onset {event.onset_sec}")
        if event.offset_sec <= event.onset_sec:
            violations.append(
                f"event {i}: non-positive duration "
                f"(onset {event.onset_sec}, offset {event.offset_sec})")
        if not 0 <= event.label < annotation.num_labels:
            violations.append(
                f"event {i}: label {event.label} outside [0, {annotation.num_labels})")
        if event.offset_sec > annotation.duration_sec:
            violations.append(
                f"event {i}: offset {event.offset_sec} past duration "
                f"{annotation.duration_sec}")
    return ValidationReport(violations=tuple(violations))


def parse_tsv(text: str, *, pitch_offset: int = PIANO_PITCH_OFFSET,
              num_labels: int = PIANO_NUM_LABELS) -> Annotation:
    """Parse the OnsetTime/OffsetTime/MidiPitch text format.

    The first line must be a header containing exactly those three column
    names (any order, tab- or space-separated); each subsequent non-empty
    line holds three numeric fields. Decimal and exponent notation are both
    accepted. MIDI pitch p becomes label p - pitch_offset.

    Raises FormatError for malformed structure, RangeError for pitches
    outside [pitch_offset, pitch_offset + num_labels), and ValidationError
    for events violating onset/offset invariants. Error messages name the
    offending 1-based line.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input: missing header line")
    header = lines[0].split()
    if sorted(header) != sorted(_TSV_COLUMNS):
        raise FormatError(
            f"malformed header {lines[0]!r}: expected columns {' '.join(_TSV_COLUMNS)}")
    column = {name: header.index(name) for name in _TSV_COLUMNS}

    lowest = pitch_offset
    highest = pitch_offset + num_labels - 1
    events = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            onset = float(fields[column["OnsetTime"]])
            offset = float(fields[column["OffsetTime"]])
            pitch_value = float(fields[column["MidiPitch"]])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: non-numeric field ({exc})") from None
        if not pitch_value.is_integer():
            raise FormatError(f"line {lineno}: non-integer pitch {fields[column['MidiPitch']]}")
        pitch = int(pitch_value)
        if not lowest <= pitch <= highest:
            raise RangeError(f"line {lineno}: MIDI pitch {pitch} outside [{lowest}, {highest}]")
        if not (math.isfinite(onset) and math.isfinite(offset)):
            raise ValidationError(f"line {lineno}: non-finite onset or offset")
        if onset < 0:
            raise ValidationError(f"line {lineno}: negative onset {onset}")
        if offset <= onset:
            raise ValidationError(f"line {lineno}: offset {offset} <= onset {onset}")
        events.append(NoteEvent(onset_sec=onset, offset_sec=offset, label=pitch - pitch_offset))

    return Annotation.from_events(events, num_labels=num_labels)


def to_tsv(annotation: Annotation, *, pitch_offset: int = PIANO_PITCH_OFFSET) -> str:
    """Serialize an Annotation to the header + three-column text format.

    Times are written with six fractional digits, so parse_tsv(to_tsv(a))
    round-trips exactly for annotations whose times carry at most six
    decimals.
    """
    out = ["\t".join(_TSV_COLUMNS)]
    for event in annotation.events:
        out.append(f"{event.onset_sec:.6f}\t{event.offset_sec:.6f}\t{event.label + pitch_offset}")
    return "\n".join(out) + "\n"
