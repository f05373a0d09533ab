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

from .errors import ContractError, FormatError, RangeError, ValidationError

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


@dataclass(frozen=True, eq=False)
class Annotation:
    """Labeled intervals [onsets[i], offsets[i]) over [0, duration_sec).

    The three columns are read-only arrays kept sorted by (onset, label,
    offset), stably: the constructor sorts whatever it is given. Structural
    invariants beyond ordering (labels within range, positive durations,
    events inside the duration) are checked by :func:`validate`, which
    reports violations instead of raising, so that defective annotations
    can still be inspected.
    """

    onsets: np.ndarray
    offsets: np.ndarray
    labels: np.ndarray
    num_labels: int
    duration_sec: float

    def __post_init__(self):
        onsets = np.asarray(self.onsets, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if onsets.ndim != 1 or not onsets.shape == offsets.shape == labels.shape:
            raise ContractError(f"onsets {onsets.shape}, offsets {offsets.shape} and "
                                f"labels {labels.shape} differ or are not 1-D")
        order = np.lexsort((offsets, labels, onsets))
        for name, column in (("onsets", onsets), ("offsets", offsets), ("labels", labels)):
            column = column[order]
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @classmethod
    def from_events(cls, events, num_labels: int,
                    duration_sec: float | None = None) -> "Annotation":
        """Build an Annotation from NoteEvents, extending the duration to
        cover all events."""
        events = tuple(events)
        max_offset = max((e.offset_sec for e in events), default=0.0)
        duration = max(max_offset, duration_sec if duration_sec is not None else 0.0)
        return cls([e.onset_sec for e in events], [e.offset_sec for e in events],
                   [e.label for e in events], num_labels, duration)

    def __len__(self) -> int:
        return len(self.onsets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Annotation):
            return NotImplemented
        return (self.num_labels == other.num_labels
                and self.duration_sec == other.duration_sec
                and np.array_equal(self.onsets, other.onsets)
                and np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.labels, other.labels))

    @cached_property
    def events(self) -> tuple[NoteEvent, ...]:
        """The notes as NoteEvents, in sort order; built on first use."""
        return tuple(map(NoteEvent, self.onsets.tolist(), self.offsets.tolist(),
                         self.labels.tolist()))


@dataclass(frozen=True)
class ValidationReport:
    """List of invariant violations found in an Annotation; empty means OK."""

    violations: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(annotation: Annotation) -> ValidationReport:
    """Check all Annotation invariants and report every violation found.

    Checks: positive label space, finite times, non-negative onsets,
    strictly positive durations, labels within [0, num_labels), and no
    event extending past duration_sec.
    """
    violations: list[str] = []
    if annotation.num_labels <= 0:
        violations.append(f"num_labels must be positive, got {annotation.num_labels}")
    if not 0 <= annotation.duration_sec < math.inf:
        violations.append(f"duration_sec must be finite and >= 0, got {annotation.duration_sec}")
    for i, event in enumerate(annotation.events):
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
    onsets, offsets, labels = [], [], []
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
        onsets.append(onset)
        offsets.append(offset)
        labels.append(pitch - pitch_offset)

    return Annotation(onsets, offsets, labels, num_labels, max(offsets, default=0.0))


def to_tsv(annotation: Annotation, *, pitch_offset: int = PIANO_PITCH_OFFSET) -> str:
    """Serialize an Annotation to the header + three-column text format.

    Times are written with six fractional digits, so parse_tsv(to_tsv(a))
    round-trips exactly for annotations whose times carry at most six
    decimals.
    """
    out = ["\t".join(_TSV_COLUMNS)]
    for onset, offset, label in zip(annotation.onsets.tolist(), annotation.offsets.tolist(),
                                    annotation.labels.tolist()):
        out.append(f"{onset:.6f}\t{offset:.6f}\t{label + pitch_offset}")
    return "\n".join(out) + "\n"
