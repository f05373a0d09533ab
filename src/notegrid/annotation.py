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

import numpy as np

from .errors import ContractError, FormatError, RangeError, ValidationError
from .util import brief, split_lines

# MIDI pitch of the lowest piano key (A0); pitches 21..108 map to labels
# 0..87. Both values can be overridden for non-piano label spaces.
PIANO_PITCH_OFFSET = 21
PIANO_NUM_LABELS = 88

_TSV_COLUMNS = ("OnsetTime", "OffsetTime", "MidiPitch")


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
    # quantize's seeded quantizations of these columns, computed on first use
    _quantized: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        onsets = np.asarray(self.onsets, dtype=np.float64)
        offsets = np.asarray(self.offsets, dtype=np.float64)
        labels = np.asarray(self.labels)
        try:
            # a NaN or a float label past int64 would cast with a warning, a uint64 one wrap
            if labels.dtype.kind in "fu" and not (labels.min(initial=0) >= -2 ** 63
                                                 and labels.max(initial=0) < 2 ** 63):
                raise OverflowError
            labels = labels.astype(np.int64, copy=False)  # a Python int past int64 raises
        except OverflowError:
            raise ContractError("labels must lie within the int64 range") from None
        if onsets.ndim != 1 or not onsets.shape == offsets.shape == labels.shape:
            raise ContractError(f"onsets {onsets.shape}, offsets {offsets.shape} and "
                                f"labels {labels.shape} differ or are not 1-D")
        order = np.lexsort((offsets, labels, onsets))
        for name, column in (("onsets", onsets), ("offsets", offsets), ("labels", labels)):
            column = column[order]
            column.setflags(write=False)
            object.__setattr__(self, name, column)

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


def validate(annotation: Annotation) -> tuple[str, ...]:
    """Check all Annotation invariants and return every violation found.

    Checks: positive label space, finite times, non-negative onsets,
    strictly positive durations, labels within [0, num_labels), and no
    event extending past duration_sec. Each per-event check is one mask
    over the columns; messages are formatted only for violating events,
    event by event, in that order. An empty tuple means the annotation
    is valid.
    """
    onsets, offsets, labels = annotation.onsets, annotation.offsets, annotation.labels
    num_labels, duration = annotation.num_labels, annotation.duration_sec
    violations: list[str] = []
    if num_labels <= 0:
        violations.append(f"num_labels must be positive, got {brief(num_labels)}")
    if not 0 <= duration < math.inf:
        violations.append(f"duration_sec must be finite and >= 0, got {duration}")
    non_finite = ~(np.isfinite(onsets) & np.isfinite(offsets))
    negative = onsets < 0
    empty = offsets <= onsets
    # the largest label in range, clamped so that it stays an int64
    top = min(max(num_labels, 0), 2 ** 63) - 1
    outside = (labels < 0) | (labels > top)
    late = offsets > duration
    for i in np.flatnonzero(non_finite | negative | empty | outside | late).tolist():
        onset, offset, label = onsets[i].item(), offsets[i].item(), labels[i].item()
        if non_finite[i]:
            violations.append(f"event {i}: non-finite onset or offset")
        if negative[i]:
            violations.append(f"event {i}: negative onset {onset}")
        if empty[i]:
            violations.append(
                f"event {i}: non-positive duration (onset {onset}, offset {offset})")
        if outside[i]:
            violations.append(f"event {i}: label {label} outside [0, {brief(num_labels)})")
        if late[i]:
            violations.append(f"event {i}: offset {offset} past duration {duration}")
    return tuple(violations)


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
    lines = split_lines(text)
    if not lines:
        raise FormatError("empty input: missing header line")
    header = lines[0].split()
    if sorted(header) != sorted(_TSV_COLUMNS):
        raise FormatError(
            f"malformed header {brief(lines[0])}: expected columns {' '.join(_TSV_COLUMNS)}")
    column = {name: header.index(name) for name in _TSV_COLUMNS}

    lowest, highest = pitch_offset, pitch_offset + num_labels - 1
    onsets, offsets, labels = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            # cell names the one that float rejects
            onset = float(cell := fields[column["OnsetTime"]])
            offset = float(cell := fields[column["OffsetTime"]])
            pitch_value = float(cell := fields[column["MidiPitch"]])
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric field {brief(cell)}") from None
        if not pitch_value.is_integer():
            raise FormatError(f"line {lineno}: non-integer pitch {brief(pitch_value)}")
        pitch = int(pitch_value)
        if not lowest <= pitch <= highest:
            raise RangeError(f"line {lineno}: MIDI pitch {brief(pitch)} outside "
                             f"[{brief(lowest)}, {brief(highest)}]")
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
