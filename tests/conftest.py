import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for the smf helper module

from notegrid import Annotation


def annotation_of(notes, num_labels: int, duration_sec: float = 0.0) -> Annotation:
    """An Annotation from (onset, offset, label) tuples, its duration
    extended to cover every offset."""
    notes = list(notes)
    onsets, offsets, labels = ([note[i] for note in notes] for i in range(3))
    return Annotation(onsets, offsets, labels, num_labels,
                      max(max(offsets, default=0.0), duration_sec))


def notes_of(annotation: Annotation) -> list[tuple[float, float, int]]:
    """The (onset, offset, label) tuples of an Annotation, in its order."""
    return list(zip(annotation.onsets.tolist(), annotation.offsets.tolist(),
                    annotation.labels.tolist()))


def hundred_note_annotation() -> Annotation:
    """Fixed 100-note synthetic annotation over 30 s with 12 labels.

    Built from the stdlib Mersenne generator, whose random() stream is
    stable across Python versions, so the golden numbers frozen against
    this fixture stay valid.
    """
    r = random.Random(0xC0FFEE)
    notes = []
    for _ in range(100):
        onset = r.random() * 28.0
        duration = 0.05 + r.random() * 0.8
        label = int(r.random() * 12)
        notes.append((onset, onset + duration, label))
    return annotation_of(notes, num_labels=12, duration_sec=30.0)


@pytest.fixture(scope="session")
def hundred_notes() -> Annotation:
    return hundred_note_annotation()


@pytest.fixture(autouse=True)
def usage_width(monkeypatch):
    """argparse wraps a usage message at the terminal's $COLUMNS, and the
    exit contract bounds every line: every test runs at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
