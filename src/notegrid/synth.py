"""Deterministic synthetic corpus and feature generation.

Stands in for a real audio pipeline so the label-noise experiment runs at
desk scale: note onsets follow a Poisson process with continuous-valued
times (never aligned to any frame grid), and features are built from
per-label harmonic templates evaluated against the continuous-time
annotation. Because feature activity is judged in continuous time while
training targets come from a quantized labeling function, boundary frames
are exactly where misaligned labels contradict the features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .annotation import Annotation
from .errors import ContractError
from .quantize import FrameGrid, paint_ranges
from .util import MASK64, brief, check_config, is_seed


# Work budgets that SynthConfig checks, so a huge but finite value fails at
# once instead of looping on or exhausting memory:
# - the notes a piece may be expected to hold, note_rate x
#   piece_duration_sec; generate_piece draws notes one at a time (README
#   gives the time and memory measured at the budget);
# - the pieces of a corpus, each generated by its own call;
# - feature bins, each a float64 column of every rendered piece;
# - label_templates' loop steps, num_labels x harmonics.
MAX_NOTES_PER_PIECE = 10 ** 6
MAX_PIECES = 10 ** 4
MAX_FEATURE_DIM = 2 ** 12
MAX_TEMPLATE_TERMS = 10 ** 6


@dataclass(frozen=True)
class SynthConfig:
    """Corpus and feature generation parameters.

    Defaults give a corpus a single CPU core trains on in minutes: 40
    pieces of 30 s, 12 labels, 2 notes per second, 48 feature bins with 3
    decaying harmonics per label, and mild Gaussian feature noise.
    """

    num_pieces: int = 40
    piece_duration_sec: float = 30.0
    num_labels: int = 12
    note_rate: float = 2.0
    duration_range: tuple[float, float] = (0.1, 1.0)
    feature_dim: int = 48
    noise_sigma: float = 0.1
    harmonics: int = 3
    seed: int = 0

    def __post_init__(self):
        # a NaN or infinite piece_duration_sec or note_rate fails the notes budget below
        check_config(self, {
            "num_pieces": (">= 1", lambda v: v >= 1, MAX_PIECES, "pieces"),
            "piece_duration_sec": ("positive", lambda v: not v <= 0),
            "num_labels": (">= 1", lambda v: v >= 1),
            "note_rate": ("positive", lambda v: not v <= 0),
            "duration_range": ("(min, max) with 0 < min <= max", lambda r: 0 < r[0] <= r[1]),
            "feature_dim": (">= 1", lambda v: v >= 1, MAX_FEATURE_DIM, "feature bins"),
            "noise_sigma": ("finite and >= 0", lambda v: 0 <= v < math.inf),
            "harmonics": (">= 1", lambda v: v >= 1),
            "seed": ("an integer below 2**64 in size", is_seed)})
        object.__setattr__(self, "duration_range", tuple(self.duration_range))
        if self.feature_dim < self.num_labels:
            raise ContractError(
                f"feature_dim {brief(self.feature_dim)} < num_labels {brief(self.num_labels)}")
        expected_notes = self.note_rate * self.piece_duration_sec
        if not expected_notes <= MAX_NOTES_PER_PIECE:
            raise ContractError(
                f"note_rate x piece_duration_sec = {expected_notes:.3g} notes per piece "
                f"exceeds the budget of {MAX_NOTES_PER_PIECE} notes")
        if self.num_labels * self.harmonics > MAX_TEMPLATE_TERMS:
            raise ContractError(
                f"num_labels x harmonics = {brief(self.num_labels * self.harmonics)} exceeds "
                f"the budget of {MAX_TEMPLATE_TERMS} template terms")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Real-valued frames-by-bins feature matrix tied to its FrameGrid."""

    values: np.ndarray
    grid: FrameGrid

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ContractError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[0] != self.grid.num_frames:
            raise ContractError(
                f"values has {values.shape[0]} rows but grid expects {self.grid.num_frames}")
        if not np.all(np.isfinite(values)):
            raise ContractError("feature values must all be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_frames(self) -> int:
        return self.values.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.values.shape[1]


def generate_piece(cfg: SynthConfig, piece_index: int) -> Annotation:
    """Generate one piece; pieces use independent derived seeds."""
    rng = np.random.default_rng([cfg.seed & MASK64, 0, piece_index])
    d_min, d_max = cfg.duration_range
    onsets, offsets, labels = [], [], []
    t = rng.exponential(1.0 / cfg.note_rate)
    while t < cfg.piece_duration_sec:
        labels.append(rng.integers(cfg.num_labels))
        onsets.append(t)
        offsets.append(min(t + rng.uniform(d_min, d_max), cfg.piece_duration_sec))
        t += rng.exponential(1.0 / cfg.note_rate)
    return Annotation(onsets, offsets, labels, cfg.num_labels, cfg.piece_duration_sec)


def generate_corpus(cfg: SynthConfig) -> list[Annotation]:
    """Generate the full corpus, fully determined by cfg.seed.

    Onsets are a Poisson process at cfg.note_rate, labels are uniform,
    durations are uniform over cfg.duration_range, and notes are truncated
    at the piece end. Onset and offset times are continuous reals.
    """
    return [generate_piece(cfg, i) for i in range(cfg.num_pieces)]


def label_templates(cfg: SynthConfig) -> np.ndarray:
    """Per-label spectral templates, shape (num_labels, feature_dim).

    Label k has its fundamental at bin floor(k * feature_dim / num_labels)
    and value 1/h at the h-th multiple of that bin for h = 1..harmonics,
    dropping multiples beyond the feature dimension.
    """
    templates = np.zeros((cfg.num_labels, cfg.feature_dim))
    for k in range(cfg.num_labels):
        base = (k * cfg.feature_dim) // cfg.num_labels
        for h in range(1, cfg.harmonics + 1):
            bin_index = base * h
            if bin_index < cfg.feature_dim:
                templates[k, bin_index] += 1.0 / h
    return templates


def render_features(annotation: Annotation, grid: FrameGrid, cfg: SynthConfig,
                    *, noise_seed: int = 0) -> FeatureMatrix:
    """Render frame features from the continuous-time annotation.

    Frame t sums the templates of every label active at the frame center
    (t + 0.5) * dt, judged against the continuous annotation rather than
    any rasterization, then adds i.i.d. Gaussian noise of cfg.noise_sigma.
    """
    if annotation.num_labels != cfg.num_labels:
        raise ContractError(
            f"annotation has {annotation.num_labels} labels, config expects {cfg.num_labels}")
    if grid.duration_sec + 1e-9 < annotation.duration_sec:
        raise ContractError(
            f"grid covers {grid.duration_sec:.6f} s but annotation lasts "
            f"{annotation.duration_sec:.6f} s")

    # frame centers c = (t + 0.5) * dt with onset <= c < offset
    active = paint_ranges(grid.num_frames, cfg.num_labels,
                          np.ceil(annotation.onsets / grid.dt - 0.5),
                          np.ceil(annotation.offsets / grid.dt - 0.5), annotation.labels)
    features = active.astype(np.float64) @ label_templates(cfg)
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng([cfg.seed & MASK64, 1, noise_seed & MASK64])
        features = features + rng.normal(0.0, cfg.noise_sigma, size=features.shape)
    return FeatureMatrix(values=features, grid=grid)
