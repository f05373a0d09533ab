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

from dataclasses import dataclass

import numpy as np

from .annotation import Annotation
from .errors import ContractError
from .quantize import FrameGrid, paint_ranges
from .util import MASK64


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
        d_min, d_max = self.duration_range
        if d_min <= 0 or d_max < d_min:
            raise ContractError(f"bad duration range {self.duration_range}")
        if self.num_labels < 1:
            raise ContractError(f"num_labels must be >= 1, got {self.num_labels}")
        if self.feature_dim < self.num_labels:
            raise ContractError(
                f"feature_dim {self.feature_dim} < num_labels {self.num_labels}")
        if self.noise_sigma < 0:
            raise ContractError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.note_rate <= 0:
            raise ContractError(f"note_rate must be positive, got {self.note_rate}")
        if self.num_pieces < 1 or self.piece_duration_sec <= 0:
            raise ContractError("need at least one piece of positive duration")
        if self.harmonics < 1:
            raise ContractError(f"harmonics must be >= 1, got {self.harmonics}")


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


def _piece_rng(cfg: SynthConfig, piece_index: int) -> np.random.Generator:
    return np.random.default_rng([cfg.seed & MASK64, 0, piece_index])


def generate_piece(cfg: SynthConfig, piece_index: int) -> Annotation:
    """Generate one piece; pieces use independent derived seeds."""
    rng = _piece_rng(cfg, piece_index)
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
