"""Framewise multi-label classifier and the label-noise sensitivity
experiment.

The model is deliberately simple: a single linear layer with sigmoid
outputs over a flattened window of context frames, trained with
mini-batch SGD under Nesterov momentum (gradient evaluated at the
look-ahead point) and a step-wise learning-rate schedule. Being convex,
it isolates the effect of the labeling function from architecture
effects and trains in seconds per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ContractError, DivergenceError
from .metrics import EvalCounts, count_cells, prf, windowed_counts
from .quantize import FrameGrid, LabelingFunction, LabelMatrix, rasterize
from .synth import FeatureMatrix, SynthConfig, generate_corpus, render_features
from .util import MASK64, derive_seed


@dataclass(frozen=True, eq=False)
class Dataset:
    """Paired example windows and binary targets, one row per frame."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        targets = np.ascontiguousarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ContractError("inputs and targets must be 2-D")
        if inputs.shape[0] != targets.shape[0]:
            raise ContractError(
                f"inputs has {inputs.shape[0]} rows, targets {targets.shape[0]}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def num_examples(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Linear classifier parameters: weights (window_dim, K) and bias (K,)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or weights.shape[1] != bias.shape[0]:
            raise ContractError(
                f"inconsistent parameter shapes {weights.shape} / {bias.shape}")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ContractError("parameters must be finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    lr_schedule lists (epoch, multiplier) pairs applied at the start of
    the given epoch; None means the default step-wise schedule that
    halves the rate at 60% and 85% of the epochs. context_frames is the
    odd number of feature frames per example window.
    """

    batch_size: int = 8
    learning_rate: float = 1.0
    momentum: float = 0.9
    lr_schedule: tuple[tuple[int, float], ...] | None = None
    epochs: int = 12
    context_frames: int = 5
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.context_frames < 1 or self.context_frames % 2 == 0:
            raise ContractError(f"context_frames must be odd, got {self.context_frames}")
        if not 0 < self.threshold < 1:
            raise ContractError(f"threshold must be in (0, 1), got {self.threshold}")
        if not 0 <= self.momentum < 1:
            raise ContractError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ContractError(f"epochs must be >= 0, got {self.epochs}")
        if self.lr_schedule is not None:
            object.__setattr__(self, "lr_schedule",
                               tuple((int(e), float(m)) for e, m in self.lr_schedule))
            for epoch, multiplier in self.lr_schedule:
                if not 0 < multiplier < math.inf:
                    raise ContractError(f"lr_schedule multiplier at epoch {epoch} must be "
                                        f"positive and finite, got {multiplier}")

    def resolved_schedule(self) -> tuple[tuple[int, float], ...]:
        if self.lr_schedule is not None:
            return self.lr_schedule
        return ((math.floor(0.6 * self.epochs), 0.5),
                (math.floor(0.85 * self.epochs), 0.5))


def _windows(values: np.ndarray, context_frames: int) -> np.ndarray:
    """Flattened sliding windows over the rows of `values`, zero-padded at
    the edges so every frame yields one example."""
    if context_frames < 1 or context_frames % 2 == 0:
        raise ContractError(f"context_frames must be odd, got {context_frames}")
    num_frames, dim = values.shape
    pad = context_frames // 2
    if pad == 0:
        return values.copy()
    padded = np.zeros((num_frames + 2 * pad, dim))
    padded[pad:pad + num_frames] = values
    stacked = np.stack([padded[i:i + num_frames] for i in range(context_frames)], axis=1)
    return stacked.reshape(num_frames, context_frames * dim)


def make_examples(features: FeatureMatrix, labels: LabelMatrix,
                  context_frames: int) -> Dataset:
    """One example per frame: the flattened context window around frame t
    paired with label row t."""
    if features.num_frames != labels.num_frames:
        raise ContractError(
            f"features has {features.num_frames} frames, labels {labels.num_frames}")
    if features.grid.fps != labels.grid.fps:
        raise ContractError(
            f"frame rate mismatch: {features.grid.fps} vs {labels.grid.fps}")
    return Dataset(inputs=_windows(features.values, context_frames),
                   targets=labels.frames.astype(np.float64))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # tanh saturates instead of overflowing, so no branch on the sign of z
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def bce_loss(params: ModelParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean per-label binary cross-entropy of sigmoid outputs.

    Computed from logits as softplus(z) - y*z, which is exact and stable
    for any magnitude of z.
    """
    z = inputs @ params.weights + params.bias
    return float(np.mean(np.logaddexp(0.0, z) - targets * z))


def _block_losses(z: np.ndarray, targets: np.ndarray, models: int) -> np.ndarray:
    # the columns hold `models` equal blocks of K; each block's loss is the
    # mean over its own rows x K cells
    k = targets.shape[1] // models
    cells = np.logaddexp(0.0, z) - targets * z
    return cells.reshape(len(z), models, k).mean(axis=(0, 2))


def _gradient(z: np.ndarray, inputs: np.ndarray, targets: np.ndarray,
              models: int) -> tuple[np.ndarray, np.ndarray]:
    # normalised per block like the loss, so a block trains exactly as it
    # would alone
    residual = (_sigmoid(z) - targets) / (targets.size // models)
    return inputs.T @ residual, residual.sum(axis=0)


def _loss_and_gradient(weights: np.ndarray, bias: np.ndarray, inputs: np.ndarray,
                       targets: np.ndarray, models: int = 1,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-block mean losses and the gradient, from one set of logits.

    train() runs the same two halves on every batch, computing the losses
    only when the divergence screen cannot rule out a non-finite one.
    """
    z = inputs @ weights + bias
    return (_block_losses(z, targets, models), *_gradient(z, inputs, targets, models))


def bce_loss_and_gradient(params: ModelParams, inputs: np.ndarray,
                          targets: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus its analytic gradient with respect to weights and bias.

    train() evaluates every mini-batch through the same kernel.
    """
    losses, grad_w, grad_b = _loss_and_gradient(params.weights, params.bias, inputs, targets)
    return float(losses[0]), grad_w, grad_b


class TrainHistory:
    """Per-epoch full-pass train and validation losses and training
    f-measure at the threshold, pooled over the stacked blocks.

    train() keeps a copy of the parameters after each epoch; each field is
    computed from those copies the first time it is read. Two histories
    are equal when their three fields are.
    """

    def __init__(self, epoch_params: tuple[ModelParams, ...], train_set: Dataset,
                 valid_set: Dataset, threshold: float):
        self._epoch_params = epoch_params
        self._train_set = train_set
        self._valid_set = valid_set
        self._threshold = threshold

    @cached_property
    def train_loss(self) -> tuple[float, ...]:
        return tuple(bce_loss(p, self._train_set.inputs, self._train_set.targets)
                     for p in self._epoch_params)

    @cached_property
    def valid_loss(self) -> tuple[float, ...]:
        return tuple(bce_loss(p, self._valid_set.inputs, self._valid_set.targets)
                     for p in self._epoch_params)

    @cached_property
    def train_fmeasure(self) -> tuple[float, ...]:
        inputs, actual = self._train_set.inputs, self._train_set.targets >= 0.5
        return tuple(
            prf(count_cells(_sigmoid(inputs @ p.weights + p.bias) >= self._threshold,
                            actual)).fmeasure
            for p in self._epoch_params)

    def _fields(self) -> tuple:
        return self.train_loss, self.valid_loss, self.train_fmeasure

    def __eq__(self, other):
        if not isinstance(other, TrainHistory):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())


def _init_params(dim: int, num_labels: int, seed: int) -> ModelParams:
    rng = np.random.default_rng([seed & MASK64, 0])
    return ModelParams(weights=rng.normal(0.0, 0.01, size=(dim, num_labels)),
                       bias=np.zeros(num_labels))


def train(train_set: Dataset, valid_set: Dataset, cfg: TrainConfig, *,
          models: int = 1) -> tuple[ModelParams, TrainHistory]:
    """Train the linear classifier with Nesterov-momentum mini-batch SGD.

    Weights start from seeded N(0, 0.01), bias from zero. Each epoch
    shuffles the examples (stream seeded by cfg.seed), walks them in
    batches of cfg.batch_size, and evaluates the gradient at the momentum
    look-ahead point. The learning rate is multiplied per schedule entry
    at the start of the named epoch. The returned history holds a copy of
    the parameters after each epoch and computes the full-pass train and
    validation losses and the training f-measure from them when first
    read. Everything is deterministic for a fixed cfg.

    With models=G the targets are G blocks of K columns sharing the
    inputs, and G models train in lockstep: each block starts from the
    same initialization and is normalised per rows x K cells, so block j
    equals training on block j alone, up to BLAS summation order. History
    is then pooled over all blocks (losses are the per-model mean).

    Raises DivergenceError, with epoch, batch and the indices of the
    models whose own batch loss went non-finite, at the first such batch.
    """
    if train_set.num_examples == 0 or valid_set.num_examples == 0:
        raise ContractError("train and valid sets must be non-empty")
    if train_set.inputs.shape[1] != valid_set.inputs.shape[1]:
        raise ContractError("train and valid input dimensions differ")
    if train_set.targets.shape[1] != valid_set.targets.shape[1]:
        raise ContractError("train and valid target widths differ")
    if models < 1 or train_set.targets.shape[1] % models:
        raise ContractError(
            f"{train_set.targets.shape[1]} target columns cannot be split "
            f"into {models} models")

    dim = train_set.inputs.shape[1]
    num_labels = train_set.targets.shape[1] // models
    init = _init_params(dim, num_labels, cfg.seed)
    weights = np.tile(init.weights, (1, models))
    bias = np.tile(init.bias, models)

    # Divergence screen: a cell softplus(z) - y*z is at most 1 + |z|(1 + ymax)
    # in size, so while every |z| of a batch stays below `limit` no sum of a
    # batch's cells can overflow and every block loss is finite. Only a batch
    # that fails the comparison (a NaN or inf logit included) computes its
    # losses, to decide divergence exactly as on every batch. A NaN target,
    # or no target column, makes the limit 0.
    ymax = float(np.abs(train_set.targets).max(initial=0.0))
    cells = cfg.batch_size * train_set.targets.shape[1]
    limit = 1e300 / (cells * (1.0 + ymax)) if cells and math.isfinite(ymax) else 0.0

    # the step runs in place: mu*v is formed once and feeds both the
    # look-ahead point and the new velocity, in the same float operations
    # as weights + mu*v, mu*v - lr*g, weights + v
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    momentum_w, momentum_b = np.empty_like(weights), np.empty_like(bias)
    ahead_w, ahead_b = np.empty_like(weights), np.empty_like(bias)
    shuffle_rng = np.random.default_rng([cfg.seed & MASK64, 1])
    schedule = cfg.resolved_schedule()

    lr = cfg.learning_rate
    mu = cfg.momentum
    n = train_set.num_examples
    epoch_params = []
    for epoch in range(cfg.epochs):
        for at_epoch, multiplier in schedule:
            if at_epoch == epoch:
                lr *= multiplier
        order = shuffle_rng.permutation(n)
        for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x = train_set.inputs[idx]
            y = train_set.targets[idx]
            np.multiply(mu, velocity_w, out=momentum_w)
            np.multiply(mu, velocity_b, out=momentum_b)
            np.add(weights, momentum_w, out=ahead_w)
            np.add(bias, momentum_b, out=ahead_b)
            z = x @ ahead_w + ahead_b
            if not np.abs(z).max(initial=0.0) < limit:
                diverged = np.flatnonzero(~np.isfinite(_block_losses(z, y, models)))
                if diverged.size:
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, batch {batch_index}",
                        epoch=epoch, batch=batch_index, models=tuple(diverged.tolist()))
            grad_w, grad_b = _gradient(z, x, y, models)
            grad_w *= lr
            grad_b *= lr
            np.subtract(momentum_w, grad_w, out=velocity_w)
            np.subtract(momentum_b, grad_b, out=velocity_b)
            weights += velocity_w
            bias += velocity_b
        epoch_params.append(ModelParams(weights=weights.copy(), bias=bias.copy()))

    return (ModelParams(weights=weights, bias=bias),
            TrainHistory(tuple(epoch_params), train_set, valid_set, cfg.threshold))


def predict(params: ModelParams, features: FeatureMatrix, context_frames: int,
            threshold: float = 0.5) -> LabelMatrix:
    """Thresholded sigmoid outputs per frame as a LabelMatrix.

    The decision rule is sigmoid(window @ W + b) >= threshold; with
    all-zero parameters and the default threshold every cell is active,
    since sigmoid(0) = 0.5.
    """
    windows = _windows(features.values, context_frames)
    if windows.shape[1] != params.weights.shape[0]:
        raise ContractError(
            f"window dimension {windows.shape[1]} does not match weights "
            f"{params.weights.shape[0]}")
    active = _sigmoid(windows @ params.weights + params.bias) >= threshold
    return LabelMatrix(frames=active.astype(np.uint8), grid=features.grid)


@dataclass(frozen=True)
class ExperimentRow:
    """Evaluation of one (labeling function, seed) cell on one split."""

    fn: LabelingFunction
    seed: int
    split: str
    precision: float
    recall: float
    fmeasure: float


@dataclass(frozen=True)
class ExperimentTable:
    """All rows of a sensitivity experiment plus per-function aggregates."""

    rows: tuple[ExperimentRow, ...]

    def per_seed_fmeasures(self, fn: LabelingFunction) -> list[float]:
        return [r.fmeasure for r in self.rows if r.fn is fn]

    def mean_fmeasure(self, fn: LabelingFunction) -> float:
        values = self.per_seed_fmeasures(fn)
        if not values:
            raise ContractError(f"no rows for labeling function {fn.letter}")
        return sum(values) / len(values)

    def summary(self) -> dict:
        return {
            fn.letter: {
                "mean_f": self.mean_fmeasure(fn),
                "per_seed_f": self.per_seed_fmeasures(fn),
            }
            for fn in dict.fromkeys(row.fn for row in self.rows)
        }


def _split_indices(num_pieces: int) -> tuple[range, range, range]:
    """60/20/20 train/valid/test split by piece index."""
    n_train = math.floor(0.6 * num_pieces)
    n_valid = math.floor(0.2 * num_pieces)
    n_test = num_pieces - n_train - n_valid
    if n_train < 1 or n_valid < 1 or n_test < 1:
        raise ContractError(
            f"{num_pieces} pieces cannot be split 60/20/20 with one piece per split")
    return (range(0, n_train),
            range(n_train, n_train + n_valid),
            range(n_train + n_valid, num_pieces))


def run_sensitivity_experiment(synth_cfg: SynthConfig,
                               fns: list[LabelingFunction],
                               train_grid: FrameGrid,
                               eval_grid: FrameGrid,
                               train_cfg: TrainConfig,
                               seeds: list[int], *,
                               window_sec: float = 30.0,
                               reference_fn: LabelingFunction = LabelingFunction.A,
                               ) -> ExperimentTable:
    """Measure how the labeling function alone changes test f-measure.

    For each seed, one synthetic corpus is generated and split 60/20/20
    into train/valid/test by piece; features, splits, and model
    initialization are shared across labeling functions, so within a seed
    the only varying factor is how training targets were quantized.

    Within a seed the distinct functions train once, in lockstep, as one
    stacked model (train(..., models=G)); a repeated function reuses its
    result. The stacked model predicts each test piece once, and each
    function's column block is scored by windowed_counts against the
    reference rasterization (reference_fn on eval_grid). Returns one test
    row per (fn, seed), in fns order.
    DivergenceError from training is re-raised annotated with the failing
    function(s) and seed.
    """
    if not fns:
        raise ContractError("fns must be non-empty")
    if not seeds:
        raise ContractError("seeds must be non-empty")

    rows = []
    for seed in seeds:
        corpus_cfg = replace(synth_cfg, seed=derive_seed(synth_cfg.seed, seed))
        corpus = generate_corpus(corpus_cfg)
        train_idx, valid_idx, test_idx = _split_indices(len(corpus))
        features = [render_features(piece, train_grid, corpus_cfg, noise_seed=i)
                    for i, piece in enumerate(corpus)]
        cfg_seeded = replace(train_cfg, seed=derive_seed(train_cfg.seed, seed))

        # every distinct function trains in lockstep as one stacked model
        distinct = list(dict.fromkeys(fns))

        def dataset(indices: range) -> Dataset:
            return Dataset(
                inputs=np.concatenate([_windows(features[i].values, train_cfg.context_frames)
                                       for i in indices]),
                targets=np.concatenate([np.hstack([
                    rasterize(corpus[i], train_grid, fn, derive_seed(seed, i)).frames
                    for fn in distinct]) for i in indices]))

        try:
            # the history is dropped at once: it holds both datasets
            params = train(dataset(train_idx), dataset(valid_idx), cfg_seeded,
                           models=len(distinct))[0]
        except DivergenceError as exc:
            culprits = distinct if exc.models is None else [distinct[j] for j in exc.models]
            raise DivergenceError(
                f"fn={','.join(fn.letter for fn in culprits)} seed={seed}: {exc}",
                epoch=exc.epoch, batch=exc.batch, models=exc.models) from exc

        # one prediction per test piece; column block j is function j's
        k = params.bias.shape[0] // len(distinct)
        totals = np.zeros((len(distinct), 3), dtype=np.int64)
        for i in test_idx:
            pred = predict(params, features[i], train_cfg.context_frames,
                           train_cfg.threshold)
            reference = rasterize(corpus[i], eval_grid, reference_fn, 0)
            for j in range(len(distinct)):
                block = LabelMatrix(frames=pred.frames[:, j * k:(j + 1) * k], grid=pred.grid)
                counts = windowed_counts(block, reference, window_sec)
                totals[j] += (counts.tp, counts.fp, counts.fn_)
        scores = {fn: prf(EvalCounts(*map(int, total))) for fn, total in zip(distinct, totals)}

        rows.extend(ExperimentRow(fn=fn, seed=seed, split="test",
                                  precision=scores[fn].precision, recall=scores[fn].recall,
                                  fmeasure=scores[fn].fmeasure)
                    for fn in fns)

    return ExperimentTable(rows=tuple(rows))
