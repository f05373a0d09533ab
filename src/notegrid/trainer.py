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

import numpy as np

from .errors import ContractError, DivergenceError
from .metrics import EvalCounts, _window_grid, windowed_block_counts
from .quantize import FrameGrid, LabelingFunction, LabelMatrix, rasterize
from .synth import FeatureMatrix, SynthConfig, generate_corpus, render_features
from .util import MASK64, brief, check_config, derive_seed, is_seed


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


# Work budgets that TrainConfig checks, so a huge but finite value fails at
# once instead of training on without end or exhausting memory:
# - epochs, each a pass over every training example;
# - context_frames, the frames of an example window: the weights have
#   context_frames x feature_dim rows, and predict builds every window.
MAX_EPOCHS = 10 ** 3
MAX_CONTEXT_FRAMES = 10 ** 3 + 1

# A work budget that run_sensitivity_experiment checks before it generates
# anything, in cells of one seed's weights (context_frames x feature_dim x
# distinct functions x num_labels) and of one test piece's prediction windows
# (frames x context_frames x feature_dim). Training holds three weight-sized
# buffers per seed of a lockstep group (weights, velocity and look-ahead,
# each with the bias as one more row), one seed's float64 draw at a time, and
# one chunk's windows and signs; README gives the memory measured at the
# budget.
MAX_MODEL_CELLS = 2 ** 24


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters.

    lr_schedule lists (epoch, multiplier) pairs applied at the start of
    the given epoch, one of 0 to epochs - 1; None means the default step-wise schedule that
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
        check_config(self, {
            "batch_size": (">= 1", lambda v: v >= 1),
            "learning_rate": ("positive and finite", lambda v: 0 < v < math.inf),
            "momentum": ("in [0, 1)", lambda v: 0 <= v < 1),
            "lr_schedule": ("None or (epoch, multiplier) pairs with each multiplier positive",
                            lambda s: s is None or all(m > 0 for _, m in s)),
            "epochs": (">= 0", lambda v: v >= 0, MAX_EPOCHS, "epochs"),
            "context_frames": ("odd", lambda v: v >= 1 and v % 2, MAX_CONTEXT_FRAMES, "frames"),
            "threshold": ("in (0, 1)", lambda v: 0 < v < 1),
            "seed": ("an integer below 2**64 in size", is_seed)})
        if self.lr_schedule is not None:
            object.__setattr__(self, "lr_schedule",
                               tuple((int(e), float(m)) for e, m in self.lr_schedule))
            for epoch, _ in self.lr_schedule:
                if not 0 <= epoch < self.epochs:
                    raise ContractError(f"lr_schedule epoch {brief(epoch)} is not in "
                                        f"[0, {self.epochs}), so it would never apply")

    def resolved_schedule(self) -> tuple[tuple[int, float], ...]:
        if self.lr_schedule is not None:
            return self.lr_schedule
        return ((math.floor(0.6 * self.epochs), 0.5),
                (math.floor(0.85 * self.epochs), 0.5))


def _window_view(rows: np.ndarray, width: int) -> np.ndarray:
    """Row t is rows[t:t + width].ravel() of the C-contiguous 2-D `rows`:
    every window in one read-only strided view, one row per step, no copy."""
    return np.lib.stride_tricks.as_strided(
        rows, shape=(len(rows) - width + 1, width * rows.shape[1]), strides=rows.strides,
        writeable=False)


def _windows(values: np.ndarray, context_frames: int) -> np.ndarray:
    """Flattened sliding windows over the rows of `values`, zero-padded at
    the edges so every frame yields one example."""
    if context_frames < 1 or context_frames % 2 == 0:
        raise ContractError(f"context_frames must be odd, got {context_frames}")
    pad = context_frames // 2
    return _window_view(np.pad(values, ((pad, pad), (0, 0))), context_frames).copy()


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
    # 0.5 + 0.5 * tanh(0.5 * z) in one new array; tanh saturates, so no branch on z
    half = np.tanh(np.multiply(0.5, z))
    half *= 0.5
    half += 0.5
    return half


def bce_loss(params: ModelParams, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean per-label binary cross-entropy of sigmoid outputs.

    Computed from logits as softplus(z) - y*z, which is exact and stable
    for any magnitude of z.
    """
    return float(_block_losses(inputs @ params.weights + params.bias, targets, 1)[0])


def _block_losses(z: np.ndarray, targets: np.ndarray, models: int) -> np.ndarray:
    # the columns hold `models` equal blocks of K; each block's loss is the
    # mean over its own rows x K cells
    k = targets.shape[1] // models
    cells = np.logaddexp(0.0, z) - targets * z
    return cells.reshape(len(z), models, k).mean(axis=(0, 2))


def _gradient(half_logits: np.ndarray, inputs: np.ndarray, signs: np.ndarray,
              slope, out: np.ndarray | None = None, out_bias: np.ndarray | None = None,
              ) -> tuple[np.ndarray, np.ndarray]:
    # sigmoid(z) - y = (tanh(z/2) + s) / 2 with s = 1 - 2y, so from t = z/2 the
    # residual is (tanh(t) + s) * slope, slope = 0.5 * lr / cells, with each
    # block normalised by its own rows x K cells so it trains exactly as it
    # would alone; a leading axis of lockstep problems is carried through.
    # The residual overwrites t; the weight gradient goes to `out` and the
    # bias gradient to `out_bias` (np.add.reduce is .sum without its wrapper).
    residual = np.tanh(half_logits, out=half_logits)
    residual += signs
    residual *= slope
    return (np.matmul(inputs.swapaxes(-1, -2), residual, out=out),
            np.add.reduce(residual, axis=-2, out=out_bias))


def bce_loss_and_gradient(params: ModelParams, inputs: np.ndarray,
                          targets: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus its analytic gradient with respect to weights and bias,
    from one set of logits.

    train() runs the same gradient kernel on every mini-batch, computing
    the losses only when the divergence screen cannot rule out a
    non-finite one.
    """
    z = inputs @ params.weights + params.bias
    loss = float(_block_losses(z, targets, 1)[0])  # before _gradient overwrites z
    z *= 0.5
    slope = z.dtype.type(0.5 / max(targets.size, 1))  # an empty batch has no cell
    return (loss, *_gradient(z, inputs, 1 - 2 * targets, slope))


def _init_weights(dim: int, num_labels: int, seed: int) -> np.ndarray:
    return np.random.default_rng([seed & MASK64, 0]).normal(0.0, 0.01, size=(dim, num_labels))


# cache line and AVX-512 store width: a buffer starting on it splits no store
_ALIGN = 64

# the lockstep kernel gathers the windows and signs of this many batches at once
_CHUNK_BATCHES = 16


def _aligned_empty(shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized C-contiguous array whose data starts on an
    _ALIGN-byte boundary, a view into an over-allocated byte buffer."""
    dtype = np.dtype(dtype)
    buffer = np.empty(math.prod(shape) * dtype.itemsize + _ALIGN - 1, dtype=np.uint8)
    return np.ndarray(shape, dtype, buffer=buffer, offset=-buffer.ctypes.data % _ALIGN)


def _pad_pieces(piece, num_problems: int, num_pieces: int,
                context_frames: int) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep inputs (frames, starts) from piece(s, p), the feature rows
    of piece p of problem s; every piece has the same shape and dtype.

    frames[s] holds problem s's pieces with context_frames // 2 zero rows
    before the first, between pieces and after the last; it is allocated
    once the first piece is drawn, so that piece's own checks come first.
    Example t of every problem is the window of context_frames rows from
    starts[t], which flattened is _windows' row for that frame of its piece.
    """
    pad = context_frames // 2
    frames = None
    for s in range(num_problems):
        for p in range(num_pieces):
            values = piece(s, p)
            if frames is None:
                span = len(values) + pad
                frames = np.zeros((num_problems, pad + num_pieces * span, values.shape[1]),
                                  dtype=values.dtype)
            frames[s, pad + p * span:(p + 1) * span] = values
    return frames, np.arange(num_pieces * span).reshape(num_pieces, span)[:, :span - pad].ravel()


def _first_divergence(half_logits: np.ndarray, signs: np.ndarray, half_limit: float,
                      models: int) -> tuple[int, np.ndarray] | None:
    """The first problem of a lockstep batch with a non-finite block loss,
    and those blocks' indices; only the problems whose halved logits fail
    the halved screen limit compute their losses, from z = 2t and
    y = (1 - s) / 2, which are exact for binary targets."""
    peaks = np.abs(half_logits).reshape(len(half_logits), -1).max(axis=1, initial=0.0)
    for problem in np.flatnonzero(~(peaks < half_limit)).tolist():
        z = half_logits[problem] * 2
        targets = np.subtract(1, signs[problem], dtype=z.dtype)
        targets /= 2
        blocks = np.flatnonzero(~np.isfinite(_block_losses(z, targets, models)))
        if blocks.size:
            return problem, blocks
    return None


@np.errstate(over="ignore", invalid="ignore")  # the divergence screen judges overflow
def _train_lockstep(frames: np.ndarray, width: int, starts: np.ndarray,
                    signs: np.ndarray, seeds: list[int], cfg: TrainConfig,
                    models: int) -> tuple[np.ndarray, np.ndarray,
                                          tuple[int, DivergenceError] | None]:
    """train() of S equal-sized problems at once, one batched step for all.

    Computes in frames.dtype: the float64-drawn initialization is cast to
    it, and so are the weights, velocities and logits; with float64 frames
    it is train()'s arithmetic exactly. It trains half-scale parameters
    U = W/2 and c = b/2, so x @ U + c is z/2 and the residual takes three
    batch-sized calls (see _gradient); scaling by 2 commutes with every
    rounding, so the weights are those of the unscaled step bit for bit,
    barring underflow. The weights, velocity and look-ahead point are three
    (S, width*D + 1, G*K) buffers on _ALIGN-byte boundaries, the bias the
    last row of each, so every elementwise step is one call for weights
    and bias. Each chunk of _CHUNK_BATCHES batches gathers its windows and
    its signs, these in the dtype the residual adds them in, once, each
    batch into a contiguous block that the batch then takes as a view.

    frames is (S, R, D), C-contiguous; example i of problem s is the
    `width` rows frames[s, starts[i]:starts[i] + width], flattened, with
    signs[s, i] = 1 - 2 * targets (S, n >= 1, G*K >= 1, of any signed real
    dtype). Problem s trains as train() would with cfg.seed = seeds[s]: its
    own initialization and shuffle stream, the same float operations, under
    one divergence screen limit for all. Each chunk gathers every problem's
    rows with one fancy index, and each batch makes one 3-D matmul each way.

    Returns weights (S, width*D, G*K) and biases (S, G*K), views of the
    first rows and the last row of the parameter buffer, and None, or, when
    a problem diverges, a failure (s, error) for the first problem in order
    whose training diverges: the error train() raises for it alone. Every
    problem keeps stepping after a divergence, but only those before the
    diverged one are screened from there on, so s is the one sequential
    training would report; a failed call's parameters are not meaningful.
    """
    num_problems, rows_per_problem, dim = frames.shape
    n, columns = signs.shape[1:]
    num_labels = columns // models
    rows = width * dim
    # the step runs in place in three weight-sized buffers, in the same float
    # operations as weights + mu*v, mu*v - g, weights + v: velocity holds
    # mu*v, and ahead the look-ahead point until the gradient overwrites it.
    # Row `rows` of each is the bias, so one call updates weights and bias.
    # Each starts on an _ALIGN-byte boundary, wherever the heap would put it.
    params, velocity, ahead = (
        _aligned_empty((num_problems, rows + 1, columns), frames.dtype) for _ in range(3))
    for problem, seed in enumerate(seeds):  # one float64 draw at a time, halved as it is cast
        np.multiply(_init_weights(rows, num_labels, seed)[:, None], 0.5, casting="same_kind",
                    out=params[problem, :rows].reshape(rows, models, num_labels))
        params[problem, rows] = 0  # the zero bias
    velocity.fill(0)
    windows = _window_view(frames.reshape(num_problems * rows_per_problem, dim), width)
    offsets = np.arange(num_problems)[:, None]
    flat_signs = signs.reshape(num_problems * n, columns)

    batch = min(cfg.batch_size, n)  # a batch larger than the training set is that set
    batches = -(-n // batch)
    # A chunk gathers each of its batches' windows and signs into a
    # contiguous (S, batch, ...) block, as a per-batch gather would lay them
    # out; an add of a strided view of signs takes twice as long. The signs
    # are gathered in their own dtype and cast once to the dtype the
    # residual adds them in: exact for int8 signs, and the cast each batch's
    # add would make.
    sign_dtype = np.result_type(signs.dtype, frames.dtype)
    chunk_signs = np.empty((min(_CHUNK_BATCHES, batches), num_problems, batch, columns),
                           sign_dtype)
    gathered = chunk_signs if signs.dtype == sign_dtype else np.empty(chunk_signs.shape,
                                                                       signs.dtype)
    # Divergence screen: a cell softplus(z) - y*z is at most 1 + |z|(1 + ymax)
    # in size, so while every |z| of a batch stays below `limit` no sum of
    # that batch's cells can reach `bound` and every block loss is finite.
    # `bound` is 10**(floor(log10(largest float)) - 8) of the kernel's dtype:
    # 1e300 in float64, 1e30 in float32, and ymax is taken over every
    # problem's targets. Only a problem whose batch fails the comparison (a
    # NaN or inf logit included) computes its losses, to decide divergence
    # exactly as on every batch. A NaN target makes the limit 0. The kernel
    # compares |z/2| with limit/2.
    bound = float(10 ** (math.floor(math.log10(np.finfo(frames.dtype).max)) - 8))
    # |y| = |1 - s| / 2 is largest at the smallest or the largest sign
    ends = np.array([signs.min(initial=1), signs.max(initial=1)], float)
    ymax = float(np.abs(1.0 - ends).max()) / 2
    half_limit = bound / (batch * columns * (1.0 + ymax)) / 2 if math.isfinite(ymax) else 0.0

    shuffle_rngs = [np.random.default_rng([seed & MASK64, 1]) for seed in seeds]
    schedule = cfg.resolved_schedule()
    failure, screened = None, num_problems  # the problems before the first diverged one
    tail = n % batch or batch  # the rows of the last batch

    # lr is scheduled in float64 and folded into each epoch's two slopes,
    # 0.25 * lr / cells of a full and of the last batch; these and mu are
    # cast to the computing dtype once, as every ufunc call would cast them
    lr = cfg.learning_rate
    mu = frames.dtype.type(cfg.momentum)

    # An epoch skips the screen when, from its start, no batch of it can
    # reach half_limit. With xmax = max|x| and smax = max|s|, a halved logit
    # is at most (rows * xmax + 1) * max|ahead| in size, and a step moves
    # the velocity by at most `step`, since |tanh(t) + s| <= 1 + smax; so
    # |v| stays under vmax = max(|v0|, step / (1 - mu)), each step moves the
    # parameters by at most vmax, and the factor of 4 covers the roundings.
    # np.max keeps a NaN, so a NaN or inf anywhere makes `reach` non-finite,
    # and that epoch is screened.
    xmax = float(max(frames.max(initial=0), -frames.min(initial=0)))
    smax = float(np.abs(ends).max())
    growth = 1 / (1 - float(mu)) if mu < 1 else math.inf  # float32 may round mu up to 1
    ahead_w, ahead_b, grad_b = ahead[:, :rows], ahead[:, rows:], ahead[:, rows]
    for epoch in range(cfg.epochs):
        for at_epoch, multiplier in schedule:
            if at_epoch == epoch:
                lr *= multiplier
        full_slope, tail_slope = (frames.dtype.type(0.25 * lr / (size * num_labels))
                                  for size in (batch, tail))
        step = batch * max(xmax, 1) * (1 + smax) * float(max(full_slope, tail_slope))
        vmax = float(np.max([velocity.max(), -velocity.min(), step * growth]))
        pmax = float(max(params.max(), -params.min())) + (batches + 1) * vmax
        reach = (rows * xmax + 1) * (pmax + vmax)  # over every |t| of the epoch
        screen = screened < num_problems or not 4 * reach < half_limit
        # each problem's shuffled order, padded to whole batches with row 0,
        # which the last batch gathers but does not step on; orders[b] holds
        # every problem's rows of batch b
        orders = np.zeros((num_problems, batches * batch), dtype=np.intp)
        for problem, rng in enumerate(shuffle_rngs):
            orders[problem, :n] = rng.permutation(n)
        orders = orders.reshape(num_problems, batches, batch).swapaxes(0, 1)
        window_rows = starts[orders] + offsets * rows_per_problem
        for first in range(0, batches, _CHUNK_BATCHES):
            xs = windows[window_rows[first:first + _CHUNK_BATCHES]]
            ss = chunk_signs[:len(xs)]  # the last chunk may be short
            # "clip" gathers straight into the buffer; the default "raise"
            # would gather into a temporary first. Every row is in range.
            np.take(flat_signs, orders[first:first + _CHUNK_BATCHES] + offsets * n, axis=0,
                    out=gathered[:len(xs)], mode="clip")
            if gathered is not chunk_signs:
                np.copyto(ss, gathered[:len(xs)])
            for batch_index, x, s in zip(range(first, batches), xs, ss):
                slope = full_slope
                if batch_index == batches - 1:  # the last batch may be short
                    x, s, slope = x[:, :tail], s[:, :tail], tail_slope
                velocity *= mu
                np.add(params, velocity, out=ahead)
                t = np.matmul(x, ahead_w)
                t += ahead_b
                if screen and not np.abs(t).max(initial=0.0) < half_limit:
                    found = _first_divergence(t[:screened], s[:screened], half_limit, models)
                    if found is not None:
                        screened, blocks = found
                        failure = screened, DivergenceError(
                            f"non-finite loss at epoch {epoch}, batch {batch_index}",
                            epoch=epoch, batch=batch_index, models=tuple(blocks.tolist()))
                        if not screened:
                            return params[:, :rows], params[:, rows], failure
                _gradient(t, x, s, slope, out=ahead_w, out_bias=grad_b)
                velocity -= ahead
                params += velocity

    params *= 2  # W = 2U and b = 2c
    return params[:, :rows], params[:, rows], failure


def train(train_set: Dataset, cfg: TrainConfig, *, models: int = 1) -> ModelParams:
    """Train the linear classifier with Nesterov-momentum mini-batch SGD.

    Weights start from seeded N(0, 0.01), bias from zero. Each epoch
    shuffles the examples (stream seeded by cfg.seed), walks them in
    batches of cfg.batch_size, and evaluates the gradient at the momentum
    look-ahead point. The learning rate is multiplied per schedule entry
    at the start of the named epoch. Returns the final parameters.
    Everything is deterministic for a fixed cfg.

    With models=G the targets are G blocks of K columns sharing the
    inputs, and G models train in lockstep: each block starts from the
    same initialization and is normalised per rows x K cells, so block j
    equals training on block j alone, up to BLAS summation order.

    Raises DivergenceError, with epoch, batch and the indices of the
    models whose own batch loss went non-finite, at the first such batch.
    """
    if train_set.num_examples == 0:
        raise ContractError("the train set must be non-empty")
    columns = train_set.targets.shape[1]
    if models < 1 or columns < 1 or columns % models:
        raise ContractError(f"{columns} target columns cannot be split into {models} models")

    # one problem whose windows are its input rows
    weights, bias, failure = _train_lockstep(
        train_set.inputs[None], 1, np.arange(train_set.num_examples),
        1 - 2 * train_set.targets[None], [cfg.seed], cfg, models)
    if failure is not None:
        raise failure[1]
    return ModelParams(weights=weights[0], bias=bias[0])


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
class ExperimentRow(EvalCounts):
    """The counts of one (labeling function, seed) cell on the test split."""

    fn: LabelingFunction
    seed: int


@dataclass(frozen=True, eq=False)
class ExperimentTable:
    """A sensitivity experiment's test counts, and the rows and per-function
    aggregates they give: counts[s, j, p] holds the tp, fp and fn of fns[j]
    under seeds[s] on test piece p, both axes in the caller's order."""

    fns: tuple[LabelingFunction, ...]
    seeds: tuple[int, ...]
    counts: np.ndarray

    @property
    def rows(self) -> tuple[ExperimentRow, ...]:
        # Python ints, so the scores are floats and not np.float64
        totals = self.counts.sum(axis=2).tolist()
        return tuple(ExperimentRow(*totals[s][j], fn=fn, seed=seed)
                     for s, seed in enumerate(self.seeds) for j, fn in enumerate(self.fns))

    def per_seed_fmeasures(self, fn: LabelingFunction) -> list[float]:
        return [r.fmeasure for r in self.rows if r.fn is fn]

    def mean_fmeasure(self, fn: LabelingFunction) -> float:
        values = self.per_seed_fmeasures(fn)
        if not values:
            raise ContractError(f"no rows for labeling function {fn.letter}")
        return sum(values) / len(values)

    def summary(self) -> dict:
        return {fn.letter: {"mean_f": self.mean_fmeasure(fn),
                            "per_seed_f": self.per_seed_fmeasures(fn)}
                for fn in dict.fromkeys(self.fns)}


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


# Seeds train in lockstep in groups of at most this many, so memory stays
# bounded however many seeds an experiment lists: each seed holds its padded
# float32 train features and int8 signs.
_LOCKSTEP_SEEDS = 8


def run_sensitivity_experiment(synth_cfg: SynthConfig,
                               fns: list[LabelingFunction],
                               train_grid: FrameGrid,
                               eval_grid: FrameGrid,
                               train_cfg: TrainConfig,
                               seeds: list[int], *,
                               window_sec: float = 30.0) -> ExperimentTable:
    """Measure how the labeling function alone changes test f-measure.

    For each seed, one synthetic corpus is generated and split 60/20/20
    into train/valid/test by piece; features, splits, and model
    initialization are shared across labeling functions, so within a seed
    the only varying factor is how training targets were quantized. Nothing
    reads the valid pieces, so they are neither rendered nor rasterized.

    The distinct functions of a seed train as one stacked model (as
    train(..., models=G) does), and the distinct seeds train in lockstep,
    up to _LOCKSTEP_SEEDS at a time, through the kernel behind train().
    Each seed's train features are written once in float32, zero-padded
    per piece, and every batch gathers its windows from them, so training
    computes in float32. A repeated function or seed reuses its result.
    Each seed's stacked model predicts each test piece once, in float64,
    and windowed_block_counts scores every function's column block against
    the reference rasterization (function a on eval_grid).
    Returns the test counts per (seed, fn, test piece) in the order of
    seeds and fns, repeats included.
    DivergenceError from training is re-raised annotated with the failing
    function(s) and seed: the first seed in list order whose training
    diverges, the one that training seed by seed would report.
    """
    if not fns:
        raise ContractError("fns must be non-empty")
    if not seeds:
        raise ContractError("seeds must be non-empty")
    train_idx, _, test_idx = _split_indices(synth_cfg.num_pieces)
    distinct = list(dict.fromkeys(fns))
    window_dim = train_cfg.context_frames * synth_cfg.feature_dim
    for what, cells in (("a seed's weights", window_dim * len(distinct) * synth_cfg.num_labels),
                        ("a test piece's windows", train_grid.num_frames * window_dim)):
        if cells > MAX_MODEL_CELLS:
            raise ContractError(f"{what} take {brief(cells)} cells, over the budget "
                                f"of {MAX_MODEL_CELLS} cells")
    _window_grid(eval_grid, window_sec)  # a window of no frame fails before any training
    distinct_seeds = list(dict.fromkeys(seeds))

    # tp, fp and fn per (distinct seed, distinct fn, test piece)
    counts = np.zeros((len(distinct_seeds), len(distinct), len(test_idx), 3), dtype=np.int64)
    for first in range(0, len(distinct_seeds), _LOCKSTEP_SEEDS):
        group = distinct_seeds[first:first + _LOCKSTEP_SEEDS]
        corpus_cfgs = [replace(synth_cfg, seed=derive_seed(synth_cfg.seed, seed))
                       for seed in group]
        corpora = [generate_corpus(corpus_cfg) for corpus_cfg in corpus_cfgs]

        def piece(s, p):
            values = render_features(corpora[s][train_idx[p]], train_grid, corpus_cfgs[s],
                                     noise_seed=train_idx[p]).values
            # a feature past float32's range becomes inf, which the divergence
            # screen judges
            with np.errstate(over="ignore"):
                return values.astype(np.float32)

        frames, starts = _pad_pieces(piece, len(group), len(train_idx),
                                     train_cfg.context_frames)
        # the 0/1 targets, turned in place into the signs 1 - 2y the kernel takes
        signs = np.stack([np.concatenate([np.hstack([
            rasterize(corpus[i], train_grid, fn, derive_seed(seed, i)).frames
            for fn in distinct]) for i in train_idx])
            for seed, corpus in zip(group, corpora)]).view(np.int8)
        signs *= -2
        signs += 1

        weights, bias, failure = _train_lockstep(
            frames, train_cfg.context_frames, starts, signs,
            [derive_seed(train_cfg.seed, seed) for seed in group], train_cfg, len(distinct))
        if failure is not None:
            s, exc = failure
            raise DivergenceError(
                f"fn={','.join(distinct[j].letter for j in exc.models)} "
                f"seed={group[s]}: {exc}",
                epoch=exc.epoch, batch=exc.batch, models=exc.models) from exc

        # one prediction per test piece; column block j is function j's
        for s, (corpus_cfg, corpus) in enumerate(zip(corpus_cfgs, corpora)):
            params = ModelParams(weights=weights[s], bias=bias[s])
            for p, i in enumerate(test_idx):
                features = render_features(corpus[i], train_grid, corpus_cfg, noise_seed=i)
                pred = predict(params, features, train_cfg.context_frames,
                               train_cfg.threshold)
                reference = rasterize(corpus[i], eval_grid, LabelingFunction.A, 0)
                counts[first + s, :, p] = [(c.tp, c.fp, c.fn_) for c in windowed_block_counts(
                    pred, reference, window_sec, len(distinct))]

    return ExperimentTable(fns=tuple(fns), seeds=tuple(seeds), counts=counts[np.ix_(
        [distinct_seeds.index(seed) for seed in seeds], [distinct.index(fn) for fn in fns])])
