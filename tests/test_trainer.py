import sys
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from notegrid import (ContractError, Dataset, DivergenceError, ExperimentRow,
                      ExperimentTable, FeatureMatrix, FrameGrid, LabelingFunction,
                      LabelMatrix, ModelParams, SynthConfig, TrainConfig, bce_loss,
                      bce_loss_and_gradient, framewise_counts, make_examples,
                      generate_corpus, predict, rasterize, run_sensitivity_experiment,
                      train, windowed_counts)
from notegrid import trainer as trainer_module
from notegrid.metrics import count_cells
from notegrid.util import MASK64, derive_seed

A, E, F = LabelingFunction.A, LabelingFunction.E, LabelingFunction.F


def feature_matrix(values, fps=31.25):
    values = np.asarray(values, dtype=np.float64)
    return FeatureMatrix(values=values, grid=FrameGrid(fps=fps, num_frames=values.shape[0]))


def label_matrix(frames, fps=31.25):
    frames = np.asarray(frames, dtype=np.uint8)
    return LabelMatrix(frames=frames, grid=FrameGrid(fps=fps, num_frames=frames.shape[0]))


def two_cluster_dataset(n=200, dim=3, seed=7):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(-1.0, 0.6, (n, dim)), rng.normal(1.0, 0.6, (n, dim))])
    y = np.vstack([np.zeros((n, 1)), np.ones((n, 1))])
    return Dataset(inputs=x, targets=y)


def window_decisions(params, dataset, threshold):
    """The decision rule sigmoid(window @ W + b) >= threshold per example."""
    return trainer_module._sigmoid(dataset.inputs @ params.weights + params.bias) >= threshold


def exact_loss_training(train_set, cfg, models, dtype=np.float64):
    """Reference: the training loop in dtype with every batch's per-block
    losses computed by the checked kernel. Returns (epoch, batch, models) of
    the first non-finite loss, or the final (weights, bias)."""
    init = train(train_set, replace(cfg, epochs=0), models=models)
    weights, bias = init.weights.astype(dtype), init.bias.astype(dtype)
    with np.errstate(over="ignore"):  # a huge target is inf in float32
        inputs, targets = train_set.inputs.astype(dtype), train_set.targets.astype(dtype)
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    shuffle_rng = np.random.default_rng([cfg.seed & MASK64, 1])
    lr, mu = cfg.learning_rate, cfg.momentum
    for epoch in range(cfg.epochs):
        for at_epoch, multiplier in cfg.resolved_schedule():
            if at_epoch == epoch:
                lr *= multiplier
        order = shuffle_rng.permutation(train_set.num_examples)
        for batch, start in enumerate(range(0, train_set.num_examples, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            x, y = inputs[idx], targets[idx]
            z = x @ (weights + mu * velocity_w) + (bias + mu * velocity_b)
            diverged = np.flatnonzero(~np.isfinite(trainer_module._block_losses(z, y, models)))
            if diverged.size:
                return epoch, batch, tuple(diverged.tolist())
            # the gradient at lr = 1, each block normalised by its own cells
            z *= 0.5
            grad_w, grad_b = trainer_module._gradient(
                z, x, 1 - 2 * y, z.dtype.type(0.5 / max(len(y) * (y.shape[1] // models), 1)))
            grad_w *= lr  # in place, so in dtype whatever the size of lr
            grad_b *= lr
            velocity_w = mu * velocity_w - grad_w
            velocity_b = mu * velocity_b - grad_b
            weights = weights + velocity_w
            bias = bias + velocity_b
    return weights, bias


def misaligned(array, offset):
    """A copy of array whose data starts offset bytes past a 64-byte boundary."""
    buffer = np.empty(array.nbytes + 64 + offset, dtype=np.uint8)
    copy = np.ndarray(array.shape, array.dtype, buffer=buffer,
                      offset=-buffer.ctypes.data % 64 + offset)
    copy[...] = array
    return copy


def reference_train(train_set, cfg, models, dtype=np.float64, offset=None):
    """One problem's training loop written out on 2-D arrays, in unscaled
    weights: the reference the lockstep kernel, which trains W/2 and b/2,
    must match bit for bit. The residual is (tanh(z/2) + s) * slope with
    s = 1 - 2y and slope = 0.5 * lr / cells in dtype. It computes in dtype,
    and with an offset its weight-sized buffers start that many bytes past
    a 64-byte boundary. It converges on every input it is given here."""
    dim, columns = train_set.inputs.shape[1], train_set.targets.shape[1]
    inputs = train_set.inputs.astype(dtype, copy=False)
    signs = 1 - 2 * train_set.targets.astype(dtype, copy=False)
    init = np.random.default_rng([cfg.seed & MASK64, 0]).normal(
        0.0, 0.01, size=(dim, columns // models))
    weights, bias = np.tile(init, (1, models)).astype(dtype, copy=False), np.zeros(columns, dtype)
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    momentum_w, momentum_b = np.empty_like(weights), np.empty_like(bias)
    ahead_w, ahead_b = np.empty_like(weights), np.empty_like(bias)
    if offset is not None:
        (weights, bias, velocity_w, velocity_b, momentum_w, momentum_b, ahead_w, ahead_b) = (
            misaligned(a, offset) for a in (weights, bias, velocity_w, velocity_b,
                                            momentum_w, momentum_b, ahead_w, ahead_b))
    shuffle_rng = np.random.default_rng([cfg.seed & MASK64, 1])
    lr, mu, n = cfg.learning_rate, cfg.momentum, train_set.num_examples
    for epoch in range(cfg.epochs):
        for at_epoch, multiplier in cfg.resolved_schedule():
            if at_epoch == epoch:
                lr *= multiplier
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, s = inputs[idx], signs[idx]
            np.multiply(mu, velocity_w, out=momentum_w)
            np.multiply(mu, velocity_b, out=momentum_b)
            np.add(weights, momentum_w, out=ahead_w)
            np.add(bias, momentum_b, out=ahead_b)
            z = x @ ahead_w + ahead_b
            assert np.isfinite(z).all()
            slope = dtype(0.5 * lr / (s.size // models))
            residual = (np.tanh(0.5 * z) + s) * slope
            grad_w, grad_b = x.T @ residual, residual.sum(axis=0)
            np.subtract(momentum_w, grad_w, out=velocity_w)
            np.subtract(momentum_b, grad_b, out=velocity_b)
            weights += velocity_w
            bias += velocity_b
    return weights, bias


def sigmoid_reference_train(train_set, cfg, models, dtype=np.float64):
    """The same loop with the residual (sigmoid(z) - y) / cells, scaled by
    lr after the matmuls: the float operations of the step before it took
    the tanh form, which the kernel matches to within a tolerance."""
    dim, columns = train_set.inputs.shape[1], train_set.targets.shape[1]
    inputs = train_set.inputs.astype(dtype, copy=False)
    targets = train_set.targets.astype(dtype, copy=False)
    init = np.random.default_rng([cfg.seed & MASK64, 0]).normal(
        0.0, 0.01, size=(dim, columns // models))
    weights, bias = np.tile(init, (1, models)).astype(dtype, copy=False), np.zeros(columns, dtype)
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    shuffle_rng = np.random.default_rng([cfg.seed & MASK64, 1])
    lr, mu, n = cfg.learning_rate, cfg.momentum, train_set.num_examples
    for epoch in range(cfg.epochs):
        for at_epoch, multiplier in cfg.resolved_schedule():
            if at_epoch == epoch:
                lr *= multiplier
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = inputs[idx], targets[idx]
            momentum_w, momentum_b = mu * velocity_w, mu * velocity_b
            z = x @ (weights + momentum_w) + (bias + momentum_b)
            residual = (0.5 + 0.5 * np.tanh(0.5 * z) - y) / (y.size // models)
            grad_w, grad_b = x.T @ residual, residual.sum(axis=0)
            grad_w *= lr
            grad_b *= lr
            velocity_w, velocity_b = momentum_w - grad_w, momentum_b - grad_b
            weights += velocity_w
            bias += velocity_b
    return weights, bias


def signs_of(targets):
    """The kernel's signs 1 - 2y: int8 for uint8 targets, as the experiment
    builds them, and the targets' own dtype otherwise."""
    if targets.dtype == np.uint8:
        targets = targets.view(np.int8)
    return 1 - 2 * targets


# lockstep problems: pieces of equal length whose 21 examples end in a tail
# batch of 5 at batch size 8
PIECES, FRAMES, DIM, LABELS = 3, 7, 4, 2


# the largest weight or bias difference of a float32 lockstep run from
# float64 train() on lockstep_problems(3, 3) over 3 epochs, measured at
# 2.7e-7 (weights of size up to 1.4)
DRIFT = 1e-6


# the largest weight or bias difference of the kernel from
# sigmoid_reference_train on lockstep_problems(3, 3) over 3 epochs at rate
# 0.7, measured at 4.4e-16 in float64 and 2.4e-7 in float32 (weights of
# size up to 1.9); the kernel before the tanh form matched it bit for bit
SIGMOID_FORM_DRIFT = {np.float64: 4e-15, np.float32: 1e-6}


def lockstep_problems(num_problems, models, seed=31):
    """Per-problem feature pieces and uint8 targets, one row per frame."""
    rng = np.random.default_rng(seed)
    pieces = rng.normal(0, 1, (num_problems, PIECES, FRAMES, DIM))
    targets = (rng.random((num_problems, PIECES * FRAMES, models * LABELS)) < 0.4)
    return pieces, targets.astype(np.uint8)


BUFFERS = ("params", "velocity", "ahead")


def kernel_buffers(*args):
    """_train_lockstep(*args), and its three packed (S, rows + 1, G*K)
    buffers as it returns: weights in the first rows, bias in the last."""
    seen = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code.co_name == "_train_lockstep":
            seen.update((name, frame.f_locals[name]) for name in BUFFERS)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = trainer_module._train_lockstep(*args)
    finally:
        sys.setprofile(previous)
    return result, seen


def screen_records(monkeypatch):
    """Records, for every batch the lockstep kernel steps, (epoch, whether
    the epoch runs the screen, the epoch's bound on |t|, the batch's largest
    |t|), read from the kernel's locals as it computes the gradient."""
    records = []
    gradient = trainer_module._gradient

    def recording_gradient(half_logits, *args, **kwargs):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_train_lockstep":
            kernel = caller.f_locals
            records.append((kernel["epoch"], kernel["screen"], kernel["reach"],
                            float(np.abs(half_logits).max(initial=0.0))))
        return gradient(half_logits, *args, **kwargs)

    monkeypatch.setattr(trainer_module, "_gradient", recording_gradient)
    return records


def screened_epochs(records):
    """{epoch: whether it ran the screen} of screen_records' records."""
    return {epoch: screen for epoch, screen, _, _ in records}


def screen_case(name, dtype=np.float64):
    """(train set, cfg, models) of one divergence-screen case, for a kernel
    that computes in dtype."""
    rng = np.random.default_rng(21)
    cfg = TrainConfig(learning_rate=0.5, batch_size=4, epochs=2, context_frames=1, seed=3)
    inputs = rng.normal(0, 1, (24, 3))
    targets = (rng.random((24, 6)) < 0.5).astype(float)
    if name == "nan-target":
        targets[13, 3] = np.nan
        return Dataset(inputs=inputs, targets=targets), cfg, 3
    if name == "huge-targets":
        # y*z overflows on the first batch, though every logit (about 1e10)
        # is far below the limit that ignores the size of the targets
        return Dataset(inputs=inputs * 1e12, targets=targets * 1e300), cfg, 2
    if name == "huge-targets-small-inputs":
        return Dataset(inputs=inputs, targets=targets * 1e300), cfg, 2
    if name == "learning-rate-1e308":
        return (Dataset(inputs=inputs * 1000.0, targets=targets),
                replace(cfg, learning_rate=1e308), 1)
    if name == "converging":
        return Dataset(inputs=inputs, targets=targets), cfg, 3
    # one batch whose largest |logit| sits a hair off the screen's limit,
    # bound / (batch_size * columns * (1 + max|y|)), with binary targets; the
    # bound is 1e300 in float64 and 1e30 in float32
    cfg = replace(cfg, batch_size=8, epochs=1)
    inputs, targets = inputs[:8], targets[:8]
    init = train(Dataset(inputs, targets), replace(cfg, epochs=0), models=2)
    bound, hair = {np.float64: (1e300, 1e-6), np.float32: (1e30, 1e-4)}[dtype]
    weights = init.weights.astype(dtype)
    limit = bound / (8 * 6 * 2)
    side = {"logits-below-limit": 1 - hair, "logits-above-limit": 1 + hair}[name]
    inputs = inputs * (side * limit / np.abs(inputs.astype(dtype) @ weights).max())
    assert (np.abs(inputs.astype(dtype) @ weights).max() < limit) == (side < 1)
    return Dataset(inputs=inputs, targets=targets), cfg, 2


# (case, number of batches that compute their losses, when checked)
SCREEN_CASES = [("nan-target", None), ("huge-targets", None),
                ("huge-targets-small-inputs", None), ("learning-rate-1e308", None),
                ("converging", None),
                ("logits-below-limit", 0), ("logits-above-limit", 1)]


def check_screen(monkeypatch, expected, run, losses_computed):
    """run() trains, returning params or raising DivergenceError; it must
    report what exact_loss_training did, computing losses on as many
    batches as given (when given)."""
    block_losses, calls = trainer_module._block_losses, []

    def counting_block_losses(*args):
        calls.append(args)
        return block_losses(*args)

    monkeypatch.setattr(trainer_module, "_block_losses", counting_block_losses)
    try:
        params = run()
    except DivergenceError as exc:
        assert (exc.epoch, exc.batch, exc.models) == expected
    else:
        assert np.array_equal(params.weights, expected[0])
        assert np.array_equal(params.bias, expected[1])
    if losses_computed is not None:
        assert len(calls) == losses_computed


def stacked_windows(values, context_frames):
    """_windows built as it was before it took sliding_window_view: the
    zero-padded rows in context_frames shifted copies, stacked."""
    num_frames, dim = values.shape
    pad = context_frames // 2
    if pad == 0:
        return values.copy()
    padded = np.zeros((num_frames + 2 * pad, dim))
    padded[pad:pad + num_frames] = values
    stacked = np.stack([padded[i:i + num_frames] for i in range(context_frames)], axis=1)
    return stacked.reshape(num_frames, context_frames * dim)


class TestMakeExamples:
    @pytest.mark.parametrize("num_frames", [0, 1, 2, 9])
    @pytest.mark.parametrize("context_frames", [1, 3, 5])
    def test_windows_equal_the_stacked_shifted_copies(self, context_frames, num_frames):
        # byte for byte, pieces of 1 and 2 frames being shorter than a window
        # of 3 or 5 frames
        values = np.random.default_rng(num_frames).normal(0, 1, (num_frames, 4))
        windows = trainer_module._windows(values, context_frames)
        expected = stacked_windows(values, context_frames)
        assert (windows.dtype, windows.shape) == (expected.dtype, expected.shape)
        assert windows.flags.c_contiguous and windows.flags.writeable
        assert windows.tobytes() == expected.tobytes()

    def test_single_frame_window_mostly_padding(self):
        feats = feature_matrix([[1.0, 2.0]])
        labels = label_matrix([[1, 0, 0]])
        ds = make_examples(feats, labels, context_frames=5)
        assert ds.inputs.shape == (1, 10)
        expected = np.zeros(10)
        expected[4:6] = [1.0, 2.0]  # center slot of the window
        assert np.array_equal(ds.inputs[0], expected)
        assert np.array_equal(ds.targets, [[1, 0, 0]])

    def test_no_context_passes_rows_through(self):
        values = np.arange(20.0).reshape(10, 2)
        ds = make_examples(feature_matrix(values), label_matrix(np.zeros((10, 2))),
                           context_frames=1)
        assert np.array_equal(ds.inputs, values)

    def test_constant_features_tile_interior_window(self):
        row = np.array([3.0, 1.0, 4.0])
        values = np.tile(row, (9, 1))
        ds = make_examples(feature_matrix(values), label_matrix(np.zeros((9, 1))),
                           context_frames=5)
        assert np.array_equal(ds.inputs[4], np.tile(row, 5))

    def test_frame_count_mismatch(self):
        with pytest.raises(ContractError):
            make_examples(feature_matrix(np.zeros((4, 2))),
                          label_matrix(np.zeros((5, 2))), context_frames=1)

    def test_fps_mismatch(self):
        with pytest.raises(ContractError):
            make_examples(feature_matrix(np.zeros((4, 2)), fps=100.0),
                          label_matrix(np.zeros((4, 2)), fps=31.25),
                          context_frames=1)

    def test_even_context_rejected(self):
        with pytest.raises(ContractError):
            make_examples(feature_matrix(np.zeros((4, 2))),
                          label_matrix(np.zeros((4, 2))), context_frames=2)


class TestLossAndGradient:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        dim, k, n = 15, 4, 32
        params = ModelParams(weights=rng.normal(0, 0.5, (dim, k)),
                             bias=rng.normal(0, 0.5, k))
        x = rng.normal(0, 1, (n, dim))
        y = (rng.random((n, k)) < 0.4).astype(float)
        _, grad_w, grad_b = bce_loss_and_gradient(params, x, y)
        eps = 1e-4
        for _ in range(10):
            i, j = int(rng.integers(dim)), int(rng.integers(k))
            w_plus = params.weights.copy()
            w_plus[i, j] += eps
            w_minus = params.weights.copy()
            w_minus[i, j] -= eps
            fd = (bce_loss(ModelParams(w_plus, params.bias), x, y)
                  - bce_loss(ModelParams(w_minus, params.bias), x, y)) / (2 * eps)
            assert abs(fd - grad_w[i, j]) / max(abs(fd), 1e-12) <= 1e-5
        for j in range(k):
            b_plus = params.bias.copy()
            b_plus[j] += eps
            b_minus = params.bias.copy()
            b_minus[j] -= eps
            fd = (bce_loss(ModelParams(params.weights, b_plus), x, y)
                  - bce_loss(ModelParams(params.weights, b_minus), x, y)) / (2 * eps)
            assert abs(fd - grad_b[j]) / max(abs(fd), 1e-12) <= 1e-5

    def test_sigmoid_matches_logistic_and_saturates(self):
        z = np.linspace(-40.0, 40.0, 100001)
        assert np.abs(trainer_module._sigmoid(z) - 1.0 / (1.0 + np.exp(-z))).max() <= 1e-15
        with np.errstate(all="raise"):
            extremes = trainer_module._sigmoid(np.array([-1e308, 0.0, 1e308]))
        assert extremes.tolist() == [0.0, 0.5, 1.0]

    def test_loss_is_the_written_out_mean(self):
        # bce_loss goes through the block-loss kernel, and its one block's
        # mean is np.mean's of the same cells, bit for bit
        rng = np.random.default_rng(23)
        for _ in range(300):
            n, dim, k = (int(v) for v in rng.integers(1, (300, 12, 90)))
            params = ModelParams(weights=rng.normal(0, 2, (dim, k)), bias=rng.normal(0, 2, k))
            x = rng.normal(0, 3, (n, dim))
            y = (rng.random((n, k)) < 0.4).astype(float)
            z = x @ params.weights + params.bias
            assert bce_loss(params, x, y) == float(np.mean(np.logaddexp(0, z) - y * z))

    def test_loss_stable_for_huge_logits(self):
        params = ModelParams(weights=np.full((2, 1), 500.0), bias=np.zeros(1))
        x = np.array([[1.0, 1.0], [-1.0, -1.0]])
        y = np.array([[1.0], [0.0]])
        assert bce_loss(params, x, y) == 0.0

    def test_stacked_kernel_loss_per_block(self):
        rng = np.random.default_rng(17)
        dim, k, n = 6, 4, 40
        weights = rng.normal(0, 0.5, (dim, 3 * k))
        bias = rng.normal(0, 0.5, 3 * k)
        x = rng.normal(0, 1, (n, dim))
        y = (rng.random((n, 3 * k)) < 0.4).astype(float)
        losses = trainer_module._block_losses(x @ weights + bias, y, models=3)
        assert losses.shape == (3,)
        for j in range(3):
            block = slice(j * k, (j + 1) * k)
            alone = bce_loss(ModelParams(weights[:, block], bias[block]), x, y[:, block])
            assert losses[j] == pytest.approx(alone, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gradient_writes_the_bias_gradient_into_out_bias(self, dtype):
        # as in the lockstep kernel: weight and bias gradients of 3 problems land
        # in the rows of one packed (S, d + 1, G*K) buffer, the bias in the last
        rng = np.random.default_rng(12)
        problems, batch, dim, columns, models = 3, 5, 4, 6, 2
        x = rng.normal(0, 1, (problems, batch, dim)).astype(dtype)
        y = (rng.random((problems, batch, columns)) < 0.4).astype(np.uint8)
        t = rng.normal(0, 1, (problems, batch, columns)).astype(dtype)
        slope = dtype(0.5 * 0.7 / (batch * columns // models))
        residual = (np.tanh(t) + (1 - 2 * y.astype(dtype))) * slope
        packed = np.full((problems, dim + 1, columns), np.nan, dtype)
        out_bias = packed[:, dim]
        _, grad_b = trainer_module._gradient(t, x, signs_of(y), slope, out=packed[:, :dim],
                                             out_bias=out_bias)
        assert grad_b is out_bias
        assert np.array_equal(packed[:, dim], residual.sum(axis=-2))
        assert np.array_equal(packed[:, :dim], x.swapaxes(-1, -2) @ residual)

    def test_loss_and_gradient_are_the_written_out_formulas(self):
        # bce_loss_and_gradient, with no out buffers, returns fresh arrays equal
        # bit for bit to the loss and gradient written out in float64
        rng = np.random.default_rng(13)
        dim, k, n = 7, 3, 20
        params = ModelParams(weights=rng.normal(0, 0.5, (dim, k)), bias=rng.normal(0, 0.5, k))
        x = rng.normal(0, 1, (n, dim))
        y = (rng.random((n, k)) < 0.4).astype(float)
        loss, grad_w, grad_b = bce_loss_and_gradient(params, x, y)
        z = x @ params.weights + params.bias
        residual = (np.tanh(0.5 * z) + (1 - 2 * y)) * (0.5 / y.size)
        assert loss == float(np.mean(np.logaddexp(0.0, z) - y * z))
        assert np.array_equal(grad_w, x.T @ residual)
        assert np.array_equal(grad_b, residual.sum(axis=0))
        assert grad_b.shape == (k,) and grad_b.base is None


class TestContainers:
    @pytest.mark.parametrize("inputs,targets,match", [
        (np.zeros(3), np.zeros((3, 1)), "2-D"),
        (np.zeros((3, 2)), np.zeros(3), "2-D"),
        (np.zeros((3, 2)), np.zeros((4, 1)), "inputs has 3 rows, targets 4"),
    ])
    def test_dataset_shapes_checked(self, inputs, targets, match):
        with pytest.raises(ContractError, match=match):
            Dataset(inputs=inputs, targets=targets)

    @pytest.mark.parametrize("weights,bias,match", [
        (np.zeros(3), np.zeros(3), "inconsistent"),          # 1-D weights
        (np.zeros((3, 2)), np.zeros((1, 2)), "inconsistent"),  # 2-D bias
        (np.zeros((3, 2)), np.zeros(3), "inconsistent"),     # widths differ
        (np.full((3, 2), np.nan), np.zeros(2), "finite"),
        (np.zeros((3, 2)), np.array([0.0, np.inf]), "finite"),
    ])
    def test_model_params_shapes_and_finiteness_checked(self, weights, bias, match):
        with pytest.raises(ContractError, match=match):
            ModelParams(weights=weights, bias=bias)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(epochs=0, context_frames=1, seed=5)
        params_a = train(ds, cfg)
        params_b = train(ds, cfg)
        assert np.array_equal(params_a.weights, params_b.weights)
        assert np.array_equal(params_a.bias, np.zeros(1))
        assert abs(params_a.weights.std() - 0.01) < 0.01
        # no step is taken: the weights are the seeded N(0, 0.01) draw
        expected = np.random.default_rng([cfg.seed, 0]).normal(0.0, 0.01, size=(3, 1))
        assert np.array_equal(params_a.weights, expected)

    def test_update_is_the_checked_gradient(self):
        # one full-batch plain-SGD step at rate 1 must subtract exactly the
        # gradient that the gradient check verifies
        rng = np.random.default_rng(13)
        ds = Dataset(inputs=rng.normal(0, 1, (40, 6)),
                     targets=(rng.random((40, 3)) < 0.4).astype(float))
        base = dict(learning_rate=1.0, momentum=0.0, batch_size=40,
                    lr_schedule=(), context_frames=1, seed=8)
        init = train(ds, TrainConfig(epochs=0, **base))
        stepped = train(ds, TrainConfig(epochs=1, **base))
        _, grad_w, grad_b = bce_loss_and_gradient(init, ds.inputs, ds.targets)
        assert np.abs(stepped.weights - (init.weights - grad_w)).max() <= 1e-12
        assert np.abs(stepped.bias - (init.bias - grad_b)).max() <= 1e-12

    def test_separable_toy_reaches_perfect_fmeasure(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=0.5, epochs=40, context_frames=1, seed=3)
        decisions = window_decisions(train(ds, cfg), ds, cfg.threshold)
        assert count_cells(decisions, ds.targets >= 0.5).fmeasure == 1.0

    def test_loss_monotone_at_small_learning_rate(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=1e-3, epochs=10, context_frames=1, seed=3)
        # the parameters after epoch e are those of an e-epoch run whose
        # schedule is explicit, less the entries it never reaches
        losses = []
        for e in range(11):
            reached = tuple((at, m) for at, m in cfg.resolved_schedule() if at < e)
            params = train(ds, replace(cfg, epochs=e, lr_schedule=reached))
            losses.append(bce_loss(params, ds.inputs, ds.targets))
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=0.2, epochs=3, context_frames=1, seed=11)
        params_a = train(ds, cfg)
        params_b = train(ds, cfg)
        assert np.array_equal(params_a.weights, params_b.weights)
        assert np.array_equal(params_a.bias, params_b.bias)

    @pytest.mark.parametrize("epoch", [-1, 4, 99])
    def test_schedule_epoch_that_never_comes_rejected(self, epoch):
        TrainConfig(epochs=4, lr_schedule=((0, 0.5), (3, 0.5)))
        with pytest.raises(ContractError, match=f"lr_schedule epoch {epoch} is not in"):
            TrainConfig(epochs=4, lr_schedule=((0, 0.5), (epoch, 0.5)))

    def test_work_budgets_checked_at_their_edge(self):
        TrainConfig(epochs=trainer_module.MAX_EPOCHS,
                    context_frames=trainer_module.MAX_CONTEXT_FRAMES)
        with pytest.raises(ContractError, match="exceeds the budget of 1000 epochs"):
            TrainConfig(epochs=trainer_module.MAX_EPOCHS + 1)
        with pytest.raises(ContractError, match="exceeds the budget of 1001 frames"):
            TrainConfig(context_frames=trainer_module.MAX_CONTEXT_FRAMES + 2)

    # both used to be accepted, and train then raised DivergenceError at
    # epoch 0, batch 1
    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ContractError,
                           match=f"learning_rate must be positive and finite, got {rate}"):
            TrainConfig(learning_rate=rate)

    def test_schedule_applies_multipliers(self):
        # momentum off so a killed learning rate freezes the weights and the
        # schedule's effect is visible in isolation
        ds = two_cluster_dataset(n=40)
        slow = TrainConfig(learning_rate=0.2, momentum=0.0, epochs=4,
                           context_frames=1, seed=2, lr_schedule=((1, 1e-12),))
        fast = TrainConfig(learning_rate=0.2, momentum=0.0, epochs=4,
                           context_frames=1, seed=2, lr_schedule=())
        losses = [bce_loss(train(ds, cfg), ds.inputs, ds.targets)
                  for cfg in (replace(fast, epochs=1), slow, fast)]
        first_epoch, slow_loss, fast_loss = losses
        assert abs(slow_loss - first_epoch) < 1e-9
        assert fast_loss < slow_loss

    def test_divergence_reports_epoch_and_batch(self):
        rng = np.random.default_rng(0)
        ds = Dataset(inputs=rng.normal(0, 1000.0, (64, 3)),
                     targets=(rng.random((64, 1)) < 0.5).astype(float))
        cfg = TrainConfig(learning_rate=1e308, epochs=1, context_frames=1, seed=1)
        with pytest.raises(DivergenceError) as info:
            train(ds, cfg)
        assert info.value.epoch == 0
        assert info.value.batch is not None

    def test_step_equals_out_of_place_nesterov_loop(self):
        # reference: the update written out of place in unscaled weights, one
        # fresh array per operation, with lr folded into the residual's
        # slope; the in-place half-scale step must reproduce it bit for bit.
        # 45 rows end in a batch of 5, which gets its own slope
        rng = np.random.default_rng(9)
        ds = Dataset(inputs=rng.normal(0, 1, (45, 7)),
                     targets=(rng.random((45, 3)) < 0.4).astype(float))
        cfg = TrainConfig(learning_rate=0.7, momentum=0.9, batch_size=8, epochs=4,
                          lr_schedule=((1, 0.5), (3, 0.5)), context_frames=1, seed=6)
        init = train(ds, TrainConfig(epochs=0, context_frames=1, seed=6))
        weights, bias = init.weights, init.bias
        velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
        shuffle_rng = np.random.default_rng([cfg.seed & MASK64, 1])
        lr, mu = cfg.learning_rate, cfg.momentum
        for epoch in range(cfg.epochs):
            for at_epoch, multiplier in cfg.resolved_schedule():
                if at_epoch == epoch:
                    lr *= multiplier
            order = shuffle_rng.permutation(ds.num_examples)
            for start in range(0, ds.num_examples, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                x, y = ds.inputs[idx], ds.targets[idx]
                z = x @ (weights + mu * velocity_w) + (bias + mu * velocity_b)
                residual = (np.tanh(0.5 * z) + (1 - 2 * y)) * (0.5 * lr / y.size)
                velocity_w = mu * velocity_w - x.T @ residual
                velocity_b = mu * velocity_b - residual.sum(axis=0)
                weights = weights + velocity_w
                bias = bias + velocity_b
        params = train(ds, cfg)
        assert np.array_equal(params.weights, weights)
        assert np.array_equal(params.bias, bias)

    def test_step_allocates_nothing_weight_sized(self):
        # the batch-sized temporaries of 3 epochs stay well under one more
        # weights array than setting up and returning the parameters takes
        rng = np.random.default_rng(4)
        dim, columns = 400, 64
        ds = Dataset(inputs=rng.normal(0, 0.1, (40, dim)),
                     targets=(rng.random((40, columns)) < 0.3).astype(float))
        cfg = TrainConfig(batch_size=4, epochs=3, context_frames=1, seed=2)

        def peak_bytes(epochs):
            tracemalloc.start()
            try:
                train(ds, replace(cfg, epochs=epochs))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(3) - peak_bytes(0) < dim * columns * 8

    def test_stacked_models_match_separate_runs(self):
        rng = np.random.default_rng(5)
        k = 4
        inputs = rng.normal(0, 1, (70, 9))
        blocks = [(rng.random((70, k)) < p).astype(float) for p in (0.2, 0.5, 0.7)]
        cfg = TrainConfig(learning_rate=0.5, momentum=0.9, batch_size=8, epochs=5,
                          lr_schedule=((2, 0.5), (4, 0.25)), context_frames=1, seed=4)
        stacked = Dataset(inputs=inputs, targets=np.hstack(blocks))
        params = train(stacked, cfg, models=3)
        for j, targets in enumerate(blocks):
            alone = Dataset(inputs=inputs, targets=targets)
            expected = train(alone, cfg)
            assert np.abs(params.weights[:, j * k:(j + 1) * k]
                          - expected.weights).max() <= 1e-12
            assert np.abs(params.bias[j * k:(j + 1) * k] - expected.bias).max() <= 1e-12

    def test_nan_target_names_its_block_and_batch(self):
        rng = np.random.default_rng(8)
        k, n, row = 2, 30, 17
        targets = (rng.random((n, 3 * k)) < 0.5).astype(float)
        targets[row, k] = np.nan  # block 1
        ds = Dataset(inputs=rng.normal(0, 1, (n, 4)), targets=targets)
        cfg = TrainConfig(learning_rate=0.1, batch_size=4, epochs=2,
                          context_frames=1, seed=3)
        order = np.random.default_rng([cfg.seed & MASK64, 1]).permutation(n)
        with pytest.raises(DivergenceError) as info:
            train(ds, cfg, models=3)
        assert info.value.models == (1,)
        assert info.value.epoch == 0
        assert info.value.batch == int(np.flatnonzero(order == row)[0]) // cfg.batch_size

    # exact_loss_training overflows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name,losses_computed", SCREEN_CASES,
                             ids=[name for name, _ in SCREEN_CASES])
    def test_divergence_screen_matches_exact_losses(self, monkeypatch, name,
                                                    losses_computed):
        train_set, cfg, models = screen_case(name)
        check_screen(monkeypatch, exact_loss_training(train_set, cfg, models),
                     lambda: train(train_set, cfg, models=models),
                     losses_computed)

    @pytest.mark.parametrize("models,width", [(0, 4), (-1, 4), (3, 4), (2, 5), (1, 0)])
    def test_bad_model_count_or_width_rejected(self, models, width):
        train_set = Dataset(inputs=np.ones((6, 2)), targets=np.zeros((6, width)))
        with pytest.raises(ContractError):
            train(train_set, TrainConfig(epochs=1, context_frames=1), models=models)

    @pytest.mark.parametrize("batch_size", [41, 10 ** 400], ids=["41", "1e400"])
    def test_batch_larger_than_the_set_is_the_set(self, batch_size):
        # a batch size past float range used to overflow in the slope and
        # the screen limit; any batch larger than the set trains on the set
        ds = two_cluster_dataset(n=20)
        cfg = TrainConfig(learning_rate=0.5, epochs=3, context_frames=1, seed=2)
        expected = train(ds, replace(cfg, batch_size=ds.num_examples))
        params = train(ds, replace(cfg, batch_size=batch_size))
        assert np.array_equal(params.weights, expected.weights)
        assert np.array_equal(params.bias, expected.bias)

    def test_empty_dataset_rejected(self):
        empty = Dataset(inputs=np.zeros((0, 3)), targets=np.zeros((0, 1)))
        with pytest.raises(ContractError):
            train(empty, TrainConfig(context_frames=1))


class TestLockstep:
    @pytest.mark.parametrize("context_frames", [1, 5])
    @pytest.mark.parametrize("models", [1, 3])
    @pytest.mark.parametrize("num_problems", [1, 2, 3])
    def test_matches_separate_single_problem_runs(self, num_problems, models,
                                                       context_frames):
        pieces, targets = lockstep_problems(num_problems, models)
        frames, starts = trainer_module._pad_pieces(
            lambda s, p: pieces[s, p], num_problems, PIECES, context_frames)
        cfg = TrainConfig(learning_rate=0.5, batch_size=8, epochs=3, lr_schedule=((1, 0.5),),
                          context_frames=context_frames)
        seeds = [11, 12, 13][:num_problems]
        weights, bias, failure = trainer_module._train_lockstep(
            frames, context_frames, starts, signs_of(targets), seeds, cfg, models)
        assert failure is None
        assert len(starts) % cfg.batch_size == 5
        for s, seed in enumerate(seeds):
            inputs = np.concatenate([trainer_module._windows(piece, context_frames)
                                     for piece in pieces[s]])
            # the windows gathered from the padded features are _windows'
            assert np.array_equal(
                np.stack([frames[s, t:t + context_frames].ravel() for t in starts]), inputs)
            alone = Dataset(inputs=inputs, targets=targets[s])
            expected_w, expected_b = reference_train(alone, replace(cfg, seed=seed), models)
            assert np.array_equal(weights[s], expected_w)
            assert np.array_equal(bias[s], expected_b)
            # train() is the one-problem case of the same kernel
            params = train(alone, replace(cfg, seed=seed), models=models)
            assert np.array_equal(params.weights, expected_w)
            assert np.array_equal(params.bias, expected_b)

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0)])
    def test_divergence_is_the_first_problem_in_order(self, order):
        # problem 0 converges; a NaN target stops problem 1 at batch 2 and
        # problem 2 at batch 0 of epoch 0, so in lockstep problem 2 fails first
        pieces, uint8_targets = lockstep_problems(3, 1)
        targets = uint8_targets.astype(float)
        cfg = TrainConfig(learning_rate=0.5, batch_size=4, epochs=2, context_frames=1)
        seeds = [21, 22, 23]
        for s, position in ((1, 9), (2, 1)):
            shuffled = np.random.default_rng([seeds[s], 1]).permutation(PIECES * FRAMES)
            targets[s, shuffled[position], 1] = np.nan
        alone = []
        for s, seed in enumerate(seeds):
            dataset = Dataset(inputs=pieces[s].reshape(-1, DIM), targets=targets[s])
            try:
                train(dataset, replace(cfg, seed=seed))
            except DivergenceError as exc:
                alone.append((str(exc), exc.epoch, exc.batch, exc.models))
            else:
                alone.append(None)
        assert [entry and entry[1:] for entry in alone] == [None, (0, 2, (0,)), (0, 0, (0,))]

        frames, starts = trainer_module._pad_pieces(
            lambda s, p: pieces[order[s], p], 3, PIECES, 1)
        _, _, (s, exc) = trainer_module._train_lockstep(
            frames, 1, starts, signs_of(targets[list(order)]), [seeds[i] for i in order], cfg, 1)
        first = next(i for i, entry in enumerate(order) if alone[entry] is not None)
        assert s == first
        assert (str(exc), exc.epoch, exc.batch, exc.models) == alone[order[first]]

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (2, 3, 5)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_aligned_empty(self, dtype, shape):
        array = trainer_module._aligned_empty(shape, dtype)
        assert array.shape == shape and array.dtype == dtype
        assert array.flags.c_contiguous and array.flags.writeable
        assert array.ctypes.data % trainer_module._ALIGN == 0
        array[...] = 1.5
        assert (array == 1.5).all()

    @pytest.mark.parametrize("num_problems", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_buffers_start_on_64_byte_boundaries(self, dtype, num_problems):
        pieces, targets = lockstep_problems(num_problems, 3)
        frames, starts = trainer_module._pad_pieces(
            lambda s, p: pieces[s, p].astype(dtype), num_problems, PIECES, 5)
        cfg = TrainConfig(learning_rate=0.5, epochs=2, context_frames=5)
        (weights, bias, failure), buffers = kernel_buffers(
            frames, 5, starts, signs_of(targets), [11, 12, 13][:num_problems], cfg, 3)
        assert failure is None
        rows = 5 * DIM
        for name, buffer in buffers.items():
            assert (buffer.dtype, buffer.shape) == (dtype, (num_problems, rows + 1, 3 * LABELS))
            assert buffer.ctypes.data % 64 == 0, name
        # the weights and bias handed back are views of the parameter buffer
        packed = buffers["params"]
        assert weights.shape == (num_problems, rows, 3 * LABELS)
        assert weights.ctypes.data == packed.ctypes.data and np.shares_memory(weights, packed)
        assert bias.shape == packed[:, rows].shape
        assert bias.ctypes.data == packed[:, rows].ctypes.data
        # train() hands back its one problem's weights and bias without a copy
        inputs = np.concatenate([trainer_module._windows(piece, 5) for piece in pieces[0]])
        alone = Dataset(inputs=inputs, targets=targets[0])
        params = train(alone, replace(cfg, seed=11), models=3)
        assert params.weights.ctypes.data % 64 == 0
        assert params.bias.ctypes.data == params.weights.ctypes.data + params.weights.nbytes

    def test_zero_width_inputs(self):
        # no input columns: (0, K) weights, and the bias still trains
        rng = np.random.default_rng(2)
        ds = Dataset(inputs=np.ones((12, 0)), targets=(rng.random((12, 2)) < 0.5).astype(float))
        params = train(ds, TrainConfig(learning_rate=0.5, epochs=2, context_frames=1))
        assert params.weights.shape == (0, 2)
        assert params.bias.shape == (2,) and np.isfinite(params.bias).all()
        assert (params.bias != 0).all()

    @pytest.mark.parametrize("offset", [16, 32, 48])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_a_misaligned_reference(self, dtype, offset):
        # where a buffer starts changes no float operation: the kernel's
        # weights equal, bit for bit, those of the loop run through buffers
        # `offset` bytes past a 64-byte boundary
        pieces, targets = lockstep_problems(3, 3)
        pieces = pieces.astype(dtype)
        frames, starts = trainer_module._pad_pieces(lambda s, p: pieces[s, p], 3, PIECES, 5)
        cfg = TrainConfig(learning_rate=0.5, batch_size=8, epochs=3, lr_schedule=((1, 0.5),),
                          context_frames=5)
        seeds = [11, 12, 13]
        weights, bias, failure = trainer_module._train_lockstep(
            frames, 5, starts, signs_of(targets), seeds, cfg, 3)
        assert failure is None
        for s, seed in enumerate(seeds):
            inputs = np.concatenate([trainer_module._windows(piece, 5) for piece in pieces[s]])
            alone = Dataset(inputs=inputs, targets=targets[s])
            expected_w, expected_b = reference_train(alone, replace(cfg, seed=seed), 3,
                                                     dtype, offset)
            assert expected_w.ctypes.data % 64 == expected_b.ctypes.data % 64 == offset
            assert expected_w.dtype == weights.dtype == dtype
            assert np.array_equal(weights[s], expected_w)
            assert np.array_equal(bias[s], expected_b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stays_near_the_sigmoid_form_reference(self, dtype):
        # the tanh-form residual with lr in its slope moves the weights from
        # those of (sigmoid(z) - y) / cells scaled by lr, by at most a few ulps
        pieces, targets = lockstep_problems(3, 3)
        frames, starts = trainer_module._pad_pieces(
            lambda s, p: pieces[s, p].astype(dtype), 3, PIECES, 5)
        cfg = TrainConfig(learning_rate=0.7, batch_size=8, epochs=3, lr_schedule=((1, 0.5),),
                          context_frames=5)
        seeds = [11, 12, 13]
        weights, bias, failure = trainer_module._train_lockstep(
            frames, 5, starts, signs_of(targets), seeds, cfg, 3)
        assert failure is None
        for s, seed in enumerate(seeds):
            inputs = np.concatenate([trainer_module._windows(piece, 5) for piece in pieces[s]])
            alone = Dataset(inputs=inputs, targets=targets[s])
            expected_w, expected_b = sigmoid_reference_train(alone, replace(cfg, seed=seed), 3,
                                                             dtype)
            assert np.abs(weights[s] - expected_w).max() <= SIGMOID_FORM_DRIFT[dtype]
            assert np.abs(bias[s] - expected_b).max() <= SIGMOID_FORM_DRIFT[dtype]

    # exact_loss_training overflows
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name,losses_computed", SCREEN_CASES,
                             ids=[name for name, _ in SCREEN_CASES])
    def test_float32_screen_matches_exact_float32_losses(self, monkeypatch, name,
                                                         losses_computed):
        train_set, cfg, models = screen_case(name, np.float32)
        with np.errstate(over="ignore"):  # a huge target is inf in float32
            inputs = train_set.inputs.astype(np.float32)
            targets = train_set.targets.astype(np.float32)

        def run():
            weights, bias, failure = trainer_module._train_lockstep(
                inputs[None], 1, np.arange(len(inputs)), signs_of(targets[None]), [cfg.seed],
                cfg, models)
            if failure is not None:
                raise failure[1]
            return SimpleNamespace(weights=weights[0], bias=bias[0])

        check_screen(monkeypatch, exact_loss_training(train_set, cfg, models, np.float32),
                     run, losses_computed)

    def test_float32_step_never_upcasts(self):
        # float32 weights back, and the step's temporaries stay under one
        # float32 weights array: no weight-sized product is made, in float32
        # or promoted to float64 by an lr or mu scalar
        rng = np.random.default_rng(4)
        dim, columns = 400, 64
        frames = rng.normal(0, 0.1, (1, 40, dim)).astype(np.float32)
        targets = (rng.random((1, 40, columns)) < 0.3).astype(np.uint8)
        # the default schedule halves the rate at epochs 1 and 2
        cfg = TrainConfig(learning_rate=0.7, batch_size=4, epochs=3, context_frames=1, seed=2)

        def peak_bytes(epochs):
            tracemalloc.start()
            try:
                weights, bias, failure = trainer_module._train_lockstep(
                    frames, 1, np.arange(40), signs_of(targets), [cfg.seed],
                    replace(cfg, epochs=epochs), 1)
                assert failure is None
                assert weights.dtype == bias.dtype == np.float32
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(3) - peak_bytes(0) < dim * columns * 4

    def test_epochs_hold_one_copy_of_the_signs(self):
        # each epoch gathers its shuffled signs into one buffer: 3 epochs
        # peak at most one signs array above 0 epochs, with the slack of one
        # weights array for the batch-sized temporaries and index arrays
        rng = np.random.default_rng(6)
        problems, n, dim, columns = 3, 400, 8, 128
        frames = rng.normal(0, 0.1, (problems, n, dim)).astype(np.float32)
        signs = signs_of((rng.random((problems, n, columns)) < 0.3).astype(np.uint8))
        cfg = TrainConfig(batch_size=4, epochs=3, context_frames=1, seed=2)

        def peak_bytes(epochs):
            tracemalloc.start()
            try:
                weights, _, failure = trainer_module._train_lockstep(
                    frames, 1, np.arange(n), signs, [1, 2, 3],
                    replace(cfg, epochs=epochs), 1)
                assert failure is None
                return tracemalloc.get_traced_memory()[1], weights.nbytes
            finally:
                tracemalloc.stop()

        before, weights_bytes = peak_bytes(0)
        assert peak_bytes(3)[0] - before <= signs.nbytes + weights_bytes

    def test_initialization_draws_one_seed_at_a_time(self):
        # 8 seeds at D = 1280, G = 3, K = 88: the peak is the three packed
        # float32 buffers and one seed's float64 draw, not every seed's draw at once,
        # with 1 MiB for the draw's finiteness mask and small objects
        seeds, dim, models, num_labels = 8, 1280, 3, 88
        frames = np.zeros((seeds, 4, dim), dtype=np.float32)
        signs = np.ones((seeds, 4, models * num_labels), dtype=np.int8)
        tracemalloc.start()
        try:
            weights, bias, failure = trainer_module._train_lockstep(
                frames, 1, np.arange(4), signs, list(range(seeds)),
                TrainConfig(epochs=0, context_frames=1), models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failure is None
        buffers = 3 * (weights.nbytes + bias.nbytes)
        draw = dim * num_labels * 8
        assert peak <= buffers + draw + 2 ** 20

    def test_float32_run_stays_near_float64_train(self):
        # the float32 features, weights and steps drift from train()'s
        # float64 ones by at most DRIFT
        pieces, targets = lockstep_problems(3, 3)
        cfg = TrainConfig(learning_rate=0.5, batch_size=8, epochs=3, lr_schedule=((1, 0.5),),
                          context_frames=5)
        frames, starts = trainer_module._pad_pieces(
            lambda s, p: pieces[s, p].astype(np.float32), 3, PIECES, 5)
        seeds = [11, 12, 13]
        weights, bias, failure = trainer_module._train_lockstep(
            frames, 5, starts, signs_of(targets), seeds, cfg, 3)
        assert failure is None
        for s, seed in enumerate(seeds):
            inputs = np.concatenate([trainer_module._windows(piece, 5) for piece in pieces[s]])
            alone = Dataset(inputs=inputs, targets=targets[s])
            params = train(alone, replace(cfg, seed=seed), models=3)
            assert np.abs(weights[s] - params.weights).max() <= DRIFT
            assert np.abs(bias[s] - params.bias).max() <= DRIFT


    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_screen_bound_holds_on_random_configs(self, monkeypatch, dtype):
        # no |t| of an epoch that skips the screen reaches the bound that
        # epoch computed from its start, over rates, momenta, batch sizes and
        # feature scales from tame to far past any limit, most configs
        # ending in a short batch
        records = screen_records(monkeypatch)
        rng = np.random.default_rng(30)
        for _ in range(200):
            problems, dim, columns = (int(v) for v in rng.integers(1, 4, 3))
            width, batch = int(rng.choice([1, 3])), int(rng.integers(1, 10))
            n = int(batch * rng.integers(1, 6) - rng.integers(0, batch))
            scale = 10 ** rng.uniform(-3, 15)
            frames = (rng.normal(0, 1, (problems, n + width - 1, dim)) * scale).astype(dtype)
            signs = signs_of((rng.random((problems, n, columns)) < 0.4).astype(np.uint8))
            cfg = TrainConfig(learning_rate=10 ** rng.uniform(-3, 30),
                              momentum=rng.uniform(0, 0.99), batch_size=batch, epochs=3,
                              context_frames=width)
            trainer_module._train_lockstep(frames, width, np.arange(n), signs,
                                           list(range(problems)), cfg, 1)
        unscreened = [(reach, peak) for _, screen, reach, peak in records if not screen]
        assert [(reach, peak) for reach, peak in unscreened if not peak < reach] == []
        assert len(unscreened) > len(records) // 4
        if dtype == np.float32:  # float64's limit is past every bound here
            assert len(unscreened) < len(records)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_screen_bound_holds_for_aligned_residuals(self, monkeypatch, dtype):
        # every feature 1 and every target 0: each step moves the weight and
        # the bias the same way, by about half the step bound, so the logits
        # reach up to 0.87 of the epoch's bound. Without the parameters'
        # (batches + 1) steps, or the velocity's growth 1 / (1 - mu), the
        # bound falls below them
        records = screen_records(monkeypatch)
        frames = np.ones((1, 200, 1), dtype)
        signs = signs_of(np.zeros((1, 200, 1), np.uint8))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=10, epochs=3, context_frames=1)
        _, _, failure = trainer_module._train_lockstep(frames, 1, np.arange(200), signs, [0],
                                                       cfg, 1)
        assert failure is None
        assert screened_epochs(records) == {0: False, 1: False, 2: False}
        assert [(epoch, reach, peak) for epoch, _, reach, peak in records
                if not peak < reach] == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_late_divergence_after_unscreened_epochs(self, monkeypatch, dtype):
        # epochs 0 and 1 skip the screen, and the rate's jump at epoch 2
        # diverges the problem with the largest features alone; in lockstep,
        # wherever it stands, the report is the one it makes alone
        rng = np.random.default_rng(12)
        scales = np.array([1e-3, 1e5, 1.0])[:, None, None]
        frames = (rng.normal(0, 1, (3, 30, 3)) * scales).astype(dtype)
        targets = (rng.random((3, 30, 4)) < 0.5).astype(np.uint8)
        jump = {np.float64: 1e300, np.float32: 1e30}[dtype]
        cfg = TrainConfig(batch_size=4, epochs=3, lr_schedule=((2, jump),), context_frames=1)
        seeds = [5, 6, 7]
        records = screen_records(monkeypatch)

        def lockstep(order):
            del records[:]
            _, _, failure = trainer_module._train_lockstep(
                frames[order], 1, np.arange(30), signs_of(targets[order]),
                [seeds[p] for p in order], cfg, 2)
            assert screened_epochs(records) == {0: False, 1: False, 2: True}
            return failure and (failure[0], failure[1].epoch, failure[1].batch,
                                failure[1].models)

        assert [lockstep([p]) for p in range(3)] == [None, (0, 2, 1, (0, 1)), None]
        assert lockstep([0, 1, 2]) == (1, 2, 1, (0, 1))
        assert lockstep([1, 2, 0]) == (0, 2, 1, (0, 1))
        if dtype == np.float64:  # train() raises what the kernel reports
            with pytest.raises(DivergenceError) as info:
                train(Dataset(inputs=frames[1], targets=targets[1]), replace(cfg, seed=seeds[1]),
                      models=2)
            assert (info.value.epoch, info.value.batch, info.value.models) == (2, 1, (0, 1))

    # (examples, batch size, batches per chunk): a last chunk shorter than
    # the others, a set within one chunk, a batch larger than the set, and
    # short last batches within several chunks
    @pytest.mark.parametrize("n,batch,chunk", [
        (40, 1, 16), (45, 2, 16), (21, 2, 16), (21, 30, 16), (21, 4, 1), (21, 4, 3),
        (24, 4, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chunk_edges_match_the_reference(self, monkeypatch, dtype, n, batch, chunk):
        monkeypatch.setattr(trainer_module, "_CHUNK_BATCHES", chunk)
        rng = np.random.default_rng(n * batch)
        frames = rng.normal(0, 1, (3, n + 2, DIM)).astype(dtype)
        targets = (rng.random((3, n, 2 * LABELS)) < 0.4).astype(np.uint8)
        cfg = TrainConfig(learning_rate=0.5, batch_size=batch, epochs=3,
                          lr_schedule=((1, 0.5),), context_frames=3)
        seeds = [11, 12, 13]
        weights, bias, failure = trainer_module._train_lockstep(
            frames, 3, np.arange(n), signs_of(targets), seeds, cfg, 2)
        assert failure is None
        for s, seed in enumerate(seeds):
            inputs = trainer_module._window_view(frames[s], 3)
            alone = Dataset(inputs=inputs, targets=targets[s])
            expected_w, expected_b = reference_train(alone, replace(cfg, seed=seed), 2, dtype)
            assert np.array_equal(weights[s], expected_w)
            assert np.array_equal(bias[s], expected_b)


class TestPredict:
    def test_all_zero_params_predict_everything(self):
        feats = feature_matrix(np.zeros((4, 3)))
        params = ModelParams(weights=np.zeros((3, 2)), bias=np.zeros(2))
        out = predict(params, feats, context_frames=1, threshold=0.5)
        assert out.frames.all()  # sigmoid(0) = 0.5 >= 0.5

    def test_large_negative_bias_predicts_nothing(self):
        feats = feature_matrix(np.ones((4, 3)))
        params = ModelParams(weights=np.zeros((3, 2)), bias=np.full(2, -50.0))
        out = predict(params, feats, context_frames=1)
        assert not out.frames.any()

    def test_shape_mismatch_rejected(self):
        feats = feature_matrix(np.ones((4, 3)))
        params = ModelParams(weights=np.zeros((5, 2)), bias=np.zeros(2))
        with pytest.raises(ContractError):
            predict(params, feats, context_frames=1)

    def test_self_consistency_with_history_fmeasure(self):
        rng = np.random.default_rng(21)
        cfg = SynthConfig(num_pieces=1, piece_duration_sec=8.0, seed=3)
        from notegrid import generate_corpus, rasterize, render_features

        piece = generate_corpus(cfg)[0]
        grid = FrameGrid.covering(31.25, piece.duration_sec)
        feats = render_features(piece, grid, cfg)
        labels = rasterize(piece, grid, A)
        train_cfg = TrainConfig(learning_rate=1.0, epochs=4, seed=1)
        ds = make_examples(feats, labels, train_cfg.context_frames)
        params = train(ds, train_cfg)
        pred = predict(params, feats, train_cfg.context_frames, train_cfg.threshold)
        # predict applies the decision rule to the windows make_examples built
        assert (framewise_counts(pred, labels)
                == count_cells(window_decisions(params, ds, train_cfg.threshold),
                               labels.frames.astype(bool)))

    def test_threshold_monotonicity(self):
        cfg = SynthConfig(num_pieces=1, piece_duration_sec=10.0, seed=8)
        from notegrid import generate_corpus, rasterize, render_features

        piece = generate_corpus(cfg)[0]
        grid = FrameGrid.covering(31.25, piece.duration_sec)
        feats = render_features(piece, grid, cfg)
        labels = rasterize(piece, grid, A)
        train_cfg = TrainConfig(learning_rate=1.0, epochs=6, seed=2)
        ds = make_examples(feats, labels, train_cfg.context_frames)
        params = train(ds, train_cfg)

        results = []
        for threshold in (0.3, 0.5, 0.7):
            pred = predict(params, feats, train_cfg.context_frames, threshold)
            results.append(framewise_counts(pred, labels))
        assert all(r.tp + r.fp > 0 and r.tp + r.fn_ > 0 for r in results)
        for lower, higher in zip(results, results[1:]):
            assert higher.recall <= lower.recall
            assert higher.precision >= lower.precision


def tiny_experiment_args():
    synth_cfg = SynthConfig(num_pieces=5, piece_duration_sec=6.0, seed=0)
    train_cfg = TrainConfig(epochs=2, seed=0)
    train_grid = FrameGrid.covering(31.25, synth_cfg.piece_duration_sec)
    eval_grid = FrameGrid.covering(100.0, synth_cfg.piece_duration_sec)
    return synth_cfg, train_cfg, train_grid, eval_grid


class TestSensitivityExperiment:
    def test_row_shape_and_order(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        table = run_sensitivity_experiment(synth_cfg, [A, F], train_grid,
                                           eval_grid, train_cfg, [1, 2])
        assert len(table.rows) == 4
        assert [(r.fn, r.seed) for r in table.rows] == [(A, 1), (F, 1), (A, 2), (F, 2)]

    def test_duplicate_fn_gives_identical_rows(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        table = run_sensitivity_experiment(synth_cfg, [A, A], train_grid,
                                           eval_grid, train_cfg, [1])
        first, second = table.rows
        assert first.precision == second.precision
        assert first.recall == second.recall
        assert first.fmeasure == second.fmeasure

    def test_full_pipeline_deterministic(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        table_a = run_sensitivity_experiment(synth_cfg, [A, E], train_grid,
                                             eval_grid, train_cfg, [3])
        table_b = run_sensitivity_experiment(synth_cfg, [A, E], train_grid,
                                             eval_grid, train_cfg, [3])
        assert table_a.counts.dtype == np.int64
        assert np.array_equal(table_a.counts, table_b.counts)
        assert table_a.rows == table_b.rows
        # Python numbers, so a row's repr is the same as from summed Python ints
        assert all(type(row.tp) is int and type(row.fmeasure) is float for row in table_a.rows)

    def test_counts_of_a_test_piece_by_brute_force(self, monkeypatch):
        # counts[s, j, p]: block j of seed s's prediction of test piece p,
        # scored alone against function a's rasterization of that piece
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        predictions = []

        def recording_predict(*args, **kwargs):
            predictions.append(predict(*args, **kwargs))
            return predictions[-1]

        monkeypatch.setattr(trainer_module, "predict", recording_predict)
        fns, seeds = [E, A, F], [4, 2]
        table = run_sensitivity_experiment(synth_cfg, fns, train_grid, eval_grid, train_cfg,
                                           seeds)
        test_idx = trainer_module._split_indices(synth_cfg.num_pieces)[2]
        assert table.counts.shape == (2, 3, len(test_idx), 3)
        s, j, p = 1, 2, len(test_idx) - 1
        piece = generate_corpus(replace(synth_cfg, seed=derive_seed(synth_cfg.seed,
                                                                    seeds[s])))[test_idx[p]]
        k = synth_cfg.num_labels
        pred = predictions[s * len(test_idx) + p]
        block = LabelMatrix(frames=pred.frames[:, j * k:(j + 1) * k], grid=pred.grid)
        want = windowed_counts(block, rasterize(piece, eval_grid, A), 30.0)
        assert table.counts[s, j, p].tolist() == [want.tp, want.fp, want.fn_]
        assert table.counts[s, j].sum(axis=0).tolist() == [
            table.rows[s * 3 + j].tp, table.rows[s * 3 + j].fp, table.rows[s * 3 + j].fn_]

    def test_summary_structure(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        table = run_sensitivity_experiment(synth_cfg, [A, F], train_grid,
                                           eval_grid, train_cfg, [1, 2])
        summary = table.summary()
        assert list(summary) == ["a", "f"]
        for entry in summary.values():
            assert len(entry["per_seed_f"]) == 2
            assert entry["mean_f"] == pytest.approx(
                sum(entry["per_seed_f"]) / 2, abs=1e-15)

    def test_mean_of_a_function_without_rows_rejected(self):
        table = ExperimentTable(fns=(A,), seeds=(1,), counts=np.array([[[[1, 0, 1]]]]))
        assert table.rows == (ExperimentRow(tp=1, fp=0, fn_=1, fn=A, seed=1),)
        assert table.mean_fmeasure(A) == 2 / 3
        with pytest.raises(ContractError, match="no rows for labeling function f"):
            table.mean_fmeasure(F)

    def test_divergence_annotated_with_fn_and_seed(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()

        def exploding_kernel(frames, width, starts, signs, seeds, cfg, models):
            return None, None, (1, DivergenceError("non-finite loss at epoch 0, batch 1",
                                                   epoch=0, batch=1, models=(0,)))

        monkeypatch.setattr(trainer_module, "_train_lockstep", exploding_kernel)
        with pytest.raises(DivergenceError, match=r"^fn=f seed=9: non-finite loss at "
                                                  r"epoch 0, batch 1$"):
            run_sensitivity_experiment(synth_cfg, [F], train_grid, eval_grid,
                                       train_cfg, [4, 9])

    def test_one_stacked_training_per_seed(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        calls = []
        kernel = trainer_module._train_lockstep

        def counting_kernel(frames, width, starts, signs, seeds, cfg, models):
            calls.append((signs.shape[0], signs.shape[2], signs.dtype, models))
            return kernel(frames, width, starts, signs, seeds, cfg, models)

        monkeypatch.setattr(trainer_module, "_train_lockstep", counting_kernel)
        table = run_sensitivity_experiment(synth_cfg, [A, E, F, A], train_grid,
                                           eval_grid, train_cfg, [1, 2, 1])
        # the distinct seeds train in one lockstep call, each one stacked model
        k = synth_cfg.num_labels
        assert calls == [(2, 3 * k, np.int8, 3)]
        assert [(r.fn, r.seed) for r in table.rows] == [
            (A, 1), (E, 1), (F, 1), (A, 1), (A, 2), (E, 2), (F, 2), (A, 2),
            (A, 1), (E, 1), (F, 1), (A, 1)]
        assert table.rows[0] == table.rows[3]
        assert table.rows[:4] == table.rows[8:]
        assert np.array_equal(table.counts[0], table.counts[2])

    def test_kernel_gets_float32_features_and_int8_signs(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        seen = []
        kernel = trainer_module._train_lockstep

        def recording_kernel(frames, width, starts, signs, seeds, cfg, models):
            seen.append((frames.dtype, signs.dtype, set(np.unique(signs).tolist())))
            return kernel(frames, width, starts, signs, seeds, cfg, models)

        monkeypatch.setattr(trainer_module, "_train_lockstep", recording_kernel)
        run_sensitivity_experiment(synth_cfg, [A, E], train_grid, eval_grid, train_cfg, [1])
        assert seen == [(np.float32, np.int8, {-1, 1})]

    def test_one_prediction_per_test_piece(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        widths = []

        def counting_predict(params, features, *args, **kwargs):
            widths.append(params.weights.shape[1])
            return predict(params, features, *args, **kwargs)

        monkeypatch.setattr(trainer_module, "predict", counting_predict)
        table = run_sensitivity_experiment(synth_cfg, [A, E, F, A], train_grid,
                                           eval_grid, train_cfg, [1, 2])
        test_pieces = len(trainer_module._split_indices(synth_cfg.num_pieces)[2])
        assert widths == [3 * synth_cfg.num_labels] * (2 * test_pieces)
        assert table.rows[0] == table.rows[3]

    def test_training_history_is_never_computed(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        calls = []

        def counting_bce_loss(*args):
            calls.append(args)
            return bce_loss(*args)

        monkeypatch.setattr(trainer_module, "bce_loss", counting_bce_loss)
        run_sensitivity_experiment(synth_cfg, [A, E], train_grid, eval_grid,
                                   train_cfg, [1])
        assert calls == []

    def test_lockstep_seeds_match_separate_runs(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        alone = [run_sensitivity_experiment(synth_cfg, [E, A], train_grid, eval_grid,
                                            train_cfg, [seed]).rows for seed in (3, 1, 2)]
        # two groups of lockstep seeds
        monkeypatch.setattr(trainer_module, "_LOCKSTEP_SEEDS", 2)
        together = run_sensitivity_experiment(synth_cfg, [E, A], train_grid, eval_grid,
                                              train_cfg, [3, 1, 2])
        assert together.rows == sum(alone, ())

    @pytest.mark.parametrize("seeds", [[5, 6, 7], [7, 6, 5]])
    def test_divergence_is_the_first_seed_in_list_order(self, seeds):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        train_cfg = replace(train_cfg, learning_rate=1e308)

        def outcome(seeds):
            with pytest.raises(DivergenceError) as info:
                run_sensitivity_experiment(synth_cfg, [A, E, F], train_grid, eval_grid,
                                           train_cfg, seeds)
            return str(info.value), info.value.epoch, info.value.batch, info.value.models

        alone = [outcome([seed]) for seed in seeds]
        assert len(set(alone)) == 3
        assert outcome(seeds) == alone[0]

    # a jump in the rate at epoch 2, after two epochs that skip the screen,
    # and features past float32's range, which stop the first seed in order
    # at its first batch, before any step
    @pytest.mark.parametrize("synth_changes,train_changes,epochs", [
        ({}, {"epochs": 3, "lr_schedule": ((2, 1e300),)}, {0: False, 1: False, 2: True}),
        ({"noise_sigma": 1e200}, {}, {}),
    ], ids=["rate-jump", "noise-1e200"])
    def test_divergence_matches_seed_by_seed_runs(self, monkeypatch, synth_changes,
                                                  train_changes, epochs):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        synth_cfg = replace(synth_cfg, **synth_changes)
        train_cfg = replace(train_cfg, **train_changes)
        records = screen_records(monkeypatch)

        def outcome(seeds):
            del records[:]
            with pytest.raises(DivergenceError) as info:
                run_sensitivity_experiment(synth_cfg, [A, E], train_grid, eval_grid,
                                           train_cfg, seeds)
            assert screened_epochs(records) == epochs
            return str(info.value), info.value.epoch, info.value.batch, info.value.models

        seeds = [3, 1, 2]
        alone = [outcome([seed]) for seed in seeds]
        assert len(set(alone)) == 3
        assert outcome(seeds) == alone[0]

    def test_real_divergence_names_fn_and_seed(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        from dataclasses import replace

        with pytest.raises(DivergenceError) as info:
            run_sensitivity_experiment(synth_cfg, [E], train_grid, eval_grid,
                                       replace(train_cfg, learning_rate=1e308), [2])
        assert info.value.epoch is not None and info.value.batch is not None
        assert str(info.value) == (f"fn=e seed=2: non-finite loss at epoch "
                                   f"{info.value.epoch}, batch {info.value.batch}")

    def test_empty_arguments_rejected(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        with pytest.raises(ContractError):
            run_sensitivity_experiment(synth_cfg, [], train_grid, eval_grid,
                                       train_cfg, [1])
        with pytest.raises(ContractError):
            run_sensitivity_experiment(synth_cfg, [A], train_grid, eval_grid,
                                       train_cfg, [])

    # (feature_dim, num_labels, context_frames, fns, train frames, failing
    # check): at the budget of 2**24 cells, and one cell over it
    @pytest.mark.parametrize("dim,labels,context,fns,frames,over", [
        (4096, 4096, 1, [A], 4096, None),
        (4096, 2048, 1, [A, E, A], 4096, None),  # a repeated function trains once
        (4096, 2048, 1, [A, E, F], 4096, "a seed's weights take 25165824 cells"),
        (673, 257, 97, [A], 257, "a seed's weights take 16777217 cells"),
        (64, 12, 1, [A, E, F], 2 ** 18, None),
        (673, 12, 97, [A], 257, "a test piece's windows take 16777217 cells"),
    ])
    def test_model_size_budget_checked_at_its_edge(self, monkeypatch, dim, labels,
                                                   context, fns, frames, over):
        assert trainer_module.MAX_MODEL_CELLS == 2 ** 24
        generated = []

        class Generating(Exception):
            pass

        def no_corpus(cfg):
            generated.append(cfg)
            raise Generating  # within the budget, the experiment goes on to generate

        monkeypatch.setattr(trainer_module, "generate_corpus", no_corpus)
        synth_cfg = SynthConfig(num_pieces=5, feature_dim=dim, num_labels=labels)
        grid = FrameGrid(fps=31.25, num_frames=frames)
        args = (synth_cfg, fns, grid, grid, TrainConfig(context_frames=context), [1])
        if over is None:
            with pytest.raises(Generating):
                run_sensitivity_experiment(*args)
            assert len(generated) == 1
        else:
            with pytest.raises(ContractError, match=f"^{over}, over the budget "
                                                    f"of 16777216 cells$"):
                run_sensitivity_experiment(*args)
            assert not generated

    # (window_sec, eval_fps, failing check): one frame at 100 fps, less than
    # one, and a rate at which no window of 30 s holds a frame
    @pytest.mark.parametrize("window_sec,eval_fps,message", [
        (0.01, 100.0, None),
        (0.001, 100.0, "a window of 0.001 s holds no frame at 100.0 fps"),
        (30.0, 1e-300, "a window of 30.0 s holds no frame at 1e-300 fps"),
    ], ids=["one-frame", "under-a-frame", "no-rate"])
    def test_window_checked_before_generating(self, monkeypatch, window_sec, eval_fps,
                                              message):
        generated = []

        class Generating(Exception):
            pass

        def no_corpus(cfg):
            generated.append(cfg)
            raise Generating  # with a frame in its window, the experiment goes on

        monkeypatch.setattr(trainer_module, "generate_corpus", no_corpus)
        synth_cfg = SynthConfig(num_pieces=5)
        args = (synth_cfg, [A], FrameGrid.covering(31.25, 30.0),
                FrameGrid.covering(eval_fps, 30.0), TrainConfig(), [1])
        if message is None:
            with pytest.raises(Generating):
                run_sensitivity_experiment(*args, window_sec=window_sec)
            assert len(generated) == 1
        else:
            with pytest.raises(ContractError, match=f"^{message}$"):
                run_sensitivity_experiment(*args, window_sec=window_sec)
            assert not generated

    def test_too_few_pieces_rejected(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        from dataclasses import replace

        with pytest.raises(ContractError):
            run_sensitivity_experiment(replace(synth_cfg, num_pieces=2), [A],
                                       train_grid, eval_grid, train_cfg, [1])
