from dataclasses import replace

import numpy as np
import pytest

from notegrid import (ContractError, Dataset, DivergenceError, FeatureMatrix,
                      FrameGrid, LabelingFunction, LabelMatrix, ModelParams,
                      SynthConfig, TrainConfig, bce_loss,
                      bce_loss_and_gradient, framewise_counts, make_examples,
                      predict, prf, run_sensitivity_experiment, train)
from notegrid import trainer as trainer_module
from notegrid.metrics import count_cells
from notegrid.util import MASK64

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


def exact_loss_training(train_set, cfg, models):
    """Reference: the training loop with every batch's per-block losses
    computed by the checked kernel. Returns (epoch, batch, models) of the
    first non-finite loss, or the final (weights, bias)."""
    init = train(train_set, train_set, replace(cfg, epochs=0), models=models)
    weights, bias = init.weights, init.bias
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
            losses, grad_w, grad_b = trainer_module._loss_and_gradient(
                weights + mu * velocity_w, bias + mu * velocity_b,
                train_set.inputs[idx], train_set.targets[idx], models)
            diverged = np.flatnonzero(~np.isfinite(losses))
            if diverged.size:
                return epoch, batch, tuple(diverged.tolist())
            velocity_w = mu * velocity_w - lr * grad_w
            velocity_b = mu * velocity_b - lr * grad_b
            weights = weights + velocity_w
            bias = bias + velocity_b
    return weights, bias


def screen_case(name):
    """(train set, cfg, models) of one divergence-screen case."""
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
    if name == "no-target-columns":
        return Dataset(inputs=inputs, targets=targets[:, :0]), cfg, 1
    if name == "converging":
        return Dataset(inputs=inputs, targets=targets), cfg, 3
    # one batch whose largest |logit| sits a hair off the screen's limit,
    # 1e300 / (batch_size * columns * (1 + max|y|)), with binary targets
    cfg = replace(cfg, batch_size=8, epochs=1)
    inputs, targets = inputs[:8], targets[:8]
    init = train(Dataset(inputs, targets), Dataset(inputs, targets),
                 replace(cfg, epochs=0), models=2)
    limit = 1e300 / (8 * 6 * 2)
    side = {"logits-below-limit": 1 - 1e-6, "logits-above-limit": 1 + 1e-6}[name]
    inputs = inputs * (side * limit / np.abs(inputs @ init.weights).max())
    assert (np.abs(inputs @ init.weights).max() < limit) == (side < 1)
    return Dataset(inputs=inputs, targets=targets), cfg, 2


# (case, number of batches that compute their losses, when checked)
SCREEN_CASES = [("nan-target", None), ("huge-targets", None),
                ("huge-targets-small-inputs", None), ("learning-rate-1e308", None),
                ("no-target-columns", None), ("converging", None),
                ("logits-below-limit", 0), ("logits-above-limit", 1)]


class TestMakeExamples:
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
        losses, _, _ = trainer_module._loss_and_gradient(weights, bias, x, y, models=3)
        assert losses.shape == (3,)
        for j in range(3):
            block = slice(j * k, (j + 1) * k)
            alone = bce_loss(ModelParams(weights[:, block], bias[block]), x, y[:, block])
            assert losses[j] == pytest.approx(alone, rel=1e-12)


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(epochs=0, context_frames=1, seed=5)
        params_a = train(ds, ds, cfg)
        params_b = train(ds, ds, cfg)
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
        init = train(ds, ds, TrainConfig(epochs=0, **base))
        stepped = train(ds, ds, TrainConfig(epochs=1, **base))
        _, grad_w, grad_b = bce_loss_and_gradient(init, ds.inputs, ds.targets)
        assert np.abs(stepped.weights - (init.weights - grad_w)).max() <= 1e-12
        assert np.abs(stepped.bias - (init.bias - grad_b)).max() <= 1e-12

    def test_separable_toy_reaches_perfect_fmeasure(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=0.5, epochs=40, context_frames=1, seed=3)
        decisions = window_decisions(train(ds, ds, cfg), ds, cfg.threshold)
        assert prf(count_cells(decisions, ds.targets >= 0.5)).fmeasure == 1.0

    def test_loss_monotone_at_small_learning_rate(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=1e-3, epochs=10, context_frames=1, seed=3)
        # the parameters after epoch e are those of an e-epoch run whose
        # schedule is explicit, less the entries it never reaches
        losses = []
        for e in range(11):
            reached = tuple((at, m) for at, m in cfg.resolved_schedule() if at < e)
            params = train(ds, ds, replace(cfg, epochs=e, lr_schedule=reached))
            losses.append(bce_loss(params, ds.inputs, ds.targets))
        assert all(later <= earlier for earlier, later in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

    def test_deterministic(self):
        ds = two_cluster_dataset()
        cfg = TrainConfig(learning_rate=0.2, epochs=3, context_frames=1, seed=11)
        params_a = train(ds, ds, cfg)
        params_b = train(ds, ds, cfg)
        assert np.array_equal(params_a.weights, params_b.weights)
        assert np.array_equal(params_a.bias, params_b.bias)

    @pytest.mark.parametrize("epoch", [-1, 4, 99])
    def test_schedule_epoch_that_never_comes_rejected(self, epoch):
        TrainConfig(epochs=4, lr_schedule=((0, 0.5), (3, 0.5)))
        with pytest.raises(ContractError, match=f"lr_schedule epoch {epoch} is not in"):
            TrainConfig(epochs=4, lr_schedule=((0, 0.5), (epoch, 0.5)))

    def test_schedule_applies_multipliers(self):
        # momentum off so a killed learning rate freezes the weights and the
        # schedule's effect is visible in isolation
        ds = two_cluster_dataset(n=40)
        slow = TrainConfig(learning_rate=0.2, momentum=0.0, epochs=4,
                           context_frames=1, seed=2, lr_schedule=((1, 1e-12),))
        fast = TrainConfig(learning_rate=0.2, momentum=0.0, epochs=4,
                           context_frames=1, seed=2, lr_schedule=())
        losses = [bce_loss(train(ds, ds, cfg), ds.inputs, ds.targets)
                  for cfg in (replace(fast, epochs=1), slow, fast)]
        first_epoch, slow_loss, fast_loss = losses
        assert abs(slow_loss - first_epoch) < 1e-9
        assert fast_loss < slow_loss

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch_and_batch(self):
        rng = np.random.default_rng(0)
        ds = Dataset(inputs=rng.normal(0, 1000.0, (64, 3)),
                     targets=(rng.random((64, 1)) < 0.5).astype(float))
        cfg = TrainConfig(learning_rate=1e308, epochs=1, context_frames=1, seed=1)
        with pytest.raises(DivergenceError) as info:
            train(ds, ds, cfg)
        assert info.value.epoch == 0
        assert info.value.batch is not None

    def test_step_equals_out_of_place_nesterov_loop(self):
        # reference: the update written out of place, one fresh array per
        # operation; the in-place step must reproduce it bit for bit
        rng = np.random.default_rng(9)
        ds = Dataset(inputs=rng.normal(0, 1, (45, 7)),
                     targets=(rng.random((45, 3)) < 0.4).astype(float))
        cfg = TrainConfig(learning_rate=0.7, momentum=0.9, batch_size=8, epochs=4,
                          lr_schedule=((1, 0.5), (3, 0.5)), context_frames=1, seed=6)
        init = train(ds, ds, TrainConfig(epochs=0, context_frames=1, seed=6))
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
                ahead = ModelParams(weights + mu * velocity_w, bias + mu * velocity_b)
                _, grad_w, grad_b = bce_loss_and_gradient(ahead, ds.inputs[idx],
                                                          ds.targets[idx])
                velocity_w = mu * velocity_w - lr * grad_w
                velocity_b = mu * velocity_b - lr * grad_b
                weights = weights + velocity_w
                bias = bias + velocity_b
        params = train(ds, ds, cfg)
        assert np.array_equal(params.weights, weights)
        assert np.array_equal(params.bias, bias)

    def test_stacked_models_match_separate_runs(self):
        rng = np.random.default_rng(5)
        k = 4
        inputs = rng.normal(0, 1, (70, 9))
        blocks = [(rng.random((70, k)) < p).astype(float) for p in (0.2, 0.5, 0.7)]
        cfg = TrainConfig(learning_rate=0.5, momentum=0.9, batch_size=8, epochs=5,
                          lr_schedule=((2, 0.5), (4, 0.25)), context_frames=1, seed=4)
        stacked = Dataset(inputs=inputs, targets=np.hstack(blocks))
        params = train(stacked, stacked, cfg, models=3)
        for j, targets in enumerate(blocks):
            alone = Dataset(inputs=inputs, targets=targets)
            expected = train(alone, alone, cfg)
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
            train(ds, ds, cfg, models=3)
        assert info.value.models == (1,)
        assert info.value.epoch == 0
        assert info.value.batch == int(np.flatnonzero(order == row)[0]) // cfg.batch_size

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name,losses_computed", SCREEN_CASES,
                             ids=[name for name, _ in SCREEN_CASES])
    def test_divergence_screen_matches_exact_losses(self, monkeypatch, name,
                                                    losses_computed):
        train_set, cfg, models = screen_case(name)
        expected = exact_loss_training(train_set, cfg, models)
        block_losses, calls = trainer_module._block_losses, []

        def counting_block_losses(*args):
            calls.append(args)
            return block_losses(*args)

        monkeypatch.setattr(trainer_module, "_block_losses", counting_block_losses)
        try:
            params = train(train_set, train_set, cfg, models=models)
        except DivergenceError as exc:
            assert (exc.epoch, exc.batch, exc.models) == expected
        else:
            assert np.array_equal(params.weights, expected[0])
            assert np.array_equal(params.bias, expected[1])
        if losses_computed is not None:
            assert len(calls) == losses_computed

    @pytest.mark.parametrize("models,width,valid_width",
                             [(0, 4, 4), (-1, 4, 4), (3, 4, 4), (2, 5, 5), (2, 4, 6)])
    def test_bad_model_count_or_width_rejected(self, models, width, valid_width):
        train_set = Dataset(inputs=np.ones((6, 2)), targets=np.zeros((6, width)))
        valid_set = Dataset(inputs=np.ones((6, 2)), targets=np.zeros((6, valid_width)))
        with pytest.raises(ContractError):
            train(train_set, valid_set, TrainConfig(epochs=1, context_frames=1),
                  models=models)

    def test_empty_dataset_rejected(self):
        ds = two_cluster_dataset(n=4)
        empty = Dataset(inputs=np.zeros((0, 3)), targets=np.zeros((0, 1)))
        with pytest.raises(ContractError):
            train(empty, ds, TrainConfig(context_frames=1))
        with pytest.raises(ContractError):
            train(ds, empty, TrainConfig(context_frames=1))


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
        params = train(ds, ds, train_cfg)
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
        params = train(ds, ds, train_cfg)

        results = []
        for threshold in (0.3, 0.5, 0.7):
            pred = predict(params, feats, train_cfg.context_frames, threshold)
            results.append(prf(framewise_counts(pred, labels)))
        assert all(r.precision_defined and r.recall_defined for r in results)
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
        assert [(r.fn, r.seed, r.split) for r in table.rows] == [
            (A, 1, "test"), (F, 1, "test"), (A, 2, "test"), (F, 2, "test")]

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
        assert table_a == table_b

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

    def test_divergence_annotated_with_fn_and_seed(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()

        def exploding_train(train_set, valid_set, cfg, **kwargs):
            raise DivergenceError("non-finite loss at epoch 0, batch 1",
                                  epoch=0, batch=1)

        monkeypatch.setattr(trainer_module, "train", exploding_train)
        with pytest.raises(DivergenceError, match=r"fn=f seed=9"):
            run_sensitivity_experiment(synth_cfg, [F], train_grid, eval_grid,
                                       train_cfg, [9])

    def test_one_stacked_training_per_seed(self, monkeypatch):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        widths = []

        def counting_train(train_set, valid_set, cfg, **kwargs):
            widths.append((train_set.targets.shape[1], valid_set.targets.shape[1],
                           kwargs))
            return train(train_set, valid_set, cfg, **kwargs)

        monkeypatch.setattr(trainer_module, "train", counting_train)
        table = run_sensitivity_experiment(synth_cfg, [A, E, F, A], train_grid,
                                           eval_grid, train_cfg, [1, 2])
        k = synth_cfg.num_labels
        assert widths == [(3 * k, 3 * k, {"models": 3})] * 2
        assert [(r.fn, r.seed) for r in table.rows] == [
            (A, 1), (E, 1), (F, 1), (A, 1), (A, 2), (E, 2), (F, 2), (A, 2)]
        assert table.rows[0] == table.rows[3]

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_too_few_pieces_rejected(self):
        synth_cfg, train_cfg, train_grid, eval_grid = tiny_experiment_args()
        from dataclasses import replace

        with pytest.raises(ContractError):
            run_sensitivity_experiment(replace(synth_cfg, num_pieces=2), [A],
                                       train_grid, eval_grid, train_cfg, [1])
