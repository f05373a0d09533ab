"""Acceptance suite: one test per criterion, each printing a pass line.

Golden numbers were frozen from a brute-force oracle run (straight-line
loops, exact rational arithmetic for expected times, an independent
re-derivation of the shift draws) before the library was built; the
library must reproduce them to 1e-9.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import smf
from conftest import annotation_of, notes_of
from notegrid import (FrameGrid, LabelingFunction, LabelMatrix, ModelParams,
                      SynthConfig, TrainConfig, bce_loss, bce_loss_and_gradient, framewise_counts,
                      noise_ceiling, parse_midi, parse_tsv,
                      quantize_interval, rasterize, resample,
                      run_sensitivity_experiment, to_tsv, truncate)
from notegrid.cli import main as cli_main

A, B, C, D, E, F = LabelingFunction

# (precision, recall, fmeasure) of each labeling function evaluated
# against the round-both reference at 100 fps on the 100-note fixture,
# draw seed 7; frozen from the pre-build oracle run
NOISE_CEILING_GOLDENS = {
    B: (0.9907517192316813, 0.9891098484848485, 0.9899301030683567),
    C: (0.9900403130187337, 0.9883996212121212, 0.9892192868143586),
    D: (0.9899425287356322, 0.9786931818181818, 0.9842857142857143),
    E: (0.9860222696043591, 0.9853219696969697, 0.9856719952634696),
    F: (0.9865184484389783, 0.9874526515151515, 0.9869853289162328),
}
NOISE_CEILING_SEED = 7

# f-measure of round-both labels rasterized at 31.25 fps, upsampled to
# the 100 fps reference grid, both truncated to 30 s; same fixture
CROSS_RATE_F = 0.9811678313395713

GOLDEN_TOL = 1e-9


def sample_triples(count=1000, seed=20240101):
    r = random.Random(seed)
    triples = []
    for _ in range(count):
        onset = r.random() * 60.0
        offset = onset + 1e-6 + r.random() * (60.0 - onset)
        triples.append((onset, offset, r.choice((0.01, 0.032))))
    return triples


def oracle_indices(fn, onset, offset, dt):
    """Independent straight-line evaluation of the deterministic
    conversions in exact rational arithmetic."""
    xs = Fraction(onset) / Fraction(dt)
    xe = Fraction(offset) / Fraction(dt)
    half = Fraction(1, 2)
    if fn is A:
        return math.floor(xs + half), math.floor(xe + half)
    if fn is B:
        return math.ceil(xs), math.ceil(xe)
    if fn is C:
        return math.floor(xs), math.floor(xe)
    if fn is D:
        duration = (Fraction(offset) - Fraction(onset)) / Fraction(dt)
        return math.floor(xs), math.floor(xs) + math.floor(duration)
    raise AssertionError(fn)


def test_criterion_1_labeling_function_oracle_equivalence():
    triples = sample_triples()
    started = time.perf_counter()
    for onset, offset, dt in triples:
        for fn in (A, B, C, D):
            q = quantize_interval(fn, onset, offset, dt)
            assert (q.t_s, q.t_e) == oracle_indices(fn, onset, offset, dt)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: PASS - 1000 triples x 4 functions match the exact "
          f"oracle ({elapsed:.3f} s)")


def test_criterion_2_quantization_error_bounds():
    violations = 0
    for onset, offset, dt in sample_triples():
        qa = quantize_interval(A, onset, offset, dt)
        if not (abs(qa.eps_s) <= dt / 2 + 1e-12 and abs(qa.eps_e) <= dt / 2 + 1e-12):
            violations += 1
        qb = quantize_interval(B, onset, offset, dt)
        if not (0 <= qb.eps_s < dt and 0 <= qb.eps_e < dt):
            violations += 1
        qc = quantize_interval(C, onset, offset, dt)
        if not (-dt < qc.eps_s <= 0 and -dt < qc.eps_e <= 0):
            violations += 1
        qd = quantize_interval(D, onset, offset, dt)
        if not -dt < qd.eps_s <= 0:
            violations += 1
    assert violations == 0
    print("criterion 2: PASS - zero error-bound violations over the sample")


def test_criterion_3_metric_oracle():
    rng = np.random.default_rng(20240103)
    for _ in range(200):
        num_frames = int(rng.integers(1, 51))
        num_labels = int(rng.integers(1, 13))
        grid = FrameGrid(fps=100.0, num_frames=num_frames)
        pred = LabelMatrix(
            frames=(rng.random((num_frames, num_labels)) < 0.4).astype(np.uint8),
            grid=grid)
        ref = LabelMatrix(
            frames=(rng.random((num_frames, num_labels)) < 0.4).astype(np.uint8),
            grid=grid)
        tp = fp = fn_ = 0
        for t in range(num_frames):
            for k in range(num_labels):
                p, r = pred.frames[t, k], ref.frames[t, k]
                if p and r:
                    tp += 1
                elif p and not r:
                    fp += 1
                elif not p and r:
                    fn_ += 1
        counts = framewise_counts(pred, ref)
        assert (counts.tp, counts.fp, counts.fn_) == (tp, fp, fn_)

        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn_) if tp + fn_ else 0.0
        fmeasure = (2 * precision * recall / (precision + recall)
                    if precision + recall else 0.0)
        result = counts
        assert abs(result.precision - precision) <= 1e-12
        assert abs(result.recall - recall) <= 1e-12
        assert abs(result.fmeasure - fmeasure) <= 1e-12
    print("criterion 3: PASS - 200 matrix pairs match the naive count and "
          "hand-evaluated measures")


def test_criterion_4_model_free_noise_ceiling(hundred_notes):
    grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
    reference_result = noise_ceiling(hundred_notes, grid, A, NOISE_CEILING_SEED)
    assert reference_result.precision == 1.0
    assert reference_result.recall == 1.0
    assert reference_result.fmeasure == 1.0
    for fn, (precision, recall, fmeasure) in NOISE_CEILING_GOLDENS.items():
        result = noise_ceiling(hundred_notes, grid, fn, NOISE_CEILING_SEED)
        assert result.fmeasure < 1.0
        assert abs(result.precision - precision) <= GOLDEN_TOL
        assert abs(result.recall - recall) <= GOLDEN_TOL
        assert abs(result.fmeasure - fmeasure) <= GOLDEN_TOL
    print("criterion 4: PASS - reference ceiling exactly 1.0, five noisy "
          "ceilings strictly below and on their goldens")


def test_criterion_5_cross_rate_protocol(hundred_notes):
    low = rasterize(hundred_notes,
                    FrameGrid.covering(31.25, hundred_notes.duration_sec), A, 0)
    ref_grid = FrameGrid.covering(100.0, hundred_notes.duration_sec)
    ref = truncate(rasterize(hundred_notes, ref_grid, A, 0), 30.0)
    upsampled = truncate(resample(low, ref_grid), 30.0)
    result = framewise_counts(upsampled, ref)
    assert result.fmeasure < 1.0
    assert abs(result.fmeasure - CROSS_RATE_F) <= GOLDEN_TOL
    print(f"criterion 5: PASS - cross-rate F = {result.fmeasure:.12f} "
          f"(golden {CROSS_RATE_F:.12f}), below 1.0")


def test_criterion_6_sensitivity_reproduction():
    synth_cfg = SynthConfig()
    train_cfg = TrainConfig()
    train_grid = FrameGrid.covering(31.25, synth_cfg.piece_duration_sec)
    eval_grid = FrameGrid.covering(100.0, synth_cfg.piece_duration_sec)
    started = time.perf_counter()
    table = run_sensitivity_experiment(synth_cfg, [A, E, F], train_grid,
                                       eval_grid, train_cfg, [1, 2, 3])
    elapsed = time.perf_counter() - started
    mean_a = table.mean_fmeasure(A)
    mean_e = table.mean_fmeasure(E)
    mean_f = table.mean_fmeasure(F)
    assert mean_a - mean_f >= 0.005
    assert mean_a - mean_e >= 0.0
    assert elapsed <= 600.0
    print(f"criterion 6: PASS - F(a)={mean_a:.4f} F(e)={mean_e:.4f} "
          f"F(f)={mean_f:.4f}; gaps {mean_a - mean_e:.4f}/{mean_a - mean_f:.4f} "
          f"in {elapsed:.1f} s")


def test_criterion_7_gradient_check():
    started = time.perf_counter()
    rng = np.random.default_rng(20240107)
    dim, num_labels, batch = 20, 5, 64
    params = ModelParams(weights=rng.normal(0, 0.5, (dim, num_labels)),
                         bias=rng.normal(0, 0.5, num_labels))
    inputs = rng.normal(0, 1.0, (batch, dim))
    targets = (rng.random((batch, num_labels)) < 0.4).astype(float)
    _, grad_w, grad_b = bce_loss_and_gradient(params, inputs, targets)
    eps = 1e-4
    for _ in range(10):
        i = int(rng.integers(dim + 1))  # row dim means a bias coordinate
        j = int(rng.integers(num_labels))
        if i < dim:
            plus, minus = params.weights.copy(), params.weights.copy()
            plus[i, j] += eps
            minus[i, j] -= eps
            analytic = grad_w[i, j]
            fd = (bce_loss(ModelParams(plus, params.bias), inputs, targets)
                  - bce_loss(ModelParams(minus, params.bias), inputs, targets)) / (2 * eps)
        else:
            plus, minus = params.bias.copy(), params.bias.copy()
            plus[j] += eps
            minus[j] -= eps
            analytic = grad_b[j]
            fd = (bce_loss(ModelParams(params.weights, plus), inputs, targets)
                  - bce_loss(ModelParams(params.weights, minus), inputs, targets)) / (2 * eps)
        assert abs(analytic - fd) / max(abs(fd), 1e-12) <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 7: PASS - 10 coordinates within 1e-5 of central "
          f"differences ({elapsed:.3f} s)")


def test_criterion_8_experiment_determinism(tmp_path):
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "synth": {"num_pieces": 5, "piece_duration_sec": 6.0, "seed": 0},
        "train": {"epochs": 2, "seed": 0},
    }))
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["experiment", "--config", str(config_path),
                         "--fns", "a,f", "--seeds", "1,2",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out)
    for filename in ("results.csv", "summary.json", "experiment.manifest.json"):
        first = (outputs[0] / filename).read_bytes()
        second = (outputs[1] / filename).read_bytes()
        assert first == second
    print("criterion 8: PASS - repeated experiment runs are byte-identical")


def _expected_seconds(tick, segments, ppqn):
    """Exact tick-to-seconds conversion for the fixture tempo maps."""
    total = Fraction(0)
    for i, (start, us) in enumerate(segments):
        end = segments[i + 1][0] if i + 1 < len(segments) else None
        if tick <= start:
            break
        span = (tick - start) if end is None or tick < end else (end - start)
        total += Fraction(span * us, ppqn) / 1_000_000
    return total


def _assert_recovers(data, expected_notes, segments, ppqn=480):
    ann = parse_midi(data)
    assert len(ann) == len(expected_notes)
    expected = sorted(
        (float(_expected_seconds(on, segments, ppqn)),
         float(_expected_seconds(off, segments, ppqn)), pitch - 21)
        for on, off, pitch in expected_notes)
    got = sorted(notes_of(ann))
    for (got_on, got_off, got_label), (want_on, want_off, want_label) in zip(got, expected):
        assert got_label == want_label
        assert abs(got_on - want_on) <= 1e-9
        assert abs(got_off - want_off) <= 1e-9


def test_criterion_9_parser_fixtures():
    default = [(0, 500000)]

    # 1: format 0, multi-byte delta encodings, default tempo
    notes = [(200, 680, 60), (680, 1160, 72)]
    _assert_recovers(smf.simple_file(notes), notes, default)

    # 2: running status with velocity-0 note-offs
    events = [
        (0, smf.note_on(60, 80)),
        (240, bytes([64, 80])),
        (240, bytes([60, 0])),
        (240, bytes([64, 0])),
    ]
    data = smf.build([smf.track(events)], fmt=0)
    _assert_recovers(data, [(0, 480, 60), (240, 720, 64)], default)

    # 3: tempo change in the middle of a sounding note
    segments = [(0, 500000), (480, 250000)]
    data = smf.simple_file([(240, 720, 60)], tempo_events=segments)
    _assert_recovers(data, [(240, 720, 60)], segments)

    # 4: overlapping same-pitch notes matched first-on to first-off
    events = [
        (0, smf.note_on(72, 90)),
        (120, smf.note_on(72, 90)),
        (120, smf.note_off(72)),
        (120, smf.note_off(72)),
    ]
    data = smf.build([smf.track(events)], fmt=0)
    _assert_recovers(data, [(0, 240, 72), (120, 360, 72)], default)

    # 5: format 1 with the tempo track separate from two note tracks
    segments = [(0, 600000)]
    tempo_track = smf.track([(0, smf.set_tempo(600000))])
    melody = smf.track([(0, smf.note_on(60, 70)), (480, smf.note_off(60))])
    bass = smf.track([(240, smf.note_on(36, 70)), (960, smf.note_off(36))])
    data = smf.build([tempo_track, melody, bass], fmt=1)
    _assert_recovers(data, [(0, 480, 60), (240, 1200, 36)], segments)

    # TSV round trip of a 1000-event annotation with microsecond times
    r = random.Random(20240109)
    events = []
    for _ in range(1000):
        onset_us = r.randrange(0, 300_000_000)
        duration_us = r.randrange(1, 3_000_000)
        pitch = r.randrange(21, 109)
        events.append((onset_us / 1e6, (onset_us + duration_us) / 1e6, pitch - 21))
    annotation = annotation_of(events, num_labels=88)
    assert parse_tsv(to_tsv(annotation)) == annotation
    print("criterion 9: PASS - 5 SMF fixtures recovered within 1e-9 s and "
          "1000-event TSV round-trips exactly")
