import math
import random

import numpy as np
import pytest

from notegrid import (Annotation, ContractError, FrameGrid, NoteEvent,
                      SynthConfig, generate_corpus, label_templates,
                      render_features, validate)
from notegrid.synth import (MAX_FEATURE_DIM, MAX_NOTES_PER_PIECE, MAX_PIECES,
                            MAX_TEMPLATE_TERMS)


class TestGenerateCorpus:
    def test_events_truncated_at_piece_end(self):
        cfg = SynthConfig(num_pieces=20, piece_duration_sec=5.0, note_rate=4.0,
                          duration_range=(2.0, 4.0), seed=1)
        for piece in generate_corpus(cfg):
            assert all(e.offset_sec <= cfg.piece_duration_sec for e in piece.events)
            assert piece.duration_sec == cfg.piece_duration_sec

    def test_deterministic(self):
        cfg = SynthConfig(num_pieces=6, seed=1234)
        assert generate_corpus(cfg) == generate_corpus(cfg)

    def test_different_seed_different_corpus(self):
        assert (generate_corpus(SynthConfig(num_pieces=2, seed=1))
                != generate_corpus(SynthConfig(num_pieces=2, seed=2)))

    def test_poisson_event_rate(self):
        # lambda * duration = 60 expected onsets; the mean over 100 pieces
        # has sigma = sqrt(60/100), so a 3-sigma band is about +-2.33
        cfg = SynthConfig(num_pieces=100, piece_duration_sec=30.0, num_labels=12,
                          note_rate=2.0, seed=77)
        corpus = generate_corpus(cfg)
        mean_events = sum(len(p) for p in corpus) / len(corpus)
        assert abs(mean_events - 60.0) <= 3 * (60.0 / 100) ** 0.5

    def test_labels_cover_space(self):
        cfg = SynthConfig(num_pieces=10, seed=5)
        corpus = generate_corpus(cfg)
        labels = {e.label for p in corpus for e in p.events}
        assert labels == set(range(cfg.num_labels))

    def test_pieces_validate_clean(self):
        for piece in generate_corpus(SynthConfig(num_pieces=5, seed=9)):
            assert validate(piece).ok

    def test_note_budget(self):
        # the budget bounds the expected count, note_rate x piece_duration_sec
        assert MAX_NOTES_PER_PIECE == 10 ** 6
        SynthConfig(note_rate=1000.0, piece_duration_sec=1000.0)
        for rate, seconds in ((1000.0, 1000.5), (1e308, 30.0), (2.0, 1e30), (math.nan, 30.0)):
            with pytest.raises(ContractError, match="exceeds the budget of 1000000 notes"):
                SynthConfig(note_rate=rate, piece_duration_sec=seconds)

    @pytest.mark.parametrize("fields,match", [
        ({"num_pieces": MAX_PIECES + 1}, "num_pieces = 10001 exceeds the budget of 10000 pieces"),
        ({"feature_dim": MAX_FEATURE_DIM + 1},
         "feature_dim = 4097 exceeds the budget of 4096 feature bins"),
        ({"harmonics": 10 ** 12}, "num_labels x harmonics = 12000000000000 exceeds "
                                  "the budget of 1000000 template terms"),
        ({"num_labels": 1000, "feature_dim": 1000, "harmonics": 1001},
         "num_labels x harmonics = 1001000 "),
    ])
    def test_work_budgets(self, fields, match):
        assert (MAX_PIECES, MAX_FEATURE_DIM, MAX_TEMPLATE_TERMS) == (10 ** 4, 2 ** 12, 10 ** 6)
        SynthConfig(num_pieces=MAX_PIECES, feature_dim=MAX_FEATURE_DIM,
                    num_labels=1000, harmonics=1000)
        with pytest.raises(ContractError, match=match):
            SynthConfig(**fields)

    def test_duration_range_list_is_a_tuple(self):
        cfg = SynthConfig(duration_range=[0.2, 0.5])
        assert cfg.duration_range == (0.2, 0.5)
        assert cfg == SynthConfig(duration_range=(0.2, 0.5))
        assert hash(cfg) == hash(SynthConfig(duration_range=(0.2, 0.5)))

    def test_config_invariants(self):
        with pytest.raises(ContractError):
            SynthConfig(duration_range=(0.0, 1.0))
        with pytest.raises(ContractError):
            SynthConfig(feature_dim=4, num_labels=12)
        with pytest.raises(ContractError):
            SynthConfig(noise_sigma=-0.1)
        with pytest.raises(ContractError):
            SynthConfig(note_rate=0.0)


class TestTemplates:
    def test_shape_and_harmonic_decay(self):
        cfg = SynthConfig(num_labels=4, feature_dim=16, harmonics=3)
        templates = label_templates(cfg)
        assert templates.shape == (4, 16)
        # label 1: fundamental at bin 4, harmonics at 8 and 12
        assert templates[1, 4] == 1.0
        assert templates[1, 8] == 0.5
        assert templates[1, 12] == pytest.approx(1 / 3)
        assert templates[1].sum() == pytest.approx(1.0 + 0.5 + 1 / 3)

    def test_harmonics_clipped_at_dimension(self):
        cfg = SynthConfig(num_labels=4, feature_dim=16, harmonics=8)
        templates = label_templates(cfg)
        # label 3: fundamental at bin 12, second harmonic at 24 is clipped
        assert templates[3, 12] == 1.0
        assert np.count_nonzero(templates[3]) == 1


class TestRenderFeatures:
    def test_active_cells_match_frame_centre_brute_force(self):
        # identity templates, so the noiseless features are the active cells
        cfg = SynthConfig(num_labels=3, feature_dim=3, harmonics=1, noise_sigma=0.0)
        dt = 0.125  # exact in binary, so the first boundaries sit on frame centres
        on_centres = [NoteEvent(0.1875, 0.4375, 0), NoteEvent(0.3, 0.35, 1),
                      NoteEvent(0.0, 0.05, 2), NoteEvent(1.0, 1.9, 0),
                      NoteEvent(1.2, 1.5, 0), NoteEvent(0.01, 2.0, 1)]
        r = random.Random(31)
        onsets = [r.random() * 1.8 for _ in range(40)]
        scattered = [NoteEvent(on, on + r.random() * 0.19 + 1e-3, r.randrange(3))
                     for on in onsets]
        grid = FrameGrid(fps=1 / dt, num_frames=16)
        for events in (on_centres, scattered):
            ann = Annotation.from_events(events, num_labels=3, duration_sec=2.0)
            brute = np.zeros((16, 3))
            for t in range(16):
                centre = (t + 0.5) * dt
                for e in ann.events:
                    if e.onset_sec <= centre < e.offset_sec:
                        brute[t, e.label] = 1.0
            assert np.array_equal(render_features(ann, grid, cfg).values, brute)

    def test_silence_gives_zero_rows(self):
        cfg = SynthConfig(noise_sigma=0.0)
        ann = Annotation.from_events([], num_labels=cfg.num_labels, duration_sec=1.0)
        grid = FrameGrid.covering(31.25, 1.0)
        feats = render_features(ann, grid, cfg)
        assert not feats.values.any()

    def test_single_label_rows_equal_template(self):
        cfg = SynthConfig(noise_sigma=0.0, harmonics=1)
        ann = Annotation.from_events([NoteEvent(0.0, 1.0, 5)],
                                     num_labels=cfg.num_labels, duration_sec=2.0)
        grid = FrameGrid.covering(31.25, 2.0)
        feats = render_features(ann, grid, cfg)
        template = label_templates(cfg)[5]
        active_rows = feats.values[feats.values.any(axis=1)]
        assert len(active_rows) > 0
        assert np.array_equal(active_rows, np.tile(template, (len(active_rows), 1)))

    def test_adjacent_frames_inside_note_identical(self):
        cfg = SynthConfig(noise_sigma=0.0)
        ann = Annotation.from_events([NoteEvent(0.1, 0.9, 2)],
                                     num_labels=cfg.num_labels, duration_sec=1.0)
        grid = FrameGrid.covering(100.0, 1.0)
        feats = render_features(ann, grid, cfg)
        assert np.array_equal(feats.values[40], feats.values[41])
        assert np.linalg.norm(feats.values[40] - feats.values[41]) == 0.0

    def test_activity_judged_at_frame_centers(self):
        cfg = SynthConfig(noise_sigma=0.0, harmonics=1)
        # note [0.1, 0.3): centers 0.05, 0.15, 0.25, 0.35 -> frames 1 and 2
        ann = Annotation.from_events([NoteEvent(0.1, 0.3, 0)],
                                     num_labels=cfg.num_labels, duration_sec=0.4)
        grid = FrameGrid(fps=10.0, num_frames=4)
        feats = render_features(ann, grid, cfg)
        active = feats.values.any(axis=1)
        assert list(active) == [False, True, True, False]

    def test_energy_adds_over_simultaneous_labels(self):
        cfg = SynthConfig(noise_sigma=0.0)
        ann = Annotation.from_events(
            [NoteEvent(0.0, 1.0, 1), NoteEvent(0.0, 1.0, 7)],
            num_labels=cfg.num_labels, duration_sec=1.0)
        grid = FrameGrid.covering(31.25, 1.0)
        feats = render_features(ann, grid, cfg)
        templates = label_templates(cfg)
        expected = templates[1] + templates[7]
        assert np.array_equal(feats.values[5], expected)

    def test_same_label_overlap_counted_once(self):
        cfg = SynthConfig(noise_sigma=0.0)
        ann = Annotation.from_events(
            [NoteEvent(0.0, 0.6, 3), NoteEvent(0.3, 1.0, 3)],
            num_labels=cfg.num_labels, duration_sec=1.0)
        grid = FrameGrid.covering(31.25, 1.0)
        feats = render_features(ann, grid, cfg)
        template = label_templates(cfg)[3]
        mid_row = feats.values[14]  # center 0.464 s, inside the overlap
        assert np.array_equal(mid_row, template)

    def test_noise_deterministic_per_seed(self):
        cfg = SynthConfig(noise_sigma=0.1)
        ann = Annotation.from_events([NoteEvent(0.0, 0.5, 0)],
                                     num_labels=cfg.num_labels, duration_sec=1.0)
        grid = FrameGrid.covering(31.25, 1.0)
        one = render_features(ann, grid, cfg, noise_seed=4)
        two = render_features(ann, grid, cfg, noise_seed=4)
        other = render_features(ann, grid, cfg, noise_seed=5)
        assert np.array_equal(one.values, two.values)
        assert not np.array_equal(one.values, other.values)

    def test_grid_must_cover_annotation(self):
        cfg = SynthConfig()
        ann = Annotation.from_events([NoteEvent(0.0, 2.0, 0)],
                                     num_labels=cfg.num_labels, duration_sec=2.0)
        with pytest.raises(ContractError):
            render_features(ann, FrameGrid(fps=31.25, num_frames=31), cfg)

    def test_label_space_must_match(self):
        cfg = SynthConfig(num_labels=12)
        ann = Annotation.from_events([NoteEvent(0.0, 1.0, 0)], num_labels=4,
                                     duration_sec=1.0)
        with pytest.raises(ContractError):
            render_features(ann, FrameGrid.covering(31.25, 1.0), cfg)
