import json
import os
import random
import re
import stat

import numpy as np
import pytest

import smf
from notegrid import (Annotation, ContractError, FormatError, FrameGrid,
                      LabelingFunction, LabelMatrix, NoteEvent, framewise_counts,
                      prf, rasterize, resample, to_tsv, truncate)
from notegrid import io as ngio
from notegrid.cli import main

A = LabelingFunction.A

TSV = "OnsetTime\tOffsetTime\tMidiPitch\n0.100\t0.250\t60\n0.400\t0.900\t64\n"


def run_cli(argv):
    """Invoke the CLI in-process, mapping SystemExit to its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


@pytest.fixture
def notes_tsv(tmp_path):
    path = tmp_path / "notes.tsv"
    path.write_text(TSV)
    return path


class TestMatrixIo:
    def test_round_trip_preserves_everything(self, tmp_path):
        ann = Annotation.from_events(
            [NoteEvent(0.1, 0.5, 0), NoteEvent(0.2, 0.8, 2)], num_labels=3)
        matrix = rasterize(ann, FrameGrid(fps=31.25, num_frames=30),
                           LabelingFunction.E, 42)
        path = tmp_path / "m.csv"
        ngio.write_label_matrix(matrix, path)
        again = ngio.read_label_matrix(path)
        assert np.array_equal(again.frames, matrix.frames)
        assert again.grid == matrix.grid
        assert again.labeling_function is LabelingFunction.E
        assert again.seed == 42

    def test_sidecar_is_single_line(self, tmp_path):
        ann = Annotation.from_events([NoteEvent(0.0, 0.2, 0)], num_labels=1)
        matrix = rasterize(ann, FrameGrid(fps=100.0, num_frames=20), A)
        ngio.write_label_matrix(matrix, tmp_path / "m.csv")
        text = (tmp_path / "m.json").read_text().strip()
        assert "\n" not in text
        assert json.loads(text)["fps"] == 100.0

    def test_missing_sidecar_names_it(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,0\n")
        with pytest.raises(ContractError, match="m.json"):
            ngio.read_label_matrix(path)

    def test_feature_round_trip(self, tmp_path):
        from notegrid import FeatureMatrix

        values = np.random.default_rng(1).normal(0, 1, (8, 3))
        feats = FeatureMatrix(values=values, grid=FrameGrid(fps=31.25, num_frames=8))
        ngio.write_feature_matrix(feats, tmp_path / "f.csv")
        reference = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in values)
        assert (tmp_path / "f.csv").read_text() == reference
        again = ngio.read_feature_matrix(tmp_path / "f.csv")
        assert np.array_equal(again.values, feats.values)  # repr round-trips

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_written_files_take_the_umask_mode(self, tmp_path, umask, mode):
        matrix = LabelMatrix(frames=np.eye(3, dtype=np.uint8),
                             grid=FrameGrid(fps=100.0, num_frames=3))
        old = os.umask(umask)
        try:
            ngio.write_label_matrix(matrix, tmp_path / "m.csv")
        finally:
            os.umask(old)
        for name in ("m.csv", "m.json"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def reference_label_csv(frames: np.ndarray) -> bytes:
    """The label CSV formatted one cell at a time: the writer's reference."""
    return ("\n".join(",".join(map(str, row)) for row in frames) + "\n").encode()


def label_frames(shape) -> np.ndarray:
    """Random 0/1 frames whose first row is all zero and last row all one."""
    frames = np.random.default_rng(shape[0]).integers(0, 2, shape, dtype=np.uint8)
    frames[0] = 0
    frames[-1] = 1
    return frames


class TestLabelCodec:
    """The byte-level label codec against the cell-by-cell formatter and
    the line parser."""

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (4000, 88), (5, 0)])
    def test_writer_bytes_equal_reference_formatter(self, tmp_path, shape):
        frames = label_frames(shape)
        matrix = LabelMatrix(frames=frames, grid=FrameGrid(fps=100.0, num_frames=shape[0]))
        ngio.write_label_matrix(matrix, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == reference_label_csv(frames)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (4000, 88), (5, 0)])
    def test_write_then_read_round_trip(self, tmp_path, shape):
        matrix = LabelMatrix(frames=label_frames(shape),
                             grid=FrameGrid(fps=100.0, num_frames=shape[0]),
                             labeling_function=LabelingFunction.E, seed=3)
        ngio.write_label_matrix(matrix, tmp_path / "m.csv")
        again = ngio.read_label_matrix(tmp_path / "m.csv")
        assert again.frames.shape == shape
        assert np.array_equal(again.frames, matrix.frames)
        assert (again.grid, again.labeling_function, again.seed) == (matrix.grid,
                                                                     LabelingFunction.E, 3)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (4000, 88)])
    def test_exact_decoder_equals_line_parser(self, tmp_path, shape):
        path = tmp_path / "m.csv"
        path.write_bytes(reference_label_csv(label_frames(shape)))
        (tmp_path / "m.json").write_text('{"fps": 100.0}')
        exact = ngio._label_cells_exact(path.read_bytes())
        _, _, parsed = ngio._read_matrix_csv(path, int, "non-integer", "num_labels")
        assert exact is not None and exact.dtype == np.uint8
        assert np.array_equal(exact, parsed)
        assert np.array_equal(ngio.read_label_matrix(path).frames, parsed)

    @pytest.mark.parametrize("data,expected", [
        (b"0,1\r\n1,0\r\n", [[0, 1], [1, 0]]),
        (b"0,1\n1,0", [[0, 1], [1, 0]]),
        (b"0,1\n\n1,0\n\n", [[0, 1], [1, 0]]),
        (b"0, 1\n1 ,0\n", [[0, 1], [1, 0]]),
        (b"+1,0\n0,+1\n", [[1, 0], [0, 1]]),
        (b"01,0\n0,00\n", [[1, 0], [0, 0]]),
    ], ids=["crlf", "no-final-newline", "blank-lines", "spaces", "plus-sign",
            "leading-zero"])
    def test_lenient_files_read_through_line_parser(self, tmp_path, data, expected):
        (tmp_path / "m.csv").write_bytes(data)
        (tmp_path / "m.json").write_text('{"fps": 100.0}')
        assert ngio._label_cells_exact(data) is None
        frames = ngio.read_label_matrix(tmp_path / "m.csv").frames
        assert np.array_equal(frames, np.array(expected, dtype=np.uint8))

    def test_exact_layout_with_cell_2_exit_4(self, tmp_path, capsys):
        # a valid feature CSV, so not in MALFORMED_MATRICES
        (tmp_path / "m.csv").write_text("0,1\n1,2\n")
        (tmp_path / "m.json").write_text('{"fps": 100.0}')
        assert run_cli(["inspect", str(tmp_path / "m.csv")]) == 4
        err = capsys.readouterr().err
        assert "m.csv" in err and "0 or 1" in err and "Traceback" not in err


MALFORMED_MATRICES = [
    # (csv text, sidecar text, text the error must contain)
    pytest.param("0,1\n1,0,1\n", '{"fps": 100.0}', "line 2", id="ragged-row"),
    pytest.param("0,1\n\n1,x\n", '{"fps": 100.0}', "line 3", id="bad-cell"),
    pytest.param("0,1\n1;0\n", '{"fps": 100.0}', "line 2", id="bad-separator"),
    pytest.param("", '{"fps": 100.0}', "line 1", id="empty-file"),
    pytest.param("0,1\n", '{"fps": 100.0', "line 1", id="unreadable-sidecar"),
    pytest.param("0,1\n", '[100.0]', "line 1", id="non-object-sidecar"),
    pytest.param("0,1\n", '{"fps": "abc"}', "fps", id="string-fps"),
    pytest.param("0,1\n", '{"fps": [1]}', "fps", id="list-fps"),
    pytest.param("0,1\n", '{"fps": true}', "fps", id="boolean-fps"),
    pytest.param("0,1\n", '{"fps": 1' + "0" * 400 + '}', "fps", id="fps-past-float-range"),
    pytest.param("0,1\n", '{"fps": 1' + "0" * 5000 + '}', "unreadable sidecar",
                 id="integer-past-digit-limit"),
    pytest.param("0,1\n", '{"fps": 100.0, "x": ' + "[" * 100000 + "]" * 100000 + "}",
                 "unreadable sidecar", id="sidecar-nested-too-deeply"),
    pytest.param("0,1\n", '{"fps": 100.0, "num_frames": "1"}', "sidecar says '1'",
                 id="string-row-count"),
]


class TestMalformedMatrices:
    @pytest.mark.parametrize("csv_text,sidecar_text,where", MALFORMED_MATRICES)
    def test_label_matrix_exit_4(self, tmp_path, capsys, csv_text, sidecar_text, where):
        (tmp_path / "m.csv").write_text(csv_text)
        (tmp_path / "m.json").write_text(sidecar_text)
        assert run_cli(["inspect", str(tmp_path / "m.csv")]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert where in captured.err and "m." in captured.err

    @pytest.mark.parametrize("csv_text,sidecar_text,where", MALFORMED_MATRICES)
    def test_feature_matrix_format_error(self, tmp_path, csv_text, sidecar_text, where):
        (tmp_path / "f.csv").write_text(csv_text)
        (tmp_path / "f.json").write_text(sidecar_text)
        with pytest.raises(FormatError, match=where):
            ngio.read_feature_matrix(tmp_path / "f.csv")


    @pytest.mark.parametrize("key,value", [("labeling_function", 7),
                                           ("labeling_function", "z"), ("seed", "1"),
                                           ("seed", 1.5), ("seed", True)])
    def test_label_sidecar_field_type_exit_4(self, tmp_path, capsys, key, value):
        (tmp_path / "m.csv").write_text("0,1\n")
        (tmp_path / "m.json").write_text(json.dumps({"fps": 100.0, key: value}))
        assert run_cli(["inspect", str(tmp_path / "m.csv")]) == 4
        err = capsys.readouterr().err
        assert "m.json" in err and key in err and "Traceback" not in err


FUZZ_SEED = 0x5EED
FUZZ_CASES = 150
FUZZ_BYTES = b'01,\n\r -+.e9"'


def mutate(data: bytes, rng: random.Random) -> bytes:
    """Flip a bit of, insert or delete one to three bytes."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and out:
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        elif op == 1:
            byte = rng.choice(FUZZ_BYTES) if rng.random() < 0.5 else rng.randrange(256)
            out.insert(rng.randrange(len(out) + 1), byte)
        elif out:
            del out[rng.randrange(len(out))]
    return bytes(out)


class TestLabelFileFuzz:
    def test_mutated_label_files_exit_cleanly(self, tmp_path, notes_tsv, capsys):
        """Mutated label CSVs and sidecars through inspect, eval --ref and
        disagree: every exit code is 0, 2, 3 or 4, and nothing prints a
        traceback or escapes main."""
        clean = tmp_path / "clean"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "f",
                        "--seed", "9", "--out", str(clean), "--name", "r"]) == 0
        originals = {suffix: (clean / f"r{suffix}").read_bytes() for suffix in (".csv", ".json")}
        ref, mutant, out = clean / "r.csv", tmp_path / "m.csv", str(tmp_path / "out")
        commands = [["inspect", str(mutant)],
                    ["eval", "--pred", str(mutant), "--ref", str(ref), "--out", out],
                    ["disagree", "--a", str(ref), "--b", str(mutant),
                     "--annotation", str(notes_tsv), "--out", out]]
        rng = random.Random(FUZZ_SEED)
        failures = []
        for case in range(FUZZ_CASES):
            files = dict(originals)
            for suffix in rng.choice([(".csv",), (".json",), (".csv", ".json")]):
                files[suffix] = mutate(files[suffix], rng)
            for suffix, data in files.items():
                mutant.with_suffix(suffix).write_bytes(data)
            capsys.readouterr()
            for argv in commands:
                try:
                    code = run_cli(argv)
                except Exception as exc:  # an escape is a failure to report
                    code = f"{type(exc).__name__}: {exc}"
                captured = capsys.readouterr()
                if code not in (0, 2, 3, 4) or "Traceback" in captured.out + captured.err:
                    failures.append((case, argv[0], code, files[".json"]))
        assert not failures, failures[:5]


class TestSmfFuzz:
    def test_mutated_smf_files_exit_cleanly(self, tmp_path, capsys):
        """Seeded mutations of one SMF file through inspect and rasterize:
        every exit code is 0, 2, 3 or 4, and nothing prints a traceback or
        escapes main."""
        mutant, out = tmp_path / "m.mid", str(tmp_path / "out")
        commands = [["inspect", str(mutant)],
                    ["rasterize", str(mutant), "--fps", "100", "--fn", "f", "--seed", "3",
                     "--out", out]]
        base = smf.mixed_file()
        rng = random.Random(FUZZ_SEED)
        failures, codes = [], set()
        for case in range(100):
            mutant.write_bytes(smf.mutate(base, rng))
            capsys.readouterr()
            for argv in commands:
                try:
                    code = run_cli(argv)
                except Exception as exc:  # an escape is a failure to report
                    code = f"{type(exc).__name__}: {exc}"
                captured = capsys.readouterr()
                codes.add(code)
                if code not in (0, 2, 3, 4) or "Traceback" in captured.out + captured.err:
                    failures.append((case, argv[0], code, mutant.read_bytes()))
        assert not failures, failures[:5]
        assert 0 in codes and len(codes) > 1  # some cases parse, some fail


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a FormatError naming the file (exit 4)."""

    @staticmethod
    def assert_exit_4(argv, where, capsys):
        assert run_cli(argv) == 4
        err = capsys.readouterr().err
        assert where in err and "UTF-8" in err and "Traceback" not in err

    def test_annotation(self, tmp_path, capsys):
        path = tmp_path / "notes.tsv"
        path.write_bytes(TSV.encode() + b"0.5\t0.9\t6\xff\n")
        self.assert_exit_4(["rasterize", str(path), "--fps", "100", "--fn", "a",
                            "--out", str(tmp_path)], "notes.tsv: line 4", capsys)

    @pytest.mark.parametrize("broken,line", [("m.csv", 2), ("m.json", 1)])
    def test_matrix_and_sidecar(self, tmp_path, capsys, broken, line):
        where = f"{broken}: line {line}"
        (tmp_path / "m.csv").write_bytes(b"0,1\n")
        (tmp_path / "m.json").write_bytes(b'{"fps": 100.0}')
        with open(tmp_path / broken, "ab") as handle:
            handle.write(b"\xff")
        self.assert_exit_4(["inspect", str(tmp_path / "m.csv")], where, capsys)
        with pytest.raises(FormatError, match=where):
            ngio.read_feature_matrix(tmp_path / "m.csv")

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_config(self, tmp_path, capsys, command):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"seed": 1}\xff')
        self.assert_exit_4([command, "--config", str(config), "--out", str(tmp_path / "out")],
                           "cfg.json: line 1", capsys)


class TestConfigFiles:
    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("text,where", [
        ('{"seed": 1' + "0" * 5000 + "}", "unreadable config"),
        ('{"seed": ' + "[" * 100000 + "]" * 100000 + "}", "unreadable config"),
        ('{"seed": 1', "line 1"),
        ("[1, 2]", "line 1: config must hold a JSON object"),
    ], ids=["integer-past-digit-limit", "nested-too-deeply", "bad-json", "not-an-object"])
    def test_unreadable_config_exit_4(self, tmp_path, capsys, command, text, where):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "cfg.json" in captured.err and where in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,config,where", [
        ("synth", {"num_pyces": 3}, "bad synth config: "),
        ("synth", {"duration_range": 5}, "bad synth config: "),
        ("experiment", {"synth": {"num_pyces": 3}}, "bad synth config: "),
        ("experiment", {"train": {"epochz": 3}}, "bad train config: "),
        ("experiment", {"train": {"lr_schedule": [[0, -1]]}}, "bad train config: "),
        ("experiment", {"train": {"lr_schedule": [[0, 1], [3, 0]]}}, "bad train config: "),
        ("experiment", {"train": {"epochs": 12, "lr_schedule": [[-1, 0.5]]}},
         "bad train config: lr_schedule epoch -1 "),
        ("experiment", {"train": {"epochs": 12, "lr_schedule": [[99, 0.5]]}},
         "bad train config: lr_schedule epoch 99 "),
    ])
    def test_bad_config_value_exit_4(self, tmp_path, capsys, command, config, where):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err


# one wrong-typed value per config field: (section, key, value), where
# section None is the top level of an experiment config
WRONG_TYPED = [
    ("synth", "num_pieces", 5.0),
    ("synth", "piece_duration_sec", "6"),
    ("synth", "num_labels", True),
    ("synth", "num_labels", 0.5),
    ("synth", "note_rate", "2"),
    ("synth", "duration_range", [0.1]),
    ("synth", "feature_dim", 48.0),
    ("synth", "noise_sigma", None),
    ("synth", "harmonics", 1.5),
    ("synth", "seed", 1e30),
    ("train", "batch_size", 8.0),
    ("train", "learning_rate", 1e400),  # JSON Infinity
    ("train", "learning_rate", 10 ** 400),  # too large for a float
    ("train", "momentum", "0.9"),
    ("train", "lr_schedule", [[1]]),
    ("train", "epochs", 2.0),
    ("train", "context_frames", 5.0),
    ("train", "threshold", True),
    ("train", "seed", 0.5),
    (None, "fns", [1]),
    (None, "seeds", ["x"]),
    (None, "seeds", [1.5]),
    (None, "seeds", 5),
    (None, "train_fps", "x"),
    (None, "eval_fps", True),
    (None, "window_sec", "x"),
]


class TestTypedConfigValues:
    def test_table_covers_every_field(self):
        import dataclasses

        from notegrid import SynthConfig, TrainConfig
        from notegrid.cli import _EXPERIMENT_DEFAULTS

        covered = {(section, key) for section, key, _ in WRONG_TYPED}
        expected = ({("synth", f.name) for f in dataclasses.fields(SynthConfig)}
                    | {("train", f.name) for f in dataclasses.fields(TrainConfig)}
                    | {(None, key) for key in _EXPERIMENT_DEFAULTS})
        assert covered == expected

    @pytest.mark.parametrize("section,key,value", WRONG_TYPED,
                             ids=[f"{s or 'top'}-{k}-{v!r:.12}" for s, k, v in WRONG_TYPED])
    def test_wrong_type_exits_2_or_4(self, tmp_path, capsys, section, key, value):
        config = json.loads(json.dumps(EXPERIMENT_CONFIG))
        (config[section] if section else config)[key] = value
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code = run_cli(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code in (2, 4)
        assert "Traceback" not in captured.out + captured.err
        assert key in captured.err
        assert not (tmp_path / "out").exists()

    def test_int_for_float_and_null_schedule_accepted(self, tmp_path):
        config = json.loads(json.dumps(EXPERIMENT_CONFIG))
        config["synth"]["piece_duration_sec"] = 6
        config["train"].update(learning_rate=1, lr_schedule=None)
        config["window_sec"] = 30
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(path), "--fns", "a",
                        "--seeds", "1", "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("key,value", [("num_labels", True), ("seed", 1e30),
                                           ("num_labels", 0), ("duration_range", [0.1]),
                                           # past the notes-per-piece budget: these
                                           # used to generate notes without end
                                           ("piece_duration_sec", 1e30),
                                           ("note_rate", 1e308),
                                           # past the other work budgets: the first two
                                           # used to run without end, the last to exit 1
                                           # with a MemoryError for the label templates
                                           ("harmonics", 10 ** 12), ("num_pieces", 10 ** 9),
                                           ("feature_dim", 10 ** 9)])
    def test_synth_command_bad_values_exit_4(self, tmp_path, capsys, key, value):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({key: value}))
        assert run_cli(["synth", "--features", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and key in err


class TestRasterizeCommand:
    def test_writes_matrix_sidecar_manifest(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        code = run_cli(["rasterize", str(notes_tsv), "--fps", "100",
                        "--fn", "a", "--out", str(out)])
        assert code == 0
        matrix = ngio.read_label_matrix(out / "notes.csv")
        assert matrix.grid.fps == 100.0
        assert matrix.frames[10:25, 39].all()
        manifest = json.loads((out / "notes.manifest.json").read_text())
        assert manifest["command"] == "rasterize"
        assert "notes.tsv" in manifest["inputs"]

    def test_deterministic_output_bytes(self, tmp_path, notes_tsv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli(["rasterize", str(notes_tsv), "--fps", "100",
                            "--fn", "f", "--seed", "9", "--out", str(out)]) == 0
        for name in ("notes.csv", "notes.json", "notes.manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_random_fn_requires_seed(self, tmp_path, notes_tsv):
        code = run_cli(["rasterize", str(notes_tsv), "--fps", "100",
                        "--fn", "e", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_fn_is_usage_error(self, tmp_path, notes_tsv):
        code = run_cli(["rasterize", str(notes_tsv), "--fps", "100",
                        "--fn", "z", "--out", str(tmp_path)])
        assert code == 2

    def test_midi_input(self, tmp_path):
        midi_path = tmp_path / "notes.mid"
        midi_path.write_bytes(smf.simple_file([(0, 480, 60)]))
        code = run_cli(["rasterize", str(midi_path), "--fps", "100",
                        "--fn", "a", "--out", str(tmp_path / "out")])
        assert code == 0
        matrix = ngio.read_label_matrix(tmp_path / "out" / "notes.csv")
        assert matrix.frames[:50, 39].all()

    def test_parser_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.mid"
        bad.write_bytes(b"not a midi file at all")
        code = run_cli(["rasterize", str(bad), "--fps", "100", "--fn", "a",
                        "--out", str(tmp_path / "out")])
        assert code == 4
        assert "bad.mid" in capsys.readouterr().err

    def test_parse_error_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "broken.tsv"
        bad.write_text("OnsetTime OffsetTime MidiPitch\n1.0 1.0 60\n")
        code = run_cli(["rasterize", str(bad), "--fps", "100", "--fn", "a",
                        "--out", str(tmp_path / "out")])
        assert code == 4
        err = capsys.readouterr().err
        assert "broken.tsv" in err and "line 2" in err

    @pytest.mark.parametrize("line", ["nan 1.0 60", "0.5 inf 60"])
    def test_non_finite_time_exit_4(self, tmp_path, capsys, line):
        bad = tmp_path / "broken.tsv"
        bad.write_text(f"OnsetTime OffsetTime MidiPitch\n{line}\n")
        assert run_cli(["rasterize", str(bad), "--fps", "100", "--fn", "a",
                        "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "broken.tsv" in err and "line 2" in err and "Traceback" not in err

    def test_bad_extension_usage_error(self, tmp_path):
        weird = tmp_path / "notes.xyz"
        weird.write_text(TSV)
        assert run_cli(["rasterize", str(weird), "--fps", "100", "--fn", "a",
                        "--out", str(tmp_path)]) == 2


class TestEvalCommand:
    def test_pred_equals_ref_scores_one(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        code = run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--ref", str(out / "notes.csv"), "--out", str(out)])
        assert code == 0
        rows = (out / "eval.csv").read_text().splitlines()
        assert rows[0] == ngio.EVAL_CSV_HEADER
        fields = rows[1].split(",")
        assert fields[0] == "notes"
        assert float(fields[-1]) == 1.0

    def test_cross_rate_matches_library_composition(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "31.25", "--fn", "a",
                 "--out", str(out), "--name", "low"])
        code = run_cli(["eval", "--pred", str(out / "low.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out),
                        "--window-sec", "30", "--ref-fps", "100"])
        assert code == 0
        reported = json.loads((out / "eval.json").read_text())["rows"][0]

        ann = Annotation.from_events(
            [NoteEvent(0.1, 0.25, 39), NoteEvent(0.4, 0.9, 43)], num_labels=88)
        low = rasterize(ann, FrameGrid.covering(31.25, ann.duration_sec), A)
        ref = rasterize(ann, FrameGrid.covering(100.0, ann.duration_sec), A)
        expected = prf(framewise_counts(
            truncate(resample(low, ref.grid), 30.0), truncate(ref, 30.0)))
        assert reported["fmeasure"] == expected.fmeasure
        assert reported["tp"] == expected.counts.tp

    def test_zero_window_usage_error(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        code = run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--ref", str(out / "notes.csv"), "--out", str(out),
                        "--window-sec", "0"])
        assert code == 2

    def test_nan_window_usage_error(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        code = run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--ref", str(out / "notes.csv"), "--out", str(out / "eval"),
                        "--window-sec", "nan"])
        assert code == 2
        assert not (out / "eval").exists()

    def test_infinite_window_scores_whole_piece(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "31.25", "--fn", "a",
                 "--out", str(out)])
        code = run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out),
                        "--window-sec", "inf"])
        assert code == 0
        reported = json.loads((out / "eval.json").read_text())["rows"][0]
        ann = Annotation.from_events(
            [NoteEvent(0.1, 0.25, 39), NoteEvent(0.4, 0.9, 43)], num_labels=88)
        low = rasterize(ann, FrameGrid.covering(31.25, ann.duration_sec), A)
        ref = rasterize(ann, FrameGrid.covering(100.0, ann.duration_sec), A)
        expected = prf(framewise_counts(resample(low, ref.grid), ref))
        assert reported["fmeasure"] == expected.fmeasure
        assert reported["tp"] == expected.counts.tp

    def test_missing_sidecar_exit_code_and_message(self, tmp_path, capsys):
        naked = tmp_path / "naked.csv"
        naked.write_text("0,1\n1,0\n")
        code = run_cli(["eval", "--pred", str(naked), "--ref", str(naked),
                        "--out", str(tmp_path)])
        assert code == 4
        assert "naked.json" in capsys.readouterr().err

    def test_requires_ref_or_annotation(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        assert run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--out", str(out)]) == 2


class TestDisagreeCommand:
    def test_identical_matrices(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        code = run_cli(["disagree", "--a", str(out / "notes.csv"),
                        "--b", str(out / "notes.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "disagree.json").read_text())
        assert stats["differing_frames"] == 0
        assert stats["onset_shift_histogram"] == {}

    def test_shifted_matrices_have_histograms(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out), "--name", "ref"])
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "f",
                 "--seed", "3", "--out", str(out), "--name", "noisy"])
        code = run_cli(["disagree", "--a", str(out / "ref.csv"),
                        "--b", str(out / "noisy.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out)])
        assert code == 0
        stats = json.loads((out / "disagree.json").read_text())
        hist = {**stats["onset_shift_histogram"], **stats["offset_shift_histogram"]}
        assert set(hist) <= {"-1", "1"}
        assert stats["differing_frames"] > 0


class TestSynthCommand:
    def test_writes_pieces_and_manifest(self, tmp_path):
        out = tmp_path / "corpus"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"num_pieces": 3, "piece_duration_sec": 4.0,
                                      "seed": 5}))
        code = run_cli(["synth", "--config", str(config), "--out", str(out)])
        assert code == 0
        corpus = json.loads((out / "corpus.json").read_text())
        assert len(corpus["pieces"]) == 3
        assert corpus["config"]["seed"] == 5
        from notegrid import parse_tsv

        piece0 = parse_tsv((out / "piece_000.tsv").read_text(),
                           pitch_offset=21, num_labels=88)
        assert len(piece0) == corpus["pieces"][0]["num_events"]

    def test_features_flag(self, tmp_path):
        out = tmp_path / "corpus"
        code = run_cli(["synth", "--pieces", "2", "--seed", "1",
                        "--features", "--out", str(out)])
        assert code == 0
        feats = ngio.read_feature_matrix(out / "piece_000.features.csv")
        assert feats.grid.fps == 31.25

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "corpus"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"num_pieces": 9}))
        run_cli(["synth", "--config", str(config), "--pieces", "2",
                 "--out", str(out)])
        corpus = json.loads((out / "corpus.json").read_text())
        assert len(corpus["pieces"]) == 2

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"num_pyces": 3}))
        assert run_cli(["synth", "--config", str(config),
                        "--out", str(tmp_path / "x")]) == 4


EXPERIMENT_CONFIG = {
    "synth": {"num_pieces": 5, "piece_duration_sec": 6.0, "seed": 0},
    "train": {"epochs": 2, "seed": 0},
}


class TestExperimentCommand:
    def test_expected_row_count(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        out = tmp_path / "run"
        code = run_cli(["experiment", "--config", str(config), "--fns", "a,f",
                        "--seeds", "1,2,3", "--out", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "fn,seed,split,precision,recall,fmeasure"
        assert len(lines) == 1 + 6
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"a", "f"}
        assert len(summary["a"]["per_seed_f"]) == 3

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        first = tmp_path / "first"
        assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                        "--seeds", "7", "--out", str(first)]) == 0
        second = tmp_path / "second"
        assert run_cli(["experiment",
                        "--config", str(first / "experiment.manifest.json"),
                        "--out", str(second)]) == 0
        assert ((first / "results.csv").read_bytes()
                == (second / "results.csv").read_bytes())
        assert ((first / "summary.json").read_bytes()
                == (second / "summary.json").read_bytes())

    def test_divergence_exit_code_with_context(self, tmp_path, monkeypatch, capsys):
        from notegrid import DivergenceError
        from notegrid import trainer as trainer_module

        def exploding_train(train_set, valid_set, cfg, **kwargs):
            raise DivergenceError("non-finite loss at epoch 0, batch 3",
                                  epoch=0, batch=3)

        monkeypatch.setattr(trainer_module, "train", exploding_train)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        code = run_cli(["experiment", "--config", str(config), "--fns", "e",
                        "--seeds", "4", "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "fn=e" in err and "seed=4" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_real_divergence_exit_code(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        code = run_cli(["experiment", "--config", str(config), "--fns", "a,f",
                        "--seeds", "5", "--learning-rate", "1e308",
                        "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(r"error: fn=[af,]+ seed=5: non-finite loss at "
                            r"epoch \d+, batch \d+\n", err)

    @pytest.mark.parametrize("config,key", [
        ({"seed": [1]}, "seed"),
        ({"synth": 5}, "synth"),
        ({"train": [1, 2]}, "train"),
    ])
    def test_bad_config_usage_error(self, tmp_path, capsys, config, key):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(path),
                        "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert repr(key) in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_frame_rate_past_cell_budget_exit_4(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({**EXPERIMENT_CONFIG, "train_fps": 1e300}))
        assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                        "--seeds", "1", "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert " frames x 12 labels exceeds the budget of 2147483648 cells" in err
        assert len(err) < 200  # the frame count in short form, not 300 digits
        assert not (tmp_path / "out").exists()

    def test_nan_window_usage_error(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                        "--seeds", "1", "--window-sec", "nan",
                        "--out", str(tmp_path / "out")]) == 2
        assert "--window-sec" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_infinite_window_equals_whole_piece(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        results = []
        for window in ("inf", "6"):  # the pieces last 6 s
            out = tmp_path / window
            assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                            "--seeds", "1", "--window-sec", window,
                            "--out", str(out)]) == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]

    def test_empty_fns_usage_error(self, tmp_path):
        assert run_cli(["experiment", "--fns", "", "--seeds", "1",
                        "--out", str(tmp_path)]) == 2

    def test_bad_seeds_usage_error(self, tmp_path):
        assert run_cli(["experiment", "--fns", "a", "--seeds", "one",
                        "--out", str(tmp_path)]) == 2


class TestInspectCommand:
    def test_annotation_stats(self, tmp_path, notes_tsv, capsys):
        assert run_cli(["inspect", str(notes_tsv)]) == 0
        printed = capsys.readouterr().out
        assert "events: 2" in printed
        assert "violations: 0" in printed

    def test_matrix_stats(self, tmp_path, notes_tsv, capsys):
        out = tmp_path / "out"
        run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                 "--out", str(out)])
        capsys.readouterr()
        assert run_cli(["inspect", str(out / "notes.csv")]) == 0
        printed = capsys.readouterr().out
        assert "labeling_function: a" in printed
        assert "active_cells: 65" in printed  # 15 + 50 frames

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"\x00")
        assert run_cli(["inspect", str(path)]) == 2


class TestTsvExport:
    def test_synth_pieces_round_trip_through_cli_formats(self, tmp_path):
        from notegrid import SynthConfig, generate_corpus, parse_tsv

        cfg = SynthConfig(num_pieces=1, piece_duration_sec=5.0, seed=11)
        piece = generate_corpus(cfg)[0]
        text = to_tsv(piece)
        again = parse_tsv(text, pitch_offset=21, num_labels=cfg.num_labels)
        assert len(again) == len(piece)
        for ours, theirs in zip(piece.events, again.events):
            assert theirs.label == ours.label
            assert abs(theirs.onset_sec - ours.onset_sec) <= 5e-7
            assert abs(theirs.offset_sec - ours.offset_sec) <= 5e-7
