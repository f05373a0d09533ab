import argparse
import hashlib
import itertools
import json
import os
import random
import re
import shlex
import signal
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cli_cases
import notegrid
import smf
from conftest import annotation_of
from notegrid import (ContractError, EvalCounts, FeatureMatrix, FormatError, FrameGrid,
                      LabelingFunction, LabelMatrix, framewise_counts,
                      rasterize, resample, to_tsv, truncate)
from notegrid import _reprcsv
from notegrid import io as ngio
from notegrid.cli import build_parser
from notegrid.util import MASK64, brief

A = LabelingFunction.A

TSV = "OnsetTime\tOffsetTime\tMidiPitch\n0.100\t0.250\t60\n0.400\t0.900\t64\n"


def run_cli(argv: list[str], where: Path = Path(".")) -> cli_cases.Run:
    """(exit code, stdout, stderr) of one in-process run in `where`; fails
    the test if the run breaks the exit contract."""
    run = cli_cases.in_process(argv, where)
    fault = cli_cases.contract_fault(argv[0], *run)
    assert fault is None, f"notegrid {shlex.join(argv)}: {fault}\n{run.err}"
    return run


class RowOverdue(BaseException):
    """A row ran past its bound; not an Exception, so no handler in the
    program takes it for an input's error."""


@pytest.fixture
def bounded():
    """Fail a test that runs past 60 s instead of letting it run without
    end, as a budget check that stops working would."""
    def overdue(signum, frame):
        raise RowOverdue("ran past 60 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", cli_cases.CASES, ids=lambda case: case.name)
def test_entry_point_case(case, tmp_path, bounded):
    report = cli_cases.check(case, tmp_path, cli_cases.in_process)
    assert report is None, report


def writes_a_manifest(case: cli_cases.Case) -> bool:
    """Whether the row runs a command that must exit 0 and writes a manifest."""
    passing = case.commands if case.code == 0 else case.commands[:-1]
    return any(shlex.split(command)[0] in ("rasterize", "eval", "disagree", "synth", "experiment")
               for command in passing)


@pytest.mark.parametrize("case", list(filter(writes_a_manifest, cli_cases.CASES)),
                         ids=lambda case: case.name)
def test_manifest_lists_every_file_read(case, tmp_path, monkeypatch, bounded):
    """Each manifest that a row's commands write lists each file its command
    read, but the --config file, as often as it was read: by name, with the
    digest of that file."""
    read_bytes, write_manifest = Path.read_bytes, ngio.write_manifest
    reads, config, manifests = [], [], []

    def recorded_read(path):
        reads.append(path)
        return read_bytes(path)

    def checked_write(path, command, *rest):
        read = sorted([file.name, hashlib.sha256(read_bytes(file)).hexdigest()]
                      for file in reads if file not in config)
        write_manifest(path, command, *rest)  # its digests read each input again
        manifests.append((command, read, sorted(json.loads(read_bytes(path))["inputs"])))

    def run(argv, where):
        reads.clear()
        config[:] = [Path(argv[argv.index("--config") + 1])] if "--config" in argv else []
        return cli_cases.in_process(argv, where)

    monkeypatch.setattr(Path, "read_bytes", recorded_read)
    monkeypatch.setattr(ngio, "write_manifest", checked_write)
    report = cli_cases.check(case, tmp_path, run)
    assert report is None, report
    assert manifests and all(read == listed for _, read, listed in manifests), manifests


def as_module(argv: list[str], where: Path) -> tuple:
    """(exit code, stdout, stderr) of `python -m notegrid` from this source
    tree, run in `where` with every warning shown, killed after 60 s."""
    env = {**os.environ, "COLUMNS": "80", "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join([str(Path(notegrid.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "notegrid", *argv], cwd=where,
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


# the package's __main__; rows where NumPy could warn past the one error
# line; and the budgets that, before they held, ran without end
@pytest.mark.parametrize("name", ["version", "experiment-diverging-rate",
                                  "experiment-features-past-float32",
                                  "experiment-context_frames-past-budget-1e+05",
                                  "experiment-epochs-past-budget-1e+09"])
def test_entry_point_case_as_module(name, tmp_path):
    case = next(case for case in cli_cases.CASES if case.name == name)
    report = cli_cases.check(case, tmp_path, as_module)
    assert report is None, report


@pytest.fixture
def notes_tsv(tmp_path):
    path = tmp_path / "notes.tsv"
    path.write_text(TSV)
    return path


def floor_log(base: int, x: Fraction) -> int:
    """floor(log_base(x)) for x > 0, in exact arithmetic."""
    m = x.numerator.bit_length() - x.denominator.bit_length()
    m = m if base == 2 else m * 3 // 10
    while Fraction(base) ** m > x:
        m -= 1
    while Fraction(base) ** (m + 1) <= x:
        m += 1
    return m


def finite_bit_patterns(count: int, seed: int) -> np.ndarray:
    values = np.random.default_rng(seed).integers(0, 2 ** 64, count, dtype=np.uint64)
    values = values.view(np.float64)
    return values[np.isfinite(values)]


def with_neighbours(values) -> np.ndarray:
    """Each value, the doubles on either side of it, and their negatives."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    near = near[np.isfinite(near)]
    return np.concatenate([near, -near])


def as_rows(values, width: int) -> np.ndarray:
    """The values as rows of `width`, the last row padded with 0.5."""
    values = np.asarray(values, dtype=np.float64)
    padded = np.full(-(-len(values) // width) * width, 0.5)
    padded[:len(values)] = values
    return padded.reshape(-1, width)


FEATURE_CASES = {
    # three blocks and more of arbitrary finite doubles
    "random-bits": lambda: as_rows(finite_bit_patterns(30_000, 12), 48),
    "signed-zeros": lambda: np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, 0.0]]),
    # 5e-324 is the first, 8e-323 the sixteenth
    "subnormals": lambda: as_rows(np.concatenate(
        [np.arange(1, 4097, dtype=np.uint64).view(np.float64),
         -np.arange(4097, 6001, dtype=np.uint64).view(np.float64)]), 64),
    "powers-of-two": lambda: as_rows(with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))), 40),
    "powers-of-ten": lambda: as_rows(with_neighbours(
        [float(f"1e{e}") for e in range(-323, 309)]), 24),
    "integers": lambda: as_rows(with_neighbours(np.concatenate(
        [np.arange(0, 3000), 2.0 ** 53 + np.arange(-40, 41), 2.0 ** 54 + np.arange(-40, 41, 4),
         [float(10 ** e + d) for e in range(14, 24) for d in (-1, 0, 1)],
         [float(9 * 10 ** e) for e in range(14, 24)]])), 16),
    # either side of where repr switches notation, and of the next decade
    "notation-switches": lambda: as_rows(np.concatenate(
        [(np.array([x]).view(np.int64) + np.arange(-60, 61)).view(np.float64) * sign
         for x in (1e-4, 1e-3, 1e16, 1e15, 9999999999999998.0) for sign in (1, -1)]), 11),
    "normal": lambda: np.random.default_rng(1).normal(0, 1, (8, 3)),
    "features": lambda: np.random.default_rng(1).normal(0, 0.1, (300, 48)),
    "no-columns": lambda: np.empty((5, 0)),
    "one-cell": lambda: np.array([[-0.1]]),
    "one-column": lambda: np.random.default_rng(2).normal(0, 1, (300, 1)),
}


class TestMatrixIo:
    def test_round_trip_preserves_everything(self, tmp_path):
        ann = annotation_of([(0.1, 0.5, 0), (0.2, 0.8, 2)], num_labels=3)
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
        ann = annotation_of([(0.0, 0.2, 0)], num_labels=1)
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

    @pytest.mark.parametrize("case", sorted(FEATURE_CASES))
    def test_feature_round_trip(self, tmp_path, case):
        values = FEATURE_CASES[case]()
        feats = FeatureMatrix(values=values, grid=FrameGrid(fps=31.25, num_frames=len(values)))
        ngio.write_feature_matrix(feats, tmp_path / "f.csv")
        # the writer's reference: repr one cell at a time
        reference = "".join(",".join(map(repr, row)) + "\n" for row in values.tolist())
        assert (tmp_path / "f.csv").read_bytes() == reference.encode()
        again = read_feature_cells(tmp_path / "f.csv", values.shape[1])
        assert again.shape == values.shape
        assert np.array_equal(again.view(np.uint64), values.view(np.uint64))

    def test_feature_writer_floor_logs_are_exact(self):
        # each helper over the whole range its docstring states
        for q in range(-1100, 1101):
            two_q = Fraction(2) ** q
            assert _reprcsv._flog10pow2(q) == floor_log(10, two_q), q
            assert _reprcsv._flog10pow2(q, True) == floor_log(10, two_q * 3 / 4), q
        for e in range(-350, 351):
            assert _reprcsv._flog2pow10(e) == floor_log(2, Fraction(10) ** e), e

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["umask-022", "umask-027"])
    def test_written_files_take_the_umask_mode(self, tmp_path, monkeypatch, umask, mode):
        """Every output kind gets the mode open() gives a new file, and the
        package neither reads nor sets the process umask to give it."""
        def no_umask(mask):
            raise AssertionError("os.umask called")

        commands = ["synth --pieces 1 --features --out s",  # TSV, feature CSV, JSON
                    "rasterize s/piece_000.tsv --fps 100 --fn a --out r",  # label CSV
                    "eval --pred r/piece_000.csv --ref r/piece_000.csv --out e",
                    "disagree --a r/piece_000.csv --b r/piece_000.csv "
                    "--annotation s/piece_000.tsv --out d"]
        old = os.umask(umask)
        try:
            monkeypatch.setattr(os, "umask", no_umask)
            for command in commands:
                assert run_cli(shlex.split(command), tmp_path).code == 0, command
        finally:
            monkeypatch.undo()
            os.umask(old)
        written = {path.name: stat.S_IMODE(path.stat().st_mode)
                   for path in tmp_path.rglob("*") if path.is_file()}
        assert {"piece_000.tsv", "piece_000.features.csv", "piece_000.features.json",
                "corpus.json", "synth.manifest.json", "piece_000.csv", "piece_000.json",
                "eval.csv", "disagree.json"} <= set(written)
        assert set(written.values()) == {mode}, written


def read_feature_cells(path: Path, width: int) -> np.ndarray:
    """A feature CSV's cells, each read by float: the package writes
    feature CSVs and reads none back."""
    rows = [[float(cell) for cell in line.split(",")] if width else []
            for line in path.read_text().splitlines()]
    return np.array(rows, dtype=np.float64).reshape(len(rows), width)


def reference_label_csv(frames: np.ndarray) -> bytes:
    """The label CSV formatted one cell at a time: the writer's reference."""
    return ("\n".join(",".join(map(str, row)) for row in frames) + "\n").encode()


def label_frames(shape) -> np.ndarray:
    """Random 0/1 frames whose first row is all zero and last row all one."""
    frames = np.random.default_rng(shape[0]).integers(0, 2, shape, dtype=np.uint8)
    frames[0] = 0
    frames[-1] = 1
    return frames


class TestResultCsv:
    def test_one_formatting_rule(self):
        values = ["p", "", None, 0, 3, 2.0, np.float64(0.1), 1e-300, True]
        assert ngio.csv_line(values) == "p,,,0,3,2.0,0.1,1e-300,True"

    def test_write_csv_header_then_rows(self, tmp_path):
        ngio.write_csv(tmp_path / "r.csv", "x,y", [(1, 0.5), ("a", None)])
        assert (tmp_path / "r.csv").read_bytes() == b"x,y\n1,0.5\na,\n"
        ngio.write_csv(tmp_path / "empty.csv", "x,y", [])
        assert (tmp_path / "empty.csv").read_bytes() == b"x,y\n"


CODEC_SEED = 0xC0DEC
CODEC_CASES = 300
CODEC_MUTATIONS = ["flip", "insert", "delete", "swap", "crlf", "blank-line"]


def mutate_label_csv(data: bytes, op: str, rng: random.Random) -> bytes:
    """data with one mutation: a bit of a byte flipped, a byte inserted (half
    of them from the CSV's own bytes), deleted or swapped with the next,
    every \\n made \\r\\n, or a blank line added at the end."""
    out, at = bytearray(data), rng.randrange(len(data))
    if op == "flip":
        out[at] ^= 1 << rng.choice([0, 0, 0, 1, 2, 3, 4, 5, 6, 7])  # bit 0 flips a digit
    elif op == "insert":
        out.insert(rng.randrange(len(out) + 1),
                   rng.choice(b"01,\n\r") if rng.random() < 0.5 else rng.randrange(256))
    elif op == "delete":
        del out[at]
    elif op == "swap":
        at = min(at, len(out) - 2)
        out[at:at + 2] = out[at:at + 2][::-1]
    elif op == "crlf":
        return data.replace(b"\n", b"\r\n")
    else:
        return data + b"\n"
    return bytes(out)


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
        parsed = ngio._label_cells_parsed(path, path.read_bytes())
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
        (b"0,1\r1,0\r", [[0, 1], [1, 0]]),
        (b"0,1\n1\x0c,0\n", [[0, 1], [1, 0]]),
    ], ids=["crlf", "no-final-newline", "blank-lines", "spaces", "plus-sign",
            "leading-zero", "lone-cr", "form-feed-in-a-cell"])
    def test_lenient_files_read_through_line_parser(self, tmp_path, data, expected):
        (tmp_path / "m.csv").write_bytes(data)
        (tmp_path / "m.json").write_text('{"fps": 100.0}')
        assert ngio._label_cells_exact(data) is None
        frames = ngio.read_label_matrix(tmp_path / "m.csv").frames
        assert np.array_equal(frames, np.array(expected, dtype=np.uint8))

    @pytest.mark.parametrize("op", CODEC_MUTATIONS)
    @pytest.mark.parametrize("num_labels", [0, 1, 12, 88])
    def test_exact_decoder_takes_a_mutant_as_the_line_parser_or_not_at_all(
            self, tmp_path, num_labels, op):
        """Seeded one-byte and line-break mutations of written label CSVs:
        the exact decoder gives the line parser's cells or declines the file.
        A file of no labels is blank lines, which the line parser skips, so
        of it the decoder may take only newlines, one row each."""
        rng, path = random.Random(f"{CODEC_SEED}-{num_labels}-{op}"), tmp_path / "m.csv"
        for _ in range(CODEC_CASES):
            frames = np.random.default_rng(rng.randrange(2 ** 32)).integers(
                0, 2, (rng.randint(1, 6), num_labels), dtype=np.uint8)
            data = mutate_label_csv(reference_label_csv(frames), op, rng)
            exact = ngio._label_cells_exact(data)
            if exact is None:
                continue
            assert exact.dtype == np.uint8, data
            if exact.shape[1] == 0:
                assert exact.shape == (len(data), 0) and data == b"\n" * len(data), data
            else:
                path.write_bytes(data)
                assert np.array_equal(exact, ngio._label_cells_parsed(path, data)), data


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
    pytest.param("0,1\n", '{"fps": 0}', "fps must be positive", id="zero-fps"),
    pytest.param("0,1\n", '{"fps": -5}', "fps must be positive", id="negative-fps"),
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
    def test_label_matrix_exit_4(self, tmp_path, csv_text, sidecar_text, where):
        (tmp_path / "m.csv").write_text(csv_text)
        (tmp_path / "m.json").write_text(sidecar_text)
        code, _, err = run_cli(["inspect", str(tmp_path / "m.csv")])
        assert code == 4 and where in err and "m." in err

    @pytest.mark.parametrize("key,value", [("labeling_function", 7),
                                           ("labeling_function", "z"), ("seed", "1"),
                                           ("seed", 1.5), ("seed", True)])
    def test_label_sidecar_field_type_exit_4(self, tmp_path, key, value):
        (tmp_path / "m.csv").write_text("0,1\n")
        (tmp_path / "m.json").write_text(json.dumps({"fps": 100.0, key: value}))
        code, _, err = run_cli(["inspect", str(tmp_path / "m.csv")])
        assert code == 4 and "m.json" in err and key in err


FUZZ_SEED = 0x5EED
FUZZ_CASES = 150
FUZZ_BYTES = b'01,\n\r -+.e9"'


def mutate(data: bytes, rng: random.Random, alphabet: bytes = FUZZ_BYTES) -> bytes:
    """Flip a bit of, insert or delete one to three bytes; half of the
    inserted bytes come from `alphabet`."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0 and out:
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
        elif op == 1:
            byte = rng.choice(alphabet) if rng.random() < 0.5 else rng.randrange(256)
            out.insert(rng.randrange(len(out) + 1), byte)
        elif out:
            del out[rng.randrange(len(out))]
    return bytes(out)


def fuzz(cases: int, steps, where: Path) -> list:
    """Seeded cases through the CLI in-process, in `where`: for each case,
    steps(case) gives its (mutants, commands) pairs, each a {path: bytes}
    to write and then the argv lists to run. Fails the test on the runs
    that break the exit contract; else returns every run as (case, argv,
    exit code, stderr)."""
    runs, faults = [], []
    for case in range(cases):
        for mutants, commands in steps(case):
            for path, data in mutants.items():
                (where / path).write_bytes(data)
            for argv in commands:
                code, out, err = cli_cases.in_process(argv, where)
                runs.append((case, argv, code, err))
                if fault := cli_cases.contract_fault(argv[0], code, out, err):
                    faults.append((case, shlex.join(argv), fault, err[-300:]))
    assert not faults, faults[:5]
    return runs


def codes_of(runs, command: str | None = None) -> set:
    """The exit codes of the runs, or of those of one subcommand."""
    return {code for _, argv, code, _ in runs if command in (None, argv[0])}


class TestLabelFileFuzz:
    def test_mutated_label_files_exit_cleanly(self, tmp_path, notes_tsv):
        """Mutated label CSVs and sidecars through inspect, eval --ref and
        disagree: every run keeps the exit contract."""
        clean = tmp_path / "clean"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "f",
                        "--seed", "9", "--out", str(clean), "--name", "r"]).code == 0
        originals = {suffix: (clean / f"r{suffix}").read_bytes() for suffix in (".csv", ".json")}
        ref, mutant, out = clean / "r.csv", tmp_path / "m.csv", str(tmp_path / "out")
        commands = [["inspect", str(mutant)],
                    ["eval", "--pred", str(mutant), "--ref", str(ref), "--out", out],
                    ["disagree", "--a", str(ref), "--b", str(mutant),
                     "--annotation", str(notes_tsv), "--out", out]]
        rng = random.Random(FUZZ_SEED)

        def steps(case):
            files = dict(originals)
            for suffix in rng.choice([(".csv",), (".json",), (".csv", ".json")]):
                files[suffix] = mutate(files[suffix], rng)
            return [({mutant.with_suffix(suffix): data for suffix, data in files.items()},
                     commands)]

        fuzz(FUZZ_CASES, steps, tmp_path)


class TestSmfFuzz:
    def test_mutated_smf_files_exit_cleanly(self, tmp_path):
        """Seeded mutations of one SMF file through inspect and rasterize:
        every run keeps the exit contract."""
        mutant, out = tmp_path / "m.mid", str(tmp_path / "out")
        commands = [["inspect", str(mutant)],
                    ["rasterize", str(mutant), "--fps", "100", "--fn", "f", "--seed", "3",
                     "--out", out]]
        base = smf.mixed_file()
        rng = random.Random(FUZZ_SEED)
        codes = codes_of(fuzz(100, lambda case: [({mutant: smf.mutate(base, rng)}, commands)],
                              tmp_path))
        assert 0 in codes and len(codes) > 1  # some cases parse, some fail


SMF_FIELD_SEED = 0x5F1D
SMF_FIELD_CASES = 60


class TestSmfFieldFuzz:
    def test_edge_fields_exit_0_or_4(self, tmp_path):
        """SMF files with one field at an edge value, each kind of
        smf.FIELD_MUTATIONS in turn, through inspect and rasterize: each
        keeps the exit contract and exits 0 or 4."""
        mutant = tmp_path / "m.mid"
        labels = ["--pitch-offset", "60", "--num-labels", "8"]
        commands = [["inspect", str(mutant), *labels],
                    ["rasterize", str(mutant), "--fps", "1", "--fn", "f", "--seed", "3",
                     "--out", str(tmp_path / "out"), *labels]]
        kinds = smf.FIELD_MUTATIONS
        rng = random.Random(SMF_FIELD_SEED)
        runs = fuzz(SMF_FIELD_CASES, lambda case: [
            ({mutant: smf.mutate_field(kinds[case % len(kinds)], rng)}, commands)], tmp_path)
        codes = {kind: set() for kind in kinds}
        for case, _, code, _ in runs:
            codes[kinds[case % len(kinds)]].add(code)
        # a delta time at the VLQ maximum is valid, if far off; the rest are not
        assert codes == {kind: {0} if kind == "vlq-max-delta" else {4}
                         for kind in smf.FIELD_MUTATIONS}


# eight notes over 1.2 s, labels 0-7 with --pitch-offset 60 --num-labels 8
FUZZ_TSV = ("OnsetTime\tOffsetTime\tMidiPitch\n" + "".join(
    f"{0.1 * i:.3f}\t{0.1 * i + 0.45:.3f}\t{60 + (3 * i) % 8}\n" for i in range(8)))


class TestTsvFuzz:
    def test_mutated_tsv_files_exit_cleanly(self, tmp_path):
        """Seeded mutations of one TSV annotation through inspect, rasterize
        and eval --annotation: every run keeps the exit contract."""
        labels = ["--pitch-offset", "60", "--num-labels", "8"]
        clean, mutant, out = tmp_path / "clean.tsv", tmp_path / "m.tsv", str(tmp_path / "out")
        clean.write_text(FUZZ_TSV)
        assert run_cli(["rasterize", str(clean), "--fps", "10", "--fn", "a",
                        "--out", out, *labels]).code == 0
        commands = [["inspect", str(mutant), *labels],
                    ["rasterize", str(mutant), "--fps", "10", "--fn", "f", "--seed", "3",
                     "--out", out, "--name", "r", *labels],
                    ["eval", "--pred", str(tmp_path / "out" / "clean.csv"),
                     "--annotation", str(mutant), "--ref-fps", "10", "--out", out, *labels]]
        rng = random.Random(FUZZ_SEED)
        codes = codes_of(fuzz(FUZZ_CASES, lambda case: [
            ({mutant: mutate(FUZZ_TSV.encode(), rng, b"\t\n\r -+.e9na")}, commands)], tmp_path))
        assert 0 in codes and len(codes) > 1  # some cases parse, some fail


# five pieces of 2 s, functions a and e, seeds 1 and 2 in lockstep, one epoch
TINY_EXPERIMENT = {"fns": ["a", "e"], "seeds": [1, 2],
                   "synth": {"num_pieces": 5, "piece_duration_sec": 2.0},
                   "train": {"epochs": 1}}


CONFIG_BYTES = b'{}[]:,"0159-.e'


def mutate_config(config: dict, rng: random.Random) -> bytes:
    """The config as JSON, mutated: in half the cases the whole text, in
    the other half only the text of one value, so that its keys still hold."""
    if rng.random() < 0.5:
        return mutate(json.dumps(config).encode(), rng, CONFIG_BYTES)
    copy = json.loads(json.dumps(config))
    leaves = [(copy, key) for key, value in copy.items() if not isinstance(value, dict)]
    leaves += [(value, key) for value in copy.values() if isinstance(value, dict)
               for key in value]
    holder, key = rng.choice(leaves)
    value, holder[key] = json.dumps(holder[key]).encode(), "@"
    return json.dumps(copy).encode().replace(b'"@"', mutate(value, rng, CONFIG_BYTES))


class TestConfigFuzz:
    def test_mutated_configs_exit_cleanly(self, tmp_path):
        """Seeded mutations of the tiny experiment config through experiment,
        and of its synth section through synth: every run keeps the exit
        contract."""
        synth_config, config = tmp_path / "synth.json", tmp_path / "exp.json"
        commands = [["synth", "--config", str(synth_config), "--out", str(tmp_path / "s")],
                    ["experiment", "--config", str(config), "--out", str(tmp_path / "e")]]
        rng = random.Random(FUZZ_SEED)
        runs = fuzz(FUZZ_CASES, lambda case: [
            ({synth_config: mutate_config(TINY_EXPERIMENT["synth"], rng),
              config: mutate_config(TINY_EXPERIMENT, rng)}, commands)], tmp_path)
        experiment_codes = codes_of(runs, "experiment")
        assert 0 in experiment_codes and len(experiment_codes) > 1  # some run, some fail
        assert 2 not in codes_of(runs)  # a config file's fault is no usage error
# the tiny experiment with every top-level key and every synth and train
# field spelled out
FULL_TINY_EXPERIMENT = {
    "fns": ["a", "e"], "seeds": [1, 2], "train_fps": 31.25, "eval_fps": 100.0,
    "window_sec": 30.0,
    "synth": {"num_pieces": 5, "piece_duration_sec": 2.0, "num_labels": 12, "note_rate": 2.0,
              "duration_range": [0.1, 1.0], "feature_dim": 48, "noise_sigma": 0.1,
              "harmonics": 3, "seed": 0},
    "train": {"batch_size": 8, "learning_rate": 1.0, "momentum": 0.9, "lr_schedule": [[0, 1.0]],
              "epochs": 1, "context_frames": 5, "threshold": 0.5, "seed": 0},
}

CONFIG_TOKENS = ['"' + "x" * 300 + '"', '"a"', '"1"', "1e300", "-1e300", "NaN", "Infinity",
                 "-Infinity", "true", "null", "[]", "{}", "[[0]]", "0", "-1", "0.5", "3",
                 str(2 ** 63), str(2 ** 70), str(-2 ** 70), str(-10 ** 300), str(10 ** 400)]
KEY_TOKENS = [token for token in CONFIG_TOKENS if token.startswith('"')]
TOKEN_FUZZ_SEED = 0x70C3
TOKEN_FUZZ_CASES = 300


def token_config(config: dict, rng: random.Random) -> bytes:
    """The config as JSON with one of its keys or values, or of the items of
    its lists, replaced by a token: a value by one from CONFIG_TOKENS, a key
    by one from KEY_TOKENS. In a quarter of the cases two or three of them."""
    copy, slots = json.loads(json.dumps(config)), []

    def collect(holder):
        for key in (holder if isinstance(holder, dict) else range(len(holder))):
            slots.append((holder, key, False))
            if isinstance(holder, dict):
                slots.append((holder, key, True))
            if isinstance(holder[key], (dict, list)):
                collect(holder[key])

    collect(copy)
    tokens = {}
    # values before keys, so that a value's key is not yet renamed
    chosen = sorted(rng.sample(slots, rng.choice((1, 1, 1, 2, 3))), key=lambda slot: slot[2])
    for i, (holder, key, is_key) in enumerate(chosen):
        if is_key:
            holder[f"@{i}@"] = holder.pop(key)
        else:
            holder[key] = f"@{i}@"
        tokens[f'"@{i}@"'] = rng.choice(KEY_TOKENS if is_key else CONFIG_TOKENS)
    text = json.dumps(copy)
    for placeholder, token in tokens.items():
        text = text.replace(placeholder, token)
    return text.encode()


class TestConfigTokenFuzz:
    def test_configs_with_tokens_exit_cleanly(self, tmp_path):
        """The full tiny experiment config, and its synth section, with
        seeded token replacements through experiment and synth: every run
        keeps the exit contract."""
        config = tmp_path / "config.json"
        rng = random.Random(TOKEN_FUZZ_SEED)
        runs = fuzz(TOKEN_FUZZ_CASES, lambda case: [
            ({config: token_config(base, rng)},
             [[command, "--config", str(config), "--out", str(tmp_path / command)]])
            for command, base in (("synth", FULL_TINY_EXPERIMENT["synth"]),
                                  ("experiment", FULL_TINY_EXPERIMENT))], tmp_path)
        for command in ("synth", "experiment"):  # some run, some fail
            assert 0 in codes_of(runs, command) and len(codes_of(runs, command)) > 1
        assert 2 not in codes_of(runs)  # a config file's fault is no usage error
FILE_TOKENS = ["x" * 300, "1e300", "-1e300", "NaN", "Infinity", "9" * 30, "0", "-1", "1e-300"]
FILE_TOKEN_FUZZ_SEED = 0xF17E
FILE_TOKEN_FUZZ_CASES = 300


def token_file(suffix: str, data: bytes, rng: random.Random) -> bytes:
    """The file with one token from FILE_TOKENS in place of a cell of a
    TSV's note lines or a matrix CSV, or of a sidecar's value (a JSON
    string for the text token)."""
    if suffix == ".json":
        sidecar = json.loads(data)
        key, token = rng.choice(sorted(sidecar)), rng.choice(FILE_TOKENS)
        sidecar[key] = "@"
        return json.dumps(sidecar).replace('"@"', json.dumps(token) if token[0] == "x"
                                           else token).encode()
    sep = "\t" if suffix == ".tsv" else ","
    lines = [line.split(sep) for line in data.decode().splitlines()]
    row = lines[rng.randrange(suffix == ".tsv", len(lines))]  # past a TSV's header
    row[rng.randrange(len(row))] = rng.choice(FILE_TOKENS)
    return "".join(sep.join(line) + "\n" for line in lines).encode()


class TestFileTokenFuzz:
    def test_files_with_tokens_exit_cleanly(self, tmp_path):
        """A TSV annotation, and a label matrix and its sidecar, with one
        seeded token each, through inspect, rasterize, eval --annotation,
        eval --ref and disagree: every run keeps the exit contract, and a
        failing inspect or rasterize, or any failing command that reads a
        mutated annotation, names the file at fault."""
        labels = ["--pitch-offset", "60", "--num-labels", "8"]
        (tmp_path / "clean.tsv").write_text(FUZZ_TSV)
        # short relative paths in every message
        assert run_cli(["rasterize", "clean.tsv", "--fps", "10", "--fn", "f", "--seed", "3",
                        "--name", "clean", *labels], tmp_path).code == 0
        clean = {suffix: (tmp_path / f"clean{suffix}").read_bytes()
                 for suffix in (".tsv", ".csv", ".json")}
        commands = {
            ".tsv": [["inspect", "mutant.tsv", *labels],
                     ["rasterize", "mutant.tsv", "--fps", "10", "--fn", "f", "--seed", "3",
                      "--out", "out", *labels],
                     ["eval", "--pred", "clean.csv", "--annotation", "mutant.tsv",
                      "--ref-fps", "10", "--out", "out", *labels],
                     ["disagree", "--a", "clean.csv", "--b", "clean.csv",
                      "--annotation", "mutant.tsv", "--out", "out", *labels]],
            ".csv": [["inspect", "mutant.csv"],
                     ["eval", "--pred", "mutant.csv", "--ref", "clean.csv", "--out", "out"],
                     ["disagree", "--a", "clean.csv", "--b", "mutant.csv",
                      "--annotation", "clean.tsv", "--out", "out", *labels]]}
        rng = random.Random(FILE_TOKEN_FUZZ_SEED)
        suffixes = []  # the file each case mutates

        def steps(case):
            suffix = rng.choice((".tsv", ".csv", ".json"))
            suffixes.append(suffix)
            return [({f"mutant{name}": token_file(suffix, data, rng) if name == suffix else data
                      for name, data in clean.items()},
                     commands[".tsv" if suffix == ".tsv" else ".csv"])]

        runs = fuzz(FILE_TOKEN_FUZZ_CASES, steps, tmp_path)
        # a mutated annotation is named by every command that reads it
        unnamed = [(case, argv[0], err) for case, argv, code, err in runs
                   if code == 4 and (argv[0] in ("inspect", "rasterize")
                                     or suffixes[case] == ".tsv") and "mutant." not in err]
        assert not unnamed, unnamed[:5]
        assert 0 in codes_of(runs) and 4 in codes_of(runs)  # some pass, some fail


class TestNonUtf8Input:
    """A byte that is not UTF-8 is a FormatError naming the file (exit 4)."""

    @staticmethod
    def assert_exit_4(argv, where):
        code, _, err = run_cli(argv)
        assert code == 4 and where in err and "UTF-8" in err

    def test_annotation(self, tmp_path):
        path = tmp_path / "notes.tsv"
        path.write_bytes(TSV.encode() + b"0.5\t0.9\t6\xff\n")
        self.assert_exit_4(["rasterize", str(path), "--fps", "100", "--fn", "a",
                            "--out", str(tmp_path)], "notes.tsv': line 4")

    @pytest.mark.parametrize("body", [b"0,1\n1,0\n", b"0,1\r\n1,0\r\n", b"0,1\r1,0\r",
                                      b"0,1\x0c\n1,0\x0b\n"],
                             ids=["lf", "crlf", "lone-cr", "other-separators"])
    def test_line_of_a_bad_byte_counts_only_newline_breaks(self, tmp_path, body):
        (tmp_path / "m.csv").write_bytes(body + b"\xff")
        (tmp_path / "m.json").write_bytes(b'{"fps": 100.0}')
        self.assert_exit_4(["inspect", str(tmp_path / "m.csv")], "m.csv': line 3")

    @pytest.mark.parametrize("broken,line", [("m.csv", 2), ("m.json", 1)])
    def test_matrix_and_sidecar(self, tmp_path, broken, line):
        where = f"{broken}': line {line}"  # after the path, which brief may cut
        (tmp_path / "m.csv").write_bytes(b"0,1\n")
        (tmp_path / "m.json").write_bytes(b'{"fps": 100.0}')
        with open(tmp_path / broken, "ab") as handle:
            handle.write(b"\xff")
        self.assert_exit_4(["inspect", str(tmp_path / "m.csv")], where)

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_config(self, tmp_path, command):
        config = tmp_path / "cfg.json"
        config.write_bytes(b'{"seed": 1}\xff')
        self.assert_exit_4([command, "--config", str(config), "--out", str(tmp_path / "out")],
                           "cfg.json': line 1")


class TestConfigFiles:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_json_errors_name_the_line_that_split_lines_counts(self, tmp_path, newline):
        # json itself counts lines at \n only
        path = tmp_path / "cfg.json"
        path.write_bytes(newline.join(["{", '"fps": 1,', "  ,}"]).encode())
        with pytest.raises(FormatError) as info:
            ngio.read_json_object(path, "config")
        assert str(info.value) == (f"{brief(path)}: line 3 column 3: unreadable config: "
                                   "Expecting property name enclosed in double quotes")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_non_object_value_named_at_the_line_where_it_starts(self, tmp_path, newline):
        path = tmp_path / "side.json"
        path.write_bytes(newline.join(["", " ", "\t[1,", "2]", ""]).encode())
        with pytest.raises(FormatError) as info:
            ngio.read_json_object(path, "sidecar")
        assert str(info.value) == f"{brief(path)}: line 3: sidecar must hold a JSON object"

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    @pytest.mark.parametrize("text,where", [
        ('{"seed": 1' + "0" * 5000 + "}", "unreadable config"),
        ('{"seed": ' + "[" * 100000 + "]" * 100000 + "}", "unreadable config"),
        ('{"seed": 1', "line 1"),
        ('{\r"seed": 1,\r,}', "cfg.json': line 3 column 1: unreadable config"),
        ("[1, 2]", "line 1: config must hold a JSON object"),
    ], ids=["integer-past-digit-limit", "nested-too-deeply", "bad-json", "bad-json-lone-cr",
            "not-an-object"])
    def test_unreadable_config_exit_4(self, tmp_path, command, text, where):
        config = tmp_path / "cfg.json"
        config.write_bytes(text.encode())
        code, _, err = run_cli([command, "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 4 and "cfg.json" in err and where in err
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
    def test_bad_config_value_exit_4(self, tmp_path, command, config, where):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli([command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 4 and err.startswith("error: 'cfg.json': " + where)


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
    # integers too large for a float: these used to end in an OverflowError
    (None, "train_fps", 10 ** 400),
    (None, "eval_fps", 10 ** 400),
    (None, "window_sec", 10 ** 400),
    (None, "synth", [1]),
    (None, "train", "x"),
]

# each synth and train row of WRONG_TYPED, passed to the class directly, and
# values a library caller could pass that used to be accepted (context_frames
# 5.0, seed True) or to fail later with a TypeError or an OverflowError
LIBRARY_WRONG_TYPED = [row for row in WRONG_TYPED if row[0]] + [
    ("train", "batch_size", 2.5), ("synth", "num_pieces", 2.5),
    ("train", "learning_rate", 10 ** 400), ("train", "lr_schedule", ((0, 10 ** 400),)),
    ("synth", "feature_dim", "48"), ("train", "context_frames", 5.0), ("train", "seed", True),
    ("train", "momentum", np.float32(0.9)), ("synth", "duration_range", 5),
]

# values of the right type that TrainConfig rejects, one per check
TRAIN_REJECTED = [("batch_size", 0), ("context_frames", 4), ("threshold", 0.0),
                  ("threshold", 1.0), ("momentum", -0.1), ("momentum", 1.0), ("epochs", -1)]


class TestTypedConfigValues:
    def test_table_covers_every_field(self):
        import dataclasses

        from notegrid import SynthConfig, TrainConfig
        from notegrid.cli import _ExperimentConfig

        covered = {(section, key) for section, key, _ in WRONG_TYPED}
        expected = ({("synth", f.name) for f in dataclasses.fields(SynthConfig)}
                    | {("train", f.name) for f in dataclasses.fields(TrainConfig)}
                    | {(None, f.name) for f in dataclasses.fields(_ExperimentConfig)})
        assert covered == expected

    @pytest.mark.parametrize("section,key,value", WRONG_TYPED,
                             ids=[f"{s or 'top'}-{k}-{v!r:.12}" for s, k, v in WRONG_TYPED])
    def test_wrong_type_exits_2_or_4(self, tmp_path, section, key, value):
        config = json.loads(json.dumps(EXPERIMENT_CONFIG))
        (config[section] if section else config)[key] = value
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(["experiment", "--config", str(path),
                                "--out", str(tmp_path / "out")])
        assert code in (2, 4) and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value", LIBRARY_WRONG_TYPED,
                             ids=[f"{s}-{k}-{v!r:.12}" for s, k, v in LIBRARY_WRONG_TYPED])
    def test_wrong_type_rejected_by_the_class(self, section, key, value):
        from notegrid import SynthConfig, TrainConfig

        cls = SynthConfig if section == "synth" else TrainConfig
        with pytest.raises(ContractError, match=f"^{key} (must be|=) "):
            cls(**{key: value})

    def test_one_seed_rule(self, tmp_path):
        """A seed below 2**64 in size is taken, a larger one rejected, by the
        configs as by a label sidecar."""
        from notegrid import SynthConfig, TrainConfig

        (tmp_path / "m.csv").write_text("0,1\n")
        for seed in (MASK64, -MASK64, MASK64 + 1, -MASK64 - 1):
            (tmp_path / "m.json").write_text(json.dumps({"fps": 100.0, "seed": seed}))
            if abs(seed) <= MASK64:
                assert SynthConfig(seed=seed).seed == TrainConfig(seed=seed).seed == seed
                assert ngio.read_label_matrix(tmp_path / "m.csv").seed == seed
                continue
            for cls in (SynthConfig, TrainConfig):
                with pytest.raises(ContractError, match=r"^seed must be an integer below "
                                                        r"2\*\*64 in size, got -?1\.84e\+19$"):
                    cls(seed=seed)
            with pytest.raises(FormatError, match="m.json': seed must be an integer below"):
                ngio.read_label_matrix(tmp_path / "m.csv")

    def test_numpy_integers_accepted(self):
        from notegrid import SynthConfig, TrainConfig, generate_corpus

        cfg = TrainConfig(epochs=np.int64(3), lr_schedule=[[np.int64(1), 0.5]])
        assert cfg.epochs == 3 and cfg.lr_schedule == ((1, 0.5),)
        assert type(cfg.lr_schedule[0][0]) is int
        synth_cfg = SynthConfig(num_pieces=np.int64(2), harmonics=np.uint8(2), seed=np.int64(7))
        assert generate_corpus(synth_cfg) == generate_corpus(
            SynthConfig(num_pieces=2, harmonics=2, seed=7))

    @pytest.mark.parametrize("key", ["train_fps", "eval_fps", "window_sec"])
    @pytest.mark.parametrize("value", [10 ** 400, float("nan")], ids=["1e400", "nan"])
    def test_rate_past_float_range_or_nan_names_the_file(self, tmp_path, key, value):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["experiment", "--config", str(path),
                                "--out", str(tmp_path / "out")])
        if value == 10 ** 400:  # not a float, so the key's type rejects it
            want = "float, got 1.00e+400"
        else:  # the key's rule rejects NaN
            want = "positive, got nan" if key == "window_sec" else "positive and finite, got nan"
        assert (code, err) == (4, f"error: 'exp.json': bad experiment config: {key} must be "
                                  f"{want}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", TRAIN_REJECTED,
                             ids=[f"{k}-{v}" for k, v in TRAIN_REJECTED])
    def test_train_config_rejections_exit_4(self, tmp_path, key, value):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"train": {key: value}}))
        code, _, err = run_cli(["experiment", "--config", str(path),
                                "--out", str(tmp_path / "out")])
        assert code == 4 and err.startswith(f"error: 'exp.json': bad train config: {key} must")
        assert not (tmp_path / "out").exists()

    def test_int_for_float_and_null_schedule_accepted(self, tmp_path):
        config = json.loads(json.dumps(EXPERIMENT_CONFIG))
        config["synth"]["piece_duration_sec"] = 6
        config["train"].update(learning_rate=1, lr_schedule=None)
        config["window_sec"] = 30
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert run_cli(["experiment", "--config", str(path), "--fns", "a",
                        "--seeds", "1", "--out", str(tmp_path / "out")]).code == 0

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
    def test_synth_command_bad_values_exit_4(self, tmp_path, key, value):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps({key: value}))
        code, _, err = run_cli(["synth", "--features", "--config", str(path),
                                "--out", str(tmp_path / "out")])
        assert code == 4 and key in err

    # an integer of 400 digits used to be echoed in full on the error line
    @pytest.mark.parametrize("section,key,value", [
        (None, "eval_fps", 10 ** 400), (None, "train_fps", "x" * 1000),
        ("synth", "num_pieces", 10 ** 400), ("synth", "feature_dim", 10 ** 400),
        ("synth", "num_labels", 10 ** 400), ("synth", "harmonics", 10 ** 400),
        ("train", "epochs", 10 ** 400), ("train", "context_frames", 10 ** 400),
        ("train", "context_frames", 10 ** 400 + 1), ("train", "learning_rate", 10 ** 400),
        ("train", "seed", "x" * 1000)],
        ids=lambda v: f"{v!r:.12}")
    def test_huge_value_echoed_briefly(self, tmp_path, section, key, value):
        config = {section: {key: value}} if section else {key: value}
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(["experiment", "--config", str(path),
                                "--out", str(tmp_path / "out")])
        assert code in (2, 4) and key in err.splitlines()[-1]


def walked_arguments() -> dict[tuple[str, str], tuple]:
    """{(subcommand, flag): (its parser, action)} of each argument the walk
    gives a value: one that takes a value, a positional by its name, and an
    option that takes none as "option=", where subcommand "" is notegrid
    itself."""
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    walked = {}
    for name, sub in {"": parser, **subparsers.choices}.items():
        for action in sub._actions:
            if action.nargs == 0:
                walked[name, action.option_strings[0] + "="] = sub, action
            elif name:  # notegrid's own is the command
                walked[name, (action.option_strings or [action.dest])[0]] = sub, action
    return walked


def test_contract_knows_every_command():
    assert sorted({command for command, _ in walked_arguments()}) == sorted(
        ["", *cli_cases.COMMANDS])


# each subcommand's positional, or None, and options: valid, and their files
# are in WALK_FILES
VALID = {"": (None, {}),
         "rasterize": ("notes.tsv", {"--fps": "100", "--fn": "a"}),
         "eval": (None, {"--pred": "m.csv", "--ref": "m.csv"}),
         "disagree": (None, {"--a": "m.csv", "--b": "m.csv", "--annotation": "notes.tsv"}),
         "synth": (None, {"--pieces": "1"}),
         "experiment": (None, {"--config": "tiny.json"}),
         "inspect": ("notes.tsv", {})}
WALK_FILES = {**{name: text.encode() for name, text in cli_cases.NOTES.items()},
              "m.csv": b"0,1\n1,0\n", "m.json": b'{"fps": 100.0}',
              "tiny.json": json.dumps({"fns": ["a"], "seeds": [1], "train": {"epochs": 0},
                                       "synth": {"num_pieces": 5,
                                                 "piece_duration_sec": 1.0}}).encode()}
POOL = ["", "z" * 300, "nan", "inf", "0", "-1", "1" + "0" * 400, "\u00e9" * 150]


def walk_argv(command: str, flag: str, value: str) -> list[str]:
    """The subcommand's valid arguments with `value` for the flag's own, less
    the flags it excludes; an "option=" flag takes it after its "="."""
    sub, action = walked_arguments()[command, flag]
    positional, options = VALID[command]
    if not action.option_strings:
        return [command, value, *itertools.chain(*options.items())]
    rivals = {option for group in sub._mutually_exclusive_groups
              if action in group._group_actions
              for other in group._group_actions for option in other.option_strings}
    kept = {other: text for other, text in options.items() if other not in rivals}
    given = [flag + value] if flag.endswith("=") else [flag, value]
    return [*([command] if command else []), *([positional] if positional else []),
            *itertools.chain(*kept.items()), *given]


@pytest.mark.parametrize("command, flag", walked_arguments())
def test_argv_walk(command, flag, tmp_path):
    """Each value of the pool, given to an argument that takes a value, or
    after the "=" of an option that takes none, keeps the exit contract; a
    usage error names the argument and writes nothing, and an empty value
    is one. A new argument is walked with no edit here."""
    _, action = walked_arguments()[command, flag]
    name = "/".join(action.option_strings) or action.dest  # as argparse names it
    for at, value in enumerate(POOL):
        where = tmp_path / str(at)
        where.mkdir()
        for file, data in WALK_FILES.items():
            (where / file).write_bytes(data)
        argv = walk_argv(command, flag, value)
        code, _, err = run_cli(argv, where)
        if code == 2:
            assert f"argument {name}: " in err.splitlines()[-1], (argv, err)
            assert {path.name: path.read_bytes() for path in where.iterdir()} == WALK_FILES
        assert code == 2 or value, (argv, code)


def long_options() -> dict[tuple[str, str], argparse.ArgumentParser]:
    """{(subcommand, long option): the subcommand's parser} of every
    subcommand's long option that has a proper prefix past "--"."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {(name, option): sub for name, sub in subparsers.choices.items()
            for option in sub._option_string_actions
            if option.startswith("--") and len(option) > 3}


@pytest.mark.parametrize("command, option", long_options())
def test_option_prefix_walk(command, option, tmp_path):
    """Each proper prefix of a long option that is no option of its
    subcommand, alone and with "=1", is an unrecognized argument after the
    subcommand's valid arguments: exit 2, and nothing is written. argparse
    took one for the option it begins, or called it ambiguous. A new option
    is walked with no edit here."""
    sub = long_options()[command, option]
    positional, options = VALID[command]
    valid = [command, *([positional] if positional else []), *itertools.chain(*options.items())]
    for file, data in WALK_FILES.items():
        (tmp_path / file).write_bytes(data)
    prefixes = [option[:end] for end in range(3, len(option))
                if option[:end] not in sub._option_string_actions]
    for given in itertools.chain(*((prefix, prefix + "=1") for prefix in prefixes)):
        code, _, err = run_cli([*valid, given], tmp_path)
        assert (code, err.splitlines()[-1]) == (
            2, f"notegrid {command}: error: unrecognized arguments: {brief(given)}"), given
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == WALK_FILES


class TestParserReuse:
    """main parses with one parser per process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_flag_takes_a_bare_number_type(self):
        # argparse's error for a value that int or float rejects echoes it whole
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        bare = [f"{name} {action.dest}" for name, sub in subparsers.choices.items()
                for action in sub._actions if action.type in (int, float)]
        assert bare == []

    def test_option_left_out_gets_its_default(self, tmp_path, notes_tsv):
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--seed", "3", "--name", "named", "--pitch-offset", "20",
                        "--out", str(tmp_path / "first")]).code == 0
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--out", str(tmp_path / "second")]).code == 0
        manifest = json.loads((tmp_path / "second" / "notes.manifest.json").read_text())
        config = manifest["config"]
        assert (config["name"], config["seed"], config["pitch_offset"]) == ("notes", 0, 21)

    def test_usage_error_leaves_the_next_call_unchanged(self, tmp_path, notes_tsv):
        argv = ["rasterize", str(notes_tsv), "--fps", "100", "--fn", "e", "--seed", "3"]
        assert run_cli(argv + ["--out", str(tmp_path / "before")]).code == 0
        # one error from a flag's type, one from the handler's parser.error
        bad = ["--name", "bad", "--out", str(tmp_path / "bad")]
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "-1", "--fn", "f", "--seed", "9",
                        *bad]).code == 2
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "50", "--fn", "f", *bad]).code == 2
        assert run_cli(argv + ["--out", str(tmp_path / "after")]).code == 0
        assert not (tmp_path / "bad").exists()
        for name in ("notes.csv", "notes.json", "notes.manifest.json"):
            assert ((tmp_path / "before" / name).read_bytes()
                    == (tmp_path / "after" / name).read_bytes())


class TestUsageErrors:
    """A usage error found by a handler prints its own subcommand's usage."""

    # a rate from the file names the file and its key; a flag's rate
    # overrides a bad one in the file
    @pytest.mark.parametrize("key,value,shown", [
        ("train_fps", -1, "-1"), ("eval_fps", 0.0, "0.0"), ("eval_fps", 0, "0")])
    def test_config_rate_names_file_and_key(self, tmp_path, key, value, shown):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**EXPERIMENT_CONFIG, key: value}))
        argv = ["experiment", "--config", str(config), "--fns", "a", "--seeds", "1",
                "--out", str(tmp_path / "out")]
        code, _, err = run_cli(argv)
        assert (code, err) == (4, f"error: 'cfg.json': bad experiment config: {key} must be "
                                  f"positive and finite, got {shown}\n")
        assert not (tmp_path / "out").exists()
        flag = "--" + key.replace("_", "-")
        assert run_cli([*argv, flag, "31.25" if key == "train_fps" else "100"]).code == 0


class TestOutputSet:
    def test_a_failed_block_unlinks_what_it_wrote(self, tmp_path):
        # a file written in the block, new or replacing an earlier version,
        # is gone when the block raises; a directory it made stays
        before, new = tmp_path / "before.txt", tmp_path / "sub" / "new.txt"
        ngio.atomic_write_text(before, "kept")
        with pytest.raises(KeyError), ngio.output_set():
            ngio.atomic_write_text(new, "new")
            ngio.atomic_write_text(before, "replaced")
            raise KeyError
        assert not before.exists() and not new.exists()
        assert [path.name for path in tmp_path.iterdir()] == ["sub"]

    def test_a_block_that_ends_keeps_its_files(self, tmp_path):
        with ngio.output_set():
            ngio.atomic_write_text(tmp_path / "a.txt", "a")
        ngio.atomic_write_text(tmp_path / "b.txt", "b")
        with pytest.raises(KeyError), ngio.output_set():
            raise KeyError
        assert sorted(path.read_text() for path in tmp_path.iterdir()) == ["a", "b"]


class TestRasterizeCommand:
    def test_writes_matrix_sidecar_manifest(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100",
                        "--fn", "a", "--out", str(out)]).code == 0
        matrix = ngio.read_label_matrix(out / "notes.csv")
        assert matrix.grid.fps == 100.0
        assert matrix.frames[10:25, 39].all()
        manifest = json.loads((out / "notes.manifest.json").read_text())
        assert manifest["command"] == "rasterize"
        digest = hashlib.sha256(notes_tsv.read_bytes()).hexdigest()
        assert manifest["inputs"] == [["notes.tsv", digest]]

    def test_midi_input(self, tmp_path):
        midi_path = tmp_path / "notes.mid"
        midi_path.write_bytes(smf.simple_file([(0, 480, 60)]))
        assert run_cli(["rasterize", str(midi_path), "--fps", "100",
                        "--fn", "a", "--out", str(tmp_path / "out")]).code == 0
        matrix = ngio.read_label_matrix(tmp_path / "out" / "notes.csv")
        assert matrix.frames[:50, 39].all()

    def test_huge_negative_label_count_echoed_briefly(self, tmp_path):
        empty = tmp_path / "empty.tsv"
        empty.write_text("OnsetTime\tOffsetTime\tMidiPitch\n")
        code, _, err = run_cli(["rasterize", str(empty), "--fps", "100", "--fn", "a",
                                "--num-labels", str(-10 ** 400), "--out", str(tmp_path / "out")])
        assert (code, err) == (4, "error: 'empty.tsv': num_labels must be >= 0, got -1.00e+400\n")
        code, out, _ = run_cli(["inspect", str(empty), "--num-labels", str(-10 ** 400)])
        assert code == 0 and "  num_labels must be positive, got -1.00e+400\n" in out


def eval_row(out: Path) -> dict:
    """eval.csv's one row, keyed by EVAL_CSV_HEADER's names with "fn_" for
    the second "fn", the false negatives, and its counts and scores read
    back as numbers."""
    keys = ["piece", "fn", "seed", "fps", "tp", "fp", "fn_", "precision", "recall", "fmeasure"]
    row = dict(zip(keys, (out / "eval.csv").read_text().splitlines()[1].split(",")))
    return {**row, **{key: int(row[key]) for key in ("tp", "fp", "fn_")},
            **{key: float(row[key]) for key in ("precision", "recall", "fmeasure")}}


class TestEvalCommand:
    def test_pred_equals_ref_scores_one(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--out", str(out)]).code == 0
        assert run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--ref", str(out / "notes.csv"), "--out", str(out)]).code == 0
        rows = (out / "eval.csv").read_text().splitlines()
        assert rows[0] == ngio.EVAL_CSV_HEADER
        fields = rows[1].split(",")
        assert fields[0] == "notes"
        assert float(fields[-1]) == 1.0

    @pytest.mark.parametrize("reference", ["--ref", "--annotation"])
    def test_csv_and_stdout_hold_one_record(self, tmp_path, notes_tsv, reference):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "31.25", "--fn", "e",
                        "--seed", "4", "--out", str(out)]).code == 0
        source = str(out / "notes.csv") if reference == "--ref" else str(notes_tsv)
        code, stdout, _ = run_cli(["eval", "--pred", str(out / "notes.csv"), reference, source,
                                   "--ref-fps", "31.25", "--out", str(out)])
        text = (out / "eval.csv").read_text()
        assert code == 0 and stdout == text
        header, line = text.splitlines()
        assert header == ngio.EVAL_CSV_HEADER
        # the row's scores are those of its counts, in full precision
        fields = line.split(",")
        counts = EvalCounts(*map(int, fields[4:7]))
        assert fields[7:] == [repr(counts.precision), repr(counts.recall),
                              repr(counts.fmeasure)]
        assert line.startswith("notes,e,4,31.25,")
        assert sorted(path.name for path in out.iterdir()) == [
            "eval.csv", "eval.manifest.json", "notes.csv", "notes.json", "notes.manifest.json"]

    def test_unlabelled_prediction_has_empty_fn_and_seed(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--out", str(out)]).code == 0
        sidecar = json.loads((out / "notes.json").read_text())
        (out / "notes.json").write_text(json.dumps(
            {**sidecar, "labeling_function": None, "seed": None}))
        assert run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--ref", str(out / "notes.csv"), "--out", str(out)]).code == 0
        assert (out / "eval.csv").read_text().splitlines()[1] == (
            "notes,,,100.0,65,0,0,1.0,1.0,1.0")

    def test_cross_rate_matches_library_composition(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "31.25", "--fn", "a",
                        "--out", str(out), "--name", "low"]).code == 0
        assert run_cli(["eval", "--pred", str(out / "low.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out),
                        "--window-sec", "30", "--ref-fps", "100"]).code == 0
        reported = eval_row(out)

        ann = annotation_of([(0.1, 0.25, 39), (0.4, 0.9, 43)], num_labels=88)
        low = rasterize(ann, FrameGrid.covering(31.25, ann.duration_sec), A)
        ref = rasterize(ann, FrameGrid.covering(100.0, ann.duration_sec), A)
        expected = framewise_counts(
            truncate(resample(low, ref.grid), 30.0), truncate(ref, 30.0))
        assert reported["fmeasure"] == expected.fmeasure
        assert reported["tp"] == expected.tp

    def test_infinite_window_scores_whole_piece(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "31.25", "--fn", "a",
                        "--out", str(out)]).code == 0
        assert run_cli(["eval", "--pred", str(out / "notes.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out),
                        "--window-sec", "inf"]).code == 0
        reported = eval_row(out)
        ann = annotation_of([(0.1, 0.25, 39), (0.4, 0.9, 43)], num_labels=88)
        low = rasterize(ann, FrameGrid.covering(31.25, ann.duration_sec), A)
        ref = rasterize(ann, FrameGrid.covering(100.0, ann.duration_sec), A)
        expected = framewise_counts(resample(low, ref.grid), ref)
        assert reported["fmeasure"] == expected.fmeasure
        assert reported["tp"] == expected.tp


class TestDisagreeCommand:
    def test_identical_matrices(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--out", str(out)]).code == 0
        assert run_cli(["disagree", "--a", str(out / "notes.csv"),
                        "--b", str(out / "notes.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out)]).code == 0
        stats = json.loads((out / "disagree.json").read_text())
        assert stats["differing_frames"] == 0
        assert stats["onset_shift_histogram"] == {}

    def test_shifted_matrices_have_histograms(self, tmp_path, notes_tsv):
        out = tmp_path / "out"
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "a",
                        "--out", str(out), "--name", "ref"]).code == 0
        assert run_cli(["rasterize", str(notes_tsv), "--fps", "100", "--fn", "f",
                        "--seed", "3", "--out", str(out), "--name", "noisy"]).code == 0
        assert run_cli(["disagree", "--a", str(out / "ref.csv"),
                        "--b", str(out / "noisy.csv"),
                        "--annotation", str(notes_tsv), "--out", str(out)]).code == 0
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
        assert run_cli(["synth", "--config", str(config), "--out", str(out)]).code == 0
        corpus = json.loads((out / "corpus.json").read_text())
        assert len(corpus["pieces"]) == 3
        assert [sorted(piece) for piece in corpus["pieces"]] == [["id", "num_events", "path"]] * 3
        # the resolved config is the manifest's alone
        assert "config" not in corpus
        manifest = json.loads((out / "synth.manifest.json").read_text())
        assert manifest["config"]["synth"]["seed"] == 5
        from notegrid import parse_tsv

        piece0 = parse_tsv((out / "piece_000.tsv").read_text(),
                           pitch_offset=21, num_labels=88)
        assert len(piece0) == corpus["pieces"][0]["num_events"]

    def test_features_flag(self, tmp_path):
        out = tmp_path / "corpus"
        assert run_cli(["synth", "--pieces", "2", "--seed", "1",
                        "--features", "--out", str(out)]).code == 0
        side = json.loads((out / "piece_000.features.json").read_text())
        feats = read_feature_cells(out / "piece_000.features.csv", side["feature_dim"])
        assert side["fps"] == 31.25 and feats.shape == (side["num_frames"], 48)

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "corpus"
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"num_pieces": 9}))
        assert run_cli(["synth", "--config", str(config), "--pieces", "2",
                        "--out", str(out)]).code == 0
        corpus = json.loads((out / "corpus.json").read_text())
        assert len(corpus["pieces"]) == 2

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        flags = ["--features", "--fps", "50"]
        assert run_cli(["synth", "--pieces", "2", "--seed", "4", *flags,
                        "--out", str(first)]).code == 0
        assert run_cli(["synth", "--config", str(first / "synth.manifest.json"), *flags,
                        "--out", str(second)]).code == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        assert "piece_001.features.csv" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


EXPERIMENT_CONFIG = {
    "synth": {"num_pieces": 5, "piece_duration_sec": 6.0, "seed": 0},
    "train": {"epochs": 2, "seed": 0},
}


class TestExperimentCommand:
    def test_expected_row_count(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        out = tmp_path / "run"
        assert run_cli(["experiment", "--config", str(config), "--fns", "a,f",
                        "--seeds", "1,2,3", "--out", str(out)]).code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "fn,seed,split,precision,recall,fmeasure"
        assert len(lines) == 1 + 6
        assert {line.split(",")[2] for line in lines[1:]} == {"test"}
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"a", "f"}
        assert len(summary["a"]["per_seed_f"]) == 3

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        first = tmp_path / "first"
        assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                        "--seeds", "7", "--out", str(first)]).code == 0
        second = tmp_path / "second"
        assert run_cli(["experiment",
                        "--config", str(first / "experiment.manifest.json"),
                        "--out", str(second)]).code == 0
        assert ((first / "results.csv").read_bytes()
                == (second / "results.csv").read_bytes())
        assert ((first / "summary.json").read_bytes()
                == (second / "summary.json").read_bytes())

    def test_divergence_exit_code_with_context(self, tmp_path, monkeypatch):
        from notegrid import DivergenceError
        from notegrid import trainer as trainer_module

        def exploding_kernel(frames, width, starts, signs, seeds, cfg, models):
            return None, None, (0, DivergenceError("non-finite loss at epoch 0, batch 3",
                                                   epoch=0, batch=3, models=(0,)))

        monkeypatch.setattr(trainer_module, "_train_lockstep", exploding_kernel)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        code, _, err = run_cli(["experiment", "--config", str(config), "--fns", "e",
                                "--seeds", "4", "--out", str(tmp_path / "out")])
        assert code == 3 and "fn=e" in err and "seed=4" in err

    def test_real_divergence_exit_code(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        code, _, err = run_cli(["experiment", "--config", str(config), "--fns", "a,f",
                                "--seeds", "5", "--learning-rate", "1e308",
                                "--out", str(tmp_path / "out")])
        assert code == 3 and re.fullmatch(r"error: fn=[af,]+ seed=5: non-finite loss at "
                                          r"epoch \d+, batch \d+\n", err)

    @pytest.mark.parametrize("option,value,message", [
        ("--window-sec", "0.001", "a window of 0.001 s holds no frame at 100.0 fps"),
        ("--eval-fps", "1e-300", "a window of 30.0 s holds no frame at 1e-300 fps"),
    ], ids=["window-sec", "eval-fps"])
    def test_window_of_no_frame_exit_4_before_generating(self, tmp_path, monkeypatch,
                                                         option, value, message):
        from notegrid import trainer as trainer_module

        def no_corpus(cfg):
            raise AssertionError("generated a corpus")

        monkeypatch.setattr(trainer_module, "generate_corpus", no_corpus)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        code, _, err = run_cli(["experiment", "--config", str(config), "--fns", "a",
                                "--seeds", "1", option, value, "--out", str(tmp_path / "out")])
        assert (code, err) == (4, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_infinite_window_equals_whole_piece(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        results = []
        for window in ("inf", "6"):  # the pieces last 6 s
            out = tmp_path / window
            assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                            "--seeds", "1", "--window-sec", window,
                            "--out", str(out)]).code == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]

    def test_infinite_window_manifest_reruns(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(EXPERIMENT_CONFIG))
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(["experiment", "--config", str(config), "--fns", "a",
                        "--seeds", "1", "--window-sec", "inf", "--out", str(first)]).code == 0
        manifest = first / "experiment.manifest.json"
        assert '"window_sec": Infinity' in manifest.read_text()
        assert run_cli(["experiment", "--config", str(manifest),
                        "--out", str(second)]).code == 0
        for name in ("results.csv", "summary.json", "experiment.manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_rate_and_epoch_flags_reach_the_manifest(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(TINY_EXPERIMENT))
        out = tmp_path / "out"
        assert run_cli(["experiment", "--config", str(config), "--fns", "a", "--seeds", "1",
                        "--train-fps", "25", "--epochs", "2", "--out", str(out)]).code == 0
        resolved = json.loads((out / "experiment.manifest.json").read_text())["config"]
        assert resolved["train_fps"] == 25.0
        assert resolved["train"]["epochs"] == 2

    def test_flags_do_not_reach_the_next_calls_defaults(self, tmp_path):
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"fns": ["a"], "seeds": [1], "synth": {
            "num_pieces": 5, "piece_duration_sec": 2.0}}))
        for name, flags in (("first", ["--epochs", "1", "--learning-rate", "0.5"]),
                            ("second", [])):
            assert run_cli(["experiment", "--config", str(config), *flags,
                            "--out", str(tmp_path / name)]).code == 0
        manifest = tmp_path / "second" / "experiment.manifest.json"
        resolved = json.loads(manifest.read_text())["config"]
        assert (resolved["train"]["epochs"], resolved["train"]["learning_rate"]) == (12, 1.0)

    def test_batch_past_float_range_trains_on_the_whole_set(self, tmp_path):
        # a batch size past float range used to exit 1 with an OverflowError;
        # like any batch larger than the training set, it trains on the set
        results = []
        for batch_size in (10 ** 400, 10 ** 6):
            config = json.loads(json.dumps(TINY_EXPERIMENT))
            config["train"]["batch_size"] = batch_size
            path = tmp_path / "exp.json"
            path.write_text(json.dumps(config))
            out = tmp_path / str(len(str(batch_size)))
            assert run_cli(["experiment", "--config", str(path), "--out", str(out)]).code == 0
            results.append((out / "results.csv").read_bytes())
        assert results[0] == results[1]


class TestTsvExport:
    def test_synth_pieces_round_trip_through_cli_formats(self, tmp_path):
        from notegrid import SynthConfig, generate_corpus, parse_tsv

        cfg = SynthConfig(num_pieces=1, piece_duration_sec=5.0, seed=11)
        piece = generate_corpus(cfg)[0]
        text = to_tsv(piece)
        again = parse_tsv(text, pitch_offset=21, num_labels=cfg.num_labels)
        assert len(again) == len(piece)
        assert np.array_equal(again.labels, piece.labels)
        assert np.abs(again.onsets - piece.onsets).max() <= 5e-7
        assert np.abs(again.offsets - piece.offsets).max() <= 5e-7
