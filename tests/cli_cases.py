"""The notegrid entry point's contract as one table, one row per case.

A row names the commands it runs, in an empty directory that holds the
input files it writes first. Every command but the last must exit 0. The
last one is checked:
- its exit code;
- its error line, the last line of stderr: exact, or a pattern it must
  contain;
- every line of its stdout, where the row lists them;
- the paths that must not exist after it;
- the names that directories must hold after it, and no others;
- the pairs of files or directories that must be byte-identical.

Every row also holds the exit contract of `contract_fault`, and leaves no
temp file of the package's writer, .notegrid-*, anywhere in its directory.

tests/test_cli.py runs each row in-process through `in_process`, the one
runner of notegrid.cli.main in the tests, and checks every other command
it runs against `contract_fault` too. Run as a script, this module runs
each row through the installed `notegrid` console script instead, in a
new directory under the one it is started in, and imports nothing of
the package:

    pip install .
    cd "$(mktemp -d)" && python <checkout>/tests/cli_cases.py

The script prints each row's name as it runs it. For a failing row it
also prints the command, the expected and actual exit code and stderr.
It exits 1 if any row failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import smf


@dataclass(frozen=True)
class Case:
    name: str
    commands: tuple[str, ...]  # notegrid's arguments, shell-quoted
    code: int = 0
    err: str | re.Pattern | None = None  # the error line, or a pattern in it
    out: tuple[str, ...] | None = None  # every line of stdout
    files: dict = field(default_factory=dict)  # name: text or bytes
    absent: tuple[str, ...] = ()
    listing: dict = field(default_factory=dict)  # directory: every name it holds, sorted
    same: tuple[tuple[str, str], ...] = ()


COMMANDS = ("rasterize", "eval", "disagree", "synth", "experiment", "inspect")


def contract_fault(command: str, code, out: str, err: str) -> str | None:
    """What breaks the exit contract in one run whose first argument is
    `command`, or None: an exit code outside 0, 2, 3 and 4, a traceback, a
    line of 200 bytes or more with its newline, or a failure that prints
    other than one error line (for exit 2, after the usage of the command,
    or of notegrid itself where `command` is none of COMMANDS)."""
    lines = err.splitlines()
    prog = f"notegrid {command}" if command in COMMANDS else "notegrid"
    if code not in (0, 2, 3, 4):
        return f"exit {code}"
    if "Traceback" in out + err:
        return "traceback"
    if any(len(line.encode()) + 1 >= 200 for line in out.splitlines() + lines):
        return "a line of 200 bytes or more"
    if code == 2 and not (lines and lines[0].startswith(f"usage: {prog} ")
                          and lines[-1].startswith(f"{prog}: error: ")
                          and sum(": error: " in line for line in lines) == 1):
        return "not the usage and one error line"
    if code in (3, 4) and not (len(lines) == 1 and lines[0].startswith("error: ")):
        return "not one error line"
    return None


def _contents(path: Path):
    """A file's bytes, a directory's {name: contents}, or None if missing."""
    if path.is_dir():
        return {child.name: _contents(child) for child in sorted(path.iterdir())}
    return path.read_bytes() if path.exists() else None


def check(case: Case, where: Path, run) -> str | None:
    """None if the case's row holds when its commands run in the empty
    directory `where` through run(argv, where) -> (exit code, stdout,
    stderr); else a report of what failed."""
    for name, data in case.files.items():
        (where / name).write_bytes(data.encode() if isinstance(data, str) else data)
    for at, command in enumerate(case.commands, 1):
        last = at == len(case.commands)
        expected = case.code if last else 0
        argv = shlex.split(command)
        code, out, err = run(argv, where)
        if code != expected:
            break
    line = (err.splitlines() or [""])[-1]
    wanted = case.err if last else None
    faults = []
    if code != expected:
        faults.append("exit code")
    if fault := contract_fault(argv[0], code, out, err):
        faults.append(fault)
    if wanted is not None and not (wanted.search(line) if isinstance(wanted, re.Pattern)
                                   else line == wanted):
        faults.append("error line")
    if case.out is not None and out.splitlines() != list(case.out):
        faults.append(f"stdout {out!r}")
    faults += [f"{path} exists" for path in case.absent if (where / path).exists()]
    faults += [f"{path} does not hold exactly {names}" for path, names in case.listing.items()
               if _contents(where / path) is None or list(_contents(where / path)) != list(names)]
    faults += [f"{a} and {b} differ" for a, b in case.same
               if _contents(where / a) is None or _contents(where / a) != _contents(where / b)]
    faults += [f"temp file {path.relative_to(where)} left" for path in where.rglob(".notegrid-*")]
    if not faults:
        return None
    shown = wanted.pattern if isinstance(wanted, re.Pattern) else wanted
    return "\n".join([f"  $ notegrid {command}", f"  exit: expected {expected}, got {code}",
                      f"  error line: expected {shown!r}", "  stderr:",
                      *(f"    {text}" for text in err.splitlines()),
                      f"  failed: {'; '.join(faults)}"])


class Run(NamedTuple):
    code: object  # the exit code
    out: str
    err: str


def in_process(argv: list[str], where: Path) -> Run:
    """(exit code, stdout, stderr) of notegrid.cli.main(argv) run in
    `where`; the SystemExit of --version or a usage error gives the code,
    and an exception that escapes main ends it as the console script
    would: its traceback on stderr, exit 1."""
    from notegrid.cli import main  # the console script's runner imports none of this

    out, err, home = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = 1
                traceback.print_exc()
    finally:
        os.chdir(home)
    return Run(code, out.getvalue(), err.getvalue())


def installed(argv: list[str], where: Path) -> tuple:
    """(exit code, stdout, stderr) of the installed console script run in
    `where`, its usage wrapped at 80 columns as in-process."""
    done = subprocess.run(["notegrid", *argv], cwd=where, capture_output=True, text=True,
                          env={**os.environ, "COLUMNS": "80"}, timeout=600)
    return done.returncode, done.stdout, done.stderr


HEADER = "OnsetTime\tOffsetTime\tMidiPitch\n"
NOTES = {"notes.tsv": HEADER + "0.100\t0.250\t60\n0.400\t0.900\t64\n"}
# a note with 1e40 as its offset: it parses, but no grid of 100 fps indexes it
BIG = {"one.tsv": HEADER + "0.1\t0.5\t60\n", "big.tsv": HEADER + "0.1\t1e40\t60\n"}
SMOKE = "synth --pieces 1 --seed 1 --features --out smoke"
PAINT = "rasterize smoke/piece_000.tsv --fps 100 --fn f --seed 3 --out"
SCORE = "eval --pred paint1/piece_000.csv --annotation smoke/piece_000.tsv --out"
# five pieces of 2 s, functions a and e, seeds 1 and 2 in lockstep, one epoch
TINY = {"fns": ["a", "e"], "seeds": [1, 2],
        "synth": {"num_pieces": 5, "piece_duration_sec": 2.0}, "train": {"epochs": 1}}
EXPERIMENT = {"synth": {"num_pieces": 5, "piece_duration_sec": 6.0, "seed": 0},
              "train": {"epochs": 2, "seed": 0}}
BIG_MODEL = {"synth": {"feature_dim": 4096, "num_labels": 4096}, "train": {"context_frames": 3}}
NOTES_CSV = "rasterize notes.tsv --fps 100 --fn a --out m"
DIVERGED = re.compile(r"^error: fn=[a-f,]* seed=[0-9]*: non-finite loss at epoch [0-9]*, "
                      r"batch [0-9]*$")
USAGE = re.compile("^notegrid [a-z]+: error: ")  # contract_fault checks the rest


def json_file(name: str, value) -> dict:
    """{name: value as JSON text}, a row's input file."""
    return {name: json.dumps(value)}


CASES = [
    # the console script
    Case("version", ("--version",)),
    # an unknown option before the command is a usage error of notegrid
    # itself: it was taken for a missing command, or blamed on the command
    *(Case(f"unknown-option-before-{label}", (f"--vers {argv}",), 2,
           "notegrid: error: unrecognized arguments: '--vers'", files=NOTES)
      for label, argv in (("no-command", ""), ("a-command", "inspect notes.tsv"))),
    # argparse echoed an unknown command whole, on a line of 434 bytes
    Case("long-command", ("c" * 300,), 2,
         "notegrid: error: argument command: invalid choice: 'cccccccccccc...ccccccccccccc' "
         "(choose from rasterize, eval, disagree, synth, experiment, inspect)"),
    # synth: a rerun from the manifest, with the same flags, writes the same bytes
    Case("synth-rerun-from-manifest",
         (SMOKE, "synth --config smoke/synth.manifest.json --features --out smoke-rerun"),
         same=(("smoke", "smoke-rerun"),)),
    # corpus.json lists the pieces, each one's notes counted; the resolved
    # config is the manifest's alone
    Case("synth-corpus-lists-pieces", (SMOKE,), same=(("smoke/corpus.json", "corpus.json"),),
         files={"corpus.json": json.dumps({"pieces": [{"id": 0, "num_events": 58,
                                                       "path": "piece_000.tsv"}]},
                                          indent=2) + "\n"}),
    # an empty path names no file: a usage error that names the flag; eval and
    # disagree used to end in a traceback, synth and experiment to run as if
    # no --config were given, and rasterize to write into the working directory
    *(Case(f"{command}-empty-{flag}", (*before, f"{command} {flags} --{flag} ''"), 2,
           f"notegrid {command}: error: argument --{flag}: must not be empty", files=NOTES,
           absent=("out", "notes.csv", "piece_000.tsv"))
      for before, command, flags, flag in (
          ((), "eval", "--ref m.csv --out out", "pred"),
          ((NOTES_CSV,), "eval", "--pred m/notes.csv --out out", "ref"),
          ((NOTES_CSV,), "eval", "--pred m/notes.csv --out out", "annotation"),
          ((), "disagree", "--b m.csv --annotation notes.tsv --out out", "a"),
          ((), "synth", "--pieces 1 --out out", "config"),
          ((), "experiment", "--fns a --seeds 1 --epochs 0 --out out", "config"),
          ((), "rasterize", "notes.tsv --fps 100 --fn a", "out"))),
    # the stem, from --name or the input's name, is at most 241 bytes, so that
    # <stem>.manifest.json fits 255: with 241 the writer's temp names, 10 bytes
    # longer than their targets, made it write one file of three and exit 4,
    # and with 242 it exited 4 writing none
    Case("rasterize-name-of-241-bytes",
         (f"rasterize notes.tsv --fps 100 --fn a --out out --name {'z' * 241}",), files=NOTES,
         listing={"out": tuple(sorted(f"{'z' * 241}{suffix}"
                                      for suffix in (".csv", ".json", ".manifest.json")))}),
    *(Case(f"rasterize-{label}-of-242-bytes", (f"rasterize {argv} --fps 100 --fn a --out out",),
           2, f"notegrid rasterize: error: argument --name: the output stem "
              f"'zzzzzzzzzzzz...zzzzzzzzzzzzz' is longer than 241 bytes", files=files,
           listing={".": tuple(files)})
      for label, argv, files in (("name", f"notes.tsv --name {'z' * 242}", NOTES),
                                 ("input-stem", f"{'z' * 242}.tsv",
                                  {f"{'z' * 242}.tsv": NOTES["notes.tsv"]}))),
    # the rename onto out/notes.csv, a directory made by the first command,
    # fails: one error line naming the target, not the temp file, and no
    # temp file is left
    Case("rasterize-onto-a-directory", (f"{NOTES_CSV}/notes.csv", f"{NOTES_CSV}"), 4,
         "error: [Errno 21] Is a directory: 'm/notes.csv'",
         files=NOTES, listing={"m": ("notes.csv",), "m/notes.csv": (
             "notes.csv", "notes.json", "notes.manifest.json")}),
    # a failed command leaves none of its files: the label CSV, renamed into
    # place before its sidecar's rename failed, was left behind, and so were
    # synth's pieces and features before corpus.json
    Case("rasterize-sidecar-onto-a-directory", (f"{NOTES_CSV}/notes.json", f"{NOTES_CSV}"), 4,
         "error: [Errno 21] Is a directory: 'm/notes.json'", files=NOTES,
         listing={"m": ("notes.json",)}),
    Case("synth-corpus-onto-a-directory", ("synth --pieces 1 --seed 1 --out s/corpus.json",
                                           "synth --pieces 1 --seed 1 --features --out s"), 4,
         "error: [Errno 21] Is a directory: 's/corpus.json'", listing={"s": ("corpus.json",)}),
    # a file's matrix holds at most 2**24 cells per note: one note ending at
    # 244,000 s (43 bytes of TSV) or at the largest delta time of an SMF
    # (44 bytes, 223,696 s) asked for about 2e9 cells at 100 fps, a CSV of 4 GB
    *(Case(f"rasterize-far-note-in-{label}", (f"rasterize {name} --fps 100 --fn a --out out",),
           4, f"error: '{name}': a label matrix of {frames} frames x 88 labels exceeds the "
              "budget of 16777216 cells per note; it paints 1", files={name: data},
           absent=("out",))
      for label, name, frames, data in (
          ("a-43-byte-tsv", "far.tsv", 24400000, HEADER + "0\t244000\t60\n"),
          ("a-44-byte-smf", "far.mid", 22369622,
           smf.simple_file([(0, smf.VLQ_MAX, 60)], tempo_events=[(0, 400000)])))),
    # --name is a file name in --out: "../esc" used to write esc.csv beside
    # --out, and an empty one fell back to the input's stem
    *(Case(f"rasterize-name-{label}", (f"rasterize notes.tsv --fps 100 --fn a --out out "
                                       f"--name {name}",), 2,
           f"notegrid rasterize: error: {message}", files=NOTES, absent=("out", "esc.csv"))
      for label, name, message in (
          ("empty", "''", "argument --name: must not be empty"),
          ("with-separator", "../esc", "argument --name: must be a file name, got '../esc'"))),
    # a file flag must end in a file's name: "." used to end in a traceback
    Case("eval-pred-of-no-name", ("eval --pred . --ref m.csv --out out",), 2,
         "notegrid eval: error: argument --pred: must name a file, got '.'", absent=("out",)),
    # --fps is checked with --features or without it
    *(Case(f"synth-fps-0{label}", (f"synth --pieces 1 {flags}--fps 0 --out zerofps",), 2,
           "notegrid synth: error: argument --fps: fps must be positive and finite, got 0.0",
           absent=("zerofps",))
      for label, flags in (("", "--features "), ("-without-features", ""))),
    Case("synth-unknown-config-key", ("synth --config synth.json --out x",), 4,
         "error: 'synth.json': bad synth config: unknown key 'num_pyces'",
         files=json_file("synth.json", {"num_pyces": 3}), absent=("x",)),
    Case("synth-manifest-without-a-config-object", ("synth --config c.json --out x",), 4,
         "error: 'c.json': bad synth config: unknown key 'command'",
         files=json_file("c.json", {"command": "synth", "config": 5})),
    # a flag's value is checked before the config file is read
    Case("synth-pieces-0-before-missing-config",
         ("synth --config missing.json --pieces 0 --out x",), 2,
         "notegrid synth: error: argument --pieces: num_pieces must be >= 1, got 0",
         absent=("x",)),
    Case("synth-pieces-past-budget", ("synth --pieces 1000000000 --out x",), 2,
         "notegrid synth: error: argument --pieces: num_pieces = 1000000000 exceeds the budget "
         "of 10000 pieces",
         absent=("x",)),

    # inspect
    Case("inspect-synth-piece", (SMOKE, "inspect smoke/piece_000.tsv")),
    Case("inspect-annotation", ("inspect notes.tsv",),
         out=("input: 'notes.tsv'", "events: 2", "num_labels: 88", "duration_sec: 0.9",
              "label_range: [39, 43]", "violations: 0"), files=NOTES),
    # validate's column masks: an empty label space is a reported violation
    Case("inspect-empty-label-space", ("inspect empty.tsv --num-labels 0",),
         out=("input: 'empty.tsv'", "events: 0", "num_labels: 0", "duration_sec: 0.0",
              "violations: 1", "  num_labels must be positive, got 0"),
         files={"empty.tsv": HEADER}),
    # a label count of 2**64 or more is echoed in three digits
    Case("inspect-label-space-past-int64", (f"inspect one.tsv --num-labels {2 ** 70}",),
         out=("input: 'one.tsv'", "events: 1", "num_labels: 1.18e+21", "duration_sec: 1.25",
              "label_range: [39, 39]", "violations: 0"),
         files={"one.tsv": HEADER + "0.5\t1.25\t60\n"}),
    Case("inspect-huge-negative-label-count", (f"inspect empty.tsv --num-labels {-10 ** 400}",),
         out=("input: 'empty.tsv'", "events: 0", "num_labels: -1.00e+400", "duration_sec: 0.0",
              "violations: 1", "  num_labels must be positive, got -1.00e+400"),
         files={"empty.tsv": HEADER}),
    # a sidecar's seed follows the one seed rule: one of 401 digits was printed
    # in three digits, and eval printed it whole, on a stdout line of 429 bytes
    *(Case(f"{command}-sidecar-huge-seed", (f"{command} {flags}",), 4,
           "error: 'm.json': seed must be an integer below 2**64 in size or null, got 1.00e+400",
           files={"m.csv": "0,1\n", "m.json": '{"fps": 100.0, "seed": 1' + "0" * 400 + "}"},
           absent=("e",))
      for command, flags in (("inspect", "m.csv"), ("eval", "--pred m.csv --ref m.csv --out e"))),
    Case("inspect-matrix", (NOTES_CSV, "inspect m/notes.csv"),
         out=("input: 'notes.csv'", "num_frames: 90", "num_labels: 88", "fps: 100.0",
              "active_cells: 65", "labeling_function: a", "seed: 0"), files=NOTES),
    Case("inspect-sidecar-fps-0", ("inspect zerofps.csv",), 4,
         "error: 'zerofps.json': fps must be positive and finite, got 0",
         files={"zerofps.csv": "0,1\n", "zerofps.json": '{"fps": 0}'}),
    # a valid feature CSV, but a label cell of 2
    Case("inspect-label-cell-2", ("inspect m.csv",), 4, re.compile("^error: 'm.csv': .*0 or 1"),
         files={"m.csv": "0,1\n1,2\n", "m.json": '{"fps": 100.0}'}),
    # the OSError's file name is echoed as brief echoes it: whole, it made a
    # line of 344 bytes
    Case("inspect-file-name-too-long", (f"inspect {'z' * 300}.tsv",), 4,
         "error: [Errno 36] File name too long: 'zzzzzzzzzzzz...zzzzzzzzz.tsv'"),
    # a long extension was echoed whole, on a line of 350 bytes
    Case("inspect-long-extension", (f"inspect x.{'z' * 300}",), 2,
         "notegrid inspect: error: argument input: unrecognized extension "
         "'.zzzzzzzzzzz...zzzzzzzzzzzzz' (expected .tsv, .txt, .mid, .midi, .csv)"),
    # a file is echoed as brief echoes it, on stdout too: the name of 244
    # bytes was printed whole, on a line of 252 bytes
    Case("inspect-long-name", (f"inspect {'z' * 240}.tsv",),
         out=("input: 'zzzzzzzzzzzz...zzzzzzzzz.tsv'", "events: 1", "num_labels: 88",
              "duration_sec: 0.5", "label_range: [39, 39]", "violations: 0"),
         files={f"{'z' * 240}.tsv": BIG["one.tsv"]}),
    Case("inspect-unknown-extension", ("inspect x.bin",), 2, USAGE, files={"x.bin": b"\x00"}),
    Case("inspect-wav-usage", ("inspect x.wav",), 2, USAGE),

    # rasterize
    Case("rasterize-rerun", (SMOKE, f"{PAINT} paint1", f"{PAINT} paint2"),
         same=(("paint1", "paint2"),)),
    Case("rasterize-missing-input", ("rasterize missing.tsv --fps 100 --fn a",), 4,
         re.compile("^error: .*missing.tsv"),
         absent=("missing.csv", "missing.json", "missing.manifest.json")),
    Case("rasterize-negative-label-count",
         ("rasterize empty.tsv --fps 100 --fn a --num-labels -5 --out negative",), 4,
         "error: 'empty.tsv': num_labels must be >= 0, got -5", files={"empty.tsv": HEADER},
         absent=("negative",)),
    Case("rasterize-negative-label-count-midi",
         ("rasterize empty.mid --fps 100 --fn a --num-labels -5 --out negative",), 4,
         "error: 'empty.mid': num_labels must be >= 0, got -5",
         files={"empty.mid": smf.build([smf.track([])], fmt=0)}, absent=("negative",)),
    # pitch 60 in range, but its label 60 + 10**20 past int64
    Case("rasterize-label-past-int64",
         ("rasterize one.tsv --fps 100 --fn a --pitch-offset -100000000000000000000 "
          "--num-labels 200000000000000000000 --out int64",), 4,
         "error: 'one.tsv': labels must lie within the int64 range",
         files={"one.tsv": HEADER + "0.1\t0.5\t60\n"}, absent=("int64",)),
    Case("rasterize-label-past-int64-midi",
         (f"rasterize one.mid --fps 100 --fn a --pitch-offset {-10 ** 20} "
          f"--num-labels {2 * 10 ** 20} --out int64",), 4,
         "error: 'one.mid': labels must lie within the int64 range",
         files={"one.mid": smf.simple_file([(0, 480, 60)])}, absent=("int64",)),
    Case("rasterize-huge-label-count",
         (f"rasterize notes.tsv --fps 100 --fn a --num-labels {10 ** 400} --out out",), 4,
         "error: 'notes.tsv': a label matrix of 90 frames x 1.00e+400 labels exceeds the budget "
         "of 2147483648 cells", files=NOTES, absent=("out",)),
    Case("rasterize-huge-pitch", ("rasterize one.tsv --fps 100 --fn a --out out",), 4,
         "error: 'one.tsv': line 2: MIDI pitch 1.00e+300 outside [21, 108]",
         files={"one.tsv": HEADER + "0.5\t1.25\t1e300\n"}),
    Case("rasterize-huge-pitch-offset",
         (f"rasterize one.tsv --fps 100 --fn a --pitch-offset {10 ** 400} --out out",), 4,
         "error: 'one.tsv': line 2: MIDI pitch 60 outside [1.00e+400, 1.00e+400]",
         files={"one.tsv": HEADER + "0.5\t1.25\t60\n"}),
    Case("rasterize-huge-negative-label-count",
         (f"rasterize one.tsv --fps 100 --fn a --num-labels {-10 ** 400} --out out",), 4,
         "error: 'one.tsv': line 2: MIDI pitch 60 outside [21, -1.00e+400]",
         files={"one.tsv": HEADER + "0.5\t1.25\t60\n"}),
    Case("rasterize-huge-pitch-offset-midi",
         (f"rasterize one.mid --fps 100 --fn a --pitch-offset {10 ** 400} --out out",), 4,
         "error: 'one.mid': MIDI pitch 60 outside [1.00e+400, 1.00e+400]",
         files={"one.mid": smf.simple_file([(0, 480, 60)])}),
    # each of these used to echo the whole header or cell on the error line
    Case("rasterize-long-header", ("rasterize long.tsv --fps 100 --fn a --out out",), 4,
         re.compile("^error: 'long.tsv': .*malformed header 'OnsetTime"),
         files={"long.tsv": HEADER[:-1] + "x" * 270 + "\n0.5\t1.25\t60\n"}),
    Case("rasterize-long-cell", ("rasterize long.tsv --fps 100 --fn a --out out",), 4,
         re.compile("^error: 'long.tsv': .*line 2: non-numeric field '111"),
         files={"long.tsv": HEADER + "0.5\t" + "1" * 150 + "x" * 150 + "\t60\n"}),
    Case("rasterize-long-pitch", ("rasterize long.tsv --fps 100 --fn a --out out",), 4,
         re.compile("^error: 'long.tsv': .*line 2: non-integer pitch 60.5$"),
         files={"long.tsv": HEADER + "0.5\t1.25\t60.5" + "0" * 295 + "\n"}),
    # the file's name before a fault: whole, it made a line of 283 bytes
    Case("rasterize-long-name", (f"rasterize {'z' * 240}.tsv --fps 100 --fn a --out out",), 4,
         "error: 'zzzzzzzzzzzz...zzzzzzzzz.tsv': line 2: non-numeric field 'x'",
         files={f"{'z' * 240}.tsv": HEADER + "0.5\tx\t60\n"}, absent=("out",)),
    # and a written path: whole, these made lines of 217, 221 and 224 bytes
    Case("rasterize-long-out", (f"rasterize notes.tsv --fps 100 --fn a --out {'d' * 200}",),
         out=("wrote 'dddddddddddd...ddd/notes.csv'",), files=NOTES),
    Case("synth-long-out", (f"synth --pieces 1 --out {'d' * 200}",),
         out=("wrote 1 pieces to 'dddddddddddd...ddddddddddddd'",)),
    Case("rasterize-malformed-line", ("rasterize broken.tsv --fps 100 --fn a --out out",), 4,
         re.compile("broken.tsv.*line 2"),
         files={"broken.tsv": "OnsetTime OffsetTime MidiPitch\n1.0 1.0 60\n"}),
    Case("rasterize-nan-onset", ("rasterize broken.tsv --fps 100 --fn a --out out",), 4,
         re.compile("broken.tsv.*line 2"),
         files={"broken.tsv": "OnsetTime OffsetTime MidiPitch\nnan 1.0 60\n"}),
    Case("rasterize-inf-offset", ("rasterize broken.tsv --fps 100 --fn a --out out",), 4,
         re.compile("broken.tsv.*line 2"),
         files={"broken.tsv": "OnsetTime OffsetTime MidiPitch\n0.5 inf 60\n"}),
    Case("rasterize-not-midi", ("rasterize bad.mid --fps 100 --fn a --out out",), 4,
         re.compile("bad.mid"), files={"bad.mid": b"not a midi file at all"}),
    Case("rasterize-random-fn-without-seed", ("rasterize notes.tsv --fps 100 --fn e",), 2,
         "notegrid rasterize: error: --seed is required for labeling function e", files=NOTES),
    Case("rasterize-unknown-fn", ("rasterize notes.tsv --fps 100 --fn z",), 2, USAGE,
         files=NOTES),
    # argparse's "invalid choice" echoed it whole, on a line of 403 bytes
    Case("rasterize-long-fn", (f"rasterize notes.tsv --fps 100 --fn {'z' * 300} --out out",),
         2, "notegrid rasterize: error: argument --fn: unknown labeling function "
            "'zzzzzzzzzzzz...zzzzzzzzzzzzz', expected a-f", files=NOTES, absent=("out",)),
    Case("rasterize-negative-fps", ("rasterize notes.tsv --fps -1 --fn a --out out",), 2,
         USAGE, files=NOTES, absent=("out",)),
    Case("rasterize-fps-inf", (SMOKE, "rasterize smoke/piece_000.tsv --fps inf --fn a --out inf"),
         2, "notegrid rasterize: error: argument --fps: fps must be positive and finite, got inf",
         absent=("inf",)),
    # argparse's own messages would echo these whole, on a line past 200 bytes
    Case("rasterize-long-stray-argument",
         (f"rasterize notes.tsv --fps 100 --fn a --out out {'z' * 300}",), 2,
         "notegrid rasterize: error: unrecognized arguments: 'zzzzzzzzzzzz...zzzzzzzzzzzzz'",
         files=NOTES, absent=("out",)),
    # a value given to a flag that takes none was echoed whole, on a line of
    # 373 bytes; a stray argument that reads like that message is no such value
    Case("synth-features-given-a-value", (f"synth --features={'z' * 300} --out out",), 2,
         "notegrid synth: error: argument --features: ignored explicit argument "
         "'zzzzzzzzzzzz...zzzzzzzzzzzzz'", absent=("out",)),
    # and so was an ambiguous abbreviation, on one of 374 bytes; a flag now
    # matches only as written, so it is an unrecognized argument
    Case("rasterize-ambiguous-abbreviation",
         (f"rasterize notes.tsv --fps 100 --fn a --out out --f={'z' * 300}",), 2,
         "notegrid rasterize: error: unrecognized arguments: '--f=zzzzzzzz...zzzzzzzzzzzzz'",
         files=NOTES, absent=("out",)),
    Case("synth-stray-argument-like-that-message",
         ("synth --out out 'ignored explicit argument '",), 2,
         "notegrid synth: error: unrecognized arguments: 'ignored explicit argument '",
         absent=("out",)),
    Case("rasterize-long-fps", (f"rasterize notes.tsv --fps {'y' * 300} --fn a --out out",), 2,
         "notegrid rasterize: error: argument --fps: invalid float value: "
         "'yyyyyyyyyyyy...yyyyyyyyyyyyy'", files=NOTES, absent=("out",)),
    # and on one of 400 bytes here
    Case("rasterize-long-extension", (f"rasterize notes.{'z' * 300} --fps 100 --fn a",), 2,
         "notegrid rasterize: error: argument input: unrecognized extension "
         "'.zzzzzzzzzzz...zzzzzzzzzzzzz' (expected .tsv, .txt, .mid, .midi)"),
    Case("rasterize-bad-extension", ("rasterize notes.xyz --fps 100 --fn a",), 2, USAGE,
         files={"notes.xyz": NOTES["notes.tsv"]}),

    # eval: a rerun into a second directory writes the same bytes
    Case("eval-rerun", (SMOKE, f"{PAINT} paint1", f"{SCORE} scored", f"{SCORE} scored2"),
         same=(("scored", "scored2"),)),
    # eval writes its row to stdout and eval.csv, and nothing else but its manifest
    Case("eval-outputs", (NOTES_CSV, "eval --pred m/notes.csv --ref m/notes.csv --out e"),
         out=("piece,fn,seed,fps,tp,fp,fn,precision,recall,fmeasure",
              "notes,a,0,100.0,65,0,0,1.0,1.0,1.0"),
         files=NOTES, listing={"e": ("eval.csv", "eval.manifest.json")}),
    # stdout echoes a stem of more than 30 characters as brief does, where a
    # 200-character one made a row of 229 bytes; eval.csv holds it whole
    Case("eval-long-stem", (f"{NOTES_CSV} --name {'z' * 200}",
                            f"eval --pred m/{'z' * 200}.csv --ref m/{'z' * 200}.csv --out e"),
         out=("piece,fn,seed,fps,tp,fp,fn,precision,recall,fmeasure",
              "'zzzzzzzzzzzz...zzzzzzzzzzzzz',a,0,100.0,65,0,0,1.0,1.0,1.0"),
         files={**NOTES, "eval.csv": "piece,fn,seed,fps,tp,fp,fn,precision,recall,fmeasure\n"
                                     f"{'z' * 200},a,0,100.0,65,0,0,1.0,1.0,1.0\n"},
         same=(("e/eval.csv", "eval.csv"),)),
    Case("eval-window-of-no-frame-ref",
         (NOTES_CSV, "eval --pred m/notes.csv --ref m/notes.csv --out e --window-sec 1e-300"),
         4, "error: a window of 1e-300 s holds no frame at 100.0 fps", files=NOTES,
         absent=("e",)),
    Case("eval-window-of-no-frame-annotation",
         (NOTES_CSV, "eval --pred m/notes.csv --annotation notes.tsv --out e "
                     "--window-sec 1e-300"),
         4, "error: a window of 1e-300 s holds no frame at 100.0 fps", files=NOTES,
         absent=("e",)),
    # the rule of the experiment's window_sec
    Case("eval-zero-window", (NOTES_CSV, "eval --pred m/notes.csv --ref m/notes.csv "
                                         "--out e --window-sec 0"),
         2, "notegrid eval: error: argument --window-sec: window_sec must be positive, got 0.0",
         files=NOTES, absent=("e",)),
    Case("eval-nan-window", (NOTES_CSV, "eval --pred m/notes.csv --ref m/notes.csv "
                                        "--out e --window-sec nan"),
         2, "notegrid eval: error: argument --window-sec: window_sec must be positive, got nan",
         files=NOTES, absent=("e",)),
    Case("eval-neither-ref-nor-annotation", (NOTES_CSV, "eval --pred m/notes.csv --out e"),
         2, USAGE, files=NOTES, absent=("e",)),
    Case("eval-neither-ref-nor-annotation-before-missing-pred",
         ("eval --pred missing.csv --out e",), 2,
         "notegrid eval: error: one of the arguments --ref --annotation is required",
         absent=("e",)),
    # a path in a reader's message: whole, it made a line of 204 bytes
    Case("eval-missing-sidecar-in-long-directory",
         (f"eval --pred {'l' * 150}/m.csv --ref m.csv --out e",), 4,
         "error: fps metadata missing: expected sidecar 'llllllllllll...llllll/m.json'",
         absent=("e",)),
    Case("eval-missing-sidecar", ("eval --pred naked.csv --ref naked.csv --out e",), 4,
         re.compile("naked.json"), files={"naked.csv": "0,1\n1,0\n"}, absent=("e",)),
    Case("eval-ref-fps-0", (NOTES_CSV, "eval --pred m/notes.csv --annotation notes.tsv "
                                       "--out e --ref-fps 0"),
         2, "notegrid eval: error: argument --ref-fps: fps must be positive and finite, got 0.0",
         files=NOTES, absent=("e",)),
    Case("eval-ref-fps-inf", ("eval --pred pred.csv --annotation notes.tsv --ref-fps inf "
                              "--out e",),
         2, "notegrid eval: error: argument --ref-fps: fps must be positive and finite, got inf",
         files=NOTES, absent=("e",)),
    # the reference is always function a; another function's labels are
    # scored by rasterizing them and passing them as --ref
    Case("eval-fn-is-unrecognized",
         (NOTES_CSV, "eval --pred m/notes.csv --annotation notes.tsv --out e --fn e"),
         2, "notegrid eval: error: unrecognized arguments: '--fn e'", files=NOTES,
         absent=("e",)),
    # a usage error comes before a missing file
    Case("eval-ref-fps-0-before-missing-pred",
         ("eval --pred missing.csv --annotation notes.tsv --out e --ref-fps 0",), 2, USAGE,
         files=NOTES, absent=("e",)),
    Case("eval-random-fn-before-missing-pred",
         ("eval --pred missing.csv --annotation notes.tsv --out e --fn e",), 2, USAGE,
         files=NOTES, absent=("e",)),
    # every flag's value is checked, whether the command reads it or not:
    # --ref-fps with --ref exited 4 for the missing file, and 0 with the file,
    # writing the 0 into the manifest
    Case("eval-ref-fps-0-with-ref", ("eval --pred missing.csv --ref missing.csv --out e "
                                     "--ref-fps 0",), 2,
         "notegrid eval: error: argument --ref-fps: fps must be positive and finite, got 0.0",
         absent=("e",)),
    # the reference is one of --ref and --annotation: with both, the
    # annotation was not read, but its name went into the manifest
    Case("eval-ref-and-annotation", (NOTES_CSV, "eval --pred m/notes.csv --ref m/notes.csv "
                                                "--annotation nothere.tsv --out e"), 2,
         "notegrid eval: error: argument --annotation: not allowed with argument --ref",
         files=NOTES, absent=("e",)),
    # an annotation is a .tsv, .txt, .mid or .midi file: a matrix CSV given
    # as one was read as TSV
    *(Case(f"{command}-annotation-csv", (NOTES_CSV, f"{command} {flags} --annotation m/notes.csv "
                                                    "--out out"), 2,
           f"notegrid {command}: error: argument --annotation: unrecognized extension '.csv' "
           "(expected .tsv, .txt, .mid, .midi)", files=NOTES, absent=("out",))
      for command, flags in (("eval", "--pred m/notes.csv"),
                             ("disagree", "--a m/notes.csv --b m/notes.csv"))),
    # quantizing the annotation fails: the error names it, and only it
    Case("eval-annotation-past-frame-index",
         ("rasterize one.tsv --fps 100 --fn a --out p",
          "eval --pred p/one.csv --annotation big.tsv --out e"), 4,
         "error: 'big.tsv': offset 1e+40 is too many frames of 0.01 s to index", files=BIG,
         absent=("e",)),
    Case("eval-label-count-mismatch",
         ("rasterize one.tsv --fps 100 --fn a --out p",
          "eval --pred p/one.csv --annotation one.tsv --pitch-offset 60 --num-labels 1 "
          "--out e"), 4,
         "error: shape mismatch: (50, 88) vs (50, 1)", files=BIG, absent=("e",)),

    # disagree
    Case("disagree-annotation-past-frame-index",
         ("rasterize one.tsv --fps 100 --fn a --out p",
          "disagree --a p/one.csv --b p/one.csv --annotation big.tsv --out d"), 4,
         "error: 'big.tsv': offset 1e+40 is too many frames of 0.01 s to index", files=BIG,
         absent=("d",)),
    Case("disagree-shape-mismatch",
         ("rasterize one.tsv --fps 100 --fn a --out p",
          "rasterize one.tsv --fps 50 --fn a --out q",
          "disagree --a p/one.csv --b q/one.csv --annotation one.tsv --out d"), 4,
         "error: shape mismatch: (50, 88) vs (25, 88)", files=BIG, absent=("d",)),
    # its manifest must list each file it read (tests/test_cli.py checks every
    # manifest): both sidecars, and both files named one.csv
    Case("disagree-inputs-of-one-name",
         ("rasterize one.tsv --fps 100 --fn a --out A",
          "rasterize one.tsv --fps 100 --fn f --seed 1 --out F",
          "disagree --a A/one.csv --b F/one.csv --annotation one.tsv --out d"),
         files=BIG),

    # experiment: a rerun into a second directory writes the same bytes
    Case("experiment-rerun", ("experiment --config tiny.json --out tiny",
                              "experiment --config tiny.json --out tiny-rerun"),
         files=json_file("tiny.json", TINY), same=(("tiny", "tiny-rerun"),)),
    Case("experiment-long-out", (f"experiment --config tiny.json --out {'d' * 200}",),
         out=("fn a: mean test F = 0.065327", "fn e: mean test F = 0.079208",
              "wrote 'dddddddddddd...d/results.csv'"), files=json_file("tiny.json", TINY)),
    # a diverging rate, not halved before epoch 1 of 2; no NumPy warning shows
    Case("experiment-diverging-rate",
         ("experiment --config tiny.json --epochs 2 --learning-rate 1e308 --out diverged",), 3,
         DIVERGED, files=json_file("tiny.json", TINY)),
    # features near 1e200 are finite doubles but inf in float32 training, and
    # the cast shows no warning
    Case("experiment-features-past-float32", ("experiment --config huge.json --out huge",), 3,
         "error: fn=a,e seed=1: non-finite loss at epoch 0, batch 0",
         files=json_file("huge.json", {**TINY, "synth": {**TINY["synth"],
                                                          "noise_sigma": 1e200}})),
    # a rate that jumps at epoch 2, after two epochs that skip the divergence
    # screen: the batch where the loss first goes non-finite
    Case("experiment-late-divergence", ("experiment --config late.json --out late",), 3,
         "error: fn=a,e seed=1: non-finite loss at epoch 2, batch 1",
         files=json_file("late.json", {**TINY, "train": {"epochs": 3,
                                                          "lr_schedule": [[2, 1e300]]}}),
         absent=("late",)),
    Case("experiment-train-value-of-wrong-type",
         ("experiment --config badtype.json --out badtype",), 4,
         "error: 'badtype.json': bad train config: batch_size must be int, got 2.5",
         files=json_file("badtype.json", {"train": {"batch_size": 2.5}}),
         absent=("badtype",)),
    # past the train and model-size budgets: exit 4 before any piece is generated
    Case("experiment-weights-past-budget", ("experiment --config big.json --out big",), 4,
         "error: a seed's weights take 50331648 cells, over the budget of 16777216 cells",
         files=json_file("big.json", {"fns": ["a"], "seeds": [1], **BIG_MODEL}),
         absent=("big",)),
    Case("experiment-weights-of-six-fns-past-budget",
         ("experiment --config big.json --out big",), 4,
         "error: a seed's weights take 301989888 cells, over the budget of 16777216 cells",
         files=json_file("big.json", BIG_MODEL), absent=("big",)),
    Case("experiment-windows-past-budget", ("experiment --config exp.json --out out",), 4,
         "error: a test piece's windows take 7200000000 cells, over the budget of "
         "16777216 cells", files=json_file("exp.json", {"train_fps": 1e6}),
         absent=("out",)),
    Case("experiment-frame-rate-past-budget",
         ("experiment --config exp.json --fns a --seeds 1 --out out",), 4,
         "error: a test piece's windows take 1.44e+303 cells, over the budget of "
         "16777216 cells", files=json_file("exp.json", {**EXPERIMENT, "train_fps": 1e300}),
         absent=("out",)),
    *(Case(f"experiment-{key}-past-budget-{value:.0e}", ("experiment --config exp.json "
                                                         "--out out",), 4,
           f"error: 'exp.json': bad train config: {key} = {value} exceeds the budget of {limit}",
           files=json_file("exp.json", {"train": {key: value}}), absent=("out",))
      for key, value, limit in (("context_frames", 2 ** 63 + 1, "1001 frames"),
                                ("context_frames", 100001, "1001 frames"),
                                ("epochs", 10 ** 9, "1000 epochs"))),
    # a duration that passes the notes budget but that no grid covers: the
    # fault names the file, and nothing is written
    *(Case(f"{command}-duration-no-grid-covers", (f"{command} --config exp.json {flags}"
                                                   "--out out",), 4,
           "error: 'exp.json': cannot cover 1e+308 s at 31.25 fps: not finite",
           files=json_file("exp.json", {"synth": {"piece_duration_sec": 1e308,
                                                   "note_rate": 1e-310}}), absent=("out",))
      for command, flags in (("experiment", ""), ("synth", "--features "))),
    # an evaluation window shorter than one frame, before any piece is generated
    Case("experiment-window-of-no-frame",
         ("experiment --config tiny.json --window-sec 0.001 --out short",), 4,
         "error: a window of 0.001 s holds no frame at 100.0 fps",
         files=json_file("tiny.json", TINY), absent=("short",)),
    # an eval_fps integer past float range: it used to end in an OverflowError
    Case("experiment-eval-fps-past-float-range",
         ("experiment --config hugefps.json --out hugefps",), 4,
         "error: 'hugefps.json': bad experiment config: eval_fps must be float, got 1.00e+400",
         files={"hugefps.json": '{"eval_fps": 1' + "0" * 400 + "}"}, absent=("hugefps",)),
    # json's own text used to be echoed: a line of 200 bytes for the first,
    # which advised calling sys.set_int_max_str_digits()
    Case("experiment-config-integer-past-digit-limit",
         ("experiment --config experiments-2026-10-config.json --out out",), 4,
         "error: 'experiments-...0-config.json': unreadable config: an integer of more than "
         "4300 digits", files={"experiments-2026-10-config.json": '{"seed": 1' + "0" * 5000 + "}"},
         absent=("out",)),
    Case("experiment-config-nested-too-deeply",
         ("experiment --config experiments-2026-10-config.json --out out",), 4,
         "error: 'experiments-...0-config.json': unreadable config: arrays or objects nested "
         "too deeply", files={"experiments-2026-10-config.json": "[" * 100000 + "]" * 100000},
         absent=("out",)),
    # lines that break at a lone CR: the error names line 3, where the bad token is
    Case("experiment-config-lone-cr", ("experiment --config lonecr.json --out lonecr",), 4,
         re.compile("'lonecr.json': line 3 column 1: unreadable config"),
         files={"lonecr.json": '{\r"fps": 1,\r,}'}, absent=("lonecr",)),
    # an unknown key of 300 characters, where Python's own message echoed it whole
    Case("experiment-long-unknown-key", ("experiment --config longkey.json --out longkey",),
         4, re.compile("^error: 'longkey.json': bad synth config: unknown key 'xxx"),
         files={"longkey.json": '{"synth": {"' + "x" * 300 + '": 1}}'}, absent=("longkey",)),
    # a config file's fault exits 4 naming the file and the key: an unknown
    # key, a wrong type, or a value that the key's rule rejects
    *(Case(f"experiment-{name}", ("experiment --config exp.json --out out",), 4,
           f"error: 'exp.json': bad experiment config: {line}", files={"exp.json": text},
           absent=("out",))
      for name, text, line in (
          ("unknown-config-key", '{"no_such_key": 1}', "unknown key 'no_such_key'"),
          ("config-seed-of-wrong-kind", '{"seed": [1]}', "unknown key 'seed'"),
          ("config-synth-of-wrong-kind", '{"synth": 5}', "synth must be dict, got 5"),
          ("config-train-of-wrong-kind", '{"train": [1, 2]}', "train must be dict, got [1, 2]"),
          ("config-train_fps-Infinity", '{"train_fps": Infinity}',
           "train_fps must be positive and finite, got inf"),
          ("config-eval_fps-Infinity", '{"eval_fps": Infinity}',
           "eval_fps must be positive and finite, got inf"),
          ("config-window_sec--Infinity", '{"window_sec": -Infinity}',
           "window_sec must be positive, got -inf"),
          ("config-window-sec-0", '{"window_sec": 0}', "window_sec must be positive, got 0"),
          ("config-empty-fns", '{"fns": []}', "fns must be one or more letters of a-f, got []"),
          ("config-empty-seeds", '{"seeds": []}',
           "seeds must be one or more integers below 2**64 in size, got []"),
          ("config-fns-z", json.dumps({**TINY, "fns": ["z"]}),
           "fns must be one or more letters of a-f, got ['z']"))),
    Case("experiment-manifest-without-a-config-object",
         ("experiment --config c.json --out x",), 4,
         "error: 'c.json': bad experiment config: unknown key 'command'",
         files=json_file("c.json", {"command": "synth", "config": 5})),
    # a rate flag that the rule of its key rejects is a usage error; the same
    # rate read from a config file names the file and key
    Case("experiment-train-fps-0", ("experiment --fns a --seeds 1 --train-fps 0 --out out",),
         2, "notegrid experiment: error: argument --train-fps: train_fps must be positive and "
         "finite, got 0.0",
         absent=("out",)),
    Case("experiment-eval-fps-nan", ("experiment --fns a --seeds 1 --eval-fps nan --out out",),
         2, "notegrid experiment: error: argument --eval-fps: eval_fps must be positive and "
         "finite, got nan",
         absent=("out",)),
    Case("experiment-config-train-fps-0",
         ("experiment --config exp.json --fns a --seeds 1 --out out",), 4,
         "error: 'exp.json': bad experiment config: train_fps must be positive and finite, got 0",
         files=json_file("exp.json", {"train_fps": 0}), absent=("out",)),
    # so are --fns, --epochs and --learning-rate: each flag's value is checked
    # alone, before any file is read; from a config file the same values exit 4
    Case("experiment-fns-z", ("experiment --config tiny.json --fns z --out out",), 2,
         "notegrid experiment: error: argument --fns: fns must be one or more letters of a-f, "
         "got ['z']",
         files=json_file("tiny.json", TINY), absent=("out",)),
    Case("experiment-epochs-negative", ("experiment --config tiny.json --epochs -1 --out out",),
         2, "notegrid experiment: error: argument --epochs: epochs must be >= 0, got -1",
         files=json_file("tiny.json", TINY), absent=("out",)),
    Case("experiment-epochs-negative-before-missing-config",
         ("experiment --config missing.json --epochs -1 --out out",), 2,
         "notegrid experiment: error: argument --epochs: epochs must be >= 0, got -1",
         absent=("out",)),
    Case("experiment-epochs-past-budget",
         ("experiment --config tiny.json --epochs 100000 --out out",), 2,
         "notegrid experiment: error: argument --epochs: epochs = 100000 exceeds the budget of "
         "1000 epochs",
         files=json_file("tiny.json", TINY), absent=("out",)),
    Case("experiment-learning-rate-0",
         ("experiment --config tiny.json --learning-rate 0 --out out",), 2,
         "notegrid experiment: error: argument --learning-rate: learning_rate must be positive "
         "and finite, got 0.0",
         files=json_file("tiny.json", TINY), absent=("out",)),
    Case("experiment-learning-rate-inf",
         ("experiment --config tiny.json --learning-rate inf --out out",), 2,
         "notegrid experiment: error: argument --learning-rate: learning_rate must be positive "
         "and finite, got inf",
         files=json_file("tiny.json", TINY), absent=("out",)),
    Case("experiment-config-learning-rate-0", ("experiment --config exp.json --out out",), 4,
         "error: 'exp.json': bad train config: learning_rate must be positive and finite, got 0",
         files=json_file("exp.json", {**TINY, "train": {"learning_rate": 0}}),
         absent=("out",)),
    Case("experiment-nan-window",
         ("experiment --config exp.json --fns a --seeds 1 --window-sec nan --out out",), 2,
         "notegrid experiment: error: argument --window-sec: window_sec must be positive, got nan",
         files=json_file("exp.json", EXPERIMENT), absent=("out",)),
    Case("experiment-long-epochs", (f"experiment --epochs {'x' * 300} --out out",), 2,
         "notegrid experiment: error: argument --epochs: invalid int value: "
         "'xxxxxxxxxxxx...xxxxxxxxxxxxx'", absent=("out",)),
    Case("experiment-empty-fns", ("experiment --fns '' --seeds 1 --out out",), 2, USAGE),
    Case("experiment-bad-seeds", ("experiment --fns a --seeds one --out out",), 2, USAGE),
    # a long --seeds used to be echoed whole, on a line past 200 bytes
    Case("experiment-long-bad-seeds", (f"experiment --seeds {'x' * 300} --out out",), 2,
         "notegrid experiment: error: argument --seeds: invalid int value: "
         "'xxxxxxxxxxxx...xxxxxxxxxxxxx'", absent=("out",)),
    Case("experiment-seeds-of-separators-only", ("experiment --fns a --seeds , --out out",),
         2, "notegrid experiment: error: argument --seeds: invalid int value: ''",
         absent=("out",)),
    # a list flag takes no empty item, and a flag matches only as written:
    # each of these ran, --seed as --seeds, and the empty items skipped
    *(Case(f"experiment-{label}", (f"experiment --config tiny.json {flags} --epochs 0 "
                                   "--out out",), 2, f"notegrid experiment: error: {message}",
           files=json_file("tiny.json", TINY), absent=("out",))
      for label, flags, message in (
          ("seed-for-seeds", "--seed 1 --fns a", "unrecognized arguments: '--seed 1'"),
          ("seeds-with-an-empty-item", "--fns a --seeds 1,,3",
           "argument --seeds: invalid int value: ''"),
          ("fns-with-an-empty-item", "--fns a, --seeds 1",
           "argument --fns: fns must be one or more letters of a-f, got ['a', '']"))),
    # a seed is an integer below 2**64 in size, from a config file as from a
    # flag: each of these ran, as the seed less 2**64 would
    *(Case(f"{command}-config-{what}-of-2**64", (f"{command} --config c.json --out out",), 4,
           f"error: 'c.json': bad {section} config: {key} must be {rule}, got {shown}",
           files=json_file("c.json", config), absent=("out",))
      for command, what, section, key, rule, shown, config in (
          ("synth", "seed", "synth", "seed", "an integer below 2**64 in size", "1.84e+19",
           {"num_pieces": 1, "seed": 2 ** 64}),
          ("experiment", "seeds", "experiment", "seeds",
           "one or more integers below 2**64 in size", "[18446744073709551616]",
           {**TINY, "seeds": [2 ** 64]}),
          ("experiment", "synth-seed", "synth", "seed", "an integer below 2**64 in size",
           "1.84e+19", {**TINY, "synth": {**TINY["synth"], "seed": 2 ** 64}}),
          ("experiment", "train-seed", "train", "seed", "an integer below 2**64 in size",
           "1.84e+19", {**TINY, "train": {**TINY["train"], "seed": 2 ** 64}}))),
    # a diverging run named its seed whole, on an error line of 456 bytes
    Case("experiment-diverging-huge-seed",
         (f"experiment --config tiny.json --fns a --seeds 1{'0' * 400} --learning-rate 1e308 "
          "--out out",), 2, re.compile("^notegrid experiment: error: argument --seeds: seeds "
                                       "must be one or more integers below 2\\*\\*64 in size"),
         files=json_file("tiny.json", TINY), absent=("out",)),
]


def main() -> int:
    """Run every row through the installed console script, each in a new
    directory under the current one; 1 if any row failed, else 0."""
    root = Path(tempfile.mkdtemp(prefix="notegrid-cases-", dir="."))
    failed = 0
    for case in CASES:
        where = root / case.name
        where.mkdir()
        report = check(case, where, installed)
        print(f"{'ok' if report is None else 'FAIL':4}  {case.name}", flush=True)
        if report is not None:
            print(report, flush=True)
            failed += 1
    print(f"{len(CASES) - failed} of {len(CASES)} rows pass")
    if failed:
        print(f"their directories are under {root}")
    else:
        shutil.rmtree(root)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
