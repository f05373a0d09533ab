"""File formats and run manifests.

Label and feature matrices are stored as plain CSV (one row per frame)
next to a one-line JSON sidecar holding the grid and provenance metadata;
only label CSVs are read back. Evaluation results are CSV, and experiment
results CSV plus a JSON summary. An error names its file as util.brief
echoes it. Every file is written atomically (temp file + rename) so
interrupted runs never leave corrupt outputs, and manifests contain no
wall-clock data, keeping reruns byte-identical.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._reprcsv import csv_body
from .errors import ContractError, FormatError
from .quantize import FrameGrid, LabelingFunction, LabelMatrix
from .synth import FeatureMatrix
from .util import brief, count_line_breaks, fits, is_seed, line_and_column, split_lines


# The files atomic_write_text has renamed into place in the current output_set
_written: contextvars.ContextVar[list[Path]] = contextvars.ContextVar("written")


@contextlib.contextmanager
def output_set():
    """Record each file atomic_write_text renames into place in the block;
    if the block raises, unlink them all before the exception goes on, so a
    failed command leaves none of its files."""
    token = _written.set([])
    try:
        yield
    except BaseException:
        for path in _written.get():
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    finally:
        _written.reset(token)


def atomic_write_text(path: Path, data: str | bytes) -> None:
    """Write text (encoded as UTF-8) or bytes via a temp file in the same
    directory, then rename.

    open() creates the temp file as it creates any new file, 0o666 less
    the umask, and the rename keeps that mode. Its name, .notegrid- and 16
    hex digits, is 26 bytes however long the target's name is. A failed
    rename names the target alone.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".notegrid-{os.urandom(8).hex()}")
    handle = open(tmp, "xb")
    try:
        with handle:
            handle.write(data)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _written.get([]).append(path)  # outside an output_set, to a list that no one keeps


def _decode_utf8(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = count_line_breaks(data[:exc.start]) + 1
        raise FormatError(f"{brief(path)}: line {line}: not UTF-8 text") from None


def read_text(path: Path) -> str:
    """A UTF-8 file's text; other bytes are a FormatError naming the file
    and line."""
    return _decode_utf8(path, Path(path).read_bytes())


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a UTF-8 file. Bad JSON, and any value that is
    not an object, is a FormatError naming the file and `what` it is, and
    the line where the fault or the value starts."""
    text = read_text(path)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        # json's own line and column count only \n as a line break
        line, column = line_and_column(text, exc.pos)
        raise FormatError(f"{brief(path)}: line {line} column {column}: "
                          f"unreadable {what}: {exc.msg}") from None
    except ValueError:  # json's one other ValueError: an integer past the digit limit
        raise FormatError(f"{brief(path)}: unreadable {what}: an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise FormatError(f"{brief(path)}: unreadable {what}: "
                          "arrays or objects nested too deeply") from None
    if not isinstance(obj, dict):
        line, _ = line_and_column(text, len(text) - len(text.lstrip(" \t\n\r")))
        raise FormatError(f"{brief(path)}: line {line}: {what} must hold a JSON object")
    return obj


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _write_matrix_csv(body: str | bytes, csv_path: Path, sidecar: dict) -> None:
    """Write the CSV body, then the one-line JSON sidecar."""
    atomic_write_text(csv_path, body)
    atomic_write_text(sidecar_path(csv_path),
                      json.dumps(sidecar, sort_keys=True) + "\n")


def _label_row(num_labels: int) -> np.ndarray:
    """The label CSV layout, stated once: a row of K all-zero cells as K
    little-endian cell words, "0," ... "0," then "0\\n". A cell's 0/1 is
    its word's digit's low bit. With no labels a row is "\\n" alone."""
    row = np.full(num_labels, int.from_bytes(b"0,", "little"), dtype="<u2")
    row[-1:] = int.from_bytes(b"0\n", "little")
    return row


def _label_csv_bytes(frames: np.ndarray) -> bytes:
    """The label CSV of 0/1 frames: row r is ",".join(map(str, frames[r]))
    followed by "\\n"."""
    num_frames, num_labels = frames.shape
    if not num_labels:
        return b"\n" * num_frames
    return (_label_row(num_labels) + frames).astype("<u2", copy=False).tobytes()


def _label_cells_exact(data: bytes) -> np.ndarray | None:
    """The uint8 cells of a label CSV whose every row is the first row's
    width of _label_row's words, each differing from its template word in
    the digit's low bit alone; None for any other bytes."""
    width = data.find(b"\n") + 1
    if width == 1:
        return np.zeros((len(data), 0), np.uint8) if data.count(b"\n") == len(data) else None
    if width == 0 or width % 2 or len(data) % width:
        return None
    cells = np.frombuffer(data, dtype="<u2").reshape(-1, width // 2) ^ _label_row(width // 2)
    return None if cells.max() > 1 else cells.astype(np.uint8)


def _label_cells_parsed(csv_path: Path, data: bytes) -> np.ndarray:
    """The integer cells of a label CSV read line by line: the lenient
    reader of every file _label_cells_exact declines, and the only source
    of line-numbered errors."""
    rows = []
    for lineno, line in enumerate(split_lines(_decode_utf8(csv_path, data)), start=1):
        if not line.strip():
            continue
        try:
            rows.append([int(v) for v in line.split(",")])
        except ValueError:
            raise FormatError(f"{brief(csv_path)}: line {lineno}: non-integer cell") from None
        if len(rows[-1]) != len(rows[0]):
            raise FormatError(f"{brief(csv_path)}: line {lineno}: ragged row of "
                              f"{len(rows[-1])} cells, expected {len(rows[0])}")
    if not rows:
        raise FormatError(f"{brief(csv_path)}: line 1: empty matrix")
    return np.array(rows)


def write_label_matrix(matrix: LabelMatrix, csv_path: Path) -> None:
    """Write frames as 0/1 CSV plus the one-line JSON sidecar."""
    _write_matrix_csv(_label_csv_bytes(matrix.frames), csv_path, {
        "fps": matrix.grid.fps,
        "num_frames": matrix.num_frames,
        "num_labels": matrix.num_labels,
        "labeling_function": matrix.labeling_function.letter
        if matrix.labeling_function is not None else None,
        "seed": matrix.seed,
    })


def read_label_matrix(csv_path: Path) -> LabelMatrix:
    """Read a label CSV and its sidecar, checked first, back into a LabelMatrix.
    Malformed input raises FormatError naming the file, and the line where
    one is at fault; a missing sidecar, or one without fps, ContractError."""
    side = sidecar_path(csv_path)
    if not side.exists():
        raise ContractError(f"fps metadata missing: expected sidecar {brief(side)}")
    meta = read_json_object(side, "sidecar")
    if "fps" not in meta:
        raise ContractError(f"fps metadata missing from sidecar {brief(side)}")
    fps, letter, seed = meta["fps"], meta.get("labeling_function"), meta.get("seed")
    try:
        FrameGrid(fps=fps, num_frames=1)  # the rate's check, before the CSV is read
    except ContractError as exc:
        raise FormatError(f"{brief(side)}: {exc}") from None
    if letter not in (None, "") and not (
            isinstance(letter, str) and letter.lower() in [fn.letter for fn in LabelingFunction]):
        raise FormatError(f"{brief(side)}: labeling_function must be one of a-f or null, "
                          f"got {brief(letter)}")
    if not (seed is None or fits(int, seed) and is_seed(seed)):
        raise FormatError(f"{brief(side)}: seed must be an integer below 2**64 in size or null, "
                          f"got {brief(seed)}")

    data = Path(csv_path).read_bytes()
    cells = _label_cells_exact(data)
    if cells is None:
        cells = _label_cells_parsed(csv_path, data)
    num_frames, num_labels = cells.shape
    for key, found in (("num_frames", num_frames), ("num_labels", num_labels)):
        if meta.get(key, found) != found:
            raise FormatError(f"{brief(csv_path)}: {found} {key} but sidecar says "
                              f"{brief(meta[key])}")
    try:
        return LabelMatrix(frames=cells, grid=FrameGrid(fps=float(fps), num_frames=num_frames),
                           labeling_function=LabelingFunction.from_letter(letter)
                           if letter else None, seed=seed)
    except ContractError as exc:  # a cell that is not 0 or 1
        raise FormatError(f"{brief(csv_path)}: {exc}") from None


def write_feature_matrix(features: FeatureMatrix, csv_path: Path) -> None:
    """Write values as CSV, each cell repr(float), plus the one-line JSON sidecar."""
    _write_matrix_csv(csv_body(features.values), csv_path, {
        "fps": features.grid.fps,
        "num_frames": features.num_frames,
        "feature_dim": features.feature_dim,
    })


EVAL_CSV_HEADER = "piece,fn,seed,fps,tp,fp,fn,precision,recall,fmeasure"
EXPERIMENT_CSV_HEADER = "fn,seed,split,precision,recall,fmeasure"


def csv_line(values) -> str:
    """A result CSV row: a float as repr(float(v)), None empty, else str(v)."""
    return ",".join(repr(float(v)) if isinstance(v, float) else "" if v is None else str(v)
                    for v in values)


def write_csv(path: Path, header: str, rows) -> None:
    """A result CSV: the header line, then one csv_line per row of values."""
    atomic_write_text(path, "\n".join([header, *map(csv_line, rows)]) + "\n")


def write_manifest(path: Path, command: str, config: dict,
                   seeds: list[int], inputs: list[Path]) -> None:
    """Record everything needed to reproduce a run byte-identically.

    Contains the command, the fully resolved configuration, the seeds, a
    [name, sha256] pair for each input file read, in the order given, and
    the tool version. A name holds no directory, so a rerun elsewhere
    writes the same bytes. Deliberately no timestamps or host data.
    """
    manifest = {
        "command": command,
        "config": config,
        "seeds": list(seeds),
        "inputs": [[Path(p).name, hashlib.sha256(Path(p).read_bytes()).hexdigest()]
                   for p in inputs],
        "tool_version": __version__,
    }
    write_json(path, manifest)
