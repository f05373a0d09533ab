"""File formats and run manifests.

Label and feature matrices are stored as plain CSV (one row per frame)
next to a one-line JSON sidecar holding the grid and provenance metadata.
Evaluation and experiment results are CSV plus a JSON summary. Every file
is written atomically (temp file + rename) so interrupted runs never
leave corrupt outputs, and manifests contain no wall-clock data, keeping
reruns byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .metrics import EvalResult
from .quantize import FrameGrid, LabelingFunction, LabelMatrix
from .synth import FeatureMatrix
from .trainer import ExperimentTable


def _umask() -> int:
    """The process umask. Reading it means setting it, so this sets 0 for
    an instant; notegrid writes its files from one thread."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: Path, data: str | bytes) -> None:
    """Write text (encoded as UTF-8) or bytes via a temp file in the same
    directory, then rename.

    The file gets the mode open() gives a new file, 0o666 less the umask:
    mkstemp creates the temp file 0o600, and the rename keeps its mode.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp_name, 0o666 & ~_umask())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _decode_utf8(path: Path, data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8 text") from None


def read_text(path: Path) -> str:
    """A UTF-8 file's text; other bytes are a FormatError naming the file
    and line."""
    return _decode_utf8(path, Path(path).read_bytes())


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object in a UTF-8 file. Bad JSON, and any value that is
    not an object, is a FormatError naming the file and `what` it is."""
    try:
        obj = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer past the digit limit;
        # RecursionError: arrays or objects nested too deeply
        raise FormatError(f"{path}: unreadable {what}: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError(f"{path}: line 1: {what} must hold a JSON object")
    return obj


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_matrix_csv(body: str | bytes, csv_path: Path, sidecar: dict) -> None:
    """Write the CSV body, then the one-line JSON sidecar."""
    csv_path = Path(csv_path)
    atomic_write_text(csv_path, body)
    atomic_write_text(sidecar_path(csv_path),
                      json.dumps(sidecar, sort_keys=True) + "\n")


def _read_matrix_csv(csv_path: Path, parse_cell, cell_kind: str, width_key: str,
                     decode_exact=None) -> tuple[dict, FrameGrid, np.ndarray]:
    """Read a matrix CSV and its sidecar: (sidecar, grid, 2-D cell array).

    `decode_exact`, if given, maps the CSV's bytes to the cell array when
    they are in the writer's exact layout and returns None otherwise. The
    line parser reads every file it declines, and is the only source of
    line-numbered errors. Malformed input raises FormatError naming the
    file, and the line where one is at fault. A missing sidecar, or one
    without fps, is a ContractError.
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not side.exists():
        raise ContractError(f"fps metadata missing: expected sidecar {side}")
    meta = read_json_object(side, "sidecar")
    if "fps" not in meta:
        raise ContractError(f"fps metadata missing from sidecar {side}")
    fps = meta["fps"]
    if isinstance(fps, bool) or not isinstance(fps, (int, float)):
        raise FormatError(f"{side}: fps must be a number, got {fps!r}")
    if abs(fps) > sys.float_info.max:
        raise FormatError(f"{side}: fps must be a finite number")

    data = csv_path.read_bytes()
    cells = decode_exact(data) if decode_exact is not None else None
    if cells is None:
        rows = []
        for lineno, line in enumerate(_decode_utf8(csv_path, data).splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append([parse_cell(v) for v in line.split(",")])
            except ValueError:
                raise FormatError(f"{csv_path}: line {lineno}: {cell_kind} cell") from None
            if len(rows[-1]) != len(rows[0]):
                raise FormatError(f"{csv_path}: line {lineno}: ragged row of "
                                  f"{len(rows[-1])} cells, expected {len(rows[0])}")
        if not rows:
            raise FormatError(f"{csv_path}: line 1: empty matrix")
        cells = np.array(rows)
    num_frames, width = cells.shape
    for key, found in (("num_frames", num_frames), (width_key, width)):
        if meta.get(key, found) != found:
            raise FormatError(f"{csv_path}: {found} {key} but sidecar says {meta[key]!r}")
    return meta, FrameGrid(fps=float(fps), num_frames=num_frames), cells


_ZERO, _COMMA, _NEWLINE = b"0,\n"


def _label_csv_bytes(frames: np.ndarray) -> bytes:
    """The label CSV of 0/1 frames: row r is ",".join(map(str, frames[r]))
    followed by "\\n".

    With K labels every row is 2K bytes (K digits, K-1 commas, the
    newline); with none it is the newline alone.
    """
    num_frames, num_labels = frames.shape
    out = np.full((num_frames, max(2 * num_labels, 1)), _COMMA, dtype=np.uint8)
    out[:, 0:2 * num_labels:2] = frames + _ZERO
    out[:, -1] = _NEWLINE
    return out.tobytes()


def _label_cells_exact(data: bytes) -> np.ndarray | None:
    """The uint8 cells of a label CSV whose every row is "d,d,...,d\\n" with
    d in {0, 1} and the first row's width, or "\\n" alone when there are no
    labels; None for any other bytes."""
    width = data.find(b"\n") + 1
    if width == 0 or (width > 1 and width % 2) or len(data) % width:
        return None
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, width)
    cells = raw[:, :-1:2] - _ZERO
    if ((cells > 1).any() or (raw[:, 1:-1:2] != _COMMA).any()
            or (raw[:, -1] != _NEWLINE).any()):
        return None
    return cells


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
    """Read a matrix CSV and its sidecar back into a LabelMatrix."""
    meta, grid, frames = _read_matrix_csv(csv_path, int, "non-integer", "num_labels",
                                          decode_exact=_label_cells_exact)
    if frames.size and (frames.min() < 0 or frames.max() > 1):
        raise FormatError(f"{csv_path}: cells must be 0 or 1")
    side = sidecar_path(csv_path)
    letter, seed = meta.get("labeling_function"), meta.get("seed")
    if letter not in (None, "") and not (
            isinstance(letter, str) and letter.lower() in [fn.letter for fn in LabelingFunction]):
        raise FormatError(f"{side}: labeling_function must be one of a-f or null, "
                          f"got {letter!r}")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise FormatError(f"{side}: seed must be an integer or null, got {seed!r}")
    return LabelMatrix(
        frames=frames.astype(np.uint8),
        grid=grid,
        labeling_function=LabelingFunction.from_letter(letter) if letter else None,
        seed=seed,
    )


def write_feature_matrix(features: FeatureMatrix, csv_path: Path) -> None:
    body = "\n".join(",".join(map(repr, row)) for row in features.values.tolist()) + "\n"
    _write_matrix_csv(body, csv_path, {
        "fps": features.grid.fps,
        "num_frames": features.num_frames,
        "feature_dim": features.feature_dim,
    })


def read_feature_matrix(csv_path: Path) -> FeatureMatrix:
    _, grid, values = _read_matrix_csv(csv_path, float, "non-numeric", "feature_dim")
    return FeatureMatrix(values=values, grid=grid)


EVAL_CSV_HEADER = "piece,fn,seed,fps,tp,fp,fn,precision,recall,fmeasure"


def eval_row(piece: str, fn_letter: str, seed, fps: float, result: EvalResult) -> str:
    seed_field = "" if seed is None else str(seed)
    return ",".join([
        piece, fn_letter, seed_field, _format_float(fps),
        str(result.counts.tp), str(result.counts.fp), str(result.counts.fn_),
        _format_float(result.precision), _format_float(result.recall),
        _format_float(result.fmeasure),
    ])


def write_eval_csv(rows: list[str], path: Path) -> None:
    atomic_write_text(path, "\n".join([EVAL_CSV_HEADER] + rows) + "\n")


EXPERIMENT_CSV_HEADER = "fn,seed,split,precision,recall,fmeasure"


def write_experiment_csv(table: ExperimentTable, path: Path) -> None:
    lines = [EXPERIMENT_CSV_HEADER]
    for row in table.rows:
        lines.append(",".join([
            row.fn.letter, str(row.seed), row.split,
            _format_float(row.precision), _format_float(row.recall),
            _format_float(row.fmeasure),
        ]))
    atomic_write_text(path, "\n".join(lines) + "\n")


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path: Path, command: str, config: dict,
                   seeds: list[int], inputs: list[Path], version: str) -> None:
    """Record everything needed to reproduce a run byte-identically.

    Contains the command, the fully resolved configuration, the seeds,
    sha256 digests of all input files, and the tool version. Deliberately
    no timestamps or host data.
    """
    manifest = {
        "command": command,
        "config": config,
        "seeds": list(seeds),
        "inputs": {Path(p).name: file_digest(p) for p in inputs},
        "tool_version": version,
    }
    write_json(path, manifest)
