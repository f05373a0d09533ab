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
import tempfile
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError
from .metrics import EvalResult
from .quantize import FrameGrid, LabelingFunction, LabelMatrix
from .synth import FeatureMatrix
from .trainer import ExperimentTable


def atomic_write_text(path: Path, text: str) -> None:
    """Write text via a temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_text(path: Path) -> str:
    """A UTF-8 file's text; other bytes are a FormatError naming the file
    and line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"{path}: line {line}: not UTF-8 text") from None


def write_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def sidecar_path(csv_path: Path) -> Path:
    return Path(csv_path).with_suffix(".json")


def _format_float(x: float) -> str:
    return repr(float(x))


def _write_matrix_csv(values: np.ndarray, format_cell, csv_path: Path,
                      sidecar: dict) -> None:
    """Write one CSV row of formatted cells per frame, then the sidecar."""
    csv_path = Path(csv_path)
    lines = [",".join(map(format_cell, row)) for row in values]
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    atomic_write_text(sidecar_path(csv_path),
                      json.dumps(sidecar, sort_keys=True) + "\n")


def _read_matrix_csv(csv_path: Path, parse_cell, cell_kind: str,
                     width_key: str) -> tuple[dict, FrameGrid, np.ndarray]:
    """Read a matrix CSV and its sidecar: (sidecar, grid, 2-D cell array).

    Malformed input raises FormatError naming the file, and the line where
    one is at fault. A missing sidecar, or one without fps, is a
    ContractError.
    """
    csv_path = Path(csv_path)
    side = sidecar_path(csv_path)
    if not side.exists():
        raise ContractError(f"fps metadata missing: expected sidecar {side}")
    try:
        meta = json.loads(read_text(side))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{side}: unreadable sidecar: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{side}: line 1: sidecar must hold a JSON object")
    if "fps" not in meta:
        raise ContractError(f"fps metadata missing from sidecar {side}")
    fps = meta["fps"]
    if isinstance(fps, bool) or not isinstance(fps, (int, float)):
        raise FormatError(f"{side}: fps must be a number, got {fps!r}")

    rows = []
    for lineno, line in enumerate(read_text(csv_path).splitlines(), start=1):
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
    for key, found in (("num_frames", len(rows)), (width_key, len(rows[0]))):
        if meta.get(key, found) != found:
            raise FormatError(f"{csv_path}: {found} {key} but sidecar says {meta[key]}")
    return meta, FrameGrid(fps=float(fps), num_frames=len(rows)), np.array(rows)


def write_label_matrix(matrix: LabelMatrix, csv_path: Path) -> None:
    """Write frames as 0/1 CSV plus the one-line JSON sidecar."""
    _write_matrix_csv(matrix.frames, str, csv_path, {
        "fps": matrix.grid.fps,
        "num_frames": matrix.num_frames,
        "num_labels": matrix.num_labels,
        "labeling_function": matrix.labeling_function.letter
        if matrix.labeling_function is not None else None,
        "seed": matrix.seed,
    })


def read_label_matrix(csv_path: Path) -> LabelMatrix:
    """Read a matrix CSV and its sidecar back into a LabelMatrix."""
    meta, grid, frames = _read_matrix_csv(csv_path, int, "non-integer", "num_labels")
    if frames.min() < 0 or frames.max() > 1:
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
    _write_matrix_csv(features.values, _format_float, csv_path, {
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
