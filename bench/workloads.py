"""The benchmark's three workloads.

Each workload has the same shape:

- `setup()` generates its inputs from the seed and warms up; the harness
  times it, and may call it more than once.
- `prepare_checks()` computes what the outputs are checked against. It is
  neither set-up nor measured work.
- `ops()` lists one pass as (label, callable) operations; the harness
  times each call, then hands its result to `check(label, result)`, which
  returns a problem description or None.
- `end_pass()` returns a digest of the pass's outputs; digests must agree
  across passes, traced or not.
- `final_checks()` returns problems found once, after all passes.

Workloads call the program through module attributes (`quantize.rasterize`,
not a name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np

import notegrid.annotation as annotation
import notegrid.cli as cli
import notegrid.metrics as metrics
import notegrid.midi as midi
import notegrid.quantize as quantize
import notegrid.synth as synth
import notegrid.trainer as trainer

import inputs
import spans

FNS = tuple(quantize.LabelingFunction)
A, E, F = (quantize.LabelingFunction(x) for x in "aef")


def _fn_seed(seed: int, index: int) -> int:
    """Draw seed of the random labeling functions for piece `index`."""
    return seed * 1000 + index + 1


class Sensitivity:
    """One run_sensitivity_experiment call per pass (criterion 6 at seed 0)."""

    name = "sensitivity"

    def __init__(self, seed: int, synth_overrides: dict | None = None,
                 train_overrides: dict | None = None, seeds=(1, 2, 3)):
        self.seed = seed
        self.full_size = synth_overrides is None and train_overrides is None
        self.synth_cfg = synth.SynthConfig(**(synth_overrides or {}), seed=seed)
        self.train_cfg = trainer.TrainConfig(**(train_overrides or {}))
        self.fns = [A, E, F]
        self.seeds = list(seeds)
        self.tables = []

    def _experiment(self, synth_cfg, train_cfg, fns, seeds):
        duration = synth_cfg.piece_duration_sec
        return trainer.run_sensitivity_experiment(
            synth_cfg, fns, quantize.FrameGrid.covering(31.25, duration),
            quantize.FrameGrid.covering(100.0, duration), train_cfg, seeds)

    def setup(self) -> None:
        tiny = synth.SynthConfig(num_pieces=5, piece_duration_sec=2.0, seed=self.seed)
        self._experiment(tiny, trainer.TrainConfig(epochs=1), [A], [1])

    def prepare_checks(self) -> None:
        pass

    def ops(self):
        return [("experiment", lambda: self._experiment(
            self.synth_cfg, self.train_cfg, self.fns, self.seeds))]

    def check(self, label, table):
        got = sorted((row.fn.letter, row.seed) for row in table.rows)
        want = sorted((fn.letter, s) for fn in self.fns for s in self.seeds)
        if got != want:
            return f"rows {got} != expected {want}"
        for row in table.rows:
            if not all(math.isfinite(v) and 0.0 <= v <= 1.0
                       for v in (row.precision, row.recall, row.fmeasure)):
                return f"fn {row.fn.letter} seed {row.seed}: score out of [0, 1]"
        self.tables.append(table)
        return None

    def end_pass(self) -> str:
        rows = [(r.fn.letter, r.seed, r.precision, r.recall, r.fmeasure)
                for r in self.tables[-1].rows] if self.tables else []
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    def mean_f(self) -> dict[str, float]:
        return {fn.letter: self.tables[-1].mean_fmeasure(fn) for fn in self.fns} \
            if self.tables else {}

    def final_checks(self) -> list[str]:
        if not (self.seed == 0 and self.full_size and self.tables):
            return []
        f = self.mean_f()
        problems = []
        if not f["a"] - f["f"] >= 0.005:
            problems.append(f"criterion 6: F(a)-F(f) = {f['a'] - f['f']:.6f} < 0.005")
        if not f["a"] - f["e"] >= 0.0:
            problems.append(f"criterion 6: F(a)-F(e) = {f['a'] - f['e']:.6f} < 0")
        return problems

    def results(self) -> dict:
        return {"mean_f": self.mean_f()}

    def close(self) -> None:
        pass


# 4 x 30 s, 6 x 2 min, 2 x 10 min: the median file is a 2-min one and the
# 90th percentile a 10-min one, so neither quantile sits on a size boundary.
# At 100 fps x 88 labels a 30 s matrix is 0.26 MB, a 10-min one 5.3 MB.
LABEL_STUDY_DURATIONS = (30.0,) * 4 + (120.0,) * 6 + (600.0,) * 2


class LabelStudy:
    """The library path in memory: parse, rasterize, score, per file."""

    name = "label-study"

    def __init__(self, seed: int, durations=LABEL_STUDY_DURATIONS):
        self.seed = seed
        self.durations = durations
        self.pieces = []
        self._hash = hashlib.sha256()

    def setup(self) -> None:
        # alternate TSV and SMF within each length; every second SMF file
        # changes tempo
        self.pieces = [inputs.piece(self.seed, 1, i, d, "tsv" if i % 2 == 0 else "mid",
                                    tempo_change=i % 4 == 3)
                       for i, d in enumerate(self.durations)]
        self._texts = {p.name: p.data.decode("ascii") for p in self.pieces
                       if p.fmt == "tsv"}
        for fmt in ("tsv", "mid"):
            warm = inputs.piece(self.seed, 99, 0, 5.0, fmt)
            self._study(warm, warm.data.decode("ascii") if fmt == "tsv" else warm.data, 0)

    def prepare_checks(self) -> None:
        pass

    def _parse(self, piece):
        if piece.fmt == "tsv":
            return annotation.parse_tsv(self._texts[piece.name])
        return midi.parse_midi(piece.data)

    @staticmethod
    def _study(piece, data, fn_seed):
        ann = (annotation.parse_tsv(data) if piece.fmt == "tsv"
               else midi.parse_midi(data))
        grid = quantize.FrameGrid.covering(100.0, ann.duration_sec)
        matrices = [quantize.rasterize(ann, grid, fn, fn_seed) for fn in FNS]
        ceilings = [quantize.noise_ceiling(ann, grid, fn, fn_seed) for fn in FNS[1:]]
        shift = metrics.disagreement(matrices[0], matrices[-1], ann)
        coarse = quantize.rasterize(
            ann, quantize.FrameGrid.covering(31.25, ann.duration_sec), F, fn_seed)
        score = metrics.evaluate_against_reference(coarse, ann)
        return matrices + [coarse], ceilings, shift, score

    def ops(self):
        ops = []
        for i, piece in enumerate(self.pieces):
            data = self._texts[piece.name] if piece.fmt == "tsv" else piece.data
            ops.append((piece.name, lambda p=piece, d=data, s=_fn_seed(self.seed, i):
                        self._study(p, d, s)))
        return ops

    def check(self, label, result):
        matrices, ceilings, shift, score = result
        for m in matrices:
            self._hash.update(m.frames.tobytes())
        values = [c.fmeasure for c in ceilings] + [score.fmeasure, shift.frame_rate_of_disagreement]
        if not all(0.0 <= v <= 1.0 for v in values):
            return f"{label}: score out of [0, 1]: {values}"
        self._hash.update(repr((values, shift.differing_frames,
                                shift.onset_shift_histogram,
                                shift.offset_shift_histogram)).encode())
        return None

    def end_pass(self) -> str:
        digest, self._hash = self._hash.hexdigest(), hashlib.sha256()
        return digest

    def final_checks(self) -> list[str]:
        problems = []
        for i, piece in enumerate(self.pieces):
            ann = self._parse(piece)
            grid = quantize.FrameGrid.covering(100.0, ann.duration_sec)
            ceiling = quantize.noise_ceiling(ann, grid, A)
            if ceiling.fmeasure != 1.0:
                problems.append(f"{piece.name}: noise_ceiling(a) = {ceiling.fmeasure!r}")
            a = quantize.rasterize(ann, grid, A)
            same = metrics.disagreement(a, a, ann)
            if same.differing_frames or same.onset_shift_histogram or same.offset_shift_histogram:
                problems.append(f"{piece.name}: disagreement(a, a) is not zero")
        return problems

    def results(self) -> dict:
        return {"files": len(self.pieces), "notes": sum(p.num_notes for p in self.pieces)}

    def close(self) -> None:
        pass


CLI_DURATIONS = (40.0,) * 3
SYNTH_PIECES = 4


def _read_csv_frames(path: Path, num_labels: int) -> np.ndarray:
    """Parse a 0/1 label CSV independently of the program's reader."""
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8).reshape(-1, 2 * num_labels)
    separators = raw[:, 1::2]
    if not ((separators[:, :-1] == ord(",")).all() and (separators[:, -1] == ord("\n")).all()):
        raise ValueError(f"{path.name}: malformed separators")
    return raw[:, ::2] - ord("0")


class CliRoundtrip:
    """The file path: cli.main calls in this process, into a scratch dir."""

    name = "cli-roundtrip"

    def __init__(self, seed: int, work_dir: Path, durations=CLI_DURATIONS,
                 synth_pieces=SYNTH_PIECES):
        self.seed = seed
        self.root = Path(work_dir)
        self.durations = durations
        self.synth_pieces = synth_pieces
        self.tracer = None  # set by the harness for the traced passes
        self.expected: dict[str, np.ndarray] = {}

    def _write_inputs(self, directory: Path, tag: int, durations) -> list[tuple[Path, Path]]:
        directory.mkdir(parents=True, exist_ok=True)
        pairs = []
        for i, duration in enumerate(durations):
            paths = []
            for fmt in ("tsv", "mid"):
                piece = inputs.piece(self.seed, tag, i, duration, fmt,
                                     tempo_change=i % 2 == 1)
                path = directory / f"p{i:02d}.{fmt}"
                path.write_bytes(piece.data)
                paths.append(path)
            pairs.append(tuple(paths))
        return pairs

    def _pass_ops(self, pairs, out: Path, synth_pieces: int):
        ops = [("synth", ["synth", "--out", str(out / "synth"), "--pieces", str(synth_pieces),
                          "--seed", str(self.seed), "--features"])]
        for i, (tsv, mid) in enumerate(pairs):
            piece_out = out / tsv.stem
            seed = str(_fn_seed(self.seed, i))
            csv = {}
            for src in (tsv, mid):
                for fn in ("a", "f"):
                    name = f"{src.stem}_{src.suffix[1:]}_{fn}"
                    csv[(src.suffix[1:], fn)] = str(piece_out / f"{name}.csv")
                    ops.append((f"rasterize:{name}",
                                ["rasterize", str(src), "--fps", "100", "--fn", fn,
                                 "--seed", seed, "--out", str(piece_out), "--name", name]))
            ops += [
                ("eval", ["eval", "--pred", csv[("tsv", "f")], "--annotation", str(tsv),
                          "--out", str(piece_out / "eval_annotation")]),
                ("eval", ["eval", "--pred", csv[("mid", "f")], "--ref", csv[("mid", "a")],
                          "--out", str(piece_out / "eval_ref")]),
                ("disagree", ["disagree", "--a", csv[("tsv", "a")], "--b", csv[("tsv", "f")],
                              "--annotation", str(tsv), "--out", str(piece_out / "disagree")]),
                ("inspect", ["inspect", csv[("mid", "a")]]),
            ]
        return ops

    def _call(self, argv):
        captured = stdio.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
                spans.cli_span(self.tracer, argv[0]):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, captured.getvalue()

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.pairs = self._write_inputs(self.root / "inputs", 2, self.durations)
        warm = self._write_inputs(self.root / "warm" / "inputs", 98, (5.0,))
        for label, argv in self._pass_ops(warm, self.root / "warm" / "out", 1):
            self._call(argv)

    def prepare_checks(self) -> None:
        """In-memory rasterizations the CSVs the CLI writes must equal."""
        self.expected.clear()
        for i, pair in enumerate(self.pairs):
            for src in pair:
                ann = cli.load_annotation(src, 21, 88)
                grid = quantize.FrameGrid.covering(100.0, ann.duration_sec)
                for fn in (A, F):
                    matrix = quantize.rasterize(ann, grid, fn, _fn_seed(self.seed, i))
                    name = f"{src.stem}_{src.suffix[1:]}_{fn.letter}"
                    self.expected[name] = matrix.frames

    def ops(self):
        out = self.root / "out"
        return [(label, lambda argv=argv: self._call(argv))
                for label, argv in self._pass_ops(self.pairs, out, self.synth_pieces)]

    def check(self, label, result):
        code, output = result
        if code != 0:
            return f"{label}: exit {code}: {output.strip()[-300:]}"
        if label.startswith("rasterize:"):
            name = label.split(":", 1)[1]
            piece_out = self.root / "out" / name.split("_", 1)[0]
            want = self.expected[name]
            try:
                got = _read_csv_frames(piece_out / f"{name}.csv", want.shape[1])
                meta = json.loads((piece_out / f"{name}.json").read_text())
            except (OSError, ValueError) as exc:
                return f"{label}: unreadable output: {exc}"
            if got.shape != want.shape or not np.array_equal(got, want) \
                    or meta["fps"] != 100.0 or meta["num_frames"] != want.shape[0]:
                return f"{label}: read-back matrix differs from in-memory rasterize"
        return None

    def end_pass(self) -> str:
        digest = hashlib.sha256()
        out = self.root / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(out)).encode() + b"\0")
            digest.update(path.read_bytes())
        return digest.hexdigest()

    def final_checks(self) -> list[str]:
        return []

    def results(self) -> dict:
        out = self.root / "out"
        return {"output_files": sum(1 for p in out.rglob("*") if p.is_file()),
                "output_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file())}

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(self.root.parent)
