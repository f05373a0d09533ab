"""Command line front end.

Subcommands: rasterize, eval, disagree, synth, experiment, inspect.
Every command that writes files also writes a manifest recording the
fully resolved configuration and input digests; re-running a command
with the same arguments (or with --config pointed at a manifest)
reproduces its outputs byte for byte.

Exit codes: 0 success, 2 usage error, 3 runtime error or training
divergence, 4 input format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import numbers
import sys
import typing
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .annotation import Annotation, parse_tsv, to_tsv, validate
from .errors import (ContractError, DivergenceError, FormatError, NotegridError,
                     RangeError, UnsupportedError, ValidationError)
from .metrics import disagreement, evaluate_against_reference, prf, windowed_counts
from .midi import parse_midi
from .quantize import FrameGrid, LabelingFunction, rasterize
from .synth import SynthConfig, generate_corpus, render_features
from .trainer import TrainConfig, run_sensitivity_experiment
from . import io

_ANNOTATION_SUFFIXES = {".tsv", ".txt", ".mid", ".midi"}

_EXPERIMENT_DEFAULTS = {
    "fns": ["a", "b", "c", "d", "e", "f"],
    "seeds": [1, 2, 3],
    "train_fps": 31.25,
    "eval_fps": 100.0,
    "window_sec": 30.0,
}


# what each top-level experiment config key must hold
_EXPERIMENT_KEYS = {
    "fns": (list[str], "a list of strings"),
    "seeds": (list[int], "a list of integers"),
    "train_fps": (numbers.Real, "a number"),
    "eval_fps": (numbers.Real, "a number"),
    "window_sec": (numbers.Real, "a number"),
    "synth": (dict, "a JSON object"),
    "train": (dict, "a JSON object"),
}


def load_annotation(path: Path, pitch_offset: int, num_labels: int) -> Annotation:
    path = Path(path)
    if path.suffix.lower() in (".mid", ".midi"):
        parse, data = parse_midi, path.read_bytes()
    else:
        parse, data = parse_tsv, io.read_text(path)
    try:
        return parse(data, pitch_offset=pitch_offset, num_labels=num_labels)
    except NotegridError as exc:
        # surface the file name alongside the parser's line context
        raise type(exc)(f"{path.name}: {exc}") from None


def _load_config_file(path: Path) -> dict:
    obj = io.read_json_object(path, "config")
    if "command" in obj and "config" in obj:
        return obj["config"]  # accept a previously written manifest
    return obj


def _fits(kind, value) -> bool:
    """Whether a JSON value has the declared type `kind`. A bool is never
    a number, and a `float` must be finite."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:
        return isinstance(value, kind)
    if origin not in (list, tuple):
        return any(_fits(arg, value) for arg in args)  # a union such as X | None
    if not isinstance(value, (list, tuple)):
        return False
    if origin is list or args[-1] is Ellipsis:
        return all(_fits(args[0], item) for item in value)
    return len(value) == len(args) and all(map(_fits, args, value))


def _build_config(cls, overrides: dict, what: str):
    """A SynthConfig or TrainConfig from JSON overrides; a key the class
    lacks, a value of the wrong type, or a value the class rejects is a
    ContractError."""
    kinds = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        if field.name in overrides and not _fits(kinds[field.name], overrides[field.name]):
            raise ContractError(f"bad {what} config: {field.name} must be {field.type}"
                                f", got {overrides[field.name]!r}")
    try:
        return cls(**overrides)
    except (TypeError, ValueError, ContractError) as exc:
        raise ContractError(f"bad {what} config: {exc}") from None


def cmd_rasterize(args, parser) -> int:
    if not args.fps > 0:
        parser.error("--fps must be positive")
    fn = LabelingFunction.from_letter(args.fn)
    if fn.is_random and args.seed is None:
        parser.error(f"--seed is required for labeling function {fn.letter}")
    seed = args.seed if args.seed is not None else 0

    input_path = Path(args.input)
    if input_path.suffix.lower() not in _ANNOTATION_SUFFIXES:
        parser.error(f"unrecognized annotation extension {input_path.suffix!r} "
                     "(expected .tsv, .txt, .mid, .midi)")
    annotation = load_annotation(input_path, args.pitch_offset, args.num_labels)
    grid = FrameGrid.covering(args.fps, annotation.duration_sec)
    matrix = rasterize(annotation, grid, fn, seed)

    out_dir = Path(args.out)
    stem = args.name or input_path.stem
    csv_path = out_dir / f"{stem}.csv"
    io.write_label_matrix(matrix, csv_path)
    config = {
        "fps": args.fps, "fn": fn.letter, "seed": seed,
        "pitch_offset": args.pitch_offset, "num_labels": args.num_labels,
        "input": input_path.name, "name": stem,
    }
    io.write_manifest(out_dir / f"{stem}.manifest.json", "rasterize", config,
                      [seed], [input_path], __version__)
    print(f"wrote {csv_path}")
    return 0


def cmd_eval(args, parser) -> int:
    if not args.window_sec > 0:
        parser.error("--window-sec must be positive")
    if args.ref is None and args.annotation is None:
        parser.error("either --ref or --annotation is required")

    pred = io.read_label_matrix(Path(args.pred))
    inputs = [Path(args.pred), io.sidecar_path(Path(args.pred))]
    if args.ref is not None:
        ref = io.read_label_matrix(Path(args.ref))
        inputs += [Path(args.ref), io.sidecar_path(Path(args.ref))]
        result = prf(windowed_counts(pred, ref, args.window_sec))
    else:
        if not args.ref_fps > 0:
            parser.error("--ref-fps must be positive")
        annotation = load_annotation(Path(args.annotation), args.pitch_offset,
                                     args.num_labels)
        ref_fn = LabelingFunction.from_letter(args.fn)
        if ref_fn.is_random and args.seed is None:
            parser.error(f"--seed is required for labeling function {ref_fn.letter}")
        result = evaluate_against_reference(
            pred, annotation, window_sec=args.window_sec, ref_fps=args.ref_fps,
            reference_fn=ref_fn, reference_seed=args.seed if args.seed is not None else 0)
        inputs.append(Path(args.annotation))

    piece = Path(args.pred).stem
    fn_letter = pred.labeling_function.letter if pred.labeling_function else ""
    row = io.eval_row(piece, fn_letter, pred.seed, pred.grid.fps, result)

    out_dir = Path(args.out)
    io.write_eval_csv([row], out_dir / "eval.csv")
    summary = {
        "rows": [{
            "piece": piece, "fn": fn_letter, "seed": pred.seed,
            "fps": pred.grid.fps, "tp": result.counts.tp, "fp": result.counts.fp,
            "fn_": result.counts.fn_, "precision": result.precision,
            "recall": result.recall, "fmeasure": result.fmeasure,
        }],
        "per_fn_mean_fmeasure": {fn_letter: result.fmeasure} if fn_letter else {},
    }
    io.write_json(out_dir / "eval.json", summary)
    config = {
        "pred": Path(args.pred).name,
        "ref": Path(args.ref).name if args.ref else None,
        "annotation": Path(args.annotation).name if args.annotation else None,
        "fn": args.fn, "seed": args.seed, "ref_fps": args.ref_fps,
        "window_sec": args.window_sec,
        "pitch_offset": args.pitch_offset, "num_labels": args.num_labels,
    }
    io.write_manifest(out_dir / "eval.manifest.json", "eval", config,
                      [s for s in [args.seed] if s is not None], inputs, __version__)
    print(io.EVAL_CSV_HEADER)
    print(row)
    return 0


def cmd_disagree(args, parser) -> int:
    matrix_a = io.read_label_matrix(Path(args.a))
    matrix_b = io.read_label_matrix(Path(args.b))
    annotation = load_annotation(Path(args.annotation), args.pitch_offset,
                                 args.num_labels)
    stats = disagreement(matrix_a, matrix_b, annotation)

    out_dir = Path(args.out)
    payload = {
        "differing_frames": stats.differing_frames,
        "frame_rate_of_disagreement": stats.frame_rate_of_disagreement,
        "onset_shift_histogram": {str(k): v for k, v in stats.onset_shift_histogram.items()},
        "offset_shift_histogram": {str(k): v for k, v in stats.offset_shift_histogram.items()},
    }
    io.write_json(out_dir / "disagree.json", payload)
    inputs = [Path(args.a), Path(args.b), Path(args.annotation)]
    config = {"a": Path(args.a).name, "b": Path(args.b).name,
              "annotation": Path(args.annotation).name,
              "pitch_offset": args.pitch_offset, "num_labels": args.num_labels}
    io.write_manifest(out_dir / "disagree.manifest.json", "disagree", config,
                      [], inputs, __version__)
    print(f"differing frames: {stats.differing_frames} "
          f"({stats.frame_rate_of_disagreement:.6f} of cells)")
    return 0


def cmd_synth(args, parser) -> int:
    overrides = _load_config_file(Path(args.config)) if args.config else {}
    if args.pieces is not None:
        overrides["num_pieces"] = args.pieces
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = _build_config(SynthConfig, overrides, "synth")

    corpus = generate_corpus(cfg)
    out_dir = Path(args.out)
    pieces_meta = []
    for i, piece in enumerate(corpus):
        name = f"piece_{i:03d}.tsv"
        io.atomic_write_text(out_dir / name, to_tsv(piece, pitch_offset=args.pitch_offset))
        if args.features:
            grid = FrameGrid.covering(args.fps, piece.duration_sec)
            features = render_features(piece, grid, cfg, noise_seed=i)
            io.write_feature_matrix(features, out_dir / f"piece_{i:03d}.features.csv")
        pieces_meta.append({"id": i, "noise_seed": i, "path": name,
                            "num_events": len(piece)})
    io.write_json(out_dir / "corpus.json",
                  {"config": asdict(cfg), "pieces": pieces_meta})
    io.write_manifest(out_dir / "synth.manifest.json", "synth",
                      {"synth": asdict(cfg), "features": bool(args.features),
                       "fps": args.fps, "pitch_offset": args.pitch_offset},
                      [cfg.seed], [], __version__)
    print(f"wrote {len(corpus)} pieces to {out_dir}")
    return 0


def cmd_experiment(args, parser) -> int:
    config = dict(_EXPERIMENT_DEFAULTS)
    config["synth"] = {}
    config["train"] = {}
    if args.config:
        loaded = _load_config_file(Path(args.config))
        for key, value in loaded.items():
            if key not in _EXPERIMENT_KEYS:
                parser.error(f"unknown experiment config key {key!r}")
            kind, description = _EXPERIMENT_KEYS[key]
            if not _fits(kind, value):
                parser.error(f"experiment config key {key!r} must hold {description}, "
                             f"got {value!r}")
            config[key] = value
    if args.fns is not None:
        config["fns"] = [letter.strip() for letter in args.fns.split(",") if letter.strip()]
    if args.seeds is not None:
        try:
            config["seeds"] = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            parser.error(f"--seeds must be comma-separated integers, got {args.seeds!r}")
    if args.train_fps is not None:
        config["train_fps"] = args.train_fps
    if args.eval_fps is not None:
        config["eval_fps"] = args.eval_fps
    if args.window_sec is not None:
        config["window_sec"] = args.window_sec
    if args.epochs is not None:
        config["train"]["epochs"] = args.epochs
    if args.learning_rate is not None:
        config["train"]["learning_rate"] = args.learning_rate

    if not config["fns"]:
        parser.error("--fns must name at least one labeling function")
    if not config["seeds"]:
        parser.error("--seeds must name at least one seed")
    if not config["window_sec"] > 0:
        parser.error("--window-sec must be positive")

    fns = [LabelingFunction.from_letter(letter) for letter in config["fns"]]
    synth_cfg = _build_config(SynthConfig, config["synth"], "synth")
    train_cfg = _build_config(TrainConfig, config["train"], "train")
    train_grid = FrameGrid.covering(config["train_fps"], synth_cfg.piece_duration_sec)
    eval_grid = FrameGrid.covering(config["eval_fps"], synth_cfg.piece_duration_sec)

    table = run_sensitivity_experiment(
        synth_cfg, fns, train_grid, eval_grid, train_cfg, config["seeds"],
        window_sec=config["window_sec"])

    out_dir = Path(args.out)
    io.write_experiment_csv(table, out_dir / "results.csv")
    io.write_json(out_dir / "summary.json", table.summary())
    resolved = {
        "fns": [fn.letter for fn in fns],
        "seeds": config["seeds"],
        "train_fps": config["train_fps"],
        "eval_fps": config["eval_fps"],
        "window_sec": config["window_sec"],
        "synth": asdict(synth_cfg),
        "train": asdict(train_cfg),
    }
    io.write_manifest(out_dir / "experiment.manifest.json", "experiment", resolved,
                      config["seeds"], [], __version__)
    for fn in fns:
        print(f"fn {fn.letter}: mean test F = {table.mean_fmeasure(fn):.6f}")
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def cmd_inspect(args, parser) -> int:
    path = Path(args.input)
    suffix = path.suffix.lower()
    if suffix in _ANNOTATION_SUFFIXES:
        annotation = load_annotation(path, args.pitch_offset, args.num_labels)
        report = validate(annotation)
        print(f"input: {path.name}")
        print(f"events: {len(annotation)}")
        print(f"num_labels: {annotation.num_labels}")
        print(f"duration_sec: {annotation.duration_sec!r}")
        if len(annotation):
            print(f"label_range: [{annotation.labels.min()}, {annotation.labels.max()}]")
        print(f"violations: {len(report.violations)}")
        for violation in report.violations:
            print(f"  {violation}")
    elif suffix == ".csv":
        matrix = io.read_label_matrix(path)
        print(f"input: {path.name}")
        print(f"num_frames: {matrix.num_frames}")
        print(f"num_labels: {matrix.num_labels}")
        print(f"fps: {matrix.grid.fps!r}")
        print(f"active_cells: {int(matrix.frames.sum())}")
        fn = matrix.labeling_function
        print(f"labeling_function: {fn.letter if fn else None}")
        print(f"seed: {matrix.seed}")
    else:
        parser.error(f"cannot inspect {path.suffix!r} files")
    return 0


def _add_annotation_options(sub) -> None:
    sub.add_argument("--pitch-offset", type=int, default=21,
                     help="MIDI pitch mapped to label 0 (default 21)")
    sub.add_argument("--num-labels", type=int, default=88,
                     help="size of the label space (default 88)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="notegrid",
        description="Framewise label matrices from interval annotations, "
                    "their quantization noise, and its effect on training.")
    parser.add_argument("--version", action="version", version=f"notegrid {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("rasterize", help="annotation file to label matrix CSV")
    sub.add_argument("input", help="annotation file (.tsv/.txt/.mid/.midi)")
    sub.add_argument("--fps", type=float, required=True, help="frame rate")
    sub.add_argument("--fn", required=True, choices=list("abcdef"),
                     help="labeling function")
    sub.add_argument("--seed", type=int, help="draw seed (required for e/f)")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--name", help="output file stem (default: input stem)")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_rasterize)

    sub = commands.add_parser("eval", help="score a matrix against a reference")
    sub.add_argument("--pred", required=True, help="prediction matrix CSV")
    sub.add_argument("--ref", help="reference matrix CSV")
    sub.add_argument("--annotation", help="annotation for an on-the-fly reference")
    sub.add_argument("--fn", default="a", choices=list("abcdef"),
                     help="reference labeling function (default a)")
    sub.add_argument("--seed", type=int, help="reference draw seed")
    sub.add_argument("--ref-fps", type=float, default=100.0,
                     help="reference frame rate (default 100)")
    sub.add_argument("--window-sec", type=float, default=30.0,
                     help="evaluation window in seconds (default 30)")
    sub.add_argument("--out", default=".", help="output directory")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_eval)

    sub = commands.add_parser("disagree", help="compare two rasterizations")
    sub.add_argument("--a", required=True, help="first matrix CSV")
    sub.add_argument("--b", required=True, help="second matrix CSV")
    sub.add_argument("--annotation", required=True, help="common source annotation")
    sub.add_argument("--out", default=".", help="output directory")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_disagree)

    sub = commands.add_parser("synth", help="generate a synthetic corpus")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", help="synth config JSON")
    sub.add_argument("--pieces", type=int, help="override number of pieces")
    sub.add_argument("--seed", type=int, help="override corpus seed")
    sub.add_argument("--features", action="store_true", help="also render features")
    sub.add_argument("--fps", type=float, default=31.25,
                     help="feature frame rate with --features (default 31.25)")
    sub.add_argument("--pitch-offset", type=int, default=21,
                     help="MIDI pitch written for label 0 (default 21)")
    sub.set_defaults(handler=cmd_synth)

    sub = commands.add_parser("experiment", help="run the sensitivity experiment")
    sub.add_argument("--config", help="experiment config JSON (or a manifest)")
    sub.add_argument("--fns", help="comma-separated labeling functions (default a..f)")
    sub.add_argument("--seeds", help="comma-separated seeds (default 1,2,3)")
    sub.add_argument("--train-fps", type=float, help="training frame rate (default 31.25)")
    sub.add_argument("--eval-fps", type=float, help="evaluation frame rate (default 100)")
    sub.add_argument("--window-sec", type=float, help="evaluation window (default 30)")
    sub.add_argument("--epochs", type=int, help="override training epochs")
    sub.add_argument("--learning-rate", type=float, help="override learning rate")
    sub.add_argument("--out", default=".", help="output directory")
    sub.set_defaults(handler=cmd_experiment)

    sub = commands.add_parser("inspect", help="print annotation or matrix stats")
    sub.add_argument("input", help="annotation or matrix file")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, RangeError, ValidationError, UnsupportedError,
            ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NotegridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
