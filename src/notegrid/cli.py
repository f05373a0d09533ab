"""Command line front end.

Subcommands: rasterize, eval, disagree, synth, experiment, inspect.
Every command that writes files also writes a manifest recording the
fully resolved configuration and input digests; re-running a command
with the same arguments, or with --config pointed at its manifest and
the same flags, reproduces its outputs byte for byte.

Exit codes: 0 success, 2 usage error, 3 training divergence, 4 input,
format or file error.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import functools
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import __version__
from .annotation import Annotation, parse_tsv, to_tsv, validate
from .errors import ContractError, DivergenceError, NotegridError
from .metrics import disagreement, reference_labels, windowed_counts
from .midi import parse_midi
from .quantize import FrameGrid, LabelingFunction, event_records, is_rate, rasterize
from .synth import SynthConfig, generate_corpus, render_features
from .trainer import TrainConfig, run_sensitivity_experiment
from .util import brief, check_config, is_seed
from . import io

_ANNOTATION_SUFFIXES = (".tsv", ".txt", ".mid", ".midi")
# rasterize's longest output name, <stem>.manifest.json, fits a file name's 255 bytes
_MAX_STEM_BYTES = 255 - len(".manifest.json")


@dataclass(frozen=True)
class _ExperimentConfig:
    """The top level of an experiment config. synth and train hold fields
    of SynthConfig and TrainConfig, which check them; an infinite
    window_sec scores the whole piece."""

    fns: list[str] = field(default_factory=lambda: list("abcdef"))
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3])
    train_fps: float = 31.25
    eval_fps: float = 100.0
    window_sec: float = 30.0
    synth: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    def __post_init__(self):
        check_config(self, {
            "fns": ("one or more letters of a-f",  # as LabelingFunction.from_letter reads them
                    lambda v: v and {letter.lower() for letter in v} <= set("abcdef")),
            "seeds": ("one or more integers below 2**64 in size",
                      lambda v: len(v) > 0 and all(map(is_seed, v))),
            "train_fps": ("positive and finite", is_rate),
            "eval_fps": ("positive and finite", is_rate),
            "window_sec": ("positive", lambda v: v > 0)})


@contextlib.contextmanager
def _naming(path: Path):
    """Put the file's name, echoed as brief does, before the message of a
    NotegridError raised inside, alongside any line context the message gives."""
    try:
        yield
    except NotegridError as exc:
        raise type(exc)(f"{brief(path.name)}: {exc}") from None


def load_annotation(path: Path, pitch_offset: int, num_labels: int) -> Annotation:
    if path.suffix.lower() in (".mid", ".midi"):
        parse, data = parse_midi, path.read_bytes()
    else:
        parse, data = parse_tsv, io.read_text(path)
    with _naming(path):
        return parse(data, pitch_offset=pitch_offset, num_labels=num_labels)


@contextlib.contextmanager
def _config_file(path: Path | None):
    """Give the --config file's object, or {} without one; a manifest gives
    the config it records. A NotegridError raised inside names the file."""
    obj = io.read_json_object(path, "config") if path else {}
    if "command" in obj and isinstance(obj.get("config"), dict):
        obj = obj["config"]
    with _naming(path) if path else contextlib.nullcontext():
        yield obj


def _build_config(cls, overrides: dict, what: str, args=None):
    """cls(**overrides), each value replaced by that of a flag in args whose
    dest is the key, if given. The first key cls lacks, in the file's order,
    or a value it rejects is a ContractError; a flag's type checked its own."""
    names = {field.name for field in fields(cls)}
    unknown = next((key for key in overrides if key not in names), None)
    if unknown is not None:
        raise ContractError(f"bad {what} config: unknown key {brief(unknown)}")
    flags = {key: getattr(args, key) for key in names if getattr(args, key, None) is not None}
    try:
        return cls(**{**overrides, **flags})
    except ContractError as exc:
        raise ContractError(f"bad {what} config: {exc}") from None


def cmd_rasterize(args, parser) -> int:
    if args.fn.is_random and args.seed is None:  # the one rule of two flags
        parser.error(f"--seed is required for labeling function {args.fn.letter}")
    seed = args.seed if args.seed is not None else 0
    stem = args.name or args.input.stem
    if len(os.fsencode(stem)) > _MAX_STEM_BYTES:  # checked before anything is written
        parser.error(f"argument --name: the output stem {brief(stem)} is longer than "
                     f"{_MAX_STEM_BYTES} bytes")
    annotation = load_annotation(args.input, args.pitch_offset, args.num_labels)
    with _naming(args.input):
        grid = FrameGrid.covering(args.fps, annotation.duration_sec)
        matrix = rasterize(annotation, grid, args.fn, seed)

    csv_path = args.out / f"{stem}.csv"
    io.write_label_matrix(matrix, csv_path)
    config = {"fps": args.fps, "fn": args.fn.letter, "seed": seed, "input": args.input.name,
              "name": stem, "pitch_offset": args.pitch_offset, "num_labels": args.num_labels}
    io.write_manifest(args.out / f"{stem}.manifest.json", "rasterize", config,
                      [seed], [args.input])
    print(f"wrote {brief(csv_path)}")
    return 0


def cmd_eval(args, parser) -> int:
    pred = io.read_label_matrix(args.pred)
    inputs = [args.pred, io.sidecar_path(args.pred)]
    if args.ref is not None:
        ref = io.read_label_matrix(args.ref)
        inputs += [args.ref, io.sidecar_path(args.ref)]
    else:
        annotation = load_annotation(args.annotation, args.pitch_offset, args.num_labels)
        with _naming(args.annotation):
            ref = reference_labels(annotation, window_sec=args.window_sec, ref_fps=args.ref_fps)
        inputs.append(args.annotation)
    result = windowed_counts(pred, ref, args.window_sec)

    fn = pred.labeling_function
    row = [args.pred.stem, fn.letter if fn else "", pred.seed, pred.grid.fps,
           result.tp, result.fp, result.fn_, result.precision, result.recall, result.fmeasure]
    io.write_csv(args.out / "eval.csv", io.EVAL_CSV_HEADER, [row])
    config = {"pred": args.pred.name, "ref": args.ref.name if args.ref else None,
              "annotation": args.annotation.name if args.annotation else None,
              "ref_fps": args.ref_fps, "window_sec": args.window_sec,
              "pitch_offset": args.pitch_offset, "num_labels": args.num_labels}
    io.write_manifest(args.out / "eval.manifest.json", "eval", config, [], inputs)
    if len(row[0]) > 30:  # stdout echoes a long stem as brief does; eval.csv holds it whole
        row[0] = brief(row[0])
    print(io.EVAL_CSV_HEADER, io.csv_line(row), sep="\n")
    return 0


def cmd_disagree(args, parser) -> int:
    matrix_a = io.read_label_matrix(args.a)
    matrix_b = io.read_label_matrix(args.b)
    annotation = load_annotation(args.annotation, args.pitch_offset, args.num_labels)
    with _naming(args.annotation):
        records = [event_records(matrix, annotation) for matrix in (matrix_a, matrix_b)]
    stats = disagreement(matrix_a, matrix_b, annotation, *records)

    io.write_json(args.out / "disagree.json", {
        "differing_frames": stats.differing_frames,
        "frame_rate_of_disagreement": stats.frame_rate_of_disagreement,
        "onset_shift_histogram": {str(k): v for k, v in stats.onset_shift_histogram.items()},
        "offset_shift_histogram": {str(k): v for k, v in stats.offset_shift_histogram.items()}})
    inputs = [args.a, io.sidecar_path(args.a), args.b, io.sidecar_path(args.b), args.annotation]
    config = {"a": args.a.name, "b": args.b.name, "annotation": args.annotation.name,
              "pitch_offset": args.pitch_offset, "num_labels": args.num_labels}
    io.write_manifest(args.out / "disagree.manifest.json", "disagree", config, [], inputs)
    print(f"differing frames: {stats.differing_frames} "
          f"({stats.frame_rate_of_disagreement:.6f} of cells)")
    return 0


def cmd_synth(args, parser) -> int:
    with _config_file(args.config) as loaded:
        if isinstance(loaded.get("synth"), dict):  # a synth manifest's config
            loaded = loaded["synth"]
        cfg = _build_config(SynthConfig, loaded, "synth", args)
        # every piece lasts piece_duration_sec, so one grid serves them all
        grid = FrameGrid.covering(args.fps, cfg.piece_duration_sec) if args.features else None

    corpus = generate_corpus(cfg)
    pieces_meta = []
    for i, piece in enumerate(corpus):
        name = f"piece_{i:03d}.tsv"
        io.atomic_write_text(args.out / name, to_tsv(piece, pitch_offset=args.pitch_offset))
        if args.features:
            features = render_features(piece, grid, cfg, noise_seed=i)
            io.write_feature_matrix(features, args.out / f"piece_{i:03d}.features.csv")
        pieces_meta.append({"id": i, "path": name, "num_events": len(piece)})
    io.write_json(args.out / "corpus.json", {"pieces": pieces_meta})
    io.write_manifest(args.out / "synth.manifest.json", "synth",
                      {"synth": asdict(cfg), "features": bool(args.features),
                       "fps": args.fps, "pitch_offset": args.pitch_offset},
                      [cfg.seed], [])
    print(f"wrote {len(corpus)} pieces to {brief(args.out)}")
    return 0


def cmd_experiment(args, parser) -> int:
    with _config_file(args.config) as loaded:
        config = _build_config(_ExperimentConfig, loaded, "experiment", args)
        synth_cfg = _build_config(SynthConfig, config.synth, "synth")
        train_cfg = _build_config(TrainConfig, config.train, "train", args)
        train_grid = FrameGrid.covering(config.train_fps, synth_cfg.piece_duration_sec)
        eval_grid = FrameGrid.covering(config.eval_fps, synth_cfg.piece_duration_sec)

    fns = [LabelingFunction.from_letter(letter) for letter in config.fns]

    table = run_sensitivity_experiment(synth_cfg, fns, train_grid, eval_grid, train_cfg,
                                       config.seeds, window_sec=config.window_sec)

    io.write_csv(args.out / "results.csv", io.EXPERIMENT_CSV_HEADER,
                 [(row.fn.letter, row.seed, "test", row.precision, row.recall, row.fmeasure)
                  for row in table.rows])
    io.write_json(args.out / "summary.json", table.summary())
    resolved = {**asdict(config), "fns": [fn.letter for fn in fns],
                "synth": asdict(synth_cfg), "train": asdict(train_cfg)}
    io.write_manifest(args.out / "experiment.manifest.json", "experiment", resolved,
                      config.seeds, [])
    for fn in fns:
        print(f"fn {fn.letter}: mean test F = {table.mean_fmeasure(fn):.6f}")
    print(f"wrote {brief(args.out / 'results.csv')}")
    return 0


def cmd_inspect(args, parser) -> int:
    path = args.input
    if path.suffix.lower() in _ANNOTATION_SUFFIXES:
        annotation = load_annotation(path, args.pitch_offset, args.num_labels)
        violations = validate(annotation)
        print(f"input: {brief(path.name)}")
        print(f"events: {len(annotation)}")
        print(f"num_labels: {brief(annotation.num_labels)}")
        print(f"duration_sec: {annotation.duration_sec!r}")
        if len(annotation):
            print(f"label_range: [{annotation.labels.min()}, {annotation.labels.max()}]")
        print(f"violations: {len(violations)}")
        for violation in violations:
            print(f"  {violation}")
    else:  # a .csv, as the type of input allows
        matrix = io.read_label_matrix(path)
        print(f"input: {brief(path.name)}")
        print(f"num_frames: {matrix.num_frames}")
        print(f"num_labels: {matrix.num_labels}")
        print(f"fps: {matrix.grid.fps!r}")
        print(f"active_cells: {int(matrix.frames.sum())}")
        fn = matrix.labeling_function
        print(f"labeling_function: {fn.letter if fn else None}")
        print(f"seed: {brief(matrix.seed)}")
    return 0


def _typed(read, cls=None, key=None):
    """argparse's `type` for a flag whose value read(text) gives, such as an int,
    a float or a LabelingFunction.from_letter, and that sets cls's `key`: checked
    alone by that key's rule. Either fault is the flag's usage error, and echoes
    the value as brief does."""
    def convert(text: str):
        try:
            value = read(text)
            if cls is not None:
                cls(**{key: value})
            return value
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {read.__name__} value: {brief(text)}") from None
        except ContractError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _listed(read):
    """Read a comma-separated list, each item by read, an empty one included."""
    return lambda text: [read(item) for item in map(str.strip, text.split(","))]


def _directory(text: str) -> Path:
    """argparse's `type` for a directory flag: an empty value names none."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return Path(text)


def _file(text: str, suffixes: tuple = ()) -> Path:
    """argparse's `type` for a file flag: a path that ends in a file's name,
    with one of the suffixes where they are given."""
    path = _directory(text)
    if not path.name:
        raise argparse.ArgumentTypeError(f"must name a file, got {brief(text)}")
    if suffixes and path.suffix.lower() not in suffixes:
        raise argparse.ArgumentTypeError(f"unrecognized extension {brief(path.suffix)} "
                                         f"(expected {', '.join(suffixes)})")
    return path


def _name(text: str) -> str:
    """argparse's `type` for --name: a file name, so the file lands in --out."""
    if _file(text).name != text:
        raise argparse.ArgumentTypeError(f"must be a file name, got {brief(text)}")
    return text


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a long flag matches only as written, an argument
    it does not take is its own usage error, and a value outside its choices,
    such as an unknown command, or given to a flag that takes none, as in
    --features=x, is echoed as brief does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:  # argparse would echo them whole, after the top-level usage
            self.error(f"unrecognized arguments: {brief(' '.join(extra))}")
        return namespace, extra

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {brief(value)} "
                                         f"(choose from {', '.join(action.choices)})")

    def error(self, message: str):
        if found := re.fullmatch(r"(argument \S+: ignored explicit argument )(.*)", message):
            message = found[1] + brief(ast.literal_eval(found[2]))  # argparse gives its repr
        super().error(message)


def _add_annotation_options(sub) -> None:
    sub.add_argument("--pitch-offset", type=_typed(int), default=21,
                     help="MIDI pitch mapped to label 0 (default 21)")
    sub.add_argument("--num-labels", type=_typed(int), default=88,
                     help="size of the label space (default 88)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing reads it and
    never changes it, and every call gets a fresh namespace. Each flag's
    type checks its value alone, by the rule of the setting it gives."""
    parser = _Parser(
        prog="notegrid",
        description="Framewise label matrices from interval annotations, "
                    "their quantization noise, and its effect on training.")
    parser.add_argument("--version", action="version", version=f"notegrid {__version__}")
    commands = parser.add_subparsers(dest="command")  # main requires it
    annotation = functools.partial(_file, suffixes=_ANNOTATION_SUFFIXES)
    inspectable = functools.partial(_file, suffixes=(*_ANNOTATION_SUFFIXES, ".csv"))
    rate = _typed(float, functools.partial(FrameGrid, num_frames=1), "fps")

    sub = commands.add_parser("rasterize", help="annotation file to label matrix CSV")
    sub.add_argument("input", type=annotation, help="annotation file (.tsv/.txt/.mid/.midi)")
    sub.add_argument("--fps", type=rate, required=True, help="frame rate")
    sub.add_argument("--fn", type=_typed(LabelingFunction.from_letter), required=True,
                     metavar="{a,b,c,d,e,f}", help="labeling function")
    sub.add_argument("--seed", type=_typed(int, SynthConfig, "seed"),  # the one seed rule
                     help="draw seed (required for e/f)")
    sub.add_argument("--out", type=_directory, default=".", help="output directory")
    sub.add_argument("--name", type=_name, help="output file stem (default: input stem)")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_rasterize, parser=sub)

    sub = commands.add_parser("eval", help="score a matrix against a reference")
    sub.add_argument("--pred", type=_file, required=True, help="prediction matrix CSV")
    reference = sub.add_mutually_exclusive_group(required=True)
    reference.add_argument("--ref", type=_file, help="reference matrix CSV")
    reference.add_argument("--annotation", type=annotation,
                           help="annotation for an on-the-fly reference by fn a")
    sub.add_argument("--ref-fps", type=rate, default=100.0,
                     help="reference frame rate with --annotation (default 100)")
    sub.add_argument("--window-sec", type=_typed(float, _ExperimentConfig, "window_sec"),
                     default=30.0, help="evaluation window in seconds (default 30)")
    sub.add_argument("--out", type=_directory, default=".", help="output directory")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_eval, parser=sub)

    sub = commands.add_parser("disagree", help="compare two rasterizations")
    sub.add_argument("--a", type=_file, required=True, help="first matrix CSV")
    sub.add_argument("--b", type=_file, required=True, help="second matrix CSV")
    sub.add_argument("--annotation", type=annotation, required=True,
                     help="common source annotation")
    sub.add_argument("--out", type=_directory, default=".", help="output directory")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_disagree, parser=sub)

    sub = commands.add_parser("synth", help="generate a synthetic corpus")
    sub.add_argument("--out", type=_directory, default=".", help="output directory")
    sub.add_argument("--config", type=_file, help="synth config JSON")
    sub.add_argument("--pieces", type=_typed(int, SynthConfig, "num_pieces"),
                     dest="num_pieces", metavar="PIECES", help="override number of pieces")
    sub.add_argument("--seed", type=_typed(int, SynthConfig, "seed"), help="override corpus seed")
    sub.add_argument("--features", action="store_true", help="also render features")
    sub.add_argument("--fps", type=rate, default=31.25,
                     help="feature frame rate with --features (default 31.25)")
    sub.add_argument("--pitch-offset", type=_typed(int), default=21,
                     help="MIDI pitch written for label 0 (default 21)")
    sub.set_defaults(handler=cmd_synth, parser=sub)

    sub = commands.add_parser("experiment", help="run the sensitivity experiment")
    sub.add_argument("--config", type=_file, help="experiment config JSON (or a manifest)")
    sub.add_argument("--fns", type=_typed(_listed(str), _ExperimentConfig, "fns"),
                     help="comma-separated labeling functions (default a..f)")
    sub.add_argument("--seeds", type=_typed(_listed(_typed(int)), _ExperimentConfig, "seeds"),
                     help="comma-separated seeds (default 1,2,3)")
    sub.add_argument("--train-fps", type=_typed(float, _ExperimentConfig, "train_fps"),
                     help="training frame rate (default 31.25)")
    sub.add_argument("--eval-fps", type=_typed(float, _ExperimentConfig, "eval_fps"),
                     help="evaluation frame rate (default 100)")
    sub.add_argument("--window-sec", type=_typed(float, _ExperimentConfig, "window_sec"),
                     help="evaluation window (default 30)")
    sub.add_argument("--epochs", type=_typed(int, TrainConfig, "epochs"),
                     help="override training epochs")
    sub.add_argument("--learning-rate", type=_typed(float, TrainConfig, "learning_rate"),
                     help="override learning rate")
    sub.add_argument("--out", type=_directory, default=".", help="output directory")
    sub.set_defaults(handler=cmd_experiment, parser=sub)

    sub = commands.add_parser("inspect", help="print annotation or matrix stats")
    sub.add_argument("input", type=inspectable, help="annotation or matrix file")
    _add_annotation_options(sub)
    sub.set_defaults(handler=cmd_inspect, parser=sub)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command is None:  # after the parse, which names an unknown option first
        build_parser().error("the following arguments are required: command")
    try:
        with io.output_set():
            return args.handler(args, args.parser)
    except (NotegridError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # echo its name as brief does
            exc = f"[Errno {exc.errno}] {exc.strerror}: {brief(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DivergenceError) else 4


if __name__ == "__main__":
    sys.exit(main())
