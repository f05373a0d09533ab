"""Spans around the calls into each notegrid module, for the traced run.

`installed(tracer)` replaces each function named in LAYERS with a wrapper
that records a span, at every notegrid module attribute that holds it
(so `from .quantize import rasterize` in another module is covered too),
and puts the originals back on exit. No file of the program changes.

A span records its name, pass id, parent span, start, end, whether it
ended in an exception, and the counts its layer defines. Spans stay in
memory until the run ends. A layer's `ms` is self time: the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass(slots=True)
class Span:
    name: str
    pass_id: int
    parent: int
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self.keep_alive: list = []  # objects whose id() a count keys on

    def new_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.keep_alive.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the block; it records whether the block raised."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, self.pass_id, parent, time.perf_counter())
        self.spans.append(span)
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for i, s in enumerate(self.spans):
                counts = {k: v for k, v in s.counts.items() if k != "key"}
                handle.write(json.dumps({
                    "id": i, "name": s.name, "pass": s.pass_id, "parent": s.parent,
                    "start": s.start, "end": s.end, "error": s.error,
                    "counts": counts}) + "\n")


# -- the layers and what each counts ---------------------------------------

def _stat_bytes(a, r, t):
    return {"bytes": os.stat(a.get("csv_path")).st_size}


def _rasterize_counts(a, r, t):
    annotation, grid = a["annotation"], a["grid"]
    t.keep_alive.append(annotation)
    seed = a["seed"] if a["rng"] is None else ("rng", id(a["rng"]))
    return {"notes": len(annotation), "cells": r.frames.size,
            "key": (id(annotation), grid.fps, grid.num_frames, a["fn"], seed)}


def _train_counts(a, r, t):
    train_set, valid_set, cfg = a["train_set"], a["valid_set"], a["cfg"]
    n, dim = train_set.inputs.shape
    labels = train_set.targets.shape[1]
    n_valid = valid_set.num_examples
    # per epoch: forward and backward matmul per mini-batch (4ndK), then
    # the full-pass train loss, train F and valid loss (2ndK + 2ndK + 2n_vdK)
    flop = cfg.epochs * (8 * n + 2 * n_valid) * dim * labels
    return {"epochs": cfg.epochs, "batches": cfg.epochs * -(-n // cfg.batch_size),
            "gflop": flop / 1e9}


@dataclass(frozen=True)
class Layer:
    name: str          # <module>.<function>, as the metrics name it
    module: str
    attr: str
    quantities: tuple  # emitted besides "ms" and "errors"
    counts: Callable | None = None  # (bound arguments, result, tracer) -> dict


LAYERS = (
    Layer("annotation.parse_tsv", "notegrid.annotation", "parse_tsv",
          ("calls", "notes", "bytes"),
          lambda a, r, t: {"notes": len(r), "bytes": len(a["text"].encode("utf-8"))}),
    Layer("midi.parse_midi", "notegrid.midi", "parse_midi", ("calls", "notes", "bytes"),
          lambda a, r, t: {"notes": len(r), "bytes": len(a["data"])}),
    Layer("quantize.rasterize", "notegrid.quantize", "rasterize",
          ("calls", "notes", "cells", "unique_ratio"), _rasterize_counts),
    Layer("quantize.noise_ceiling", "notegrid.quantize", "noise_ceiling", ("calls",)),
    Layer("quantize.rasterize_with_records", "notegrid.quantize", "rasterize_with_records",
          ("calls",)),
    Layer("metrics.disagreement", "notegrid.metrics", "disagreement", ("calls",)),
    Layer("metrics.framewise_counts", "notegrid.metrics", "framewise_counts", ("cells",),
          lambda a, r, t: {"cells": a["pred"].frames.size}),
    Layer("metrics.resample", "notegrid.metrics", "resample", ("calls",)),
    Layer("metrics.truncate", "notegrid.metrics", "truncate", ()),
    Layer("metrics.evaluate_against_reference", "notegrid.metrics",
          "evaluate_against_reference", ()),
    Layer("synth.generate_corpus", "notegrid.synth", "generate_corpus", ("notes",),
          lambda a, r, t: {"notes": sum(len(piece) for piece in r)}),
    Layer("synth.render_features", "notegrid.synth", "render_features", ("frames",),
          lambda a, r, t: {"frames": a["grid"].num_frames}),
    Layer("trainer.windows", "notegrid.trainer", "_windows", ("bytes",),
          lambda a, r, t: {"bytes": r.nbytes}),
    Layer("trainer.train", "notegrid.trainer", "train",
          ("calls", "batches", "us_per_batch", "s_per_epoch", "gflop"), _train_counts),
    Layer("trainer.predict", "notegrid.trainer", "predict", ("frames",),
          lambda a, r, t: {"frames": r.num_frames}),
    Layer("trainer.run_sensitivity_experiment", "notegrid.trainer",
          "run_sensitivity_experiment", ()),
    Layer("io.write_label_matrix", "notegrid.io", "write_label_matrix", ("bytes",), _stat_bytes),
    Layer("io.read_label_matrix", "notegrid.io", "read_label_matrix", ("bytes",), _stat_bytes),
    Layer("io.write_feature_matrix", "notegrid.io", "write_feature_matrix", ("bytes",),
          _stat_bytes),
    Layer("io.write_manifest", "notegrid.io", "write_manifest", ()),
)

# cli spans are opened by the caller of cli.main, named by the subcommand
CLI_COMMANDS = ("rasterize", "eval", "disagree", "synth", "inspect")

UNITS = {"ms": "ms", "calls": "count", "notes": "count", "bytes": "bytes",
         "cells": "count", "unique_ratio": "ratio", "frames": "count",
         "batches": "count", "us_per_batch": "us", "s_per_epoch": "s",
         "gflop": "GFLOP", "errors": "count"}

OVERHEAD = "trace.overhead_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in order, with its unit."""
    out = {}
    for layer in LAYERS:
        for q in ("ms",) + layer.quantities + ("errors",):
            out[f"{layer.name}.{q}"] = UNITS[q]
    for command in CLI_COMMANDS:
        for q in ("ms", "calls", "errors"):
            out[f"cli.{command}.{q}"] = UNITS[q]
    out[OVERHEAD] = "ratio"
    return out


def _wrap(tracer: Tracer, layer: Layer, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer.name) as span:
            result = fn(*args, **kwargs)
        if layer.counts is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = layer.counts(bound.arguments, result, tracer)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every LAYERS function wherever a notegrid module refers to it."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "notegrid" or name.startswith("notegrid."))]
    replaced = []
    try:
        for layer in LAYERS:
            original = getattr(sys.modules[layer.module], layer.attr)
            wrapper = _wrap(tracer, layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        replaced.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def cli_span(tracer: Tracer | None, command: str):
    """A span named cli.<command> around one cli.main call, when tracing."""
    return tracer.span(f"cli.{command}") if tracer is not None else contextlib.nullcontext()


# -- per-pass aggregation ---------------------------------------------------

def _pass_totals(spans: list[Span]) -> dict[int, dict[str, dict]]:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[int, dict[str, dict]] = {}
    for i, s in enumerate(spans):
        t = totals.setdefault(s.pass_id, {}).setdefault(
            s.name, {"ms": 0.0, "calls": 0, "errors": 0, "keys": set()})
        t["ms"] += (s.end - s.start - child_time[i]) * 1e3
        t["calls"] += 1
        t["errors"] += s.error
        for k, v in s.counts.items():
            if k == "key":
                t["keys"].add(v)
            else:
                t[k] = t.get(k, 0) + v
    return totals


def _quantity(t: dict, q: str) -> float:
    if q == "unique_ratio":
        return len(t["keys"]) / t["calls"] if t.get("calls") else 0.0
    if q == "us_per_batch":
        return t["ms"] * 1e3 / t["batches"] if t.get("batches") else 0.0
    if q == "s_per_epoch":
        return t["ms"] / 1e3 / t["epochs"] if t.get("epochs") else 0.0
    return t.get(q, 0)


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """Median over traced passes of each per-layer metric (0 if never called).

    Pass p's times are multiplied by scales[p], to calibrate them.
    """
    totals = _pass_totals(tracer.spans)
    for p, scale in enumerate(scales):
        for t in totals.get(p, {}).values():
            t["ms"] *= scale
    out = {}
    for name in metric_units():
        if name == OVERHEAD:
            continue
        span_name, q = name.rsplit(".", 1)
        values = [_quantity(totals.get(p, {}).get(span_name, {}), q)
                  for p in range(len(scales))]
        out[name] = statistics.median(values)
    return out
