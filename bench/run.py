"""notegrid benchmark: one workload per run, measured in this process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {sensitivity,label-study,cli-roundtrip}
        --seed N --seconds S --trace {0,1}

The program is imported from ./src of that checkout. A run sets up
(several times, keeping the median), then repeats passes of the workload
until S seconds have gone, at least one pass. With --trace 0 it reports
the end-to-end metrics of BENCHMARK.json; with --trace 1 it measures
untraced passes for S seconds, then traced ones for S seconds, and
reports the per-layer metrics plus the tracing overhead. Spans of a
traced run are written to .bench_out/ when it ends.

Outputs are checked on every pass. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "op_p50_ms": "ms", "op_p90_ms": "ms"}
WORKLOADS = ("sensitivity", "label-study", "cli-roundtrip")
SETUP_REPEATS = 3
OUT_DIR = Path(".bench_out")


def _import_program(sampler: speed.Sampler) -> float:
    """Import notegrid from ./src; return the calibrated import time."""
    src = Path("src").resolve()
    if not (src / "notegrid" / "__init__.py").is_file():
        raise SystemExit("bench: no src/notegrid here; run from the root of a notegrid checkout")
    sys.path.insert(0, str(src))
    w0, c0 = time.perf_counter(), time.process_time()
    import notegrid  # noqa: F401
    elapsed = sampler.calibrate(w0, time.perf_counter(), c0, time.process_time())[0]
    if Path(notegrid.__file__).resolve().parent != src / "notegrid":
        raise SystemExit(f"bench: imported notegrid from {notegrid.__file__}, not {src}")
    return elapsed


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = Path(".git/HEAD")
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        rev = ref
        if ref.startswith("ref: ") and Path(".git", ref[5:]).is_file():
            rev = Path(".git", ref[5:]).read_text().strip()
    return {"rev": rev, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def make_workload(name: str, seed: int):
    import workloads
    if name == "sensitivity":
        return workloads.Sensitivity(seed)
    if name == "label-study":
        return workloads.LabelStudy(seed)
    return workloads.CliRoundtrip(seed, OUT_DIR / f"cli-{os.getpid()}")


def measure(workload, seconds: float, sampler: speed.Sampler) -> dict:
    """Run passes until `seconds` have gone; time each operation.

    Returns, per pass, each operation's calibrated wall and CPU seconds
    and its raw wall seconds. The harness's own checks between operations
    are not timed.
    """
    walls, cpus, raws, digests, problems = [], [], [], [], []
    attempted = failed = 0
    tracer = getattr(workload, "tracer", None)
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.new_pass(len(walls))
        for per_pass in (walls, cpus, raws):
            per_pass.append([])
        for label, op in workload.ops():
            attempted += 1
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result, problem = op(), None
            except Exception as exc:  # an operation that raises counts as failed
                result, problem = None, f"{label}: {type(exc).__name__}: {exc}"
            wall, cpu, raw = sampler.calibrate(w0, time.perf_counter(), c0, time.process_time())
            walls[-1].append(wall)
            cpus[-1].append(cpu)
            raws[-1].append(raw)
            if problem is None:
                problem = workload.check(label, result)
            if problem is not None:
                failed += 1
                problems.append(problem)
        digests.append(workload.end_pass())
    return {"walls": walls, "cpus": cpus, "raws": raws, "digests": digests,
            "attempted": attempted, "failed": failed, "problems": problems}


def pass_seconds(per_pass: list[list[float]]) -> float:
    """Time of one pass: the sum over its operations of each one's median
    across passes, so that a burst of noise that slows a few operations
    does not move it."""
    return sum(statistics.median(op) for op in zip(*per_pass))


def _percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with speed.Sampler() as sampler:
        import_s = _import_program(sampler)
        env = environment()
        print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        workload = make_workload(args.workload, args.seed)
        try:
            return run(workload, args, import_s, sampler)
        finally:
            workload.close()


def run(workload, args, import_s: float, sampler: speed.Sampler) -> int:
    setups = []
    for _ in range(SETUP_REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        workload.setup()
        setups.append(sampler.calibrate(w0, time.perf_counter(), c0, time.process_time())[0])
    setup_s = import_s + statistics.median(setups)
    workload.prepare_checks()

    plain = measure(workload, args.seconds, sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = [plain]
    if args.trace:
        tracer = spans.Tracer()
        workload.tracer = tracer
        with spans.installed(tracer):
            traced = measure(workload, args.seconds, sampler)
        workload.tracer = None
        runs.append(traced)
        tracer.write_jsonl(str(OUT_DIR / f"trace-{workload.name}-{args.seed}.jsonl"))

    problems = [p for r in runs for p in r["problems"]]
    digests = {d for r in runs for d in r["digests"]}
    if len(digests) > 1:
        problems.append(f"outputs differ between passes: {len(digests)} distinct digests")
    problems += workload.final_checks()
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    latencies = [w for walls in plain["walls"] for w in walls]
    raw_wall = pass_seconds(plain["raws"])
    e2e = {
        "setup_s": setup_s,
        "wall_s": pass_seconds(plain["walls"]),
        "cpu_s": pass_seconds(plain["cpus"]),
        "peak_rss_mb": peak_rss_mb,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _percentile(latencies, 90) * 1e3,
    }
    notes = {
        "setup_s": f"import {import_s:.3f} s + median of {len(setups)} set-ups "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "wall_s": f"sum of per-operation medians over {len(plain['walls'])} passes; "
                  f"uncalibrated {raw_wall:.4g} s",
        "cpu_s": "user+sys, all threads; as wall_s",
        "peak_rss_mb": "ru_maxrss after the untraced passes",
        "op_p50_ms": f"{len(latencies)} operations",
        "op_p90_ms": f"{len(latencies)} operations",
    }
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {E2E_UNITS[name]}  ({notes[name]})")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    print("results: " + json.dumps(workload.results(), sort_keys=True))
    print("digest: " + ", ".join(sorted(digests)))
    print("checks: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    for problem in problems[:20]:
        print(f"  {problem}")

    if args.trace:
        # per-layer times are raw; scale each pass as its operations were
        scales = [sum(w) / sum(r) for w, r in zip(traced["walls"], traced["raws"])]
        layers = spans.layer_metrics(tracer, scales)
        layers[spans.OVERHEAD] = pass_seconds(traced["walls"]) / e2e["wall_s"] - 1.0
        units = spans.metric_units()
        for name, value in layers.items():
            print(f"{name} = {value:.6g} {units[name]}")
        metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}

    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
