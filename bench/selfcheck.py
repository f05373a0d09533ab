"""Self-check of the benchmark harness on tiny inputs.

Runs all three workloads on inputs small enough to finish in seconds, once
untraced and once traced, and fails unless each run's outputs pass their
checks, the metrics it emits are exactly those BENCHMARK.json lists with
the same units, and the traced run put every wrapped function back.

Run from the root of the checkout:  python3 bench/selfcheck.py
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import run  # pins BLAS threads before numpy is imported
import spans
import speed


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny_workloads(work_dir: Path):
    import workloads
    return [
        workloads.Sensitivity(0, synth_overrides={"num_pieces": 5, "piece_duration_sec": 4.0},
                              train_overrides={"epochs": 2}, seeds=(1, 2)),
        workloads.LabelStudy(0, durations=(5.0, 8.0, 6.0, 7.0)),
        workloads.CliRoundtrip(0, work_dir / "cli", durations=(4.0, 3.0), synth_pieces=1),
    ]


def _module_functions() -> dict:
    return {(name, attr): value for name, module in sys.modules.items()
            if name.startswith("notegrid") and module is not None
            for attr, value in vars(module).items() if callable(value)}


def main() -> int:
    with speed.Sampler() as sampler:
        return _check(sampler)


def _check(sampler) -> int:
    import_s = run._import_program(sampler)
    expected = {0: _declared("end_to_end"), 1: _declared("per_layer")}
    if expected[1] != spans.metric_units():
        print("selfcheck: BENCHMARK.json per_layer differs from spans.metric_units()")
        return 1
    if expected[0] != run.E2E_UNITS:
        print("selfcheck: BENCHMARK.json end_to_end differs from run.E2E_UNITS")
        return 1

    work_dir = run.OUT_DIR / "selfcheck"
    run.OUT_DIR = work_dir
    failures = []
    try:
        for trace in (0, 1):
            for workload in _tiny_workloads(work_dir):
                before = _module_functions()
                args = argparse.Namespace(seed=0, seconds=0.01, trace=trace)
                captured = io.StringIO()
                with contextlib.redirect_stdout(captured):
                    run.run(workload, args, import_s, sampler)
                workload.close()
                result = json.loads(captured.getvalue().splitlines()[-1])
                where = f"{workload.name} trace={trace}"
                if not result["correct"] or result["failed"]:
                    failures.append(f"{where}: outputs failed their checks\n{captured.getvalue()}")
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != expected[trace]:
                    failures.append(f"{where}: metrics {sorted(set(got) ^ set(expected[trace]))} "
                                    "missing or extra, or units differ")
                if _module_functions() != before:
                    failures.append(f"{where}: wrapped functions were not restored")
                print(f"{where}: {len(got)} metrics, attempted {result['attempted']}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selfcheck: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
