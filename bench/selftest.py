"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a traced run leaves every wrapped bihns attribute as the original
object, that traced and untraced runs write byte-identical artifacts, and
that the benchmark fails without a result when the package is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads

TINY = {"hinged_solve": {"N": 32, "T": 2e-3, "dt": 1e-4},
        "clamped_solve": {"N": 32, "K_clamped": 12, "T": 1e-3, "dt": 1e-4},
        "kato_sweep": {"N": 32, "ensemble": 8},
        "lambda4": {"K": 20}}


def tiny_inputs(make):
    def shrink(workload, seed):
        inputs = make(workload, seed)
        for calls in inputs:
            for cfg, _, _ in calls:
                payload = cfg[cfg["mode"]]
                payload.update(TINY.get(workload if cfg["mode"] == "solve" else cfg["mode"], {}))
        return inputs
    return shrink


def artifacts(tracer, calls, outdir: Path):
    import bihns.cli as cli
    if tracer is not None:
        tracer.install()
        first = tracer.begin_unit()
    try:
        _, codes, error = run.run_unit(cli, calls, outdir)
    finally:
        if tracer is not None:
            tracer.end_unit(first)
            tracer.restore()
    if error is not None:
        raise RuntimeError(error)
    return workloads.check_unit(outdir, codes, calls, None).hashes


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from bench/run.py")
    workloads.make_inputs = tiny_inputs(workloads.make_inputs)
    originals = tracing.snapshot()
    failures = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            details, result = run.measure(workload, 7, 0.5, bool(trace))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                failures.append(f"{workload} trace={trace}: metrics {emitted} != {declared[trace]}")
            if result["failed"] or result["attempted"] < 1 + trace:
                failures.append(f"{workload} trace={trace}: {details['failures']}")
            if not tracing.originals_restored(originals):
                failures.append(f"{workload} trace={trace}: wrapped attributes not restored")

        calls = workloads.make_inputs(workload, 7)[1]
        plain = artifacts(None, calls, run.WORK / "selftest-plain")
        traced = artifacts(tracing.Tracer(), calls, run.WORK / "selftest-traced")
        if plain != traced or not plain:
            failures.append(f"{workload}: traced artifacts differ from untraced ones")
        if not tracing.originals_restored(originals):
            failures.append(f"{workload}: wrapped attributes not restored")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lab_cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("benchmark without the package did not fail cleanly")
    for d in ("selftest-plain", "selftest-traced", "selftest-bare"):
        shutil.rmtree(run.WORK / d, ignore_errors=True)

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
