"""Benchmark of bihns: seeded configs in, summary.json and CSV artifacts out.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.
Workloads (see BENCHMARK.json for why each was chosen):

* ``hinged_solve``  -- ``solve``, family navier, N=256, 1001 time nodes;
* ``clamped_solve`` -- ``solve``, family dirichlet, N=128, K_clamped=48,
  501 time nodes;
* ``lab_cli``       -- one pass over kato_sweep, lambda4, optimality,
  identities and traces at their defaults.

Each workload is a closed loop with one client: a unit is one call (five for
``lab_cli``) of ``bihns.cli.run`` and starts when the previous unit has been
checked.  The process is pinned to one CPU, and BLAS and the kato sweep pool
run one thread each (``THREAD_VARS``).  Units cycle through
``workloads.POOL`` inputs made from ``--seed``.  An untimed warm-up unit runs
first; the loop then runs for ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  Every time in them is a wall
time rescaled to a reference CPU speed by the speed gauges run between units
and around each set-up step (``speed.py``: the shared host's speed swings by
1.45x); the raw unit times and the gauges are in the details line.

* ``unit_p50_s`` median unit time; ``unit_tail_s`` the highest order
  statistic with at least ten units beyond it (its percentile and the sample
  count are printed); ``units_per_s`` correct units per second of loop, each
  unit's time in the loop counting its output check;
* ``setup_s`` median cold start over five fresh interpreters: ``import
  bihns.cli`` plus the first run of the first input, so work moved into
  import or into a first call shows (``setup_probe.py``);
* ``peak_rss_mb`` peak RSS of this process after the loop; ``ok_ratio``
  correct units over attempted units (1 - fail ratio);
* ``oracle_err`` median over the inputs, computed after the loop:
  hinged -- absolute coefficient error of the lam=0 twin against the exact
  mode rotation plus lattice response; clamped -- relative interior error of
  the lam=0, zero-data twin against project-and-rotate in the clamped
  eigenbasis; lab -- the kato sweep's distance to the exact threshold
  (``workloads.kato_threshold_error``).

``--trace 1`` alternates traced and untraced units and reports per-layer
metrics of the traced ones as medians per unit, in raw wall time (both kinds
of unit see the same host speed): ``busy_s`` is time inside a layer's
outermost spans (summed over threads), ``self_s`` excludes child spans,
``trace.overhead_s`` is traced minus untraced median unit time,
``trace.unattributed_s`` the unit time outside every span and
``trace.self_coverage`` the summed self times over the unit time.  Spans go
to ``bench/_work/``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it hold
the environment record and details.  Exit code 0 on a completed run, 2 when
the package cannot be found or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

#: BLAS runs one thread, set before numpy loads and inherited by the set-up
#: probes: a second BLAS thread on a two-core shared host made unit times
#: swing by a third between runs of the same code
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: the kato sweep pool runs one thread too: on the one CPU the process is
#: pinned to, a second thread only contends for it
THREAD_VARS = BLAS_THREAD_VARS + ("BIHNS_THREADS",)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import workloads  # noqa: E402
from speed import gauge, to_ref  # noqa: E402

WORKLOADS = ("hinged_solve", "clamped_solve", "lab_cli")
#: set-ups per run, each in a fresh interpreter
SETUP_PROBES = 5
#: solve inputs that get an oracle twin
ORACLE_INPUTS = 3

END_TO_END = {"unit_p50_s": "s", "unit_tail_s": "s", "units_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio",
              "oracle_err": "1"}
PER_LAYER = {
    "linear_flow.duhamel_history.calls": "count",
    "linear_flow.duhamel_history.busy_s": "s",
    "linear_flow.duhamel_history.mode_steps": "count",
    "linear_flow.build_clamped_basis.calls": "count",
    "linear_flow.build_clamped_basis.busy_s": "s",
    "boundary_ops.dirichlet_linear_history.busy_s": "s",
    "boundary_ops.navier_boundary_history.busy_s": "s",
    "boundary_ops.dirichlet_traces.busy_s": "s",
    "nonlinear.picard.self_s": "s",
    "nonlinear.picard.iterations": "count",
    "nonlinear.picard.tstar_ratio": "ratio",
    "nonlinear.dense_transform_flops": "flop",
    "spectral.record_states.calls": "count",
    "spectral.record_states.busy_s": "s",
    "spectral.sobolev_norm.calls": "count",
    "spectral.sobolev_norm.busy_s": "s",
    "spectral.transforms.busy_s": "s",
    "spectral.trace_eval.busy_s": "s",
    "lab.kato_sweep.busy_s": "s",
    "lab.count_lambda4.busy_s": "s",
    "lab.other.busy_s": "s",
    "lab.measured_trace_exponent.calls": "count",
    "cli.run.self_s": "s",
    "cli.artifact_bytes": "B",
    "cli.pool_threads": "count",
    "summary_nonfinite_fields": "count",
    "trace.unit_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.self_coverage": "ratio",
    "trace.spans": "count",
}


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """Threads the bundled OpenBLAS uses, asked from the library itself."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _llc_bytes():
    for level in ("LEVEL4_CACHE_SIZE", "LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(["getconf", level], capture_output=True, text=True,
                                 timeout=30, check=False).stdout.strip()
        except OSError:
            return None
        if out.isdigit() and int(out) > 0:
            return {"level": level, "bytes": int(out)}
    return None


def environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "last_level_cache": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_in_effect": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "load_generator": "one process pinned to one CPU, one client thread, "
                          "one BLAS thread, one kato pool thread",
    }


def pin_to_one_cpu():
    """Keep this process, its threads and its set-up probes on the last CPU it
    may use, the one the speed gauge measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> dict:
    """One set-up in a new interpreter: import time and the time of the first
    run of the workload's first input (see setup_probe.py)."""
    out = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                         cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def setup_s(probes) -> float:
    """Median cold start, import plus first unit, at the reference speed."""
    return statistics.median(p["import_ref_s"] + p["first_ref_s"] for p in probes)


# ---------------------------------------------------------------------------
# the loop


def run_unit(cli, calls, outdir: Path):
    """One unit: every call of the input, timed together."""
    shutil.rmtree(outdir, ignore_errors=True)
    codes, error = [], None
    t0 = perf_counter()
    try:
        for cfg, seed, sub in calls:
            codes.append(cli.run(cfg, outdir / sub, seed))
    except Exception:                      # a crashing unit is a failed unit
        error = traceback.format_exc(limit=3)
    return perf_counter() - t0, codes, error


def tail(times):
    """Highest order statistic with at least ten units beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(workload: str, seed: int, seconds: float, trace: bool):
    import bihns.cli as cli
    from tracing import Tracer, unit_layers

    inputs = workloads.make_inputs(workload, seed)
    outdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    tracer = Tracer()
    first_hashes, first_verdicts = {}, {}
    failures, nonfinite, artifact_bytes = [], [], []
    plain_times, traced_times, layers = [], [], []
    plain_ref, cycles_ref = [], []

    gauges = [gauge()]
    warm_s, codes, error = run_unit(cli, inputs[0], outdir)
    gauges.append(gauge())
    warm = workloads.check_unit(outdir, codes, inputs[0], None)
    first_hashes[0], first_verdicts[0] = warm.hashes, warm

    attempted = correct = 0
    start = perf_counter()
    while perf_counter() - start < seconds or (trace and attempted < 2):
        idx = attempted % workloads.POOL
        traced = trace and attempted % 2 == 1
        cycle_start = perf_counter()
        if traced:
            tracer.install()
            first_span = tracer.begin_unit()
        try:
            dt, codes, error = run_unit(cli, inputs[idx], outdir)
        finally:
            if traced:
                spans = tracer.end_unit(first_span)
                tracer.restore()
        verdict = workloads.check_unit(outdir, codes, inputs[idx], first_hashes.get(idx))
        if error:
            verdict.reasons.append(error)
        cycle_s = perf_counter() - cycle_start
        gauges.append(gauge())
        cycles_ref.append(to_ref(cycle_s, gauges[-2:]))
        first_hashes.setdefault(idx, verdict.hashes)
        first_verdicts.setdefault(idx, verdict)
        attempted += 1
        correct += verdict.ok
        if not verdict.ok:
            failures.append({"unit": attempted - 1, "input": idx, "reasons": verdict.reasons})
        nonfinite.append(verdict.summary_nonfinite)
        artifact_bytes.append(verdict.artifact_bytes)
        if traced:
            traced_times.append(dt)
            layers.append(unit_layers(spans))
        else:
            plain_times.append(dt)
            plain_ref.append(to_ref(dt, gauges[-2:]))
    loop_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(outdir, ignore_errors=True)

    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": int(trace), "attempted": attempted, "failed": len(failures),
               "failures": failures[:5], "warmup_s": warm_s, "loop_s": loop_s,
               "unit_times_s": plain_times, "gauge_s": gauges}
    p50 = statistics.median(plain_times)
    if trace:
        metrics = {name: statistics.median(u[name] for u in layers)
                   for name in layers[0]}
        metrics["cli.artifact_bytes"] = statistics.median(artifact_bytes)
        metrics["summary_nonfinite_fields"] = statistics.median(nonfinite)
        metrics["trace.unit_s"] = statistics.median(traced_times)
        metrics["trace.overhead_s"] = metrics["trace.unit_s"] - p50
        details["traced_units"] = len(traced_times)
        WORK.mkdir(parents=True, exist_ok=True)
        span_file = WORK / f"spans-{workload}-seed{seed}.csv"
        tracer.write(span_file)
        details["spans_file"] = span_file.relative_to(ROOT).as_posix()
        units = PER_LAYER
    else:
        probes = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
        tail_s, tail_pct = tail(plain_ref)
        oracle = oracle_errors(workload, inputs, first_verdicts)
        metrics = {
            "unit_p50_s": statistics.median(plain_ref),
            "unit_tail_s": tail_s,
            "units_per_s": correct / sum(cycles_ref),
            "setup_s": setup_s(probes),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": correct / attempted,
            "oracle_err": statistics.median(oracle),
        }
        details.update({"unit_tail_percentile": tail_pct, "unit_samples": len(plain_times),
                        "unit_p50_raw_s": p50,
                        "setup_probes": probes, "oracle_err_per_input": oracle,
                        "summary_nonfinite_fields": statistics.median(nonfinite),
                        "cli.artifact_bytes": statistics.median(artifact_bytes)})
        units = END_TO_END
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in units.items()}}
    return details, result


def oracle_errors(workload, inputs, verdicts):
    """oracle_err of every input (untimed, after the loop)."""
    if workload == "lab_cli":
        return [workloads.kato_threshold_error(verdicts[i].kato_rows) for i in sorted(verdicts)]
    oracle = (workloads.hinged_oracle_error if workload == "hinged_solve"
              else workloads.clamped_oracle_error)
    return [oracle(calls[0][0]["solve"]) for calls in inputs[:ORACLE_INPUTS]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "bihns" / "cli.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    details, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    details["environment"] = environment()
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if "unit_samples" in details:
        print(f"unit_tail_s is p{details['unit_tail_percentile']:.1f} of "
              f"{details['unit_samples']} units")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
