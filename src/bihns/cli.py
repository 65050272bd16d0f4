"""Command-line front end: config ingestion, orchestration, artifact emission.

Usage:  bihns <mode> --config cfg.json [--out DIR] [--seed U64]

Modes: solve, kato_sweep, optimality, lambda4, identities, traces.
Config is JSON; tables are RFC-4180 CSV (UTF-8, '.' decimal point, complex
values split into adjacent re/im columns); a summary.json collects the
diagnostics and the pass/fail verdicts of the enabled invariant checks.

Exit codes: 0 all checks pass, 1 solver/check failure, 2 invalid config
(nothing is written in that case).  Fixed seed implies byte-identical
numeric artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import operator
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import lab
from .nonlinear import (DIRICHLET, NAVIER, ProblemSpec, picard_dirichlet,
                        picard_navier)
from .spectral import BoundaryTrace, reconstruct, sine_state
# unused here; kept because bench/tracing.py wraps cli.sobolev_norm
from .spectral import sobolev_norm

MODES = ("solve", "kato_sweep", "optimality", "lambda4", "identities", "traces")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config ingestion


def _complex_list(raw, field) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{field}: expected a list of [re, im] pairs ({e})")


def _section(raw, field) -> Dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{field}: expected an object (got {raw!r})")
    return raw


def _trace_from_config(raw, field) -> BoundaryTrace:
    if raw is None or _section(raw, field).get("kind", "zero") == "zero":
        return BoundaryTrace.zero()
    kind = raw.get("kind")
    if kind == "series":
        n = np.asarray(raw.get("n", []), dtype=np.float64)
        if not np.all(np.abs(n) <= 2.0 ** 53) or np.any(n != np.round(n)):
            raise ConfigError(f"{field}: lattice indices n must be integers")
        a = _complex_list(raw.get("a", []), field)
        if len(n) != len(a):
            raise ConfigError(f"{field}: n and a lengths differ")
        return BoundaryTrace.from_series(n, a)
    if kind == "samples":
        t = np.asarray(raw.get("t", []), dtype=np.float64)
        h = _complex_list(raw.get("h", []), field)
        return BoundaryTrace(sample_t=t, sample_h=h)
    raise ConfigError(f"{field}: unknown trace kind {kind!r}")


def _phi_from_config(raw):
    if raw is None or _section(raw, "phi").get("kind", "zero") == "zero":
        return None
    kind = raw.get("kind")
    if kind == "sine":
        q = _complex_list(raw.get("coefficients", []), "phi")
        st = sine_state(q)
        return lambda x: reconstruct(st, x)
    if kind == "poly":
        c = [complex(v) if not isinstance(v, list) else complex(*v)
             for v in raw.get("coefficients", [])]
        return lambda x: np.polyval(list(reversed(c)), np.asarray(x, dtype=np.float64))
    raise ConfigError(f"phi: unknown initial-data kind {kind!r}")


#: keys of a solve payload: the ProblemSpec fields
_SOLVE_KEYS = frozenset(f.name for f in dataclasses.fields(ProblemSpec))


def _build_problem(payload: Dict) -> ProblemSpec:
    family = payload.get("family")
    if family not in (NAVIER, DIRICHLET):
        raise ConfigError(f"family must be 'navier' or 'dirichlet' (got {family!r})")
    unknown = sorted(set(payload) - _SOLVE_KEYS)
    if unknown:
        raise ConfigError(f"unknown solve keys: {', '.join(unknown)}")
    try:
        traces = {key: _trace_from_config(payload.get(key), key)
                  for key in ("h1", "h2", "h3", "h4", "h5", "h6")}
        return ProblemSpec(
            family=family,
            s=float(payload.get("s", 1.0)),
            p=float(payload.get("p", 3.0)),
            lam=float(payload.get("lam", 1.0)),
            T=float(payload.get("T", 0.01)),
            phi=_phi_from_config(payload.get("phi")),
            N=operator.index(payload.get("N", 128)),
            dt=float(payload.get("dt", 1e-4)),
            tol=float(payload.get("tol", 1e-8)),
            max_iter=operator.index(payload.get("max_iter", 25)),
            K_clamped=operator.index(payload.get("K_clamped", 32)),
            **traces,
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e))


# Each lab builder reads its payload exactly as the runner does; load_config
# calls it first, so a payload it rejects exits 2 before anything is written.


def _kato_sweeps(payload: Dict, seed: int = 0) -> List[lab.RegularitySweep]:
    """One sweep per s of the grid; the s at position idx uses seed + idx."""
    base = lab.RegularitySweep(
        s_grid=[float(s) for s in payload.get("s_grid", [1.0, 2.0, 3.0])],
        ensemble=operator.index(payload.get("ensemble", 16)),
        eps=float(payload.get("eps", 0.05)),
        N=operator.index(payload.get("N", 256)))
    return [dataclasses.replace(base, s_grid=[s], seed=seed + idx)
            for idx, s in enumerate(base.s_grid)]


def _counterexample_run(payload: Dict) -> lab.CounterexampleRun:
    return lab.CounterexampleRun(
        alpha=float(payload.get("alpha", 0.6)),
        beta=float(payload.get("beta", 3.4)),
        n_grid=[operator.index(n) for n in payload.get("n_grid", [4, 8, 16, 32, 64])],
        order=operator.index(payload.get("order", 0)))


def _lambda4_K(payload: Dict) -> int:
    K = operator.index(payload.get("K", 200))
    lab.check_lambda4_K(K)
    return K


def _identity_args(payload: Dict):
    """(``identity_checks`` kwargs, ``tail_bound_spotcheck`` kwargs or None)."""
    K_grid = [operator.index(K) for K in payload.get("K_grid", [1024, 4096, 16384])]
    if not K_grid or min(K_grid) < 1:
        raise ConfigError("identities K_grid must be a nonempty list of integers >= 1")
    a_grid = [float(a) for a in payload.get("a_grid", [0.5, 1.0, 2.0, 3.5, 5.0])]
    if not a_grid:
        raise ConfigError("identities a_grid must be a nonempty list")
    checks = {"a_grid": a_grid, "K_grid": K_grid}
    tail = payload.get("tail")
    if not tail:
        return checks, None
    _section(tail, "tail")
    spot = {"lam_grid": [float(v) for v in tail.get("lam_grid", [16.0, 256.0, 4096.0, 65536.0])],
            "alpha": float(tail.get("alpha", 0.9))}
    lab.check_tail_bound(**spot)
    return checks, spot


def _traces_args(payload: Dict):
    """(initial data, s grid, N) of ``trace_regularity_r``."""
    s_grid = [float(s) for s in payload.get("s_grid", [0.5, 1.5])]
    if not all(0.0 < s <= 2.0 for s in s_grid):
        raise ConfigError("traces s_grid must lie in (0, 2]")
    phis = [p for p in map(_phi_from_config, payload.get("phi", [])) if p is not None]
    N = operator.index(payload.get("N", 256))
    if N < 1:
        raise ConfigError("traces N must be >= 1")
    return phis or [lambda x: x ** 2 * (1.0 - x) ** 2], s_grid, N


_BUILDERS = {
    "solve": _build_problem,
    "kato_sweep": _kato_sweeps,
    "optimality": _counterexample_run,
    "lambda4": _lambda4_K,
    "identities": _identity_args,
    "traces": _traces_args,
}


def load_config(path) -> Dict:
    """Parse and fully validate a run configuration; raises ConfigError."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    mode = cfg.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES} (got {mode!r})")
    unknown = sorted(set(cfg) - {"mode", mode})
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(unknown)}")
    # eager validation so that bad configs never emit partial artifacts
    payload = cfg.get(mode, {})
    if not isinstance(payload, dict):
        raise ConfigError(f"section {mode!r} must be an object")
    try:
        _BUILDERS[mode](payload)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    return cfg


# ---------------------------------------------------------------------------
# emission helpers


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def _write_head(f, anchor: str, header: Sequence[str]):
    """The anchor row and the header row; returns the file's ``csv.writer``."""
    w = csv.writer(f)
    w.writerow(["anchor", anchor] + [""] * max(0, len(header) - 2))
    w.writerow(header)
    return w


def _write_csv(path: Path, anchor: str, header: Sequence[str],
               rows: Sequence[Sequence]) -> None:
    """Anchor row, header row, then ``rows`` with each cell as ``_fmt`` writes it."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        _write_head(f, anchor, header).writerows(
            [_fmt(v) for v in row] for row in rows)


def _write_floats(path: Path, anchor: str, header: Sequence[str],
                  cols: Sequence[np.ndarray]) -> None:
    """Anchor row, header row, then the equal-length float columns ``cols``
    in one formatting pass.  A ``%.17g`` cell never needs quoting, so the
    bytes are those of ``_write_csv`` on the same floats."""
    table = np.column_stack(cols)
    row = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        _write_head(f, anchor, header)
        f.write(row * len(table) % tuple(table.ravel().tolist()))


# ---------------------------------------------------------------------------
# mode runners (each returns (summary dict, checks dict))


def _run_solve(payload, outdir, seed):
    """Solve, write the norm/trace/plot tables and check the outcome.

    ``converged``: the residual, the last Picard distance (0 for lam = 0; a
    bound on |Phi(c) - c|, see ``nonlinear._picard``), is within 10 tol.
    ``tstar_reached``: the solve covers the requested T, i.e. T* = T; it fails
    when T* was halved and also when T > 1, which the solver caps at 1.
    """
    spec = _build_problem(payload)
    rec = picard_navier(spec) if spec.family == NAVIER else picard_dirichlet(spec)
    t, hs = rec.times, rec.norms(spec.s)
    _write_floats(outdir / "solve_norms.csv",
                  "(sum_k (1+xi_k^2)^s |c_k|^2)^(1/2) of the solver coefficients c "
                  "with xi_k = k pi or mu_k; s = 0 for l2_norm",
                  ["t", "hs_norm", "l2_norm"], (t, hs, rec.norms(0.0)))
    u0, u1 = rec.traces["u0"], rec.traces["u1"]
    _write_floats(outdir / "solve_traces.csv",
                  "reconstructed endpoint values u(0,t), u(1,t)",
                  ["t", "u0_re", "u0_im", "u1_re", "u1_im"],
                  (t, u0.real, u0.imag, u1.real, u1.imag))
    _write_floats(outdir / "solve_plot.csv", "norm history (t, hs_norm)",
                  ["x", "y"], (t, hs))
    factors = [float(f) for f in rec.contraction_factors]
    summary = {
        "tstar": rec.tstar,
        "iterations": rec.iterations,
        "contraction_factors": factors,
        "step_precision": rec.step_precision,
        "residual": rec.residual,
        "mode_residual": None,
        "mode_residual_note": (
            "not computed: time differences resolve only the few modes with "
            "(k pi)^4 dt < 1; 'residual' bounds the fixed-point residual of "
            "the discrete map, not the time or space error"),
    }
    checks = {"converged": bool(rec.residual <= 10 * spec.tol),
              "tstar_reached": rec.tstar == spec.T}
    return summary, checks


def _run_kato(payload, outdir, seed):
    tables = [lab.kato_sweep(sweep) for sweep in _kato_sweeps(payload, seed)]
    rows = [r for table in tables for r in table]
    _write_csv(outdir / "kato_sweep.csv", "smoothing_exponent:max(0,(s-i+eps)/4)",
               ["s", "order", "measured", "predicted", "boundary_exponent",
                "samples", "flagged"],
               [[r["s"], r["order"], r["measured"], r["predicted"],
                 r["boundary_exponent"], r["samples"], r["flagged"]] for r in rows])
    _write_csv(outdir / "kato_plot.csv", "predicted vs measured exponent",
               ["x", "y"], [[r["predicted"], r["measured"]] for r in rows])
    # monotone in the derivative order within each sweep (an s may repeat)
    mono = all(table[i]["measured"] >= table[i + 1]["measured"] - 1e-9
               for table in tables for i in range(len(table) - 1))
    summary = {"table": rows}
    return summary, {"monotone_in_order": bool(mono)}


def _run_optimality(payload, outdir, seed):
    cfg = _counterexample_run(payload)
    rows = lab.optimality_run(cfg)
    header = ["n", "norm_u_sq", "norm_h", "ratio"]
    if cfg.order == 0:
        header += ["lower_bound", "bound_ok", "termwise_ok"]
    _write_csv(outdir / "optimality.csv",
               "ratio growth ||u||_{L2}/||h_n||_{H^alpha} vs n",
               header, [[r.get(k, "") for k in header] for r in rows])
    _write_csv(outdir / "optimality_plot.csv", "ratio vs n",
               ["x", "y"], [[r["n"], r["ratio"]] for r in rows])
    checks = {"ratios_positive": all(r["ratio"] > 0 for r in rows)}
    if cfg.order == 0:
        checks["lower_bound_holds"] = all(r["bound_ok"] for r in rows)
        checks["termwise_holds"] = all(r["termwise_ok"] for r in rows)
    if cfg.is_boundedness_check:
        checks["note"] = "boundedness check (alpha at/above critical), not a growth run"
    summary = {"table": rows, "alpha": cfg.alpha, "beta": cfg.beta,
               "order": cfg.order}
    return summary, checks


def _run_lambda4(payload, outdir, seed):
    res = lab.count_lambda4(_lambda4_K(payload))
    _write_csv(outdir / "lambda4.csv",
               "coincidence count of (k-l, k^4-l^4), nonzero buckets, max<=3",
               ["multiplicity", "bucket_count"],
               sorted(res["histogram"].items()))
    _write_csv(outdir / "lambda4_plot.csv", "multiplicity histogram",
               ["x", "y"], sorted(res["histogram"].items()))
    summary = {k: v for k, v in res.items() if k != "histogram"}
    summary["histogram"] = {str(k): v for k, v in res["histogram"].items()}
    return summary, {"max_multiplicity_le_3": res["max_multiplicity"] <= 3}


def _run_identities(payload, outdir, seed):
    checks_args, spot_args = _identity_args(payload)
    rep = lab.identity_checks(**checks_args)
    res = rep["series_residual_by_K"]
    _write_csv(outdir / "identities.csv",
               "partial sums of sum (k^3+ik a^2)/(k^4+a^4) sin(kx) vs closed form",
               ["K", "max_residual"], sorted(res.items()))
    _write_csv(outdir / "identities_plot.csv", "residual vs K",
               ["x", "y"], sorted(res.items()))
    ks = sorted(res)
    # the tail is conditionally convergent, so the max residual oscillates
    # inside a summation-by-parts 1/K envelope instead of decaying pointwise
    # (the default x grid stays 0.3 away from the endpoints)
    env_ok = all(res[K] <= 2.0 / (K * math.sin(0.15)) for K in ks)
    checks = {
        "residual_within_envelope": bool(env_ok),
        "rotated_sine_machine_precision": rep["rotated_sine_residual"] < 1e-12,
    }
    summary = {"identities": {str(k): v for k, v in res.items()},
               "sawtooth_limit_residual": rep["sawtooth_limit_residual"],
               "rotated_sine_residual": rep["rotated_sine_residual"]}
    if spot_args:
        tb = lab.tail_bound_spotcheck(**spot_args)
        rows = [[lam, x, tb["values"][i, j]]
                for i, lam in enumerate(tb["lam_grid"])
                for j, x in enumerate(tb["x_grid"])]
        _write_csv(outdir / "tail_bound.csv",
                   "off-resonant tail |sum sin(k pi x)/(k-lam^(1/4))| vs envelope",
                   ["lam", "x", "value"], rows)
        summary["tail_bound"] = {"fitted_C": tb["fitted_C"],
                                 "slope_x": tb["slope_x"],
                                 "slope_lam": tb["slope_lam"],
                                 "alpha_minus_1": tb["alpha_minus_1"]}
        checks["tail_all_finite"] = tb["all_finite"]
        # decay at least as fast as the envelope's power in lambda
        checks["tail_lambda_decay"] = tb["slope_lam"] <= tb["alpha_minus_1"] + 0.2
    return summary, checks


def _run_traces(payload, outdir, seed):
    phis, s_grid, N = _traces_args(payload)
    rows = lab.trace_regularity_r(phis, s_grid, N=N)
    header = ["s", "datum", "norm_r12", "norm_r34", "norm_phi_even",
              "norm_phi_odd", "fitted_C_even", "fitted_C_odd",
              "(s+3)/8<s", "(s+10)/8<s"]
    _write_csv(outdir / "traces.csv",
               "clamped trace norms vs extension norms; thresholds s>3/7, s>10/7",
               header, [[r[k] for k in header] for r in rows])
    _write_csv(outdir / "traces_plot.csv", "fitted constant vs s",
               ["x", "y"], [[r["s"], r["fitted_C_even"]] for r in rows])
    ok = all(r["(s+10)/8<s"] == (r["s"] > 10.0 / 7.0) for r in rows)
    ok &= all(r["(s+3)/8<s"] == (r["s"] > 3.0 / 7.0) for r in rows)
    finite = all(math.isfinite(r["norm_r12"]) and math.isfinite(r["norm_r34"])
                 for r in rows)
    return {"table": rows}, {"threshold_arithmetic": bool(ok),
                             "norms_finite": bool(finite)}


_RUNNERS = {
    "solve": _run_solve,
    "kato_sweep": _run_kato,
    "optimality": _run_optimality,
    "lambda4": _run_lambda4,
    "identities": _run_identities,
    "traces": _run_traces,
}


def run(cfg: Dict, outdir, seed: int = 0) -> int:
    """Execute a validated config; returns the process exit code."""
    mode = cfg["mode"]
    payload = cfg.get(mode, {})
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        summary, checks = _RUNNERS[mode](payload, outdir, seed)
    except (RuntimeError, OverflowError, ArithmeticError) as e:
        _write_summary(outdir, {"mode": mode, "seed": seed, "error": str(e),
                                "checks": {}})
        return 1
    passed = all(v for k, v in checks.items() if isinstance(v, (bool, np.bool_)))
    _write_summary(outdir, {"mode": mode, "seed": seed, "checks": checks,
                            "pass": bool(passed), "summary": summary})
    return 0 if passed else 1


def _write_summary(outdir: Path, record: Dict) -> None:
    (outdir / "summary.json").write_text(
        json.dumps(_strict(record), indent=2, sort_keys=True, allow_nan=False)
        + "\n",
        encoding="utf-8")


def _strict(o):
    """``o`` with numpy scalars as Python ones and non-finite floats as None.

    A dict field that becomes None gets a ``<field>_note`` with the value it
    replaced, unless the runner already wrote a note for it.
    """
    if isinstance(o, dict):
        out = {k: _strict(v) for k, v in o.items()}
        for k, v in o.items():
            if out[k] is None and v is not None:
                out.setdefault(f"{k}_note", f"non-finite value {float(v)!r}")
        return out
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_strict(v) for v in o]
    if isinstance(o, np.generic):
        o = o.item()
    if isinstance(o, float) and not math.isfinite(o):
        return None
    return o


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bihns",
        description="Spectral experiments for the fourth-order Schrodinger "
                    "equation on the unit interval")
    ap.add_argument("mode", choices=MODES)
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="ensemble seed (u64)")
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if cfg["mode"] != args.mode:
            raise ConfigError(
                f"config mode {cfg['mode']!r} does not match CLI mode {args.mode!r}")
    except ConfigError as e:
        print(f"bihns: invalid config: {e}", file=sys.stderr)
        return 2
    return run(cfg, args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
