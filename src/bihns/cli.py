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
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import lab
from .nonlinear import NAVIER, ProblemSpec, picard_dirichlet, picard_navier
from .spectral import (BoundaryTrace, _sample, reconstruct, sine_state,
                       transform_nodes)
# unused here; kept because bench/tracing.py wraps cli.sobolev_norm
from .spectral import sobolev_norm


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


# ---------------------------------------------------------------------------
# config ingestion
#
# One key rule at every depth: a config object takes only the keys of its
# reader table, each present key is converted by its reader, and an absent
# key takes the default of the function the object builds.  A number is a
# JSON number: a boolean or a string in a number slot is a config error.


def _as_is(v, field):
    return v


def _number(v, field) -> float:
    # json.loads reads NaN, Infinity and -Infinity as numbers
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{field}: expected a finite number (got {v!r})")
    return float(v)


def _integer(v, field) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{field}: expected an integer (got {v!r})")
    return v


def _count(v, field) -> int:
    if _integer(v, field) < 1:
        raise ConfigError(f"{field}: expected an integer >= 1 (got {v!r})")
    return v


def _pair(v, field) -> complex:
    if not (isinstance(v, list) and len(v) == 2):
        raise ConfigError(f"{field}: expected an [re, im] pair (got {v!r})")
    return complex(_number(v[0], field), _number(v[1], field))


def _index(v, field) -> float:
    """A lattice index: an integral number, 2 and 2.0 alike."""
    if not abs(_number(v, field)) <= 2.0 ** 53 or v != round(v):
        raise ConfigError(f"{field}: lattice indices n must be integers")
    return float(v)


def _list_of(read):
    """Reader of a JSON list whose items ``read`` converts."""
    def read_list(v, field):
        if not isinstance(v, list):
            raise ConfigError(f"{field}: expected a list (got {v!r})")
        return [read(x, f"{field}[{i}]") for i, x in enumerate(v)]
    return read_list


_numbers, _pairs = _list_of(_number), _list_of(_pair)


def _coefficient(v, field) -> complex:
    """A poly coefficient: a number, or a list of up to two numbers (re, im)."""
    return complex(*_numbers(v, field)) if isinstance(v, list) else complex(_number(v, field))


def _object(readers, build=dict):
    """Reader of a JSON object that takes only the keys of ``readers``; it
    returns ``build`` called with the converted keys as keyword arguments."""
    def read_object(v, field):
        if not isinstance(v, dict):
            raise ConfigError(f"{field}: expected an object (got {v!r})")
        unknown = sorted(set(v) - set(readers))
        if unknown:
            raise ConfigError(f"{field}: unknown keys: {', '.join(unknown)}")
        return build(**{k: readers[k](x, f"{field}.{k}") for k, x in v.items()})
    return read_object


def _tagged(kinds):
    """Reader of an object whose ``kind`` ("zero" when absent, and for null)
    picks the reader of its other keys from ``kinds``."""
    def read_tagged(v, field):
        if not isinstance(v, (dict, type(None))):
            raise ConfigError(f"{field}: expected an object (got {v!r})")
        rest = dict(v or {})
        kind = rest.pop("kind", "zero")
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{field}: unknown kind {kind!r}")
        return kinds[kind](rest, field)
    return read_tagged


def _sine_datum(coefficients=()):
    st = sine_state(coefficients)
    return lambda x: reconstruct(st, x)


def _poly_datum(coefficients=()):
    c = coefficients[::-1]
    return lambda x: np.polyval(c, np.asarray(x, dtype=np.float64))


_trace = _tagged({
    "zero": _object({}, BoundaryTrace.zero),
    "series": _object({"n": _list_of(_index), "a": _pairs},
                      lambda n=(), a=(): BoundaryTrace.from_series(n, a)),
    "samples": _object({"t": _numbers, "h": _pairs},
                       lambda t, h: BoundaryTrace(sample_t=t, sample_h=h))})

#: initial datum; None is the zero datum
_phi = _tagged({
    "zero": _object({}, lambda: None),
    "sine": _object({"coefficients": _pairs}, _sine_datum),
    "poly": _object({"coefficients": _list_of(_coefficient)}, _poly_datum)})


def _lambda4_K(K: int = 200) -> int:
    lab.check_lambda4_K(K)
    return K


def _tail(v, field) -> Optional[Dict]:
    """``tail_bound_spotcheck`` kwargs; a null or absent tail runs no check."""
    if v is None:
        return None
    spot = {"lam_grid": [16.0, 256.0, 4096.0, 65536.0], "alpha": 0.9,
            **_object({"lam_grid": _numbers, "alpha": _number})(v, field)}
    lab.check_tail_bound(**spot)
    return spot


def _identity_args(tail=None, **checks):
    """(``identity_checks`` kwargs, ``tail_bound_spotcheck`` kwargs or None)."""
    if [] in checks.values():
        raise ConfigError("identities a_grid and K_grid must be nonempty lists")
    lab.check_identity_a_grid(checks.get("a_grid", ()))
    return checks, tail


def _traces_args(s_grid=(0.5, 1.5), phi=(), N=lab.TRACE_N) -> Dict:
    """``trace_regularity_r`` kwargs; zero data are dropped, and with none
    left the datum is x^2 (1-x)^2.  Each datum is sampled on the nodes that
    ``odd_even_extend`` reads (``_sample``), so a wrong shape or a
    non-finite value fails here, before anything is written."""
    lab.check_trace_s_grid(s_grid)
    phis = [p for p in phi if p is not None] or [lambda x: x ** 2 * (1.0 - x) ** 2]
    for f in phis:
        _sample(f, transform_nodes(N))
    return {"phis": phis, "s_grid": s_grid, "N": N}


def _build(mode: str, payload):
    """The runner's argument of ``mode`` read from its config section."""
    return _MODES[mode][0](payload, mode)


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
    if mode not in tuple(_MODES):
        raise ConfigError(f"mode must be one of {tuple(_MODES)} (got {mode!r})")
    # eager validation so that bad configs never emit partial artifacts
    try:
        _object({"mode": _as_is, mode: _as_is})(cfg, "config")
        _build(mode, cfg.get(mode, {}))
    except (ArithmeticError, TypeError, ValueError) as e:
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


def _cells(rows: Sequence[Sequence]) -> List[List[str]]:
    """The columns of the table ``rows`` as ``_fmt`` cells, for
    ``_write_table``."""
    return [list(map(_fmt, col)) for col in zip(*rows)]


def _write_table(path: Path, anchor: str, header: Sequence[str],
                 cols: Sequence) -> List[List[str]]:
    """Anchor row, header row, then the equal-length columns ``cols``;
    returns the columns' cells.  A float array column is formatted once,
    with ``%.17g`` as ``_fmt`` formats a float, and a list of cells (a
    column this function returned, or ``_cells`` of a table) is written as
    it is, so a table that repeats a column reuses its cells.  The rows are
    those ``csv.writer`` writes for cells that need no quoting, as
    ``%.17g`` and ``_fmt`` cells of numbers and bools do."""
    cells = [col if isinstance(col, list) else
             ("%.17g\n" * len(col) % tuple(col.tolist())).splitlines()
             for col in cols]
    rows = list(map(",".join, zip(*cells)))
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["anchor", anchor] + [""] * max(0, len(header) - 2))
        w.writerow(header)
        f.write("\r\n".join(rows + [""]))
    return cells


# ---------------------------------------------------------------------------
# mode runners (each returns (summary dict, checks dict))


def _run_solve(spec, outdir, seed):
    """Solve, write the norm/trace/plot tables and check the outcome.

    ``converged``: the residual, the last Picard distance (0 for lam = 0; a
    bound on |Phi(c) - c|, see ``nonlinear._picard``), is within 10 tol.
    ``tstar_reached``: the solve covers the requested T, i.e. T* = T; it fails
    when T* was halved.
    """
    rec = picard_navier(spec) if spec.family == NAVIER else picard_dirichlet(spec)
    t, hs = _write_table(outdir / "solve_norms.csv",
                         "(sum_k (1+xi_k^2)^s |c_k|^2)^(1/2) of the solver "
                         "coefficients c with xi_k = k pi or mu_k; s = 0 for l2_norm",
                         ["t", "hs_norm", "l2_norm"],
                         (rec.times, rec.norms(spec.s), rec.norms(0.0)))[:2]
    u0, u1 = rec.traces["u0"], rec.traces["u1"]
    _write_table(outdir / "solve_traces.csv",
                 "reconstructed endpoint values u(0,t), u(1,t)",
                 ["t", "u0_re", "u0_im", "u1_re", "u1_im"],
                 (t, u0.real, u0.imag, u1.real, u1.imag))
    _write_table(outdir / "solve_plot.csv", "norm history (t, hs_norm)",
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


def _run_kato(sweep, outdir, seed):
    """One seeded sweep per s of the grid; the s at position idx uses seed + idx."""
    tables = [lab.kato_sweep(dataclasses.replace(sweep, s_grid=[s], seed=seed + idx))
              for idx, s in enumerate(sweep.s_grid)]
    rows = [r for table in tables for r in table]
    header = ["s", "order", "measured", "predicted", "boundary_exponent",
              "samples", "flagged"]
    cells = _write_table(outdir / "kato_sweep.csv",
                         "smoothing_exponent:max(0,(s-i+eps)/4)", header,
                         _cells([[r[k] for k in header] for r in rows]))
    _write_table(outdir / "kato_plot.csv", "predicted vs measured exponent",
                 ["x", "y"], (cells[3], cells[2]))
    # monotone in the derivative order within each sweep (an s may repeat)
    mono = all(table[i]["measured"] >= table[i + 1]["measured"] - 1e-9
               for table in tables for i in range(len(table) - 1))
    summary = {"table": rows}
    return summary, {"monotone_in_order": bool(mono)}


def _run_optimality(cfg, outdir, seed):
    rows = lab.optimality_run(cfg)
    header = ["n", "norm_u_sq", "norm_h", "ratio"]
    if cfg.order == 0:
        header += ["lower_bound", "bound_ok", "termwise_ok"]
    cells = _write_table(outdir / "optimality.csv",
                         "ratio growth ||u||_{L2}/||h_n||_{H^alpha} vs n", header,
                         _cells([[r.get(k, "") for k in header] for r in rows]))
    _write_table(outdir / "optimality_plot.csv", "ratio vs n", ["x", "y"],
                 (cells[0], cells[3]))
    checks = {"ratios_positive": all(r["ratio"] > 0 for r in rows)}
    if cfg.order == 0:
        checks["lower_bound_holds"] = all(r["bound_ok"] for r in rows)
        checks["termwise_holds"] = all(r["termwise_ok"] for r in rows)
    if cfg.is_boundedness_check:
        checks["note"] = "boundedness check (alpha at/above critical), not a growth run"
    summary = {"table": rows, "alpha": cfg.alpha, "beta": cfg.beta,
               "order": cfg.order}
    return summary, checks


def _run_lambda4(K, outdir, seed):
    res = lab.count_lambda4(K)
    cells = _write_table(
        outdir / "lambda4.csv",
        "coincidence count of (k-l, k^4-l^4), nonzero buckets, max<=3",
        ["multiplicity", "bucket_count"], _cells(sorted(res["histogram"].items())))
    _write_table(outdir / "lambda4_plot.csv", "multiplicity histogram",
                 ["x", "y"], cells)
    summary = {k: v for k, v in res.items() if k != "histogram"}
    summary["histogram"] = {str(k): v for k, v in res["histogram"].items()}
    return summary, {"max_multiplicity_le_3": res["max_multiplicity"] <= 3}


def _run_identities(args, outdir, seed):
    checks_args, spot_args = args
    rep = lab.identity_checks(**checks_args)
    res = rep["series_residual_by_K"]
    cells = _write_table(
        outdir / "identities.csv",
        "partial sums of sum (k^3+ik a^2)/(k^4+a^4) sin(kx) vs closed form",
        ["K", "max_residual"], _cells(sorted(res.items())))
    _write_table(outdir / "identities_plot.csv", "residual vs K", ["x", "y"],
                 cells)
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
        _write_table(outdir / "tail_bound.csv",
                     "off-resonant tail |sum sin(k pi x)/(k-lam^(1/4))| vs envelope",
                     ["lam", "x", "value"], _cells(rows))
        summary["tail_bound"] = {"fitted_C": tb["fitted_C"],
                                 "slope_x": tb["slope_x"],
                                 "slope_lam": tb["slope_lam"],
                                 "alpha_minus_1": tb["alpha_minus_1"]}
        checks["tail_all_finite"] = tb["all_finite"]
        # decay at least as fast as the envelope's power in lambda
        checks["tail_lambda_decay"] = tb["slope_lam"] <= tb["alpha_minus_1"] + 0.2
    return summary, checks


def _run_traces(args, outdir, seed):
    rows = lab.trace_regularity_r(**args)
    header = ["s", "datum", "norm_r12", "norm_r34", "norm_phi_even",
              "norm_phi_odd", "fitted_C_even", "fitted_C_odd",
              "(s+3)/8<s", "(s+10)/8<s"]
    cells = _write_table(
        outdir / "traces.csv",
        "clamped trace norms vs extension norms; thresholds s>3/7, s>10/7",
        header, _cells([[r[k] for k in header] for r in rows]))
    _write_table(outdir / "traces_plot.csv", "fitted constant vs s",
                 ["x", "y"], (cells[0], cells[6]))
    ok = all(r["(s+10)/8<s"] == (r["s"] > 10.0 / 7.0) for r in rows)
    ok &= all(r["(s+3)/8<s"] == (r["s"] > 3.0 / 7.0) for r in rows)
    finite = all(math.isfinite(r["norm_r12"]) and math.isfinite(r["norm_r34"])
                 for r in rows)
    return {"table": rows}, {"threshold_arithmetic": bool(ok),
                             "norms_finite": bool(finite)}


#: mode -> (reader of its config section, runner of what the reader builds)
_MODES = {
    "solve": (_object({"family": _as_is, "s": _number, "p": _number, "lam": _number,
                       "T": _number, "phi": _phi, "N": _integer, "dt": _number,
                       "tol": _number, "max_iter": _integer, "K_clamped": _integer,
                       **dict.fromkeys(("h1", "h2", "h3", "h4", "h5", "h6"), _trace)},
                      ProblemSpec), _run_solve),
    "kato_sweep": (_object({"s_grid": _numbers, "ensemble": _integer, "eps": _number,
                            "N": _integer}, lab.RegularitySweep), _run_kato),
    "optimality": (_object({"alpha": _number, "beta": _number,
                            "n_grid": _list_of(_integer), "order": _integer},
                           lab.CounterexampleRun), _run_optimality),
    "lambda4": (_object({"K": _integer}, _lambda4_K), _run_lambda4),
    "identities": (_object({"a_grid": _numbers, "K_grid": _list_of(_count),
                            "tail": _tail}, _identity_args), _run_identities),
    "traces": (_object({"s_grid": _numbers, "phi": _list_of(_phi), "N": _count},
                       _traces_args), _run_traces),
}


def run(cfg: Dict, outdir, seed: int = 0) -> int:
    """Execute a validated config; returns the process exit code.

    A runtime failure, a ``MemoryError`` included, exits 1 with a strict
    ``summary.json`` that carries the error."""
    mode = cfg["mode"]
    args = _build(mode, cfg.get(mode, {}))
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        summary, checks = _MODES[mode][1](args, outdir, seed)
    except (RuntimeError, ArithmeticError, MemoryError) as e:
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
    ap.add_argument("mode", choices=tuple(_MODES))
    ap.add_argument("--config", required=True, help="JSON run configuration")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="ensemble seed (u64)")
    args = ap.parse_args(argv)
    try:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError(f"--seed must be in [0, 2^64) (got {args.seed})")
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
