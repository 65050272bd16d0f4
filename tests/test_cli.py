import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bihns.cli as cli
from bihns.cli import (ConfigError, _cells, _fmt, _strict, _write_table,
                       load_config, main, run)

PERIOD = 2.0 / np.pi ** 3


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


# ---------------------------------------------------------------------------
# config validation / exit-code contract


def test_invalid_json_exit2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(cfg), "--out", str(out)])
    assert rc == 2
    assert not out.exists()  # nothing written on invalid config


def test_missing_file_exit2(tmp_path):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_bad_mode_exit2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "banana"})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_mode_mismatch_exit2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "lambda4", "lambda4": {"K": 20}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


TRACE_BASE = {"family": "navier", "N": 16, "s": 1.0, "T": 1e-3, "dt": 1e-4}


def _samples(t, h=None):
    return {"kind": "samples", "t": t, "h": h or [[0.1, 0.0]] * len(t)}


@pytest.mark.parametrize("solve", [
    {"family": "dirichlet", "s": 1.0},
    {"family": "dirichlet", "s": 2.0, "p": 5.0, "K_clamped": 0},
    {"family": "navier", "s": 1.0, "max_iter": 0},
    {"family": "navier", "s": 1.0, "N": None},
    {"family": "navier", "s": [1]},
    {"family": "navier", "s": 1.0, "h1": 3},
    {"family": "navier", "s": 1.0, "phi": [1, 2]},
    {**TRACE_BASE, "h1": {"kind": "series", "n": [0, 1.5], "a": [[1, 0], [1, 0]]}},
    {**TRACE_BASE, "h1": {"kind": "samples", "t": [], "h": []}},
    {**TRACE_BASE, "h1": _samples([0, 1e-4])},
    {**TRACE_BASE, "family": "dirichlet", "s": 1.8, "p": 4.0, "K_clamped": 4,
     "h1": _samples([0, 1e-4])},
    {**TRACE_BASE, "T": 2.0, "dt": 0.05, "h1": _samples([0, 0.5, 1.0])},
    {**TRACE_BASE, "h1": _samples([1e-4, 1e-3])},
    {**TRACE_BASE, "h1": _samples([1e-3, 0])},
    {**TRACE_BASE, "h1": _samples([0, 1e-3], h=[[0, 0], [float("nan"), 0]])},
    {**TRACE_BASE, "family": "dirichlet", "s": 1.8, "p": 4.0, "K_clamped": 4,
     "h5": _samples([0, 1e-3])},
    {**TRACE_BASE, "h3": {"kind": "series", "n": [0, 1], "a": [[1, 0], [-1, 0]]}},
    {**TRACE_BASE, "N_typo": 32},
    {**TRACE_BASE, "N": 16.5},
    {**TRACE_BASE, "max_iter": 7.9},
    {**TRACE_BASE, "metric": "hs"},
    {**TRACE_BASE, "N": True},
    {**TRACE_BASE, "lam": False},
    {**TRACE_BASE, "s": "1.0"},
    {**TRACE_BASE, "phi": {"kind": "sine", "coefficients": [[True, 0]]}},
    {**TRACE_BASE, "phi": {"kind": "poly", "coefficients": ["1"]}},
    {**TRACE_BASE, "h1": {"kind": "series", "n": [True], "a": [[0.1, 0]]}},
    {**TRACE_BASE, "h1": _samples(["0", 1e-3])},
    {**TRACE_BASE, "phi": {"kind": "poly", "coeficients": [[0, 0], [1, 0]]}},
    {**TRACE_BASE, "h1": {"kind": "series", "n": [0], "a": [[0.1, 0]], "t": [0]}},
    {**TRACE_BASE, "T": float("nan")},
    {**TRACE_BASE, "p": float("nan")},
    {**TRACE_BASE, "tol": float("nan")},
    {**TRACE_BASE, "dt": float("nan")},
    {**TRACE_BASE, "T": float("inf")},
    {**TRACE_BASE, "lam": float("inf")},
], ids=["s_below_clamped_range", "K_clamped_0", "max_iter_0", "N_null",
        "s_list", "trace_not_object", "phi_not_object", "series_n_fraction",
        "samples_empty", "samples_short_of_T", "clamped_samples_short_of_T",
        "samples_short_of_T_past_one",
        "samples_late_start", "samples_decreasing", "samples_nan",
        "clamped_h5", "hinged_h3", "unknown_key", "N_fraction",
        "max_iter_fraction", "metric_key", "N_bool", "lam_bool", "s_str",
        "sine_pair_bool", "poly_coefficient_str", "series_n_bool",
        "samples_t_str", "poly_coeficients", "series_extra_key", "T_nan",
        "p_nan", "tol_nan", "dt_nan", "T_inf", "lam_inf"])
def test_invalid_problem_exit2_no_artifacts(tmp_path, solve):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("cfg", [
    {"mode": "lambda4", "payload": {"K": 20}},
    {"mode": "lambda4", "lambda4": {"K": 20}, "solve": {"family": "navier"}},
], ids=["payload_alias", "second_section"])
def test_unknown_top_level_key_exit2_no_artifacts(tmp_path, cfg):
    path = write_cfg(tmp_path, "c.json", cfg)
    out = tmp_path / "o"
    assert main(["lambda4", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


BAD_LAB = [
    ("traces", {"s_grid": ["a"]}),
    ("traces", {"phi": [3]}),
    ("traces", {"phi": [{"kind": "poly", "coefficients": ["x"]}]}),
    ("traces", {"N": 0}),
    ("lambda4", {"K": None}),
    ("lambda4", {"K": 20.5}),
    ("kato_sweep", {"ensemble": None}),
    ("kato_sweep", {"s_grid": ["x"]}),
    ("kato_sweep", {"eps": float("nan")}),
    ("kato_sweep", {"s_grid": []}),
    ("kato_sweep", {"s_grid": [float("nan")]}),
    ("kato_sweep", {"s_grid": [float("inf")]}),
    ("kato_sweep", {"s_grid": [-0.5]}),
    ("optimality", {"order": None}),
    ("optimality", {"n_grid": [4.5]}),
    ("identities", {"K_grid": [0]}),
    ("identities", {"K_grid": [2.5]}),
    ("identities", {"a_grid": [], "K_grid": [64]}),
    ("identities", {"tail": {"alpha": 0.5}}),
    ("identities", {"tail": {"lam_grid": [-1.0]}}),
    ("identities", {"tail": True}),
    ("identities", {"tail": {"lam_grid": [16.0]}}),
    ("kato_sweep", {"ensembel": 8}),
    ("kato_sweep", {"s_grid": [True]}),
    ("optimality", {"alpah": 0.6}),
    ("optimality", {"alpha": "0.6"}),
    ("optimality", {"n_grid": []}),
    ("identities", {"K_grdi": [64]}),
    ("identities", {"a_grid": ["1.0"], "K_grid": [64]}),
    ("identities", {"K_grid": [True]}),
    ("identities", {"K_grid": [64], "tail": {"alpah": 0.9}}),
    ("identities", {"K_grid": [64], "tail": []}),
    ("traces", {"n": 64}),
    ("traces", {"N": True}),
    ("traces", {"s_grid": ["1.0"]}),
    ("traces", {"phi": [{"kind": "poly", "coefficients": [1], "x": 1}]}),
    ("lambda4", {"k": 20}),
    ("traces", {"s_grid": []}),
    ("identities", {"a_grid": [0.0]}),
    ("identities", {"a_grid": [1e6]}),
    ("identities", {"tail": {"lam_grid": [0.0, 1e-300]}}),
    ("kato_sweep", {"s_grid": [23.5]}),
    ("optimality", {"alpha": 100, "beta": 1000}),
]


@pytest.mark.parametrize("mode,payload", BAD_LAB, ids=[
    "traces_s_str", "traces_phi_not_object", "traces_phi_poly_str", "traces_N_0",
    "lambda4_K_null", "lambda4_K_float", "kato_ensemble_null", "kato_s_str", "kato_eps_nan",
    "kato_s_empty", "kato_s_nan", "kato_s_inf", "kato_s_negative",
    "optimality_order_null", "optimality_n_float", "identities_K_0",
    "identities_K_float", "identities_a_empty", "tail_alpha_low", "tail_lam_negative",
    "tail_not_object", "tail_one_lam", "kato_ensembel", "kato_s_bool",
    "optimality_alpah", "optimality_alpha_str", "optimality_n_empty",
    "identities_K_grdi", "identities_a_str", "identities_K_bool", "tail_alpah",
    "tail_list", "traces_n", "traces_N_bool", "traces_s_numeric_str",
    "traces_phi_extra_key", "lambda4_k", "traces_s_empty", "identities_a_0",
    "identities_a_overflow", "tail_one_abscissa", "kato_s_past_cap",
    "optimality_norm_h_nan"])
def test_invalid_lab_config_exit2_no_artifacts(tmp_path, mode, payload):
    cfg = write_cfg(tmp_path, "c.json", {"mode": mode, mode: payload})
    out = tmp_path / "o"
    assert main([mode, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_load_config_rejects_lambda4_K_above_key_bound(tmp_path):
    # validation only: the bound is checked before count_lambda4 would run
    cfg = write_cfg(tmp_path, "c.json", {"mode": "lambda4", "lambda4": {"K": 100000}})
    with pytest.raises(ConfigError, match="int64"):
        load_config(cfg)


def test_load_config_rejects_half_integer_s(tmp_path):
    cfg = write_cfg(tmp_path, "c.json",
                    {"mode": "solve", "solve": {"family": "navier", "s": 1.5}})
    with pytest.raises(ConfigError, match="1/2"):
        load_config(cfg)


# ---------------------------------------------------------------------------
# runs and artifacts


def test_lambda4_run(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "lambda4", "lambda4": {"K": 30}})
    out = tmp_path / "o"
    assert main(["lambda4", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["summary"]["max_multiplicity"] <= 3
    lines = (out / "lambda4.csv").read_text().splitlines()
    assert lines[0].startswith("anchor,")
    assert lines[1].split(",")[:2] == ["multiplicity", "bucket_count"]


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
def test_solve_tables_share_their_t_and_hs_norm_cells(family, tmp_path):
    # solve_plot.csv and the t column of solve_traces.csv reuse the cells
    # of solve_norms.csv: equal byte for byte on a real solve
    series = {"kind": "series", "n": [0, 1], "a": [[-0.1, 0.05], [0.1, -0.05]]}
    solve = {"family": family, "N": 16, "s": 2.0, "p": 5.0, "lam": 1.0,
             "T": 1e-3, "dt": 3e-5, "h1": series,
             "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [1, 1],
                                                      [-2, -2], [1, 1]]}}
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0

    def body(name):
        return (out / name).read_bytes().split(b"\r\n")[2:]

    norms, traces, plot = (body(name) for name in
                           ("solve_norms.csv", "solve_traces.csv", "solve_plot.csv"))
    assert len(norms) == len(traces) == len(plot) > 30 and norms[-1] == b""
    assert plot == [b",".join(row.split(b",")[:2]) for row in norms]
    assert ([row.split(b",")[0] for row in traces]
            == [row.split(b",")[0] for row in norms])


def test_zero_data_solve(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "solve",
        "solve": {"family": "navier", "s": 1.0, "N": 16, "T": 0.005,
                  "dt": 5e-4}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "solve_norms.csv").read_text().splitlines()[2:]
    for row in rows:
        _, hs, l2 = row.split(",")
        assert float(hs) == 0.0 and float(l2) == 0.0
    # complex trace columns are emitted as adjacent re/im pairs
    header = (out / "solve_traces.csv").read_text().splitlines()[1]
    assert header == "t,u0_re,u0_im,u1_re,u1_im"


def test_solve_with_boundary_series(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "solve",
        "solve": {"family": "navier", "s": 1.0, "lam": 0.0, "N": 64,
                  "T": 0.01, "dt": 5e-4,
                  "h1": {"kind": "series", "n": [-1, 0, 1],
                         "a": [[-0.25, 0.0], [0.5, 0.0], [-0.25, 0.0]]}}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["converged"] is True


def test_optimality_run_cli(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "optimality",
        "optimality": {"alpha": 0.6, "beta": 3.4, "n_grid": [4, 8, 16]}})
    out = tmp_path / "o"
    assert main(["optimality", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["lower_bound_holds"] is True
    assert summary["checks"]["termwise_holds"] is True
    lines = (out / "optimality_plot.csv").read_text().splitlines()
    assert lines[1] == "x,y"


def test_identities_run_cli(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "identities",
        "identities": {"a_grid": [1.0], "K_grid": [256, 1024]}})
    out = tmp_path / "o"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["rotated_sine_machine_precision"] is True


def test_identities_tail_run_cli(tmp_path):
    # an empty tail runs the spot check at its defaults, the same four lam
    lam_grid = [16.0, 256.0, 4096.0, 65536.0]
    for name, tail in (("given", {"lam_grid": lam_grid, "alpha": 0.9}), ("empty", {})):
        cfg = write_cfg(tmp_path, f"{name}.json", {
            "mode": "identities",
            "identities": {"a_grid": [1.0], "K_grid": [256], "tail": tail}})
        out = tmp_path / name
        assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "tail_bound.csv", encoding="utf-8", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[1] == ["lam", "x", "value"]
        assert len(rows) - 2 == len(lam_grid) * 6      # lam x the default x grid
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["summary"]["tail_bound"]) == {
            "fitted_C", "slope_x", "slope_lam", "alpha_minus_1"}
        assert summary["checks"]["tail_all_finite"] is True


def test_traces_run_cli(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "traces", "traces": {"s_grid": [0.5, 1.5], "N": 64}})
    out = tmp_path / "o"
    assert main(["traces", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["threshold_arithmetic"] is True


def test_traces_bad_sgrid_exit2(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "traces", "traces": {"s_grid": [2.5]}})
    assert main(["traces", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# determinism


def _run_kato(tmp_path, outname, seed):
    cfg = write_cfg(tmp_path, "k.json", {
        "mode": "kato_sweep",
        "kato_sweep": {"s_grid": [1.0, 2.0], "ensemble": 8, "N": 64}})
    out = tmp_path / outname
    rc = main(["kato_sweep", "--config", cfg, "--out", str(out),
               "--seed", str(seed)])
    return rc, (out / "kato_sweep.csv").read_bytes()


def _artifacts(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("mode,payload,seed", [
    ("kato_sweep", {"s_grid": [1.0], "ensemble": 4, "N": 16}, -1),
    ("lambda4", {"K": 20}, -5),
    ("lambda4", {"K": 20}, 2 ** 64),
], ids=["kato_negative", "lambda4_negative", "lambda4_2_64"])
def test_seed_outside_u64_exit2_no_artifacts(tmp_path, capsys, mode, payload, seed):
    cfg = write_cfg(tmp_path, "c.json", {"mode": mode, mode: payload})
    out = tmp_path / "o"
    assert main([mode, "--config", cfg, "--out", str(out),
                 "--seed", str(seed)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("bihns: invalid config: --seed")


def test_kato_repeated_s_checks_each_sweep(tmp_path):
    # each s runs its own seeded sweep, so rows of a repeated s are checked
    # sweep by sweep, not pooled by s value
    cfg = write_cfg(tmp_path, "k.json", {
        "mode": "kato_sweep",
        "kato_sweep": {"s_grid": [2.0, 2.0], "ensemble": 8, "N": 64}})
    out = tmp_path / "o"
    assert main(["kato_sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == {"monotone_in_order": True}
    rows = summary["summary"]["table"]
    assert [(r["s"], r["order"]) for r in rows] == [(2.0, i) for i in (0, 1, 2)] * 2
    assert rows[:3] != rows[3:]


def test_seeded_runs_byte_identical(tmp_path):
    rc1, b1 = _run_kato(tmp_path, "o1", 42)
    rc2, b2 = _run_kato(tmp_path, "o2", 42)
    assert b1 == b2
    # every artifact of a hinged and a clamped solve and of each lab mode
    # but the kato sweep, run twice
    sizes = {}
    for mode, payload in STRICT_RUNS:
        if mode == "kato_sweep":
            continue
        name = payload.get("family", mode)
        cfg = write_cfg(tmp_path, f"{name}.json", {"mode": mode, mode: payload})
        runs = []
        for run in ("r1", "r2"):
            out = tmp_path / name / run
            assert main([mode, "--config", cfg, "--out", str(out),
                         "--seed", "42"]) == 0
            runs.append(_artifacts(out))
        assert runs[0] == runs[1]
        sizes[name] = len(runs[0])
    assert sizes == {"navier": 4, "dirichlet": 4, "lambda4": 3,
                     "optimality": 3, "identities": 3, "traces": 3}


def test_diverging_picard_exits_1_without_warning(tmp_path):
    # the iterate blows up: its Picard distance reads +inf with no
    # RuntimeWarning, and the next step's forcing raises the blow-up error
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        "family": "navier", "N": 32, "s": 1.0, "p": 5.0, "lam": 1.0,
        "T": 0.5, "dt": 2e-4, "max_iter": 12,
        "phi": {"kind": "sine", "coefficients": [[8.0, 0.0]]}}})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "nonlinearity overflow: blow-up candidate"


def test_solve_out_of_memory_exits_1_with_summary(tmp_path, monkeypatch):
    def no_memory(spec):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "picard_navier", no_memory)
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        "family": "navier", "N": 8, "T": 0.01, "dt": 1e-3}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["error"] == "Unable to allocate 7.28 TiB"
    assert summary["checks"] == {}


#: a fresh interpreter under a 2 GiB address-space limit runs ``main`` on
#: argv[1:]: no allocation past the limit can take real memory
_UNDER_2GIB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 31, 2 ** 31))
from bihns.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_solve_grid_past_memory_exits_1_with_summary(tmp_path):
    # 1e12 time nodes: np.linspace asks for 7.28 TiB, which no address
    # space of 2 GiB grants, so the solve fails before it touches memory
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        "family": "navier", "N": 8, "T": 0.01, "dt": 1e-14}})
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _UNDER_2GIB, "solve",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1, done.stderr
    assert done.stderr == ""
    summary = json.loads((out / "summary.json").read_text())
    assert "TiB" in summary["error"] and summary["checks"] == {}


def test_different_seeds_differ(tmp_path):
    _, b1 = _run_kato(tmp_path, "o1", 1)
    _, b2 = _run_kato(tmp_path, "o2", 2)
    assert b1 != b2


def test_csv_uses_full_precision_floats(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {
        "mode": "optimality",
        "optimality": {"alpha": 0.6, "beta": 3.4, "n_grid": [4]}})
    out = tmp_path / "o"
    main(["optimality", "--config", cfg, "--out", str(out)])
    body = (out / "optimality.csv").read_text().splitlines()[2]
    ratio_field = body.split(",")[3]
    assert len(ratio_field.split(".")[-1].rstrip("0")) >= 10  # %.17g emission


def _write_fmt_rows(path, anchor, header, rows):
    """Reference: the per-cell ``_fmt`` row path the column tables replaced."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["anchor", anchor] + [""] * max(0, len(header) - 2))
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def test_float_table_bytes_match_fmt_rows(tmp_path):
    # float array columns, and the ``_cells`` of bool, int, NaN and string
    # cells as the lab tables pass them
    vals = np.array([-0.0, 0.0, 5e-324, 0.1, 1.0, 1e300])
    z = vals - 1j * vals[::-1]              # strided .real/.imag views
    lab = list(zip([True, False, np.bool_(True), False, True, np.bool_(False)],
                   [0, -3, 7, np.int64(2 ** 40), 1, 12],
                   [float("nan"), 1.5, np.nan, np.float64(np.nan), -2.0, 0.1],
                   ["", "abc", "x^2", "", "y", "(s+3)/8<s"]))
    cols = (vals, z.real, z.imag, *_cells(lab))
    header = ["t", "re", "im", "flag", "count", "value", "word"]
    _write_table(tmp_path / "new.csv", "anchor text", header, cols)
    _write_fmt_rows(tmp_path / "old.csv", "anchor text", header,
                    [(*f, *r) for f, r in zip(zip(vals, z.real, z.imag), lab)])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == 2 + len(vals) and b"-0," in new
    assert b",true,0,nan,\r\n" in new and b",false,1099511627776,nan,\r\n" in new


def test_float_table_bytes_match_csv_writer_on_edge_floats(tmp_path):
    # the one-pass table against csv.writer cell by cell: signed zero, the
    # smallest subnormal, the largest double, a small exponent, integral and
    # negative values; no cell needs quoting
    vals = np.array([-0.0, 5e-324, 1.7976931348623157e308, 1e-5, 3.0, -2.0,
                     -1.7976931348623157e308, -5e-324, 1e16, -0.1])
    cols = (vals, vals[::-1], -vals)
    header = ["t", "a,b", "c"]
    _write_table(tmp_path / "new.csv", "anchor, quoted", header, cols)
    with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["anchor", "anchor, quoted", ""])
        w.writerow(header)
        w.writerows([_fmt(v) for v in row] for row in zip(*cols))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert b"4.9406564584124654e-324" in new
    assert b"1.7976931348623157e+308" in new
    assert b"1.0000000000000001e-05" in new and b",3," in new


def test_clamped_datum_non_finite_on_its_nodes_exits_2(tmp_path):
    # 1e308 (1 + x) overflows past x = 0.8, among the Gauss nodes; the
    # overflow warns nothing, so the suite's warnings-as-errors lets the
    # datum reach the finiteness check
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        "family": "dirichlet", "N": 8, "K_clamped": 4, "s": 2.0, "p": 5.0,
        "phi": {"kind": "poly", "coefficients": [[1e308, 0], [1e308, 0]]}}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("family,kind", [("navier", "poly"), ("navier", "sine"),
                                         ("dirichlet", "sine")])
def test_overflowing_datum_exits_2(tmp_path, family, kind, capsys):
    # a datum whose sum overflows is rejected as non-finite, with no warning
    # for the suite's warnings-as-errors to raise
    big = [[1e308, 0], [1e308, 0]] + ([[1e308, 1e308]] if kind == "sine" else [])
    solve = {"family": family, "N": 8, "s": 1.0, "p": 5.0,
             "phi": {"kind": kind, "coefficients": big}}
    if family == "dirichlet":
        solve.update(s=2.0, K_clamped=4)
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
@pytest.mark.parametrize("T,dt,message", [(0.01, 1e-300, "too large"),
                                          (1e300, 1e-300, "overflows")])
def test_time_grid_past_numpy_exits_2(tmp_path, family, T, dt, message, capsys):
    # 1e298 steps make a history of more bytes than numpy can index, and
    # T/dt = inf has no node count: both are rejected when the config is
    # read, with nothing written and no warning for warnings-as-errors
    solve = {"family": family, "N": 8, "T": T, "dt": dt}
    if family == "dirichlet":
        solve.update(s=2.0, p=5.0, K_clamped=8)
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err and not out.exists()


def test_traces_datum_non_finite_on_its_nodes_exits_2(tmp_path, capsys):
    # the traces lab samples each datum when its config is read, so one that
    # overflows on the split's nodes exits 2 with nothing written; the suite
    # runs with warnings as errors, so no overflow warning escapes either
    cfg = write_cfg(tmp_path, "c.json", {"mode": "traces", "traces": {
        "s_grid": [1.5], "N": 16,
        "phi": [{"kind": "poly", "coefficients": [[1e308, 0], [1e308, 0]]}]}})
    out = tmp_path / "o"
    assert main(["traces", "--config", cfg, "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err and not out.exists()


CLAMPED_STIFF = {"family": "dirichlet", "N": 8, "K_clamped": 4, "s": 1.8,
                 "p": 4.0, "lam": 1.0, "T": 0.01, "dt": 1e-4, "tol": 1e-10,
                 "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [5, 0],
                                                          [-10, 0], [5, 0]]}}


@pytest.mark.parametrize("solve,tstar", [
    # max_iter iterations do not reach tol at T, so T* is halved twice
    ({"family": "navier", "N": 16, "s": 1.0, "lam": 1.0, "T": 0.01,
      "dt": 1e-4, "tol": 1e-10, "max_iter": 5,
      "phi": {"kind": "sine", "coefficients": [[3, 0], [0, 1.5], [0.5, 0]]}},
     0.0025),
    # the clamped family halves through the same driver.  At T = 0.01 the
    # tenth distance is 13 to 51 tol and at T* = 0.005 it is 0.023 to 0.029
    # tol, on trapezoid grids of 32 to 4096 intervals and on 11 to 256
    # Gauss-Legendre nodes alike, so T* does not hang on the quadrature
    ({**CLAMPED_STIFF, "max_iter": 10,
      "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [95, 0],
                                               [-190, 0], [95, 0]]}}, 0.005),
], ids=["halved", "clamped_halved"])
def test_solve_short_of_T_fails(tmp_path, solve, tstar):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    record = json.loads((out / "summary.json").read_text())
    assert record["checks"] == {"converged": True, "tstar_reached": False}
    assert record["summary"]["tstar"] == tstar


@pytest.mark.parametrize("solve,norm", [
    ({**CLAMPED_STIFF, "max_iter": 2}, "3.404e+00"),
    ({"family": "navier", "N": 16, "s": 1.0, "lam": 1.0, "T": 0.01,
      "dt": 1e-3, "tol": 1e-10, "max_iter": 2,
      "phi": {"kind": "sine", "coefficients": [[3, 0]]}}, "9.891e+00"),
], ids=["clamped", "hinged"])
def test_tstar_underflow_reports_data_norm(tmp_path, solve, norm):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    error = json.loads((out / "summary.json").read_text())["error"]
    assert error == f"no contraction: T* underflowed below dt (data norm r={norm})"


@pytest.mark.parametrize("solve", [
    {"family": "navier", "N": 8, "s": 1.0},
    {"family": "dirichlet", "N": 8, "K_clamped": 4, "s": 1.8, "p": 4.0},
], ids=["navier", "dirichlet"])
def test_solve_past_one_reaches_T(tmp_path, solve):
    # T* starts at the requested T, however far past 1
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        **solve, "lam": 0.0, "T": 5.0, "dt": 0.05}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "summary.json").read_text())
    assert record["checks"] == {"converged": True, "tstar_reached": True}
    assert record["summary"]["tstar"] == 5.0


def test_clamped_solve_past_cosh_overflow_writes_finite_artifacts(tmp_path):
    # mu_k > 710 from k = 226 on, where cosh(mu) overflows a double
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        "family": "dirichlet", "s": 2.0, "p": 5.0, "N": 16, "K_clamped": 256,
        "lam": 0.0, "T": 1e-4, "dt": 1e-5,
        "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [1, 0],
                                                 [-2, 0], [1, 0]]}}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
    for name in ("solve_norms.csv", "solve_traces.csv", "solve_plot.csv"):
        rows = list(csv.reader((out / name).read_text().splitlines()))[2:]
        cells = np.array([float(v) for row in rows for v in row])
        assert len(rows) == 11 and np.all(np.isfinite(cells))


def test_sampled_trace_covering_T_solves(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": {
        **TRACE_BASE, "h1": _samples([0, 5e-4, 1e-3], h=[[0, 0], [0.1, 0], [0, 0.1]])}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


# ---------------------------------------------------------------------------
# strict JSON


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


STRICT_RUNS = [
    ("solve", {"family": "navier", "s": 1.0, "N": 16, "T": 0.002, "dt": 2e-4,
               "phi": {"kind": "sine", "coefficients": [[0.5, 0.0]]},
               "h1": {"kind": "series", "n": [0, 1],
                      "a": [[0.1, 0.0], [-0.1, 0.0]]}}),
    ("solve", {"family": "dirichlet", "s": 2.0, "p": 5.0, "N": 16,
               "K_clamped": 8, "T": 2e-4, "dt": 2e-5,
               "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [1, 0],
                                                        [-2, 0], [1, 0]]}}),
    ("kato_sweep", {"s_grid": [1.0], "ensemble": 8, "N": 64}),
    ("lambda4", {"K": 20}),
    ("optimality", {"n_grid": [4, 8]}),
    ("identities", {"a_grid": [1.0], "K_grid": [256]}),
    ("traces", {"s_grid": [1.5], "N": 32}),
]


@pytest.mark.parametrize("mode,payload", STRICT_RUNS,
                         ids=[p.get("family", m) for m, p in STRICT_RUNS])
def test_summary_json_is_strict(tmp_path, mode, payload):
    cfg = write_cfg(tmp_path, "c.json", {"mode": mode, mode: payload})
    out = tmp_path / "o"
    assert main([mode, "--config", cfg, "--out", str(out)]) in (0, 1)
    record = json.loads((out / "summary.json").read_text(),
                        parse_constant=_reject_constant)
    assert "error" not in record
    if mode == "solve":
        assert record["summary"]["mode_residual"] is None
        assert record["summary"]["mode_residual_note"]


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
def test_linear_solve_takes_no_iterations(tmp_path, family):
    solve = next(p for _, p in STRICT_RUNS if p.get("family") == family)
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve",
                                         "solve": {**solve, "lam": 0.0}})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())["summary"]
    assert summary["iterations"] == 0 and summary["residual"] == 0.0
    assert summary["contraction_factors"] == []


def test_solve_summary_lists_step_precision(tmp_path):
    # one dtype name per Picard step, the stopping step float64, and the
    # same bytes on a second run
    for payload in (p for m, p in STRICT_RUNS if m == "solve"):
        cfg = write_cfg(tmp_path, "s.json", {"mode": "solve", "solve": payload})
        texts = []
        for name in ("s1", "s2"):
            out = tmp_path / payload["family"] / name
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            texts.append((out / "summary.json").read_bytes())
        assert texts[0] == texts[1]
        summary = json.loads(texts[0], parse_constant=_reject_constant)["summary"]
        steps = summary["step_precision"]
        assert len(steps) == summary["iterations"] > 0
        assert set(steps) <= {"float32", "float64"} and steps[-1] == "float64"


def test_strict_turns_nonfinite_into_none_with_a_note():
    record = {"nan": float("nan"), "inf": np.float64("inf"),
              "neg": -float("inf"), "neg_note": "written by the runner",
              "seq": [1.0, float("nan"), np.float64("-inf")],
              "arr": np.array([np.inf, 2.0]), "scalar": np.float64(0.25),
              "count": np.int64(3), "none": None, "nested": {"x": float("nan")}}
    got = _strict(record)
    assert got == {"nan": None, "nan_note": "non-finite value nan",
                   "inf": None, "inf_note": "non-finite value inf",
                   "neg": None, "neg_note": "written by the runner",
                   "seq": [1.0, None, None], "arr": [None, 2.0],
                   "scalar": 0.25, "count": 3, "none": None,
                   "nested": {"x": None, "x_note": "non-finite value nan"}}
    assert type(got["scalar"]) is float and type(got["count"]) is int
    json.dumps(got, allow_nan=False)


README = Path(__file__).resolve().parents[1] / "README.md"
README_CONFIGS = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"),
                            re.S)


@pytest.mark.parametrize("text", README_CONFIGS,
                         ids=[json.loads(t)["mode"] for t in README_CONFIGS])
def test_readme_example_config_runs(tmp_path, text):
    # each example config of README.md validates and runs clean
    path = tmp_path / "c.json"
    path.write_text(text, encoding="utf-8")
    assert run(load_config(path), tmp_path / "o") == 0
    record = json.loads((tmp_path / "o" / "summary.json").read_text(),
                        parse_constant=_reject_constant)
    assert record["pass"] is True


def test_readme_has_example_configs():
    assert {json.loads(t)["mode"] for t in README_CONFIGS} >= {"solve", "kato_sweep"}
