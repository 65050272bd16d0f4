import csv
import json

import numpy as np
import pytest

from bihns.cli import (ConfigError, _float_cells, _fmt, _write_table,
                       load_config, main)

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
    {**TRACE_BASE, "h1": _samples([1e-4, 1e-3])},
    {**TRACE_BASE, "h1": _samples([1e-3, 0])},
    {**TRACE_BASE, "h1": _samples([0, 1e-3], h=[[0, 0], [float("nan"), 0]])},
], ids=["s_below_clamped_range", "K_clamped_0", "max_iter_0", "N_null",
        "s_list", "trace_not_object", "phi_not_object", "series_n_fraction",
        "samples_empty", "samples_short_of_T", "clamped_samples_short_of_T",
        "samples_late_start", "samples_decreasing", "samples_nan"])
def test_invalid_problem_exit2_no_artifacts(tmp_path, solve):
    cfg = write_cfg(tmp_path, "c.json", {"mode": "solve", "solve": solve})
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


BAD_LAB = [
    ("traces", {"s_grid": ["a"]}),
    ("traces", {"phi": [3]}),
    ("traces", {"phi": [{"kind": "poly", "coefficients": ["x"]}]}),
    ("traces", {"N": 0}),
    ("lambda4", {"K": None}),
    ("kato_sweep", {"ensemble": None}),
    ("kato_sweep", {"s_grid": ["x"]}),
    ("kato_sweep", {"eps": float("nan")}),
    ("optimality", {"order": None}),
    ("optimality", {"n_grid": [4.5]}),
    ("identities", {"K_grid": [0]}),
    ("identities", {"K_grid": [2.5]}),
    ("identities", {"tail": {"alpha": 0.5}}),
    ("identities", {"tail": {"lam_grid": [-1.0]}}),
    ("identities", {"tail": True}),
    ("identities", {"tail": {"lam_grid": [16.0]}}),
]


@pytest.mark.parametrize("mode,payload", BAD_LAB, ids=[
    "traces_s_str", "traces_phi_not_object", "traces_phi_poly_str", "traces_N_0",
    "lambda4_K_null", "kato_ensemble_null", "kato_s_str", "kato_eps_nan",
    "optimality_order_null", "optimality_n_float", "identities_K_0",
    "identities_K_float", "tail_alpha_low", "tail_lam_negative",
    "tail_not_object", "tail_one_lam"])
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


def test_seeded_runs_byte_identical(tmp_path):
    rc1, b1 = _run_kato(tmp_path, "o1", 42)
    rc2, b2 = _run_kato(tmp_path, "o2", 42)
    assert b1 == b2
    # every artifact of a hinged and a clamped solve, run twice
    for payload in (p for m, p in STRICT_RUNS if m == "solve"):
        cfg = write_cfg(tmp_path, "s.json", {"mode": "solve", "solve": payload})
        runs = []
        for name in ("s1", "s2"):
            out = tmp_path / payload["family"] / name
            assert main(["solve", "--config", cfg, "--out", str(out),
                         "--seed", "42"]) == 0
            runs.append(_artifacts(out))
        assert len(runs[0]) == 4 and runs[0] == runs[1]


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
    """Reference: the per-cell ``_fmt`` row path the float tables replaced."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["anchor", anchor] + [""] * max(0, len(header) - 2))
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def test_float_table_bytes_match_fmt_rows(tmp_path):
    vals = np.array([-0.0, 0.0, 5e-324, 0.1, 1.0, 1e300])
    z = vals - 1j * vals[::-1]              # strided .real/.imag views
    cols = (vals, z.real, z.imag)
    header = ["t", "re", "im"]
    _write_table(tmp_path / "new.csv", "anchor text", header,
                 zip(*map(_float_cells, cols)))
    _write_fmt_rows(tmp_path / "old.csv", "anchor text", header, zip(*cols))
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert new.count(b"\r\n") == 2 + len(vals) and b"-0," in new


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
    # T > 1 is capped at 1
    ({"family": "dirichlet", "N": 8, "K_clamped": 4, "s": 1.8, "p": 4.0,
      "lam": 0.0, "T": 5.0, "dt": 0.05}, 1.0),
    # the clamped family halves through the same driver
    ({**CLAMPED_STIFF, "max_iter": 3}, 0.005),
], ids=["halved", "capped", "clamped_halved"])
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
