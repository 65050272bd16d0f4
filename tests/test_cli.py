import json

import numpy as np
import pytest

from bihns.cli import ConfigError, load_config, main

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


@pytest.mark.parametrize("solve", [
    {"family": "dirichlet", "s": 1.0},
    {"family": "dirichlet", "s": 2.0, "p": 5.0, "K_clamped": 0},
    {"family": "navier", "s": 1.0, "max_iter": 0},
    {"family": "navier", "s": 1.0, "N": None},
    {"family": "navier", "s": [1]},
    {"family": "navier", "s": 1.0, "h1": 3},
    {"family": "navier", "s": 1.0, "phi": [1, 2]},
], ids=["s_below_clamped_range", "K_clamped_0", "max_iter_0", "N_null",
        "s_list", "trace_not_object", "phi_not_object"])
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


def test_seeded_runs_byte_identical(tmp_path):
    rc1, b1 = _run_kato(tmp_path, "o1", 42)
    rc2, b2 = _run_kato(tmp_path, "o2", 42)
    assert b1 == b2


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
