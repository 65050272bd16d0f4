"""Seeded inputs, output checks and oracle twins for the three workloads.

Every workload cycles through ``POOL`` distinct inputs made from the workload
seed, so each input runs several times in one measurement and its artifacts
can be compared byte for byte with its first run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import functools
import math
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

#: distinct inputs per run; unit u runs input u % POOL
POOL = 5
TOL = 1e-8
LAB_MODES = ("kato_sweep", "lambda4", "optimality", "identities", "traces")
LAB_PAYLOADS = {"kato_sweep": {"s_grid": [1.0, 2.0, 3.0], "ensemble": 16, "N": 256},
                "lambda4": {"K": 200},
                "optimality": {}, "identities": {}, "traces": {}}
#: ``eps`` of the default kato sweep (bihns.lab.RegularitySweep)
KATO_EPS = 0.05


def _pair(z: complex):
    return [float(z.real), float(z.imag)]


def _series(n, a):
    return {"kind": "series", "n": [int(v) for v in n], "a": [_pair(z) for z in a]}


def _hinged_payload(rng):
    # amplitudes stay where the N=256 Picard map contracts in 4 steps at
    # T=0.01; h1(0) has a fixed modulus because the solver's error is the
    # projection error of the lift gamma, proportional to gamma(0) = h1(0)
    q = rng.uniform(0.5, 1.0, 3) * np.array([1.0, 0.5, 0.25]) \
        * np.exp(2j * np.pi * rng.random(3))
    n = [-2, -1, 0, 1, 2]
    h1 = rng.uniform(0.05, 0.2, 5) * np.exp(2j * np.pi * rng.random(5))
    h1[2] += 0.25 * np.exp(2j * np.pi * rng.random()) - h1.sum()
    h5 = rng.uniform(0.05, 0.2, 5) * np.exp(2j * np.pi * rng.random(5))
    return {"family": "navier", "N": 256, "s": 1.0, "p": 3.0, "lam": 1.0,
            "T": 0.01, "dt": 1e-5, "tol": TOL,
            "phi": {"kind": "sine", "coefficients": [_pair(z) for z in q]},
            "h1": _series(n, h1), "h5": _series(n, h5)}


def _clamped_payload(rng):
    amp = rng.uniform(1.0, 4.0) * np.exp(2j * np.pi * rng.random())
    payload = {"family": "dirichlet", "N": 128, "K_clamped": 48, "s": 2.0,
               "p": 5.0, "lam": 1.0, "T": 2e-3, "dt": 4e-6, "tol": TOL,
               # amp * x^2 (1-x)^2, which meets the clamped conditions
               "phi": {"kind": "poly",
                       "coefficients": [_pair(amp * c) for c in (0, 0, 1, -2, 1)]}}
    for key in ("h1", "h2", "h3", "h4"):
        b = rng.uniform(0.05, 0.2) * np.exp(2j * np.pi * rng.random())
        payload[key] = _series([0, 1], [-b, b])       # h(0) = 0
    return payload


def make_inputs(workload: str, seed: int):
    """POOL inputs; each is a list of (config, cli seed, subdirectory) calls."""
    inputs = []
    for idx in range(POOL):
        rng = np.random.default_rng([seed, idx])
        if workload == "hinged_solve":
            inputs.append([({"mode": "solve", "solve": _hinged_payload(rng)}, seed + idx, ".")])
        elif workload == "clamped_solve":
            inputs.append([({"mode": "solve", "solve": _clamped_payload(rng)}, seed + idx, ".")])
        elif workload == "lab_cli":
            inputs.append([({"mode": m, m: dict(LAB_PAYLOADS[m])}, seed + idx, m)
                           for m in LAB_MODES])
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ---------------------------------------------------------------------------
# output checks


class Verdict:
    """Result of checking one unit's artifacts."""

    def __init__(self):
        self.reasons = []
        self.hashes = {}
        self.artifact_bytes = 0
        self.summary_nonfinite = 0
        self.kato_rows = []

    @property
    def ok(self) -> bool:
        return not self.reasons


def _csv_nonfinite(path: Path) -> int:
    bad = 0
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    for row in rows[2:]:                      # anchor row, header row
        for cell in row:
            try:
                if not math.isfinite(float(cell)):
                    bad += 1
            except ValueError:                # booleans and labels
                pass
    return bad


def check_unit(outdir: Path, codes, calls, first_hashes) -> Verdict:
    """Apply the per-unit output checks; ``first_hashes`` is None on first run."""
    v = Verdict()
    for code, (cfg, _, _) in zip(codes, calls):
        if code != 0:
            v.reasons.append(f"{cfg['mode']}: exit code {code}")
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        rel = path.relative_to(outdir).as_posix()
        data = path.read_bytes()
        v.hashes[rel] = hashlib.sha256(data).hexdigest()
        v.artifact_bytes += len(data)
        if path.suffix == ".csv":
            bad = _csv_nonfinite(path)
            if bad:
                v.reasons.append(f"{rel}: {bad} non-finite numbers")
            if path.name == "kato_sweep.csv":
                with open(path, newline="", encoding="utf-8") as f:
                    v.kato_rows = list(csv.DictReader(list(f)[1:]))
        elif path.name == "summary.json":
            nonfinite = []
            record = json.loads(data, parse_constant=lambda c: nonfinite.append(c) or math.nan)
            v.summary_nonfinite += len(nonfinite)
            res = record.get("summary", {}).get("residual")
            if record.get("mode") == "solve" and not (res is not None and res <= 10 * TOL):
                v.reasons.append(f"{rel}: residual {res} above {10 * TOL:g}")
    if codes and not v.hashes:
        v.reasons.append("no artifacts written")
    if first_hashes is not None and v.hashes != first_hashes:
        v.reasons.append("artifacts differ from the first run of this input")
    return v


# ---------------------------------------------------------------------------
# oracles


def kato_threshold_error(rows) -> float:
    """Mean |measured - max(0, (s - i + eps)/4)| over a kato_sweep table.

    sum_k (1 + k^8)^alpha k^(2i) |q_k|^2 with |q_k| ~ k^(-s-1/2-eps) converges
    exactly for alpha < (s - i + eps)/4, so that is the value the lab's
    exponent estimator approximates.
    """
    errs = [abs(float(r["measured"]) - max(0.0, (float(r["s"]) - float(r["order"])
                                                 + KATO_EPS) / 4.0))
            for r in rows]
    return float(np.mean(errs))


def _trace(raw):
    from bihns.spectral import BoundaryTrace
    if raw is None:
        return BoundaryTrace.zero()
    return BoundaryTrace.from_series(raw["n"], [complex(*z) for z in raw["a"]])


def _series_coeffs(raw):
    if raw is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.complex128)
    return (np.asarray(raw["n"], dtype=np.int64),
            np.asarray([complex(*z) for z in raw["a"]], dtype=np.complex128))


def _lattice_response(n, a, omega_idx, times):
    """int_0^t e^{i w (t-tau)} sum_n a_n e^{i n pi^4 tau} dtau with w = m pi^4.

    Per frequency: (e^{i n pi^4 t} - e^{i w t}) / (i (n pi^4 - w)), and
    t e^{i w t} at resonance n = m (decided on integers).
    """
    w = np.pi ** 4 * omega_idx.astype(np.float64)
    ew = np.exp(1j * np.outer(times, w))
    out = np.zeros_like(ew)
    for nu_idx, coef in zip(n, a):
        nu = np.pi ** 4 * float(nu_idx)
        res = omega_idx == nu_idx
        term = np.empty_like(ew)
        nz = ~res
        term[:, nz] = (np.exp(1j * nu * times)[:, None] - ew[:, nz]) / (1j * (nu - w[nz]))
        term[:, res] = times[:, None] * ew[:, res]
        out += coef * term
    return out


def hinged_oracle_error(payload) -> float:
    """Max absolute coefficient error of the lam=0 hinged solve.

    The homogenized unknown v = u - gamma has sine coefficients
    v_k(t) = e^{i w t} v_k(0) - i int_0^t e^{i w (t-tau)} F_k(tau) dtau with
    w = (k pi)^4 and F_k = 2 (k pi)^3 (h1 - h1(0)) - 2 k pi (h5 - h5(0))
    (the mode ODE of bihns.boundary_ops with h2 = h6 = 0).  gamma's sine
    coefficients are 2 h1(0)/(k pi) - 2 h5(0)/(k pi)^3 in closed form.
    The error is absolute: the data have a fixed scale (|h1(0)| = 1/4), while
    max |v| moves with the seeded phases.
    """
    from bihns.nonlinear import ProblemSpec, picard_navier
    from bihns.spectral import reconstruct, sine_state

    N = payload["N"]
    q = np.zeros(N, dtype=np.complex128)
    coeffs = [complex(*z) for z in payload["phi"]["coefficients"]]
    q[:len(coeffs)] = coeffs
    datum = sine_state(q)
    spec = ProblemSpec(family="navier", s=payload["s"], p=payload["p"], lam=0.0,
                       T=payload["T"], dt=payload["dt"], N=N, tol=payload["tol"],
                       phi=lambda x: reconstruct(datum, x),
                       h1=_trace(payload.get("h1")), h5=_trace(payload.get("h5")))
    rec = picard_navier(spec)
    got = np.array([st.q for st in rec.states])
    t = rec.times

    k = np.arange(1, N + 1, dtype=np.int64)
    kp = k * np.pi
    n1, a1 = _series_coeffs(payload.get("h1"))
    n5, a5 = _series_coeffs(payload.get("h5"))
    h1_0, h5_0 = a1.sum(), a5.sum()
    v0 = q - (2.0 * h1_0 / kp - 2.0 * h5_0 / kp ** 3)
    exact = v0[None, :] * np.exp(1j * np.outer(t, np.pi ** 4 * (k ** 4).astype(np.float64)))
    for n, a, weight in ((n1, a1, 2.0 * kp ** 3), (n5, a5, -2.0 * kp)):
        if len(n) == 0:
            continue
        n_s = np.concatenate((n, [0]))
        a_s = np.concatenate((a, [-a.sum()]))         # h - h(0)
        exact += -1j * weight[None, :] * _lattice_response(n_s, a_s, k ** 4, t)
    return float(np.abs(got - exact).max())


@functools.lru_cache(maxsize=None)
def _clamped_modes(K: int):
    """Characteristic values (roots of cos(mu) cosh(mu) = 1) and an evaluator
    of the L2-normalized clamped eigenfunctions, shape (K, len(x))."""
    mu = np.array([brentq(lambda m: math.cos(m) - 1.0 / math.cosh(m),
                          (k + 0.5) * math.pi - 0.7, (k + 0.5) * math.pi + 0.7,
                          xtol=1e-15, maxiter=200)
                   for k in range(1, K + 1)])
    em = np.exp(-mu)
    d = 0.5 * (1.0 - em ** 2) - np.sin(mu) * em            # (sinh - sin) e^{-mu}
    sigma = (0.5 * (1.0 + em ** 2) - np.cos(mu) * em) / d  # (cosh - cos)/(sinh - sin)
    one_minus_sigma_e = (np.cos(mu) - np.sin(mu) - em) / d  # (1 - sigma) e^{mu}

    def shapes(x):
        mx = np.outer(mu, x)
        # cosh(mu x) - sigma sinh(mu x), written without overflow
        hyp = (0.5 * (1.0 + sigma)[:, None] * np.exp(-mx)
               + 0.5 * one_minus_sigma_e[:, None] * np.exp(mx - mu[:, None]))
        return hyp - np.cos(mx) + sigma[:, None] * np.sin(mx)

    xg, wg = np.polynomial.legendre.leggauss(16 * K)
    xg, wg = 0.5 * (xg + 1.0), 0.5 * wg
    norm = np.sqrt((shapes(xg) ** 2) @ wg)
    return mu, (lambda x: shapes(np.asarray(x, dtype=np.float64)) / norm[:, None]), (xg, wg)


#: clamped eigenmodes of the oracle; the datum's coefficients decay like mu^-5
ORACLE_MODES = 64


def clamped_oracle_error(payload) -> float:
    """Max relative interior error of the lam=0, zero-data clamped solve.

    The exact solution is the datum projected onto the clamped eigenbasis and
    rotated, u(x, t) = sum_k c_k e^{i mu_k^4 t} phi_k(x), compared on
    0.1 <= x <= 0.9 at every time node.
    """
    from bihns.nonlinear import ProblemSpec, picard_dirichlet

    coeffs = [complex(*z) for z in payload["phi"]["coefficients"]]

    def datum(x):
        return np.polyval(coeffs[::-1], np.asarray(x, dtype=np.float64))

    spec = ProblemSpec(family="dirichlet", s=payload["s"], p=payload["p"], lam=0.0,
                       T=payload["T"], dt=payload["dt"], N=payload["N"],
                       K_clamped=payload["K_clamped"], tol=payload["tol"], phi=datum)
    rec = picard_dirichlet(spec)
    x = np.linspace(0.1, 0.9, 81)
    k = np.arange(1, payload["N"] + 1)
    arg = np.pi * np.outer(k, x)
    Q = np.array([st.q for st in rec.states])
    P = np.array([st.p for st in rec.states])
    P0 = np.array([st.p0 for st in rec.states])
    got = Q @ np.sin(arg) + P @ np.cos(arg) + P0[:, None]

    mu, phi, (xg, wg) = _clamped_modes(ORACLE_MODES)
    c = phi(xg) @ (wg * datum(xg))
    exact = (c[None, :] * np.exp(1j * np.outer(rec.times, mu ** 4))) @ phi(x)
    return float(np.abs(got - exact).max() / np.abs(exact).max())
