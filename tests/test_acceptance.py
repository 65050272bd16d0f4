"""Top-level acceptance checks, one test per criterion.

Each test prints a one-line verdict (visible with -s / on failure) and then
asserts.  Tolerances are stated inline next to each assertion.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from bihns import boundary_ops as bops
from bihns import lab
from bihns import linear_flow as lf
from bihns.nonlinear import ProblemSpec, picard_navier
from bihns.spectral import (BoundaryTrace, odd_even_extend, reconstruct,
                            sine_state, sobolev_norm)

PERIOD = 2.0 / np.pi ** 3
H_SIN2 = BoundaryTrace.from_series([-1, 0, 1], [-0.25, 0.5, -0.25])


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_flow_isometry():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        q = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        st = sine_state(q)
        out = lf.propagate_periodic(st, float(rng.random()))
        for s in (0.0, 1.0, 2.0):
            a, b = sobolev_norm(st, s), sobolev_norm(out, s)
            worst = max(worst, abs(a - b) / a)
    verdict(1, worst <= 1e-13, f"max relative norm drift {worst:.3e} (tol 1e-13)")


def test_criterion_2_navier_boundary_recovery():
    z = BoundaryTrace.zero()
    times = np.linspace(0.0, PERIOD, 201)
    href = np.sin(np.pi ** 4 * times / 2.0) ** 2
    errs = []
    for N in (32, 64, 128, 256):
        hist = bops.navier_boundary_history(H_SIN2, z, z, z, times, N)
        u0, _ = bops.sine_endpoint_values(hist)
        errs.append(float(np.sqrt(np.trapezoid(np.abs(u0 - href) ** 2, times))))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    ok = all(r >= 1.5 for r in ratios)
    verdict(2, ok, f"L2(0,2/pi^3) errors {errs}, doubling ratios {ratios} (need >= 1.5)")


def test_criterion_3_duhamel_vs_ode_oracle():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        w = (k * np.pi) ** 4
        tend = 0.02
        t = np.linspace(0.0, tend, 101)
        vals = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        F = lf.ForcingHistory(t, vals[:, None], np.array([w]))
        got = lf.duhamel(F, tend)[0]

        def rhs(tau, y):
            f = np.interp(tau, t, vals.real) + 1j * np.interp(tau, t, vals.imag)
            g = np.exp(-1j * w * tau) * f
            return [g.real, g.imag]

        # the interpolated forcing has kinks at the grid nodes; integrate
        # node-to-node so the reference solver only ever sees smooth pieces
        y = [0.0, 0.0]
        for a, b in zip(t[:-1], t[1:]):
            sol = solve_ivp(rhs, (a, b), y, method="DOP853",
                            rtol=1e-12, atol=1e-13)
            y = [sol.y[0, -1], sol.y[1, -1]]
        ref = np.exp(1j * w * tend) * (y[0] + 1j * y[1])
        worst = max(worst, abs(got - ref))
    verdict(3, worst <= 1e-8, f"max |integrator - ODE reference| {worst:.3e} (tol 1e-8)")


def test_criterion_4_beta_table_bitwise():
    N = 10 ** 4
    tb = bops.build_beta_table(N)
    exact = True
    for k in range(1, N + 1):
        kp = k * math.pi
        kp2 = kp * kp
        kp3 = kp2 * kp
        c = 1.0 if k % 2 == 0 else -1.0
        exact &= tb.navier0[k - 1] == 2j * kp3
        exact &= tb.navier2[k - 1] == -2j * kp
        exact &= tb.b01[k - 1] == -1j * kp3 - 6j * kp * (c + 1.0)
        exact &= tb.b02[k - 1] == 12j * (kp - 1.0)
        exact &= tb.b11[k - 1] == -2j * kp * (c + 2.0)
        exact &= tb.b12[k - 1] == 1j * kp2 + 6j * (c - 1.0)
        if not exact:
            break
    # spot values at k = 1, 2
    pi = np.pi
    spots = [
        (tb.b01[0], -1j * pi ** 3), (tb.b02[0], 12j * (pi - 1.0)),
        (tb.b01[1], -8j * pi ** 3 - 24j * pi), (tb.b02[1], 12j * (2 * pi - 1.0)),
        (tb.b11[0], -2j * pi), (tb.b12[0], 1j * pi ** 2 - 12j),
        (tb.b11[1], -12j * pi), (tb.b12[1], 4j * pi ** 2),
    ]
    spot_ok = all(abs(a - b) <= 1e-13 * abs(b) for a, b in spots)
    verdict(4, exact and spot_ok,
            f"bitwise recomputation k<=1e4: {exact}; k=1,2 spot values: {spot_ok}")


def test_criterion_5_lambda4_count():
    res = lab.count_lambda4(200)
    ok = res["max_multiplicity"] <= 3
    verdict(5, ok, f"max nonzero-bucket multiplicity {res['max_multiplicity']} (<= 3)")


def test_criterion_6_optimality():
    grow = lab.optimality_run(lab.CounterexampleRun(
        alpha=0.6, beta=3.4, n_grid=(4, 8, 16, 32, 64)))
    growth = grow[-1]["ratio"] / grow[0]["ratio"]
    termwise = all(r["termwise_ok"] and r["bound_ok"] for r in grow)
    ctrl = lab.optimality_run(lab.CounterexampleRun(
        alpha=0.75, beta=3.6, n_grid=(32, 64)))
    ctrl_growth = ctrl[1]["ratio"] / ctrl[0]["ratio"]
    ok = growth >= 1.2 and termwise and ctrl_growth <= 1.05
    verdict(6, ok, f"ratio(64)/ratio(4) = {growth:.4f} (>= 1.2), "
                   f"termwise/lower bound: {termwise}, "
                   f"control growth 32->64 = {ctrl_growth:.4f} (<= 1.05)")


def test_criterion_7_picard_contraction_and_mass():
    rng = np.random.default_rng(7)
    q0 = np.zeros(64, dtype=complex)
    q0[:6] = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    st0 = sine_state(q0)
    scale = 1e-3 / sobolev_norm(st0, 1.0)
    st0 = sine_state(scale * q0)
    spec = ProblemSpec(family="navier", s=1.0, p=3.0, lam=1.0, T=0.01, N=64,
                       dt=1e-4, phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    iters_ok = rec.iterations <= 8
    contr_ok = all(f <= 0.5 for f in rec.contraction_factors)
    mass = np.array([0.5 * np.sum(np.abs(s.q) ** 2) for s in rec.states])
    drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
    mass_ok = drift <= 1e-4
    verdict(7, iters_ok and contr_ok and mass_ok,
            f"iterations {rec.iterations} (<= 8), factors "
            f"{[round(f, 3) for f in rec.contraction_factors]} (<= 0.5), "
            f"relative mass drift {drift:.3e} (<= 1e-4)")


def test_criterion_8_dirichlet_pipeline():
    # (a) split-flow traces equal the r-series exactly (orthogonality)
    phi = lambda x: np.exp(0.7 * x) * np.sin(np.pi * x) ** 2 + 0j
    N = 64
    phi_o, phi_e = odd_even_extend(phi, N)
    r1, r2, r3, r4 = bops.dirichlet_traces(phi_o, phi_e)
    k = np.arange(1, N + 1)
    ck = np.where(k % 2 == 0, 1.0, -1.0)
    worst = 0.0
    for t in np.linspace(0.0, PERIOD, 7):
        so = lf.propagate_periodic(phi_o, t)
        se = lf.propagate_periodic(phi_e, t)
        worst = max(worst, abs(se.p0 + se.p.sum() - r1(t)))
        worst = max(worst, abs(se.p0 + se.p @ ck - r2(t)))
        worst = max(worst, abs(so.q @ (k * np.pi) - r3(t)))
        worst = max(worst, abs(so.q @ (k * np.pi * ck) - r4(t)))
    trace_ok = worst <= 1e-10

    # (b) linear clamped solve recovers imposed h1 and h3 under N-doubling
    z = BoundaryTrace.zero()
    times = np.linspace(0.0, PERIOD, 201)
    href = np.sin(np.pi ** 4 * times / 2.0) ** 2
    val_errs, slope_errs = [], []
    for N2 in (32, 64, 128, 256):
        kk = np.arange(1, N2 + 1)
        qh, ph, p0h = bops.dirichlet_linear_history(H_SIN2, z, z, z, times, N2,
                                                    K=48)
        u0 = 2.0 * (p0h + ph.sum(axis=1))
        val_errs.append(float(np.sqrt(np.trapezoid(np.abs(u0 - href) ** 2, times))))
        qh, ph, p0h = bops.dirichlet_linear_history(z, z, H_SIN2, z, times, N2,
                                                    K=48)
        s0 = 2.0 * (qh @ (kk * np.pi))
        slope_errs.append(float(np.sqrt(np.trapezoid(np.abs(s0 - href) ** 2, times))))
    val_ratios = [val_errs[i] / val_errs[i + 1] for i in range(3)]
    slope_ratios = [slope_errs[i] / slope_errs[i + 1] for i in range(3)]
    recov_ok = all(r >= 1.3 for r in val_ratios + slope_ratios)
    verdict(8, trace_ok and recov_ok,
            f"trace mismatch {worst:.3e} (<= 1e-10); value ratios {val_ratios}, "
            f"slope ratios {slope_ratios} (need >= 1.3 per doubling)")


def test_criterion_9_clamped_basis():
    basis = lf.build_clamped_basis(32)

    def oracle(kth):
        """Plain bisection on cos(mu)cosh(mu) - 1 at 50-digit precision."""
        mpmath.mp.dps = 50
        f = lambda m: mpmath.cos(m) * mpmath.cosh(m) - 1
        lo = (kth + 0.5) * mpmath.pi - mpmath.mpf("0.7")
        hi = (kth + 0.5) * mpmath.pi + mpmath.mpf("0.7")
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)

    mu_err = max(abs(basis.mu[0] - oracle(1)), abs(basis.mu[1] - oracle(2)))
    y, w = np.polynomial.legendre.leggauss(4096)
    x, w = 0.5 * (y + 1.0), 0.5 * w
    phi = basis.evaluate(x)
    gram_err = float(np.max(np.abs((phi * w[None, :]) @ phi.T - np.eye(32))))
    ok = mu_err <= 1e-9 and gram_err <= 1e-8
    verdict(9, ok, f"mu error {mu_err:.3e} (<= 1e-9), Gram deviation "
                   f"{gram_err:.3e} (<= 1e-8, K=32)")


def test_criterion_10_kato_smoothing_sweep():
    rows = lab.kato_sweep(lab.RegularitySweep(s_grid=[1.0, 2.0, 3.0],
                                              ensemble=16, N=256, seed=0))
    devs = {(r["s"], r["order"]): r["measured"] - r["predicted"] for r in rows}
    worst = max(abs(v) for v in devs.values())
    ok = worst <= 0.15
    detail = ", ".join(f"s={s:g},i={i}: {d:+.3f}" for (s, i), d in sorted(devs.items()))
    verdict(10, ok, f"measured-predicted deviations (tol 0.15): {detail}")
