import math

import numpy as np
import pytest
from scipy.optimize import brentq

from bihns.cli import ConfigError, _build_problem
from bihns.nonlinear import (ProblemSpec, _nonlin_sine_history,
                             homogenize_navier, nonlinearity,
                             picard_dirichlet, picard_navier)
from bihns.spectral import (BoundaryTrace, mixed_state, reconstruct,
                            sine_state, sobolev_norm)

rng = np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# problem validation


def test_half_integer_s_rejected():
    with pytest.raises(ValueError, match="n\\+1/2"):
        ProblemSpec(family="navier", s=1.5)


def test_dirichlet_threshold_rejected():
    with pytest.raises(ValueError, match="10/7"):
        ProblemSpec(family="dirichlet", s=1.0)


def test_navier_range():
    with pytest.raises(ValueError):
        ProblemSpec(family="navier", s=0.3)
    # only the H^s metric exists; any other metric is a config error
    for s in (0.3, 0.7):
        with pytest.raises(ConfigError, match="metric"):
            _build_problem({"family": "navier", "s": s, "metric": "l4"})


def test_power_and_differentiability():
    with pytest.raises(ValueError):
        ProblemSpec(family="navier", s=1.0, p=2.0)
    with pytest.raises(ValueError):
        ProblemSpec(family="navier", s=2.2, p=4.0)  # floor(s)=2 not < p-2
    ProblemSpec(family="navier", s=2.2, p=5.0)
    ProblemSpec(family="navier", s=1.0, p=3.0)  # the canonical cubic case


def test_unknown_family():
    with pytest.raises(ValueError):
        ProblemSpec(family="periodic", s=1.0)


# ---------------------------------------------------------------------------
# homogenization


def test_homogenize_corner_values():
    g = homogenize_navier(1.0, 0.0, 0.0, 0.0)
    assert g(0.0) == pytest.approx(1.0)
    assert g(np.array([0.5]))[0] == pytest.approx(0.5)  # gamma = 1-x
    g = homogenize_navier(0.0, 0.0, 0.0, 6.0)
    # gamma = x^3 - x; gamma''(1) = 6
    assert g(1.0, order=2) == pytest.approx(6.0)
    assert g(0.5) == pytest.approx(0.5 ** 3 - 0.5)
    g = homogenize_navier(0.0, 0.0, 0.0, 0.0)
    assert np.max(np.abs(g(np.linspace(0, 1, 9)))) == 0.0


# ---------------------------------------------------------------------------
# nonlinearity


def test_nonlinearity_zero():
    st = sine_state(np.zeros(8))
    out = nonlinearity(st, 3.0, 1.0)
    assert np.max(np.abs(out.q)) == 0.0


def test_nonlinearity_cubic_trig_identity():
    # sin^3 = (3 sin - sin 3)/4 for p=4 on a real single mode
    st = sine_state([1.0, 0.0, 0.0, 0.0])
    out = nonlinearity(st, 4.0, 1.0)
    assert out.q[0] == pytest.approx(0.75, abs=1e-10)
    assert out.q[2] == pytest.approx(-0.25, abs=1e-10)
    assert abs(out.q[1]) < 1e-10 and abs(out.q[3]) < 1e-10


def test_nonlinearity_modulus_quadrature_oracle():
    # p=3, lam=-2, u = i sin(pi x): |u|u = i sin^2(pi x), so
    # q1 = 2 * (-2i) * int sin^3 = -16i/(3 pi), q2 = 0 by symmetry
    st = sine_state([1j, 0.0])
    out = nonlinearity(st, 3.0, -2.0, pad=8192)
    assert abs(out.q[0] - (-16j / (3.0 * np.pi))) < 1e-10
    assert abs(out.q[1]) < 1e-10


def test_nonlinearity_dealias_doubling():
    # |u|^2 u is a polynomial in (u, conj u): the padding rule is exact for
    # p=4, so doubling the factor must not move the projection
    q = 0.1 * (rng.standard_normal(12) + 1j * rng.standard_normal(12))
    st = sine_state(q)
    a = nonlinearity(st, 4.0, 1.0)
    b = nonlinearity(st, 4.0, 1.0, pad=4)
    assert np.max(np.abs(a.q - b.q)) < 1e-12


def test_nonlinearity_mixed_roundtrip_consistency():
    # mixed-branch projection must be consistent with reconstruct
    st = mixed_state(0.1 * rng.standard_normal(6), 0.1 * rng.standard_normal(6), 0.05)
    out = nonlinearity(st, 3.0, 1.0, pad=8)
    x = np.linspace(0.07, 0.93, 23)
    u = reconstruct(st, x)
    target = np.abs(u) * u
    got = reconstruct(out, x)
    assert np.max(np.abs(got - target)) < 5e-2  # truncation-limited, not exact


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_nonlin_sine_history_rows_match_nonlinearity(p):
    # the stacked real transform of the history must agree row by row with
    # the single-state collocation route
    N, T = 24, 7
    v = (rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))) \
        / np.arange(1, N + 1) ** 2
    hist = _nonlin_sine_history(v, None, p, 1.3, N)
    for row, got in zip(v, hist):
        expect = nonlinearity(sine_state(row), p, 1.3).q
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


# ---------------------------------------------------------------------------
# hinged pipeline


def test_picard_navier_zero_data():
    spec = ProblemSpec(family="navier", s=1.0, T=0.01, N=16, dt=1e-3)
    rec = picard_navier(spec)
    assert rec.tstar == pytest.approx(0.01)
    for st in rec.states:
        assert np.max(np.abs(st.q)) == 0.0


def test_picard_navier_linear_case_matches_free_flow():
    q0 = 1e-3 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=0.01, N=16, dt=1e-3,
                       phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    k = np.arange(1, 17)
    for j, t in enumerate(rec.times):
        expect = q0 * np.exp(1j * (k * np.pi) ** 4 * t)
        assert np.max(np.abs(rec.states[j].q - expect)) < 1e-10


def test_picard_navier_linearity_scaling():
    """lam=0: scaling all data by eps scales the solution exactly."""
    q0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    st0 = sine_state(q0)
    recs = {}
    for eps in (1e-2, 1e-3):
        spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=0.005, N=8,
                           dt=5e-4, phi=lambda x: eps * reconstruct(st0, x))
        recs[eps] = picard_navier(spec)
    a = np.stack([s.q for s in recs[1e-2].states])
    b = np.stack([s.q for s in recs[1e-3].states])
    assert np.max(np.abs(a - 10.0 * b)) < 1e-12 * np.abs(a).max()


def test_picard_navier_small_data_contraction_and_residual():
    q0 = np.zeros(32, dtype=complex)
    q0[:4] = 1e-3 * np.array([1.0, 0.5j, -0.25, 0.1])
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, p=3.0, lam=1.0, T=0.01, N=32,
                       dt=2e-4, phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    assert rec.iterations <= 8
    assert all(f <= 0.5 for f in rec.contraction_factors)
    assert rec.residual <= 10.0 * spec.tol


def test_picard_navier_boundary_trace_reported():
    h1 = BoundaryTrace.from_series([-1, 0, 1], [-0.25, 0.5, -0.25])
    spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=0.01, N=128,
                       dt=2e-4, h1=h1)
    rec = picard_navier(spec)
    href = np.sin(np.pi ** 4 * rec.times / 2.0) ** 2
    err = np.sqrt(np.trapezoid(np.abs(rec.traces["u0"] - href) ** 2, rec.times))
    ref = np.sqrt(np.trapezoid(href ** 2, rec.times)) + 1e-30
    assert err < 0.05 * ref


# ---------------------------------------------------------------------------
# clamped pipeline


def test_picard_dirichlet_zero_data():
    spec = ProblemSpec(family="dirichlet", s=1.8, p=4.0, T=0.005, N=16,
                       dt=5e-4, K_clamped=8)
    rec = picard_dirichlet(spec)
    for st in rec.states:
        assert np.max(np.abs(st.q)) < 1e-12
        assert np.max(np.abs(st.p)) < 1e-12


def test_picard_dirichlet_small_data_converges():
    spec = ProblemSpec(family="dirichlet", s=1.8, p=4.0, lam=1.0, T=0.002,
                       N=24, dt=1e-4, K_clamped=12,
                       phi=lambda x: 1e-3 * x ** 2 * (1.0 - x) ** 2 + 0j * x)
    rec = picard_dirichlet(spec)
    assert rec.iterations <= 8
    assert all(f <= 0.5 for f in rec.contraction_factors)
    assert rec.projection_residual < 0.1
    assert np.isfinite(rec.residual)


def test_picard_dirichlet_tstar_capped_at_one():
    spec = ProblemSpec(family="dirichlet", s=1.8, p=4.0, lam=0.0, T=5.0, N=8,
                       dt=0.05, K_clamped=4)
    rec = picard_dirichlet(spec)
    assert rec.tstar <= 1.0 + 1e-12


def _exact_clamped_flow(datum, times, x, K=64):
    """Free clamped flow sum_k c_k e^{i mu_k^4 t} phi_k(x) from brentq roots.

    Eigenfunctions in the overflow-free (cosh - cos) - sigma (sinh - sin)
    form, normalized and projected by Gauss-Legendre quadrature; nothing is
    taken from ``build_clamped_basis``.
    """
    mu = np.array([brentq(lambda m: math.cos(m) - 1.0 / math.cosh(m),
                          (k + 0.5) * math.pi - 0.7, (k + 0.5) * math.pi + 0.7,
                          xtol=1e-15) for k in range(1, K + 1)])
    em = np.exp(-mu)
    d = 0.5 * (1.0 - em ** 2) - np.sin(mu) * em
    sigma = ((0.5 * (1.0 + em ** 2) - np.cos(mu) * em) / d)[:, None]
    tail = ((np.cos(mu) - np.sin(mu) - em) / d)[:, None]

    def shapes(y):
        my = np.outer(mu, y)
        return (0.5 * (1.0 + sigma) * np.exp(-my) + 0.5 * tail * np.exp(my - mu[:, None])
                - np.cos(my) + sigma * np.sin(my))

    yg, wg = np.polynomial.legendre.leggauss(16 * K)
    yg, wg = 0.5 * (yg + 1.0), 0.5 * wg
    norm = np.sqrt(shapes(yg) ** 2 @ wg)
    c = (shapes(yg) / norm[:, None]) @ (wg * datum(yg))
    return (c * np.exp(1j * np.outer(times, mu ** 4))) @ (shapes(x) / norm[:, None])


def test_picard_dirichlet_free_flow_oracle():
    # lam = 0, zero boundary data, clamped-compatible datum: the solve is the
    # exact eigen-flow; the mixed-series record truncates at O(N^-3)
    datum = lambda x: x ** 2 * (1.0 - x) ** 2 * np.exp(x) + 0j
    T = 2e-3
    x = np.linspace(0.1, 0.9, 81)
    errs = []
    for N in (64, 128):
        spec = ProblemSpec(family="dirichlet", s=1.8, p=4.0, lam=0.0, T=T,
                           dt=T / 50, N=N, K_clamped=32, phi=datum)
        rec = picard_dirichlet(spec)
        got = np.array([rec.evaluate(j, x) for j in range(len(rec.times))])
        exact = _exact_clamped_flow(datum, rec.times, x)
        errs.append(float(np.abs(got - exact).max() / np.abs(exact).max()))
    assert errs[0] <= 1e-4
    assert errs[1] <= errs[0] / 4.0
