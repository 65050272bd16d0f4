import math

import numpy as np
import pytest
import sympy as sp
from scipy.optimize import brentq

from bihns.cli import ConfigError, _build_problem
from bihns.nonlinear import (ProblemSpec, SolutionRecord, _nonlin_sine_history,
                             _power, homogenize_navier, picard_dirichlet,
                             picard_navier)
from bihns.spectral import (BoundaryTrace, FourierState, reconstruct,
                            sine_grid, sine_state, sobolev_norm, uniform_grid)

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
    assert g(0.5) == pytest.approx(0.5 ** 3 - 0.5)    # gamma = x^3 - x
    g = homogenize_navier(0.0, 0.0, 0.0, 0.0)
    assert np.max(np.abs(g(np.linspace(0, 1, 9)))) == 0.0
    # differentiate the code: the four corner values, and no fourth derivative
    x = sp.symbols("x")
    h1, h2, h5, h6 = 0.3 - 1j, -0.7 + 0.2j, 1.9j, -2.4
    gamma = homogenize_navier(h1, h2, h5, h6)(x)
    d2 = sp.diff(gamma, x, 2)
    for expr, at, val in ((gamma, 0, h1), (d2, 0, h5), (gamma, 1, h2), (d2, 1, h6)):
        assert abs(complex(expr.subs(x, at)) - val) < 1e-14
    assert sp.diff(gamma, x, 4) == 0


# ---------------------------------------------------------------------------
# nonlinearity


def _trapezoid_projection(q, p, lam, M=8192):
    """2 int_0^1 lam |u|^(p-2) u sin(k pi x) dx, u = sum_k q_k sin(k pi x),
    by the trapezoid rule on M intervals."""
    x = np.linspace(0.0, 1.0, M + 1)
    S = np.sin(np.pi * np.outer(x, np.arange(1, len(q) + 1)))
    u = S @ np.asarray(q, dtype=complex)
    w = np.full(M + 1, 1.0 / M)
    w[[0, -1]] *= 0.5
    return 2.0 * (lam * np.abs(u) ** (p - 2.0) * u * w) @ S


def _nonlin_row(q, p, lam):
    q = np.asarray(q, dtype=complex)
    return _nonlin_sine_history(q[None, :], None, p, lam, len(q))[0]


def test_nonlinearity_zero():
    assert np.max(np.abs(_nonlin_row(np.zeros(8), 3.0, 1.0))) == 0.0


def test_nonlinearity_cubic_trig_identity():
    # sin^3 = (3 sin - sin 3)/4 for p=4 on a real single mode
    out = _nonlin_row([1.0, 0.0, 0.0, 0.0], 4.0, 1.0)
    assert out[0] == pytest.approx(0.75, abs=1e-10)
    assert out[2] == pytest.approx(-0.25, abs=1e-10)
    assert abs(out[1]) < 1e-10 and abs(out[3]) < 1e-10


def test_nonlinearity_modulus_quadrature_oracle():
    # p=3, lam=-2, u = i sin(pi x): |u|u = i sin^2(pi x), so
    # q1 = 2 * (-2i) * int sin^3 = -16i/(3 pi), even modes vanish by symmetry;
    # |u|u is not a polynomial, so the solver grid converges like h^4
    q = np.zeros(128, dtype=complex)
    q[0] = 1j
    exact = -16j / (3.0 * np.pi)
    assert abs(_trapezoid_projection(q[:2], 3.0, -2.0)[0] - exact) < 1e-10
    out = _nonlin_row(q, 3.0, -2.0)
    assert abs(out[0] - exact) < 1e-9
    assert np.max(np.abs(out[1::2])) < 1e-12


def test_nonlinearity_dealias_doubling():
    # |u|^2 u is a polynomial in (u, conj u): the padding rule is exact for
    # p=4, so the trapezoid sum with the padding factor doubled must agree
    N = 12
    q = 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    ref = _trapezoid_projection(q, 4.0, 1.0, M=4 * N + 1)
    assert np.max(np.abs(_nonlin_row(q, 4.0, 1.0) - ref)) < 1e-12


@pytest.mark.parametrize("p", [3.0, 4.0])
def test_nonlin_sine_history_rows_match_nonlinearity(p):
    # the stacked real transform of the history must agree row by row with
    # the trapezoid sum from the definition on the same padded grid
    N, T = 24, 7
    v = (rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))) \
        / np.arange(1, N + 1) ** 2
    hist = _nonlin_sine_history(v, None, p, 1.3, N)
    M = max(2, math.ceil(p / 2.0)) * N + 1
    for row, got in zip(v, hist):
        expect = _trapezoid_projection(row, p, 1.3, M)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_power_in_place_zero_and_overflow():
    u = np.zeros(5, dtype=complex)
    assert _power(u, 3.0, 1.0) is u and not np.any(u)
    with pytest.raises(OverflowError, match="blow-up"):
        _power(np.array([1e200 + 1e200j, 1.0]), 5.0, 1.0)


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


# ---------------------------------------------------------------------------
# solution record


def _hinged_record():
    q0 = np.zeros(32, dtype=complex)
    q0[:3] = [0.3, 0.2j, -0.1]
    st0 = sine_state(q0)
    h1 = BoundaryTrace.from_series([-1, 0, 1], [0.05j, 0.1, -0.05])
    spec = ProblemSpec(family="navier", s=1.0, p=3.0, lam=1.0, T=0.005, N=32,
                       dt=1e-4, h1=h1, phi=lambda x: reconstruct(st0, x))
    return spec, picard_navier(spec)


def _clamped_record():
    hs = {key: BoundaryTrace.from_series([0, 1], [-b, b]) for key, b in
          zip(("h1", "h2", "h3", "h4"), (0.1, 0.05j, -0.08, 0.12 + 0.03j))}
    spec = ProblemSpec(family="dirichlet", s=2.0, p=5.0, lam=1.0, T=1e-3,
                       dt=1e-5, N=16, K_clamped=8,
                       phi=lambda x: (2.0 + 1j) * x ** 2 * (1.0 - x) ** 2, **hs)
    return spec, picard_dirichlet(spec)


@pytest.mark.parametrize("make", [_hinged_record, _clamped_record],
                         ids=["hinged", "clamped"])
def test_record_norms_equal_per_state_norms(make):
    spec, rec = make()
    assert rec.p is None or np.all(rec.p0 != 0)
    states = rec.states
    for s in (spec.s, 0.0):
        want = [sobolev_norm(st, s) for st in states]
        assert rec.norms(s).tolist() == want


def test_record_norms_constant_mode_matches_scalar_abs():
    # each state squares its constant mode as abs(p0) ** 2 (libm hypot, then
    # pow); numpy's complex abs differs from that on many rows, and squaring
    # hypot as x*x on the rows where pow(x, 2) != x*x, which are repeated
    # here against many sine parts so that the ulp reaches the norm
    g = np.random.default_rng(7)
    z = g.standard_normal(20000) + 1j * g.standard_normal(20000)
    trap = z[np.array([abs(v) ** 2 for v in z.tolist()])
             != np.hypot(z.real, z.imag) ** 2]
    p0 = np.concatenate((z[:500], np.repeat(trap, 32)))
    q = g.standard_normal((len(p0), 1)) + 1j * g.standard_normal((len(p0), 1))
    rec = SolutionRecord(times=np.linspace(0.0, 1.0, len(p0)), q=q,
                         p=np.zeros_like(q), p0=p0)
    assert rec.norms(0.0).tolist() == [sobolev_norm(st, 0.0) for st in rec.states]


@pytest.mark.parametrize("make", [_hinged_record, _clamped_record],
                         ids=["hinged", "clamped"])
def test_record_states_are_read_only_rows(make):
    _, rec = make()
    j = len(rec.times) // 2
    st = rec.states[j]
    assert isinstance(st, FourierState) and st.t == rec.times[j]
    assert np.array_equal(st.q, rec.q[j])
    if rec.p is None:
        assert st.basis == "sine" and not np.any(st.p) and st.p0 == 0
    else:
        assert np.array_equal(st.p, rec.p[j]) and st.p0 == rec.p0[j]
    for a in (st.q, st.p, rec.q):
        with pytest.raises(ValueError):
            a[0] = 1.0
    x = np.linspace(0.0, 1.0, 9)
    want = reconstruct(st, x) + (rec.lift(x) if rec.lift else 0.0)
    assert np.array_equal(rec.evaluate(j, x), want)


@pytest.mark.parametrize("clamped", [False, True])
def test_record_rejects_non_finite(clamped):
    q = np.zeros((3, 4), dtype=complex)
    p, p0 = (np.zeros((3, 4), dtype=complex), np.zeros(3, dtype=complex))
    (p0 if clamped else q)[1] = np.nan
    extra = {"p": p, "p0": p0} if clamped else {}
    with pytest.raises(ValueError, match="non-finite"):
        SolutionRecord(times=np.linspace(0.0, 1.0, 3), q=q, **extra)


def test_hinged_solve_builds_no_cosine_matrix():
    sine_grid.cache_clear()
    uniform_grid.cache_clear()
    _hinged_record()
    assert sine_grid.cache_info().misses > 0
    assert uniform_grid.cache_info().misses == 0
