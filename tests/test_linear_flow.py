import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bihns.linear_flow import (ForcingHistory, _char_scaled,
                               build_clamped_basis, duhamel,
                               duhamel_history, navier_eigenvalues,
                               propagate_navier, propagate_periodic)
from bihns.spectral import mixed_state, sine_state, sobolev_norm

rng = np.random.default_rng(777)


def _gauss_nodes(n):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    y, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (y + 1.0), 0.5 * w


# ---------------------------------------------------------------------------
# free flows


def test_navier_isometry():
    for _ in range(10):
        q = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        st = sine_state(q)
        t = float(rng.random())
        out = propagate_navier(st, t)
        for s in (0.0, 1.0, 2.0):
            a, b = sobolev_norm(st, s), sobolev_norm(out, s)
            assert abs(a - b) <= 1e-13 * a


def test_group_law():
    # modest N: for large k the phase (k pi)^4 t amplifies the rounding of
    # t1+t2 past 1e-12 in doubles, which is a float artifact, not a flow error
    q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    st = sine_state(q)
    t1, t2 = 0.013, 0.041
    one = propagate_navier(st, t1 + t2)
    two = propagate_navier(propagate_navier(st, t1), t2)
    assert np.max(np.abs(one.q - two.q)) < 1e-12 * np.abs(q).max()
    # large-N variant with the phase-conditioning budget made explicit
    q = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    st = sine_state(q)
    one = propagate_navier(st, t1 + t2)
    two = propagate_navier(propagate_navier(st, t1), t2)
    budget = (64 * np.pi) ** 4 * (t1 + t2) * 1e-15
    assert np.max(np.abs(one.q - two.q)) < budget * np.abs(q).max()


def test_periodic_flow_keeps_mean_mode():
    st = mixed_state(rng.standard_normal(8), rng.standard_normal(8), 2.0 - 1j)
    out = propagate_periodic(st, 0.2)
    assert out.p0 == st.p0
    assert np.allclose(np.abs(out.q), np.abs(st.q))


def test_navier_flow_requires_sine_basis():
    st = mixed_state([1.0], [1.0], 0.0)
    with pytest.raises(ValueError):
        propagate_navier(st, 0.1)


# ---------------------------------------------------------------------------
# clamped basis


def _mpmath_mu(k):
    """High-precision root of cos(mu)cosh(mu)=1 near (k+1/2)pi."""
    mpmath.mp.dps = 40
    f = lambda m: mpmath.cos(m) * mpmath.cosh(m) - 1
    return float(mpmath.findroot(f, (k + 0.5) * mpmath.pi))


def test_clamped_roots_vs_oracle():
    basis = build_clamped_basis(4)
    for k in (1, 2, 3, 4):
        assert abs(basis.mu[k - 1] - _mpmath_mu(k)) < 1e-9


def test_clamped_characteristic_residual():
    basis = build_clamped_basis(32)
    # scaled (overflow-free) residual for every mode
    for mu in basis.mu:
        assert abs(_char_scaled(mu)) < 1e-12
    # the literal product form is representable only for the first root
    mu1 = basis.mu[0]
    assert abs(math.cos(mu1) * math.cosh(mu1) - 1.0) < 1e-12


def test_clamped_gram_identity():
    x, w = _gauss_nodes(2048)
    for K in (32, 64):
        phi = build_clamped_basis(K).evaluate(x)
        G = (phi * w[None, :]) @ phi.T
        assert np.max(np.abs(G - np.eye(K))) < 1e-8


def test_clamped_boundary_conditions():
    basis = build_clamped_basis(12)
    ends = np.array([0.0, 1.0])
    assert np.max(np.abs(basis.evaluate(ends, order=0))) < 1e-8
    assert np.max(np.abs(basis.evaluate(ends, order=1))) < 1e-6


def test_clamped_completeness():
    basis = build_clamped_basis(32)
    x, w = _gauss_nodes(2048)
    f = x ** 2 * (1.0 - x) ** 2
    phi = basis.evaluate(x)
    c = phi @ (w * f)
    err = f - c @ phi
    assert math.sqrt(float((np.abs(err) ** 2) @ w)) < 1e-6


# ---------------------------------------------------------------------------
# Duhamel convolution


def test_duhamel_zero_forcing():
    t = np.linspace(0.0, 0.1, 11)
    F = ForcingHistory(t, np.zeros((11, 3), dtype=complex), navier_eigenvalues(3))
    assert np.max(np.abs(duhamel_history(F))) == 0.0


def test_duhamel_constant_forcing_closed_form():
    w = np.pi ** 4
    t = np.linspace(0.0, 0.2, 401)
    F = ForcingHistory(t, np.ones((401, 1), dtype=complex), np.array([w]))
    got = duhamel(F, 0.2)[0]
    expect = (np.exp(1j * w * 0.2) - 1.0) / (1j * w)
    assert abs(got - expect) < 1e-12


def test_duhamel_linear_forcing_quadrature_oracle():
    # f(tau) = tau is inside the piecewise-linear contract: exact up to roundoff
    from scipy.integrate import quad
    w = np.pi ** 4
    tend = 0.1
    t = np.linspace(0.0, tend, 201)
    F = ForcingHistory(t, t[:, None].astype(complex), np.array([w]))
    got = duhamel(F, tend)[0]
    re, _ = quad(lambda tau: (np.exp(1j * w * (tend - tau)) * tau).real, 0, tend,
                 limit=200)
    im, _ = quad(lambda tau: (np.exp(1j * w * (tend - tau)) * tau).imag, 0, tend,
                 limit=200)
    assert abs(got - (re + 1j * im)) < 1e-10


def test_duhamel_vs_ode_reference():
    """Dual route: exponential integrator vs rotated-frame adaptive ODE solve."""
    for trial in range(5):
        k = int(rng.integers(1, 4))
        w = (k * np.pi) ** 4
        tend = 0.05
        t = np.linspace(0.0, tend, 501)
        vals = (rng.standard_normal(len(t)) + 1j * rng.standard_normal(len(t)))
        F = ForcingHistory(t, vals[:, None], np.array([w]))
        got = duhamel(F, tend)[0]

        def rhs(tau, y):
            f = np.interp(tau, t, vals.real) + 1j * np.interp(tau, t, vals.imag)
            g = np.exp(-1j * w * tau) * f
            return [g.real, g.imag]

        sol = solve_ivp(rhs, (0.0, tend), [0.0, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-12, max_step=t[1] - t[0])
        ref = np.exp(1j * w * tend) * (sol.y[0, -1] + 1j * sol.y[1, -1])
        assert abs(got - ref) < 1e-8


def test_duhamel_midinterval_evaluation():
    w = np.pi ** 4
    t = np.linspace(0.0, 0.2, 401)
    F = ForcingHistory(t, np.ones((401, 1), dtype=complex), np.array([w]))
    tm = 0.5 * (t[5] + t[6])
    got = duhamel(F, tm)[0]
    expect = (np.exp(1j * w * tm) - 1.0) / (1j * w)
    assert abs(got - expect) < 1e-12


def _duhamel_per_step(F):
    """Reference recurrence with the weights recomputed on every step."""
    from bihns.linear_flow import _interval_weights
    t, c, w = F.times, F.coeffs, F.omegas
    V = np.zeros_like(c)
    for j in range(len(t) - 1):
        dt = t[j + 1] - t[j]
        z = 1j * w * dt
        g0, g1 = _interval_weights(z)
        J = dt * (c[j + 1] * g0 + (c[j] - c[j + 1]) * g1)
        V[j + 1] = np.exp(z) * V[j] + J
    return V


@pytest.mark.parametrize("grid", ["linspace", "random"])
def test_duhamel_history_matches_per_step_weights_exactly(grid):
    # hoisting the weights per distinct step must not change a single bit;
    # the frequencies straddle the small-phase switch |w dt| = 1e-3
    t = (np.linspace(0.0, 0.013, 301) if grid == "linspace"
         else np.cumsum(np.concatenate(([0.0], rng.uniform(1e-5, 1e-4, 300)))))
    w = np.concatenate(([0.0, 1.0, 20.0], navier_eigenvalues(12)))
    shape = (len(t), len(w))
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    F = ForcingHistory(t, c, w)
    assert np.array_equal(duhamel_history(F), _duhamel_per_step(F))


def test_duhamel_out_of_range():
    t = np.linspace(0.0, 0.1, 5)
    F = ForcingHistory(t, np.zeros((5, 1), dtype=complex), np.array([1.0]))
    with pytest.raises(ValueError):
        duhamel(F, 0.2)


def test_small_phase_branch_continuity():
    # weights must agree across the series/exact switch
    from bihns.linear_flow import _interval_weights
    z = np.array([9.9e-4j, 1.01e-3j])
    g0, g1 = _interval_weights(z)
    assert abs(g0[0] - g0[1]) < 1e-5
    assert abs(g1[0] - g1[1]) < 1e-5
    # and match the exact formulas to near machine precision in the small branch
    # the direct (e^z-1)/z reference itself loses ~eps/|z| to cancellation,
    # which is exactly why the Taylor branch exists; compare at that level
    ze = 5e-4j
    g0s, g1s = _interval_weights(np.array([ze]))
    exact0 = (np.exp(ze) - 1.0) / ze
    assert abs(g0s[0] - exact0) < 1e-12


def test_forcing_history_validation():
    with pytest.raises(ValueError):
        ForcingHistory(np.array([0.0, 0.0]), np.zeros((2, 1), dtype=complex),
                       np.array([1.0]))
    with pytest.raises(ValueError):
        ForcingHistory(np.array([0.0, 1.0]), np.zeros((3, 1), dtype=complex),
                       np.array([1.0]))
