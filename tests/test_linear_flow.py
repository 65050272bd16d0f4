import functools
import hashlib
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bihns.linear_flow import (_DUHAMEL_BLOCK, ForcingHistory,
                               build_clamped_basis, duhamel,
                               duhamel_history, navier_eigenvalues,
                               propagate_periodic, step_weights)
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
        out = propagate_periodic(st, t)
        for s in (0.0, 1.0, 2.0):
            a, b = sobolev_norm(st, s), sobolev_norm(out, s)
            assert abs(a - b) <= 1e-13 * a


def test_group_law():
    # modest N: for large k the phase (k pi)^4 t amplifies the rounding of
    # t1+t2 past 1e-12 in doubles, which is a float artifact, not a flow error
    q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    st = sine_state(q)
    t1, t2 = 0.013, 0.041
    one = propagate_periodic(st, t1 + t2)
    two = propagate_periodic(propagate_periodic(st, t1), t2)
    assert np.max(np.abs(one.q - two.q)) < 1e-12 * np.abs(q).max()
    # large-N variant with the phase-conditioning budget made explicit
    q = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    st = sine_state(q)
    one = propagate_periodic(st, t1 + t2)
    two = propagate_periodic(propagate_periodic(st, t1), t2)
    budget = (64 * np.pi) ** 4 * (t1 + t2) * 1e-15
    assert np.max(np.abs(one.q - two.q)) < budget * np.abs(q).max()


def test_periodic_flow_keeps_mean_mode():
    st = mixed_state(rng.standard_normal(8), rng.standard_normal(8), 2.0 - 1j)
    out = propagate_periodic(st, 0.2)
    assert out.p0 == st.p0
    assert np.allclose(np.abs(out.q), np.abs(st.q))


def test_periodic_flow_on_sine_state_is_hinged_flow():
    # the phase rotation of each sine mode, bit for bit, with p and p0 left 0
    N, t = 64, 0.37
    q = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    out = propagate_periodic(sine_state(q), t)
    assert np.array_equal(out.q, np.exp(1j * navier_eigenvalues(N) * t) * q)
    assert np.all(out.p == 0) and out.p0 == 0


# ---------------------------------------------------------------------------
# clamped basis


@functools.lru_cache(maxsize=None)
def _bisected_mu(k):
    """Criterion 9's oracle: 200 bisection steps on cos(mu)cosh(mu) - 1 at
    50 digits over (k + 1/2) pi +- 0.7."""
    with mpmath.workdps(50):
        f = lambda m: mpmath.cos(m) * mpmath.cosh(m) - 1
        lo = (k + 0.5) * mpmath.pi - mpmath.mpf("0.7")
        hi = (k + 0.5) * mpmath.pi + mpmath.mpf("0.7")
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def _scaled_residual(mu):
    """|cos(mu) - sech(mu)| at 30 digits, the float mu read exactly."""
    with mpmath.workdps(30):
        m = mpmath.mpf(float(mu))
        return float(abs(mpmath.cos(m) - mpmath.sech(m)))


def test_clamped_basis_is_cached_read_only():
    basis = build_clamped_basis(6)
    assert build_clamped_basis(6) is basis
    for a in (basis.mu, basis.sigma, basis.delta_hat):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_clamped_roots_vs_oracle():
    basis = build_clamped_basis(4)
    for k in (1, 2, 3, 4):
        assert abs(basis.mu[k - 1] - _bisected_mu(k)) < 1e-9


def test_clamped_characteristic_residual():
    basis = build_clamped_basis(32)
    # scaled (overflow-free) residual for every mode
    for mu in basis.mu:
        assert _scaled_residual(mu) < 1e-12
    # the literal product form is representable only for the first root
    mu1 = basis.mu[0]
    assert abs(math.cos(mu1) * math.cosh(mu1) - 1.0) < 1e-12


# sha256 of build_clamped_basis(225).mu.tobytes() from the per-mode bisection
# and Newton polish that the vectorized Newton iteration replaced
MU_225_SHA256 = "05e726e1fe9dd9fbd341580027fcf6be2cca8c6a2bbff500d07f4a09b2239cfc"


def test_clamped_roots_up_to_225_are_pinned_bit_for_bit():
    assert hashlib.sha256(build_clamped_basis(225).mu.tobytes()).hexdigest() \
        == MU_225_SHA256


@pytest.mark.parametrize("K", [226, 300, 1024])
def test_clamped_roots_past_cosh_overflow(K):
    # mu_226 > 710, where cosh(mu) overflows a double; each residual is the
    # rounding of the float mu (measured at most 0.47 mu eps up to K = 1024)
    mu = build_clamped_basis(K).mu
    for k in sorted({1, 2, 225, 226, K}):
        assert abs(mu[k - 1] - _bisected_mu(k)) <= 1e-14 * _bisected_mu(k)
    eps = np.finfo(np.float64).eps
    assert all(_scaled_residual(m) <= 2.0 * eps * m for m in mu)


def test_clamped_gram_identity():
    # 2048 nodes resolve K = 300 too: the largest deviation is 1.6e-13
    x, w = _gauss_nodes(2048)
    for K in (32, 64, 300):
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


def test_duhamel_at_a_node_is_that_history_row():
    # one interval formula: at a node, duhamel reads the recurrence itself
    t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 0.01, 40))))
    w = navier_eigenvalues(16)
    c = rng.standard_normal((41, 16)) + 1j * rng.standard_normal((41, 16))
    F = ForcingHistory(t, c, w)
    V = duhamel_history(F)
    for j in (0, 1, 17, 40):
        assert np.array_equal(duhamel(F, t[j]), V[j])


def _duhamel_per_step(F, v0=None):
    """Reference recurrence with the weights recomputed on every step,
    started from the row ``v0`` (zeros if not given)."""
    from bihns.linear_flow import _interval_weights
    t, c, w = F.times, F.coeffs, F.omegas
    V = np.zeros_like(c)
    if v0 is not None:
        V[0] = v0
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


@pytest.mark.parametrize("grid", ["linspace", "random"])
def test_duhamel_history_from_a_start_row_matches_per_step(grid):
    # the free flow of v0 rides on the same step phases as the forcing,
    # bit for bit, on the grids of the test above
    g = np.random.default_rng(14)
    t = (np.linspace(0.0, 0.013, 301) if grid == "linspace"
         else np.cumsum(np.concatenate(([0.0], g.uniform(1e-5, 1e-4, 300)))))
    w = np.concatenate(([0.0, 1.0, 20.0], navier_eigenvalues(12)))
    shape = (len(t), len(w))
    c = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    v0 = g.standard_normal(len(w)) + 1j * g.standard_normal(len(w))
    F = ForcingHistory(t, c, w)
    V = duhamel_history(F, v0)
    assert np.array_equal(V, _duhamel_per_step(F, v0))
    assert np.array_equal(V[0], v0)
    assert not np.array_equal(V, duhamel_history(F))


def test_duhamel_history_exact_on_full_blocks():
    # solver-sized blocks (64 x 256 complex, 256 KiB) are where numpy would
    # evaluate an operator on a temporary in place and round differently
    t = np.linspace(0.0, 0.01, 1001)
    w = navier_eigenvalues(256)
    g = np.random.default_rng(12)
    c = g.standard_normal((1001, 256)) + 1j * g.standard_normal((1001, 256))
    F = ForcingHistory(t, c, w)
    assert np.array_equal(duhamel_history(F), _duhamel_per_step(F))


@pytest.mark.parametrize("start", [False, True], ids=["no_v0", "v0"])
@pytest.mark.parametrize("steps", [1, _DUHAMEL_BLOCK, _DUHAMEL_BLOCK + 1])
def test_duhamel_history_block_edges_match_per_step(steps, start):
    # one step, one full block and a block plus one step: the row stepping
    # must start each block from the last row of the one before, bit for bit
    g = np.random.default_rng(steps)
    t = np.cumsum(np.concatenate(([0.0], g.uniform(1e-5, 1e-4, steps))))
    w = np.concatenate(([0.0, 1.0, 20.0], navier_eigenvalues(12)))
    shape = (len(t), len(w))
    c = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    v0 = (g.standard_normal(len(w)) + 1j * g.standard_normal(len(w))
          if start else None)
    F = ForcingHistory(t, c, w)
    V = duhamel_history(F, v0)
    assert V.shape == shape
    assert np.array_equal(V, _duhamel_per_step(F, v0))


def _duhamel_grid(kind, g):
    """The grids of the bit-exact tests above: ``uniform`` (one distinct
    step), ``linspace`` (several, from rounding), ``random``, and the block
    edges of one step, one block and a block plus one step."""
    if kind == "uniform":
        return np.arange(302) * 2.0 ** -14
    if kind == "linspace":
        return np.linspace(0.0, 0.013, 301)
    steps = {"random": 300, "one_step": 1, "one_block": _DUHAMEL_BLOCK,
             "block_plus_one": _DUHAMEL_BLOCK + 1}[kind]
    return np.cumsum(np.concatenate(([0.0], g.uniform(1e-5, 1e-4, steps))))


@pytest.mark.parametrize("weights", [False, True], ids=["own_weights", "weights"])
@pytest.mark.parametrize("start", [False, True], ids=["no_v0", "v0"])
@pytest.mark.parametrize("kind", ["uniform", "linspace", "random", "one_step",
                                  "one_block", "block_plus_one"])
def test_duhamel_history_in_place_matches_out_of_place(kind, start, weights):
    # written over its own forcing, into a separate buffer, or on weights
    # built once for the grid, the history is the out-of-place one bit for bit
    g = np.random.default_rng(21)
    t = _duhamel_grid(kind, g)
    w = np.concatenate(([0.0, 1.0, 20.0], navier_eigenvalues(12)))
    shape = (len(t), len(w))
    c = g.standard_normal(shape) + 1j * g.standard_normal(shape)
    v0 = g.standard_normal(len(w)) + 1j * g.standard_normal(len(w)) if start else None
    want = duhamel_history(ForcingHistory(t, c, w), v0)
    sw = step_weights(t, w) if weights else None
    if kind == "uniform":
        assert len(step_weights(t, w).steps) == 1
    if kind == "linspace":
        assert len(step_weights(t, w).steps) > 1
    F = ForcingHistory(t, c.copy(), w)
    got = duhamel_history(F, v0, sw, F.coeffs)
    assert got is F.coeffs and np.array_equal(got, want)
    out = np.full(shape, np.nan, dtype=complex)
    F = ForcingHistory(t, c.copy(), w)
    assert duhamel_history(F, v0, sw, out) is out and np.array_equal(out, want)
    assert np.array_equal(F.coeffs, c)


def test_duhamel_history_in_place_on_full_blocks():
    # the solver-sized case of the test above: 1001 x 256 in 16 blocks
    t = np.linspace(0.0, 0.01, 1001)
    w = navier_eigenvalues(256)
    g = np.random.default_rng(12)
    c = g.standard_normal((1001, 256)) + 1j * g.standard_normal((1001, 256))
    want = duhamel_history(ForcingHistory(t, c, w))
    F = ForcingHistory(t, c.copy(), w)
    assert np.array_equal(duhamel_history(F, None, step_weights(t, w), F.coeffs),
                          want)


@pytest.mark.parametrize("other", ["same_length", "shorter"])
def test_duhamel_history_rejects_weights_of_another_grid(other):
    # weights of another grid of the same length would run without an error
    # and give a wrong history; a shorter grid's would index past them
    t = np.linspace(0.0, 0.01, 2 * _DUHAMEL_BLOCK + 4)
    t_other = (np.linspace(0.0, 0.02, len(t)) if other == "same_length"
               else t[:_DUHAMEL_BLOCK])
    w = navier_eigenvalues(8)
    c = np.ones((len(t), len(w)), dtype=complex)
    F = ForcingHistory(t, c, w)
    with pytest.raises(ValueError, match="another time grid"):
        duhamel_history(F, None, step_weights(t_other, w))
    assert np.array_equal(duhamel_history(F, None, step_weights(t, w)),
                          duhamel_history(F))


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
