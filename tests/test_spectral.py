import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bihns.spectral import (BoundaryTrace, FourierState, TRACE_FREQ,
                            cosine_state, matmul_real, mixed_state,
                            odd_even_extend, reconstruct,
                            reconstruct_derivative, sine_coefficients,
                            sine_state, sobolev_norm, trace_sobolev_norm,
                            uniform_grid)

rng = np.random.default_rng(1234)


def random_mixed(N, scale=1.0):
    q = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    p = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    p0 = scale * complex(rng.standard_normal(), rng.standard_normal())
    return mixed_state(q, p, p0)


# ---------------------------------------------------------------------------
# state basics


def test_sine_state_rejects_cosine_part():
    with pytest.raises(ValueError):
        FourierState("sine", np.array([1.0]), np.array([1.0]))


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        sine_state(np.array([np.nan]))


# ---------------------------------------------------------------------------
# reconstruct


def test_reconstruct_single_sine_mode():
    st_ = sine_state(np.array([1.0]))
    assert reconstruct(st_, [0.5])[0] == pytest.approx(1.0, abs=1e-15)


def test_reconstruct_constant_mode():
    st_ = cosine_state(np.zeros(1), p0=1.0)
    x = rng.random(7)
    assert np.allclose(reconstruct(st_, x), 1.0, atol=1e-15)


def test_reconstruct_matches_naive_summation():
    state = random_mixed(24)
    x = np.linspace(0.05, 0.95, 17)
    naive = np.full(17, state.p0, dtype=np.complex128)
    for k in range(1, 25):
        naive += state.q[k - 1] * np.sin(k * np.pi * x)
        naive += state.p[k - 1] * np.cos(k * np.pi * x)
    assert np.max(np.abs(reconstruct(state, x) - naive)) < 1e-13


def test_reconstruct_derivative_all_phases():
    # d/dx cycles through four phases; check each against sympy closed forms
    import sympy as sp
    xs = sp.symbols("x")
    expr = 2 * sp.sin(sp.pi * xs) - sp.Rational(1, 3) * sp.cos(2 * sp.pi * xs)
    state = mixed_state([2.0, 0.0], [0.0, -1.0 / 3.0], 0.0)
    pts = np.array([0.15, 0.4, 0.73])
    for order in (1, 2, 3, 4):
        dex = sp.lambdify(xs, sp.diff(expr, xs, order), "numpy")
        got = reconstruct_derivative(state, pts, order=order)
        assert np.max(np.abs(got - dex(pts))) < 1e-10 * max(1.0, np.abs(dex(pts)).max())


# ---------------------------------------------------------------------------
# transforms


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_sine_roundtrip(N, seed):
    """sine_coefficients(reconstruct(state)) = state for band-limited input."""
    r = np.random.default_rng(seed)
    q = r.standard_normal(N) + 1j * r.standard_normal(N)
    state = sine_state(q)
    back = sine_coefficients(lambda x: reconstruct(state, x), N,
                             grid_points=8 * N + 1)
    assert np.max(np.abs(back.q - q)) < 1e-12 * max(1.0, np.abs(q).max())


def test_odd_even_extend_reconstructs():
    f = lambda x: np.exp(x) * (1.0 + 0.3j)
    errs = []
    x = np.linspace(0.1, 0.9, 33)
    target = f(x)
    for N in (16, 32, 64):
        fo, fe = odd_even_extend(f, N, grid_points=64 * N + 1)
        got = reconstruct(fo, x) + reconstruct(fe, x)
        errs.append(np.sqrt(np.mean(np.abs(got - target) ** 2)))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_odd_even_constant_mean_mode():
    # a constant only survives in the mean mode, which must carry the cell
    # average of the two-periodic extension (half the interval integral)
    fo, fe = odd_even_extend(lambda x: np.full(len(x), 3.0 + 0j), 8)
    assert fe.p0 == pytest.approx(1.5, abs=1e-12)
    assert np.max(np.abs(fe.p)) < 1e-12
    # the sine (Gibbs) part supplies the other half on the open interval
    x = np.linspace(0.2, 0.8, 5)
    errs = []
    for N in (64, 256):
        fo, fe = odd_even_extend(lambda x: np.full(len(x), 3.0 + 0j), N)
        got = reconstruct(fo, x) + reconstruct(fe, x)
        errs.append(np.max(np.abs(got - 3.0)))
    assert errs[1] < errs[0]


def test_uniform_grid_roundtrips_mixed_history():
    """Synthesis and analysis of a band-limited (T, N) history on the shared grid.

    The odd part comes back through twice the trapezoid weights, the even
    part and its mean through the weights themselves; the cached arrays are
    read-only and shared between calls.
    """
    T, N = 9, 24
    q = rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))
    p = rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))
    p0 = rng.standard_normal(T) + 1j * rng.standard_normal(T)
    x, w, S, C = uniform_grid(N, 2 * N)
    odd = matmul_real(q, S.T)
    even = matmul_real(p, C.T) + p0[:, None]
    assert np.allclose(odd[3], reconstruct(sine_state(q[3]), x), rtol=0, atol=1e-12)
    back = (2.0 * matmul_real(odd * w, S), 2.0 * matmul_real(even * w, C),
            (even * w).sum(axis=1))
    for got, want in zip(back, (q, p, p0)):
        assert np.max(np.abs(got - want)) < 1e-13 * np.abs(want).max()
    # the two coefficient conventions differ only by the factor 2
    assert np.array_equal(sine_coefficients(odd[0], N).q,
                          2.0 * odd_even_extend(odd[0], N)[0].q)
    assert uniform_grid(N, 2 * N)[2] is S
    for a in (x, w, S, C):
        with pytest.raises(ValueError):
            a[0] = 0.0


# ---------------------------------------------------------------------------
# norms


def test_parseval_on_extension_cell():
    """s=0 norm squared = L2 norm squared over the two-periodic cell (p0=0)."""
    state = random_mixed(32)
    state = mixed_state(state.q, state.p, 0.0)
    x = np.linspace(-1.0, 1.0, 16 * 32 + 1)
    k = np.arange(1, 33)
    vals = (np.sin(np.pi * np.outer(x, k)) @ state.q
            + np.cos(np.pi * np.outer(x, k)) @ state.p)
    h = x[1] - x[0]
    l2sq = h * (np.abs(vals[1:-1]) ** 2).sum() + 0.5 * h * (
        np.abs(vals[0]) ** 2 + np.abs(vals[-1]) ** 2)
    assert sobolev_norm(state, 0.0) ** 2 == pytest.approx(l2sq, rel=1e-8)


def test_sobolev_norm_single_mode_example():
    assert sobolev_norm(sine_state([1.0]), 0.0) == pytest.approx(1.0)


@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_sobolev_norm_monotone_in_s(s1, s2):
    state = random_mixed(16)
    lo, hi = sorted((s1, s2))
    assert sobolev_norm(state, lo) <= sobolev_norm(state, hi) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# boundary traces


def test_trace_series_evaluation():
    h = BoundaryTrace.from_series([0, 1], [0.5, -0.25])
    t = 0.37
    expect = 0.5 - 0.25 * np.exp(1j * TRACE_FREQ * t)
    assert abs(h(t) - expect) < 1e-14


def test_trace_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        BoundaryTrace.from_series([1, 1], [1.0, 2.0])


def test_trace_derivative_termwise():
    h = BoundaryTrace.from_series([-2, 3], [1.0 + 1j, 0.5])
    hp = h.derivative()
    t = np.linspace(0.0, 2.0 / np.pi ** 3, 11)
    expect = (1j * TRACE_FREQ * (-2) * (1.0 + 1j) * np.exp(-2j * TRACE_FREQ * t)
              + 1j * TRACE_FREQ * 3 * 0.5 * np.exp(3j * TRACE_FREQ * t))
    assert np.max(np.abs(hp(t) - expect)) < 1e-10


@given(st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_trace_norm_monotone_in_alpha(a1, a2):
    h = BoundaryTrace.from_series([1, 5, 17], [1.0, 0.5j, 0.25])
    lo, hi = sorted((a1, a2))
    assert trace_sobolev_norm(h, lo) <= trace_sobolev_norm(h, hi) * (1 + 1e-12)
