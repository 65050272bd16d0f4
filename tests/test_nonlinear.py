import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import bihns.linear_flow as lf
import bihns.nonlinear as nl
from bihns.boundary_ops import (dirichlet_lifts, lift_data,
                                navier_boundary_history, navier_lift_coeffs,
                                navier_lifts)
from bihns.cli import ConfigError, _build, run
from bihns.linear_flow import ClampedBasis, build_clamped_basis
from bihns.nonlinear import (ProblemSpec, SolutionRecord, _dealias_points,
                             _grid_forcing, _power, picard_dirichlet,
                             picard_navier)
from bihns.spectral import (BoundaryTrace, FourierState, gauss_grid,
                            gauss_nodes, reconstruct, sine_state,
                            sobolev_norm)

SRC = Path(__file__).resolve().parents[1] / "src"

rng = np.random.default_rng(2024)


# ---------------------------------------------------------------------------
# problem validation


def test_half_integer_s_rejected():
    with pytest.raises(ValueError, match="n\\+1/2"):
        ProblemSpec(family="navier", s=1.5)


def test_dirichlet_threshold_rejected():
    with pytest.raises(ValueError, match="10/7"):
        ProblemSpec(family="dirichlet", s=1.0)


def test_time_nodes_and_the_largest_indexable_grid():
    assert [nl._time_nodes(T, dt) for T, dt in
            ((1.0, 0.5), (1.0, 0.3), (1e-3, 1.0))] == [3, 5, 2]
    # one mode: 2^58 + 1 nodes of complex128 fit in np.intp bytes, and
    # 2^59 + 1 do not; nothing is allocated to check it
    assert np.iinfo(np.intp).max == 2 ** 63 - 1
    ProblemSpec(family="navier", N=1, T=2.0 ** 58, dt=1.0)
    with pytest.raises(ValueError, match="too large"):
        ProblemSpec(family="navier", N=1, T=2.0 ** 59, dt=1.0)


def test_navier_range():
    with pytest.raises(ValueError):
        ProblemSpec(family="navier", s=0.3)
    # only the H^s metric exists; any other metric is a config error
    for s in (0.3, 0.7):
        with pytest.raises(ConfigError, match="metric"):
            _build("solve", {"family": "navier", "s": s, "metric": "l4"})


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


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
@pytest.mark.parametrize("name", ["s", "p", "lam", "T", "dt", "tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameter_rejected(family, name, value):
    # a NaN passes every range comparison and an infinity passes some, so
    # the spec rejects both before any range check
    base = {"family": family, "s": 1.8, "p": 4.0}
    with pytest.raises(ValueError, match="must be finite"):
        ProblemSpec(**{**base, name: value})


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
@pytest.mark.parametrize("name", ["N", "max_iter", "K_clamped"])
@pytest.mark.parametrize("value", [2.5, 16.0, True, 0])
def test_count_that_is_not_an_integer_from_one_rejected(family, name, value):
    # a float count compares like a number, so a check by < 1 alone lets
    # max_iter = 2.5 run 2 steps and K_clamped = 4.5 solve, and N = 16.5
    # fail as a TypeError in the basis builder; a bool is an int to Python,
    # but no count
    base = {"family": family, "s": 1.8, "p": 4.0}
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        ProblemSpec(**base, **{name: value})
    assert getattr(ProblemSpec(**base, **{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("phi", [np.zeros(33, dtype=complex), 0.5, [0.0, 1.0]])
def test_datum_that_is_not_callable_rejected(phi):
    with pytest.raises(ValueError, match="phi must be a callable"):
        ProblemSpec(family="navier", s=1.0, N=32, phi=phi)


@pytest.mark.parametrize("family,unread", [("navier", "h3"), ("navier", "h4"),
                                           ("dirichlet", "h5"), ("dirichlet", "h6")])
def test_trace_the_family_does_not_read_rejected(family, unread):
    base = {"family": family, "s": 1.8, "p": 4.0}
    h = BoundaryTrace.from_series([0, 1], [0.1, -0.1])
    with pytest.raises(ValueError, match=f"reads only.*{unread} carries data"):
        ProblemSpec(**base, **{unread: h})
    # a zero trace carries no data, so it may be given for either family
    ProblemSpec(**base, **{unread: BoundaryTrace.zero()})
    assert ProblemSpec(**base, h1=h).hs[0] is h


# ---------------------------------------------------------------------------
# lifts of the hinged data


def _gamma(h, x):
    """The hinged lift h @ navier_lifts(x) of the data h = (h1, h2, h5, h6)."""
    return np.asarray(h, dtype=complex) @ navier_lifts(x)


def test_navier_lifts_corner_values():
    assert _gamma([1, 0, 0, 0], 0.0) == pytest.approx(1.0)
    assert _gamma([1, 0, 0, 0], np.array([0.5]))[0] == pytest.approx(0.5)  # 1-x
    assert _gamma([0, 0, 0, 6], 0.5) == pytest.approx(0.5 ** 3 - 0.5)      # x^3-x
    assert np.max(np.abs(_gamma([0, 0, 0, 0], np.linspace(0, 1, 9)))) == 0.0
    # differentiate the code: the four corner values, and no fourth derivative
    x = sp.symbols("x")
    h1, h2, h5, h6 = 0.3 - 1j, -0.7 + 0.2j, 1.9j, -2.4
    gamma = sp.expand(np.array([h1, h2, h5, h6]) @ navier_lifts(x))
    d2 = sp.diff(gamma, x, 2)
    for expr, at, val in ((gamma, 0, h1), (d2, 0, h5), (gamma, 1, h2), (d2, 1, h6)):
        assert abs(complex(expr.subs(x, at)) - val) < 1e-14
    assert sp.diff(gamma, x, 4) == 0


# ---------------------------------------------------------------------------
# nonlinearity


def _trapezoid_grid(M):
    """The M+1 nodes of the uniform grid of M intervals on [0, 1] and their
    trapezoid weights."""
    x = np.linspace(0.0, 1.0, M + 1)
    w = np.full(M + 1, 1.0 / M)
    w[[0, -1]] *= 0.5
    return x, w


def _trapezoid_projection(q, p, lam, M=8192, base=None):
    """2 int_0^1 lam |u|^(p-2) u sin(k pi x) dx, u = sum_k q_k sin(k pi x)
    (+ ``base`` on the grid), by the trapezoid rule on M intervals."""
    x = np.linspace(0.0, 1.0, M + 1)
    S = np.sin(np.pi * np.outer(x, np.arange(1, len(q) + 1)))
    u = S @ np.asarray(q, dtype=complex)
    if base is not None:
        u = u + base
    w = np.full(M + 1, 1.0 / M)
    w[[0, -1]] *= 0.5
    return 2.0 * (lam * np.abs(u) ** (p - 2.0) * u * w) @ S


def _projection(c, B, P, p, lam, vals=None, lift=None, dtype=np.float64):
    """P @ g for g = lam |u|^(p-2) u, u = c @ B (+ vals @ lift), through the
    kernel: the ``_fold`` of (B, P, lift) in ``dtype``, the kernel's i P @ g
    added to a zero buffer, and -1j times that, which is exact up to the
    sign of zero."""
    if vals is None:
        vals, lift = np.zeros((len(c), 0)), np.zeros((0, B.shape[1]))
    out = np.zeros(c.shape, dtype=np.complex128)
    _grid_forcing(c, vals, nl._fold(B, P, lift, dtype), p, lam, out)
    return -1j * out


def _sine_forcing(v, p, lam, vals=None, lift=None):
    """The hinged forcing of a (T, N) history: ``_projection`` with the
    sine basis and the trapezoid projection (twice the weights) of the
    solver's uniform grid, without the solver's end correction."""
    N = v.shape[1]
    M = nl._dealias_points(N, p)
    B, w = nl._hinged_basis(N, M).B, _trapezoid_grid(M)[1]
    return _projection(v, B, B * (2.0 * w), p, lam, vals, lift)


def _nonlin_row(q, p, lam):
    q = np.asarray(q, dtype=complex)
    return _sine_forcing(q[None, :], p, lam)[0]


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
def test_sine_forcing_rows_match_nonlinearity(p):
    # the stacked real transform of the history must agree row by row with
    # the trapezoid sum from the definition on the same padded grid
    N, T = 24, 7
    v = (rng.standard_normal((T, N)) + 1j * rng.standard_normal((T, N))) \
        / np.arange(1, N + 1) ** 2
    hist = _sine_forcing(v, p, 1.3)
    M = max(2, math.ceil(p / 2.0)) * N + 1
    for row, got in zip(v, hist):
        expect = _trapezoid_projection(row, p, 1.3, M)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _small_blocks(monkeypatch, M1, rows=2):
    """Make ``_grid_forcing`` walk ``rows`` time rows per block on M1 nodes."""
    monkeypatch.setattr(nl, "_BLOCK_BYTES", 16 * M1 * rows)


@pytest.mark.parametrize("T", [1, 7])
@pytest.mark.parametrize("with_base", [False, True])
@pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
def test_grid_forcing_sine_matches_trapezoid(p, with_base, T, monkeypatch):
    # N odd: M = 2N + 1 intervals for p = 3, 4 and 3N + 1 rounded up to
    # odd, 3N + 2, for p = 5; T = 7 rows walk blocks of 2, 2, 2, 1
    N = 13
    M = nl._dealias_points(N, p)
    assert M == (3 * N + 2 if p == 5.0 else 2 * N + 1)
    x = np.linspace(0.0, 1.0, M + 1)
    _small_blocks(monkeypatch, M + 1)
    g = np.random.default_rng(10)
    v = (g.standard_normal((T, N)) + 1j * g.standard_normal((T, N))) \
        / np.arange(1, N + 1)
    # time-dependent lift values, as the solver adds them: h(t_j) @ lifts
    vals = g.standard_normal((T, 4)) + 1j * g.standard_normal((T, 4))
    lift = navier_lifts(x)
    hist = _sine_forcing(v, p, -0.7, *((vals, lift) if with_base else ()))
    assert hist.shape == (T, N)
    for row, h, got in zip(v, vals, hist):
        expect = _trapezoid_projection(row, p, -0.7, M,
                                       base=h @ lift if with_base else None)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def _dense_forcing(c, B, P, p, lam, base=None):
    """P @ lam |u|^(p-2) u on all nodes, u = c @ B (+ base)."""
    u = c @ B if base is None else c @ B + base
    return (lam * np.abs(u) ** (p - 2.0) * u) @ P.T


def _bench_basis(family):
    """(N, p, basis) of the solvers at the bench sizes."""
    if family == "hinged":
        N, p = 256, 3.0
        return N, p, nl._hinged_basis(N, _dealias_points(N, p))
    N, K, p = 128, 48, 5.0
    return N, p, nl._clamped_basis(N, K, nl._gauss_points(K, p))


@pytest.mark.parametrize("grid", [4 * 24, 4 * 24 + 1, "gauss"])
@pytest.mark.parametrize("with_base", [False, True])
@pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
def test_grid_forcing_clamped_matches_dense(p, with_base, grid, monkeypatch):
    # the clamped eigenbasis on even node counts symmetric under x -> 1-x:
    # the 96 midpoints of 96 uniform intervals (no end node), the 98 ends of
    # 97 intervals (the trapezoid rule), and 98 Gauss-Legendre nodes, the
    # solver's kind of nodes
    K, T = 24, 7
    if grid == "gauss":
        y, w = np.polynomial.legendre.leggauss(4 * 24 + 2)
        x, w = 0.5 * (y + 1.0), 0.5 * w
    elif grid % 2:
        x, w = _trapezoid_grid(grid)
    else:
        x, w = (np.arange(grid) + 0.5) / grid, np.full(grid, 1.0 / grid)
    assert len(x) % 2 == 0
    phi = build_clamped_basis(K).evaluate(x)
    _small_blocks(monkeypatch, len(x), rows=3)
    g = np.random.default_rng(11)
    c = (g.standard_normal((T, K)) + 1j * g.standard_normal((T, K))) \
        / np.arange(1, K + 1) ** 2
    vals = g.standard_normal((T, 2)) + 1j * g.standard_normal((T, 2))
    lift = np.stack((1.0 - x, x ** 2 * (3.0 - 2.0 * x)))
    got = _projection(c, phi, phi * w, p, 1.3,
                      *((vals, lift) if with_base else ()))
    expect = _dense_forcing(c, phi, phi * w, p, 1.3,
                            vals @ lift if with_base else None)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("p", [3.0, 3.5, 4.0, 5.0, 5.5, 6.0, 7.0])
def test_solver_grids_have_even_node_counts(p):
    # an odd number of intervals hinged and an even number of Gauss nodes
    # clamped, so x = 1/2 is never a node, each at most one node past the
    # rule it rounds; the fold raises on an odd count
    for n in range(1, 257):
        M, m = nl._dealias_points(n, p), max(2, math.ceil(p / 2)) * n + 1
        K, k = nl._gauss_points(n, p), math.ceil((p + 1) * n / 2) + 16
        assert M % 2 == 1 and K % 2 == 0 and M - m in (0, 1) and K - k in (0, 1)
    x, w = _trapezoid_grid(48)
    B = build_clamped_basis(4).evaluate(x)
    for dtype in (np.float32, np.float64):
        with pytest.raises(ValueError, match="even node count"):
            nl._fold(B, B * w, dirichlet_lifts(x), dtype)


@pytest.mark.parametrize("family", ["hinged", "clamped"])
def test_grid_forcing_solver_sized_blocks(family):
    # the solvers' bases at the bench sizes, the hinged end correction
    # included, and the default block size: 450 rows walk blocks of 63 rows
    # on the 514 hinged nodes and of 204, 204 and 42 on the 160 clamped
    # ones, with all four lift rows
    N, p, basis = _bench_basis(family)
    B, P, lift = basis.B, basis.P, basis.L
    K, T = B.shape[0], 450
    assert T > 2 * (nl._BLOCK_BYTES // (16 * B.shape[1]))
    g = np.random.default_rng(13)
    c = (g.standard_normal((T, K)) + 1j * g.standard_normal((T, K))) \
        / np.arange(1, K + 1)
    vals = g.standard_normal((T, 4)) + 1j * g.standard_normal((T, 4))
    got = _projection(c, B, P, p, 1.3, vals, lift)
    expect = _dense_forcing(c, B, P, p, 1.3, vals @ lift)
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("family", ["hinged", "clamped"])
def test_grid_forcing_float32_within_its_rounding(family):
    # float32 blocks hold twice the rows; 300 rows walk three of them on the
    # hinged grid.  The error is float32 rounding: 3e-7 measured
    N, p, basis = _bench_basis(family)
    B, P, lift = basis.B, basis.P, basis.L
    K, T = B.shape[0], 300
    g = np.random.default_rng(14)
    c = (g.standard_normal((T, K)) + 1j * g.standard_normal((T, K))) \
        / np.arange(1, K + 1)
    vals = g.standard_normal((T, 4)) + 1j * g.standard_normal((T, 4))
    got = _projection(c, B, P, p, 1.3, vals, lift, np.float32)
    expect = _dense_forcing(c, B, P, p, 1.3, vals @ lift)
    assert got.dtype == np.complex128
    assert np.max(np.abs(got - expect)) <= 5e-6 * np.max(np.abs(expect))


@pytest.mark.parametrize("p,lam,big", [(5.0, 1e-200, 1e39), (5.0, 1e-200, 1e20),
                                        (3.0, 1.0, 1.4e19)])
def test_grid_forcing_float32_overflow_raises(p, lam, big):
    # 1e39 does not cast to float32 and 1e20 squares past its range; at
    # 1.4e19 the power stays finite (1.9e38) but its fold g(x) + g(1-x) does not
    N = 8
    M = _dealias_points(N, p)
    B, w = nl._hinged_basis(N, M).B, _trapezoid_grid(M)[1]
    v = np.full((3, N), 0.1 + 0.1j)
    v[1, 0] = big
    P = B * (2.0 * w)
    assert np.all(np.isfinite(_projection(v, B, P, p, lam)))
    with pytest.raises(OverflowError, match="blow-up"):
        _projection(v, B, P, p, lam, dtype=np.float32)


def test_grid_forcing_overflow_in_a_later_block(monkeypatch):
    N = 8
    M = nl._dealias_points(N, 5.0)
    _small_blocks(monkeypatch, M + 1)
    v = np.full((5, N), 0.1 + 0.1j)
    v[4, 0] = 1e80                  # only the third block of rows overflows
    assert np.all(np.isfinite(_sine_forcing(v[:4], 5.0, 1.0)))
    with pytest.raises(OverflowError, match="blow-up"):
        _sine_forcing(v, 5.0, 1.0)


def test_clamped_basis_parity_on_the_solver_grid():
    # the fold of _grid_forcing relies on phi_j(1 - x) = (-1)^(j+1) phi_j(x),
    # on the bench's 160 Gauss nodes, and on a projection with that parity
    basis = nl._clamped_basis(128, 48, nl._gauss_points(48, 5.0))
    x, phi, P = basis.x, basis.B, basis.P
    sign = np.where(np.arange(48) % 2 == 0, 1.0, -1.0)[:, None]
    assert len(x) == 160 and np.max(np.abs(x[::-1] - (1.0 - x))) <= 2 ** -53
    assert np.max(np.abs(phi[:, ::-1] - sign * phi)) < 1e-13
    assert np.max(np.abs(P[:, ::-1] - sign * P)) < 1e-15


def test_clamped_solve_evaluates_the_basis_once(monkeypatch):
    calls = []
    evaluate = ClampedBasis.evaluate

    def counted(self, *args, **kwargs):
        calls.append(args)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(ClampedBasis, "evaluate", counted)
    nl._clamped_basis.cache_clear()
    spec, rec = _clamped_record()
    assert len(calls) == 1 and rec.iterations > 0
    # the basis is built once per (N, K): a warm solve evaluates nothing
    _clamped_record()
    assert len(calls) == 1


def test_power_in_place_zero_and_overflow():
    # stacked real rows: the real parts over the imaginary parts; both
    # rules, integer and fractional p, in both working dtypes
    for p in (3.0, 3.5, 4.0, 5.0, 6.0, 7.0):
        for dtype, big in ((np.float64, 1e200), (np.float32, 1e30)):
            u = np.zeros((2, 5), dtype=dtype)
            assert _power(u, p, 1.0) is u and not np.any(u)
            with pytest.raises(OverflowError, match="blow-up"):
                _power(np.array([[big, 1.0], [big, 0.0]], dtype=dtype), p, 1.0)


def _power_rows(dtype, rows=6, cols=50):
    """Stacked (re; im) rows with moduli spread over six decades."""
    g = np.random.default_rng(15)
    scale = 10.0 ** g.uniform(-3, 3, (1, cols))
    return (g.standard_normal((2 * rows, cols)) * scale).astype(dtype)


@pytest.mark.parametrize("p", [3.0, 3.5, 4.0, 6.0])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_power_matches_the_pow_rule_bit_for_bit(p, dtype):
    # p = 3, 4, 6: s^m sqrt(s)^b are the paths numpy's ** takes for the
    # exponents 0.5, 1 and 2; p = 3.5 still takes **
    u = _power_rows(dtype)
    r = len(u) // 2
    fac = u[:r] ** 2 + u[r:] ** 2
    fac = fac ** (0.5 * (p - 2.0)) * -0.75
    want = np.concatenate((u[:r] * fac, u[r:] * fac))
    assert want.dtype == dtype
    assert np.array_equal(_power(u, p, -0.75), want)


@pytest.mark.parametrize("p", [5.0, 7.0])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_power_integer_rule_within_4_ulp(p, dtype):
    # s sqrt(s) and s^2 sqrt(s) against lam s^((p-2)/2) u in 40 digits, on
    # the rounded s = re^2 + im^2 that the pow rule reads as well
    u = _power_rows(dtype)
    r = len(u) // 2
    s = u[:r] ** 2 + u[r:] ** 2
    got = _power(u.copy(), p, -0.75)
    worst = 0.0
    with mpmath.workdps(40):
        for i, j in np.ndindex(r, u.shape[1]):
            fac = -0.75 * mpmath.mpf(float(s[i, j])) ** ((p - 2) / 2)
            for row in (i, r + i):
                exact = fac * mpmath.mpf(float(u[row, j]))
                ulp = np.spacing(dtype(abs(float(exact))))
                err = abs(mpmath.mpf(float(got[row, j])) - exact) / ulp
                worst = max(worst, float(err))
    assert worst <= 4.0


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


def test_free_flow_phases_on_the_recurrence():
    # lam = 0 and zero boundary data: q[j] = q[0] e^{i omega t_j} against
    # 40-digit phases of the stored omega and t_j.  The recurrence sums the
    # rounding of omega dt over the steps: on mode 256 that is 5.6e-9 at
    # t = T and 2.4e-8 at worst on the way.  A table exp(i omega t_j)
    # rounds omega t_j itself (up to 4e9 rad): 8.7e-8 at T, 2.4e-7 at worst
    N, ks = 256, np.array([1, 64, 128, 256])
    q0 = np.zeros(N, dtype=complex)
    q0[ks - 1] = [1.0, 0.5j, 0.25, 0.1 - 0.1j]
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=0.01, N=N, dt=1e-5,
                       phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    omegas = lf.navier_eigenvalues(N)
    with mpmath.workdps(40):
        for k in ks:
            w = mpmath.mpf(float(omegas[k - 1]))
            exact = np.array([complex(mpmath.expj(w * mpmath.mpf(float(t))))
                              for t in rec.times])
            err = np.abs(rec.c[:, k - 1] - rec.c[0, k - 1] * exact)
            assert err[-1] <= 2e-8 * abs(rec.c[0, k - 1])
            assert err.max() <= 5e-8 * abs(rec.c[0, k - 1])


def test_picard_navier_nonlinear_galerkin_oracle():
    """lam != 0 against an independent integration of the Galerkin system.

    In the interaction picture c = e^{i omega t} w the hinged modes solve
    w' = i e^{-i omega t} F(e^{i omega t} w), F the forcing of one row of the
    solver's grid, which scipy's DOP853 integrates with its own steps.  So
    the time rule, the Duhamel history and the Picard loop are checked; the
    forcing kernel is shared, and ``_grid_forcing``'s own tests check it.
    """
    N, p, lam, T = 8, 3.0, 5.0, 0.01
    q0 = np.zeros(N, dtype=complex)
    q0[:3] = [1.0, 0.5j, 0.25]
    basis = nl._hinged_basis(N, _dealias_points(N, p))
    omegas = lf.navier_eigenvalues(N)

    def rhs(t, y):
        rot = np.exp(1j * omegas * t)
        f = 1j * _projection((rot * (y[:N] + 1j * y[N:]))[None], basis.B,
                             basis.P, p, lam)[0] / rot
        return np.concatenate((f.real, f.imag))

    ref = solve_ivp(rhs, (0.0, T), np.concatenate((q0.real, q0.imag)),
                    method="DOP853", rtol=1e-10, atol=1e-12, dense_output=True)
    st0 = sine_state(q0)
    errs = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        spec = ProblemSpec(family="navier", s=1.0, p=p, lam=lam, T=T, N=N,
                           dt=dt, tol=1e-13, phi=lambda x: reconstruct(st0, x))
        rec = picard_navier(spec)
        assert rec.tstar == T and rec.iterations > 0
        y = ref.sol(rec.times)
        exact = (y[:N] + 1j * y[N:]).T * np.exp(1j * np.outer(rec.times, omegas))
        errs.append(np.abs(rec.c - exact).max())
    assert errs[0] <= 1e-3 and errs[1] <= 2.5e-4
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((1.9 <= orders) & (orders <= 2.1))


def _minus_h0(h):
    """The series h(t) - h(0) (h has no n = 0 term)."""
    return BoundaryTrace.from_series(np.concatenate((h.n, [0])),
                                     np.concatenate((h.a, [-h.a.sum()])))


@pytest.mark.parametrize("N", [32, 64])
def test_picard_navier_four_data_linear_oracle(N):
    # lam = 0 with all four hinged data: v, the sine coefficients of
    # u - gamma (gamma the lift at h(0)), is the exact free flow of
    # v(0) - gamma plus the closed-form boundary convolution of h - h(0), and
    # the record's c is v - (h(t) - h(0)) @ a; the lift route errs only by
    # its Duhamel quadrature of h'
    g = np.random.default_rng(41)
    hs = [BoundaryTrace.from_series([-1, 1, 2], 0.1 * (g.standard_normal(3)
                                                       + 1j * g.standard_normal(3)))
          for _ in range(4)]
    q0 = np.zeros(N, dtype=complex)
    q0[:3] = [0.3 - 0.1j, 0.2j, -0.1]
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=4e-3, N=N, dt=1e-5,
                       phi=lambda x: reconstruct(st0, x),
                       h1=hs[0], h2=hs[1], h5=hs[2], h6=hs[3])
    rec = picard_navier(spec)
    kp = np.arange(1, N + 1) * np.pi
    ref = np.where(np.arange(1, N + 1) % 2 == 0, -1.0, 1.0)   # (-1)^(k+1)
    h0 = [complex(h(0.0)) for h in hs]
    gamma = (2.0 * (h0[0] + ref * h0[1]) / kp
             - 2.0 * (h0[2] + ref * h0[3]) / kp ** 3)
    want = ((q0 - gamma) * np.exp(1j * np.outer(rec.times, kp ** 4))
            + navier_boundary_history(*map(_minus_h0, hs), rec.times, N)
            - np.stack([h(rec.times) - h(0.0) for h in hs], axis=1)
            @ navier_lift_coeffs(N))
    assert np.max(np.abs(rec.c - want)) <= 1e-6


def _assert_traces_are_the_data(family):
    # the lifts carry the data and every mode vanishes at both ends, so the
    # reported endpoint values are the data, bit for bit, with h1(0) != 0
    h1 = BoundaryTrace.from_series([-1, 0, 1], [-0.25, 0.75, -0.25j])
    h2 = BoundaryTrace.from_series([0, 2], [0.1j, -0.3])
    hinged = family == "navier"
    spec = ProblemSpec(family=family, s=1.0 if hinged else 1.8,
                       p=3.0 if hinged else 4.0, lam=1.0, T=0.002, N=32,
                       dt=1e-4, K_clamped=12, h1=h1, h2=h2,
                       phi=lambda x: 0.2 * x * (1.0 - x) + 0j)
    rec = _solve(spec)
    assert rec.iterations > 0
    assert np.array_equal(rec.traces["u0"], spec.h1(rec.times))
    assert np.array_equal(rec.traces["u1"], spec.h2(rec.times))
    # and u itself attains them at the ends, to the rounding of B_k(0), B_k(1)
    ends = np.array([rec.evaluate(j, [0.0, 1.0]) for j in range(len(rec.times))])
    assert np.max(np.abs(ends - np.stack((spec.h1(rec.times),
                                          spec.h2(rec.times)), axis=1))) < 1e-12


def test_picard_navier_boundary_trace_reported():
    _assert_traces_are_the_data("navier")


def test_picard_dirichlet_boundary_trace_reported():
    _assert_traces_are_the_data("dirichlet")


def _hinged_norms_over_N(lam, compatible):
    """max_t of the record norm of c and of v = u - gamma(h(0)), the hinged
    ``states`` layout, in H^1 for N = 128, 256, 512 on data with
    h1(0) = 0.25 - 0.006i.
    ``compatible`` adds gamma(h(0)) to the sine datum phi, so u(0) meets the
    hinged data at t = 0; without it u(0, 0) = 0 != h1(0)."""
    n = [-2, -1, 0, 1, 2]
    h1 = BoundaryTrace.from_series(n, [-0.009 + 0.05j, -0.005 + 0.173j,
                                       0.474 - 0.195j, -0.12 - 0.003j,
                                       -0.09 - 0.031j])
    h5 = BoundaryTrace.from_series(n, [-0.128 - 0.11j, 0.138 + 0.039j,
                                       0.193 + 0.044j, -0.082 - 0.008j,
                                       -0.072 + 0.016j])
    st0 = sine_state([0.126 + 0.803j, -0.147 + 0.451j, 0.156 - 0.158j])
    h0 = np.array([h1(0.0), 0.0, h5(0.0), 0.0])
    phi = ((lambda x: reconstruct(st0, x) + h0 @ navier_lifts(x)) if compatible
           else (lambda x: reconstruct(st0, x)))
    out = []
    for N in (128, 256, 512):
        rec = picard_navier(ProblemSpec(family="navier", s=1.0, lam=lam, T=0.01,
                                        dt=1e-5, N=N, h1=h1, h5=h5, phi=phi))
        v = rec.c + (rec.vals - rec.vals[0]) @ rec.basis.a
        w = rec.basis.weights(1.0)
        out.append((rec.norms(1.0).max(), np.sqrt((np.abs(v) ** 2 @ w).max())))
    return np.array(out).T


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_hinged_norm_of_compatible_data_is_flat_in_N(lam):
    # ptp / min measured 3.2e-13 at lam = 0 and 2.0e-12 at lam = 1: the
    # projection P corrects the trapezoid end term of the datum (gamma) and
    # of the forcing, F(u) != 0 at the ends, alike (3.1e-9 at lam = 1
    # without the forcing's correction); the v-norm grows like N^(1/2),
    # 1.9x here
    c_norm, v_norm = _hinged_norms_over_N(lam, compatible=True)
    assert np.ptp(c_norm) <= 1e-11 * c_norm.min()
    assert v_norm[-1] >= 1.5 * v_norm[0]


def test_hinged_norm_of_incompatible_data_grows_in_N():
    # data as given: u(0, 0) = 0 != h1(0) puts a 1/k tail into c(0), and its
    # H^1 norm grows (1.63x measured); the v-norm grows on both data sets
    c_norm, _ = _hinged_norms_over_N(0.0, compatible=False)
    assert c_norm[-1] >= 1.4 * c_norm[0]


def _datum_coefficients(spec):
    """c_phi, the projection of the datum onto the modes, of a lam = 0 solve:
    c(0) = c_phi - h(0) @ a."""
    rec = _solve(spec)
    return rec, rec.c[0] + rec.vals[0] @ rec.basis.a


@pytest.mark.parametrize("N,bound", [(32, 8.1e-7), (64, 2.2e-7), (128, 5.6e-8),
                                     (256, 1.5e-8)])
def test_hinged_datum_with_end_values_meets_its_closed_form(N, bound):
    # three sine modes plus gamma(h0) with phi(0) and phi(1) != 0, and data
    # with h1(0) != phi(0), so the end values must come from phi; relative
    # H^1 errors of 4.0e-7, 1.07e-7, 2.8e-8 and 7.0e-9 measured
    st0 = sine_state([0.126 + 0.803j, -0.147 + 0.451j, 0.156 - 0.158j])
    h0 = np.array([0.474 - 0.195j, -0.3 + 0.12j, 0.193 + 0.044j, -0.082 - 0.008j])
    spec = ProblemSpec(family="navier", s=1.0, lam=0.0, T=1e-4, dt=1e-4, N=N,
                       h1=BoundaryTrace.from_series([0], [0.1]),
                       phi=lambda x: reconstruct(st0, x) + _gamma(h0, x))
    rec, c_phi = _datum_coefficients(spec)
    exact = h0 @ navier_lift_coeffs(N)
    exact[:3] += st0.q
    w = rec.basis.weights(1.0)
    err = np.sqrt((np.abs(c_phi - exact) ** 2 @ w) / (np.abs(exact) ** 2 @ w))
    assert err <= bound


def _relative_distance(rec, ref, s):
    """max_t |c - c_ref|_s / max_t |c_ref|_s in the Picard weights of ``rec``."""
    w = rec.basis.weights(s)
    return float(np.sqrt(nl._hs_sq(rec.c - ref.c, w).max()
                         / nl._hs_sq(ref.c, w).max()))


@pytest.mark.parametrize("p,measured", [(3.0, 2.7e-10), (5.0, 3.5e-11)])
def test_hinged_solve_meets_its_fine_grid_solve(p, measured):
    # the incompatible data of _hinged_norms_over_N, F(u) != 0 at the ends,
    # at N = 64 against the same solve on 8N + 1 intervals (an even node
    # count, as the fold needs): 2.71e-10 and 3.50e-11 measured.  The
    # forcing's end correction leaves the O(h^4) term; without it the
    # trapezoid rule's O(k pi F(end) h^2) term gave 4.3e-8 (p = 3) and
    # 6.8e-9 (p = 5)
    n = [-2, -1, 0, 1, 2]
    h1 = BoundaryTrace.from_series(n, [-0.009 + 0.05j, -0.005 + 0.173j,
                                       0.474 - 0.195j, -0.12 - 0.003j,
                                       -0.09 - 0.031j])
    h5 = BoundaryTrace.from_series(n, [-0.128 - 0.11j, 0.138 + 0.039j,
                                       0.193 + 0.044j, -0.082 - 0.008j,
                                       -0.072 + 0.016j])
    st0 = sine_state([0.126 + 0.803j, -0.147 + 0.451j, 0.156 - 0.158j])
    spec = ProblemSpec(family="navier", s=1.0, p=p, lam=1.0, T=0.01, dt=1e-4,
                       N=64, tol=1e-12, max_iter=40, h1=h1, h5=h5,
                       phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    ref = nl._picard(spec, nl._hinged_basis(spec.N, 8 * spec.N + 1))
    assert _relative_distance(rec, ref, spec.s) <= 2 * measured


def test_clamped_datum_zero_at_the_ends_is_its_grid_projection():
    # the clamped datum projects by plain Gauss quadrature on the basis' own
    # nodes, ceil((p + 1) K / 2) + 16 of them, with no end rule: bit-equal
    # to (B w) @ phi(x) built here from leggauss, as two real products
    N, K = 16, 8
    phi = lambda x: x ** 2 * (1.0 - x) ** 2 * ((2.0 + 1j) - 0.7j * x)
    rec, _ = _datum_coefficients(ProblemSpec(family="dirichlet", s=2.0, p=5.0,
                                             lam=0.0, T=1e-4, dt=1e-4, N=N,
                                             K_clamped=K, phi=phi))
    y, w = np.polynomial.legendre.leggauss(40)
    x, w = 0.5 * (y + 1.0), 0.5 * w
    assert np.array_equal(rec.basis.x, x)
    P, f = build_clamped_basis(K).evaluate(x) * w, phi(x)
    assert np.array_equal(rec.c[0], P @ f.real + 1j * (P @ f.imag))


# ---------------------------------------------------------------------------
# clamped pipeline


@pytest.mark.parametrize("p", [3.0, 5.0, 7.0])
@pytest.mark.parametrize("K", [1, 2, 4, 8, 16, 32, 48, 128, 256])
def test_clamped_gauss_gram_is_the_identity(K, p):
    # B P^T on the solver's ceil((p + 1) K / 2) + 16 Gauss nodes: 6.5e-14 at
    # most measured; the trapezoid rule on 4 max(N, K) intervals left
    # 2.4e-8 at K = 48
    basis = nl._clamped_basis(K, K, nl._gauss_points(K, p))
    assert np.abs(basis.B @ basis.P.T - np.eye(K)).max() <= 1e-13


@pytest.mark.parametrize("p,bound", [(4.0, 1e-8), (5.0, 1e-10)])
def test_clamped_gauss_forcing_on_rough_rows(p, bound):
    # three rows with |c_k| ~ k^-2 at K = 48, about the roughest decay that
    # s > 10/7 admits: the forcing on the solver's nodes sits 1.3e-10
    # (p = 4) and 2.2e-12 (p = 5) from the one on 16 K nodes; on
    # ceil(p K / 2) + 16 nodes it sat 5.0e-8 and 4.5e-10
    K = 48
    g = np.random.default_rng(30)
    c = (g.standard_normal((3, K)) + 1j * g.standard_normal((3, K))) \
        / np.arange(1, K + 1) ** 2
    forcing = [_projection(c, b.B, b.P, p, 1.0) for b in (
        nl._clamped_basis(K, K, nl._gauss_points(K, p)),
        nl._clamped_basis(K, K, 16 * K))]
    err = np.abs(forcing[0] - forcing[1]).max() / np.abs(forcing[1]).max()
    assert err <= bound


@pytest.mark.parametrize("p,s", [(3.5, 1.8), (5.0, 2.0), (7.0, 2.0)])
def test_clamped_rough_solve_meets_its_1024_node_solve(p, s):
    # 48 modes with |c_j| ~ j^-2 and four boundary series up to n = 3: the
    # solve on its own nodes sits 3.1e-12 (p = 3.5, where |u|^(p-2) is not
    # smooth at zeros of u), 2.4e-13 and 2.3e-13 from the same solve on 1024
    # Gauss nodes; on the trapezoid grid of 513 nodes it sat 3.2e-6 to 3.6e-6
    K = 48
    g = np.random.default_rng(29)
    c = (g.standard_normal(K) + 1j * g.standard_normal(K)) / np.arange(1, K + 1) ** 2
    modes = build_clamped_basis(K).evaluate
    hs = {key: BoundaryTrace.from_series([0, 1, 2, 3], 0.1 * (
        g.standard_normal(4) + 1j * g.standard_normal(4)))
        for key in ("h1", "h2", "h3", "h4")}
    spec = ProblemSpec(family="dirichlet", s=s, p=p, lam=1.0, T=1e-3, dt=1e-5,
                       tol=1e-10, N=128, K_clamped=K,
                       phi=lambda x: c @ modes(x), **hs)
    rec = picard_dirichlet(spec)
    ref = nl._picard(spec, nl._clamped_basis(spec.N, K, 1024))
    assert rec.iterations == ref.iterations
    assert _relative_distance(rec, ref, s) <= 1e-10


@pytest.mark.parametrize("phi,match", [
    (lambda x: np.zeros(len(x) + 1), "grid nodes"),
    (lambda x: np.where(x > 0.5, np.nan, 0.0), "non-finite"),
], ids=["wrong_shape", "non_finite"])
def test_clamped_datum_is_checked_on_its_nodes(phi, match):
    # the datum is read on the basis' Gauss nodes alone, and checked there
    # when the problem is built, before any solve
    with pytest.raises(ValueError, match=match):
        ProblemSpec(family="dirichlet", s=2.0, p=5.0, N=16, K_clamped=8, phi=phi)


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


def test_picard_dirichlet_tstar_reaches_T_past_one():
    spec = ProblemSpec(family="dirichlet", s=1.8, p=4.0, lam=0.0, T=5.0, N=8,
                       dt=0.05, K_clamped=4)
    rec = picard_dirichlet(spec)
    assert rec.tstar == spec.T == 5.0 and rec.times[-1] == 5.0


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
    # exact eigen-flow.  Read natively the error does not depend on N (1.52e-6
    # at both, set by K = 32); the old mixed-series record truncated at O(N^-3)
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
    assert max(errs) <= 2e-6


def test_picard_dirichlet_native_accuracy_at_bench_size():
    # the clamped bench solve's size and datum at lam = 0, read natively on
    # [0.1, 0.9]: 9.46e-8 measured, against 1.40e-6 for the mixed record
    amp = 3.0 + 1.0j
    datum = lambda x: amp * x ** 2 * (1.0 - x) ** 2 + 0j
    spec = ProblemSpec(family="dirichlet", s=2.0, p=5.0, lam=0.0, T=2e-3,
                       dt=4e-6, N=128, K_clamped=48, phi=datum)
    rec = picard_dirichlet(spec)
    x = np.linspace(0.1, 0.9, 81)
    got = np.array([rec.evaluate(j, x) for j in range(len(rec.times))])
    exact = _exact_clamped_flow(datum, rec.times, x)
    assert np.abs(got - exact).max() <= 1.5e-7 * np.abs(exact).max()


def _ls_order(dts, errs):
    """Least-squares slope of log err against log dt."""
    return float(np.polyfit(np.log(dts), np.log(errs), 1)[0])


def _plane_wave(family, A, lam, p):
    """Traces, datum and solution of u = A e^{i(kappa x + nu t)}: with
    nu = pi^4 (lattice index 1) and kappa^4 = nu - lam |A|^(p-2) it solves the
    equation exactly, and every trace is a one-term series.  The derivative
    traces are u_xx = -kappa^2 u (hinged) or u_x = i kappa u (clamped)."""
    nu = np.pi ** 4
    kappa = (nu - lam * abs(A) ** (p - 2)) ** 0.25
    h1 = np.array([A + 0j])
    h2 = np.exp(1j * kappa) * h1
    d = -kappa ** 2 if family == "navier" else 1j * kappa
    hs = {key: BoundaryTrace.from_series([1], a) for key, a in
          zip(nl.TRACES[family], (h1, h2, d * h1, d * h2))}
    return dict(phi=lambda y: A * np.exp(1j * kappa * y), **hs), \
        lambda t, x: A * np.exp(1j * (kappa * x + nu * t))


def _plane_wave_error(family, A, lam, p, **kw):
    """Max over the time nodes and 201 x of |u_rec - u| / |A|."""
    data, exact = _plane_wave(family, A, lam, p)
    solve = picard_navier if family == "navier" else picard_dirichlet
    rec = solve(ProblemSpec(family=family, p=p, lam=lam, T=0.01, N=64,
                            tol=1e-12, max_iter=40, **data, **kw))
    x = np.linspace(0.0, 1.0, 201)
    return max(np.abs(rec.evaluate(j, x) - exact(t, x)).max()
               for j, t in enumerate(rec.times)) / abs(A)


@pytest.mark.parametrize("lam,A,p,s,bound", [
    (0.0, 1.0, 5.0, 2.0, 3e-7), (20.0, 1.0, 5.0, 2.0, 3e-7),
    (5.0, 2.0, 3.5, 1.8, 3.5e-7), (5.0, 2.0, 5.0, 2.0, 2e-7),
], ids=["0.0", "20.0", "A2-p3.5", "A2-p5"])
def test_picard_dirichlet_plane_wave_second_order(lam, A, p, s, bound):
    # at |A| = 1 the potential lam |u|^(p-2) is lam whatever p; at |A| = 2
    # it sees p (p = 3 is not admissible: clamped s > 10/7 needs
    # floor(s) < p - 2).  Measured relative max errors over dt = 2e-4 ...
    # 2.5e-5: 1.37e-5 ... 2.15e-7 at lam = 0, 9.38e-6 ... 1.49e-7 at
    # lam = 20, 1.09e-5 ... 1.73e-7 (p = 3.5) and 6.14e-6 ... 9.93e-8 (p = 5)
    # at A = 2, lam = 5
    dts = [2e-4, 1e-4, 5e-5, 2.5e-5]
    errs = [_plane_wave_error("dirichlet", A, lam, p, s=s, dt=dt,
                              K_clamped=32) for dt in dts]
    assert 1.9 <= _ls_order(dts, errs) <= 2.1
    assert errs[-1] <= bound


@pytest.mark.parametrize("p,measured", [(3.0, 1.82e-6), (5.0, 2.79e-7)])
def test_picard_navier_plane_wave_sees_p(p, measured):
    # the hinged twin at A = 2, so the potential 5 * 2^(p-2) sees p.  No
    # order gate: the hinged datum projection leaves a space floor of
    # 1.93e-6 at N = 64 even at lam = 0, A = 1, already at t = 0.  Without
    # the forcing's end correction in ``Basis.P`` the errors were 2.1e-6 and
    # 3.78e-6, so the p = 5 bound sees the end term come back
    err = _plane_wave_error("navier", 2.0, 5.0, p, s=1.0, dt=5e-5)
    assert err <= 2 * measured


def _mass_drift(rec, weight):
    """max_t |M(t) - M(0)| / M(0) with M = weight sum_k |c_k|^2."""
    mass = weight * np.sum(np.abs(rec.c) ** 2, axis=1)
    return float(np.abs(mass - mass[0]).max() / mass[0])


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
def test_mass_drift_second_order_at_nonzero_lam(family):
    # zero boundary data conserve the L2 mass; the record's c alone gives it,
    # half the sum of |c_k|^2 on the sine modes, the sum on the orthonormal
    # clamped ones.  Measured drifts at the smallest dt: 1.11e-8 hinged,
    # 2.75e-11 clamped (least-squares slopes 1.986 and 2.032; one pairwise
    # clamped order is 1.88, so the gate is on the slope)
    if family == "navier":
        st = sine_state(np.array([1.0, 0.5j, 0.25]))
        base = dict(family="navier", N=16, s=1.0, p=3.0, T=0.01,
                    phi=lambda x: reconstruct(st, x))
        dts, weight, measured = [1e-4 / 2 ** k for k in range(5)], 0.5, 1.11e-8
    else:
        base = dict(family="dirichlet", N=32, K_clamped=24, s=2.0, p=5.0,
                    T=2e-3, phi=lambda x: (3.0 + 1j) * x ** 2 * (1.0 - x) ** 2)
        dts, weight, measured = [4e-5 / 2 ** k for k in range(4)], 1.0, 2.75e-11
    solve = picard_navier if family == "navier" else picard_dirichlet
    drifts = [_mass_drift(solve(ProblemSpec(lam=5.0, dt=dt, tol=1e-13, **base)),
                          weight) for dt in dts]
    assert 1.9 <= _ls_order(dts, drifts) <= 2.1
    assert measured / 2 <= drifts[-1] <= 2 * measured


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
def test_picard_applies_the_map_once_per_iteration(make, monkeypatch):
    # one Duhamel pass gives the start iterate lin, and one more each step
    calls = []
    duhamel_history = lf.duhamel_history

    def counted(F, *args, **kwargs):
        calls.append(F)
        return duhamel_history(F, *args, **kwargs)

    monkeypatch.setattr(lf, "duhamel_history", counted)
    spec, rec = make()
    assert spec.lam != 0 and rec.tstar == spec.T and rec.iterations > 0
    assert len(calls) == rec.iterations + 1
    assert 0 < rec.residual < spec.tol


@pytest.mark.parametrize("make", [_hinged_record, _clamped_record],
                         ids=["hinged", "clamped"])
def test_picard_step_is_lin_plus_i_duhamel_of_the_forcing(make, monkeypatch):
    # a step is one Duhamel pass from the datum's start row over
    # i F(c) - h' @ a; the recurrence is linear in its start row and its
    # forcing, so that is lin + i Duhamel(F(c)), lin the pass with F = 0.
    # Each step's iterate c and its forcing's dtype are recorded, and the
    # output of every pass, the start pass that gives lin first
    steps, passes = [], []
    grid_forcing, duhamel_history = nl._grid_forcing, lf.duhamel_history

    def forcing(*args):
        steps.append((args[0].copy(), args[2][0].dtype))
        return grid_forcing(*args)

    def history(*args, **kwargs):
        passes.append(duhamel_history(*args, **kwargs).copy())
        return passes[-1]

    monkeypatch.setattr(nl, "_grid_forcing", forcing)
    monkeypatch.setattr(lf, "duhamel_history", history)
    spec, rec = make()
    monkeypatch.undo()
    basis, times = rec.basis, rec.times
    assert rec.tstar == spec.T and len(steps) == rec.iterations
    assert len(passes) == rec.iterations + 1
    assert {dtype.name for _, dtype in steps} == {"float32", "float64"}
    weights = lf.step_weights(times, basis.omegas)
    vals, slopes = lift_data(spec.hs, times)
    assert np.array_equal(vals, rec.vals)
    lin = duhamel_history(
        lf.ForcingHistory(times, slopes @ -basis.a, basis.omegas),
        basis.P @ spec.phi(basis.x) - vals[0] @ basis.a, weights)
    assert np.abs(passes[0] - lin).max() <= 1e-13 * np.abs(lin).max()
    for (c, dtype), got in zip(steps, passes[1:]):
        iF = grid_forcing(c, vals, basis.folds[dtype.type], spec.p, spec.lam,
                          np.zeros_like(c))
        want = lin + duhamel_history(
            lf.ForcingHistory(times, iF, basis.omegas), weights=weights)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("make", [_hinged_record, _clamped_record],
                         ids=["hinged", "clamped"])
def test_record_norms_equal_per_state_norms(make):
    # each time row's norm weighs its c like the Picard distance does
    spec, rec = make()
    xi = (np.arange(1, spec.N + 1) * np.pi if spec.family == "navier"
          else build_clamped_basis(spec.K_clamped).mu)
    for s in (spec.s, 0.0):
        w = (1.0 + xi ** 2) ** s
        assert np.array_equal(rec.basis.weights(s), w)
        want = np.array([np.sqrt(np.sum(w * np.abs(c) ** 2)) for c in rec.c])
        assert np.max(np.abs(rec.norms(s) - want)) <= 1e-14 * want.max()


def test_record_norms_of_zero_data_hinged_solve_are_sobolev_norms():
    # with no boundary data the hinged c is the sine series of u itself
    q0 = np.zeros(32, dtype=complex)
    q0[:3] = [0.3, 0.2j, -0.1]
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, lam=1.0, T=0.005, N=32,
                       dt=1e-4, phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    for s in (1.0, 0.0):
        want = np.array([sobolev_norm(st, s) for st in rec.states])
        assert np.max(np.abs(rec.norms(s) - want)) <= 1e-14 * want.max()


@pytest.mark.parametrize("make", [_hinged_record, _clamped_record],
                         ids=["hinged", "clamped"])
def test_record_states_are_read_only_rows(make):
    # rows of c, vals and states are read-only; evaluate sums lifts and modes
    spec, rec = make()
    j = len(rec.times) // 2
    for a in (rec.c[j], rec.vals[j], rec.states[j].q):
        with pytest.raises(ValueError):
            a[0] = 1.0
    st = rec.states[j]
    assert isinstance(st, FourierState)
    if spec.family == "navier":
        assert np.all(st.p == 0) and st.p0 == 0 and np.array_equal(
            st.q, rec.c[j] + (rec.vals[j] - rec.vals[0]) @ rec.basis.a)
    else:
        assert st.N == spec.N
    x = np.linspace(0.0, 1.0, 9)
    lifts = (navier_lifts if spec.family == "navier" else dirichlet_lifts)(x)
    modes = (np.sin(np.pi * np.outer(np.arange(1, spec.N + 1), x))
             if spec.family == "navier"
             else build_clamped_basis(spec.K_clamped).evaluate(x))
    want = rec.vals[j] @ lifts + rec.c[j] @ modes
    assert np.max(np.abs(rec.evaluate(j, x) - want)) <= 1e-13 * np.abs(want).max()
    mid = rec.evaluate(j, 0.5)                 # a scalar x is one point
    assert mid.shape == (1,) and abs(mid[0] - want[4]) <= 1e-13 * abs(want[4])


@pytest.mark.parametrize("N,K", [(32, 16), (16, 64)])
def test_clamped_states_are_the_gauss_projection_of_u(N, K):
    # the half-weight mixed view projects lifts and modes by one Gauss rule:
    # 1.8e-13 from 2048 nodes measured, where the trapezoid rule with
    # closed-form lift coefficients left 6.2e-6 and 2.5e-6
    hs = {key: BoundaryTrace.from_series([0, n], [b, 0.3 * b]) for key, n, b in
          zip(("h1", "h2", "h3", "h4"), (1, 2, 1, 3),
              (0.4 + 0.1j, -0.3 + 0.2j, 0.5 - 0.1j, 0.2 + 0.4j))}
    spec = ProblemSpec(family="dirichlet", s=2.0, p=5.0, lam=1.0, T=2e-3,
                       dt=5e-4, N=N, K_clamped=K,
                       phi=lambda x: np.sin(np.pi * x) ** 2 * (1 + 0.5j * x), **hs)
    rec = picard_dirichlet(spec)
    y, w = np.polynomial.legendre.leggauss(2048)
    x, w = 0.5 * (y + 1.0), 0.5 * w
    uw = (rec.vals @ rec.basis.lifts(x) + rec.c @ rec.basis.modes(x)) * w
    kx = np.pi * np.outer(x, np.arange(1, N + 1))
    want = (uw @ np.sin(kx), uw @ np.cos(kx), 0.5 * uw.sum(axis=1))
    got = [np.array([getattr(st, name) for st in rec.states])
           for name in ("q", "p", "p0")]
    scale = max(np.abs(a).max() for a in want)
    assert max(np.abs(g - a).max() for g, a in zip(got, want)) <= 1e-11 * scale


@pytest.mark.parametrize("clamped", [False, True])
def test_record_rejects_non_finite(clamped):
    _, rec = (_clamped_record if clamped else _hinged_record)()
    for name in ("c", "vals"):
        rows = {"c": np.array(rec.c), "vals": np.array(rec.vals)}
        rows[name][1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SolutionRecord(times=rec.times, basis=rec.basis, **rows)


#: (basis builder, a grid key, the keys that differ from it in N, M, K or
#: the number of Gauss nodes)
BASIS_GRIDS = {"hinged": (nl._hinged_basis, (16, 33), [(32, 33), (16, 65)]),
               "clamped": (nl._clamped_basis, (16, 8, 40),
                           [(32, 8, 40), (16, 12, 40), (16, 8, 36)])}


def _clear_basis_caches():
    for cached in (nl._hinged_basis, nl._clamped_basis, gauss_nodes,
                   gauss_grid, build_clamped_basis):
        cached.cache_clear()


def test_hinged_solve_builds_no_cosine_matrix():
    # a cold hinged solve with a datum builds one basis on its uniform grid
    # and projects the datum there: B is sin(k pi x) on those nodes, and no
    # Gauss grid is read
    _clear_basis_caches()
    spec, rec = _hinged_record()
    assert nl._hinged_basis.cache_info().misses == 1
    M = _dealias_points(spec.N, spec.p)
    x = np.linspace(0.0, 1.0, M + 1)
    assert np.array_equal(rec.basis.x, x)
    assert np.array_equal(
        rec.basis.B, np.sin(np.pi * np.outer(x, np.arange(1, spec.N + 1))).T)
    assert gauss_nodes.cache_info().misses == 0
    assert gauss_grid.cache_info().misses == 0


def test_clamped_solve_builds_no_sine_or_cosine_matrix():
    # a cold clamped solve reads the nodes and weights of its grid alone
    _clear_basis_caches()
    _, rec = _clamped_record()
    assert nl._clamped_basis.cache_info().misses == 1 and rec.iterations > 0
    assert gauss_grid.cache_info().misses == 0   # the states view's grid


def test_leggauss_runs_once_per_node_count(tmp_path, monkeypatch):
    # one Gauss builder serves the clamped basis, the clamped states view and
    # the transforms of the traces lab; numpy's leggauss is looked up at call
    # time, so each node count is counted once, however often it is read
    _clear_basis_caches()
    calls, leggauss = [], np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: calls.append(n) or leggauss(n))
    for _ in range(2):
        spec, rec = _clamped_record()
        wide = picard_dirichlet(dataclasses.replace(spec, N=24))
        rec.states, wide.states
    n_basis = nl._gauss_points(spec.K_clamped, spec.p)
    # the N = 16 view reads the basis' 40 nodes; the N = 24 view reads 48
    assert n_basis == spec.N + spec.K_clamped + 16 == 40
    assert calls == [n_basis, 24 + spec.K_clamped + 16]
    assert wide.basis.x is rec.basis.x
    for seed in range(2):
        assert run({"mode": "traces", "traces": {"N": 40}},
                   tmp_path / f"traces{seed}", seed) == 0
    assert calls[2:] == [40 + 16]


@pytest.mark.parametrize("family", ["hinged", "clamped"])
def test_basis_is_built_once_per_grid_and_read_only(family):
    build, key, others = BASIS_GRIDS[family]
    basis = build(*key)
    assert build(*key) is basis
    for other in others:
        assert build(*other) is not basis
    for name in ("xi", "omegas", "x", "B", "P", "L", "a"):
        arr = getattr(basis, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0
    # every record on one grid shares its basis
    make = _hinged_record if family == "hinged" else _clamped_record
    assert make()[1].basis is make()[1].basis


@pytest.mark.parametrize("family", ["hinged", "clamped"])
def test_cold_and_warm_basis_solves_agree_bit_for_bit(family):
    make = _hinged_record if family == "hinged" else _clamped_record
    _clear_basis_caches()
    _, cold = make()
    _, warm = make()
    assert warm.basis is cold.basis
    assert np.array_equal(cold.c, warm.c) and np.array_equal(cold.vals, warm.vals)


@pytest.mark.parametrize("family", ["navier", "dirichlet"])
def test_cold_and_warm_basis_cli_artifacts_are_byte_identical(family, tmp_path):
    series = {"kind": "series", "n": [0, 1], "a": [[-0.1, 0.05], [0.1, -0.05]]}
    solve = {"family": family, "N": 16, "s": 2.0, "p": 5.0, "lam": 1.0,
             "T": 1e-3, "dt": 1e-5, "h1": series, "h2": series,
             "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [2, 1],
                                                      [-4, -2], [2, 1]]}}
    if family == "dirichlet":
        solve["K_clamped"] = 8
    cfg = {"mode": "solve", "solve": solve}
    _clear_basis_caches()
    assert run(cfg, tmp_path / "cold", seed=3) == 0
    assert run(cfg, tmp_path / "warm", seed=3) == 0
    files = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "warm").iterdir())
    assert "solve_norms.csv" in files
    for name in files:
        assert ((tmp_path / "cold" / name).read_bytes()
                == (tmp_path / "warm" / name).read_bytes()), name


_SERIES = {"kind": "series", "n": [-1, 0, 1], "a": [[0, 0.05], [0.1, 0], [-0.05, 0]]}
#: solve configs of the buffer-reuse test: hinged, clamped, the hinged one at
#: another T (another history length), and the first one again
_SEQUENCE = {
    "hinged": {"family": "navier", "N": 32, "s": 1.0, "p": 3.0, "lam": 1.0,
               "T": 0.005, "dt": 1e-4, "h1": _SERIES,
               "phi": {"kind": "sine", "coefficients": [[0.3, 0], [0, 0.2], [-0.1, 0]]}},
    "clamped": {"family": "dirichlet", "N": 16, "K_clamped": 8, "s": 2.0, "p": 5.0,
                "lam": 1.0, "T": 1e-3, "dt": 1e-5, "h1": _SERIES, "h3": _SERIES,
                "phi": {"kind": "poly", "coefficients": [[0, 0], [0, 0], [2, 1],
                                                         [-4, -2], [2, 1]]}},
}
_SEQUENCE["hinged_T"] = dict(_SEQUENCE["hinged"], T=0.003)
#: a fresh interpreter solves each config of argv[1] in turn and prints the
#: sha256 of its record's c and its step precisions
_SOLVE_DIGESTS = """
import hashlib, json, sys
from bihns.cli import _build
from bihns.nonlinear import NAVIER, picard_dirichlet, picard_navier
for payload in json.loads(sys.argv[1]):
    spec = _build("solve", payload)
    rec = (picard_navier if spec.family == NAVIER else picard_dirichlet)(spec)
    print(hashlib.sha256(rec.c.tobytes()).hexdigest(), *rec.step_precision)
"""


def _solve_digests(names):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SOLVE_DIGESTS,
         json.dumps([_SEQUENCE[n] for n in names])],
        capture_output=True, text=True, env=env, check=True)
    return done.stdout.split("\n")[:-1]


def test_solve_sequence_matches_cold_solves_bit_for_bit():
    # buffers and folds carried from one solve to the next would show as a
    # change of bits: each solve of the sequence equals the same solve alone
    # in a fresh interpreter
    order = ["hinged", "clamped", "hinged_T", "hinged"]
    warm = _solve_digests(order)
    cold = {name: _solve_digests([name])[0] for name in set(order)}
    assert warm == [cold[name] for name in order]
    assert warm[0] != warm[2]
    # both folds of each basis are in use: float32 steps and float64 ones
    for line in warm:
        assert {"float32", "float64"} <= set(line.split()[1:])


def test_picard_step_holds_two_histories():
    # the tracemalloc peak of a warm hinged solve (N = 64, 4001 time rows,
    # 4.1 MB per (T, K) history) is 2.52 histories: the iterate and the work
    # buffer, plus the forcing kernel's block buffers.  A step that keeps
    # lin beside them peaks at 3.52, and one that forms its slope forcing
    # - h' @ a as a (T, K) temporary at 3.16
    q0 = np.zeros(64, dtype=complex)
    q0[:3] = [0.3, 0.2j, -0.1]
    st0 = sine_state(q0)
    h1 = BoundaryTrace.from_series([-1, 0, 1], [0.05j, 0.1, -0.05])
    spec = ProblemSpec(family="navier", s=1.0, p=3.0, lam=1.0, T=0.02, N=64,
                       dt=5e-6, h1=h1, phi=lambda x: reconstruct(st0, x))
    picard_navier(spec)                 # the basis and its folds are cached
    tracemalloc.start()
    try:
        rec = picard_navier(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rec.times) == 4001 and rec.iterations >= 3
    assert peak <= 2.8 * rec.c.nbytes


def _hs_sq_one_pass(d, w, old=None):
    """The H^s row sums of d (or d - old) as one product over all rows, on
    a squared copy: what ``nl._hs_sq`` computes block by block."""
    f = (d.copy() if old is None else d - old).view(np.float64)
    f *= f
    return f @ np.repeat(w, 2)


#: rows per block of ``nl._hs_sq`` at K = 64 modes when the block bytes hold
#: 11 rows: the multiple of 4 at or below 11 - 1
_HS_ROWS = 8


@pytest.mark.parametrize("form", ["copy_free", "old"])
@pytest.mark.parametrize("T", [1, _HS_ROWS - 1, _HS_ROWS, _HS_ROWS + 1,
                               3 * _HS_ROWS + 5],
                         ids=["1", "R-1", "R", "R+1", "3R+5"])
def test_hs_sq_blocks_match_one_pass(T, form, monkeypatch):
    # each row meets the BLAS kernel of the one product: blocks of a
    # multiple of 4 rows, and R + 1 rows as one block, since a last block of
    # one row would be a dot product that rounds unlike the product's row.
    # The products are small enough that BLAS runs them on one thread
    K = 64
    monkeypatch.setattr(nl, "_BLOCK_BYTES", 16 * K * 11)
    g = np.random.default_rng(T)
    d, old = g.standard_normal((2, T, K)) + 1j * g.standard_normal((2, T, K))
    w = 1.0 + (np.pi * np.arange(1, K + 1)) ** 2
    d_in = d.copy()
    if form == "copy_free":
        assert np.array_equal(nl._hs_sq(d, w), _hs_sq_one_pass(d, w))
    else:
        want, sq = _hs_sq_one_pass(d, w, old), (d - old).view(np.float64) ** 2
        assert np.array_equal(nl._hs_sq(d, w, old), want)
        assert np.array_equal(old.view(np.float64), sq)
    assert np.array_equal(d, d_in)


def test_record_norms_make_no_history_copy():
    # a hinged bench-sized record (1001 x 256, 4.1 MB): the norms square c
    # in a block scratch of at most _BLOCK_BYTES, where a copy of c would
    # peak at one history
    rec = _solve(_bench_sized_spec("hinged"))
    rec.norms(1.0)
    tracemalloc.start()
    try:
        rec.norms(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * rec.c.nbytes


# ---------------------------------------------------------------------------
# mixed-precision Picard steps


def _float64_only(monkeypatch):
    """Every step in float64, each one able to stop: the plain Picard loop."""
    monkeypatch.setattr(nl, "_step_dtype", lambda *args: np.float64)


def _bench_sized_spec(family, **kw):
    if family == "hinged":
        q0 = np.zeros(256, dtype=complex)
        q0[:3] = [0.8, 0.4j, -0.2 + 0.1j]
        st0 = sine_state(q0)
        n = [-2, -1, 0, 1, 2]
        h1 = BoundaryTrace.from_series(n, [0.1, -0.05j, 0.25, 0.08, -0.1j])
        h5 = BoundaryTrace.from_series(n, [0.1j, 0.2, -0.15, 0.05, 0.1 + 0.1j])
        return ProblemSpec(family="navier", s=1.0, p=3.0, lam=1.0, T=0.01,
                           dt=1e-5, N=256, h1=h1, h5=h5,
                           phi=lambda x: reconstruct(st0, x), **kw)
    hs = {key: BoundaryTrace.from_series([0, 1], [-b, b]) for key, b in
          zip(("h1", "h2", "h3", "h4"), (0.1, 0.15j, -0.08, 0.12 + 0.03j))}
    return ProblemSpec(family="dirichlet", s=2.0, p=5.0, lam=1.0, T=2e-3,
                       dt=4e-6, N=128, K_clamped=48,
                       phi=lambda x: (3.0 + 1j) * x ** 2 * (1.0 - x) ** 2,
                       **hs, **kw)


def _solve(spec):
    return picard_navier(spec) if spec.family == "navier" else picard_dirichlet(spec)


@pytest.mark.parametrize("family", ["hinged", "clamped"])
def test_mixed_precision_matches_float64_solve(family, monkeypatch):
    spec = _bench_sized_spec(family)
    rec = _solve(spec)
    assert rec.step_precision == {
        "hinged": ["float32", "float32", "float32", "float64"],
        "clamped": ["float32", "float64"]}[family]
    assert len(rec.step_precision) == rec.iterations
    _float64_only(monkeypatch)
    ref = _solve(spec)
    assert ref.step_precision == ["float64"] * ref.iterations
    assert rec.iterations == ref.iterations and rec.tstar == ref.tstar
    assert 0 < rec.residual < spec.tol
    assert np.array_equal(rec.vals, ref.vals)
    assert np.max(np.abs(rec.c - ref.c)) <= 1e-11 * np.max(np.abs(ref.c))


def test_first_step_below_tol_still_stops_on_float64():
    # the float32 first step already meets tol but cannot stop; the float64
    # step after it does
    q0 = np.zeros(32, dtype=complex)
    q0[:3] = [0.3, 0.2j, -0.1]
    st0 = sine_state(q0)
    spec = ProblemSpec(family="navier", s=1.0, p=3.0, lam=1e-12, T=0.005,
                       N=32, dt=1e-4, phi=lambda x: reconstruct(st0, x))
    rec = picard_navier(spec)
    assert rec.step_precision == ["float32", "float64"]
    assert rec.iterations == 2 and rec.residual < spec.tol
    for make in (_hinged_record, _clamped_record):
        assert make()[1].step_precision[-1] == "float64"


def test_step_dtype_rule():
    tol, f32, f64 = 1e-8, np.float32, np.float64
    assert nl._step_dtype([], tol, 25) is f32
    assert nl._step_dtype([], tol, 1) is f64           # the only step
    assert nl._step_dtype([1e-2], tol, 25) is f64      # no factor yet
    assert nl._step_dtype([1e-2, 1e-4], tol, 25) is f32    # predicts 1e-6
    assert nl._step_dtype([1e-2, 1e-4], tol, 3) is f64     # last allowed step
    assert nl._step_dtype([1e-2, 5e-6], tol, 25) is f64    # predicts 2.5e-9
    # a distance near float32 rounding of the first step: too close to trust
    assert nl._step_dtype([1.0, 1e-3, 1e-4], 1e-6, 25) is f64
    assert nl._step_dtype([1.0, 1e-2, 1e-3], 1e-6, 25) is f32
    # step 2 reads the predicted factor kappa_hat: float32 when kappa_hat D_1
    # reaches 100 tol (powers of two make the products exact)
    tol2, d1 = 2.0 ** -27, 2.0 ** -7
    at = 100.0 * 2.0 ** -20                  # kappa_hat D_1 = 100 tol2 exactly
    assert nl._step_dtype([d1], tol2, 25, at) is f32
    assert nl._step_dtype([d1], tol2, 25, 4.0 * at) is f32
    assert nl._step_dtype([d1], tol2, 25, np.nextafter(at, 0.0)) is f64
    assert nl._step_dtype([d1], tol2, 25, 0.1 * at) is f64
    assert nl._step_dtype([d1], tol2, 25, math.nan) is f64    # undefined
    assert nl._step_dtype([d1], tol2, 2, 4.0 * at) is f64     # step max_iter


def test_float32_overflow_reruns_in_float64(monkeypatch):
    # u -> alpha u, lam -> lam / alpha^(p-2), tol -> alpha tol maps solves to
    # solves, exactly in float64 for alpha a power of two.  At alpha = 2^66
    # (|u| ~ 1e20) |u|^2 overflows float32 but not float64, so every float32
    # step falls back and the scaled solve is alpha times the float64 one
    alpha, p = 2.0 ** 66, 5.0
    q0 = np.zeros(32, dtype=complex)
    q0[:3] = [1.0, 0.5j, -0.25]
    st0 = sine_state(q0)
    base = dict(family="navier", s=1.0, p=p, T=0.005, N=32, dt=1e-4)
    spec = ProblemSpec(lam=20.0, phi=lambda x: reconstruct(st0, x), **base)
    scaled = ProblemSpec(lam=20.0 / alpha ** (p - 2.0), tol=alpha * spec.tol,
                         phi=lambda x: alpha * reconstruct(st0, x), **base)
    assert "float32" in picard_navier(spec).step_precision
    kernels = []
    grid_forcing = nl._grid_forcing

    def recorded(*args):
        dtype = args[2][0].dtype.name
        try:
            out = grid_forcing(*args)
        except OverflowError:
            kernels.append((dtype, "overflow"))
            raise
        kernels.append((dtype, "ok"))
        return out

    monkeypatch.setattr(nl, "_grid_forcing", recorded)
    rec = picard_navier(scaled)
    assert ("float32", "overflow") in kernels
    assert ("float32", "ok") not in kernels
    assert rec.step_precision == ["float64"] * rec.iterations
    _float64_only(monkeypatch)
    ref = picard_navier(spec)
    assert rec.iterations == ref.iterations >= 3
    assert rec.residual < scaled.tol
    assert np.max(np.abs(rec.c / alpha - ref.c)) <= 1e-11 * np.max(np.abs(ref.c))
