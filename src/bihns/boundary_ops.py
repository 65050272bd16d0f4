"""Boundary-to-interior kernels, lifts, reflections and trace series.

The solution of the linear problem driven purely by boundary data is a
mode-wise time convolution against exp(i (k pi)^4 (t - tau)) with explicit
weights:

* hinged family: weights 2i(k pi)^3 (value data) and -2i k pi (second
  derivative data) -- see ``BetaTable.navier0/navier2``;
* clamped family: the beta coefficients b01, b02 (value data -> sine/cosine
  parts) and b11, b12 (first-derivative data), obtained by eliminating a cubic
  lift, see ``BetaTable``; the single-time kernels ``w0d``/``w1d`` use them.

Clamped *histories* (``dirichlet_linear_history`` and the clamped solver) are
not built from those kernels: the data ride on four cubic lifts and the rest
on the clamped eigenbasis (``clamped_lift_response``), so the boundary data
are attained identically.  ``clamped_mixed_history`` projects such a history
onto the half-weight mixed basis, and ``clamped_grid`` is the one trapezoid
rule behind every clamped projection.

Note on orientation: integrating int_0^1 u_xxxx sin(k pi x) dx by parts gives
the mode ODE  i q_k' + (k pi)^4 q_k = 2(k pi)^3 (h1 - cos(k pi) h2)
- 2 k pi (h5 - cos(k pi) h6), so the *assembled* hinged solution carries an
extra global minus relative to the raw navier0/navier2 table weights; the
assembly helpers below apply it, the single-operator entry points ``w0n`` and
``w2n`` expose the raw table weights.

Note on the clamped value-data cosine weight: expanding the clamped cubic
lift in the half-weight sine/cosine convention gives the b01/b11/b12 closed
forms of ``BetaTable`` exactly, but its cosine coefficient for value data is
12(1 - cos k pi)/(k pi)^4, not the reference closed form 12(1 - k pi)/(k pi)^4
recorded as b02 (and the lift's cell average is h1/4 + h3/24).  The solution
maps ``w0d``/``w1d`` and the lift coefficients of ``clamped_mixed_history``
use the expansion-consistent values -- that is what makes the reconstructed
solution actually attain its boundary data; ``BetaTable`` keeps the reference
forms verbatim for the bit-exactness check.

Convolutions support two routes sharing one contract:

* a lattice-series route, exact per (mode, frequency) pair with resonance
  handling -- used by the optimality study and refinement tests;
* a sampled route through the piecewise-linear exponential integrator of
  :mod:`bihns.linear_flow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .spectral import (BoundaryTrace, FourierState, TRACE_FREQ, mixed_state,
                       sine_state)
from .linear_flow import (ClampedBasis, ForcingHistory, build_clamped_basis,
                          duhamel_history, navier_eigenvalues)


# ---------------------------------------------------------------------------
# coefficient tables


@dataclass(frozen=True)
class BetaTable:
    """Closed-form convolution weights for modes k = 1..N (purely imaginary)."""

    N: int
    navier0: np.ndarray  # 2i (k pi)^3
    navier2: np.ndarray  # -2i k pi
    b01: np.ndarray      # -i (k pi)^3 - 6 i k pi (cos k pi + 1)
    b02: np.ndarray      # 12 i (k pi - 1)
    b11: np.ndarray      # -2 i k pi (cos k pi + 2)
    b12: np.ndarray      # i (k pi)^2 + 6 i (cos k pi - 1)


def build_beta_table(N: int) -> BetaTable:
    k = np.arange(1, N + 1, dtype=np.float64)
    kp = k * np.pi
    # explicit products, not **: pow() is not reproducible bit-for-bit
    # between the vectorized and scalar evaluation paths
    kp2 = kp * kp
    kp3 = kp2 * kp
    cos_kpi = np.where(np.arange(1, N + 1) % 2 == 0, 1.0, -1.0)  # exact (-1)^k
    navier0 = 2j * kp3
    navier2 = -2j * kp
    b01 = -1j * kp3 - 6j * kp * (cos_kpi + 1.0)
    b02 = 12j * (kp - 1.0)
    b11 = -2j * kp * (cos_kpi + 2.0)
    b12 = 1j * kp2 + 6j * (cos_kpi - 1.0)
    return BetaTable(N, navier0, navier2, b01, b02, b11, b12)


def _clamped_solution_weights(N: int):
    """Expansion-consistent clamped weights (see module docstring).

    Returns (wq1, wp1, wq3, wp3): sine/cosine convolution weights for value
    data and slope data.  Only the value-data cosine weight differs from the
    reference table: -i (k pi)^4 * 12 (1 - cos k pi)/(k pi)^4 = 12i(cos k pi - 1).
    """
    table = build_beta_table(N)
    k = np.arange(1, N + 1)
    cos_kpi = np.where(k % 2 == 0, 1.0, -1.0)
    wp1 = 12j * (cos_kpi - 1.0)
    return table.b01, wp1, table.b11, table.b12


def mirror(state: FourierState) -> FourierState:
    """Reflection x -> 1-x on coefficients: q_k -> (-1)^(k+1) q_k, p_k -> (-1)^k p_k."""
    k = np.arange(1, state.N + 1)
    sgn = np.where(k % 2 == 0, -1.0, 1.0)
    return FourierState(state.basis, sgn * state.q, -sgn * state.p, state.p0, state.t)


# ---------------------------------------------------------------------------
# convolution cores


def _require_compatible(h: BoundaryTrace, compat: bool):
    if compat:
        h0 = h(0.0)
        if abs(h0) > 1e-9:
            raise ValueError(f"trace violates the corner condition h(0)=0 (h(0)={h0:.3e})")


def convolve_series(omegas: np.ndarray, h: BoundaryTrace, times: np.ndarray,
                    res_tol: float = 1e-9) -> np.ndarray:
    """Exact I[j,k] = int_0^{t_j} e^{i w_k (t-tau)} h(tau) dtau for a lattice series.

    Per frequency n pi^4: (e^{i n pi^4 t} - e^{i w t}) / (i (n pi^4 - w)),
    with the resonant limit t e^{i w t} when n pi^4 == w.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    freqs = h.n.astype(np.float64) * TRACE_FREQ
    a = np.asarray(h.a, dtype=np.complex128)
    diff = freqs[:, None] - omegas[None, :]                 # (M, K)
    res = np.abs(diff) <= res_tol * (1.0 + np.abs(omegas))
    # a_m / (i (nu_m - w_k)), zero on resonant pairs; the other gaps are
    # at least pi^4, so the two-exponential form below does not cancel
    coef = np.divide(a[:, None], 1j * diff, where=~res,
                     out=np.zeros(diff.shape, dtype=np.complex128))
    e_w = np.exp(1j * np.outer(times, omegas))             # (T, K)
    e_n = np.exp(1j * np.outer(times, freqs))              # (T, M)
    out = e_n @ coef - e_w * coef.sum(axis=0)
    for m, k in zip(*np.nonzero(res)):                      # t e^{i w t}
        out[:, k] += a[m] * (times * e_w[:, k])
    return out


def _sampled_history(h: BoundaryTrace, times: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    vals = h(times)
    coeffs = np.repeat(vals[:, None], len(omegas), axis=1)
    F = ForcingHistory(times, coeffs, omegas)
    return duhamel_history(F)


def boundary_convolution(h: BoundaryTrace, times: np.ndarray, N: int) -> np.ndarray:
    """Shared I[j,k] = int_0^{t_j} e^{i(k pi)^4 (t-tau)} h(tau) dtau, k = 1..N.

    Uses the exact lattice-series route when a series is present, else the
    piecewise-linear sampled route.  Raises if the trace carries neither form.
    """
    omegas = navier_eigenvalues(N)
    if np.any(h.a != 0):
        return convolve_series(omegas, h, times)
    if h.sample_t is not None:
        return _sampled_history(h, np.asarray(times, dtype=np.float64), omegas)
    if np.all(h.a == 0) and h.sample_t is None and len(h.n) >= 1:
        # an explicitly zero series is a valid (zero) trace
        return np.zeros((len(np.atleast_1d(times)), N), dtype=np.complex128)
    raise ValueError("trace carries neither series nor samples")


# ---------------------------------------------------------------------------
# the four boundary kernels (single-time entry points per the op contracts)


def _times_grid(t: float, dt: float) -> np.ndarray:
    n = max(2, int(round(t / dt)) + 1)
    return np.linspace(0.0, t, n)


def w0n(h: BoundaryTrace, t: float, N: int, dt: float = 1e-4,
        compat: bool = True) -> FourierState:
    """Raw hinged value-data kernel: q_k(t) = 2i(k pi)^3 int_0^t e^{i(k pi)^4(t-tau)} h."""
    _require_compatible(h, compat)
    table = build_beta_table(N)
    I = boundary_convolution(h, _times_grid(t, dt), N)[-1]
    return sine_state(table.navier0 * I, t=t)


def w2n(h: BoundaryTrace, t: float, N: int, dt: float = 1e-4,
        compat: bool = True) -> FourierState:
    """Raw hinged curvature-data kernel with weight -2i k pi."""
    _require_compatible(h, compat)
    table = build_beta_table(N)
    I = boundary_convolution(h, _times_grid(t, dt), N)[-1]
    return sine_state(table.navier2 * I, t=t)


def w0d(h: BoundaryTrace, t: float, N: int, dt: float = 1e-4,
        compat: bool = True) -> FourierState:
    """Clamped value-data kernel: sine part b01, expansion-consistent cosine part.

    The constant mode is the assembled residual p0(0) = h(0)/4 (exactly zero
    under the corner condition; kept so that incompatible data still round-trip
    at the mean-mode level).
    """
    _require_compatible(h, compat)
    wq1, wp1, _, _ = _clamped_solution_weights(N)
    I = boundary_convolution(h, _times_grid(t, dt), N)[-1]
    p0 = 0.25 * complex(h(0.0))
    return mixed_state(wq1 * I, wp1 * I, p0, t=t)


def w1d(h: BoundaryTrace, t: float, N: int, dt: float = 1e-4,
        compat: bool = True) -> FourierState:
    """Clamped slope-data kernel: sine part b11, cosine part b12, p0 = h(0)/24."""
    _require_compatible(h, compat)
    _, _, wq3, wp3 = _clamped_solution_weights(N)
    I = boundary_convolution(h, _times_grid(t, dt), N)[-1]
    p0 = complex(h(0.0)) / 24.0
    return mixed_state(wq3 * I, wp3 * I, p0, t=t)


# ---------------------------------------------------------------------------
# history assemblies used by the solver pipelines


def navier_boundary_history(h1: BoundaryTrace, h2: BoundaryTrace,
                            h5: BoundaryTrace, h6: BoundaryTrace,
                            times: np.ndarray, N: int) -> np.ndarray:
    """Sine-coefficient history of the hinged solution driven by boundary data.

    Mode ODE: i q_k' + (k pi)^4 q_k = 2(k pi)^3 (h1 - cos(k pi) h2)
    - 2 k pi (h5 - cos(k pi) h6); the Duhamel prefactor -i turns the table
    weights into -2i(k pi)^3 and +2i k pi (the global orientation fix).
    """
    table = build_beta_table(N)
    k = np.arange(1, N + 1)
    ref = np.where(k % 2 == 0, -1.0, 1.0)  # (-1)^(k+1), the mirror signs
    out = np.zeros((len(times), N), dtype=np.complex128)
    for h, w in ((h1, -table.navier0), (h2, -ref * table.navier0),
                 (h5, -table.navier2), (h6, -ref * table.navier2)):
        if np.any(h.a != 0) or h.sample_t is not None:
            out += boundary_convolution(h, times, N) * w
    return out


def _lift_mixed_coeffs(N: int):
    """Half-weight sine/cosine/mean coefficients of the two clamped lifts.

    Columns: value lift 3u^2-2u^3 and slope lift u^2-u^3 (u = 1-x); these are
    the expansion-consistent closed forms (see module docstring).
    """
    k = np.arange(1, N + 1)
    kp = k * np.pi
    c = np.where(k % 2 == 0, 1.0, -1.0)
    q1 = (kp ** 2 + 6.0 * c + 6.0) / kp ** 3
    p1 = 12.0 * (1.0 - c) / kp ** 4
    q3 = 2.0 * (c + 2.0) / kp ** 3
    p3 = (-(kp ** 2) - 6.0 * c + 6.0) / kp ** 4
    return (q1, p1, 0.25), (q3, p3, 1.0 / 24.0)


def clamped_grid(N: int, K: int):
    """Uniform trapezoid nodes and weights on 4 max(N, K) + 1 points of [0, 1].

    The one quadrature of the clamped family: every integrand it meets
    (initial datum, lift or nonlinearity times phi_j; phi_j times sin/cos)
    has a vanishing first derivative at both ends, so the rule is O(h^4).
    """
    M = 4 * max(N, K)
    x = np.linspace(0.0, 1.0, M + 1)
    w = np.full(M + 1, 1.0 / M)
    w[0] = w[-1] = 0.5 / M
    return x, w


def clamped_lift_response(h1: BoundaryTrace, h2: BoundaryTrace,
                          h3: BoundaryTrace, h4: BoundaryTrace,
                          times: np.ndarray, basis: ClampedBasis,
                          x: np.ndarray, w: np.ndarray):
    """Boundary part of the clamped family on the four cubic lifts.

        u_b = sum_i h_i(t) lift_i(x) + sum_j c_j(t) phi_j(x),

    with phi_j the clamped eigenfunctions and c_j the Duhamel response to the
    forcing -i sum_i h_i'(t) <lift_i, phi_j>; every phi_j satisfies all four
    homogeneous conditions, so u_b attains (h1, h2, h3, h4) identically
    (orientation: u(0)=h1, u(1)=h2, u_x(0)=h3, u_x(1)=h4).

    Returns (vals, lift, a, c): the data h_i(t_j) (T, 4), the lift rows on the
    grid x (4, len(x)), their projections <lift_i, phi_j> under the weights w
    (4, K) and the response c (T, K); inactive data contribute zeros.
    """
    times = np.asarray(times, dtype=np.float64)
    u = 1.0 - x
    lift = np.stack((3.0 * u ** 2 - 2.0 * u ** 3,
                     3.0 * x ** 2 - 2.0 * x ** 3,
                     u ** 2 - u ** 3,
                     -(x ** 2 - x ** 3)))
    a = (lift * w) @ basis.evaluate(x).T
    T = len(times)
    vals = np.zeros((T, 4), dtype=np.complex128)
    forcing = np.zeros((T, basis.K), dtype=np.complex128)
    active = False
    for i, h in enumerate((h1, h2, h3, h4)):
        if not (np.any(h.a != 0) or h.sample_t is not None):
            continue
        active = True
        vals[:, i] = h(times)
        forcing += -1j * np.asarray(h.derivative()(times))[:, None] * a[i]
    c = (-1j * duhamel_history(ForcingHistory(times, forcing, basis.eigenvalues))
         if active else forcing)
    return vals, lift, a, c


def clamped_mixed_history(vals: np.ndarray, c: np.ndarray, phi: np.ndarray,
                          x: np.ndarray, w: np.ndarray, N: int):
    """Half-weight mixed (q, p, p0) histories of sum_i vals_i lift_i + sum_j c_j phi_j.

    The lifts go through their closed-form coefficients; the eigen part
    (``phi`` sampled on the grid x) through the quadrature weights w.
    """
    (q1, p1, c01), (q3, p3, c03) = _lift_mixed_coeffs(N)
    k = np.arange(1, N + 1)
    sgn = np.where(k % 2 == 0, -1.0, 1.0)       # (-1)^(k+1)
    # rows in the order (h1, h2, h3, h4); h2 and h4 are the lifts mirrored
    # through x -> 1-x, h4 with a minus so that d/dx at x=1 equals +h4
    lq = np.stack((q1, sgn * q1, q3, -sgn * q3))
    lp = np.stack((p1, -sgn * p1, p3, sgn * p3))
    l0 = np.array([c01, c01, c03, -c03])
    arg = np.pi * np.outer(x, k)
    pw = phi * w
    q = vals @ lq + c @ (pw @ np.sin(arg))
    p = vals @ lp + c @ (pw @ np.cos(arg))
    p0 = vals @ l0 + 0.5 * (c @ pw.sum(axis=1))
    return q, p, p0


def dirichlet_linear_history(h1: BoundaryTrace, h2: BoundaryTrace,
                             h3: BoundaryTrace, h4: BoundaryTrace,
                             times: np.ndarray, N: int,
                             basis: Optional[ClampedBasis] = None, K: int = 48):
    """Mixed-basis history of the clamped solution driven by boundary data.

    The solution is built on the cubic lifts plus the clamped eigenbasis
    (``clamped_lift_response``) and projected onto the half-weight mixed
    basis; boundary-value extraction from that projection is Gibbs-limited
    in N by design.

    Returns (q, p, p0) histories shaped (len(times), N) / (len(times),).
    """
    if basis is None:
        basis = build_clamped_basis(K)
    x, w = clamped_grid(N, basis.K)
    vals, _, _, c = clamped_lift_response(h1, h2, h3, h4, times, basis, x, w)
    return clamped_mixed_history(vals, c, basis.evaluate(x), x, w, N)


# ---------------------------------------------------------------------------
# lifts


def navier_lift(h1: complex, h5: complex, x, order: int = 0):
    """Cubic hinged lift (1-x)(h1 - h5/6) + (1-x)^3 h5/6 and derivatives.

    lift(0) = h1, lift''(0) = h5, lift(1) = lift''(1) = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    u = 1.0 - x
    if order == 0:
        return (h1 - h5 / 6.0) * u + (h5 / 6.0) * u ** 3
    if order == 1:
        return -(h1 - h5 / 6.0) - 0.5 * h5 * u ** 2
    if order == 2:
        return h5 * u
    raise ValueError("order must be 0, 1 or 2")


def dirichlet_lift(h1: complex, h3: complex, x, order: int = 0):
    """Cubic clamped lift (1-x)^2 (3 h1 + h3) - (1-x)^3 (2 h1 + h3).

    lift(0) = h1, lift'(0) = h3, lift(1) = lift'(1) = 0.
    """
    x = np.asarray(x, dtype=np.float64)
    u = 1.0 - x
    a, b = 3.0 * h1 + h3, 2.0 * h1 + h3
    if order == 0:
        return a * u ** 2 - b * u ** 3
    if order == 1:
        return -2.0 * a * u + 3.0 * b * u ** 2
    if order == 2:
        return 2.0 * a - 6.0 * b * u
    raise ValueError("order must be 0, 1 or 2")


# ---------------------------------------------------------------------------
# trace series of the periodic flow of the odd/even split (trace study)


def dirichlet_traces(phi_o: FourierState, phi_e: FourierState
                     ) -> Tuple[BoundaryTrace, BoundaryTrace, BoundaryTrace, BoundaryTrace]:
    """Boundary series (r1..r4) of the periodic flow of the odd/even split.

    r1 = p0 + sum p_k e^{i(k pi)^4 t}           (value at x=0, even part)
    r2 = p0 + sum p_k cos(k pi) e^{...}         (value at x=1)
    r3 = sum q_k (k pi) e^{...}                 (slope at x=0, odd part)
    r4 = sum q_k (k pi) cos(k pi) e^{...}       (slope at x=1)

    Frequencies live on the lattice n = k^4 (fundamental pi^4).
    """
    N = phi_o.N
    k = np.arange(1, N + 1)
    n_idx = k.astype(np.int64) ** 4
    cos_kpi = np.where(k % 2 == 0, 1.0, -1.0)
    kp = k * np.pi
    p = phi_e.p
    q = phi_o.q

    def series(coeffs, with_p0):
        n = np.concatenate(([0], n_idx)) if with_p0 else n_idx
        a = np.concatenate(([phi_e.p0], coeffs)) if with_p0 else coeffs
        return BoundaryTrace.from_series(n, a)

    r1 = series(p, True)
    r2 = series(p * cos_kpi, True)
    r3 = series(q * kp, False)
    r4 = series(q * kp * cos_kpi, False)
    return r1, r2, r3, r4


# ---------------------------------------------------------------------------
# boundary-value extraction from coefficient histories


def _jump_fit_weights(N: int, window: Optional[Tuple[int, int]] = None):
    """Normal-equation solve for the endpoint values of a sine series.

    Smooth f with f(0)=A, f(1)=B has full-convention sine coefficients
    q_k = 2A/(k pi) + 2B(-1)^(k+1)/(k pi) + O(k^-3); a least-squares fit of a
    tail window of coefficients against those two templates recovers (A, B).
    """
    lo, hi = window if window else (N // 2 + 1, N)
    k = np.arange(lo, hi + 1)
    t0 = 2.0 / (k * np.pi)
    t1 = 2.0 * np.where(k % 2 == 0, -1.0, 1.0) / (k * np.pi)
    X = np.stack([t0, t1], axis=1)
    pinv = np.linalg.pinv(X)
    return slice(lo - 1, hi), pinv


def sine_endpoint_values(q_hist: np.ndarray, window: Optional[Tuple[int, int]] = None):
    """Estimate (f(0,t), f(1,t)) from a sine-coefficient history (T, N).

    Term-by-term evaluation at the endpoints is identically zero for a sine
    series, so the endpoint values are read from the tail-coefficient jump
    templates instead (see ``_jump_fit_weights``); never from one-sided
    finite differences.
    """
    q_hist = np.atleast_2d(q_hist)
    N = q_hist.shape[1]
    sl, pinv = _jump_fit_weights(N, window)
    ab = q_hist[:, sl] @ pinv.T
    return ab[:, 0], ab[:, 1]


def sine_slope_sums(q_hist: np.ndarray):
    """Order-1 traces of a sine series: (sum k pi q_k, sum k pi cos(k pi) q_k).

    Term-by-term differentiation; divergence for incompatible data shows up as
    growth of the partial sums and is the caller's signal, not hidden here.
    """
    q_hist = np.atleast_2d(q_hist)
    N = q_hist.shape[1]
    k = np.arange(1, N + 1)
    kp = k * np.pi
    cos_kpi = np.where(k % 2 == 0, 1.0, -1.0)
    return q_hist @ kp, q_hist @ (kp * cos_kpi)
