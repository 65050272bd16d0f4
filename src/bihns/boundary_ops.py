"""Boundary-to-interior convolutions, lifts and trace series.

Both solver families write the solution as lifts of the boundary data plus a
part with homogeneous boundary conditions,

    u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) e_k(x),

with e_k the sine modes (hinged) or the clamped eigenfunctions (clamped), so
the data are attained identically.  The families differ only in the basis,
its eigenvalues and the four lift rows: ``navier_lifts`` for (h1, h2, h5, h6)
with the closed-form sine coefficients ``navier_lift_coeffs``, and
``dirichlet_lifts`` for (h1, h2, h3, h4), projected by quadrature.
``lift_data`` gives the data h_i and slopes h_i' on a time grid, from which
``nonlinear._picard`` makes the linear history of c.  The solvers record c;
``clamped_mixed_history`` projects a clamped history onto the half-weight
mixed basis by Gauss-Legendre quadrature on the nodes of
``spectral.gauss_grid``, for the clamped record's ``states`` view and
``dirichlet_linear_history`` alone.

The closed-form convolution weights of the boundary data stay as the
reference of that route, exact in time for lattice-series data:

* hinged family: weights 2i(k pi)^3 (value data) and -2i k pi (second
  derivative data) -- see ``BetaTable.navier0/navier2`` and
  ``navier_boundary_history``;
* clamped family: the reference beta coefficients b01, b02 (value data ->
  sine/cosine parts) and b11, b12 (first-derivative data) of ``BetaTable``.

Each family has one lift, written in y with y = 1 at the end that carries the
data: y = 1 - x for data at x = 0 and y = x for data at x = 1.

Note on orientation: integrating int_0^1 u_xxxx sin(k pi x) dx by parts gives
the mode ODE  i q_k' + (k pi)^4 q_k = 2(k pi)^3 (h1 - cos(k pi) h2)
- 2 k pi (h5 - cos(k pi) h6), so the *assembled* hinged solution carries an
extra global minus relative to the raw navier0/navier2 table weights;
``navier_boundary_history`` applies it.

Note on b02: ``BetaTable`` keeps the reference closed form 12i(k pi - 1)
verbatim for the bit-exactness check; the cosine coefficient of the clamped
value lift is 12(1 - cos k pi)/(k pi)^4 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .spectral import BoundaryTrace, FourierState, TRACE_FREQ, gauss_grid
from .linear_flow import (ForcingHistory, build_clamped_basis,
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


# ---------------------------------------------------------------------------
# convolution cores


def convolve_series(omegas: np.ndarray, h: BoundaryTrace, times: np.ndarray) -> np.ndarray:
    """Exact I[j,k] = int_0^{t_j} e^{i w_k (t-tau)} h(tau) dtau for a lattice series.

    Per frequency n pi^4: (e^{i n pi^4 t} - e^{i w t}) / (i (n pi^4 - w)),
    with the resonant limit t e^{i w t} when n pi^4 == w.
    """
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    freqs = h.n.astype(np.float64) * TRACE_FREQ
    a = np.asarray(h.a, dtype=np.complex128)
    diff = freqs[:, None] - omegas[None, :]                 # (M, K)
    res = np.abs(diff) <= 1e-9 * (1.0 + np.abs(omegas))
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


def boundary_convolution(h: BoundaryTrace, times: np.ndarray, N: int) -> np.ndarray:
    """Shared I[j,k] = int_0^{t_j} e^{i(k pi)^4 (t-tau)} h(tau) dtau, k = 1..N.

    Uses the piecewise-linear route for a sampled trace, else the exact
    lattice-series route (a zero series gives zeros).
    """
    omegas = navier_eigenvalues(N)
    if h.sample_t is None:
        return convolve_series(omegas, h, times)
    times = np.asarray(times, dtype=np.float64)
    coeffs = np.repeat(h(times)[:, None], len(omegas), axis=1)
    return duhamel_history(ForcingHistory(times, coeffs, omegas))


# ---------------------------------------------------------------------------
# the hinged boundary history in closed form


def navier_boundary_history(h1: BoundaryTrace, h2: BoundaryTrace,
                            h5: BoundaryTrace, h6: BoundaryTrace,
                            times: np.ndarray, N: int) -> np.ndarray:
    """Sine-coefficient history of the hinged solution driven by boundary data.

    Mode ODE: i q_k' + (k pi)^4 q_k = 2(k pi)^3 (h1 - cos(k pi) h2)
    - 2 k pi (h5 - cos(k pi) h6); the Duhamel prefactor -i turns the table
    weights into -2i(k pi)^3 and +2i k pi (the global orientation fix).
    The solver takes the lift route instead; this exact-in-time convolution
    is its reference.
    """
    table = build_beta_table(N)
    k = np.arange(1, N + 1)
    ref = np.where(k % 2 == 0, -1.0, 1.0)  # (-1)^(k+1), reflection x -> 1-x
    out = np.zeros((len(times), N), dtype=np.complex128)
    for h, w in ((h1, -table.navier0), (h2, -ref * table.navier0),
                 (h5, -table.navier2), (h6, -ref * table.navier2)):
        if h.active:
            out += boundary_convolution(h, times, N) * w
    return out


# ---------------------------------------------------------------------------
# lifts (y = 1 - x for data at x = 0, y = x for data at x = 1)


def navier_lift(h1, h5, y):
    """Hinged lift (h1 - h5/6) y + (h5/6) y^3: value h1 and curvature h5 at
    y = 1, value and curvature 0 at y = 0."""
    return (h1 - h5 / 6.0) * y + (h5 / 6.0) * y ** 3


def dirichlet_lift(h1, h3, y):
    """Clamped lift (3 h1 + h3) y^2 - (2 h1 + h3) y^3: value h1 and slope
    d/dy = -h3 at y = 1 (so d/dx = h3 at x = 0 for y = 1 - x), value and
    slope 0 at y = 0."""
    return (3 * h1 + h3) * y ** 2 - (2 * h1 + h3) * y ** 3


def navier_lifts(x):
    """The four hinged lift rows (4, len(x)) for data (h1, h2, h5, h6):
    ``navier_lift`` of unit data at x = 0 (y = 1 - x) and at x = 1 (y = x)."""
    return np.stack((navier_lift(1, 0, 1.0 - x), navier_lift(1, 0, x),
                     navier_lift(0, 1, 1.0 - x), navier_lift(0, 1, x)))


def navier_lift_coeffs(N: int) -> np.ndarray:
    """Closed-form full sine coefficients 2 int_0^1 lift_i sin(k pi x) dx,
    (4, N), of the rows of ``navier_lifts``.

    A trapezoid projection would not do: lift_i sin(k pi x) has a nonzero
    slope at the ends, so the rule errs by O(k pi lift_i(0) / M^2).
    """
    k = np.arange(1, N + 1)
    kp = k * np.pi
    ref = np.where(k % 2 == 0, -1.0, 1.0)       # (-1)^(k+1)
    value, curv = 2.0 / kp, -2.0 / kp ** 3
    return np.stack((value, ref * value, curv, ref * curv))


def dirichlet_lifts(x):
    """The four clamped lift rows (4, len(x)) for data (h1, h2, h3, h4); the
    h4 row is the mirrored slope lift with a minus, so d/dx = +h4 at x = 1."""
    u = 1.0 - x
    return np.stack((dirichlet_lift(1, 0, u), dirichlet_lift(1, 0, x),
                     dirichlet_lift(0, 1, u), -dirichlet_lift(0, 1, x)))


def lift_data(hs, times: np.ndarray):
    """(vals, slopes): the data h_i(t_j) and their slopes h_i'(t_j), (T, 4)
    each, of the four traces ``hs`` on ``times``; inactive data give zeros."""
    times = np.asarray(times, dtype=np.float64)
    vals = np.zeros((len(times), 4), dtype=np.complex128)
    slopes = np.zeros_like(vals)
    for i, h in enumerate(hs):
        if h.active:
            vals[:, i] = h(times)
            slopes[:, i] = h.derivative()(times)
    return vals, slopes


def clamped_mixed_history(vals: np.ndarray, c: np.ndarray, lifts: np.ndarray,
                          phi: np.ndarray, w: np.ndarray, S: np.ndarray,
                          C: np.ndarray):
    """Half-weight mixed (q, p, p0) histories of u = vals @ lifts + c @ phi,
    with ``lifts`` (4, n) and ``phi`` (K, n) on the nodes of ``gauss_grid``:
    q = (u w) @ S, p = (u w) @ C and p0 = sum(u w) / 2."""
    coef = np.concatenate((vals, c), axis=1)
    rows = np.concatenate((lifts, phi)) * w
    return coef @ (rows @ S), coef @ (rows @ C), 0.5 * (coef @ rows.sum(axis=1))


def dirichlet_linear_history(h1: BoundaryTrace, h2: BoundaryTrace,
                             h3: BoundaryTrace, h4: BoundaryTrace,
                             times: np.ndarray, N: int, K: int = 48):
    """Mixed-basis history of the clamped solution driven by boundary data.

    The coefficients on the cubic lifts plus the clamped eigenbasis are the
    start iterate of the nonlinear solve (``nonlinear._picard``) at a zero
    datum: one Duhamel pass from -h(0) @ a over the slope forcing
    -sum_i h_i' a_i.  They are projected onto the half-weight mixed basis;
    boundary-value extraction from that is Gibbs-limited in N by design.

    Returns (q, p, p0) histories shaped (len(times), N) / (len(times),).
    """
    basis = build_clamped_basis(K)
    x, w, S, C = gauss_grid(N, K)
    lifts, phi = dirichlet_lifts(x), basis.evaluate(x)
    a = (lifts * w) @ phi.T
    vals, slopes = lift_data((h1, h2, h3, h4), times)
    F = ForcingHistory(times, slopes @ -a, basis.eigenvalues)
    c = duhamel_history(F, -vals[0] @ a, out=F.coeffs)
    return clamped_mixed_history(vals, c, lifts, phi, w, S, C)


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


def _jump_fit_weights(N: int):
    """Normal-equation solve for the endpoint values of a sine series.

    Smooth f with f(0)=A, f(1)=B has full-convention sine coefficients
    q_k = 2A/(k pi) + 2B(-1)^(k+1)/(k pi) + O(k^-3); a least-squares fit of
    the upper half of the coefficients against those two templates recovers
    (A, B).
    """
    lo, hi = N // 2 + 1, N
    k = np.arange(lo, hi + 1)
    t0 = 2.0 / (k * np.pi)
    t1 = 2.0 * np.where(k % 2 == 0, -1.0, 1.0) / (k * np.pi)
    X = np.stack([t0, t1], axis=1)
    pinv = np.linalg.pinv(X)
    return slice(lo - 1, hi), pinv


def sine_endpoint_values(q_hist: np.ndarray):
    """Estimate (f(0,t), f(1,t)) from a sine-coefficient history (T, N).

    Term-by-term evaluation at the endpoints is identically zero for a sine
    series, so the endpoint values are read from the tail-coefficient jump
    templates instead (see ``_jump_fit_weights``); never from one-sided
    finite differences.
    """
    q_hist = np.atleast_2d(q_hist)
    N = q_hist.shape[1]
    sl, pinv = _jump_fit_weights(N)
    ab = q_hist[:, sl] @ pinv.T
    return ab[:, 0], ab[:, 1]
