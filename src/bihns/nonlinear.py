"""Picard iteration for the full nonlinear problem
i u_t + u_xxxx + lam |u|^(p-2) u = 0 on (0,1) with boundary data.

One driver, ``_picard``, iterates v -> lin + i Duhamel(forcing(v)) in the
sup-in-time H^s-weighted mode coefficients; each family supplies its linear
history ``lin`` and ``forcing``, the mode coefficients of the nonlinearity:

* hinged family ("navier"): homogenize the corner data with a stationary cubic
  gamma; lin is the free sine flow plus the boundary-kernel terms, forcing the
  sine projection of the nonlinearity of v + gamma;
* clamped family ("dirichlet"): write u = sum_i h_i(t) lift_i(x) +
  sum_j c_j(t) phi_j(x) with the four cubic lifts of the boundary data and
  the clamped eigenfunctions phi_j; lin is e^{i mu^4 t} c(0) -
  Duhamel(sum_i h_i' <lift_i, phi_j>), forcing <nonlinearity(u), phi_j>.
  One trapezoid grid on 4 max(N, K) + 1 points carries every projection.

One pointwise kernel, ``_power``, evaluates the nonlinearity for both.  T*
halves whenever ``max_iter`` iterations leave the Picard distance above
``tol``.  The fixed-point residual is, hinged, the distance after one more
application of the map and, clamped, the last Picard distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, _sample, matmul_real,
                       mixed_state, reconstruct, sine_coefficients, sine_grid,
                       sine_state, sobolev_weights)
# unused here; kept because bench/tracing.py wraps nonlinear.odd_even_extend
from .spectral import odd_even_extend

NAVIER = "navier"
DIRICHLET = "dirichlet"

DIRICHLET_S_MIN = 10.0 / 7.0
DIRICHLET_S_MAX = 4.5
NAVIER_S_MIN = 0.5
NAVIER_S_MAX = 4.5


def _is_half_integer(s: float, tol: float = 1e-12) -> bool:
    return abs(s - (math.floor(s) + 0.5)) < tol


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description; validation happens at construction."""

    family: str
    s: float
    p: float = 3.0
    lam: float = 1.0
    T: float = 0.01
    phi: Optional[Callable] = None          # initial data on (0,1)
    h1: BoundaryTrace = field(default_factory=BoundaryTrace.zero)
    h2: BoundaryTrace = field(default_factory=BoundaryTrace.zero)
    h3: BoundaryTrace = field(default_factory=BoundaryTrace.zero)  # clamped slope at 0
    h4: BoundaryTrace = field(default_factory=BoundaryTrace.zero)  # clamped slope at 1
    h5: BoundaryTrace = field(default_factory=BoundaryTrace.zero)  # hinged curvature at 0
    h6: BoundaryTrace = field(default_factory=BoundaryTrace.zero)  # hinged curvature at 1
    N: int = 128
    dt: float = 1e-4
    tol: float = 1e-8
    max_iter: int = 25
    K_clamped: int = 32

    def __post_init__(self):
        if self.family not in (NAVIER, DIRICHLET):
            raise ValueError(f"unknown boundary family {self.family!r}")
        s, p = float(self.s), float(self.p)
        if _is_half_integer(s):
            raise ValueError(
                f"s={s} excluded: s != n+1/2 (trace-exception exponents)")
        if self.family == NAVIER:
            if not (NAVIER_S_MIN < s < NAVIER_S_MAX):
                raise ValueError(
                    f"hinged family requires 1/2 < s < 9/2 (got s={s})")
        else:
            if not (DIRICHLET_S_MIN < s <= DIRICHLET_S_MAX):
                raise ValueError(
                    f"clamped family requires s > 10/7 (and s <= 9/2); got s={s}")
        if p < 3:
            raise ValueError("need nonlinearity power p >= 3")
        # the differentiability requirement on |u|^(p-2)u bites once the
        # norm sees a genuine derivative of the nonlinearity, i.e. s > 1
        if s > 1 and not (math.floor(s) < p - 2):
            raise ValueError(
                f"need floor(s) < p-2 for a differentiable nonlinearity (s={s}, p={p})")
        if self.N < 1 or self.T <= 0 or self.dt <= 0 or self.tol <= 0:
            raise ValueError("N, T, dt, tol must be positive")
        if self.max_iter < 1 or self.K_clamped < 1:
            raise ValueError("max_iter and K_clamped must be >= 1")
        for h in (self.h1, self.h2, self.h3, self.h4, self.h5, self.h6):
            # _shifted takes h(0) to be the first sample; past the last one
            # the interpolant would hold it constant
            if h.sample_t is not None and not (
                    h.sample_t[0] == 0 and h.sample_t[-1] >= min(self.T, 1.0)):
                raise ValueError("sampled traces must cover [0, min(T, 1)]")


@dataclass
class SolutionRecord:
    """Time-stamped solution as coefficient arrays, with diagnostics.

    Row j of the read-only arrays is the state at ``times[j]``: the hinged
    record holds the sine coefficients ``q`` (T, N) of v; the clamped record
    holds u on the half-weight mixed basis, ``q`` and ``p`` (T, N) and the
    constant mode ``p0`` (T,).  ``states`` builds ``FourierState``s from the
    rows on demand and ``norms`` gives the whole H^s history in one pass.
    Non-finite coefficients raise ``ValueError`` at construction.
    """

    times: np.ndarray
    q: np.ndarray
    p: Optional[np.ndarray] = None
    p0: Optional[np.ndarray] = None
    lift: Optional[Callable] = None     # stationary x-polynomial added back
    traces: Dict[str, np.ndarray] = field(default_factory=dict)
    tstar: float = 0.0
    contraction_factors: List[float] = field(default_factory=list)
    iterations: int = 0
    residual: float = float("nan")

    def __post_init__(self):
        names = ("q",) if self.p is None else ("q", "p", "p0")
        for name in names:
            view = getattr(self, name).view()
            view.flags.writeable = False
            setattr(self, name, view)
        if not all(np.isfinite(getattr(self, name)).all() for name in names):
            raise ValueError("non-finite coefficients rejected")

    def _state(self, j: int) -> FourierState:
        if self.p is None:
            return sine_state(self.q[j], t=self.times[j])
        return mixed_state(self.q[j], self.p[j], self.p0[j], t=self.times[j])

    @property
    def states(self) -> List[FourierState]:
        """One read-only ``FourierState`` per time node, built on each access."""
        return [self._state(j) for j in range(len(self.times))]

    def norms(self, s: float) -> np.ndarray:
        """(T,) truncated H^s norms, bit-identical to ``sobolev_norm`` per state.

        Elementwise squares, weights and a pairwise ``sum`` per row keep the
        per-state summation order (a BLAS ``@ w`` would not).  The constant
        mode stays the scalar ``abs(p0) ** 2``: numpy's complex abs and its
        x*x square each differ from it by an ulp on some rows.
        """
        w = sobolev_weights(self.q.shape[1], float(s))
        if self.p is None:
            return np.sqrt((w * np.abs(self.q) ** 2).sum(axis=1))
        mean_sq = np.array([abs(z) ** 2 for z in self.p0.tolist()])
        return np.sqrt(mean_sq + (w * (np.abs(self.q) ** 2
                                       + np.abs(self.p) ** 2)).sum(axis=1))

    def evaluate(self, j: int, x) -> np.ndarray:
        out = reconstruct(self._state(j), x)
        if self.lift is not None:
            out = out + self.lift(np.asarray(x, dtype=np.float64))
        return out


# ---------------------------------------------------------------------------
# homogenization


def homogenize_navier(h1_0: complex, h2_0: complex, h5_0: complex, h6_0: complex):
    """Stationary cubic carrying the four corner values.

    gamma(x) = navier_lift(h1(0), h5(0), 1-x) + navier_lift(h2(0), h6(0), x),
    so gamma(0)=h1(0), gamma''(0)=h5(0), gamma(1)=h2(0), gamma''(1)=h6(0) and
    gamma'''' = 0 (it drops out of the equation entirely).
    """
    def gamma(x):
        return bops.navier_lift(h1_0, h5_0, 1.0 - x) + bops.navier_lift(h2_0, h6_0, x)
    return gamma


def _shifted(h: BoundaryTrace) -> BoundaryTrace:
    """h(t) - h(0): subtract the corner value so the trace is compatible."""
    if np.any(h.a != 0):
        h0 = complex(np.sum(h.a))
        if 0 in h.n:
            a = h.a.copy()
            a[np.searchsorted(h.n, 0)] -= h0
            return BoundaryTrace(h.n, a)
        return BoundaryTrace(np.concatenate((h.n, [0])),
                             np.concatenate((h.a, [-h0])))
    if h.sample_t is not None:
        return BoundaryTrace(h.n, h.a, sample_t=h.sample_t,
                             sample_h=h.sample_h - h.sample_h[0])
    return h


# ---------------------------------------------------------------------------
# pseudo-spectral nonlinearity


def _dealias_points(N: int, p: float) -> int:
    return max(2, math.ceil(p / 2.0)) * N + 1


def _power(u: np.ndarray, p: float, lam: float) -> np.ndarray:
    """lam |u|^(p-2) u in place on grid values ``u`` (p >= 3 keeps
    0 ** (p-2) = 0); a non-finite value raises ``OverflowError``."""
    with np.errstate(over="ignore", invalid="ignore"):
        fac = np.abs(u)
        fac **= p - 2.0
        fac *= lam
        u *= fac
    if not np.all(np.isfinite(u.view(np.float64))):
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    return u


def _nonlin_sine_history(v_hist: np.ndarray, gamma_vals: Optional[np.ndarray],
                         p: float, lam: float, N: int) -> np.ndarray:
    """Sine coefficients of lam |u|^(p-2) u along a coefficient history.

    ``v_hist``: (T, N) sine coefficients; ``gamma_vals``: optional stationary
    values on the shared grid, added before the pointwise power.  Synthesis
    and projection run on the grid of ``_dealias_points`` intervals, exact
    modulo the padding rule for integer p.
    """
    _, w, S = sine_grid(N, _dealias_points(N, p))
    u = matmul_real(v_hist, S.T)                             # (T, M+1)
    if gamma_vals is not None:
        u += gamma_vals
    _power(u, p, lam)
    u *= 2.0 * w
    return matmul_real(u, S)


# ---------------------------------------------------------------------------
# Picard iteration: one driver, two families


def _hs_dist(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    d = np.abs(a - b) ** 2 @ w
    return float(np.sqrt(d.max()))


def _picard(spec: ProblemSpec, omegas: np.ndarray, wgt: np.ndarray, attempt):
    """Iterate v -> lin + i Duhamel(forcing(v)) on the modes ``omegas``.

    ``attempt(times)`` gives the family's (T, K) linear history ``lin`` and
    ``forcing(v)``; distances are sup-in-time with the H^s weights ``wgt``.
    T* starts at min(T, 1) and halves until the iteration converges; below dt
    it raises ``RuntimeError`` with the data norm of ``lin[0]``.  lam = 0
    takes zero iterations.  Returns (times, v, T*, contraction factors,
    iterations, residual); the residual is 0 for lam = 0, else the hinged
    distance after one more map application or the clamped last distance.
    """
    T_star = min(spec.T, 1.0)
    while True:
        times = np.linspace(0.0, T_star, max(2, math.ceil(T_star / spec.dt) + 1))
        lin, forcing = attempt(times)

        def step(v):
            F = lf.ForcingHistory(times, forcing(v), omegas)
            return lin + 1j * lf.duhamel_history(F)

        v, factors, dist, it = lin, [], None, 0
        converged = spec.lam == 0
        while not converged and it < spec.max_iter:
            it += 1
            v_new = step(v)
            d = _hs_dist(v_new, v, wgt)
            if dist is not None and dist > 0:
                factors.append(d / dist)
            dist, v = d, v_new
            converged = d < spec.tol
        if converged:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError(
                "no contraction: T* underflowed below dt "
                f"(data norm r={np.sqrt(np.abs(lin[0])**2 @ wgt):.3e})")

    if spec.lam == 0:
        residual = 0.0
    elif spec.family == NAVIER:
        residual = _hs_dist(step(v), v, wgt)
    else:
        residual = dist
    return times, v, T_star, factors, it, residual


def picard_navier(spec: ProblemSpec) -> SolutionRecord:
    """Contraction iteration for the hinged family; returns v + gamma data.

    The record's rows ``q`` are the homogenized unknown v (sine basis); the
    stationary corner polynomial gamma is attached as ``record.lift`` so that
    ``record.evaluate`` reproduces u = v + gamma.
    """
    if spec.family != NAVIER:
        raise ValueError("spec is not a hinged-family problem")
    N = spec.N
    corner = [complex(h(0.0)) for h in (spec.h1, spec.h2, spec.h5, spec.h6)]
    gamma = homogenize_navier(*corner)
    ht = [_shifted(h) for h in (spec.h1, spec.h2, spec.h5, spec.h6)]

    if spec.phi is not None:
        phi_v = sine_coefficients(
            lambda x: np.asarray(spec.phi(x), dtype=np.complex128) - gamma(x), N).q
    else:
        phi_v = (-sine_coefficients(lambda x: gamma(x), N).q
                 if any(abs(c) > 0 for c in corner)
                 else np.zeros(N, dtype=np.complex128))

    omegas = lf.navier_eigenvalues(N)
    gamma_vals = (gamma(sine_grid(N, _dealias_points(N, spec.p))[0])
                  if any(abs(c) > 0 for c in corner) else None)

    def forcing(v):
        return _nonlin_sine_history(v, gamma_vals, spec.p, spec.lam, N)

    def attempt(times):
        # the table e^{i w t} feeds the boundary convolutions first and then
        # holds the free flow in place, so no second (T, N) table stays alive
        phase = np.exp(1j * np.outer(times, omegas))
        bnd = bops.navier_boundary_history(*ht, times, N, phase)
        lin = np.multiply(phi_v, phase, out=phase)
        lin += bnd
        return lin, forcing

    times, v, T_star, factors, it, residual = _picard(
        spec, omegas, sobolev_weights(N, spec.s), attempt)
    lift = (lambda x: gamma(x)) if gamma_vals is not None else None
    tr0, tr1 = bops.sine_endpoint_values(v)
    return SolutionRecord(times=times, q=v, lift=lift,
                          traces={"u0": tr0 + (gamma(0.0) if lift else 0.0),
                                  "u1": tr1 + (gamma(1.0) if lift else 0.0)},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it, residual=residual)


def picard_dirichlet(spec: ProblemSpec) -> SolutionRecord:
    """Clamped-family pipeline on cubic lifts plus the clamped eigenbasis.

    u = sum_i h_i(t) lift_i(x) + sum_j c_j(t) phi_j(x) (see module docstring);
    the record holds u projected once onto the half-weight mixed basis.
    """
    if spec.family != DIRICHLET:
        raise ValueError("spec is not a clamped-family problem")
    N, K = spec.N, spec.K_clamped
    basis = lf.build_clamped_basis(K)
    x, wq, S, C = bops.clamped_grid(N, K)
    phi_x = basis.evaluate(x)                              # (K, M+1)
    c_phi = (phi_x @ (wq * _sample(spec.phi, len(x) - 1)[1])
             if spec.phi is not None else np.zeros(K, dtype=np.complex128))
    hs = (spec.h1, spec.h2, spec.h3, spec.h4)
    vals = None                                            # lift values h_i(t)

    def attempt(times):
        nonlocal vals
        vals, lift, a, c_b = bops.clamped_lift_response(*hs, times, basis, x, wq)
        c0 = c_phi - vals[0] @ a
        lin = c0 * np.exp(1j * np.outer(times, basis.eigenvalues)) + c_b
        u_b = vals @ lift                                  # (T, M+1)

        def forcing(c):                                    # clamped projection
            return (_power(u_b + c @ phi_x, spec.p, spec.lam) * wq) @ phi_x.T
        return lin, forcing

    times, c, T_star, factors, it, residual = _picard(
        spec, basis.eigenvalues, (1.0 + basis.mu ** 2) ** spec.s, attempt)
    q, p, p0 = bops.clamped_mixed_history(vals, c, phi_x, wq, S, C)
    cos_kpi = np.where(np.arange(1, N + 1) % 2 == 0, 1.0, -1.0)
    return SolutionRecord(times=times, q=q, p=p, p0=p0,
                          traces={"u0": 2.0 * (p0 + p.sum(axis=1)),
                                  "u1": 2.0 * (p0 + p @ cos_kpi)},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it, residual=residual)
