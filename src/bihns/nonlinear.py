"""Picard iteration for the full nonlinear problem
i u_t + u_xxxx + lam |u|^(p-2) u = 0 on (0,1) with boundary data.

Two pipelines:

* hinged family ("navier"): homogenize the corner data with a stationary cubic
  gamma, then iterate v -> free flow + i Duhamel(nonlinearity(v + gamma))
  + boundary-kernel terms, in the sup-in-time truncated H^s metric;
* clamped family ("dirichlet"): write u = sum_i h_i(t) lift_i(x) +
  sum_j c_j(t) phi_j(x) with the four cubic lifts of the boundary data and
  the clamped eigenfunctions phi_j; the linear history is e^{i mu^4 t} c(0) -
  Duhamel(sum_i h_i' <lift_i, phi_j>), and c -> linear +
  i Duhamel(<nonlinearity(u), phi_j>) is iterated in the sup-in-time
  H^s-weighted eigen-coefficients.  One trapezoid grid on 4 max(N, K) + 1
  points carries every projection.

Existence time T* adapts by halving whenever ``max_iter`` iterations pass
without the Picard distance falling below ``tol``; the contraction factors
are recorded but do not steer the halving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, SINE, _sample, matmul_real,
                       mixed_state, reconstruct, sine_coefficients, sine_state,
                       sobolev_weights, uniform_grid)
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


@dataclass
class SolutionRecord:
    """Time-stamped solution with reconstruction helpers and diagnostics."""

    times: np.ndarray
    states: List[FourierState]          # hinged v, or clamped u on the mixed basis
    lift: Optional[Callable] = None     # stationary x-polynomial added back
    traces: Dict[str, np.ndarray] = field(default_factory=dict)
    tstar: float = 0.0
    contraction_factors: List[float] = field(default_factory=list)
    iterations: int = 0
    residual: float = float("nan")
    projection_residual: float = float("nan")

    def evaluate(self, j: int, x) -> np.ndarray:
        out = reconstruct(self.states[j], x)
        if self.lift is not None:
            out = out + self.lift(np.asarray(x, dtype=np.float64))
        return out


# ---------------------------------------------------------------------------
# homogenization


def homogenize_navier(h1_0: complex, h2_0: complex, h5_0: complex, h6_0: complex):
    """Stationary cubic carrying the four corner values.

    gamma(x) = (1-x)(h1(0)-h5(0)/6) + (1-x)^3 h5(0)/6
             + x (h2(0)-h6(0)/6) + x^3 h6(0)/6,
    so gamma(0)=h1(0), gamma''(0)=h5(0), gamma(1)=h2(0), gamma''(1)=h6(0) and
    gamma'''' = 0 (it drops out of the equation entirely).
    """
    def gamma(x, order: int = 0):
        x = np.asarray(x, dtype=np.float64)
        u = 1.0 - x
        if order == 0:
            return ((h1_0 - h5_0 / 6.0) * u + h5_0 / 6.0 * u ** 3
                    + (h2_0 - h6_0 / 6.0) * x + h6_0 / 6.0 * x ** 3)
        if order == 2:
            return h5_0 * u + h6_0 * x
        raise ValueError("only orders 0 and 2 are defined")
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


def _dealias_points(N: int, p: float, factor: Optional[int] = None) -> int:
    base = max(2, math.ceil(p / 2.0))
    return (factor if factor else base) * N + 1


def nonlinearity(state: FourierState, p: float, lam: float,
                 pad: Optional[int] = None) -> FourierState:
    """Collocation evaluation of lam |u|^(p-2) u projected back onto the basis.

    Synthesize on the shared grid of M >= ceil(p/2)*N + 1 intervals, apply the
    pointwise power (principal real power of |u|; u = 0 contributes 0),
    project with the trapezoid weights.  Exact modulo the padding rule for
    integer p.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    _, w, S, C = uniform_grid(state.N, _dealias_points(state.N, p, pad))
    u = matmul_real(state.q, S.T) + matmul_real(state.p, C.T) + state.p0
    mag = np.abs(u)
    with np.errstate(invalid="ignore"):
        vals = lam * np.where(mag > 0, mag ** (p - 2.0), 0.0) * u
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    vw = vals * w
    q = matmul_real(vw, S)
    if state.basis == SINE:
        return sine_state(2.0 * q, t=state.t)
    # mixed/cosine: half-weight extension convention (round-trips reconstruct)
    return mixed_state(q, matmul_real(vw, C), 0.5 * vw.sum(), t=state.t)


def _nonlin_sine_history(v_hist: np.ndarray, gamma_vals: Optional[np.ndarray],
                         p: float, lam: float, N: int) -> np.ndarray:
    """Vectorized sine-projected nonlinearity along a coefficient history.

    ``v_hist``: (T, N) sine coefficients; ``gamma_vals``: optional stationary
    values on the shared grid, added before the pointwise power.
    """
    _, w, S, _ = uniform_grid(N, _dealias_points(N, p))
    u = matmul_real(v_hist, S.T)                             # (T, M+1)
    if gamma_vals is not None:
        u += gamma_vals
    fac = np.abs(u)                        # p >= 3 keeps 0 ** (p-2) = 0
    fac **= p - 2.0
    fac *= lam
    u *= fac
    if not np.all(np.isfinite(u.view(np.float64))):
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    u *= 2.0 * w
    return matmul_real(u, S)


# ---------------------------------------------------------------------------
# hinged Picard pipeline


def _grid(T: float, dt: float) -> np.ndarray:
    n = max(2, int(math.ceil(T / dt)) + 1)
    return np.linspace(0.0, T, n)


def _hs_dist(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    d = np.abs(a - b) ** 2 @ w
    return float(np.sqrt(d.max()))


def picard_navier(spec: ProblemSpec) -> SolutionRecord:
    """Contraction iteration for the hinged family; returns v + gamma data.

    The record's states are the homogenized unknown v (sine basis); the
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
    wgt = sobolev_weights(N, spec.s)
    gamma_vals = (gamma(uniform_grid(N, _dealias_points(N, spec.p))[0])
                  if any(abs(c) > 0 for c in corner) else None)

    T_star = min(spec.T, 1.0)
    while True:
        times = _grid(T_star, spec.dt)
        lin = phi_v[None, :] * np.exp(1j * np.outer(times, omegas))
        lin += bops.navier_boundary_history(*ht, times, N)

        v = lin
        factors: List[float] = []
        converged = False
        last_dist = None
        for it in range(1, spec.max_iter + 1):
            if spec.lam == 0:
                v_new = lin
            else:
                nl = _nonlin_sine_history(v, gamma_vals, spec.p, spec.lam, N)
                F = lf.ForcingHistory(times, nl, omegas)
                v_new = lin + 1j * lf.duhamel_history(F)
            dist = _hs_dist(v_new, v, wgt)
            if last_dist is not None and last_dist > 0:
                factors.append(dist / last_dist)
            last_dist = dist
            v = v_new
            if dist < spec.tol:
                converged = True
                break
        if converged:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError(
                "no contraction: T* underflowed below dt "
                f"(data norm r={np.sqrt(np.abs(phi_v)**2 @ wgt):.3e})")

    # fixed-point residual (one more application of the map)
    if spec.lam == 0:
        residual = 0.0
    else:
        nl = _nonlin_sine_history(v, gamma_vals, spec.p, spec.lam, N)
        F = lf.ForcingHistory(times, nl, omegas)
        residual = _hs_dist(lin + 1j * lf.duhamel_history(F), v, wgt)

    states = [sine_state(v[j], t=times[j]) for j in range(len(times))]
    lift = (lambda x: gamma(x)) if gamma_vals is not None else None
    tr0, tr1 = bops.sine_endpoint_values(v)
    return SolutionRecord(times=times, states=states, lift=lift,
                          traces={"u0": tr0 + (gamma(0.0) if lift else 0.0),
                                  "u1": tr1 + (gamma(1.0) if lift else 0.0)},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it, residual=residual)


# ---------------------------------------------------------------------------
# clamped Picard pipeline


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
    wgt = (1.0 + basis.mu ** 2) ** spec.s

    T_star = min(spec.T, 1.0)
    while True:
        times = _grid(T_star, spec.dt)
        vals, lift, a, c_b = bops.clamped_lift_response(*hs, times, basis, x, wq)
        c0 = c_phi - vals[0] @ a
        lin = c0 * np.exp(1j * np.outer(times, basis.eigenvalues)) + c_b
        u_b = vals @ lift                                  # (T, M+1)

        c = lin
        factors: List[float] = []
        last_dist = None
        proj_res = 0.0
        it = 0
        converged = spec.lam == 0
        while not converged and it < spec.max_iter:
            it += 1
            u = u_b + c @ phi_x
            nl = spec.lam * np.abs(u) ** (spec.p - 2.0) * u   # p >= 3: 0 ** (p-2) = 0
            if not np.all(np.isfinite(nl.view(np.float64))):
                raise OverflowError("nonlinearity overflow: blow-up candidate")
            nl_c = (nl * wq) @ phi_x.T                     # clamped projection
            denom = np.abs(nl).max()
            proj_res = (float(np.abs(nl - nl_c @ phi_x).max() / denom)
                        if denom > 0 else 0.0)
            F = lf.ForcingHistory(times, nl_c, basis.eigenvalues)
            c_new = lin + 1j * lf.duhamel_history(F)
            dist = _hs_dist(c_new, c, wgt)
            if last_dist is not None and last_dist > 0:
                factors.append(dist / last_dist)
            last_dist = dist
            c = c_new
            converged = dist < spec.tol
        if converged:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError("no contraction: T* underflowed below dt")

    q, p, p0 = bops.clamped_mixed_history(vals, c, phi_x, wq, S, C)
    states = [mixed_state(q[j], p[j], p0[j], t=times[j]) for j in range(len(times))]
    cos_kpi = np.where(np.arange(1, N + 1) % 2 == 0, 1.0, -1.0)
    return SolutionRecord(times=times, states=states, lift=None,
                          traces={"u0": 2.0 * (p0 + p.sum(axis=1)),
                                  "u1": 2.0 * (p0 + p @ cos_kpi)},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it,
                          residual=last_dist if last_dist is not None else 0.0,
                          projection_residual=proj_res)
