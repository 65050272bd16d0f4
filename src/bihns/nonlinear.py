"""Picard iteration for the full nonlinear problem
i u_t + u_xxxx + lam |u|^(p-2) u = 0 on (0,1) with boundary data.

Two pipelines:

* hinged family ("navier"): homogenize the corner data with a stationary cubic
  gamma, then iterate v -> free flow + i Duhamel(nonlinearity(v + gamma))
  + boundary-kernel terms, in the sup-in-time truncated H^s metric;
* clamped family ("dirichlet"): split off u = u_o + u_e (periodic flow of the
  odd/even split), correct the boundary mismatch with the clamped-family
  kernels on h_i - r_i, and iterate the remainder w in the clamped eigenbasis.

Existence time T* adapts by halving whenever ``max_iter`` iterations pass
without the Picard distance falling below ``tol``; the contraction factors
are recorded but do not steer the halving.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, SINE, mixed_state,
                       odd_even_extend, reconstruct, sine_coefficients,
                       sine_state, sobolev_weights, zero_state)

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
    metric: str = "hs"  # "hs" or the experimental discrete "l4"

    def __post_init__(self):
        if self.family not in (NAVIER, DIRICHLET):
            raise ValueError(f"unknown boundary family {self.family!r}")
        s, p = float(self.s), float(self.p)
        if _is_half_integer(s):
            raise ValueError(
                f"s={s} excluded: s != n+1/2 (trace-exception exponents)")
        if self.family == NAVIER:
            if self.metric == "l4":
                if not (0.0 <= s < 0.5):
                    raise ValueError("the l4 experimental metric is for s in [0, 1/2)")
            elif not (NAVIER_S_MIN < s < NAVIER_S_MAX):
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
    states: List[FourierState]          # the spectral part (v or u_o+u_e+v+w)
    lift: Optional[Callable] = None     # stationary x-polynomial added back
    traces: Dict[str, np.ndarray] = field(default_factory=dict)
    tstar: float = 0.0
    contraction_factors: List[float] = field(default_factory=list)
    iterations: int = 0
    residual: float = float("nan")
    mode_residual: float = float("nan")
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

    Reconstruct on M >= ceil(p/2)*N + 1 intervals, apply the pointwise power
    (principal real power of |u|; u = 0 contributes 0), project with the
    shared trapezoid transform.  Exact modulo the padding rule for integer p.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    M = _dealias_points(state.N, p, pad)
    x = np.linspace(0.0, 1.0, M + 1)
    u = reconstruct(state, x)
    mag = np.abs(u)
    with np.errstate(invalid="ignore"):
        vals = lam * np.where(mag > 0, mag ** (p - 2.0), 0.0) * u
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    k = np.arange(1, state.N + 1)
    arg = np.pi * np.outer(k, x)
    h = x[1] - x[0]

    def trap(rows):
        return h * (rows[:, 1:-1].sum(axis=1) + 0.5 * (rows[:, 0] + rows[:, -1]))

    if state.basis == SINE:
        q = 2.0 * trap(np.sin(arg) * vals)
        return sine_state(q, t=state.t)
    # mixed/cosine: half-weight extension convention (round-trips reconstruct)
    q = trap(np.sin(arg) * vals)
    pcoef = trap(np.cos(arg) * vals)
    p0 = 0.5 * h * (vals[1:-1].sum() + 0.5 * (vals[0] + vals[-1]))
    return mixed_state(q, pcoef, p0, t=state.t)


@functools.lru_cache(maxsize=8)
def _sine_transform(N: int, M: int):
    """Read-only (M+1, N) sine matrix on M intervals and twice its trapezoid weights."""
    x = np.linspace(0.0, 1.0, M + 1)
    k = np.arange(1, N + 1)
    S = np.sin(np.pi * np.outer(x, k))
    h = x[1] - x[0]
    w2 = np.full(M + 1, 2.0 * h)
    w2[0] = w2[-1] = h
    S.flags.writeable = False
    w2.flags.writeable = False
    return S, w2


def _nonlin_sine_history(v_hist: np.ndarray, gamma_vals: Optional[np.ndarray],
                         p: float, lam: float, N: int) -> np.ndarray:
    """Vectorized sine-projected nonlinearity along a coefficient history.

    ``v_hist``: (T, N) sine coefficients; ``gamma_vals``: optional stationary
    grid values added before the pointwise power.  The sine matrix is real, so
    both transforms run as one real product on the stacked (re; im) rows.
    """
    S, w2 = _sine_transform(N, _dealias_points(N, p))
    T = len(v_hist)
    u = np.concatenate((v_hist.real, v_hist.imag)) @ S.T     # (2T, M+1)
    re, im = u[:T], u[T:]
    if gamma_vals is not None:
        re += gamma_vals.real
        im += gamma_vals.imag
    fac = np.hypot(re, im)                 # |u|; p >= 3 keeps 0 ** (p-2) = 0
    fac **= p - 2.0
    fac *= lam
    re *= fac
    im *= fac
    if not np.all(np.isfinite(u)):
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    u *= w2
    q = u @ S                                                 # (2T, N)
    out = np.empty((T, N), dtype=np.complex128)
    out.real, out.imag = q[:T], q[T:]
    return out


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
    M_pad = _dealias_points(N, spec.p)
    gamma_vals = (gamma(np.linspace(0.0, 1.0, M_pad + 1))
                  if any(abs(c) > 0 for c in corner) else None)

    T_star = min(spec.T, 1.0)
    while True:
        times = _grid(T_star, spec.dt)
        free = phi_v[None, :] * np.exp(1j * np.outer(times, omegas))
        bdry = bops.navier_boundary_history(*ht, times, N)
        lin = free + bdry

        v = lin.copy()
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
        nl, residual = None, 0.0
    else:
        nl = _nonlin_sine_history(v, gamma_vals, spec.p, spec.lam, N)
        F = lf.ForcingHistory(times, nl, omegas)
        residual = _hs_dist(lin + 1j * lf.duhamel_history(F), v, wgt)

    states = [sine_state(v[j], t=times[j]) for j in range(len(times))]
    lift = (lambda x: gamma(x)) if gamma_vals is not None else None
    tr0, tr1 = bops.sine_endpoint_values(v)
    rec = SolutionRecord(times=times, states=states, lift=lift,
                         traces={"u0": tr0 + (gamma(0.0) if lift else 0.0),
                                 "u1": tr1 + (gamma(1.0) if lift else 0.0)},
                         tstar=T_star, contraction_factors=factors,
                         iterations=it, residual=residual)
    rec.mode_residual = _mode_residual(times, v, omegas, nl,
                                       bdry_forcing(ht, times, N))
    return rec


def bdry_forcing(ht, times, N) -> np.ndarray:
    """Right-hand side 2(k pi)^3 (h1 - cos k pi h2) - 2 k pi (h5 - cos k pi h6)."""
    h1, h2, h5, h6 = ht
    k = np.arange(1, N + 1)
    kp = k * np.pi
    cos_kpi = np.where(k % 2 == 0, 1.0, -1.0)
    out = np.zeros((len(times), N), dtype=np.complex128)
    for h, w in ((h1, 2.0 * kp ** 3), (h2, -2.0 * kp ** 3 * cos_kpi),
                 (h5, -2.0 * kp), (h6, 2.0 * kp * cos_kpi)):
        if np.any(h.a != 0) or h.sample_t is not None:
            out += np.asarray(h(times))[:, None] * w[None, :]
    return out


def _mode_residual(times, coeff_hist, omegas, nonlin_hist, forcing_hist) -> float:
    """Max |i q' + w q + nonlin - forcing| via centered differences (O(dt^2))."""
    if len(times) < 3:
        return 0.0
    dt = times[1] - times[0]
    dq = (coeff_hist[2:] - coeff_hist[:-2]) / (2.0 * dt)
    res = 1j * dq + omegas[None, :] * coeff_hist[1:-1]
    if nonlin_hist is not None:
        res = res + nonlin_hist[1:-1]
    if forcing_hist is not None:
        res = res - forcing_hist[1:-1]
    return float(np.abs(res).max())


# ---------------------------------------------------------------------------
# clamped Picard pipeline


def picard_dirichlet(spec: ProblemSpec) -> SolutionRecord:
    """Clamped-family pipeline u = u_o + u_e + v + w (see module docstring)."""
    if spec.family != DIRICHLET:
        raise ValueError("spec is not a clamped-family problem")
    N = spec.N
    T_cap = min(spec.T, 1.0)
    times_full = _grid(T_cap, spec.dt)

    # periodic flow of the odd/even split and its boundary series
    if spec.phi is not None:
        phi_o, phi_e = odd_even_extend(spec.phi, N)
    else:
        phi_o, phi_e = zero_state(N), zero_state(N, basis="cosine")
    r1, r2, r3, r4 = bops.dirichlet_traces(phi_o, phi_e)

    def minus(h: BoundaryTrace, r: BoundaryTrace) -> BoundaryTrace:
        """h - r, sampled on the working grid (r's lattice indices are huge)."""
        vals = np.asarray(h(times_full)) - np.asarray(r(times_full))
        return BoundaryTrace(sample_t=times_full, sample_h=vals)

    ht = (minus(spec.h1, r1), minus(spec.h2, r2),
          minus(spec.h3, r3), minus(spec.h4, r4))

    omegas_per = lf.navier_eigenvalues(N)
    basis = lf.build_clamped_basis(spec.K_clamped)

    T_star = T_cap
    while True:
        times = _grid(T_star, spec.dt)
        nt = len(times)
        phases = np.exp(1j * np.outer(times, omegas_per))
        uo = phi_o.q[None, :] * phases
        ue = phi_e.p[None, :] * phases
        vq, vp, vp0 = bops.dirichlet_linear_history(
            *(BoundaryTrace(h.n, h.a, sample_t=h.sample_t[:nt], sample_h=h.sample_h[:nt])
              for h in ht), times, N, basis=basis)

        # dense grid for the inter-basis collocation
        Mx = 4 * max(N, spec.K_clamped) + 1
        xg = np.linspace(0.0, 1.0, Mx)
        wq_ = np.full(Mx, xg[1] - xg[0])
        wq_[0] = wq_[-1] = 0.5 * (xg[1] - xg[0])
        k = np.arange(1, N + 1)
        Sx = np.sin(np.pi * np.outer(xg, k))
        Cx = np.cos(np.pi * np.outer(xg, k))
        base_grid = ((uo + vq) @ Sx.T + (ue + vp) @ Cx.T
                     + (phi_e.p0 + vp0)[:, None])
        phi_mat = basis.evaluate(xg)              # (K, Mx)

        wgt = (1.0 + basis.mu ** 2) ** spec.s
        w_c = np.zeros((nt, spec.K_clamped), dtype=np.complex128)
        factors: List[float] = []
        converged = False
        last_dist = None
        proj_res = 0.0
        for it in range(1, spec.max_iter + 1):
            u_grid = base_grid + w_c @ phi_mat
            mag = np.abs(u_grid)
            nl = spec.lam * np.where(mag > 0, mag ** (spec.p - 2.0), 0.0) * u_grid
            if not np.all(np.isfinite(nl.view(np.float64))):
                raise OverflowError("nonlinearity overflow: blow-up candidate")
            nl_c = (nl * wq_[None, :]) @ phi_mat.T      # clamped projection
            proj = nl_c @ phi_mat
            denom = np.abs(nl).max()
            proj_res = (float(np.abs(nl - proj).max() / denom) if denom > 0 else 0.0)
            F = lf.ForcingHistory(times, nl_c, basis.eigenvalues)
            w_new = 1j * lf.duhamel_history(F)
            dist = float(np.sqrt((np.abs(w_new - w_c) ** 2 @ wgt).max()))
            if last_dist is not None and last_dist > 0:
                factors.append(dist / last_dist)
            last_dist = dist
            w_c = w_new
            if dist < spec.tol:
                converged = True
                break
        if converged or spec.lam == 0:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError("no contraction: T* underflowed below dt")

    # final states: spectral part on the mixed basis + clamped remainder
    # projected onto the same mixed representation for bookkeeping
    w_grid = w_c @ phi_mat
    qw = 2.0 * (w_grid * wq_[None, :]) @ Sx
    pw = 2.0 * (w_grid * wq_[None, :]) @ Cx
    p0w = (w_grid * wq_[None, :]).sum(axis=1)
    # the mixed series of w uses the half-weight split (odd+even parts)
    states = [mixed_state(uo[j] + vq[j] + 0.5 * qw[j],
                          ue[j] + vp[j] + 0.5 * pw[j],
                          phi_e.p0 + vp0[j] + 0.5 * p0w[j], t=times[j])
              for j in range(len(times))]

    trace0 = np.array([2.0 * (st.p0 + st.p.sum()) for st in states])
    k = np.arange(1, N + 1)
    cos_kpi = np.where(k % 2 == 0, 1.0, -1.0)
    trace1 = np.array([2.0 * (st.p0 + st.p @ cos_kpi) for st in states])
    rec = SolutionRecord(times=times, states=states, lift=None,
                         traces={"u0": trace0, "u1": trace1},
                         tstar=T_star, contraction_factors=factors,
                         iterations=it if spec.lam != 0 else 0,
                         residual=last_dist if last_dist is not None else 0.0,
                         projection_residual=proj_res)
    return rec
