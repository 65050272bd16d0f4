"""Picard iteration for the full nonlinear problem
i u_t + u_xxxx + lam |u|^(p-2) u = 0 on (0,1) with boundary data.

Both families take one route: u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) B_k(x),
with four cubic lifts of the boundary data and a basis B_k that meets the
homogeneous boundary conditions:

* hinged family ("navier"): the sine modes sin(k pi x), eigenvalues
  (k pi)^4, lifts of (h1, h2, h5, h6) with closed-form sine coefficients;
  the grid is the sine grid of ``_dealias_points`` intervals;
* clamped family ("dirichlet"): the clamped eigenfunctions phi_j,
  eigenvalues mu_j^4, lifts of (h1, h2, h3, h4) projected on one trapezoid
  grid of 4 max(N, K) + 1 points.

One driver, ``_picard``, builds each T* attempt from those pieces alike: the
linear history lin = e^{i omega t} (c(0) - h(0) @ a) - Duhamel(sum_i h_i' a_i),
both terms from one Duhamel recurrence (``boundary_ops.lift_response``), and
the forcing, the projection of the nonlinearity of u onto B; it then
iterates c -> lin + i Duhamel(forcing(c)) in the sup-in-time H^s-weighted
coefficients.  One kernel, ``_grid_forcing``, gives both forcings in blocks
of time rows, on stacked real (re; im) rows folded onto half the grid by the
bases' parity under x -> 1-x: real GEMMs synthesize the parts of u
symmetric and antisymmetric under that map, the lift rows riding along as
extra synthesis rows, and the power acts on u(x) and u(1-x) made from
them.  T* halves whenever
``max_iter`` iterations leave the Picard distance above ``tol``.  Both
families report the last Picard distance |c_n - c_{n-1}| as the residual:
by the contraction it bounds the fixed-point residual |Phi(c_n) - c_n| up
to the factor kappa < 1, so no extra map application is made.

The Picard steps run in mixed precision (``_step_dtype``).  A step that
cannot be the last one runs its forcing kernel in float32: step 1, and a
step for which the last contraction factor predicts a distance of at least
``tol`` while the last distance is still above sqrt(eps_32) times the first.
Only a float64 step may stop, so the accepted iterate is always
c_n = Phi(c_{n-1}) in float64 and the residual keeps its meaning; the
float32 steps only supply the starting point.  A float32 step that
overflows runs again in float64.  The records list each step's precision.

The records keep their own layouts: the hinged record holds the sine
coefficients of v = u - gamma, gamma the stationary lift at h(0); the
clamped record holds u on the half-weight mixed basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, _sample, mixed_state,
                       reconstruct, sine_coefficients, sine_grid,
                       sine_state, sobolev_weights)
# unused here; kept because bench/tracing.py wraps nonlinear.odd_even_extend
from .spectral import odd_even_extend

NAVIER = "navier"
DIRICHLET = "dirichlet"
#: the four traces each family reads, in the order of its lift rows
TRACES = {NAVIER: ("h1", "h2", "h5", "h6"), DIRICHLET: ("h1", "h2", "h3", "h4")}

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
        unread = [name for name in ("h1", "h2", "h3", "h4", "h5", "h6")
                  if name not in TRACES[self.family] and getattr(self, name).active]
        if unread:
            raise ValueError(f"the {self.family} family reads only "
                             f"{', '.join(TRACES[self.family])}; "
                             f"{', '.join(unread)} carries data")
        for h in self.hs:
            # the lift route reads h and h' from the interpolant of the
            # samples, which past the last one would hold h constant
            if h.sample_t is not None and not (
                    h.sample_t[0] == 0 and h.sample_t[-1] >= min(self.T, 1.0)):
                raise ValueError("sampled traces must cover [0, min(T, 1)]")

    @property
    def hs(self) -> tuple:
        """The family's four traces in the order of its lift rows (``TRACES``)."""
        return tuple(getattr(self, name) for name in TRACES[self.family])


@dataclass
class SolutionRecord:
    """Time-stamped solution as coefficient arrays, with diagnostics.

    Row j of the read-only arrays is the state at ``times[j]``: the hinged
    record holds the sine coefficients ``q`` (T, N) of v; the clamped record
    holds u on the half-weight mixed basis, ``q`` and ``p`` (T, N) and the
    constant mode ``p0`` (T,).  ``states`` builds ``FourierState``s from the
    rows on demand and ``norms`` gives the whole H^s history in one pass.
    ``step_precision`` names the working dtype of each Picard step of the
    accepted T* attempt ("float32" or "float64"; the last is float64).
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
    step_precision: List[str] = field(default_factory=list)

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
# pseudo-spectral nonlinearity


def _dealias_points(N: int, p: float) -> int:
    return max(2, math.ceil(p / 2.0)) * N + 1


def _power(u: np.ndarray, p: float, lam: float) -> np.ndarray:
    """lam |u|^(p-2) u in place on stacked real rows ``u``: its first half of
    rows are the real parts and its second half the imaginary parts of the
    same values, so |u|^2 = re^2 + im^2 on contiguous rows (p >= 3 keeps
    0 ** (p-2) = 0).  A non-finite value raises ``OverflowError``."""
    r = len(u) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(u)               # one temporary: re^2 over im^2
        fac = sq[:r]
        fac += sq[r:]
        fac **= 0.5 * (p - 2.0)
        fac *= lam
        u[:r] *= fac
        u[r:] *= fac
    if not np.isfinite(u).all():
        raise OverflowError("nonlinearity overflow: blow-up candidate")
    return u


#: bytes of the grid values of one block of time rows, R x (M+1) complex
#: as 2R real rows of the working dtype: small enough to stay in L2 from
#: synthesis to projection
_BLOCK_BYTES = 1 << 19


def _grid_forcing(c: np.ndarray, B: np.ndarray, w: np.ndarray, p: float,
                  lam: float, vals: Optional[np.ndarray] = None,
                  lift: Optional[np.ndarray] = None,
                  dtype=np.float64) -> np.ndarray:
    """(T, K) projections sum_x w(x) lam |u|^(p-2) u(x) B_k(x) of the grid
    values u = c @ B + vals @ lift for the complex coefficient history ``c``
    and, if given, the complex data ``vals`` (T, L) of the real lift rows
    ``lift`` (L, M+1).

    ``B`` is a real (K, M+1) basis on a uniform grid with the parity
    B_k(1-x) = (-1)^k B_k(x), k = 0..K-1 (sin(k pi x) and the clamped phi_j
    both have it), and ``w`` are weights symmetric under x -> 1-x.  So the
    work folds onto the nodes x < 1/2: the even rows of B and the lifts'
    symmetric parts synthesize the part S of u symmetric under x -> 1-x,
    the odd rows and the lifts' antisymmetric parts its part A, and
    u(x) = S + A, u(1-x) = S - A.  ``_power`` turns those values into
    g = lam |u|^(p-2) u, which folds back as S' = g(x) + g(1-x) onto the
    even rows and A' = g(x) - g(1-x) onto the odd ones; a middle node
    x = 1/2 (M even) belongs to S and S' alone.  Time rows go in blocks of
    ``_BLOCK_BYTES``, each as stacked real (re; im) rows, so every GEMM is
    real and no complex grid block is formed.

    ``dtype`` is the working precision of the folded matrices, the stacked
    rows and the grid block (float64 or float32); the output is complex128
    either way.  Overflow anywhere, in a cast to float32 included, raises
    ``OverflowError``.
    """
    T, K = c.shape
    M1 = B.shape[1]
    H, mid = M1 // 2, M1 % 2                       # nodes x < 1/2; x = 1/2
    if vals is None:
        vals, lift = np.zeros((T, 0)), np.zeros((0, M1))
    work = {"dtype": dtype, "casting": "same_kind"}
    flip = lift[:, ::-1]                           # lift rows at 1 - x
    Bs = np.concatenate((B[0::2, :H + mid], 0.5 * (lift + flip)[:, :H + mid]),
                        **work)
    Ba = np.concatenate((B[1::2, :H], 0.5 * (lift - flip)[:, :H]), **work)
    Ps = (B[0::2, :H + mid] * w[:H + mid]).astype(dtype, copy=False)
    Pa = (B[1::2, :H] * w[:H]).astype(dtype, copy=False)
    R = max(1, _BLOCK_BYTES // (2 * np.dtype(dtype).itemsize * M1))
    grid = np.empty((2 * R, 2 * H + mid), dtype=dtype)  # u(x) | u(1-x) | u(1/2)
    out = np.empty((T, K), dtype=np.complex128)
    # an overflow shows as a non-finite value, which the checks raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, T, R):
            rows = slice(r0, min(r0 + R, T))
            r, ob = min(R, T - r0), out[rows]
            xs = np.concatenate((c[rows, 0::2], vals[rows]), axis=1)
            xa = np.concatenate((c[rows, 1::2], vals[rows]), axis=1)
            S = np.concatenate((xs.real, xs.imag), **work) @ Bs
            A = np.concatenate((xa.real, xa.imag), **work) @ Ba
            u = grid[:2 * r]
            np.add(S[:, :H], A, out=u[:, :H])
            np.subtract(S[:, :H], A, out=u[:, H:2 * H])
            u[:, 2 * H:] = S[:, H:]
            _power(u, p, lam)
            np.add(u[:, :H], u[:, H:2 * H], out=S[:, :H])
            np.subtract(u[:, :H], u[:, H:2 * H], out=A)
            S[:, H:] = u[:, 2 * H:]
            fs, fa = S @ Ps.T, A @ Pa.T
            if not (np.isfinite(fs).all() and np.isfinite(fa).all()):
                raise OverflowError("forcing overflow: blow-up candidate")
            ob.real[:, 0::2], ob.imag[:, 0::2] = fs[:r], fs[r:]
            ob.real[:, 1::2], ob.imag[:, 1::2] = fa[:r], fa[r:]
    return out


# ---------------------------------------------------------------------------
# Picard iteration: one driver, two families


def _hs_dist(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """sup_t (sum_k w_k |a_k - b_k|^2)^(1/2) for complex (T, K) histories,
    with |z|^2 = re^2 + im^2 on the float view of the difference."""
    d = (a - b).view(np.float64)                   # re, im interleaved
    d *= d
    return float(np.sqrt((d @ np.repeat(w, 2)).max()))


#: a step may run in float32 only while the last distance exceeds this
#: multiple of the first one, which keeps the iterate far above float32
#: rounding: sqrt of the float32 machine epsilon
_F32_FLOOR = math.sqrt(np.finfo(np.float32).eps)


def _step_dtype(dists: List[float], tol: float, max_iter: int):
    """Working dtype of Picard step n after the distances ``dists`` =
    [D_1, ..., D_{n-1}] of the steps before it, by the rule in ``_picard``."""
    n = len(dists) + 1
    if n == max_iter:
        return np.float64
    if n == 1:
        return np.float32
    if n == 2 or not dists[-2] > 0:
        return np.float64
    d = dists[-1]
    cannot_stop = d / dists[-2] * d >= tol and d > _F32_FLOOR * dists[0]
    return np.float32 if cannot_stop else np.float64


def _picard(spec: ProblemSpec, omegas: np.ndarray, wgt: np.ndarray,
            c_phi: np.ndarray, a: np.ndarray, B: np.ndarray, w: np.ndarray,
            lift: np.ndarray):
    """Iterate c -> lin + i Duhamel(forcing(c)) on the lift route.

    u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) B_k(x) (module docstring):
    ``spec.hs`` are the family's four traces, ``B`` (K, M+1) its basis on a
    uniform grid with weights ``w`` and eigenvalues ``omegas``, ``lift``
    (4, M+1) the lift rows on that grid, ``a`` (4, K) their projections onto
    B and ``c_phi`` that of the initial datum.  Each T* attempt builds
    lin = e^{i omega t} (c_phi - h(0) @ a) - Duhamel(sum_i h_i' a_i) in one
    recurrence (``bops.lift_response``) and forcing(c), the
    ``_grid_forcing`` projection of the nonlinearity of u.
    Distances are sup-in-time with the H^s weights ``wgt``.

    Mixed precision: a step whose forcing runs in float32 only supplies the
    next starting point, and the stop test D_n = |c_n - c_{n-1}| < ``tol`` is
    read on float64 steps alone.  ``_step_dtype`` picks float32 for step 1
    and for a step that cannot stop: the last factor kappa_{n-1} predicts
    kappa_{n-1} D_{n-1} >= tol, and D_{n-1} > sqrt(eps_32) D_1 keeps the
    iterate far above float32 rounding (about eps_32 D_1).  The last allowed
    step is float64.  A float32 step that overflows (|u|^2 leaves the
    float32 range at |u| ~ 1.8e19, the power sooner for p > 3) runs again
    in float64; an overflow in float64 raises ``OverflowError`` (a blow-up
    candidate).

    T* starts at min(T, 1) and halves until the iteration converges; below dt
    it raises ``RuntimeError`` with the data norm of ``lin[0]``.  lam = 0
    takes zero iterations.  Returns (times, vals, c, T*, contraction factors,
    iterations, residual, step precisions), vals the data h_i(t_j) (T, 4), c
    the last iterate c_n and the precisions the dtype name of each step.
    The residual is the last Picard distance |c_n - c_{n-1}|, below ``tol``,
    and 0 for lam = 0.  Since c_n = Phi(c_{n-1}) was computed in float64, the
    residual is the map's own: with its contraction factor kappa < 1 it
    bounds the fixed-point residual, |Phi(c_n) - c_n| <= kappa |c_n - c_{n-1}|,
    at no extra map application.
    """
    T_star = min(spec.T, 1.0)
    while True:
        times = np.linspace(0.0, T_star, max(2, math.ceil(T_star / spec.dt) + 1))
        vals, lin = bops.lift_response(spec.hs, times, a, omegas, c_phi)

        def step(c, dtype):     # returning frees the (T, K) forcing
            try:
                f = _grid_forcing(c, B, w, spec.p, spec.lam, vals, lift, dtype)
            except OverflowError:
                if dtype == np.float64:
                    raise
                dtype = np.float64
                f = _grid_forcing(c, B, w, spec.p, spec.lam, vals, lift, dtype)
            V = lf.duhamel_history(lf.ForcingHistory(times, f, omegas))
            V *= 1j
            V += lin
            return V, dtype

        c, factors, dists, precisions = lin, [], [], []
        converged = spec.lam == 0
        while not converged and len(dists) < spec.max_iter:
            c_new, dtype = step(c, _step_dtype(dists, spec.tol, spec.max_iter))
            d = _hs_dist(c_new, c, wgt)
            if dists and dists[-1] > 0:
                factors.append(d / dists[-1])
            dists.append(d)
            precisions.append(np.dtype(dtype).name)
            c = c_new
            converged = dtype == np.float64 and d < spec.tol
        if converged:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError(
                "no contraction: T* underflowed below dt "
                f"(data norm r={np.sqrt(np.abs(lin[0])**2 @ wgt):.3e})")
    return (times, vals, c, T_star, factors, len(dists),
            dists[-1] if dists else 0.0, precisions)


def picard_navier(spec: ProblemSpec) -> SolutionRecord:
    """Contraction iteration for the hinged family on the lift route.

    The record's rows ``q`` are the sine coefficients of v = u - gamma, with
    gamma the lift of the corner data h(0): q = c + (h(t) - h(0)) @ a.
    gamma is attached as ``record.lift`` so that ``record.evaluate``
    reproduces u, and the traces are the endpoint values of v plus h1(0) and
    h2(0).
    """
    if spec.family != NAVIER:
        raise ValueError("spec is not a hinged-family problem")
    N = spec.N
    x, w, S = sine_grid(N, _dealias_points(N, spec.p))
    a = bops.navier_lift_coeffs(N)
    c_phi = (sine_coefficients(spec.phi, N).q if spec.phi is not None
             else np.zeros(N, dtype=np.complex128))
    times, vals, c, T_star, factors, it, residual, precisions = _picard(
        spec, lf.navier_eigenvalues(N), sobolev_weights(N, spec.s), c_phi, a,
        S.T, 2.0 * w, bops.navier_lifts(x))
    h0 = vals[0]
    q = c + (vals - h0) @ a
    lift = (lambda x: h0 @ bops.navier_lifts(x)) if np.any(h0) else None
    tr0, tr1 = bops.sine_endpoint_values(q)
    return SolutionRecord(times=times, q=q, lift=lift,
                          traces={"u0": tr0 + h0[0], "u1": tr1 + h0[1]},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it, residual=residual,
                          step_precision=precisions)


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
    lift = bops.dirichlet_lifts(x)
    a = (lift * wq) @ phi_x.T
    c_phi = (phi_x @ (wq * _sample(spec.phi, len(x) - 1)[1])
             if spec.phi is not None else np.zeros(K, dtype=np.complex128))
    times, vals, c, T_star, factors, it, residual, precisions = _picard(
        spec, basis.eigenvalues, (1.0 + basis.mu ** 2) ** spec.s, c_phi, a,
        phi_x, wq, lift)
    q, p, p0 = bops.clamped_mixed_history(vals, c, phi_x, wq, S, C)
    cos_kpi = np.where(np.arange(1, N + 1) % 2 == 0, 1.0, -1.0)
    return SolutionRecord(times=times, q=q, p=p, p0=p0,
                          traces={"u0": 2.0 * (p0 + p.sum(axis=1)),
                                  "u1": 2.0 * (p0 + p @ cos_kpi)},
                          tstar=T_star, contraction_factors=factors,
                          iterations=it, residual=residual,
                          step_precision=precisions)
