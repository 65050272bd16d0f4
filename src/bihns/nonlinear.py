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

Each family's ``Basis`` (modes, lifts and their projections on the grid)
depends on the grid alone, so it is built once per grid, keyed by (N, M)
hinged and (N, K) clamped, like ``sine_grid``; its arrays are read-only
and every record on that grid shares it.  A solve projects only its datum,
on that grid and by one rule for both families (``_picard``).

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
them.  Each block is laid out as contiguous (re|im, x|1-x, rows, nodes
x <= 1/2) planes, so the fold, the power and the unfold run on whole
planes; a middle node x = 1/2 sits on both sides with a zero antisymmetric
part, and its doubled fold meets a halved projection column.  The power
takes |u|^(p-2) from s = |u|^2 by multiplication for an integer p,
s^m sqrt(s)^b with p - 2 = 2m + b, and by ``**`` otherwise.  T* halves whenever
``max_iter`` iterations leave the Picard distance above ``tol``.  Both
families report the last Picard distance |c_n - c_{n-1}| as the residual:
by the contraction it bounds the fixed-point residual |Phi(c_n) - c_n| up
to the factor kappa < 1, so no extra map application is made.

The Picard steps run in mixed precision (``_step_dtype``): a step that
cannot be the last one runs its forcing kernel in float32.  Only a float64
step may stop, so the accepted iterate is always c_n = Phi(c_{n-1}) in
float64 and the residual keeps its meaning.  A float32 step that overflows
runs again in float64.  The records list each step's precision.  Step 2
has no measured factor yet, so it reads a predicted one: lam |u|^(p-2) u is
real-homogeneous of degree p - 1, and Euler's identity DF(u)[u] =
(p - 1) F(u) makes kappa_hat = (p - 1) D_1 / |lin| the rate at which the
nonlinear part of the map changes along the ray through the start iterate
lin.  Step 2 runs in float32 when kappa_hat D_1 >= ``_KAPPA_MARGIN`` tol.

Both families return one record in the solver's own terms: the data
h_i(t_j), the coefficients c_k(t_j) and the family's ``Basis``.  So the
traces are the data, the norms weigh c as the Picard distance does, and
``evaluate`` sums lifts and modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, _read_only, _sample,
                       mixed_state, sine_grid, sine_state)
# unused here; kept because bench/tracing.py wraps nonlinear.odd_even_extend,
# nonlinear.reconstruct and nonlinear.sine_coefficients
from .spectral import odd_even_extend, reconstruct, sine_coefficients

NAVIER = "navier"
DIRICHLET = "dirichlet"
#: the four traces each family reads, in the order of its lift rows
TRACES = {NAVIER: ("h1", "h2", "h5", "h6"), DIRICHLET: ("h1", "h2", "h3", "h4")}

DIRICHLET_S_MIN = 10.0 / 7.0
DIRICHLET_S_MAX = 4.5
NAVIER_S_MIN = 0.5
NAVIER_S_MAX = 4.5


def _is_half_integer(s: float) -> bool:
    return abs(s - (math.floor(s) + 0.5)) < 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description; validation happens at construction."""

    family: str
    s: float = 1.0
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
        if self.phi is not None and not callable(self.phi):
            raise ValueError("phi must be a callable on [0, 1] or None")
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
                    h.sample_t[0] == 0 and h.sample_t[-1] >= self.T):
                raise ValueError("sampled traces must cover [0, T]")

    @property
    def hs(self) -> tuple:
        """The family's four traces in the order of its lift rows (``TRACES``)."""
        return tuple(getattr(self, name) for name in TRACES[self.family])


@dataclass(frozen=True)
class Basis:
    """One family's basis B_k and lifts, and the uniform grid of its forcing.

    ``xi`` are the frequencies of the modes (k pi hinged, mu_k clamped) and
    ``omegas`` their eigenvalues xi^4; ``modes`` and ``lifts`` evaluate the
    (K, len(x)) modes and the (4, len(x)) lift rows at any x.  On the grid:
    ``B`` and ``L`` hold those values, ``w`` the quadrature weights, and ``a``
    (4, K) the projections of the lifts onto the modes.  ``states`` maps a
    record to its older state layout: the hinged sine coefficients of
    u - gamma, gamma the lift at h(0), or the clamped u on the half-weight
    mixed basis.  Its arrays are read-only: ``_hinged_basis`` and
    ``_clamped_basis`` build one per grid for every record on it.
    """

    xi: np.ndarray
    omegas: np.ndarray
    modes: Callable
    lifts: Callable
    B: np.ndarray
    w: np.ndarray
    L: np.ndarray
    a: np.ndarray
    states: Callable

    def weights(self, s: float) -> np.ndarray:
        """(K,) H^s weights (1 + xi^2)^s of the Picard distance and the norms."""
        return (1.0 + self.xi ** 2) ** s


@dataclass
class SolutionRecord:
    """u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) B_k(x) as the solver holds it.

    Row j of the read-only ``vals`` (T, 4), the data h_i in the order of
    ``TRACES``, and ``c`` (T, K), the coefficients on ``basis``, is time
    ``times[j]``; non-finite rows raise ``ValueError``.  ``step_precision``
    names the dtype of each Picard step of the accepted T* attempt.
    """

    times: np.ndarray
    vals: np.ndarray
    c: np.ndarray
    basis: Basis
    tstar: float = 0.0
    contraction_factors: List[float] = field(default_factory=list)
    iterations: int = 0
    residual: float = float("nan")
    step_precision: List[str] = field(default_factory=list)

    def __post_init__(self):
        for name in ("vals", "c"):
            view = getattr(self, name).view()
            view.flags.writeable = False
            setattr(self, name, view)
        if not (np.isfinite(self.vals).all() and np.isfinite(self.c).all()):
            raise ValueError("non-finite coefficients rejected")

    @property
    def traces(self) -> Dict[str, np.ndarray]:
        """The endpoint values u(0, t) = h1(t) and u(1, t) = h2(t), exact."""
        return {"u0": self.vals[:, 0], "u1": self.vals[:, 1]}

    @property
    def states(self) -> List[FourierState]:
        """One ``FourierState`` per time node in the family's older layout
        (``Basis.states``), built on each access for the benchmark's twins."""
        return self.basis.states(self)

    def norms(self, s: float) -> np.ndarray:
        """(T,) norms (sum_k (1 + xi_k^2)^s |c_k|^2)^(1/2) of the rows of c,
        in the weights of the Picard distance."""
        return np.sqrt(_hs_sq(self.c.copy(), self.basis.weights(float(s))))

    def evaluate(self, j: int, x) -> np.ndarray:
        """u(x, times[j]): the lifts of the data plus the modes."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return self.vals[j] @ self.basis.lifts(x) + self.c[j] @ self.basis.modes(x)


def _sine_states(rec: SolutionRecord) -> List[FourierState]:
    """Hinged ``states``: sine states of c + (h(t) - h(0)) @ a."""
    q = rec.c + (rec.vals - rec.vals[0]) @ rec.basis.a
    return [sine_state(row) for row in q]


def _mixed_states(rec: SolutionRecord, N: int) -> List[FourierState]:
    """Clamped ``states``: u projected onto N half-weight mixed modes."""
    S, C = bops.clamped_grid(N, len(rec.basis.xi))[2:]
    q, p, p0 = bops.clamped_mixed_history(rec.vals, rec.c, rec.basis.B,
                                          rec.basis.w, S, C)
    return [mixed_state(*row) for row in zip(q, p, p0)]


# ---------------------------------------------------------------------------
# pseudo-spectral nonlinearity


def _dealias_points(N: int, p: float) -> int:
    return max(2, math.ceil(p / 2.0)) * N + 1


def _power(u: np.ndarray, p: float, lam: float) -> np.ndarray:
    """lam |u|^(p-2) u in place on stacked real rows ``u``: its first half of
    rows are the real parts and its second half the imaginary parts of the
    same values, so s = |u|^2 = re^2 + im^2 on contiguous rows (p >= 3 keeps
    0 ** (p-2) = 0).  An integer p takes no ``pow``: with p - 2 = 2m + b,
    |u|^(p-2) = s^m sqrt(s)^b by multiplication, the paths numpy's ``**``
    already takes for p = 3, 4 and 6, and within an ulp or two of it at
    p = 5; a fractional p takes s ** ((p-2)/2).  A non-finite value raises
    ``OverflowError``."""
    r = len(u) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(u)               # one temporary: re^2 over im^2
        fac, base = sq[:r], sq[r:]
        fac += base                     # s; base is free from here on
        if float(p).is_integer():       # p - 2 = 2m + b
            m, b = divmod(int(p) - 2, 2)
            products = m - 1 + b        # multiplications by s
            if products:
                np.copyto(base, fac)
            if b:
                np.sqrt(fac, out=fac)
            for _ in range(products):
                fac *= base
        else:
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
    work folds onto the W nodes x <= 1/2: the even rows of B and the lifts'
    symmetric parts synthesize the part S of u symmetric under x -> 1-x,
    the odd rows and the lifts' antisymmetric parts its part A, and
    u(x) = S + A, u(1-x) = S - A.  ``_power`` turns those values into
    g = lam |u|^(p-2) u, which folds back as S' = g(x) + g(1-x) onto the
    even rows and A' = g(x) - g(1-x) onto the odd ones.

    Time rows go in blocks of ``_BLOCK_BYTES``, each laid out as one
    (re|im, x|1-x, rows, W) prefix of a flat buffer, so the fold, the power
    and the unfold run on whole contiguous planes, and every GEMM is real
    on stacked (re; im) rows: no complex grid block is formed.  A middle
    node x = 1/2 (M even) sits on both sides: A has a zero column there,
    the node is powered twice, folds back as S' = 2 g(1/2) and meets a
    projection column scaled by 0.5, so each product and sum is the one of
    the unfolded node.

    ``dtype`` is the working precision of the folded matrices, the stacked
    rows and the grid block (float64 or float32); the output is complex128
    either way.  Overflow anywhere, in a cast to float32 included, raises
    ``OverflowError``.
    """
    T, K = c.shape
    M1 = B.shape[1]
    H, W = M1 // 2, (M1 + 1) // 2                  # nodes x < 1/2; x <= 1/2
    if vals is None:
        vals, lift = np.zeros((T, 0)), np.zeros((0, M1))
    work = {"dtype": dtype, "casting": "same_kind"}
    flip = lift[:, ::-1]                           # lift rows at 1 - x
    Bs = np.concatenate((B[0::2, :W], 0.5 * (lift + flip)[:, :W]), **work)
    Ba = np.concatenate((B[1::2, :W], 0.5 * (lift - flip)[:, :W]), **work)
    Ba[:, H:] = 0.0                                # A(1/2) = 0
    Ps = (B[0::2, :W] * w[:W]).astype(dtype, copy=False)
    Ps[:, H:] *= 0.5                               # meets S'(1/2) = 2 g(1/2)
    Pa = (B[1::2, :H] * w[:H]).astype(dtype, copy=False)
    R = max(1, _BLOCK_BYTES // (2 * np.dtype(dtype).itemsize * M1))
    grid = np.empty(4 * R * W, dtype=dtype)        # (re|im, x|1-x, rows, W)
    xs_buf = np.empty((2 * R, len(Bs)), dtype=dtype)    # (re; im) of c_even | vals
    xa_buf = np.empty((2 * R, len(Ba)), dtype=dtype)    # (re; im) of c_odd | vals
    out = np.empty((T, K), dtype=np.complex128)
    # an overflow shows as a non-finite value, which the checks raise on
    with np.errstate(over="ignore", invalid="ignore"):
        for r0 in range(0, T, R):
            rows = slice(r0, min(r0 + R, T))
            r = min(R, T - r0)
            xs, xa = xs_buf[:2 * r], xa_buf[:2 * r]
            for xb, part in ((xs, c[rows, 0::2]), (xa, c[rows, 1::2])):
                k = part.shape[1]
                xb[:r, :k], xb[r:, :k] = part.real, part.imag
                xb[:r, k:], xb[r:, k:] = vals[rows].real, vals[rows].imag
            S, A = xs @ Bs, xa @ Ba
            S3, A3 = S.reshape(2, r, W), A.reshape(2, r, W)
            u = grid[:4 * r * W].reshape(2, 2, r, W)
            np.add(S3, A3, out=u[:, 0])
            np.subtract(S3, A3, out=u[:, 1])
            _power(u, p, lam)
            np.add(u[:, 0], u[:, 1], out=S3)
            np.subtract(u[:, 0], u[:, 1], out=A3)
            fs, fa = S @ Ps.T, A[:, :H] @ Pa.T
            if not (np.isfinite(fs).all() and np.isfinite(fa).all()):
                raise OverflowError("forcing overflow: blow-up candidate")
            # re, im interleaved: even modes at columns 0, 1 mod 4, odd at 2, 3
            ob = out[rows].view(np.float64)
            ob[:, 0::4], ob[:, 1::4] = fs[:r], fs[r:]
            ob[:, 2::4], ob[:, 3::4] = fa[:r], fa[r:]
    return out


# ---------------------------------------------------------------------------
# Picard iteration: one driver, two families


def _hs_sq(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(T,) sums sum_k w_k |d_k|^2 over the rows of a complex (T, K) history,
    with |z|^2 = re^2 + im^2 squared in place on the float view of ``d``;
    the Picard distance is the sup over t of their square roots.  A
    diverging iterate gives +inf without a warning; its forcing raises
    ``OverflowError``."""
    f = d.view(np.float64)                         # re, im interleaved
    with np.errstate(over="ignore", invalid="ignore"):
        f *= f
        return f @ np.repeat(w, 2)


#: a step may run in float32 only while the last distance exceeds this
#: multiple of the first one, which keeps the iterate far above float32
#: rounding: sqrt of the float32 machine epsilon
_F32_FLOOR = math.sqrt(np.finfo(np.float32).eps)


#: step 2 may run in float32 only when the predicted first factor puts its
#: distance this many times above tol.  On the bench inputs kappa_hat
#: overestimates the measured kappa_1 = D_2 / D_1 by at most 7.8x (1.4-2.3x
#: hinged, 6.2-7.8x clamped), so the margin covers it by an order of magnitude
_KAPPA_MARGIN = 100.0


def _step_dtype(dists: List[float], tol: float, max_iter: int,
                kappa_hat: float = math.nan):
    """Working dtype of Picard step n after the distances ``dists`` =
    [D_1, ..., D_{n-1}] of the steps before it.

    float32 for step 1 and for a step that cannot stop: the last factor
    kappa_{n-1} predicts kappa_{n-1} D_{n-1} >= tol, and D_{n-1} >
    sqrt(eps_32) D_1 keeps the iterate far above float32 rounding (about
    eps_32 D_1).  Step 2 has no measured factor and reads the predicted one,
    ``kappa_hat`` = (p - 1) D_1 / |lin| by Euler's identity (module
    docstring): float32 when kappa_hat D_1 >= ``_KAPPA_MARGIN`` tol, float64
    when it is below or undefined (NaN).  float64 otherwise, and always for
    step ``max_iter``.
    """
    n = len(dists) + 1
    if n == max_iter:
        return np.float64
    if n == 1:
        return np.float32
    if n == 2:
        return (np.float32 if kappa_hat * dists[0] >= _KAPPA_MARGIN * tol
                else np.float64)
    if not dists[-2] > 0:
        return np.float64
    d = dists[-1]
    cannot_stop = d / dists[-2] * d >= tol and d > _F32_FLOOR * dists[0]
    return np.float32 if cannot_stop else np.float64


def _picard(spec: ProblemSpec, basis: Basis) -> SolutionRecord:
    """Iterate c -> lin + i Duhamel(forcing(c)) on the lift route.

    u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) B_k(x) (module docstring):
    ``spec.hs`` are the family's four traces and ``basis`` its modes, lifts
    and grid.  The datum phi, sampled once on the grid as v with end values
    e = (v[0], v[-1]), projects as c_phi = B (w (v - e @ L[:2])) + e @ a[:2]:
    v - e @ L[:2] vanishes at both ends, so the trapezoid rule has no O(h^2)
    end term on the sine modes (a in closed form), and for the clamped
    modes, whose a is that same grid projection, the end terms cancel.
    Each T* attempt builds lin = e^{i omega t} (c_phi - h(0) @ a)
    - Duhamel(sum_i h_i' a_i) in one recurrence (``bops.lift_response``) and
    forcing(c), the ``_grid_forcing`` projection of the nonlinearity of u.
    Distances are sup-in-time with the H^s weights ``basis.weights(s)``.

    Mixed precision: ``_step_dtype`` picks each step's working dtype, and
    the stop test D_n = |c_n - c_{n-1}| < ``tol`` is read on float64 steps
    alone.  Step 2 reads the predicted factor kappa_hat = (p - 1) D_1 / |lin|
    (Euler's identity for the degree p - 1 nonlinearity), with |lin| the
    sup-in-time norm of lin in the same weights, computed once per attempt;
    zero data give |lin| = 0, an undefined kappa_hat and a float64 step 2.
    A float32 step that overflows (|u|^2 leaves the float32 range at
    |u| ~ 1.8e19, the power sooner for p > 3) runs again in float64; an
    overflow in float64 raises ``OverflowError`` (a blow-up candidate).

    T* starts at T and halves until the iteration converges; below dt
    it raises ``RuntimeError`` with the data norm of ``lin[0]``.  lam = 0
    takes zero iterations.  The record holds the data h_i(t_j), the last
    iterate c_n and the dtype name of each step.  Its residual is the last
    Picard distance |c_n - c_{n-1}|, below ``tol``, and 0 for lam = 0; as
    c_n = Phi(c_{n-1}) in float64, it bounds |Phi(c_n) - c_n| by the map's
    contraction factor kappa < 1 at no extra map application.
    """
    v = _sample(np.zeros_like if spec.phi is None else spec.phi, len(basis.w) - 1)
    e = v[[0, -1]]                      # the datum's end values
    c_phi = basis.B @ (basis.w * (v - e @ basis.L[:2])) + e @ basis.a[:2]
    wgt = basis.weights(spec.s)
    T_star = spec.T
    while True:
        times = np.linspace(0.0, T_star, max(2, math.ceil(T_star / spec.dt) + 1))
        vals, lin = bops.lift_response(spec.hs, times, basis.a, basis.omegas,
                                       c_phi)

        def step(c, dtype):     # returning frees the (T, K) forcing
            args = (c, basis.B, basis.w, spec.p, spec.lam, vals, basis.L)
            try:
                f = _grid_forcing(*args, dtype)
            except OverflowError:
                if dtype == np.float64:
                    raise
                dtype = np.float64
                f = _grid_forcing(*args, dtype)
            V = lf.duhamel_history(lf.ForcingHistory(times, f, basis.omegas))
            V *= 1j
            V += lin
            return V, dtype

        c, factors, dists, precisions = lin, [], [], []
        kappa_hat = math.nan
        converged = spec.lam == 0
        while not converged and len(dists) < spec.max_iter:
            c_new, dtype = step(c, _step_dtype(dists, spec.tol, spec.max_iter,
                                               kappa_hat))
            d = float(np.sqrt(_hs_sq(c_new - c, wgt).max()))
            if dists and dists[-1] > 0:
                factors.append(d / dists[-1])
            if not dists:               # |lin| is 0 for zero data
                lin_norm = float(np.sqrt(_hs_sq(lin.copy(), wgt).max()))
                if lin_norm > 0:
                    kappa_hat = (spec.p - 1.0) * d / lin_norm
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
    return SolutionRecord(times=times, vals=vals, c=c, basis=basis,
                          tstar=T_star, contraction_factors=factors,
                          iterations=len(dists),
                          residual=dists[-1] if dists else 0.0,
                          step_precision=precisions)


@functools.lru_cache(maxsize=8)
def _hinged_basis(N: int, M: int) -> Basis:
    """The read-only hinged ``Basis``: N sine modes on the sine grid of M
    intervals, shared by every record on that grid."""
    x, w, S = sine_grid(N, M)
    xi, omegas, w, L, a = _read_only(
        np.arange(1, N + 1, dtype=np.float64) * np.pi, lf.navier_eigenvalues(N),
        2.0 * w, bops.navier_lifts(x), bops.navier_lift_coeffs(N))
    return Basis(xi=xi, omegas=omegas, modes=lambda y: np.sin(np.outer(xi, y)),
                 lifts=bops.navier_lifts, B=S.T, w=w, L=L, a=a,
                 states=_sine_states)


@functools.lru_cache(maxsize=8)
def _clamped_basis(N: int, K: int) -> Basis:
    """The read-only clamped ``Basis``: K modes on the nodes of
    ``bops.clamped_nodes``, shared by every record on that grid; the
    sine/cosine matrices of ``bops.clamped_grid`` wait for ``states``."""
    cb = lf.build_clamped_basis(K)
    x, w = bops.clamped_nodes(N, K)
    B, L = cb.evaluate(x), bops.dirichlet_lifts(x)
    omegas, B, L, a = _read_only(cb.eigenvalues, B, L, (L * w) @ B.T)
    return Basis(xi=cb.mu, omegas=omegas, modes=cb.evaluate,
                 lifts=bops.dirichlet_lifts, B=B, w=w, L=L, a=a,
                 states=functools.partial(_mixed_states, N=N))


def picard_navier(spec: ProblemSpec) -> SolutionRecord:
    """The hinged solve on its ``Basis`` (module docstring)."""
    if spec.family != NAVIER:
        raise ValueError("spec is not a hinged-family problem")
    return _picard(spec, _hinged_basis(spec.N, _dealias_points(spec.N, spec.p)))


def picard_dirichlet(spec: ProblemSpec) -> SolutionRecord:
    """The clamped solve on its ``Basis`` (module docstring)."""
    if spec.family != DIRICHLET:
        raise ValueError("spec is not a clamped-family problem")
    return _picard(spec, _clamped_basis(spec.N, spec.K_clamped))
