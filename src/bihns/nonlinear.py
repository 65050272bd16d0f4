"""Picard iteration for the full nonlinear problem
i u_t + u_xxxx + lam |u|^(p-2) u = 0 on (0,1) with boundary data.

Both families take one route: u = sum_i h_i(t) lift_i(x) + sum_k c_k(t) B_k(x),
with four cubic lifts of the boundary data and a basis B_k that meets the
homogeneous boundary conditions:

* hinged family ("navier"): the sine modes sin(k pi x), eigenvalues
  (k pi)^4, lifts of (h1, h2, h5, h6) with closed-form sine coefficients;
  the nodes are the uniform grid of ``_dealias_points`` intervals, and its
  trapezoid projection is corrected at the ends by the projected
  function's own end values;
* clamped family ("dirichlet"): the clamped eigenfunctions phi_j,
  eigenvalues mu_j^4, lifts of (h1, h2, h3, h4); every projection is Gauss-
  Legendre quadrature on ``_gauss_points`` nodes, which has no end term.

Each family's ``Basis`` (modes, lifts, their nodes, the projection P of
node values onto the modes and the forcing kernel's folded operands) depends
on its nodes alone, so it is built once per grid, keyed by (N, M) hinged and
(N, K, n) clamped; its arrays are read-only and every record on that grid
shares it.  Both families have an even node count, so x = 1/2 is no node.
A solve projects only its datum, with the same P as the forcing
(``_picard``).

One driver, ``_picard``, iterates c -> lin + i Duhamel(forcing(c)) for both
families alike, forcing(c) the projection of the nonlinearity of u onto B,
in the sup-in-time H^s-weighted coefficients.  B meets the homogeneous
conditions and the lifts have a zero fourth derivative, so c solves
i c' + omega c = -i sum_i h_i' a_i plus the nonlinearity, a (4, K) the
projections of the lifts, with the data h_i and slopes h_i' of
``boundary_ops.lift_data``.  One Duhamel recurrence is linear in its start
row and its forcing, so a step is one pass of it from v0 = c(0) - h(0) @ a
over i forcing(c) - sum_i h_i' a_i, and the start iterate
lin = e^{i omega t} v0 - Duhamel(sum_i h_i' a_i) is the same pass without
the nonlinear forcing.  A step builds nothing that the attempt already
holds: the Duhamel step weights are built once per attempt
(``lf.step_weights``), the kernel's folded operands with the basis
(``Basis.folds``), and a step holds two (T, K) histories, the iterate
and a work buffer: the slope forcing is written into the work buffer, the
kernel adds i forcing(c) to it and the Duhamel history runs over it, and
the distance to the iterate is taken in the iterate's buffer, which the
next step fills.

One kernel, ``_grid_forcing``, gives both forcings in blocks of time rows,
on stacked real (re; im) rows folded onto half the grid by the bases' parity
under x -> 1-x: real GEMMs synthesize the parts of u symmetric and
antisymmetric under that map, the lift rows riding along as extra synthesis
rows, and the power acts on u(x) and u(1-x) made from them.  Each block is
laid out as contiguous (re|im, x|1-x, rows, nodes x < 1/2) planes, so the
fold, the power and the unfold run on whole planes.  The power takes
|u|^(p-2) from s = |u|^2 by multiplication for an integer p, s^m sqrt(s)^b with
p - 2 = 2m + b, and by ``**`` otherwise.  T* halves whenever
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
import operator
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from . import boundary_ops as bops
from . import linear_flow as lf
from .spectral import (BoundaryTrace, FourierState, _read_only, _sample,
                       gauss_grid, gauss_nodes, mixed_state, sine_state)
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


def _time_nodes(T: float, dt: float) -> int:
    """The number of nodes of a solve's time grid on [0, T] at step dt,
    max(2, ceil(T / dt) + 1); ``ProblemSpec`` checks that T / dt is
    finite."""
    return max(2, math.ceil(T / dt) + 1)


@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description; validation happens at construction.

    ``N`` is the number of hinged sine modes; a clamped solve has
    ``K_clamped`` modes and reads N only for its record's ``states`` view.
    N, ``max_iter`` and K_clamped are integers >= 1 (a bool is none).
    A datum ``phi`` is sampled on the solver's nodes here, so a wrong shape
    or a non-finite value raises ``ValueError`` before any solve.
    """

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
        for name in ("N", "max_iter", "K_clamped"):
            v = getattr(self, name)
            try:    # a bool or a float is no count, though it compares like one
                n = None if isinstance(v, bool) else operator.index(v)
            except TypeError:
                n = None
            if n is None or n < 1:
                raise ValueError(f"{name} must be an integer >= 1 (got {v!r})")
        s, p = float(self.s), float(self.p)
        if not all(map(math.isfinite, (s, p, self.lam, self.T, self.dt, self.tol))):
            raise ValueError("s, p, lam, T, dt, tol must be finite")
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
        if self.T <= 0 or self.dt <= 0 or self.tol <= 0:
            raise ValueError("T, dt, tol must be positive")
        if not math.isfinite(self.T / self.dt):
            raise ValueError(f"T/dt overflows (T={self.T!r}, dt={self.dt!r})")
        # the (nodes, K) complex histories must be indexable: numpy cannot
        # allocate an array of more bytes than its index type holds
        K = self.N if self.family == NAVIER else self.K_clamped
        if _time_nodes(self.T, self.dt) * K * 16 > np.iinfo(np.intp).max:
            raise ValueError(
                f"T/dt = {self.T / self.dt:.3g} time steps: a (steps, {K}) "
                "history is too large for an array")
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
        if self.phi is not None:
            # the solve reads the datum on its basis' nodes alone, so a
            # wrong shape or a non-finite value shows there (``_sample``)
            _sample(self.phi, _basis(self).x)

    @property
    def hs(self) -> tuple:
        """The family's four traces in the order of its lift rows (``TRACES``)."""
        return tuple(getattr(self, name) for name in TRACES[self.family])


@dataclass(frozen=True)
class Basis:
    """One family's basis B_k and lifts, and the quadrature of its projections.

    ``xi`` are the frequencies of the modes (k pi hinged, mu_k clamped) and
    ``omegas`` their eigenvalues xi^4; ``modes`` and ``lifts`` evaluate the
    (K, len(x)) modes and the (4, len(x)) lift rows at any x.  On the nodes
    ``x``, symmetric under x -> 1-x: ``B`` and ``L`` hold those values, ``P``
    (K, len(x)) projects node values f onto the modes as P @ f, for the datum
    and the forcing alike, and ``a`` (4, K) holds the projections of the
    lifts.  Hinged (``_hinged_basis``): x is the uniform sine grid and P is B
    times twice the trapezoid weights, but for its end columns, which correct
    the rule by f's own end values; a is in closed form.  Clamped
    (``_clamped_basis``): x are Gauss-Legendre nodes, P is B times the Gauss
    weights, with no end term to correct, and a = L @ P^T.  ``states`` maps a
    record to its older state layout: the hinged sine coefficients of
    u - gamma, gamma the lift at h(0), or the clamped u on the half-weight
    mixed basis.  ``folds`` maps np.float32 and np.float64 to the ``_fold``
    of (B, P, L) in that dtype.  Its arrays are read-only: ``_hinged_basis``
    and ``_clamped_basis`` build one per grid for every record on it.
    """

    xi: np.ndarray
    omegas: np.ndarray
    modes: Callable
    lifts: Callable
    x: np.ndarray
    B: np.ndarray
    P: np.ndarray
    L: np.ndarray
    a: np.ndarray
    states: Callable
    folds: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "folds", {t: _read_only(*_fold(self.B, self.P, self.L, t))
                                           for t in (np.float32, np.float64)})

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
        in the weights of the Picard distance, summed block by block without
        a copy of c (``_hs_sq``)."""
        return np.sqrt(_hs_sq(self.c, self.basis.weights(float(s))))

    def evaluate(self, j: int, x) -> np.ndarray:
        """u(x, times[j]): the lifts of the data plus the modes."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return self.vals[j] @ self.basis.lifts(x) + self.c[j] @ self.basis.modes(x)


def _sine_states(rec: SolutionRecord) -> List[FourierState]:
    """Hinged ``states``: sine states of c + (h(t) - h(0)) @ a."""
    q = rec.c + (rec.vals - rec.vals[0]) @ rec.basis.a
    return [sine_state(row) for row in q]


def _mixed_states(rec: SolutionRecord, N: int) -> List[FourierState]:
    """Clamped ``states``: u projected onto N half-weight mixed modes by
    Gauss-Legendre quadrature on the nodes of ``gauss_grid``."""
    x, w, S, C = gauss_grid(N, len(rec.basis.xi))
    q, p, p0 = bops.clamped_mixed_history(rec.vals, rec.c, rec.basis.lifts(x),
                                          rec.basis.modes(x), w, S, C)
    return [mixed_state(*row) for row in zip(q, p, p0)]


# ---------------------------------------------------------------------------
# pseudo-spectral nonlinearity


def _dealias_points(N: int, p: float) -> int:
    """The number of intervals of the hinged grid, max(2, ceil(p/2)) N + 1
    rounded up to odd, so that its nodes are even in number."""
    return (max(2, math.ceil(p / 2.0)) * N + 1) | 1


def _power(u: np.ndarray, p: float, lam: float,
           scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """lam |u|^(p-2) u in place on stacked real rows ``u``: its first half of
    rows are the real parts and its second half the imaginary parts of the
    same values, so s = |u|^2 = re^2 + im^2 on contiguous rows (p >= 3 keeps
    0 ** (p-2) = 0).  An integer p takes no ``pow``: with p - 2 = 2m + b,
    |u|^(p-2) = s^m sqrt(s)^b by multiplication, the paths numpy's ``**``
    already takes for p = 3, 4 and 6, and within an ulp or two of it at
    p = 5; a fractional p takes s ** ((p-2)/2).  ``scratch``, an array of
    u's shape and dtype, holds the one temporary if given.  A non-finite
    value raises ``OverflowError``."""
    r = len(u) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.square(u, out=scratch)  # one temporary: re^2 over im^2
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
#: synthesis to projection.  It also bounds a block of ``_hs_sq``'s rows
_BLOCK_BYTES = 1 << 19


def _fold(B: np.ndarray, P: np.ndarray, lift: np.ndarray, dtype) -> tuple:
    """The folded operands (Bs, Ba, Ps, Pa) of ``_grid_forcing`` in ``dtype``:
    the synthesis rows of the parts of u symmetric (even rows of B, the
    lifts' symmetric parts) and antisymmetric (odd rows, antisymmetric
    parts) under x -> 1-x on the W = n/2 nodes x < 1/2, and the even and
    odd rows of P on those nodes.  An odd n, a node at x = 1/2, raises
    ``ValueError``."""
    if B.shape[1] % 2:
        raise ValueError(f"the fold needs an even node count (got {B.shape[1]})")
    W = B.shape[1] // 2                            # nodes x < 1/2
    work = {"dtype": dtype, "casting": "same_kind"}
    flip = lift[:, ::-1]                           # lift rows at 1 - x
    Bs = np.concatenate((B[0::2, :W], 0.5 * (lift + flip)[:, :W]), **work)
    Ba = np.concatenate((B[1::2, :W], 0.5 * (lift - flip)[:, :W]), **work)
    return Bs, Ba, P[0::2, :W].astype(dtype), P[1::2, :W].astype(dtype)


def _rows(buf: np.ndarray, m: int, n: int) -> np.ndarray:
    """A contiguous (m, n) view of the front of the buffer ``buf``."""
    return buf.reshape(-1)[:m * n].reshape(m, n)


def _grid_forcing(c: np.ndarray, vals: np.ndarray, folds: tuple, p: float,
                  lam: float, out: np.ndarray) -> np.ndarray:
    """Add i P @ g to ``out`` (T, K), for the projections P @ g of the node
    values g = lam |u|^(p-2) u of u = c @ B + vals @ lift, with the complex
    coefficient history ``c`` (T, K) and the complex data ``vals`` (T, L) of
    the real lift rows ``lift`` (L, M+1).  A Picard step (``_picard``) writes
    its slope forcing into ``out`` first.

    ``folds`` is the ``_fold`` of (B, P, lift) (a solve passes one of its
    ``Basis.folds``): ``B`` is a real (K, M+1) basis on an even number M+1
    of nodes symmetric under x -> 1-x (a uniform grid or Gauss-Legendre
    nodes) with the parity B_k(1-x) = (-1)^k B_k(x), k = 0..K-1 (sin(k pi x)
    and the clamped phi_j both have it), and the projection ``P`` (K, M+1),
    ``Basis.P``, has that parity too.  So the work folds onto the
    W = (M+1)/2 nodes x < 1/2: the even rows of B and the lifts' symmetric
    parts synthesize the part S of u symmetric under x -> 1-x, the odd rows
    and the lifts' antisymmetric parts its part A, and u(x) = S + A,
    u(1-x) = S - A.  ``_power`` turns those values into g, which folds back
    as S' = g(x) + g(1-x) onto the even rows of P and A' = g(x) - g(1-x)
    onto the odd ones.  At an end node x = 0 that pairs g(0) with g(1), so
    the hinged end correction in P's first column costs no extra pass.  The
    folds give W, their column count, and the working precision (float64 or
    float32) of the stacked rows and the grid block; ``out`` is complex128
    either way.

    Time rows go in blocks of ``_BLOCK_BYTES``, each laid out as one
    (re|im, x|1-x, rows, W) prefix of a flat buffer, so the fold, the power
    and the unfold run on whole contiguous planes, and every GEMM is real
    on stacked (re; im) rows: no complex grid block is formed.  The buffers
    are made once per call, and every GEMM and the power's square write
    into them: the syntheses S and A into one buffer that the power then
    takes as its scratch, the projections into the stacked rows' buffers.
    Overflow anywhere, in a cast to float32 included, raises
    ``OverflowError``.
    """
    Bs, Ba, Ps, Pa = folds
    T, dtype = len(c), Bs.dtype
    W = Bs.shape[1]                                # nodes x < 1/2
    R = max(1, _BLOCK_BYTES // (4 * dtype.itemsize * W))
    grid = np.empty(4 * R * W, dtype=dtype)        # (re|im, x|1-x, rows, W)
    xs_buf = np.empty((2 * R, len(Bs)), dtype=dtype)    # (re; im) of c_even | vals
    xa_buf = np.empty((2 * R, len(Ba)), dtype=dtype)    # (re; im) of c_odd | vals
    sa_buf = np.empty(4 * R * W, dtype=dtype)      # S | A, and _power's scratch
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
            n = 2 * r * W
            S = np.matmul(xs, Bs, out=sa_buf[:n].reshape(2 * r, W))
            A = np.matmul(xa, Ba, out=sa_buf[n:2 * n].reshape(2 * r, W))
            S3, A3 = S.reshape(2, r, W), A.reshape(2, r, W)
            u = grid[:4 * r * W].reshape(2, 2, r, W)
            np.add(S3, A3, out=u[:, 0])
            np.subtract(S3, A3, out=u[:, 1])
            _power(u, p, lam, sa_buf[:2 * n].reshape(u.shape))
            np.add(u[:, 0], u[:, 1], out=S3)
            np.subtract(u[:, 0], u[:, 1], out=A3)
            # the projections go into the stacked rows' buffers, read by now
            fs = np.matmul(S, Ps.T, out=_rows(xs_buf, 2 * r, len(Ps)))
            fa = np.matmul(A, Pa.T, out=_rows(xa_buf, 2 * r, len(Pa)))
            if not (np.isfinite(fs).all() and np.isfinite(fa).all()):
                raise OverflowError("forcing overflow: blow-up candidate")
            # re, im interleaved: even modes at columns 0, 1 mod 4, odd at
            # 2, 3; + i (re + i im) = -im + i re
            ob = out[rows].view(np.float64)
            for col, f in ((0, fs), (2, fa)):
                ob[:, col::4] -= f[r:]
                ob[:, col + 1::4] += f[:r]
    return out


# ---------------------------------------------------------------------------
# Picard iteration: one driver, two families


def _hs_sq(d: np.ndarray, w: np.ndarray, old: np.ndarray = None) -> np.ndarray:
    """(T,) sums sum_k w_k |e_k|^2 over the rows of the complex (T, K)
    history e = d, or e = d - old when ``old`` is given; the Picard distance
    is the sup over t of their square roots.  A diverging iterate gives +inf
    without a warning; its forcing raises ``OverflowError``.

    One pass over blocks of time rows of at most ``_BLOCK_BYTES``, each
    squared and summed while it is in cache: |z|^2 = re^2 + im^2 on the
    float view, then one matrix-vector product with the weights.  With
    ``old``, d - old and then its square are written into ``old``'s block
    (a Picard step's old iterate, which the next step overwrites); without
    it each block is squared into one block scratch and ``d`` is left as it
    is.  So no (T, K) copy is made.  A block holds a multiple of 4 rows and
    the last one never a single row (it takes one row more instead), so
    every row meets the BLAS kernel it meets in the one product over all
    rows and the sums equal that product bit for bit, when BLAS runs one
    thread: a threaded product over all rows splits them where its threads
    do.
    """
    T, K = d.shape
    R = max(4, (_BLOCK_BYTES // (16 * K) - 1) // 4 * 4)    # R + 1 rows fit
    f, w2, out = d.view(np.float64), np.repeat(w, 2), np.empty(T)
    sq = (np.empty((min(T, R + 1), 2 * K)) if old is None
          else old.view(np.float64))                 # re, im interleaved
    r0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for r1 in [*range(R, T - 1, R), T]:
            rows = slice(r0, r1)
            if old is None:
                b = np.multiply(f[rows], f[rows], out=sq[:r1 - r0])
            else:
                b = np.subtract(f[rows], sq[rows], out=sq[rows])
                b *= b
            np.matmul(b, w2, out=out[rows])
            r0 = r1
    return out


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
    and nodes.  The datum phi, sampled once on the nodes by ``_sample``
    (which checks its shape and finiteness), projects as c_phi = P @ phi(x)
    with the forcing's projection ``basis.P``, in two real products, so that
    no complex copy of P is made: hinged, P's end columns
    project phi - e @ (1 - x, x), e phi's end values, which vanishes at both
    ends, so the trapezoid rule has no O(h^2) end term, and add e @ a[:2] in
    closed form; clamped, Gauss quadrature has no end term.
    Each T* attempt builds the Duhamel step weights of its grid
    (``_time_nodes`` nodes) once (``lf.step_weights``), the data h_i and
    slopes h_i' on it (``bops.lift_data``) and v0 = c_phi - h(0) @ a.  A step
    writes the slope forcing - sum_i h_i' a_i into its output buffer by one
    product, the kernel ``_grid_forcing`` adds i forcing(c) to it block by
    block on the basis' cached folds, and the Duhamel history from v0 runs
    over it in place: lin + i Duhamel(forcing(c)) by linearity.  The start
    iterate lin is that step without the kernel.  The distance c_new - c is
    taken in c's buffer, which becomes the next step's output buffer, so an
    attempt holds two (T, K) histories.
    Distances are sup-in-time with the H^s weights ``basis.weights(s)``, each
    one blocked pass of ``_hs_sq``: the distance squares c_new - c block by
    block in c's buffer, and |lin| squares lin block by block in a block
    scratch, so neither copies a history.

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
    it raises ``RuntimeError`` with the data norm of v0 = lin[0].  lam = 0
    takes zero iterations.  The record holds the data h_i(t_j), the last
    iterate c_n and the dtype name of each step.  Its residual is the last
    Picard distance |c_n - c_{n-1}|, below ``tol``, and 0 for lam = 0; as
    c_n = Phi(c_{n-1}) in float64, it bounds |Phi(c_n) - c_n| by the map's
    contraction factor kappa < 1 at no extra map application.
    """
    phi = _sample(np.zeros_like if spec.phi is None else spec.phi, basis.x)
    # two real products: P @ phi would cast the real P to complex first
    c_phi = basis.P @ phi.real + 1j * (basis.P @ phi.imag)
    neg_a = -basis.a.astype(np.complex128)
    wgt = basis.weights(spec.s)
    T_star = spec.T
    while True:
        times = np.linspace(0.0, T_star, _time_nodes(T_star, spec.dt))
        weights = lf.step_weights(times, basis.omegas)
        vals, slopes = bops.lift_data(spec.hs, times)
        v0 = c_phi - vals[0] @ basis.a

        def step(c, dtype, out):
            """Phi(c) into ``out``, and lin for c = None; returns the
            forcing's dtype."""
            np.matmul(slopes, neg_a, out=out)       # the slope forcing - h' @ a
            if c is not None:
                try:
                    _grid_forcing(c, vals, basis.folds[dtype], spec.p,
                                  spec.lam, out)
                except OverflowError:
                    if dtype == np.float64:
                        raise
                    # again from the slope forcing, without the blocks added
                    return step(c, np.float64, out)
            lf.duhamel_history(lf.ForcingHistory(times, out, basis.omegas), v0,
                               weights, out)
            return dtype

        # c_0 = lin: the step's pass with no nonlinear forcing
        c = np.empty((len(times), len(basis.omegas)), dtype=np.complex128)
        step(None, None, c)
        work = np.empty_like(c)
        # two histories: the iterate c and the next one, ``work``
        factors, dists, precisions = [], [], []
        kappa_hat = math.nan
        converged = spec.lam == 0
        while not converged and len(dists) < spec.max_iter:
            if not dists:   # |lin|, with c = lin left as it is
                lin_norm = float(np.sqrt(_hs_sq(c, wgt).max()))
            dtype = step(c, _step_dtype(dists, spec.tol, spec.max_iter,
                                        kappa_hat), work)
            # the distance is squared in the old iterate's buffer, which the
            # next step overwrites
            d = float(np.sqrt(_hs_sq(work, wgt, old=c).max()))
            if dists and dists[-1] > 0:
                factors.append(d / dists[-1])
            if not dists and lin_norm > 0:      # 0 for zero data
                kappa_hat = (spec.p - 1.0) * d / lin_norm
            dists.append(d)
            precisions.append(np.dtype(dtype).name)
            c, work = work, c
            converged = dtype == np.float64 and d < spec.tol
        if converged:
            break
        T_star *= 0.5
        if T_star < spec.dt:
            raise RuntimeError(
                "no contraction: T* underflowed below dt "
                f"(data norm r={np.sqrt(np.abs(v0)**2 @ wgt):.3e})")
    return SolutionRecord(times=times, vals=vals, c=c, basis=basis,
                          tstar=T_star, contraction_factors=factors,
                          iterations=len(dists),
                          residual=dists[-1] if dists else 0.0,
                          step_precision=precisions)


@functools.lru_cache(maxsize=8)
def _hinged_basis(N: int, M: int) -> Basis:
    """The read-only hinged ``Basis``: N sine modes on the uniform grid of
    M intervals, shared by every record on that grid.

    B = sin(k pi x) on the M+1 nodes, and P is B times twice the trapezoid
    weights, the full sine coefficients, but its end columns are a[:2] minus
    that rule's projections of the value lifts 1 - x and x: so P @ f is the rule
    on f - f(0) (1 - x) - f(1) x, which vanishes at both ends and leaves no
    O(k pi f(0) / M^2) end term, plus the closed form f(0) a[0] + f(1) a[1].
    B vanishes at both ends up to rounding, so those columns held nothing else.
    """
    x = np.linspace(0.0, 1.0, M + 1)
    B = np.sin(np.pi * np.outer(x, np.arange(1, N + 1))).T
    L, a = bops.navier_lifts(x), bops.navier_lift_coeffs(N)
    P = B * (2.0 / M)                              # twice the trapezoid weights
    P[:, [0, -1]] *= 0.5                           # read by the end correction
    P[:, [0, -1]] = a[:2].T - P @ L[:2].T
    xi, omegas, x, B, P, L, a = _read_only(np.arange(1, N + 1, dtype=np.float64) * np.pi,
                                           lf.navier_eigenvalues(N), x, B, P, L, a)
    return Basis(xi=xi, omegas=omegas, modes=lambda y: np.sin(np.outer(xi, y)),
                 lifts=bops.navier_lifts, x=x, B=B, P=P, L=L, a=a,
                 states=_sine_states)


def _gauss_points(K: int, p: float) -> int:
    """The number of Gauss-Legendre nodes of the clamped quadrature,
    ceil((p + 1) K / 2) + 16 rounded up to even.

    It grows with the K modes and the degree p - 1 of the nonlinearity, like
    ``_dealias_points``.  Gauss quadrature has no end term, so on smooth
    data the clamped projections reach rounding: the Gram matrix B P^T is
    the identity within 1e-13 on fewer nodes than this at every K for
    p >= 3, and the clamped bench solves (K = 48, p = 5: 160 nodes) sit
    within 2e-12 of a solve on 1024 nodes.  Rough data lose digits: at
    K = 48, the forcing of three random rows sits from the one on 16 K
    nodes, relatively, over eight seeds, 1.4e-10 to 2.5e-9 (p = 4) and
    2.1e-13 to 3.0e-11 (p = 5) for |c_k| ~ k^-2, about the roughest decay
    s > 10/7 admits, and 8.8e-6 to 4.7e-5 (p = 4) and 6.9e-7 to 9.3e-6
    (p = 5) for |c_k| ~ k^-1.
    """
    return 2 * math.ceil(math.ceil((p + 1.0) * K / 2.0) / 2.0) + 16


@functools.lru_cache(maxsize=8)
def _clamped_basis(N: int, K: int, n: int) -> Basis:
    """The read-only clamped ``Basis``: K modes on n Gauss-Legendre nodes of
    [0, 1], shared by every record on them; N sizes only ``states``, whose
    Gauss nodes (``gauss_grid``) are built when it is read."""
    cb = lf.build_clamped_basis(K)
    x, w = gauss_nodes(n)
    B, L = cb.evaluate(x), bops.dirichlet_lifts(x)
    P = B * w
    x, omegas, B, P, L, a = _read_only(x, cb.eigenvalues, B, P, L, L @ P.T)
    return Basis(xi=cb.mu, omegas=omegas, modes=cb.evaluate,
                 lifts=bops.dirichlet_lifts, x=x, B=B, P=P, L=L, a=a,
                 states=functools.partial(_mixed_states, N=N))


def _basis(spec: ProblemSpec) -> Basis:
    """The cached ``Basis`` of ``spec``'s family: N sine modes on
    ``_dealias_points`` intervals, or K_clamped clamped modes on
    ``_gauss_points`` nodes."""
    if spec.family == NAVIER:
        return _hinged_basis(spec.N, _dealias_points(spec.N, spec.p))
    K = spec.K_clamped
    return _clamped_basis(spec.N, K, _gauss_points(K, spec.p))


def picard_navier(spec: ProblemSpec) -> SolutionRecord:
    """The hinged solve on its ``Basis`` (module docstring)."""
    if spec.family != NAVIER:
        raise ValueError("spec is not a hinged-family problem")
    return _picard(spec, _basis(spec))


def picard_dirichlet(spec: ProblemSpec) -> SolutionRecord:
    """The clamped solve on its ``Basis`` (module docstring)."""
    if spec.family != DIRICHLET:
        raise ValueError("spec is not a clamped-family problem")
    return _picard(spec, _basis(spec))
