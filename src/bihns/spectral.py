"""Fourier bases on the unit interval and truncated Sobolev norms.

Functions on (0,1) are represented by truncated series

    f(x) = p0 + sum_k p_k cos(k pi x) + sum_k q_k sin(k pi x),   k = 1..N,

which is simultaneously a function on the two-periodic extension cell [-1,1]
(sine part = odd reflection, cosine part = even reflection).

The hinged basis projects by the trapezoid rule on its own uniform grid
(``nonlinear._hinged_basis``).  Every other projection is Gauss-Legendre
quadrature of node values, which has no end term: ``gauss_nodes(n)`` is the one
cached builder of the n nodes and weights, and ``gauss_grid(N, K)`` adds the
(n, N) matrices S = sin(k pi x) and C = cos(k pi x) on n = N + K + 16 of them,
for the clamped record's ``states`` view (K its modes) and for the transforms
(K = 0).  Each family's read-only ``nonlinear.Basis`` is built once per grid,
(N, M) hinged and (N, K, n) clamped, and shared by every record on it, and a
solve projects its datum there with the basis' own matrix.  Complex values meet
S and C through ``matmul_real`` (the solvers' forcing folds S in
``nonlinear._grid_forcing`` instead).  The two transforms share the Gauss grid
and differ only by a factor 2:

* ``odd_even_extend``    -- q_k = int_0^1 f sin, p_k = int_0^1 f cos,
  p0 = (1/2) int_0^1 f  (half-weight coefficients of the odd/even *split*
  f = f_o + f_e; the clamped trace study splits data this way, and the
  clamped record's ``states`` view is in this convention).
* ``sine_coefficients``  -- q_k = 2 * int_0^1 f sin(k pi x) dx  (full sine
  transform, the convention of the hinged coefficients c_k).

Boundary signals h(t) are almost-periodic series over the frequency lattice
{n pi^4} (period 2/pi^3), see ``BoundaryTrace``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: fundamental time frequency of boundary-trace series
TRACE_FREQ = np.pi ** 4


def _as_c128(a, n=None):
    arr = np.atleast_1d(np.asarray(a, dtype=np.complex128))
    if n is not None and arr.shape != (n,):
        raise ValueError("coefficient arrays must share length N")
    return arr


@dataclass(frozen=True)
class FourierState:
    """Immutable truncated series state: its coefficients alone.

    ``q`` holds sine coefficients q_1..q_N, ``p`` cosine coefficients
    p_1..p_N and ``p0`` the constant mode.  A sine series (the hinged
    family, or the odd part of a split) is the state with p = 0 and p0 = 0.
    """

    q: np.ndarray
    p: np.ndarray
    p0: complex = 0.0

    def __post_init__(self):
        q = _as_c128(self.q)
        p = _as_c128(self.p, len(q))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "p0", complex(self.p0))
        if len(q) < 1:
            raise ValueError("need N >= 1 modes")
        if not (np.all(np.isfinite(q.view(np.float64)))
                and np.all(np.isfinite(p.view(np.float64)))
                and np.isfinite(self.p0)):
            raise ValueError("non-finite coefficients rejected")
        q.setflags(write=False)
        p.setflags(write=False)

    @property
    def N(self) -> int:
        return len(self.q)


def sine_state(q) -> FourierState:
    q = _as_c128(q)
    return FourierState(q, np.zeros_like(q))


def mixed_state(q, p, p0: complex = 0.0) -> FourierState:
    q = _as_c128(q)
    return FourierState(q, _as_c128(p, len(q)), p0)


# ---------------------------------------------------------------------------
# transforms


def _sample(f, x: np.ndarray) -> np.ndarray:
    """Values of the callable ``f`` on the nodes ``x`` of [0, 1], evaluated
    once on them; it must give one value per node.  A callable that
    overflows gives inf or nan without a warning, and is rejected."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.asarray(f(x), dtype=np.complex128)
    if vals.shape != x.shape:
        raise ValueError(f"a callable must map the {len(x)} grid nodes to as "
                         f"many values (got shape {vals.shape})")
    if not np.all(np.isfinite(vals.view(np.float64))):
        raise ValueError("non-finite samples rejected")
    return vals


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def gauss_nodes(n: int):
    """Read-only (x, w): the n Gauss-Legendre nodes of [0, 1] and their
    weights."""
    # an attribute lookup at call time: numpy loads numpy.polynomial on first
    # use (about 5 ms), so a hinged solve never loads it
    y, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (y + 1.0), 0.5 * w)


@functools.lru_cache(maxsize=8)
def gauss_grid(N: int, K: int):
    """Read-only (x, w, S, C): ``gauss_nodes(N + K + 16)`` and the
    (len(x), N) matrices sin(k pi x), cos(k pi x), k = 1..N.  The rule
    resolves a product of cos(N pi x) with a function of frequency up to
    about K pi, with 16 nodes to spare: the mixed view of a clamped solution
    with K modes, or (K = 0) the transforms of smooth data."""
    x, w = gauss_nodes(N + K + 16)
    kx = np.outer(x, np.pi * np.arange(1, N + 1))
    return (x, w) + _read_only(np.sin(kx), np.cos(kx))


def matmul_real(a, B) -> np.ndarray:
    """Complex ``a`` @ real ``B`` as one real product on stacked (re; im) rows."""
    a = np.asarray(a)
    rows = a.reshape(-1, a.shape[-1])
    n = len(rows)
    r = np.concatenate((rows.real, rows.imag)) @ B
    out = np.empty((n, r.shape[1]), dtype=np.complex128)
    out.real, out.imag = r[:n], r[n:]
    return out.reshape(a.shape[:-1] + (r.shape[1],))


def transform_nodes(N: int) -> np.ndarray:
    """The N + 16 Gauss-Legendre nodes of [0, 1] on which
    ``odd_even_extend`` and ``sine_coefficients`` sample their callable."""
    return gauss_grid(N, 0)[0]


def odd_even_extend(f, N: int):
    """Split f on (0,1) into odd/even two-periodic parts f = f_o + f_e.

    Returns ``(f_o, f_e)``: a sine state and a state with zero sine part,
    with the half-weight coefficients q_k = int_0^1 f sin, p_k = int_0^1 f cos
    and the mean value p0 = (1/2) int_0^1 f (the period-2 cell average of the
    extension), so that reconstructing f_o + f_e reproduces f on the open
    interval.

    The callable ``f`` is sampled once on ``transform_nodes(N)`` and
    integrated by Gauss-Legendre quadrature, with no end term whatever f(0)
    and f(1) are.  A sine series of B modes needs N + B + 16 nodes
    (``gauss_grid(N, B)``), so on these N + 16 it comes out to rounding for
    B <= 4 at N <= 16, B <= 8 at N = 64 and B <= 32 at N = 256; B = 16 and
    32 at N = 64 err by about 1e-8 and 2e-2.  A trapezoid rule is exact on
    such data, which vanish at both ends, but not on smooth f that does not.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    x, w, S, C = gauss_grid(N, 0)
    vw = _sample(f, x) * w
    return (sine_state(matmul_real(vw, S)),
            mixed_state(np.zeros(N), matmul_real(vw, C), 0.5 * vw.sum()))


def sine_coefficients(f, N: int) -> FourierState:
    """Full sine transform q_k = 2*int_0^1 f(x) sin(k pi x) dx, k=1..N:
    twice the odd part of ``odd_even_extend``, with its nodes and its
    bandwidth rule."""
    return sine_state(2.0 * odd_even_extend(f, N)[0].q)


def reconstruct(state: FourierState, grid) -> np.ndarray:
    """Evaluate p0 + sum p_k cos(k pi x) + sum q_k sin(k pi x) on the grid."""
    x = np.atleast_1d(np.asarray(grid, dtype=np.float64))
    arg = np.pi * np.outer(x, np.arange(1, state.N + 1))
    return np.sin(arg) @ state.q + np.cos(arg) @ state.p + state.p0


# ---------------------------------------------------------------------------
# norms


def sobolev_norm(state: FourierState, s: float) -> float:
    """Truncated H^s norm (|p0|^2 + sum (1+(k pi)^2)^s (|q_k|^2+|p_k|^2))^(1/2).

    The (1 + (k pi)^2)^s weight is the fixed convention here (equivalent to the
    homogeneous (k pi)^{2s} weight away from k=0, without the constant-mode
    degeneracy).  ``nonlinear.SolutionRecord.norms`` weighs the solver's
    coefficients c alike, with (1 + xi_k^2)^s.
    """
    w = (1.0 + (np.arange(1.0, state.N + 1) * np.pi) ** 2) ** float(s)
    total = abs(state.p0) ** 2 + np.sum(w * (np.abs(state.q) ** 2 + np.abs(state.p) ** 2))
    return float(np.sqrt(total))


# ---------------------------------------------------------------------------
# boundary-trace signals


@dataclass(frozen=True)
class BoundaryTrace:
    """Time signal h(t) in one form: the series sum_n a_n exp(i n pi^4 t) on
    the integer lattice, or samples (t_j, h_j) read piecewise linearly.

    ``n`` holds the (sparse, sorted, unique) lattice indices and ``a`` the
    matching coefficients; the series has period 2/pi^3.  Samples come only
    with the default zero series; every reader takes them if ``sample_t`` is set.
    """

    n: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.int64))
    a: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=np.complex128))
    sample_t: Optional[np.ndarray] = None
    sample_h: Optional[np.ndarray] = None

    def __post_init__(self):
        n = np.atleast_1d(np.asarray(self.n, dtype=np.int64))
        a = np.atleast_1d(np.asarray(self.a, dtype=np.complex128))
        if n.shape != a.shape:
            raise ValueError("index and coefficient arrays must match")
        if not np.all(np.isfinite(a)):
            raise ValueError("non-finite trace coefficients rejected")
        if len(np.unique(n)) != len(n):
            raise ValueError("duplicate lattice indices")
        order = np.argsort(n)
        object.__setattr__(self, "n", n[order])
        object.__setattr__(self, "a", a[order])
        self.n.setflags(write=False)
        self.a.setflags(write=False)
        if (self.sample_t is None) != (self.sample_h is None):
            raise ValueError("sampled form needs both times and values")
        if self.sample_t is not None:
            st = np.asarray(self.sample_t, dtype=np.float64)
            sh = np.asarray(self.sample_h, dtype=np.complex128)
            if st.shape != sh.shape or st.ndim != 1 or len(st) < 2:
                raise ValueError("sampled form needs two or more (t, h) pairs")
            if not (np.all(np.isfinite(st)) and np.all(np.isfinite(sh))):
                raise ValueError("non-finite trace samples rejected")
            if np.any(np.diff(st) <= 0):
                raise ValueError("sample times must be strictly increasing")
            if np.any(a != 0):
                raise ValueError("a trace is a series or samples, not both")
            object.__setattr__(self, "sample_t", st)
            object.__setattr__(self, "sample_h", sh)

    @property
    def active(self) -> bool:
        """True when the trace carries data: a nonzero series term or samples."""
        return bool(np.any(self.a != 0)) or self.sample_t is not None

    def __call__(self, t) -> np.ndarray:
        """Evaluate the sampled interpolant or the series."""
        t = np.asarray(t, dtype=np.float64)
        if self.sample_t is not None:
            re = np.interp(t, self.sample_t, self.sample_h.real)
            im = np.interp(t, self.sample_t, self.sample_h.imag)
            return re + 1j * im
        # scale the lattice first so the phase argument is built exactly like
        # the flow's omega * t (phases ~ 1e8 rad make the op order visible)
        phases = np.exp(1j * np.multiply.outer(t, TRACE_FREQ * self.n.astype(np.float64)))
        return phases @ self.a

    def derivative(self) -> "BoundaryTrace":
        """d/dt of the signal: sampled form by differences, series termwise."""
        if self.sample_t is not None:
            dh = np.gradient(self.sample_h, self.sample_t)
            return BoundaryTrace(sample_t=self.sample_t, sample_h=dh)
        return BoundaryTrace(self.n, 1j * TRACE_FREQ
                             * self.n.astype(np.float64) * self.a)

    @staticmethod
    def zero() -> "BoundaryTrace":
        return BoundaryTrace()

    @staticmethod
    def from_series(n, a) -> "BoundaryTrace":
        return BoundaryTrace(np.asarray(n, dtype=np.int64), np.asarray(a, dtype=np.complex128))


def trace_sobolev_norm(h: BoundaryTrace, alpha: float) -> float:
    """Truncated time-regularity norm (sum_n (1+n^2)^alpha |a_n|^2)^(1/2)."""
    w = (1.0 + h.n.astype(np.float64) ** 2) ** alpha
    return float(np.sqrt(np.sum(w * np.abs(h.a) ** 2)))
