"""Numerical experiments around the regularity theory.

Five independent studies:

* ``count_lambda4``     — resonance-multiplicity count for the quartic symbol,
* ``kato_sweep``        — time-regularity exponents of the lattice series of
  the free flow (``kato_increment_sweep`` re-measures them with a second
  estimator),
* ``optimality_run``    — sharpness probe for the boundary-to-interior map,
* ``trace_regularity_r``— norms of the synthetic clamped traces r1..r4,
* ``identity_checks`` / ``tail_bound_spotcheck`` — closed-form series checks.

Each function is pure (seeded RNG in, table out); the CLI layer handles
emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

import numpy as np

from . import boundary_ops as bops
from .spectral import (BoundaryTrace, odd_even_extend, sobolev_norm,
                       trace_sobolev_norm)


# ---------------------------------------------------------------------------
# resonance counting for the quartic symbol


#: largest K whose ``count_lambda4`` key fits an int64: 16K^4 + 4K^3 + 2K < 2^63
LAMBDA4_K_MAX = 27554


def check_lambda4_K(K: int) -> None:
    """Raise ValueError unless ``count_lambda4(K)`` can run exactly."""
    if not 2 <= K <= LAMBDA4_K_MAX:
        raise ValueError(f"lambda4 needs 2 <= K <= {LAMBDA4_K_MAX} (got {K}): "
                         "larger K overflows the int64 bucket key")


def count_lambda4(K: int) -> Dict:
    """Bucket pairs (k, l) in [-K, K]^2 by (k - l, k^4 - l^4) and count.

    The trivial bucket (0, 0) holds the full diagonal k = l (2K+1 entries of
    one infinite family) and is excluded from the maximum; the reported bound
    concerns genuine coincidences (xi, eta) != (0, 0).

    Exact int64 keys: with d = k - l, k^4 - l^4 = d m for
    m = (k + l)(k^2 + l^2), and m is set to 0 on the diagonal, so (d, m)
    determines the bucket and |m| <= 4K^3.  The key d (8K^3 + 1) + m then
    tells the buckets apart, and |key| <= 16K^4 + 4K^3 + 2K stays below 2^63
    for K <= ``LAMBDA4_K_MAX`` = 27554; a larger K raises ValueError before
    anything is allocated.

    Half the keys suffice: (k, l) -> (-k, -l) flips the signs of d and m,
    so it maps each bucket key to -key with the same size.  Since |m| <
    8K^3 + 1, key 0 is exactly the diagonal d = 0, and the positive keys
    are the pairs k > l.  Only those K (2K+1) keys are sorted
    (``_size_histogram``), and the number of buckets of each size they give
    is doubled.  The key matrix takes 8 (2K+1)^2 bytes (1.3 MB at K = 200,
    24 GB at the bound), and the sorted positive keys half that again.
    """
    check_lambda4_K(K)
    k = np.arange(-K, K + 1, dtype=np.int64)
    kk, ll = k[:, None], k[None, :]
    key = kk * kk + ll * ll
    key *= kk + ll                                   # m
    np.fill_diagonal(key, 0)
    key += (kk - ll) * (8 * K ** 3 + 1)
    half = _size_histogram(key[key > 0])
    return {
        "K": K,
        "max_multiplicity": max(half),
        "histogram": {size: 2 * count for size, count in half.items()},
        "diagonal_bucket_size": int(np.count_nonzero(key == 0)),
    }


def _size_histogram(keys: np.ndarray) -> Dict[int, int]:
    """{size: number of distinct values of ``keys`` that occur size times}.

    Sorts ``keys`` in place.  On the sorted keys E_j = #{i : key_i =
    key_{i+j}} sums max(0, size - j) over the distinct values, so
    E_{j-1} - 2 E_j + E_{j+1} of them occur exactly j times: one comparison
    per lag up to the largest size, and no array of run lengths.
    """
    keys.sort()
    E = [keys.size]                                  # E_0, E_1, ..., E_max = 0
    while E[-1]:
        j = len(E)
        E.append(int(np.count_nonzero(keys[j:] == keys[:-j])))
    E.append(0)
    hist = {j: E[j - 1] - 2 * E[j] + E[j + 1] for j in range(1, len(E) - 1)}
    return {j: n for j, n in hist.items() if n}


# ---------------------------------------------------------------------------
# smoothing-exponent sweep


@dataclass(frozen=True)
class RegularitySweep:
    """Randomized ensemble for the trace-exponent measurement."""

    s_grid: Sequence[float] = (1.0, 2.0, 3.0)
    ensemble: int = 16
    eps: float = 0.05
    N: int = 256
    seed: int = 0

    def __post_init__(self):
        if not self.s_grid or not all(0.0 <= s < math.inf for s in self.s_grid):
            raise ValueError("need a nonempty s_grid of finite s >= 0")
        if self.ensemble < 8:
            raise ValueError("ensemble size must be >= 8")
        if not 0 < self.eps < math.inf or self.N < 16:
            raise ValueError("need finite eps > 0 and N >= 16")


_N0_WINDOWS = (16, 32, 64, 128, 256, 512, 1024)


#: exponents are sought in [0, _ALPHA_MAX]; past it a series counts as smooth
_ALPHA_MAX = 6.0


def _crossing_exponents(w: np.ndarray, a_sq: np.ndarray,
                        heads: np.ndarray) -> np.ndarray:
    """Crossing exponent per head mask of ``heads`` (H, N) and row of ``a_sq`` (B, N).

    Returns shape (H, B): 0 where the unweighted tail mass is already ten
    times the head mass, +inf where it is not at alpha = 6, and otherwise the
    root of f(alpha) = log(tail / (10 head)), tail and head being the
    (1+n^2)^alpha-weighted masses.  Dividing by 10 before the log avoids the
    cancellation of log(tail / head) - log 10 at the root.  A zero head
    mass gives 0 when the tail mass is positive and +inf when the row is all
    zero (trivial data, as in ``measured_trace_exponent``).

    With L = log(1+n^2) each mass is sum exp(alpha L) a and its derivative
    sum L exp(alpha L) a, so one exp per step gives f and f'.  f' is the
    weighted mean of L over the tail minus that over the head, positive since
    every tail n exceeds every head n: the root is unique.  All H*B rows take
    safeguarded Newton steps together from alpha = 0 (Numerical Recipes 9.4,
    ``rtsafe``): a step that leaves the bracket [lo, hi] becomes the bracket
    midpoint, and a row stops once its step is at most 1e-15 max(1, alpha)
    (at most 100 steps).  The roots agree with a 60-step bisection on the
    pow form (1+n^2)^alpha to a few ulp.

    No masked copy of ``a_sq`` is made.  Each step forms one weighted row
    array y = a_sq[b] exp(alpha L), shape (rows, N), and per head one
    (rows_h, N) @ (N, 4) product with the columns [head, head L, tail,
    tail L] of that head's 0/1 mask gives both masses and their
    derivatives.  The stacked rows r = h B + b are head-major, so each head's
    active rows are one contiguous slice.  Each term is the product a E L
    (or a E) that a masked (H B, 2, N) copy summed, so the roots are the
    masked form's bit for bit wherever the BLAS sums a row's terms in the
    same order (tests/test_lab.py keeps the masked form as the reference).
    """
    H, B = len(heads), len(a_sq)
    L = np.log(1.0 + w ** 2)
    # cols[h] = (N, 4): head mass, its alpha-derivative, tail mass, its derivative
    cols = np.stack([heads, heads * L, ~heads, ~heads * L], axis=2)
    head0 = np.concatenate([a_sq[:, h].sum(axis=1) for h in heads])
    tail0 = np.concatenate([a_sq[:, ~h].sum(axis=1) for h in heads])
    y = a_sq * np.exp(_ALPHA_MAX * L)
    s_max = np.concatenate([y @ c for c in cols])
    # a zero head mass makes a ratio +inf (positive tail: exponent 0) or nan
    # (all-zero row: trivial data, exponent +inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        at_lo = tail0 / head0 >= 10.0
        at_hi = ~(s_max[:, 2] / s_max[:, 0] >= 10.0)
    est = np.where(at_lo, 0.0, np.inf)

    rows = np.flatnonzero(~(at_lo | at_hi))
    lo, hi = np.zeros(len(rows)), np.full(len(rows), _ALPHA_MAX)
    alpha = np.zeros(len(rows))
    y = a_sq[rows % B]
    for _ in range(100):
        # sd[r] = (head mass, d/dalpha, tail mass, d/dalpha), one product per head
        cuts = np.searchsorted(rows, B * np.arange(H + 1))
        sd = np.concatenate([y[i:j] @ cols[h] for h, (i, j)
                             in enumerate(zip(cuts[:-1], cuts[1:]))])
        f = np.log(sd[:, 2] / (10.0 * sd[:, 0]))
        fp = sd[:, 3] / sd[:, 2] - sd[:, 1] / sd[:, 0]
        below = f < 0.0
        lo, hi = np.where(below, alpha, lo), np.where(below, hi, alpha)
        new = alpha - f / fp
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - alpha) <= 1e-15 * np.maximum(1.0, new)
        est[rows[done]] = new[done]
        keep = ~done
        if not keep.any():
            break
        rows, lo, hi, alpha = rows[keep], lo[keep], hi[keep], new[keep]
        y = np.exp(alpha[:, None] * L)
        y *= a_sq[rows % B]
    else:
        est[rows] = alpha
    return est.reshape(H, B)


def measured_trace_exponent(n_idx: np.ndarray, a_sq: np.ndarray,
                            n0_values: Sequence[int] = _N0_WINDOWS):
    """Largest-finite-exponent estimate for a trace series on a sparse lattice.

    For each head size n0, solve for the weight exponent where the
    (1+n^2)^alpha-weighted tail mass crosses ten times the head mass (a
    bracketed Newton solve in alpha, ``_crossing_exponents``); return the
    median over the n0 windows.  Crude, but monotone in the coefficient
    decay and fully reproducible.  Returns +inf when the series is too short
    for any window or is all zero (finite/trivial data — every exponent is
    finite); a window with zero head mass and a positive tail gives 0.

    ``n_idx`` has shape (N,).  ``a_sq`` of shape (B, N) gives estimates of
    shape (B,); ``a_sq`` of shape (N,) gives a Python float.  Windows with
    the same head set (at n = k^4 the windows n0 = 16, 32, 64 all keep
    k <= 2) are solved once and counted once per window in the median; the
    distinct windows of all rows are solved in one stacked loop.
    """
    w = np.asarray(n_idx, dtype=np.float64)
    a_sq = np.asarray(a_sq, dtype=np.float64)
    rows = np.atleast_2d(a_sq)
    slot: Dict[bytes, int] = {}
    heads: List[np.ndarray] = []
    picks: List[int] = []
    for n0 in n0_values:
        head = w <= n0
        if head.all() or not head.any():
            continue
        key = head.tobytes()
        if key not in slot:
            slot[key] = len(heads)
            heads.append(head)
        picks.append(slot[key])
    est = (np.median(_crossing_exponents(w, rows, np.stack(heads))[picks], axis=0)
           if picks else np.full(len(rows), math.inf))
    return float(est[0]) if a_sq.ndim == 1 else est


def _kato_ensemble(sweep: RegularitySweep) -> Iterator[Tuple[float, np.ndarray]]:
    """Yield (s, q) per s, q of shape (ensemble, N): the sweep's seeded samples.

    Each sample has sine coefficients q_k = k^(-s-1/2-eps) * jittered
    amplitude * unit phase, rotated by the free hinged flow to a random time.
    """
    rng = np.random.default_rng(sweep.seed)
    N = sweep.N
    k = np.arange(1, N + 1)
    rotation = 1j * (k * np.pi) ** 4
    for s in sweep.s_grid:
        mag = k.astype(np.float64) ** (-s - 0.5 - sweep.eps)
        # one draw per sample in the order (jitter, phases, time): amplitude
        # jitter 0.5 + U, since the envelope estimator only sees |q| and pure
        # phase randomization would make the whole ensemble a single sample
        u = rng.random((sweep.ensemble, 2 * N + 1))
        # np.multiply fixes the operand order: on a large temporary right
        # operand, ``*`` runs in place on it with the operands swapped, and
        # the complex product is not bitwise commutative
        q = np.multiply(mag * (0.5 + u[:, :N]), np.exp(2j * np.pi * u[:, N:2 * N]))
        # free flow: |coefficients| are invariant, traces pick up phases
        yield float(s), np.multiply(q, np.exp(rotation * u[:, 2 * N:]))


def _kato_row(s: float, i: int, eps: float, samples: List[float]) -> Dict:
    return {
        "s": s, "order": i,
        "measured": float(np.median(samples)) if samples else math.nan,
        "predicted": max(0.0, (s - i + eps) / 4.0),
        "boundary_exponent": (s + 3.0 - i) / 4.0,
        "samples": len(samples),
    }


def kato_sweep(sweep: RegularitySweep) -> List[Dict]:
    """Time-regularity exponents of the lattice series of the free hinged flow.

    The flow rotates each mode by exp(i (k pi)^4 t), and the sweep measures
    the series g_i(t) = sum_k (k pi)^i q_k e^{i (k pi)^4 t}, i = 0, 1, 2, on
    the sparse time-frequency lattice n = k^4.  Only g_1 is a nonzero endpoint
    trace of the flow: it is the slope u_x(0, t).  For a sine series the
    order-0 and order-2 values sin(k pi x) and -(k pi)^2 sin(k pi x) vanish
    identically at x = 0, so rows i = 0, 2 measure the lattice series g_0 and
    g_2, not traces.  ``measured_trace_exponent`` solves for the crossing
    exponent of every sample (one call per s on the stacked rows of all
    three orders) and the per-(s, i) median of the finite estimates is
    reported next to ``predicted``, the exact threshold max(0, (s-i+eps)/4),
    and ``boundary_exponent``, the paper's (s+3-i)/4.

    Why the threshold is (s-i+eps)/4:

    * p-series.  With |q_k| ~ k^(-s-1/2-eps), the term of
      sum_k (1+n^2)^alpha k^(2i) |q_k|^2 at n = k^4 is ~ k^(8 alpha+2i-2s-1-2eps),
      so the sum converges exactly when alpha < (s-i+eps)/4.  For
      s-i+eps <= 0 it diverges already at alpha = 0, and exponents are
      reported from 0 up, so the threshold is 0.
    * Jitter.  The amplitudes lie in [0.5, 1.5], so each |q_k|^2 is within a
      factor in [1/4, 9/4] of the bare power law; the sums are bounded by
      constants times each other and converge for the same alpha.  The
      phases and the flow's rotation are unimodular and drop out.
    * Ingham.  The lattice gaps (k+1)^4 - k^4 grow without bound, so by
      Ingham's inequality (Ingham 1936) (1/T) int_0^T |sum_k a_k e^{i w_k t}|^2 dt
      is equivalent to sum_k |a_k|^2 for every T > 0, and the H^alpha(0, T)
      norm of g_i to the lattice-weighted sum above.  No finite time
      window sees more than the threshold; ``increment_trace_exponent``
      checks this without using the equivalence.
    * The paper's exponent.  H^((s+3-j)/4)_loc(R^+) is the space the paper
      takes the order-j boundary *data* of the IBVP from, so that the
      solution stays in H^s (its sharpness is what ``optimality_run``
      probes).  It is not a regularity that the series g_i of the free flow
      on (0, 1) attain: for this ensemble they sit (3-eps)/4 lower (less where
      the threshold clamps at 0).  On the half-line
      the traces do gain, to H^((2s+3-2i)/8) (Ozsari-Yolcu 2019), but that
      gain comes from continuous spectrum, which the interval does not have.
    """
    k = np.arange(1, sweep.N + 1)
    n_idx = k.astype(np.float64) ** 4
    rows: List[Dict] = []
    for s, qs in _kato_ensemble(sweep):
        est = measured_trace_exponent(n_idx, np.vstack(
            [np.abs((k * np.pi) ** i * qs) ** 2 for i in (0, 1, 2)]))
        flagged = int(np.count_nonzero(~np.isfinite(est)))
        for i, e in enumerate(np.split(est, 3)):
            samples = [float(m) for m in e[np.isfinite(e)]]
            rows.append({**_kato_row(s, i, sweep.eps, samples), "flagged": flagged})
    return rows


#: averaging window of the increment energy; the criterion-10 estimates move
#: by less than 1e-4 for T anywhere in [0.01, 0.2]
_INCREMENT_T = 0.05


def _increment_window(omega: np.ndarray) -> np.ndarray:
    """17 steps h whose resolved wavenumber h^(-1/4) runs from 6 w_1^(1/4) to w_N^(1/4)/4."""
    kappa = np.asarray(omega, dtype=np.float64) ** 0.25
    lo, hi = 6.0 * kappa.min(), kappa.max() / 4.0
    if hi < 2.0 * lo:
        raise ValueError("lattice too short for a scaling window")
    return np.geomspace(hi ** -4, lo ** -4, 17)


def increment_energy(coeffs: np.ndarray, omega: np.ndarray,
                     h_grid: Sequence[float], T: float) -> np.ndarray:
    """S(h) = (1/T) int_0^T |g(t+2h) - 2 g(t+h) + g(t)|^2 dt, g = sum_k c_k e^{i w_k t}.

    Exact: the increment has coefficients c_k (e^{i w_k h} - 1)^2, and the
    cross terms carry the Gram matrix (1/T) int_0^T e^{i (w_k - w_l) t} dt =
    e^{i (w_k - w_l) T/2} sinc((w_k - w_l) T/2) in full, so no
    near-orthogonality of the modes is assumed.  ``coeffs`` of shape
    (..., N) gives S of shape (..., H).
    """
    omega = np.asarray(omega, dtype=np.float64)
    wh = np.outer(np.asarray(h_grid, dtype=np.float64), omega)
    # (e^{iwh} - 1)^2 = -4 sin^2(wh/2) e^{iwh}; the Gram phase e^{i w T/2}
    # is split between the two sides, leaving the real sinc matrix
    mult = -4.0 * np.sin(0.5 * wh) ** 2 * np.exp(1j * (wh + 0.5 * omega * T))
    sinc = np.sinc(np.subtract.outer(omega, omega) * (T / (2.0 * np.pi)))
    d = np.asarray(coeffs, dtype=np.complex128)[..., None, :] * mult
    # the sinc matrix is real: Re[(d @ sinc) . conj d] = sum over the parts
    # x = re d, im d of (x @ sinc) . x, one real GEMM on the stacked parts
    x = np.stack((d.real, d.imag))
    q = (x.reshape(-1, len(omega)) @ sinc).reshape(x.shape)
    q *= x
    return q.sum(axis=-1).sum(axis=0)


def increment_trace_exponent(coeffs: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Local-in-time regularity of g(t) = sum_k c_k e^{i w_k t} from increments.

    For g in the Besov scale of order alpha in (0, 2) the second-increment
    energy S(h) (``increment_energy``) scales as h^(2 alpha); the estimate
    is half the least-squares log-log slope of S over a window of steps well
    inside (1/w_N, 1/w_1) (``_increment_window``).  It uses neither the
    lattice weighting behind ``measured_trace_exponent`` nor Ingham's
    inequality.  ``coeffs`` of shape (..., N) gives estimates of shape (...).
    """
    h = _increment_window(omega)
    S = increment_energy(coeffs, omega, h, _INCREMENT_T)
    slope = np.polyfit(np.log(h), np.log(S.reshape(-1, len(h))).T, 1)[0]
    return 0.5 * slope.reshape(S.shape[:-1])


def kato_increment_sweep(sweep: RegularitySweep) -> List[Dict]:
    """``kato_sweep`` on the same seeded ensemble, with ``increment_trace_exponent``.

    Rows carry the same keys as ``kato_sweep`` except ``flagged``: the
    increment estimate is always finite.
    """
    k = np.arange(1, sweep.N + 1)
    omega = (k * np.pi) ** 4.0
    rows: List[Dict] = []
    for s, qs in _kato_ensemble(sweep):
        for i in (0, 1, 2):
            est = increment_trace_exponent((k * np.pi) ** i * qs, omega)
            rows.append(_kato_row(s, i, sweep.eps, list(est)))
    return rows


# ---------------------------------------------------------------------------
# sharpness probe for the boundary-to-interior map


@dataclass(frozen=True)
class CounterexampleRun:
    """Oscillating boundary families h_n(t) = sum_{0<|k|<=n} |k|^-beta e^{i(k^4+1)pi^4 t}.

    ``order`` selects the boundary operator being probed: 0 uses the
    zero-order weight (k pi)^3, 1 the slope weight (k pi)^2, 2 the curvature
    weight (k pi).  Only order 0 carries the stated closed-form lower bound;
    the admissible beta window for order i is ((1+8 alpha)/2, (3-i)+1/2),
    recomputed from the same exponent arithmetic.
    """

    alpha: float = 0.6
    beta: float = 3.4
    n_grid: Sequence[int] = (4, 8, 16, 32, 64)
    order: int = 0
    interior_modes: int = 4000

    def __post_init__(self):
        if self.order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        if not 0.0 < self.alpha:
            raise ValueError("need alpha > 0")
        w = 3 - self.order
        lo, hi = (1.0 + 8.0 * self.alpha) / 2.0, w + 0.5
        if self.is_boundedness_check:
            # control runs at/above the critical weight only need the trace
            # norm to stay summable; the upper edge is a growth-run condition
            if not lo < self.beta:
                raise ValueError(
                    f"beta={self.beta} must exceed {lo} for a finite ratio")
        elif not (lo < self.beta < hi):
            raise ValueError(
                f"beta={self.beta} outside the admissible window ({lo}, {hi})")
        if min(self.n_grid, default=0) < 1 or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be increasing positive integers")
        # order 0 checks each n against its own interior mode m = n
        need = max(self.n_grid) if self.order == 0 else 1
        if self.interior_modes < need:
            raise ValueError(f"need interior_modes >= {need} at order {self.order} "
                             f"(got {self.interior_modes})")

    @property
    def is_boundedness_check(self) -> bool:
        """alpha at or above the critical (3-order)/4: expected bounded ratios."""
        return self.alpha >= (3 - self.order) / 4.0


def optimality_run(cfg: CounterexampleRun) -> List[Dict]:
    """Exact ratio table ||u||_{L2(space x period)} / ||h_n||_{H^alpha}.

    All norms are closed-form sums: the boundary frequencies (k^4+1) pi^4
    never meet an interior eigenvalue (m pi)^4, so per interior mode m the
    response is a finite combination of pure exponentials and the space-time
    L2 norm over one time period splits by orthogonality.  For order 0 the
    rows also carry the analytic lower bound pi^-2 sum 2 k^(6-2 beta) and a
    per-k check that the mode-m = k resonant-adjacent term alone already
    dominates it.

    Per interior mode m the norm needs two sums over the channels k <= n
    of R_{m,k} = A_k / D_{m,k}: sum R^2 (the incoherent part, one term per
    boundary frequency) and (sum R)^2 (the coherent part, which the
    flow-frequency response collects from every channel).  Both are running
    sums over k: each n adds the block of channels since the previous n, so
    every R is formed and summed once.
    """
    w_exp = 3 - cfg.order
    n_max = max(cfg.n_grid)
    kk = np.arange(1, n_max + 1, dtype=np.float64)
    freqs = kk ** 4 + 1.0                 # lattice indices of h_n
    amps = 2.0 * kk ** (-cfg.beta)        # +k and -k coincide in frequency

    m = np.arange(1, cfg.interior_modes + 1, dtype=np.float64)
    wm = (m * np.pi) ** w_exp
    m4 = m ** 4
    coh, inc = np.zeros(len(m)), np.zeros(len(m))   # sum R, sum R^2 over k <= n
    start = 0
    rows: List[Dict] = []
    for n in cfg.n_grid:
        R = (freqs[start:n, None] - m4) * np.pi ** 4       # D, channels start < k <= n
        if np.any(R == 0):
            raise ArithmeticError("resonant frequency collision (should be impossible)")
        np.divide(amps[start:n, None], R, out=R)
        coh += R.sum(axis=0)
        R *= R
        inc += R.sum(axis=0)
        start = n
        A = amps[:n]
        term1 = wm ** 2 * inc
        term2 = (wm * coh) ** 2
        norm_u_sq = 2.0 * float(np.sum(term1 + term2))   # mirror modes m < 0

        h = BoundaryTrace.from_series(freqs[:n], A.astype(np.complex128))
        norm_h = trace_sobolev_norm(h, cfg.alpha)
        row = {
            "n": int(n),
            "norm_u_sq": norm_u_sq,
            "norm_h": float(norm_h),
            "ratio": math.sqrt(norm_u_sq) / float(norm_h),
        }
        if cfg.order == 0:
            k_small = np.arange(1, n + 1, dtype=np.float64)
            bound_terms = 2.0 * k_small ** (6.0 - 2.0 * cfg.beta) / np.pi ** 2
            # the m = k channel alone: |(m pi)^3 * A_k / pi^4|^2, both signs of m
            diag = 2.0 * (m[:n] * np.pi) ** 6 * amps[:n] ** 2 / np.pi ** 8
            row["lower_bound"] = float(bound_terms.sum())
            row["termwise_ok"] = bool(np.all(diag >= bound_terms))
            row["bound_ok"] = bool(norm_u_sq >= row["lower_bound"])
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# synthetic clamped traces


def _book_keeping(s) -> Dict:
    """Exact rational checks of the exponent arithmetic along the s-grid."""
    sf = Fraction(s).limit_denominator(10 ** 6)
    return {
        "s": float(s),
        "(s+3)/8<s": (sf + 3) / 8 < sf,
        "(s+10)/8<s": (sf + 10) / 8 < sf,
    }


def check_trace_s_grid(s_grid: Sequence[float]) -> None:
    """Raise ValueError unless ``s_grid`` is nonempty and lies in (0, 2]."""
    if len(s_grid) == 0 or not all(0.0 < s <= 2.0 for s in s_grid):
        raise ValueError("s-grid must be nonempty and lie in (0, 2]")


#: margin eps of the extension-norm exponents in ``trace_regularity_r``
TRACE_EPS = 0.01


#: modes of the odd/even split of each ``trace_regularity_r`` datum
TRACE_N = 256


def trace_regularity_r(phis: Sequence[Callable], s_grid: Sequence[float],
                       N: int = TRACE_N) -> List[Dict]:
    """Norm table for the four traces generated by an initial datum.

    For each datum the odd/even split produces trace series on the lattice
    n = k^4; we report their H^s sizes next to the controlling extension
    norms (exponent (s+eps)/2 for s <= 1, 4(s+eps) - 7/2 for 1 < s <= 2,
    eps = ``TRACE_EPS``) and the fitted constant.  The exact rational
    bookkeeping inequalities are attached per s.
    """
    check_trace_s_grid(s_grid)
    data = []
    for phi in phis:
        phi_o, phi_e = odd_even_extend(phi, N)
        data.append((phi_o, phi_e, bops.dirichlet_traces(phi_o, phi_e)))
    rows: List[Dict] = []
    for s in s_grid:
        se = s + TRACE_EPS
        rhs_exp = 0.5 * se if s <= 1.0 else 4.0 * se - 3.5
        for j, (phi_o, phi_e, (r1, r2, r3, r4)) in enumerate(data):
            lhs12 = math.hypot(trace_sobolev_norm(r1, s), trace_sobolev_norm(r2, s))
            lhs34 = math.hypot(trace_sobolev_norm(r3, s), trace_sobolev_norm(r4, s))
            rhs_e = sobolev_norm(phi_e, rhs_exp)
            rhs_o = sobolev_norm(phi_o, rhs_exp)
            rows.append({
                "s": float(s), "datum": j,
                "norm_r12": lhs12, "norm_r34": lhs34,
                "norm_phi_even": float(rhs_e), "norm_phi_odd": float(rhs_o),
                "fitted_C_even": lhs12 / rhs_e if rhs_e > 0 else 0.0,
                "fitted_C_odd": lhs34 / rhs_o if rhs_o > 0 else 0.0,
                **_book_keeping(s),
            })
    return rows


# ---------------------------------------------------------------------------
# closed-form series identities


SQRT_I = complex(math.cos(math.pi / 4.0), math.sin(math.pi / 4.0))


def _series_partials(a_grid: Sequence[float], x: np.ndarray,
                     K_grid: Sequence[int]) -> Dict[int, np.ndarray]:
    """Per K of ``K_grid``: sum_{k<=K} (k^3 + i k a^2) / (k^4 + a^4) sin(k x).

    Each value has shape (len(x), len(a_grid)).  The k axis is cut at each
    K of ``K_grid`` and into blocks of at most 2^12 terms, which keeps each
    block's arrays below 0.5 MB.  A block takes one real product of its
    table sin(k x) with the real and imaginary coefficient columns of every
    a and adds it to the running prefix, which at each K is that K's partial
    sum.  The coefficients are products with the reciprocal 1/(k^4 + a^4),
    as in numpy's complex-by-real division, so they have the bits of the
    complex formula.  The order of summation differs from the direct per-K
    sums: on the defaults of ``identity_checks`` the residuals move by at
    most 2.1e-11 relative.
    """
    a = np.asarray(a_grid, dtype=np.float64)
    total: Dict[int, np.ndarray] = {}
    prefix = np.zeros((len(x), 2 * len(a)))        # re | im, one column per a
    start, chunk = 1, 1 << 12
    for K in sorted({int(K) for K in K_grid}):
        for lo in range(start, K + 1, chunk):
            k = np.arange(lo, min(lo + chunk, K + 1), dtype=np.float64)[:, None]
            scale = 1.0 / (k ** 4 + a ** 4)
            coef = np.concatenate((k ** 3 * scale, k * a ** 2 * scale), axis=1)
            prefix += np.sin(np.outer(x, k)) @ coef
        total[K] = prefix[:, :len(a)] + 1j * prefix[:, len(a):]
        start = K + 1
    return total


def _series_closed_form(a: float, x: np.ndarray) -> np.ndarray:
    z = SQRT_I * a
    return (np.pi / 2.0) * np.sin(z * (np.pi - x)) / np.sin(z * np.pi)


def identity_checks(a_grid: Sequence[float] = (0.5, 1.0, 2.0, 3.5, 5.0),
                    x_grid: Optional[np.ndarray] = None,
                    K_grid: Sequence[int] = (1024, 4096, 16384)) -> Dict:
    """Check the two closed-form series identities.

    Returns max residuals of the partial sums against the closed form per
    truncation level, the sawtooth limit a -> 0 (at the last K of
    ``K_grid``), and the exponential form of sin(e^{i pi/4} a) to machine
    precision.  The partial sums of every a, of the sawtooth's a and of
    every K come from one pass over k (``_series_partials``).
    """
    if x_grid is None:
        x_grid = np.linspace(0.3, math.pi - 0.3, 9)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    # a -> 0: the series degenerates to the classical sawtooth sum
    a0 = 1e-4
    partials = _series_partials(list(a_grid) + [a0], x_grid, K_grid)
    closed = _series_closed_form(np.asarray(a_grid, dtype=np.float64), x_grid[:, None])
    residuals = {int(K): float(np.abs(partials[int(K)][:, :-1] - closed).max(initial=0.0))
                 for K in K_grid}

    saw = 0.5 * (math.pi - x_grid)
    err0 = np.abs(partials[int(K_grid[-1])][:, -1] - saw)

    # exponential form of the rotated sine, on a grid of a
    aa = np.linspace(0.1, 5.0, 50)
    z = SQRT_I * aa
    lhs = np.sin(z)
    u = aa / math.sqrt(2.0)
    rhs = (np.exp(-u) * np.exp(1j * u) - np.exp(u) * np.exp(-1j * u)) / 2j
    sina_err = float(np.abs(lhs - rhs).max() / np.abs(rhs).max())

    return {
        "series_residual_by_K": residuals,
        "sawtooth_limit_residual": float(err0.max()),
        "rotated_sine_residual": sina_err,
    }


def check_tail_bound(lam_grid: Sequence[float], alpha: float,
                     K: int = 200000) -> None:
    """Raise ValueError unless ``tail_bound_spotcheck`` accepts these arguments.

    lam < K^4 / 2 keeps the first summed index k0 at or below K; the slope
    in lambda needs two distinct values.
    """
    if not 0.75 < alpha < 1.0:
        raise ValueError("need alpha in (3/4, 1)")
    if len(set(lam_grid)) < 2 or not all(0.0 <= lam < K ** 4 / 2 for lam in lam_grid):
        raise ValueError(f"need two or more distinct lam values in [0, K^4/2), K = {K}")


def tail_bound_spotcheck(lam_grid: Sequence[float], alpha: float,
                         K: int = 200000) -> Dict:
    """Size of the off-resonant sine tail sum_{k >= k0} sin(k pi x)/(k - lam^(1/4)).

    k0 = floor((2 lam)^(1/4)) keeps the denominator bounded away from zero.
    The conditionally convergent sum is evaluated by summation by parts
    against the closed-form sine partial sums (absolutely convergent
    rewriting; truncation error ~ 1/(K sin(pi x / 2))).  Returns the value
    table at six fixed x in (0, 1), the smallest envelope constant C with
    |S| <= C x^(alpha-1) (1 + lam^(1/4))^(alpha-1), and log-log slopes of the
    measured values in x and in (1 + lam^(1/4)).
    """
    check_tail_bound(lam_grid, alpha, K)
    x_arr = np.array([0.1, 0.2, 0.35, 0.5, 0.7, 0.9])
    lam_arr = np.asarray(lam_grid, dtype=np.float64)
    vals = np.empty((len(lam_arr), len(x_arr)))
    for i, lam in enumerate(lam_arr):
        root = lam ** 0.25
        k0 = int(math.floor((2.0 * lam) ** 0.25))
        k0 = max(k0, int(math.floor(root)) + 1)  # guard tiny lambda
        k = np.arange(k0, K + 1, dtype=np.float64)
        c = 1.0 / (k - root)
        dc = np.empty_like(c)
        dc[:-1] = c[:-1] - c[1:]
        dc[-1] = c[-1]
        for j, x in enumerate(x_arr):
            # partial sums S_k = sum_{m=k0..k} sin(m pi x), closed form
            th = math.pi * x
            Sk = ((np.cos((k0 - 0.5) * th) - np.cos((k + 0.5) * th))
                  / (2.0 * math.sin(0.5 * th)))
            vals[i, j] = abs(float(np.dot(dc, Sk)))
    env = (x_arr[None, :] ** (alpha - 1.0)
           * (1.0 + lam_arr[:, None] ** 0.25) ** (alpha - 1.0))
    C = float(np.max(vals / env))
    # measured power trends (medians of per-line least-squares slopes)
    with np.errstate(divide="ignore"):
        lv = np.log(np.maximum(vals, 1e-300))
    slope_x = float(np.median(np.polyfit(np.log(x_arr), lv.T, 1)[0]))
    slope_lam = float(np.median(
        np.polyfit(np.log(1.0 + lam_arr ** 0.25), lv, 1)[0]))
    return {
        "values": vals,
        "x_grid": x_arr,
        "lam_grid": lam_arr,
        "fitted_C": C,
        "slope_x": slope_x,
        "slope_lam": slope_lam,
        "alpha_minus_1": alpha - 1.0,
        "all_finite": bool(np.isfinite(vals).all()),
    }
