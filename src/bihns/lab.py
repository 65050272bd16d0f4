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
from collections import Counter
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


def count_lambda4(K: int) -> Dict:
    """Bucket pairs (k, l) in [-K, K]^2 by (k - l, k^4 - l^4) and count.

    The trivial bucket (0, 0) holds the full diagonal k = l (2K+1 entries of
    one infinite family) and is excluded from the maximum; the reported bound
    concerns genuine coincidences (xi, eta) != (0, 0).  Exact integers
    throughout — k^4 at K = 1e5 needs more than 64 bits.
    """
    if K < 2:
        raise ValueError("need K >= 2")
    buckets: Counter = Counter()
    for k in range(-K, K + 1):
        k4 = k ** 4
        for l in range(-K, K + 1):
            buckets[(k - l, k4 - l ** 4)] += 1
    diagonal = buckets.pop((0, 0))
    max_mult = max(buckets.values())
    hist = Counter(buckets.values())
    return {
        "K": K,
        "max_multiplicity": max_mult,
        "histogram": dict(sorted(hist.items())),
        "diagonal_bucket_size": diagonal,
    }


# ---------------------------------------------------------------------------
# smoothing-exponent sweep


@dataclass(frozen=True)
class RegularitySweep:
    """Randomized ensemble for the trace-exponent measurement."""

    s_grid: Sequence[float]
    ensemble: int = 16
    eps: float = 0.05
    N: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.ensemble < 8:
            raise ValueError("ensemble size must be >= 8")
        if self.eps <= 0 or self.N < 16:
            raise ValueError("need eps > 0 and N >= 16")


_N0_WINDOWS = (16, 32, 64, 128, 256, 512, 1024)


def measured_trace_exponent(n_idx: np.ndarray, a_sq: np.ndarray,
                            n0_values: Sequence[int] = _N0_WINDOWS) -> float:
    """Largest-finite-exponent estimate for a trace series on a sparse lattice.

    For each head size n0, bisect for the weight exponent where the
    (1+n^2)^alpha-weighted tail mass crosses ten times the head mass; return
    the median over the n0 windows.  Crude, but monotone in the coefficient
    decay and fully reproducible.  Returns +inf when the series is too short
    for any window (finite/trivial data — every exponent is finite).
    """
    w = np.asarray(n_idx, dtype=np.float64)
    a_sq = np.asarray(a_sq, dtype=np.float64)
    out: List[float] = []
    for n0 in n0_values:
        head = w <= n0
        tail = ~head
        if not tail.any() or not head.any():
            continue

        def ratio(alpha):
            wh = (1.0 + w ** 2) ** alpha
            return (wh[tail] * a_sq[tail]).sum() / (wh[head] * a_sq[head]).sum()

        lo, hi = 0.0, 6.0
        if ratio(lo) >= 10.0:
            out.append(0.0)
            continue
        if ratio(hi) < 10.0:
            out.append(math.inf)
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if ratio(mid) < 10.0:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    if not out:
        return math.inf
    return float(np.median(out))


def _kato_ensemble(sweep: RegularitySweep) -> Iterator[Tuple[float, np.ndarray]]:
    """Yield (s, q) per s, q of shape (ensemble, N): the sweep's seeded samples.

    Each sample has sine coefficients q_k = k^(-s-1/2-eps) * jittered
    amplitude * unit phase, rotated by the free hinged flow to a random time.
    """
    rng = np.random.default_rng(sweep.seed)
    k = np.arange(1, sweep.N + 1)
    for s in sweep.s_grid:
        qs = np.empty((sweep.ensemble, sweep.N), dtype=np.complex128)
        for j in range(sweep.ensemble):
            mag = k.astype(np.float64) ** (-s - 0.5 - sweep.eps)
            # amplitude jitter: the envelope estimator only sees |q|, so pure
            # phase randomization would make the whole ensemble a single sample
            mag = mag * rng.uniform(0.5, 1.5, sweep.N)
            q = mag * np.exp(2j * np.pi * rng.random(sweep.N))
            # free flow: |coefficients| are invariant, traces pick up phases
            t = rng.random()
            qs[j] = q * np.exp(1j * (k * np.pi) ** 4 * t)
        yield float(s), qs


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
    g_2, not traces.  ``measured_trace_exponent``
    is applied per sample and the per-(s, i) median is reported next to
    ``predicted``, the exact threshold max(0, (s-i+eps)/4), and
    ``boundary_exponent``, the paper's (s+3-i)/4.

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
        samples: Dict[int, List[float]] = {0: [], 1: [], 2: []}
        flagged = 0
        for q in qs:
            for i in (0, 1, 2):
                a_sq = np.abs((k * np.pi) ** i * q) ** 2
                m = measured_trace_exponent(n_idx, a_sq)
                if not math.isfinite(m):
                    flagged += 1
                    continue
                samples[i].append(m)
        for i in (0, 1, 2):
            rows.append({**_kato_row(s, i, sweep.eps, samples[i]),
                         "flagged": flagged})
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
    return np.real(np.sum((d @ sinc) * d.conj(), axis=-1))


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

    alpha: float
    beta: float
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
        if any(n < 1 for n in self.n_grid) or list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be increasing positive integers")

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
    """
    w_exp = 3 - cfg.order
    n_max = max(cfg.n_grid)
    kk = np.arange(1, n_max + 1, dtype=np.float64)
    freqs = kk ** 4 + 1.0                 # lattice indices of h_n
    amps = 2.0 * kk ** (-cfg.beta)        # +k and -k coincide in frequency

    m = np.arange(1, cfg.interior_modes + 1, dtype=np.float64)
    wm = (m * np.pi) ** w_exp
    denom = (freqs[None, :] - (m ** 4)[:, None]) * np.pi ** 4   # (M, n_max)
    if np.any(denom == 0):
        raise ArithmeticError("resonant frequency collision (should be impossible)")

    rows: List[Dict] = []
    for n in cfg.n_grid:
        A = amps[:n]
        D = denom[:, :n]
        # incoherent part: one term per surviving boundary frequency
        term1 = (wm ** 2) * ((A[None, :] ** 2) / D ** 2).sum(axis=1)
        # coherent part: the flow-frequency response collects every channel
        term2 = (wm * (A[None, :] / D).sum(axis=1)) ** 2
        norm_u_sq = float(np.sum(term1 + term2))    # counts +m and -m... see below
        norm_u_sq *= 2.0                            # mirror modes m < 0

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


def trace_regularity_r(phis: Sequence[Callable], s_grid: Sequence[float],
                       N: int = 256, eps: float = 0.01) -> List[Dict]:
    """Norm table for the four traces generated by an initial datum.

    For each datum the odd/even split produces trace series on the lattice
    n = k^4; we report their H^s sizes next to the controlling extension
    norms (exponent (s+eps)/2 for s <= 1, 4(s+eps) - 7/2 for 1 < s <= 2) and
    the fitted constant.  The exact rational bookkeeping inequalities are
    attached per s.
    """
    rows: List[Dict] = []
    for s in s_grid:
        if not 0.0 < s <= 2.0:
            raise ValueError("s-grid must lie in (0, 2]")
        rhs_exp = 0.5 * (s + eps) if s <= 1.0 else 4.0 * (s + eps) - 3.5
        for j, phi in enumerate(phis):
            phi_o, phi_e = odd_even_extend(phi, N)
            r1, r2, r3, r4 = bops.dirichlet_traces(phi_o, phi_e)
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


def _series_partial(a: float, x: np.ndarray, K: int) -> np.ndarray:
    """sum_{k<=K} (k^3 + i k a^2) / (k^4 + a^4) sin(k x), vectorized in x."""
    total = np.zeros(len(x), dtype=np.complex128)
    chunk = 1 << 16
    for start in range(1, K + 1, chunk):
        k = np.arange(start, min(start + chunk, K + 1), dtype=np.float64)
        coef = (k ** 3 + 1j * k * a ** 2) / (k ** 4 + a ** 4)
        total += np.sin(np.outer(x, k)) @ coef
    return total


def _series_closed_form(a: float, x: np.ndarray) -> np.ndarray:
    z = SQRT_I * a
    return (np.pi / 2.0) * np.sin(z * (np.pi - x)) / np.sin(z * np.pi)


def identity_checks(a_grid: Sequence[float] = (0.5, 1.0, 2.0, 3.5, 5.0),
                    x_grid: Optional[np.ndarray] = None,
                    K_grid: Sequence[int] = (1024, 4096, 16384)) -> Dict:
    """Check the two closed-form series identities.

    Returns max residuals of the partial sums against the closed form per
    truncation level, the sawtooth limit a -> 0, and the exponential form of
    sin(e^{i pi/4} a) to machine precision.
    """
    if x_grid is None:
        x_grid = np.linspace(0.3, math.pi - 0.3, 9)
    x_grid = np.asarray(x_grid, dtype=np.float64)
    residuals = {}
    for K in K_grid:
        worst = 0.0
        for a in a_grid:
            err = np.abs(_series_partial(a, x_grid, K) - _series_closed_form(a, x_grid))
            worst = max(worst, float(err.max()))
        residuals[int(K)] = worst

    # a -> 0: the series degenerates to the classical sawtooth sum
    a0 = 1e-4
    saw = 0.5 * (math.pi - x_grid)
    err0 = np.abs(_series_partial(a0, x_grid, K_grid[-1]) - saw)
    closed0 = np.abs(_series_closed_form(a0, x_grid) - saw)

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
        "sawtooth_closed_form_residual": float(closed0.max()),
        "rotated_sine_residual": sina_err,
    }


def tail_bound_spotcheck(lam_grid: Sequence[float], alpha: float,
                         x_grid: Sequence[float] = (0.1, 0.2, 0.35, 0.5, 0.7, 0.9),
                         K: int = 200000) -> Dict:
    """Size of the off-resonant sine tail sum_{k >= k0} sin(k pi x)/(k - lam^(1/4)).

    k0 = floor((2 lam)^(1/4)) keeps the denominator bounded away from zero.
    The conditionally convergent sum is evaluated by summation by parts
    against the closed-form sine partial sums (absolutely convergent
    rewriting; truncation error ~ 1/(K sin(pi x / 2))).  Returns the value
    table, the smallest envelope constant C with
    |S| <= C x^(alpha-1) (1 + lam^(1/4))^(alpha-1), and log-log slopes of the
    measured values in x and in (1 + lam^(1/4)).
    """
    if not 0.75 < alpha < 1.0:
        raise ValueError("need alpha in (3/4, 1)")
    x_arr = np.asarray(x_grid, dtype=np.float64)
    lam_arr = np.asarray(lam_grid, dtype=np.float64)
    vals = np.empty((len(lam_arr), len(x_arr)))
    flagged = []
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
            val = float(np.dot(dc, Sk))
            vals[i, j] = abs(val)
            if not math.isfinite(val):
                flagged.append((float(lam), float(x)))
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
        "flagged": flagged,
        "all_finite": not flagged,
    }
