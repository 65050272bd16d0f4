"""Free propagators and Duhamel convolution.

Two flavors of the linear flow i u_t + u_xxxx = 0 live here:

* the periodic group on the two-periodic extension,
  (q_k, p_k) -> exp(i (k pi)^4 t) (q_k, p_k) with p0 fixed; on a sine state
  (p = 0, p0 = 0) it is the hinged/Navier flow and the cosine part stays 0,
* the clamped flow W^D on the clamped-beam eigenbasis (eigenvalues mu_k^4
  with cos(mu) cosh(mu) = 1); only the basis lives here, its K roots found
  together by one vectorized Newton iteration on cos(mu) = sech(mu).

``duhamel_history`` gives int_0^t exp(i w (t-tau)) f(tau) dtau per mode at
every node, exactly for forcing that is piecewise linear between the nodes
(closed-form exponential-integrator weights, with a Taylor branch for small
phases |w dt| < 1e-3 to dodge cancellation), plus the free flow of a start
row: both solver families take their linear history from that one
recurrence, and ``duhamel`` reads it at one time.  Its weights depend on the
grid's distinct steps alone (``step_weights``), so a caller that runs
several histories on one grid builds them once, and a history may be
written over its own forcing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .spectral import FourierState, _read_only

SMALL_PHASE = 1e-3


def navier_eigenvalues(N: int) -> np.ndarray:
    """(k pi)^4 for k = 1..N, assembled as pi^4 * k^4.

    k^4 is built by exact integer products so the result is bitwise the
    lattice scaling used by the boundary-trace series (n = k^4 times pi^4).
    """
    k = np.arange(1, N + 1, dtype=np.float64)
    k2 = k * k
    return np.pi ** 4 * (k2 * k2)


def propagate_periodic(state: FourierState, t: float) -> FourierState:
    """Periodic group on the extension: rotates q_k and p_k, keeps p0."""
    phases = np.exp(1j * navier_eigenvalues(state.N) * t)
    return FourierState(phases * state.q, phases * state.p, state.p0)


# ---------------------------------------------------------------------------
# clamped-beam eigenbasis


@dataclass(frozen=True)
class ClampedBasis:
    """L2-orthonormal eigenfunctions of d^4/dx^4 with u = u' = 0 at 0 and 1.

    In the form (cosh - cos)(mu x) - sigma (sinh - sin)(mu x) with
    sigma = (cosh mu - cos mu)/(sinh mu - sin mu) every mode has unit L2(0,1)
    norm exactly, so no normalization constants are carried.
    """

    mu: np.ndarray         # characteristic values, eigenvalues are mu**4
    sigma: np.ndarray      # shape ratio (cosh-cos)/(sinh-sin), scaled form
    delta_hat: np.ndarray  # (1-sigma)*exp(mu), cancellation-free

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.mu ** 4

    def evaluate(self, x, order: int = 0) -> np.ndarray:
        """Matrix phi_k(x_j) (or phi_k'(x_j)), shape K x len(x).

        Uses the rescaled form
          cosh(mu x) - sigma sinh(mu x)
            = 0.5 (1+sigma) e^{-mu x} + 0.5 delta_hat e^{mu (x-1)},
        which stays O(1) for large mu instead of cancelling two huge terms.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        mu = self.mu[:, None]
        sig = self.sigma[:, None]
        dh = self.delta_hat[:, None]
        em = np.exp(-mu * x[None, :])
        ep = np.exp(mu * (x[None, :] - 1.0))
        if order == 0:
            hyp = 0.5 * (1.0 + sig) * em + 0.5 * dh * ep
            trig = -np.cos(mu * x[None, :]) + sig * np.sin(mu * x[None, :])
            return hyp + trig
        if order == 1:
            hyp = -0.5 * (1.0 + sig) * em + 0.5 * dh * ep
            trig = np.sin(mu * x[None, :]) + sig * np.cos(mu * x[None, :])
            return mu * (hyp + trig)
        raise ValueError("order must be 0 or 1")


@functools.lru_cache(maxsize=8)
def build_clamped_basis(K: int) -> ClampedBasis:
    """The first K clamped modes, built once per K (its arrays are read-only).

    All K roots of cos(mu) = sech(mu) (cos(mu) cosh(mu) = 1 without
    overflow, sech(mu) = 2 e^{-mu} / (1 + e^{-2 mu})) come from six steps of
    one vectorized Newton iteration started at (k + 1/2) pi: sech(mu) <=
    sech(4.71), so each root lies within 0.018 of its start, where |sin| ~ 1.
    A post-check raises ``RuntimeError`` if a root left (k + 1/2) pi +- 0.7
    or |cos(mu) - sech(mu)| exceeds 2 mu eps (cos of a float mu carries
    about mu eps / 2 of rounding).
    """
    if K < 1:
        raise ValueError("need K >= 1")
    mu = start = (np.arange(1, K + 1) + 0.5) * np.pi
    for _ in range(6):
        em = np.exp(-mu)
        sech = 2.0 * em / (1.0 + em * em)
        mu = mu - (np.cos(mu) - sech) / (np.tanh(mu) * sech - np.sin(mu))
    em = np.exp(-mu)
    residual = np.abs(np.cos(mu) - 2.0 * em / (1.0 + em * em))
    if not (np.all(np.abs(mu - start) <= 0.7)
            and np.all(residual <= 2.0 * np.finfo(np.float64).eps * mu)):
        raise RuntimeError(f"clamped characteristic roots failed for K={K}")
    d = 0.5 * (1.0 - em ** 2) - np.sin(mu) * em          # (sinh-sin) e^{-mu}
    sigma = (0.5 * (1.0 + em ** 2) - np.cos(mu) * em) / d  # (cosh-cos)/(sinh-sin)
    delta_hat = (np.cos(mu) - np.sin(mu) - em) / d         # (1-sigma) e^{mu}
    return ClampedBasis(*_read_only(mu, sigma, delta_hat))


# ---------------------------------------------------------------------------
# Duhamel convolution against a forcing history


@dataclass(frozen=True)
class ForcingHistory:
    """Mode coefficients of a forcing f(.,t) on a strictly increasing grid.

    ``coeffs[j, k]`` is mode k at time ``times[j]``; the declared contract is
    piecewise-linear interpolation between nodes.  ``omegas`` are the matching
    flow eigenvalues ((k pi)^4 or mu_k^4).
    """

    times: np.ndarray
    coeffs: np.ndarray
    omegas: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        c = np.asarray(self.coeffs, dtype=np.complex128)
        w = np.asarray(self.omegas, dtype=np.float64)
        if t.ndim != 1 or len(t) < 1 or np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if c.shape != (len(t), len(w)):
            raise ValueError("coefficient history shape mismatch")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "omegas", w)


def _interval_weights(z: np.ndarray):
    """Dimensionless weights g0 = (e^z - 1)/z and g1 = (e^z - g0)/z with z = i w dt.

    The contribution of one interval [a, b] with endpoint values (fa, fb) is
    dt * (fb * g0 + (fa - fb) * g1), to be carried to the evaluation time by
    the interval phase e^z.  Small |z| uses a 4-term Taylor expansion.
    """
    z = np.asarray(z, dtype=np.complex128)
    g0 = np.empty_like(z)
    g1 = np.empty_like(z)
    small = np.abs(z) < SMALL_PHASE
    zs = z[small]
    g0[small] = 1.0 + zs / 2.0 + zs ** 2 / 6.0 + zs ** 3 / 24.0
    g1[small] = 0.5 + zs / 3.0 + zs ** 2 / 8.0 + zs ** 3 / 30.0
    zb = z[~small]
    ez = np.exp(zb)
    g0b = (ez - 1.0) / zb
    g0[~small] = g0b
    g1[~small] = (ez - g0b) / zb
    return g0, g1


class StepWeights(NamedTuple):
    """The Duhamel weights of one time grid and one set of eigenvalues:
    the distinct step lengths ``steps``, the index ``which`` of each
    interval's step in them, and per distinct step the (S, K) weights
    ``g0``, ``g1`` of ``_interval_weights`` and the rows of the phases
    e^{i w dt}."""

    steps: np.ndarray
    which: np.ndarray
    g0: np.ndarray
    g1: np.ndarray
    phases: list


def step_weights(times: np.ndarray, omegas: np.ndarray) -> StepWeights:
    """The ``StepWeights`` of the grid ``times`` for the eigenvalues
    ``omegas``, once per distinct step length (a ``linspace`` grid has a
    handful)."""
    steps, which = np.unique(np.diff(times), return_inverse=True)
    z = 1j * omegas[None, :] * steps[:, None]
    g0, g1 = _interval_weights(z)
    return StepWeights(steps, which, g0, g1, list(np.exp(z)))


#: time intervals whose terms J are formed together in ``duhamel_history``
_DUHAMEL_BLOCK = 64


def duhamel_history(F: ForcingHistory, v0=None, weights: StepWeights = None,
                    out: np.ndarray = None) -> np.ndarray:
    """V[j, k] = e^{i w_k t_j} v0_k + int_0^{t_j} exp(i w_k (t_j - tau)) f_k(tau) dtau
    at every node of a grid that starts at t_0 = 0 (v0 = 0 if not given).

    One recurrence V[j+1] = e^{i w dt} V[j] + J[j] gives both terms, so the
    free flow of v0 rides on the step phases: a table exp(i w t_j) would
    round the product w t_j, which reaches ~1e9 rad on the top modes.  The
    weights depend on the step only: ``weights``, the ``step_weights`` of
    F's grid, are built here if not given, and a caller that runs several
    histories on one grid builds them once.  V is written into ``out`` if
    given, a (T, K) complex128 array that is either ``F.coeffs`` itself or
    does not overlap it: each block's J is formed before its rows are
    written, and one carry row keeps the forcing at the block's first node.

    The interval terms J are formed for ``_DUHAMEL_BLOCK`` steps at a time
    in buffers made once per call, bit for bit the per-step products: every
    complex product is an explicit ``np.multiply`` into an array that is not
    its operand, since an in-place product such as ``fb * g0[s]`` on the
    temporary ``g0[s]`` runs a numpy loop that rounds differently.  So each
    step writes the phase product straight into V[j+1] and adds J[j] there
    (an addition rounds alike in place).  The steps walk the row views of V
    and J together, each row the next step's previous one, so no step
    indexes V.
    """
    t, c, w = F.times, F.coeffs, F.omegas
    steps, which, g0, g1, phases = (step_weights(t, w) if weights is None
                                    else weights)
    V = np.empty_like(c) if out is None else out
    fa = c[0].copy()                    # the forcing at the block's first node
    V[0] = 0.0 if v0 is None else v0
    J, G, D, GD = np.empty((4, min(_DUHAMEL_BLOCK, len(t) - 1), len(w)),
                           dtype=np.complex128)
    for a in range(0, len(t) - 1, _DUHAMEL_BLOCK):
        s = which[a:a + _DUHAMEL_BLOCK]
        n = len(s)
        fb, Jb, Gb, Db, GDb = c[a + 1:a + 1 + n], J[:n], G[:n], D[:n], GD[:n]
        np.multiply(fb, np.take(g0, s, axis=0, out=Gb), Jb)
        np.subtract(fa, fb[0], Db[0])               # fa - fb, row by row
        np.subtract(c[a + 1:a + n], fb[1:], Db[1:])
        Jb += np.multiply(Db, np.take(g1, s, axis=0, out=Gb), GDb)
        Jb *= steps[s][:, None]
        np.copyto(fa, fb[-1])           # before V overwrites it in place
        prev = V[a]
        for row, j, si in zip(V[a + 1:a + 1 + n], Jb, s.tolist()):
            np.multiply(phases[si], prev, row)  # a positional out parses
            np.add(row, j, row)                 # faster than out=
            prev = row
    return V


def duhamel(F: ForcingHistory, t: float) -> np.ndarray:
    """Mode vector int_0^t exp(i w (t - tau)) f(tau) dtau for t inside the grid:
    the last row of ``duhamel_history`` on the grid cut at t, the forcing
    linear in between.  Callers apply the i / -i prefactors of their formulas.
    """
    times, c = F.times, F.coeffs
    if t < times[0] - 1e-14 or t > times[-1] + 1e-14:
        raise ValueError("evaluation time outside the forcing history")
    t = min(max(t, times[0]), times[-1])
    j = int(np.searchsorted(times, t, side="right"))      # nodes at or before t
    times, c = times[:j], c[:j]
    if t > times[-1]:
        frac = (t - times[-1]) / (F.times[j] - times[-1])
        times = np.append(times, t)
        c = np.vstack((c, c[-1] + frac * (F.coeffs[j] - c[-1])))
    return duhamel_history(ForcingHistory(times, c, F.omegas))[-1]
