"""Free propagators and Duhamel convolution.

Three flavors of the linear flow i u_t + u_xxxx = 0 live here:

* hinged/Navier flow on sine series: q_k -> exp(i (k pi)^4 t) q_k,
* the periodic group acting on odd+even extensions (same phases, p0 fixed),
* the clamped flow W^D on the clamped-beam eigenbasis (eigenvalues mu_k^4
  with cos(mu) cosh(mu) = 1); the clamped solver rotates its eigen
  coefficients by e^{i mu_k^4 t} itself, so only the basis lives here.

``duhamel`` evaluates int_0^t exp(i w (t-tau)) f(tau) dtau per mode, exactly
for forcing that is piecewise linear between the history's time nodes
(closed-form exponential-integrator weights, with a Taylor branch for small
phases |w dt| < 1e-3 to dodge cancellation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import FourierState, SINE, sine_state

SMALL_PHASE = 1e-3


def navier_eigenvalues(N: int) -> np.ndarray:
    """(k pi)^4 for k = 1..N, assembled as pi^4 * k^4.

    k^4 is built by exact integer products so the result is bitwise the
    lattice scaling used by the boundary-trace series (n = k^4 times pi^4).
    """
    k = np.arange(1, N + 1, dtype=np.float64)
    k2 = k * k
    return np.pi ** 4 * (k2 * k2)


def propagate_navier(state: FourierState, t: float) -> FourierState:
    """Free hinged flow: exact phase rotation of each sine mode."""
    if state.basis != SINE:
        raise ValueError("hinged flow acts on sine states")
    phases = np.exp(1j * navier_eigenvalues(state.N) * t)
    return sine_state(phases * state.q, t=state.t + t)


def propagate_periodic(state: FourierState, t: float) -> FourierState:
    """Periodic group on the extension: rotates q_k and p_k, keeps p0."""
    phases = np.exp(1j * navier_eigenvalues(state.N) * t)
    return FourierState(state.basis, phases * state.q, phases * state.p,
                        state.p0, state.t + t)


# ---------------------------------------------------------------------------
# clamped-beam eigenbasis


def _char_scaled(mu: float) -> float:
    """cos(mu) - sech(mu): same roots as cos(mu)cosh(mu) = 1, overflow-free."""
    return math.cos(mu) - 1.0 / math.cosh(mu)


def _find_root(k: int) -> float:
    """Bracketed bisection near (k + 1/2) pi followed by Newton polish."""
    center = (k + 0.5) * math.pi
    lo, hi = center - 0.7, center + 0.7
    flo, fhi = _char_scaled(lo), _char_scaled(hi)
    if flo * fhi > 0:
        raise RuntimeError(f"root bracketing failed for clamped mode k={k}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = _char_scaled(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    mu = 0.5 * (lo + hi)
    # Newton polish on the scaled characteristic function
    for _ in range(4):
        sech = 1.0 / math.cosh(mu)
        f = math.cos(mu) - sech
        df = -math.sin(mu) + math.tanh(mu) * sech
        step = f / df
        mu -= step
        if abs(step) < 1e-15 * mu:
            break
    return mu


@dataclass(frozen=True)
class ClampedBasis:
    """L2-orthonormal eigenfunctions of d^4/dx^4 with u = u' = 0 at 0 and 1.

    In the form (cosh - cos)(mu x) - sigma (sinh - sin)(mu x) with
    sigma = (cosh mu - cos mu)/(sinh mu - sin mu) every mode has unit L2(0,1)
    norm exactly, so no normalization constants are carried.
    """

    K: int
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


def build_clamped_basis(K: int) -> ClampedBasis:
    if K < 1:
        raise ValueError("need K >= 1")
    mu = np.array([_find_root(k) for k in range(1, K + 1)])
    em = np.exp(-mu)
    d = 0.5 * (1.0 - em ** 2) - np.sin(mu) * em          # (sinh-sin) e^{-mu}
    sigma = (0.5 * (1.0 + em ** 2) - np.cos(mu) * em) / d  # (cosh-cos)/(sinh-sin)
    delta_hat = (np.cos(mu) - np.sin(mu) - em) / d         # (1-sigma) e^{mu}
    return ClampedBasis(K, mu, sigma, delta_hat)


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


def duhamel_history(F: ForcingHistory) -> np.ndarray:
    """V[j, k] = int_0^{t_j} exp(i w_k (t_j - tau)) f_k(tau) dtau at every node.

    The weights depend on the step only, so they are computed once per
    distinct step length (a ``linspace`` grid has a handful) and the
    recurrence indexes those rows.
    """
    t, c, w = F.times, F.coeffs, F.omegas
    V = np.zeros_like(c)
    steps, which = np.unique(np.diff(t), return_inverse=True)
    z = 1j * w[None, :] * steps[:, None]
    g0, g1 = _interval_weights(z)
    ez = np.exp(z)
    for j, s in enumerate(which):
        dt = steps[s]
        J = dt * (c[j + 1] * g0[s] + (c[j] - c[j + 1]) * g1[s])
        V[j + 1] = ez[s] * V[j] + J
    return V


def duhamel(F: ForcingHistory, t: float) -> np.ndarray:
    """Mode vector int_0^t exp(i w (t - tau)) f(tau) dtau for t inside the grid.

    The i / -i prefactors required by the various solution formulas are applied
    by the callers; this is the bare convolution.
    """
    times = F.times
    if t < times[0] - 1e-14 or t > times[-1] + 1e-14:
        raise ValueError("evaluation time outside the forcing history")
    t = min(max(t, times[0]), times[-1])
    V = duhamel_history(F)
    j = int(np.searchsorted(times, t, side="right") - 1)
    j = min(j, len(times) - 2) if len(times) > 1 else 0
    if t == times[j]:
        return V[j]
    dt = t - times[j]
    frac = dt / (times[j + 1] - times[j])
    f_end = F.coeffs[j] + frac * (F.coeffs[j + 1] - F.coeffs[j])
    z = 1j * F.omegas * dt
    g0, g1 = _interval_weights(z)
    J = dt * (f_end * g0 + (F.coeffs[j] - f_end) * g1)
    return np.exp(z) * V[j] + J

