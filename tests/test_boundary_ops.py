import numpy as np
import pytest
import sympy as sp
from scipy.integrate import solve_ivp

from bihns import boundary_ops as bops
from bihns.linear_flow import navier_eigenvalues
from bihns.spectral import BoundaryTrace, TRACE_FREQ, odd_even_extend

rng = np.random.default_rng(99)

PERIOD = 2.0 / np.pi ** 3

# smooth compatible lattice trace: sin^2(pi^4 t / 2)
H_SIN2 = BoundaryTrace.from_series([-1, 0, 1], [-0.25, 0.5, -0.25])


# ---------------------------------------------------------------------------
# coefficient tables


def test_beta_spot_values_k1():
    tb = bops.build_beta_table(2)
    pi = np.pi
    assert tb.b01[0] == pytest.approx(-1j * pi ** 3, rel=1e-14)
    assert tb.b02[0] == pytest.approx(12j * (pi - 1.0), rel=1e-14)
    assert tb.b11[0] == pytest.approx(-2j * pi, rel=1e-14)
    assert tb.b12[0] == pytest.approx(1j * pi ** 2 - 12j, rel=1e-14)


def test_beta_spot_values_k2():
    tb = bops.build_beta_table(2)
    pi = np.pi
    assert tb.b01[1] == pytest.approx(-8j * pi ** 3 - 24j * pi, rel=1e-14)
    assert tb.b02[1] == pytest.approx(12j * (2 * pi - 1.0), rel=1e-14)
    assert tb.b11[1] == pytest.approx(-12j * pi, rel=1e-14)
    assert tb.b12[1] == pytest.approx(4j * pi ** 2, rel=1e-14)


def test_beta_growth_orders():
    tb = bops.build_beta_table(4096)
    k = np.arange(1, 4097, dtype=np.float64)
    for arr, order in ((tb.b01, 3), (tb.b12, 2), (tb.b11, 1), (tb.b02, 1),
                       (tb.navier0, 3), (tb.navier2, 1)):
        ratio = np.abs(arr) / k ** order
        assert 0.1 < ratio[-100:].min() and ratio[-100:].max() < 1e3
        assert np.all(arr.real == 0.0)  # purely imaginary


def test_beta_table_purely_imaginary_and_bitwise_stable():
    a = bops.build_beta_table(512)
    b = bops.build_beta_table(512)
    for name in ("navier0", "navier2", "b01", "b02", "b11", "b12"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


# ---------------------------------------------------------------------------
# convolution routes


def test_convolve_series_nonresonant_closed_form():
    w = navier_eigenvalues(1)
    h = BoundaryTrace.from_series([2], [1.0])  # frequency 2 pi^4 != pi^4
    t = np.array([0.0, 0.07])
    I = bops.convolve_series(w, h, t)
    nu = 2.0 * TRACE_FREQ
    expect = (np.exp(1j * nu * 0.07) - np.exp(1j * w[0] * 0.07)) / (1j * (nu - w[0]))
    assert abs(I[1, 0] - expect) < 1e-13
    assert abs(I[0, 0]) < 1e-15


def test_convolve_series_resonant_branch():
    # lattice index n = k^4 hits the flow eigenvalue exactly: I = t e^{iwt}
    w = navier_eigenvalues(2)
    h = BoundaryTrace.from_series([16], [1.0])  # (2 pi)^4 = 16 pi^4
    t = np.array([0.0, 0.03])
    I = bops.convolve_series(w, h, t)
    assert abs(I[1, 1] - 0.03 * np.exp(1j * w[1] * 0.03)) < 1e-13


def test_convolve_series_mixed_resonance_per_column():
    # column k = 1 meets n = 1 at resonance and n = 0, 3, 16 off it; column
    # k = 2 meets n = 16 at resonance; each term is checked on its own
    n = np.array([0, 1, 3, 16])
    a = np.array([0.3 - 0.1j, 1.0, -0.7j, 0.4 + 0.2j])
    h = BoundaryTrace.from_series(n, a)
    k = np.array([1, 2])
    w = navier_eigenvalues(2)
    t = np.linspace(0.0, 0.05, 11)
    expect = np.zeros((len(t), 2), dtype=complex)
    for nm, am in zip(n, a):
        nu = nm * TRACE_FREQ
        for col in range(2):
            if nm == k[col] ** 4:
                expect[:, col] += am * t * np.exp(1j * w[col] * t)
            else:
                expect[:, col] += am * (np.exp(1j * nu * t) - np.exp(1j * w[col] * t)) \
                    / (1j * (nu - w[col]))
    I = bops.convolve_series(w, h, t)
    assert np.max(np.abs(I - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_series_and_sampled_routes_agree():
    times = np.linspace(0.0, 0.02, 2001)
    Is = bops.convolve_series(navier_eigenvalues(3), H_SIN2, times)
    sampled = BoundaryTrace(sample_t=times, sample_h=H_SIN2(times))
    Ip = bops.boundary_convolution(sampled, times, 3)
    # piecewise-linear route is O(dt^2); dt=1e-5 here
    assert np.max(np.abs(Is - Ip)) < 1e-6


def test_w0n_linear_ramp_symbolic_oracle():
    """h(t)=t, k=1: the bare time integral of the hinged value-data operator
    W_0^N (``boundary_convolution``) against the sympy antiderivative."""
    tau, ts = sp.symbols("tau t", positive=True)
    w = sp.pi ** 4
    integral = sp.integrate(sp.exp(sp.I * w * (ts - tau)) * tau, (tau, 0, ts))
    expect = complex(integral.subs(ts, sp.Rational(1, 20)).evalf(30))
    times = np.linspace(0.0, 0.05, 501)
    h = BoundaryTrace(sample_t=times, sample_h=times.astype(complex))
    got = bops.boundary_convolution(h, times, 1)[-1, 0]
    assert abs(got - expect) < 1e-14


# ---------------------------------------------------------------------------
# the assembled hinged history


@pytest.mark.parametrize("active", [("h1", "h5"), ("h2", "h6"), ("h1",), ("h6",)],
                         ids=lambda a: "+".join(a))
def test_navier_history_vs_mode_ode_oracle(active):
    """Dual route: assembled boundary history vs direct ODE integration of
    i q' + (k pi)^4 q = 2(k pi)^3 (h1 - cos(k pi) h2) - 2 k pi (h5 - cos(k pi) h6)
    with each active trace sin^2(pi^4 t / 2); a sign flip of any trace fails."""
    N = 3
    times = np.linspace(0.0, 0.02, 201)
    z = BoundaryTrace.zero()
    on = {key: (1.0 if key in active else 0.0) for key in ("h1", "h2", "h5", "h6")}
    hs = [H_SIN2 if on[key] else z for key in ("h1", "h2", "h5", "h6")]
    hist = bops.navier_boundary_history(*hs, times, N)
    for k in range(1, N + 1):
        w = (k * np.pi) ** 4
        kp = k * np.pi
        c = (-1.0) ** k
        amp = (2.0 * kp ** 3 * (on["h1"] - c * on["h2"])
               - 2.0 * kp * (on["h5"] - c * on["h6"]))

        def rhs(t_, y):
            beta = amp * np.sin(np.pi ** 4 * t_ / 2.0) ** 2
            g = -1j * np.exp(-1j * w * t_) * beta
            return [g.real, g.imag]

        sol = solve_ivp(rhs, (0.0, times[-1]), [0.0, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-13, dense_output=True)
        zt = sol.sol(times)
        ref = np.exp(1j * w * times) * (zt[0] + 1j * zt[1])
        assert np.max(np.abs(hist[:, k - 1] - ref)) < 1e-9


# ---------------------------------------------------------------------------
# lifts


def test_navier_lift_symbolic():
    """Differentiate the code: value h1 and curvature h5 at y = 1, zeros at
    y = 0, and d^4/dy^4 = 0 so the lift drops out of the equation."""
    y = sp.symbols("y")
    h1, h5 = 0.7 - 0.2j, -1.3 + 0.4j
    lift = bops.navier_lift(h1, h5, y)
    d2 = sp.diff(lift, y, 2)
    for expr, at, val in ((lift, 1, h1), (d2, 1, h5), (lift, 0, 0.0), (d2, 0, 0.0)):
        assert abs(complex(expr.subs(y, at)) - val) < 1e-14
    assert sp.diff(lift, y, 4) == 0


def test_dirichlet_lift_symbolic():
    """Differentiate the code: with y = 1 - x the lift has value h1 and slope
    h3 at x = 0 and vanishes with its slope at x = 1."""
    x = sp.symbols("x")
    h1, h3 = 0.4 + 0.1j, 2.1 - 0.3j
    lift = bops.dirichlet_lift(h1, h3, 1 - x)
    d1 = sp.diff(lift, x)
    for expr, at, val in ((lift, 0, h1), (d1, 0, h3), (lift, 1, 0.0), (d1, 1, 0.0)):
        assert abs(complex(expr.subs(x, at)) - val) < 1e-14
    assert sp.diff(lift, x, 4) == 0


def test_lift_mixed_coeffs_match_quadrature():
    """Closed-form lift expansions vs the shared transform (dual route)."""
    N = 24
    (q1, p1, c01), (q3, p3, c03) = bops._lift_mixed_coeffs(N)
    for coeffs, poly in (((q1, p1, c01), lambda x: bops.dirichlet_lift(1, 0, 1 - x)),
                         ((q3, p3, c03), lambda x: bops.dirichlet_lift(0, 1, 1 - x))):
        fo, fe = odd_even_extend(lambda x: poly(x).astype(complex), N,
                                 grid_points=4096 * 4 + 1)
        assert np.max(np.abs(fo.q - coeffs[0])) < 1e-7
        assert np.max(np.abs(fe.p - coeffs[1])) < 1e-7
        assert abs(fe.p0 - coeffs[2]) < 1e-9


# ---------------------------------------------------------------------------
# trace series of the split flow


def test_dirichlet_traces_cosine_mode():
    fo, fe = odd_even_extend(lambda x: np.cos(2 * np.pi * x) + 0j, 8,
                             grid_points=4097)
    r1, r2, r3, r4 = bops.dirichlet_traces(fo, fe)
    t = 0.011
    # single even-part term at lattice index 2^4, half-weight normalization
    assert abs(r1(t) - 0.5 * np.exp(1j * (2 * np.pi) ** 4 * t)) < 1e-6
    assert abs(r2(t) - 0.5 * np.exp(1j * (2 * np.pi) ** 4 * t)) < 1e-6  # cos 2pi = 1


def test_dirichlet_traces_sine_mode():
    fo, fe = odd_even_extend(lambda x: np.sin(np.pi * x) + 0j, 8,
                             grid_points=4097)
    r1, r2, r3, r4 = bops.dirichlet_traces(fo, fe)
    t = 0.007
    assert abs(r3(t) - 0.5 * np.pi * np.exp(1j * np.pi ** 4 * t)) < 1e-6
    assert abs(r4(t) + 0.5 * np.pi * np.exp(1j * np.pi ** 4 * t)) < 1e-6


def test_dirichlet_traces_zero():
    fo, fe = odd_even_extend(lambda x: np.zeros_like(x, dtype=complex), 8)
    for r in bops.dirichlet_traces(fo, fe):
        assert np.max(np.abs(r.a)) < 1e-14


# ---------------------------------------------------------------------------
# boundary-value extraction


def test_sine_endpoint_values_exact_templates():
    N = 256
    k = np.arange(1, N + 1)
    # f(x) = 1 - x has full-convention coefficients exactly 2/(k pi)
    q = 2.0 / (k * np.pi)
    a, b = bops.sine_endpoint_values(q[None, :])
    assert abs(a[0] - 1.0) < 1e-10
    assert abs(b[0]) < 1e-10


def test_sine_endpoint_values_smooth_function():
    N = 128
    f = lambda x: np.cos(0.5 * np.pi * x) + 0.25 * x
    from bihns.spectral import sine_coefficients
    q = sine_coefficients(f, N, grid_points=64 * N + 1).q
    a, b = bops.sine_endpoint_values(q[None, :])
    assert abs(a[0] - 1.0) < 1e-4
    assert abs(b[0] - 0.25) < 1e-4


# ---------------------------------------------------------------------------
# the corrected clamped linear solve


def test_dirichlet_linear_history_attains_value_data():
    z = BoundaryTrace.zero()
    times = np.linspace(0.0, PERIOD, 101)
    href = np.sin(np.pi ** 4 * times / 2.0) ** 2
    errs = []
    for N in (32, 64):
        qh, ph, p0h = bops.dirichlet_linear_history(H_SIN2, z, z, z, times, N, K=32)
        u0 = 2.0 * (p0h + ph.sum(axis=1))
        errs.append(np.sqrt(np.trapezoid(np.abs(u0 - href) ** 2, times)))
        k = np.arange(1, N + 1)
        ck = np.where(k % 2 == 0, 1.0, -1.0)
        u1 = 2.0 * (p0h + ph @ ck)
        assert np.sqrt(np.trapezoid(np.abs(u1) ** 2, times)) < 1e-4
    assert errs[1] < errs[0] / 1.3


def test_dirichlet_linear_history_slope_orientation():
    # imposing h4 only: slope at x=1 must equal +h4, slope at x=0 stay small
    z = BoundaryTrace.zero()
    times = np.linspace(0.0, PERIOD, 101)
    href = np.sin(np.pi ** 4 * times / 2.0) ** 2
    N = 96
    qh, ph, p0h = bops.dirichlet_linear_history(z, z, z, H_SIN2, times, N, K=32)
    k = np.arange(1, N + 1)
    ck = np.where(k % 2 == 0, 1.0, -1.0)
    s0 = 2.0 * (qh @ (k * np.pi))
    s1 = 2.0 * (qh @ (k * np.pi * ck))
    e1 = np.sqrt(np.trapezoid(np.abs(s1 - href) ** 2, times))
    e0 = np.sqrt(np.trapezoid(np.abs(s0) ** 2, times))
    ref = np.sqrt(np.trapezoid(href ** 2, times))
    assert e1 < 0.05 * ref
    assert e0 < 0.05 * ref
