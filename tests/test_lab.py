import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bihns import lab
from bihns.lab import (CounterexampleRun, RegularitySweep, count_lambda4,
                       identity_checks, increment_energy,
                       increment_trace_exponent, kato_increment_sweep,
                       kato_sweep, measured_trace_exponent, optimality_run,
                       tail_bound_spotcheck, trace_regularity_r)


# ---------------------------------------------------------------------------
# resonance counting


def test_lambda4_small():
    res = count_lambda4(3)
    assert res["max_multiplicity"] <= 3
    assert res["diagonal_bucket_size"] == 7  # 2K+1 diagonal pairs


def test_lambda4_medium():
    res = count_lambda4(50)
    assert res["max_multiplicity"] <= 3
    assert res["diagonal_bucket_size"] == 101
    # off the diagonal the quartic symbol separates pairs almost perfectly
    assert sum(res["histogram"].values()) > 0
    assert all(m <= 3 for m in res["histogram"])


def test_lambda4_requires_k_ge_2():
    with pytest.raises(ValueError):
        count_lambda4(1)


@pytest.mark.parametrize("K", [2, 3, 17, 200])
def test_lambda4_off_diagonal_buckets_are_singletons(K):
    # for d != 0, k -> k^4 - (k-d)^4 has derivative 4d(3k^2 - 3dk + d^2),
    # whose discriminant -3d^2 is negative: strictly monotone, so injective
    res = count_lambda4(K)
    assert res["histogram"] == {1: 2 * K * (2 * K + 1)}
    assert res["diagonal_bucket_size"] == 2 * K + 1
    assert res["max_multiplicity"] == 1


def test_lambda4_matches_brute_force_counter():
    K = 12
    buckets = Counter((k - l, k ** 4 - l ** 4)
                      for k in range(-K, K + 1) for l in range(-K, K + 1))
    diagonal = buckets.pop((0, 0))
    assert count_lambda4(K) == {
        "K": K,
        "max_multiplicity": max(buckets.values()),
        "histogram": dict(sorted(Counter(buckets.values()).items())),
        "diagonal_bucket_size": diagonal,
    }


def test_lambda4_key_bound_rejected_before_allocation(monkeypatch):
    K = lab.LAMBDA4_K_MAX
    # the largest |key| fits an int64 at the bound and not one past it
    assert 16 * K ** 4 + 4 * K ** 3 + 2 * K < 2 ** 63
    assert 16 * (K + 1) ** 4 > 2 ** 63

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"np.{name} used before the K bound was checked")

    monkeypatch.setattr(lab, "np", NoNumpy())
    with pytest.raises(ValueError, match="int64"):
        count_lambda4(K + 1)


def _lambda4_full_sort(K):
    """count_lambda4 by sorting all (2K+1)^2 keys, with np.unique of the run lengths."""
    k = np.arange(-K, K + 1, dtype=np.int64)
    kk, ll = k[:, None], k[None, :]
    m = (kk + ll) * (kk * kk + ll * ll)
    np.fill_diagonal(m, 0)
    key = ((kk - ll) * (8 * K ** 3 + 1) + m).ravel()
    key.sort()
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[starts, key.size])
    diagonal = key[starts] == 0
    mult, buckets = np.unique(sizes[~diagonal], return_counts=True)
    return {
        "K": K,
        "max_multiplicity": int(mult[-1]),
        "histogram": {int(a): int(b) for a, b in zip(mult, buckets)},
        "diagonal_bucket_size": int(sizes[diagonal][0]),
    }


@pytest.mark.parametrize("K", [2, 3, 17, 200])
def test_lambda4_equals_full_sort(K):
    assert count_lambda4(K) == _lambda4_full_sort(K)


def test_size_histogram_counts_repeated_values():
    # the lambda4 keys are all distinct off the diagonal; these are not
    rng = np.random.default_rng(3)
    cases = [np.zeros(7, dtype=np.int64), np.arange(5)]
    cases += [rng.integers(-hi, hi, n) for n, hi in ((50, 3), (400, 40), (1000, 1000))]
    for keys in cases:
        want = dict(Counter(Counter(keys.tolist()).values()))
        assert lab._size_histogram(keys.copy()) == want


# ---------------------------------------------------------------------------
# exponent estimator


def test_measured_exponent_trivial_series():
    assert math.isinf(measured_trace_exponent(np.array([1.0, 16.0]),
                                              np.array([1.0, 0.5])))
    # an all-zero row is trivial data too, without a warning (warnings are
    # errors here)
    n = np.arange(1, 257, dtype=np.float64) ** 4
    assert math.isinf(measured_trace_exponent(n, np.zeros(256)))
    assert math.isinf(measured_trace_exponent(n[:4], np.zeros(4)))


def _scalar_exponent(w, a_sq, n0_values=(16, 32, 64, 128, 256, 512, 1024)):
    """One row at a time: the pow-form bisection that the Newton solve replaced."""
    out = []
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
    return float(np.median(out)) if out else math.inf


def _sweep_rows(sweep):
    """Per s of the sweep: the (3 ensemble, N) stacked a_sq rows of orders 0, 1, 2."""
    k = np.arange(1, sweep.N + 1)
    return [np.vstack([np.abs((k * np.pi) ** i * qs) ** 2 for i in (0, 1, 2)])
            for _, qs in lab._kato_ensemble(sweep)]


def test_batched_exponent_equals_scalar_bisection():
    k = np.arange(1, 257)
    n = k.astype(np.float64) ** 4
    rows = _sweep_rows(RegularitySweep(s_grid=[1.0, 2.0, 3.0], ensemble=8, seed=11))
    rows.append(np.ones((1, 256)))                       # ratio(0) >= 10: 0
    rows.append(np.where(k <= 2, 1.0, 0.0)[None, :])     # ratio(6) < 10: inf
    a_sq = np.vstack(rows)
    want = np.array([_scalar_exponent(n, row) for row in a_sq])
    assert want[-2] == 0.0 and want[-1] == math.inf
    got = measured_trace_exponent(n, a_sq)
    assert got.shape == (len(a_sq),)
    _assert_matches_bisection(got, want)
    one = measured_trace_exponent(n, a_sq[0])
    assert type(one) is float and one == got[0]
    # four windows (an even median) on k <= 4; none at all on k <= 2
    short = a_sq[:, :4]
    _assert_matches_bisection(measured_trace_exponent(n[:4], short),
                              np.array([_scalar_exponent(n[:4], row) for row in short]))
    assert np.all(np.isinf(measured_trace_exponent(n[:2], a_sq[:, :2])))


def _assert_matches_bisection(got, want):
    # exp(alpha log(1+n^2)) is not (1+n^2)**alpha bit for bit, so a solved
    # root and the bisected one may differ in the last few bits; the 0 and
    # inf rules do not solve and stay exact
    solved = np.isfinite(want) & (want > 0.0)
    assert solved.any()
    np.testing.assert_array_max_ulp(got[solved], want[solved], maxulp=4)
    assert list(got[~solved]) == list(want[~solved])


def _masked_crossing_exponents(w, a_sq, heads):
    """The solver before the weighted-row form: a masked (H B, 2, N) copy per step."""
    (H, B), N = (len(heads), len(a_sq)), len(w)
    L = np.log(1.0 + w ** 2)
    LV = np.stack([np.ones_like(L), L], axis=1)
    masks = np.stack([heads, ~heads], axis=1)
    masses = (masks[:, None] * a_sq[None, :, None, :]).reshape(H * B, 2, N)
    ratio0 = np.concatenate([a_sq[:, ~h].sum(axis=1) / a_sq[:, h].sum(axis=1)
                             for h in heads])
    s_max = (masses.reshape(-1, N) @ np.exp(6.0 * L)).reshape(-1, 2)
    at_lo, at_hi = ratio0 >= 10.0, s_max[:, 1] / s_max[:, 0] < 10.0
    est = np.where(at_lo, 0.0, np.inf)
    rows = np.flatnonzero(~(at_lo | at_hi))
    lo, hi = np.zeros(len(rows)), np.full(len(rows), 6.0)
    alpha = np.zeros(len(rows))
    sd = (masses[rows].reshape(-1, N) @ LV).reshape(-1, 2, 2)
    for _ in range(100):
        f = np.log(sd[:, 1, 0] / (10.0 * sd[:, 0, 0]))
        fp = sd[:, 1, 1] / sd[:, 1, 0] - sd[:, 0, 1] / sd[:, 0, 0]
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
        E = np.exp(alpha[:, None] * L)
        sd = ((masses[rows] * E[:, None, :]).reshape(-1, N) @ LV).reshape(-1, 2, 2)
    else:
        est[rows] = alpha
    return est.reshape(H, B)


def _window_heads(w):
    """The distinct head masks of the default windows, as measured_trace_exponent forms them."""
    heads = []
    for n0 in (16, 32, 64, 128, 256, 512, 1024):
        head = w <= n0
        if head.any() and not head.all() and not any((head == h).all() for h in heads):
            heads.append(head)
    return np.stack(heads)


def test_crossing_exponents_equal_masked_reference():
    # same products a E L summed over n, so the same bits; the batches are
    # the criterion-10 calls of kato_sweep at its defaults
    k = np.arange(1, 257)
    n = k.astype(np.float64) ** 4
    heads, short = _window_heads(n), _window_heads(n[:4])
    assert (len(heads), len(short)) == (4, 2)
    for seed in range(10):
        for a_sq in _sweep_rows(RegularitySweep(seed=seed)):
            assert a_sq.shape == (48, 256)
            assert np.array_equal(lab._crossing_exponents(n, a_sq, heads),
                                  _masked_crossing_exponents(n, a_sq, heads))
            assert np.array_equal(lab._crossing_exponents(n[:4], a_sq[:, :4], short),
                                  _masked_crossing_exponents(n[:4], a_sq[:, :4], short))
    rules = np.vstack([np.ones(256), np.where(k <= 2, 1.0, 0.0)])    # 0, inf
    got = lab._crossing_exponents(n, rules, heads)
    assert np.array_equal(got, _masked_crossing_exponents(n, rules, heads))
    assert np.all(got[:, 0] == 0.0) and np.all(np.isinf(got[:, 1]))


def test_measured_exponent_zero_head_mass():
    # a zero head with a positive tail crosses at once: 0, without a warning
    k = np.arange(1, 257)
    n = k.astype(np.float64) ** 4
    a_sq = np.where(k <= 2, 0.0, k ** -3.0)
    for n0 in (16, 32, 64):
        assert measured_trace_exponent(n, a_sq, n0_values=(n0,)) == 0.0
    per_window = [measured_trace_exponent(n, a_sq, n0_values=(n0,))
                  for n0 in (16, 32, 64, 128, 256, 512, 1024)]
    assert 0.0 < per_window[3] < math.inf
    # the windows with a positive head solve as before
    _assert_matches_bisection(np.array(per_window[3:]), np.array(
        [_scalar_exponent(n, a_sq, (n0,)) for n0 in (128, 256, 512, 1024)]))
    assert measured_trace_exponent(n, a_sq) == np.median(per_window)
    both = measured_trace_exponent(n, np.vstack([a_sq, np.zeros(256)]))
    assert both[0] == np.median(per_window) and math.isinf(both[1])


def test_exponent_call_peak_memory():
    # one criterion-10 call (48 x 256, 4 heads) holds at most four
    # (H B, N) float arrays at once; the masked (H B, 2, N) copy and its
    # per-step gather took 2.8 MB
    k = np.arange(1, 257)
    n = k.astype(np.float64) ** 4
    bound = 4 * 4 * 48 * 256 * 8
    for a_sq in _sweep_rows(RegularitySweep(seed=0)):
        tracemalloc.start()
        try:
            measured_trace_exponent(n, a_sq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


def test_exponent_brackets_the_pow_form_crossing():
    # solver-free check: per window, the pow-form ratio crosses 10 within
    # 1e-13 of each returned exponent
    k = np.arange(1, 257)
    w = k.astype(np.float64) ** 4
    a_sq = np.vstack(_sweep_rows(RegularitySweep(s_grid=[1.0, 2.0, 3.0],
                                                 ensemble=8, seed=5)))
    solved = 0
    for n0 in (16, 128, 256, 1024):
        head = w <= n0
        alpha = measured_trace_exponent(w, a_sq, n0_values=(n0,))
        inner = (alpha > 0.0) & np.isfinite(alpha)
        solved += int(np.count_nonzero(inner))

        def ratio(al, rows=a_sq[inner]):
            wt = (1.0 + w ** 2) ** al[:, None]
            return ((wt * rows)[:, ~head].sum(axis=1)
                    / (wt * rows)[:, head].sum(axis=1))

        assert np.all(ratio(alpha[inner] - 1e-13) < 10.0)
        assert np.all(ratio(alpha[inner] + 1e-13) >= 10.0)
    assert solved > len(a_sq)


def test_exponent_solve_exp_budget(monkeypatch):
    # cost guard without a clock: each Newton step takes one np.exp over the
    # stacked rows, so the calls count the steps (60 pow bisection steps per
    # window before)
    k = np.arange(1, 257)
    n = k.astype(np.float64) ** 4
    batches = _sweep_rows(RegularitySweep(s_grid=[1.0, 2.0, 3.0], ensemble=16,
                                          N=256, seed=0))
    calls = []

    class CountingNumpy:
        def __getattr__(self, name):
            if name == "exp":
                def exp(*args, **kwargs):
                    calls.append(1)
                    return np.exp(*args, **kwargs)
                return exp
            return getattr(np, name)

    monkeypatch.setattr(lab, "np", CountingNumpy())
    for a_sq in batches:
        assert a_sq.shape == (48, 256)
        calls.clear()
        measured_trace_exponent(n, a_sq)
        assert 0 < len(calls) <= 12


def test_kato_sweep_one_estimator_call_per_s(monkeypatch):
    calls = []

    def counted(n_idx, a_sq, *args):
        calls.append(a_sq.shape)
        return measured_trace_exponent(n_idx, a_sq, *args)

    monkeypatch.setattr(lab, "measured_trace_exponent", counted)
    kato_sweep(RegularitySweep(s_grid=[1.0, 2.0], ensemble=8, N=64, seed=2))
    assert calls == [(24, 64), (24, 64)]


@pytest.mark.parametrize("ensemble,N", [(16, 256), (32, 512)])
def test_kato_ensemble_equals_per_sample_draws(ensemble, N):
    # the ensemble is the per-sample recipe bit for bit: amplitude jitter
    # uniform(0.5, 1.5), phases, then the flow time, drawn sample by sample;
    # 32 x 512 complex values pass numpy's 256 KiB temporary-elision size
    sweep = RegularitySweep(s_grid=[1.0, 2.5], ensemble=ensemble, N=N, seed=5)
    rng = np.random.default_rng(5)
    k = np.arange(1, N + 1)
    for s, qs in lab._kato_ensemble(sweep):
        for row in qs:
            mag = k.astype(np.float64) ** (-s - 0.5 - sweep.eps)
            mag = mag * rng.uniform(0.5, 1.5, N)
            q = mag * np.exp(2j * np.pi * rng.random(N))
            t = rng.random()
            assert np.array_equal(row, q * np.exp(1j * (k * np.pi) ** 4 * t))


def test_measured_exponent_tracks_decay():
    # heavier tails => larger measured exponent; pure power-law check
    n = np.arange(1, 257, dtype=np.float64) ** 4
    slow = measured_trace_exponent(n, (n ** -0.5))
    fast = measured_trace_exponent(n, (n ** -1.5))
    assert fast > slow


def test_sweep_validation():
    with pytest.raises(ValueError):
        RegularitySweep(s_grid=[1.0], ensemble=4)
    for s_grid in ([], [math.nan], [math.inf], [-0.5], [1.0, -1e-9]):
        with pytest.raises(ValueError, match="s_grid"):
            RegularitySweep(s_grid=s_grid)
    with pytest.raises(ValueError):
        RegularitySweep(s_grid=[1.0], N=8)


def test_kato_sweep_monotone_in_order():
    rows = kato_sweep(RegularitySweep(s_grid=[2.0], ensemble=8, N=128, seed=3))
    meds = {r["order"]: r["measured"] for r in rows}
    assert meds[0] >= meds[1] - 1e-9 >= meds[2] - 2e-9
    for r in rows:
        assert r["boundary_exponent"] == pytest.approx((2.0 + 3.0 - r["order"]) / 4.0)
        assert r["predicted"] == pytest.approx(max(0.0, (2.0 - r["order"] + 0.05) / 4.0))


# ---------------------------------------------------------------------------
# second estimator: second-order time increments


def test_increment_energy_matches_quadrature():
    """The exact Gram form of S(h) vs trapezoid quadrature of the sampled trace."""
    rng = np.random.default_rng(5)
    k = np.arange(1, 5)
    omega = (k * np.pi) ** 4
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    T, hs = 0.05, np.array([1e-5, 1e-4, 3e-4])
    t = np.linspace(0.0, T, 200001)

    def g(tt):
        return np.exp(1j * np.outer(tt, omega)) @ c

    for h, S in zip(hs, increment_energy(c, omega, hs, T)):
        inc = np.abs(g(t + 2 * h) - 2 * g(t + h) + g(t)) ** 2
        assert S == pytest.approx(np.trapezoid(inc, t) / T, rel=1e-6)


def test_increment_energy_equals_complex_gram_form():
    # the real split of the Gram form against the complex product it replaced
    rng = np.random.default_rng(11)
    k = np.arange(1, 33)
    omega = (k * np.pi) ** 4
    c = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
    h, T = np.geomspace(1e-8, 1e-3, 5), 0.05
    wh = np.outer(h, omega)
    mult = -4.0 * np.sin(0.5 * wh) ** 2 * np.exp(1j * (wh + 0.5 * omega * T))
    sinc = np.sinc(np.subtract.outer(omega, omega) * (T / (2.0 * np.pi)))
    d = c[:, None, :] * mult
    want = np.real(np.sum((d @ sinc) * d.conj(), axis=-1))
    np.testing.assert_allclose(increment_energy(c, omega, h, T), want, rtol=1e-12)


@pytest.mark.parametrize("alpha", [0.25, 0.6, 1.2])
def test_increment_exponent_power_law(alpha):
    # |c_k|^2 = k^(-1-8 alpha) on n = k^4: sum (1+n^2)^a |c_k|^2 < inf iff a < alpha
    k = np.arange(1, 257)
    phase = np.exp(2j * np.pi * np.random.default_rng(1).random(256))
    c = k ** (-0.5 - 4.0 * alpha) * phase
    assert increment_trace_exponent(c, (k * np.pi) ** 4) == pytest.approx(alpha, abs=0.05)


def test_increment_exponent_needs_a_scaling_window():
    k = np.arange(1, 17)
    with pytest.raises(ValueError):
        increment_trace_exponent(np.ones(16), (k * np.pi) ** 4)


def test_increment_sweep_on_criterion_10_ensemble():
    """Second estimator on the criterion-10 ensemble: the derived threshold, not (s+3-i)/4."""
    rows = kato_increment_sweep(RegularitySweep(s_grid=[1.0, 2.0, 3.0],
                                                ensemble=16, N=256, seed=0))
    assert len(rows) == 9
    for r in rows:
        assert r["samples"] == 16
        assert abs(r["measured"] - r["predicted"]) <= 0.15
        # the narrowest gap is s=1, i=2: boundary 0.5 against an exact 0
        assert r["measured"] <= r["boundary_exponent"] - 0.45


# ---------------------------------------------------------------------------
# optimality counterexample


def test_counterexample_beta_window():
    with pytest.raises(ValueError):
        CounterexampleRun(alpha=0.6, beta=2.0)  # below (1+8a)/2 = 2.9
    with pytest.raises(ValueError):
        CounterexampleRun(alpha=0.6, beta=3.6)  # above 3.5
    CounterexampleRun(alpha=0.6, beta=3.4)
    # control runs at/above the critical weight only bound the trace side
    assert CounterexampleRun(alpha=0.75, beta=3.6).is_boundedness_check
    with pytest.raises(ValueError):
        CounterexampleRun(alpha=0.75, beta=3.4)  # trace norm would diverge


def test_counterexample_needs_interior_modes():
    # order 0 checks every n against its interior mode m = n
    for modes in (5, 0):
        with pytest.raises(ValueError, match="interior_modes"):
            CounterexampleRun(n_grid=(4, 8), interior_modes=modes)
    rows = optimality_run(CounterexampleRun(n_grid=(4, 8), interior_modes=8))
    assert all(r["termwise_ok"] for r in rows)
    # the other orders need only one interior mode
    with pytest.raises(ValueError, match="interior_modes"):
        CounterexampleRun(alpha=0.2, beta=2.0, order=1, interior_modes=0)
    assert len(optimality_run(CounterexampleRun(alpha=0.2, beta=2.0, order=1,
                                                n_grid=(4, 8), interior_modes=1))) == 2


def test_optimality_single_term_lower_bound():
    rows = optimality_run(CounterexampleRun(alpha=0.6, beta=3.4, n_grid=(1, 2)))
    assert rows[0]["lower_bound"] == pytest.approx(2.0 / np.pi ** 2)
    for r in rows:
        assert r["ratio"] > 0
        assert r["bound_ok"] and r["termwise_ok"]


def test_optimality_growth_and_control():
    grow = optimality_run(CounterexampleRun(alpha=0.6, beta=3.4,
                                            n_grid=(4, 16, 64)))
    assert grow[-1]["ratio"] > grow[0]["ratio"]
    ctrl = optimality_run(CounterexampleRun(alpha=0.75, beta=3.6,
                                            n_grid=(32, 64)))
    assert ctrl[1]["ratio"] <= 1.05 * ctrl[0]["ratio"]


def test_optimality_norm_oracle_brute_force():
    """Dual route: the closed-form sums vs a dense space-time grid quadrature."""
    cfg = CounterexampleRun(alpha=0.6, beta=3.4, n_grid=(3,), interior_modes=400)
    row = optimality_run(cfg)[0]
    # brute force: u(x,t) = sum_m q_m(t) sin(m pi x) on the period cell [-1,1]
    # with q_m(t) the exact convolution response; L2 over (0,1) x (0, 2/pi^3)
    n = 3
    kk = np.arange(1, n + 1, dtype=np.float64)
    freqs = (kk ** 4 + 1.0) * np.pi ** 4
    amps = 2.0 * kk ** (-3.4)
    m = np.arange(1, 401, dtype=np.float64)
    wm = (m * np.pi) ** 3
    period = 2.0 / np.pi ** 3
    t = np.linspace(0.0, period, 4001)
    x = np.linspace(0.0, 1.0, 401)
    q = np.zeros((len(t), len(m)), dtype=np.complex128)
    for nu, A in zip(freqs, amps):
        D = 1j * (nu - (m * np.pi) ** 4)
        q += A * (np.exp(1j * nu * t)[:, None] - np.exp(1j * np.outer(t, (m * np.pi) ** 4))) / D
    q *= wm[None, :]
    u = q @ np.sin(np.pi * np.outer(m, x))
    ht = x[1] - x[0]
    sp_int = ht * ((np.abs(u[:, 1:-1]) ** 2).sum(axis=1)
                   + 0.5 * (np.abs(u[:, 0]) ** 2 + np.abs(u[:, -1]) ** 2))
    brute = np.trapezoid(sp_int, t)
    # the closed form is in coefficient-sum normalization: no period factor
    # on the time exponentials (P = 2/pi^3 per mode) and the signed-frequency
    # mirror doubling, hence 2 * (2/P) = 2 pi^3 times the literal integral
    assert row["norm_u_sq"] == pytest.approx(2.0 * np.pi ** 3 * brute, rel=1e-3)


def _optimality_per_n(cfg):
    """norm_u_sq of optimality_run per n, from (M, n) sums rebuilt for each n."""
    kk = np.arange(1, max(cfg.n_grid) + 1, dtype=np.float64)
    freqs, amps = kk ** 4 + 1.0, 2.0 * kk ** (-cfg.beta)
    m = np.arange(1, cfg.interior_modes + 1, dtype=np.float64)
    wm = (m * np.pi) ** (3 - cfg.order)
    denom = (freqs[None, :] - (m ** 4)[:, None]) * np.pi ** 4
    out = []
    for n in cfg.n_grid:
        A, D = amps[:n], denom[:, :n]
        term1 = (wm ** 2) * ((A[None, :] ** 2) / D ** 2).sum(axis=1)
        term2 = (wm * (A[None, :] / D).sum(axis=1)) ** 2
        out.append(2.0 * float(np.sum(term1 + term2)))
    return out


@pytest.mark.parametrize("cfg", [
    CounterexampleRun(),
    CounterexampleRun(alpha=0.3, beta=2.2, order=1, n_grid=(1, 3, 4, 50)),
    CounterexampleRun(alpha=0.2, beta=1.4, order=2, n_grid=(2, 7, 64, 65)),
    CounterexampleRun(alpha=0.75, beta=3.6, n_grid=(1, 32, 64)),
], ids=["order0", "order1", "order2", "bounded"])
def test_optimality_equals_per_n_sums(cfg):
    rows = optimality_run(cfg)
    assert [r["n"] for r in rows] == list(cfg.n_grid)
    for r, want in zip(rows, _optimality_per_n(cfg)):
        assert r["norm_u_sq"] == pytest.approx(want, rel=1e-13)
        assert r["ratio"] == pytest.approx(math.sqrt(want) / r["norm_h"], rel=1e-13)


# ---------------------------------------------------------------------------
# trace regularity bookkeeping


def test_trace_regularity_thresholds_exact():
    rows = trace_regularity_r([lambda x: x ** 2 * (1 - x) ** 2 + 0j],
                              [0.4, 0.5, 1.4, 1.5], N=64)
    for r in rows:
        assert r["(s+3)/8<s"] == (r["s"] > 3.0 / 7.0)
        assert r["(s+10)/8<s"] == (r["s"] > 10.0 / 7.0)
        assert math.isfinite(r["norm_r12"]) and math.isfinite(r["norm_r34"])
        assert r["fitted_C_even"] >= 0.0


def test_trace_regularity_splits_each_datum_once(monkeypatch):
    # rows go s by s, datum by datum, each as in a run on that datum alone
    phis = [lambda x: x ** 2 * (1 - x) ** 2 + 0j, lambda x: np.sin(np.pi * x) + 0j]
    s_grid = [0.5, 1.5]
    alone = [trace_regularity_r([phi], [s], N=32)[0] for s in s_grid for phi in phis]
    calls, split = [], lab.odd_even_extend

    def counted(phi, N):
        calls.append(N)
        return split(phi, N)

    monkeypatch.setattr(lab, "odd_even_extend", counted)
    rows = trace_regularity_r(phis, s_grid, N=32)
    assert calls == [32, 32]
    assert [(r["s"], r["datum"]) for r in rows] == [(s, j) for s in s_grid for j in (0, 1)]
    assert [{**r, "datum": 0} for r in rows] == alone


def test_trace_regularity_zero_datum():
    rows = trace_regularity_r([lambda x: np.zeros_like(x, dtype=complex)],
                              [0.5], N=32)
    assert rows[0]["norm_r12"] == 0.0 and rows[0]["norm_r34"] == 0.0


def test_trace_regularity_range_check():
    # an empty grid too: with no rows every check of the table holds vacuously
    for s_grid in ([2.5], []):
        with pytest.raises(ValueError):
            trace_regularity_r([lambda x: x], s_grid, N=32)


# ---------------------------------------------------------------------------
# series identities


def test_identity_checks_convergence():
    rep = identity_checks(a_grid=(1.0, 2.0), K_grid=(512, 2048, 8192))
    res = rep["series_residual_by_K"]
    ks = sorted(res)
    assert res[ks[-1]] <= 1.1 * res[ks[0]]
    assert rep["rotated_sine_residual"] < 1e-12
    assert rep["sawtooth_limit_residual"] < 1e-2


def test_identity_a1_halfpi_residual():
    # a=1, x=pi/2, K=1e4: slow 1/k tail, residual below 1e-3
    rep = identity_checks(a_grid=(1.0,), x_grid=np.array([np.pi / 2.0]),
                          K_grid=(10 ** 4,))
    assert rep["series_residual_by_K"][10 ** 4] < 1e-3


def test_identity_checks_unsorted_repeated_K():
    # the shared sine table against the per-K direct sums
    a_grid = (0.5, 2.0)
    x = np.linspace(0.3, math.pi - 0.3, 5)
    rep = identity_checks(a_grid=a_grid, x_grid=x, K_grid=(4096, 1024, 4096))

    def direct(a, K):
        k = np.arange(1, K + 1, dtype=np.float64)
        return np.sin(np.outer(x, k)) @ ((k ** 3 + 1j * k * a ** 2) / (k ** 4 + a ** 4))

    def closed(a):
        z = complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) * a
        return (math.pi / 2) * np.sin(z * (math.pi - x)) / np.sin(z * math.pi)

    res = rep["series_residual_by_K"]
    assert list(res) == [4096, 1024]
    for K, got in res.items():
        want = max(float(np.abs(direct(a, K) - closed(a)).max()) for a in a_grid)
        assert got == pytest.approx(want, rel=1e-13)
    saw = float(np.abs(direct(1e-4, 4096) - 0.5 * (math.pi - x)).max())
    assert rep["sawtooth_limit_residual"] == pytest.approx(saw, rel=1e-13)


def test_series_partials_equal_direct_sums():
    # cut-offs on both sides of a 2^12 block edge, unsorted and repeated
    a_grid = (0.5, 2.0, 1e-4)
    x = np.linspace(0.3, math.pi - 0.3, 5)
    got = lab._series_partials(a_grid, x, (9000, 1, 4096, 4097, 9000, 300))
    assert sorted(got) == [1, 300, 4096, 4097, 9000]
    for K, partial in got.items():
        k = np.arange(1, K + 1, dtype=np.float64)
        table = np.sin(np.outer(x, k))
        for j, a in enumerate(a_grid):
            want = table @ ((k ** 3 + 1j * k * a ** 2) / (k ** 4 + a ** 4))
            np.testing.assert_allclose(partial[:, j], want, rtol=1e-10)


def test_rotated_sine_at_sqrt2():
    # sin(sqrt(i) * sqrt(2)) = (e^{-1} e^{i} - e^{1} e^{-i}) / (2i)
    z = complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) * math.sqrt(2.0)
    lhs = np.sin(z)
    rhs = (math.exp(-1) * np.exp(1j) - math.exp(1) * np.exp(-1j)) / 2j
    assert abs(lhs - rhs) < 1e-14


def test_sawtooth_limit_closed_form():
    from bihns.lab import _series_closed_form
    x = np.linspace(0.3, math.pi - 0.3, 9)
    got = _series_closed_form(1e-6, x)
    assert np.max(np.abs(got - 0.5 * (math.pi - x))) < 1e-4


# ---------------------------------------------------------------------------
# tail bound


def test_tail_bound_finite_and_decaying():
    tb = tail_bound_spotcheck([16.0, 256.0, 4096.0, 65536.0], alpha=0.9,
                              K=50000)
    assert tb["all_finite"]
    assert tb["fitted_C"] > 0.0 and math.isfinite(tb["fitted_C"])
    # the sum decays in lambda at least as fast as the claimed envelope power
    assert tb["slope_lam"] <= tb["alpha_minus_1"] + 0.2
    # every value sits below the fitted envelope by construction
    env = (tb["x_grid"][None, :] ** (tb["alpha_minus_1"])
           * (1.0 + tb["lam_grid"][:, None] ** 0.25) ** (tb["alpha_minus_1"]))
    assert np.all(tb["values"] <= tb["fitted_C"] * env + 1e-12)


def test_tail_bound_alpha_validation():
    with pytest.raises(ValueError):
        tail_bound_spotcheck([16.0], alpha=0.5)
