import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootflow import roots
from rootflow.roots import RootEnsemble
from rootflow.spectral import PeriodicGrid, RealField


def sorted_distinct_roots(draw_values):
    r = np.sort(np.asarray(draw_values, dtype=float))
    return r[np.concatenate([[True], np.diff(r) > 1e-6])]


def bisection_roots(r):
    """The bisection solver derivative_roots used before its Newton solve:
    42 simultaneous sweeps of every interlacing interval on the sign of the
    log-derivative, which is +inf at each left end and -inf at each right."""
    lo, hi = r[:-1].copy(), r[1:].copy()
    for _ in range(42):
        mid = 0.5 * (lo + hi)
        positive = np.sum(1.0 / (mid[:, None] - r[None, :]), axis=1) > 0.0
        lo = np.where(positive, mid, lo)
        hi = np.where(positive, hi, mid)
    return 0.5 * (lo + hi)


def assert_matches_bisection(r):
    out = roots.derivative_roots(RootEnsemble(r, n0=r.size)).roots
    assert np.all(out > r[:-1]) and np.all(out < r[1:])
    # a float step of x bounds both solvers: on 1e-11 clusters near 0.5
    # the two differ by about one, with Newton the closer to the root
    ulp = np.spacing(np.maximum(np.abs(r[:-1]), np.abs(r[1:])))
    assert np.all(np.abs(out - bisection_roots(r)) <= 1e-9 * np.diff(r) + 16.0 * ulp)


def error_over_gap(got, ref):
    """Largest |got - ref| over the distance from each reference root to its
    nearest neighbour."""
    d = np.diff(ref)
    gap = np.minimum(np.concatenate([[np.inf], d]), np.concatenate([d, [np.inf]]))
    return float(np.max(np.abs(got - ref) / gap))


@st.composite
def clustered_roots(draw):
    """Sorted roots: clusters at gaps near 1e-11 around a point in [-10, 10],
    flanked on each side by up to three gaps of up to 5e5, so spans reach
    1e6; n may be 2."""
    tight = st.lists(st.floats(-11.2, -10.8), min_size=1, max_size=8)  # log10 of gaps
    wide = st.lists(st.floats(-3.0, 5.7), max_size=3)
    middle = draw(tight)
    for _ in range(draw(st.integers(0, 2))):
        middle += [draw(st.floats(-3.0, 0.0))] + draw(tight)
    start = draw(st.floats(-10.0, 10.0))
    left = start - np.cumsum(10.0 ** np.array(draw(wide)))[::-1]
    right = start + np.cumsum(10.0 ** np.array(middle + draw(wide)))
    return np.concatenate([left, [start], right])


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            RootEnsemble(np.array([1.0, 0.0]), n0=2)
        with pytest.raises(ValueError):
            RootEnsemble(np.array([0.0, 0.0]), n0=2)
        with pytest.raises(ValueError):
            RootEnsemble(np.array([0.0, 1.0]), n0=3)
        e = RootEnsemble(np.array([0.0, 1.0]), n0=2)
        assert len(e) == 2 and e.span == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_roots(self, bad):
        # np.diff(r) <= 0 is False for NaN, so ordering alone lets NaN through
        with pytest.raises(ValueError, match="finite"):
            RootEnsemble(np.array([0.0, 1.0, bad, 3.0]), n0=4)


class TestDerivativeRoots:
    def test_symmetric_cubic(self):
        # p = x^3 - x has p' = 3x^2 - 1 with roots +/- 1/sqrt(3)
        e = RootEnsemble(np.array([-1.0, 0.0, 1.0]), n0=3)
        out = roots.derivative_roots(e)
        expect = np.array([-1.0, 1.0]) / np.sqrt(3.0)
        assert np.abs(out.roots - expect).max() < 1e-10

    def test_quadratic_midpoint(self):
        e = RootEnsemble(np.array([2.0, 5.0]), n0=2)
        out = roots.derivative_roots(e)
        assert out.roots[0] == pytest.approx(3.5, abs=1e-10)

    def test_translation_equivariance(self):
        r = np.array([-1.3, 0.2, 0.9, 2.0])
        a = roots.derivative_roots(RootEnsemble(r, n0=4)).roots
        b = roots.derivative_roots(RootEnsemble(r + 10.0, n0=4)).roots
        assert np.abs((b - 10.0) - a).max() < 1e-9

    @given(
        values=st.lists(
            st.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=20
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_strict_interlacing(self, values):
        r = sorted_distinct_roots(values)
        if r.size < 3:
            return
        e = RootEnsemble(r, n0=r.size)
        out = roots.derivative_roots(e)
        assert np.all(out.roots > r[:-1])
        assert np.all(out.roots < r[1:])

    @given(r=clustered_roots())
    @settings(max_examples=80, deadline=None)
    def test_matches_bisection(self, r):
        assert_matches_bisection(r)

    def test_newton_fallback(self):
        # a cluster at gaps of 1e-11, then two gaps 1e11 times wider: from
        # y = 1/2 the last row's Newton step leaves the bracket (0, 1)
        r = np.concatenate([1e-11 * np.arange(10), 9e-11 + np.array([1.0, 2.0])])
        x = r[-2] + 0.5
        a = 1.0 / (x - r[:-2])
        h, dh = 0.25 * a.sum(), -2.0 - 0.25 * np.sum(a * a)
        assert 0.5 - h / dh > 1.0
        assert_matches_bisection(r)

    def test_hermite_oracle(self):
        # H_n' = 2n H_{n-1}: 36 passes take the roots of H_120 to those of H_84
        r = np.polynomial.hermite.hermgauss(120)[0]
        out = roots.root_flow(RootEnsemble(r, n0=120), 0.3)
        assert out.k == 36
        assert error_over_gap(out.roots, np.polynomial.hermite.hermgauss(84)[0]) <= 1e-8
        assert abs(out.roots.mean() - r.mean()) <= 1e-10 * (r[-1] - r[0])

    def test_chebyshev_oracle(self):
        # T_n' = n U_{n-1}; the gaps shrink like 1/n^2 toward +/-1
        n = 500
        r = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))[::-1]
        expect = np.cos(np.arange(1, n) * np.pi / n)[::-1]
        out = roots.derivative_roots(RootEnsemble(r, n0=n)).roots
        assert error_over_gap(out, expect) <= 1e-8
        assert abs(out.mean() - r.mean()) <= 1e-10 * (r[-1] - r[0])

    def test_memory_is_linear_in_n(self):
        # the work arrays hold one block of rows: 4 MB at n = 4000, where an
        # n x n array would take 128 MB
        n = 4000
        e = RootEnsemble(np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))[::-1], n0=n)
        tracemalloc.start()
        try:
            roots.derivative_roots(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_rejects_degenerate(self):
        e = RootEnsemble(np.array([0.0]), n0=1)
        with pytest.raises(ValueError):
            roots.derivative_roots(e)

    def test_sum_rule(self):
        # roots of p' average to the same mean as roots of p
        rng = np.random.default_rng(0)
        r = np.sort(rng.uniform(-2, 2, size=12))
        e = RootEnsemble(r, n0=12)
        out = roots.derivative_roots(e)
        # sum of p' roots = sum of p roots * (n-1)/n
        assert out.roots.sum() == pytest.approx(r.sum() * 11.0 / 12.0, abs=1e-8)


class TestRootFlow:
    def test_counts(self):
        rng = np.random.default_rng(1)
        e = RootEnsemble(np.sort(rng.uniform(-1, 1, 50)), n0=50)
        out = roots.root_flow(e, 0.3)
        assert out.k == 15 and len(out) == 35

    def test_time_zero_identity(self):
        e = RootEnsemble(np.array([-1.0, 0.0, 1.0]), n0=3)
        out = roots.root_flow(e, 0.0)
        assert np.array_equal(out.roots, e.roots)

    def test_span_shrinks(self):
        rng = np.random.default_rng(2)
        e = RootEnsemble(np.sort(rng.uniform(-1, 1, 40)), n0=40)
        out = roots.root_flow(e, 0.5)
        assert out.span < e.span

    def test_rejects_bad_time(self):
        e = RootEnsemble(np.array([-1.0, 1.0]), n0=2)
        with pytest.raises(ValueError):
            roots.root_flow(e, 1.0)
        # a twice-differentiated cubic has one root left; flowing further
        # would remove more roots than remain
        e3 = RootEnsemble(np.array([-1.0, 0.0, 1.0]), n0=3)
        last = roots.derivative_roots(roots.derivative_roots(e3))
        with pytest.raises(ValueError):
            roots.root_flow(last, 0.5)


class TestQuantileSampling:
    def test_uniform_density(self):
        x = np.linspace(0.0, 1.0, 101)
        e = roots.quantile_sample(x, np.ones_like(x), 10)
        expect = (np.arange(10) + 0.5) / 10
        assert np.abs(e.roots - expect).max() < 1e-12

    def test_respects_mass_distribution(self):
        # density with all mass on [0, 1/2]: every sample lands there
        x = np.linspace(0.0, 1.0, 201)
        dens = np.where(x <= 0.5, 1.0, 0.0)
        e = roots.quantile_sample(x, dens, 20)
        assert e.roots.max() <= 0.5 + 1e-12

    def test_rejects_bad_input(self):
        x = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            roots.quantile_sample(x, -np.ones_like(x), 5)
        with pytest.raises(ValueError):
            roots.quantile_sample(x, np.zeros_like(x), 5)
        with pytest.raises(ValueError):
            roots.quantile_sample(x, np.ones_like(x), 1)

    def test_field_sampling_seam_guard(self):
        grid = PeriodicGrid(128)
        u = RealField(grid, np.full(grid.n, 1.0))  # mass everywhere
        with pytest.raises(ValueError):
            roots.quantile_sample_field(u, margin=0.5, n=10)

    def test_field_sampling_centered_bump(self):
        grid = PeriodicGrid(256)
        x = np.where(grid.points >= np.pi, grid.points - 2 * np.pi, grid.points)
        vals = np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 2, 0.0)
        e = roots.quantile_sample_field(RealField(grid, vals), margin=0.5, n=30)
        assert np.abs(e.roots).max() < 1.0
        # symmetric density: quantiles are symmetric about 0
        assert np.abs(e.roots + e.roots[::-1]).max() < 1e-10

    @pytest.mark.parametrize("n", [96, 64])
    def test_window(self, n):
        # an even n that is no power of two, and one that is
        u = RealField(PeriodicGrid(n), np.random.default_rng(n).uniform(size=n))
        x, vals = roots.window(u)
        assert np.all(np.diff(x) > 0)
        assert x[0] >= -np.pi and x[-1] < np.pi
        assert np.array_equal(np.sort(vals), np.sort(u.values))


class TestWasserstein:
    def test_matching_atoms_zero(self):
        # empirical measure at the quantiles of a uniform density converges
        x = np.linspace(0.0, 1.0, 2001)
        dens = np.ones_like(x)
        errs = []
        for n in (10, 40, 160):
            e = roots.quantile_sample(x, dens, n)
            errs.append(roots.wasserstein1(e, x, dens))
        # quantile placement gives W1 = 1/(4n) for the uniform density
        assert errs[0] == pytest.approx(1.0 / 40.0, rel=1e-2)
        assert errs[2] < errs[1] < errs[0]

    def test_shifted_atom(self):
        # single atom at a vs uniform on [0,1]: W1 = int |x - a| restricted CDFs
        x = np.linspace(0.0, 1.0, 4001)
        dens = np.ones_like(x)
        e = RootEnsemble(np.array([0.5]), n0=1)
        # CDF distance: int_0^1 |1_{x>1/2} - x| dx = 1/4
        assert roots.wasserstein1(e, x, dens) == pytest.approx(0.25, abs=1e-4)

    def test_rejects_negative_density(self):
        e = RootEnsemble(np.array([0.5]), n0=1)
        with pytest.raises(ValueError):
            roots.wasserstein1(e, np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_rejects_zero_mass_density(self):
        e = RootEnsemble(np.array([0.5]), n0=1)
        with pytest.raises(ValueError, match="zero total mass"):
            roots.wasserstein1(e, np.array([0.0, 0.5, 1.0]), np.zeros(3))

    def test_matches_segment_loop(self):
        # reference: integrate |F_emp - F_dens| segment by segment, splitting
        # a segment where the difference changes sign
        rng = np.random.default_rng(7)
        e = RootEnsemble(np.sort(rng.uniform(-1.5, 1.5, size=300)), n0=300)
        x = np.linspace(-1.0, 1.0, 801)
        dens = np.sqrt(1.0 - x**2)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))])
        cdf, weight = cdf / cdf[-1], 1.0 / len(e)
        xs = np.unique(np.concatenate([x, e.roots]))
        f_dens = np.interp(xs, x, cdf, left=0.0, right=cdf[-1])
        f_emp = weight * np.searchsorted(e.roots, xs, side="right")
        ref = 0.0
        for i in range(len(xs) - 1):
            w = xs[i + 1] - xs[i]
            a, b = f_emp[i] - f_dens[i], f_emp[i] - f_dens[i + 1]
            if a * b >= 0:
                ref += 0.5 * abs(a + b) * w
            else:
                xc = a / (a - b)
                ref += 0.5 * w * (abs(a) * xc + abs(b) * (1.0 - xc))
        got = roots.wasserstein1(e, x, dens)
        assert got == pytest.approx(ref, rel=1e-12)
