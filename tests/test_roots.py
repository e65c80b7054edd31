import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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


def assert_matches_bisection(r, start=None):
    out = roots.derivative_roots(RootEnsemble(r, n0=r.size), start).roots
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


@st.composite
def roots_and_start(draw):
    """clustered_roots and a start fraction strictly inside each gap."""
    r = draw(clustered_roots())
    fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return r, np.array(draw(st.lists(fraction, min_size=r.size - 1, max_size=r.size - 1)))


# a wide gap beside a 1e-11 one, started a float below the wide gap's right
# end, where Hypothesis found a first Newton step that ended its row far from
# the root (-4.8e-9 for -210818.51)
STEEP_START = (np.array([-316227.7660168379, 0.0, 1e-11]), np.array([1.0 - 2.0**-52, 0.5]))
# the same shifted by about 1.45, where Hypothesis found a first Newton step
# below NEWTON_YTOL (5.6e-16, with h = -2.7) that ended its row a float below y = 1
SHIFTED_STEEP_START = (
    np.array([-316226.31316006253, 1.452856775347204, 1.452856775357204]), np.array([1.0 - 2.0**-52, 0.5])
)


class TestEnsemble:
    def test_validation(self):
        with pytest.raises(ValueError):
            RootEnsemble(np.array([1.0, 0.0]), n0=2)
        with pytest.raises(ValueError):
            RootEnsemble(np.array([0.0, 0.0]), n0=2)
        with pytest.raises(ValueError):
            RootEnsemble(np.array([0.0, 1.0]), n0=3)
        with pytest.raises(ValueError, match="at least one root"):
            RootEnsemble([], n0=0)
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

    @given(case=roots_and_start())
    @example(case=STEEP_START)
    @example(case=(STEEP_START[0], np.array([1.0 - roots.NEWTON_YTOL, 0.5])))
    @example(case=SHIFTED_STEEP_START)
    @settings(max_examples=80, deadline=None)
    def test_matches_bisection(self, case):
        r, start = case
        assert_matches_bisection(r)
        # and from any start strictly inside every gap, as a flow's warm start
        assert_matches_bisection(r, start)

    @pytest.mark.parametrize("y0", [1.0 - 2.0**-52, 1.0 - roots.NEWTON_YTOL], ids=["last-float", "flow-clip"])
    def test_steep_start_far_from_root(self, y0):
        # from a start a float or two below r_1 = 0, h is so steep that the
        # first Newton step is below sqrt(NEWTON_YTOL) although the root lies
        # a third of the gap away; that step must not end the row
        r = STEEP_START[0]
        out = roots.derivative_roots(RootEnsemble(r, n0=r.size), [y0, 0.5]).roots
        exact = np.sort(np.roots(np.polyder(np.poly(r))).real)
        assert abs(out[0] - exact[0]) <= 1e-9 * (r[1] - r[0])
        assert out[0] == pytest.approx(-210818.51, abs=0.01)

    @pytest.mark.parametrize(
        "start", [[0.5], [0.0, 0.5], [0.5, 1.0], [np.nan, 0.5]], ids=["length", "zero", "one", "nan"]
    )
    def test_rejects_bad_start(self, start):
        e = RootEnsemble(np.array([-1.0, 0.0, 1.0]), n0=3)
        with pytest.raises(ValueError, match="start"):
            roots.derivative_roots(e, start)

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

    def test_laguerre_oracle(self):
        # d/dx L_n^(a) = -L_{n-1}^(a+1): 36 passes take the roots of L_120^(0)
        # to those of L_84^(36), the eigenvalues of its Golub-Welsch Jacobi
        # matrix (diagonal 2i + a + 1, off-diagonal sqrt(i (i + a))); the
        # largest gap is about 18 times the smallest
        r = np.polynomial.laguerre.laggauss(120)[0]
        out = roots.root_flow(RootEnsemble(r, n0=120), 0.3)
        assert out.k == 36
        a, i = 36, np.arange(1, 84)
        off = np.sqrt(i * (i + a))
        jacobi = np.diag(2.0 * np.arange(84) + a + 1) + np.diag(off, 1) + np.diag(off, -1)
        assert error_over_gap(out.roots, np.linalg.eigvalsh(jacobi)) <= 1e-8

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
        e = RootEnsemble(np.array([0.0, 1.0, 1.0 + 0.5 * roots.MIN_ROOT_GAP]), n0=3)
        with pytest.raises(ValueError, match="repeated roots"):
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

    def test_row_evaluations_per_pass(self, monkeypatch):
        # every row evaluation is one Cauchy sum over all roots, with one
        # reciprocal; the warm start and the quadratic last step hold the
        # H_120 flow to t = 0.3 at 3 per root per pass
        r = np.polynomial.hermite.hermgauss(120)[0]
        rows = [0]
        reciprocal = np.reciprocal

        def counted(a, *args, **kwargs):
            rows[0] += a.shape[0]
            return reciprocal(a, *args, **kwargs)

        monkeypatch.setattr(np, "reciprocal", counted)
        out = roots.root_flow(RootEnsemble(r, n0=120), 0.3)
        solved = np.arange(120 - out.k, 120).sum()  # pass i solves 119 - i roots
        assert rows[0] <= 3.0 * solved

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

    def test_support_table_centered_bump(self):
        # roots-compare's table: the seam-centred grid points of the support
        grid = PeriodicGrid(256)
        x = np.where(grid.points >= np.pi, grid.points - 2 * np.pi, grid.points)
        x = np.sort(x[np.abs(x) <= 1.0])
        e = roots.quantile_sample(x, np.cos(np.pi * x / 2.0) ** 2, 30)
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
