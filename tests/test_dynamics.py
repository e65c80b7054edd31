import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootflow import dynamics, solver, spectral
from rootflow.spectral import PeriodicGrid, RealField

from conftest import (
    direct_interpolant,
    direct_projection,
    field_with_nyquist,
    positive_band_limited_field,
    smooth_positive_field,
)


def samples(u, spec):
    """The tendency's samples: the irfft of the spectrum it returns."""
    return spectral.from_spectrum(u.grid, spec).values


def gamma_and_v(u, delta):
    """The dissipation weight gamma = Re F w and velocity V = -Im F w."""
    F, w = u.F, dynamics.weight(u, delta)
    return F.real * w, -F.imag * w


class TestWeight:
    def test_constant_field(self, grid):
        c = 1.5
        u = RealField(grid, np.full(grid.n, c))
        gamma, V = gamma_and_v(u, 0.0)
        assert np.abs(V).max() < 1e-12
        assert np.abs(gamma - 1.0 / (np.pi * c)).max() < 1e-12

    def test_delta_enters_denominator(self, grid):
        u = RealField(grid, np.full(grid.n, 1.0))
        gamma, _ = gamma_and_v(u, 0.5)
        assert np.abs(gamma - 1.0 / (np.pi * 1.5)).max() < 1e-12

    @given(seed=st.integers(0, 2**16), delta=st.sampled_from([0.0, 1e-3, 1e-1]))
    @settings(max_examples=30, deadline=None)
    def test_pointwise_bounds(self, seed, delta):
        # gamma <= 1/(pi min u) and |V| <= 1/(2 pi min u): the quotients
        # u/(u^2+v^2) and v/(u^2+v^2) are maximized on the circle u = const
        grid = PeriodicGrid(128)
        u = positive_band_limited_field(grid, np.random.default_rng(seed), floor=0.5)
        gamma, V = gamma_and_v(u, delta)
        c0 = u.min()
        assert gamma.max() <= 1.0 / (np.pi * c0) + 1e-12
        assert np.abs(V).max() <= 1.0 / (2.0 * np.pi * c0) + 1e-12

    def test_computed_once_per_field_and_delta(self, grid, rng):
        u = positive_band_limited_field(grid, rng)
        w = dynamics.weight(u, 1e-3)
        assert dynamics.weight(u, 1e-3) is w
        assert not w.flags.writeable
        w0 = dynamics.weight(u, 0.0)
        assert w0 is not w and dynamics.weight(u, 0.0) is w0

    @pytest.mark.parametrize("delta, per_step", [(0.0, 1), (1e-3, 2)])
    def test_formed_once_per_field_in_a_solve(self, monkeypatch, delta, per_step):
        # the record, the dt bound and the first stage of the next step read
        # one weight; at delta > 0 the predictor forms one more, at delta = 0
        # its tendency needs none; set-up forms the datum's
        formed = {}
        weight = dynamics.weight

        def counted(u, d):
            w = weight(u, d)
            formed[id(w)] = w  # kept, so no id is reused
            return w

        monkeypatch.setattr(dynamics, "weight", counted)
        u0 = solver.rough_initial_data(PeriodicGrid(64), seed=0)
        traj = solver.solve(u0, solver.SolverConfig(delta=delta, t_end=0.3, cfl=0.4))
        steps = len(traj.records) - 1
        assert steps > 5
        assert len(formed) == per_step * steps + 1


class TestTendencies:
    def test_flux_form_is_mean_zero(self, grid, rng):
        u = positive_band_limited_field(grid, rng)
        assert dynamics.tendency_flux(u)[0] == 0.0

    def test_flux_equals_rational_form(self, grid, rng):
        # chain rule: d/dx arctan(v/u) = (u v' - v u')/(u^2+v^2), and
        # (Hu)' = Lu; the identity only holds to spectral-tail accuracy,
        # so the field must be analytic, not merely band-limited
        u = smooth_positive_field(grid, rng)
        a = samples(u, dynamics.tendency_flux(u))
        uv = u.values
        hu = spectral.hilbert(u).values
        lu = spectral.frac_laplacian(u).values
        ux = spectral.derivative(u).values
        b = -(uv * lu - hu * ux) / (np.pi * (uv**2 + hu**2))
        assert np.abs(a - b).max() < 1e-10

    def test_nonlinear_tendency_dispatches_to_flux(self, grid, rng):
        u = positive_band_limited_field(grid, rng)
        a = dynamics.nonlinear_tendency(u, 0.0)
        b = dynamics.tendency_flux(u)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_matches_multiplier_reference(self, rng, delta):
        # reference from the spectral multipliers: the rational form for
        # delta > 0 and -(1/pi) d/dx arctan(Hu/u) at delta = 0, formed on
        # the grid and projected by direct Fourier sums
        grid = PeriodicGrid(64)
        u = field_with_nyquist(grid, rng)
        parts = [u, spectral.hilbert(u), spectral.frac_laplacian(u), spectral.derivative(u)]
        uv, hu, lu, ux = (direct_interpolant(f.values, grid.n) for f in parts)
        if delta == 0.0:
            angle = RealField(grid, direct_projection(np.arctan2(hu, uv), grid.n))
            ref = -spectral.derivative(angle).values / np.pi
        else:
            rate = -(uv * lu - hu * ux) / (np.pi * (delta + uv**2 + hu**2))
            ref = direct_projection(rate, grid.n)
        out = samples(u, dynamics.nonlinear_tendency(u, delta))
        assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()

    def test_constant_is_steady(self, grid):
        u = RealField(grid, np.full(grid.n, 2.0))
        for delta in (0.0, 1e-2):
            out = samples(u, dynamics.nonlinear_tendency(u, delta))
            assert np.abs(out).max() < 1e-12

    def test_delta_zero_limit(self, grid, rng):
        u = smooth_positive_field(grid, rng, floor=1.0)
        ref = samples(u, dynamics.nonlinear_tendency(u, 0.0))
        err = [
            np.abs(samples(u, dynamics.nonlinear_tendency(u, d)) - ref).max()
            for d in (1e-4, 1e-6, 1e-8)
        ]
        assert err[2] < err[0]
        assert err[2] < 1e-6

    def test_solver_floor_keeps_kernels_positive(self, grid):
        # the kernels do not check u > 0; the solver's floor does, on the
        # mollified datum before any kernel sees it
        u = RealField(grid, np.full(grid.n, 1e-12))
        with pytest.raises(solver.SolverAbort, match="mollified initial data"):
            solver.solve(u, solver.SolverConfig(t_end=0.1))


class TestLinearization:
    def test_small_perturbation_tendency(self, grid):
        # around u = c the equation linearizes to w_t + (1/(pi c)) L w = 0
        c, eps = 1.0, 1e-6
        x = grid.points
        u = RealField(grid, c + eps * np.cos(3 * x))
        out = samples(u, dynamics.tendency_flux(u))
        expect = -(1.0 / (np.pi * c)) * eps * 3.0 * np.cos(3 * x)
        assert np.abs(out - expect).max() < 1e-10 * eps / 1e-6
