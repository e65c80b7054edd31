import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootflow import spectral
from rootflow.spectral import PeriodicGrid, RealField

from conftest import band_limited_field


class TestGrid:
    def test_points_and_spacing(self):
        g = PeriodicGrid(32)
        assert g.dx == pytest.approx(2 * np.pi / 32)
        assert g.kmax == 16
        assert np.allclose(np.diff(g.points), g.dx)
        assert g.points[0] == 0.0
        assert g.points[-1] < 2 * np.pi

    @pytest.mark.parametrize("n", [0, 8, 15, 17, -32])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            PeriodicGrid(n)


class TestFields:
    def test_real_field_validation(self, grid):
        with pytest.raises(ValueError):
            RealField(grid, np.zeros(grid.n - 1))
        bad = np.zeros(grid.n)
        bad[3] = np.nan
        with pytest.raises(ValueError):
            RealField(grid, bad)

    def test_values_are_read_only(self, grid):
        f = RealField(grid, np.zeros(grid.n))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_roundtrip(self, grid, rng):
        f = band_limited_field(grid, rng)
        back = spectral.from_spectrum(grid, f.spectrum)
        assert np.abs(back.values - f.values).max() < 1e-13

    def test_mean_is_zeroth_coefficient(self, grid, rng):
        f = band_limited_field(grid, rng, offset=2.5)
        c = f.spectrum / grid.n
        assert c[0].real == pytest.approx(f.mean(), abs=1e-14)


class TestMultipliers:
    def test_hilbert_on_pure_modes(self, grid):
        x = grid.points
        for k in (1, 3, 7):
            f = RealField(grid, np.cos(k * x))
            assert np.abs(spectral.hilbert(f).values - np.sin(k * x)).max() < 1e-12
            g = RealField(grid, np.sin(k * x))
            assert np.abs(spectral.hilbert(g).values + np.cos(k * x)).max() < 1e-12

    def test_hilbert_kills_mean(self, grid):
        f = RealField(grid, np.full(grid.n, 3.7))
        assert np.abs(spectral.hilbert(f).values).max() < 1e-13

    def test_hilbert_squared_is_minus_projection(self, grid, rng):
        f = band_limited_field(grid, rng, offset=1.0)
        hh = spectral.hilbert(spectral.hilbert(f))
        assert np.abs(hh.values + (f.values - f.mean())).max() < 1e-12

    @pytest.mark.parametrize("op", [spectral.hilbert, spectral.derivative, spectral.frac_laplacian])
    def test_one_irfft_per_operator(self, grid, rng, monkeypatch, op):
        # a multiplier needs only the samples of its result: one irfft, no
        # complex ifft for an F nobody reads
        f = band_limited_field(grid, rng)
        f.spectrum
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
        op(f)
        assert calls == ["irfft"]

    def test_derivative_closed_form(self, grid):
        x = grid.points
        f = RealField(grid, np.sin(2 * x))
        assert np.abs(spectral.derivative(f).values - 2 * np.cos(2 * x)).max() < 1e-12

    def test_frac_laplacian_is_dx_hilbert(self, grid, rng):
        f = band_limited_field(grid, rng)
        a = spectral.frac_laplacian(f).values
        b = spectral.derivative(spectral.hilbert(f)).values
        assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(a).max())

    def test_heat_decay_factor(self, grid):
        x = grid.points
        f = RealField(grid, np.cos(3 * x))
        out = spectral.heat_propagate(f, 0.2)
        assert np.abs(out.values - np.exp(-0.2 * 9) * np.cos(3 * x)).max() < 1e-12

    def test_heat_rejects_negative_time(self, grid):
        f = RealField(grid, np.ones(grid.n))
        with pytest.raises(ValueError):
            spectral.heat_propagate(f, -0.1)

    @given(tau=st.floats(min_value=0.0, max_value=5.0), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_heat_contracts_extrema(self, tau, seed):
        grid = PeriodicGrid(64)
        f = band_limited_field(grid, np.random.default_rng(seed), offset=0.0)
        out = spectral.heat_propagate(f, tau)
        assert out.max() <= f.max() + 1e-10
        assert out.min() >= f.min() - 1e-10


class TestKernelForm:
    def test_kernel_matches_multiplier(self, rng):
        grid = PeriodicGrid(128)
        f = band_limited_field(grid, rng)
        kern = spectral.frac_laplacian_kernel(f, 4 * grid.n).values
        mult = spectral.frac_laplacian(f).values
        scale = max(1.0, np.abs(mult).max())
        assert np.abs(kern - mult).max() / scale < 1e-4

    def test_kernel_needs_two_nodes(self, grid, rng):
        with pytest.raises(ValueError, match="at least 2 quadrature nodes"):
            spectral.frac_laplacian_kernel(band_limited_field(grid, rng), 1)

    def test_kernel_converges_in_m(self, rng):
        grid = PeriodicGrid(64)
        f = band_limited_field(grid, rng)
        mult = spectral.frac_laplacian(f).values
        errs = [
            np.abs(spectral.frac_laplacian_kernel(f, m).values - mult).max()
            for m in (2 * grid.n, 4 * grid.n, 8 * grid.n)
        ]
        assert errs[2] <= errs[0] + 1e-12


class TestNorms:
    def test_seminorm_on_pure_mode(self, grid):
        # ||cos kx||_{H^s}^2 = 2 pi * k^{2s} * (1/2)^2 * 2 = pi k^{2s}
        x = grid.points
        for s in (0.5, 1.0, 2.5):
            f = RealField(grid, np.cos(4 * x))
            expect = np.sqrt(np.pi) * 4.0**s
            assert spectral.sobolev_seminorm(f, s) == pytest.approx(expect, rel=1e-12)

    def test_seminorm_ignores_mean(self, grid):
        x = grid.points
        a = RealField(grid, np.cos(x))
        b = RealField(grid, np.cos(x) + 10.0)
        assert spectral.sobolev_seminorm(a, 0.5) == pytest.approx(
            spectral.sobolev_seminorm(b, 0.5), rel=1e-12
        )

    def test_seminorm_zero_order_matches_l2_mean_zero(self, grid, rng):
        f = band_limited_field(grid, rng)
        assert spectral.sobolev_seminorm(f, 0.0) == pytest.approx(
            spectral.l2_norm(f), rel=1e-10
        )

    def test_negative_order_requires_mean_zero(self, grid):
        f = RealField(grid, np.cos(grid.points) + 1.0)
        with pytest.raises(ValueError):
            spectral.sobolev_seminorm(f, -0.5)

    def test_l2_norm_constant(self, grid):
        f = RealField(grid, np.full(grid.n, 2.0))
        assert spectral.l2_norm(f) == pytest.approx(2.0 * np.sqrt(2 * np.pi), rel=1e-12)


class TestAnalyticSignal:
    def test_parts_match_the_multipliers(self, grid, rng):
        f = RealField(grid, rng.normal(size=grid.n))
        F, Fx = f.F, f.F_x
        pairs = [
            (F.real, f.values),
            (F.imag, spectral.hilbert(f).values),
            (Fx.real, spectral.derivative(f).values),
            (Fx.imag, spectral.frac_laplacian(f).values),
        ]
        for got, want in pairs:
            assert np.abs(got - want).max() < 1e-13 * max(1.0, np.abs(want).max())

    @given(n=st.sampled_from([16, 64, 256]), seed=st.integers(0, 2**16), log_scale=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_from_spectrum_fuses_samples_and_signal(self, n, seed, log_scale):
        # one complex ifft gives the samples, which match irfft, and F; bins 0
        # and n/2 carry imaginary parts that irfft drops, and so must F
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(seed)
        c = (rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)) * n * 10.0**log_scale
        assert c[0].imag != 0.0 and c[-1].imag != 0.0
        f = spectral.from_spectrum(grid, c)
        scale = np.abs(f.values).max()
        assert np.abs(f.values - np.fft.irfft(c, n)).max() <= 1e-15 * scale
        F = f.F
        assert np.array_equal(F.real, f.values)
        hf = spectral.hilbert(RealField(grid, f.values)).values
        assert np.abs(F.imag - hf).max() <= 1e-13 * scale

    def test_computed_once_per_field(self, grid, rng):
        f = band_limited_field(grid, rng)
        assert f.F is f.F and f.F_x is f.F_x
