"""Periodic grid, transforms, Fourier-multiplier operators and the
analytic signal F = f + iHf.

Everything here acts on real 2pi-periodic functions sampled on an
equispaced grid.  Fields are stored in physical space; the spectral
representation uses the rfft layout (coefficients for k = 0..n/2),
which is exactly the Hermitian half of the full coefficient set.  Its
one-sided extension (k = 0..n/2 only, 0 < k < n/2 doubled) is the
spectrum of the analytic signal, so one complex inverse transform gives a
field's samples and F together.

Conventions:
  c_k = (1/n) sum_j f(x_j) exp(-i k x_j),   so c_0 is the mean.
  Hilbert transform   : c_k -> -i sign(k) c_k   (Nyquist zeroed)
  derivative          : c_k -> i k c_k          (Nyquist zeroed)
  half Laplacian      : c_k -> |k| c_k
  heat semigroup      : c_k -> exp(-tau k^2) c_k
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np


class GridMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGrid:
    """Equispaced grid x_j = 2 pi j / n on [0, 2pi)."""

    n: int

    def __post_init__(self):
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got n={self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def kmax(self) -> int:
        return self.n // 2

    @property
    def points(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n) / self.n

    @property
    def wavenumbers(self) -> np.ndarray:
        """Nonnegative wavenumbers 0..n/2 of the rfft layout."""
        return np.arange(self.n // 2 + 1)


@dataclass(frozen=True)
class RealField:
    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite samples")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())

    def mean(self) -> float:
        return float(self.values.mean())

    @cached_property
    def spectrum(self) -> np.ndarray:
        """rfft of the samples, n c_k for k = 0..n/2, computed once."""
        c = np.fft.rfft(self.values)
        c.setflags(write=False)
        return c

    @cached_property
    def F(self) -> np.ndarray:
        """The analytic signal F = f + iHf, computed once: the ifft of the
        one-sided spectrum.  A field built by from_spectrum comes with F,
        whose real part is its samples bit for bit.  Re F and Im F are f and
        hilbert(f) to rounding."""
        F = np.fft.ifft(_one_sided(self.grid, self.spectrum), n=self.grid.n)
        F.setflags(write=False)
        return F

    @cached_property
    def F_x(self) -> np.ndarray:
        """F's derivative F_x = f_x + iLf, computed once: the ifft of the
        one-sided spectrum times i|k|.  Re F_x and Im F_x are derivative(f)
        and frac_laplacian(f) to rounding."""
        # the Nyquist bin, real in F, turns imaginary, as L keeps it and d/dx zeroes it
        F_x = np.fft.ifft(_one_sided(self.grid, self.spectrum) * (1j * self.grid.wavenumbers), n=self.grid.n)
        F_x.setflags(write=False)
        return F_x


def from_spectrum(grid: PeriodicGrid, c: np.ndarray) -> RealField:
    """The field whose rfft is c, which it keeps, read-only, as its spectrum.
    One complex ifft of the one-sided spectrum, zero-padded to length n,
    gives F = f + iHf, kept as the field's F, and the samples Re F; bins 0
    and n/2 lose their imaginary parts, as in irfft.  It is the one inverse
    transform of each field a solver step makes.  The samples come fresh, so
    RealField's copy and finiteness check are skipped: a caller whose c may
    be non-finite checks the samples."""
    F = np.fft.ifft(_one_sided(grid, c), n=grid.n)
    return _fresh_field(grid, F.real.copy(), c, F=F)


def _fresh_field(grid: PeriodicGrid, values: np.ndarray, c: np.ndarray, **kept) -> RealField:
    """A RealField of samples just computed from c, keeping c and any arrays
    passed by attribute name (F=...), all read-only, without RealField's copy
    and check."""
    f = object.__new__(RealField)
    for a in (values, c, *kept.values()):
        a.setflags(write=False)
    f.__dict__.update(grid=grid, values=values, spectrum=c, **kept)
    return f


def _one_sided(grid: PeriodicGrid, c: np.ndarray) -> np.ndarray:
    """Spectrum of F = f + iHf for k = 0..n/2 from the rfft layout c: c_0,
    2 c_k for 0 < k < n/2 and c_{n/2}, the last with only its real part, like
    c_0.  The bins above n/2 are zero; ifft(..., n=grid.n) pads them."""
    spec = c * _analytic_weights(grid)
    spec[0], spec[grid.kmax] = c[0].real, c[grid.kmax].real
    return spec


@lru_cache(maxsize=32)
def _analytic_weights(grid: PeriodicGrid) -> np.ndarray:
    """1 at k = 0, 2 for 0 < k < n/2 (bin k stands for +/-k) and 1 at Nyquist."""
    weights = np.full(grid.kmax + 1, 2.0)
    weights[0] = weights[-1] = 1.0
    weights.setflags(write=False)
    return weights


def _apply_multiplier(f: RealField, mult: np.ndarray) -> RealField:
    """The field whose spectrum is f.spectrum * mult, by one irfft; it builds
    no F, which f.F forms only when read."""
    c = f.spectrum * mult
    return _fresh_field(f.grid, np.fft.irfft(c, n=f.grid.n), c)


def hilbert(f: RealField) -> RealField:
    """Circular Hilbert transform, c_k -> -i sign(k) c_k.

    The mean is annihilated and the Nyquist mode is zeroed (the odd
    multiplier has no consistent value there).
    """
    k = f.grid.wavenumbers
    mult = -1j * np.sign(k).astype(complex)
    mult[-1] = 0.0
    return _apply_multiplier(f, mult)


def derivative(f: RealField) -> RealField:
    """Spectral d/dx, with the Nyquist mode zeroed."""
    return _apply_multiplier(f, derivative_multiplier(f.grid))


@lru_cache(maxsize=32)
def derivative_multiplier(grid: PeriodicGrid) -> np.ndarray:
    """i k on the rfft layout, with the Nyquist mode zeroed; read-only."""
    mult = 1j * grid.wavenumbers.astype(complex)
    mult[-1] = 0.0
    mult.setflags(write=False)
    return mult


def frac_laplacian(f: RealField) -> RealField:
    """Half Laplacian (-d^2/dx^2)^(1/2) = d/dx o H, multiplier |k|."""
    return _apply_multiplier(f, f.grid.wavenumbers.astype(float))


def heat_propagate(f: RealField, tau: float) -> RealField:
    """Apply the heat semigroup exp(tau d^2/dx^2), tau >= 0."""
    if tau < 0:
        raise ValueError(f"heat propagation time must be >= 0, got {tau}")
    # by from_spectrum, as the solver reads the mollified datum's F
    return from_spectrum(f.grid, f.spectrum * heat_multiplier(f.grid, tau))


def heat_multiplier(grid: PeriodicGrid, tau: float) -> np.ndarray:
    """exp(-tau k^2) on the rfft layout."""
    k = grid.wavenumbers.astype(float)
    return np.exp(-tau * k * k)


def frac_laplacian_kernel(f: RealField, m: int) -> RealField:
    """Half Laplacian through its difference kernel,

        (1/4pi) pv int (f(x) - f(x-a)) / sin(a/2)^2 da,

    evaluated by the midpoint rule with m nodes a = (j+1/2) 2pi/m.  The
    differenced integrand is regular at a=0 and the midpoint nodes avoid
    the origin, so no principal-value surgery is needed.  Off-grid values
    f(x - a) come from the trigonometric interpolant.
    """
    if m < 2:
        raise ValueError("need at least 2 quadrature nodes")
    grid = f.grid
    c = f.spectrum
    k = grid.wavenumbers
    alphas = (np.arange(m) + 0.5) * 2.0 * np.pi / m
    acc = np.zeros(grid.n)
    for a in alphas:
        shifted = np.fft.irfft(c * np.exp(-1j * k * a), n=grid.n)
        acc += (f.values - shifted) / np.sin(a / 2.0) ** 2
    acc *= (2.0 * np.pi / m) / (4.0 * np.pi)
    return RealField(grid, acc)


def sobolev_seminorm(f: RealField, s: float) -> float:
    """Homogeneous Sobolev seminorm (2 pi sum_{k!=0} |k|^(2s) |c_k|^2)^(1/2).

    Equals the L2 norm of the half Laplacian raised to the power s
    applied to f; the mean never contributes.  Negative s is only
    meaningful on mean-zero fields.
    """
    grid = f.grid
    c = f.spectrum
    if s < 0 and abs(c[0]) > 1e-13 * (grid.n + np.abs(c).max()):
        raise ValueError("negative-order seminorm requires a mean-zero field")
    # no BLAS dot: its first call alone raises the peak RSS by about 0.3 MB
    total = np.sum(_seminorm_weights(grid, s) * (c.real[1:] ** 2 + c.imag[1:] ** 2)) / grid.n**2
    return float(np.sqrt(2.0 * np.pi * total))


@lru_cache(maxsize=32)
def _seminorm_weights(grid: PeriodicGrid, s: float) -> np.ndarray:
    """w_k |k|^(2s) for k = 1..n/2, with the one-sided weights w_k of _analytic_weights."""
    weights = _analytic_weights(grid)[1:] * grid.wavenumbers[1:].astype(float) ** (2.0 * s)
    weights.setflags(write=False)
    return weights


def l2_norm(f: RealField) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(f.values**2)))


def check_same_grid(*fields):
    grids = {f.grid.n for f in fields}
    if len(grids) != 1:
        raise GridMismatchError(f"fields live on different grids: {sorted(grids)}")
