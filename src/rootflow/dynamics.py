"""The weight and right-hand sides of the arctan root-flow equation.

The equation in flux form,

    u_t + (1/pi) d/dx arctan(Hu / u) = 0,

is equivalent, for positive u, to the quasilinear form

    u_t + V u_x + gamma Lu = 0,
    V     = -(1/pi) Hu / (u^2 + (Hu)^2) = -Im F w,
    gamma =  (1/pi)  u / (u^2 + (Hu)^2) =  Re F w,

with L the half Laplacian, F = u + iHu the analytic signal and one weight
w = 1 / (pi |F|^2).  The regularized problem adds delta to the denominators
and a delta * u_xx viscosity term.  Everything here is read off F, its
derivative F_x = u_x + iLu and w; no V or gamma array is built.

The kernels are pure functions of u and do not check their precondition,
delta >= 0 and, at delta = 0, u > 0; the solver's floor holds it.
"""

from functools import lru_cache

import numpy as np

from . import spectral
from .spectral import RealField


def weight(u: RealField, delta: float) -> np.ndarray:
    """w = 1 / (pi (delta + |F|^2)), computed once per field and delta and
    kept, read-only, like F itself."""
    cache = u.__dict__.setdefault("_weight", {})
    if delta not in cache:
        F = spectral.analytic_signal(u)
        w = 1.0 / (np.pi * (delta + F.real**2 + F.imag**2))
        w.setflags(write=False)
        cache[delta] = w
    return cache[delta]


def nonlinear_tendency(u: RealField, delta: float) -> np.ndarray:
    """The rfft spectrum of the non-viscous tendency
    -(1/pi) Im(conj(F) F_x) / (delta + |F|^2) = (Im F Re F_x - Re F Im F_x) w.

    With delta = 0 this is evaluated through the flux form, which is an
    exact spectral derivative and therefore conserves the grid mean to
    rounding; with delta > 0 through the weight.
    """
    if delta == 0.0:
        return tendency_flux(u)
    F = spectral.analytic_signal(u)
    Fx = spectral.analytic_signal(u, dx=True)
    return np.fft.rfft((F.imag * Fx.real - F.real * Fx.imag) * weight(u, delta))


def tendency_flux(u: RealField) -> np.ndarray:
    """rfft spectrum of the flux-form tendency -(1/pi) d/dx arg F, where
    arg F = arctan(Hu/u) for positive u; its mean bin is exactly zero."""
    return np.fft.rfft(np.angle(spectral.analytic_signal(u))) * _flux_multiplier(u.grid)


@lru_cache(maxsize=32)
def _flux_multiplier(grid: spectral.PeriodicGrid) -> np.ndarray:
    """-(1/pi) i k on the rfft layout, with the Nyquist mode zeroed; read-only."""
    mult = spectral.derivative_multiplier(grid) * (-1.0 / np.pi)
    mult.setflags(write=False)
    return mult
