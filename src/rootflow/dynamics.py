"""Coefficients and right-hand sides of the arctan root-flow equation.

The equation in flux form,

    u_t + (1/pi) d/dx arctan(Hu / u) = 0,

is equivalent, for positive u, to the quasilinear form

    u_t + V u_x + gamma Lu = 0,
    V     = -(1/pi) Hu / (u^2 + (Hu)^2),
    gamma =  (1/pi)  u / (u^2 + (Hu)^2),

with L the half Laplacian.  The regularized problem adds delta to the
denominators and a delta * u_xx viscosity term.  Everything here is read
off the analytic signal F = u + iHu and its derivative F_x = u_x + iLu.

The kernels are pure functions of u and do not check their precondition,
delta >= 0 and, at delta = 0, u > 0; the solver's floor holds it.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import spectral
from .spectral import RealField

@dataclass(frozen=True)
class Coefficients:
    V: np.ndarray
    gamma: np.ndarray


def coefficients(u: RealField, delta: float) -> Coefficients:
    """Transport velocity V = -Im F w and dissipation weight gamma = Re F w,
    with w = 1 / (pi (delta + |F|^2)) formed once."""
    F = spectral.analytic_signal(u)
    w = 1.0 / (np.pi * (delta + F.real**2 + F.imag**2))
    return Coefficients(-F.imag * w, F.real * w)


def nonlinear_tendency(u: RealField, delta: float) -> np.ndarray:
    """The rfft spectrum of the non-viscous tendency
    -(1/pi) Im(conj(F) F_x) / (delta + |F|^2) = -(V u_x + gamma Lu).

    With delta = 0 this is evaluated through the flux form, which is an
    exact spectral derivative and therefore conserves the grid mean to
    rounding; with delta > 0 through the quasilinear form, with V and gamma
    from coefficients and u_x + iLu = F_x.
    """
    if delta == 0.0:
        return tendency_flux(u)
    co = coefficients(u, delta)
    Fx = spectral.analytic_signal(u, dx=True)
    return np.fft.rfft(-(co.V * Fx.real + co.gamma * Fx.imag))


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
