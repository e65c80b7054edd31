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
"""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import RealField

# fields with delta=0 must stay strictly above this floor; rounding noise
# around an exact zero would otherwise blow up the quotients
EPS_POS = 1e-10


class PositivityError(ValueError):
    pass


@dataclass(frozen=True)
class Coefficients:
    V: np.ndarray
    gamma: np.ndarray


def _require_positive(u: RealField, delta: float):
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if delta == 0.0 and u.min() <= EPS_POS:
        raise PositivityError(
            f"min u = {u.min():.3e} <= {EPS_POS:.0e} with delta = 0"
        )


def coefficients(u: RealField, delta: float) -> Coefficients:
    """Transport velocity V and dissipation weight gamma."""
    _require_positive(u, delta)
    F = spectral.analytic_signal(u)
    denom = delta + F.real**2 + F.imag**2
    return Coefficients(-F.imag / (np.pi * denom), F.real / (np.pi * denom))


def nonlinear_tendency(u: RealField, delta: float) -> np.ndarray:
    """The rfft spectrum of the non-viscous tendency
    -(1/pi) Im(conj(F) F_x) / (delta + |F|^2),
    that is -(1/pi)(u Lu - Hu u_x) / (delta + u^2 + (Hu)^2).

    With delta = 0 this is evaluated through the flux form, which is an
    exact spectral derivative and therefore conserves the grid mean to
    rounding.
    """
    if delta == 0.0:
        return tendency_flux(u)
    _require_positive(u, delta)
    F = spectral.analytic_signal(u)
    Fx = spectral.analytic_signal(u, dx=True)
    return np.fft.rfft(-(np.conj(F) * Fx).imag / (np.pi * (delta + F.real**2 + F.imag**2)))


def tendency_flux(u: RealField) -> np.ndarray:
    """rfft spectrum of the flux-form tendency -(1/pi) d/dx arg F, where
    arg F = arctan(Hu/u) for positive u; its mean bin is exactly zero."""
    _require_positive(u, 0.0)
    c = np.fft.rfft(np.angle(spectral.analytic_signal(u)) / np.pi)
    return -(c * spectral.derivative_multiplier(u.grid))
