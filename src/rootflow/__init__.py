"""Pseudo-spectral solver and diagnostics for the arctan root-flow equation
u_t + (1/pi) (arctan(Hu/u))_x = 0 on the circle, with its delta-regularized
approximation, plus a polynomial-root-differentiation oracle."""

from .spectral import PeriodicGrid, RealField

__all__ = ["PeriodicGrid", "RealField"]
__version__ = "0.1.0"
