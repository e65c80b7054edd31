"""Quantitative functionals on fields and trajectories.

These implement the observable side of the analysis: the coercive
dissipation integral, the energy budget, the extremum (maximum-principle)
drifts, the parabolic smoothing fit, and the L-infinity stability
comparison of paired runs.  They measure and do not judge: the bound each
check holds a measurement to is a constant of the command that checks it
(see cli).
"""

from dataclasses import dataclass

import numpy as np

from . import dynamics, spectral
from .spectral import RealField


@dataclass(frozen=True)
class EnergyBudget:
    h12_sq_sup: float
    dissipation_cum: float
    initial_h12_sq: float
    bound_ratio: float


@dataclass(frozen=True)
class SmoothingReport:
    sup_weighted: float
    sup_time: float
    slope: float
    norms: tuple = ()  # (t, H^{1/2+s} seminorm) at each snapshot the fit used


@dataclass(frozen=True)
class StabilityReport:
    times: tuple
    distances: tuple
    growth: float


def mass(u: RealField) -> float:
    """The integral of u over the circle, 2 pi times the mean bin of its
    spectrum, so the same on any grid the spectrum is padded to."""
    return float(2.0 * np.pi * u.spectrum[0].real / u.grid.n)


def dissipation(u: RealField, delta: float) -> float:
    """Coercive quantity int u (Lu)^2 / (delta + u^2 + (Hu)^2) dx = pi int Re F w (Lu)^2 dx,
    for u > 0 or delta > 0, with the weight w from dynamics.weight.

    At delta > 0 Lu is read off F_x = u_x + iLu, which the next step's
    tendency needs and finds kept; at delta = 0 no tendency needs F_x and
    frac_laplacian gives Lu by one irfft."""
    lu = u.F_x.imag if delta > 0 else spectral.frac_laplacian(u).values
    return float(np.pi * u.grid.dx * np.sum(u.F.real * dynamics.weight(u, delta) * lu**2))


def record_columns(traj) -> dict:
    """Each StepRecord field of traj's records as one array, by field name."""
    if not traj.records:
        raise ValueError("trajectory has no scalar records")
    return dict(zip(traj.records[0]._fields, np.array(traj.records).T))


def energy_budget(traj, delta: float) -> EnergyBudget:
    """Energy inequality ledger: sup of the squared H^{1/2} seminorm plus the
    time-integrated dissipation, as a ratio to the initial squared seminorm.

    Time integration uses the per-step scalar records (trapezoid), so the
    budget does not depend on how densely snapshots were requested.  For
    constant data the homogeneous seminorm vanishes identically and the
    ratio is defined as 0.
    """
    col = record_columns(traj)
    t, h12_sq, diss = col["t"], col["h12"] ** 2, col["dissipation"]
    sup = float(h12_sq.max())
    cum = float(np.trapezoid(diss, t)) if len(t) > 1 else 0.0
    initial = float(h12_sq[0])
    ratio = 0.0 if initial == 0.0 else (sup + cum) / initial
    return EnergyBudget(sup, cum, initial, ratio)


def extremum_report(traj):
    """(min-drift, max-drift) of the run relative to the initial extrema.

    The first entry is min over time of (min u(t) - min u(0)) and must stay
    above -tol for a maximum-principle-respecting run; the second is max
    over time of (max u(t) - max u(0)) and must stay below +tol.
    """
    col = record_columns(traj)
    min_u, max_u = col["min_u"], col["max_u"]
    return float(min_u.min() - min_u[0]), float(max_u.max() - max_u[0])


def smoothing_fit(traj, s: float, eps0: float, t_min: float) -> SmoothingReport:
    """Weighted-norm smoothing diagnostic on snapshots with t >= t_min > 0.

    Computes sup over usable snapshots of t^(s+eps0) * ||u(t)||_{H^{1/2+s}}
    and the least-squares slope of log ||u(t)||_{H^{1/2+s}} against log t.
    """
    if t_min <= 0:
        raise ValueError("t_min must be positive")
    pts = [(t, u) for t, u in traj.snapshots if t > 0 and t >= t_min - 1e-13]  # log t needs t > 0
    if len(pts) < 3:
        raise ValueError(f"need at least 3 snapshots with t >= {t_min}, got {len(pts)}")
    times = np.array([t for t, _ in pts])
    norms = np.array([spectral.sobolev_seminorm(u, 0.5 + s) for _, u in pts])
    if not norms.all():  # a constant datum; log 0 would make the slope nan
        zero = times[norms == 0.0][0]
        raise ValueError(f"the H^(1/2+s) seminorm is 0 at t = {zero:g}, so it has no log-log slope")
    weighted = times ** (s + eps0) * norms
    i_sup = int(np.argmax(weighted))
    slope = float(np.polyfit(np.log(times), np.log(norms), 1)[0])
    return SmoothingReport(
        sup_weighted=float(weighted[i_sup]),
        sup_time=float(times[i_sup]),
        slope=slope,
        norms=tuple(zip(times.tolist(), norms.tolist())),
    )


def snapshot_distances(traj1, traj2, norm) -> list:
    """norm(u1 - u2) at each snapshot of two runs on one grid whose times agree to 1e-12."""
    t1, t2 = traj1.times, traj2.times
    if len(t1) != len(t2) or any(abs(a - b) > 1e-12 for a, b in zip(t1, t2)):
        raise ValueError("trajectories disagree on snapshot times")
    dists = []
    for (t, u1), (_, u2) in zip(traj1.snapshots, traj2.snapshots):
        if u1.grid != u2.grid:
            raise ValueError(f"snapshots at t={t:g} live on different grids: n={u1.grid.n} and n={u2.grid.n}")
        dists.append(norm(RealField(u1.grid, u1.values - u2.values)))
    return dists


def stability_compare(traj1, traj2) -> StabilityReport:
    """Per-snapshot L-infinity gap d(t) = max |u1 - u2| between two runs on a
    common snapshot grid, plus the smallest G with d(t) <= G d(0)."""
    dists = snapshot_distances(traj1, traj2, lambda d: float(np.abs(d.values).max()))
    d0 = dists[0]
    growth = 0.0 if d0 == 0.0 else max(d / d0 for d in dists)
    return StabilityReport(tuple(traj1.times), tuple(dists), growth)
