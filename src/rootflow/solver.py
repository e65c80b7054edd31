"""Time integration of the regularized root-flow equation.

Scheme: the stiff viscous term delta * u_xx is integrated exactly in
Fourier space (integrating factor exp(-delta k^2 dt)); the remaining
nonlocal tendency is advanced with a two-stage explicit Heun update.
The composition is second order in time and reduces to plain Heun when
delta = 0.  The stages are sums of the spectra the fields keep.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, spectral
from .diagnostics import dissipation, mass, snapshot_distances
from .spectral import PeriodicGrid, RealField


class SolverAbort(RuntimeError):
    """Raised when a run cannot go on; the message names t and the cause."""


class StepLimitAbort(SolverAbort):
    """Raised when a run would need more than cfg.max_steps steps."""


@dataclass(frozen=True)
class SolverConfig:
    delta: float = 0.0
    t_end: float = 1.0
    cfl: float = 0.5
    dt_max: float = np.inf
    snapshot_times: tuple = ()
    pos_floor: float = 1e-10
    max_steps: int = 1_000_000

    def __post_init__(self):
        # negated comparisons, so that nan fails each of them
        if not (0 <= self.t_end < np.inf):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not (0 <= self.delta < np.inf):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if not (self.dt_max > 0):
            raise ValueError(f"dt_max must be positive, got {self.dt_max}")
        if not (0 <= self.pos_floor < np.inf):
            raise ValueError(f"pos_floor must be finite and >= 0, got {self.pos_floor}")
        if not (isinstance(self.max_steps, int) and self.max_steps >= 1):
            raise ValueError(f"max_steps must be an integer >= 1, got {self.max_steps!r}")
        times = tuple(float(t) for t in self.snapshot_times)
        if not all(0 <= t <= self.t_end for t in times):
            raise ValueError("snapshot times must lie in [0, t_end]")
        if list(times) != sorted(times):
            raise ValueError("snapshot times must be sorted")
        object.__setattr__(self, "snapshot_times", times)


@dataclass(frozen=True)
class SolverState:
    t: float
    u: RealField
    last_dt: float = 0.0


@dataclass
class StepRecord:
    t: float
    dt: float
    min_u: float
    max_u: float
    mass: float
    h12: float
    dissipation: float


@dataclass
class Trajectory:
    snapshots: list = field(default_factory=list)  # (t, RealField) pairs
    records: list = field(default_factory=list)  # StepRecord per accepted step

    @property
    def times(self):
        return [t for t, _ in self.snapshots]


def mollified_initial(u0: RealField, delta: float) -> RealField:
    """Initial data of the regularized problem: heat-mollify u0 by delta."""
    if u0.min() <= 0:
        raise ValueError(f"initial data must be positive, min u0 = {u0.min():.3e}")
    return spectral.heat_propagate(u0, delta)


def _admissible(u: RealField, cfg: SolverConfig, t: float, what: str) -> RealField:
    """u if it is finite with min u > cfg.pos_floor, the one positivity rule of a run; else abort."""
    if not (u.min() > cfg.pos_floor and np.isfinite(u.values).all()):
        raise SolverAbort(
            f"{what} at t={t:.6g} non-finite or not above floor {cfg.pos_floor:.3e}: min u = {u.min():.3e}"
        )
    return u


def stable_dt(state: SolverState, cfg: SolverConfig) -> float:
    """Explicit step bound cfl * min(1/(max gamma * kmax), dx/max|V|, dt_max)."""
    coeffs = dynamics.coefficients(state.u, cfg.delta)
    grid = state.u.grid
    return cfg.cfl * min(
        1.0 / (max(float(coeffs.gamma.max()), 1e-300) * grid.kmax),
        grid.dx / max(float(np.abs(coeffs.V).max()), 1e-300),
        cfg.dt_max,
    )


def step(state: SolverState, dt: float, cfg: SolverConfig) -> SolverState:
    """One integrating-factor Heun step of size dt; both stages must be admissible."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    u = state.u
    t = state.t + dt
    k1 = dynamics.nonlinear_tendency(u, cfg.delta)
    c_pred = u.spectrum + dt * k1
    c_new = u.spectrum + 0.5 * dt * k1
    if cfg.delta > 0:  # at delta = 0 the factor is exactly 1
        decay = spectral.heat_multiplier(u.grid, cfg.delta * dt)
        c_pred *= decay
        c_new *= decay
    pred = _admissible(spectral.from_spectrum(u.grid, c_pred), cfg, t, "predictor")
    k2 = dynamics.nonlinear_tendency(pred, cfg.delta)
    c_new += 0.5 * dt * k2
    u_new = _admissible(spectral.from_spectrum(u.grid, c_new), cfg, t, "step result")
    return SolverState(t=t, u=u_new, last_dt=dt)


def _record(state: SolverState, delta: float) -> StepRecord:
    u = state.u
    return StepRecord(
        t=state.t,
        dt=state.last_dt,
        min_u=u.min(),
        max_u=u.max(),
        mass=mass(u),
        h12=spectral.sobolev_seminorm(u, 0.5),
        dissipation=dissipation(u, delta),
    )


def _append_record(traj: Trajectory, state: SolverState, delta: float):
    """Append the record of state; one sum tests every field for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):  # the test below names what overflowed
        r = _record(state, delta)
    if not math.isfinite(r.t + r.dt + r.min_u + r.max_u + r.mass + r.h12 + r.dissipation):
        if bad := [name for name, v in vars(r).items() if not math.isfinite(v)]:  # empty if only the sum overflowed
            raise SolverAbort(f"non-finite {', '.join(bad)} at t={state.t:.6g}, step {len(traj.records)}")
    traj.records.append(r)


def solve(u0: RealField, cfg: SolverConfig) -> Trajectory:
    """Integrate from the mollified initial data to t_end.

    Snapshots are recorded at t=0, at every distinct requested snapshot time
    and at t_end, which steps land on exactly.  A scalar record is
    appended for the initial state and after every accepted step.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the spectrum of huge data overflows; the check names it
        u = mollified_initial(u0, cfg.delta)
    u = _admissible(u, cfg, 0.0, "mollified initial data")
    state = SolverState(t=0.0, u=u)
    traj = Trajectory()
    traj.snapshots.append((0.0, u))
    _append_record(traj, state, cfg.delta)
    for stop in sorted({*cfg.snapshot_times, cfg.t_end} - {0.0}):
        while state.t < stop:
            if len(traj.records) > cfg.max_steps:  # one record per step, plus the initial one
                raise StepLimitAbort(
                    f"step limit {cfg.max_steps} reached at t={state.t:.6g}, step {cfg.max_steps}, short of stop {stop:.6g}"
                )
            dt = stable_dt(state, cfg)
            if dt < np.spacing(stop):  # at this dt, stop lies over 2^52 steps from t = 0
                raise SolverAbort(
                    f"dt={dt:.3e} at t={state.t:.6g}, step {len(traj.records)}: below one float step of stop {stop:.6g}"
                )
            if state.t + dt >= stop:
                state = replace(step(state, stop - state.t, cfg), t=stop)
            else:
                state = step(state, dt, cfg)
            _append_record(traj, state, cfg.delta)
        traj.snapshots.append((stop, state.u))
    return traj


def delta_continuation(u0: RealField, deltas, t_end: float, cfg: SolverConfig):
    """Run solve for each delta in a strictly decreasing list and report the
    sup-over-snapshots H^{1/2} and L2 distances between consecutive members.

    Returns (runs, distances) where runs is a list of (delta, Trajectory)
    and distances a list of dicts with keys 'h12' and 'l2'.
    """
    deltas = [float(d) for d in deltas]
    if any(d <= 0 for d in deltas):
        raise ValueError("continuation deltas must be positive")
    if any(b >= a for a, b in zip(deltas, deltas[1:])):
        raise ValueError("continuation deltas must be strictly decreasing")
    runs = []
    for d in deltas:
        run_cfg = replace(cfg, delta=d, t_end=t_end)
        try:
            runs.append((d, solve(u0, run_cfg)))
        except SolverAbort as exc:
            raise type(exc)(f"continuation member delta={d:g} failed: {exc}") from exc
    distances = []
    for (da, ta), (db, tb) in zip(runs, runs[1:]):
        d_h12 = max(snapshot_distances(ta, tb, lambda d: spectral.sobolev_seminorm(d, 0.5)))
        d_l2 = max(snapshot_distances(ta, tb, spectral.l2_norm))
        if not (np.isfinite(d_h12) and np.isfinite(d_l2)):
            raise SolverAbort(f"non-finite continuation distance at delta={db:g}")
        distances.append({"h12": d_h12, "l2": d_l2})
    return runs, distances


def rough_initial_data(
    grid: PeriodicGrid,
    c0: float = 1.0,
    eta: float = 0.01,
    amplitude: float = 0.25,
    seed: int = 0,
) -> RealField:
    """Seeded rough datum: half-spectrum (1+|k|)^(-1-eta) with uniform random
    phases, rescaled to the requested amplitude, offset so min u = c0."""
    rng = np.random.default_rng(seed)
    k = grid.wavenumbers
    c = np.zeros(grid.n // 2 + 1, dtype=complex)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=grid.n // 2 - 1)
    c[1:-1] = (1.0 + k[1:-1]) ** (-1.0 - eta) * np.exp(1j * phases)
    r = np.fft.irfft(c * grid.n, n=grid.n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        r *= amplitude / np.abs(r).max()  # overflows if every mode underflowed; RealField rejects it
        return RealField(grid, r + (c0 - r.min()))
