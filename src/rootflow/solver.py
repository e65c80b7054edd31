"""Time integration of the regularized root-flow equation.

Scheme: the stiff viscous term delta * u_xx is integrated exactly in
Fourier space (integrating factor exp(-delta k^2 dt)); the remaining
nonlocal tendency is advanced with a two-stage explicit Heun update.
The composition is second order in time and reduces to plain Heun when
delta = 0.  The stages are sums of the spectra the fields keep.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

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


class StepRecord(NamedTuple):
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
    records: list = field(default_factory=list)  # StepRecord per accepted step, empty if solve skipped them

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


def stable_dt(u: RealField, cfg: SolverConfig) -> float:
    """Explicit step bound cfl * min(1/(max gamma * kmax), dx/max|V|, dt_max),
    with gamma = Re F w and |V| = |Im F| w read off F and the weight."""
    F, w, grid = u.F, dynamics.weight(u, cfg.delta), u.grid
    return cfg.cfl * min(
        1.0 / (max(float((F.real * w).max()), 1e-300) * grid.kmax),
        grid.dx / max(float((np.abs(F.imag) * w).max()), 1e-300),
        cfg.dt_max,
    )


def step(u: RealField, dt: float, cfg: SolverConfig, t: float = 0.0) -> RealField:
    """One integrating-factor Heun step of size dt from u at time t, which
    only an abort message names; both stages must be admissible."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    t += dt
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
    return _admissible(spectral.from_spectrum(u.grid, c_new), cfg, t, "step result")


def _record(t: float, dt: float, u: RealField, delta: float) -> StepRecord:
    return StepRecord(t, dt, u.min(), u.max(), mass(u), spectral.sobolev_seminorm(u, 0.5), dissipation(u, delta))


def _append_record(traj: Trajectory, t: float, dt: float, u: RealField, delta: float, steps: int):
    """Append the record of u at t after a step dt; one sum tests every field for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):  # the test below names what overflowed
        r = _record(t, dt, u, delta)
    if not math.isfinite(sum(r)):
        if bad := [name for name, v in zip(r._fields, r) if not math.isfinite(v)]:  # empty if only the sum overflowed
            raise SolverAbort(f"non-finite {', '.join(bad)} at t={t:.6g}, step {steps}")
    traj.records.append(r)


def _start(u0: RealField, cfg: SolverConfig, traj: Trajectory, records: bool) -> RealField:
    """The set-up checks of a run: mollify u0, check it against the floor,
    put it into traj as the t = 0 snapshot (and record, with records) and
    abort where u^2 + (Hu)^2 overflows; returns the mollified datum."""
    with np.errstate(over="ignore", invalid="ignore"):  # the spectrum of huge data overflows; the check names it
        u = mollified_initial(u0, cfg.delta)
    u = _admissible(u, cfg, 0.0, "mollified initial data")
    traj.snapshots.append((0.0, spectral._fresh_field(u.grid, u.values, u.spectrum)))
    if records:
        _append_record(traj, 0.0, 0.0, u, cfg.delta, 0)
    # delta + |F|^2 must be finite, or the weight reads 0 and bounds no step;
    # the record of non-constant data overflows first and names its fields
    f_max = float(np.abs(u.F).max())
    if not math.isfinite(cfg.delta + f_max * f_max):
        raise SolverAbort(f"u^2 + (Hu)^2 overflows at t=0, step 0: max |u + iHu| = {f_max:.3e} leaves no dt bound")
    return u


def _stops(cfg: SolverConfig) -> list:
    """The snapshot times after t = 0: every distinct snapshot time and t_end."""
    return sorted({*cfg.snapshot_times, cfg.t_end} - {0.0})


def solve(u0: RealField, cfg: SolverConfig, *, records: bool = True) -> Trajectory:
    """Integrate from the mollified initial data to t_end.

    Snapshots are recorded at t=0, at every distinct requested snapshot time
    and at t_end, which steps land on exactly.  A snapshot keeps the
    field's read-only samples and spectrum, not its F, F_x or w, which only
    the next step reads.  With records, a StepRecord is appended for the
    initial state and after every accepted step; a caller that reads only
    snapshots passes records=False, and traj.records stays empty.  Every
    predictor and step result is still checked to be finite and above the
    floor, and a datum whose u^2 + (Hu)^2 overflows aborts at set-up.
    Transforms: the datum's rfft and the mollified datum's ifft at set-up,
    then 4 a step at delta = 0 and 6 at delta > 0; records add one at set-up
    and, at delta = 0, one a step.  dynamics.weight is formed for the datum,
    then once a step at delta = 0 and twice at delta > 0.
    """
    traj = Trajectory()
    u = _start(u0, cfg, traj, records)
    t, steps = 0.0, 0
    for stop in _stops(cfg):
        while t < stop:
            if steps >= cfg.max_steps:
                raise StepLimitAbort(
                    f"step limit {cfg.max_steps} reached at t={t:.6g}, step {steps}, short of stop {stop:.6g}"
                )
            dt = stable_dt(u, cfg)
            if dt < np.spacing(stop):  # at this dt, stop lies over 2^52 steps from t = 0
                raise SolverAbort(
                    f"dt={dt:.3e} at t={t:.6g}, step {steps + 1}: below one float step of stop {stop:.6g}"
                )
            if t + dt >= stop:
                dt = stop - t
                u, t = step(u, dt, cfg, t), stop
            else:
                u, t = step(u, dt, cfg, t), t + dt
            steps += 1
            if records:
                _append_record(traj, t, dt, u, cfg.delta, steps)
        traj.snapshots.append((stop, spectral._fresh_field(u.grid, u.values, u.spectrum)))
    return traj


MAP_TOL = 4e-15  # a foot stops once its Newton step |dz| falls below this; 1e-15 stalls at about 1.5e-15
MAP_STALL = 1e-10  # a Newton step in log z that follows one below this and is no shorter meets rounding
MAP_NEWTON_ITER = 8  # Newton steps one continuation step may take before it counts as failed
MAP_MAX_EVALS = 1000  # F0 evaluations one target may spend over the whole continuation
MAP_FAILURES = (
    "a Newton step left the unit disc",
    "a Newton step did not shrink",
    f"Newton took more than {MAP_NEWTON_ITER} steps",
)
MAP_BLOCK = 128  # targets per evaluation block: work arrays are MAP_BLOCK x 2 MAP_POWERS
MAP_POWERS = 32  # F0 is sum_b z^(32 b) sum_m a_(32 b + m) z^m; a power of two


def characteristic_snapshots(u0: RealField, cfg: SolverConfig) -> Trajectory:
    """solve's snapshots at delta = 0, mapped exactly by complex characteristics.

    F = u + iHu extends into the unit disc as F0(z) = sum a_k z^k, and at
    delta = 0 the equation is F_t + z F_z / (pi F) = 0.  F is constant along
    dz/dt = z / (pi F), so

        u(t, x) = Re F0(z0),   where   z0 exp(t / (pi F0(z0))) = e^(ix),

    with the foot z0 inside the disc for t > 0 while Re F0 > 0 there, that is
    while the trigonometric interpolant of the datum is positive; otherwise a
    foot is lost and the run aborts.  No step is taken: each snapshot is the
    exact solution of the band-limited datum sampled on the grid, its grid
    mean set to the conserved F0(0), from which the samples differ by
    aliasing alone (up to 1.1e-11 for roots-compare's bump at n = 1024 and
    t = 0.3, 1.8e-6 at n = 256).  The set-up checks are solve's, every
    snapshot must be admissible, and records stay empty.
    """
    if cfg.delta != 0.0:
        raise ValueError(f"the characteristic map solves delta = 0 only, got delta = {cfg.delta:g}")
    traj = Trajectory()
    u = _start(u0, cfg, traj, records=False)
    times = _stops(cfg)
    if not times:
        return traj
    grid = u.grid
    a = spectral._one_sided(grid, u.spectrum) / grid.n
    blocks = _taylor_blocks(a)
    feet = characteristic_feet(blocks, grid.points, times, u.F)
    for t, z0 in zip(times, feet):
        values = _taylor(blocks, z0)[0].real
        values += a[0].real - values.mean()
        traj.snapshots.append((t, _admissible(RealField(grid, values), cfg, t, "characteristic solution")))
    return traj


def characteristic_feet(blocks: np.ndarray, x: np.ndarray, times, F: np.ndarray) -> np.ndarray:
    """Feet z0 with z0 exp(t / (pi F0(z0))) = e^(ix) for each time in times
    (increasing, positive) and each target x; F0 = sum a_k z^k has the
    blocks _taylor_blocks(a), and F is F0(e^(ix)).  Returns (len(times), len(x)).

    Each target follows its foot from z0 = e^(ix) at s = 0 by its own
    continuation in s, landing on every time; its first step tries the whole
    way.  A step starts from the tangent predictor, or, where that leaves the
    disc, from the fixed-point guess e^(ix) exp(-s / (pi F0)) with F0 at the
    last foot, and runs Newton in log z on Phi = log(z / e^(ix)) +
    s / (pi F0(z)), whose derivative is 1 - s z F0'(z) / (pi F0^2); log z is
    tracked continuously, so no branch cut is crossed.  A Newton step is
    taken only if it stays inside the disc and is shorter than the one
    before.  The continuation step succeeds once a Newton step |dz| is below
    MAP_TOL, or no shorter than one below MAP_STALL, and the next is 1.5 times
    longer; it fails on any other Newton step that is not taken or after
    MAP_NEWTON_ITER of them, and is retried at a quarter of its length.
    F0 and z F0' are evaluated MAP_BLOCK targets at a time.
    """
    times = np.asarray(times, dtype=float)
    ix = 1j * x
    zeta0 = ix.copy()  # log of the last foot found, at s0
    s0 = np.zeros(x.size)
    f0 = F.astype(complex)  # F0 at the last foot
    slope = -1.0 / (np.pi * f0)  # d log z0 / ds there
    stop = np.zeros(x.size, dtype=int)  # index of the next time to land on
    h = np.full(x.size, times[-1])  # the next step's length, before landing
    s1 = np.full(x.size, times[0])  # the s the current step solves at
    zeta = zeta0 + s1 * slope
    prev = np.full(x.size, np.inf)  # length of the last Newton step
    iters = np.zeros(x.size)  # Newton steps in the current continuation step
    cause = np.full(x.size, -1)  # MAP_FAILURES index of why the last finished step failed; -1 if it did not
    feet = np.empty((times.size, x.size), dtype=complex)
    rows = np.arange(x.size)

    def lost(j, why):
        last = f", and its last step failed as {MAP_FAILURES[cause[j]]}" if cause[j] >= 0 else ""
        return SolverAbort(
            f"characteristic foot of x={x[j]:.6g} lost at t={s0[j]:.6g}, short of stop {times[stop[j]]:.6g}: "
            f"{why}{last}"
        )

    # a step that divides by zero or overflows is not finite, and is not
    # taken; the loop tests floats only (iters too), as a first integer
    # comparison or complex isfinite maps 64-128 KB more of numpy's code
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(MAP_MAX_EVALS):
            z = np.exp(zeta[rows])
            f, zf = _taylor(blocks, z)
            s = s1[rows]
            dphi = 1.0 - s * zf / (np.pi * f * f)
            d = -(zeta[rows] - ix[rows] + s / (np.pi * f)) / dphi
            new = zeta[rows] + d
            step = np.abs(d)
            inside = np.isfinite(step) & (new.real < 0.0)
            shorter = step < prev[rows]
            # a step that no longer shrinks after one below MAP_STALL has met
            # the rounding floor, which ill conditioning lifts above MAP_TOL
            done = inside & (shorter & (np.abs(z) * step < MAP_TOL) | ~shorter & (prev[rows] < MAP_STALL))
            newton = inside & shorter & ~done & (iters[rows] < MAP_NEWTON_ITER)
            i = rows[newton]
            zeta[i], prev[i], iters[i] = new[newton], step[newton], iters[i] + 1
            # a converged step moves its target on, landing on a time or not
            i = rows[done]
            zeta0[i], s0[i], f0[i], cause[i] = new[done], s[done], f[done], -1
            slope[i] = -1.0 / (np.pi * f[done] * dphi[done])
            h[i] *= 1.5
            i = i[s[done] == times[stop[i]]]
            feet[stop[i], i] = np.exp(zeta0[i])
            stop[i] += 1
            # a failed step is retried at a quarter of its length
            failed = ~done & ~newton
            i = rows[failed]
            h[i] = 0.25 * (s1[i] - s0[i])
            cause[i] = np.where(inside, np.where(shorter, 2, 1), 0)[failed]
            more = s0[rows] < times[-1]
            i = rows[more & ~newton]
            rows = rows[more]
            if rows.size == 0:
                return feet
            s1[i] = np.minimum(s0[i] + h[i], times[stop[i]])
            if (stuck := i[s1[i] <= s0[i]]).size:
                raise lost(stuck[0], "its continuation step fell below one float step of t")
            guess = zeta0[i] + (s1[i] - s0[i]) * slope[i]
            out = ~(np.isfinite(np.abs(guess)) & (guess.real < 0.0))
            guess[out] = ix[i[out]] - s1[i[out]] / (np.pi * f0[i[out]])
            zeta[i], prev[i], iters[i] = guess, np.inf, 0
    raise lost(rows[0], f"it spent {MAP_MAX_EVALS} evaluations of F0")


def _taylor_blocks(a: np.ndarray) -> np.ndarray:
    """The coefficients of F0 (a_k) and of z F0' (k a_k) as one real matrix.
    With k = MAP_POWERS b + m, the coefficient c of power m in block b of
    function q (0 for F0, 1 for z F0') fills rows 2m, 2m + 1 and columns
    2j, 2j + 1, j = qB + b, as [[Re c, Im c], [-Im c, Re c]]: the real
    product of (Re z^m, Im z^m) pairs with it gives (Re, Im) pairs of the
    partial sums sum_m c z^m.  That product is an einsum, not BLAS: on a
    2-core machine a complex BLAS product ran the map 2.4-3.2x faster with
    OpenBLAS pinned to one thread, but unpinned it stalled at about 5 ms a
    call in 1 of 30 fresh processes (0 of 30 pinned), and neither the tests
    nor the library pin it."""
    nb = -(-a.size // MAP_POWERS)
    coef = np.zeros((2, nb * MAP_POWERS), dtype=complex)
    coef[0, : a.size], coef[1, : a.size] = a, np.arange(a.size) * a
    c = coef.reshape(2 * nb, MAP_POWERS).T  # [m, q nb + b]
    e = np.empty((MAP_POWERS, 2, 2 * nb, 2))
    e[:, 0, :, 0], e[:, 0, :, 1] = c.real, c.imag
    e[:, 1, :, 0], e[:, 1, :, 1] = -c.imag, c.real
    return e.reshape(2 * MAP_POWERS, 4 * nb)


def _taylor(blocks: np.ndarray, z: np.ndarray):
    """(F0(z), z F0'(z)) at targets z with |z| <= 1, MAP_BLOCK at a time: the
    powers z^0..z^31 times the coefficient blocks give the partial sums,
    which Horner's rule in z^32 adds up."""
    nb = blocks.shape[1] // 4
    out = np.empty((z.size, 2), dtype=complex)
    powers = np.empty((min(z.size, MAP_BLOCK), MAP_POWERS), dtype=complex)
    for first in range(0, z.size, MAP_BLOCK):
        zq = z[first : first + MAP_BLOCK]
        p = powers[: zq.size]
        p[:, 0], q = 1.0, 1
        while q < MAP_POWERS:  # z^q..z^(2q-1) from z^0..z^(q-1)
            np.multiply(p[:, :q], zq[:, None], out=p[:, q : 2 * q])
            zq, q = zq * zq, 2 * q
        partial = np.einsum("jm,mq->jq", p.view(float), blocks).view(complex).reshape(-1, 2, nb)
        acc = out[first : first + MAP_BLOCK]
        acc[:] = partial[:, :, -1]
        for b in range(nb - 2, -1, -1):
            acc *= zq[:, None]
            acc += partial[:, :, b]
    return out[:, 0], out[:, 1]


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
