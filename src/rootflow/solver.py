"""Time integration of the regularized root-flow equation.

Scheme: the stiff viscous term delta * u_xx is integrated exactly in
Fourier space (integrating factor exp(-delta k^2 dt)); the remaining
nonlocal tendency is advanced with a two-stage explicit Heun update.
The composition is second order in time and reduces to plain Heun when
delta = 0.  The stages are sums of the spectra the fields keep.  solve
steps on a working grid no finer than the spectrum needs, at that grid's
own dt bound.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dynamics, spectral
from .diagnostics import dissipation, mass
from .spectral import PeriodicGrid, RealField


GRID_TOL = 1e-15  # a mode below this share of the mean holds rounding only
GRID_GROW = 1e3  # the working grid doubles once a top mode holds this many rounding levels
GRID_MIN = 64  # the working grid halves no further than this size


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
    with gamma = Re F w and |V| = |Im F| w read off u's F and weight, and
    kmax and dx those of u's own grid."""
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


def _record(t: float, dt: float, u: RealField, values: np.ndarray, delta: float) -> StepRecord:
    """The record of u: min and max of values, its samples on the user grid,
    mass and h12 off its spectrum, the dissipation on u's own grid."""
    return StepRecord(
        t, dt, float(values.min()), float(values.max()), mass(u), spectral.sobolev_seminorm(u, 0.5), dissipation(u, delta)
    )


def _append_record(traj: Trajectory, t: float, dt: float, u: RealField, values: np.ndarray, delta: float, steps: int):
    """Append the record of u at t after a step dt; one sum tests every field for finiteness."""
    with np.errstate(over="ignore", invalid="ignore"):  # the test below names what overflowed
        r = _record(t, dt, u, values, delta)
    if not math.isfinite(sum(r)):
        if bad := [name for name, v in zip(r._fields, r) if not math.isfinite(v)]:  # empty if only the sum overflowed
            raise SolverAbort(f"non-finite {', '.join(bad)} at t={t:.6g}, step {steps}")
    traj.records.append(r)


def _resized(c: np.ndarray, n: int) -> np.ndarray:
    """The rfft spectrum on n points of the field whose rfft on m = 2 c.size - 2
    points is c, n = m 2^j with j != 0: the modes below the smaller grid's
    Nyquist mode K, scaled by n / m, a power of two, so exactly.  Bin K is
    one mode on the smaller grid, whose samples read only its real part, and
    stands for +K and -K on the larger: padding keeps half that real part;
    truncating zeroes the bin, as _working truncates only modes below one
    rounding level."""
    m = 2 * c.size - 2
    out = np.zeros(n // 2 + 1, dtype=complex)
    k = min(m, n) // 2
    out[:k] = c[:k] * (n / m)
    if n > m:
        out[k] = c[k].real * (n / m / 2)
    return out


def _on_grid(u: RealField, grid: PeriodicGrid) -> tuple:
    """(spectrum, samples) of u on grid, at least as large as u's: its own,
    or its spectrum padded to grid and one irfft."""
    if u.grid == grid:
        return u.spectrum, u.values
    c = _resized(u.spectrum, grid.n)
    return c, np.fft.irfft(c, n=grid.n)


def _snapshot(grid: PeriodicGrid, c: np.ndarray, values: np.ndarray, cfg: SolverConfig, t: float) -> tuple:
    """(t, the field with spectrum c and samples values on grid), with no F,
    F_x or w, checked against the floor."""
    return t, _admissible(spectral._fresh_field(grid, values, c), cfg, t, "snapshot")


def _working(u: RealField, n: int) -> RealField:
    """u on the grid its next step runs on, which follows its spectrum and is
    always n / 2^j: twice u's grid, up to n, once a mode of its top eighth
    rises above GRID_GROW rounding levels; else halved, down to GRID_MIN and
    while the half is even, as long as every mode from a quarter of the size
    up is below one rounding level, GRID_TOL of the mean."""
    m, c = u.grid.n, u.spectrum
    level = GRID_TOL * abs(c[0])
    if m < n and np.abs(c[7 * m // 16 :]).max() > GRID_GROW * level:
        size = 2 * m
    else:
        size = m
        while size >= 2 * GRID_MIN and size % 4 == 0 and np.abs(c[size // 4 : size // 2 + 1]).max() < level:
            size //= 2
    if size == m:
        return u
    return spectral.from_spectrum(PeriodicGrid(size), _resized(c, size))


def _start(u0: RealField, cfg: SolverConfig, traj: Trajectory) -> RealField:
    """The set-up checks of a run: mollify u0, check it against the floor
    and put it into traj as the t = 0 snapshot; returns the mollified datum."""
    with np.errstate(over="ignore", invalid="ignore"):  # the spectrum of huge data overflows; the check names it
        u = mollified_initial(u0, cfg.delta)
    u = _admissible(u, cfg, 0.0, "mollified initial data")
    traj.snapshots.append(_snapshot(u.grid, u.spectrum, u.values, cfg, 0.0))
    return u


def _bounded(u: RealField, delta: float) -> RealField:
    """u if delta + |F|^2 is finite, or the weight reads 0 and bounds no step; else abort."""
    f_max = float(np.abs(u.F).max())
    if not math.isfinite(delta + f_max * f_max):
        raise SolverAbort(f"u^2 + (Hu)^2 overflows at t=0, step 0: max |u + iHu| = {f_max:.3e} leaves no dt bound")
    return u


def _stops(cfg: SolverConfig) -> list:
    """The snapshot times after t = 0: every distinct snapshot time and t_end."""
    return sorted({*cfg.snapshot_times, cfg.t_end} - {0.0})


def solve(u0: RealField, cfg: SolverConfig, *, records: bool = True) -> Trajectory:
    """Integrate from the mollified initial data to t_end.

    Snapshots are recorded at t=0, at every distinct requested snapshot time
    and at t_end, which steps land on exactly.  The mollified datum and each
    step's result are put on the working grid the next step runs on, which
    follows the spectrum (see _working); a grid that never halves is the
    fixed grid.  dt is that grid's own bound (see stable_dt), cut at a stop.
    After each step that lands on a stop, or every step with records,
    _on_grid puts the working field on the datum's grid once; a snapshot is
    a field of that spectrum and those samples, with no F, F_x or w, checked
    against the floor.  With records, a StepRecord is appended for the
    initial state and after every accepted step, read off the field the next
    step takes: min_u and max_u of the samples on the datum's grid, mass and
    h12 off the spectrum, and the dissipation on the working grid, where it
    is resolved.  A caller that reads only snapshots passes records=False,
    and traj.records stays empty.  Every predictor and step result is still
    checked to be finite and above the floor on the working grid, and a
    datum whose u^2 + (Hu)^2 overflows aborts at set-up.
    Transforms: the datum's rfft and the mollified datum's ifft at set-up,
    then 4 a step at delta = 0 and 6 at delta > 0, one ifft for each change
    of grid and one irfft for each stop landed on a smaller working grid;
    records add one at set-up, one a step at delta = 0 and one irfft for
    each other step that ends on a smaller working grid; at delta > 0 each
    record's F_x is the next step's.  dynamics.weight is formed once a step
    at delta = 0 and twice at delta > 0, and, with records, once more for
    the last field.
    """
    traj = Trajectory()
    datum = _start(u0, cfg, traj)
    grid, t, steps = datum.grid, 0.0, 0
    u = _working(datum, grid.n)
    if records:  # the record of huge non-constant data overflows first and names its fields
        _append_record(traj, 0.0, 0.0, u, datum.values, cfg.delta, 0)
    _bounded(datum, cfg.delta)
    for stop in _stops(cfg):
        while t < stop:
            if steps >= cfg.max_steps:
                raise StepLimitAbort(
                    f"step limit {cfg.max_steps} reached at t={t:.6g}, step {steps} on {u.grid.n} of {grid.n} points, "
                    f"short of stop {stop:.6g}"
                )
            dt = stable_dt(u, cfg)
            if dt < np.spacing(stop):  # at this dt, stop lies over 2^52 steps from t = 0
                raise SolverAbort(
                    f"dt={dt:.3e} at t={t:.6g}, step {steps + 1} on {u.grid.n} of {grid.n} points: "
                    f"below one float step of stop {stop:.6g}"
                )
            land = t + dt >= stop
            if land:
                dt = stop - t
            u, t = _working(step(u, dt, cfg, t), grid.n), stop if land else t + dt
            steps += 1
            if records or land:  # the step that lands on stop is the last
                c, values = _on_grid(u, grid)
            if records:
                _append_record(traj, t, dt, u, values, cfg.delta, steps)
        traj.snapshots.append(_snapshot(grid, c, values, cfg, stop))
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
    u = _bounded(_start(u0, cfg, traj), cfg.delta)
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
