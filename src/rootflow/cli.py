"""Command line front end: config parsing, experiment orchestration, CSV output.

Commands
  solve           single run + maximum-principle / energy / mass checks
  sweep-delta     regularization continuation with Cauchy-trend check
  smoothing       rough-data run + weighted-norm smoothing fit
  stability       paired perturbed runs + L-infinity growth fit
  roots-compare   root flow vs PDE in Wasserstein-1 distance
  check-operators standalone spectral operator battery

Config files are INI-style: sections of plain `key = value` lines, in which
`%` is text, with `#` comments.  Unknown sections (`[DEFAULT]` among them)
or keys are hard errors, and so is a setting the command replaces
(REPLACED); the fully resolved configuration (defaults included) is echoed
to resolved.cfg in the output directory.  A check's
bound is a constant below, not a setting.  All floats in emitted CSVs carry
17 significant digits so a read-back reproduces the exact bytes.
"""

import argparse
import configparser
import io
import math
import os
import sys
import tempfile

import numpy as np

from . import diagnostics, roots, solver, spectral
from .solver import SolverAbort, SolverConfig, StepLimitAbort
from .spectral import PeriodicGrid, RealField

EXIT_CODES = {
    "config": 1,
    "abort": 2,
    "operators": 3,
    "max_principle": 4,
    "energy": 5,
    "mass": 6,
    "continuation": 7,
    "smoothing": 8,
    "stability": 9,
    "roots": 10,
    "max_steps": 11,
}
SEAM_MARGIN = 0.5  # roots-compare's bump may hold no more than 1e-8 of its mass this close to +-pi

# The bounds the checks hold runs to. A bound is part of the claim its check
# makes, so none is a setting: a config cannot loosen a check until it passes.
DRIFT_RATE = 1e-8  # solve: min u may fall, and max u rise, by this times t_end
ENERGY_BOUND = 10.0  # solve: (sup_t |u|^2_{H^1/2} + cumulative dissipation) / |u0|^2_{H^1/2}
SMOOTHING_EPS0 = 0.1  # smoothing: the weight t^(s + eps0) of the parabolic bound
SMOOTHING_SLACK = 0.25  # smoothing: the log-log slope of |u|_{H^(1/2+s)} is >= -(s + eps0)(1 + slack)
STABILITY_G_MAX = 20.0  # stability: max_t |u1 - u2|_inf / |u1(0) - u2(0)|_inf is below this
STABILITY_LINEARITY_TOL = 0.2  # stability: the relative spread of the growths over the gaps
ROOTS_W1_MAX = 0.1  # roots-compare: W1 from the flowed roots to the PDE density is below this


class ConfigError(ValueError):
    pass


def _list_of(cast):
    """Parser of a comma-separated list; blank text is the empty list."""
    return lambda s: tuple(cast(tok) for tok in s.split(",")) if s.strip() else ()


def _finite(v):
    """False if v is, or is a tuple holding, a float nan or inf."""
    return all(math.isfinite(x) for x in (v if isinstance(v, tuple) else (v,)) if isinstance(x, float))


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, tuple):
        return ",".join(_fmt(x) for x in v)
    return str(v)


# section -> key -> (parser, default, constraint, constraint description)
SCHEMA = {
    "grid": {
        "n": (int, 512, lambda v: v >= 16 and v % 2 == 0, "even integer >= 16"),
    },
    "solver": {
        "delta": (float, 0.0, lambda v: v >= 0, ">= 0"),
        "t_end": (float, 1.0, lambda v: v >= 0, ">= 0"),
        "cfl": (float, 0.4, lambda v: 0 < v <= 1, "in (0, 1]"),
        "dt_max": (float, math.inf, lambda v: v > 0, "> 0"),
        "snapshot_times": (_list_of(float), (), None, ""),
        "pos_floor": (float, 1e-10, None, ""),
        "max_steps": (int, 1_000_000, lambda v: v >= 1, ">= 1"),
        "seed": (int, 0, lambda v: v >= 0, ">= 0"),
    },
    "initial": {
        "kind": (
            str,
            "cosine",
            lambda v: v in ("constant", "cosine", "rough", "bump"),
            "one of constant|cosine|rough|bump",
        ),
        "c0": (float, 1.0, lambda v: v > 0, "> 0"),
        "amplitude": (float, 0.3, lambda v: v >= 0, ">= 0"),
        "mode": (int, 1, lambda v: v >= 1, ">= 1"),
        "eta": (float, 0.01, lambda v: v > 0, "> 0"),
        "bump_halfwidth": (float, 1.5, lambda v: 0 < v < np.pi, "in (0, pi)"),
        "bump_floor": (float, 5e-3, lambda v: v > 0, "> 0"),
    },
    "sweep": {
        "deltas": (
            _list_of(float),
            (1e-2, 5e-3, 2.5e-3, 1.25e-3),
            lambda v: len(v) >= 3 and all(d > 0 for d in v) and all(b < a for a, b in zip(v, v[1:])),
            "at least 3 entries, positive and strictly decreasing",
        ),
    },
    "smoothing": {
        "s": (float, 2.0, lambda v: v > 0, "> 0"),
        "t_min": (float, 0.01, lambda v: v > 0, "> 0"),
        "num_snapshots": (int, 16, lambda v: v >= 3, ">= 3"),
    },
    "stability": {
        "gaps": (
            _list_of(float),
            (1e-3, 5e-4, 2.5e-4),
            lambda v: len(v) > 0 and min(v) > 0 and len(set(v)) == len(v),
            "non-empty, > 0 and distinct",
        ),
    },
    "roots": {
        "counts": (
            _list_of(int),
            (100, 200, 400),
            lambda v: len(v) > 0 and min(v) >= 2 and all(b > a for a, b in zip(v, v[1:])),
            "non-empty, >= 2 and strictly increasing",
        ),
        "t": (float, 0.3, lambda v: 0 <= v < 1, "in [0, 1)"),
    },
}


def default_config():
    return {sec: {key: spec[1] for key, spec in keys.items()} for sec, keys in SCHEMA.items()}


def parse_config(text: str):
    """Parse and validate config text against the schema; returns the fully
    resolved section->key->value mapping with defaults filled in."""
    cfg = default_config()
    for section, key, raw in _config_items(text):
        _set_value(cfg, section, key, raw)
    return cfg


def _config_items(text: str) -> list:
    """(section, key, raw value) of every setting config text gives."""
    # plain `key = value` only: no `%` interpolation, and no section header
    # can name the empty default section, so [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if unknown := [section for section in parser.sections() if section not in SCHEMA]:
        raise ConfigError(f"unknown config section [{unknown[0]}]")
    return [(section, key, raw) for section in parser.sections() for key, raw in parser[section].items()]


def _set_value(cfg, section, key, raw):
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown key {section}.{key}")
    parse, default, constraint, description = SCHEMA[section][key]
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
    # only a setting whose default is not finite (dt_max = inf) may be nan or inf
    if _finite(default) and not _finite(value):
        raise ConfigError(f"bad value for {section}.{key}: {raw!r} (must be finite)")
    if constraint is not None and not constraint(value):
        raise ConfigError(
            f"constraint violation for {section}.{key}: {raw!r} (must be {description})"
        )
    cfg[section][key] = value


def apply_overrides(cfg, overrides):
    for item in overrides:
        _set_value(cfg, *_override_item(item))
    return cfg


def _override_item(item: str) -> tuple:
    """(section, key, raw value) of one `section.key=value` override."""
    if "=" not in item or "." not in item.split("=", 1)[0]:
        raise ConfigError(f"override must look like section.key=value, got {item!r}")
    target, raw = item.split("=", 1)
    section, key = target.split(".", 1)
    return section.strip(), key.strip(), raw.strip()


def resolved_config_text(cfg):
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        for key in SCHEMA[section]:
            lines.append(f"{key} = {_fmt(cfg[section][key])}")
        lines.append("")
    return "\n".join(lines)


def atomic_write(path, text: str):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# file formats


def _csv_text(table, header):
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


def write_snapshot_csv(traj, path):
    """Header `# n=<n> times=<t1,...>`, then one row per grid point: x_j
    followed by one column per snapshot, all at 17 significant digits."""
    grid = traj.snapshots[0][1].grid
    table = np.column_stack([grid.points] + [u.values for _, u in traj.snapshots])
    atomic_write(path, _csv_text(table, f"# n={grid.n} times={_fmt(tuple(traj.times))}"))


def read_snapshot_csv(path):
    """Inverse of write_snapshot_csv; returns a list of (t, RealField)."""
    with open(path) as f:
        header = f.readline()
    if not header.startswith("# n="):
        raise ValueError(f"{path}: malformed snapshot header")
    try:
        n_part, times_part = header[2:].split(" times=")
        n = int(n_part[len("n=") :])
        times = [float(t) for t in times_part.split(",")]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: malformed snapshot header") from exc
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"{path}: snapshot times must be strictly increasing")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (n, 1 + len(times)):
        raise ValueError(
            f"{path}: expected {n} rows x {1 + len(times)} columns, got {data.shape}"
        )
    grid = PeriodicGrid(n)
    return [(t, RealField(grid, data[:, 1 + i])) for i, t in enumerate(times)]


def emit_diagnostics_csv(traj, path):
    # the rows become one array before the text buffer grows: left to
    # savetxt, the conversion raised rough_pde's peak RSS by about 0.4 MB
    atomic_write(path, _csv_text(np.array(traj.records), ",".join(solver.StepRecord._fields)))


class Summary:
    """Accumulates named checks; serialized as check,value,threshold,status."""

    def __init__(self):
        self.rows = []

    def check(self, category, name, value, threshold, ok):
        self.rows.append((category, name, value, threshold, bool(ok)))
        return ok

    def note(self, name, value):
        self.rows.append((None, name, value, None, None))

    def first_failure(self):
        for category, _name, _v, _t, ok in self.rows:
            if ok is False:
                return category
        return None

    def text(self):
        lines = ["check,value,threshold,status"]
        for _category, name, value, threshold, ok in self.rows:
            v = _fmt(float(value)) if value is not None else ""
            t = _fmt(float(threshold)) if threshold is not None else ""
            status = "" if ok is None else ("PASS" if ok else "FAIL")
            lines.append(f"{name},{v},{t},{status}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# initial data


def bump_profile(x, halfwidth):
    """Standard smooth bump exp(-1/(1 - (x/w)^2)) on |x| < w, zero outside."""
    out = np.zeros_like(x)
    inside = np.abs(x) < halfwidth
    z = (x[inside] / halfwidth) ** 2
    out[inside] = np.exp(-1.0 / (1.0 - z))
    return out


def build_initial(cfg):
    grid = PeriodicGrid(cfg["grid"]["n"])
    ini = cfg["initial"]
    kind = ini["kind"]
    if kind == "constant":  # a finite c0 cannot overflow
        u0 = RealField(grid, np.full(grid.n, ini["c0"]))
    elif kind == "cosine":
        with np.errstate(over="ignore"):  # the test below names data that overflowed
            values = ini["c0"] + ini["amplitude"] * np.cos(ini["mode"] * grid.points)
        if not np.isfinite(values).all():
            raise ConfigError(
                f"no finite cosine datum at initial.c0 = {ini['c0']:g}, initial.amplitude = {ini['amplitude']:g}"
            )
        u0 = RealField(grid, values)
    elif kind == "rough":
        try:
            u0 = solver.rough_initial_data(grid, ini["c0"], ini["eta"], ini["amplitude"], cfg["solver"]["seed"])
        except ValueError as exc:
            raise ConfigError(
                f"no finite rough datum at initial.eta = {ini['eta']:g}, initial.amplitude = "
                f"{ini['amplitude']:g}, initial.c0 = {ini['c0']:g}, grid.n = {grid.n}: {exc}"
            ) from exc
    elif kind == "bump":
        b = bump_profile(roots.seam_centred(grid.points), ini["bump_halfwidth"])
        b /= grid.dx * np.sum(b)  # unit mass before the floor
        u0 = RealField(grid, b + ini["bump_floor"])
    else:
        raise ConfigError(f"unknown initial kind {kind!r}")
    if u0.min() <= 0:
        raise ConfigError(f"initial data must be positive, min u0 = {u0.min():.3e}")
    return u0


def solver_config(cfg, **overrides):
    s = {**cfg["solver"], **overrides}
    del s["seed"]  # it seeds the initial data, not the solver
    try:
        return SolverConfig(**s)
    except ValueError as exc:
        raise ConfigError(f"bad solver settings: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def cmd_solve(cfg, out):
    scfg = solver_config(cfg)
    u0 = build_initial(cfg)
    traj = solver.solve(u0, scfg)
    write_snapshot_csv(traj, os.path.join(out, "snapshots.csv"))
    emit_diagnostics_csv(traj, os.path.join(out, "diagnostics.csv"))
    summary = Summary()
    t_end = max(scfg.t_end, 1e-30)
    allowed = DRIFT_RATE * t_end
    min_drift, max_drift = diagnostics.extremum_report(traj)
    summary.check("max_principle", "min_drift", min_drift, -allowed, min_drift >= -allowed)
    summary.check("max_principle", "max_drift", max_drift, allowed, max_drift <= allowed)
    ratio = diagnostics.energy_budget(traj, scfg.delta).bound_ratio
    summary.check("energy", "energy_bound_ratio", ratio, ENERGY_BOUND, ratio <= ENERGY_BOUND)
    masses = diagnostics.record_columns(traj)["mass"]
    drift = float(np.abs(masses - masses[0]).max())
    tol = 1e-10 * t_end if scfg.delta == 0.0 else 10.0 * scfg.delta * t_end
    tol = max(tol, u0.grid.n * np.spacing(abs(masses[0])))  # n summed samples round the mass by up to about n ulps
    summary.check("mass", "mass_drift", drift, tol, drift <= tol)
    return summary


def cmd_sweep_delta(cfg, out):
    members = [(d, solver_config(cfg, delta=d)) for d in cfg["sweep"]["deltas"]]  # bad settings, then a bad datum
    u0 = build_initial(cfg)
    runs = []
    for d, scfg in members:
        try:
            runs.append((d, solver.solve(u0, scfg)))
        except SolverAbort as exc:
            raise type(exc)(f"continuation member delta={d!r} failed: {exc}") from exc
    summary = Summary()
    h12s = []
    for i, ((_, ta), (db, tb)) in enumerate(zip(runs, runs[1:])):
        # both norms of one difference field per snapshot, then each one's sup over the snapshots
        dists = diagnostics.snapshot_distances(ta, tb, lambda f: (spectral.sobolev_seminorm(f, 0.5), spectral.l2_norm(f)))
        h12, l2 = map(max, zip(*dists))
        if not (np.isfinite(h12) and np.isfinite(l2)):
            raise SolverAbort(f"non-finite continuation distance at delta={db!r}")
        summary.note(f"h12_distance_{i}", h12)
        summary.note(f"l2_distance_{i}", l2)
        h12s.append(h12)
    for d, traj in runs:  # only once every member is solved and measured, so an aborted sweep writes none
        write_snapshot_csv(traj, os.path.join(out, f"snapshots_delta_{d!r}.csv"))
        emit_diagnostics_csv(traj, os.path.join(out, f"diagnostics_delta_{d!r}.csv"))
    decreasing = all(b < a for a, b in zip(h12s, h12s[1:]))
    summary.check("continuation", "h12_distances_decreasing", float(decreasing), 1.0, decreasing)
    return summary


def cmd_smoothing(cfg, out):
    sm, t_end = cfg["smoothing"], cfg["solver"]["t_end"]
    snaps = tuple(np.geomspace(sm["t_min"], t_end, sm["num_snapshots"])) if sm["t_min"] < t_end else ()
    if len(set(snaps)) < 3:
        raise ConfigError(f"smoothing.t_min = {sm['t_min']:g} leaves < 3 snapshot times up to t_end = {t_end:g}")
    n = cfg["grid"]["n"]
    # the H^(1/2+s) seminorm weighs mode k by k^(1+2s)
    if (1.0 + 2.0 * sm["s"]) * math.log(n // 2) >= math.log(sys.float_info.max):
        raise ConfigError(f"smoothing.s = {sm['s']:g} overflows the weight kmax^(1+2s) at grid.n = {n}")
    scfg = solver_config(cfg, snapshot_times=snaps)
    u0 = build_initial(cfg)
    traj = solver.solve(u0, scfg)
    try:  # the settings above leave only a seminorm of 0 to fail the fit
        report = diagnostics.smoothing_fit(traj, sm["s"], SMOOTHING_EPS0, sm["t_min"])
    except ValueError as exc:
        raise ConfigError(f"no smoothing fit at smoothing.s = {sm['s']:g}: {exc}") from exc
    write_snapshot_csv(traj, os.path.join(out, "snapshots.csv"))
    emit_diagnostics_csv(traj, os.path.join(out, "diagnostics.csv"))
    summary = Summary()
    summary.note("sup_weighted", report.sup_weighted)
    summary.note("sup_time", report.sup_time)
    for t, norm in report.norms:
        summary.note(f"norm_t_{t:.6g}", norm)
    bound = -(sm["s"] + SMOOTHING_EPS0) * (1.0 + SMOOTHING_SLACK)
    summary.check("smoothing", "loglog_slope", report.slope, bound, report.slope >= bound)
    return summary


def cmd_stability(cfg, out):
    t_end = cfg["solver"]["t_end"]
    if t_end == 0.0:  # the t = 0 snapshot alone makes every growth 1
        raise ConfigError("stability needs solver.t_end > 0: at t_end = 0 it has no growth to measure")
    snaps = tuple(np.linspace(0.0, t_end, 11)[1:])
    scfg = solver_config(cfg, snapshot_times=snaps)
    u0 = build_initial(cfg)
    base = solver.solve(u0, scfg, records=False)
    summary = Summary()
    growths = []
    for gap in cfg["stability"]["gaps"]:
        pert = RealField(u0.grid, u0.values + gap * np.cos(u0.grid.points))
        if pert.min() <= 0:
            raise ConfigError(f"stability gap {gap!r} leaves the perturbed datum non-positive, min u = {pert.min():.3e}")
        # a gap lost in the datum or in mollifying leaves no growth to measure, and none to divide by
        if np.array_equal(pert.values, u0.values):
            raise ConfigError(
                f"stability gap {gap!r} is lost in rounding: the perturbed datum equals u0 (max u0 = {u0.max():.3e})"
            )
        traj = solver.solve(pert, scfg, records=False)
        rep = diagnostics.stability_compare(base, traj)
        if rep.distances[0] == 0.0:
            raise ConfigError(
                f"stability gap {gap!r} is lost in mollifying: at solver.delta = {scfg.delta!r} "
                "the mollified perturbed datum equals the mollified u0"
            )
        growths.append(rep.growth)
        summary.note(f"growth_gap_{gap!r}", rep.growth)
        summary.check(
            "stability", f"growth_below_bound_gap_{gap!r}", rep.growth, STABILITY_G_MAX, rep.growth < STABILITY_G_MAX
        )
    # first-order regime: the fitted growth factor should not depend on the
    # perturbation size
    if len(growths) > 1:
        spread = (max(growths) - min(growths)) / max(growths)
        summary.check(
            "stability", "growth_linearity_spread", spread, STABILITY_LINEARITY_TOL, spread <= STABILITY_LINEARITY_TOL
        )
    return summary


def cmd_roots_compare(cfg, out):
    rt = cfg["roots"]
    cfg = {**cfg, "initial": {**cfg["initial"], "kind": "bump"}}
    ini = cfg["initial"]
    u0 = build_initial(cfg)
    # one table serves the sampling, the seam rule and the comparison: the
    # seam-centred grid points of the initial support, where interlacing
    # keeps every surviving root; roots are seeded from the bump without the
    # floor, which only keeps the PDE run away from zero
    x, values = roots.window(u0)
    inside = np.abs(x) <= ini["bump_halfwidth"]
    x, bump = x[inside], np.maximum(values[inside] - ini["bump_floor"], 0.0)
    if x.size < 2:
        raise ConfigError(
            f"initial.bump_halfwidth = {ini['bump_halfwidth']:g} holds {x.size} grid point(s) at grid.n = "
            f"{u0.grid.n}, too few to compare densities on"
        )
    seam_mass = np.sum(bump[np.abs(x) > np.pi - SEAM_MARGIN])
    if seam_mass > 1e-8 * np.sum(bump):
        raise ConfigError(
            f"initial.bump_halfwidth = {ini['bump_halfwidth']:g} puts {seam_mass / np.sum(bump):.3e} of the "
            f"bump's mass within {SEAM_MARGIN:g} of the periodic seam"
        )
    try:
        ensembles = [roots.quantile_sample(x, bump, n) for n in rt["counts"]]
    except ValueError as exc:
        raise ConfigError(
            f"cannot sample roots from the bump (initial.bump_floor = {ini['bump_floor']:g}, "
            f"initial.bump_halfwidth = {ini['bump_halfwidth']:g}): {exc}"
        ) from exc
    scfg = solver_config(cfg, t_end=rt["t"], pos_floor=ini["bump_floor"] / 2)
    # delta = 0 has an exact solution by characteristics; viscosity breaks it
    if scfg.delta == 0.0:
        traj = solver.characteristic_snapshots(u0, scfg)
    else:
        traj = solver.solve(u0, scfg, records=False)
    u_final = traj.snapshots[-1][1]
    write_snapshot_csv(traj, os.path.join(out, "snapshots.csv"))
    summary = Summary()
    # the mass the PDE expels from the bump piles up just outside the
    # shrinking support and belongs to no surviving root
    dens = roots.window(u_final)[1][inside]
    w1s = []
    for n, ens in zip(rt["counts"], ensembles):
        flowed = roots.root_flow(ens, rt["t"])
        w1 = roots.wasserstein1(flowed, x, dens)
        summary.note(f"w1_n_{n}", w1)
        summary.check("roots", f"w1_finite_and_small_n_{n}", w1, ROOTS_W1_MAX, np.isfinite(w1) and w1 < ROOTS_W1_MAX)
        w1s.append(w1)
    ok_order = not any(b > a + 1e-12 for a, b in zip(w1s, w1s[1:]))
    summary.check("roots", "w1_nonincreasing_in_n", float(ok_order), 1.0, ok_order)
    return summary


def operator_battery(n=256, seed=0):
    """Closed-form checks of the Fourier-multiplier operators; returns a list
    of (name, max_error, tolerance) triples."""
    grid = PeriodicGrid(n)
    x = grid.points
    rng = np.random.default_rng(seed)

    def band_limited():
        c = np.zeros(n // 2 + 1, dtype=complex)
        kb = n // 8
        c[1 : kb + 1] = rng.normal(size=kb) + 1j * rng.normal(size=kb)
        return RealField(grid, np.fft.irfft(c, n=n))

    checks = []
    f = RealField(grid, np.cos(x))
    checks.append(("hilbert_cos", np.abs(spectral.hilbert(f).values - np.sin(x)).max(), 1e-12))
    f3 = RealField(grid, np.sin(3 * x))
    checks.append(("hilbert_sin3", np.abs(spectral.hilbert(f3).values + np.cos(3 * x)).max(), 1e-12))
    checks.append(("lam_cos", np.abs(spectral.frac_laplacian(f).values - np.cos(x)).max(), 1e-12))
    checks.append(("dx_sin", np.abs(spectral.derivative(RealField(grid, np.sin(x))).values - np.cos(x)).max(), 1e-12))
    heat = spectral.heat_propagate(f, 0.5)
    checks.append(("heat_cos", np.abs(heat.values - np.exp(-0.5) * np.cos(x)).max(), 1e-12))
    err = 0.0
    for _ in range(100):
        g = band_limited()
        a = spectral.frac_laplacian(g).values
        b = spectral.derivative(spectral.hilbert(g)).values
        scale = max(1.0, np.abs(a).max())
        err = max(err, np.abs(a - b).max() / scale)
    checks.append(("lam_equals_dx_hilbert", err, 1e-12))
    g = band_limited()
    hh = spectral.hilbert(spectral.hilbert(g)).values
    checks.append(("hilbert_squared", np.abs(hh + (g.values - g.mean())).max(), 1e-12))
    kernel = spectral.frac_laplacian_kernel(g, 4 * n).values
    mult = spectral.frac_laplacian(g).values
    checks.append(("kernel_vs_multiplier", np.abs(kernel - mult).max() / max(1.0, np.abs(mult).max()), 1e-4))
    return checks


def cmd_check_operators(cfg, out):
    summary = Summary()
    for name, err, tol in operator_battery(n=cfg["grid"]["n"], seed=cfg["solver"]["seed"]):
        summary.check("operators", name, err, tol, err <= tol)
    return summary


# the settings a command replaces with its own value, and by what: given by
# --set or --config, they would do nothing but show in resolved.cfg
REPLACED = {
    "sweep-delta": {"solver.delta": "each sweep.deltas entry"},
    "smoothing": {"solver.snapshot_times": "smoothing.num_snapshots times from smoothing.t_min to solver.t_end"},
    "stability": {"solver.snapshot_times": "10 even steps to solver.t_end"},
    "roots-compare": {
        "initial.kind": "bump",
        "solver.t_end": "roots.t",
        "solver.pos_floor": "initial.bump_floor / 2",
    },
}

COMMANDS = {
    "solve": cmd_solve,
    "sweep-delta": cmd_sweep_delta,
    "smoothing": cmd_smoothing,
    "stability": cmd_stability,
    "roots-compare": cmd_roots_compare,
    "check-operators": cmd_check_operators,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rootflow", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to an INI-style config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        text = ""
        if args.config:
            with open(args.config, encoding="utf-8") as f:
                text = f.read()
        cfg = default_config()
        for section, key, raw in [*_config_items(text), *map(_override_item, args.set)]:
            _set_value(cfg, section, key, raw)
            if by := REPLACED.get(args.command, {}).get(f"{section}.{key}"):
                raise ConfigError(f"{args.command} replaces {section}.{key} by {by}, so it may not be given")
        os.makedirs(args.out, exist_ok=True)  # an --out that cannot be a directory raises OSError
        atomic_write(os.path.join(args.out, "resolved.cfg"), resolved_config_text(cfg))
    except (ValueError, OSError) as exc:  # also a config file that is not UTF-8, or a path with a null byte
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]

    try:
        summary = COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]
    except SolverAbort as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_CODES["max_steps" if isinstance(exc, StepLimitAbort) else "abort"]
    atomic_write(os.path.join(args.out, "summary.csv"), summary.text())
    for _category, name, value, threshold, ok in summary.rows:
        if ok is not None:
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name} value={value:.6g} threshold={threshold:.6g}")
    failed = summary.first_failure()
    return 0 if failed is None else EXIT_CODES[failed]


if __name__ == "__main__":
    sys.exit(main())
