"""Command line front end: config parsing, experiment orchestration, CSV output.

Commands
  solve           single run + maximum-principle / energy / mass checks
  sweep-delta     regularization continuation with Cauchy-trend check
  smoothing       rough-data run + weighted-norm smoothing fit
  stability       paired perturbed runs + L-infinity growth fit
  roots-compare   root flow vs PDE in Wasserstein-1 distance
  check-operators standalone spectral operator battery

Config files are INI-style: sections of `key = value` lines with `#`
comments.  Unknown sections or keys are hard errors; the fully resolved
configuration (defaults included) is echoed to resolved.cfg in the output
directory.  All floats in emitted CSVs carry 17 significant digits so a
read-back reproduces the exact bytes.
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
        "eps0": (float, 0.1, lambda v: v > 0, "> 0"),
        "t_min": (float, 0.01, lambda v: v > 0, "> 0"),
        "slack": (float, 0.25, lambda v: v >= 0, ">= 0"),
        "num_snapshots": (int, 16, lambda v: v >= 3, ">= 3"),
    },
    "stability": {
        "gaps": (_list_of(float), (1e-3, 5e-4, 2.5e-4), lambda v: len(v) > 0 and min(v) > 0, "non-empty, > 0"),
        "g_max": (float, 20.0, lambda v: v > 0, "> 0"),
        "linearity_tol": (float, 0.2, lambda v: v > 0, "> 0"),
    },
    "roots": {
        "counts": (_list_of(int), (100, 200, 400), lambda v: len(v) > 0 and min(v) >= 2, "non-empty, >= 2"),
        "t": (float, 0.3, lambda v: 0 <= v < 1, "in [0, 1)"),
        "margin": (float, 0.5, lambda v: 0 < v < np.pi, "in (0, pi)"),
        "w1_max": (float, 0.1, lambda v: v > 0, "> 0"),
    },
}


def default_config():
    return {sec: {key: spec[1] for key, spec in keys.items()} for sec, keys in SCHEMA.items()}


def parse_config(text: str):
    """Parse and validate config text against the schema; returns the fully
    resolved section->key->value mapping with defaults filled in."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    cfg = default_config()
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser[section].items():
            _set_value(cfg, section, key, raw)
    return cfg


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
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, raw = item.split("=", 1)
        section, key = target.split(".", 1)
        _set_value(cfg, section.strip(), key.strip(), raw.strip())
    return cfg


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
    table = [list(vars(r).values()) for r in traj.records]
    atomic_write(path, _csv_text(table, "t,dt,min_u,max_u,mass,h12,dissipation"))


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
    min_drift, max_drift = diagnostics.extremum_report(traj)
    summary.check("max_principle", "min_drift", min_drift, -1e-8 * t_end, min_drift >= -1e-8 * t_end)
    summary.check("max_principle", "max_drift", max_drift, 1e-8 * t_end, max_drift <= 1e-8 * t_end)
    budget = diagnostics.energy_budget(traj, scfg.delta)
    summary.check(
        "energy", "energy_bound_ratio", budget.bound_ratio, diagnostics.ENERGY_BOUND,
        budget.within_bound,
    )
    masses = [r.mass for r in traj.records]
    drift = max(abs(m - masses[0]) for m in masses)
    tol = 1e-10 * t_end if scfg.delta == 0.0 else 10.0 * scfg.delta * t_end
    summary.check("mass", "mass_drift", drift, tol, drift <= tol)
    return summary


def cmd_sweep_delta(cfg, out):
    scfg = solver_config(cfg)
    u0 = build_initial(cfg)
    runs, dists = solver.delta_continuation(u0, cfg["sweep"]["deltas"], scfg.t_end, scfg)
    summary = Summary()
    for (d, traj) in runs:
        write_snapshot_csv(traj, os.path.join(out, f"snapshots_delta_{d:g}.csv"))
        emit_diagnostics_csv(traj, os.path.join(out, f"diagnostics_delta_{d:g}.csv"))
    for i, dist in enumerate(dists):
        summary.note(f"h12_distance_{i}", dist["h12"])
        summary.note(f"l2_distance_{i}", dist["l2"])
    finite = all(np.isfinite(d["h12"]) and np.isfinite(d["l2"]) for d in dists)
    summary.check("continuation", "distances_finite", float(finite), 1.0, finite)
    decreasing = all(b["h12"] < a["h12"] for a, b in zip(dists, dists[1:]))
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
    write_snapshot_csv(traj, os.path.join(out, "snapshots.csv"))
    emit_diagnostics_csv(traj, os.path.join(out, "diagnostics.csv"))
    report = diagnostics.smoothing_fit(traj, sm["s"], sm["eps0"], sm["t_min"])
    summary = Summary()
    summary.note("sup_weighted", report.sup_weighted)
    summary.note("sup_time", report.sup_time)
    for t, norm in report.norms:
        summary.note(f"norm_t_{t:.6g}", norm)
    bound = -(sm["s"] + sm["eps0"]) * (1.0 + sm["slack"])
    summary.check("smoothing", "loglog_slope", report.slope, bound, report.passes(sm["slack"]))
    return summary


def cmd_stability(cfg, out):
    st = cfg["stability"]
    t_end = cfg["solver"]["t_end"]
    snaps = tuple(np.linspace(0.0, t_end, 11)[1:])
    scfg = solver_config(cfg, snapshot_times=snaps)
    u0 = build_initial(cfg)
    base = solver.solve(u0, scfg)
    summary = Summary()
    growths = []
    for gap in st["gaps"]:
        pert = RealField(u0.grid, u0.values + gap * np.cos(u0.grid.points))
        if pert.min() <= 0:
            raise ConfigError(f"stability gap {gap:g} leaves the perturbed datum non-positive, min u = {pert.min():.3e}")
        traj = solver.solve(pert, scfg)
        rep = diagnostics.stability_compare(base, traj)
        growths.append(rep.growth)
        summary.note(f"growth_gap_{gap:g}", rep.growth)
        summary.check("stability", f"growth_below_bound_gap_{gap:g}", rep.growth, st["g_max"], rep.growth < st["g_max"])
    # first-order regime: the fitted growth factor should not depend on the
    # perturbation size
    if len(growths) > 1:
        spread = (max(growths) - min(growths)) / max(growths)
        summary.check("stability", "growth_linearity_spread", spread, st["linearity_tol"], spread <= st["linearity_tol"])
    return summary


def cmd_roots_compare(cfg, out):
    rt = cfg["roots"]
    cfg = {**cfg, "initial": {**cfg["initial"], "kind": "bump"}}
    ini = cfg["initial"]
    u0 = build_initial(cfg)
    # roots are seeded from the ideal bump density; the small positive floor
    # only exists to keep the PDE run away from zero
    bump0 = RealField(u0.grid, np.maximum(u0.values - ini["bump_floor"], 0.0))
    try:
        ensembles = [roots.quantile_sample_field(bump0, margin=rt["margin"], n=n) for n in rt["counts"]]
    except ValueError as exc:
        raise ConfigError(
            f"cannot sample roots from the bump (initial.bump_floor = {ini['bump_floor']:g}, "
            f"initial.bump_halfwidth = {ini['bump_halfwidth']:g}, roots.margin = {rt['margin']:g}): {exc}"
        ) from exc
    scfg = solver_config(cfg, t_end=rt["t"], pos_floor=ini["bump_floor"] / 2)
    traj = solver.solve(u0, scfg)
    u_final = traj.snapshots[-1][1]
    write_snapshot_csv(traj, os.path.join(out, "snapshots.csv"))
    summary = Summary()
    # compare on the initial support: interlacing keeps every surviving root
    # inside it, while the mass the PDE expels from the bump piles up just
    # outside the shrinking support and belongs to no surviving root
    x, dens = roots.window(u_final)
    inside = np.abs(x) <= ini["bump_halfwidth"]
    w1s = []
    for n, ens in zip(rt["counts"], ensembles):
        flowed = roots.root_flow(ens, rt["t"])
        w1 = roots.wasserstein1(flowed, x[inside], dens[inside])
        summary.note(f"w1_n_{n}", w1)
        summary.check("roots", f"w1_finite_and_small_n_{n}", w1, rt["w1_max"], np.isfinite(w1) and w1 < rt["w1_max"])
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
            with open(args.config) as f:
                text = f.read()
        cfg = parse_config(text)
        apply_overrides(cfg, args.set)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES["config"]

    os.makedirs(args.out, exist_ok=True)
    atomic_write(os.path.join(args.out, "resolved.cfg"), resolved_config_text(cfg))

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
