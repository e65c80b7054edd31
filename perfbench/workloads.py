"""The benchmark's workloads: inputs made from a seed, one round of
operations, and checks of every operation's outputs.

Each check compares with a closed form or with a property the method must
have (maximum principle, energy bound, mass conservation, exact CSV round
trip), never with a stored copy of earlier output.
"""

import contextlib
import csv
import io
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from rootflow import cli, diagnostics, roots, solver


class NonFinite(ArithmeticError):
    """An output or reference value is NaN or infinite."""


@dataclass
class Op:
    """Outcome of one operation: it failed (raised, or returned a non-finite
    value) or it produced outputs whose checks are in `checks`."""

    name: str
    failed: str = ""  # the error, when the operation failed
    checks: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _attempt(name, fn, *args):
    try:
        checks, facts = fn(*args)
    except Exception:  # counted as a failed operation; the run goes on
        return Op(name, failed=traceback.format_exc(limit=3))
    return Op(name, checks=checks, facts=facts)


def _require_finite(what, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"{what} holds a non-finite value")


# ---------------------------------------------------------------------------
# rough_pde: solve + diagnostics + CSV writes on seeded rough data

ROUGH = {
    "full": {"n": 2048, "t_end": 1.0, "snapshots": "0.25,0.5,0.75"},
    "short": {"n": 256, "t_end": 0.25, "snapshots": "0.125"},
}
ROUGH_DELTAS = (0.0, 1e-3)


@dataclass
class RoughInputs:
    cfg: dict
    initial: list  # (data seed, initial field)
    workdir: str


def setup_rough_pde(seed, size, workdir):
    p = ROUGH[size]
    text = (
        f"[grid]\nn = {p['n']}\n"
        f"[solver]\nt_end = {p['t_end']}\ncfl = 0.4\nsnapshot_times = {p['snapshots']}\n"
        "[initial]\nkind = rough\n"
    )
    cfg = cli.parse_config(text)
    data_seeds = np.random.default_rng(seed).integers(0, 2**31, size=2)
    initial = []
    for s in data_seeds:
        cli.apply_overrides(cfg, [f"solver.seed={s}"])
        initial.append((int(s), cli.build_initial(cfg)))
    return RoughInputs(cfg, initial, workdir)


ENERGY_RATIO_MAX = 10.0  # sup H^1/2 energy + cumulative dissipation, over the initial energy
RECORD_RTOL = 1e-9  # per-step records against the same quantities worked out here


def _field_quantities(values, delta):
    """(min, max, mass, H^1/2 seminorm, dissipation) of a field on the 2 pi
    circle, worked out here from its grid values with numpy alone.

    The seminorm is (2 pi sum_{k != 0} |k| |c_k|^2)^(1/2) and the dissipation
    the grid quadrature of u (Lu)^2 / (delta + u^2 + (Hu)^2), with L the
    multiplier |k| and H the multiplier -i sign(k), zero at Nyquist.
    """
    n = values.size
    c = np.fft.rfft(values)
    k = np.arange(n // 2 + 1, dtype=float)
    weight = np.full(k.size, 2.0)
    weight[0] = weight[-1] = 1.0
    h12 = np.sqrt(2.0 * np.pi * np.sum(weight * k * np.abs(c / n) ** 2))
    sign = -1j * np.sign(k)
    sign[-1] = 0.0
    hu = np.fft.irfft(sign * c, n=n)
    lu = np.fft.irfft(k * c, n=n)
    dx = 2.0 * np.pi / n
    diss = dx * np.sum(values * lu**2 / (delta + values**2 + hu**2))
    return np.array([values.min(), values.max(), dx * np.sum(values), h12, diss])


def _rough_op(inp, u0, delta, tag):
    scfg = cli.solver_config(inp.cfg, delta=delta)
    traj = solver.solve(u0, scfg)
    # columns: t, min, max, mass, H^1/2, dissipation
    rec = np.array([[r.t, r.min_u, r.max_u, r.mass, r.h12, r.dissipation] for r in traj.records])
    _require_finite("trajectory", rec, *(u.values for _, u in traj.snapshots))
    # the snapshot fields are the ground truth; the records must agree with
    # them at every snapshot time before they stand in between snapshots
    snap_t = np.array(traj.times)
    own = np.array([_field_quantities(u.values, delta) for _, u in traj.snapshots])
    at = np.abs(rec[:, :1] - snap_t).argmin(axis=0)
    records_agree = bool(
        np.all(np.abs(rec[at, 0] - snap_t) <= 1e-11)
        and np.allclose(rec[at, 1:], own, rtol=RECORD_RTOL, atol=0.0)
    )
    t_end = scfg.t_end
    min_drift = min(rec[:, 1].min(), own[:, 0].min()) - own[0, 0]
    max_drift = max(rec[:, 2].max(), own[:, 1].max()) - own[0, 1]
    mass_drift = max(np.abs(rec[:, 3] - own[0, 2]).max(), np.abs(own[:, 2] - own[0, 2]).max())
    t, energy, diss = rec[:, 0], rec[:, 4] ** 2, rec[:, 5]
    cum = np.sum(0.5 * (diss[1:] + diss[:-1]) * np.diff(t))
    energy_ratio = (energy.max() + cum) / energy[0]
    # the diagnostics layer must report the same drifts and ratio
    report = diagnostics.extremum_report(traj)
    budget = diagnostics.energy_budget(traj, delta)
    rec_drifts = (rec[:, 1].min() - rec[0, 1], rec[:, 2].max() - rec[0, 2])
    diagnostics_agree = bool(
        np.allclose(report, rec_drifts, rtol=0.0, atol=1e-14)
        and abs(budget.bound_ratio - energy_ratio) <= 1e-12 * energy_ratio
    )
    snap_path = os.path.join(inp.workdir, f"snapshots_{tag}.csv")
    cli.write_snapshot_csv(traj, snap_path)
    cli.emit_diagnostics_csv(traj, os.path.join(inp.workdir, f"diagnostics_{tag}.csv"))
    back = cli.read_snapshot_csv(snap_path)
    roundtrip = [t for t, _ in back] == traj.times and all(
        np.array_equal(a.values, b.values) for (_, a), (_, b) in zip(back, traj.snapshots)
    )
    mass_tol = 1e-10 * t_end if delta == 0.0 else 10.0 * delta * t_end
    checks = {
        "records agree with the snapshot fields": records_agree,
        "min_drift >= -1e-8 t": min_drift >= -1e-8 * t_end,
        "max_drift <= 1e-8 t": max_drift <= 1e-8 * t_end,
        f"energy ratio <= {ENERGY_RATIO_MAX:g}": energy_ratio <= ENERGY_RATIO_MAX,
        "mass drift within tolerance": mass_drift <= mass_tol,
        "diagnostics agree with the records": diagnostics_agree,
        "snapshot CSV round trip is exact": roundtrip,
    }
    return checks, {"steps": len(traj.records) - 1}


def round_rough_pde(inp):
    ops = []
    for data_seed, u0 in inp.initial:
        for delta in ROUGH_DELTAS:
            tag = f"{data_seed}_{delta:g}"
            ops.append(_attempt(f"solve seed={data_seed} delta={delta:g}", _rough_op, inp, u0, delta, tag))
    return ops


# ---------------------------------------------------------------------------
# root_flow: differentiation passes from exact Hermite and Laguerre roots

FLOW_T = 0.3
FLOW = {"full": {"hermite": 400, "laguerre": 250}, "short": {"hermite": 60, "laguerre": 40}}
ERR_OVER_GAP_MAX = 1e-8  # flowed root error against the local root gap
MEAN_DRIFT_MAX = 1e-10  # root mean drift against the initial span
W1_OVER_RADIUS_MAX = 0.02
SEMICIRCLE_POINTS = 2001


@dataclass
class FlowCase:
    name: str
    ensemble: object  # roots.RootEnsemble, or None when the input is not finite
    reference: np.ndarray  # exact roots after k passes
    k: int
    semicircle: tuple = None  # (x, density, radius) for the Hermite case


def _affine(r, scale, shift):
    return scale * np.asarray(r, dtype=float) + shift


def setup_root_flow(seed, size, workdir):
    from scipy import special

    # an affine map x -> scale x + shift commutes with differentiation, so
    # the seeded inputs keep their exact oracles
    rng = np.random.default_rng(seed)
    scale, shift = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
    cases = []
    n = FLOW[size]["hermite"]
    k = int(np.floor(FLOW_T * n))
    m = n - k
    radius = scale * np.sqrt(2.0 * m)  # H_m's roots fill this semicircle as m grows
    x = np.linspace(shift - radius, shift + radius, SEMICIRCLE_POINTS)
    dens = np.sqrt(np.maximum(radius**2 - (x - shift) ** 2, 0.0))
    cases.append(
        _flow_case(
            f"hermite n={n}",
            _affine(special.roots_hermite(n)[0], scale, shift),
            _affine(special.roots_hermite(m)[0], scale, shift),
            n,
            k,
            (x, dens, radius),
        )
    )
    # d/dx L_n^(a) = -L_{n-1}^(a+1); scipy's L_n^(0) roots hold NaN above
    # n = 300, so the size stays below that and every reference is checked
    n = FLOW[size]["laguerre"]
    k = int(np.floor(FLOW_T * n))
    cases.append(
        _flow_case(
            f"laguerre n={n}",
            _affine(special.roots_genlaguerre(n, 0.0)[0], scale, shift),
            _affine(special.roots_genlaguerre(n - k, float(k))[0], scale, shift),
            n,
            k,
        )
    )
    return cases


def _flow_case(name, start, reference, n, k, semicircle=None):
    ensemble = None
    if np.all(np.isfinite(start)):
        ensemble = roots.RootEnsemble(start, n0=n)
    return FlowCase(name, ensemble, reference, k, semicircle)


def _flow_op(case):
    if case.ensemble is None:
        raise NonFinite(f"{case.name}: the input roots are not finite")
    _require_finite(f"{case.name} reference", case.reference)
    flowed = roots.root_flow(case.ensemble, FLOW_T)
    r = flowed.roots
    _require_finite(f"{case.name} flowed roots", r)
    ref = case.reference
    if flowed.k != case.k or r.size != ref.size:
        return {"pass count is floor(t n)": False}, {}
    gaps = np.diff(ref)
    local_gap = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
    err_over_gap = float(np.max(np.abs(r - ref) / local_gap))
    start = case.ensemble.roots
    mean_drift = abs(r.mean() - start.mean()) / (start[-1] - start[0])
    checks = {
        "pass count is floor(t n)": True,
        f"error / local gap <= {ERR_OVER_GAP_MAX:g}": err_over_gap <= ERR_OVER_GAP_MAX,
        f"mean drift / span <= {MEAN_DRIFT_MAX:g}": mean_drift <= MEAN_DRIFT_MAX,
    }
    facts = {"err_over_gap": err_over_gap}
    if case.semicircle is not None:
        x, dens, radius = case.semicircle
        w1 = roots.wasserstein1(flowed, x, dens)
        _require_finite(f"{case.name} W1", w1)
        checks[f"W1 / radius <= {W1_OVER_RADIUS_MAX:g}"] = w1 <= W1_OVER_RADIUS_MAX * radius
    return checks, facts


def round_root_flow(cases):
    return [_attempt(c.name, _flow_op, c) for c in cases]


# ---------------------------------------------------------------------------
# bump_compare: `rootflow roots-compare` end to end through cli.main

BUMP = {
    "full": ["grid.n=1024", "roots.counts=100,200"],
    "short": ["grid.n=256", "roots.counts=40,80"],
}
MASS_TOL = 1e-10


def setup_bump_compare(seed, size, workdir):
    # the seed moves the bump's half-width; every width in this range keeps
    # the W1 checks well inside roots.w1_max
    halfwidth = np.random.default_rng(seed).uniform(1.45, 1.55)
    sets = [*BUMP[size], f"initial.bump_halfwidth={halfwidth!r}"]
    argv = ["roots-compare", "--out", workdir]
    for s in sets:
        argv += ["--set", s]
    return argv


def _bump_op(argv):
    out = argv[2]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code == cli.EXIT_CODES["abort"]:
        raise RuntimeError("roots-compare aborted the PDE run")
    with open(os.path.join(out, "summary.csv"), newline="") as f:
        rows = list(csv.DictReader(f))
    w1 = np.array([float(r["value"]) for r in rows if r["check"].startswith("w1_n_")])
    _require_finite("W1", w1)
    snaps = cli.read_snapshot_csv(os.path.join(out, "snapshots.csv"))
    u_first, u_last = snaps[0][1], snaps[-1][1]
    mass0 = u_first.grid.dx * np.sum(u_first.values)
    mass1 = u_last.grid.dx * np.sum(u_last.values)
    statuses = [r["status"] for r in rows if r["status"]]
    checks = {
        "exit code 0": code == 0,
        "every summary check PASS": bool(statuses) and all(s == "PASS" for s in statuses),
        f"final mass = initial mass to {MASS_TOL:g}": abs(mass1 - mass0) <= MASS_TOL,
    }
    return checks, {}


def round_bump_compare(argv):
    return [_attempt("roots-compare", _bump_op, argv)]


WORKLOADS = {
    "rough_pde": (setup_rough_pde, round_rough_pde),
    "root_flow": (setup_root_flow, round_root_flow),
    "bump_compare": (setup_bump_compare, round_bump_compare),
}
