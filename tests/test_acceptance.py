"""Acceptance gate: fifteen numbered criteria, each emitting one PASS/FAIL line.

The lines are written to the unbuffered real stdout so they survive pytest's
capture and appear verbatim in a tee'd log.  Every criterion is asserted at
its stated tolerance; see the README for the one criterion whose sup-location
clause is expected to fail for spectrum-law initial data.
"""

import csv
import sys

import numpy as np
import pytest

from rootflow import cli, diagnostics, dynamics, roots, solver, spectral
from rootflow.roots import RootEnsemble
from rootflow.solver import SolverConfig
from rootflow.spectral import PeriodicGrid, RealField

from conftest import band_limited_field, smooth_positive_field

ROUGH_N = 512
ROUGH_SEEDS = range(20)
ROUGH_DELTAS = (1e-3, 0.0)
T_END = 1.0


_capman = None


@pytest.fixture(autouse=True)
def _live_output(request):
    # pytest captures at the fd level, so the per-criterion lines are
    # emitted with capture suspended to reach a tee'd log verbatim
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] C{num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    if _capman is not None:
        with _capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    return ok


@pytest.fixture(scope="module")
def rough_ensemble():
    """20 seeded rough data, both regularizations, per-step scalar records."""
    runs = {}
    grid = PeriodicGrid(ROUGH_N)
    for seed in ROUGH_SEEDS:
        u0 = solver.rough_initial_data(grid, c0=1.0, eta=0.01, seed=seed)
        for delta in ROUGH_DELTAS:
            cfg = SolverConfig(delta=delta, t_end=T_END, cfl=0.4)
            runs[(delta, seed)] = solver.solve(u0, cfg)
    return runs


def test_c01_operator_exactness():
    failures = []
    worst = 0.0
    for name, err, tol in cli.operator_battery(n=256, seed=0):
        if tol > 1e-12:
            continue  # the kernel check belongs to criterion 2
        worst = max(worst, err)
        if err > 1e-12:
            failures.append(name)
    ok = not failures
    assert report(1, "operator_exactness", ok, f"max_err={worst:.2e}")


def test_c02_kernel_vs_multiplier():
    grid = PeriodicGrid(256)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        f = band_limited_field(grid, rng)
        kern = spectral.frac_laplacian_kernel(f, 4 * grid.n).values
        mult = spectral.frac_laplacian(f).values
        worst = max(worst, np.abs(kern - mult).max() / max(1.0, np.abs(mult).max()))
    assert report(2, "kernel_vs_multiplier", worst < 1e-4, f"max_rel_err={worst:.2e}")


def test_c03_form_equivalence():
    # the two forms agree only up to the spectral tail of arctan(Hu/u),
    # so the fields are analytic and the grid generous
    grid = PeriodicGrid(512)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        u = smooth_positive_field(grid, rng, floor=0.5)
        assert u.min() >= 0.5 - 1e-12
        a = spectral.from_spectrum(grid, dynamics.tendency_flux(u)).values
        uv = u.values
        hu = spectral.hilbert(u).values
        lu = spectral.frac_laplacian(u).values
        ux = spectral.derivative(u).values
        b = -(uv * lu - hu * ux) / (np.pi * (uv**2 + hu**2))
        worst = max(worst, np.abs(a - b).max())
    assert report(3, "form_equivalence", worst < 1e-10, f"max_err={worst:.2e}")


def test_c04_steady_state():
    grid = PeriodicGrid(128)
    worst = 0.0
    for delta in (0.0, 1e-2):
        cfg = SolverConfig(delta=delta)
        u = RealField(grid, np.full(grid.n, 1.3))
        dt = solver.stable_dt(u, cfg, u.grid)
        for _ in range(1000):
            u = solver.step(u, dt, cfg)
        worst = max(worst, np.abs(u.values - 1.3).max())
    assert report(4, "steady_state_1000_steps", worst < 1e-12, f"max_drift={worst:.2e}")


def test_c05_linearized_decay():
    # around u = 1 the mode-1 perturbation obeys w_t = -(1/pi) L w, so its
    # amplitude at t=1 is eps * exp(-1/pi)
    grid = PeriodicGrid(256)
    eps = 1e-4
    u0 = RealField(grid, 1.0 + eps * np.cos(grid.points))
    traj = solver.solve(u0, SolverConfig(delta=0.0, t_end=1.0, cfl=0.4))
    c = np.fft.rfft(traj.snapshots[-1][1].values) / grid.n
    amp = 2.0 * abs(c[1])
    expect = eps * np.exp(-1.0 / np.pi)
    rel = abs(amp - expect) / expect
    assert report(5, "linearized_decay_rate", rel < 0.01, f"rel_err={rel:.2e}")


def test_c06_maximum_principle(rough_ensemble):
    worst_min, worst_max = 0.0, 0.0
    for traj in rough_ensemble.values():
        min_drift, max_drift = diagnostics.extremum_report(traj)
        worst_min = min(worst_min, min_drift)
        worst_max = max(worst_max, max_drift)
    ok = worst_min >= -1e-8 and worst_max <= 1e-8
    assert report(
        6, "maximum_principle", ok,
        f"min_drift={worst_min:.2e} max_drift={worst_max:.2e}",
    )


def test_c07_energy_inequality(rough_ensemble):
    worst = 0.0
    for (delta, _seed), traj in rough_ensemble.items():
        b = diagnostics.energy_budget(traj, delta)
        worst = max(worst, b.bound_ratio)
    assert report(7, "energy_inequality", worst <= 10.0, f"max_ratio={worst:.3f}")


def test_c08_mass_drift(rough_ensemble):
    worst = {0.0: 0.0, 1e-3: 0.0}
    for (delta, _seed), traj in rough_ensemble.items():
        masses = [r.mass for r in traj.records]
        worst[delta] = max(worst[delta], max(abs(m - masses[0]) for m in masses))
    ok = worst[0.0] <= 1e-10 * T_END and worst[1e-3] <= 10.0 * 1e-3 * T_END
    assert report(
        8, "mass_conservation", ok,
        f"drift_delta0={worst[0.0]:.2e} drift_delta1e-3={worst[1e-3]:.2e}",
    )


def test_c09_temporal_order():
    grid = PeriodicGrid(128)
    u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))

    def final(dt):
        cfg = SolverConfig(delta=1e-2, t_end=0.25, cfl=1.0, dt_max=dt)
        return solver.solve(u0, cfg).snapshots[-1][1].values

    u1, u2, u4 = final(2e-3), final(1e-3), final(5e-4)
    order = np.log2(np.abs(u1 - u2).max() / np.abs(u2 - u4).max())
    assert report(9, "temporal_order_richardson", order >= 1.9, f"order={order:.3f}")


def test_c10_delta_continuation(tmp_path):
    # smooth datum: for spectrum-law rough data the t=0 snapshot distance
    # is dominated by the mollifier gap, which decays only like delta^eta;
    # the sweep is the default one, deltas 1e-2, 5e-3, 2.5e-3 and 1.25e-3
    rc = cli.main([
        "sweep-delta", "--out", str(tmp_path),
        "--set", "grid.n=256",
        "--set", "solver.snapshot_times=0.25,0.5,0.75",
    ])
    with open(tmp_path / "summary.csv", newline="") as f:
        rows = {row["check"]: float(row["value"]) for row in csv.DictReader(f)}
    h12 = [rows[f"h12_distance_{i}"] for i in range(3)]
    ok = rc == 0 and all(np.isfinite(h12)) and all(b < a for a, b in zip(h12, h12[1:]))
    assert report(
        10, "delta_continuation_cauchy", ok,
        "h12_dists=" + ",".join(f"{d:.2e}" for d in h12),
    )


def test_c11_parabolic_smoothing():
    grid = PeriodicGrid(ROUGH_N)
    u0 = solver.rough_initial_data(grid, c0=1.0, eta=0.01, seed=0)
    snaps = tuple(np.exp(np.linspace(np.log(0.01), 0.0, 16)))
    ok = True
    details = []
    for delta in ROUGH_DELTAS:
        cfg = SolverConfig(delta=delta, t_end=1.0, cfl=0.4, snapshot_times=snaps)
        traj = solver.solve(u0, cfg)
        rep = diagnostics.smoothing_fit(traj, s=2.0, eps0=0.1, t_min=0.01)
        sup_at_earliest = abs(rep.sup_time - snaps[0]) < 1e-12
        slope_ok = rep.slope >= -2.6
        ok = ok and sup_at_earliest and slope_ok
        details.append(
            f"delta={delta:g}: sup_t={rep.sup_time:.3g} slope={rep.slope:.3f}"
        )
    assert report(11, "parabolic_smoothing", ok, "; ".join(details))


def test_c12_linf_stability():
    grid = PeriodicGrid(256)
    u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))
    snaps = tuple(np.linspace(0.1, 1.0, 10))
    cfg = SolverConfig(delta=0.0, t_end=1.0, cfl=0.4, snapshot_times=snaps)
    base = solver.solve(u0, cfg)
    growths = []
    for gap in (1e-3, 5e-4, 2.5e-4):
        pert = RealField(grid, u0.values + gap * np.cos(grid.points))
        rep = diagnostics.stability_compare(base, solver.solve(pert, cfg))
        growths.append(rep.growth)
    bounded = all(g < 20.0 for g in growths)
    spread = (max(growths) - min(growths)) / max(growths)
    ok = bounded and spread <= 0.2
    assert report(
        12, "linf_stability", ok,
        "G=" + ",".join(f"{g:.3f}" for g in growths) + f" spread={spread:.3f}",
    )


def test_c13_root_closed_forms():
    e = RootEnsemble(np.array([-1.0, 0.0, 1.0]), n0=3)
    out = roots.derivative_roots(e)
    err = np.abs(out.roots - np.array([-1.0, 1.0]) / np.sqrt(3.0)).max()
    interlaced = True
    rng = np.random.default_rng(2)
    for _ in range(100):
        size = int(rng.integers(3, 30))
        r = np.sort(rng.uniform(-3.0, 3.0, size=size))
        r = r[np.concatenate([[True], np.diff(r) > 1e-9])]
        if r.size < 3:
            continue
        d = roots.derivative_roots(RootEnsemble(r, n0=r.size))
        interlaced &= bool(np.all(d.roots > r[:-1]) and np.all(d.roots < r[1:]))
    ok = err < 1e-10 and interlaced
    assert report(
        13, "root_closed_forms", ok,
        f"cubic_err={err:.2e} interlacing={'ok' if interlaced else 'violated'}",
    )


def test_c14_root_flow_vs_pde(tmp_path):
    cfg = cli.parse_config("[initial]\nkind = bump\n[grid]\nn = 512\n")
    summary = cli.cmd_roots_compare(cfg, str(tmp_path))
    w1 = {
        name: value
        for _cat, name, value, _thr, _ok in summary.rows
        if name.startswith("w1_n_")
    }
    vals = [w1[f"w1_n_{n}"] for n in (100, 200, 400)]
    small = all(np.isfinite(v) and v < 0.1 for v in vals)
    mono = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = small and mono
    assert report(
        14, "root_flow_vs_pde_w1", ok,
        "w1=" + ",".join(f"{v:.4f}" for v in vals),
    )


def test_c15_reproducibility(tmp_path):
    args = [
        "solve",
        "--set", "grid.n=256",
        "--set", "solver.t_end=0.5",
        "--set", "initial.kind=rough",
        "--set", "solver.seed=3",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli.main(args + ["--out", str(out_a)])
    rc_b = cli.main(args + ["--out", str(out_b)])
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("snapshots.csv", "diagnostics.csv", "summary.csv")
    )
    ok = rc_a == 0 and rc_b == 0 and identical
    assert report(
        15, "reproducibility", ok,
        f"exit_codes={rc_a},{rc_b} byte_identical={identical}",
    )
