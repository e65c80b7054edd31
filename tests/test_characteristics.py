"""The exact delta = 0 solution by complex characteristics: an oracle for the
Heun solver, and the reference `roots-compare` reads."""

import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootflow import cli, roots, solver
from rootflow.solver import SolverAbort, SolverConfig
from rootflow.spectral import PeriodicGrid, RealField

from conftest import assert_ends_cleanly, run_cli


def taylor_coefficients(u):
    """a_k of F0(z) = sum a_k z^k, the extension of u + iHu into the disc,
    from the samples with numpy alone: c_0, 2 c_k for 0 < k < n/2, and the
    real parts at k = 0 and n/2."""
    a = np.fft.rfft(u.values) / u.grid.n
    a[1:-1] *= 2.0
    a[0], a[-1] = a[0].real, a[-1].real
    return a


def bump_case(n, *sets):
    cfg = cli.parse_config("")
    cli.apply_overrides(cfg, [f"grid.n={n}", "initial.kind=bump", *sets])
    return cfg, cli.build_initial(cfg)


def rough(n, seed):
    return solver.rough_initial_data(PeriodicGrid(n), c0=1.0, eta=0.01, seed=seed)


def cosine(n):
    grid = PeriodicGrid(n)
    return RealField(grid, 1.0 + 0.9 * np.cos(grid.points))


@pytest.mark.parametrize(
    "u0, times, alias",
    [
        pytest.param(cosine(64), (0.5, 3.0), 1e-8, id="cosine-n64"),
        pytest.param(rough(512, 0), (0.05, 1.0), 1e-8, id="rough-n512"),
        pytest.param(bump_case(512)[1], (0.1, 0.3), 2e-8, id="bump-n512"),
    ],
)
def test_map_residual(u0, times, alias):
    # every foot solves z0 exp(t / (pi F0(z0))) = e^(ix) inside the disc, with
    # F0 summed here by numpy's own Horner, and the snapshot is Re F0(z0)
    # up to one constant: the grid mean of the samples aliases away from the
    # conserved F0(0) (3.4e-9, 2.0e-9 and 9.5e-9 here), and is reset to it
    a = taylor_coefficients(u0)
    x = u0.grid.points
    w = np.exp(1j * x)
    polyval = np.polynomial.polynomial.polyval
    feet = solver.characteristic_feet(solver._taylor_blocks(a), x, times, polyval(w, a))
    traj = solver.characteristic_snapshots(u0, SolverConfig(t_end=times[-1], snapshot_times=times))
    for t, z0, (ts, u) in zip(times, feet, traj.snapshots[1:]):
        f0 = polyval(z0, a)
        assert np.abs(z0 * np.exp(t / (np.pi * f0)) - w).max() <= 1e-13
        assert np.abs(z0).max() < 1.0
        shift = u.values - f0.real
        assert ts == t
        assert np.ptp(shift) <= 1e-13 * np.abs(u.values).max()
        assert abs(shift.mean()) <= alias
        assert abs(u.values.mean() - a[0].real) <= 1e-15 * a[0].real


def test_heun_converges_to_map():
    # 1 + 0.9 cos x to t = 3: Heun's error against the exact solution falls
    # at second order from cfl 0.4 to cfl 0.1
    u0 = cosine(64)
    exact = solver.characteristic_snapshots(u0, SolverConfig(t_end=3.0)).snapshots[-1][1].values
    errors = [
        np.abs(solver.solve(u0, SolverConfig(t_end=3.0, cfl=cfl), records=False).snapshots[-1][1].values - exact).max()
        for cfl in (0.4, 0.1)
    ]
    assert errors[0] <= 1e-5 and errors[1] <= 1e-6
    assert math.log(errors[0] / errors[1], 4.0) >= 1.9


@pytest.mark.parametrize(
    "cfl, t_end, bounds",
    [pytest.param(0.4, 1.0, (1.6e-4, 6.5e-7), id="cfl0.4"), pytest.param(0.1, 0.05, (1.0e-4,), id="cfl0.1")],
)
def test_heun_near_map_on_rough_data(monkeypatch, cfl, t_end, bounds):
    # rough seed 0 on a fixed grid of 512 points, max |Heun - map| at
    # t = 0.05 and t = 1, each bound within 10% of its measured value
    # (1.514e-4 and 6.19e-7 at cfl 0.4, 9.315e-5 at cfl 0.1): a 4x smaller
    # step takes off only 38% of the t = 0.05 gap, the rest of which is the
    # semi-discretization's
    monkeypatch.setattr(solver, "GRID_MIN", 512)
    u0 = rough(512, 0)
    cfg = SolverConfig(t_end=t_end, snapshot_times=(0.05,), cfl=cfl)
    exact = solver.characteristic_snapshots(u0, cfg).snapshots[1:]
    heun = solver.solve(u0, cfg, records=False).snapshots[1:]
    for (_, a), (_, b), bound in zip(exact, heun, bounds, strict=True):
        assert np.abs(a.values - b.values).max() <= bound


@pytest.mark.parametrize("n", [512, 2048])
def test_heun_error_flat_in_n(n):
    # rough seed 0 at t = 1 on a working grid that follows the spectrum, whose
    # dt bound is its own: max |Heun - map| is 7.56e-7 at n = 512 and 5.28e-7
    # at n = 2048 (cfl 0.4), one bound 10% above the larger holds both, and
    # it falls at second order in cfl (1.98 and 1.98 to cfl 0.2)
    u0 = rough(n, 0)
    exact = solver.characteristic_snapshots(u0, SolverConfig(t_end=1.0)).snapshots[-1][1].values
    errors = [
        np.abs(solver.solve(u0, SolverConfig(t_end=1.0, cfl=cfl), records=False).snapshots[-1][1].values - exact).max()
        for cfl in (0.4, 0.2)
    ]
    assert errors[0] <= 8.3e-7
    assert math.log2(errors[0] / errors[1]) >= 1.9


@pytest.mark.parametrize("seed", range(4))
def test_map_extrema_and_mass(seed):
    # C06 and C08 at their tolerances, on the exact solution of rough data
    t_end = 1.0
    traj = solver.characteristic_snapshots(rough(512, seed), SolverConfig(t_end=t_end, snapshot_times=(0.25, 0.5)))
    fields = [u for _, u in traj.snapshots]
    assert min(u.min() for u in fields) - fields[0].min() >= -1e-8 * t_end
    assert max(u.max() for u in fields) - fields[0].max() <= 1e-8 * t_end
    masses = [u.grid.dx * np.sum(u.values) for u in fields]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-10 * t_end


def test_map_matches_heun_at_c14_config():
    # C14's bump (n = 512, t = 0.3): Heun is within its own error of the
    # map, and the two densities on the initial support are within 1e-6 in
    # W1, which by the triangle inequality bounds how far any root count's
    # W1 moves between them
    cfg, u0 = bump_case(512)
    scfg = cli.solver_config(cfg, t_end=cfg["roots"]["t"], pos_floor=cfg["initial"]["bump_floor"] / 2)
    exact = solver.characteristic_snapshots(u0, scfg).snapshots[-1][1]
    heun = solver.solve(u0, scfg, records=False).snapshots[-1][1]
    assert np.abs(exact.values - heun.values).max() <= 1e-4
    x, d_exact = roots.window(exact)
    _, d_heun = roots.window(heun)
    inside = np.abs(x) <= cfg["initial"]["bump_halfwidth"]
    gap = np.abs(roots._cdf(x[inside], d_exact[inside]) - roots._cdf(x[inside], d_heun[inside]))
    # both CDFs are linear between nodes, so the trapezoid rule bounds the integral of the gap
    assert np.sum(0.5 * (gap[1:] + gap[:-1]) * np.diff(x[inside])) <= 1e-6


@pytest.mark.parametrize(
    "t_end, snapshot_times",
    [(0.0, ()), (0.0, (0.0,)), (0.2, (0.0, 0.1, 0.1)), (0.2, (1e-300,))],
    ids=["t0", "t0-snapshot0", "repeats", "tiny-first"],
)
def test_snapshot_list_matches_solve(t_end, snapshot_times):
    # roots.t = 0, repeated snapshot times and a first one next to 0 give
    # solve's snapshot list, with the same t = 0 field
    _, u0 = bump_case(64)
    cfg = SolverConfig(t_end=t_end, snapshot_times=snapshot_times, pos_floor=2.5e-3)
    mapped, stepped = solver.characteristic_snapshots(u0, cfg), solver.solve(u0, cfg, records=False)
    assert mapped.times == stepped.times
    assert np.array_equal(mapped.snapshots[0][1].values, stepped.snapshots[0][1].values)
    assert mapped.records == []


def test_rejects_viscosity():
    with pytest.raises(ValueError, match="delta = 0 only"):
        solver.characteristic_snapshots(cosine(64), SolverConfig(delta=1e-3, t_end=0.1))


def test_lost_foot_aborts():
    # at n = 64 the bump over a 1e-4 floor interpolates below zero, so feet
    # near its edge leave the disc: the abort names the target and t
    _, u0 = bump_case(64, "initial.bump_floor=1e-4")
    with pytest.raises(SolverAbort, match=r"characteristic foot of x=\S+ lost at t=\S+, short of stop 0\.95: "):
        solver.characteristic_snapshots(u0, SolverConfig(t_end=0.95, pos_floor=5e-5))


LOST = r"characteristic foot of x=\S+ lost at t=\S+, short of stop "


@pytest.mark.parametrize(
    "n, floor, t_end, evals, message",
    [
        # the first target has finished no step when two evaluations run out
        pytest.param(
            256, 5e-3, 0.3, 2,
            r"characteristic foot of x=0 lost at t=0, short of stop 0\.3: it spent 2 evaluations of F0",
            id="no-step",
        ),
        # steps of the target lost here failed, but its last finished step converged
        pytest.param(256, 5e-3, 0.3, 20, LOST + r"0\.3: it spent 20 evaluations of F0", id="converged"),
        pytest.param(
            64, 1e-4, 0.95, 8,
            LOST + r"0\.95: it spent 8 evaluations of F0, and its last step failed as a Newton step did not shrink",
            id="failed",
        ),
    ],
)
def test_evaluation_budget_abort_names_only_a_failed_step(monkeypatch, n, floor, t_end, evals, message):
    _, u0 = bump_case(n, f"initial.bump_floor={floor}")
    monkeypatch.setattr(solver, "MAP_MAX_EVALS", evals)
    with pytest.raises(SolverAbort) as exc:
        solver.characteristic_snapshots(u0, SolverConfig(t_end=t_end, pos_floor=floor / 2))
    assert re.fullmatch(message, str(exc.value))


def snapshot_mass_drift(out):
    masses = [u.grid.dx * np.sum(u.values) for _, u in cli.read_snapshot_csv(os.path.join(out, "snapshots.csv"))]
    return max(abs(m - masses[0]) for m in masses) / masses[0]


def test_floor_1e4_at_n1024(tmp_path):
    # the stiffest bump the benchmark's grid meets: exit 0, every check PASS,
    # and the snapshot CSV keeps the grid mass to 1e-12 relative
    rc, err = run_cli(
        "roots-compare", "--out", str(tmp_path), "--set", "grid.n=1024", "--set", "initial.bump_floor=1e-4",
        "--set", "roots.counts=20,40",
    )
    assert rc == 0, err
    assert "FAIL" not in (tmp_path / "summary.csv").read_text()
    assert snapshot_mass_drift(str(tmp_path)) <= 1e-12


@given(
    n=st.sampled_from([16, 32, 64]),
    halfwidth=st.floats(0.05, 3.1),
    floor=st.floats(1e-4, 0.05),
    t=st.floats(0.0, 0.95),
    snapshots=st.lists(st.floats(0.0, 1.0), max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_roots_compare_ends_cleanly(n, halfwidth, floor, t, snapshots):
    # every input passes or exits with a documented code, with no traceback,
    # and whatever is written is finite; the mass of a written snapshot CSV
    # is exact
    sets = [
        f"grid.n={n}", f"initial.bump_halfwidth={halfwidth!r}", f"initial.bump_floor={floor!r}",
        f"roots.t={t!r}", f"solver.snapshot_times={','.join(repr(s) for s in sorted(snapshots))}",
        "roots.counts=8,16",
    ]
    with tempfile.TemporaryDirectory() as out:
        rc, err = run_cli("roots-compare", "--out", out, *(a for s in sets for a in ("--set", s)))
        assert_ends_cleanly(rc, err, out)
        if os.path.exists(os.path.join(out, "snapshots.csv")):
            assert snapshot_mass_drift(out) <= 1e-12
