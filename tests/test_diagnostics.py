import numpy as np
import pytest

from rootflow import diagnostics, solver, spectral
from rootflow.solver import SolverConfig
from rootflow.spectral import PeriodicGrid, RealField

from conftest import positive_band_limited_field


@pytest.fixture(scope="module")
def cosine_run():
    grid = PeriodicGrid(128)
    u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))
    cfg = SolverConfig(t_end=0.5, cfl=0.4, snapshot_times=(0.1, 0.2, 0.3, 0.4))
    return u0, solver.solve(u0, cfg)


class TestScalars:
    def test_mass_constant(self):
        grid = PeriodicGrid(64)
        u = RealField(grid, np.full(grid.n, 1.5))
        assert diagnostics.mass(u) == pytest.approx(3.0 * np.pi, rel=1e-13)

    def test_mass_ignores_oscillation(self):
        grid = PeriodicGrid(64)
        u = RealField(grid, 2.0 + np.cos(grid.points))
        assert diagnostics.mass(u) == pytest.approx(4.0 * np.pi, rel=1e-13)

    def test_dissipation_nonnegative(self, rng):
        grid = PeriodicGrid(128)
        for _ in range(10):
            u = positive_band_limited_field(grid, rng)
            assert diagnostics.dissipation(u, 0.0) >= 0.0
            assert diagnostics.dissipation(u, 1e-2) >= 0.0

    def test_dissipation_constant_is_zero(self):
        grid = PeriodicGrid(64)
        u = RealField(grid, np.full(grid.n, 1.0))
        assert diagnostics.dissipation(u, 0.0) < 1e-20

    def test_dissipation_linearized_value(self):
        # u = c + eps cos x: Lu = eps cos x, denominator -> c^2, so the
        # integral tends to eps^2 pi / c
        grid = PeriodicGrid(256)
        c, eps = 2.0, 1e-5
        u = RealField(grid, c + eps * np.cos(grid.points))
        val = diagnostics.dissipation(u, 0.0)
        assert val == pytest.approx(eps**2 * np.pi / c, rel=1e-4)


class TestEnergyBudget:
    @pytest.mark.parametrize(
        "reader",
        [
            pytest.param(lambda traj: diagnostics.energy_budget(traj, 0.0), id="energy_budget"),
            pytest.param(diagnostics.extremum_report, id="extremum_report"),
        ],
    )
    def test_requires_records(self, reader):
        grid = PeriodicGrid(64)
        u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))
        unrecorded = solver.solve(u0, SolverConfig(t_end=0.05), records=False)
        for traj in (solver.Trajectory(), unrecorded):
            with pytest.raises(ValueError, match="trajectory has no scalar records"):
                reader(traj)

    def test_budget_on_run(self, cosine_run):
        _, traj = cosine_run
        b = diagnostics.energy_budget(traj, 0.0)
        assert b.initial_h12_sq > 0
        assert b.dissipation_cum >= 0
        # records include the initial state, so the sup dominates it
        assert b.h12_sq_sup >= b.initial_h12_sq
        assert b.bound_ratio <= 10.0
        assert b.bound_ratio == pytest.approx(
            (b.h12_sq_sup + b.dissipation_cum) / b.initial_h12_sq, rel=1e-12
        )

    def test_constant_run_ratio_zero(self):
        grid = PeriodicGrid(64)
        u0 = RealField(grid, np.full(grid.n, 1.0))
        traj = solver.solve(u0, SolverConfig(t_end=0.05))
        b = diagnostics.energy_budget(traj, 0.0)
        assert b.bound_ratio == 0.0


class TestExtrema:
    def test_smooth_run_respects_maximum_principle(self, cosine_run):
        _, traj = cosine_run
        min_drift, max_drift = diagnostics.extremum_report(traj)
        assert min_drift >= -1e-9
        assert max_drift <= 1e-9

    def test_drifts_match_rowwise_rule(self, rng):
        # the column reads give the drifts of the row-by-row rule they replaced, bit for bit
        traj = solver.Trajectory(records=[solver.StepRecord(*row) for row in rng.uniform(0.5, 2.0, size=(50, 7))])
        min0, max0 = traj.records[0].min_u, traj.records[0].max_u
        rowwise = (min(r.min_u - min0 for r in traj.records), max(r.max_u - max0 for r in traj.records))
        assert diagnostics.extremum_report(traj) == rowwise and rowwise[0] < 0 < rowwise[1]


class TestSmoothing:
    def test_needs_enough_snapshots(self, cosine_run):
        _, traj = cosine_run
        with pytest.raises(ValueError):
            diagnostics.smoothing_fit(traj, 2.0, 0.1, t_min=0.35)
        with pytest.raises(ValueError):
            diagnostics.smoothing_fit(traj, 2.0, 0.1, t_min=0.0)

    def test_decaying_norm_gives_negative_slope(self, cosine_run):
        _, traj = cosine_run
        rep = diagnostics.smoothing_fit(traj, 1.0, 0.1, t_min=0.1)
        assert rep.slope < 0.0
        assert rep.sup_weighted > 0.0
        assert rep.sup_time in traj.times


class TestStability:
    def test_identical_runs_zero_distance(self, cosine_run):
        _, traj = cosine_run
        rep = diagnostics.stability_compare(traj, traj)
        assert all(d == 0.0 for d in rep.distances)
        assert rep.growth == 0.0

    def test_perturbed_run_growth_bounded(self, cosine_run):
        u0, traj = cosine_run
        pert = RealField(u0.grid, u0.values + 1e-3 * np.cos(u0.grid.points))
        cfg = SolverConfig(t_end=0.5, cfl=0.4, snapshot_times=(0.1, 0.2, 0.3, 0.4))
        traj2 = solver.solve(pert, cfg)
        rep = diagnostics.stability_compare(traj, traj2)
        assert rep.distances[0] == pytest.approx(1e-3, rel=1e-10)
        assert 0.0 < rep.growth < 20.0

    def test_mismatched_snapshots_rejected(self, cosine_run):
        u0, traj = cosine_run
        other = solver.solve(u0, SolverConfig(t_end=0.5, cfl=0.4))
        with pytest.raises(ValueError):
            diagnostics.stability_compare(traj, other)


def test_snapshot_distances_grid_mismatch():
    # runs pair snapshot by snapshot on one grid: equal times on two grids are refused
    coarse, fine = PeriodicGrid(64), PeriodicGrid(128)
    a = solver.Trajectory([(0.0, RealField(coarse, np.ones(64)))])
    b = solver.Trajectory([(0.0, RealField(fine, np.ones(128)))])
    assert diagnostics.snapshot_distances(a, a, spectral.l2_norm) == [0.0]
    with pytest.raises(ValueError, match="snapshots at t=0 live on different grids: n=64 and n=128"):
        diagnostics.snapshot_distances(a, b, spectral.l2_norm)
