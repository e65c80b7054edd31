import numpy as np
import pytest

from rootflow import solver, spectral
from rootflow.solver import SolverAbort, SolverConfig, SolverState, Trajectory
from rootflow.spectral import PeriodicGrid, RealField


def cosine_datum(grid, c0=1.0, amp=0.3):
    return RealField(grid, c0 + amp * np.cos(grid.points))


class TestConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.delta == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t_end=-1.0),
            dict(cfl=0.0),
            dict(cfl=1.5),
            dict(delta=-1e-3),
            dict(dt_max=0.0),
            dict(snapshot_times=(0.5, 0.2), t_end=1.0),
            dict(snapshot_times=(2.0,), t_end=1.0),
            dict(t_end=np.inf),
            dict(snapshot_times=(np.nan,)),
            dict(pos_floor=np.nan),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStepping:
    def test_step_rejects_nonpositive_dt(self):
        grid = PeriodicGrid(64)
        state = SolverState(t=0.0, u=cosine_datum(grid))
        with pytest.raises(ValueError):
            solver.step(state, 0.0, SolverConfig())

    def test_step_aborts_on_positivity_loss(self):
        grid = PeriodicGrid(64)
        # a huge step drives the explicit update through zero
        u = RealField(grid, 0.02 + 0.0199 * np.cos(grid.points))
        state = SolverState(t=0.0, u=u)
        with pytest.raises(SolverAbort):
            solver.step(state, 50.0, SolverConfig())

    def test_constant_datum_is_fixed_point(self):
        grid = PeriodicGrid(64)
        u = RealField(grid, np.full(grid.n, 1.3))
        for delta in (0.0, 1e-2):
            cfg = SolverConfig(delta=delta)
            state = SolverState(t=0.0, u=u)
            for _ in range(5):
                state = solver.step(state, 1e-2, cfg)
            assert np.abs(state.u.values - 1.3).max() < 1e-13


class TestSolve:
    def test_snapshots_land_exactly(self):
        grid = PeriodicGrid(64)
        cfg = SolverConfig(t_end=0.3, snapshot_times=(0.1, 0.2))
        traj = solver.solve(cosine_datum(grid), cfg)
        assert traj.times == [0.0, 0.1, 0.2, 0.3]

    def test_records_cover_every_step(self):
        grid = PeriodicGrid(64)
        cfg = SolverConfig(t_end=0.1)
        traj = solver.solve(cosine_datum(grid), cfg)
        steps = len(traj.records) - 1  # first record is the initial state
        assert steps >= 1
        assert traj.records[-1].t == pytest.approx(0.1, abs=1e-12)
        ts = [r.t for r in traj.records]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize(
        "snapshot_times",
        [(0.25, 0.25, 0.5), (0.25, 0.25 + 5e-14, 0.5, 0.75)],
    )
    def test_every_distinct_snapshot_time(self, snapshot_times):
        # repeated and nearly repeated times: each distinct one is a stop
        # that a step lands on exactly, and none drops the later ones
        grid = PeriodicGrid(64)
        cfg = SolverConfig(t_end=1.0, snapshot_times=snapshot_times)
        traj = solver.solve(cosine_datum(grid), cfg)
        expected = sorted({0.0, *snapshot_times, 1.0})
        assert traj.times == expected
        record_times = {r.t for r in traj.records}
        assert all(t in record_times for t in expected)

    @pytest.mark.parametrize("delta, per_step", [(0.0, 7), (1e-2, 8)])
    def test_transform_and_validation_counts(self, monkeypatch, delta, per_step):
        # set-up: rfft and irfft of the mollified datum, F and F_x for its
        # record; a step then transforms only what it must (the tendency
        # spectra stay spectra) and validates no field it computed itself
        grid = PeriodicGrid(64)
        u0 = cosine_datum(grid)
        calls = {"fft": 0, "validate": 0}

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
        monkeypatch.setattr(RealField, "__post_init__", counted(RealField.__post_init__, "validate"))
        cfg = SolverConfig(delta=delta, t_end=0.1, snapshot_times=(0.05,))
        steps = len(solver.solve(u0, cfg).records) - 1
        assert steps >= 2
        assert calls == {"fft": 4 + per_step * steps, "validate": 0}

    def test_mollified_initial(self):
        grid = PeriodicGrid(64)
        u0 = cosine_datum(grid)
        m = solver.mollified_initial(u0, 0.1)
        # heat mollification damps mode 1 by exp(-0.1)
        c = np.fft.rfft(m.values) / grid.n
        assert abs(c[1]) == pytest.approx(0.15 * np.exp(-0.1), rel=1e-12)
        with pytest.raises(ValueError):
            solver.mollified_initial(RealField(grid, np.cos(grid.points)), 0.1)

    def test_extrema_monotone_on_smooth_run(self):
        grid = PeriodicGrid(128)
        traj = solver.solve(cosine_datum(grid), SolverConfig(t_end=0.5, cfl=0.4))
        mins = [r.min_u for r in traj.records]
        maxs = [r.max_u for r in traj.records]
        assert min(mins) >= mins[0] - 1e-10
        assert max(maxs) <= maxs[0] + 1e-10

    def test_temporal_order_richardson(self):
        grid = PeriodicGrid(64)
        u0 = cosine_datum(grid)

        def final(dt):
            cfg = SolverConfig(t_end=0.2, cfl=1.0, dt_max=dt, delta=1e-2)
            return solver.solve(u0, cfg).snapshots[-1][1].values

        u1, u2, u4 = final(4e-3), final(2e-3), final(1e-3)
        e12 = np.abs(u1 - u2).max()
        e24 = np.abs(u2 - u4).max()
        order = np.log2(e12 / e24)
        assert order > 1.8


class TestContinuation:
    def test_validation(self):
        grid = PeriodicGrid(64)
        u0 = cosine_datum(grid)
        with pytest.raises(ValueError):
            solver.delta_continuation(u0, [1e-2, 1e-2], 0.1, SolverConfig())
        with pytest.raises(ValueError):
            solver.delta_continuation(u0, [1e-2, -1e-3], 0.1, SolverConfig())

    def test_distances_shrink(self):
        grid = PeriodicGrid(128)
        u0 = cosine_datum(grid)
        cfg = SolverConfig(cfl=0.4, snapshot_times=(0.1, 0.2))
        runs, dists = solver.delta_continuation(u0, [4e-2, 2e-2, 1e-2], 0.2, cfg)
        assert len(runs) == 3 and len(dists) == 2
        assert dists[1]["h12"] < dists[0]["h12"]
        assert dists[1]["l2"] < dists[0]["l2"]


class TestRoughData:
    def test_seeded_and_reproducible(self):
        grid = PeriodicGrid(256)
        a = solver.rough_initial_data(grid, seed=7)
        b = solver.rough_initial_data(grid, seed=7)
        c = solver.rough_initial_data(grid, seed=8)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_floor_and_amplitude(self):
        grid = PeriodicGrid(256)
        u = solver.rough_initial_data(grid, c0=1.0, amplitude=0.25, seed=3)
        assert u.min() == pytest.approx(1.0, abs=1e-13)
        assert u.max() - u.min() <= 0.5 + 1e-12

    def test_spectral_envelope(self):
        grid = PeriodicGrid(512)
        u = solver.rough_initial_data(grid, eta=0.01, seed=0)
        c = np.abs(np.fft.rfft(u.values) / grid.n)
        k = np.arange(1, grid.n // 2)
        ratio = c[1:-1] * (1.0 + k) ** 1.01
        # every retained mode carries the same envelope magnitude
        assert ratio.max() / ratio.min() == pytest.approx(1.0, rel=1e-10)
