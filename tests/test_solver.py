import csv
import os
from dataclasses import replace

import numpy as np
import pytest

from rootflow import cli, diagnostics, dynamics, solver, spectral
from rootflow.solver import SolverAbort, SolverConfig, StepLimitAbort
from rootflow.spectral import PeriodicGrid, RealField

from conftest import run_cli


def cosine_datum(grid, c0=1.0, amp=0.3):
    return RealField(grid, c0 + amp * np.cos(grid.points))


def numpy_field_quantities(values, delta):
    """(min, max, mass, H^1/2 seminorm, dissipation) of grid values on the
    2 pi circle with numpy alone: L is the multiplier |k|, H is -i sign(k),
    zero at Nyquist."""
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
            dict(max_steps=0),
            dict(max_steps=10.0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestStepping:
    def test_step_rejects_nonpositive_dt(self):
        grid = PeriodicGrid(64)
        with pytest.raises(ValueError):
            solver.step(cosine_datum(grid), 0.0, SolverConfig())

    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_step_aborts_on_positivity_loss(self, delta):
        grid = PeriodicGrid(64)
        # a huge step drives the explicit predictor through zero
        u = RealField(grid, 0.02 + 0.0199 * np.cos(grid.points))
        with pytest.raises(SolverAbort, match=r"predictor at t=50 non-finite or not above floor 1\.000e-10: min u = -"):
            solver.step(u, 50.0, SolverConfig(delta=delta))

    def test_constant_datum_is_fixed_point(self):
        grid = PeriodicGrid(64)
        for delta in (0.0, 1e-2):
            cfg = SolverConfig(delta=delta)
            u = RealField(grid, np.full(grid.n, 1.3))
            for _ in range(5):
                u = solver.step(u, 1e-2, cfg)
            assert np.abs(u.values - 1.3).max() < 1e-13


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

    @pytest.mark.parametrize(
        "records, delta, set_up, per_step, n",
        [
            pytest.param(True, 0.0, 3, 5, 64, id="0.0-5"),
            pytest.param(True, 1e-2, 3, 6, 64, id="0.01-6"),
            pytest.param(False, 0.0, 2, 4, 64, id="0.0-4-no-records"),
            pytest.param(False, 1e-2, 2, 6, 64, id="0.01-6-no-records"),
            pytest.param(True, 0.0, 3, 5, 128, id="0.0-5-shrinks"),
            pytest.param(True, 1e-2, 3, 6, 128, id="0.01-6-shrinks"),
            pytest.param(False, 0.0, 2, 4, 128, id="0.0-4-no-records-shrinks"),
            pytest.param(False, 1e-2, 2, 6, 128, id="0.01-6-no-records-shrinks"),
        ],
    )
    def test_transform_and_validation_counts(self, monkeypatch, records, delta, set_up, per_step, n):
        # set-up: rfft of the datum, one complex ifft that gives the
        # mollified datum with its F, and with records one transform for its
        # record (Lu at delta = 0, F_x, which the first tendency reuses, at
        # delta > 0).  A step then transforms only what it must: one rfft per
        # tendency, one ifft per field it makes, F_x of both stages at
        # delta > 0 and, with records at delta = 0, the record's irfft of Lu.
        # At n = 128 the datum's modes from 32 up hold rounding only, so the
        # first step halves the grid to 64 by one ifft, and at delta > 0
        # forms F_x afresh where the set-up record formed it at 128.  With
        # records each step pads the field back to 128 by one irfft, which
        # its record's min and max and a stop's snapshot share; without, each
        # later snapshot is padded by one.  It validates no field it computed
        # itself
        grid = PeriodicGrid(n)
        u0 = cosine_datum(grid)
        calls = {"fft": 0, "validate": 0, "step": 0}
        sizes = []

        def counted(fn, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name), "fft"))
        monkeypatch.setattr(RealField, "__post_init__", counted(RealField.__post_init__, "validate"))
        real_step = solver.step
        monkeypatch.setattr(solver, "step", counted(lambda u, *a: sizes.append(u.grid.n) or real_step(u, *a), "step"))
        cfg = SolverConfig(delta=delta, t_end=0.1, snapshot_times=(0.05,))
        traj = solver.solve(u0, cfg, records=records)
        steps = calls["step"]
        assert steps >= 2 and len(traj.records) == (steps + 1 if records else 0)
        assert set(sizes) == {solver.GRID_MIN}
        shrink = 1 + (records and delta > 0)
        padded = steps if records else 2
        extra = 0 if n == solver.GRID_MIN else shrink + padded
        assert calls == {"fft": set_up + per_step * steps + extra, "validate": 0, "step": steps}

    @pytest.mark.parametrize(
        "delta, n",
        [
            pytest.param(0.0, 64, id="0.0"),
            pytest.param(1e-2, 64, id="0.01"),
            pytest.param(0.0, 128, id="0.0-shrinks"),
            pytest.param(1e-2, 128, id="0.01-shrinks"),
        ],
    )
    def test_records_flag_changes_no_step(self, monkeypatch, delta, n):
        # records are read off the fields the steps made and feed nothing
        # back: without them the run takes the same steps, on the same
        # working grids, to the same bits
        grid = PeriodicGrid(n)
        cfg = SolverConfig(delta=delta, t_end=0.1, snapshot_times=(0.03, 0.05))
        steps = []
        real_step = solver.step
        monkeypatch.setattr(solver, "step", lambda *a: steps.append((a[0].grid.n, a[1])) or real_step(*a))
        with_records = solver.solve(cosine_datum(grid), cfg)
        dts = steps[:]
        steps.clear()
        without = solver.solve(cosine_datum(grid), cfg, records=False)
        assert without.records == [] and len(with_records.records) == len(dts) + 1
        assert steps == dts
        assert {size for size, _ in dts} == {solver.GRID_MIN}
        assert without.times == with_records.times
        for (_, a), (_, b) in zip(with_records.snapshots, without.snapshots):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "delta, n, t_end",
        [
            pytest.param(0.0, 256, 0.5, id="0.0"),
            pytest.param(1e-3, 256, 0.5, id="0.001"),
            pytest.param(0.0, 512, 1.0, id="0.0-shrinks"),
            pytest.param(1e-3, 512, 1.0, id="0.001-shrinks"),
        ],
    )
    def test_records_match_snapshot_fields(self, monkeypatch, delta, n, t_end):
        # the record reads F, F_x or Lu the step left behind; at each snapshot
        # it must agree with the same quantities worked out from the samples,
        # and its min and max are those of the snapshot exactly, also where
        # the run steps on a smaller working grid and both are padded
        grid = PeriodicGrid(n)
        cfg = SolverConfig(delta=delta, t_end=t_end, cfl=0.4, snapshot_times=(t_end / 4, t_end / 2))
        sizes = step_sizes(monkeypatch)
        traj = solver.solve(solver.rough_initial_data(grid, seed=1), cfg)
        assert (min(sizes) < n) == (n == 512)
        by_time = {r.t: r for r in traj.records}
        for t, u in traj.snapshots:
            r = by_time[t]
            assert (r.min_u, r.max_u) == (u.min(), u.max())
            got = [r.min_u, r.max_u, r.mass, r.h12, r.dissipation]
            np.testing.assert_allclose(got, numpy_field_quantities(u.values, delta), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "delta, n",
        [
            pytest.param(0.0, 64, id="0.0"),
            pytest.param(1e-3, 64, id="0.001"),
            pytest.param(0.0, 128, id="0.0-shrinks"),
            pytest.param(1e-3, 128, id="0.001-shrinks"),
        ],
    )
    def test_snapshots_carry_no_stepping_cache(self, monkeypatch, delta, n):
        # a snapshot shares the samples and spectrum of the field the run
        # stepped, or of that field padded to n, but none of its F, F_x or
        # w: F takes one ifft afresh, and its real part is the samples, bit
        # for bit where a step made them and to rounding where irfft did
        grid = PeriodicGrid(n)
        sizes = step_sizes(monkeypatch)
        traj = solver.solve(cosine_datum(grid), SolverConfig(delta=delta, t_end=0.1, snapshot_times=(0.05,)))
        assert set(sizes) == {solver.GRID_MIN}
        calls = []

        def counted(name):
            fn = getattr(np.fft, name)
            return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name))
        for t, u in traj.snapshots:
            assert not {"F", "F_x", "_weight"} & vars(u).keys()
            atol = 0.0 if n == solver.GRID_MIN or t == 0.0 else 1e-15
            np.testing.assert_allclose(u.F.real, u.values, rtol=0.0, atol=atol)
        assert calls == ["ifft"] * len(traj.snapshots)

    def test_step_limit(self, tmp_path):
        grid = PeriodicGrid(64)
        u0 = cosine_datum(grid)
        steps = len(solver.solve(u0, SolverConfig(t_end=0.1)).records) - 1
        for records in (True, False):  # the limit counts steps, not records
            traj = solver.solve(u0, SolverConfig(t_end=0.1, max_steps=steps), records=records)
            assert traj.times == [0.0, 0.1] and len(traj.records) == (steps + 1 if records else 0)
            with pytest.raises(StepLimitAbort, match=f"step limit {steps - 1} reached at t=.*, step {steps - 1}"):
                solver.solve(u0, SolverConfig(t_end=0.1, max_steps=steps - 1), records=records)
        rc, err = run_cli(
            "sweep-delta", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.1",
            "--set", "solver.max_steps=1",
        )
        assert rc == cli.EXIT_CODES["max_steps"]
        assert err.startswith("run aborted: continuation member delta=0.01 failed: step limit 1 ")

    @pytest.mark.parametrize("records", [True, False])
    def test_overflowing_scale_aborts(self, records):
        # the equation is scale-free, but gamma and V need delta + |F|^2 finite
        u0 = RealField(PeriodicGrid(64), np.full(64, 1e200))
        with pytest.raises(SolverAbort, match=r"u\^2 \+ \(Hu\)\^2 overflows at t=0, step 0"):
            solver.solve(u0, SolverConfig(t_end=0.1), records=records)

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

    @pytest.mark.parametrize("lam", [2.0**-40, 2.0**40], ids=["2^-40", "2^40"])
    def test_scale_covariance(self, lam):
        # the equation is homogeneous of degree zero, so lam u(t/lam) solves
        # it too; a power of two scales every float operation exactly, so
        # with the floor and the times scaled the run is lam times the
        # unscaled one, bit for bit
        grid = PeriodicGrid(64)
        u0 = solver.rough_initial_data(grid, seed=1)
        base = solver.solve(u0, SolverConfig(t_end=0.2, snapshot_times=(0.1,)))
        scaled = solver.solve(
            RealField(grid, lam * u0.values),
            SolverConfig(t_end=lam * 0.2, snapshot_times=(lam * 0.1,), pos_floor=lam * 1e-10),
        )
        assert len(scaled.records) == len(base.records)
        for (ts, us), (t, u) in zip(scaled.snapshots, base.snapshots, strict=True):
            assert ts == lam * t
            assert np.array_equal(us.values, lam * u.values)
        for rs, r in zip(scaled.records, base.records):
            assert rs._asdict() == {name: lam * v for name, v in r._asdict().items()}

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


def step_sizes(monkeypatch):
    """The working grid size of every solver.step call from now on."""
    sizes = []
    real_step = solver.step
    monkeypatch.setattr(solver, "step", lambda u, *a: sizes.append(u.grid.n) or real_step(u, *a))
    return sizes


class TestWorkingGrid:
    @pytest.mark.parametrize("n, band, size", [(512, 10, 64), (512, 40, 128), (256, 65, 256), (128, 31, 64)])
    def test_shrink_then_pad_is_exact(self, n, band, size):
        # a field with no mode from `band` up halves while that band lies
        # below a quarter of the grid; padding back gives its spectrum to
        # the bit, as the size ratio is a power of two
        grid = PeriodicGrid(n)
        rng = np.random.default_rng(band)
        c = np.zeros(grid.kmax + 1, dtype=complex)
        c[1:band] = n * (rng.normal(size=band - 1) + 1j * rng.normal(size=band - 1)) / band**2
        c[0] = 4 * n
        u = spectral.from_spectrum(grid, c)
        w = solver._working(u, n)
        assert w.grid.n == size
        spectrum, values = solver._on_grid(w, grid)
        assert np.array_equal(spectrum, c)
        np.testing.assert_allclose(values, u.values, rtol=0.0, atol=1e-14 * np.abs(u.values).max())
        _, back = solver._snapshot(grid, spectrum, values, SolverConfig(), 0.5)
        assert solver._working(back, n).grid.n == size

    def test_padding_keeps_the_nyquist_mode(self):
        # the 64-point grid's Nyquist bin is one mode there, read by its real
        # part, and +-32 on 128 points: the padded field keeps half that real
        # part and takes the working samples at every other point
        grid = PeriodicGrid(64)
        rng = np.random.default_rng(3)
        c = 64 * (rng.normal(size=33) + 1j * rng.normal(size=33)) / 100
        c[0] = 64 * 4.0
        u = spectral.from_spectrum(grid, c)
        spectrum, values = solver._on_grid(u, PeriodicGrid(128))
        assert spectrum[32] == c[32].real
        np.testing.assert_allclose(values[::2], u.values, rtol=0.0, atol=1e-14)
        # truncating zeroes the bin that becomes the Nyquist mode: halving
        # happens only once every mode from there up is below rounding
        assert solver._resized(spectrum, 64)[32] == 0.0

    @pytest.mark.parametrize("n, halves", [(132, [66]), (196, [98]), (130, [])], ids=["132", "196", "130"])
    def test_grid_not_a_power_of_two(self, monkeypatch, tmp_path, n, halves):
        # the working grid stays n / 2^j and even: 132 and 196 halve once,
        # 130 never; each run gives the fixed grid's steps and snapshots
        sizes = step_sizes(monkeypatch)
        assert run_cli("solve", "--out", str(tmp_path / "w"), "--set", f"grid.n={n}") == (0, "")
        assert sorted(set(sizes) - {n}) == halves
        working, sizes[:] = list(sizes), []
        monkeypatch.setattr(solver, "GRID_MIN", n)
        assert run_cli("solve", "--out", str(tmp_path / "f"), "--set", f"grid.n={n}") == (0, "")
        assert set(sizes) == {n} and len(sizes) == len(working)
        for (t, a), (s, b) in zip(*(cli.read_snapshot_csv(str(tmp_path / d / "snapshots.csv")) for d in "wf")):
            assert t == s
            np.testing.assert_allclose(a.values, b.values, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1826701615])
    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_rough_run_shrinks_and_never_grows(self, monkeypatch, delta, seed):
        # rough data smooth at every positive time, so the grid their steps
        # run on only halves, to 512 or below by t = 1; the second seed, a
        # rough_pde datum, leaves a bin that no step at delta = 0 changes
        # near rounding as it halves, which truncation must drop
        sizes = step_sizes(monkeypatch)
        u0 = solver.rough_initial_data(PeriodicGrid(2048), seed=seed)
        solver.solve(u0, SolverConfig(delta=delta, t_end=1.0, cfl=0.4), records=False)
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] <= 512

    def test_grid_doubles_when_its_top_modes_grow(self, monkeypatch):
        # the cosine datum runs on 64 points; a mode put near the top of that
        # grid after the third step, 1e-10 of the mean, doubles it
        sizes = step_sizes(monkeypatch)
        stepped = solver.step

        def kicked(u, *a):
            v = stepped(u, *a)
            if len(sizes) != 3:
                return v
            c = v.spectrum.copy()
            c[30] += 1e-10 * c[0]
            return spectral.from_spectrum(v.grid, c)

        monkeypatch.setattr(solver, "step", kicked)
        solver.solve(cosine_datum(PeriodicGrid(256)), SolverConfig(t_end=0.05), records=False)
        assert sizes[:4] == [64, 64, 64, 128]

    def test_dt_max_sets_the_fixed_grid_step_count(self, monkeypatch):
        # dt_max is not scaled with the working grid: a run it limits takes
        # the steps a fixed grid takes, cfl * dt_max each, cut at each stop
        sizes = step_sizes(monkeypatch)
        cfg = SolverConfig(t_end=0.05, cfl=0.5, dt_max=1e-3, snapshot_times=(0.02,))
        traj = solver.solve(cosine_datum(PeriodicGrid(256)), cfg)
        dt, t, expected = cfg.cfl * cfg.dt_max, 0.0, []
        for stop in (0.02, 0.05):
            while t < stop:
                expected.append(stop - t if t + dt >= stop else dt)
                t = stop if t + dt >= stop else t + dt
        assert set(sizes) == {64}
        assert [r.dt for r in traj.records[1:]] == expected


def u_star(t, x):
    return 1.0 + 0.3 * np.exp(-t) * np.cos(x) + 0.1 * np.sin(2 * x + t) + 0.05 * np.cos(5 * x - 2 * t)


def u_star_t(t, x):
    return -0.3 * np.exp(-t) * np.cos(x) + 0.1 * np.cos(2 * x + t) + 0.1 * np.sin(5 * x - 2 * t)


def manufactured_error(n, delta, dt):
    """max |u - u*| at t = 1 of a solve at fixed dt whose tendency is forced by
    f = rfft(u*_t) - N(u*) + delta k^2 rfft(u*), N the grid's own tendency:
    the grid samples of u* then solve the forced semi-discrete system
    exactly, so the error is Heun's time error alone.  The forcing is added
    at a step's t, then at t + dt, the times of its two tendency calls."""
    grid = PeriodicGrid(n)
    x, k = grid.points, grid.wavenumbers
    step, tendency = solver.step, dynamics.nonlinear_tendency
    stage_times = []

    def forced_step(u, dt, cfg, t=0.0):
        stage_times[:] = [t + dt, t]  # popped in the order the stages run
        return step(u, dt, cfg, t)

    def forced_tendency(u, delta):
        s = stage_times.pop()
        star = RealField(grid, u_star(s, x))
        f = np.fft.rfft(u_star_t(s, x)) - tendency(star, delta) + delta * k**2 * star.spectrum
        return tendency(u, delta) + f

    # u*(0) is band-limited to |k| <= 5; heat-inverting it there makes the mollified start u*(0)
    c = np.fft.rfft(u_star(0.0, x))
    c[6:] = 0.0
    u0 = RealField(grid, np.fft.irfft(c * np.exp(delta * k**2), n=n))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "step", forced_step)
        m.setattr(dynamics, "nonlinear_tendency", forced_tendency)
        traj = solver.solve(u0, SolverConfig(delta=delta, t_end=1.0, cfl=1.0, dt_max=dt), records=False)
    return np.abs(traj.snapshots[-1][1].values - u_star(1.0, x)).max()


class TestManufactured:
    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_temporal_order(self, delta):
        # measured at n = 64: errors 2.15e-5 / 5.33e-6 / 1.33e-6 at delta = 0
        # and 2.13e-5 / 5.29e-6 / 1.32e-6 at delta = 1e-2, orders 2.01 and 2.005
        errors = [manufactured_error(64, delta, dt) for dt in (0.02, 0.01, 0.005)]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all((1.95 <= orders) & (orders <= 2.05)), orders
        assert errors[-1] <= 1.5e-6

    @pytest.mark.parametrize("delta", [0.0, 1e-2])
    def test_two_tendency_calls_per_step(self, monkeypatch, delta):
        # manufactured_error forces a step's first tendency call at t and its
        # second at t + dt, so a solve must make these two calls and no other
        events = []
        step, tendency = solver.step, dynamics.nonlinear_tendency

        def counted_step(u, dt, cfg, t=0.0):
            events.append("s")
            return step(u, dt, cfg, t)

        def counted_tendency(u, delta):
            events.append("n")
            return tendency(u, delta)

        monkeypatch.setattr(solver, "step", counted_step)
        monkeypatch.setattr(dynamics, "nonlinear_tendency", counted_tendency)
        traj = solver.solve(cosine_datum(PeriodicGrid(64)), SolverConfig(delta=delta, t_end=0.1))
        steps = len(traj.records) - 1
        assert steps >= 2 and "".join(events) == "snn" * steps


class TestContinuation:
    """sweep-delta through cli.main: members at decreasing deltas, paired by
    diagnostics.snapshot_distances."""

    @staticmethod
    def sweep(out, *sets):
        return run_cli("sweep-delta", "--out", str(out), *(arg for kv in sets for arg in ("--set", kv)))

    def test_validation(self):
        for deltas in ("1e-2,1e-2,5e-3", "1e-2,5e-3,-1e-3"):  # not strictly decreasing, not positive
            with pytest.raises(cli.ConfigError, match="constraint violation for sweep.deltas"):
                cli.apply_overrides(cli.default_config(), [f"sweep.deltas={deltas}"])

    def test_distances_shrink(self, tmp_path):
        rc, _ = self.sweep(
            tmp_path, "grid.n=128", "solver.t_end=0.2", "solver.snapshot_times=0.1,0.2", "sweep.deltas=4e-2,2e-2,1e-2"
        )
        assert rc == 0
        for d in ("0.04", "0.02", "0.01"):
            assert (tmp_path / f"snapshots_delta_{d}.csv").exists()
        with open(tmp_path / "summary.csv", newline="") as f:
            rows = {row["check"]: float(row["value"]) for row in csv.DictReader(f)}
        assert "h12_distance_2" not in rows
        assert rows["h12_distance_1"] < rows["h12_distance_0"]
        assert rows["l2_distance_1"] < rows["l2_distance_0"]

    @pytest.mark.parametrize("shift, agree", [(1e-9, False), (1e-14, True)])
    def test_snapshot_times_must_agree(self, shift, agree):
        # members pair snapshot by snapshot, as stability's runs do, where
        # times agree to 1e-12
        u0 = cosine_datum(PeriodicGrid(64))
        cfg = SolverConfig(cfl=0.4, t_end=0.1, snapshot_times=(0.05,))
        a, b = (solver.solve(u0, replace(cfg, delta=d)) for d in (2e-2, 1e-2))
        t, u = b.snapshots[1]
        b.snapshots[1] = (t + shift, u)
        if agree:
            assert len(diagnostics.snapshot_distances(a, b, spectral.l2_norm)) == 3
        else:
            with pytest.raises(ValueError, match="disagree on snapshot times"):
                diagnostics.snapshot_distances(a, b, spectral.l2_norm)

    def test_non_finite_distance_aborts(self, monkeypatch, tmp_path):
        monkeypatch.setattr(diagnostics, "snapshot_distances", lambda *args: [(np.nan, np.nan)])
        rc, err = self.sweep(tmp_path, "grid.n=64", "solver.t_end=0.05")
        assert rc == cli.EXIT_CODES["abort"]
        assert err.startswith("run aborted: non-finite continuation distance at delta=0.005")
        assert os.listdir(tmp_path) == ["resolved.cfg"]

    def test_aborted_member_named_by_repr(self, tmp_path):
        # the three deltas agree to 6 significant digits; the message names
        # the member that failed as its files would be named
        rc, err = self.sweep(tmp_path, "sweep.deltas=1.0000002e-3,1.0000001e-3,1e-3", "solver.max_steps=1")
        assert rc == cli.EXIT_CODES["max_steps"]
        assert err.startswith("run aborted: continuation member delta=0.0010000002 failed: step limit 1 ")
        assert os.listdir(tmp_path) == ["resolved.cfg"]


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
