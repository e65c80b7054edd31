import csv
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootflow
from rootflow import cli, solver
from rootflow.cli import ConfigError
from rootflow.solver import SolverConfig
from rootflow.spectral import PeriodicGrid, RealField

from conftest import assert_ends_cleanly, run_cli


def _float_kind(parse):
    try:
        return {0.5: "float", (0.5,): "list"}.get(parse("0.5"))
    except ValueError:
        return None


# every setting that holds a float or a list of floats
FLOAT_KEYS = {
    f"{section}.{key}": _float_kind(parse)
    for section, keys in cli.SCHEMA.items()
    for key, (parse, *_rest) in keys.items()
    if _float_kind(parse)
}


class TestConfigParsing:
    def test_empty_config_gives_defaults(self):
        cfg = cli.parse_config("")
        assert cfg["grid"]["n"] == 512
        assert cfg["solver"]["cfl"] == 0.4
        assert cfg["sweep"]["deltas"] == (1e-2, 5e-3, 2.5e-3, 1.25e-3)

    def test_values_and_comments(self):
        cfg = cli.parse_config(
            "[grid]\nn = 128  # coarse\n[solver]\ndelta = 1e-3\n[roots]\ncounts = 10, 20  # two sizes\n"
        )
        assert cfg["grid"]["n"] == 128
        assert cfg["solver"]["delta"] == 1e-3
        assert cfg["roots"]["counts"] == (10, 20)

    @pytest.mark.parametrize(
        "text",
        [
            "[nosuch]\nx = 1\n",
            "[grid]\nm = 4\n",
            "[grid]\nn = 17\n",
            "[solver]\ncfl = 2.0\n",
            "[solver]\ndelta = frog\n",
            "not an ini file",
        ],
    )
    def test_rejects_bad_config(self, text):
        with pytest.raises(ConfigError):
            cli.parse_config(text)

    def test_overrides(self):
        cfg = cli.parse_config("")
        cli.apply_overrides(cfg, ["grid.n=64", "solver.t_end=0.25"])
        assert cfg["grid"]["n"] == 64
        assert cfg["solver"]["t_end"] == 0.25
        with pytest.raises(ConfigError):
            cli.apply_overrides(cfg, ["gridn=64"])
        with pytest.raises(ConfigError):
            cli.apply_overrides(cfg, ["grid.n=15"])

    def test_resolved_text_roundtrips(self):
        cfg = cli.parse_config("")
        cli.apply_overrides(cfg, ["solver.delta=1.25e-3", "initial.kind=rough"])
        assert cli.parse_config(cli.resolved_config_text(cfg)) == cfg


class TestCsvFormats:
    def test_snapshot_roundtrip(self, tmp_path):
        grid = PeriodicGrid(64)
        u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))
        traj = solver.solve(u0, SolverConfig(t_end=0.1, snapshot_times=(0.05,)))
        path = tmp_path / "snap.csv"
        cli.write_snapshot_csv(traj, str(path))
        back = cli.read_snapshot_csv(str(path))
        assert [t for t, _ in back] == traj.times
        for (_, a), (_, b) in zip(back, traj.snapshots):
            assert np.array_equal(a.values, b.values)

    def test_writers_match_rowwise_reference(self, tmp_path):
        # the reference is the row-by-row rule of the writers numpy replaced
        grid = PeriodicGrid(16)
        u0 = RealField(grid, 1.0 + 0.3 * np.cos(grid.points))
        traj = solver.solve(u0, SolverConfig(t_end=0.1, snapshot_times=(0.05,)))

        def rows(table):
            return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table)

        times = ",".join(format(t, ".17g") for t in traj.times)
        snap = f"# n=16 times={times}\n" + rows(zip(grid.points, *(u.values for _, u in traj.snapshots)))
        diag = "t,dt,min_u,max_u,mass,h12,dissipation\n" + rows(
            (r.t, r.dt, r.min_u, r.max_u, r.mass, r.h12, r.dissipation) for r in traj.records
        )
        cli.write_snapshot_csv(traj, str(tmp_path / "snap.csv"))
        cli.emit_diagnostics_csv(traj, str(tmp_path / "diag.csv"))
        assert (tmp_path / "snap.csv").read_bytes() == snap.encode()
        assert (tmp_path / "diag.csv").read_bytes() == diag.encode()

    def test_records_are_rows_of_one_table(self, tmp_path, monkeypatch):
        # a record is a tuple with no __dict__, one row of the table the
        # diagnostics read, and diagnostics.csv is headed by its field names
        dts, step = [], solver.step

        def counted_step(u, dt, cfg, t=0.0):
            dts.append(dt)
            return step(u, dt, cfg, t)

        monkeypatch.setattr(solver, "step", counted_step)
        grid = PeriodicGrid(64)
        traj = solver.solve(RealField(grid, 1.0 + 0.3 * np.cos(grid.points)), SolverConfig(t_end=0.1))
        assert not hasattr(traj.records[0], "__dict__")
        assert np.array(traj.records).shape == (len(dts) + 1, 7)
        cli.emit_diagnostics_csv(traj, str(tmp_path / "diag.csv"))
        header = (tmp_path / "diag.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == solver.StepRecord._fields

    def test_read_rejects_malformed(self, tmp_path):
        p = tmp_path / "bad.csv"
        for text in (
            "no header\n1,2\n",
            "# n=64 times=0.2,0.1\n",
            "# n=2 times=0\n0,1\n1\n",  # ragged row
            "# n=2 times=0\n0,1\n1,x\n",  # non-numeric cell
        ):
            p.write_text(text)
            with pytest.raises(ValueError):
                cli.read_snapshot_csv(str(p))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# n=x times=0\n0,1\n", "malformed snapshot header"),
            ("# n=3 times=0\n0,1\n1,2\n", r"expected 3 rows x 2 columns, got \(2, 2\)"),
        ],
    )
    def test_read_names_the_fault(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            cli.read_snapshot_csv(str(p))

    @pytest.mark.parametrize("text, error", [(None, TypeError), ("one\n", OSError)], ids=["write", "replace"])
    def test_atomic_write_failure_leaves_no_temporary(self, tmp_path, monkeypatch, text, error):
        # the error reaches the caller and no temporary file stays: a text
        # file refuses to write None, and os.replace is made to fail
        def refused(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refused)
        with pytest.raises(error):
            cli.atomic_write(str(tmp_path / "f.txt"), text)
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_replaces(self, tmp_path):
        p = tmp_path / "f.txt"
        cli.atomic_write(str(p), "one\n")
        cli.atomic_write(str(p), "two\n")
        assert p.read_text() == "two\n"
        assert list(tmp_path.iterdir()) == [p]


class TestInitialData:
    def test_bump_profile_support_and_smoothness(self):
        x = np.linspace(-np.pi, np.pi, 1001)
        b = cli.bump_profile(x, 1.5)
        assert np.all(b[np.abs(x) >= 1.5] == 0.0)
        assert np.all(b[np.abs(x) < 1.5] > 0.0)
        assert b.max() == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_bump_initial_mass(self):
        cfg = cli.parse_config("[initial]\nkind = bump\n[grid]\nn = 256\n")
        u0 = cli.build_initial(cfg)
        grid = u0.grid
        floor_mass = 2.0 * np.pi * cfg["initial"]["bump_floor"]
        assert grid.dx * np.sum(u0.values) == pytest.approx(1.0 + floor_mass, rel=1e-10)

    def test_unknown_kind(self):
        # the schema rejects it when parsed; a hand-built config reaches build_initial
        cfg = cli.default_config()
        cfg["initial"]["kind"] = "spiral"
        with pytest.raises(ConfigError, match="unknown initial kind 'spiral'"):
            cli.build_initial(cfg)

    def test_constant_and_cosine(self):
        cfg = cli.parse_config("[grid]\nn = 64\n[initial]\nkind = constant\nc0 = 2.0\n")
        u0 = cli.build_initial(cfg)
        assert np.all(u0.values == 2.0)
        cfg2 = cli.parse_config("[grid]\nn = 64\n")
        u1 = cli.build_initial(cfg2)
        x = u1.grid.points
        assert np.abs(u1.values - (1.0 + 0.3 * np.cos(x))).max() < 1e-14


class TestMain:
    def run(self, *argv):
        return cli.main(list(argv))

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = self.run("solve", "--out", str(tmp_path), "--set", "grid.n=15")
        assert rc == cli.EXIT_CODES["config"]

    def test_check_operators(self, tmp_path, capsys):
        rc = self.run("check-operators", "--out", str(tmp_path), "--set", "grid.n=128")
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "resolved.cfg").exists()

    def test_solve_smoke(self, tmp_path, capsys):
        rc = self.run(
            "solve",
            "--out",
            str(tmp_path),
            "--set",
            "grid.n=128",
            "--set",
            "solver.t_end=0.2",
        )
        assert rc == 0
        assert (tmp_path / "snapshots.csv").exists()
        assert (tmp_path / "diagnostics.csv").exists()
        header = (tmp_path / "diagnostics.csv").read_text().splitlines()[0]
        assert header == "t,dt,min_u,max_u,mass,h12,dissipation"

    def test_solve_abort_exit_code(self, tmp_path, capsys):
        # a floor above min u0 makes the run abort immediately
        rc = self.run(
            "solve",
            "--out",
            str(tmp_path),
            "--set",
            "grid.n=128",
            "--set",
            "solver.pos_floor=0.99",
        )
        assert rc == cli.EXIT_CODES["abort"]

    def test_reproducible_outputs(self, tmp_path, capsys):
        args = [
            "solve",
            "--set",
            "grid.n=128",
            "--set",
            "solver.t_end=0.2",
            "--set",
            "initial.kind=rough",
            "--set",
            "solver.seed=11",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert self.run(*args, "--out", str(out_a)) == 0
        assert self.run(*args, "--out", str(out_b)) == 0
        for name in ("snapshots.csv", "diagnostics.csv", "summary.csv", "resolved.cfg"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[grid]\nn = 128\n[solver]\nt_end = 0.1\n")
        rc = self.run("solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert rc == 0
        resolved = (tmp_path / "out" / "resolved.cfg").read_text()
        assert "n = 128" in resolved

    @pytest.mark.parametrize(
        "command, override",
        [
            ("solve", "solver.snapshot_times=2"),
            ("smoothing", "smoothing.t_min=5"),
            ("sweep-delta", "sweep.deltas=1e-3,1e-2"),
            ("roots-compare", "roots.counts=1"),
            ("smoothing", "smoothing.t_min=1"),
            ("sweep-delta", "sweep.deltas="),
            ("sweep-delta", "sweep.deltas=1e-2"),
            ("roots-compare", "roots.counts="),
            ("stability", "stability.gaps="),
            ("stability", "stability.gaps=0"),
            ("solve", "initial.amplitude=1"),
            ("stability", "stability.gaps=1"),
            ("roots-compare", "initial.bump_floor=1e300"),
            ("roots-compare", "initial.bump_halfwidth=3.0"),
            pytest.param("solve", "initial.kind=rough initial.eta=1060", id="solve-rough-initial.eta=1060"),
            pytest.param("solve", "initial.kind=rough initial.eta=1e6", id="solve-rough-initial.eta=1e6"),
            pytest.param(
                "solve", "initial.c0=1.5e308 initial.amplitude=1e308", id="solve-initial.c0=1.5e308-amplitude=1e308"
            ),
        ],
    )
    def test_inconsistent_config_exit_code(self, tmp_path, capsys, command, override):
        # settings invalid together, lists that would measure nothing,
        # non-positive initial data, rough data whose every mode underflows
        # and cosine data that overflow all end as config errors, not
        # tracebacks or warnings
        sets = [arg for kv in override.split() for arg in ("--set", kv)]
        rc = self.run(command, "--out", str(tmp_path), "--set", "grid.n=64", *sets)
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err
        assert "initial.eta" in err or "initial.eta" not in override
        assert "initial.c0" in err and "initial.amplitude" in err or "e308" not in override

    def test_stability_gap_lost_in_rounding(self, tmp_path, capsys):
        # against a datum near 1e20 the gaps round away, so every perturbed
        # run equals the base and there is no growth to measure
        rc = self.run(
            "stability", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.1",
            "--set", "initial.c0=1e20",
        )
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error: stability gap 0.001 is lost in rounding" in err
        assert "Traceback" not in err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            (key, value)
            for key in FLOAT_KEYS
            for value in ("nan", "inf")
            if (key, value) != ("solver.dt_max", "inf")
        ],
    )
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, key, value):
        # every float setting must be finite, except dt_max, whose default is
        # inf; a list gets the value after a finite entry
        raw = f"0.1,{value}" if FLOAT_KEYS[key] == "list" else value
        rc = self.run("solve", "--out", str(tmp_path), "--set", "grid.n=64", "--set", f"{key}={raw}")
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("t_end", ["0.1", "0.05"])
    def test_smoothing_snapshots_span_t_min_to_t_end(self, tmp_path, capsys, t_end):
        rc = self.run(
            "smoothing", "--out", str(tmp_path), "--set", "grid.n=64", "--set", f"solver.t_end={t_end}"
        )
        assert rc == 0
        times = [t for t, _ in cli.read_snapshot_csv(str(tmp_path / "snapshots.csv"))]
        assert times[1] == 0.01  # the default smoothing.t_min
        assert times[-1] == float(t_end)

    @pytest.mark.parametrize("s", ["1e300", "110"])
    def test_smoothing_rejects_overflowing_order(self, tmp_path, capsys, s):
        # at n = 64, kmax^(1+2s) overflows for s above about 101.9
        rc = self.run(
            "smoothing", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.1",
            "--set", f"smoothing.s={s}",
        )
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert "error:" in err and "smoothing.s" in err and "grid.n = 64" in err
        assert not (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("delta", ["0", "1e-3"])
    def test_smoothing_constant_datum(self, tmp_path, capsys, delta):
        # a constant datum stays constant, so its H^(1/2+s) seminorm is 0 and
        # has no log-log slope: a config error, as a stability gap lost in
        # rounding is, with no warning and no nan written
        rc = self.run(
            "smoothing", "--out", str(tmp_path), "--set", "grid.n=32", "--set", "initial.kind=constant",
            "--set", "solver.t_end=0.05", "--set", f"solver.delta={delta}",
        )
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seminorm is 0 at t = 0.01" in err
        assert sorted(os.listdir(tmp_path)) == ["resolved.cfg"]

    @pytest.mark.parametrize("below", [False, True])
    def test_out_cannot_be_a_directory(self, tmp_path, capsys, below):
        # --out names a file, or a path under one
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        rc = self.run("check-operators", "--out", str(out), "--set", "grid.n=16")
        assert rc == cli.EXIT_CODES["config"]
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "sets, code",
        [
            pytest.param(
                ["grid.n=16", "initial.c0=22.814284247160224", "initial.amplitude=15.573362131232487",
                 "initial.mode=36", "solver.delta=0.014314699396561163", "solver.t_end=1e-13"],
                0, id="cosine-n16-3ulp",
            ),
            pytest.param(
                ["grid.n=64", "initial.kind=rough", "solver.seed=1", "initial.amplitude=0.31", "solver.t_end=1e-13"],
                0, id="rough-n64-1ulp",
            ),
            pytest.param(
                ["grid.n=64", "initial.kind=bump", "solver.delta=1e-3", "solver.t_end=1e-9"], 6, id="bump-real-drift",
            ),
        ],
    )
    def test_mass_check_rounding_floor(self, tmp_path, capsys, sets, code):
        # a drift of a few ulps of the mass is rounding, even where
        # 10 delta t_end or 1e-10 t_end lies below one ulp; real drift fails
        rc = self.run("solve", "--out", str(tmp_path), *(arg for kv in sets for arg in ("--set", kv)))
        assert rc == code
        assert ("FAIL mass_drift" in capsys.readouterr().out) == (code == cli.EXIT_CODES["mass"])

    @pytest.mark.parametrize("halfwidth, code", [(2.7, 10), (2.75, 1)])
    def test_roots_compare_seam_rule_boundary(self, tmp_path, capsys, halfwidth, code):
        # at 2.75 more than 1e-8 of the bump's mass lies within 0.5 of the
        # seam; at 2.7 less does, and the wide bump fails the W1 checks
        rc = self.run(
            "roots-compare", "--out", str(tmp_path), "--set", "grid.n=256", "--set", "roots.counts=40,80",
            "--set", f"initial.bump_halfwidth={halfwidth}",
        )
        assert rc == code
        err = capsys.readouterr().err
        assert ("periodic seam" in err) == (code == cli.EXIT_CODES["config"])

    def test_missing_config_file(self, tmp_path, capsys):
        rc = self.run("solve", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path))
        assert rc == cli.EXIT_CODES["config"]

    @pytest.mark.parametrize("override", ["solver.cfl=1e-300", "solver.dt_max=1e-300"])
    def test_step_below_float_resolution_aborts(self, tmp_path, override):
        # such a run would need more than 2^52 steps; in a child process, so
        # that a hang fails the test at the timeout rather than stalling it
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rootflow.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "rootflow.cli", "solve", "--out", str(tmp_path), "--set", "grid.n=64",
             "--set", "solver.t_end=0.1", "--set", override],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == cli.EXIT_CODES["abort"]
        assert "run aborted:" in proc.stderr and "dt=" in proc.stderr and "step 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "override, code, message",
        [
            ("solver.t_end=1e15", "abort", "below one float step of stop 1e+15"),
            ("bogus.key=1", "config", "unknown config section [bogus]"),
        ],
    )
    def test_override_message(self, tmp_path, capsys, override, code, message):
        # a stop so far out that the first dt is below its float step aborts
        # at once, and an override names an unknown section as a file does
        rc = self.run("solve", "--out", str(tmp_path), "--set", "grid.n=64", "--set", override)
        assert rc == cli.EXIT_CODES[code]
        assert message in capsys.readouterr().err

    def test_step_limit_exit(self, tmp_path):
        # dt shrinks with the datum, so this one would need about 1e11 steps;
        # in a child process, so that a missed limit fails at the timeout
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rootflow.__file__))}
        argv = ["solve", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "initial.kind=constant",
                "--set", "initial.c0=2e-10", "--set", "solver.max_steps=1000"]
        timed = f"import sys, time; from rootflow import cli; t = time.perf_counter(); rc = cli.main({argv!r}); " \
                "print(time.perf_counter() - t); sys.exit(rc)"
        proc = subprocess.run([sys.executable, "-c", timed], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == cli.EXIT_CODES["max_steps"]
        assert "run aborted: step limit 1000 reached at t=" in proc.stderr and "step 1000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize(
        "command, sets",
        [
            pytest.param("roots-compare", ["grid.n=256", "roots.counts=40,80"], id="roots-compare"),
            # delta > 0 has no exact map, so the bump is solved by Heun
            pytest.param(
                "roots-compare", ["grid.n=256", "solver.delta=1e-3", "roots.counts=20,40"], id="roots-compare-delta"
            ),
            pytest.param("stability", ["grid.n=64", "solver.t_end=0.1"], id="stability"),
        ],
    )
    def test_snapshot_commands_build_no_records(self, tmp_path, capsys, monkeypatch, command, sets):
        # these commands read only snapshots, so no per-step record is built
        def no_record(*args):
            raise AssertionError(f"{command} built a per-step record")

        monkeypatch.setattr(solver, "_record", no_record)
        rc = self.run(command, "--out", str(tmp_path), *(arg for kv in sets for arg in ("--set", kv)))
        assert rc == 0
        with open(tmp_path / "summary.csv", newline="") as f:
            statuses = [row["status"] for row in csv.DictReader(f) if row["status"]]
        assert statuses and set(statuses) == {"PASS"}

    def test_non_finite_diagnostics_abort(self, tmp_path, capsys):
        # squares of data near 1e200 overflow in the seminorm and dissipation
        rc = self.run(
            "solve", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.1",
            "--set", "initial.c0=1e200", "--set", "initial.amplitude=3e199",
        )
        assert rc == cli.EXIT_CODES["abort"]
        err = capsys.readouterr().err
        assert "run aborted:" in err and "h12" in err and "step 0" in err
        assert not (tmp_path / "diagnostics.csv").exists()

    @pytest.mark.parametrize(
        "command, override",
        [("stability", "initial.amplitude=3e199"), ("solve", "initial.kind=constant")],
    )
    def test_overflowing_scale_abort(self, tmp_path, capsys, command, override):
        # u^2 + (Hu)^2 of data near 1e200 overflows and leaves no dt bound; a
        # run that builds no records, or whose records stay finite, must
        # still abort, with no warning
        rc = self.run(
            command, "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.1",
            "--set", "initial.c0=1e200", "--set", override,
        )
        assert rc == cli.EXIT_CODES["abort"]
        err = capsys.readouterr().err
        assert "run aborted: u^2 + (Hu)^2 overflows at t=0, step 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["constant", "cosine", "rough"])
    def test_non_finite_mollified_datum_abort(self, tmp_path, capsys, kind):
        # the rfft of data near 1e308 overflows: the floor check, not a
        # warning, reports the mollified datum
        rc = self.run(
            "solve", "--out", str(tmp_path), "--set", "grid.n=64", "--set", "solver.t_end=0.01",
            "--set", "initial.c0=1e308", "--set", f"initial.kind={kind}",
        )
        assert rc == cli.EXIT_CODES["abort"]
        err = capsys.readouterr().err
        assert "run aborted:" in err and "mollified initial data" in err
        assert "Traceback" not in err

    def test_scaled_datum_runs(self, tmp_path, capsys):
        # the default cosine run scaled by 2^-40, floor 0: the equation is
        # homogeneous of degree zero, so a datum of any scale must run
        rc = self.run(
            "solve", "--out", str(tmp_path), "--set", "grid.n=64",
            "--set", "initial.c0=9.094947017729282e-13", "--set", "initial.amplitude=2.7284841053187847e-13",
            "--set", "solver.t_end=9.094947017729283e-14", "--set", "solver.pos_floor=0",
        )
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err


def test_cli_imports_only_stdlib_and_numpy():
    # set-up time in the benchmark is mostly imports: a new third-party
    # import shows here before it shows there; .pth files load modules
    # before the import, so only what the import adds is checked
    code = (
        "import sys; before = set(sys.modules); import rootflow.cli; "
        "print(*sorted({m.partition('.')[0] for m in set(sys.modules) - before}))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(rootflow.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert {"numpy", "rootflow"} <= loaded
    assert loaded - sys.stdlib_module_names <= {"numpy", "rootflow"}


@st.composite
def run_settings(draw):
    """--set overrides at n <= 64 and t_end <= 0.2: every kind of datum,
    delta 0 and > 0, and one draw in eight at an extreme scale; the cosine
    amplitude is drawn relative to c0, so most data are positive."""
    extreme = draw(st.integers(0, 7)) == 0
    c0 = draw(st.sampled_from([1e-300, 1e200, 1e300]) if extreme else st.floats(1e-2, 1e2))
    return {
        "grid.n": draw(st.sampled_from([16, 32, 64])),
        "initial.kind": draw(st.sampled_from(["constant", "cosine", "rough", "bump"])),
        "initial.c0": c0,
        "initial.amplitude": draw(st.floats(0.0, 1.2)) * c0,
        "initial.mode": draw(st.integers(1, 40)),
        "initial.eta": draw(st.floats(0.01, 4.0)),
        "initial.bump_halfwidth": draw(st.floats(0.05, 3.1)),
        "initial.bump_floor": draw(st.floats(1e-4, 0.1)),
        "solver.delta": draw(st.one_of(st.just(0.0), st.floats(1e-6, 0.1))),
        "solver.t_end": draw(st.floats(0.0, 0.2)),
        "solver.cfl": draw(st.floats(0.05, 1.0)),
        "solver.seed": draw(st.integers(0, 1000)),
        "solver.max_steps": 300,  # keeps each run short; a run that needs more exits 11
        "smoothing.s": draw(st.floats(0.1, 4.0)),
        "smoothing.t_min": draw(st.floats(1e-3, 0.05)),
        "smoothing.num_snapshots": draw(st.integers(3, 8)),
    }


@pytest.mark.parametrize("command", ["solve", "sweep-delta", "smoothing", "stability", "check-operators"])
@given(sets=run_settings())
@settings(max_examples=10, deadline=None)
def test_command_ends_cleanly(command, sets):
    # every input passes or exits with a documented code and its message,
    # with no traceback or warning, and whatever is written is finite
    with tempfile.TemporaryDirectory() as out:
        argv = [a for key, value in sets.items() for a in ("--set", f"{key}={value}")]
        rc, err = run_cli(command, "--out", out, *argv)
        assert_ends_cleanly(rc, err, out)
