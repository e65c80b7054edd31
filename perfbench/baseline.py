"""Re-measure the single-run baseline rows of ROADMAP.md on this machine.

    python3 perfbench/baseline.py            # about a minute; the n=800 root flow takes ~16 s

Each row is the median of REPEATS runs (perf_counter), the n=800 root flow
one run.  FFT counts come from one traced run.  Prints a Markdown table for
perfbench/README.md.
"""

import os
import statistics
import time

from run import THREAD_VARS, import_program

REPEATS = 5


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def main():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_program()
    import numpy as np
    from scipy import special

    import tracing
    from rootflow import cli, dynamics, roots, solver
    from rootflow.spectral import PeriodicGrid

    rows = []
    for n, delta in ((512, 0.0), (2048, 0.0), (2048, 1e-3)):
        u0 = solver.rough_initial_data(PeriodicGrid(n), seed=0)
        cfg = solver.SolverConfig(delta=delta, t_end=1.0, cfl=0.4)
        s, traj = timed(lambda: solver.solve(u0, cfg), REPEATS)
        steps = len(traj.records) - 1
        tr = tracing.Tracer()
        tr.install()
        try:
            solver.solve(u0, cfg)
        finally:
            tr.uninstall()
        ffts = tr.calls(*(f"numpy.fft.{a}" for a in tracing.FFT_NAMES), scoped=True)
        rows.append(
            (
                f"`solve`, rough seed 0, n={n}, t=1, delta={delta:g}, cfl=0.4",
                f"{steps} steps, {s:.3f} s, {1e6 * s / steps:.0f} µs/step, {ffts / steps:.1f} FFTs/step",
            )
        )
    u = solver.rough_initial_data(PeriodicGrid(512), seed=0)
    s, _ = timed(lambda: [dynamics.tendency_flux(u) for _ in range(100)], REPEATS)
    rows.append(("`tendency_flux`, n=512", f"{1e4 * s:.0f} µs per call"))
    for n in (200, 400, 800):
        e = roots.RootEnsemble(special.roots_hermite(n)[0], n0=n)
        s, _ = timed(lambda: roots.root_flow(e, 0.3), 1 if n == 800 else REPEATS)
        rows.append((f"root flow to t=0.3 from the roots of H_{n}", f"{s:.2f} s"))
    cfg = cli.parse_config("[grid]\nn = 512\n[initial]\nkind = bump\n")
    u0 = cli.build_initial(cfg)
    scfg = cli.solver_config(cfg, t_end=0.3, pos_floor=cfg["initial"]["bump_floor"] / 2)
    s, traj = timed(lambda: solver.solve(u0, scfg), REPEATS)
    rows.append(("bump solve of roots-compare, n=512, t=0.3", f"{len(traj.records) - 1} steps, {s:.2f} s"))
    print("| what | value |\n|---|---|")
    for what, value in rows:
        print(f"| {what} | {value} |")
    print(f"\nnumpy {np.__version__}, median of {REPEATS} runs")


if __name__ == "__main__":
    main()
