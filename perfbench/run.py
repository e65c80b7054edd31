"""rootflow benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload rough_pde --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short            # every workload's checks, small sizes

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy.  Each workload is a closed batch in this process:
rounds of the same operations one after another until --seconds have
passed (the last round is finished).  BLAS/OpenMP threads are pinned to 1.

--trace 0 prints the end-to-end metrics: wall_s (median round time),
setup_s (median of several set-ups, each in a fresh process) and
peak_rss_mb.  --trace 1 alternates untraced and traced rounds and prints the
per-layer metrics of tracing.layer_metrics plus the tracing overhead.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  A results file with the same figures, the machine, the
src/ line count and the operation counts goes to perfbench/results/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"
WORKLOADS = ("rough_pde", "root_flow", "bump_compare")
SETUP_PROBES = 4  # fresh processes per run that time the set-up again
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="one small round of each workload, checks only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload is None and not args.short:
        p.error("--workload is required unless --short is given")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import rootflow from this checkout's src/ and the benchmark modules."""
    if not (SRC / "rootflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC}/rootflow")
    sys.path.insert(0, str(SRC))
    import rootflow

    if SRC not in Path(rootflow.__file__).resolve().parents:
        raise SystemExit(f"error: rootflow was imported from {rootflow.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe_times(args):
    """Time the set-up (imports, config, inputs, references) in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def check_ops(ops):
    """(correct, failed checks) over the operations that did not fail."""
    bad = [f"{op.name}: {name}" for op in ops if not op.failed for name, ok in op.checks.items() if not ok]
    return not bad, bad


def facts_of(ops):
    err = [op.facts["err_over_gap"] for op in ops if "err_over_gap" in op.facts]
    return {"max_err_over_gap": max(err)} if err else {}


def machine_info():
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def timed_rounds(round_fn, inputs, seconds, tracer=None):
    """Run whole rounds until `seconds` have passed.  With a tracer, rounds
    alternate untraced / traced and at least one of each is run."""
    untraced, traced, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.install()
        t0 = time.perf_counter()
        try:
            rounds.append(round_fn(inputs))
        finally:
            elapsed = time.perf_counter() - t0
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(elapsed)
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return untraced, traced, rounds


def idle_layer_metrics(workloads, tracing, name, seed, workdir):
    """Per-layer metrics from one short round of each other workload, for
    the layers this workload never calls (see README)."""
    probe = tracing.Tracer()
    ops = []
    for other, (setup_fn, round_fn) in workloads.WORKLOADS.items():
        if other == name:
            continue
        probe.install()
        try:
            ops += round_fn(setup_fn(seed, "short", workdir))
        finally:
            probe.uninstall()
    return tracing.layer_metrics(probe, len(workloads.WORKLOADS) - 1, facts_of(ops)), ops


def run(args, workdir):
    t0 = time.perf_counter()
    workloads = import_program()
    setup_fn, round_fn = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        inputs = setup_fn(args.seed, "full", workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [setup_s] if args.trace else [setup_s, *setup_probe_times(args)]
    untraced, traced, rounds = timed_rounds(round_fn, inputs, args.seconds, tracer)
    ops = [op for r in rounds for op in r]
    correct, bad_checks = check_ops(ops)
    failed = [op for op in ops if op.failed]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "src_lines": src_lines(),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({op.failed for op in failed})[:5],
        "failed_checks": sorted(set(bad_checks)),
        "correct": correct,
        "round_s": untraced,
        "traced_round_s": traced,
        "setup_samples_s": setup_samples,
    }
    steps = sorted({sum(op.facts.get("steps", 0) for op in r) for r in rounds})
    if steps != [0]:
        record["pde_steps_per_round"] = steps  # one value when every round took the same steps

    if args.trace:
        layer = tracing.layer_metrics(tracer, len(traced), facts_of(ops))
        idle = [k for k, (v, _) in layer.items() if v is None]
        if idle:
            probe, probe_ops = idle_layer_metrics(workloads, tracing, args.workload, args.seed, workdir)
            for k in idle:
                layer[k] = probe[k]
            record["probe_failures"] = sorted({op.failed for op in probe_ops if op.failed})
        traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
        layer["trace.wall_s"] = (traced_s, "s")
        layer["trace.untraced_wall_s"] = (untraced_s, "s")
        layer["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
        metrics = {k: {"value": float(v) if v is not None else 0.0, "unit": u} for k, (v, u) in layer.items()}
        record["idle_layer_metrics_from_short_rounds"] = idle
        record["absent"] = tracer.absent
    else:
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    record["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}.spans.csv")

    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
        f"{len(ops)} operations, {len(failed)} failed, src/ {record['src_lines']} lines"
    )
    for line in record["failures"] + record["failed_checks"]:
        print(f"  {line.strip()}")
    for name in record.get("absent", []):
        print(f"  absent: {name}")
    if record.get("idle_layer_metrics_from_short_rounds"):
        print("  from short rounds of the other workloads (layers this workload never calls): "
              + ", ".join(record["idle_layer_metrics_from_short_rounds"]))
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_short(args, workdir):
    """One small round of each workload with every check: a quick self-test."""
    workloads = import_program()
    ok = True
    for name in [args.workload] if args.workload else WORKLOADS:
        setup_fn, round_fn = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        ops = round_fn(setup_fn(args.seed, "short", workdir))
        correct, bad = check_ops(ops)
        failed = [op for op in ops if op.failed]
        ok = ok and correct and not failed
        status = "PASS" if correct and not failed else "FAIL"
        print(f"{status} {name}: {len(ops)} operations, {len(failed)} failed, {time.perf_counter() - t0:.2f} s")
        for line in [op.failed for op in failed] + bad:
            print(f"  {line.strip()}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload or 'short'}-", dir=WORK)
    try:
        return run_short(args, workdir) if args.short else run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
