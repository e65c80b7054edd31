"""Tracing from outside the program: wrap the public functions of each
rootflow module, plus numpy.fft, with timers and counters.

Wrapping replaces module attributes, so it reaches every call that looks a
function up at call time: `spectral.hilbert(...)`, a bare `hilbert(...)`
inside spectral itself, and a name another module bound with
`from .spectral import hilbert` (every module namespace is patched).  A
wrapped name that a later version of the program no longer defines is
listed as absent; the run goes on and the metrics that needed it read 0.

Spans are kept in memory, aggregated per name as they close; the raw spans
of the first traced calls (up to MAX_SPANS) are kept for writing out.
"""

import functools
import inspect
import os
import time

import numpy as np
import numpy.fft

from rootflow import cli, diagnostics, dynamics, roots, solver, spectral

MODULES = {
    "spectral": spectral,
    "dynamics": dynamics,
    "solver": solver,
    "diagnostics": diagnostics,
    "roots": roots,
    "cli": cli,
}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")
REALFIELD_INIT = "spectral.RealField.__post_init__"
# private functions that carry a layer of their own
PRIVATE = ("solver._record",)
# entry points of one tendency evaluation; only the outermost call counts
TENDENCY = ("dynamics.nonlinear_tendency", "dynamics.tendency_regularized", "dynamics.tendency_flux")
# names the per-layer metrics read; any that is missing is reported absent
REQUIRED = (
    REALFIELD_INIT,
    *TENDENCY,
    "dynamics.coefficients",
    "solver.solve",
    "solver.step",
    "solver.stable_dt",
    "solver._record",
    "diagnostics.extremum_report",
    "diagnostics.energy_budget",
    "roots.derivative_roots",
    "roots.root_flow",
    "roots.wasserstein1",
    "cli.parse_config",
    "cli.apply_overrides",
    "cli.write_snapshot_csv",
    "cli.emit_diagnostics_csv",
)
CSV_WRITERS = ("cli.write_snapshot_csv", "cli.emit_diagnostics_csv")
SCOPE = "solver.solve"  # per-step ratios count only calls made inside a solve
OBSERVED = (SCOPE, "roots.wasserstein1", *CSV_WRITERS)  # their arguments are read too
MAX_SPANS = 100_000


class Stat:
    __slots__ = ("calls", "ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0


class Tracer:
    """Timers and counters around the program's functions.

    `install()` patches the modules and `uninstall()` restores them, so
    untraced rounds run the original code with no wrapper in the way.
    """

    def __init__(self):
        self.stats = {}  # name -> Stat, every call
        self.scoped = {}  # name -> Stat, calls made inside SCOPE
        self.tendency = Stat()  # outermost tendency calls
        self.absent = []
        self.spans = []  # (id, parent id, name, start ns, end ns)
        self.steps = 0  # accepted steps of every traced solve
        self.dt_min = np.inf  # smallest step not cut short by a time boundary
        self.solve_ns = 0
        self.w1_breakpoints = []
        self.csv_bytes = []
        self._stack = []  # ids of the open spans
        self._next_id = 0
        self._scope_depth = 0
        self._tendency_depth = 0
        self._patches = []
        self._wrapped = self._collect()

    # -- installing

    def _collect(self):
        """Map id(original function) -> (name, original, wrapper)."""
        found = {}

        def add(name, fn):
            found[id(fn)] = (name, fn, self._wrap(name, fn))

        for short, mod in MODULES.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or name in PRIVATE)
                ):
                    add(name, obj)
        init = getattr(getattr(spectral, "RealField", None), "__post_init__", None)
        if init is not None:
            add(REALFIELD_INIT, init)
        for attr in FFT_NAMES:
            add(f"numpy.fft.{attr}", getattr(numpy.fft, attr))
        names = {name for name, _, _ in found.values()}
        self.absent = [name for name in REQUIRED if name not in names]
        return found

    def install(self):
        owners = [*MODULES.values(), numpy.fft]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                hit = self._wrapped.get(id(obj))
                if hit is not None and hit[1] is obj:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, hit[2])
        if REALFIELD_INIT not in self.absent:
            cls = spectral.RealField
            self._patches.append((cls, "__post_init__", cls.__post_init__))
            cls.__post_init__ = self._wrapped[id(cls.__post_init__)][2]

    def uninstall(self):
        while self._patches:
            owner, attr, obj = self._patches.pop()
            setattr(owner, attr, obj)

    # -- recording

    def _wrap(self, name, fn):
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = self._next_id
        self._next_id += 1
        self._stack.append(span)
        in_scope = self._scope_depth > 0
        is_scope = name == SCOPE
        outer_tendency = name in TENDENCY and self._tendency_depth == 0
        self._scope_depth += is_scope
        self._tendency_depth += name in TENDENCY
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._scope_depth -= is_scope
            self._tendency_depth -= name in TENDENCY
            dur = t1 - t0
            stats = [self.stats.setdefault(name, Stat())]
            if in_scope:
                stats.append(self.scoped.setdefault(name, Stat()))
            if outer_tendency:
                stats.append(self.tendency)
            for st in stats:
                st.calls += 1
                st.ns += dur
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span, parent, name, t0, t1))
        if name in OBSERVED:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            self._observe(name, bound, result, t1 - t0)
        return result

    def _observe(self, name, bound, result, dur):
        """Counts that need a call's arguments or result, read by parameter
        name so that a call passing them by keyword is counted too."""
        if name == SCOPE:
            self.solve_ns += dur
            self._observe_solve(result, bound["cfg"])
        elif name == "roots.wasserstein1":
            x, r = np.asarray(bound["x"], dtype=float), bound["e"].roots
            ends = [min(x[0], r[0]), max(x[-1], r[-1])]
            self.w1_breakpoints.append(np.unique(np.concatenate([x, r, ends])).size)
        elif name in CSV_WRITERS:
            self.csv_bytes.append(os.path.getsize(bound["path"]))

    def _observe_solve(self, traj, cfg):
        boundaries = np.array([*cfg.snapshot_times, cfg.t_end])
        for r in traj.records[1:]:
            self.steps += 1
            if np.abs(boundaries - r.t).min() > 1e-11:
                self.dt_min = min(self.dt_min, r.dt)

    # -- reading

    def calls(self, *names, scoped=False):
        table = self.scoped if scoped else self.stats
        return sum(table[n].calls for n in names if n in table)

    def ns(self, *names, scoped=False):
        table = self.scoped if scoped else self.stats
        return sum(table[n].ns for n in names if n in table)

    def mean_us(self, *names):
        c = self.calls(*names)
        return self.ns(*names) / c / 1e3 if c else None

    def outside_scope_ns(self, *names):
        return self.ns(*names) - self.ns(*names, scoped=True)

    def write_spans(self, path):
        with open(path, "w") as f:
            f.write("id,parent,name,start_us,dur_us\n")
            base = self.spans[0][3] if self.spans else 0
            for sid, parent, name, t0, t1 in self.spans:
                f.write(f"{sid},{parent},{name},{(t0 - base) / 1e3:.3f},{(t1 - t0) / 1e3:.3f}\n")


def _per(value, count):
    return value / count if count else None


def layer_metrics(tr, rounds, facts):
    """Per-layer metrics from one tracer covering `rounds` traced rounds.

    `facts` holds what the benchmark's own checks measured (the oracle error
    of the root flow).  A metric whose calls never happened is None.
    """
    steps = tr.calls("solver.step", scoped=True)
    ffts = [f"numpy.fft.{a}" for a in FFT_NAMES]
    fft_calls = tr.calls(*ffts, scoped=True)
    post_ns = tr.outside_scope_ns(*(n for n in tr.stats if n.startswith("diagnostics.")))
    passes = tr.calls("roots.derivative_roots")
    configs = tr.calls("cli.parse_config")
    return {
        "spectral.fft_calls_per_step": (_per(fft_calls, steps), "1/step"),
        "spectral.fft_us_per_step": (_per(tr.ns(*ffts, scoped=True) / 1e3, steps), "us/step"),
        "spectral.realfield_inits_per_step": (
            _per(tr.calls(REALFIELD_INIT, scoped=True), steps),
            "1/step",
        ),
        "dynamics.tendency_calls": (_per(tr.tendency.calls, steps), "1/step"),
        "dynamics.tendency_us": (_per(tr.tendency.ns / 1e3, tr.tendency.calls), "us"),
        "dynamics.coefficients_us": (tr.mean_us("dynamics.coefficients"), "us"),
        "solver.step_us": (tr.mean_us("solver.step"), "us"),
        "solver.stable_dt_us": (tr.mean_us("solver.stable_dt"), "us"),
        "solver.dt_min": (tr.dt_min if np.isfinite(tr.dt_min) else None, "1"),
        "solver.steps": (_per(tr.steps, rounds) if tr.steps else None, "count"),
        "solver.steps_per_s": (_per(tr.steps, tr.solve_ns / 1e9), "steps/s"),
        "diagnostics.record_us_per_step": (tr.mean_us("solver._record"), "us/step"),
        "diagnostics.post_s": (_per(post_ns / 1e9, rounds) if post_ns else None, "s"),
        "roots.pass_ms": (_per(tr.ns("roots.derivative_roots") / 1e6, passes), "ms"),
        "roots.passes_per_s": (_per(passes, tr.ns("roots.root_flow") / 1e9), "passes/s"),
        "roots.max_err_over_gap": (facts.get("max_err_over_gap"), "1"),
        "roots.w1_ms": (_per(tr.ns("roots.wasserstein1") / 1e6, tr.calls("roots.wasserstein1")), "ms"),
        "roots.w1_breakpoints": (_per(sum(tr.w1_breakpoints), len(tr.w1_breakpoints)), "count"),
        "cli.config_ms": (_per(tr.ns("cli.parse_config", "cli.apply_overrides") / 1e6, configs), "ms"),
        "cli.csv_write_ms": (_per(tr.ns(*CSV_WRITERS) / 1e6, tr.calls(*CSV_WRITERS)), "ms"),
        "cli.csv_bytes": (_per(sum(tr.csv_bytes), len(tr.csv_bytes)), "bytes"),
    }
