#!/usr/bin/env python3
"""moddemix benchmark: end-to-end throughput and time to solution, plus a
traced per-layer pass.

    python3 bench/run.py --workload desk-recovery --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --smoke

The benchmark is one closed-loop caller: it runs a trial, waits for the
result, then starts the next.  A *pass* is the workload's fixed set of
trials, all derived from ``--seed``; passes repeat until ``--seconds`` have
elapsed, and timings are medians over passes, paced by a reference kernel
(see `Reference`).  With ``--trace 1`` untraced
and traced passes alternate: the traced ones give the per-layer metrics and
the pair gives the tracing overhead.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with an error and prints no result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the environment and (when traced) the spans, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS: on a 2-CPU machine the default thread pool costs
# about twice the CPU time and is slower in wall time.  Must precede numpy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SUCCESS_THRESHOLD = 1e-2   # rel_err below this counts as recovered
SUCCESS_FLOOR = 0.9        # criterion-5 floor on success_frac
P90_MIN_SOLVES = 100       # p90 needs at least ten samples beyond it
REF_SHARE = 0.25           # reference kernel time after each unit, as a share of the unit
# reference kernel repetitions per second on a quiet 2.1 GHz Xeon vCPU
REF_RATE = {"desk-recovery": 10000.0, "desk-grid": 10500.0, "paper-scale": 1000.0}
WARMUP_TAG = 0x5741524D
STOP_REASONS = ("rel_err", "grad_tol", "no_decrease", "stall", "max_iters")

END_TO_END = {
    "trials_per_s": "1/s",
    "solve_s.mean": "s",
    "setup_s": "s",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}

# per-layer span totals as (metric, span name, field); times are medians
# over traced passes, counts come from one pass and must repeat exactly
SPAN_TIMES = [
    ("instances.synthesize.s", "instances.synthesize", "s"),
    ("instances.make_coding_matrix.s", "instances.make_coding_matrix", "s"),
    ("operators.operator_norm.s", "operators.operator_norm", "s"),
    ("objective.grad_total.s", "objective.grad_total", "s"),
    ("objective.loss_total.s", "objective.loss_total", "s"),
    ("objective.loss_measurement.s", "objective.loss_measurement", "s"),
    ("objective.coherences.s", "objective.coherences", "s"),
    ("solver.solve.s", "solver.solve", "s"),
    ("solver.solve.self_s", "solver.solve", "self_s"),
    ("solver.initialize.s", "solver.initialize", "s"),
    ("solver.leading_singular_triple.s", "solver.leading_singular_triple", "s"),
    ("solver.project_incoherent.s", "solver.project_incoherent", "s"),
    ("harness.run_phase_transition.s", "harness.run_phase_transition", "s"),
]
SPAN_COUNTS = [
    ("instances.relative_error.calls", "instances.relative_error"),
    ("operators.operator_norm.calls", "operators.operator_norm"),
    ("operators.forward_map.calls", "operators.forward_map"),
    ("objective.grad_total.calls", "objective.grad_total"),
    ("objective.loss_total.calls", "objective.loss_total"),
    ("objective.loss_measurement.calls", "objective.loss_measurement"),
    ("solver.project_incoherent.calls", "solver.project_incoherent"),
    ("harness.run_trial.calls", "harness.run_trial"),
]
SHARES = [
    ("share.make_coding_matrix", "instances.make_coding_matrix"),
    ("share.operator_norm", "operators.operator_norm"),
    ("share.grad_total", "objective.grad_total"),
    ("share.loss_total", "objective.loss_total"),
]
WARNINGS = {
    "solver.warn.power_iteration": "power iteration did not converge",
    "solver.warn.projection": "incoherence projection hit max_iters",
}

PER_LAYER = {
    **{metric: "s" for metric, _, _ in SPAN_TIMES},
    "harness.self_s": "s",
    **{metric: "count" for metric, _ in SPAN_COUNTS},
    "operators.fft.calls": "count",
    "operators.fft.points": "computed-points",
    "solver.iterations": "count",
    **{f"solver.stop.{r}": "count" for r in STOP_REASONS},
    "solver.loss_evals_per_iter": "1/iter",
    "solver.step_accept_ratio": "frac",
    "solver.fft_per_iter": "1/iter",
    "objective.forward_map_per_iter": "1/iter",
    **{metric: "count" for metric in WARNINGS},
    **{metric: "frac" for metric, _ in SHARES},
    "trace_overhead_frac": "frac",
}

# recorded and printed, not registered
EXTRA_UNITS = {
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "solves": "count",
    "passes": "count",
    "pace": "ratio",
    "measured.trials_per_s": "1/s",
    "measured.solve_s.mean": "s",
    "measured.setup_s": "s",
}


def import_package():
    """Import moddemix from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "moddemix" / "__init__.py").is_file():
        raise SystemExit(f"error: no moddemix sources at {SRC}; "
                         "run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import moddemix

    if Path(moddemix.__file__).resolve().parent != (SRC / "moddemix").resolve():
        raise SystemExit(f"error: imported moddemix from {moddemix.__file__}, not {SRC}")
    return moddemix


def derive_seed(seed: int, *tags: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([int(seed), *tags]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  ``grid`` is None for workloads that call
    synthesize/solve directly on ``trials`` instances of ``dims``; otherwise
    a pass is one ``run_phase_transition`` call per cell of ``grid``, and
    ``dims`` only sizes the warm-up solve and the reference kernel."""

    name: str
    why: str
    dims: object
    trials: int
    cfg: object
    grid: object = None
    success_floor: float | None = None


def make_workloads(smoke: bool = False) -> dict[str, Workload]:
    from moddemix.harness import SweepGrid
    from moddemix.operators import Dimensions
    from moddemix.solver import SolverConfig

    if smoke:
        desk, paper = Dimensions(64, 64, 4, 4, 2), Dimensions(128, 128, 4, 4, 2)
        grid = SweepGrid(L=64, N=2, K_values=(2, 4), M_values=(2, 4), trials=1)
        desk_trials, paper_trials = 2, 1
    else:
        desk, paper = Dimensions(320, 320, 8, 8, 2), Dimensions(3200, 3200, 12, 12, 2)
        grid = SweepGrid(L=320, N=2, K_values=(6, 18), M_values=(6, 18), trials=2)
        desk_trials, paper_trials = 64, 16
    workloads = [
        Workload("desk-recovery",
                 "criterion-5 regime: per-solve fixed costs (operator norm) and the "
                 "evaluation kernel both show",
                 desk, desk_trials, SolverConfig(), success_floor=SUCCESS_FLOOR),
        Workload("desk-grid",
                 "criterion-6 phase-grid slice through run_phase_transition: descent "
                 "kernel dominates, small-Q cells run to max_iters",
                 Dimensions(grid.L, grid.L, grid.M_values[0], grid.K_values[0], grid.N),
                 grid.trials, SolverConfig(max_iters=400), grid=grid),
        Workload("paper-scale",
                 "L=Q=3200: set-up (dense DCT coding matrices) and the operator norm "
                 "dominate, descent is small",
                 paper, paper_trials, SolverConfig(), success_floor=SUCCESS_FLOOR),
    ]
    return {w.name: w for w in workloads}


@dataclass
class Outcome:
    """One trial: measured set-up and solve seconds, error, iterations, stop
    reason, and the pace of the unit it ran in."""

    setup_s: float
    solve_s: float
    rel_err: float
    iterations: int
    stop: str
    pace: float = 1.0

    @property
    def failed(self) -> bool:
        return not math.isfinite(self.rel_err)

    @property
    def success(self) -> bool:
        return self.rel_err < SUCCESS_THRESHOLD

    def signature(self) -> tuple:
        return (self.iterations, self.stop, self.success)


def _failure(setup_s: float, exc: BaseException) -> Outcome:
    traceback.print_exception(exc, file=sys.stderr)
    return Outcome(setup_s, math.nan, math.inf, 0, type(exc).__name__)


def run_one_trial(w: Workload, seed: int, i: int) -> Outcome:
    from moddemix import instances, solver

    spec = instances.TrialSpec(w.dims, seed=derive_seed(seed, i))
    t0 = t1 = time.perf_counter()
    try:
        ens, truth, obs = instances.synthesize(spec)
        t1 = time.perf_counter()
        est, trace = solver.solve(ens, obs, w.cfg, truth=truth)
        t2 = time.perf_counter()
        err = instances.relative_error(est, truth)
    except Exception as exc:  # a failed trial is reported, not fatal
        return _failure(t1 - t0, exc)
    return Outcome(t1 - t0, t2 - t1, err, trace.iterations, trace.stop_reason)


class GridProbe:
    """Times the harness's own synthesize and solve calls and keeps each
    TrialRecord, by rebinding those names in ``moddemix.harness`` for the
    whole run.  This is three clock reads per trial, not tracing."""

    def __init__(self):
        self.outcomes: list[Outcome] = []
        self._times: dict[str, float] = {}
        self._saved: list[tuple] = []

    def install(self) -> None:
        from moddemix import harness

        for attr in ("synthesize", "solve"):
            self._wrap(harness, attr, self._timed(attr, getattr(harness, attr)))
        self._wrap(harness, "run_trial", self._recorded(harness.run_trial))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _timed(self, key, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._times[key] = time.perf_counter() - t0
        return wrapper

    def _recorded(self, fn):
        def wrapper(*args, **kwargs):
            self._times = {"synthesize": math.nan, "solve": math.nan}
            rec = fn(*args, **kwargs)
            solve_s = self._times["solve"] if math.isfinite(rec.rel_err) else math.nan
            self.outcomes.append(Outcome(self._times["synthesize"], solve_s,
                                         rec.rel_err, rec.iterations, rec.stop_reason))
            return rec
        return wrapper


def run_grid_call(w: Workload, seed: int, cell,
                  probe: GridProbe) -> tuple[list[Outcome], list[str]]:
    """One run_phase_transition call over one cell of the grid; returns its
    trials and any mismatch between the harness's row and its trials."""
    from moddemix import harness

    grid = dataclasses.replace(w.grid, Q_values=(cell.Q,), K_values=(cell.K,),
                               M_values=(cell.M,))
    probe.outcomes = []
    try:
        rows = harness.run_phase_transition(grid, w.cfg, workers=1,
                                            base_seed=derive_seed(seed, cell.Q, cell.K, cell.M))
    except Exception as exc:  # the trials the call did not return count as failed
        _failure(0.0, exc)
        missing = grid.trials - len(probe.outcomes)
        return probe.outcomes + [Outcome(0.0, math.nan, math.inf, 0, "error")] * missing, []
    outcomes = probe.outcomes
    problems = []
    if len(outcomes) != grid.trials or [r["trials"] for r in rows] != [grid.trials]:
        problems.append(f"harness ran {len(outcomes)} trials for {cell}, expected {grid.trials}")
    if sum(r["successes"] for r in rows) != sum(o.success for o in outcomes):
        problems.append(f"harness success count for {cell} disagrees with its trial records")
    return outcomes, problems


def warm_up(w: Workload, seed: int) -> None:
    """One discarded solve at the workload's size, so lazy set-up in numpy,
    scipy and the allocator is not timed."""
    from moddemix import instances, solver

    spec = instances.TrialSpec(w.dims, seed=derive_seed(seed, WARMUP_TAG))
    ens, truth, obs = instances.synthesize(spec)
    solver.solve(ens, obs, w.cfg, truth=truth)


# ---------------------------------------------------------------------------
# measurement


class Reference:
    """A fixed numpy kernel timed after every unit of a pass: one residual
    and gradient evaluation of the lifted model at the workload's sizes,
    written here so that no change to the package can alter it.

    On a shared 2-vCPU host (Xeon, 2.1 GHz) the speed drifts by up to 2x
    over tens of seconds as other tenants load it, and the drift hits the
    reference and the solver alike.  A unit's *pace* is the reference's
    repetition rate around it divided by its rate on a quiet host.  Reported
    times are measured times multiplied by the pace, i.e. seconds on the
    quiet host; the measured times are recorded as well.
    """

    def __init__(self, dims, rate: float):
        import numpy as np

        self.last = (0, 0.0)  # the latest slice: (reps, elapsed)

        L, M, K, N = dims.L, dims.M, dims.K, dims.N
        rng = np.random.default_rng(0)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        self._h, self._x, self._y, self._c = cplx(M, N), cplx(N, K), cplx(L), cplx(N, L, K)
        self._np = np
        # bound now, before any tracing, so the tracer never counts these
        self._fft, self._ifft = np.fft.fft, np.fft.ifft
        self.rate = rate

    def _kernel(self) -> None:
        np = self._np
        spectra = self._fft(self._h, n=self._y.size, axis=0)
        coded = np.einsum("nlk,nk->ln", self._c, np.conj(self._x))
        residual = np.sum(spectra * coded, axis=1) - self._y
        self._ifft(residual[:, None] * np.conj(coded), axis=0)
        np.einsum("nlk,ln->nk", self._c, np.conj(residual)[:, None] * spectra)
        np.vdot(residual, residual)

    def run(self, seconds: float) -> None:
        """Repeat the kernel for at least ``seconds`` as the latest slice."""
        t0 = time.perf_counter()
        reps = 0
        while True:
            self._kernel()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                self.last = (reps, elapsed)
                return

    def pace_since(self, before: tuple[int, float]) -> float:
        """Pace over the slices just before and just after a unit of work."""
        return (before[0] + self.last[0]) / (before[1] + self.last[1]) / self.rate


@dataclass
class Pass:
    """One pass: its trials, the measured seconds spent in them (reference
    slices excluded), its pace and, when traced, its per-layer numbers."""

    traced: bool
    wall: float
    outcomes: list
    pace: float
    layers: dict | None = None


def run_pass(w: Workload, seed: int, ref: Reference, tracer, probe) -> tuple[Pass, list[str]]:
    """Run every unit of the pass (a trial, or one grid call per cell), each
    followed by a reference slice; a unit's pace comes from the slices on
    either side of it."""
    units = range(w.trials) if w.grid is None else w.grid.cells()
    outcomes, problems = [], []
    wall = paced = 0.0
    for unit in units:
        before = ref.last
        t0 = time.perf_counter()
        if w.grid is None:
            if tracer is not None:
                tracer.begin_trial(unit)
            done = [run_one_trial(w, seed, unit)]
        else:
            done, bad = run_grid_call(w, seed, unit, probe)
            problems.extend(bad)
        dt = time.perf_counter() - t0
        ref.run(REF_SHARE * dt)
        pace = ref.pace_since(before)
        for o in done:
            o.pace = pace
        outcomes.extend(done)
        wall += dt
        paced += pace * dt
    return Pass(tracer is not None, wall, outcomes, paced / wall), problems


def measure(w: Workload, seed: int, seconds: float, traced: bool):
    """Run passes for ``seconds``; in a traced run every second pass is
    traced.  Returns the passes, the spans of the first traced pass, the
    absent span names and any consistency problems."""
    from tracer import Tracer

    warm_up(w, seed)
    ref = Reference(w.dims, REF_RATE[w.name])
    ref.run(0.05)
    tracer = Tracer() if traced else None
    probe = GridProbe() if w.grid is not None else None
    if probe is not None:
        probe.install()
    passes: list[Pass] = []
    problems: list[str] = []
    first_spans = None
    deadline = time.perf_counter() + seconds
    try:
        while True:
            trace_this = traced and len(passes) % 2 == 1
            if trace_this:
                tracer.install()
                fft0 = (tracer.fft_calls, tracer.fft_points)
            with warnings.catch_warnings(record=trace_this) as caught:
                if trace_this:
                    warnings.simplefilter("always")
                p, bad = run_pass(w, seed, ref, tracer if trace_this else None, probe)
            problems.extend(bad)
            if trace_this:
                tracer.uninstall()
                spans = tracer.take_spans()
                p.layers = layer_counts(spans, p.outcomes, p.wall,
                                        (tracer.fft_calls - fft0[0], tracer.fft_points - fft0[1]),
                                        [str(c.message) for c in caught])
                if first_spans is None:
                    first_spans = spans
            passes.append(p)
            if time.perf_counter() >= deadline and (not traced or len(passes) >= 2):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        if probe is not None:
            probe.uninstall()
    first = [o.signature() for o in passes[0].outcomes]
    if any([o.signature() for o in p.outcomes] != first for p in passes[1:]):
        problems.append("iterations, stop reasons or successes differ between passes "
                        "over the same instances")
    absent = tracer.absent if tracer is not None else []
    return passes, first_spans, absent, problems


def layer_counts(spans, outcomes, wall, fft, messages) -> dict:
    """Per-layer numbers of one traced pass: measured times, shares of the
    pass time, and counts."""
    from tracer import count_children, count_within, summarize

    summ = summarize(spans)

    def get(name, field):
        return summ.get(name, {}).get(field, 0)

    times = {metric: get(name, field) for metric, name, field in SPAN_TIMES}
    times["harness.self_s"] = (get("harness.run_phase_transition", "self_s")
                               + get("harness.run_trial", "self_s"))
    shares = {metric: get(name, "s") / wall for metric, name in SHARES}
    counts = {metric: get(name, "calls") for metric, name in SPAN_COUNTS}
    counts["operators.fft.calls"], counts["operators.fft.points"] = fft

    solved = [o for o in outcomes if not o.failed]
    iters = sum(o.iterations for o in solved)
    stops = {r: sum(o.stop == r for o in solved) for r in STOP_REASONS}
    loss_evals = count_children(spans, "solver.solve", "objective.loss_total")
    accepted = iters - stops["no_decrease"]
    trials_bt = loss_evals - get("solver.solve", "calls")  # minus one initial eval per solve
    descent_fft = (get("solver.solve", "fft_calls") - get("operators.operator_norm", "fft_calls")
                   - get("solver.initialize", "fft_calls"))
    fwd_in_solve = count_within(spans, "solver.solve", "operators.forward_map")
    counts["solver.iterations"] = iters
    counts.update({f"solver.stop.{r}": n for r, n in stops.items()})
    counts["solver.loss_evals_per_iter"] = loss_evals / iters if iters else 0.0
    counts["solver.step_accept_ratio"] = accepted / trials_bt if trials_bt > 0 else 0.0
    counts["solver.fft_per_iter"] = descent_fft / iters if iters else 0.0
    counts["objective.forward_map_per_iter"] = fwd_in_solve / iters if iters else 0.0
    for metric, text in WARNINGS.items():
        counts[metric] = sum(text in m for m in messages)
    return {"times": times, "shares": shares, "counts": counts}


def _throughput(passes: list[Pass], paced: bool = True) -> float:
    return statistics.median(len(p.outcomes) / (p.wall * (p.pace if paced else 1.0))
                             for p in passes)


def end_to_end(passes: list[Pass]) -> tuple[dict, dict]:
    """End-to-end metrics over untraced passes, in paced seconds, plus extras
    that are printed and recorded but not registered: the solve-time
    quantiles and the measured, unpaced timings."""
    plain = [p for p in passes if not p.traced]
    outcomes = [o for p in plain for o in p.outcomes]

    def timings(paced: bool) -> tuple[list[float], float, float]:
        def scale(o):
            return o.pace if paced else 1.0

        per_pass = [[scale(o) * o.solve_s for o in p.outcomes if math.isfinite(o.solve_s)]
                    for p in plain]
        mean = statistics.median(statistics.fmean(v) for v in per_pass if v) \
            if any(per_pass) else math.nan
        setup = statistics.median(sum(scale(o) * o.setup_s for o in p.outcomes)
                                  for p in plain)
        return sorted(t for v in per_pass for t in v), mean, setup

    solves, mean, setup = timings(paced=True)
    values = {
        "trials_per_s": _throughput(plain),
        "solve_s.mean": mean,
        "setup_s": setup,
        "success_frac": sum(o.success for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _, raw_mean, raw_setup = timings(paced=False)
    extra = {"solves": len(solves), "passes": len(plain),
             "pace": statistics.median(p.pace for p in plain)}
    if solves:
        extra["solve_s.p50"] = statistics.median(solves)
    if len(solves) >= P90_MIN_SOLVES:
        extra["solve_s.p90"] = statistics.quantiles(solves, n=10)[-1]
    extra.update({"measured.trials_per_s": _throughput(plain, paced=False),
                  "measured.solve_s.mean": raw_mean, "measured.setup_s": raw_setup})
    return values, extra


def per_layer(passes: list[Pass], problems: list[str]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    values = {k: statistics.median(p.pace * p.layers["times"][k] for p in traced)
              for k in traced[0].layers["times"]}
    values.update({k: statistics.median(p.layers["shares"][k] for p in traced)
                   for k in traced[0].layers["shares"]})
    counts = traced[0].layers["counts"]
    if any(p.layers["counts"] != counts for p in traced[1:]):
        problems.append("per-layer counts differ between traced passes over the same instances")
    values.update(counts)
    values["trace_overhead_frac"] = 1.0 - _throughput(traced) / _throughput(plain)
    return values


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_name,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full record)."""
    w = make_workloads(smoke)[workload]
    passes, spans, absent, problems = measure(w, seed, seconds, trace)
    outcomes = [o for p in passes if not p.traced for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    e2e, extra = end_to_end(passes)
    if failed:
        problems.append(f"{failed} of {attempted} trials raised or gave a non-finite error")
    if w.success_floor is not None and e2e["success_frac"] < w.success_floor:
        problems.append(f"success_frac {e2e['success_frac']:.3f} below {w.success_floor}")
    if trace:
        values = per_layer(passes, problems)
        units = PER_LAYER
    else:
        values, units = e2e, END_TO_END
    for k in units:
        if not math.isfinite(values[k]):
            problems.append(f"{k} could not be measured")
            values[k] = 0.0
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    line = {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    record = {
        "workload": workload, "why": w.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "environment": environment(),
        "problems": problems, "absent_spans": absent,
        "end_to_end": {k: {"value": v, "unit": {**END_TO_END, **EXTRA_UNITS}[k]}
                       for k, v in {**e2e, **extra}.items()},
        "passes": [{"traced": p.traced, "wall_s": p.wall, "pace": p.pace,
                    "trials": len(p.outcomes)} for p in passes],
        "trials": [vars(o) for o in passes[0].outcomes],
    }
    if trace:
        t0 = spans[0][1] if spans else 0.0
        record["per_layer"] = metrics
        record["span_fields"] = ["name", "start_s", "end_s", "parent", "trial",
                                 "fft_calls", "fft_points"]
        record["spans"] = [[n, round(a - t0, 7), round(b - t0, 7), *rest]
                           for n, a, b, *rest in spans]
    return line, record


def report(line: dict, record: dict) -> None:
    for name, m in record["end_to_end"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    if record["trace"]:
        for name, m in record["per_layer"].items():
            print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    for name in record["absent_spans"]:
        print(f"absent span: {name}")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}")
    print(json.dumps(line, allow_nan=False))


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
                      f"{'-smoke' if record['smoke'] else ''}.json")
    path.write_text(json.dumps(record))
    return path


def smoke() -> list[str]:
    """Run every workload at tiny dimensions, untraced and traced, and check
    that every registered metric is emitted with its unit and that spans
    nest.  Returns the problems found."""
    from tracer import count_within, summarize

    registered = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in registered["end_to_end"]},
                1: {m["name"]: m["unit"] for m in registered["per_layer"]}}
    problems = []
    for name in make_workloads(smoke=True):
        for trace in (0, 1):
            line, record = run(name, seed=1, seconds=0.0, trace=bool(trace), smoke=True)
            write_record(record)
            got = {k: m["unit"] for k, m in line["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{name} trace {trace}: metrics {sorted(got.items())} "
                                f"!= registered {sorted(expected[trace].items())}")
            if not line["correct"]:
                problems.extend(f"{name} trace {trace}: {p}" for p in record["problems"])
            if not trace:
                continue
            spans = record["spans"]
            calls = summarize(spans)
            nests = [("solver.solve", "objective.grad_total")]
            if name == "desk-grid":
                nests.append(("harness.run_phase_transition", "solver.solve"))
            for outer, inner in nests:
                n = calls.get(inner, {}).get("calls", 0)
                if n == 0 or count_within(spans, outer, inner) != n:
                    problems.append(f"{name}: {inner} spans not all inside {outer}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("desk-recovery", "desk-grid", "paper-scale"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="check metric emission and span nesting at tiny sizes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    import_package()
    if args.smoke:
        problems = smoke()
        for p in problems:
            print(f"SMOKE FAIL: {p}")
        print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
        return 1 if problems else 0
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(record)
    report(line, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
