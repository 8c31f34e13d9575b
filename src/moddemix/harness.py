"""Experiment driver: single trials, phase-transition grids, SNR sweeps,
transmitter scaling, convergence traces and numerical probes.

All runs are deterministic given the base seed: per-trial seeds are derived
by SeedSequence mixing of (base seed, cell indices, trial index), so worker
parallelism cannot change any outcome.  Results are emitted as CSV with a
header row; every row echoes the parameter tuple that produced it.

Each sweep writes its CSV through `_csv_rows`, which opens `out` before any
work and flushes every row as it completes, so a failing sweep keeps its
finished rows; `_trial_runner` runs its trials in-process, or with
`workers > 1` on one process pool for the whole sweep, of at most one
process per CPU.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from bisect import bisect_left
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from .instances import TrialSpec, _complex_normal, relative_error, synthesize
from .objective import PenaltyParams, coherences, grad_total, loss_total
from .operators import (BlockFactorPair, Dimensions, MeasurementEnsemble, adjoint_component,
                        check_counts, check_seeds, forward_map)
from .solver import NumericalFailureError, SolverConfig, solve

__all__ = [
    "TrialRecord",
    "SweepGrid",
    "run_trial",
    "run_phase_transition",
    "run_snr_sweep",
    "run_transmitter_sweep",
    "run_convergence_trace",
    "run_probe",
    "SUCCESS_THRESHOLD",
    "PROBE_DIMS",
]

SUCCESS_THRESHOLD = 1e-2  # a trial succeeds when its relative error is below this
_ISOMETRY_GUARD = 20  # max Q*N for exhaustive sign enumeration


def _derive_seed(base: int, *idx: int) -> int:
    """Trial seed from a checked base seed and loop indices."""
    return int(np.random.SeedSequence([base, *idx]).generate_state(1)[0])


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one synthesize -> solve -> score run; evaluations sums the
    solve's trace.evals (0 when the solve failed)."""

    L: int
    Q: int
    M: int
    K: int
    N: int
    seed: int
    snr_db: float | None
    iterations: int
    rel_err: float
    success: bool
    wall_time: float
    stop_reason: str
    evaluations: int


def run_trial(spec: TrialSpec, cfg: SolverConfig | None = None) -> TrialRecord:
    """Run one seeded trial; a numerical failure is recorded, not raised.  The
    truth scores the blind solve's estimate once: success is an error below SUCCESS_THRESHOLD."""
    cfg = cfg or SolverConfig()
    d = spec.dims
    t0 = time.perf_counter()
    ens, truth, obs = synthesize(spec)
    try:
        est, trace = solve(ens, obs, cfg)
        err = relative_error(est, truth)
        iters, reason, evals = trace.iterations, trace.stop_reason, int(trace.evals.sum())
    except NumericalFailureError as exc:
        err, iters, reason, evals = math.inf, 0, type(exc).__name__, 0
    return TrialRecord(
        L=d.L, Q=d.Q, M=d.M, K=d.K, N=d.N, seed=spec.seed, snr_db=spec.snr_db,
        iterations=iters, rel_err=err, success=err < SUCCESS_THRESHOLD,
        wall_time=time.perf_counter() - t0, stop_reason=reason, evaluations=evals,
    )


def check_writable(*paths) -> None:
    """Open each path but None to append, and close it: OSError if one cannot be written."""
    for path in (p for p in paths if p is not None):
        open(path, "a", encoding="utf-8").close()


@contextmanager
def _csv_rows(out, header: list[str], formats: dict[str, str]):
    """Yield emit(values), which returns the row dict {header: values} and,
    with `out`, writes the row (spec from `formats`, else csv's own) and
    flushes.  The header goes first, so an unwritable `out` fails early."""
    if out is None:
        yield lambda values: dict(zip(header, values))
        return
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)

        def emit(values) -> dict:
            row = dict(zip(header, values))
            writer.writerow([format(v, formats[c]) if c in formats else v
                             for c, v in row.items()])
            fh.flush()
            return row

        yield emit


@contextmanager
def _trial_runner(cfg: SolverConfig, workers: int):
    """Yield run(specs): an iterator of TrialRecords in spec order, each
    yielded once it and all before it are done.  In-process, `run_trial` is
    looked up per call, so a rebinding of `harness.run_trial` takes effect.
    The pool has at most one process per CPU: it starts them all at once."""
    if workers == 1:
        yield lambda specs: (run_trial(s, cfg) for s in specs)
        return
    pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))
    try:
        yield lambda specs: pool.map(run_trial, specs, repeat(cfg), chunksize=4)
    finally:  # a failed sweep drops the trials that have not started
        pool.shutdown(cancel_futures=True)


@dataclass(frozen=True)
class SweepGrid:
    """Phase-transition grid: K x M cells per modulation length Q, at fixed
    L and N, with `trials` seeds per cell, each a success when its relative
    error is below SUCCESS_THRESHOLD.  Defaults are the desk-scale grid (a
    10x shrink of the full protocol); `paper_scale()` gives the full-size
    version."""

    L: int = 320
    N: int = 2
    Q_values: tuple | None = None  # None: quarters of L
    K_values: tuple = (2, 6, 10, 14, 18, 22)
    M_values: tuple = (2, 6, 10, 14, 18, 22)
    trials: int = 10

    @staticmethod
    def paper_scale() -> "SweepGrid":
        return SweepGrid(L=3200, Q_values=(800, 1600, 2400, 3200),
                         K_values=tuple(range(2, 25)), M_values=tuple(range(2, 25)))

    def q_values(self) -> tuple:
        if self.Q_values is not None:
            return self.Q_values
        return tuple(self.L * i // 4 for i in range(1, 5))

    def cells(self) -> list[Dimensions]:
        """Every cell, in (Q, K, M) grid order; raises ValueError naming the
        first cell `Dimensions` rejects (such as K * N > Q)."""
        try:
            return [Dimensions(L=self.L, Q=Q, M=M, K=K, N=self.N)
                    for Q in self.q_values() for K in self.K_values for M in self.M_values]
        except ValueError as exc:
            raise ValueError(f"cell {exc}") from None


def run_phase_transition(grid: SweepGrid, cfg: SolverConfig | None = None,
                         out=None, base_seed: int = 0,
                         workers: int = 1) -> list[dict]:
    """Success fraction per (K, M, Q) cell, in (Q, K, M) order.  Returns the
    rows and, when `out` is given, writes each as CSV when its cell ends;
    an empty Q, K or M axis is a ValueError before `out` is opened."""
    trials = check_counts(trials=grid.trials, workers=workers, Q_values=len(grid.q_values()),
                          K_values=len(grid.K_values), M_values=len(grid.M_values))[0]
    check_seeds(base_seed=base_seed)
    cells = grid.cells()  # validates every cell up front
    # a cell's seeds derive from its index in grid.cells(), not its run order
    order = sorted(range(len(cells)), key=lambda ci: (cells[ci].Q, cells[ci].K, cells[ci].M))
    header = ["K", "M", "Q", "L", "N", "trials", "successes", "mean_error"]
    rows = []
    with _csv_rows(out, header, {"mean_error": ".6e"}) as emit, \
            _trial_runner(cfg or SolverConfig(max_iters=400), workers) as run:
        records = run(TrialSpec(cells[ci], seed=_derive_seed(base_seed, ci, t))
                      for ci in order for t in range(trials))
        for ci in order:
            d = cells[ci]
            recs = list(islice(records, trials))
            errs = [r.rel_err for r in recs if math.isfinite(r.rel_err)]
            rows.append(emit((d.K, d.M, d.Q, d.L, d.N, trials,
                              sum(r.success for r in recs),
                              float(np.mean(errs)) if errs else math.inf)))
    return rows


def run_snr_sweep(dims: Dimensions, snr_values, cfg: SolverConfig | None = None,
                  out=None, trials: int = 10, base_seed: int = 0,
                  workers: int = 1) -> list[dict]:
    """Geometric-mean relative error per SNR point, in ascending SNR order
    with the noiseless point (None or inf) last.  The same seeds are reused
    across SNR values so the comparison is paired; a failed trial gives its
    point mean_rel_err inf and std_log10 NaN.  A point `TrialSpec` rejects
    (NaN, -inf, a bool, a non-real) or no point at all is a ValueError
    before any trial."""
    check_seeds(base_seed=base_seed)
    checked = [TrialSpec(dims, base_seed, s).snr_db for s in snr_values]
    trials = check_counts(trials=trials, workers=workers, snr_values=len(checked))[0]
    points = sorted(math.inf if s is None else s for s in checked)
    specs = [TrialSpec(dims, seed=_derive_seed(base_seed, t), snr_db=snr_db)
             for snr_db in points for t in range(trials)]
    header = ["snr_db", "L", "Q", "M", "K", "N", "trials", "mean_rel_err", "std_log10"]
    rows = []
    with _csv_rows(out, header, {"mean_rel_err": ".6e", "std_log10": ".4f"}) as emit, \
            _trial_runner(cfg or SolverConfig(max_iters=2000), workers) as run:
        records = run(specs)
        for snr_db in points:
            logs = np.log10([max(r.rel_err, 1e-300) for r in islice(records, trials)])
            std = float(np.std(logs)) if np.all(np.isfinite(logs)) else math.nan
            rows.append(emit((snr_db, dims.L, dims.Q, dims.M, dims.K, dims.N, trials,
                              float(10.0 ** np.mean(logs)), std)))
    return rows


def run_transmitter_sweep(cfg: SolverConfig | None = None, out=None,
                          N_values=(1, 2, 3, 4), K: int = 4, M: int = 4,
                          L_step: int = 16, L_max: int = 1024,
                          trials: int = 10, base_seed: int = 0,
                          workers: int = 1) -> list[dict]:
    """Smallest L (with Q = L) at which at least ceil(0.9 trials) trials
    succeed (relative error below SUCCESS_THRESHOLD), per transmitter count
    N, located by bisection over the L grid (nan when even L_max falls
    short).  Raises ValueError before any trial for a count that is not an
    integer >= 1 (K, M, each N, trials, L_step, L_max, workers), no N at all, a
    base_seed that is not an integer >= 0, or when some N admits no L up to
    L_max."""
    trials, *_, K, M, _ = check_counts(trials=trials, L_step=L_step, L_max=L_max, workers=workers,
                                       K=K, M=M, N_values=len(N_values))
    check_seeds(base_seed=base_seed)
    grids = []  # (N, admissible L values); the coding needs Q = L >= K * N
    for N in N_values:
        [N] = check_counts(N=N)
        L_lo = max(L_step, L_step * math.ceil(max(K * N, M) / L_step))
        if L_lo > L_max:
            raise ValueError(f"N={N} needs L >= {L_lo}, above L_max={L_max}")
        grids.append((N, list(range(L_lo, L_max + 1, L_step))))
    target = (9 * trials + 9) // 10
    header = ["N", "L_min", "K", "M", "trials", "target"]
    rows = []
    with _csv_rows(out, header, {}) as emit, \
            _trial_runner(cfg or SolverConfig(max_iters=400), workers) as run:

        def succeeds(N, L) -> bool:
            d = Dimensions(L=L, Q=L, M=M, K=K, N=N)
            recs = run(TrialSpec(d, seed=_derive_seed(base_seed, N, L, t))
                       for t in range(trials))
            return sum(r.success for r in recs) >= target

        for N, grid_pts in grids:
            top = len(grid_pts) - 1
            L_min = (grid_pts[bisect_left(grid_pts, True, hi=top, key=lambda L: succeeds(N, L))]
                     if succeeds(N, grid_pts[top]) else math.nan)
            rows.append(emit((N, L_min, K, M, trials, target)))
    return rows


def run_convergence_trace(spec: TrialSpec, cfg: SolverConfig | None = None,
                          out=None) -> dict:
    """Per-iteration history of one trial: `SolveTrace`'s columns and scale_exponent."""
    header = ["t", "f_tilde", "f", "g", "rel_err", "err_est", "grad_norm", "eta", "evals",
              "scale_exponent"]
    formats = {"f_tilde": ".10e", "f": ".10e", "g": ".10e",
               "rel_err": ".6e", "err_est": ".6e", "grad_norm": ".6e", "eta": ".6e"}
    check_writable(out)
    ens, truth, obs = synthesize(spec)
    est, trace = solve(ens, obs, cfg or SolverConfig(), truth=truth)
    with _csv_rows(out, header, formats) as emit:
        for row in zip(trace.t, trace.f_tilde, trace.f, trace.g, trace.rel_err,
                       trace.err_est, trace.grad_norm, trace.eta, trace.evals):
            emit((*row, trace.scale_exponent))
    return {"rel_err": relative_error(est, truth), "trace": trace}


# ---------------------------------------------------------------------------
# numerical probes

def _perturbed_point(dims: Dimensions, seed: int, tag: int):
    """Seed's ensemble, truth Z0, Z = Z0 + 0.3 complex noise (stream `tag`), ||Z - Z0||_F^2."""
    ens, truth, _ = synthesize(TrialSpec(dims, seed=seed))
    rng = np.random.default_rng(_derive_seed(seed, tag))
    z = BlockFactorPair(truth.channels + 0.3 * _complex_normal(rng, dims.N, dims.M),
                        truth.coefficients + 0.3 * _complex_normal(rng, dims.N, dims.K))
    fro = sum(np.linalg.norm(z.lifted_block(n) - truth.lifted_block(n)) ** 2
              for n in range(dims.N))
    return ens, truth, z, fro


def _probe_adjoint(dims: Dimensions, seed: int, trials: int) -> dict:
    worst = 0.0
    for t in range(trials):
        ens, _, _ = synthesize(TrialSpec(dims, seed=_derive_seed(seed, t)))
        rng = np.random.default_rng(_derive_seed(seed, t, 1))
        z = BlockFactorPair(_complex_normal(rng, dims.N, dims.M),
                            _complex_normal(rng, dims.N, dims.K))
        w = _complex_normal(rng, dims.L)
        lhs = np.vdot(forward_map(ens, z), w)
        rhs = sum(np.vdot(z.lifted_block(n), adjoint_component(ens, n, w))
                  for n in range(dims.N))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return {"max_rel_mismatch": worst}


def _probe_isometry(dims: Dimensions, seed: int) -> dict:
    """Exhaustive Rademacher average of `forward_map`'s ||A_r(Z - Z0)||^2 over
    all 2^(Q*N) sign patterns r, against ||Z - Z0||_F^2.  The residual D(r) =
    A_r(Z) - A_r(Z0) is linear in r: D(r) = r @ V, with the rows V_j =
    (D(1) - D(1 - 2 e_j)) / 2 taken from 1 + Q*N ensembles."""
    bits = dims.Q * dims.N  # at most _ISOMETRY_GUARD, checked by run_probe
    ens, truth, z, fro = _perturbed_point(dims, seed, 7)
    flips = np.vstack([np.ones(bits), 1.0 - 2.0 * np.eye(bits)])  # r = 1, then 1 - 2 e_j
    ensembles = [MeasurementEnsemble(dims, r.reshape(dims.N, dims.Q), ens.coding) for r in flips]
    residuals = np.stack([forward_map(e, z) - forward_map(e, truth) for e in ensembles])
    rows = (residuals[0] - residuals[1:]) / 2.0

    total = 0.0
    count = 1 << bits
    chunk = 4096
    shifts = np.arange(bits)
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        signs = (((idx[:, None] >> shifts) & 1) * 2.0 - 1.0)  # (bs, Q*N)
        total += float(np.sum(np.abs(signs @ rows) ** 2))
    mean = total / count
    return {"mean_energy": mean, "frobenius_sq": float(fro),
            "ratio": mean / fro, "patterns": count}


def _probe_rip(dims: Dimensions, seed: int, draws: int) -> dict:
    """Monte-Carlo concentration of ||A(Z - Z0)||^2 / ||Z - Z0||_F^2 over
    random modulation draws."""
    _, truth, z, fro = _perturbed_point(dims, seed, 11)
    ratios = np.empty(draws)
    for t in range(draws):
        ens, _, _ = synthesize(TrialSpec(dims, seed=_derive_seed(seed, 13, t)))
        res = forward_map(ens, z) - forward_map(ens, truth)
        ratios[t] = float(np.vdot(res, res).real) / fro
    inside = float(np.mean((ratios >= 0.75) & (ratios <= 1.25)))
    return {"draws": draws, "mean_ratio": float(np.mean(ratios)),
            "fraction_within_quarter": inside,
            "min_ratio": float(np.min(ratios)), "max_ratio": float(np.max(ratios))}


def _probe_gradcheck(dims: Dimensions, seed: int, trials: int) -> dict:
    eps = 1e-5
    worst = 0.0
    for t in range(trials):
        ens, truth, obs = synthesize(TrialSpec(dims, seed=_derive_seed(seed, t)))
        rep = coherences(ens, truth)
        p = PenaltyParams(rho=rep.d0**2, d=rep.d0, d_n=rep.d_n, mu=rep.mu, nu=rep.nu)
        rng = np.random.default_rng(_derive_seed(seed, t, 3))
        scale = 1.0 if t % 2 == 0 else 1.6  # odd trials push into the hinges
        z = BlockFactorPair(scale * _complex_normal(rng, dims.N, dims.M),
                            scale * _complex_normal(rng, dims.N, dims.K))
        dh, dx = _complex_normal(rng, dims.N, dims.M), _complex_normal(rng, dims.N, dims.K)
        g = grad_total(ens, z, obs, p)

        def val(s):
            zz = BlockFactorPair(z.channels + s * dh, z.coefficients + s * dx)
            return loss_total(ens, zz, obs, p)

        fd = (val(eps) - val(-eps)) / (2 * eps)
        an = 2.0 * (np.vdot(g.channels, dh) + np.vdot(g.coefficients, dx)).real
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    return {"max_rel_mismatch": worst}


# per kind: the probe, its default dims, and the count it reads with its default
_PROBES = {
    "adjoint": (_probe_adjoint, Dimensions(L=32, Q=16, M=6, K=4, N=2), "trials", 100),
    "isometry": (_probe_isometry, Dimensions(L=16, Q=8, M=3, K=2, N=2), None, None),
    "rip": (_probe_rip, Dimensions(L=256, Q=256, M=4, K=4, N=2), "draws", 500),
    "gradcheck": (_probe_gradcheck, Dimensions(L=32, Q=16, M=6, K=4, N=2), "trials", 50),
}
PROBE_DIMS = {kind: entry[1] for kind, entry in _PROBES.items()}


def run_probe(kind: str, params: dict | None = None, out=None) -> dict:
    """Run a numerical identity probe and return (optionally JSON-dump) the
    report.  kinds: adjoint | isometry | rip | gradcheck.  params: `dims`,
    `seed` and the kind's count (`trials` or `draws`), defaults per kind in
    `_PROBES`; any other key, a count that is not an integer >= 1, a seed
    that is not an integer >= 0 or an isometry over its Q*N guard is
    rejected before `out` is checked, `out` is checked before the probe
    runs, and written once it is done."""
    if kind not in _PROBES:
        raise ValueError(f"unknown probe kind {kind!r}")
    probe, dims, count, default = _PROBES[kind]
    params = dict(params or {})
    seed = params.pop("seed", 0)
    dims = params.pop("dims", dims)
    counts = {} if count is None else {count: params.pop(count, default)}
    if params:
        raise ValueError(f"unused probe parameters: {sorted(params)}")
    check_counts(**counts)
    check_seeds(seed=seed)
    if kind == "isometry" and dims.Q * dims.N > _ISOMETRY_GUARD:
        raise ValueError(
            f"exhaustive isometry needs Q*N <= {_ISOMETRY_GUARD}, got {dims.Q * dims.N}; "
            "reduce Q or N (or use the rip probe for Monte-Carlo sampling)")
    seed = int(seed)  # exact once checked, and json writes no numpy integer
    check_writable(out)
    report = {"kind": kind, "seed": seed, **probe(dims, seed, *counts.values())}
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2), encoding="utf-8")
    return report
