"""Experiment driver: single trials, phase-transition grids, SNR sweeps,
transmitter scaling, convergence traces and numerical probes.

All runs are deterministic given the base seed: per-trial seeds are derived
by SeedSequence mixing of (base seed, cell indices, trial index), so worker
parallelism cannot change any outcome.  Results are emitted as CSV with a
header row; every row echoes the parameter tuple that produced it.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .instances import TrialSpec, make_coding_matrix, relative_error, synthesize
from .objective import PenaltyParams, coherences, grad_total, loss_total
from .operators import BlockFactorPair, Dimensions, adjoint_component, forward_map
from .solver import DivergenceError, NumericalFailureError, SolverConfig, solve

__all__ = [
    "TrialRecord",
    "SweepGrid",
    "run_trial",
    "run_phase_transition",
    "run_snr_sweep",
    "run_transmitter_sweep",
    "run_convergence_trace",
    "run_probe",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 1e-2
_ISOMETRY_GUARD = 20  # max Q*N for exhaustive sign enumeration


def _derive_seed(base: int, *idx: int) -> int:
    return int(np.random.SeedSequence([int(base), *map(int, idx)]).generate_state(1)[0])


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one synthesize -> initialize -> solve -> score run."""

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

    @staticmethod
    def fieldnames() -> list[str]:
        return ["L", "Q", "M", "K", "N", "seed", "snr_db", "iterations",
                "rel_err", "success", "wall_time", "stop_reason"]


def run_trial(spec: TrialSpec, cfg: SolverConfig | None = None,
              threshold: float = DEFAULT_THRESHOLD) -> TrialRecord:
    """Run one seeded trial; solver blow-ups are recorded, not raised."""
    cfg = cfg or SolverConfig()
    d = spec.dims
    t0 = time.perf_counter()
    ens, truth, obs = synthesize(spec)
    try:
        est, trace = solve(ens, obs, cfg, truth=truth)
        err = relative_error(est, truth)
        iters, reason = trace.iterations, trace.stop_reason
    except (DivergenceError, NumericalFailureError) as exc:
        err, iters, reason = math.inf, cfg.max_iters, type(exc).__name__
    return TrialRecord(
        L=d.L, Q=d.Q, M=d.M, K=d.K, N=d.N, seed=spec.seed, snr_db=spec.snr_db,
        iterations=iters, rel_err=err, success=err < threshold,
        wall_time=time.perf_counter() - t0, stop_reason=reason,
    )


def _trial_worker(args) -> TrialRecord:
    spec, cfg, threshold = args
    return run_trial(spec, cfg, threshold)


def _run_many(specs, cfg, threshold, workers: int = 1) -> list[TrialRecord]:
    jobs = [(s, cfg, threshold) for s in specs]
    if workers <= 1:
        return [_trial_worker(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_worker, jobs, chunksize=4))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _touch(path) -> None:
    # fail on unwritable output before any computation
    with open(path, "w", encoding="utf-8"):
        pass


@dataclass(frozen=True)
class SweepGrid:
    """Phase-transition grid: K x M cells per modulation length Q, at fixed
    L and N.  Defaults are the desk-scale grid (a 10x shrink of the full
    protocol); `paper_scale()` gives the full-size version."""

    L: int = 320
    N: int = 2
    Q_values: tuple | None = None  # None: quarters of L
    K_values: tuple = (2, 6, 10, 14, 18, 22)
    M_values: tuple = (2, 6, 10, 14, 18, 22)
    trials: int = 10
    threshold: float = DEFAULT_THRESHOLD

    @staticmethod
    def paper_scale() -> "SweepGrid":
        return SweepGrid(L=3200, Q_values=(800, 1600, 2400, 3200),
                         K_values=tuple(range(2, 25)), M_values=tuple(range(2, 25)))

    def q_values(self) -> tuple:
        if self.Q_values is not None:
            return self.Q_values
        return tuple(self.L * i // 4 for i in range(1, 5))

    def cells(self) -> list[Dimensions]:
        dims = []
        for Q in self.q_values():
            for K in self.K_values:
                for M in self.M_values:
                    dims.append(Dimensions(L=self.L, Q=Q, M=M, K=K, N=self.N))
        return dims


def run_phase_transition(grid: SweepGrid, cfg: SolverConfig | None = None,
                         out=None, base_seed: int = 0,
                         workers: int = 1) -> list[dict]:
    """Success fraction per (K, M, Q) cell.  Returns the rows and, when
    `out` is given, writes them as CSV."""
    cells = grid.cells()  # validates every cell up front
    if out is not None:
        _touch(out)
    cfg = cfg or SolverConfig(max_iters=400)
    results = []
    for ci, d in enumerate(cells):
        specs = [TrialSpec(d, seed=_derive_seed(base_seed, ci, t))
                 for t in range(grid.trials)]
        recs = _run_many(specs, cfg, grid.threshold, workers)
        errs = [r.rel_err for r in recs if math.isfinite(r.rel_err)]
        results.append({
            "K": d.K, "M": d.M, "Q": d.Q, "L": d.L, "N": d.N,
            "trials": grid.trials,
            "successes": sum(r.success for r in recs),
            "mean_error": float(np.mean(errs)) if errs else math.inf,
        })
    results.sort(key=lambda r: (r["Q"], r["K"], r["M"]))
    if out is not None:
        _write_csv(out, ["K", "M", "Q", "L", "N", "trials", "successes", "mean_error"],
                   [[r["K"], r["M"], r["Q"], r["L"], r["N"], r["trials"],
                     r["successes"], f"{r['mean_error']:.6e}"] for r in results])
    return results


def run_snr_sweep(dims: Dimensions, snr_values, cfg: SolverConfig | None = None,
                  out=None, trials: int = 10, base_seed: int = 0,
                  workers: int = 1) -> list[dict]:
    """Geometric-mean relative error per SNR point, same seeds reused across
    SNR values so the comparison is paired."""
    if out is not None:
        _touch(out)
    cfg = cfg or SolverConfig(max_iters=2000)
    rows = []
    for snr in snr_values:
        snr_db = None if snr is None or math.isinf(snr) else float(snr)
        specs = [TrialSpec(dims, seed=_derive_seed(base_seed, t), snr_db=snr_db)
                 for t in range(trials)]
        recs = _run_many(specs, cfg, DEFAULT_THRESHOLD, workers)
        logs = np.log10([max(r.rel_err, 1e-300) for r in recs])
        rows.append({
            "snr_db": math.inf if snr_db is None else snr_db,
            "L": dims.L, "Q": dims.Q, "M": dims.M, "K": dims.K, "N": dims.N,
            "trials": trials,
            "mean_rel_err": float(10.0 ** np.mean(logs)),
            "std_log10": float(np.std(logs)),
        })
    rows.sort(key=lambda r: r["snr_db"])
    if out is not None:
        _write_csv(out, ["snr_db", "L", "Q", "M", "K", "N", "trials",
                         "mean_rel_err", "std_log10"],
                   [[r["snr_db"], r["L"], r["Q"], r["M"], r["K"], r["N"],
                     r["trials"], f"{r['mean_rel_err']:.6e}",
                     f"{r['std_log10']:.4f}"] for r in rows])
    return rows


def run_transmitter_sweep(cfg: SolverConfig | None = None, out=None,
                          N_values=(1, 2, 3, 4), K: int = 4, M: int = 4,
                          L_step: int = 16, L_max: int = 1024,
                          trials: int = 10, target_successes: int = 9,
                          threshold: float = DEFAULT_THRESHOLD,
                          base_seed: int = 0, workers: int = 1) -> list[dict]:
    """Smallest L (with Q = L) reaching the success target, per transmitter
    count N, located by bisection over the L grid."""
    if out is not None:
        _touch(out)
    cfg = cfg or SolverConfig(max_iters=400)

    def succeeds(N, L) -> bool:
        d = Dimensions(L=L, Q=L, M=M, K=K, N=N)
        specs = [TrialSpec(d, seed=_derive_seed(base_seed, N, L, t))
                 for t in range(trials)]
        recs = _run_many(specs, cfg, threshold, workers)
        return sum(r.success for r in recs) >= target_successes

    rows = []
    for N in N_values:
        L_lo = max(L_step, L_step * math.ceil(max(K * N, M, K) / L_step))
        grid_pts = list(range(L_lo, L_max + 1, L_step))
        lo, hi = 0, len(grid_pts) - 1
        if not succeeds(N, grid_pts[hi]):
            rows.append({"N": N, "L_min": math.nan, "K": K, "M": M,
                         "trials": trials, "target": target_successes})
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            if succeeds(N, grid_pts[mid]):
                hi = mid
            else:
                lo = mid + 1
        rows.append({"N": N, "L_min": grid_pts[hi], "K": K, "M": M,
                     "trials": trials, "target": target_successes})
    if out is not None:
        _write_csv(out, ["N", "L_min", "K", "M", "trials", "target"],
                   [[r["N"], r["L_min"], r["K"], r["M"], r["trials"], r["target"]]
                    for r in rows])
    return rows


def run_convergence_trace(spec: TrialSpec, cfg: SolverConfig | None = None,
                          out=None) -> dict:
    """Per-iteration objective/error history of one trial."""
    if out is not None:
        _touch(out)
    cfg = cfg or SolverConfig()
    ens, truth, obs = synthesize(spec)
    est, trace = solve(ens, obs, cfg, truth=truth)
    if out is not None:
        _write_csv(out, ["t", "f_tilde", "f", "g", "rel_err", "grad_norm"],
                   [[int(t), f"{ft:.10e}", f"{f:.10e}", f"{g:.10e}",
                     f"{e:.6e}", f"{gn:.6e}"]
                    for t, ft, f, g, e, gn in zip(trace.t, trace.f_tilde, trace.f,
                                                  trace.g, trace.rel_err,
                                                  trace.grad_norm)])
    return {"rel_err": relative_error(est, truth), "trace": trace}


# ---------------------------------------------------------------------------
# numerical probes


def _probe_adjoint(dims: Dimensions, trials: int, seed: int) -> dict:
    worst = 0.0
    for t in range(trials):
        spec = TrialSpec(dims, seed=_derive_seed(seed, t))
        ens, _, _ = synthesize(spec)
        rng = np.random.default_rng(_derive_seed(seed, t, 1))
        h = rng.standard_normal((dims.N, dims.M)) + 1j * rng.standard_normal((dims.N, dims.M))
        x = rng.standard_normal((dims.N, dims.K)) + 1j * rng.standard_normal((dims.N, dims.K))
        w = rng.standard_normal(dims.L) + 1j * rng.standard_normal(dims.L)
        z = BlockFactorPair(h, x)
        lhs = np.vdot(forward_map(ens, z), w)
        rhs = sum(np.vdot(z.lifted_block(n), adjoint_component(ens, n, w))
                  for n in range(dims.N))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    return {"max_rel_mismatch": worst}


def _probe_isometry(dims: Dimensions, seed: int) -> dict:
    """Exhaustive Rademacher average of ||A(Z - Z0)||^2 over all sign
    patterns, compared against ||Z - Z0||_F^2."""
    bits = dims.Q * dims.N
    if bits > _ISOMETRY_GUARD:
        raise ValueError(
            f"exhaustive isometry needs Q*N <= {_ISOMETRY_GUARD}, got {bits}; "
            "reduce Q or N (or use the rip probe for Monte-Carlo sampling)")
    base = TrialSpec(dims, seed=seed)
    _, truth, _ = synthesize(base)
    rng = np.random.default_rng(_derive_seed(seed, 7))
    h = truth.channels + 0.3 * (rng.standard_normal((dims.N, dims.M))
                                + 1j * rng.standard_normal((dims.N, dims.M)))
    x = truth.coefficients + 0.3 * (rng.standard_normal((dims.N, dims.K))
                                    + 1j * rng.standard_normal((dims.N, dims.K)))
    coding = np.stack([make_coding_matrix(dims.Q, dims.K, n, stride=dims.N)
                       for n in range(dims.N)])
    # per-component time/spectral profiles; the map is linear in each r_n
    p = np.einsum("nqk,nk->nq", coding, x)            # C_n x_n
    p0 = np.einsum("nqk,nk->nq", coding, truth.coefficients)
    a = np.fft.fft(h, n=dims.L, axis=1) / np.sqrt(dims.L)
    a0 = np.fft.fft(truth.channels, n=dims.L, axis=1) / np.sqrt(dims.L)

    total = 0.0
    count = 1 << bits
    chunk = 4096
    shifts = np.arange(bits)
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        signs = (((idx[:, None] >> shifts) & 1) * 2.0 - 1.0)  # (bs, Q*N)
        res = np.zeros((len(idx), dims.L), dtype=complex)
        for n in range(dims.N):
            r = signs[:, n * dims.Q:(n + 1) * dims.Q]
            res += np.conj(np.fft.fft(r * p[n], n=dims.L, axis=1)) * a[n]
            res -= np.conj(np.fft.fft(r * p0[n], n=dims.L, axis=1)) * a0[n]
        total += float(np.sum(np.abs(res) ** 2))
    mean = total / count
    fro = sum(np.linalg.norm(np.outer(h[n], np.conj(x[n]))
                             - np.outer(truth.channels[n],
                                        np.conj(truth.coefficients[n]))) ** 2
              for n in range(dims.N))
    return {"mean_energy": mean, "frobenius_sq": float(fro),
            "ratio": mean / fro, "patterns": count}


def _probe_rip(dims: Dimensions, draws: int, seed: int) -> dict:
    """Monte-Carlo concentration of ||A(Z - Z0)||^2 / ||Z - Z0||_F^2 over
    random modulation draws."""
    base = TrialSpec(dims, seed=seed)
    _, truth, _ = synthesize(base)
    rng = np.random.default_rng(_derive_seed(seed, 11))
    h = truth.channels + 0.3 * (rng.standard_normal((dims.N, dims.M))
                                + 1j * rng.standard_normal((dims.N, dims.M)))
    x = truth.coefficients + 0.3 * (rng.standard_normal((dims.N, dims.K))
                                    + 1j * rng.standard_normal((dims.N, dims.K)))
    z = BlockFactorPair(h, x)
    fro = sum(np.linalg.norm(z.lifted_block(n) - truth.lifted_block(n)) ** 2
              for n in range(dims.N))
    ratios = np.empty(draws)
    for t in range(draws):
        spec = TrialSpec(dims, seed=_derive_seed(seed, 13, t))
        ens, _, _ = synthesize(spec)
        res = forward_map(ens, z) - forward_map(ens, truth)
        ratios[t] = float(np.vdot(res, res).real) / fro
    inside = float(np.mean((ratios >= 0.75) & (ratios <= 1.25)))
    return {"draws": draws, "mean_ratio": float(np.mean(ratios)),
            "fraction_within_quarter": inside,
            "min_ratio": float(np.min(ratios)), "max_ratio": float(np.max(ratios))}


def _probe_gradcheck(dims: Dimensions, trials: int, seed: int) -> dict:
    eps = 1e-5
    worst = 0.0
    for t in range(trials):
        spec = TrialSpec(dims, seed=_derive_seed(seed, t))
        ens, truth, obs = synthesize(spec)
        rep = coherences(ens, truth)
        p = PenaltyParams(rho=rep.d0**2, d=rep.d0, d_n=rep.d_n, mu=rep.mu, nu=rep.nu)
        rng = np.random.default_rng(_derive_seed(seed, t, 3))
        scale = 1.0 if t % 2 == 0 else 1.6  # odd trials push into the hinges
        h = scale * (rng.standard_normal((dims.N, dims.M))
                     + 1j * rng.standard_normal((dims.N, dims.M)))
        x = scale * (rng.standard_normal((dims.N, dims.K))
                     + 1j * rng.standard_normal((dims.N, dims.K)))
        z = BlockFactorPair(h, x)
        dh = rng.standard_normal((dims.N, dims.M)) + 1j * rng.standard_normal((dims.N, dims.M))
        dx = rng.standard_normal((dims.N, dims.K)) + 1j * rng.standard_normal((dims.N, dims.K))
        g = grad_total(ens, z, obs, p)

        def val(s):
            zz = BlockFactorPair(z.channels + s * dh, z.coefficients + s * dx)
            return loss_total(ens, zz, obs, p)

        fd = (val(eps) - val(-eps)) / (2 * eps)
        an = 2.0 * (np.vdot(g.channels, dh) + np.vdot(g.coefficients, dx)).real
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
    return {"max_rel_mismatch": worst}


def run_probe(kind: str, params: dict | None = None, out=None) -> dict:
    """Run a numerical identity probe and return (optionally JSON-dump) the
    report.  kinds: adjoint | isometry | rip | gradcheck."""
    import json

    params = dict(params or {})
    seed = int(params.pop("seed", 0))
    if kind == "adjoint":
        dims = params.pop("dims", Dimensions(L=32, Q=16, M=6, K=4, N=2))
        report = _probe_adjoint(dims, int(params.pop("trials", 100)), seed)
    elif kind == "isometry":
        dims = params.pop("dims", Dimensions(L=16, Q=8, M=3, K=2, N=2))
        report = _probe_isometry(dims, seed)
    elif kind == "rip":
        dims = params.pop("dims", Dimensions(L=256, Q=256, M=4, K=4, N=2))
        report = _probe_rip(dims, int(params.pop("draws", 500)), seed)
    elif kind == "gradcheck":
        dims = params.pop("dims", Dimensions(L=32, Q=16, M=6, K=4, N=2))
        report = _probe_gradcheck(dims, int(params.pop("trials", 50)), seed)
    else:
        raise ValueError(f"unknown probe kind {kind!r}")
    if params:
        raise ValueError(f"unused probe parameters: {sorted(params)}")
    report = {"kind": kind, "seed": seed, **report}
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
    return report
