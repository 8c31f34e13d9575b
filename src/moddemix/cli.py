"""Command-line experiment driver.

Subcommands: trial, phase, snr, scaling, trace, probe.  Exit codes:
0 success, 1 invalid arguments, 2 I/O failure, 3 numerical failure (also an
adjoint or gradcheck probe whose max_rel_mismatch is over its tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .harness import (
    PROBE_DIMS,
    SweepGrid,
    check_writable,
    run_convergence_trace,
    run_phase_transition,
    run_probe,
    run_snr_sweep,
    run_transmitter_sweep,
    run_trial,
)
from .instances import TrialSpec, snapshot_to_json, synthesize
from .operators import Dimensions
from .solver import NumericalFailureError, SolverConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

# acceptance tolerances on a probe's max_rel_mismatch (criteria 1 and 3);
# isometry and rip report statistics with no pass mark
_PROBE_TOLERANCES = {"adjoint": 1e-10, "gradcheck": 1e-6}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_dims(p, L, Q, M, K, N=2):
    p.add_argument("--L", type=int, default=L, help="sample count")
    p.add_argument("--Q", type=int, default=Q, help="modulation length")
    p.add_argument("--M", type=int, default=M, help="channel taps")
    p.add_argument("--K", type=int, default=K, help="subspace dimension")
    p.add_argument("--N", type=int, default=N, help="number of components")


def _add_seed_out(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="output CSV/JSON path")


def _add_sweep(p):
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="moddemix",
                     description="Blind deconvolution demixing experiments")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("trial", help="run one seeded trial")
    _add_dims(p, L=320, Q=320, M=8, K=8)
    p.add_argument("--max-iters", type=int, default=5000)
    _add_seed_out(p)
    p.add_argument("--snr-db", type=float, default=None)
    p.add_argument("--dump-instance", type=str, default=None,
                   help="write the instance snapshot JSON here")

    p = sub.add_parser("phase",
                       help="K vs M phase-transition grid over Q")
    p.add_argument("--max-iters", type=int, default=400)
    _add_seed_out(p)
    _add_sweep(p)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--Q-values", type=int, nargs="+", default=None)
    p.add_argument("--K-values", type=int, nargs="+", default=None)
    p.add_argument("--M-values", type=int, nargs="+", default=None)
    p.add_argument("--paper-scale", action="store_true",
                   help="full-size grid (L=3200); slow")

    p = sub.add_parser("snr", help="SNR sweep")
    _add_dims(p, L=320, Q=320, M=8, K=8)
    p.add_argument("--max-iters", type=int, default=2000)
    _add_seed_out(p)
    _add_sweep(p)
    p.add_argument("--snr-db", type=float, nargs="+",
                   default=[10.0, 20.0, 30.0, 40.0, 50.0])

    p = sub.add_parser("scaling",
                       help="minimum observations vs transmitter count")
    p.add_argument("--max-iters", type=int, default=400)
    _add_seed_out(p)
    _add_sweep(p)
    p.add_argument("--N-max", type=int, default=4)
    p.add_argument("--K", type=int, default=4)
    p.add_argument("--M", type=int, default=4)
    p.add_argument("--L-step", type=int, default=16)
    p.add_argument("--L-max", type=int, default=1024)

    p = sub.add_parser("trace",
                       help="per-iteration convergence trace")
    _add_dims(p, L=320, Q=320, M=8, K=8)
    p.add_argument("--max-iters", type=int, default=5000)
    _add_seed_out(p)
    p.add_argument("--snr-db", type=float, default=None)

    p = sub.add_parser("probe",
                       help="numerical identity probes")
    p.add_argument("kind", choices=list(PROBE_DIMS))
    _add_dims(p, L=None, Q=None, M=None, K=None, N=None)
    _add_seed_out(p)
    p.add_argument("--trials", type=int, help="adjoint and gradcheck trial count")
    p.add_argument("--draws", type=int, help="rip probe draw count")
    return parser


def _cmd_trial(args) -> int:
    dims = Dimensions(L=args.L, Q=args.Q, M=args.M, K=args.K, N=args.N)
    spec = TrialSpec(dims, seed=args.seed, snr_db=args.snr_db)
    cfg = SolverConfig(args.max_iters)
    paths = (args.out, args.dump_instance)
    if None not in paths and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ValueError("--out and --dump-instance name the same file")
    check_writable(*paths)  # --out first; each file is written once its document exists
    if args.dump_instance is not None:
        Path(args.dump_instance).write_text(snapshot_to_json(spec, *synthesize(spec)),
                                            encoding="utf-8")
    # a failed solve's rel_err is inf, which JSON (RFC 8259) has no word for
    record = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in asdict(run_trial(spec, cfg)).items()}
    text = json.dumps(record, indent=2, allow_nan=False)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return EXIT_OK


def _cmd_phase(args) -> int:
    grid = SweepGrid.paper_scale() if args.paper_scale else SweepGrid()
    grid = replace(grid, L=grid.L if args.L is None else args.L, N=args.N, trials=args.trials,
                   **{k: tuple(v) for k in ("Q_values", "K_values", "M_values")
                      if (v := getattr(args, k)) is not None})
    rows = run_phase_transition(grid, SolverConfig(args.max_iters),
                                out=args.out, base_seed=args.seed, workers=args.workers)
    print(f"phase grid: {len(rows)} cells"
          + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def _cmd_snr(args) -> int:
    dims = Dimensions(L=args.L, Q=args.Q, M=args.M, K=args.K, N=args.N)
    rows = run_snr_sweep(dims, args.snr_db, SolverConfig(args.max_iters),
                         out=args.out, trials=args.trials, base_seed=args.seed,
                         workers=args.workers)
    for r in rows:
        print(f"snr {r['snr_db']:>6} dB: mean rel err {r['mean_rel_err']:.3e}")
    return EXIT_OK


def _cmd_scaling(args) -> int:
    rows = run_transmitter_sweep(
        SolverConfig(args.max_iters), out=args.out,
        N_values=tuple(range(1, args.N_max + 1)), K=args.K, M=args.M,
        L_step=args.L_step, L_max=args.L_max, trials=args.trials,
        base_seed=args.seed, workers=args.workers)
    for r in rows:
        print(f"N={r['N']}: L_min={r['L_min']}")
    return EXIT_OK


def _cmd_trace(args) -> int:
    dims = Dimensions(L=args.L, Q=args.Q, M=args.M, K=args.K, N=args.N)
    spec = TrialSpec(dims, seed=args.seed, snr_db=args.snr_db)
    result = run_convergence_trace(spec, SolverConfig(args.max_iters), out=args.out)
    trace = result["trace"]
    print(f"final relative error {result['rel_err']:.3e} "
          f"({trace.iterations} iterations, stopped on {trace.stop_reason})")
    return EXIT_OK


def _cmd_probe(args) -> int:
    # forward only the flags given, so run_probe rejects those the kind ignores
    params = {k: v for k in ("seed", "trials", "draws") if (v := getattr(args, k)) is not None}
    dims = {k: v for k in ("L", "Q", "M", "K", "N") if (v := getattr(args, k)) is not None}
    if dims:
        params["dims"] = replace(PROBE_DIMS[args.kind], **dims)
    report = run_probe(args.kind, params, out=args.out)
    print(json.dumps(report, indent=2))
    tol = _PROBE_TOLERANCES.get(args.kind)
    if tol is not None and not report["max_rel_mismatch"] <= tol:  # NaN fails too
        print(f"moddemix: numerical failure: {args.kind} probe max_rel_mismatch "
              f"{report['max_rel_mismatch']:.3e} is over its tolerance {tol:g}",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_COMMANDS = {
    "trial": _cmd_trial,
    "phase": _cmd_phase,
    "snr": _cmd_snr,
    "scaling": _cmd_scaling,
    "trace": _cmd_trace,
    "probe": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"moddemix: invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"moddemix: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericalFailureError, FloatingPointError) as exc:
        print(f"moddemix: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
