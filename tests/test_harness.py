"""Tests of the experiment harness (trials, sweeps, probes) and the command
line surface, including exit codes and output files."""

import argparse
import csv
import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import moddemix.cli as cli
import moddemix.harness as harness
import moddemix.operators as operators
from conftest import strict_json
from moddemix.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, build_parser, main
from moddemix.harness import (
    SweepGrid,
    TrialRecord,
    run_convergence_trace,
    run_phase_transition,
    run_probe,
    run_snr_sweep,
    run_transmitter_sweep,
    run_trial,
)
from moddemix.instances import TrialSpec, snapshot_from_json, snapshot_to_json, synthesize
from moddemix.operators import Dimensions, MeasurementEnsemble, forward_map
from moddemix.solver import NumericalFailureError, SolverConfig

EASY = Dimensions(L=64, Q=64, M=3, K=3, N=1)
TINY = ["--L", "32", "--Q", "16", "--M", "3", "--K", "2", "--N", "1"]


def _fail_solve(*args, **kwargs):
    raise NumericalFailureError("non-finite objective (nan) at the start point")


# a valid command line of each subcommand (of each probe kind), at tiny sizes
_VALID_ARGV = {
    "trial": ["trial", *TINY, "--max-iters", "5"],
    "phase": ["phase", "--L", "32", "--N", "1", "--trials", "1", "--Q-values", "16",
              "--K-values", "2", "--M-values", "2", "--max-iters", "5"],
    "snr": ["snr", *TINY, "--trials", "1", "--snr-db", "20", "--max-iters", "5"],
    "scaling": ["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-step", "16",
                "--L-max", "16", "--trials", "1", "--max-iters", "5"],
    "trace": ["trace", *TINY, "--max-iters", "5"],
    **{f"probe {kind}": ["probe", kind] for kind in harness._PROBES},
}


def _count_options(argv: list[str]) -> list[str]:
    """The integer options but --seed that argv's subcommand reads: all of a
    probe's dimensions, but only its own kind's count (--trials or --draws)."""
    parser = build_parser()._subparsers._group_actions[0].choices[argv[0]]
    options = [a.option_strings[0] for a in parser._actions
               if a.type is int and a.dest != "seed"]
    if argv[0] == "probe":
        count = harness._PROBES[argv[1]][2]
        options = [o for o in options if o not in ("--trials", "--draws") or o == f"--{count}"]
    return options


def _forbid_work(monkeypatch) -> list:
    """Replace whatever runs a trial or a probe by a recorder of its calls."""
    calls = []

    def record(*args, **kwargs):
        calls.append(args)

    for module in (harness, cli):
        monkeypatch.setattr(module, "run_trial", record)
        monkeypatch.setattr(module, "synthesize", record)
    for kind, (_, *entry) in list(harness._PROBES.items()):
        monkeypatch.setitem(harness._PROBES, kind, (record, *entry))
    return calls


def _recording_namespace(reads: set) -> argparse.Namespace:
    """Namespace that adds the name of every parsed option read to reads."""

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            if name in object.__getattribute__(self, "__dict__"):
                reads.add(name)
            return object.__getattribute__(self, name)

    return Recorder()


class TestRunTrial:
    def test_success_record(self):
        rec = run_trial(TrialSpec(EASY, seed=1))
        assert rec.success
        assert rec.rel_err < 1e-2
        assert rec.stop_reason == "residual"
        assert rec.L == 64 and rec.N == 1 and rec.seed == 1

    def test_solve_sees_no_truth(self, monkeypatch):
        """The trial's solve gets the ensemble, the samples and the config
        alone; the truth only scores its estimate."""
        calls = []
        real = harness.solve

        def spy(*args, **kwargs):
            calls.append((len(args), sorted(kwargs)))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "solve", spy)
        assert run_trial(TrialSpec(EASY, seed=1)).success
        assert calls == [(3, [])]

    def test_deterministic(self):
        r1 = run_trial(TrialSpec(EASY, seed=2))
        r2 = run_trial(TrialSpec(EASY, seed=2))
        assert r1.rel_err == r2.rel_err
        assert r1.iterations == r2.iterations

    def test_numpy_scalars_are_stored_as_plain_json_types(self):
        """Dimensions, a seed and an SNR given as numpy scalars are kept as int
        and float, so the snapshot, the record and a phase row are JSON that
        reads back equal, not a TypeError from json."""
        dims = Dimensions(*map(np.int64, (32, 16, 3, 2, 2)))
        spec = TrialSpec(dims, seed=np.int64(1), snr_db=np.float32(30.0))
        assert [type(v) for v in (*vars(dims).values(), spec.seed, spec.snr_db)] == \
            [int] * 6 + [float]
        back, *_ = snapshot_from_json(snapshot_to_json(spec, *synthesize(spec)))
        assert back == spec
        rec = run_trial(spec, SolverConfig(max_iters=5))
        assert TrialRecord(**strict_json(json.dumps(dataclasses.asdict(rec)))) == rec
        grid = SweepGrid(L=np.int64(32), N=np.int64(2), Q_values=(np.int64(16),),
                         K_values=(np.int64(2),), M_values=(np.int64(3),), trials=1)
        rows = run_phase_transition(grid, SolverConfig(max_iters=5))
        assert strict_json(json.dumps(rows)) == rows

    def test_divergence_recorded_not_raised(self, monkeypatch):
        monkeypatch.setattr(harness, "solve", _fail_solve)
        rec = run_trial(TrialSpec(EASY, seed=1))
        assert not rec.success
        assert math.isinf(rec.rel_err)
        assert rec.stop_reason == "NumericalFailureError"

    def test_start_point_failure_records_no_iterations(self, monkeypatch):
        """NumericalFailureError is raised at the start point, before any
        iteration, whatever the budget."""
        monkeypatch.setattr(harness, "solve", _fail_solve)
        rec = run_trial(TrialSpec(EASY, seed=1), SolverConfig(max_iters=7))
        assert (rec.iterations, rec.stop_reason) == (0, "NumericalFailureError")

    def test_evaluations_sum_the_trace(self, monkeypatch):
        """evaluations is the seeded solve's trace.evals summed, as an int;
        a solve that raised NumericalFailureError made none."""
        traces = []
        real = harness.solve

        def spy(*args):
            est, trace = real(*args)
            traces.append(trace)
            return est, trace

        monkeypatch.setattr(harness, "solve", spy)
        rec = run_trial(TrialSpec(EASY, seed=1))
        assert type(rec.evaluations) is int
        assert rec.evaluations == traces[0].evals.sum() > rec.iterations
        monkeypatch.setattr(harness, "solve", _fail_solve)
        assert run_trial(TrialSpec(EASY, seed=1)).evaluations == 0

    def test_near_transition_solve_runs_on_to_a_success(self):
        """Criterion-6 cell Q=80, K=M=22, base seed 0, trial 3, at
        max_iters 5000: it contracts slowly near the transition, and a stop
        on the residual alone (sqrt(f) < 5e-4 ||y||) ended it at rel_err
        1.37e-2 after 1,791 iterations.  The estimated error reads the slow
        contraction, so the descent runs on to a success."""
        ci = 35
        dims = SweepGrid().cells()[ci]
        assert dims == Dimensions(L=320, Q=80, M=22, K=22, N=2)
        rec = run_trial(TrialSpec(dims, seed=harness._derive_seed(0, ci, 3)),
                        SolverConfig(max_iters=5000))
        assert rec.stop_reason == "residual" and rec.success


class TestSweeps:
    def test_phase_transition_csv(self, tmp_path):
        grid = SweepGrid(L=64, N=1, Q_values=(32, 64), K_values=(2,),
                         M_values=(2, 3), trials=2)
        out = tmp_path / "phase.csv"
        rows = run_phase_transition(grid, SolverConfig(max_iters=200), out=out)
        assert len(rows) == 4
        with open(out, newline="") as fh:
            data = list(csv.reader(fh))
        assert data[0] == ["K", "M", "Q", "L", "N", "trials", "successes",
                           "mean_error"]
        assert len(data) == 5
        # easy cells at this size all succeed
        assert all(int(r[6]) == 2 for r in data[1:])

    def test_phase_transition_deterministic_bytes(self, tmp_path):
        grid = SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,),
                         M_values=(2,), trials=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_phase_transition(grid, SolverConfig(max_iters=200), out=a)
        run_phase_transition(grid, SolverConfig(max_iters=200), out=b)
        assert a.read_bytes() == b.read_bytes()

    def test_snr_sweep_paired_and_sorted(self, tmp_path):
        out = tmp_path / "snr.csv"
        rows = run_snr_sweep(EASY, [30.0, 10.0], SolverConfig(max_iters=500),
                             out=out, trials=3)
        assert [r["snr_db"] for r in rows] == [10.0, 30.0]
        assert rows[0]["mean_rel_err"] > rows[1]["mean_rel_err"]
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "snr_db"

    def test_transmitter_sweep_finds_L(self):
        rows = run_transmitter_sweep(SolverConfig(max_iters=200), N_values=(1,),
                                     K=2, M=2, L_step=16, L_max=64, trials=3)
        assert rows[0]["N"] == 1
        assert rows[0]["L_min"] in (16, 32, 48, 64)

    def test_transmitter_sweep_bisects_to_first_passing_L(self, monkeypatch):
        """Bisection over L = 16, 32, ..., 160 finds the smallest passing L,
        also when a midpoint fails."""
        tried = []

        def fake_trial(spec, cfg):
            tried.append(spec.dims.L)
            return SimpleNamespace(success=spec.dims.L >= 96)

        monkeypatch.setattr(harness, "run_trial", fake_trial)
        rows = run_transmitter_sweep(N_values=(1,), K=2, M=2, L_step=16, L_max=160, trials=1)
        assert rows[0]["L_min"] == 96
        assert tried == [160, 80, 128, 112, 96]

    def test_phase_rejects_cell_without_coding_before_any_trial(self, tmp_path, monkeypatch):
        """Q=8 cannot hold N=2 codings of K=6 DCT columns: ValueError naming
        the cell before any trial runs or the CSV is opened."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "ph.csv"
        grid = SweepGrid(L=64, N=2, Q_values=(8, 32), K_values=(2, 6), M_values=(2,),
                         trials=1)
        with pytest.raises(ValueError, match="cell Q=8, K=6, M=2"):
            run_phase_transition(grid, SolverConfig(max_iters=5), out=out)
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("points", [[20.0, math.nan], [-math.inf, 20.0], [True, 30.0],
                                        [30.0, "30"], [1j]],
                             ids=["nan", "minus_inf", "bool", "str", "complex"])
    def test_snr_sweep_rejects_bad_point_before_any_trial(self, points, tmp_path, monkeypatch):
        """A NaN, -inf (not the noiseless point), bool (not 1 dB) or non-real
        SNR point is a ValueError before any trial runs, leaving `out` as it
        was."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "snr.csv"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match="snr_db must be above -inf and not NaN"):
            run_snr_sweep(EASY, points, SolverConfig(max_iters=5), out=out, trials=1)
        assert calls == [] and out.read_text() == "kept\n"

    def test_transmitter_sweep_unreachable_is_nan(self):
        rows = run_transmitter_sweep(SolverConfig(max_iters=5), N_values=(4,),
                                     K=8, M=8, L_step=32, L_max=32, trials=2)
        assert math.isnan(rows[0]["L_min"])

    def test_transmitter_sweep_rejects_N_without_L_before_any_trial(self, tmp_path,
                                                                   monkeypatch):
        """N=3 with K=8 needs L >= 32 > L_max: ValueError before any trial
        runs or the CSV is opened."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "scaling.csv"
        with pytest.raises(ValueError, match="N=3 needs L >= 32"):
            run_transmitter_sweep(SolverConfig(max_iters=5), out=out, N_values=(1, 2, 3),
                                  K=8, M=2, L_step=16, L_max=16, trials=1)
        assert calls == [] and not out.exists()

    def test_convergence_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_convergence_trace(TrialSpec(EASY, seed=1), out=out)
        assert res["rel_err"] < 1e-2
        with open(out, newline="") as fh:
            data = list(csv.reader(fh))
        assert data[0] == ["t", "f_tilde", "f", "g", "rel_err", "err_est", "grad_norm", "eta",
                           "evals", "scale_exponent"]
        assert len(data) == res["trace"].iterations + 2  # header + rows 0..T
        err_est = [float(row[5]) for row in data[1:]]
        np.testing.assert_allclose(err_est, res["trace"].err_est, rtol=1e-6)
        assert {row[-1] for row in data[1:]} == {str(res["trace"].scale_exponent)}

    def test_phase_keeps_rows_finished_before_a_failure(self, tmp_path, monkeypatch):
        """Rows are written as their cells end: when the third cell raises,
        the header and the first two rows are already in the file."""
        calls = []
        run_trial = harness.run_trial

        def third_cell_raises(spec, cfg):
            calls.append(spec)
            if len(calls) == 3:
                raise RuntimeError("bad trial")
            return run_trial(spec, cfg)

        monkeypatch.setattr(harness, "run_trial", third_cell_raises)
        grid = SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(2, 3, 4),
                         trials=1)
        out = tmp_path / "phase.csv"
        with pytest.raises(RuntimeError, match="bad trial"):
            run_phase_transition(grid, SolverConfig(max_iters=50), out=out)
        with open(out, newline="") as fh:
            data = list(csv.reader(fh))
        assert data[0][:3] == ["K", "M", "Q"]
        assert [r[:3] for r in data[1:]] == [["2", "2", "64"], ["2", "3", "64"]]

    def test_phase_workers_match_in_process(self, tmp_path):
        grid = SweepGrid(L=64, N=1, Q_values=(64, 32), K_values=(2,), M_values=(3, 2),
                         trials=3)
        cfg = SolverConfig(max_iters=100)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        rows = run_phase_transition(grid, cfg, out=one, workers=1)
        assert run_phase_transition(grid, cfg, out=two, workers=2) == rows
        assert two.read_bytes() == one.read_bytes()

    @pytest.mark.parametrize("cpus,workers,size", [(2, 100000, 2), (8, 3, 3), (None, 5, 1)])
    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch, cpus, workers, size):
        """A pool starts all its processes at the first submit, so it is
        sized min(workers, CPUs) (1 when the CPU count is unknown).  A fake
        executor records the size and runs the trials in-process."""
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        grid = SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(3,), trials=2)
        cfg = SolverConfig(max_iters=100)
        rows = run_phase_transition(grid, cfg, workers=workers)
        assert sizes == [size]
        assert rows == run_phase_transition(grid, cfg, workers=1)

    @pytest.mark.parametrize("run", [
        lambda out: run_snr_sweep(EASY, [20.0], trials=2.5, out=out),
        lambda out: run_snr_sweep(EASY, [20.0], trials=True, out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(2,), trials=1.5),
            out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(2,), trials=1),
            out=out, workers=1.5),
        lambda out: run_transmitter_sweep(N_values=(1,), K=2, M=2, L_max=32, trials=1.5,
                                          out=out),
        lambda out: run_transmitter_sweep(N_values=(1, 2.5), K=2, M=2, L_max=32, trials=1,
                                          out=out),
        lambda out: run_transmitter_sweep(N_values=(1,), K=2, M=2, L_max=64.0, trials=1,
                                          out=out),
        lambda out: run_probe("adjoint", {"trials": 1.5}, out=out),
        lambda out: run_probe("rip", {"draws": True}, out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(), K_values=(2,), M_values=(2,), trials=1), out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(64,), K_values=(), M_values=(2,), trials=1), out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(), trials=1), out=out),
        lambda out: run_snr_sweep(EASY, [], trials=1, out=out),
    ], ids=["snr-trials-2.5", "snr-trials-True", "phase-trials-1.5", "phase-workers-1.5",
            "scaling-trials-1.5", "scaling-N-2.5", "scaling-L_max-64.0", "probe-trials-1.5",
            "probe-draws-True", "phase-no-Q", "phase-no-K", "phase-no-M", "snr-no-point"])
    def test_count_not_an_integer_rejected_before_any_work(self, run, tmp_path,
                                                          monkeypatch):
        """Every count is checked as an integer >= 1 (a bool is not one)
        before any trial runs or `out` is opened; an empty sweep axis is a
        count of 0."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        monkeypatch.setattr(harness, "synthesize", lambda spec: calls.append(spec))
        out = tmp_path / "out"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match="must be >= 1"):
            run(out)
        assert calls == [] and out.read_text() == "kept\n"

    @pytest.mark.parametrize("run", [
        lambda out: run_probe("adjoint", {"seed": 1.5, "trials": 1}, out=out),
        lambda out: run_probe("adjoint", {"seed": True, "trials": 1}, out=out),
        lambda out: run_probe("isometry", {"seed": -1}, out=out),
        lambda out: run_phase_transition(
            SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,), M_values=(2,), trials=1),
            out=out, base_seed=1.5),
        lambda out: run_snr_sweep(EASY, [20.0], trials=1, out=out, base_seed=True),
        lambda out: run_transmitter_sweep(N_values=(1,), K=2, M=2, L_max=32, trials=1,
                                          out=out, base_seed="1"),
    ], ids=["probe-seed-1.5", "probe-seed-True", "probe-seed--1", "phase-base_seed-1.5",
            "snr-base_seed-True", "scaling-base_seed-str"])
    def test_invalid_seed_rejected_before_any_work(self, run, tmp_path, monkeypatch):
        """A seed is checked as an integer >= 0 (a bool is not one) before any
        trial runs or `out` is opened, not coerced: 1.5 and True would run as
        seed 1."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        monkeypatch.setattr(harness, "synthesize", lambda spec: calls.append(spec))
        out = tmp_path / "out"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            run(out)
        assert calls == [] and out.read_text() == "kept\n"

    def test_unwritable_output_fails_before_compute(self, tmp_path):
        grid = SweepGrid(L=64, N=1, Q_values=(64,), K_values=(2,),
                         M_values=(2,), trials=1)
        with pytest.raises(OSError):
            run_phase_transition(grid, out=tmp_path / "no" / "dir" / "x.csv")


class TestProbes:
    def test_adjoint(self):
        rep = run_probe("adjoint", {"dims": Dimensions(L=32, Q=16, M=6, K=4, N=2),
                                    "trials": 10})
        assert rep["max_rel_mismatch"] < 1e-10

    def test_gradcheck(self):
        rep = run_probe("gradcheck", {"trials": 10})
        assert rep["max_rel_mismatch"] < 1e-6

    def test_isometry_small(self):
        rep = run_probe("isometry", {"dims": Dimensions(L=16, Q=6, M=3, K=2, N=2)})
        assert rep["patterns"] == 2 ** 12
        assert rep["ratio"] == pytest.approx(1.0, abs=1e-10)

    def test_isometry_is_the_mean_over_every_ensemble(self):
        """The probe's average equals ||A_r(Z - Z0)||^2 over all 2^8 sign
        patterns, each on its own ensemble through `forward_map`."""
        dims = Dimensions(L=12, Q=4, M=3, K=2, N=2)
        ens, truth, z, fro = harness._perturbed_point(dims, 0, 7)
        total = 0.0
        for r in itertools.product((-1.0, 1.0), repeat=dims.Q * dims.N):
            ens_r = MeasurementEnsemble(dims, np.reshape(r, (dims.N, dims.Q)), ens.coding)
            res = forward_map(ens_r, z) - forward_map(ens_r, truth)
            total += np.vdot(res, res).real
        rep = run_probe("isometry", {"dims": dims})
        assert rep["patterns"] == 256 and rep["frobenius_sq"] == fro
        assert rep["mean_energy"] == pytest.approx(total / 256, rel=1e-12)

    def test_isometry_measures_the_package_map(self, monkeypatch):
        """Coded spectra 1.1x too large scale every measurement by 1.1, and
        the probe reads the squared factor."""
        spectra = operators._conj_coded_spectra
        monkeypatch.setattr(operators, "_conj_coded_spectra",
                            lambda modulated, L: 1.1 * spectra(modulated, L))
        rep = run_probe("isometry", {"dims": Dimensions(L=16, Q=6, M=3, K=2, N=2)})
        assert rep["ratio"] == pytest.approx(1.21, rel=1e-12)

    def test_isometry_guard(self, tmp_path):
        """Q*N over the guard is a ValueError before `out` is opened."""
        out = tmp_path / "iso.json"
        with pytest.raises(ValueError, match="exhaustive"):
            run_probe("isometry", {"dims": Dimensions(L=32, Q=32, M=3, K=2, N=2)}, out=out)
        assert not out.exists()

    def test_rip_concentrates(self):
        rep = run_probe("rip", {"dims": Dimensions(L=128, Q=128, M=3, K=3, N=2),
                                "draws": 50})
        assert rep["fraction_within_quarter"] > 0.9

    @pytest.mark.parametrize("kind,count", [("adjoint", "trials"), ("gradcheck", "trials"),
                                            ("rip", "draws")])
    def test_count_below_one_rejected(self, kind, count, tmp_path, monkeypatch):
        """A probe count below 1 is a ValueError before the probe runs."""
        calls = []
        monkeypatch.setattr(harness, "synthesize", lambda spec: calls.append(spec))
        out = tmp_path / "probe.json"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match=f"{count} must be >= 1"):
            run_probe(kind, {count: 0}, out=out)
        assert calls == [] and out.read_text() == "kept\n"

    def test_unwritable_output_fails_before_the_probe(self, tmp_path, monkeypatch):
        """`out` in a missing directory is an OSError before any draw."""
        calls = []
        monkeypatch.setattr(harness, "synthesize", lambda spec: calls.append(spec))
        with pytest.raises(OSError):
            run_probe("rip", {"draws": 2000}, out=tmp_path / "missing" / "r.json")
        assert calls == []

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            run_probe("nope")

    def test_unused_params_rejected(self):
        with pytest.raises(ValueError, match="unused"):
            run_probe("adjoint", {"trials": 2, "bogus": 1})

    def test_json_output(self, tmp_path):
        out = tmp_path / "probe.json"
        run_probe("adjoint", {"trials": 2}, out=out)
        doc = json.loads(out.read_text())
        assert doc["kind"] == "adjoint"


class TestCli:
    def test_trial_ok(self, capsys):
        code = main(["trial", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--seed", "1"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["success"] is True
        assert list(doc) == [f.name for f in dataclasses.fields(TrialRecord)]

    def test_trial_writes_evaluations(self, capsys):
        """`moddemix trial` writes the record's evaluations as a JSON number."""
        assert main(["trial", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--seed", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["evaluations"] == run_trial(TrialSpec(EASY, seed=1)).evaluations > 0

    def test_trial_out_is_the_printed_json(self, tmp_path, capsys):
        out = tmp_path / "trial.json"
        assert main(["trial", *TINY, "--max-iters", "5", "--out", str(out)]) == EXIT_OK
        assert out.read_text() == capsys.readouterr().out

    def test_phase_paper_scale_grid(self, monkeypatch, capsys):
        """--paper-scale runs SweepGrid.paper_scale(): 2,116 cells of 10
        trials at L=3200 (nothing is solved here)."""
        grids = []

        def capture(grid, *args, **kwargs):
            grids.append(grid)
            return []

        monkeypatch.setattr(cli, "run_phase_transition", capture)
        assert main(["phase", "--paper-scale"]) == EXIT_OK
        (grid,) = grids
        assert grid == SweepGrid.paper_scale()
        assert grid.L == 3200 and grid.q_values() == (800, 1600, 2400, 3200)
        assert (len(grid.cells()), len(grid.cells()) * grid.trials) == (2116, 21160)

    def test_trial_dump_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        code = main(["trial", "--L", "32", "--Q", "16", "--M", "3", "--K", "2",
                     "--N", "1", "--seed", "5", "--dump-instance", str(path)])
        assert code == EXIT_OK
        spec, ens, truth, obs = snapshot_from_json(path.read_text())
        assert spec.seed == 5 and spec.dims.L == 32

    def test_usage_error(self):
        assert main(["trial", "--L", "not-an-int"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main([]) == EXIT_USAGE

    def test_invalid_dimensions(self, capsys):
        assert main(["trial", "--L", "4", "--Q", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize("command", [["trace"], ["phase", "--Q-values", "16"]])
    def test_negative_seed_is_usage_error_before_output(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*command, *TINY, "--seed", "-1", "--out", str(out)]) == EXIT_USAGE
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=10, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.integers(max_value=0))
    @example(value=0)
    def test_count_at_most_zero_is_usage_error(self, value, tmp_path, monkeypatch, capsys):
        """Every count option of every subcommand and probe kind, dimensions
        included, exits 1 on a value <= 0 before any trial or probe runs,
        leaving an existing --out as it was.  Each value is tried on all 59
        command lines: about 1.5 s for the 11 values on 2 CPUs."""
        calls = _forbid_work(monkeypatch)
        out = tmp_path / "out"
        for argv in _VALID_ARGV.values():
            for option in _count_options(argv):
                out.write_text("kept\n")
                assert main([*argv, f"{option}={value}", "--out", str(out)]) == EXIT_USAGE
                assert "must be >= 1 and an integer" in capsys.readouterr().err
                assert calls == [] and out.read_text() == "kept\n", (argv, option)

    @settings(max_examples=20, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(max_value=-1))
    @example(seed=-1)
    def test_seed_below_zero_is_usage_error(self, seed, tmp_path, monkeypatch, capsys):
        """`--seed` below 0 exits 1 on every subcommand and probe kind before
        any trial or probe runs, leaving an existing --out as it was.  About
        0.5 s for the 21 seeds on 2 CPUs."""
        calls = _forbid_work(monkeypatch)
        out = tmp_path / "out"
        for argv in _VALID_ARGV.values():
            out.write_text("kept\n")
            assert main([*argv, f"--seed={seed}", "--out", str(out)]) == EXIT_USAGE
            assert f"seed must be >= 0 and an integer, got {seed}" in capsys.readouterr().err
            assert calls == [] and out.read_text() == "kept\n", argv

    @pytest.mark.parametrize("option", ["--out", "--dump-instance"])
    def test_trial_empty_path_is_io_error(self, option, capsys):
        """An empty --out or --dump-instance is no path: exit 2, as on every
        other command, not a silent exit 0 that writes nothing."""
        assert main([*_VALID_ARGV["trial"], option, ""]) == EXIT_IO
        assert "I/O failure" in capsys.readouterr().err

    def test_trial_unwritable_out_fails_before_the_trial(self, tmp_path, monkeypatch, capsys):
        """`--out` in a missing directory exits 2 before the trial runs or
        `--dump-instance` is written."""
        calls = []
        monkeypatch.setattr(cli, "run_trial", lambda *a: calls.append(a))
        inst = tmp_path / "inst.json"
        assert main([*_VALID_ARGV["trial"], "--out", str(tmp_path / "missing" / "t.json"),
                     "--dump-instance", str(inst)]) == EXIT_IO
        assert "I/O failure" in capsys.readouterr().err
        assert calls == [] and not inst.exists()

    def test_trial_unwritable_dump_keeps_out(self, tmp_path, monkeypatch, capsys):
        """`--dump-instance` in a missing directory exits 2 before any work
        and leaves an existing `--out` as it was, not emptied."""
        calls = _forbid_work(monkeypatch)
        out = tmp_path / "t.json"
        out.write_text("kept\n")
        assert main([*_VALID_ARGV["trial"], "--out", str(out),
                     "--dump-instance", str(tmp_path / "missing" / "i.json")]) == EXIT_IO
        assert "I/O failure" in capsys.readouterr().err
        assert calls == [] and out.read_text() == "kept\n"

    def test_trial_one_file_for_both_outputs_is_usage_error(self, tmp_path, monkeypatch,
                                                            capsys):
        """`--out` and `--dump-instance` naming one file, under two spellings,
        exit 1 before any work and create no file: written in turn, the
        record would follow the snapshot and leave neither valid JSON."""
        calls = _forbid_work(monkeypatch)
        assert main([*_VALID_ARGV["trial"], "--out", str(tmp_path / "t.json"),
                     "--dump-instance", f"{tmp_path}/./t.json"]) == EXIT_USAGE
        assert "name the same file" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_trial_failed_solve_is_strict_json(self, tmp_path, monkeypatch, capsys):
        """A solve that raised NumericalFailureError is recorded with
        rel_err null, not the non-JSON Infinity, in the file and on stdout."""
        monkeypatch.setattr(harness, "solve", _fail_solve)
        out = tmp_path / "trial.json"
        assert main([*_VALID_ARGV["trial"], "--out", str(out)]) == EXIT_OK
        for text in (out.read_text(), capsys.readouterr().out):
            doc = strict_json(text)
            assert doc["rel_err"] is None and doc["success"] is False
            assert doc["stop_reason"] == "NumericalFailureError"

    def test_trial_noiseless_files_are_strict_json(self, tmp_path, capsys):
        """`--snr-db inf` is noiseless, and the record and the snapshot both
        say null: neither holds Infinity, which is not JSON (RFC 8259)."""
        out, inst = tmp_path / "trial.json", tmp_path / "inst.json"
        assert main([*_VALID_ARGV["trial"], "--N", "2", "--snr-db", "inf",
                     "--out", str(out), "--dump-instance", str(inst)]) == EXIT_OK
        for path in (out, inst):
            assert strict_json(path.read_text())["snr_db"] is None

    def test_phase_cell_without_coding_is_usage_error(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "ph.csv"
        assert main(["phase", "--L", "64", "--N", "2", "--trials", "1", "--Q-values", "8", "32",
                     "--K-values", "2", "6", "--M-values", "2", "--max-iters", "5",
                     "--out", str(out)]) == EXIT_USAGE
        assert "cell Q=8, K=6, M=2" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["phase", "--L", "64", "--N", "2", "--Q-values", "8", "--K-values", "6",
         "--M-values", "2", "--trials", "1"],
        ["scaling", "--N-max", "1", "--K", "0", "--M", "2", "--L-max", "16", "--trials", "1"],
        ["scaling", "--N-max", "1", "--K", "2", "--M", "0", "--L-max", "16", "--trials", "1"],
        ["snr", "--L", "64", "--Q", "8", "--M", "2", "--K", "8", "--N", "2", "--trials", "1",
         "--snr-db", "20"],
        ["trace", "--L", "64", "--Q", "8", "--M", "2", "--K", "8", "--N", "2"],
        ["phase", "--L", "0", "--N", "2", "--Q-values", "8", "--K-values", "2",
         "--M-values", "2", "--trials", "1"],
    ], ids=["phase", "scaling-K", "scaling-M", "snr", "trace", "phase-L-0"])
    def test_sweep_dimensions_checked_before_out_opens(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        """A count of 0 (also `phase --L 0`, not the default L) or codings
        that do not fit (K * N > Q) exit 1 before any trial, and `out` is
        never created."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "f.csv"
        assert main([*argv, "--max-iters", "5", "--out", str(out)]) == EXIT_USAGE
        assert "invalid arguments" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["phase", "--L", "32", "--N", "1", "--Q-values", "16", "--K-values", "2",
         "--M-values", "2", "--trials", "-2"],
        ["phase", "--L", "32", "--N", "1", "--Q-values", "16", "--K-values", "2",
         "--M-values", "2", "--trials", "0"],
        ["snr", *TINY, "--snr-db", "20", "--trials", "0"],
        ["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-max", "16", "--trials", "0"],
        ["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-max", "16", "--L-step", "0"],
        ["scaling", "--N-max", "0", "--K", "2", "--M", "2", "--L-max", "16", "--trials", "1"],
        ["phase", "--L", "32", "--N", "1", "--Q-values", "16", "--K-values", "2",
         "--M-values", "2", "--trials", "1", "--workers", "-3"],
        ["snr", *TINY, "--snr-db", "20", "--trials", "1", "--workers", "0"],
        ["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-max", "16", "--trials", "1",
         "--workers", "0"],
    ])
    def test_sweep_count_below_one_is_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        """A count below 1 exits 1 before any trial, leaving `out` as it was."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "f.csv"
        out.write_text("kept\n")
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err
        assert calls == [] and out.read_text() == "kept\n"

    def test_scaling_target_is_ninety_percent_of_trials(self, tmp_path, monkeypatch, capsys):
        """run_transmitter_sweep defaults its target to ceil(0.9 trials), and
        `scaling` writes that default into the CSV's target column."""
        monkeypatch.setattr(harness, "run_trial", lambda *a: SimpleNamespace(success=True))
        out = tmp_path / "scaling.csv"
        seen = []
        for trials in (1, 3, 9, 10, 11, 20):
            rows = run_transmitter_sweep(N_values=(1,), K=2, M=2, L_max=32, trials=trials)
            assert main(["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-max", "32",
                         "--trials", str(trials), "--out", str(out)]) == EXIT_OK
            with open(out, newline="") as fh:
                assert [r["target"] for r in csv.DictReader(fh)] == [str(rows[0]["target"])]
            seen.append((trials, rows[0]["target"]))
        assert seen == [(1, 1), (3, 3), (9, 9), (10, 9), (11, 10), (20, 18)]

    def test_snr_nan_is_usage_error(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "f.csv"
        assert main(["snr", *TINY, "--trials", "1", "--snr-db", "20", "nan",
                     "--max-iters", "5", "--out", str(out)]) == EXIT_USAGE
        assert "NaN" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("command", ["trial", "trace"])
    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_nan_or_minus_inf_snr_is_usage_error_before_output(self, command, snr,
                                                               tmp_path, capsys):
        """`--snr-db` NaN or -inf exits 1 before `--out` is opened: a new
        file is not created and an existing one is left as it was."""
        new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
        kept.write_text("kept\n")
        for out in (new, kept):
            assert main([command, *TINY, f"--snr-db={snr}", "--max-iters", "5",
                         "--out", str(out)]) == EXIT_USAGE
            assert "snr_db must be above -inf and not NaN" in capsys.readouterr().err
        assert not new.exists() and kept.read_text() == "kept\n"

    def test_trial_coding_that_does_not_fit_is_usage_error(self, tmp_path, capsys):
        """K * N > Q exits 1 with the message every sweep gives."""
        out = tmp_path / "t.json"
        assert main(["trial", "--L", "32", "--Q", "16", "--M", "2", "--K", "9", "--N", "2",
                     "--max-iters", "5", "--out", str(out)]) == EXIT_USAGE
        assert "N=2 codings need K * N <= Q" in capsys.readouterr().err
        assert not out.exists()

    def test_scaling_without_admissible_L(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--N-max", "3", "--K", "8", "--M", "2", "--L-max", "16",
                     "--trials", "1", "--max-iters", "5", "--out", str(out)]) == EXIT_USAGE
        assert "N=3 needs L >= 32" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_io_error(self):
        code = main(["trial", "--L", "32", "--Q", "16", "--M", "2", "--K", "2",
                     "--N", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == EXIT_IO

    def test_probe_guard_maps_to_usage(self):
        assert main(["probe", "isometry", "--Q", "32", "--L", "32"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [["probe", "adjoint", "--trials", "0"],
                                      ["probe", "gradcheck", "--trials", "0"],
                                      ["probe", "rip", "--draws", "0"]])
    def test_probe_count_below_one_is_usage_error(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "must be >= 1" in capsys.readouterr().err

    def test_probe_adjoint(self, capsys):
        assert main(["probe", "adjoint", "--trials", "5"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_rel_mismatch"] < 1e-10

    @pytest.mark.parametrize("kind,tol", [("adjoint", 1e-10), ("gradcheck", 1e-6)])
    def test_probe_over_its_tolerance_is_numeric_failure(self, kind, tol, monkeypatch,
                                                         capsys):
        """adjoint and gradcheck exit 3 when max_rel_mismatch is over their
        acceptance tolerance (criteria 1 and 3) or NaN, and 0 at it; the
        report is printed either way."""
        _, dims, count, default = harness._PROBES[kind]
        for mismatch, code in [(1.0, EXIT_NUMERIC), (math.nan, EXIT_NUMERIC), (tol, EXIT_OK)]:
            monkeypatch.setitem(harness._PROBES, kind,
                                (lambda dims, seed, n, m=mismatch: {"max_rel_mismatch": m},
                                 dims, count, default))
            assert main(["probe", kind, "--trials", "1"]) == code
            out, err = capsys.readouterr()
            assert json.loads(out)["kind"] == kind
            assert ("over its tolerance" in err) == (code == EXIT_NUMERIC)

    def test_probe_isometry_defaults(self, capsys):
        """isometry runs at its own default dims (Q*N = 16), and a partial
        --Q takes the other dims from them."""
        assert main(["probe", "isometry"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["patterns"] == 2 ** 16
        assert main(["probe", "isometry", "--Q", "6"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["patterns"] == 2 ** 12

    def test_probe_rip_defaults(self, monkeypatch, capsys):
        seen = []
        synthesize = harness.synthesize
        monkeypatch.setattr(harness, "synthesize",
                            lambda spec: seen.append(spec.dims) or synthesize(spec))
        assert main(["probe", "rip", "--draws", "2"]) == EXIT_OK
        assert set(seen) == {Dimensions(L=256, Q=256, M=4, K=4, N=2)}

    @pytest.mark.parametrize("argv", [["probe", "isometry", "--trials", "3"],
                                      ["probe", "adjoint", "--draws", "3"]])
    def test_probe_rejects_flag_its_kind_ignores(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "unused probe parameters" in capsys.readouterr().err

    def test_snr_command(self, tmp_path, capsys):
        out = tmp_path / "snr.csv"
        code = main(["snr", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--trials", "2", "--snr-db", "20", "40",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_trace_command(self, tmp_path, capsys):
        """trace writes the CSV and prints the final error, the iterations
        and why the solve stopped."""
        out = tmp_path / "trace.csv"
        code = main(["trace", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("t,f_tilde")
        trace = run_convergence_trace(TrialSpec(EASY, seed=0))["trace"]
        assert (f"({trace.iterations} iterations, stopped on {trace.stop_reason})\n"
                in capsys.readouterr().out)

    def test_phase_command(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(["phase", "--L", "64", "--N", "1", "--trials", "1",
                     "--Q-values", "32", "64", "--K-values", "2",
                     "--M-values", "2", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_numeric_exit_code(self, monkeypatch):
        # a trial records a numerical failure; the trace command re-raises it
        monkeypatch.setattr(harness, "solve", _fail_solve)
        assert main(["trace", *TINY]) == EXIT_NUMERIC

    @pytest.mark.parametrize("command,runner,default", [
        ("phase", "run_phase_transition", 400),
        ("scaling", "run_transmitter_sweep", 400),
        ("snr", "run_snr_sweep", 2000),
    ])
    def test_max_iters_reaches_harness(self, monkeypatch, capsys, command, runner, default):
        seen = []

        def fake(*args, **kwargs):
            seen.extend(a.max_iters for a in args if isinstance(a, SolverConfig))
            return []

        monkeypatch.setattr(cli, runner, fake)
        assert main([command]) == EXIT_OK
        assert main([command, "--max-iters", "1000"]) == EXIT_OK
        assert seen == [default, 1000]

    def test_threshold_is_no_option(self, capsys):
        """Success is fixed at rel_err < SUCCESS_THRESHOLD; no command takes
        --threshold."""
        for command in ("trial", "phase", "scaling"):
            assert main([command, "--threshold", "0.05"]) == EXIT_USAGE
            assert "unrecognized arguments: --threshold" in capsys.readouterr().err

    def test_mu_without_nu_is_usage_error(self, capsys):
        # --mu is no flag any more (solve derives mu), so it is refused as unknown
        assert main(["trial", *TINY, "--mu", "7"]) == EXIT_USAGE

    def test_unread_flag_rejected(self, capsys):
        assert main(["trace", *TINY, "--workers", "2"]) == EXIT_USAGE
        assert main(["trace", *TINY, "--eta", "0.1"]) == EXIT_USAGE

    def test_every_flag_is_read(self, tmp_path, capsys):
        """Each subcommand reads every option it accepts (probe: over its
        adjoint and rip kinds)."""
        runs = {
            "trial": [["trial", *TINY, "--max-iters", "5",
                       "--dump-instance", str(tmp_path / "inst.json")]],
            "phase": [["phase", "--L", "32", "--N", "1", "--trials", "1", "--Q-values", "16",
                       "--K-values", "2", "--M-values", "2", "--max-iters", "5"]],
            "snr": [["snr", *TINY, "--trials", "1", "--snr-db", "20", "--max-iters", "5"]],
            "scaling": [["scaling", "--N-max", "1", "--K", "2", "--M", "2", "--L-step", "16",
                         "--L-max", "16", "--trials", "1", "--max-iters", "5"]],
            "trace": [["trace", *TINY, "--max-iters", "5"]],
            "probe": [["probe", "adjoint", "--trials", "1"], ["probe", "rip", "--draws", "2"]],
        }
        parser = build_parser()
        for command, argvs in runs.items():
            accepted, read, reads = set(), set(), set()
            for argv in argvs:
                args = parser.parse_args(argv, namespace=_recording_namespace(reads))
                accepted |= set(vars(args)) - {"command"}
                reads.clear()
                assert cli._COMMANDS[command](args) == EXIT_OK
                read |= reads
            assert accepted - read == set(), command
