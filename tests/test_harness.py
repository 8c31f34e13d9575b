"""Tests of the experiment harness (trials, sweeps, probes) and the command
line surface, including exit codes and output files."""

import argparse
import csv
import dataclasses
import json
import math

import numpy as np
import pytest

import moddemix.cli as cli
import moddemix.solver as solver_module
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
from moddemix.instances import TrialSpec, snapshot_from_json
from moddemix.operators import Dimensions
from moddemix.solver import SolverConfig

EASY = Dimensions(L=64, Q=64, M=3, K=3, N=1)
TINY = ["--L", "32", "--Q", "16", "--M", "3", "--K", "2", "--N", "1"]


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
        assert rec.stop_reason == "rel_err"
        assert rec.L == 64 and rec.N == 1 and rec.seed == 1

    def test_deterministic(self):
        r1 = run_trial(TrialSpec(EASY, seed=2))
        r2 = run_trial(TrialSpec(EASY, seed=2))
        assert r1.rel_err == r2.rel_err
        assert r1.iterations == r2.iterations

    def test_divergence_recorded_not_raised(self):
        rec = run_trial(TrialSpec(EASY, seed=1), SolverConfig(eta=50.0))
        assert not rec.success
        assert math.isinf(rec.rel_err)
        assert rec.stop_reason == "DivergenceError"

    def test_row_matches_fieldnames(self):
        """fieldnames() names every field of the record, in order."""
        assert TrialRecord.fieldnames() == [f.name for f in dataclasses.fields(TrialRecord)]


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
                                     K=2, M=2, L_step=16, L_max=64, trials=3,
                                     target_successes=3)
        assert rows[0]["N"] == 1
        assert rows[0]["L_min"] in (16, 32, 48, 64)

    def test_transmitter_sweep_unreachable_is_nan(self):
        rows = run_transmitter_sweep(SolverConfig(max_iters=5), N_values=(4,),
                                     K=8, M=8, L_step=32, L_max=32, trials=2,
                                     target_successes=2)
        assert math.isnan(rows[0]["L_min"])

    def test_convergence_trace_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_convergence_trace(TrialSpec(EASY, seed=1), out=out)
        assert res["rel_err"] < 1e-2
        with open(out, newline="") as fh:
            data = list(csv.reader(fh))
        assert data[0] == ["t", "f_tilde", "f", "g", "rel_err", "grad_norm"]
        assert len(data) == res["trace"].iterations + 2  # header + rows 0..T

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

    def test_isometry_guard(self):
        with pytest.raises(ValueError, match="exhaustive"):
            run_probe("isometry", {"dims": Dimensions(L=32, Q=32, M=3, K=2, N=2)})

    def test_rip_concentrates(self):
        rep = run_probe("rip", {"dims": Dimensions(L=128, Q=128, M=3, K=3, N=2),
                                "draws": 50})
        assert rep["fraction_within_quarter"] > 0.9

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

    def test_io_error(self):
        code = main(["trial", "--L", "32", "--Q", "16", "--M", "2", "--K", "2",
                     "--N", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == EXIT_IO

    def test_probe_guard_maps_to_usage(self):
        assert main(["probe", "isometry", "--Q", "32", "--L", "32"]) == EXIT_USAGE

    def test_probe_adjoint(self, capsys):
        assert main(["probe", "adjoint", "--trials", "5"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_rel_mismatch"] < 1e-10

    def test_snr_command(self, tmp_path, capsys):
        out = tmp_path / "snr.csv"
        code = main(["snr", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--trials", "2", "--snr-db", "20", "40",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_trace_command(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["trace", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().startswith("t,f_tilde")

    def test_phase_command(self, tmp_path):
        out = tmp_path / "phase.csv"
        code = main(["phase", "--L", "64", "--N", "1", "--trials", "1",
                     "--Q-values", "32", "64", "--K-values", "2",
                     "--M-values", "2", "3", "--out", str(out)])
        assert code == EXIT_OK
        assert out.exists()

    def test_numeric_exit_code(self):
        # a wildly large fixed step diverges; the trial records it, so force
        # the failure through the trace command which re-raises
        code = main(["trace", "--L", "64", "--Q", "64", "--M", "3", "--K", "3",
                     "--N", "1", "--eta", "50.0"])
        assert code == EXIT_NUMERIC

    def test_mu_nu_override_truth(self, monkeypatch, capsys):
        seen = []
        initialize = solver_module.initialize

        def spy(ens, y_hat, mu, nu):
            seen.append((mu, nu))
            return initialize(ens, y_hat, mu, nu)

        monkeypatch.setattr(solver_module, "initialize", spy)
        code = main(["trial", *TINY, "--mu", "7", "--nu", "7", "--max-iters", "5"])
        assert code == EXIT_OK
        assert seen == [(7.0, 7.0)]

    def test_mu_without_nu_is_usage_error(self, capsys):
        assert main(["trial", *TINY, "--mu", "7"]) == EXIT_USAGE

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

    def test_unread_flag_rejected(self, capsys):
        assert main(["trace", *TINY, "--workers", "2"]) == EXIT_USAGE

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
