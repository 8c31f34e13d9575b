"""Tests of the experiment harness (trials, sweeps, probes) and the command
line surface, including exit codes and output files."""

import argparse
import csv
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import moddemix.cli as cli
import moddemix.harness as harness
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
from moddemix.solver import NumericalFailureError, SolverConfig

EASY = Dimensions(L=64, Q=64, M=3, K=3, N=1)
TINY = ["--L", "32", "--Q", "16", "--M", "3", "--K", "2", "--N", "1"]


def _fail_solve(*args, **kwargs):
    raise NumericalFailureError("non-finite objective (nan) at the start point")


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

    def test_snr_sweep_rejects_nan_before_any_trial(self, tmp_path, monkeypatch):
        """A NaN SNR is a ValueError before any trial runs, leaving `out` as
        it was."""
        calls = []
        monkeypatch.setattr(harness, "run_trial", lambda *a: calls.append(a))
        out = tmp_path / "snr.csv"
        out.write_text("kept\n")
        with pytest.raises(ValueError, match="NaN"):
            run_snr_sweep(EASY, [20.0, math.nan], SolverConfig(max_iters=5), out=out,
                          trials=1)
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
        assert data[0] == ["t", "f_tilde", "f", "g", "rel_err", "grad_norm", "eta", "evals",
                           "scale_exponent"]
        assert len(data) == res["trace"].iterations + 2  # header + rows 0..T
        assert {row[-1] for row in data[1:]} == {str(res["trace"].scale_exponent)}

    def test_phase_keeps_rows_finished_before_a_failure(self, tmp_path, monkeypatch):
        """Rows are written as their cells end: when the third cell raises,
        the header and the first two rows are already in the file."""
        calls = []
        run_trial = harness.run_trial

        def third_cell_raises(spec, cfg, threshold):
            calls.append(spec)
            if len(calls) == 3:
                raise RuntimeError("bad trial")
            return run_trial(spec, cfg, threshold)

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
    ], ids=["phase", "scaling-K", "scaling-M", "snr", "trace"])
    def test_sweep_dimensions_checked_before_out_opens(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        """A count of 0 or codings that do not fit (K * N > Q) exit 1
        before any trial, and `out` is never created."""
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
