"""Tests of the benchmark itself, at tiny sizes: ``python3 -m pytest bench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer, count_within, summarize  # noqa: E402


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_smoke_emits_every_metric_and_nests_spans():
    out = _run(["--smoke"])
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.strip().splitlines()[-1] == "smoke ok"


def test_result_line_is_last():
    out = _run(["--workload", "desk-recovery", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "desk-recovery", "--seed", "0", "--seconds", "1",
                "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_tracer_restores_names_and_reports_absent():
    bindings = [("json", "dumps", "json.dumps"), ("json", "loads", "json.loads"),
                ("json", "no_such_function", "json.gone"),
                ("no_such_module", "f", "missing.f")]
    original = json.dumps
    tracer = Tracer(bindings)
    assert tracer.absent == ["json.gone", "missing.f"]
    tracer.install()
    try:
        json.loads(json.dumps([1]))
    finally:
        tracer.uninstall()
    assert json.dumps is original
    spans = tracer.take_spans()
    calls = summarize(spans)
    assert calls["json.dumps"]["calls"] == 1 and calls["json.loads"]["calls"] == 1
    assert count_within(spans, "json.dumps", "json.loads") == 0
