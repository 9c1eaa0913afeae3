"""Smoke test of the benchmark at its shortest length (--seconds 1).

Run from the root of a checkout: python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from upst import cli, spectra, walk  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_printed(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        pattern = r"^%s\s+\S+ %s$" % (re.escape(name), re.escape(unit))
        assert any(re.match(pattern, line) for line in lines), name


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_end_to_end_metrics_printed(workload):
    lines, result = _run(workload, 0)
    _assert_printed(lines, result, BENCHMARK["end_to_end"])
    assert any(re.match(r"^fail_ratio\s+\S+ 1\s", line) for line in lines)
    assert any(line.startswith("graph_s_tail  p") for line in lines)
    assert result["correct"] is True


def test_per_layer_metrics_printed():
    lines, result = _run("cli_circulant", 1)
    _assert_printed(lines, result, BENCHMARK["per_layer"])
    assert any(line.startswith("tracing overhead") for line in lines)
    assert "absent functions  none" in lines
    assert result["metrics"]["serialize.bytes"]["value"] > 0


def _first_round(workload):
    import numpy as np

    return workload.round_inputs(np.random.default_rng(3))


def test_corrupted_cli_output_is_a_failure(monkeypatch, tmp_path):
    # Three significant digits in the times CSV break its agreement with the
    # analytic times: every graph must count as failed.
    monkeypatch.setattr(cli, "FLOAT_FMT", "%.3g")
    workload = wl.WORKLOADS["cli_circulant"]
    ctx = wl.Context(workdir=str(tmp_path), meter=speed.Meter())
    for item in _first_round(workload)[:3]:
        _, _, problem = workload.run(item, ctx)
        assert problem is not None, item.label


def test_corrupted_report_is_a_failure(monkeypatch):
    real = walk.verify_upst

    def skewed(graph, es, *args, **kwargs):
        report = real(graph, es, *args, **kwargs)
        report.analytic_times = report.analytic_times + 1e-6
        return report

    monkeypatch.setattr(walk, "verify_upst", skewed)
    workload = wl.WORKLOADS["flat_ladder"]
    item = next(i for i in _first_round(workload) if i.label == "flat(2,2,3)")
    _, _, problem = workload.run(item, wl.Context(workdir=".", meter=speed.Meter()))
    assert problem and "differ" in problem


def test_corrupted_spectrum_is_a_failure(monkeypatch):
    real = spectra.circulant_eigensystem

    def off_by_one(spec):
        es = real(spec)
        lam = (es.exact_lambdas[0] + 1,) + es.exact_lambdas[1:]
        return spectra.EigenSystem(n=es.n, X=es.X, lambdas=es.lambdas, exact_lambdas=lam)

    monkeypatch.setattr(spectra, "circulant_eigensystem", off_by_one)
    workload = wl.WORKLOADS["exact_census"]
    ctx = wl.Context(workdir=".", meter=speed.Meter())
    for item in _first_round(workload)[:5]:
        _, _, problem = workload.run(item, ctx)
        assert problem is not None, item.label


def test_failures_are_counted_not_dropped(monkeypatch, capsys):
    monkeypatch.setattr(cli, "FLOAT_FMT", "%.3g")
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, run.BLAS_THREADS)
    assert run.main(["--workload", "cli_circulant", "--seed", "3", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
