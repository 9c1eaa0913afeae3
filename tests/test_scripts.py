"""The scripts under scripts/ run end to end on the current library API."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_certify_fixtures_certifies_every_fixture():
    proc = run_script("certify_fixtures.py")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == 15
    for row in rows:
        assert row.split()[2] == "yes", row


def test_spacing_sweep_runs():
    # the sweep exits 1 unless the circulant decision is uniform iff beta == 1
    proc = run_script("spacing_sweep.py", "--max-a", "3", "--max-beta", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "largest |measured - predicted|" in proc.stdout
    rows = [line.split() for line in proc.stdout.splitlines()[2:] if line.startswith("(")]
    assert len(rows) == 6
    for row in rows:
        beta = int(row[0].strip("()").split(",")[2])
        assert row[3] == ("yes" if beta == 1 else "no"), row


def test_parity_corpus_prints_one_line_per_run():
    proc = run_script("parity_corpus.py")
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(lines) == 215
    assert len({(line["input"], line["route"]) for line in lines}) == 215
    runs = [line for line in lines if line["route"] != "exact"]
    assert len(runs) == 155
    assert sum(run["upst"] is True for run in runs) == 142
    exact = [line for line in lines if line["route"] == "exact"]
    assert len(exact) == 60
    assert sum(line["exact_lambdas"] is None for line in exact) == 1
