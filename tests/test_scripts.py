"""The scripts under scripts/ run end to end on the current library API."""

import hashlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERDICTS = ROOT / "tests" / "data" / "parity_verdicts.jsonl"


def load_script(name):
    """scripts/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


VERDICT_FIELDS = load_script("parity_compare").VERDICT_FIELDS


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


def test_scan_ladder_runs_the_small_rungs():
    # flat(8,8,2) and the four circulants: about 1.6 s with one timed run each,
    # the wide circulants scanning one curve per generator class
    start = time.perf_counter()
    proc = run_script("scan_ladder.py", "--max-n", "64", "--repeat", "1")
    assert time.perf_counter() - start < 3
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [
        ["flat(8,8,2)", "64"], ["circulant_c(3,[0,0,2000])", "3"],
        ["wide(6)", "6"], ["wide(11)", "11"], ["wide(12)", "12"]]
    for name, n, grid, chunk, products, newton, classes, faults, best, median in rows:
        assert int(grid) > 0 and int(products) > 0 and int(newton) > 0 and int(faults) >= 0
        assert 1 <= int(chunk) <= math.isqrt(int(grid) + 1) + 1
        assert 1 <= int(classes) <= int(n) ** 2
        if not name.startswith("flat"):
            # generator keys: one scanned curve per class of (a_v - a_u) mod n
            assert int(classes) == int(n)
        assert 0 < float(best) <= float(median)


def test_scan_ladder_runs_the_wide_circulants_on_eigh():
    # --eigh adds wide(n)/eigh: numerical_eigensystem's X carries no
    # exponents, and the row solve's generators still give n classes
    proc = run_script("scan_ladder.py", "--max-n", "6", "--repeat", "1", "--eigh")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["circulant_c(3,[0,0,2000])", "wide(6)", "wide(6)/eigh"]
    for name, n, grid, chunk, products, newton, classes, faults, best, median in rows:
        assert int(classes) == int(n), name


def test_exact_ladder_runs_the_small_rungs():
    start = time.perf_counter()
    proc = run_script("exact_ladder.py", "--max-n", "32", "--repeat", "1")
    assert time.perf_counter() - start < 3
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [(row[0], row[5]) for row in rows] == [("16", "3x5"), ("32", "3x11")]
    for row in rows:
        assert all(float(x) > 0 for x in row[1:5] + row[6:]), row


def test_generate_digest_prints_one_digest_per_bundle():
    start = time.perf_counter()
    proc = run_script("generate_digest.py")
    assert time.perf_counter() - start < 3
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert len(rows) == 18 and all(len(row) == 2 for row in rows)
    assert [name for name, _ in rows[:3]] == ["circ3", "circ3+1000000000", "circ3+7/3"]
    assert len({name for name, _ in rows}) == len({digest for _, digest in rows}) == 18
    assert all(len(digest) == 64 and int(digest, 16) >= 0 for _, digest in rows)


@pytest.fixture(scope="module")
def parity_output():
    """The lines parity_corpus.py prints, from one run shared by this module."""
    proc = run_script("parity_corpus.py")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def verdict_line(text):
    """A parity_corpus.py line as tests/data/parity_verdicts.jsonl holds it:
    input and route, then parity_compare.VERDICT_FIELDS for a run, or the
    sha256 of the whole line for an exact line."""
    line = json.loads(text)
    out = {"input": line["input"], "route": line["route"]}
    if line["route"] == "exact":
        out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    else:
        out.update((field, line[field]) for field in VERDICT_FIELDS)
    return json.dumps(out)


def test_parity_corpus_matches_the_committed_verdicts(parity_output):
    # every line, not totals: a True -> False on one input and a False -> True
    # on another keep every count the same; a verdict change edits the file
    committed = VERDICTS.read_text().splitlines()
    projected = [verdict_line(text) for text in parity_output]
    assert len(projected) == len(committed)
    differ = [(old, new) for old, new in zip(committed, projected) if old != new]
    assert differ == [], "%d of %d lines differ" % (len(differ), len(committed))


def test_parity_corpus_prints_one_line_per_run(parity_output):
    lines = [json.loads(line) for line in parity_output]
    assert len(lines) == 228
    assert len({(line["input"], line["route"]) for line in lines}) == 228
    runs = [line for line in lines if line["route"] != "exact"]
    assert len(runs) == 165
    assert sum(run["upst"] is True for run in runs) == 153
    # the scaled float inputs come last and all certify
    assert [run["upst"] for run in runs[-8:]] == [True] * 8
    exact = [line for line in lines if line["route"] == "exact"]
    assert len(exact) == 63
    # irrational: Circ(0, -i, i) and the conductor-3 spec at L = 12, twice
    assert sum(line["exact_lambdas"] is None for line in exact) == 3
    # the offset is recorded where it is not 0: the shifted nondense(2,3),
    # the scalar spectrum and the two conductor-3 specs
    assert sum("offset" in line for line in exact) == 10
    forms = [line["form"] for line in exact]
    assert sum(isinstance(form, dict) for form in forms) == 60
    assert forms.count("eigenvalues must be distinct") == 1


def parity_lines():
    """A verdict line and an exact line in parity_corpus.py's format."""
    run = {"input": "flat(2,2,2)", "route": "given", "upst": True, "reasons": [],
           "circulant_timing": False, "dense": None, "spacing_order": [0, 2, 1, 3],
           "classes": 4, "members": 12, "grid_points": 35,
           "row_residual_max": float.hex(1e-16),
           "analytic_times": [float.hex(6.0), float.hex(1.5)],
           "min_times": [float.hex(6.0), float.hex(1.5), "nan"],
           "phases_re": [float.hex(0.5)], "phases_im": [float.hex(-0.5)]}
    exact = {"input": "nondense(2,3)", "route": "exact", "spec_sha256": "ab12",
             "exact_lambdas": ["1/2", "3/1"], "lambdas": [float.hex(0.5), float.hex(3.0)]}
    return [run, exact]


def compare(tmp_path, old, new):
    paths = []
    for name, lines in (("a", old), ("b", new)):
        paths.append(tmp_path / name)
        paths[-1].write_text("".join(json.dumps(line) + "\n" for line in lines))
    proc = run_script("parity_compare.py", *map(str, paths))
    lines = proc.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("field"))
    rows = {line.split()[0]: line.split()[1:] for line in lines[header + 1:]}
    return proc.returncode, rows, [line.split(": ", 1)[1] for line in lines[1:header]]


def test_parity_compare_passes_a_file_against_itself(tmp_path):
    code, rows, names = compare(tmp_path, parity_lines(), parity_lines())
    assert code == 0
    assert names == []
    assert rows["min_times"] == ["0", "0"]
    assert all(row[0] == "0" for row in rows.values())


def test_parity_compare_passes_and_measures_a_last_bit_change(tmp_path):
    new = parity_lines()
    new[0]["min_times"][1] = float.hex(math.nextafter(1.5, 2))
    code, rows, _ = compare(tmp_path, parity_lines(), new)
    assert code == 0
    assert rows["min_times"] == ["1", "%.3g" % 2.0**-52]
    assert rows["upst"] == ["0", "0"]


def test_parity_compare_fails_on_a_flipped_verdict_or_any_exact_change(tmp_path):
    new = parity_lines()
    new[0]["upst"] = False
    code, rows, _ = compare(tmp_path, parity_lines(), new)
    assert code == 1
    assert rows["upst"] == ["1", "-"]
    new = parity_lines()
    new[1]["lambdas"][0] = float.hex(math.nextafter(0.5, 1))
    assert compare(tmp_path, parity_lines(), new)[0] == 1
    new = parity_lines()
    new[0]["min_times"][2] = float.hex(1.0)
    code, rows, _ = compare(tmp_path, parity_lines(), new)
    assert code == 0
    assert rows["min_times"] == ["1", "inf"]


def test_parity_compare_names_every_differing_exact_line(tmp_path):
    old = parity_lines() + [dict(parity_lines()[1], input="circulant_c(8,past-int64)")]
    new = [dict(line) for line in old]
    new[1]["form"] = "eigenvalues must be distinct"
    new[2]["form"] = {"q": 1}
    code, rows, names = compare(tmp_path, old, new)
    assert code == 1
    assert names == ["nondense(2,3)", "circulant_c(8,past-int64)"]
    assert rows["form"] == ["2", "-"]


# per end-to-end metric of BENCHMARK.json: parent and change values of four
# seeded pairs, the change's wins and the verdict
CANNED = {
    "graphs_per_s": ([100, 102, 98, 101], [110, 102, 97, 111], 2, "within bound"),
    "graph_s_p50": ([1.0, 1.02, 0.98, 1.01], [0.5, 0.6, 0.55, 0.52], 4, "better"),
    "graph_s_tail": ([1.0, 1.0, 1.0, 1.0], [1.3, 1.3, 1.3, 1.0], 0, "worse than bound"),
    "setup_s": ([1.0, 2.0, 1.0, 2.0], [1.5, 1.5, 1.5, 1.5], 2, "unresolved"),
    "peak_rss_mb": ([40.0, 40.0, 40.0, 40.0], [40.0, 40.0, 40.0, 40.0], 0, "within bound"),
}


def canned_runs(change_failed=0):
    runs = []
    for i in range(4):
        for side in ("parent", "change"):
            values = {name: {"value": v[side == "change"][i], "unit": "-"}
                      for name, v in CANNED.items()}
            failed = change_failed if side == "change" else 0
            runs.append({"workload": "w", "seed": i + 1, "side": side,
                         "result": {"attempted": 10, "failed": failed, "metrics": values}})
    return runs


def test_bench_pairs_summary_takes_directions_from_the_benchmark_and_ties_for_neither():
    # graphs_per_s is higher-better and ties on seed 2; the times are
    # lower-better, and peak_rss_mb ties on every seed: no side wins a tie
    module = load_script("bench_pairs")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert sorted(m["name"] for m in metrics) == sorted(CANNED)
    assert module.parse_seeds("1-10,101") == list(range(1, 11)) + [101]
    summary = module.summarize(canned_runs(), ("parent", "change"), metrics)["w"]
    assert summary["pairs"] == 4 and summary["change_failed"] == "0/40"
    for name, (parent, change, wins, verdict) in CANNED.items():
        entry = summary[name]
        assert entry["change_better_pairs"] == wins, name
        assert entry["verdict"] == verdict, name
        assert entry["parent_median"] == statistics.median(parent)
        assert entry["change_median"] == statistics.median(change)
    result = module.judge_claim({"w": summary}, canned_runs(), "w:graph_s_p50", 4, metrics)
    assert result.startswith("not met: w graph_s_tail worse than bound; w setup_s unresolved; ")
    p50 = [m for m in metrics if m["name"] == "graph_s_p50"]
    alone = module.summarize(canned_runs(), ("parent", "change"), p50)
    assert module.judge_claim(alone, canned_runs(), "w:graph_s_p50", 4, p50).startswith(
        "met: w graph_s_p50 1.005 -> 0.535 (0.532x), change ahead in 4 of 4 pairs")
    failing = module.summarize(canned_runs(change_failed=1), ("parent", "change"), p50)
    assert module.judge_claim(failing, canned_runs(), "w:graph_s_p50", None, p50).startswith(
        "not met: w: more failed graphs than the parent; ")
