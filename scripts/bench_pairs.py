"""Run perfbench/run.py on two checkouts in alternating pairs and write a
BENCH file: the per-run results, a per-workload summary and the verdict on
one claimed metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads W [W ...]
        --seeds 1-10 [--unseen 101] [--aa W] [--claim W:METRIC] --out BENCH_N.json

Each directory is the root of a checkout, and each runs its own
perfbench/run.py with the run length that BENCHMARK.json fixes, untraced.
One pair per (workload, seed): the side that runs first switches from seed to
seed, parent first on the first seed.  --unseen adds one more pair per
workload on a seed held back while the change was written.  --aa W runs
workload W on PARENT_DIR against itself over the same seeds (parent_a and
parent_b), to show the spread between identical code.

Every end-to-end metric of BENCHMARK.json gets, per workload, each side's
median and quartiles over the pairs and the count of pairs the second side
won, its direction and bound taken from BENCHMARK.json (ties count for
neither side).  Its verdict is:

- "better" when every run of the second side beats every run of the first;
- "unresolved" when the first side's interquartile range, relative to its
  median, is wider than the bound;
- "worse than bound" when the median moved the wrong way by more than the
  bound;
- "within bound" otherwise.

The claimed metric is met when the change wins at least nine tenths of the
pairs run, the unseen pair included, and the medians differ by more than the
parent's interquartile range; the claim also needs every other metric on every
workload inside its bound and no more failed graphs than the parent.

Exits 0 once the file is written, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5-7' as a list of ints, in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 2
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def better(a: float, b: float, direction: str) -> bool:
    """a beats b in the metric's direction ("higher" or "lower"); a tie does not."""
    return a > b if direction == "higher" else a < b


def summarize(runs: list[dict], sides: tuple[str, str], metrics: list[dict]) -> dict:
    """Per workload, the pairs of runs of sides (first, second): each metric's
    medians, quartiles, ratio, second-side wins and verdict (see module doc)."""
    first, second = sides
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["seed"], {})[run["side"]] = run["result"]
        pairs = [p for p in pairs.values() if first in p and second in p]
        a, b = [p[first] for p in pairs], [p[second] for p in pairs]
        entry = {
            "pairs": len(pairs),
            first + "_failed": "%d/%d" % (sum(r["failed"] for r in a), sum(r["attempted"] for r in a)),
            second + "_failed": "%d/%d" % (sum(r["failed"] for r in b), sum(r["attempted"] for r in b)),
        }
        for metric in metrics:
            name, direction = metric["name"], metric["better"]
            x = [r["metrics"][name]["value"] for r in a]
            y = [r["metrics"][name]["value"] for r in b]
            mx, my, qx = statistics.median(x), statistics.median(y), quartiles(x)
            worse = (mx - my) / mx if direction == "higher" else (my - mx) / mx
            if all(better(v, u, direction) for v in y for u in x):
                verdict = "better"
            elif (qx[1] - qx[0]) / mx > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "worse than bound"
            else:
                verdict = "within bound"
            entry[name] = {
                first + "_median": mx,
                first + "_quartiles": qx,
                second + "_median": my,
                second + "_quartiles": quartiles(y),
                "%s_over_%s" % (second, first): my / mx,
                second + "_better_pairs": sum(better(v, u, direction) for u, v in zip(x, y)),
                "bound": metric["bound"],
                "verdict": verdict,
            }
        out[workload] = entry
    return out


def judge_claim(summary: dict, runs: list[dict], claim: str, unseen, metrics: list[dict]) -> str:
    """The claim's verdict: 'met: ...' or 'not met: ...' with the reasons."""
    workload, name = claim.split(":")
    direction = next(m["better"] for m in metrics if m["name"] == name)
    m, pairs = summary[workload][name], summary[workload]["pairs"]
    lo, hi = m["parent_quartiles"]
    gap = abs(m["change_median"] - m["parent_median"])
    problems = []
    if m["change_better_pairs"] * 10 < 9 * pairs:
        problems.append("change ahead in only %d of %d pairs" % (m["change_better_pairs"], pairs))
    if not (better(m["change_median"], m["parent_median"], direction) and gap > hi - lo):
        problems.append("the median did not gain more than the parent's interquartile range")
    if unseen is not None:
        held = {r["side"]: r["result"]["metrics"][name]["value"] for r in runs
                if r["workload"] == workload and r["seed"] == unseen}
        if not better(held["change"], held["parent"], direction):
            problems.append("no gain on unseen seed %d" % unseen)
    for w, entry in summary.items():
        if int(entry["change_failed"].split("/")[0]) > int(entry["parent_failed"].split("/")[0]):
            problems.append("%s: more failed graphs than the parent" % w)
        for metric in metrics:
            verdict = entry[metric["name"]]["verdict"]
            if (w, metric["name"]) != (workload, name) and verdict in ("worse than bound",
                                                                       "unresolved"):
                problems.append("%s %s %s" % (w, metric["name"], verdict))
    head = ("%s %s %.6g -> %.6g (%.3fx), change ahead in %d of %d pairs, difference %.6g "
            "against a parent interquartile range of %.6g"
            % (workload, name, m["parent_median"], m["change_median"], m["change_over_parent"],
               m["change_better_pairs"], pairs, gap, hi - lo))
    return ("not met: %s; " % "; ".join(problems) if problems else "met: ") + head


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in tree: its JSON result plus the commit
    and source digest it printed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "%g" % seconds, "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s"
                           % (" ".join(argv[1:]), tree, done.returncode, done.stderr[-2000:]))
    lines = done.stdout.splitlines()
    # "env  commit C  src sha256 D  python ..."
    env = next(line.split() for line in lines if line.startswith("env "))
    source = {"commit": env[env.index("commit") + 1], "src_sha256": env[env.index("sha256") + 1]}
    return {"source": source, "result": json.loads(lines[-1])}


def run_pairs(trees: dict[str, Path], workloads: list[str], seeds: list[int],
              seconds: float) -> list[dict]:
    """Pairs over seeds x workloads, the first side leading on even positions."""
    runs = []
    names = list(trees)
    for i, seed in enumerate(seeds):
        order = names if i % 2 == 0 else names[::-1]
        for workload in workloads:
            for position, side in enumerate(order):
                print("seed %d  %s  %s" % (seed, workload, side), file=sys.stderr, flush=True)
                run = run_one(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first_in_pair": position == 0, **run})
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--unseen", type=int)
    parser.add_argument("--aa")
    parser.add_argument("--claim", help="WORKLOAD:METRIC, one of BENCHMARK.json's end-to-end metrics")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    if args.claim is not None:
        workload, _, name = args.claim.partition(":")
        if workload not in args.workloads or name not in [m["name"] for m in metrics]:
            parser.error("--claim must name a listed workload and an end-to-end metric")
    seeds = args.seeds + ([args.unseen] if args.unseen is not None else [])

    runs = run_pairs({"parent": args.parent, "change": args.change}, args.workloads, seeds, seconds)
    summary = summarize(runs, ("parent", "change"), metrics)
    aa_runs = []
    if args.aa is not None:
        aa_runs = run_pairs({"parent_a": args.parent, "parent_b": args.parent}, [args.aa],
                            args.seeds, seconds)
    doc = {
        "what": "parent and change measured by perfbench/run.py, each run in its own "
                "checkout%s" % (", plus an A/A run of %s (the parent against itself)" % args.aa
                                if args.aa else ""),
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %g --trace 0, "
                   "run from the root of each checkout" % seconds,
        "pairing": "one pair per (workload, seed) over seeds %s%s; the side that runs first "
                   "switches from seed to seed, parent first on the first seed"
                   % (",".join(map(str, args.seeds)),
                      "" if args.unseen is None else " and unseen seed %d" % args.unseen),
        "machine": "%d-CPU %s host, Python %s, numpy %s; perfbench pins BLAS to 1 thread and "
                   "rescales times to its reference speed"
                   % (os.cpu_count(), platform.machine(), platform.python_version(),
                      np.__version__),
        "claim": None if args.claim is None else
                 "%s: change ahead in >= 9 of 10 pairs and a median difference larger than the "
                 "parent's interquartile range, also on the unseen seed; every other end-to-end "
                 "metric within its BENCHMARK.json bound on every workload; failure counts not "
                 "higher" % args.claim,
        "claim_result": None if args.claim is None else
                        judge_claim(summary, runs, args.claim, args.unseen, metrics),
        "summary": summary,
        "aa_summary": summarize(aa_runs, ("parent_a", "parent_b"), metrics) if aa_runs else None,
        "runs": runs + aa_runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(doc["claim_result"] or "written %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
