"""Benchmark of the `upst` certifier, end to end and layer by layer.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from its `src/`.
Workloads (see perfbench/README.md): flat_ladder, exact_census, cli_circulant.

--seconds sizes a fixed schedule: max(1, round(S / round_s)) rounds of the
workload, where round_s is about the duration of one round on the reference machine
(2 CPUs).  A fixed schedule keeps the sample count, and so the percentiles,
the same from run to run; a faster program finishes sooner.

Every time is rescaled to a reference machine speed by short probes run
around and inside each graph (see speed.py); the raw wall times are printed
as well.

--trace 0 runs the schedule once, untraced, and prints the end-to-end
metrics.  --trace 1 halves the schedule, runs it untraced and then traced,
prints the per-layer metrics of the traced pass and the tracing overhead
(traced pass time minus untraced pass time).

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # samples above the reported tail percentile

END_TO_END_UNITS = {
    "graphs_per_s": "1/s",
    "graph_s_p50": "s",
    "graph_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, upst.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="upst certification benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds(env: dict) -> float:
    """Fresh-interpreter import time of numpy and the package."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "upst").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_name(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError, ValueError):
        return "unknown"


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value, pct)."""
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def run_pass(workload, rounds, ctx, clear_caches, tracer=None):
    """Run the schedule; returns (per-graph seconds at reference speed, raw
    wall seconds, problems by item)."""
    seconds, raw, outcomes = [], [], []
    for items in rounds:
        for clear in clear_caches:
            clear()
        for item in items:
            if tracer is not None:
                tracer.graph = item.label
            wall, scaled, problem = workload.run(item, ctx)
            seconds.append(scaled)
            raw.append(wall)
            outcomes.append((item, problem))
    return seconds, raw, outcomes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "upst" / "__init__.py").is_file():
        print("error: no package at %s; run from the root of a checkout" % (SRC / "upst"),
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    env = dict(os.environ, PYTHONPATH=str(SRC))
    sys.path.insert(0, str(SRC))

    import numpy as np
    import upst
    import speed
    import workloads as wl

    if Path(upst.__file__).resolve().parent != SRC / "upst":
        print("error: imported upst from %s, not %s" % (upst.__file__, SRC), file=sys.stderr)
        return 2
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    clear_caches = wl.lru_caches()
    span_seconds = args.seconds / 2 if args.trace else args.seconds
    n_rounds = max(1, round(span_seconds / workload.round_s))

    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        # Set-up is timed like the graphs, each repeat at the reference speed:
        # imports in fresh interpreters, then seeded inputs and a warm-up.
        bracket, sampler = speed.Meter(sampling=False), speed.Meter(sampling=True)
        ctx = wl.Context(workdir=workdir, meter=speed.WallClock())

        def prepare():
            rounds = [workload.round_inputs(np.random.default_rng(args.seed))
                      for _ in range(n_rounds)]
            workload.warm_up(ctx)
            return rounds

        imports, raw_imports, prepares, raw_prepares = [], [], [], []
        for _ in range(SETUP_REPEATS):
            wall, scaled, imported = bracket.time(lambda: import_seconds(env))
            raw_imports.append(imported)
            imports.append(imported * scaled / wall)
        for _ in range(SETUP_REPEATS):
            wall, scaled, rounds = sampler.time(prepare)
            raw_prepares.append(wall)
            prepares.append(scaled)
        setup_s = statistics.median(imports) + statistics.median(prepares)
        raw_setup_s = statistics.median(raw_imports) + statistics.median(raw_prepares)

        ctx.meter = sampler
        seconds, raw, outcomes = run_pass(workload, rounds, ctx, clear_caches)
        tracer = None
        if args.trace:
            from tracing import Tracer

            # No probes inside the traced pass, so that spans hold only the
            # package's own work.
            ctx.meter = speed.Meter(sampling=False)
            tracer = Tracer()
            ctx.on_bytes = lambda size: tracer.count("serialize.bytes", size)
            tracer.install()
            try:
                traced_seconds, traced_raw, traced_outcomes = run_pass(
                    workload, rounds, ctx, clear_caches, tracer)
            finally:
                tracer.restore()
            outcomes += traced_outcomes
            tracer.write_spans(str(WORK / ("spans-%s-%d.jsonl" % (workload.name, args.seed))))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [(item, problem) for item, problem in outcomes if problem is not None]
    unexpected = [(item, p) for item, p in failures if item.known_defect is None]
    passed = [p is None for _, p in outcomes[:len(seconds)]]
    tail_s, tail_pct = tail(seconds)

    print("workload %s  seed %d  seconds %g  trace %d  rounds %d  graphs per round %d"
          % (workload.name, args.seed, args.seconds, args.trace, n_rounds, len(rounds[0])))
    print("env  commit %s  src sha256 %s  python %s  numpy %s  blas %s  blas threads %s  "
          "nproc %d  machine %s"
          % (git_commit(), source_digest(), platform.python_version(), np.__version__,
             blas_name(np), BLAS_THREADS, os.cpu_count(), platform.machine()))
    print("caches  every lru_cache in upst is cleared before each round: the first graph "
          "of a round starts cold, repeats within the round hit")
    print("load  closed loop, one client, one process, one thread: no layer queues or "
          "waits, so no wait time is reported")
    print("fail_ratio  %.6f 1  (%d failed of %d attempted)"
          % (len(failures) / len(outcomes), len(failures), len(outcomes)))
    for (label, defect, problem), count in Counter(
        (item.label, item.known_defect, problem) for item, problem in failures
    ).items():
        known = " [known defect: %s]" % defect if defect else ""
        print("  failed %dx %s%s: %s" % (count, label, known, problem))
    print("graph_s_tail  p%.1f of %d samples (%d beyond)"
          % (tail_pct, len(seconds), min(TAIL_BEYOND, len(seconds) - 1)))
    print("speed  times below are wall seconds rescaled to the reference speed (probe unit "
          "%g s); raw wall: graphs %.6f s, p50 %.6f s, tail %.6f s, setup %.6f s"
          % (speed.PROBE_UNIT_S, sum(raw), statistics.median(raw), tail(raw)[0],
             raw_setup_s))

    if tracer is None:
        metrics = {
            "graphs_per_s": sum(passed) / sum(seconds),
            "graph_s_p50": statistics.median(seconds),
            "graph_s_tail": tail_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
    else:
        from tracing import PER_LAYER_UNITS

        metrics = tracer.metrics()
        units = PER_LAYER_UNITS
        print("tracing overhead  %.6f s  (traced pass %.6f s - untraced pass %.6f s, both at "
              "reference speed)" % (sum(traced_seconds) - sum(seconds), sum(traced_seconds),
                                    sum(seconds)))
        print("span times are raw wall seconds; the traced pass took %.6f s raw"
              % sum(traced_raw))
        print("absent functions  %s" % (", ".join(tracer.absent) or "none"))
    for name, value in metrics.items():
        print("%-28s %.6g %s" % (name, value, units[name]))
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
