"""Time scan cost over a ladder of certified inputs, one line per rung.

For each rung, flat(8,8,2) … flat(32,32,1), the wide-spread circulant
circulant_from_c(3, [0, 0, 2000]) and the wide circulants circulant_from_c(n, c)
for n = 6, 11, 12, c drawn from default_rng(1) in +-3e4 with c_0 = 0, it prints
n, the scan's grid_points, the wave chunk (the length of the base waves the scan
hands to _grid_waves), pair_time_products, newton_rows, classes (curves
scanned) and member_rescans, the minor page faults of one steady-state
verify_upst (the getrusage(RUSAGE_SELF).ru_minflt delta over the last timed
run) and the best and median wall time of --repeat timed runs after one
warm-up.  Every run starts from a fresh copy of the eigensystem, so the
canonical form is rebuilt each time.  BLAS runs on one thread, as in
perfbench.  Exits 1 unless every rung certifies.

usage: python3 scripts/scan_ladder.py [--max-n N] [--repeat 5]
"""

import argparse
import dataclasses
import os
import resource
import statistics
import sys
import time

# One BLAS thread before numpy loads, for times that do not hang on the
# scheduling of BLAS workers.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from upst import walk  # noqa: E402
from upst.constructors import (  # noqa: E402
    NoncirculantParams,
    circulant_from_c,
    noncirculant_graph,
)
from upst.graph import circulant_to_graph  # noqa: E402
from upst.spectra import circulant_eigensystem  # noqa: E402

FLAT_RUNGS = ((8, 8, 2), (16, 8, 1), (16, 16, 2), (32, 16, 2), (32, 32, 1))
WIDE = (3, [0, 0, 2000])
WIDE_ORDERS = (6, 11, 12)


def wide_c(n):
    """The c of the order-n wide circulant: default_rng(1) in +-3e4, c_0 = 0."""
    c = np.random.default_rng(1).integers(-30000, 30001, size=n)
    c[0] = 0
    return c.tolist()


def rungs(max_n):
    """(name, graph, eigensystem) for every rung with n <= max_n."""
    for params in FLAT_RUNGS:
        if max_n is None or NoncirculantParams(*params).n <= max_n:
            yield ("flat(%d,%d,%d)" % params, *noncirculant_graph(NoncirculantParams(*params)))
    for name, spec in [("circulant_c(3,[0,0,2000])", circulant_from_c(*WIDE))] + [
            ("wide(%d)" % n, circulant_from_c(n, wide_c(n))) for n in WIDE_ORDERS]:
        if max_n is None or spec.n <= max_n:
            yield name, circulant_to_graph(spec), circulant_eigensystem(spec)


def measure(graph, es, repeat):
    """(report, wave chunk, minor faults of the last run, run times in s)."""
    chunks = []
    real = walk._grid_waves

    def watched(base, *args):
        chunks.append(len(base))
        return real(base, *args)

    walk._grid_waves = watched
    try:
        report = walk.verify_upst(graph, dataclasses.replace(es))  # warm-up
    finally:
        walk._grid_waves = real
    times = []
    for _ in range(repeat):
        fresh = dataclasses.replace(es)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        walk.verify_upst(graph, fresh)
        times.append(time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return report, chunks[0] if chunks else None, faults, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=None, help="skip rungs with larger n")
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per rung (>= 1)")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    header = "%-26s %5s %8s %6s %12s %8s %7s %7s %7s %10s %10s" % (
        "graph", "n", "grid", "chunk", "pair_time", "newton", "classes", "rescans", "minflt",
        "best_ms", "median_ms")
    print(header)
    print("-" * len(header))
    failed = []
    for name, graph, es in rungs(args.max_n):
        report, chunk, faults, times = measure(graph, es, args.repeat)
        d = report.diagnostics or {}
        print("%-26s %5d %8s %6s %12s %8s %7s %7s %7d %10.2f %10.2f" % (
            name, es.n, d.get("grid_points", "-"), chunk if chunk is not None else "-",
            d.get("pair_time_products", "-"), d.get("newton_rows", "-"), d.get("classes", "-"),
            d.get("member_rescans", "-"), faults, 1e3 * min(times),
            1e3 * statistics.median(times)))
        if report.upst is not True:
            failed.append("%s: %s" % (name, ", ".join(report.reasons)))
    for line in failed:
        print("not certified:", line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
