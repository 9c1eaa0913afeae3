"""Certify every reference graph family and print a census table.

Builds the order-3 imaginary circulant, the order-4 examples, the flat-spectrum
family, the two-prime sparse circulants, two integer-vector circulants of
wide eigenvalue spread and, as bare matrices on the numerical eigensolve, the
smaller sparse circulant shifted by 10^5 and 10^8; runs the full
certification on each, and reports
verdicts plus the analytic/scan agreement and the number of scan grid points.

usage: python3 scripts/certify_fixtures.py
"""

import sys
import time
from fractions import Fraction

from upst.graph import CirculantSpec, HermitianGraph, circulant_to_graph, with_diagonal_shift
from upst.spectra import circulant_eigensystem, numerical_eigensystem
from upst.constructors import (
    NoncirculantParams,
    circulant_from_c,
    gk_example,
    nondense_circulant,
    noncirculant_graph,
)
from upst.walk import verify_upst


def fixture_list():
    circ_i = CirculantSpec.from_rows(3, 4, [[0, 0], [0, -1], [0, 1]], 1)  # Circ(0, -i, i)
    yield "Circ(0,-i,i)", circulant_to_graph(circ_i), circulant_eigensystem(circ_i)
    for k in (2, 4, 6, 8):
        graph, es = gk_example(k)
        yield "G_%d" % k, graph, es
    for abb in ((2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 2, 3)):
        graph, es = noncirculant_graph(NoncirculantParams(*abb))
        yield "flat(%d,%d,%d)" % abb, graph, es
    for pq in ((2, 3), (3, 5)):
        spec = nondense_circulant(*pq)
        yield "sparse(%d,%d)" % pq, circulant_to_graph(spec), circulant_eigensystem(spec)
    for c in ([0, 0, 2000], [0, 0, 0, 0, 0, 5000]):
        spec = circulant_from_c(len(c), c)
        name = "c(%s)" % ",".join(map(str, c))
        yield name, circulant_to_graph(spec), circulant_eigensystem(spec)
    for exponent in (5, 8):
        shifted = with_diagonal_shift(nondense_circulant(2, 3), Fraction(10**exponent))
        matrix = circulant_to_graph(shifted).adjacency
        yield ("sparse(2,3)+1e%d,eigh" % exponent, HermitianGraph(6, matrix),
               numerical_eigensystem(matrix))


def main() -> int:
    header = "%-20s %3s  %-5s %-7s %-5s %12s %12s %10s  %6s %7s" % (
        "fixture", "n", "upst", "spacing", "dense", "t_{0,1}", "period", "agree", "sec", "points"
    )
    print(header)
    print("-" * len(header))
    failures = 0
    for name, graph, es in fixture_list():
        start = time.monotonic()
        report = verify_upst(graph, es)
        elapsed = time.monotonic() - start
        if report.upst:
            agree = report.diagnostics["agreement_max"]
            spacing = "yes" if report.circulant_timing else "no"
            print(
                "%-20s %3d  %-5s %-7s %-5s %12.6f %12.6f %10.1e  %6.2f %7d"
                % (
                    name,
                    report.n,
                    "yes",
                    spacing,
                    {True: "yes", False: "no", None: "-"}[report.dense],
                    report.min_times[0, 1],
                    report.return_period,
                    agree,
                    elapsed,
                    report.diagnostics["grid_points"],
                )
            )
        else:
            failures += 1
            print(
                "%-20s %3d  %-5s %s" % (name, report.n, "NO", ", ".join(report.reasons))
            )
    if failures:
        print("\n%d fixture(s) failed certification" % failures, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
