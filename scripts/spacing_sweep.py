"""Sweep the flat-spectrum family and compare measured time gaps to theory.

For each (a, b, beta) the first transfer time should be 2*pi/(beta*n) and the
gap between the (a-1)-th and a-th transfer should stretch to
2*pi*((beta-1)*a + 1)/(beta*n); beta = 1 collapses both to the circulant
uniform spacing, which is what the spacing verdict tracks.  Exits 1 when a
graph fails to certify or its uniform column (circulant_timing) disagrees
with beta == 1.

usage: python3 scripts/spacing_sweep.py [--max-a 4] [--max-beta 4]
"""

import argparse
import math
import sys

from upst.constructors import NoncirculantParams, noncirculant_graph
from upst.walk import verify_upst

TWO_PI = 2 * math.pi


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-a", type=int, default=4)
    parser.add_argument("--max-beta", type=int, default=4)
    args = parser.parse_args()

    header = "%-12s %3s  %-5s %-7s %11s %11s %11s %11s" % (
        "(a,b,beta)", "n", "upst", "uniform", "t_1 meas", "t_1 pred", "gap_a meas", "gap_a pred"
    )
    print(header)
    print("-" * len(header))
    worst = 0.0
    mismatched = []
    for a in range(2, args.max_a + 1):
        for b in range(2, a + 1):
            for beta in range(1, args.max_beta + 1):
                params = NoncirculantParams(a, b, beta)
                graph, es = noncirculant_graph(params)
                report = verify_upst(graph, es)
                if not report.upst:
                    print("(%d,%d,%d) failed: %s" % (a, b, beta, ", ".join(report.reasons)))
                    return 1
                n = params.n
                t1 = report.min_times[0, 1]
                t1_pred = TWO_PI / (beta * n)
                gap = report.min_times[0, a] - report.min_times[0, a - 1]
                gap_pred = TWO_PI * ((beta - 1) * a + 1) / (beta * n)
                worst = max(worst, abs(t1 - t1_pred), abs(gap - gap_pred))
                if report.circulant_timing is not (beta == 1):
                    mismatched.append("(%d,%d,%d)" % (a, b, beta))
                print(
                    "%-12s %3d  %-5s %-7s %11.6f %11.6f %11.6f %11.6f"
                    % (
                        "(%d,%d,%d)" % (a, b, beta),
                        n,
                        "yes",
                        "yes" if report.circulant_timing else "no",
                        t1,
                        t1_pred,
                        gap,
                        gap_pred,
                    )
                )
    print("\nlargest |measured - predicted|: %.3e" % worst)
    if mismatched:
        print("uniform spacing disagrees with beta == 1: " + ", ".join(mismatched))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
