"""Print verify_upst's full report on a fixed corpus, one JSON line per run,
and the exact circulant layer of every circulant input, one line each.

Two checkouts give the same verdicts and numbers when their outputs match:

    PYTHONPATH=<checkout>/src python scripts/parity_corpus.py > <out>

for each checkout, then diff the two files.  Each verdict line holds the
input's name and route, the verdict fields, the class and grid counts,
row_residual_max, and the time and phase tables with every float written by
float.hex, so equal lines mean bit-identical reports.  Each exact line (route
"exact") holds the sha256 of the spec's JSON, the exact eigenvalues as "p/q"
strings (null when one is irrational), the offset tr(A)/n as "p/q" where it is
not 0, the centred float eigenvalues (eigenvalue minus offset) in float.hex and
the recognizer's witness on the exact eigenvalues, or on the float ones when
there are none: recognize_eigenvalue_form's alpha and beta in float.hex with q
and c, null when it finds none, or its error message when it refuses the input
(a repeated spectrum).

The corpus: the flat ladder's 17 rungs and flat(16,16,2), each as built and
relabelled and rephased with seeds 1 and 2; two seeded circulant_c for each
n = 3..12; nondense (2,3), (2,5), (3,5) and (2,7); the two wide-spread
circulants; G_2, G_4, G_6 and G_8; nondense(2,3) shifted by 10^5 .. 10^10 and by
2^33 + 1/3;
and the edge inputs (an irrational spectrum, the 2.02 near miss, F_4 with
lambda = (0, 1, 3, 2), a repeated spectrum, nondense(2,3) with one eigenvalue
moved by 1e-9 sqrt(2), and the oriented 5-cycle).  Each runs on the route it
comes with (route "given") and, unless that is already the numerical
eigensolve, again on it (route "eigh").  Last come flat(3,2,2) and
nondense(2,3) as float eigensystems (no exact data) with every eigenvalue
scaled by 1e-300 and by 1e300, on both routes.  The exact layer also runs alone on
the census orders 4..64 with two seeded c-vectors each, all nine two-prime
pairs up to (5,17), the order-3 Circ(0, -i, i) (eigenvalues 0 and +-sqrt(3)),
an order-4 spec of conductor 3 promoted to 12 and the same spec stored at
conductor 12 (both with irrational eigenvalues), and circulant_c(8) with entries
near 2^61, whose numerators pass the int64 bound.

usage: python3 scripts/parity_corpus.py
"""

import hashlib
import json
import math
import os
import sys
from fractions import Fraction

# One BLAS thread before numpy loads: a threaded eigh can differ in its last
# bits from one run to the next, which a bit-for-bit diff would flag.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

from upst.constructors import (  # noqa: E402
    NoncirculantParams,
    circulant_from_c,
    gk_example,
    nondense_circulant,
    noncirculant_graph,
)
from upst.cyclotomic import power_map_rows  # noqa: E402
from upst.graph import (  # noqa: E402
    CirculantSpec,
    HermitianGraph,
    circulant_to_graph,
    with_diagonal_shift,
)
from upst.serialize import spec_to_json  # noqa: E402
from upst.spectra import (  # noqa: E402
    EigenSystem,
    circulant_eigensystem,
    fourier_matrix,
    numerical_eigensystem,
    recognize_eigenvalue_form,
)
from upst.walk import verify_upst  # noqa: E402

LADDER = (
    (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 3),
    (4, 4, 2), (4, 4, 3), (4, 4, 4), (8, 2, 2), (8, 2, 3), (8, 2, 4),
    (6, 4, 2), (6, 4, 3), (8, 3, 2), (12, 2, 3), (8, 8, 2), (16, 16, 2),
)


def from_eigensystem(es):
    """The graph X diag(lambda) X^dagger of a hand-made eigensystem."""
    a = (es.X * es.eigenvalues) @ es.X.conj().T
    return HermitianGraph(es.n, (a + a.conj().T) / 2)


def relabelled(es, seed):
    """es with vertices permuted and random eigenvector phases."""
    rng = np.random.default_rng(seed)
    x = es.X[rng.permutation(es.n), :] * np.exp(1j * rng.uniform(0, 2 * math.pi, size=es.n))
    return EigenSystem(n=es.n, X=x, lambdas=es.lambdas, exact_lambdas=es.exact_lambdas,
                       offset=es.offset)


def circulant(spec):
    return circulant_to_graph(spec), circulant_eigensystem(spec)


def corpus():
    """(name, graph, eigensystem, also on eigh) for every input."""
    for abb in LADDER:
        graph, es = noncirculant_graph(NoncirculantParams(*abb))
        name = "flat(%d,%d,%d)" % abb
        yield name, graph, es, True
        for seed in (1, 2):
            moved = relabelled(es, seed)
            yield "%s/seed%d" % (name, seed), from_eigensystem(moved), moved, False
    for n in range(3, 13):
        for seed in (1, 2):
            c = [int(v) for v in np.random.default_rng(100 * n + seed).integers(-20, 21, size=n)]
            yield "circulant_c(%d,%s)" % (n, c), *circulant(circulant_from_c(n, c)), True
    for pq in ((2, 3), (2, 5), (3, 5), (2, 7)):
        yield "nondense(%d,%d)" % pq, *circulant(nondense_circulant(*pq)), True
    for c in ([0, 0, 2000], [0, 0, 0, 0, 0, 5000]):
        yield "circulant_c(%d,%s)" % (len(c), c), *circulant(circulant_from_c(len(c), c)), True
    for k in (2, 4, 6, 8):
        yield "G_%d" % k, *gk_example(k), True
    for exponent in range(5, 11):
        spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(10**exponent))
        yield "nondense(2,3)+1e%d" % exponent, *circulant(spec), True
    spec = with_diagonal_shift(nondense_circulant(2, 3), 2**33 + Fraction(1, 3))
    yield "nondense(2,3)+2^33+1/3", *circulant(spec), True
    f3 = fourier_matrix(3)
    for name, es in (
        ("irrational", EigenSystem(3, f3, np.array([0.0, 1.0, math.sqrt(2)]))),
        ("near-miss-2.02", EigenSystem(3, f3, np.array([0.0, 1.0, 2.02]))),
        ("F_4(0,1,3,2)", EigenSystem(4, fourier_matrix(4), np.array([0.0, 1.0, 3.0, 2.0]))),
    ):
        yield name, from_eigensystem(es), es, True
    scalar = CirculantSpec.from_rows(3, 1, [[3], [0], [0]], 2)  # Circ(3/2, 0, 0)
    yield "repeated", *circulant(scalar), True
    es = circulant_eigensystem(nondense_circulant(2, 3))
    moved = EigenSystem(6, es.X, es.lambdas + np.r_[0.0, 1e-9 * math.sqrt(2), np.zeros(4)])
    yield "nondense(2,3)-moved", from_eigensystem(moved), moved, True
    shift = np.roll(np.eye(5), 1, axis=1)
    cycle = 1j * (shift - shift.T)
    yield "oriented-5-cycle", HermitianGraph(5, cycle), numerical_eigensystem(cycle), False


CENSUS_ORDERS = (4, 6, 8, 10, 12, 16, 24, 32, 48, 64)
NONDENSE_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (2, 11), (2, 13), (2, 17), (5, 17))


def exact_corpus():
    """(name, spec) for the inputs that run through the exact layer alone."""
    for n in CENSUS_ORDERS:
        for seed in (1, 2):
            c = [int(v) for v in np.random.default_rng(1000 * n + seed).integers(-9, 10, size=n)]
            yield "census(%d,seed%d)" % (n, seed), circulant_from_c(n, c)
    for pq in NONDENSE_PAIRS:
        yield "nondense(%d,%d)" % pq, nondense_circulant(*pq)
    yield "Circ(0,-i,i)", CirculantSpec.from_rows(3, 4, [[0, 0], [0, -1], [0, 1]], 1)
    # (7/2, x, x + conj(x), conj(x)) over 30 for x = 1/3 - (2/5) zeta_3, and the same
    # rows promoted to conductor 12
    spec = CirculantSpec.from_rows(4, 3, [[105, 0], [10, -12], [32, 0], [22, 12]], 30)
    yield "promoted(3->12)", spec
    yield "promoted(3->12)/stored-at-12", CirculantSpec.from_rows(
        4, 12, power_map_rows(12, spec.w, 4), spec.den)
    c = [2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1]
    yield "circulant_c(8,past-int64)", circulant_from_c(8, c)


def hex_table(values):
    return [float.hex(float(v)) for v in np.asarray(values, dtype=float).reshape(-1)]


def record(name, route, report):
    diagnostics = report.diagnostics or {}
    residual = diagnostics.get("row_residual_max")
    return {
        "input": name,
        "route": route,
        "upst": report.upst,
        "reasons": list(report.reasons),
        "circulant_timing": report.circulant_timing,
        "dense": report.dense,
        "spacing_order": None if report.spacing_order is None else list(report.spacing_order),
        "classes": diagnostics.get("classes"),
        "members": diagnostics.get("members"),
        "grid_points": diagnostics.get("grid_points"),
        "row_residual_max": None if residual is None else float.hex(residual),
        "analytic_times": None if report.analytic_times is None
        else hex_table(report.analytic_times),
        "min_times": hex_table(report.min_times),
        "phases_re": hex_table(report.phases.real),
        "phases_im": hex_table(report.phases.imag),
    }


def form_record(lambdas, n):
    """recognize_eigenvalue_form's witness on lambdas, as exact_record stores it."""
    try:
        form = recognize_eigenvalue_form(lambdas, n)
    except ValueError as exc:
        return str(exc)
    if form is None:
        return None
    return {"alpha": float.hex(float(form.alpha)), "beta": float.hex(float(form.beta)),
            "q": form.q, "c": list(form.c)}


def exact_record(name, spec):
    es = circulant_eigensystem(spec)
    blob = json.dumps(spec_to_json(spec), sort_keys=True).encode()
    line = {
        "input": name,
        "route": "exact",
        "spec_sha256": hashlib.sha256(blob).hexdigest(),
        "exact_lambdas": None if es.exact_lambdas is None
        else ["%d/%d" % (q.numerator, q.denominator) for q in es.exact_lambdas],
        "lambdas": hex_table(es.lambdas),
        "form": form_record(es.exact_lambdas or es.lambdas, spec.n),
    }
    if es.offset:
        line["offset"] = "%d/%d" % (es.offset.numerator, es.offset.denominator)
    return line


def scaled_corpus():
    """(name, graph, eigensystem, True) for the float eigensystems of flat(3,2,2)
    and nondense(2,3) with their eigenvalues scaled far from 1."""
    bases = (("flat(3,2,2)", noncirculant_graph(NoncirculantParams(3, 2, 2))[1]),
             ("nondense(2,3)", circulant_eigensystem(nondense_circulant(2, 3))))
    for name, es in bases:
        for scale in (1e-300, 1e300):
            scaled = EigenSystem(es.n, es.X, es.lambdas * scale)
            yield "%s*%g" % (name, scale), from_eigensystem(scaled), scaled, True


def print_runs(name, graph, es, with_eigh):
    routes = [("given", es)]
    if with_eigh:
        routes.append(("eigh", numerical_eigensystem(graph.adjacency)))
    for route, system in routes:
        print(json.dumps(record(name, route, verify_upst(graph, system))))


def main() -> int:
    seen = set()
    for name, graph, es, with_eigh in corpus():
        print_runs(name, graph, es, with_eigh)
        if graph.spec is not None:
            seen.add(name)
            print(json.dumps(exact_record(name, graph.spec)))
    for name, spec in exact_corpus():
        if name not in seen:
            print(json.dumps(exact_record(name, spec)))
    for run in scaled_corpus():
        print_runs(*run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
