"""Acceptance gate: one test per top-level guarantee of the package.

Each test prints a single `criterion N: PASS` line on success; under
`pytest -v` the per-test verdicts double as the pass/fail report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from upst.cyclotomic import CycNum
from upst.graph import (
    CirculantSpec,
    circulant_to_graph,
    is_connected_circulant,
    with_diagonal_shift,
)
from upst.spectra import (
    canonicalize,
    circulant_eigensystem,
    fourier_matrix,
    recognize_eigenvalue_form,
    zero_sum_check,
)
from upst.constructors import (
    NoncirculantParams,
    circulant_from_c,
    gk_example,
    nondense_circulant,
    noncirculant_graph,
)
from upst.walk import (
    denseness_check,
    monomial_check,
    scan_min_times,
    unitary_at,
    verify_upst,
)

TWO_PI = 2 * math.pi
THM_PARAMS = ((2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 2, 3))
NONDENSE_PAIRS = ((2, 3), (3, 5))


def _ok(num, text):
    print("criterion %d: PASS - %s" % (num, text))


@pytest.fixture(scope="module")
def certified():
    """All eleven reference graphs with their certification reports.

    Returns (entries, elapsed): entries maps name -> dict with keys
    kind ('circulant' | 'flat'), graph, es, report, and for circulants the
    exact spec, for the flat family its (a, b, beta); elapsed covers the
    whole build-and-certify loop.
    """
    builders = []
    circ_i = CirculantSpec.from_rows(3, 4, [[0, 0], [0, -1], [0, 1]], 1)  # Circ(0, -i, i)
    builders.append(
        ("circ_i", "circulant", lambda: (circulant_to_graph(circ_i), circulant_eigensystem(circ_i)), circ_i, None)
    )
    for k in (2, 4, 6, 8):
        builders.append(("gk_%d" % k, "flat", lambda k=k: gk_example(k), None, None))
    for abb in THM_PARAMS:
        builders.append(
            (
                "thm_%d_%d_%d" % abb,
                "flat",
                lambda abb=abb: noncirculant_graph(NoncirculantParams(*abb)),
                None,
                abb,
            )
        )
    for pq in NONDENSE_PAIRS:
        spec = nondense_circulant(*pq)
        builders.append(
            (
                "nondense_%d_%d" % pq,
                "circulant",
                lambda spec=spec: (circulant_to_graph(spec), circulant_eigensystem(spec)),
                spec,
                None,
            )
        )
    entries = {}
    start = time.monotonic()
    for name, kind, build, spec, abb in builders:
        graph, es = build()
        report = verify_upst(graph, es)
        entries[name] = {
            "kind": kind,
            "graph": graph,
            "es": es,
            "report": report,
            "spec": spec,
            "abb": abb,
        }
    elapsed = time.monotonic() - start
    return entries, elapsed


def test_criterion_1_printed_order4_example():
    g, es = gk_example(6)
    assert abs(g.adjacency[0, 1] - 1.5 * (1 + np.exp(-1j * math.pi / 6))) < 1e-12
    assert abs(g.adjacency[0, 2] - 0.5) < 1e-12
    assert sorted(es.exact_lambdas) == [0, 1, 6, 7]
    _ok(1, "order-4 example matches its printed entries and spectrum (0,1,6,7)")


def test_criterion_2_exact_sparse_circulant():
    spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(5, 2))
    expected_a2 = CycNum(6, (4, -2), 3)  # (4 - 2 zeta_6) / 3
    assert spec.a[0] == CycNum(6, (5, 0), 2)
    assert spec.a[1].is_zero()
    assert spec.a[5].is_zero()
    assert spec.a[2] == expected_a2
    assert abs(spec.a[2].embed() - (1 - 1j / math.sqrt(3))) < 1e-15
    assert spec.a[3] == CycNum(6, (3, 0), 2)
    assert spec.a[4] == CycNum(6, (2, 2), 3)  # conj(a_2), as zeta_6^5 = 1 - zeta_6
    es = circulant_eigensystem(spec)
    assert es.exact_lambdas == (6, 1, 2, 3, 4, -1)
    _ok(2, "exact pipeline reproduces the sparse n=6 circulant and spectrum (6,1,2,3,4,-1)")


def test_criterion_3_certification_of_all_fixtures(certified):
    entries, elapsed = certified
    assert len(entries) == 11
    for name, e in entries.items():
        report = e["report"]
        assert report.upst is True, (name, report.reasons)
        assert not np.any(np.isnan(report.min_times)), name
        gap = float(np.max(np.abs(report.min_times[0] - report.analytic_times)))
        assert gap <= 1e-8, (name, gap)
    assert elapsed < 30.0, elapsed
    _ok(3, "all 11 fixtures certify with analytic/scanned agreement <= 1e-8 in %.1fs" % elapsed)


def test_criterion_4_transfer_time_spacing(certified):
    entries, _ = certified
    for name, e in entries.items():
        if e["kind"] == "circulant":
            assert e["report"].circulant_timing is True, name
    for abb in THM_PARAMS:
        a, b, beta = abb
        e = entries["thm_%d_%d_%d" % abb]
        report = e["report"]
        assert report.circulant_timing is False, abb
        bn = beta * a * b
        t1 = report.min_times[0, 1]
        assert abs(t1 - TWO_PI / bn) <= 1e-8, abb
        gap_at_a = report.min_times[0, a] - report.min_times[0, a - 1]
        expected = TWO_PI * ((beta - 1) * a + 1) / bn
        assert abs(gap_at_a - expected) <= 1e-8, abb
    _ok(4, "circulants pass the spacing law, flat graphs break it with the predicted gaps")


def test_criterion_5_denseness_of_integer_circulants():
    rng = np.random.default_rng(75)
    for n in (2, 3, 4, 5, 7, 8, 9, 16, 25):
        for _ in range(100):
            c = [int(v) for v in rng.integers(-9, 10, size=n)]
            spec = circulant_from_c(n, c)
            dense, zeros = denseness_check(spec)
            assert dense, (n, c, zeros)
    for p, q in ((2, 3), (2, 5), (3, 5)):
        spec = nondense_circulant(p, q)
        dense, _ = denseness_check(spec)
        assert not dense, (p, q)
        assert spec.a[1].is_zero(), (p, q)
        assert is_connected_circulant(spec), (p, q)
    _ok(5, "900 random integer circulants are dense; two-prime family is sparse yet connected")


def test_criterion_6_canonical_flatness(certified):
    entries, _ = certified

    def check(matrix):
        n = matrix.shape[0]
        canon = canonicalize(matrix)
        root = 1 / math.sqrt(n)
        border = max(
            float(np.max(np.abs(canon[0, :] - root))),
            float(np.max(np.abs(canon[:, 0] - root))),
        )
        assert border <= 1e-12
        assert zero_sum_check(canon)

    for name, e in entries.items():
        check(e["es"].X)
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        row_phases = np.exp(1j * rng.uniform(0, TWO_PI, size=n))
        col_phases = np.exp(1j * rng.uniform(0, TWO_PI, size=n))
        check(row_phases[:, None] * fourier_matrix(n) * col_phases[None, :])
    _ok(6, "canonical form is exactly bordered and zero-sum for all diagonalizers")


def test_criterion_7_eigenvalue_form_recognizer():
    witness = recognize_eigenvalue_form((6, 1, 2, 3, 4, -1), 6)
    assert witness is not None
    assert witness.alpha == pytest.approx(0.0, abs=1e-9)
    assert witness.beta == pytest.approx(1.0, abs=1e-9)
    assert witness.q == 1
    assert witness.c == (1, 0, 0, 0, 0, -1)

    sq3 = math.sqrt(3)
    irr = recognize_eigenvalue_form((0.0, sq3, -sq3), 3)
    assert irr is not None
    assert irr.beta == pytest.approx(sq3, abs=1e-9)

    assert recognize_eigenvalue_form((0.0, 1.0, math.sqrt(2)), 3) is None

    rng = np.random.default_rng(7)
    cases = [
        (np.array([6.0, 1.0, 2.0, 3.0, 4.0, -1.0]), 6, True),
        (np.array([0.0, sq3, -sq3]), 3, True),
        (np.array([0.0, 1.0, math.sqrt(2)]), 3, False),
    ]
    for lam, n, accepted in cases:
        for _ in range(20):
            scale = float(rng.uniform(0.1, 3.0))
            offset = float(rng.uniform(-5.0, 5.0))
            verdict = recognize_eigenvalue_form(scale * lam + offset, n) is not None
            assert verdict == accepted, (lam, scale, offset)
    _ok(7, "recognizer pins both witnesses, rejects sqrt(2), and is affine-invariant")


def test_criterion_8_walk_engine_properties(certified):
    entries, _ = certified
    rng = np.random.default_rng(11)
    for name, e in entries.items():
        es = e["es"]
        for _ in range(100):
            s, t = rng.uniform(-6, 6, size=2)
            drift = np.max(np.abs(unitary_at(es, s) @ unitary_at(es, t) - unitary_at(es, s + t)))
            assert drift <= 1e-9, name
        report = e["report"]
        n = report.n
        for u in range(n):
            for v in range(n):
                if v != u:
                    assert report.min_times[u, v] < report.min_times[u, u], (name, u, v)
        if e["kind"] == "circulant":
            result = monomial_check(unitary_at(es, report.min_times[0, 1]))
            assert result is not None, name
            perm, _ = result
            assert list(perm) == [(j + 1) % n for j in range(n)], name
    _ok(8, "group law, cyclic-shift monomial structure, and transfer-before-return all hold")


def test_criterion_9_exact_numerical_oracle_agreement(certified):
    entries, _ = certified
    for name, e in entries.items():
        if e["kind"] != "circulant" or e["graph"].n > 16:
            continue
        exact_embedded = np.sort(e["es"].lambdas)
        numerical = np.sort(np.linalg.eigvalsh(e["graph"].adjacency))
        assert float(np.max(np.abs(exact_embedded - numerical))) <= 1e-9, name
    _ok(9, "embedded cyclotomic eigenvalues match the dense numerical solver to 1e-9")
