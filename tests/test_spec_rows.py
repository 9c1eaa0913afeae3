"""CirculantSpec on one integer coefficient matrix against the CycNum-tuple
path it replaced (spec_reference): the same JSON bytes, coefficients,
equality, adjacency bits and exact spectra; and a count showing that the
exact route builds no CycNum."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_reference as ref
from upst import cyclotomic
from upst.constructors import circulant_from_c, nondense_circulant
from upst.cyclotomic import CycNum
from upst.graph import CirculantSpec, circulant_to_graph, is_connected_circulant, with_diagonal_shift
from upst.serialize import graph_from_json, graph_to_json, load_graph, spec_from_json, spec_to_json
from upst.spectra import circulant_eigensystem
from upst.walk import denseness_check

SHIFTS = (0, Fraction(7, 3), 10**9)
NONDENSE_PAIRS = ((2, 3), (2, 5), (2, 7), (2, 11), (2, 13), (2, 17), (3, 5), (3, 7), (3, 11),
                  (5, 7))
# past int64, as in test_graph.test_spec_checks_numerators_past_int64_exactly
BIG_C = [2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1]


def hex_bits(m):
    return [float.hex(x) for x in np.asarray(m).view(float).ravel().tolist()]


def assert_same_as_reference(spec, n, a):
    """spec (the matrix path) and the reference spec (n, a) agree everywhere."""
    ref.check_hermitian(n, a)
    data = spec_to_json(spec)
    assert json.dumps(data) == json.dumps(ref.spec_to_json(n, a))
    assert spec.a == a
    assert spec == CirculantSpec(n, a) == spec_from_json(json.loads(json.dumps(data)))
    assert ref.spec_from_json(data) == (n, a)
    assert hex_bits(circulant_to_graph(spec).adjacency) == hex_bits(ref.adjacency(n, a))
    es = circulant_eigensystem(spec)
    lambdas, exact_lambdas, offset, rows = ref.eigensystem(n, a)
    assert (es.exact_lambdas, es.offset, es.exact_rows) == (exact_lambdas, offset, rows)
    assert hex_bits(es.lambdas) == hex_bits(lambdas)


def assert_shifts_same_as_reference(spec, n, a):
    assert_same_as_reference(spec, n, a)
    for alpha in SHIFTS:
        assert_same_as_reference(with_diagonal_shift(spec, alpha), n, ref.shifted(a, alpha))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24).flatmap(lambda n: st.lists(
    st.one_of(st.integers(-9, 9), st.integers(-(2**62), 2**62)), min_size=n, max_size=n)))
def test_random_c_vectors_match_the_reference(c):
    n = len(c)
    assert_shifts_same_as_reference(circulant_from_c(n, c), n, ref.coefficients_from_c(n, c))


@pytest.mark.parametrize("p,q", NONDENSE_PAIRS)
def test_two_prime_circulants_match_the_reference(p, q):
    n = p * q
    spec = nondense_circulant(p, q)
    a = ref.coefficients_from_c(n, ref.nondense_c(p, q))
    assert a[1].is_zero() and a[n - 1].is_zero()
    assert_shifts_same_as_reference(spec, n, a)


def test_numerators_past_int64_match_the_reference():
    spec = circulant_from_c(8, BIG_C)
    assert spec.w.dtype == object
    assert_shifts_same_as_reference(spec, 8, ref.coefficients_from_c(8, BIG_C))


def test_irrational_and_promoted_specs_match_the_reference(circ3):
    assert_shifts_same_as_reference(circ3, 3, circ3.a)
    x = CycNum(3, (Fraction(1, 3), Fraction(-2, 5)))
    a = (CycNum.from_rational(3, Fraction(7, 2)), x, x + x.conjugate(), x.conjugate())
    for b in (a, tuple(y.promote(12) for y in a)):
        assert_shifts_same_as_reference(CirculantSpec(4, b), 4, b)


def test_the_matrix_is_read_only_in_lowest_terms():
    spec = with_diagonal_shift(nondense_circulant(3, 5), Fraction(7, 3))
    assert spec.den == 15 and not spec.w.flags.writeable
    assert np.gcd.reduce(np.append(spec.w.ravel(), spec.den)) == 1
    assert with_diagonal_shift(spec, Fraction(-7, 3)) == nondense_circulant(3, 5)
    with pytest.raises(AttributeError):
        spec.n = 3


# ------------------------------------------------------------- work count

@pytest.fixture
def built(monkeypatch):
    """Every CycNum made from here on, through CycNum() or cyclotomic._make."""
    made = []
    make, init = cyclotomic._make, CycNum.__init__

    def counting_make(*args):
        made.append(args)
        return make(*args)

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(cyclotomic, "_make", counting_make)
    monkeypatch.setattr(CycNum, "__init__", counting_init)
    return made


def test_the_exact_route_builds_no_cyclotomic_number(tmp_path, circ3, built):
    bundles = []
    for spec in (circ3, circulant_from_c(16, list(range(16))), nondense_circulant(3, 5)):
        path = tmp_path / ("%d.json" % len(bundles))
        path.write_text(json.dumps(graph_to_json(circulant_to_graph(spec))))
        bundles.append(path)
    del built[:]
    c = [int(v) for v in np.random.default_rng(64).integers(-9, 10, size=64)]
    for spec in (circulant_from_c(64, c), circulant_from_c(8, BIG_C), circ3):
        circulant_eigensystem(spec)
        denseness_check(spec)
        is_connected_circulant(spec)
        with_diagonal_shift(spec, Fraction(7, 3))
    for path in bundles:
        graph_from_json(json.loads(path.read_text()))
        load_graph(str(path))
    assert built == []
    nondense_circulant(5, 17)  # may build its one unit
    assert len(built) <= 1


def test_the_counters_see_a_cyclotomic_number(circ3, built):
    circ3.a
    CycNum(4, (1, 0))
    assert len(built) == 4
