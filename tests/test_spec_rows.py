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
from field_reference import cyc, rational
from upst import cyclotomic
from upst.constructors import circulant_from_c, integer_spectrum_shift, nondense_circulant
from upst.cyclotomic import CycNum, power_map_rows
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
    assert spec == ref.circulant_spec(n, a) == spec_from_json(json.loads(json.dumps(data)))
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
    x = cyc(3, (Fraction(1, 3), Fraction(-2, 5)))
    a = (rational(3, Fraction(7, 2)), x, x + x.conjugate(), x.conjugate())
    spec = CirculantSpec.from_rows(4, 3, [[105, 0], [10, -12], [32, 0], [22, 12]], 30)
    assert_shifts_same_as_reference(spec, 4, a)
    promoted = CirculantSpec.from_rows(4, 12, power_map_rows(12, spec.w, 4), spec.den)
    assert_shifts_same_as_reference(promoted, 4, tuple(y.promote(12) for y in a))


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
    """Every CycNum made from here on."""
    made = []
    init = CycNum.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

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
    CycNum(4, (1, 0), 1)
    assert len(built) == 4


def test_a_refused_spec_names_its_row_and_builds_no_cyclotomic_number(built):
    # a_0 = i is not real: the message reads a_0 off its row, building no
    # CycNum for the other coefficients or for itself
    with pytest.raises(ValueError) as raised:
        CirculantSpec.from_rows(3, 4, [[0, 2], [0, -1], [0, 1]], 3)
    assert str(raised.value) == "a_0 = [0, 2] / 3 in powers of zeta_4 is not real"
    with pytest.raises(ValueError, match=r"^a_2 != conjugate\(a_1\)"):
        CirculantSpec.from_rows(3, 4, [[0, 0], [0, 1], [0, 1]], 1)
    assert built == []


# ------------------------------------------------------- what callers read

@pytest.mark.parametrize("name", ["nondense(2,3)", "nondense(5,17)", "circulant_c(16)"])
def test_the_zero_tests_and_fractions_the_exact_census_reads(name):
    # a_j.is_zero() against the row, and exact eigenvalues l + c_l*n - shift as Fractions
    if name == "circulant_c(16)":
        n, c = 16, [int(v) for v in np.random.default_rng(16).integers(-9, 10, size=16)]
        spec = circulant_from_c(n, c)
    else:
        p, q = (2, 3) if name == "nondense(2,3)" else (5, 17)
        n, c = p * q, ref.nondense_c(p, q)
        spec = nondense_circulant(p, q)
        assert spec.a[1].is_zero()
    assert [x.is_zero() for x in spec.a] == [not row.any() for row in spec.w]
    exact = circulant_eigensystem(spec).exact_lambdas
    assert type(exact) is tuple and all(type(lam) is Fraction for lam in exact)
    shift = integer_spectrum_shift(n, c)
    assert exact == tuple(l + ck * n - shift for l, ck in enumerate(c))


DELETED = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
           "galois", "conjugate", "promote", "zero", "one", "from_rational", "as_fraction",
           "is_rational", "coeffs", "_coerce", "_power_map", "_row")


def test_the_field_surface_is_a_value_and_rows():
    assert [name for name in DELETED if hasattr(CycNum, name)] == []
    assert not hasattr(cyclotomic, "zeta") and not hasattr(cyclotomic, "_row")
    assert "__init__" not in vars(CirculantSpec)
    with pytest.raises(TypeError):
        CirculantSpec(3, (CycNum(4, (0, 0), 1), CycNum(4, (0, -1), 1), CycNum(4, (0, 1), 1)))
    spec = with_diagonal_shift(nondense_circulant(3, 5), Fraction(7, 3))
    again = ref.circulant_spec(spec.n, spec.a)  # rows over the lcm of the a_j's denominators
    assert again == spec and hash(again) == hash(spec)
    assert again.w.tolist() == spec.w.tolist() and again.den == spec.den == 15
