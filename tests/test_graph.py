"""Hermitian graphs and exact circulant specifications."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import spec_reference as ref
from field_reference import cyc, rational, zeta
from upst.constructors import circulant_from_c
from upst.cyclotomic import CycNum, euler_phi, power_map_rows
from upst.graph import (
    CirculantSpec,
    HermitianGraph,
    circulant_to_graph,
    is_connected_circulant,
    validate_hermitian,
    with_diagonal_shift,
)


# ------------------------------------------------------------ spec checks

def test_spec_requires_real_leading_coefficient():
    with pytest.raises(ValueError, match="^a_0 = "):
        CirculantSpec.from_rows(3, 4, [[0, 1], [0, -1], [0, 1]], 1)  # (i, -i, i)


def test_spec_requires_conjugate_symmetry():
    with pytest.raises(ValueError):
        CirculantSpec.from_rows(3, 4, [[0, 0], [0, 1], [0, 1]], 1)  # a_2 must be conj(a_1) = -i


def test_spec_refuses_a_non_real_middle_coefficient():
    # even n: a_(n/2) is its own mirror, so it must be real
    with pytest.raises(ValueError, match=r"a_2 != conjugate\(a_2\)"):
        CirculantSpec.from_rows(4, 4, [[0, 0], [0, 0], [0, 1], [0, 0]], 1)


def test_spec_names_the_first_pair_that_is_not_conjugate():
    # (0, z, z^2, z^3, 1, conj(z^3), z^2, conj(z)) for z = zeta_8, whose powers
    # z^4..z^7 are -1, -z, -z^2, -z^3: j = 1 and 3 are conjugate pairs
    w = np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                  [1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    with pytest.raises(ValueError, match=r"^a_6 != conjugate\(a_2\)"):
        CirculantSpec.from_rows(8, 8, w, 1)  # a_6 = i, but conj(a_2) = -i
    w[6, 2] = -1
    CirculantSpec.from_rows(8, 8, w, 1)


def test_spec_accepts_a_low_conductor_spec_and_its_promotion():
    # (7/2, x, x + conj(x), conj(x)) over 30 for x = 1/3 - (2/5) zeta_3
    w = np.array([[105, 0], [10, -12], [32, 0], [22, 12]])
    CirculantSpec.from_rows(4, 3, w, 30)
    CirculantSpec.from_rows(4, 12, power_map_rows(12, w, 4), 30)
    w[3] = w[1]
    with pytest.raises(ValueError, match=r"a_3 != conjugate\(a_1\)"):
        CirculantSpec.from_rows(4, 3, w, 30)


def test_spec_checks_numerators_past_int64_exactly():
    c = [2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1]
    spec = circulant_from_c(8, c)
    assert max(abs(v) for x in spec.a for v in x.num) >= 2**63
    assert CirculantSpec.from_rows(8, spec.conductor, spec.w, spec.den) == spec
    w = spec.w.copy()
    w[5, 1] += 1  # off by one unit in a single coordinate
    with pytest.raises(ValueError, match=r"a_5 != conjugate\(a_3\)"):
        CirculantSpec.from_rows(8, spec.conductor, w, spec.den)


def test_spec_check_agrees_with_conjugating_each_coefficient():
    rng = np.random.default_rng(7)
    for trial in range(60):
        lcond = int(rng.choice([1, 2, 3, 4, 5, 8, 12]))
        n = int(rng.integers(1, 9))
        k = euler_phi(lcond)
        a = [cyc(lcond, [int(v) for v in rng.integers(-3, 4, size=k)]) for _ in range(n)]
        if rng.random() < 0.9:
            a[0] = a[0] + a[0].conjugate()
        for j in range(1, n // 2 + 1):
            if rng.random() < 0.8:
                a[n - j] = a[j].conjugate()
        expected = None
        if a[0].conjugate() != a[0]:
            expected = "a_0 = "
        else:
            for j in range(1, n // 2 + 1):
                if a[n - j] != a[j].conjugate():
                    expected = "a_%d != conjugate(a_%d)" % (n - j, j)
                    break
        if expected is None:
            ref.circulant_spec(n, tuple(a))
        else:
            with pytest.raises(ValueError, match="^" + re.escape(expected)):
                ref.circulant_spec(n, tuple(a))


def test_spec_requires_single_conductor():
    with pytest.raises(ValueError, match="mix conductors"):
        ref.circulant_spec(3, (rational(4, 0), zeta(6), zeta(6, 5)))


@pytest.mark.parametrize("n", [0, -2])
def test_spec_order_must_be_positive(n):
    with pytest.raises(ValueError, match="^circulant order must be positive, got %d$" % n):
        CirculantSpec.from_rows(n, 1, [], 1)


def test_spec_length_must_match_order():
    with pytest.raises(ValueError, match="expected 4 coefficients, got 3"):
        CirculantSpec.from_rows(4, 4, [[0, 0], [0, 1], [0, -1]], 1)


# -------------------------------------------------------------- embedding

def test_order3_circulant_entries(circ3):
    g = circulant_to_graph(circ3)
    assert g.n == 3
    assert abs(g.adjacency[0, 1] - (-1j)) < 1e-15
    assert abs(g.adjacency[1, 0] - 1j) < 1e-15
    assert abs(g.adjacency[1, 2] - (-1j)) < 1e-15
    assert abs(g.adjacency[2, 0] - (-1j)) < 1e-15
    assert np.all(np.abs(np.diag(g.adjacency)) < 1e-15)
    assert g.spec is circ3


def test_zero_spec_embeds_to_zero_matrix():
    spec = CirculantSpec.from_rows(4, 4, [[0, 0]] * 4, 1)
    g = circulant_to_graph(spec)
    assert np.all(g.adjacency == 0)


def test_nondense6_matches_printed_row_after_shift(nd6):
    shifted = with_diagonal_shift(nd6, Fraction(5, 2))
    g = circulant_to_graph(shifted)
    root3 = math.sqrt(3)
    expected_row0 = np.array(
        [2.5, 0.0, 1 - 1j / root3, 1.5, 1 + 1j / root3, 0.0], dtype=complex
    )
    assert np.max(np.abs(g.adjacency[0] - expected_row0)) < 1e-12
    # every row is the cyclic shift of row 0
    for j in range(6):
        assert np.max(np.abs(g.adjacency[j] - np.roll(expected_row0, j))) < 1e-12


def test_embedding_is_hermitian_with_real_diagonal(nd6):
    g = circulant_to_graph(nd6)
    assert np.max(np.abs(g.adjacency - g.adjacency.conj().T)) < 1e-15
    assert np.max(np.abs(np.diag(g.adjacency).imag)) == 0.0


def test_circulant_invariant_under_cyclic_relabeling(nd6, circ3):
    for spec in (nd6, circ3):
        a = circulant_to_graph(spec).adjacency
        n = spec.n
        p = np.zeros((n, n))
        for j in range(n):
            p[(j + 1) % n, j] = 1.0
        assert np.max(np.abs(p @ a @ p.T - a)) < 1e-12


# ------------------------------------------------------------ connectivity

def test_connectivity_of_order3(circ3):
    assert is_connected_circulant(circ3)


def test_disconnected_even_support():
    spec = CirculantSpec.from_rows(6, 6, [[0, 0], [0, 0], [1, 0], [0, 0], [1, 0], [0, 0]], 1)
    assert not is_connected_circulant(spec)  # support {2, 4}, gcd with 6 is 2


def test_nondense6_is_connected(nd6):
    assert is_connected_circulant(nd6)  # support {2,3,4}, gcd 1


# ------------------------------------------------------- hermitian wrapper

def test_validate_accepts_identity():
    g = validate_hermitian(np.eye(4))
    assert isinstance(g, HermitianGraph)
    assert g.n == 4


@pytest.mark.parametrize("bad", [
    np.array([[0, 1j], [1j, 0]]),
    # as skew as [[0, 1], [3, 0]]: HERMITICITY_TOL is relative to max|A| with
    # no floor, where an absolute 1e-12 accepted it
    np.array([[0, 1e-13], [3e-13, 0]]),
], ids=["unit", "tiny"])
def test_validate_rejects_skew_entries(bad):
    with pytest.raises(ValueError) as err:
        validate_hermitian(bad)
    assert "0" in str(err.value) and "1" in str(err.value)  # names the entry


def test_validate_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        validate_hermitian(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        validate_hermitian(np.array([[np.inf, 0], [0, 0]], dtype=complex))


def test_validate_accepts_order4_flat_spectrum_graph():
    from upst.constructors import gk_example

    g, _ = gk_example(6)
    shifted = g.adjacency - 3.5 * np.eye(4)  # zero-diagonal presentation
    wrapped = validate_hermitian(shifted)
    assert wrapped.n == 4


# --------------------------------------------------------- diagonal shift

def test_diagonal_shift_is_exact(nd6):
    shifted = with_diagonal_shift(nd6, Fraction(5, 2))
    assert shifted.a[0] == CycNum(6, (5, 0), 2)
    assert all(x == y for x, y in zip(shifted.a[1:], nd6.a[1:]))
    delta = circulant_to_graph(shifted).adjacency - circulant_to_graph(nd6).adjacency
    assert np.max(np.abs(delta - 2.5 * np.eye(6))) < 1e-15


def test_diagonal_shift_accepts_integers(circ3):
    shifted = with_diagonal_shift(circ3, 2)
    assert shifted.a[0] == CycNum(4, (2, 0), 1)
