"""Exact cyclotomic arithmetic: Phi_n, reduction of exponent rows, power maps,
the CycNum value and its embedding.

The independent oracle throughout is double-precision evaluation at
e^(2*pi*i/n): every exact identity must also hold numerically after embed().
Field arithmetic on values is field_reference's, and the tests of zeta, +, -,
*, Galois maps, conjugation, promotion and the norm check that oracle.
"""

import cmath
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_reference import cyc, rational, zeta
from spec_reference import cyc_from_exponent_rows
from upst import cyclotomic
from upst.cyclotomic import (
    CycNum,
    _reduction_matrix,
    check_degree,
    cyclotomic_polynomial,
    euler_phi,
    exact_int_dtype,
    integer_vector,
    power_map_rows,
    reduce_exponent_rows,
)

EMBED_TOL = 1e-10


def naive_embed(x: CycNum) -> complex:
    # independent of CycNum.embed's Horner loop
    root = cmath.exp(2j * cmath.pi / x.n)
    return sum(float(Fraction(c, x.den)) * root**k for k, c in enumerate(x.num))


# ---------------------------------------------------------------- euler phi

def test_euler_phi_small_values():
    expected = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4, 15: 8, 30: 8}
    for n, phi in expected.items():
        assert euler_phi(n) == phi


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(ValueError):
        euler_phi(0)
    with pytest.raises(ValueError):
        euler_phi(-3)


# ------------------------------------------------- cyclotomic polynomials

def test_cyclotomic_polynomial_table():
    # frozen table entries, low-degree-first coefficients
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_cyclotomic_polynomial_degree_is_phi():
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24, 30):
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_cyclotomic_polynomials_multiply_to_x_pow_n_minus_1():
    # prod_{d | n} Phi_d = x^n - 1, checked as exact integer polynomials; for
    # every n up to 400 this fixes each Phi_n as the quotient of x^n - 1 by
    # the Phi_d of the proper divisors d
    for n in range(1, 401):
        prod = np.array([1], dtype=object)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = np.convolve(prod, np.array(cyclotomic_polynomial(d), dtype=object))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod.tolist() == expected, n


def test_primitive_root_is_a_root_of_phi_n():
    for n in (5, 6, 8, 12, 15):
        poly = cyclotomic_polynomial(n)
        root = cmath.exp(2j * cmath.pi / n)
        value = sum(c * root**k for k, c in enumerate(poly))
        assert abs(value) < 1e-9


# ------------------------------------------------------------ construction

def test_zeta_normalizes_exponent():
    assert zeta(6, 7) == zeta(6, 1)
    assert zeta(6, -1) == zeta(6, 5)


def test_coefficient_vector_length_is_enforced():
    with pytest.raises(ValueError):
        check_degree(6, 1)  # needs phi(6) = 2 entries


def test_a_conductor_too_large_for_its_coefficients_is_refused_unfactored(monkeypatch):
    # phi(n) >= sqrt(n/2), so n > 2 len(coeffs)^2 cannot match; refusing it
    # before euler_phi keeps a file's n from buying a trial division to sqrt(n)
    def spy(n):
        raise AssertionError("euler_phi(%d) called" % n)

    monkeypatch.setattr(cyclotomic, "euler_phi", spy)
    for n, k in ((10**16 + 61, 2), (9, 2), (3, 1), (10**40, 10**3)):
        with pytest.raises(ValueError):
            check_degree(n, k)


def test_every_conductor_keeps_its_coefficient_vectors():
    # the bound refuses no valid input: n <= 2 phi(n)^2 for every n
    for n in range(1, 3001):
        check_degree(n, euler_phi(n))


def test_float_coefficients_are_rejected():
    # 0.5 happens to be exact, but 0.1 would silently store a binary fraction
    with pytest.raises(TypeError):
        integer_vector((0.5, 0))
    with pytest.raises(TypeError):
        integer_vector((0.1,))


def test_unreduced_fractions_give_equal_elements():
    a = CycNum(6, (6, -8), 12)
    b = CycNum(6, [3, -4], 6)
    assert a == b and hash(a) == hash(b)
    assert a.num == (3, -4) and a.den == 6
    assert CycNum(4, (0, 0), 7) == CycNum(4, (0, 0), 1)
    assert CycNum(4, (0, 0), 7).den == 1 and CycNum(4, (0, 0), 7).is_zero()


def test_elements_are_immutable_and_picklable():
    x = CycNum(12, (-4, 0, 3, 0), 4)
    with pytest.raises(AttributeError):
        x.n = 6
    with pytest.raises(AttributeError):
        x.den = 2
    y = pickle.loads(pickle.dumps(x))
    assert y == x and hash(y) == hash(x)


def test_high_zeta_powers_reduce():
    # zeta_6^2 lies outside the power basis {1, zeta}; reduction must kick in:
    # Phi_6 = x^2 - x + 1, so zeta^2 = zeta - 1 and zeta^3 = -1
    assert reduce_exponent_rows(6, np.eye(6, dtype=np.int64)[2:4]).tolist() == [[-1, 1], [-1, 0]]


def test_exponent_rows_builder_matches_powers():
    v = np.zeros((1, 12), dtype=np.int64)
    v[0, 3] = 1
    v[0, 7] = -2
    assert cyc_from_exponent_rows(12, v, [1]) == [zeta(12, 3) - 2 * zeta(12, 7)]
    with pytest.raises(ValueError):
        cyc_from_exponent_rows(12, np.zeros((1, 5), dtype=np.int64), [1])


def test_exponent_rows_are_the_exponent_sums_in_lowest_terms():
    # row i is sum_m v[i, m] zeta_n^m / dens[i]: the exact product with R_n
    # (pinned to Phi_n by test_reduction_matrix_is_determined_by_phi_n), in
    # lowest terms, and numerically the sum itself
    rng = np.random.default_rng(5)
    dens = [1, 2, 3, 7]
    for n in (1, 2, 6, 12, 15, 30, 64):
        v = rng.integers(-50, 51, size=(len(dens), n))
        w = v.astype(object) @ _reduction_matrix(n)[0].astype(object)
        got = cyc_from_exponent_rows(n, v, dens)
        assert got == [cyc(n, [Fraction(c, d) for c in row]) for row, d in zip(w, dens)], n
        assert all(math.gcd(x.den, *x.num) == 1 for x in got)
        assert all(type(c) is int for x in got for c in x.num + (x.den,))
        roots = np.exp(2j * np.pi * np.arange(n) / n)
        for x, row, d in zip(got, v, dens):
            assert abs(x.embed() - row @ roots / d) < EMBED_TOL, n


def test_exponent_rows_past_the_int64_bound_run_on_python_ints():
    # zeta_12^4 = zeta^2 - 1 and zeta_12^6 = -1: the constant term of this row
    # is -3*2^62, outside int64, so an int64 product would have wrapped
    v = np.zeros((2, 12), dtype=np.int64)
    v[0, 4] = v[0, 6] = 3 * 2**61
    v[1, 1] = -(2**62)
    got = cyc_from_exponent_rows(12, v, [1, 5])
    expected = [
        CycNum(12, (-3 * 2**62, 0, 3 * 2**61, 0), 1),
        CycNum(12, (0, -(2**62), 0, 0), 5),
    ]
    assert got == expected
    assert got[0].num[0] == -3 * 2**62
    # R_2 = [[1], [-1]] grows sums by 2: 2^62 - (-2^62) = 2^63 is one past int64
    edge = np.array([[2**62, -(2**62)], [2**62 - 1, -(2**62)]], dtype=np.int64)
    assert cyc_from_exponent_rows(2, edge, [1, 1]) == [
        CycNum(2, (2**63,), 1),
        CycNum(2, (2**63 - 1,), 1),
    ]
    assert exact_int_dtype(2**63 - 1) is np.int64
    assert exact_int_dtype(2**63) is object
    # zeta_3^2 = -1 - zeta_3
    big = np.array([[2**70, 0, -(2**65)]], dtype=object)
    assert cyc_from_exponent_rows(3, big, [1]) == [CycNum(3, (2**70 + 2**65, 2**65), 1)]


def reduces_modulo_phi(n, r):
    """Whether r is R_n.  Two facts determine it: its first phi(n) rows are
    the power basis, and each of the n cyclic shifts x^s Phi_n(x), as a
    length-n exponent row (exponents mod n), reduces to 0, which fixes row
    phi(n) + s from the rows below it."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    if r.shape != (n, deg) or r[:deg].tolist() != np.eye(deg, dtype=int).tolist():
        return False
    v = np.zeros((n, n), dtype=np.int64)
    s = np.arange(n)[:, np.newaxis]
    np.add.at(v, (s, (s + np.arange(deg + 1)) % n), phi)
    return not (v @ r).any()


def reference_reduction_matrix(n):
    """R_n and growth as one list row per power, the build _reduction_matrix replaced."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    rows = [[1] + [0] * (deg - 1)]
    for _ in range(1, n):
        top, row = rows[-1][-1], [0] + rows[-1][:-1]
        for j, c in terms:
            row[j] -= top * c
        rows.append(row)
    growth = max(sum(map(abs, col)) for col in zip(*rows))
    return np.array(rows, dtype=exact_int_dtype(growth)), growth


def test_reduction_matrix_equals_the_row_by_row_build():
    for n in range(1, 301):
        r, growth = _reduction_matrix(n)
        expected, expected_growth = reference_reduction_matrix(n)
        assert (r.dtype, r.tolist(), growth) == (expected.dtype, expected.tolist(), expected_growth)
        assert not r.flags.writeable and type(growth) is int


def test_reduction_matrix_is_determined_by_phi_n():
    for n in range(1, 201):
        r, growth = _reduction_matrix(n)
        assert reduces_modulo_phi(n, r), n
        assert growth == int(np.abs(r).sum(axis=0).max()), n
        assert r.dtype == np.int64 and not r.flags.writeable
    # the oracle refuses R_n with any one entry changed, in the power basis or past it
    for n in (1, 2, 12, 15, 30):
        r = _reduction_matrix(n)[0]
        for i, j in np.ndindex(r.shape):
            bad = r.copy()
            bad[i, j] += 1
            assert not reduces_modulo_phi(n, bad), (n, i, j)


@pytest.mark.parametrize("n", [1, 2, 12, 64, 85, 105])
def test_reduce_exponent_rows_is_the_exact_integer_product(n):
    # One float64 GEMM while max|v| growth < 2^53, Python ints from there on.
    # Row 0 of v meets the bound: it is max|v| times the signs of the column
    # j of R_n whose |entries| sum to growth, so W[0, j] = max|v| growth, with
    # one unit taken off where R_n[j, j] = 1 to make it odd.  Just below 2^53
    # every double on the way is exact; from 2^53 up an odd W[0, j] is not a
    # double, so a float product there cannot be right.  Phi_105 has the
    # coefficient -2.
    r, growth = _reduction_matrix(n)
    j = int(np.argmax(np.abs(r).sum(axis=0)))
    rng = np.random.default_rng(n)
    for top, dtype in (((2**53 - 1) // growth, np.int64), (2**53 // growth + 1, object)):
        v = rng.integers(-top, top + 1, size=(6, n))
        v[0] = top * np.where(r[:, j] < 0, -1, 1)
        v[0, j] -= 1 - top * growth % 2
        w = reduce_exponent_rows(n, v)
        assert w.dtype == dtype
        assert w.tolist() == (v.astype(object) @ r.astype(object)).tolist()
        assert abs(w[0, j]) % 2 == 1 and (abs(w[0, j]) >= 2**53) == (dtype is object)


# ------------------------------------------------------------- arithmetic

def test_one_row_operations_stay_exact_past_int64(monkeypatch):
    # numerators near 2^70: Galois maps, conjugation and promotion of rows
    # reduce on Python ints, and these identities hold whatever the reduction
    # (the products are field_reference's, on the same reduction)
    dtypes = []
    reduce = cyclotomic.reduce_exponent_rows

    def spy(n, v):
        w = reduce(n, v)
        dtypes.append(w.dtype)
        return w

    monkeypatch.setattr(cyclotomic, "reduce_exponent_rows", spy)
    x = cyc(12, [2**70 + 3, -(2**70) + 5, 2**69 - 7, Fraction(2**70 + 1, 3)])
    y = cyc(12, [-(2**69) + 11, 2**70 - 13, Fraction(2**70 - 1, 5), 2**68 + 17])
    assert x.galois(5).galois(5) == x
    assert x.conjugate().conjugate() == x
    assert (x * y).promote(24) == x.promote(24) * y.promote(24)
    z = x * x.conjugate()
    assert z.conjugate() == z
    assert z != z.galois(5)
    assert dtypes and all(d == object for d in dtypes)
    for k in range(12):
        assert zeta(12, k) * zeta(12, 12 - k) == rational(12, 1), k


def test_one_minus_root_is_a_unit_exactly_at_two_prime_conductors():
    # N(1 - zeta_n), the product of 1 - zeta over the primitive n-th roots, is
    # Phi_n(1): 1 when n has two distinct prime factors, so 1 - zeta_n is a unit
    # of Z[zeta_n], and p at n = p^k, so it is not; this is the arithmetic
    # behind the prime-power orders of the circulant theorem
    def norm(n):
        value = sum(cyclotomic_polynomial(n))
        roots = [cmath.exp(2j * cmath.pi * l / n) for l in range(n) if math.gcd(l, n) == 1]
        assert abs(math.prod(1 - z for z in roots) - value) < 1e-9 * value, n
        return value

    for n in (6, 10, 12, 15, 30, 35):
        assert norm(n) == 1, n
    for p, k in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (2, 5)):
        assert norm(p**k) == p, (p, k)


def test_sum_of_conjugate_sixth_roots_is_rational():
    assert (zeta(6) + zeta(6, 5) - 1).is_zero()


def test_rationality_detection():
    assert zeta(6, 3).is_rational()  # equals -1
    assert not zeta(6).is_rational()
    assert zeta(6, 3).as_fraction() == Fraction(-1)
    with pytest.raises(ValueError):
        zeta(6).as_fraction()


def test_one_minus_inverse_root_times_one_minus_root_is_one():
    # 1/(1 - zeta_6^(-1)) = 1 - zeta_6
    assert (1 - zeta(6, -1)) * (1 - zeta(6)) == rational(6, 1)


def field_norm(x):
    """The field norm N(x), a rational: the product of the images of x under
    every automorphism zeta_n -> zeta_n^l, l a unit mod n."""
    total = rational(x.n, 1)
    for l in range(1, max(x.n, 2)):
        if math.gcd(l, x.n) == 1:
            total = total * x.galois(l)
    return total.as_fraction()


def test_norm_of_a_rational_at_conductors_one_and_two():
    # Q(zeta_1) = Q(zeta_2) = Q: the only automorphism is the identity, so
    # the norm is the element itself
    for n in (1, 2):
        for value in (1, -2, Fraction(3, 7), Fraction(-5, 4)):
            assert field_norm(rational(n, value)) == value
    assert field_norm(zeta(2)) == -1


def test_norm_is_rational_at_conductors_two_mod_four():
    # n = 2m with m odd: Q(zeta_n) = Q(zeta_m), and zeta_n = -zeta_m^((m+1)/2)
    for n in (6, 10, 30):
        for x in (1 - zeta(n), 2 + zeta(n, 3), zeta(n, 5) - Fraction(1, 3) * zeta(n)):
            assert field_norm(x) != 0, (n, x)


def test_norm_is_rational_at_every_conductor_from_16_to_40():
    # and N(1 - zeta_n) = Phi_n(1), the fact restated above on cyclotomic_polynomial
    for n in range(16, 41):
        assert field_norm(1 - zeta(n)) == sum(cyclotomic_polynomial(n)), n
        assert field_norm(2 + zeta(n, 3)) != 0, n


# ------------------------------------------------------------------ galois

def test_galois_at_n_minus_1_is_conjugation():
    z = zeta(6)
    assert z.galois(5) == zeta(6, 5)
    assert z.galois(5) == z.conjugate()
    assert abs(z.galois(5).embed() - z.embed().conjugate()) < 1e-15


def test_galois_fixes_rationals():
    q = rational(12, Fraction(7, 3))
    for l in (1, 5, 7, 11):
        assert q.galois(l) == q


def test_galois_rejects_non_units():
    with pytest.raises(ValueError):
        zeta(12).galois(4)


def test_galois_composition():
    x = 2 * zeta(12) - zeta(12, 7) + Fraction(1, 2)
    assert x.galois(5).galois(7) == x.galois(35 % 12)


def test_conjugate_of_real_element_is_identity():
    x = zeta(12, 3) + zeta(12, 9)  # i + (-i) = 0, trivially real
    assert x.conjugate() == x
    y = rational(1, Fraction(3, 4))
    assert y.conjugate() == y


def test_conjugation_fixes_only_real_elements():
    assert (zeta(12) + zeta(12, 11)).conjugate() == zeta(12) + zeta(12, 11)  # z + conj(z)
    assert zeta(12).conjugate() != zeta(12)


# --------------------------------------------------------------- embedding

def test_embed_fourth_root():
    assert abs(CycNum(4, (0, 1), 1).embed() - 1j) < 1e-15


def test_embed_one_minus_sixth_root():
    expected = 0.5 - 1j * math.sqrt(3) / 2
    assert abs(CycNum(6, (1, -1), 1).embed() - expected) < 1e-12


def test_embed_of_sixth_root_inverse_identity():
    # (1 - zeta_6^(-1)) (1 - zeta_6) = 1 holds for the embedded values too
    lhs = (1 - zeta(6, -1)).embed()
    rhs = (1 - zeta(6)).embed()
    assert abs(lhs * rhs - 1) < 1e-12


def test_embed_matches_naive_polynomial_evaluation():
    samples = [
        CycNum(6, (1, -1), 1),
        CycNum(10, (1, 0, 0, -1), 3),
        CycNum(12, (-1, -3, 0, 3), 2),
        CycNum(15, (2, 0, 0, -1, 1, -2, 1, 0), 1),
    ]
    for x in samples:
        assert abs(x.embed() - naive_embed(x)) < EMBED_TOL


# ----------------------------------------------------- conductor promotion

def test_promote_preserves_value():
    z12 = power_map_rows(12, np.array([[0, 1]]), 2)  # zeta_6 in Q(zeta_12)
    assert z12.tolist() == [[0, 0, 1, 0]]  # zeta_12^2
    assert abs(CycNum(12, z12[0].tolist(), 1).embed() - CycNum(6, (0, 1), 1).embed()) < 1e-15


def test_promote_requires_divisibility():
    with pytest.raises(ValueError):
        zeta(6).promote(8)


def test_mixed_conductor_arithmetic_rejected():
    with pytest.raises(ValueError):
        zeta(6) + zeta(4)


# ------------------------------------------------------- hypothesis: field

def small_cyc(ns=(1, 2, 3, 4, 6, 8, 10, 12, 15)):
    # a denominator per coefficient, so sums and products must find the
    # shared denominator and bring it to lowest terms
    def build(n, numerators, denominators):
        deg = euler_phi(n)
        coeffs = tuple(
            Fraction(numerators[i % len(numerators)], denominators[i % len(denominators)])
            for i in range(deg)
        )
        return cyc(n, coeffs)

    return st.builds(
        build,
        st.sampled_from(ns),
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
    )


@settings(max_examples=60, deadline=None)
@given(small_cyc(), small_cyc(), small_cyc())
def test_ring_axioms_hold_exactly(x, y, z):
    y = y if y.n == x.n else cyc(x.n, [Fraction(i + 1, 2) for i in range(euler_phi(x.n))])
    z = z if z.n == x.n else x - 1
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + rational(x.n, 0) == x
    assert x * rational(x.n, 1) == x


@settings(max_examples=60, deadline=None)
@given(small_cyc(), small_cyc())
def test_embed_is_multiplicative(x, y):
    y = y if y.n == x.n else x + 1
    assert abs((x * y).embed() - x.embed() * y.embed()) < EMBED_TOL
    assert abs((x + y).embed() - (x.embed() + y.embed())) < EMBED_TOL


@settings(max_examples=40, deadline=None)
@given(small_cyc())
def test_conjugation_is_an_involution_matching_embedding(x):
    assert x.conjugate().conjugate() == x
    assert abs(x.conjugate().embed() - x.embed().conjugate()) < EMBED_TOL
