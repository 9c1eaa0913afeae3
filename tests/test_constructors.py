"""The three closed-form graph families and their exact coefficient algebra."""

import math
from fractions import Fraction

import numpy as np
import pytest

from field_reference import Cyc, rational, zeta
from upst import constructors
from upst.cyclotomic import CycNum, cyc_from_rows, exact_int_dtype, reduce_exponent_rows
from upst.graph import circulant_to_graph, is_connected_circulant, with_diagonal_shift
from upst.spectra import circulant_eigensystem, eigenvalue_steps, fits_exponents, is_type_ii
from upst.constructors import (
    NoncirculantParams,
    _coefficient_rows,
    circulant_from_c,
    gk_example,
    integer_spectrum_shift,
    nondense_circulant,
    noncirculant_graph,
    theta,
)


# ------------------------------------------------------------------- theta

def test_theta_is_identity_below_d():
    for d in (2, 3, 5):
        for x in range(d):
            assert theta(d, 4, x) == x


def test_theta_jump_values():
    assert theta(2, 2, 2) == 4
    assert theta(2, 2, 3) == 5
    assert theta(3, 2, 4) == 7  # 2*1*3 + 1


def test_theta_image_spacing():
    # consecutive blocks of length d, each block shifted by beta*d
    values = [theta(2, 3, x) for x in range(6)]
    assert values == [0, 1, 6, 7, 12, 13]


# -------------------------------------------------------------- parameters

def test_params_reject_bad_shapes():
    with pytest.raises(ValueError):
        NoncirculantParams(2, 3, 2)  # needs a >= b
    with pytest.raises(ValueError):
        NoncirculantParams(1, 1, 2)
    with pytest.raises(ValueError):
        NoncirculantParams(2, 2, 0)


def test_params_order():
    assert NoncirculantParams(3, 2, 2).n == 6


# ------------------------------------------------------------ noncirculant

def test_flat_family_2_2_2():
    g, es = noncirculant_graph(NoncirculantParams(2, 2, 2))
    assert g.n == 4
    assert es.exact_lambdas == (0, 1, 4, 5)
    assert is_type_ii(es.X)
    residual = g.adjacency @ es.X - es.X * es.eigenvalues
    assert np.max(np.abs(residual)) < 1e-9


def test_flat_family_3_2_2():
    g, es = noncirculant_graph(NoncirculantParams(3, 2, 2))
    assert g.n == 6
    assert es.exact_lambdas == (0, 1, 4, 5, 8, 9)
    assert is_type_ii(es.X)


def test_flat_family_constructs_at_large_beta():
    # products r_w c_k up to 1.4e12 over N = 1.6e6: read unreduced, the angles
    # lost about 1e-9 and the construction refused its own X
    _, es = noncirculant_graph(NoncirculantParams(4, 4, 10**5))
    assert is_type_ii(es.X)
    assert fits_exponents(math.sqrt(es.n) * es.X, *es.exponents)


@pytest.mark.parametrize("build, steps", [
    (lambda: noncirculant_graph(NoncirculantParams(2, 2, 2)), (1, (1, 4, 5))),
    (lambda: noncirculant_graph(NoncirculantParams(3, 2, 2)), (1, (1, 4, 5, 8, 9))),
    (lambda: noncirculant_graph(NoncirculantParams(2, 2, 3)), (1, (1, 6, 7))),
    (lambda: gk_example(2), (1, (-1, -2, -3))),
    (lambda: gk_example(6), (1, (-1, -6, -7))),
], ids=["flat(2,2,2)", "flat(3,2,2)", "flat(2,2,3)", "gk(2)", "gk(6)"])
def test_flat_constructors_store_plain_int_eigenvalues(build, steps):
    # eigenvalue_steps reads ints as one-column rows over denominator 1, so
    # (beta, D) is the one the Fraction eigenvalues gave: beta a Fraction
    _, es = build()
    assert all(type(v) is int for v in es.exact_lambdas)
    beta, d = eigenvalue_steps(es.exact_lambdas)
    assert (beta, d) == steps == eigenvalue_steps(tuple(map(Fraction, es.exact_lambdas)))
    assert type(beta) is Fraction


def test_flat_family_diagonalizer_entries():
    params = NoncirculantParams(2, 2, 3)
    _, es = noncirculant_graph(params)
    bn = 12
    for j in range(4):
        for k in range(4):
            expected = np.exp(2j * np.pi * theta(2, 3, j) * theta(2, 3, k) / bn) / 2
            assert abs(es.X[j, k] - expected) < 1e-14


def test_order4_example_matches_printed_entries():
    g, es = gk_example(6)
    e = np.exp(-1j * np.pi / 6)
    printed = np.array(
        [
            [0, 1.5 * (1 + e), 0.5, 1.5 * (1 - e)],
            [1.5 * (1 + e.conjugate()), 0, 1.5 * (1 - e.conjugate()), 0.5],
            [0.5, 1.5 * (1 - e), 0, 1.5 * (1 + e)],
            [1.5 * (1 - e.conjugate()), 0.5, 1.5 * (1 + e.conjugate()), 0],
        ]
    )
    assert np.max(np.abs((g.adjacency - 3.5 * np.eye(4)) - printed)) < 1e-12
    assert sorted(es.exact_lambdas) == [0, 1, 6, 7]


def test_order4_example_rejects_odd_or_small_k():
    with pytest.raises(ValueError):
        gk_example(3)
    with pytest.raises(ValueError):
        gk_example(0)


def test_order4_example_smallest_case_is_fourier_circulant():
    g, es = gk_example(2)
    assert g.n == 4
    assert sorted(es.exact_lambdas) == [0, 1, 2, 3]


# ---------------------------------------------------------- circulant_from_c

def test_integer_vector_circulant_reproduces_known_coefficients():
    spec = circulant_from_c(6, [1, 0, 0, 0, 0, -1])
    expected_a2 = CycNum(6, (4, -2), 3)  # 1 - i/sqrt(3)
    assert spec.a[0].is_zero()
    assert spec.a[1].is_zero()
    assert spec.a[2] == expected_a2
    assert spec.a[3] == CycNum(6, (3, 0), 2)
    assert spec.a[4] == Cyc.of(expected_a2).conjugate() == CycNum(6, (2, 2), 3)
    assert spec.a[5].is_zero()
    assert abs(spec.a[2].embed() - (1 - 1j / math.sqrt(3))) < 1e-12


def test_integer_vector_circulant_order3_progression():
    spec = circulant_from_c(3, [0, 0, 0])
    es = circulant_eigensystem(spec)
    assert es.exact_lambdas is not None
    l0, l1, l2 = es.exact_lambdas
    assert l1 - l0 == 1
    assert l2 - l0 == 2


def test_progression_residues_hold_for_random_vectors():
    rng = np.random.default_rng(23)
    for n in (2, 3, 5, 7, 8):
        for _ in range(5):
            c = [int(v) for v in rng.integers(-3, 4, n)]
            es = circulant_eigensystem(circulant_from_c(n, c))
            lams = es.exact_lambdas
            assert lams is not None
            for l in range(n):
                diff = lams[l] - lams[0]
                assert diff.denominator == 1
                assert (int(diff) - l) % n == 0


def test_normalizing_shift_makes_the_progression_literal():
    c = [1, 0, 0, 0, 0, -1]
    spec = circulant_from_c(6, c)
    shift = integer_spectrum_shift(6, c)
    assert shift == Fraction(5, 2)
    es = circulant_eigensystem(spec)
    shifted = [v + shift for v in es.exact_lambdas]
    assert shifted == [l + ck * 6 for l, ck in zip(range(6), c)]


def test_constant_c_offset_leaves_the_spec_unchanged():
    # sum_k zeta^(-jk) vanishes for j != 0, so c and c + m*(1,...,1) build
    # the same coefficients; the difference surfaces only through the
    # normalizing shift, which grows by exactly m*n
    base = [0, 1, -2, 0, 1]
    bumped = [v + 3 for v in base]
    s1 = circulant_from_c(5, base)
    s2 = circulant_from_c(5, bumped)
    assert all(x == y for x, y in zip(s1.a, s2.a))
    assert integer_spectrum_shift(5, bumped) - integer_spectrum_shift(5, base) == 15
    es = circulant_eigensystem(s1)
    normalized1 = [v + integer_spectrum_shift(5, base) for v in es.exact_lambdas]
    normalized2 = [v + integer_spectrum_shift(5, bumped) for v in es.exact_lambdas]
    assert all(b - a == 15 for a, b in zip(normalized1, normalized2))


def test_integer_vector_circulant_rejects_non_integral_entries():
    # the CLI refuses these; the library used to truncate 1.7 to 1
    for bad in ([0, 0, 1.7], [0, 0, 2.0], [0, True, 0], [0, Fraction(1, 2), 0], [0, "1", 0]):
        with pytest.raises(ValueError):
            circulant_from_c(3, bad)
        with pytest.raises(ValueError):
            integer_spectrum_shift(3, bad)
    assert circulant_from_c(3, [0, 0, np.int64(1)]) == circulant_from_c(3, [0, 0, 1])


def test_integer_entries_accept_numpy_ints_and_refuse_look_alikes():
    spec = circulant_from_c(4, [np.int64(2), np.int32(-1), 0, 5])
    assert spec == circulant_from_c(4, [2, -1, 0, 5])
    assert integer_spectrum_shift(4, [np.int64(2), 0, 0, 0]) == Fraction(7, 2)
    for bad in (True, 1.0, Fraction(1)):
        message = "entries of c must be integers, got %r" % (bad,)
        with pytest.raises(ValueError) as raised:
            circulant_from_c(3, [0, bad, 0])
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            integer_spectrum_shift(3, [bad, 0, 0])
        assert str(raised.value) == message


def test_diagonal_shift_rejects_floats():
    spec = circulant_from_c(3, [0, 0, 0])
    with pytest.raises(TypeError):
        with_diagonal_shift(spec, 0.1)
    assert with_diagonal_shift(spec, Fraction(1, 10)).a[0] == CycNum(3, (1, 0), 10)


def test_integer_vector_circulant_rejects_tiny_orders():
    with pytest.raises(ValueError):
        circulant_from_c(1, [0])
    with pytest.raises(ValueError):
        circulant_from_c(4, [0, 0])  # length mismatch


# ------------------------------------------------------- nondense circulant

def test_nondense_6_matches_integer_vector_construction(nd6):
    direct = circulant_from_c(6, [1, 0, 0, 0, 0, -1])
    assert all(x == y for x, y in zip(nd6.a, direct.a))


def test_nondense_fixture_zero_pattern(nd6):
    assert nd6.a[1].is_zero() and nd6.a[5].is_zero()
    assert not nd6.a[2].is_zero()
    assert not nd6.a[3].is_zero()
    assert is_connected_circulant(nd6)


def test_nondense_15_zero_pattern_and_connectivity():
    spec = nondense_circulant(3, 5)
    assert spec.n == 15
    assert spec.a[1].is_zero() and spec.a[14].is_zero()
    assert not spec.a[3].is_zero()  # a_p != 0
    assert not spec.a[5].is_zero()  # a_q != 0
    assert is_connected_circulant(spec)


def test_nondense_10_prime_indices_nonzero():
    spec = nondense_circulant(2, 5)
    assert spec.a[1].is_zero()
    assert not spec.a[2].is_zero()
    assert not spec.a[5].is_zero()


def test_nondense_rejects_bad_parameters():
    with pytest.raises(ValueError):
        nondense_circulant(3, 3)  # distinct primes required
    with pytest.raises(ValueError):
        nondense_circulant(4, 3)
    with pytest.raises(ValueError):
        nondense_circulant(2, 9)


def test_nondense_embeds_hermitian(nd6):
    a = circulant_to_graph(nd6).adjacency
    assert np.max(np.abs(a - a.conj().T)) < 1e-15


# ------------------------------------------- closed-form 1/(zeta^e - 1)

def test_closed_form_inverse_times_its_argument_is_one():
    for n in range(2, 65):
        one = rational(n, 1)
        # row j over n is 1/(zeta_n^(-j) - 1)
        rows = cyc_from_rows(n, _coefficient_rows(n, [0] * n), [n] * n)
        for e in range(1, n):
            assert rows[-e % n] * (zeta(n, e) - 1) == one, (n, e)


def scatter_coefficient_rows(n, c):
    """_coefficient_rows as it was built, by a 2-D np.add.at."""
    j = np.arange(1, n)[:, np.newaxis]
    k = np.arange(n)
    m = n // (g := np.gcd(j, n))
    dtype = exact_int_dtype(n * (n + sum(map(abs, c))))
    v = np.zeros((n, n), dtype=dtype)
    np.add.at(v, (j, -j * k % n), (np.where(k < m, k, 0) + m * np.array(c, dtype=dtype)) * g)
    return reduce_exponent_rows(n, v)


def test_coefficient_rows_match_the_2d_scatter():
    rng = np.random.default_rng(45)
    for n in [*range(2, 41), 64, 85, 128]:
        for bound in (9, 2**40, 2**62):
            c = [int(v) for v in rng.integers(-bound, bound + 1, size=n)]
            w, expected = _coefficient_rows(n, c), scatter_coefficient_rows(n, c)
            assert w.dtype == expected.dtype and w.tolist() == expected.tolist(), (n, bound)


def is_plain_coefficient(x, n, c, j):
    # x = 1/(zeta_n^(-j) - 1) + sum_k c_k zeta_n^(-jk): what is left after
    # the sum, times zeta_n^(-j) - 1, is 1
    rest = Cyc.of(x)
    for k, ck in enumerate(c):
        rest = rest - ck * zeta(n, -j * k)
    return rest * (zeta(n, -j) - 1) == rational(n, 1)


def test_batched_rows_are_the_inverse_plus_the_sum():
    rng = np.random.default_rng(31)
    for n in range(2, 25):
        c = [int(v) for v in rng.integers(-9, 10, size=n)]
        spec = circulant_from_c(n, c)
        assert spec.a[0].is_zero()
        for j in range(1, n):
            assert is_plain_coefficient(spec.a[j], n, c, j), (n, j)


NONDENSE_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (2, 11), (2, 13), (2, 17), (5, 17))


@pytest.mark.parametrize("p,q", NONDENSE_PAIRS)
def test_nondense_c_is_the_field_norm_unit(p, q):
    # c_k are the coordinates of 1/(1 - zeta_n^(-1)) in powers zeta_n^(-k).
    # x times its other Galois images is the field norm N(x) = Phi_n(1) = 1 at
    # two primes, so their product u is 1/x, with integer coordinates
    n = p * q
    x = 1 - zeta(n, -1)
    u = rational(n, 1)
    for l in range(2, n):
        if math.gcd(l, n) == 1:
            u = u * x.galois(l)
    assert x * u == rational(n, 1)
    assert u.den == 1
    c = [0] * n
    for m, coef in enumerate(u.num):
        c[-m % n] = coef
    assert nondense_circulant(p, q) == circulant_from_c(n, c)


def test_entries_past_the_int64_bound_run_on_python_ints(monkeypatch):
    seen = []
    reduce = constructors.reduce_exponent_rows

    def spy(n, v):
        seen.append(v.dtype)
        return reduce(n, v)

    monkeypatch.setattr(constructors, "reduce_exponent_rows", spy)
    # the second vector fits int64 until row 1 scales it by m = 8 to 2^63
    for c in ([2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1], [2**60] + [0] * 7):
        spec = circulant_from_c(8, c)
        assert seen.pop() == np.dtype(object)
        for j in range(1, 8):
            assert is_plain_coefficient(spec.a[j], 8, c, j), j
        es = circulant_eigensystem(spec)
        oracle = [sum((x * zeta(8, j * k) for j, x in enumerate(spec.a)), rational(8, 0))
                  for k in range(8)]
        assert es.exact_lambdas == tuple(lam.as_fraction() for lam in oracle)
        shift = integer_spectrum_shift(8, c)
        assert [lam + shift for lam in es.exact_lambdas] == [l + ck * 8 for l, ck in enumerate(c)]
