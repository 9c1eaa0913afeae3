"""circulant_eigensystem against the per-eigenvalue CycNum body it replaces:
the same exact eigenvalues and offset, rational or as rows of Q(zeta_L), the
same float eigenvalues (bit for bit on rational spectra), the same error on a
corrupt spec."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from field_reference import Cyc
from spec_reference import cyc_from_exponent_rows
from upst import spectra
from upst.constructors import circulant_from_c, nondense_circulant
from upst.cyclotomic import CycNum, euler_phi, exact_int_dtype, power_map_rows
from upst.graph import CirculantSpec, with_diagonal_shift
from upst.spectra import circulant_eigensystem

NONDENSE_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (2, 11), (2, 13), (2, 17), (5, 17),
                  (7, 13))


def reference_circulant_eigensystem(spec):
    """(lambdas, exact_lambdas, offset, exact) as circulant_eigensystem
    computed them with one CycNum, realness test and embed per eigenvalue;
    exact holds those CycNums."""
    n = spec.n
    a0 = Cyc.of(spec.a[0])
    offset = 0 if a0.is_zero() or not a0.is_rational() else a0.as_fraction()
    lcond = math.lcm(spec.conductor, n)
    den = math.lcm(*(x.den for x in spec.a))
    scaled = [[c * (den // x.den) for c in x.num] for x in spec.a]
    a = np.zeros((n, lcond), dtype=exact_int_dtype(sum(max(map(abs, r)) for r in scaled)))
    a[:, :: lcond // spec.conductor][:, : len(scaled[0])] = scaled
    if offset:
        a[0] = 0
    a = np.hstack([a, a])
    windows = as_strided(a, (n, lcond + 1, lcond), a.strides + a.strides[1:], writeable=False)
    j = np.arange(n)[:, np.newaxis]
    start = lcond - (lcond // n) * (j * j.T % n)
    b = max(1, 2**16 // (n * lcond))
    v = sum(windows[j[i : i + b], start[i : i + b]].sum(axis=0) for i in range(0, n, b))
    exact = cyc_from_exponent_rows(lcond, v, [den] * n)
    for k, lam in enumerate(exact):
        if not (lam.is_rational() or lam.conjugate() == lam):
            raise ArithmeticError(
                "internal consistency failure: eigenvalue %d of a Hermitian "
                "circulant came out non-real (imag %.3e)" % (k, lam.embed().imag)
            )
    lambdas = np.array([x.embed().real for x in exact])
    rational = all(x.is_rational() for x in exact)
    exact_lambdas = tuple(x.as_fraction() + offset if offset else x.as_fraction()
                          for x in exact) if rational else None
    return lambdas, exact_lambdas, offset, exact


def assert_same_as_reference(spec):
    es = circulant_eigensystem(spec)
    lambdas, exact_lambdas, offset, exact = reference_circulant_eigensystem(spec)
    assert es.exact_lambdas == exact_lambdas
    assert es.offset == offset
    if exact_lambdas is not None:
        assert es.exact_rows is None
        assert list(map(float.hex, es.lambdas.tolist())) == list(map(float.hex, lambdas.tolist()))
        return es
    # the rows embed by one product with the powers of zeta_L, not Horner's rule
    lcond, rows, den = es.exact_rows
    assert [CycNum(lcond, row, den) for row in rows] == exact
    size = np.abs(np.array(rows, dtype=float)).sum(axis=1) / den
    assert np.all(np.abs(es.lambdas - lambdas) <= 1e-14 * size)
    return es


def seeded_c(n, seed, bound=9):
    return [int(v) for v in np.random.default_rng(seed).integers(-bound, bound + 1, size=n)]


def hermitian_spec(n, conductor, seed):
    """A random Hermitian circulant of order n over Q(zeta_conductor): rational
    a_0 and a_(n/2), a_(n-j) the conjugate of a_j."""
    rng = np.random.default_rng(seed)
    w = np.zeros((n, euler_phi(conductor)), dtype=np.int64)
    half = (n - 1) // 2
    w[1 : half + 1] = rng.integers(-9, 10, size=(half, w.shape[1]))
    w[n - half :] = power_map_rows(conductor, w[1 : half + 1], -1)[::-1]
    w[0, 0] = 7
    if n % 2 == 0:
        w[n // 2, 0] = -3
    return CirculantSpec.from_rows(n, conductor, w, 5)


def conductor3_spec():
    """Order 4 over Q(zeta_3), promoted to L = 12; lambda_1 and lambda_3 irrational:
    (7/2, x, x + conj(x), conj(x)) over 30 for x = 1/3 - (2/5) zeta_3."""
    return CirculantSpec.from_rows(4, 3, [[105, 0], [10, -12], [32, 0], [22, 12]], 30)


def test_seeded_integer_vector_circulants_match_the_reference():
    rng = np.random.default_rng(30)
    for n in [2, 64] + [int(v) for v in rng.integers(3, 64, size=38)]:
        c = [int(v) for v in rng.integers(-9, 10, size=n)]
        assert assert_same_as_reference(circulant_from_c(n, c)).exact_lambdas is not None


@pytest.mark.parametrize("n", [*range(2, 41), 48, 64, 85, 96, 128])
def test_integer_vector_circulants_of_every_gather_shape_match_the_reference(n):
    # one pass and two, n1 = 1 .. 11, the exact rows of a 7/3 shift where 3 | n
    spec = circulant_from_c(n, seeded_c(n, n))
    if n % 3 == 0:
        spec = with_diagonal_shift(spec, Fraction(7, 3))
    assert assert_same_as_reference(spec).exact_lambdas is not None


def test_two_pass_irrational_and_python_int_spectra_match_the_reference():
    # L = 96 > n and L = n = 45, both irrational; then a gather on Python ints.
    # The floats are one product of the exact rows, so equal rows give equal floats
    assert assert_same_as_reference(hermitian_spec(32, 12, 1)).exact_rows.conductor == 96
    assert assert_same_as_reference(hermitian_spec(45, 9, 2)).exact_lambdas is None
    spec = circulant_from_c(48, seeded_c(48, 3, 2**62))
    assert spec.w.dtype == object
    assert_same_as_reference(spec)


def test_the_gather_takes_two_passes_only_where_they_save_work(monkeypatch):
    passes = []
    gather = spectra._gather

    def counting(a, rows, starts):
        passes[-1] += 1
        return gather(a, rows, starts)

    monkeypatch.setattr(spectra, "_gather", counting)
    specs = {"c(16)": circulant_from_c(16, seeded_c(16, 16)),
             "c(36)": circulant_from_c(36, seeded_c(36, 36)),
             "c(37)": circulant_from_c(37, seeded_c(37, 37)),
             "c(40)": circulant_from_c(40, seeded_c(40, 40)),
             "c(85)": circulant_from_c(85, seeded_c(85, 85)),
             "nondense(7,13)": nondense_circulant(7, 13),
             "hermitian(32,12)": hermitian_spec(32, 12, 1)}
    for spec in specs.values():
        passes.append(0)
        circulant_eigensystem(spec)
    assert dict(zip(specs, passes)) == {"c(16)": 1, "c(36)": 1, "c(37)": 1, "c(40)": 2,
                                        "c(85)": 2, "nondense(7,13)": 2, "hermitian(32,12)": 2}


def test_gather_memory_stays_within_its_blocks():
    # At n = L = 256, n*L is BLOCK_ELEMENTS, and an unblocked one-pass gather
    # would hold n^2 * L int64s (128 MiB).  The call holds a few n x L arrays
    # at once ([A A], C or V, the float copy that reduce_exponent_rows
    # multiplies) and one block of at most BLOCK_ELEMENTS entries: under 8
    # such arrays of 8-byte entries.
    spec = circulant_from_c(256, seeded_c(256, 256))
    assert spec.n * math.lcm(spec.n, spec.conductor) == spectra.BLOCK_ELEMENTS
    expected = circulant_eigensystem(spec)  # warm: R_n and F_n are cached
    tracemalloc.start()
    try:
        es = circulant_eigensystem(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert es.exact_lambdas == expected.exact_lambdas
    assert peak < 8 * spectra.BLOCK_ELEMENTS * 8, peak


def test_two_prime_circulants_match_the_reference():
    for pq in NONDENSE_PAIRS:
        assert_same_as_reference(nondense_circulant(*pq))


def test_irrational_and_promoted_spectra_match_the_reference(circ3):
    assert assert_same_as_reference(circ3).exact_lambdas is None
    spec = conductor3_spec()
    assert assert_same_as_reference(spec).exact_lambdas is None
    promoted = CirculantSpec.from_rows(4, 12, power_map_rows(12, spec.w, 4), spec.den)
    assert assert_same_as_reference(promoted).offset == Fraction(7, 2)


def test_large_offset_and_past_int64_spectra_match_the_reference():
    spec = with_diagonal_shift(nondense_circulant(2, 3), 2**33 + Fraction(1, 3))
    assert assert_same_as_reference(spec).offset == 2**33 + Fraction(1, 3)
    c = [2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1]
    assert assert_same_as_reference(circulant_from_c(8, c)).exact_lambdas is not None


@pytest.mark.parametrize("spec", [
    nondense_circulant(5, 17),
    circulant_from_c(64, [int(v) for v in np.random.default_rng(65).integers(-9, 10, size=64)]),
], ids=["nondense(5,17)", "circulant_c(64)"])
def test_eigensystem_is_independent_of_the_block_bound(monkeypatch, spec):
    # the default gathers many windows per block; at bound 1 each block holds
    # one window, and the integer sums, exact either way, give the same eigensystem
    assert spectra.BLOCK_ELEMENTS // (spec.n * math.lcm(spec.conductor, spec.n)) > 1
    default = circulant_eigensystem(spec)
    monkeypatch.setattr(spectra, "BLOCK_ELEMENTS", 1)
    small = circulant_eigensystem(spec)
    assert small.exact_lambdas == default.exact_lambdas
    assert small.exact_rows == default.exact_rows
    assert small.offset == default.offset
    assert np.array_equal(small.lambdas, default.lambdas)


def test_non_real_eigenvalue_raises_the_reference_error():
    # a_3 should be conjugate(a_1) = -i: lambda_0 = 0 is real, lambda_1 = -3 + i is not
    spec = object.__new__(CirculantSpec)  # skips the Hermitian check of from_rows
    vars(spec).update(n=4, conductor=4, den=1, w=np.array([[0, 0], [0, 1], [1, 0], [-1, -1]]))
    with pytest.raises(ArithmeticError) as expected:
        reference_circulant_eigensystem(spec)
    assert "eigenvalue 1 " in str(expected.value)
    with pytest.raises(ArithmeticError) as raised:
        circulant_eigensystem(spec)
    assert str(raised.value) == str(expected.value)


def test_rational_spectrum_builds_no_cyclotomic_number(monkeypatch):
    c = [int(v) for v in np.random.default_rng(64).integers(-9, 10, size=64)]
    spec = circulant_from_c(64, c)
    spec.a  # the coefficients as CycNums, built on this first read, for the reference
    made = []
    init = CycNum.__init__

    def counting(self, *args):
        made.append(args[0])
        init(self, *args)

    monkeypatch.setattr(CycNum, "__init__", counting)
    circulant_eigensystem(spec)
    assert made == []
    reference_circulant_eigensystem(spec)  # a_0 in the oracle, then one CycNum per eigenvalue
    assert len(made) == 1 + 64
