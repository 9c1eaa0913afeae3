"""Flat-unitary machinery: Fourier matrices, canonical form, exact circulant
spectra, and the integer-progression eigenvalue recognizer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_reference as ref
from field_reference import Cyc, cyc, rational, zeta
from upst import spectra
from upst.constructors import circulant_from_c
from upst.cyclotomic import CycNum, euler_phi
from upst.graph import CirculantSpec, circulant_to_graph, with_diagonal_shift
from upst.ratios import RATIO_REL_TOL, integer_multiples
from upst.spectra import (
    canonicalize,
    circulant_eigensystem,
    eigensystem_for,
    eigenvalue_steps,
    fourier_matrix,
    is_type_ii,
    numerical_eigensystem,
    recognize_eigenvalue_form,
    zero_sum_check,
)

ROOT3 = math.sqrt(3)
CENSUS_ORDERS = (4, 6, 8, 10, 12, 16, 24, 32, 48, 64)


def census():
    """(n, exact eigensystem) of two seeded circulant_from_c per census order,
    entries of c in [-9, 9]."""
    rng = np.random.default_rng(7)
    for n in CENSUS_ORDERS * 2:
        c = [int(v) for v in rng.integers(-9, 10, size=n)]
        yield n, circulant_eigensystem(circulant_from_c(n, c))


# ---------------------------------------------------------------- fourier

def test_fourier_order_1_and_2():
    assert np.allclose(fourier_matrix(1), [[1.0]])
    expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.max(np.abs(fourier_matrix(2) - expected)) < 1e-15


def test_fourier_entry_formula():
    f = fourier_matrix(4)
    assert abs(f[1, 3] - (-1j / 2)) < 1e-15  # e^(2*pi*i*3/4)/2


def test_fourier_rejects_nonpositive_order():
    with pytest.raises(ValueError):
        fourier_matrix(0)


@pytest.mark.parametrize("n", [1, 2, 6, 64, 85])
def test_fourier_matrix_is_one_shared_read_only_array_per_order(n):
    # cached per order; the entries are the np.exp expression bit for bit, so
    # every scan and time reads the same doubles as an uncached matrix
    f = fourier_matrix(n)
    assert fourier_matrix(n) is f
    assert not f.flags.writeable
    j = np.arange(n)
    expected = np.exp(2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)
    assert f.dtype == expected.dtype and f.tobytes() == expected.tobytes()
    x = circulant_eigensystem(CirculantSpec.from_rows(n, 1, [[0]] * n, 1)).X
    assert x is f
    with pytest.raises(ValueError):
        x[0, 0] = 0


# ------------------------------------------------------ circulant spectra

def test_order3_spectrum_in_fourier_order(circ3):
    es = circulant_eigensystem(circ3)
    assert np.max(np.abs(es.lambdas - np.array([0.0, ROOT3, -ROOT3]))) < 1e-12
    assert es.exact_lambdas is None  # irrational spectrum
    assert np.max(np.abs(es.X - fourier_matrix(3))) < 1e-15


def test_nondense6_exact_spectrum_after_shift(nd6):
    es = circulant_eigensystem(with_diagonal_shift(nd6, Fraction(5, 2)))
    assert es.exact_lambdas == (6, 1, 2, 3, 4, -1)
    assert np.max(np.abs(es.eigenvalues - np.array([6, 1, 2, 3, 4, -1]))) < 1e-12


def test_scalar_circulant_spectrum():
    spec = CirculantSpec.from_rows(4, 1, [[7], [0], [0], [0]], 2)  # Circ(7/2, 0, 0, 0)
    es = circulant_eigensystem(spec)
    assert es.exact_lambdas == (Fraction(7, 2),) * 4
    assert np.max(np.abs(es.eigenvalues - 3.5)) < 1e-15


def fourier_oracle(spec):
    """lambda_k = sum_j a_j zeta_L^((L/n)*j*k) by field_reference's multiply and add."""
    n = spec.n
    lcond = math.lcm(spec.conductor, n)
    lams = []
    for k in range(n):
        lam = rational(lcond, 0)
        for j, x in enumerate(spec.a):
            lam = lam + Cyc.of(x).promote(lcond) * zeta(lcond, (lcond // n) * j * k)
        lams.append(lam)
    return lams


def assert_matches_oracle(spec):
    es = circulant_eigensystem(spec)
    lams = fourier_oracle(spec)
    assert all(lam.conjugate() == lam for lam in lams)
    # the floats are the oracle's lambda_k - offset, the offset a_0 where it is rational
    a0 = Cyc.of(spec.a[0])
    offset = a0.as_fraction() if a0.is_rational() else 0
    assert es.offset == offset
    centred = [lam - offset for lam in lams]
    all_rational = all(lam.is_rational() for lam in lams)
    assert es.exact_lambdas == (tuple(lam.as_fraction() for lam in lams) if all_rational else None)
    floats = np.array([lam.embed().real for lam in centred])
    if all_rational:
        assert es.exact_rows is None
        assert es.lambdas.tobytes() == floats.tobytes()
        return es
    # irrational: the rows are the centred lambda_k exactly; their floats come
    # from one product with the powers of zeta_L, within rounding of Horner's
    lcond, rows, den = es.exact_rows
    assert [CycNum(lcond, row, den) for row in rows] == centred
    size = np.abs(np.array(rows, dtype=float)).sum(axis=1) / den
    assert np.all(np.abs(es.lambdas - floats) <= 1e-14 * size)
    return es


@st.composite
def hermitian_specs(draw):
    # conductor 1 or n // 2 promotes to a larger L; 2n keeps L = 2n, step 2
    n = draw(st.integers(1, 16))
    cond = draw(st.sampled_from(sorted({1, max(1, n // 2), n, 2 * n})))
    phi = euler_phi(cond)
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

    def coefficient():
        return cyc(cond, draw(st.lists(fractions, min_size=phi, max_size=phi)))

    a0 = draw(st.builds(Fraction, st.integers(-9, 9), st.integers(2, 6)))  # den != 1
    a = [rational(cond, a0)] + [None] * (n - 1)
    for j in range(1, n // 2 + 1):
        x = coefficient()
        if 2 * j == n:
            x = x + x.conjugate()
        a[j], a[n - j] = x, x.conjugate()
    return ref.circulant_spec(n, tuple(a))


@settings(max_examples=60, deadline=None)
@given(hermitian_specs())
def test_exact_spectrum_matches_the_cyclotomic_oracle(spec):
    assert_matches_oracle(spec)


def test_oracle_cases_include_irrational_and_promoted_spectra():
    # n = 5, conductor 5: lambda_k = 2 cos(2 pi k / 5) + 1/2 is irrational
    a0, a1, zero = rational(5, Fraction(1, 2)), zeta(5), rational(5, 0)
    spec = ref.circulant_spec(5, (a0, a1, zero, zero, a1.conjugate()))
    assert assert_matches_oracle(spec).exact_lambdas is None
    # conductor 3 promoted to L = 12 for n = 4; a_2 real
    a0, x = rational(3, Fraction(7, 2)), cyc(3, (Fraction(1, 3), Fraction(-2, 5)))
    spec = ref.circulant_spec(4, (a0, x, x + x.conjugate(), x.conjugate()))
    assert_matches_oracle(spec)


def test_non_real_eigenvalue_of_a_corrupt_spec_raises():
    spec = CirculantSpec.from_rows(3, 3, [[0, 0], [0, 1], [-1, -1]], 1)  # zeta_3^2 = -1 - zeta_3
    # a = (0, zeta_3, zeta_3): lambda_0 = 2 zeta_3
    vars(spec)["w"] = np.array([[0, 0], [0, 1], [0, 1]])
    with pytest.raises(ArithmeticError, match="non-real"):
        circulant_eigensystem(spec)


def test_eigensolve_past_the_int64_bound_runs_on_python_ints(monkeypatch):
    # the numerators over the common denominator 105 pass 2^63; in the order-2
    # spec each numerator fits int64 and only lambda_0 = 2^62 + 2^62 does not
    seen = []
    reduce = spectra.reduce_exponent_rows

    def spy(n, v):
        w = reduce(n, v)
        seen.append((v.dtype, w.dtype))
        return w

    monkeypatch.setattr(spectra, "reduce_exponent_rows", spy)
    big = cyc(6, (Fraction(2**62 + 1, 5), Fraction(-(2**61), 7)))
    a0 = rational(6, Fraction(2**63 + 5, 3))
    spec = ref.circulant_spec(4, (a0, big, big + big.conjugate(), big.conjugate()))
    assert_matches_oracle(spec)
    half = CirculantSpec.from_rows(2, 1, [[2**62], [2**62]], 1)
    assert assert_matches_oracle(half).exact_lambdas == (2**63, 0)
    assert seen == [(np.dtype(object), np.dtype(object))] * 2


def test_eigensystem_diagonalizes_the_embedding(circ3, nd6):
    for spec in (circ3, nd6):
        g = circulant_to_graph(spec)
        es = circulant_eigensystem(spec)
        residual = g.adjacency @ es.X - es.X * es.eigenvalues
        assert np.max(np.abs(residual)) < 1e-9


def test_exact_spectrum_matches_dense_numerical_oracle(nd6, circ3):
    for spec in (nd6, circ3):
        g = circulant_to_graph(spec)
        exact = np.sort(circulant_eigensystem(spec).eigenvalues)
        numeric = np.sort(numerical_eigensystem(g.adjacency).eigenvalues)
        assert np.max(np.abs(exact - numeric)) < 1e-9


def test_eigensystem_for_prefers_exact_route(nd6):
    g = circulant_to_graph(nd6)
    es = eigensystem_for(g)
    assert np.max(np.abs(es.X - fourier_matrix(6))) < 1e-15


def test_numerical_route_sorts_ascending(nd6):
    g = circulant_to_graph(nd6)
    es = numerical_eigensystem(g.adjacency)
    assert np.all(np.diff(es.lambdas) >= 0)


# ----------------------------------------------------------------- type ii

def test_fourier_is_type_ii():
    assert is_type_ii(fourier_matrix(5))


def test_identity_is_not_flat():
    assert not is_type_ii(np.eye(3))


def test_construction_diagonalizer_is_type_ii():
    from upst.constructors import NoncirculantParams, noncirculant_graph

    _, es = noncirculant_graph(NoncirculantParams(2, 2, 2))
    assert is_type_ii(es.X)


# ------------------------------------------------------------- canonical

def assert_rescaling(x, z):
    """x = S z D for unit-modulus diagonal S and D: x / z is a rank-one
    matrix with unit-modulus entries."""
    ratio = x / z
    assert np.max(np.abs(np.abs(ratio) - 1)) < 1e-12
    outer = np.outer(ratio[:, 0], ratio[0, :]) / ratio[0, 0]
    assert np.max(np.abs(ratio - outer)) < 1e-12


def test_fourier_is_already_canonical():
    f = fourier_matrix(5)
    x = canonicalize(f)
    assert np.max(np.abs(x - f)) < 1e-12
    assert_rescaling(x, f)


def test_column_phase_perturbation_is_undone():
    f = fourier_matrix(3)
    z = f.copy()
    z[:, 1] *= np.exp(1j * np.pi / 7)
    assert np.max(np.abs(canonicalize(z) - f)) < 1e-12


def test_canonicalize_factorization_and_idempotence():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            row = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            col = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            z = row[:, None] * fourier_matrix(n) * col[None, :]
            x = canonicalize(z)
            root = 1 / math.sqrt(n)
            assert np.max(np.abs(x[0, :] - root)) < 1e-12
            assert np.max(np.abs(x[:, 0] - root)) < 1e-12
            assert_rescaling(x, z)
            assert np.max(np.abs(canonicalize(x) - x)) < 1e-12


def test_construction_diagonalizer_is_already_canonical():
    # theta(0) = 0 forces zero phases along the first row and column
    from upst.constructors import NoncirculantParams, noncirculant_graph

    _, es = noncirculant_graph(NoncirculantParams(2, 2, 2))
    assert np.max(np.abs(canonicalize(es.X) - es.X)) < 1e-12


def test_canonicalize_changes_phases_only():
    # first-row magnitudes 1e-11 off keep Z flat within UNITARITY_TOL; the
    # canonical form keeps every |Z| entry to a few ulps and forgets unit row
    # and column phases
    rng = np.random.default_rng(9)
    for n in (2, 3, 6, 16):
        z = fourier_matrix(n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        z[0] *= 1 + 1e-11 * rng.choice([-1.0, 1.0], size=n)
        assert is_type_ii(z)
        x = canonicalize(z)
        assert np.max(np.abs(np.abs(x) / np.abs(z) - 1)) <= 4 * np.finfo(float).eps
        for _ in range(10):
            row = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            col = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            assert np.max(np.abs(canonicalize(row[:, None] * z * col[None, :]) - x)) <= 1e-15


# ------------------------------------------------------------- zero sums

def test_zero_sums_for_fourier():
    assert zero_sum_check(fourier_matrix(6))


def test_zero_sums_for_canonical_construction_diagonalizer():
    from upst.constructors import NoncirculantParams, noncirculant_graph

    _, es = noncirculant_graph(NoncirculantParams(2, 2, 3))
    assert zero_sum_check(canonicalize(es.X))


def test_flat_non_unitary_fails_zero_sums():
    n = 4
    assert not zero_sum_check(np.full((n, n), 1 / math.sqrt(n), dtype=complex))


# ------------------------------------------------------- ratio structure

def test_integer_multiples_recovers_unit_base():
    beta, m = integer_multiples([1.0, 2.0, 3.0])
    assert abs(beta - 1.0) < 1e-12
    assert m == (1, 2, 3)


def test_integer_multiples_irrational_base():
    beta, m = integer_multiples([ROOT3, -ROOT3])
    assert abs(beta - ROOT3) < 1e-12
    assert m == (1, -1)


def test_integer_multiples_fractional_ratios():
    beta, m = integer_multiples([0.5, 0.75])
    assert abs(beta - 0.25) < 1e-12
    assert m == (2, 3)


def test_integer_multiples_negative_base():
    beta, m = integer_multiples([-2.0, 4.0])
    assert beta > 0
    assert np.max(np.abs(beta * np.array(m) - np.array([-2.0, 4.0]))) < 1e-12


def test_integer_multiples_rejects_incommensurable_values():
    assert integer_multiples([1.0, math.sqrt(2)]) is None


def test_integer_multiples_rejects_zero_entries():
    with pytest.raises(ValueError):
        integer_multiples([0.0, 1.0])


def test_integer_multiples_single_value():
    beta, m = integer_multiples([5.0])
    assert abs(beta - 5.0) < 1e-12 and m == (1,)


# ------------------------------------------------------- eigenvalue steps

def test_eigenvalue_steps_exact_and_float_agree_on_the_census():
    for n, es in census():
        beta, d = eigenvalue_steps(es.exact_lambdas)
        float_beta, float_d = eigenvalue_steps(es.lambdas)
        assert isinstance(beta, Fraction)
        assert d == float_d, n
        assert abs(float(beta) - float_beta) <= RATIO_REL_TOL * float_beta


def test_eigenvalue_steps_past_int64_is_exact():
    # the float eigenvalues (about 2^64) round onto each other; the exact
    # ones are distinct and their steps come out exactly
    c = [2**61 - 1, -(2**61), 2**61 - 3, 5, -(2**61) + 7, 0, 2**60, -1]
    es = circulant_eigensystem(circulant_from_c(8, c))
    beta, d = eigenvalue_steps(es.exact_lambdas)
    lam = es.exact_lambdas
    assert [beta * dk for dk in d] == [x - lam[0] for x in lam[1:]]
    with pytest.raises(ValueError, match="distinct"):
        eigenvalue_steps(es.lambdas)


@pytest.mark.parametrize("lambdas", [[0.0, 1.0, 1.0], (0, 1, 1), (Fraction(1, 2),), [3.0], ()])
def test_eigenvalue_steps_needs_two_distinct_eigenvalues(lambdas):
    # a tie away from lambda_0 is refused as well, on both branches
    with pytest.raises(ValueError, match="eigenvalues must be distinct"):
        eigenvalue_steps(lambdas)


bounded_fractions = st.fractions(max_denominator=10**4).filter(lambda x: abs(x) <= 10**4)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(bounded_fractions, min_size=2, max_size=12, unique=True),
       scale=bounded_fractions.filter(lambda x: x > 0))
def test_eigenvalue_steps_recovers_coprime_signed_steps(values, scale):
    lam = tuple(scale * x for x in values)
    beta, d = eigenvalue_steps(lam)
    assert beta > 0 and math.gcd(*d) == 1
    assert [beta * dk for dk in d] == [x - lam[0] for x in lam[1:]]
    assert [dk > 0 for dk in d] == [x > values[0] for x in values[1:]]


# ------------------------------------------------------------- recognizer

def test_recognizer_accepts_integer_progression_with_wraparound():
    form = recognize_eigenvalue_form([6, 1, 2, 3, 4, -1], 6)
    assert form is not None
    assert abs(form.alpha) < 1e-9
    assert abs(form.beta - 1.0) < 1e-9
    assert form.q == 1
    assert form.c == (1, 0, 0, 0, 0, -1)


def test_recognizer_accepts_irrational_common_measure():
    form = recognize_eigenvalue_form([0.0, ROOT3, -ROOT3], 3)
    assert form is not None
    assert abs(form.alpha) < 1e-9
    assert abs(form.beta - ROOT3) < 1e-12
    assert form.q == 1
    assert form.c == (0, 0, -1)


def test_recognizer_rejects_incommensurable_spectrum():
    assert recognize_eigenvalue_form([0.0, 1.0, math.sqrt(2)], 3) is None


def test_recognizer_refuses_a_spread_that_overflows():
    # lambda_2 - lambda_0 = 2e308 overflows to inf: no ratio, so no witness
    # (integer_multiples raised OverflowError on it)
    assert recognize_eigenvalue_form([-1e308, 0.0, 1e308], 3) is None


def test_recognizer_finds_nontrivial_multiplier():
    # lambda_k = 2k + 5*c_k with c = (0,0,0,1,1): unit q = 2 mod 5
    form = recognize_eigenvalue_form([0, 2, 4, 11, 13], 5)
    assert form is not None
    assert form.q == 2
    assert form.c == (0, 0, 0, 1, 1)


def test_recognizer_rejects_non_unit_residue():
    # first difference forces q = 2 mod 4, never a unit
    assert recognize_eigenvalue_form([0, 2, 1, 3], 4) is None


def test_recognizer_rejects_residue_mismatch():
    assert recognize_eigenvalue_form([0, 1, 3], 3) is None


def test_recognizer_requires_distinct_values():
    with pytest.raises(ValueError):
        recognize_eigenvalue_form([1.0, 1.0, 2.0], 3)


def test_recognizer_verdict_invariant_under_affine_rescaling():
    rng = np.random.default_rng(11)
    accepted = np.array([6, 1, 2, 3, 4, -1], dtype=float)
    rejected = np.array([0, 1, math.sqrt(2)], dtype=float)
    for _ in range(20):
        scale = rng.uniform(0.1, 10.0)
        offset = rng.uniform(-20.0, 20.0)
        form = recognize_eigenvalue_form(offset + scale * accepted, 6)
        assert form is not None
        reproduced = form.alpha + form.beta * (
            form.q * np.arange(6) + np.array(form.c) * 6
        )
        assert np.max(np.abs(reproduced - (offset + scale * accepted))) < 1e-6
        assert recognize_eigenvalue_form(offset + scale * rejected, 3) is None


def test_recognizer_reads_eigh_eigenvalues_of_a_wide_circulant():
    # eigh's lambda of Circ(c = (0, 0, 2000)) carry beta = 1 + 2.3e-13, which
    # the recognizer takes from eigenvalue_steps like the analytic times do
    graph = circulant_to_graph(circulant_from_c(3, [0, 0, 2000]))
    form = recognize_eigenvalue_form(numerical_eigensystem(graph.adjacency).lambdas, 3)
    assert form is not None
    assert form.q == 1
    assert form.c == (-667, -667, 1333)


def test_recognizer_witness_is_exact_on_exact_eigenvalues():
    for n, es in census():
        form = recognize_eigenvalue_form(es.exact_lambdas, n)
        assert form is not None, n
        assert 0 <= form.alpha < form.beta * n
        assert all(form.alpha + form.beta * (form.q * k + form.c[k] * n) == lam
                   for k, lam in enumerate(es.exact_lambdas))
        float_form = recognize_eigenvalue_form(es.lambdas, n)
        assert (float_form.q, float_form.c) == (form.q, form.c), n


def test_recognizer_on_exact_rows_refuses_the_false_float_witness():
    # Circ(0, i, -i, i, -i): the eigenvalues are irrational, with ratio 2 + sqrt(5)
    # between two steps.  The floats gave a witness with beta = 7.8e-7 and
    # max|c| = 788120; the rows are not collinear, so there is none
    spec = CirculantSpec.from_rows(5, 4, [[0, 0], [0, 1], [0, -1], [0, 1], [0, -1]], 1)
    es = circulant_eigensystem(spec)
    assert es.exact_rows is not None
    assert recognize_eigenvalue_form(es.exact_rows, 5) is None
    float_form = recognize_eigenvalue_form(es.lambdas, 5)
    assert float_form is not None and max(map(abs, float_form.c)) == 788120


def test_recognizer_on_collinear_rows_gives_an_integer_witness():
    # Circ(x, x) for x = zeta_5 + zeta_5^4 = 2 cos(2 pi/5): lambda = (2x, 0),
    # one irrational step, so beta = 2x and alpha = lambda_0 as floats
    x = [-1, 0, -1, -1]  # zeta_5^4 = -1 - zeta_5 - zeta_5^2 - zeta_5^3
    es = circulant_eigensystem(CirculantSpec.from_rows(2, 5, [x, x], 1))
    form = recognize_eigenvalue_form(es.exact_rows, 2)
    assert (form.q, form.c) == (1, (0, -1))
    assert type(form.q) is int and all(type(v) is int for v in form.c)
    rebuilt = [form.alpha + form.beta * (form.q * k + form.c[k] * 2) for k in range(2)]
    assert np.max(np.abs(np.array(rebuilt) - es.lambdas)) < 1e-15
    with pytest.raises(ValueError, match="expected 3 eigenvalues, got 2"):
        recognize_eigenvalue_form(es.exact_rows, 3)
