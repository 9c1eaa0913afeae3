"""integer_multiples against the Fraction.limit_denominator reconstruction it
replaces: same (beta, m) bit for bit, same None, same exceptions."""

import ast
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from upst import ratios
from upst.constructors import circulant_from_c, nondense_circulant
from upst.spectra import circulant_eigensystem, recognize_eigenvalue_form
from upst.ratios import MAX_DENOMINATOR, RATIO_REL_TOL, integer_multiples


def reference_integer_multiples(values):
    """integer_multiples as written with Fraction.limit_denominator; a ratio
    that is not finite has no closest fraction and gives None."""
    if len(values) == 0:
        raise ValueError("need at least one value")
    base = float(values[0])
    if base == 0.0 or any(v == 0.0 for v in values):
        raise ValueError("values must be nonzero")
    fracs = []
    for v in values:
        r = float(v) / base
        if not math.isfinite(r):
            return None
        f = Fraction(r).limit_denominator(MAX_DENOMINATOR)
        if abs(float(f) - r) > RATIO_REL_TOL * max(1.0, abs(r)):
            return None
        fracs.append(f)
    q_lcm = functools.reduce(math.lcm, (f.denominator for f in fracs), 1)
    m = [int(f * q_lcm) for f in fracs]
    g = functools.reduce(math.gcd, m)
    m = [x // g for x in m]
    beta = abs(base) * g / q_lcm
    if base < 0:
        m = [-x for x in m]
    return beta, tuple(m)


def outcome(f, values):
    """f(values) with beta as float.hex, or the type of what it raised."""
    try:
        result = f(values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        return type(exc)
    return None if result is None else (float.hex(result[0]), result[1])


def assert_same_as_reference(values):
    assert outcome(integer_multiples, values) == outcome(reference_integer_multiples, values)


nonzero = st.floats(allow_nan=False, allow_infinity=False).filter(bool)
huge_or_tiny = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(min_value=-10, max_value=10).filter(bool),
    st.integers(min_value=-300, max_value=299),
).filter(bool)


@settings(max_examples=300, deadline=None)
@given(st.lists(nonzero, min_size=1, max_size=8))
# 11962973474/5 is not the closest fraction to the float 2392594694.8, yet
# r*5 rounds to an integer: only the |x| 2^-52 term turns the common
# denominator's test down
@example([5.0, 1.0, 11962973474.0])
# r*den overflows to inf although r is finite and has a closest fraction
@example([1.0, 1.00001, 1.797693134862316e303])
def test_random_floats_match_the_reference(values):
    assert_same_as_reference(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(huge_or_tiny, min_size=1, max_size=6))
def test_magnitudes_from_1e_minus_300_to_1e300_match_the_reference(values):
    assert_same_as_reference(values)


@settings(max_examples=300, deadline=None)
@given(
    base=st.floats(min_value=-1e6, max_value=1e6).filter(lambda b: abs(b) > 1e-6),
    fractions=st.lists(
        st.tuples(
            st.integers(min_value=-(10**8), max_value=10**8).filter(bool),
            st.integers(min_value=MAX_DENOMINATOR - 64, max_value=MAX_DENOMINATOR + 64),
        ),
        min_size=1,
        max_size=6,
    ),
)
def test_denominators_near_and_past_the_limit_match_the_reference(base, fractions):
    assert_same_as_reference([base] + [base * k / q for k, q in fractions])


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from([1.0, -1.0, 3.0, -0.5]),
    ints=st.lists(st.integers(min_value=2**53, max_value=2**80), min_size=1, max_size=6),
    signs=st.lists(st.sampled_from([1, -1]), min_size=6, max_size=6),
)
def test_integer_floats_past_2_53_match_the_reference(base, ints, signs):
    assert_same_as_reference([base] + [s * float(k) for s, k in zip(signs, ints)])


signed_magnitude = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(min_value=1, max_value=10),
    st.integers(min_value=-300, max_value=290),
)


@st.composite
def commensurable_values(draw):
    """base * k / q for a few denominators q <= MAX_DENOMINATOR, several
    numerators each, shuffled behind the base."""
    base = draw(signed_magnitude)
    groups = draw(st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=MAX_DENOMINATOR),
            st.lists(st.integers(min_value=-(10**12), max_value=10**12).filter(bool),
                     min_size=1, max_size=4),
        ),
        min_size=1, max_size=4,
    ))
    return [base] + draw(st.permutations([base * k / q for q, ks in groups for k in ks]))


@settings(max_examples=300, deadline=None)
@given(commensurable_values())
def test_commensurable_values_match_the_reference(values):
    assert_same_as_reference(values)


@settings(max_examples=300, deadline=None)
@given(
    exponent=st.integers(min_value=-900, max_value=900),
    sign=st.sampled_from([1.0, -1.0]),
    q=st.integers(min_value=1, max_value=MAX_DENOMINATOR),
    whole=st.integers(min_value=-(10**13), max_value=10**13),
    side=st.sampled_from([-1, 1]),
    ulps=st.integers(min_value=-4, max_value=4),
)
def test_ratios_within_ulps_of_the_margin_match_the_reference(exponent, sign, q, whole, side,
                                                              ulps):
    # 1/q sets the common denominator q; the last ratio r puts r*q within a
    # few ulps of whole +- 1/(2 MAX_DENOMINATOR).  A power-of-two base keeps
    # every ratio exactly as drawn.
    r = (whole + side * 0.5 / MAX_DENOMINATOR) / q
    for _ in range(abs(ulps)):
        r = math.nextafter(r, math.copysign(math.inf, ulps))
    base = sign * 2.0**exponent
    assert_same_as_reference([base, base / q, base * r])


def test_the_common_denominator_stops_at_the_limit():
    # 1/p for 60 primes p near 10^6 has an lcm past the largest double; the
    # reference returns None at sqrt(2) without ever converting it
    sieve = bytearray([1]) * (MAX_DENOMINATOR + 1)
    for i in range(2, 1001):
        sieve[i * i::i] = bytes(len(sieve[i * i::i]))
    primes = [p for p in range(MAX_DENOMINATOR, 2, -1) if sieve[p]][:60]
    values = [1.0] + [1 / p for p in primes] + [math.sqrt(2)]
    assert_same_as_reference(values)
    assert integer_multiples(values) is None


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_nearest_rational_is_limit_denominators_choice(r):
    f = Fraction(r).limit_denominator(MAX_DENOMINATOR)
    assert ratios._nearest_rational(r) == (f.numerator, f.denominator)


def test_golden_ratio_reads_as_its_fibonacci_convergent():
    golden = (1 + math.sqrt(5)) / 2
    assert_same_as_reference([1.0, golden])
    assert integer_multiples([1.0, golden])[1] == (832040, 1346269)


def test_square_root_of_two_is_rejected():
    assert_same_as_reference([1.0, math.sqrt(2)])
    assert integer_multiples([1.0, math.sqrt(2)]) is None


def test_seven_thirds():
    for values in ([1.0, 7 / 3], [-3.0, 7.0], [3.0, -7.0]):
        assert_same_as_reference(values)
    beta, m = integer_multiples([1.0, 7 / 3])
    assert m == (3, 7) and abs(beta - 1 / 3) < 1e-15


def test_semiconvergent_wins_over_the_last_convergent():
    # The convergent walk stops at 74731/61517; the semiconvergent
    # 1177559/969342 is closer, and limit_denominator returns it.
    x = float.fromhex("0x1.36fd4a782686dp+0")
    assert ratios._nearest_rational(x) == (1177559, 969342)
    f = Fraction(x).limit_denominator(MAX_DENOMINATOR)
    assert (f.numerator, f.denominator) == (1177559, 969342)
    assert abs(Fraction(74731, 61517) - Fraction(x)) > abs(f - Fraction(x))
    assert_same_as_reference([1.0, x])
    assert_same_as_reference([2.5, 2.5 * x])


@pytest.mark.parametrize("values, message", [
    ([], "need at least one value"), ([2.0, 0.0], "values must be nonzero"),
], ids=["empty", "zero"])
def test_refuses_vectors_with_no_ratio(values, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        integer_multiples(values)


def test_ratios_import_no_fraction_machinery():
    with open(ratios.__file__) as f:
        tree = ast.parse(f.read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"fractions", "functools"}


def counted_nearest_rational(monkeypatch):
    """A list that gets one entry per continued fraction integer_multiples runs."""
    calls = []

    def counting(r):
        calls.append(r)
        return nearest_rational(r)

    nearest_rational = ratios._nearest_rational
    monkeypatch.setattr(ratios, "_nearest_rational", counting)
    return calls


def test_commensurable_spectra_run_few_continued_fractions(monkeypatch):
    calls = counted_nearest_rational(monkeypatch)
    for seed in (1, 2, 3):
        c = np.random.default_rng(seed).integers(-9, 10, size=64).tolist()
        es = circulant_eigensystem(circulant_from_c(64, c))
        calls.clear()
        assert recognize_eigenvalue_form(es.lambdas, 64) is not None
        assert len(calls) <= 3
    es = circulant_eigensystem(nondense_circulant(5, 17))
    calls.clear()
    assert recognize_eigenvalue_form(es.lambdas, 85) is not None
    assert len(calls) <= 2
