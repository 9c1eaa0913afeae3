"""integer_multiples against the Fraction.limit_denominator reconstruction it
replaces: same (beta, m) bit for bit, same None, same exceptions."""

import ast
import functools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from upst import ratios
from upst.ratios import MAX_DENOMINATOR, RATIO_REL_TOL, integer_multiples


def reference_integer_multiples(values):
    """integer_multiples as written with Fraction.limit_denominator."""
    if len(values) == 0:
        raise ValueError("need at least one value")
    base = float(values[0])
    if base == 0.0 or any(v == 0.0 for v in values):
        raise ValueError("values must be nonzero")
    fracs = []
    for v in values:
        r = float(v) / base
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


def test_ratios_import_no_fraction_machinery():
    tree = ast.parse(open(ratios.__file__).read())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"fractions", "functools"}
