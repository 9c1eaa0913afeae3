"""Recovering integer structure from vectors of floating-point reals.

Each ratio is read as the closest rational with denominator at most
MAX_DENOMINATOR, as Fraction.limit_denominator reads it: as a multiple of
1/den, den the ratios' common denominator so far, when it lies near enough one
(see integer_multiples), else on plain ints by limit_denominator's algorithm:
walk the continued-fraction convergents of the float's exact value, then take
the last convergent or the last semiconvergent, whichever is closer (ties to
the convergent).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

MAX_DENOMINATOR = 10**6
# A relative bound on each ratio; most irrational ratios still pass: their
# convergent p/q with q near MAX_DENOMINATOR errs by about 1/q^2, so the golden
# ratio is accepted as 1346269/832040 (ROADMAP.md, item 15).
RATIO_REL_TOL = 1e-12


def _nearest_rational(r: float) -> tuple[int, int]:
    """p/q in lowest terms, q <= MAX_DENOMINATOR, closest to the float r."""
    num, den = r.as_integer_ratio()
    if den <= MAX_DENOMINATOR:
        return num, den
    p0, q0, p1, q1, n, d = 0, 1, 1, 0, num, den
    while (q2 := q0 + (a := n // d) * q1) <= MAX_DENOMINATOR:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (MAX_DENOMINATOR - q0) // q1
    ps, qs = p0 + k * p1, q0 + k * q1
    # |p1/q1 - num/den| <= |ps/qs - num/den|, both sides times q1 * qs * den
    if abs(p1 * den - q1 * num) * qs <= abs(ps * den - qs * num) * q1:
        return p1, q1
    return ps, qs


def integer_multiples(values: Sequence[float]) -> Optional[tuple[float, tuple[int, ...]]]:
    """Express nonzero reals as beta * m with beta > 0 and coprime integers m.

    Returns (beta, m) with values[i] ~ beta * m[i], gcd(|m|) = 1, or None if
    some ratio values[i]/values[0] is not finite, or not rational with
    denominator at most M = MAX_DENOMINATOR to relative tolerance RATIO_REL_TOL.

    A commensurable vector runs few continued fractions: with den the lcm of
    the q found so far (while den <= M), a ratio r with |r*den - P| < 1/(2M),
    P an integer, is P/den, the closest fraction of denominator <= M and so
    _nearest_rational's: any other a/b with b <= M lies >= 1/(b den) >= 1/(M den)
    from P/den, more than twice r's distance.  On floats the test is
    |x - P| + |x| 2^-52 < 1/(2M), x = r*den finite: x errs by at most
    |x| 2^-53, |x - P| is exact, and the other |x| 2^-53 covers the sum's
    rounding (|x| >= 1/2 for P != 0; P = 0 passes only when |x| < 1/(2M)).
    """
    if len(values) == 0:
        raise ValueError("need at least one value")
    base = float(values[0])
    if base == 0.0 or any(v == 0.0 for v in values):
        raise ValueError("values must be nonzero")
    fracs, den, margin = [], 1, 0.5 / MAX_DENOMINATOR
    for v in values:
        if not math.isfinite(r := float(v) / base):
            return None
        if math.isfinite(x := r * den) and abs(x - (p := round(x))) + abs(x) * 2**-52 < margin:
            p, q = p // (g := math.gcd(p, den)), den // g
        else:
            p, q = _nearest_rational(r)
            if (lcm := math.lcm(den, q)) <= MAX_DENOMINATOR:
                den = lcm
        if abs(p / q - r) > RATIO_REL_TOL * max(1.0, abs(r)):
            return None
        fracs.append((p, q))
    q_lcm = math.lcm(*(q for _, q in fracs))
    m = [p * (q_lcm // q) for p, q in fracs]
    g = math.gcd(*m)
    m = [x // g for x in m]
    beta = abs(base) * g / q_lcm
    return beta, tuple(m) if base > 0 else tuple(-x for x in m)
