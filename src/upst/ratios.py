"""Recovering integer structure from vectors of floating-point reals.

Each ratio is read as the closest rational with denominator at most
MAX_DENOMINATOR by Fraction.limit_denominator's algorithm, on plain ints, with
the same results: walk the continued-fraction convergents of the float's exact
value, then take the last convergent or the last semiconvergent, whichever is
closer (ties to the convergent).
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
    some ratio values[i]/values[0] is not rational with denominator at most
    MAX_DENOMINATOR to relative tolerance RATIO_REL_TOL.
    """
    if len(values) == 0:
        raise ValueError("need at least one value")
    base = float(values[0])
    if base == 0.0 or any(v == 0.0 for v in values):
        raise ValueError("values must be nonzero")
    fracs = []
    for v in values:
        r = float(v) / base
        p, q = _nearest_rational(r)
        if abs(p / q - r) > RATIO_REL_TOL * max(1.0, abs(r)):
            return None
        fracs.append((p, q))
    q_lcm = math.lcm(*(q for _, q in fracs))
    m = [p * (q_lcm // q) for p, q in fracs]
    g = math.gcd(*m)
    m = [x // g for x in m]
    beta = abs(base) * g / q_lcm
    return beta, tuple(m) if base > 0 else tuple(-x for x in m)
