"""Recovering integer structure from vectors of floating-point reals."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Optional, Sequence

MAX_DENOMINATOR = 10**6
# Tighter than the witness tolerance, yet most irrational ratios pass: their
# convergent p/q with q near MAX_DENOMINATOR errs by about 1/q^2, so the golden
# ratio is accepted as 1346269/832040 (ROADMAP.md, item 15).
RATIO_REL_TOL = 1e-12


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
