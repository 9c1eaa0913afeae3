"""Field arithmetic in Q(zeta_n) for the tests: a reference copy of the
operations that upst.cyclotomic.CycNum carried before it became a plain value,
kept as an oracle for the exact eigensolve, the constructors and the spec
checks.

Cyc is a CycNum with +, -, * (by ints, Fractions and elements of its own
conductor), Galois maps, conjugation and promotion.  Each reduction modulo
Phi_n is one reduce_exponent_rows or power_map_rows call of the package.  A
Cyc equals the CycNum of the same value, so a spec's `a` compares with it
directly; Cyc.of lifts such a CycNum into the oracle.
"""

import math
from fractions import Fraction

import numpy as np

from upst.cyclotomic import (CycNum, euler_phi, exact_int_dtype, integer_vector, power_map_rows,
                             reduce_exponent_rows)


def _row(v):
    # one row of Python ints as a 1 x len(v) array of exact_int_dtype
    return np.array([v], dtype=exact_int_dtype(max(map(abs, v))))


class Cyc(CycNum):
    __slots__ = ()

    @classmethod
    def of(cls, x):
        return cls(x.n, x.num, x.den)

    def __eq__(self, other):
        return isinstance(other, CycNum) and (self.n, self.num, self.den) == (
            other.n, other.num, other.den)

    __hash__ = CycNum.__hash__

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return rational(self.n, other)
        if other.n != self.n:
            raise ValueError("conductor mismatch: %d vs %d" % (self.n, other.n))
        return Cyc.of(other)

    def __add__(self, other):
        rhs = self._coerce(other)
        den = self.den * rhs.den
        return Cyc(self.n, [a * rhs.den + b * self.den for a, b in zip(self.num, rhs.num)], den)

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.n, [c * other.numerator for c in self.num],
                       self.den * other.denominator)
        rhs = self._coerce(other)
        n = self.n
        v = [0] * n
        for i, x in enumerate(self.num):
            for j, y in enumerate(rhs.num):
                v[(i + j) % n] += x * y
        return Cyc(n, reduce_exponent_rows(n, _row(v))[0].tolist(), self.den * rhs.den)

    __rmul__ = __mul__

    def galois(self, s):
        """The automorphism zeta_n -> zeta_n^s, s a unit mod n."""
        if math.gcd(s, self.n) != 1:
            raise ValueError("gcd(%d, %d) != 1: not a Galois automorphism" % (s, self.n))
        return self._power_map(self.n, s)

    def conjugate(self):
        return self.galois(-1)

    def promote(self, m):
        """The same value in Q(zeta_m), n | m."""
        if m % self.n:
            raise ValueError("cannot promote conductor %d to %d" % (self.n, m))
        return self._power_map(m, m // self.n)

    def _power_map(self, m, s):
        return Cyc(m, power_map_rows(m, _row(self.num), s)[0].tolist(), self.den)

    def is_rational(self):
        return not any(self.num[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("element is not rational: %s" % (self,))
        return Fraction(self.num[0], self.den)


def cyc(n, coeffs):
    """sum_k coeffs[k] zeta_n^k for int or Fraction coefficients, phi(n) of them."""
    assert len(coeffs) == euler_phi(n)
    return Cyc(n, *integer_vector(coeffs))


def rational(n, value):
    """The rational int or Fraction value as an element of Q(zeta_n)."""
    return cyc(n, [value] + [0] * (euler_phi(n) - 1))


def zeta(n, k=1):
    """The root of unity zeta_n^k; negative k is normalized mod n."""
    v = np.zeros((1, n), dtype=np.int64)
    v[0, k % n] = 1
    return Cyc(n, reduce_exponent_rows(n, v)[0].tolist(), 1)
