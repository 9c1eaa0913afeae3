"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

An element is a row of integer numerators in the power basis 1, zeta, ...,
zeta^(phi(n)-1) over one positive denominator.  The package computes on
matrices of such rows; CycNum holds one row as a value in lowest terms (the
gcd of the denominator and every numerator is 1), so equal values have equal
representations.  Phi_n and the reduction matrix R_n are built for the
radical r of n (the product of its primes) and stretched: Phi_n(x) =
Phi_r(x^(n/r)), and R_n = R_r (x) I_(n/r).  Every reduction modulo Phi_n
(exponent rows, and through power_map_rows Galois maps, conjugation and
conductor promotion) is one product W = V @ R_n in reduce_exponent_rows, where
row m of the cached R_n is zeta_n^m and row i of V holds integer coefficients
of zeta_n^0 .. zeta_n^(n-1): one float64 GEMM while max|V| times the largest
column sum of |R_n| is below 2^53, which bounds every partial sum so that the
GEMM is exact, else on Python ints, so nothing rounds or wraps.  Everything in
this module is exact; floating point approximates only in :func:`embed_row`.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

RationalLike = Union[int, Fraction]


def _prime_divisors(n: int) -> list[int]:
    # the distinct primes dividing n, ascending, by trial division
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return primes + [n] * (n > 1)


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient, the degree of Q(zeta_n) over Q."""
    if n < 1:
        raise ValueError("conductor must be a positive integer, got %r" % (n,))
    primes = _prime_divisors(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


def _poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # Long division by a monic integer polynomial; the remainder must vanish.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dn] = c
        for j in range(dn + 1):
            num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


def _stretch(poly: Sequence[int], s: int) -> list[int]:
    out = [0] * ((len(poly) - 1) * s + 1)  # the coefficients of poly(x^s)
    out[::s] = poly
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic.

    Phi_1 = x - 1 and Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for each prime p of
    n not dividing m give Phi_r for the radical r of n (the product of its
    primes), and Phi_n(x) = Phi_r(x^(n/r)).
    """
    if n < 1:
        raise ValueError("conductor must be a positive integer, got %r" % (n,))
    primes = _prime_divisors(n)
    if (rad := math.prod(primes)) < n:
        return tuple(_stretch(cyclotomic_polynomial(rad), n // rad))
    poly = [-1, 1]
    for p in primes:
        poly = _poly_div_exact(_stretch(poly, p), poly)
    return tuple(poly)


def exact_int_dtype(bound: int):
    """np.int64 for integers bounded in absolute value by bound < 2^63, else object."""
    return np.int64 if bound < 2**63 else object


@functools.lru_cache(maxsize=None)
def _reduction_matrix(n: int) -> tuple[np.ndarray, int]:
    # R_n (row m is zeta_n^m; read-only, as callers share it), largest column sum of |R_n|.
    # For n's radical r < n and s = n/r, Phi_n(x) = Phi_r(x^s): row q*s + i is x^i (x^s)^q,
    # so R_n = R_r (x) I_s with R_r's growth.  For squarefree n, rows m < phi(n) are the
    # power basis; row m is zeta * row m-1, its top coefficient folded by x^deg = -(Phi_n - x^deg)
    rad = math.prod(_prime_divisors(n))
    if rad < n:
        r, growth = _reduction_matrix(rad)
        r = np.kron(r, np.eye(n // rad, dtype=r.dtype))
        r.flags.writeable = False
        return r, growth
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:deg]) if c]
    rows, row = [], [0] * (deg - 1) + [1]
    for _ in range(deg, n):
        top, row = row[-1], [0] + row[:-1]
        for j, c in terms:
            row[j] -= top * c
        rows.append(row)
    # n entries below 2^63 / n sum in int64 without wrapping
    size = max(map(abs, itertools.chain(*rows)), default=1)
    r = np.zeros((n, deg), dtype=np.int64 if size * n < 2**63 else object)
    r[np.arange(deg), np.arange(deg)] = 1
    r[deg:] = np.array(rows, dtype=r.dtype).reshape(n - deg, deg)
    growth = int(np.abs(r).sum(axis=0).max())
    r = r.astype(exact_int_dtype(growth))
    r.flags.writeable = False
    return r, growth


@functools.lru_cache(maxsize=None)
def _float_reduction_matrix(n: int) -> np.ndarray:
    # R_n in float64 for reduce_exponent_rows' GEMM, read-only like R_n
    r = _reduction_matrix(n)[0].astype(float)
    r.flags.writeable = False
    return r


def integer_vector(values: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integer numerators over one common positive denominator.

    Accepts ints and other exact rationals (Fraction, numpy integers); a float
    is refused with TypeError because its binary value is rarely the intended
    rational.
    """
    values = list(values)
    for x in values:
        if isinstance(x, float) or not isinstance(x, numbers.Rational):
            raise TypeError(
                "cyclotomic coefficients must be int or Fraction, got %r" % (x,)
            )
    den = math.lcm(*(int(x.denominator) for x in values))
    return [int(x.numerator) * (den // int(x.denominator)) for x in values], den


@dataclass(frozen=True, slots=True)
class CycNum:
    """An immutable element of Q(zeta_n): (sum_k num[k] * zeta_n^k) / den.

    `num` has phi(n) integer entries and `den` is positive; construction
    brings them to lowest terms (gcd(den, *num) == 1), so equality and
    hashing compare values.  The package computes on integer rows
    (reduce_exponent_rows, power_map_rows); cyc_from_rows reads them back as
    values.
    """

    n: int
    num: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        g = math.gcd(self.den, *self.num)
        object.__setattr__(self, "num", tuple(c // g for c in self.num))
        object.__setattr__(self, "den", self.den // g)

    def is_zero(self) -> bool:
        return not any(self.num)

    def embed(self) -> complex:
        """Numerical value under zeta_n = exp(2*pi*i/n) (see embed_row)."""
        return embed_row(self.n, self.num, self.den)


def check_degree(n: int, k: int) -> None:
    """ValueError unless k = phi(n), the length of a coefficient vector of Q(zeta_n);
    phi(n) >= sqrt(n/2), so a larger n is refused before euler_phi's trial division."""
    if n > 2 * k**2 or k != euler_phi(n):
        raise ValueError("coefficient vector of length %d does not match phi(%d)" % (k, n))


def embed_row(n: int, num: Sequence[int], den: int) -> complex:
    """sum_k num[k] zeta_n^k / den at zeta_n = exp(2*pi*i/n) by Horner's rule, each
    num[k] / den the correctly rounded double of the reduced Fraction."""
    root = cmath.exp(2j * cmath.pi / n)
    total = 0j
    for c in reversed(num):
        total = total * root + c / den
    return total


def reduce_exponent_rows(n: int, v: np.ndarray) -> np.ndarray:
    """W = v @ R_n for the integer matrix v (k x n, int64 or object): row i of W
    holds the power-basis numerators of sum_m v[i, m] * zeta_n^m.  Each product
    and partial sum of sum_m v[i, m] R_n[m, j] is an integer of size at most
    max|v| * growth (the largest column sum of |R_n|).  Below 2^53 float64 holds
    each exactly, so one float64 GEMM gives W exactly in any summation order,
    with or without FMA, returned as int64; else W is object, on Python ints."""
    r, growth = _reduction_matrix(n)
    if int(np.max(np.abs(v), initial=0)) * growth < 2**53:
        return (v.astype(float) @ _float_reduction_matrix(n)).astype(np.int64)
    return v.astype(object) @ r.astype(object)


def power_map_rows(n: int, rows: np.ndarray, s: int) -> np.ndarray:
    """Power-basis rows with coordinate m moved to exponent m*s mod n, reduced in
    Q(zeta_n).  s = -1 conjugates, a unit s mod n is the Galois map zeta -> zeta^s,
    and s = n / k promotes rows of conductor k to n; each sends the coordinates to
    distinct exponents."""
    v = np.zeros((rows.shape[0], n), dtype=rows.dtype)
    v[:, np.arange(rows.shape[1]) * s % n] = rows
    return reduce_exponent_rows(n, v)


def cyc_from_rows(n: int, w: np.ndarray, dens: Sequence[int]) -> list[CycNum]:
    """Row i of the power-basis matrix w (phi(n) columns) as w[i] / dens[i]."""
    return [CycNum(n, row, den) for row, den in zip(w.tolist(), dens)]
