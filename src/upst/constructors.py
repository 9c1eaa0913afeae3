"""Closed-form recipes for graphs with universal perfect state transfer.

Two families: flat-spectrum graphs built from the block index map theta
(non-circulant for beta >= 2), and circulants whose eigenvalues realize the
integer progression l + c_l * n, including the non-dense two-prime variant
obtained from the exact inverse of 1 - zeta_n^(-1).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .cyclotomic import exact_int_dtype, reduce_exponent_rows
from .graph import CirculantSpec, HermitianGraph, is_connected_circulant
from .spectra import EigenSystem, is_type_ii

__all__ = [
    "NoncirculantParams",
    "theta",
    "noncirculant_graph",
    "gk_example",
    "circulant_from_c",
    "nondense_circulant",
    "integer_spectrum_shift",
]


def theta(d: int, beta: int, x: int | np.ndarray) -> int | np.ndarray:
    """Block index map: beta*floor(x/d)*d + (x mod d), for an int or an integer array x.

    Stretches the block part of x by beta while keeping the offset, so
    consecutive x in one block stay consecutive but blocks start beta*d apart.
    """
    return beta * (x // d) * d + (x % d)


@dataclass(frozen=True)
class NoncirculantParams:
    """Parameters (a, b, beta) with n = a*b.

    The construction needs a >= b >= 2; beta >= 2 makes the result provably
    non-circulant, while beta = 1 is allowed and degenerates to the Fourier
    (circulant) case.
    """

    a: int
    b: int
    beta: int

    def __post_init__(self) -> None:
        if not (self.a >= self.b >= 2):
            raise ValueError("need a >= b >= 2, got a=%d b=%d" % (self.a, self.b))
        if self.beta < 1:
            raise ValueError("need beta >= 1, got %d" % self.beta)

    @property
    def n(self) -> int:
        return self.a * self.b


def _flat_assembly(
    params: NoncirculantParams, eigens: Sequence[int]
) -> tuple[HermitianGraph, EigenSystem]:
    n = params.n
    bn = params.beta * n
    rows, cols = (theta(d, params.beta, np.arange(n)) for d in (params.a, params.b))
    x = np.exp(2j * np.pi * (rows[:, np.newaxis] * cols) / bn) / math.sqrt(n)
    if not is_type_ii(x):
        raise ArithmeticError("construction produced a diagonalizer that is not a flat unitary")
    lambdas = np.array(eigens, dtype=float)
    adj = (x * lambdas) @ x.conj().T
    adj = (adj + adj.conj().T) / 2
    graph = HermitianGraph(n=n, adjacency=adj)
    offset = Fraction(sum(eigens), n)
    return graph, EigenSystem(n, x, lambdas - float(offset), tuple(eigens), offset)


def noncirculant_graph(params: NoncirculantParams) -> tuple[HermitianGraph, EigenSystem]:
    """Flat-spectrum graph with eigenvalue theta_b(k) on Fourier-like column k.

    The diagonalizer X[j][k] = zeta_(beta*n)^(theta_a(j) * theta_b(k)) / sqrt(n)
    is type II; for beta >= 2 the transfer-time spacings rule out any circulant
    relabeling.
    """
    return _flat_assembly(params, theta(params.b, params.beta, np.arange(params.n)).tolist())


def gk_example(k: int) -> tuple[HermitianGraph, EigenSystem]:
    """Order-4 graph with spectrum {0, 1, k, k+1} for even k >= 2.

    Same diagonalizer as noncirculant_graph(NoncirculantParams(2, 2, k//2)) but
    with the eigenvalue-to-column pairing reversed; the two assemblies sum to
    (k+1)*I, so they share the spectrum while differing in orientation (here
    transfer 0 -> 1 happens late in the period instead of at 2*pi/(beta*n)).
    This one carries diagonal (k+1)/2; subtract that shift to zero it.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("k must be an even integer >= 2, got %r" % (k,))
    params = NoncirculantParams(2, 2, k // 2)
    return _flat_assembly(params, theta(params.b, params.beta, np.arange(params.n))[::-1].tolist())


def _coefficient_rows(n: int, c: Sequence[int]) -> np.ndarray:
    """Numerators over n of a_0 = 0 and a_j = 1/(zeta_n^(-j) - 1) + sum_k c_k zeta_n^(-jk),
    j = 1..n-1, in one reduction.  x = zeta_n^(-j) has order m = n / gcd(n, j) > 1, so its
    m powers sum to 0 and (x - 1) * sum_{k<m} k*x^k = (m - 1)*x^m - sum_{0<k<m} x^k = m:
    row j is sum_k (k*[k < m] + m*c_k) x^k over m, times g = n/m over n, entries below
    n*(n + sum|c_k|)."""
    j = np.arange(1, n)[:, np.newaxis]
    k = np.arange(n)
    m = n // (g := np.gcd(j, n))
    dtype = exact_int_dtype(n * (n + sum(map(abs, c))))
    v = np.zeros((n, n), dtype=dtype)
    terms = (np.where(k < m, k, 0) + m * np.array(c, dtype=dtype)) * g
    # v[j, -j*k mod n] += terms[j - 1, k], on the flat v: numpy's fast 1-D add.at
    np.add.at(v.reshape(-1), (n * j + -j * k % n).ravel(), terms.ravel())
    return reduce_exponent_rows(n, v)


def _integer_entries(c: Sequence[int]) -> list[int]:
    # The c-vector as Python ints; bool, float and other non-integers would
    # silently build a different graph, so they are refused.
    for v in c:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValueError("entries of c must be integers, got %r" % (v,))
    return [int(v) for v in c]


def circulant_from_c(n: int, c: Sequence[int]) -> CirculantSpec:
    """Hermitian circulant with a_0 = 0 and eigenvalues l + c_l*n + shift.

    Coefficients a_j = 1/(zeta_n^(-j) - 1) + sum_k c_k zeta_n^(-jk) for
    j = 1..n-1.  In Fourier order the spectrum is l + c_l*n up to one common
    rational shift (see integer_spectrum_shift), i.e. lambda_l - lambda_0 =
    l + (c_l - c_0)*n exactly -- the integer progression that makes the walk
    transfer perfectly between every vertex pair.  Entries of c must be
    integers (bool and float are refused with ValueError).
    """
    if n < 2:
        raise ValueError("order must be at least 2, got %r" % (n,))
    if len(c) != n:
        raise ValueError("expected %d integers, got %d" % (n, len(c)))
    c = _integer_entries(c)
    return CirculantSpec.from_rows(n, n, _coefficient_rows(n, c), n)


def integer_spectrum_shift(n: int, c: Sequence[int]) -> Fraction:
    """The a_0 making circulant_from_c(n, c) have eigenvalues exactly l + c_l*n."""
    return Fraction(n - 1, 2) + sum(_integer_entries(c))


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


def nondense_circulant(p: int, q: int) -> CirculantSpec:
    """UPST circulant of order p*q (distinct primes) with a_1 = a_(n-1) = 0.

    Because n has two distinct prime factors, 1 - zeta_n is a unit of the ring
    of integers, so 1/(1 - zeta_n^(-1)) expands with integer coordinates; those
    integers, re-indexed from zeta powers to the zeta^(-k) convention, are the
    c-vector.  The choice cancels a_1 exactly while keeping a_p, a_q nonzero,
    hence a connected, non-dense UPST circulant.
    """
    if p == q or not (_is_prime(p) and _is_prime(q)):
        raise ValueError("need distinct primes, got p=%r q=%r" % (p, q))
    n = p * q
    # u = 1/(1 - zeta_n^(-1)) = -sum_k (k/n) zeta_n^(-k), as _coefficient_rows' row j = 1;
    # nu = -n*u must be divisible by n, and c_(-m mod n) = u_m
    nu = reduce_exponent_rows(n, -np.arange(n)[np.newaxis] % n)[0]
    if (nu % n).any():
        raise ArithmeticError("internal error: 1/(1 - zeta_%d^(-1)) should be integral" % n)
    c = np.zeros(n, dtype=np.int64)
    c[-np.arange(len(nu)) % n] = -nu // n
    spec = circulant_from_c(n, c.tolist())
    if spec.w[[1, n - 1]].any():
        raise ArithmeticError("internal error: a_1 did not cancel")
    if not is_connected_circulant(spec):
        raise ArithmeticError("internal error: non-dense circulant came out disconnected")
    return spec
