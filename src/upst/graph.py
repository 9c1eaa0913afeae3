"""Hermitian adjacency matrices and exact circulant coefficient data.

A circulant Circ(a_0, ..., a_{n-1}) has entries C[j][k] = a[(k-j) mod n].
Its coefficients are one integer matrix of Q(zeta_L) coordinates over one
denominator, so Hermiticity (a_0 real, a_{n-j} the conjugate of a_j) and
zero-tests are exact; the float adjacency matrix is a projection of that
data, never the source of truth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .cyclotomic import (CycNum, cyc_from_rows, embed_row, exact_int_dtype, integer_vector,
                         power_map_rows)

HERMITICITY_TOL = 1e-12  # relative to max|A|, no floor


class CirculantSpec:
    """Exact first-row coefficients of a Hermitian circulant of order n.

    a_j = sum_m w[j, m] zeta_L^m / den for the conductor L: w is a read-only
    n x phi(L) integer matrix (int64 under exact_int_dtype's bound, object
    above) and den > 0 the least common denominator, so equal specs have equal
    data.  from_rows is the constructor; `a` reads the rows back as CycNum
    values, built on first read.
    """

    @classmethod
    def from_rows(cls, n: int, conductor: int, w, den: int) -> CirculantSpec:
        """a_j = sum_m w[j][m] zeta_L^m / den: n integer rows of phi(L), den > 0."""
        (spec := cls.__new__(cls))._fill(n, conductor, w, den)
        return spec

    def _fill(self, n: int, conductor: int, w, den: int) -> None:
        if n < 1:
            raise ValueError("circulant order must be positive, got %r" % (n,))
        if len(w) != n:
            raise ValueError("expected %d coefficients, got %d" % (n, len(w)))
        w = w if isinstance(w, np.ndarray) else np.array(w, dtype=object)
        g = math.gcd(den, int(np.gcd.reduce(w, axis=None)))  # lowest terms
        w = (w // g).astype(exact_int_dtype(int(np.abs(w).max()) // g))
        w.flags.writeable = False
        vars(self).update(n=n, conductor=conductor, w=w, den=den // g)
        h = np.arange(n // 2 + 1)  # conj(a_j) against a_(n-j), j = 0..n//2, in one reduction
        bad = (power_map_rows(conductor, w[h], -1) != w[-h % n]).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError("a_%d != conjugate(a_%d): coefficients are not Hermitian" % (n - j, j)
                             if j else "a_0 = %s / %d in powers of zeta_%d is not real"
                             % (w[0].tolist(), self.den, conductor))

    @functools.cached_property
    def a(self) -> tuple[CycNum, ...]:
        return tuple(cyc_from_rows(self.conductor, self.w, [self.den] * self.n))

    def __setattr__(self, name, value) -> None:
        raise AttributeError("CirculantSpec is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, CirculantSpec) and np.array_equal(self.w, other.w)
                and (self.n, self.conductor, self.den) == (other.n, other.conductor, other.den))

    def __hash__(self) -> int:
        return hash((self.n, self.conductor, self.den, tuple(self.w.ravel().tolist())))


@dataclass(frozen=True, eq=False)
class HermitianGraph:
    """A graph with Hermitian adjacency matrix, optionally exact circulant data."""

    n: int
    adjacency: np.ndarray
    spec: Optional[CirculantSpec] = None


def validate_hermitian(matrix: np.ndarray) -> HermitianGraph:
    """Check Hermiticity entrywise and wrap the matrix; errors name the worst entry."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("adjacency must be square, got shape %s" % (m.shape,))
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("adjacency contains non-finite entries")
    dev = np.abs(m - m.conj().T)
    j, k = np.unravel_index(np.argmax(dev), dev.shape)
    bound = HERMITICITY_TOL * float(np.max(np.abs(m)))
    if dev[j, k] > bound:
        raise ValueError(
            "matrix is not Hermitian: |A[%d,%d] - conj(A[%d,%d])| = %.3e exceeds %.3e"
            % (j, k, k, j, dev[j, k], bound)
        )
    return HermitianGraph(n=m.shape[0], adjacency=m.copy())


def circulant_to_graph(spec: CirculantSpec) -> HermitianGraph:
    """Embed the exact coefficients into the dense adjacency matrix."""
    n = spec.n
    emb = np.array([embed_row(spec.conductor, row, spec.den) for row in spec.w.tolist()])
    k = np.arange(n)
    a = emb[(k - k[:, np.newaxis]) % n]  # a[j, k] = emb[(k - j) % n]
    a = (a + a.conj().T) / 2  # kill rounding asymmetry from embed_row()
    return HermitianGraph(n=n, adjacency=a, spec=spec)


def is_connected_circulant(spec: CirculantSpec) -> bool:
    """Connectivity test: gcd of the support indices (0 adds nothing) and n equals 1."""
    return math.gcd(spec.n, *np.flatnonzero(spec.w.any(axis=1)).tolist()) == 1


def with_diagonal_shift(spec: CirculantSpec, alpha: Union[int, Fraction]) -> CirculantSpec:
    """Add alpha*I: shifts a_0, leaving the walk's transfer structure unchanged.

    alpha must be exact (int or Fraction); a float raises TypeError.
    """
    (p,), q = integer_vector((alpha,))
    den = math.lcm(spec.den, q)
    w = spec.w.astype(object) * (den // spec.den)
    w[0, 0] += p * (den // q)
    return CirculantSpec.from_rows(spec.n, spec.conductor, w, den)
