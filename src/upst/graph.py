"""Hermitian adjacency matrices and exact circulant coefficient data.

A circulant Circ(a_0, ..., a_{n-1}) has entries C[j][k] = a[(k-j) mod n].
Coefficients are cyclotomic numbers so Hermiticity (a_0 real, a_{n-j} the
conjugate of a_j) and zero-tests are exact; the float adjacency matrix is a
projection of that data, never the source of truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .cyclotomic import CycNum, exact_int_dtype, power_map_rows

HERMITICITY_TOL = 1e-12  # relative to max|A|, no floor


@dataclass(frozen=True)
class CirculantSpec:
    """Exact first-row coefficients of a Hermitian circulant of order n."""

    n: int
    a: tuple[CycNum, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("circulant order must be positive, got %r" % (self.n,))
        if len(self.a) != self.n:
            raise ValueError("expected %d coefficients, got %d" % (self.n, len(self.a)))
        conductors = {x.n for x in self.a}
        if len(conductors) != 1:
            raise ValueError("coefficients mix conductors %s" % sorted(conductors))
        # conj(a_j), j = 0..n//2, in one reduction; conjugation keeps lowest terms
        half = self.a[: self.n // 2 + 1]
        dtype = exact_int_dtype(max(max(map(abs, x.num)) for x in half))
        conj = power_map_rows(self.conductor, np.array([x.num for x in half], dtype=dtype), -1)
        for j, (x, row) in enumerate(zip(half, conj.tolist())):
            if self.a[-j].num != tuple(row) or self.a[-j].den != x.den:
                if j == 0:
                    raise ValueError("a_0 = %s is not real" % (self.a[0],))
                raise ValueError("a_%d != conjugate(a_%d): coefficients are not Hermitian"
                                 % (self.n - j, j))

    @property
    def conductor(self) -> int:
        return self.a[0].n


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
    emb = np.array([x.embed() for x in spec.a], dtype=complex)
    k = np.arange(n)
    a = emb[(k - k[:, np.newaxis]) % n]  # a[j, k] = emb[(k - j) % n]
    a = (a + a.conj().T) / 2  # kill rounding asymmetry from embed()
    return HermitianGraph(n=n, adjacency=a, spec=spec)


def is_connected_circulant(spec: CirculantSpec) -> bool:
    """Connectivity test: gcd of the support indices together with n equals 1."""
    g = spec.n
    for j in range(1, spec.n):
        if not spec.a[j].is_zero():
            g = math.gcd(g, j)
    return g == 1


def with_diagonal_shift(spec: CirculantSpec, alpha: Union[int, Fraction]) -> CirculantSpec:
    """Add alpha*I: shifts a_0, leaving the walk's transfer structure unchanged.

    alpha must be exact (int or Fraction); a float raises TypeError.
    """
    a0 = spec.a[0] + CycNum.from_rational(spec.conductor, alpha)
    return CirculantSpec(spec.n, (a0,) + spec.a[1:])
