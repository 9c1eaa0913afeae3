"""Eigenstructure tools: Fourier diagonalization of circulants, the type-II
test and canonical form of flat unitaries, and recognition of the
integer-progression eigenvalue form that characterizes circulant UPST."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cyclotomic import embed_row, exact_int_dtype, power_map_rows, reduce_exponent_rows
from .graph import CirculantSpec, HermitianGraph
from .ratios import integer_multiples

UNITARITY_TOL = 1e-10
BLOCK_ELEMENTS = 2**16  # array elements per block: gathers here, grid blocks and batches in walk
ZERO_SUM_TOL = 1e-9


class CoordinateRows(NamedTuple):
    """Value k is sum_m w[k][m] zeta_L^m / den in Q(zeta_L), L the conductor."""
    conductor: int
    w: tuple[tuple[int, ...], ...]
    den: int


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Unitary diagonalizer X with eigenvalue k = offset + lambdas[k] on column k.

    Eigensolves set offset = tr(A)/n, exact where the data are (0 for an
    irrational a_0), and centre lambdas.  For circulants X is the shared
    read-only Fourier matrix, in Fourier order; eigenvalues are never sorted.
    exact_lambdas (absolute) is present when every eigenvalue is rational,
    else exact_rows (lambda_k - offset in Q(zeta_L)) on the exact route.
    exponents (N, r, c) give X = exponent_matrix(N, r, c), unless stale (see exponent_keys)."""

    n: int
    X: np.ndarray
    lambdas: np.ndarray
    exact_lambdas: Optional[tuple[int | Fraction, ...]] = None
    offset: float | Fraction = 0
    exact_rows: Optional[CoordinateRows] = None
    exponents: Optional[tuple[int, np.ndarray, np.ndarray]] = None

    @property
    def eigenvalues(self) -> np.ndarray:  # absolute, as floats
        return float(self.offset) + self.lambdas

    @functools.cached_property
    def canonical(self) -> np.ndarray:
        """canonicalize(X), built on first read and shared by every later one."""
        return canonicalize(self.X)

    @functools.cached_property
    def exponent_keys(self) -> Optional[np.ndarray]:
        """(r_v - r_u) mod N at flat pair u*n + v if exponents (N, r, c) give X up to
        eigenvector phases, n X o conj(X[0]) fitting (r - r_0, c) (fits_exponents); else None."""
        if self.exponents is not None:
            big_n, r, c = self.exponents
            if fits_exponents(self.n * self.X * self.X[0].conj(), big_n, r - r[0], c):
                return ((r - r[:, np.newaxis]) % big_n).reshape(-1)
        return None


@dataclass(frozen=True)
class EigenvalueForm:
    """Witness lambda_k = alpha + beta*(q*k + c[k]*n), gcd(q, n) = 1 (Fractions if exact)."""

    alpha: float | Fraction
    beta: float | Fraction
    q: int
    c: tuple[int, ...]


def exponent_matrix(big_n: int, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """zeta_N^(r_w c_k) / sqrt(n), n = len(r): the X of an EigenSystem's exponents."""
    return np.exp(2j * np.pi * np.outer(r, c) / big_n) / math.sqrt(len(r))


def fits_exponents(z: np.ndarray, big_n: int, r: np.ndarray, c: np.ndarray) -> bool:
    """Whether |z - zeta_N^(r (x) c)| <= UNITARITY_TOL on every entry, for int64 r and c
    with |r_w c_k| < 2^63.  zeta_N^e = zeta_N^(m hi) zeta_N^lo, e = m hi + lo mod N and
    m^2 >= N, from two tables of m roots: the rounding is about 2^-50, and a wrong
    exponent is off by >= 2 sin(pi/N), past the bound for N <= 2^31.  So a passing
    z = zeta_N^(r (x) c) + E, |E| <= UNITARITY_TOL."""
    m = math.isqrt(big_n - 1) + 1
    hi, lo = np.divmod(np.outer(r, c) % big_n, m)
    roots = np.exp(2j * np.pi / big_n * np.arange(m))
    zeta = np.exp(2j * np.pi / big_n * m * np.arange(m))[hi] * roots[lo]
    return bool(abs(z - zeta).max() <= UNITARITY_TOL)


@functools.lru_cache(maxsize=None)
def _fourier_exponents(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, j, j), j = 0 .. n-1 read-only: fourier_matrix(n)'s exponents, one per order."""
    j = np.arange(n)
    j.flags.writeable = False
    return n, j, j


@functools.lru_cache(maxsize=None)
def fourier_matrix(n: int) -> np.ndarray:
    """The unitary F, entries zeta_n^(jk) / sqrt(n): one read-only array per order, shared."""
    if n < 1:
        raise ValueError("order must be positive, got %r" % (n,))
    f = exponent_matrix(*_fourier_exponents(n))
    f.flags.writeable = False
    return f


def _gather(a: np.ndarray, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # out[i] = sum_t x^(-starts[t, i]) * a[rows[t, i]] mod x^L - 1 for a r x L and t x m
    # rows, 0 <= starts < L: each term is the window of [a a] at its start, gathered in
    # blocks of <= BLOCK_ELEMENTS entries (bounded memory; one window when L is more)
    lcond, (t, m) = a.shape[1], rows.shape
    a = np.concatenate((a, a), axis=1)
    a.flags.writeable = False  # and so the windows viewing it
    windows = np.ndarray((len(a), lcond, lcond), a.dtype, a, 0, a.strides + a.strides[1:])
    tb = min(t, max(1, BLOCK_ELEMENTS // lcond))
    b = max(1, BLOCK_ELEMENTS // (tb * lcond))
    out = np.zeros((m, lcond), a.dtype)
    for u in range(0, t, tb):
        for i in range(0, m, b):
            block = windows[rows[u : u + tb, i : i + b], starts[u : u + tb, i : i + b]]
            out[i : i + b] += block.sum(axis=0)
    return out


def circulant_eigensystem(spec: CirculantSpec) -> EigenSystem:
    """Diagonalize a circulant exactly: lambda_k = sum_j a_j zeta_n^(jk).

    The sums are computed in Q(zeta_L) for L = lcm(conductor, n), s = L/n.
    Row j of A holds row j of the spec's w (a_j's numerators over den) at its
    zeta_L exponents.  V[k] = sum_j x^(s*j*k) A[j] mod x^L - 1 takes two
    gathers, n*L*(n1 + n2) integer adds, not n^2*L: for n = n1*n2 (n1 the
    largest divisor of n up to sqrt(n), or 1 and one gather unless that saves
    more than 2^15 adds), j = j1 + n1*j2 and k = k2 + n2*k1, jk = k2*j + n2*j1*k1
    (mod n), so C[k2, j1] = sum_j2 x^(s*k2*j) A[j] and V[k] = sum_j1
    x^(s*n2*j1*k1) C[k2, j1].  reduce_exponent_rows reduces V to W, row k
    lambda_k - offset over den.  A rational W (W[:, 1:] = 0) gives
    exact_lambdas; any other W must equal its conjugate (else the spec data
    is corrupt) and is kept as exact_rows.
    """
    n, den, a0 = spec.n, spec.den, spec.w[0]
    offset = Fraction(int(a0[0]), den) if a0[0] and not a0[1:].any() else 0
    lcond = math.lcm(spec.conductor, n)
    # |V| <= sum_j max|A[j]| bounds every partial sum of either gather
    dtype = exact_int_dtype(sum(np.abs(spec.w).max(axis=1).tolist()))
    a = np.zeros((n, lcond), dtype=dtype)
    a[:, :: lcond // spec.conductor][:, : len(a0)] = spec.w
    if offset:  # a rational a_0 is the offset: V holds lambda_k - a_0
        a[0] = 0
    n1 = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    n2, s = n // n1, lcond // n
    # a second pass costs about what 2^15 adds do: timed warm, two took 1.02-1.31x the time
    # of one saving <= 2.1e4 adds (n = 16..34), 0.96x at 3e4 (n = 35, 36), 0.90x at 4.3e4 (40, 46)
    if n * lcond * (n - n1 - n2) <= 2**15:
        n1, n2 = 1, n
    k2, j1 = np.divmod(np.arange(n), n1)  # row k2*n1 + j1 of C ...
    j = np.arange(0, n, n1)[:, np.newaxis] + j1  # ... sums these j = j1 + n1*j2
    v = _gather(a, j, -s * k2 * j % lcond)
    if n1 > 1:
        k1, k2 = np.divmod(np.arange(n), n2)  # row k = k2 + n2*k1 of V sums over j1
        j1 = np.arange(n1)[:, np.newaxis]
        v = _gather(v, k2 * n1 + j1, -s * n2 * k1 * j1 % lcond)
    w = reduce_exponent_rows(lcond, v)
    if not w[:, 1:].any():  # int / int rounds correctly: the double embed_row gives
        col = w[:, 0].tolist()
        p, q = offset.numerator, offset.denominator  # 0/1 for offset 0
        exact_lambdas = tuple(Fraction(c * q + p * den, den * q) for c in col)
        return EigenSystem(n, fourier_matrix(n), np.array([c / den for c in col]),
                           exact_lambdas, offset, exponents=_fourier_exponents(n))
    values = w.astype(float) @ np.exp(2j * np.pi * np.arange(w.shape[1]) / lcond) / den
    real = (power_map_rows(lcond, w, -1) == w).all(axis=1)
    if not real.all():
        k = int(np.argmin(real))
        raise ArithmeticError("internal consistency failure: eigenvalue %d of a Hermitian "
                              "circulant came out non-real (imag %.3e)" % (k, values[k].imag))
    rows = CoordinateRows(lcond, tuple(map(tuple, w.tolist())), den)
    return EigenSystem(n, fourier_matrix(n), values.real, None, offset, rows,
                       _fourier_exponents(n))


def eigensystem_for(graph: HermitianGraph) -> EigenSystem:
    """Exact Fourier route when circulant data is attached, else numerical."""
    if graph.spec is not None:
        return circulant_eigensystem(graph.spec)
    return numerical_eigensystem(graph.adjacency)


def numerical_eigensystem(matrix: np.ndarray) -> EigenSystem:
    """Dense Hermitian eigensolve (ascending eigenvalues) of A - mean(diag A) I,
    whose eigenvalue errors scale with the spread rather than a large diagonal
    shift; the mean is the offset.  Plumbing for matrix-only inputs and for
    cross-checking the exact route; circulants go through circulant_eigensystem."""
    m = np.asarray(matrix, dtype=complex)
    shift = float(np.mean(m.diagonal().real))
    lambdas, x = np.linalg.eigh(m - shift * np.eye(m.shape[0]))
    return EigenSystem(n=m.shape[0], X=x, lambdas=lambdas, offset=shift)


def is_type_ii(matrix: np.ndarray) -> bool:
    """Flat (all |entries| = 1/sqrt(n)) and unitary, both within UNITARITY_TOL."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    n = m.shape[0]
    if abs(abs(m) - 1 / math.sqrt(n)).max() > UNITARITY_TOL:
        return False
    gram = m.conj().T @ m
    gram.flat[::n + 1] -= 1
    return bool(abs(gram).max() <= UNITARITY_TOL)


def canonicalize(z: np.ndarray) -> np.ndarray:
    """X = S @ Z @ D for unit-modulus diagonal D, which makes the first row
    real and nonnegative column by column, and S, which then does the same
    for the first column row by row; |X| = |Z|.  For a flat unitary Z
    (is_type_ii) this is the canonical form, first row and column 1/sqrt(n),
    and S maps the adjacency Z diagonalizes to the switching-equivalent
    S A S^(-1).  No phase changes any |U(t)| entry."""
    z = np.asarray(z, dtype=complex)
    x = z * np.exp(-1j * np.arctan2(z[0].imag, z[0].real))
    x *= np.exp(-1j * np.arctan2(x[:, :1].imag, x[:, :1].real))
    return x


def zero_sum_check(x: np.ndarray) -> bool:
    """All row and column sums beyond the first vanish to ZERO_SUM_TOL
    (canonical flat unitary)."""
    x = np.asarray(x, dtype=complex)
    sums = np.concatenate((x.sum(axis=1)[1:], x.sum(axis=0)[1:]))
    return bool((abs(sums) <= ZERO_SUM_TOL).all())


def eigenvalue_steps(lambdas: Sequence) -> Optional[tuple[float | Fraction, tuple[int, ...]]]:
    """(beta, D) with lambda_k - lambda_0 = beta*D_k, beta > 0 and integers D_k
    of gcd 1, or None.  Exact input (CoordinateRows, or ints and Fractions as
    one-column rows, L = 1) has them iff the integer steps w_k - w_0 are
    collinear, every 2x2 minor 0: D_k are coordinates along the line, beta a
    Fraction on the rational axis, else a float.  Floats take one
    integer_multiples call.  ValueError unless all >= 2 eigenvalues differ."""
    if isinstance(lambdas, CoordinateRows):
        lcond, cols, den = lambdas.conductor, list(zip(*lambdas.w)), lambdas.den
    elif all(isinstance(x, (int, Fraction)) for x in lambdas):
        den = math.lcm(*(x.denominator for x in lambdas))
        lcond, cols = 1, [[x.numerator * (den // x.denominator) for x in lambdas]]
    else:
        lcond, cols = None, [np.asarray(lambdas, dtype=float).tolist()]
    if len(cols[0]) < 2 or len(set(cols[0] if len(cols) == 1 else zip(*cols))) < len(cols[0]):
        raise ValueError("eigenvalues must be distinct")
    steps = [[x - c[0] for x in c[1:]] for c in cols]  # column m of the w_k - w_0
    if lcond is None:
        return integer_multiples(steps[0])
    head = next(c for c in steps if c[0])  # a column whose first step is not 0
    if any(x * head[0] != y * c[0] for c in steps if c is not head for x, y in zip(c, head)):
        return None
    g = math.gcd(*head)
    d = tuple(x // g for x in head)
    first = [c[0] for c in steps]  # w_1 - w_0, whose multiple by g / head[0] is beta
    if not any(first[1:]):
        return Fraction(g, den), d
    cosines = np.cos(2 * np.pi * np.arange(len(first)) / lcond)
    beta = g * float(cosines @ np.array(first, dtype=float)) / (head[0] * den)
    return (beta, d) if beta > 0 else (-beta, tuple(-x for x in d))


def recognize_eigenvalue_form(lambdas: Sequence, n: int) -> Optional[EigenvalueForm]:
    """Decide whether lambda_k = alpha + beta*(q*k + c_k*n) for some beta > 0,
    unit q mod n, and integers c_k, reading k as the given index order.

    lambdas are floats, exact rationals or CoordinateRows, as eigenvalue_steps
    takes them; beta and D_k = (lambda_k - lambda_0)/beta come from it, and D_k
    must be congruent to q*k mod n.  alpha (a float for rows) is normalized into
    [0, beta*n) by absorbing whole periods into c_0; q is the smallest positive
    representative.  None when no such witness exists, as for non-collinear rows.
    """
    rows = lambdas.w if isinstance(lambdas, CoordinateRows) else lambdas
    if len(rows) != n:
        raise ValueError("expected %d eigenvalues, got %d" % (n, len(rows)))
    structure = eigenvalue_steps(lambdas) if n > 1 else (1, ())
    if structure is None:
        return None
    beta, m = structure
    q = m[0] % n if m else 1
    if math.gcd(q, n) != 1 or any((d - q * k) % n for k, d in enumerate(m, 1)):
        return None
    lam0 = (lambdas[0] if rows is lambdas
            else embed_row(lambdas.conductor, rows[0], lambdas.den).real)
    c0, alpha = divmod(lam0, beta * n)
    c = [int(c0)] + [int(c0) + (d - q * k) // n for k, d in enumerate(m, 1)]
    return EigenvalueForm(alpha=alpha, beta=beta, q=q, c=tuple(c))
