"""The circulant spec as a tuple of CycNum coefficients: a reference copy of
the path that CirculantSpec's integer coefficient matrix replaced, kept as
an oracle for it.

A reference spec is (n, a), a the n coefficients as CycNums of one
conductor.  Each function is the body it replaced: the constructors built one
CycNum per row, the spec took the tuple over the lcm of its denominators, the
shift added a CycNum, the JSON codec wrote and read one coefficient at a time,
the embedding called embed() per coefficient, and the eigensolve read the
numerators of every CycNum.  The field arithmetic is field_reference's.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from field_reference import Cyc, rational
from upst.cyclotomic import CycNum, exact_int_dtype, power_map_rows, reduce_exponent_rows
from upst.graph import CirculantSpec
from upst.spectra import CoordinateRows


def cyc_from_exponent_rows(n, v, dens):
    """Row i of v as sum_m v[i, m] zeta_n^m / dens[i]."""
    return [Cyc(n, row, den) for row, den in zip(reduce_exponent_rows(n, v).tolist(), dens)]


def coefficients_from_c(n, c):
    """circulant_from_c's coefficients: a_0 = 0, then one CycNum per row j
    over its own denominator m = n / gcd(n, j)."""
    j = np.arange(1, n)[:, np.newaxis]
    k = np.arange(n)
    m = n // np.gcd(j, n)
    dtype = exact_int_dtype(n * (n + sum(map(abs, c))))
    v = np.zeros((n - 1, n), dtype=dtype)
    np.add.at(v, (j - 1, -j * k % n), np.where(k < m, k, 0) + m * np.array(c, dtype=dtype))
    return (rational(n, 0), *cyc_from_exponent_rows(n, v, m.ravel().tolist()))


def nondense_c(p, q):
    """nondense_circulant's c-vector, from the CycNum u = 1/(1 - zeta_n^(-1))."""
    n = p * q
    u = -cyc_from_exponent_rows(n, -np.arange(n)[np.newaxis] % n, [n])[0]
    assert u.den == 1
    c = [0] * n
    for m, coef in enumerate(u.num):
        c[(n - m) % n] += coef
    return c


def shifted(a, alpha):
    """with_diagonal_shift's coefficients: a_0 plus one CycNum."""
    return (Cyc.of(a[0]) + alpha,) + tuple(a[1:])


def circulant_spec(n, a):
    """The CirculantSpec of the coefficients a, CycNums of one conductor,
    over the lcm of their denominators."""
    conductors = sorted({x.n for x in a})
    if len(conductors) > 1:
        raise ValueError("coefficients mix conductors %s" % conductors)
    den = math.lcm(*(x.den for x in a))
    w = [[c * (den // x.den) for c in x.num] for x in a]
    return CirculantSpec.from_rows(n, a[0].n, w, den)


def check_hermitian(n, a):
    """CirculantSpec's check: conj(a_j) == a_(n-j) for j = 0..n//2."""
    half = a[: n // 2 + 1]
    dtype = exact_int_dtype(max(max(map(abs, x.num)) for x in half))
    conj = power_map_rows(a[0].n, np.array([x.num for x in half], dtype=dtype), -1)
    for j, (x, row) in enumerate(zip(half, conj.tolist())):
        if a[-j].num != tuple(row) or a[-j].den != x.den:
            raise ValueError("a_%d is not conjugate(a_%d)" % (n - j, j))


def cyc_to_json(x):
    # coefficient num[k] / den as the reduced pair [num[k] // g, den // g]
    return {"n": x.n, "coeffs": [[c // (g := math.gcd(c, x.den)), x.den // g] for c in x.num]}


def cyc_from_json(data):
    # the pairs as integers over their lcm denominator: no Fraction per pair
    pairs = data["coeffs"]
    den = math.lcm(*(abs(q) for _, q in pairs))
    return CycNum(data["n"], [p * (den // q) for p, q in pairs], den)


def spec_to_json(n, a):
    return {"n": n, "a": [cyc_to_json(x) for x in a]}


def spec_from_json(data):
    return data["n"], tuple(map(cyc_from_json, data["a"]))


def adjacency(n, a):
    """circulant_to_graph's matrix from one embed() per coefficient."""
    emb = np.array([x.embed() for x in a], dtype=complex)
    k = np.arange(n)
    m = emb[(k - k[:, np.newaxis]) % n]
    return (m + m.conj().T) / 2


def eigensystem(n, a):
    """circulant_eigensystem's (lambdas, exact_lambdas, offset, exact_rows),
    gathered from the numerators of each CycNum."""
    a0, conductor = Cyc.of(a[0]), a[0].n
    offset = 0 if a0.is_zero() or not a0.is_rational() else a0.as_fraction()
    lcond = math.lcm(conductor, n)
    den = math.lcm(*(x.den for x in a))
    scale = [den // x.den for x in a]
    dtype = exact_int_dtype(sum(max(map(abs, x.num)) * s for x, s in zip(a, scale)))
    g = np.zeros((n, lcond), dtype=dtype)
    g[:, :: lcond // conductor][:, : len(a0.num)] = (
        np.array([x.num for x in a], dtype=dtype) * np.array(scale, dtype=dtype)[:, np.newaxis])
    if offset:
        g[0] = 0
    g = np.hstack([g, g])
    windows = as_strided(g, (n, lcond + 1, lcond), g.strides + g.strides[1:], writeable=False)
    j = np.arange(n)[:, np.newaxis]
    start = lcond - (lcond // n) * (j * j.T % n)
    b = max(1, 2**16 // (n * lcond))
    v = sum(windows[j[i : i + b], start[i : i + b]].sum(axis=0) for i in range(0, n, b))
    w = reduce_exponent_rows(lcond, v)
    if not w[:, 1:].any():
        col = w[:, 0].tolist()
        p, q = offset.numerator, offset.denominator
        exact = tuple(Fraction(c * q + p * den, den * q) for c in col)
        return np.array([c / den for c in col]), exact, offset, None
    values = w.astype(float) @ np.exp(2j * np.pi * np.arange(w.shape[1]) / lcond) / den
    rows = CoordinateRows(lcond, tuple(map(tuple, w.tolist())), den)
    return values.real, None, offset, rows
