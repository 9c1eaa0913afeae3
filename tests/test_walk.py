"""Walk engine and certification: analytic times, time scans, verdicts.

Two independent routes back every certified number: the phase-matrix solution
and a blind time-domain scan.  Tests pin both against closed-form values.
"""

import dataclasses
import math
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spec_reference as ref
from field_reference import cyc, rational, zeta
from upst.cyclotomic import euler_phi
from upst.graph import CirculantSpec, HermitianGraph, circulant_to_graph, with_diagonal_shift
from upst.spectra import (
    UNITARITY_TOL,
    EigenSystem,
    circulant_eigensystem,
    fourier_matrix,
    numerical_eigensystem,
)
from upst.constructors import (
    NoncirculantParams,
    circulant_from_c,
    gk_example,
    nondense_circulant,
    noncirculant_graph,
    theta,
)
from upst import ratios, spectra, walk
from upst.walk import (
    ADMISSION_TOL,
    DETECTION_THRESHOLD,
    MAX_GRID_POINTS,
    PST_ENTRY_TOL,
    STEP_MARGIN,
    TIME_AGREEMENT_TOL,
    analytic_pst_times,
    denseness_check,
    grid_step,
    monomial_check,
    scan_min_times,
    transfer_table,
    unitary_at,
    verify_upst,
    _aligned_start,
    _block_peaks,
    _grid_waves,
    _row_classes,
    _waves,
)

T01 = 2 * math.pi / (3 * math.sqrt(3))  # first transfer time of Circ(0,-i,i)
TWO_PI = 2 * math.pi

LADDER = (
    (2, 2, 2), (2, 2, 3), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 3),
    (4, 4, 2), (4, 4, 3), (4, 4, 4), (8, 2, 2), (8, 2, 3), (8, 2, 4),
    (6, 4, 2), (6, 4, 3), (8, 3, 2), (12, 2, 3), (8, 8, 2),
)


def es3(circ3):
    return circulant_eigensystem(circ3)


def scalar_spec(n=3, value=Fraction(3, 2)):
    return CirculantSpec.from_rows(n, 1, [[value.numerator]] + [[0]] * (n - 1), value.denominator)


def return_period(es):
    """The least P > 0 with every (lambda_k - lambda_0) P a multiple of 2 pi:
    2 pi / beta from eigenvalue_steps on the eigenvalues analytic(es)
    reads, which gives P as t_0 when every row has a time."""
    beta, _ = spectra.eigenvalue_steps(es.exact_lambdas or es.lambdas)
    return TWO_PI / float(beta)


def analytic(es):
    """analytic_pst_times on the structure verify_upst hands it: one
    eigenvalue_steps on exact_lambdas, else on the floats."""
    return analytic_pst_times(es, spectra.eigenvalue_steps(es.exact_lambdas or es.lambdas))


def scan_grid(es, density=1):
    """verify_upst's grid, or one density times as fine: (horizon, step),
    step = P / ceil(density P / h) for the return period P and h =
    grid_step(es), horizon P + 2 h."""
    period = return_period(es)
    h = grid_step(es)
    return period + 2 * h, period / math.ceil(density * period / h)


def row_times(es):
    """verify_upst's row times: the analytic times, or the return period on
    every row where there are none."""
    times = analytic(es)[0]
    return np.full(es.n, return_period(es)) if times is None else times


def scan(es, times=None):
    """scan_min_times on verify_upst's grid, with row_times(es) unless times
    are given."""
    return scan_min_times(es, *scan_grid(es), row_times(es) if times is None else times)


def false_cluster_eigensystem():
    # |U(2 pi)[u][u]|^2 ~ 0.9965 clears the detection threshold but is no
    # peak of 1; the first true return is at the period 100 pi
    return EigenSystem(n=3, X=fourier_matrix(3), lambdas=np.array([0.0, 1.0, 2.02]))


def pair_vectors(x):
    """Row u*n + v holds X[v,k] conj(X[u,k]), as in scan_min_times."""
    n = x.shape[0]
    return (x[np.newaxis, :, :] * x.conj()[:, np.newaxis, :]).reshape(n * n, n)


def evaluate(pv, d, t):
    """The scan's one evaluation of each candidate row: sum_k p_k e^{-i d_k t}."""
    return (pv[:, np.newaxis] @ _waves(t, d)[:, :, np.newaxis])[:, 0, 0]


def irrational_eigensystem():
    # flat diagonalizer, but eigenvalue gaps with no common measure
    lam = np.array([0.0, 1.0, math.sqrt(2)])
    return EigenSystem(n=3, X=fourier_matrix(3), lambdas=lam)


# ------------------------------------------------------------- propagator

def test_walk_at_time_zero_is_identity(circ3):
    u = unitary_at(es3(circ3), 0.0)
    assert np.max(np.abs(u - np.eye(3))) < 1e-12


def test_walk_operator_is_unitary(circ3, nd6):
    for spec in (circ3, nd6):
        es = circulant_eigensystem(spec)
        for t in (0.3, 1.7, 12.9):
            u = unitary_at(es, t)
            assert np.max(np.abs(u.conj().T @ u - np.eye(spec.n))) < 1e-10


def test_one_parameter_group_law(circ3, nd6):
    rng = np.random.default_rng(3)
    for spec in (circ3, nd6):
        es = circulant_eigensystem(spec)
        for _ in range(100):
            s, t = rng.uniform(-8, 8, size=2)
            lhs = unitary_at(es, s) @ unitary_at(es, t)
            rhs = unitary_at(es, s + t)
            assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_theorem_family_transfer_at_pi_over_6():
    g, es = noncirculant_graph(NoncirculantParams(2, 2, 3))
    amp = abs(unitary_at(es, math.pi / 6)[1, 0])
    assert amp >= 1 - PST_ENTRY_TOL
    assert abs(amp - 1) < 1e-9


# ---------------------------------------------------------- return period

def test_return_period_order3(circ3):
    # the return period P is the row-0 time t_0
    period = analytic(es3(circ3))[0][0]
    assert abs(period - 3 * T01) < 1e-12


def test_return_period_integer_spectrum(nd6):
    period = analytic(circulant_eigensystem(nd6))[0][0]
    assert abs(period - TWO_PI) < 1e-12


def test_return_period_missing_for_incommensurable_gaps():
    times, _ = analytic(irrational_eigensystem())
    assert times is None


def test_eigenvalue_steps_exact_and_float_agree_on_the_ladder():
    for rung in LADDER:
        es = noncirculant_graph(NoncirculantParams(*rung))[1]
        beta, d = spectra.eigenvalue_steps(es.exact_lambdas)
        float_beta, float_d = spectra.eigenvalue_steps(es.lambdas)
        assert d == float_d, rung
        assert abs(float(beta) - float_beta) <= ratios.RATIO_REL_TOL * float_beta


# ----------------------------------------------------------- analytic times

def test_analytic_times_order3(circ3):
    times, residual = analytic(es3(circ3))
    expected = np.array([3 * T01, T01, 2 * T01])
    assert np.max(np.abs(times - expected)) < 1e-12
    assert residual <= TIME_AGREEMENT_TOL


def test_analytic_times_nondense6(nd6):
    times, residual = analytic(circulant_eigensystem(nd6))
    expected = np.array([TWO_PI] + [2 * math.pi * l / 6 for l in range(1, 6)])
    assert np.max(np.abs(times - expected)) < 1e-12
    assert residual <= TIME_AGREEMENT_TOL


def test_analytic_times_follow_theta_progression():
    # t_j = (2 pi / (beta n)) * theta_a(j), with j = 0 wrapping to the period
    for a, b, beta in ((2, 2, 2), (3, 2, 2), (2, 2, 3)):
        params = NoncirculantParams(a, b, beta)
        _, es = noncirculant_graph(params)
        times = analytic(es)[0]
        n = params.n
        base = TWO_PI / (beta * n)
        expected = [base * theta(a, beta, j) for j in range(n)]
        expected[0] = TWO_PI / 1.0  # gcd of the integer eigenvalues is 1
        assert np.max(np.abs(times - np.array(expected))) < 1e-12


def test_analytic_times_absent_for_incommensurable_gaps():
    # no return period, so neither times nor a row residual
    assert analytic(irrational_eigensystem()) == (None, None)


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("flat"), st.sampled_from(((2, 2, 1),) + LADDER[:9])),
        st.tuples(st.sampled_from(["exact", "eigh"]), st.integers(2, 8)),
        st.tuples(st.just("nondense"), st.sampled_from([(2, 3), (2, 5), (3, 5)])),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_analytic_times_of_any_flat_x_follow_the_table(case, seed):
    # unit phases on the rows and columns of a relabelled X change no |U|
    # entry, so vertex 0 of the relabelled input transfers as vertex perm[0]
    # of the base does
    kind, size = case
    rng = np.random.default_rng(seed)
    if kind == "flat":
        base = noncirculant_graph(NoncirculantParams(*size))[1]
    elif kind == "nondense":
        base = circulant_eigensystem(nondense_circulant(*size))
    else:
        spec = circulant_from_c(size, [int(v) for v in rng.integers(-20, 21, size=size)])
        adjacency = circulant_to_graph(spec).adjacency
        base = circulant_eigensystem(spec) if kind == "exact" else numerical_eigensystem(adjacency)
    n = base.n
    perm = rng.permutation(n)
    x = base.X[perm, :] * np.exp(1j * rng.uniform(0, TWO_PI, size=n))
    x *= np.exp(1j * rng.uniform(0, TWO_PI, size=(n, 1)))
    times = analytic(EigenSystem(n=n, X=x, lambdas=base.lambdas))[0]
    expected = transfer_table(analytic(base)[0])[perm[0]][perm]
    assert np.max(np.abs(times - expected)) <= TIME_AGREEMENT_TOL


@pytest.mark.parametrize("c", [
    np.r_[0, np.full(63, 50)],
    np.r_[0, np.full(63, 10**4)],
    np.r_[0, 10**4, np.zeros(62)],
], ids=["c_k=50", "c_k=1e4", "c_1=1e4"])
def test_analytic_times_solve_rows_at_the_least_multiple(c):
    # F_64 with lambda_k = k + 64 c_k: t_w = 2 pi w/64, t_0 = 2 pi, for any
    # integers c_k.  With c_k = 50 or 1e4 for k > 0 the least |D_k| is q =
    # 3201 or 640 001, the number of s that meet k* alone; with only c_1
    # large it is D_2 = 2, far below D_1 = 640 001.  Each row is solved in
    # closed form, so neither time nor memory grows with q (trying all
    # 640 001 candidates of every row took about 20 s)
    n = 64
    es = EigenSystem(n=n, X=fourier_matrix(n), lambdas=np.arange(n) + n * c)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        times = analytic(es)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    expected = TWO_PI / n * np.array([n] + list(range(1, n)))
    assert np.max(np.abs(times - expected)) <= 1e-12
    assert peak <= 16 * 2**20


def candidate_times(es):
    """The row solve by trying all q values of s that meet k* = argmin |D_k|
    on every k, each row taking its first that passes: (times, the largest
    over rows of the least residual)."""
    beta, multiples = ratios.integer_multiples(list(es.lambdas[1:] - es.lambdas[0]))
    big_d = np.array(multiples, dtype=float)
    rho = np.angle(spectra.canonicalize(es.X)[1:, 1:]) / TWO_PI
    k = int(np.argmin(np.abs(big_d)))
    q = abs(multiples[k])
    cand = (np.sign(big_d[k]) * rho[:, k, np.newaxis] % 1 + np.arange(q)) / q
    miss = cand[:, :, np.newaxis] * big_d - rho[:, np.newaxis, :]
    miss = TWO_PI * np.abs(miss - np.rint(miss)).max(axis=2)
    fits = miss <= TIME_AGREEMENT_TOL
    s = cand[np.arange(es.n - 1), np.argmax(fits, axis=1)]
    times = TWO_PI / beta * np.concatenate(([1.0], s)) if fits.any(axis=1).all() else None
    return times, float(miss.min(axis=1).max())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_closed_form_row_solve_matches_trying_every_candidate(n, seed):
    # circulant_c spectra solve every row; distinct random integers mostly do
    # not.  Where the rows solve, times and residual are bit-identical to the
    # first passing candidate's; where one does not, neither route has times
    rng = np.random.default_rng(seed)
    if rng.random() < 0.5:
        c = [int(v) for v in rng.integers(-20, 21, size=n)]
        base = circulant_eigensystem(circulant_from_c(n, c))
    else:
        lam = rng.choice(np.arange(-40, 41), size=n, replace=False).astype(float)
        base = EigenSystem(n, fourier_matrix(n), lam)
    es = relabelled(base, seed)
    times, residual = analytic(es)
    expected, least = candidate_times(es)
    if expected is None:
        assert times is None
    else:
        assert np.array_equal(times, expected)
        assert residual == least


@settings(max_examples=200, deadline=None)
@given(
    d=st.lists(st.integers(-10**12, 10**12).filter(bool), min_size=1, max_size=8),
    q=st.integers(1, 10**9),
)
@example(d=[-6, 10, 15], q=1)
@example(d=[-640001, 640002, 640063], q=640001)
def test_bezout_coefficients_give_the_gcd_mod_q(d, q):
    c = walk._bezout_mod(d, q)
    assert len(c) == len(d)
    assert all(0 <= ck < q for ck in c)
    assert sum(ck * dk for ck, dk in zip(c, d)) % q == math.gcd(*d) % q


@pytest.mark.parametrize("kind", ["F_4", "5-cycle"])
def test_irrational_gaps_fail_fast_whatever_their_reconstruction(kind):
    # integer_multiples takes these ratios for rationals with denominators
    # near 10^6: F_4's least |D_k| is about 2e11, past the closed form's
    # range, and no row of the 5-cycle solves at its least |D_k| = 832 040;
    # trying each of those values of s took 0.3 s, and never ended on F_4
    if kind == "F_4":  # lambda = (0, 1, sqrt 3, sqrt 5)
        es = EigenSystem(4, fourier_matrix(4), np.array([0, 1, math.sqrt(3), math.sqrt(5)]))
        graph = HermitianGraph(4, (es.X * es.lambdas) @ es.X.conj().T)
    else:  # i on every edge u -> u + 1, a bare matrix
        shift = np.roll(np.eye(5), 1, axis=1)
        graph = HermitianGraph(5, 1j * (shift - shift.T))
        es = numerical_eigensystem(graph.adjacency)
    start = time.perf_counter()
    report = verify_upst(graph, es)
    assert time.perf_counter() - start < 1.0
    assert report.upst is False
    assert report.reasons == ("no-consistent-times",)


def test_analytic_times_reject_degenerate_spectrum():
    es = EigenSystem(n=2, X=fourier_matrix(2), lambdas=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        analytic(es)


# ------------------------------------------------------------------- scan

def test_scan_locates_order3_transfer_times(circ3):
    report = scan(es3(circ3))
    assert abs(report.min_times[0, 1] - T01) < 1e-9
    assert abs(report.min_times[0, 0] - 3 * T01) < 1e-9
    assert report.reasons == ()
    # circulant structure: constant diagonals of the timing matrix
    for u in range(3):
        for v in range(3):
            assert abs(report.min_times[u, v] - report.min_times[0, (v - u) % 3]) < 1e-9


def test_scan_flags_pairs_beyond_horizon(circ3):
    step = scan_grid(es3(circ3))[1]
    times = row_times(es3(circ3))
    report = scan_min_times(es3(circ3), horizon=0.5 * T01, step=step, row_times=times)
    assert "scan-missing-pairs" in report.reasons
    assert np.isnan(report.min_times[0, 1])
    empty = scan_min_times(es3(circ3), horizon=0.0, step=step, row_times=times)
    assert empty.reasons == ("scan-missing-pairs",)
    assert np.all(np.isnan(empty.min_times))


@pytest.mark.parametrize("periods", [2, 3])
def test_scan_takes_each_pairs_earliest_passing_candidate(periods, circ3, nd6):
    # past the first period every pair passes again, once a period, inside
    # the same block: candidates come in (row, time) order, and each pair
    # takes the first that passes, its first passage
    for es in (es3(circ3), circulant_eigensystem(nd6), relabelled_flat(3, 2, 2, seed=2)):
        step = scan_grid(es)[1]
        long = scan_min_times(es, horizon=periods * return_period(es), step=step,
                              row_times=row_times(es))
        assert long.reasons == ()
        assert long.diagnostics["newton_rows"] > long.diagnostics["classes"]
        assert np.max(np.abs(long.min_times - scan(es).min_times)) <= 1e-12


def test_scan_refines_false_clusters_in_later_rounds():
    # Each diagonal pair meets false candidates before its first true return
    # at the period 100 pi; off-diagonal pairs meet only false ones.  Every
    # candidate is evaluated, and a pair takes its earliest that passes
    es = false_cluster_eigensystem()
    assert abs(return_period(es) - 100 * math.pi) < 1e-9
    report = scan(es)
    assert np.max(np.abs(np.diag(report.min_times) - 100 * math.pi)) < 1e-9
    assert np.all(np.isnan(report.min_times[~np.eye(3, dtype=bool)]))
    assert report.reasons == ("scan-missing-pairs",)


WIDE_SPREAD = ([0, 0, 2000], [0, 0, 0, 0, 0, 5000])


@pytest.mark.parametrize("c, route", [
    (WIDE_SPREAD[0], "exact"),
    (WIDE_SPREAD[0], "eigh"),
    (WIDE_SPREAD[1], "exact"),
    pytest.param(WIDE_SPREAD[1], "eigh", marks=pytest.mark.xfail(
        strict=True,
        reason="no-consistent-times: eigh's eigenvalue errors grow with max|lambda| = 3e4 "
               "and put the gap ratios past RATIO_REL_TOL, which ignores that scale",
    )),
])
def test_wide_spread_circulants_certify(c, route):
    # eigenvalue ranges 6 002 and 30 005 at a return period of 2 pi: a fixed
    # 10 000 grid points per period missed their peaks (scan-missing-pairs);
    # the derived grid has about 311 000 and 778 000
    n = len(c)
    spec = circulant_from_c(n, c)
    graph = circulant_to_graph(spec)
    es = circulant_eigensystem(spec) if route == "exact" else numerical_eigensystem(graph.adjacency)
    report = verify_upst(graph, es)
    assert report.upst is True, report.reasons
    assert report.diagnostics["member_rescans"] == 0
    # members' phases are their representatives' (exact route, exponent
    # keys) or their table amplitudes turned to the scanned times (eigh)
    for u in range(n):
        for v in range(n):
            entry = unitary_at(es, report.min_times[u, v])[v, u]
            assert abs(report.phases[u, v] - entry) <= 1e-10
    expected = TWO_PI / n * np.array([n] + list(range(1, n)))
    assert np.max(np.abs(report.min_times[0] - expected)) <= TIME_AGREEMENT_TOL
    assert np.max(np.abs(report.analytic_times - expected)) <= TIME_AGREEMENT_TOL


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_scan_finds_every_analytic_time_at_wide_spread(n, seed):
    # relabelled, rephased circulant_c with c up to 1e3 in size: eigenvalue
    # ranges up to about 1e4, grids up to about 1e6 points
    rng = np.random.default_rng(seed)
    base = circulant_eigensystem(circulant_from_c(n, [int(v) for v in rng.integers(-1000, 1001, size=n)]))
    times = analytic(base)[0]
    perm = rng.permutation(n)
    x = base.X[perm, :] * np.exp(1j * rng.uniform(0, TWO_PI, size=n))
    report = scan(EigenSystem(n=n, X=x, lambdas=base.lambdas))
    assert report.reasons == ()
    # relabelled vertex i is vertex perm[i], and a circulant transfers a -> b
    # when 0 -> b - a does
    expected = times[(perm[np.newaxis, :] - perm[:, np.newaxis]) % n]
    assert np.max(np.abs(report.min_times - expected)) <= TIME_AGREEMENT_TOL


def test_grid_past_the_cap_is_refused_without_a_scan(monkeypatch):
    spec = circulant_from_c(3, [0, 0, 10**6])
    es = circulant_eigensystem(spec)
    assert analytic(es)[0][0] / grid_step(es) > MAX_GRID_POINTS

    def no_scan(*args):
        raise AssertionError("scanned a grid past MAX_GRID_POINTS")

    monkeypatch.setattr(walk, "scan_min_times", no_scan)
    start = time.monotonic()
    report = verify_upst(circulant_to_graph(spec), es)
    assert time.monotonic() - start < 5.0
    assert report.upst is False
    assert report.reasons == ("scan-grid-too-large",)


def relabelled(es, seed):
    """es with vertices permuted and random eigenvector phases, neither of
    which changes the set of transfer times; offset and exact_lambdas stay."""
    rng = np.random.default_rng(seed)
    x = es.X[rng.permutation(es.n), :] * np.exp(1j * rng.uniform(0, TWO_PI, size=es.n))
    moved = dataclasses.replace(es, X=x)
    if es.exact_lambdas is not None:
        exact = np.array([float(q) for q in es.exact_lambdas])
        assert np.max(np.abs(moved.eigenvalues - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))
    return moved


def relabelled_flat(a, b, beta, seed):
    """noncirculant_graph's eigensystem, relabelled and rephased."""
    return relabelled(noncirculant_graph(NoncirculantParams(a, b, beta))[1], seed)


def test_scan_times_and_phases_match_walk_operator(nd6):
    for es in (relabelled_flat(4, 4, 2, seed=5), circulant_eigensystem(nd6)):
        report = scan(es)
        assert report.reasons == ()
        for u in range(es.n):
            for v in range(es.n):
                entry = unitary_at(es, report.min_times[u, v])[v, u]
                assert abs(entry) >= 1 - PST_ENTRY_TOL
                assert abs(report.phases[u, v] - entry) < 1e-12


def test_scan_waves_match_complex_exp():
    rng = np.random.default_rng(11)
    t = rng.uniform(0, 1e3, size=257)
    lam = np.concatenate([[0.0, -3.5], rng.uniform(-40, 40, size=30)])
    waves = _waves(t, lam)
    assert waves.shape == (257, 32) and waves.dtype == complex
    assert np.max(np.abs(waves - np.exp(-1j * np.multiply.outer(t, lam)))) <= 1e-15


@pytest.mark.parametrize("chunk", [1, 7, 64, math.isqrt(1000 + 1) + 1])
def test_grid_waves_are_chunk_products_whatever_the_block(chunk):
    # head times base is exp(-i lam t) up to a few ulps and the rounding of
    # the angle lam t itself, and a block's waves are the same rows as those
    # of any other block covering the same grid indices; the last chunk is
    # the one _scan_pairs derives for a 1000-point grid
    rng = np.random.default_rng(12)
    lam = np.concatenate([[0.0, -3.5], rng.uniform(-40, 40, size=30)])
    step = 0.0137
    base = _waves((np.arange(chunk) + 1) * step, lam)
    full = _grid_waves(base, lam, step, 0, 1000)
    angle = np.multiply.outer((np.arange(1000) + 1) * step, lam)
    assert np.all(np.abs(full - np.exp(-1j * angle)) <= 1e-15 * (1 + np.abs(angle)))
    for start, stop in ((0, 1), (5, 64), (63, 65), (64, 128), (100, 101), (130, 999),
                        (chunk - 1, chunk + 1), (chunk, 2 * chunk)):
        assert np.array_equal(_grid_waves(base, lam, step, start, stop), full[start:stop])
    # index -1, the halo of a block at the grid's start, is the t = 0 wave:
    # head -1 times the last base wave, all ones to rounding, and the same
    # row whatever the block
    zero = _grid_waves(base, lam, step, -1, 0)
    assert zero.shape == (1, lam.size)
    assert np.max(np.abs(zero - 1)) <= 1e-15
    for stop in (1, chunk - 1, chunk, chunk + 1, 63, 64, 65, 1000):
        block = _grid_waves(base, lam, step, -1, max(stop, 0))
        assert np.array_equal(block[0], zero[0])
        assert np.array_equal(block[1:], full[:max(stop, 0)])


def test_scan_working_set_is_bounded():
    # the grid is scanned in blocks and candidates evaluated in row batches, so
    # the peak allocation stays far below the n^2 x grid-points array.  At a
    # hundred times the derived density the horizon is about 21 000 grid
    # points; past the last off-diagonal transfer only the diagonal class
    # stays live, and the blocks grow to their largest, BLOCK_ELEMENTS // n time
    # points.  At n = 128 an n^3 array of pair rows alone would take 32 MB.
    # The wide spread circulant's derived grid has about 44 000 points
    _, es = noncirculant_graph(NoncirculantParams(6, 4, 2))
    _, es128 = noncirculant_graph(NoncirculantParams(16, 8, 1))
    wide = circulant_eigensystem(circulant_from_c(3, [0, 0, 2000]))
    for scan_it in (
        lambda: scan(es),
        lambda: scan_min_times(es, *scan_grid(es, density=100), row_times(es)),
        lambda: scan(es128),
        lambda: scan(wide),
    ):
        tracemalloc.start()
        try:
            report = scan_it()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.reasons == ()
        assert peak <= 16 * 2**20


def test_scan_is_independent_of_the_grid_block(monkeypatch, nd6):
    # with a few time points per block, most clusters straddle blocks, and
    # with one every point sits at both edges of its block; each block reads
    # one grid point beyond each edge, so the pass must not notice.  At bound
    # 1 the candidates are evaluated one row per batch, at 3 n^2 in batches
    # of 3 n rows.  The bound also caps the wave chunk, which moves only the
    # waves' last bits: with the default's chunk the reports are equal bit
    # for bit, and with the bound's own their times are at most an ulp apart
    cases = (relabelled_flat(4, 4, 2, seed=3), circulant_eigensystem(nd6),
             false_cluster_eigensystem())
    real = walk._grid_waves
    blocks, bases = [], []

    def pinned(base, *args):  # every scan of a case takes its default scan's base
        blocks[-1] += 1
        bases.append(base)
        return real(bases[0], *args)

    for es in cases:
        bases.clear()
        blocks.append(0)
        monkeypatch.setattr(walk, "_grid_waves", pinned)
        default = scan(es)
        for bound in (3 * es.n**2, 1):
            monkeypatch.setattr(walk, "BLOCK_ELEMENTS", bound)
            blocks.append(0)
            small = scan(es)
            assert blocks[-1] > blocks[-2]
            assert np.array_equal(small.min_times, default.min_times, equal_nan=True)
            assert np.array_equal(small.phases, default.phases)
            assert small.reasons == default.reasons
            monkeypatch.setattr(walk, "_grid_waves", real)
            own = scan(es)
            monkeypatch.setattr(walk, "_grid_waves", pinned)
            assert own.reasons == default.reasons
            ulp = np.spacing(np.nanmax(default.min_times))
            assert np.nanmax(abs(own.min_times - default.min_times)) <= ulp
            assert np.max(abs(own.phases - default.phases)) <= 1e-13
        monkeypatch.undo()


@pytest.mark.parametrize("params, most", [((2, 2, 2), 100), ((4, 4, 2), 1150)],
                         ids=["flat(2,2,2)", "flat(4,4,2)"])
def test_grid_waves_take_few_exponentials(monkeypatch, params, most):
    # every _waves element is one complex exponential; the chunk of about
    # sqrt(grid points) waves builds base and heads from about 2 sqrt(grid
    # points) per eigenvalue (with a fixed chunk of 64 these took 304 and
    # 1792, a 64 n base whatever the grid's length)
    graph, es = noncirculant_graph(NoncirculantParams(*params))
    elements = []
    real = walk._waves

    def counted(a, b):
        elements.append(a.size * b.size)
        return real(a, b)

    monkeypatch.setattr(walk, "_waves", counted)
    assert verify_upst(graph, es).upst is True
    assert sum(elements) <= most


def test_scan_diagnostics_count_the_work():
    es = relabelled_flat(4, 4, 2, seed=5)
    period = return_period(es)
    h = grid_step(es)
    d = scan(es).diagnostics
    points = math.ceil(period / h)
    assert d["grid_step"] == period / points
    assert d["horizon"] == period + 2 * h
    assert points + 2 <= d["grid_points"] == math.ceil((period + 2 * h) / (period / points))
    # every pair resolves by the period and leaves the grid
    assert d["pair_time_products"] < es.n**2 * points
    assert d["f64_hits"] > 0
    # one scanned curve per class of equal row-time differences; every other
    # pair is admitted by its bound and passes the strict test at its table
    # time
    assert d["classes"] == 28
    assert d["classes"] + d["members"] == es.n**2
    assert d["member_rescans"] == 0
    assert 0 < d["admission_max"] <= 1e-13
    assert 0 <= d["confirm_margin"] <= PST_ENTRY_TOL
    # every run of hits that opens on the grid holds at least one candidate
    assert d["newton_rows"] >= d["clusters"] >= d["classes"]
    # every pair was confirmed at |U| >= 1 - PST_ENTRY_TOL; rounding above
    # |U| = 1 is clamped
    assert 0 <= d["margin_min"] <= PST_ENTRY_TOL
    # relabelled, X no longer matches the exponents it carries: time keys
    assert d["class_keys"] == "times"
    floats = ("grid_step", "horizon", "margin_min", "admission_max", "confirm_margin")
    counters = {k: v for k, v in d.items() if k not in floats + ("class_keys",)}
    assert all(type(v) is int for v in counters.values())


@pytest.mark.parametrize("es", [
    noncirculant_graph(NoncirculantParams(4, 4, 2))[1],
    circulant_eigensystem(nondense_circulant(2, 3)),
], ids=["flat(4,4,2)", "nondense(2,3)"])
def test_refinement_from_the_aligned_start_takes_one_evaluation_per_peak(es):
    # every candidate here is a certified peak, one per class, evaluated
    # once at its aligned start
    d = scan(es).diagnostics
    assert d["newton_rows"] == d["classes"]


def class_count(es):
    """Curves the scan of es scans; no member may be rescanned."""
    d = scan(es).diagnostics
    assert d["member_rescans"] == 0
    return d["classes"]


def test_pair_classes_are_counted_per_distinct_curve():
    for abb, expected in (((4, 4, 2), 28), ((6, 4, 2), 44), ((8, 8, 2), 120)):
        graph, es = noncirculant_graph(NoncirculantParams(*abb))
        assert class_count(es) == expected
        # relabelling, eigenvector phases and the eigh route move no class
        for seed in (1, 2):
            assert class_count(relabelled_flat(*abb, seed=seed)) == expected
        assert class_count(numerical_eigensystem(graph.adjacency)) == expected
    spec = nondense_circulant(3, 5)
    assert class_count(circulant_eigensystem(spec)) == 15
    rng = np.random.default_rng(4)
    for n in range(3, 13):
        spec = circulant_from_c(n, [int(c) for c in rng.integers(-9, 10, size=n)])
        graph = circulant_to_graph(spec)
        assert class_count(circulant_eigensystem(spec)) == n
        assert class_count(numerical_eigensystem(graph.adjacency)) == n


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("flat"), st.sampled_from([(2, 2, 1), (2, 2, 3), (3, 2, 2), (4, 3, 2)])),
        st.tuples(st.just("circulant_c"), st.integers(2, 9)),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_exponent_classes_share_one_curve(case, seed):
    # X = zeta_N^(r c) D / sqrt(n), D eigenvector phases: the pairs of one key
    # (r_v - r_u) mod N have one curve U(t)[v][u], magnitude and phase
    kind, size = case
    rng = np.random.default_rng(seed)
    if kind == "flat":
        es = noncirculant_graph(NoncirculantParams(*size))[1]
    else:
        es = circulant_eigensystem(
            circulant_from_c(size, [int(v) for v in rng.integers(-50, 51, size=size)]))
    es = dataclasses.replace(es, X=es.X * np.exp(1j * rng.uniform(0, TWO_PI, size=es.n)))
    keys = es.exponent_keys
    assert keys is not None
    first, run = walk._group(keys, 0)
    t = rng.uniform(0, 10 * return_period(es), size=20)
    curves = pair_vectors(es.X) @ np.exp(-1j * np.multiply.outer(es.lambdas, t))
    assert np.max(np.abs(curves - curves[first[run]])) <= 1e-13


def test_stale_exponents_take_the_time_keys():
    # a relabelled X keeps the exponents of the X it replaced; the check
    # against X refuses them, and the scan keys by times, as without exponents
    for base in (noncirculant_graph(NoncirculantParams(4, 4, 2))[1],
                 circulant_eigensystem(nondense_circulant(2, 3))):
        es = relabelled(base, seed=3)
        bare = dataclasses.replace(es, exponents=None)
        assert es.exponents is not None and es.exponent_keys is None
        a = (es.X * es.eigenvalues) @ es.X.conj().T
        graph = HermitianGraph(es.n, (a + a.conj().T) / 2)
        stale, clean = verify_upst(graph, es), verify_upst(graph, bare)
        assert stale.upst is clean.upst is True
        assert stale.diagnostics == clean.diagnostics
        assert stale.diagnostics["class_keys"] == "times"
        assert np.array_equal(stale.min_times, clean.min_times)
        assert np.array_equal(stale.phases, clean.phases)


def test_wide_circulant_scans_one_curve_per_exponent_class():
    # c in +-3e4: every time-keyed B_m passed ADMISSION_TOL, so all 36 pairs
    # were scanned; the exponent keys give 6 classes and no rescan
    c = np.random.default_rng(1).integers(-30000, 30001, size=6)
    c[0] = 0
    spec = circulant_from_c(6, c.tolist())
    graph, es = circulant_to_graph(spec), circulant_eigensystem(spec)
    report = verify_upst(graph, es)
    d = report.diagnostics
    assert report.upst is True, report.reasons
    assert (d["class_keys"], d["classes"], d["members"], d["member_rescans"]) == (
        "exponents", 6, 30, 0)
    assert d["admission_max"] == 0
    timed = verify_upst(graph, dataclasses.replace(es, exponents=None))
    assert timed.diagnostics["classes"] == 36
    assert np.max(np.abs(report.min_times - timed.min_times)) <= 1e-12


def members_and_bounds(x, lambdas, times):
    """_row_classes of x: whether each flat pair is a member (not its class's
    first pair), its class's first pair, and its bound B_m."""
    first, run, bound, _ = _row_classes(spectra.canonicalize(x), lambdas - lambdas[0], times)
    member = np.ones(run.size, dtype=bool)
    member[first] = False
    return member, first[run], bound


@pytest.mark.parametrize("noise, admitted", [(1e-13, True), (1e-9, False)])
def test_class_admission_follows_admission_tol(noise, admitted):
    # a phase error of +-noise on every entry of one row puts that row's pair
    # rows about 2 noise off their classes': inside ADMISSION_TOL they take
    # their class's time, past it they are scanned by themselves, and the
    # times stay those of the clean input
    es = relabelled_flat(4, 4, 2, seed=5)
    times = row_times(es)
    x = es.X.copy()
    x[3] *= np.exp(1j * noise * np.random.default_rng(6).choice([-1.0, 1.0], size=es.n))
    member, _, bound = members_and_bounds(x, es.lambdas, times)
    touched = member & np.isin(np.divmod(np.arange(es.n**2), es.n), 3).any(axis=0)
    assert bool(np.max(bound[touched]) <= ADMISSION_TOL) is admitted
    report = scan(EigenSystem(n=es.n, X=x, lambdas=es.lambdas), times)
    d = report.diagnostics
    assert report.reasons == ()
    assert d["member_rescans"] == np.count_nonzero(member & (bound > ADMISSION_TOL))
    assert (d["member_rescans"] == 0) is admitted
    assert d["admission_max"] <= ADMISSION_TOL
    assert np.max(np.abs(report.min_times - scan(es).min_times)) <= 1e-9


@settings(max_examples=25, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("flat"), st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 3), (4, 4, 2)])),
        st.tuples(st.just("circulant_c"), st.integers(2, 5)),
        st.tuples(st.just("nondense"), st.sampled_from([(2, 3), (2, 5)])),
    ),
    noise=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.3]),
    permuted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(case=("circulant_c", 2), noise=0.0, permuted=True, seed=1)  # refitted period 0
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_admission_bound_holds_between_class_curves(case, noise, permuted, seed):
    # B_m bounds |U_m(t) - s U_r(t)| for every t, so ||U_m(t)| - |U_r(t)|| <=
    # B_m on any grid, whatever the row times: here X is off by noise in
    # magnitude and phase, and the row times by noise, or permuted
    kind, size = case
    rng = np.random.default_rng(seed)
    if kind == "flat":
        base = noncirculant_graph(NoncirculantParams(*size))[1]
    elif kind == "circulant_c":
        c = [int(v) for v in rng.integers(-1000, 1001, size=size)]
        base = circulant_eigensystem(circulant_from_c(size, c))
    else:
        base = circulant_eigensystem(nondense_circulant(*size))
    es = relabelled(base, seed)
    n = es.n
    times = row_times(es) + noise * rng.normal(size=n)
    if permuted:
        times = times[rng.permutation(n)]
    x = es.X * (1 + noise * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    _, rep, bound = members_and_bounds(x, es.lambdas, times)
    t = np.linspace(0, return_period(es), 301)
    mags = np.abs(pair_vectors(x) @ np.exp(-1j * np.multiply.outer(es.lambdas, t)))
    gap = np.max(np.abs(mags - mags[rep]), axis=1)
    # row times far off can move the refitted period to 0 or below, where the
    # bound is inf and admits nothing; no bound is NaN
    assert np.all(gap <= bound)
    assert permuted or noise > 1e-6 or np.isfinite(bound).all()


def test_moved_row_time_costs_rescans_never_times():
    # one row time 1e-3 P off: the table amplitudes of that row's pairs miss
    # the strict test, so those pairs are scanned by themselves, and times and
    # phases are those of the honest scan
    es = relabelled_flat(4, 4, 2, seed=5)
    honest = scan(es)
    times = row_times(es)
    times[2] += 1e-3 * times[0]
    report = scan(es, times)
    d = report.diagnostics
    assert report.reasons == ()
    assert d["member_rescans"] > 0
    assert d["classes"] + d["members"] == es.n**2
    assert d["confirm_margin"] > PST_ENTRY_TOL
    assert np.max(np.abs(report.min_times - honest.min_times)) <= 1e-12
    assert np.max(np.abs(report.phases - honest.phases)) <= 1e-11


def test_table_confirmation_checks_the_period_on_the_diagonal():
    # every row time and the period moved by the same 1e-3 P: the off-diagonal
    # amplitudes, at t_v - t_u, all pass, but P is no period, so U(P)[w][w]
    # and with it every wrapped table time fails
    es = relabelled_flat(4, 4, 2, seed=5)
    honest = scan(es)
    times = row_times(es)
    report = scan(es, times + 1e-3 * times[0])
    d = report.diagnostics
    assert d["confirm_margin"] > PST_ENTRY_TOL
    assert report.reasons == ()
    assert np.max(np.abs(report.min_times - honest.min_times)) <= 1e-12


def test_permuted_row_times_cost_rescans_never_times():
    # every key is wrong; the bounds turn the strangers in each class away
    es = relabelled_flat(4, 4, 2, seed=5)
    honest = scan(es)
    report = scan(es, row_times(es)[np.random.default_rng(8).permutation(es.n)])
    d = report.diagnostics
    assert report.reasons == ()
    assert d["member_rescans"] > 0
    assert d["classes"] + d["members"] == es.n**2
    assert np.max(np.abs(report.min_times - honest.min_times)) <= 1e-12
    assert np.max(np.abs(report.phases - honest.phases)) <= 1e-11


def test_verify_peak_memory_stays_far_below_an_n_cubed_array():
    # n = 256: one n^3 complex array would take 256 MB
    graph, es = noncirculant_graph(NoncirculantParams(16, 16, 2))
    tracemalloc.start()
    try:
        report = verify_upst(graph, es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.upst is True
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("shift", [10**5, 10**8, 10**9])
def test_eigh_route_certifies_a_large_diagonal_shift(shift):
    # eigh of A itself errs by about 2^-52 max|lambda| per eigenvalue, which
    # put the gap ratios past RATIO_REL_TOL (no-consistent-times) or X off
    # flat (diagonalizer-not-flat); eigh of A - mean(diag A) I does not
    spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(shift))
    graph = circulant_to_graph(spec)
    report = verify_upst(graph, numerical_eigensystem(graph.adjacency))
    assert report.upst is True, report.reasons
    assert report.diagnostics["agreement_max"] <= TIME_AGREEMENT_TOL


def bare_matrix(name):
    """The adjacency matrix of "nondense(p,q)" or "flat(a,b,beta)"."""
    kind, args = name[:-1].split("(")
    params = tuple(int(v) for v in args.split(","))
    if kind == "nondense":
        return circulant_to_graph(nondense_circulant(*params)).adjacency
    return noncirculant_graph(NoncirculantParams(*params))[0].adjacency


@pytest.mark.parametrize("name", ["nondense(2,3)", "flat(4,2,3)", "nondense(3,5)", "flat(4,4,2)"])
@pytest.mark.parametrize("divisor, shift", [(3, 10**4 + 1 / 3), (3, 10**6 + 1 / 3),
                                            (1, 1e10), (1, 1e12), (1e9, 0), (1e6, 0),
                                            (1e6, 10**4 + 1 / 3), (1e10, 0), (1e12, 0),
                                            (1e14, 0)])
def test_bare_matrices_certify_under_scale_and_diagonal_shift(name, divisor, shift):
    # eigh runs on A - mean(diag A) I and keeps the mean as the offset, so the
    # centred eigenvalues, which the gap gate, the ratios and the scan read,
    # do not see the shift; A / divisor multiplies every time, and the period
    # P, by divisor, and float times err in proportion to P, so they agree to
    # TIME_AGREEMENT_TOL P: an absolute bound refused A / 1e9 (P about
    # 6e9) as analytic-scan-disagreement; the gap gate is relative to
    # max|lambda| with no floor, which refused A / 1e10 .. A / 1e14 as
    # degenerate-spectrum
    a = bare_matrix(name)
    n = a.shape[0]
    base = verify_upst(HermitianGraph(n, a), numerical_eigensystem(a))
    assert base.upst is True, base.reasons
    moved = a / divisor + shift * np.eye(n)
    report = verify_upst(HermitianGraph(n, moved), numerical_eigensystem(moved))
    assert report.upst is True, report.reasons
    tol = TIME_AGREEMENT_TOL * report.return_period
    assert np.max(np.abs(report.min_times - divisor * base.min_times)) <= tol


def scaled_runs(name, scale):
    """verify_upst's reports on name, "flat(3,2,2)" or "nondense(2,3)", as a
    float eigensystem (no exact data) with every eigenvalue times scale, by
    route ("given" and "eigh"), each asserted certified."""
    if name == "nondense(2,3)":
        base = circulant_eigensystem(nondense_circulant(2, 3))
    else:
        base = noncirculant_graph(NoncirculantParams(3, 2, 2))[1]
    es = EigenSystem(base.n, base.X, base.lambdas * scale)
    a = (es.X * es.lambdas) @ es.X.conj().T
    graph = HermitianGraph(es.n, (a + a.conj().T) / 2)
    reports = {"given": verify_upst(graph, es),
               "eigh": verify_upst(graph, numerical_eigensystem(graph.adjacency))}
    for route, report in reports.items():
        assert report.upst is True, (route, report.reasons)
    return reports


SCALE_COUNTS = ("classes", "members", "newton_rows")


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e154, 1e300])
@pytest.mark.parametrize("name", ["flat(3,2,2)", "nondense(2,3)"])
def test_eigenvalue_scale_leaves_verdicts_and_counts(name, scale):
    # grid_step's sum of squares, the class times' d.d and the aligned
    # start's run on d scaled by a power of two: unscaled, 1e-160 went
    # subnormal and lost pairs (scan-missing-pairs), and every scale <= 1e-170
    # or >= 1e154 divided by zero in grid_step
    base, scaled = scaled_runs(name, 1.0), scaled_runs(name, scale)
    for route in ("given", "eigh"):
        d, d0 = scaled[route].diagnostics, base[route].diagnostics
        assert [d[k] for k in SCALE_COUNTS] == [d0[k] for k in SCALE_COUNTS]
        assert np.max(np.abs(scale * scaled[route].min_times - base[route].min_times)) \
            <= TIME_AGREEMENT_TOL * base[route].return_period


@pytest.mark.parametrize("exponent", [-997, -531, 512, 997])
@pytest.mark.parametrize("name", ["flat(3,2,2)", "nondense(2,3)"])
def test_power_of_two_scales_leave_the_given_route_bit_for_bit(name, exponent):
    # a power-of-two scale is exact, and so is every scaling the scan applies:
    # times scale by its inverse and every count and phase stays, to the bit
    base = scaled_runs(name, 1.0)["given"]
    report = scaled_runs(name, 2.0**exponent)["given"]
    assert np.array_equal(np.ldexp(report.min_times, exponent), base.min_times)
    assert np.array_equal(report.phases, base.phases)
    counters = {k: v for k, v in base.diagnostics.items() if type(v) is int}
    assert {k: report.diagnostics[k] for k in counters} == counters


@pytest.mark.parametrize("n", [9, 11, 12])
def test_wide_spread_circulants_certify_at_a_period_far_below_one(n):
    # A * 1e6 with c in +-3e4 has P = 2 pi 1e-6 and peaks as narrow as
    # sqrt(2 PST_ENTRY_TOL / V) for the spread V: a Newton stop of 1e-15
    # max(1, |t|) was coarser than that width, left the refined peaks below
    # 1 - PST_ENTRY_TOL and missed 18, 22 and 24 pairs (scan-missing-pairs)
    c = np.random.default_rng(1).integers(-30000, 30001, n).tolist()
    a = 1e6 * circulant_to_graph(circulant_from_c(n, c)).adjacency
    report = verify_upst(HermitianGraph(n, a), numerical_eigensystem(a))
    assert report.upst is True, report.reasons
    assert report.return_period == pytest.approx(TWO_PI * 1e-6, rel=1e-12)


def test_time_agreement_scales_with_a_period_below_one(monkeypatch, nd6):
    # at P = 2 pi 1e-6 a scanned time 1e-9 off its table entry is 1.6e-4 P
    # off: an agreement bound of TIME_AGREEMENT_TOL max(1, P) = 1e-8 passed it
    plant_scan(monkeypatch, 1e-9, [(1, 2)])
    a = 1e6 * circulant_to_graph(nd6).adjacency
    report = verify_upst(HermitianGraph(6, a), numerical_eigensystem(a))
    assert report.return_period == pytest.approx(TWO_PI * 1e-6, rel=1e-12)
    assert report.upst is False
    assert report.reasons == ("analytic-scan-disagreement",)
    assert report.diagnostics["agreement_max"] == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("name", ["nondense(2,3)", "circulant_c(5)"])
@pytest.mark.parametrize("exponent", [30, 33, 40])
def test_exact_route_certifies_under_rational_shifts_past_2_to_the_30(name, exponent):
    # the floats are the exact lambda_k - a_0, so no embedded eigenvalue
    # straddles a power of two near the shift and d = lambda - lambda_0 keeps
    # the errors of the unshifted spectrum
    if name == "nondense(2,3)":
        spec = nondense_circulant(2, 3)
    else:
        spec = circulant_from_c(5, [1, -2, 3, 0, 4])
    base = verify_upst(circulant_to_graph(spec), circulant_eigensystem(spec))
    assert base.upst is True, base.reasons
    moved = with_diagonal_shift(spec, 2**exponent + Fraction(1, 3))
    report = verify_upst(circulant_to_graph(moved), circulant_eigensystem(moved))
    assert report.upst is True, report.reasons
    assert np.max(np.abs(report.min_times - base.min_times)) <= TIME_AGREEMENT_TOL


@pytest.mark.parametrize("route", ["eigh", "exact"])
def test_phases_and_walk_operator_carry_the_offset(route):
    # report.phases and unitary_at are absolute: both match U(t) from an
    # independent eigh of the shifted matrix, so a dropped offset, a factor
    # e^{-i 7/3 t}, shows
    spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(7, 3))
    if route == "eigh":
        a = bare_matrix("nondense(2,3)") + 7 / 3 * np.eye(6)
        graph, es = HermitianGraph(6, a), numerical_eigensystem(a)
    else:
        graph, es = circulant_to_graph(spec), circulant_eigensystem(spec)
    report = verify_upst(graph, es)
    assert report.upst is True, report.reasons
    w, v = np.linalg.eigh(graph.adjacency)
    for (x, y), t in np.ndenumerate(report.min_times):
        expected = ((v * np.exp(-1j * w * t)) @ v.conj().T)[y][x]
        assert abs(report.phases[x][y] - expected) <= 1e-12
        assert abs(unitary_at(es, t)[y][x] - expected) <= 1e-12


def test_scan_of_eigenvalue_differences_certifies_a_shift_of_1e9():
    # |U| does not see lambda_0, so scanning lambda - lambda_0 keeps the time
    # error at the scale of the spread (it was 5e-8 scanning lambda itself)
    spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(10**9))
    report = verify_upst(circulant_to_graph(spec), circulant_eigensystem(spec))
    assert report.upst is True, report.reasons
    assert report.diagnostics["agreement_max"] <= 1e-14


@pytest.mark.parametrize("shift", [10**10, 10**12])
def test_exact_eigenvalues_decide_distinctness_where_the_float_gate_refuses(shift):
    # from 1e10 on, the least gap 1 is at most DEGENERACY_TOL times the
    # absolute max|lambda|: the exact route's distinct exact_lambdas decide
    # alone, and eigh's centred eigenvalues, whose max|lambda| is the spread,
    # pass the float gate; both certify
    spec = with_diagonal_shift(nondense_circulant(2, 3), Fraction(shift))
    graph = circulant_to_graph(spec)
    for es in (circulant_eigensystem(spec), numerical_eigensystem(graph.adjacency)):
        report = verify_upst(graph, es)
        assert report.upst is True, report.reasons
        assert report.diagnostics["agreement_max"] <= TIME_AGREEMENT_TOL
    # an exact tie is degenerate whatever the floats say
    tied = EigenSystem(3, fourier_matrix(3), np.array([0.0, 1.0, 1 + 1e-12]),
                       exact_lambdas=(Fraction(0), Fraction(1), Fraction(1)))
    tied_graph = HermitianGraph(3, (tied.X * tied.lambdas) @ tied.X.conj().T)
    assert verify_upst(tied_graph, tied).reasons == ("degenerate-spectrum",)


def test_grid_hit_set_is_the_float64_threshold_set():
    # every grid point whose |U(t)[v][u]|^2, read off the walk operator, is at
    # least DETECTION_THRESHOLD is a hit, and every hit >= both neighbours,
    # the halo points t = 0 and past the horizon included, is a candidate,
    # in (pair, time) order.  On this grid many peaks fall midway between two
    # grid points, whose |U|^2 then tie to rounding: a tie within 1e-14 may
    # go either way
    _, es = noncirculant_graph(NoncirculantParams(6, 4, 2))
    pvecs = pair_vectors(es.X)
    horizon, step = scan_grid(es, density=4)
    nsteps = math.ceil(horizon / step)
    for first in range(0, nsteps, 500):
        stop = min(nsteps, first + 500)
        times = (np.arange(first - 1, stop + 1) + 1) * step
        exact = np.stack([np.abs(unitary_at(es, t).T.reshape(-1)) ** 2 for t in times], axis=1)
        hits, clusters, pair, w = _block_peaks(pvecs, _waves(times, es.lambdas))
        inner = exact[:, 1:-1]
        hit = inner >= DETECTION_THRESHOLD
        assert hits == np.count_nonzero(hit)
        assert clusters == np.count_nonzero(hit & (exact[:, :-2] < DETECTION_THRESHOLD))
        flat = pair * (stop - first) + w
        assert np.all(np.diff(flat) > 0)
        peak = np.zeros(inner.shape, dtype=bool)
        peak[pair, w] = True
        rise = np.minimum(inner - exact[:, :-2], inner - exact[:, 2:])
        assert np.all(hit[peak] & (rise[peak] >= -1e-14))
        assert np.all(peak[hit & (rise > 1e-14)])


def test_scan_certifies_every_pair_at_n_512():
    # at n = 512 the float64 grid still finds all n^2 times, each within
    # TIME_AGREEMENT_TOL of the table
    graph, es = noncirculant_graph(NoncirculantParams(32, 16, 1))
    report = verify_upst(graph, es)
    assert report.upst is True, report.reasons
    assert not np.isnan(report.min_times).any()
    d = report.diagnostics
    assert d["classes"] + d["members"] == es.n**2
    assert d["agreement_max"] <= TIME_AGREEMENT_TOL


def certified_eigensystem(kind, size, seed):
    """A Fourier (integer spectrum, scaled) or flat-family eigensystem with its
    vertices permuted and random eigenvector phases, and the transfer times
    from the vertex that was 0 before relabelling: (es, source, times), with
    times[v] the analytic time of the pair (source, v)."""
    rng = np.random.default_rng(seed)
    if kind == "fourier":
        base = EigenSystem(
            n=size, X=fourier_matrix(size), lambdas=10.0 ** rng.uniform(-1, 1) * np.arange(size)
        )
    else:
        base = noncirculant_graph(NoncirculantParams(*size))[1]
    n = base.n
    perm = rng.permutation(n)
    x = base.X[perm, :] * np.exp(1j * rng.uniform(0, TWO_PI, size=n))
    es = EigenSystem(n=n, X=x, lambdas=base.lambdas)
    source = int(np.flatnonzero(perm == 0)[0])
    return es, source, analytic(base)[0][perm]


@settings(max_examples=40, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("fourier"), st.sampled_from([2, 3, 5, 8])),
        st.tuples(st.just("flat"), st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 2, 3), (4, 4, 2)])),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_aligned_start_lands_on_certified_peaks_from_one_step_away(case, seed):
    # a candidate lies within one grid step h <= 2 pi/(3R) of its peak, where
    # no angle of a term against the sum wraps: the one regression gives the
    # peak time, and the one evaluation there is the walk's amplitude, up to
    # e^{-i lambda_0 t}, and passes the strict test
    es, u, times = certified_eigensystem(*case, seed)
    n = es.n
    h = grid_step(es)
    d = es.lambdas - es.lambdas[0]
    g = times + h * np.random.default_rng(seed).uniform(-1, 1, size=n)
    pv = pair_vectors(es.X)[u * n + np.arange(n)]
    start = _aligned_start(pv * _waves(g, d), d, g, g - h, g + h)
    assert np.max(np.abs(start - times)) <= 1e-12
    amp = evaluate(pv, d, start) * np.exp(-1j * es.lambdas[0] * start)
    for v in range(n):
        assert abs(amp[v] - unitary_at(es, start[v])[v, u]) <= 1e-12
    assert np.min(np.abs(amp)) >= 1 - PST_ENTRY_TOL


def test_aligned_start_keeps_a_near_miss_in_its_bracket_and_below_the_test():
    # the 2.02 near miss has a hit, no peak of 1, around 2 pi on the diagonal
    # pairs, and grid points up to two steps either side of it: the aligned
    # start stays in each bracket, climbs from its grid point, and its one
    # evaluation stays below the strict test
    es = false_cluster_eigensystem()
    d = es.lambdas - es.lambdas[0]
    step = scan_grid(es)[1]
    g = (np.arange(-2, 3) + round(TWO_PI / step)) * step
    pv = np.repeat(pair_vectors(es.X)[::4], g.size, axis=0)
    t = np.tile(g, 3)
    lo, hi = t - step, t + step
    start = _aligned_start(pv * _waves(t, d), d, t, lo, hi)
    assert np.all((lo <= start) & (start <= hi))
    amp = np.abs(evaluate(pv, d, start))
    assert np.all(amp >= np.abs(evaluate(pv, d, t)))
    assert np.max(amp) < 1 - PST_ENTRY_TOL


def bracket_maximum(es, u, v, lo, hi):
    """(t, |U(t)[v][u]|) at the largest of 65 unitary_at samples across [lo,
    hi], then three times more across the two spacings around the best one."""
    for _ in range(4):
        ts = np.linspace(lo, hi, 65)
        mags = [abs(unitary_at(es, t)[v, u]) for t in ts]
        j = int(np.argmax(mags))
        lo, hi = max(lo, ts[j] - (ts[1] - ts[0])), min(hi, ts[j] + (ts[1] - ts[0]))
    return ts[j], mags[j]


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from(["near-miss", "moved"]), seed=st.integers(0, 2**32 - 1))
def test_one_evaluation_reads_the_bracket_maximum_of_a_local_peak_that_is_no_pst(case, seed):
    # the 2.02 near miss's diagonal pairs around 2 pi, and nondense(2,3) with
    # lambda_1 moved by 1e-9 sqrt(2) at its transfer times 1e5 .. 1.5e5
    # periods on, where the moved term has turned by about 1e-3: from a grid
    # point anywhere within one step h of such a maximum, the one evaluation
    # at the aligned start reads the largest |U| of [g - h, g + h], and stays
    # below the strict test
    rng = np.random.default_rng(seed)
    if case == "near-miss":
        es = false_cluster_eigensystem()
        pairs, centres = [(w, w) for w in range(3)], np.full(3, TWO_PI)
    else:
        base = circulant_eigensystem(nondense_circulant(2, 3))
        es = EigenSystem(6, base.X, base.lambdas + np.r_[0.0, 1e-9 * math.sqrt(2), np.zeros(4)])
        times = analytic(base)[0]
        pairs = [(0, v) for v in range(6)]
        centres = times + rng.integers(10**5, 15 * 10**4) * times[0]
    h = grid_step(es)
    d = es.lambdas - es.lambdas[0]
    for (u, v), centre in zip(pairs, centres):
        pv = pair_vectors(es.X)[[u * es.n + v]]
        peak = bracket_maximum(es, u, v, centre - h, centre + h)[0]
        g = np.array([peak + h * rng.uniform(-1, 1)])
        start = _aligned_start(pv * _waves(g, d), d, g, g - h, g + h)
        amp = abs(evaluate(pv, d, start)[0])
        assert abs(amp - bracket_maximum(es, u, v, g[0] - h, g[0] + h)[1]) <= 1e-12
        assert amp < 1 - PST_ENTRY_TOL


# ------------------------------------------------------------ certification

def test_certification_order3(circ3):
    g = circulant_to_graph(circ3)
    report = verify_upst(g, es3(circ3))
    assert report.upst is True
    assert report.reasons == ()
    assert report.circulant_timing is True
    assert report.dense is True
    assert abs(report.return_period - 3 * T01) < 1e-12
    assert np.max(np.abs(report.min_times[0, :] - report.analytic_times)) < 1e-8
    assert report.diagnostics["row_residual_max"] <= 1e-14


def test_certification_nondense6(nd6):
    g = circulant_to_graph(nd6)
    report = verify_upst(g, circulant_eigensystem(nd6))
    assert report.upst is True
    assert report.circulant_timing is True
    assert report.dense is False  # non-dense by construction


def test_certification_noncirculant():
    g, es = noncirculant_graph(NoncirculantParams(2, 2, 3))
    report = verify_upst(g, es)
    assert report.upst is True
    assert report.circulant_timing is False
    assert report.dense is None  # no exact circulant data to test


def test_certified_phases_have_unit_magnitude(circ3):
    g = circulant_to_graph(circ3)
    report = verify_upst(g, es3(circ3))
    assert np.max(np.abs(np.abs(report.phases) - 1)) < 1e-9


def test_transfer_precedes_return_everywhere(circ3, nd6):
    # for every vertex u, each transfer t_{u,v} lands before the return t_{u,u},
    # and the reported period is the one the spectrum alone determines; the
    # order-2 rational circulant Circ(1/2, -1/2) is the smallest case
    specs = (CirculantSpec.from_rows(2, 1, [[1], [-1]], 2), circ3, nd6)
    inputs = [(circulant_to_graph(s), circulant_eigensystem(s)) for s in specs]
    inputs += [noncirculant_graph(NoncirculantParams(3, 2, 2)), gk_example(4)]
    for graph, es in inputs:
        report = verify_upst(graph, es)
        assert report.upst is True
        assert abs(report.return_period - return_period(es)) < 1e-12
        n = report.n
        for u in range(n):
            for v in range(n):
                if v != u:
                    assert report.min_times[u, v] < report.min_times[u, u]


def step_bounds(es):
    """grid_step's two bounds from the pair rows p: sqrt(8/V) (sqrt(1 -
    sqrt(threshold)) - sqrt(PST_ENTRY_TOL)), V the largest sum_k |p_k|
    (lambda_k - mean)^2, and 2 pi/(3 R)."""
    lam = es.lambdas
    v = np.max(np.abs(pair_vectors(es.X)) @ (lam - lam.mean()) ** 2)
    root = math.sqrt(1 - math.sqrt(DETECTION_THRESHOLD)) - math.sqrt(PST_ENTRY_TOL)
    return math.sqrt(8 / v) * root, TWO_PI / (3 * (lam.max() - lam.min()))


def test_grid_step_meets_both_bounds_on_the_ladder():
    # h is at most both bounds and within 1e-4 of the smaller; the grid point
    # nearest each transfer time is a hit
    for abb in LADDER:
        es, u, times = certified_eigensystem("flat", abb, seed=3)
        curvature_bound, unimodal_bound = step_bounds(es)
        h = grid_step(es)
        assert h <= curvature_bound
        assert h <= unimodal_bound
        assert h >= (1 - 1e-4) * min(curvature_bound, unimodal_bound)
        period = return_period(es)
        step = period / math.ceil(period / h)
        for v, t in enumerate(times):
            nearest = round(t / step) * step
            assert abs(unitary_at(es, nearest)[v, u]) ** 2 >= DETECTION_THRESHOLD


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("flat"), st.sampled_from(LADDER[:9])),
        st.tuples(st.just("circulant_c"), st.integers(2, 5)),
        st.tuples(st.just("nondense"), st.sampled_from([(2, 3), (2, 5), (3, 5)])),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_scanned_times_stay_hits_within_half_a_step(case, seed):
    # grid_step's curvature bound: from every scanned t_uv, where |U| >= 1 -
    # PST_ENTRY_TOL, |U(t_uv + s)[v][u]|^2 >= DETECTION_THRESHOLD for all
    # |s| <= h/2, so the grid point nearest a peak is a hit
    kind, size = case
    rng = np.random.default_rng(seed)
    if kind == "flat":
        base = noncirculant_graph(NoncirculantParams(*size))[1]
    elif kind == "circulant_c":
        c = [int(v) for v in rng.integers(-1000, 1001, size=size)]
        base = circulant_eigensystem(circulant_from_c(size, c))
    else:
        base = circulant_eigensystem(nondense_circulant(*size))
    es = relabelled(base, seed)
    curvature_bound, unimodal_bound = step_bounds(es)
    h = grid_step(es)
    # grid_step takes V from the flatness gate, (1/sqrt(n) + UNITARITY_TOL)^2
    # sum_k mu_k^2, at least every pair's V
    lam = es.lambdas
    v = (1 / math.sqrt(es.n) + UNITARITY_TOL) ** 2 * np.sum((lam - lam.mean()) ** 2)
    root = math.sqrt(1 - math.sqrt(DETECTION_THRESHOLD)) - math.sqrt(PST_ENTRY_TOL)
    stated = min(math.sqrt(8 / v) * root * (1 - STEP_MARGIN), unimodal_bound)
    assert h == pytest.approx(stated, rel=1e-12, abs=0)
    assert h <= curvature_bound
    report = scan(es)
    assert report.reasons == ()
    t = report.min_times.reshape(-1, 1, 1) + h / 2 * np.linspace(-1, 1, 33)[:, np.newaxis]
    amp = np.einsum("pk,psk->ps", pair_vectors(es.X), np.exp(-1j * t * es.lambdas))
    assert np.min(np.abs(amp) ** 2) >= DETECTION_THRESHOLD


def test_time_reversal_holds_on_the_ladder_and_the_fixtures(circ3):
    # U(P - t) = e^{-i lambda_0 P} U(t)^dagger, so t_uv + t_vu = P off the
    # diagonal; the flat (a, b, beta) fixtures are rungs of the ladder
    inputs = [(None, relabelled_flat(*abb, seed=7)) for abb in LADDER]
    inputs += [gk_example(k) for k in (2, 4, 6, 8)]
    for spec in (circ3, nondense_circulant(2, 3), nondense_circulant(3, 5)):
        inputs.append((circulant_to_graph(spec), circulant_eigensystem(spec)))
    for graph, es in inputs:
        if graph is None:
            a = (es.X * es.lambdas) @ es.X.conj().T
            graph = HermitianGraph(es.n, (a + a.conj().T) / 2)
        report = verify_upst(graph, es)
        assert report.upst is True, report.reasons
        off = ~np.eye(es.n, dtype=bool)
        sums = (report.min_times + report.min_times.T)[off]
        assert np.max(np.abs(sums - report.return_period)) <= 1e-12


def plant_scan(monkeypatch, offset, pairs):
    """Make verify_upst's scan report min_times[u, v] + offset at each (u, v)
    of pairs."""
    honest = walk.scan_min_times

    def planted(es, horizon, step, row_times):
        report = honest(es, horizon, step, row_times)
        for u, v in pairs:
            report.min_times[u, v] += offset
        return report

    monkeypatch.setattr(walk, "scan_min_times", planted)


def test_transfer_table_catches_an_off_table_time(monkeypatch, circ3):
    # a scan that reports t_12 off by 1e-6 agrees with the analytic times
    # from vertex 0, but not with the table of all n^2 pairs
    plant_scan(monkeypatch, 1e-6, [(1, 2)])
    report = verify_upst(circulant_to_graph(circ3), es3(circ3))
    assert report.upst is False
    assert report.reasons == ("analytic-scan-disagreement",)
    assert report.circulant_timing is None
    assert report.diagnostics["agreement_max"] == pytest.approx(1e-6, rel=1e-6)


def test_time_reversal_gate_catches_times_inside_the_agreement_tolerance(monkeypatch, circ3):
    # t_12 and t_21 each 0.9 TIME_AGREEMENT_TOL P late pass the comparison
    # with the table, but t_12 + t_21 misses the return period by 1.8 of it
    period = 3 * T01
    plant_scan(monkeypatch, 0.9 * TIME_AGREEMENT_TOL * period, [(1, 2), (2, 1)])
    report = verify_upst(circulant_to_graph(circ3), es3(circ3))
    assert report.return_period == pytest.approx(period, rel=1e-12)
    assert report.upst is False
    assert report.reasons == ("time-reversal-violation",)
    assert report.circulant_timing is None
    assert report.diagnostics["agreement_max"] <= TIME_AGREEMENT_TOL * period


def test_certification_rejects_path_graph():
    p3 = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    report = verify_upst(HermitianGraph(3, p3), numerical_eigensystem(p3))
    assert report.upst is False
    assert report.reasons == ("diagonalizer-not-flat",)


def test_certification_rejects_incommensurable_spectrum():
    es = irrational_eigensystem()
    a = (es.X * es.lambdas) @ es.X.conj().T
    a = (a + a.conj().T) / 2
    report = verify_upst(HermitianGraph(3, a), es)
    assert report.upst is False
    assert report.reasons == ("no-consistent-times",)
    assert report.diagnostics == {"row_residual_max": None}


def test_inconsistent_rows_report_their_residual():
    # F_4 with lambda = (0, 1, 3, 2) is flat with integer gaps D = (1, 3, 2),
    # but no row w >= 1 solves rho_w = s D mod 1: the one candidate s = w/4
    # of k = 1 misses k = 2 and 3 by pi/2 on rows 1 and 3 and by pi on row 2
    es = EigenSystem(n=4, X=fourier_matrix(4), lambdas=np.array([0.0, 1.0, 3.0, 2.0]))
    a = (es.X * es.lambdas) @ es.X.conj().T
    report = verify_upst(HermitianGraph(4, (a + a.conj().T) / 2), es)
    assert report.upst is False
    assert report.reasons == ("no-consistent-times",)
    assert report.diagnostics["row_residual_max"] == pytest.approx(math.pi, abs=1e-12)


def test_verify_tests_flatness_and_recovers_the_ratios_once(monkeypatch, circ3):
    # one flatness test, one analytic solve and one eigenvalue_steps per
    # verify_upst, wherever the functions are bound; the float reconstruction
    # runs only without exact data: circ3's eigenvalues 0, +-sqrt(3) are
    # irrational but come as exact rows, and eigh gives none, also on
    # nondense(2,3) + 10^10; an exact tie is refused by eigenvalue_steps
    # alone, before any flatness test
    calls = []
    for module, name in ((walk, "is_type_ii"), (spectra, "is_type_ii"),
                         (walk, "analytic_pst_times"),
                         (walk, "eigenvalue_steps"), (spectra, "eigenvalue_steps"),
                         (spectra, "integer_multiples"), (ratios, "integer_multiples")):
        def counted(*args, real=getattr(module, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    graph, es = noncirculant_graph(NoncirculantParams(4, 4, 2))
    nd6 = circulant_to_graph(nondense_circulant(2, 3))
    exact = ["analytic_pst_times", "eigenvalue_steps", "is_type_ii"]
    floats = sorted(exact + ["integer_multiples"])
    far = circulant_to_graph(with_diagonal_shift(nondense_circulant(2, 3), Fraction(10**10)))
    for graph, es, expected in ((graph, es, exact), (nd6, circulant_eigensystem(nd6.spec), exact),
                                (circulant_to_graph(circ3), es3(circ3), exact),
                                (nd6, numerical_eigensystem(nd6.adjacency), floats),
                                (far, numerical_eigensystem(far.adjacency), floats)):
        calls.clear()
        assert verify_upst(graph, es).upst is True
        assert sorted(calls) == expected
    tied = EigenSystem(3, fourier_matrix(3), np.array([0.0, 1.0, 1 + 1e-12]),
                       exact_lambdas=(Fraction(0), Fraction(1), Fraction(1)))
    calls.clear()
    report = verify_upst(HermitianGraph(3, (tied.X * tied.lambdas) @ tied.X.conj().T), tied)
    assert report.reasons == ("degenerate-spectrum",)
    assert calls == ["eigenvalue_steps"]


def counted_integer_multiples(monkeypatch):
    """A list that gets one entry per integer_multiples call, wherever bound."""
    calls = []
    for module in (spectra, ratios):
        def counted(*args, real=module.integer_multiples):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(module, "integer_multiples", counted)
    return calls


def test_verify_builds_the_canonical_form_once(monkeypatch):
    # the row solve and the pair classes read the same canonical form of X
    calls = []
    for module in (spectra, walk):
        def counted(z, real=spectra.canonicalize):
            calls.append(z)
            return real(z)
        monkeypatch.setattr(module, "canonicalize", counted, raising=False)
    es = relabelled_flat(4, 4, 2, seed=1)
    a = (es.X * es.eigenvalues) @ es.X.conj().T
    assert verify_upst(HermitianGraph(es.n, (a + a.conj().T) / 2), es).upst is True
    assert len(calls) == 1


def test_every_corpus_circulant_takes_its_steps_from_exact_data(monkeypatch):
    # rational spectra as one-column rows, irrational ones as rows of
    # Q(zeta_L): no circulant of the parity corpus reads ratios off floats
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these on import; undone after
    import parity_corpus

    calls = counted_integer_multiples(monkeypatch)
    specs = [graph.spec for _, graph, _, _ in parity_corpus.corpus() if graph.spec is not None]
    specs += [spec for _, spec in parity_corpus.exact_corpus()]
    assert len(specs) == 67
    for spec in specs:
        verify_upst(circulant_to_graph(spec), circulant_eigensystem(spec))
    assert calls == []


def test_circ3_steps_are_exact_from_its_rows(monkeypatch, circ3):
    # lambda = 0, sqrt(3), -sqrt(3): at L = 12, sqrt(3) = 2 zeta - zeta^3
    es = circulant_eigensystem(circ3)
    assert es.exact_lambdas is None
    assert es.exact_rows == (12, ((0, 0, 0, 0), (0, 2, 0, -1), (0, -2, 0, 1)), 1)
    calls = counted_integer_multiples(monkeypatch)
    beta, d = spectra.eigenvalue_steps(es.exact_rows)
    assert d == (1, -1)
    assert abs(beta - math.sqrt(3)) <= math.ulp(math.sqrt(3))
    report = verify_upst(circulant_to_graph(circ3), es)
    assert report.upst is True, report.reasons
    assert calls == []


def spec_with_spectrum(lambdas, lcond):
    """The order-n circulant with a_j = (1/n) sum_k lambda_k zeta_n^(-jk), the
    lambda_k elements of Q(zeta_L) for n | L."""
    n = len(lambdas)
    return ref.circulant_spec(n, tuple(
        Fraction(1, n) * sum((lam * zeta(lcond, -(lcond // n) * j * k)
                              for k, lam in enumerate(lambdas)), rational(lcond, 0))
        for j in range(n)))


def test_incommensurable_rows_give_no_steps_without_floats(monkeypatch):
    # lambda = (0, 1, sqrt(2), 3), sqrt(2) = zeta_8 - zeta_8^3: the rows
    # (4, 0, 0, 0) and (0, 4, 0, -4) over 4 of lambda_1 and lambda_2 are not
    # collinear
    one = rational(8, 1)
    spec = spec_with_spectrum([rational(8, 0), one, zeta(8) - zeta(8, 3), 3 * one], 8)
    es = circulant_eigensystem(spec)
    assert np.allclose(es.eigenvalues, [0, 1, math.sqrt(2), 3], rtol=0, atol=1e-15)
    assert es.exact_rows == (8, ((0, 0, 0, 0), (4, 0, 0, 0), (0, 4, 0, -4), (12, 0, 0, 0)), 4)
    calls = counted_integer_multiples(monkeypatch)
    assert spectra.eigenvalue_steps(es.exact_rows) is None
    report = verify_upst(circulant_to_graph(spec), es)
    assert report.reasons == ("no-consistent-times",)
    assert calls == []


def test_rational_steps_of_an_irrational_spectrum_are_fractions():
    # lambda_k = sqrt(2) + k/3: rows off the rational axis, steps on it
    spec = spec_with_spectrum([zeta(8) - zeta(8, 3) + Fraction(k, 3) for k in range(4)], 8)
    es = circulant_eigensystem(spec)
    assert es.exact_lambdas is None and es.exact_rows is not None
    assert spectra.eigenvalue_steps(es.exact_rows) == (Fraction(1, 3), (1, 2, 3))
    assert verify_upst(circulant_to_graph(spec), es).upst is True


@settings(max_examples=80, deadline=None)
@given(lcond=st.sampled_from([5, 8, 9, 12]), data=st.data())
def test_rows_on_a_line_give_its_steps_and_off_it_none(lcond, data):
    # w_k = w_0 + D_k b for a real irrational b of Q(zeta_L): (beta, D) is
    # (g b / den, D / g), g = gcd(D), signed so beta > 0; moving one row off
    # the line gives None
    coords = st.lists(st.integers(-9, 9), min_size=euler_phi(lcond), max_size=euler_phi(lcond))
    x = cyc(lcond, data.draw(coords))
    real = x + x.conjugate()
    assume(not real.is_rational())
    b, w0 = real.num, data.draw(coords)
    d = data.draw(st.lists(st.integers(-20, 20).filter(bool), min_size=2, max_size=6,
                           unique=True))
    den = data.draw(st.integers(1, 7))
    rows = tuple(tuple(x + dk * y for x, y in zip(w0, b)) for dk in [0] + d)
    beta, steps = spectra.eigenvalue_steps(spectra.CoordinateRows(lcond, rows, den))
    g = math.gcd(*d)
    value = real.embed().real * g / den
    assert steps == tuple((x if value > 0 else -x) // g for x in d)
    assert beta == pytest.approx(abs(value), rel=1e-12)
    # e_m is off the line through b: m = 0 when b_0 = 0, else m > 0 with b_m != 0
    m = next(i for i, y in enumerate(b) if i and y) if b[0] else 0
    moved = rows[:-1] + (tuple(x + (i == m) for i, x in enumerate(rows[-1])),)
    assert spectra.eigenvalue_steps(spectra.CoordinateRows(lcond, moved, den)) is None


def test_certification_rejects_repeated_eigenvalues():
    report = verify_upst(
        HermitianGraph(3, 1.5 * np.eye(3)),
        circulant_eigensystem(scalar_spec()),
    )
    assert report.upst is False
    assert report.reasons == ("degenerate-spectrum",)


def test_an_overflowing_spread_returns_a_verdict():
    # the gap gate passes (gap 1e308), then lambda_2 - lambda_0 overflows to
    # inf: integer_multiples finds no ratio, so there are no times (it raised
    # OverflowError on the infinite ratio)
    es = EigenSystem(3, fourier_matrix(3), np.array([-1e308, 0.0, 1e308]))
    report = verify_upst(HermitianGraph(3, (es.X * es.lambdas) @ es.X.conj().T), es)
    assert report.upst is False
    assert report.reasons == ("no-consistent-times",)
    assert report.diagnostics == {"row_residual_max": None}


def test_float_gap_gate_runs_before_the_ratios_it_guards():
    # 1/1e-310 overflows: integer_multiples would raise on the gap ratios
    es = EigenSystem(3, fourier_matrix(3), np.array([0.0, 1e-310, 1.0]))
    report = verify_upst(HermitianGraph(3, (es.X * es.lambdas) @ es.X.conj().T), es)
    assert report.upst is False
    assert report.reasons == ("degenerate-spectrum",)


# ---------------------------------------------------------------- spacing

def test_spacing_signature_of_circulants(circ3, nd6):
    for spec in (circ3, nd6):
        report = verify_upst(circulant_to_graph(spec), circulant_eigensystem(spec))
        assert report.circulant_timing is True


def test_spacing_breaks_for_flat_construction():
    g, es = noncirculant_graph(NoncirculantParams(2, 2, 3))
    report = verify_upst(g, es)
    assert report.circulant_timing is False
    # proof values: consecutive gaps 2 pi/(beta n) vs 2 pi((beta-1)a+1)/(beta n)
    a, beta, n = 2, 3, 4
    times = report.analytic_times
    assert abs(times[1] - TWO_PI / (beta * n)) < 1e-8
    gap_at_a = times[a] - times[a - 1]
    assert abs(gap_at_a - TWO_PI * ((beta - 1) * a + 1) / (beta * n)) < 1e-8


def test_transfer_table_of_order3(circ3):
    # Circ(0, -i, i) shifts 0 -> 1 -> 2 -> 0 every T01
    table = transfer_table(analytic(es3(circ3))[0])
    expected = T01 * np.array([[3, 1, 2], [2, 3, 1], [1, 2, 3]])
    assert np.max(np.abs(table - expected)) < 1e-12


def is_circulant_after(table, order):
    """table relabelled by order depends only on (j - i) mod n, to
    TIME_AGREEMENT_TOL."""
    n = len(order)
    t = table[np.ix_(order, order)]
    shift = (np.arange(n)[np.newaxis, :] - np.arange(n)[:, np.newaxis]) % n
    return bool(np.max(np.abs(t - t[0, shift])) <= TIME_AGREEMENT_TOL)


@settings(max_examples=30, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.just("flat"), st.sampled_from(((2, 2, 1), (3, 2, 1), (4, 2, 1)) + LADDER[:9])),
        st.tuples(st.sampled_from(["exact", "eigh"]), st.integers(2, 8)),
        st.tuples(st.just("nondense"), st.sampled_from([(2, 3), (2, 5), (3, 5)])),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_spacing_order_witnesses_circulant_timing(case, seed):
    # relabelled and rephased inputs: the scan agrees with transfer_table on
    # all n^2 pairs, circulant_timing is that of the input as given, and
    # spacing_order turns the table into a circulant exactly when it is True
    kind, size = case
    if kind == "flat":
        graph, base = noncirculant_graph(NoncirculantParams(*size))
    else:
        if kind == "nondense":
            spec = nondense_circulant(*size)
        else:
            c = np.random.default_rng(seed).integers(-20, 21, size=size)
            spec = circulant_from_c(size, [int(v) for v in c])
        graph = circulant_to_graph(spec)
        if kind == "eigh":
            base = numerical_eigensystem(graph.adjacency)
        else:
            base = circulant_eigensystem(spec)
    es = relabelled(base, seed)
    a = (es.X * es.lambdas) @ es.X.conj().T
    report = verify_upst(HermitianGraph(es.n, (a + a.conj().T) / 2), es)
    assert report.upst is True, report.reasons
    assert report.diagnostics["agreement_max"] <= TIME_AGREEMENT_TOL
    assert report.diagnostics["row_residual_max"] <= TIME_AGREEMENT_TOL
    assert report.circulant_timing is verify_upst(graph, base).circulant_timing
    assert report.circulant_timing is (kind != "flat" or size[2] == 1)
    assert report.spacing_order[0] == 0
    table = transfer_table(report.analytic_times)
    assert is_circulant_after(table, report.spacing_order) is report.circulant_timing


# ---------------------------------------------------------------- monomial

def test_identity_is_monomial():
    result = monomial_check(np.eye(4))
    assert result is not None
    perm, phases = result
    assert list(perm) == [0, 1, 2, 3]
    assert np.max(np.abs(phases - 1)) < 1e-12


def test_walk_at_first_transfer_time_is_a_cyclic_shift(circ3):
    u = unitary_at(es3(circ3), T01)
    result = monomial_check(u)
    assert result is not None
    perm, phases = result
    assert list(perm) == [1, 2, 0]  # sends 0 -> 1 -> 2 -> 0
    assert np.max(np.abs(np.abs(phases) - 1)) < 1e-9


def test_walk_at_half_transfer_time_is_spread(circ3):
    assert monomial_check(unitary_at(es3(circ3), T01 / 2)) is None


def test_monomial_requires_bijection():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = 1.0
    m[0, 1] = 1.0  # two unit entries in one row
    assert monomial_check(m) is None


def test_unit_entry_concentrates_row_and_column(circ3):
    u = unitary_at(es3(circ3), T01)
    assert abs(u[1, 0]) >= 1 - PST_ENTRY_TOL
    assert np.max(np.abs(np.delete(u[1, :], 0))) < 1e-9
    assert np.max(np.abs(np.delete(u[:, 0], 1))) < 1e-9


# --------------------------------------------------------------- denseness

def test_denseness_verdicts(circ3, nd6):
    assert denseness_check(circ3) == (True, ())
    assert denseness_check(nd6) == (False, (1, 5))
    spec5 = circulant_from_c(5, [2, -1, 0, 3, 1])
    assert denseness_check(spec5) == (True, ())


def test_denseness_of_larger_nondense_fixture():
    dense, zeros = denseness_check(nondense_circulant(3, 5))
    assert not dense
    assert 1 in zeros and 14 in zeros
