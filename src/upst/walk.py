"""Continuous-time quantum walk U(t) = exp(-i A t) and UPST certification.

Certification runs two independent routes and requires both: analytic
transfer times solved from the canonical diagonalizer's phase matrix, and a
time-domain scan that locates first-passage peaks of |U(t)[v][u]| without
assuming where they are.  Reports never hide a failed route behind the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import CirculantSpec, HermitianGraph
from .ratios import integer_multiples
from .spectra import EigenSystem, canonicalize, is_type_ii

PST_ENTRY_TOL = 1e-9
TIME_AGREEMENT_TOL = 1e-8
DEFAULT_SCAN_STEPS = 10_000
DETECTION_THRESHOLD = 0.96  # on |U|^2; refinement applies the strict test
DEGENERACY_TOL = 1e-12
TIE_TOL = 1e-10
GRID_BLOCK = 2**18  # pair x time elements per grid block
GRID_SLACK = 2.0**-12  # bound on the float32 grid's |U|^2 error, see scan_min_times
REFINE_BLOCK = 2**16  # pair x eigenvalue elements per refinement batch

TWO_PI = 2 * math.pi


@dataclass(eq=False)
class TransferReport:
    """Certification output.

    min_times[u][v] is the first time |U(t)[v][u]| reaches 1 (NaN if never
    observed inside the scan window); phases holds the complex amplitude at
    that time.  analytic_times[l] is the phase-matrix solution for transfer
    0 -> l.  Verdicts are tri-state: None means not evaluated on this input.
    reasons carries short codes explaining any False verdict.  diagnostics
    holds the time scan's grid and work counters (see scan_min_times), or
    None when no scan ran.
    """

    n: int
    min_times: np.ndarray
    phases: np.ndarray
    analytic_times: Optional[np.ndarray] = None
    upst: Optional[bool] = None
    circulant_timing: Optional[bool] = None
    dense: Optional[bool] = None
    reasons: tuple[str, ...] = ()
    return_period: Optional[float] = None
    spacing_order: Optional[tuple[int, ...]] = None
    diagnostics: Optional[dict] = None


def unitary_at(es: EigenSystem, t: float) -> np.ndarray:
    """The walk operator X diag(exp(-i lambda_k t)) X^dagger."""
    phases = np.exp(-1j * es.lambdas * t)
    return (es.X * phases) @ es.X.conj().T


def _canonical_angles(es: EigenSystem) -> np.ndarray:
    """Phase matrix alpha with X[l][k] = exp(i alpha[l][k])/sqrt(n), alpha in
    [0, 2 pi), zero along the first row and column (canonical form required)."""
    n = es.n
    root = 1 / math.sqrt(n)
    border = max(np.max(np.abs(es.X[0, :] - root)), np.max(np.abs(es.X[:, 0] - root)))
    if border > 1e-9:
        raise ValueError("eigensystem is not in canonical form (first row/column off by %.2e)" % border)
    alpha = np.angle(es.X * math.sqrt(n)) % TWO_PI
    alpha[alpha > TWO_PI - 1e-9] = 0.0
    return alpha


def _angle_distance(x: np.ndarray) -> np.ndarray:
    return np.abs((x + math.pi) % TWO_PI - math.pi)


def analytic_return_period(es: EigenSystem) -> Optional[float]:
    """Smallest T > 0 with (lambda_k - lambda_0) T all multiples of 2 pi.

    None when the eigenvalue differences have irrational ratios; no finite
    period exists then, which already rules out UPST (return times of a
    perfect-transfer walk form a discrete subgroup of the reals).
    """
    d = es.lambdas - es.lambdas[0]
    if es.n < 2:
        return None
    structure = integer_multiples(list(d[1:]))
    if structure is None:
        return None
    beta, _ = structure
    return TWO_PI / beta


def analytic_pst_times(es: EigenSystem) -> Optional[np.ndarray]:
    """Solve the phase-matching conditions for the transfer times from vertex 0.

    For each target l, the smallest t > 0 with (lambda_k - lambda_0) t
    congruent to alpha[l][k] mod 2 pi for every k, to TIME_AGREEMENT_TOL.
    Candidates come from the k = 1 congruence and are checked against the
    rest within one return period; returns None as soon as some l admits no
    solution.  Requires the canonical form (first row/column of X equal to
    1/sqrt(n)).
    """
    n = es.n
    if n < 2:
        raise ValueError("transfer needs at least two vertices")
    lam = es.lambdas
    d = lam - lam[0]
    scale = max(1.0, float(np.max(np.abs(lam))))
    if abs(d[1]) <= DEGENERACY_TOL * scale:
        raise ValueError("degenerate spectrum: lambda_1 equals lambda_0")
    alpha = _canonical_angles(es)
    period = analytic_return_period(es)
    if period is None:
        return None
    times = np.empty(n)
    for l in range(n):
        t = _solve_phase_congruences(d, alpha[l], period)
        if t is None:
            return None
        times[l] = t
    return times


def _solve_phase_congruences(
    d: np.ndarray, alpha_row: np.ndarray, period: float
) -> Optional[float]:
    d1 = d[1]
    a1 = alpha_row[1]
    bounds = sorted(((0.0 * d1 - a1) / TWO_PI, (period * d1 - a1) / TWO_PI))
    lo = math.floor(bounds[0]) - 1
    hi = math.ceil(bounds[1]) + 1
    eps = 1e-12 * period
    candidates = sorted(
        t
        for t in ((a1 + TWO_PI * j) / d1 for j in range(lo, hi + 1))
        if eps < t <= period + eps
    )
    for t in candidates:
        if np.max(_angle_distance(d * t - alpha_row)) <= TIME_AGREEMENT_TOL:
            return float(t)
    return None


def _row_dots(rows: np.ndarray, waves: np.ndarray) -> np.ndarray:
    """np.dot of each row of rows with the same row of waves, summed in the
    order np.dot uses for one pair of vectors."""
    return (rows[:, np.newaxis, :] @ waves[:, :, np.newaxis])[:, 0, 0]


def _waves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i * outer(a, b)) as cos + i sin of the negated angles, written
    into the two halves of one complex array.  The complex np.exp of the
    purely imaginary argument computes the same cos and sin, plus work on
    the zero real part and two more temporaries."""
    angle = np.multiply.outer(a, b)
    np.negative(angle, out=angle)
    out = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    return out


def _refine_peaks(
    pvecs: np.ndarray, lam: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak of |amp|^2 in [lo[r], hi[r]] for every row, starting from t[r]:
    safeguarded Newton on d|amp|^2/dt, every row in lockstep.  The squared
    magnitude is flat at a peak, so only the analytic derivative resolves the
    argmax to full precision.

    Each step evaluates amp, amp' and amp'' at t in one wave build and shrinks
    the bracket to the uphill side of t.  It takes the Newton step when the
    curvature is negative and the step lands inside the bracket, and bisects
    otherwise.  A row stops once its step is at most 1e-15 max(1, |t|), or
    after 64 steps.  The scan's bracket is two grid steps h around a grid time
    t >= h, so even pure bisection reaches that stop in about 51 halvings.

    Returns the last evaluated time of each row, the amplitude there, and the
    mask of rows that bisected at least once.
    """
    dp = -1j * lam * pvecs
    ddp = -(lam**2) * pvecs
    t, lo, hi = t.copy(), lo.copy(), hi.copy()
    t_out = np.empty(t.size)
    amp = np.empty(t.size, dtype=complex)
    bisected = np.zeros(t.size, dtype=bool)
    live = np.arange(t.size)
    for _ in range(64):
        if not live.size:
            break
        t_live = t[live]
        waves = _waves(t_live, lam)
        a = _row_dots(pvecs[live], waves)
        a1 = _row_dots(dp[live], waves)
        a2 = _row_dots(ddp[live], waves)
        t_out[live], amp[live] = t_live, a
        slope = (a.conjugate() * a1).real
        curvature = (a1.conjugate() * a1 + a.conjugate() * a2).real
        uphill = slope > 0
        lo[live[uphill]] = t_live[uphill]
        hi[live[~uphill]] = t_live[~uphill]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_next = t_live - slope / curvature
        newton = (curvature < 0) & (lo[live] <= t_next) & (t_next <= hi[live])
        t_next[~newton] = (lo[live[~newton]] + hi[live[~newton]]) / 2
        bisected[live[~newton]] = True
        going = np.abs(t_next - t_live) > 1e-15 * np.maximum(1.0, np.abs(t_live))
        live = live[going]
        t[live] = t_next[going]
    return t_out, amp, bisected


def _candidate_clusters(
    pair: np.ndarray, index: np.ndarray, mag2: np.ndarray, n: int, open_at: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Group grid hits into runs of consecutive grid indices per pair.

    Returns, per closed cluster in (pair, time) order: the flat pair u*n + v,
    the grid index of its largest stored |U|^2 (the earliest on a tie) and its
    rank among the pair's closed clusters; then the hits (pair, index, mag2)
    of the clusters whose last hit is at grid index open_at (-1 for none),
    which may go on past it and are left out of the rest.  The t -> 0 cluster of each u == v
    pair is the shoulder of the identity, not a return, and is dropped.
    """
    order = np.lexsort((index, pair))
    pair, index, mag2 = pair[order], index[order], mag2[order]
    opens = np.ones(pair.size, dtype=bool)
    opens[1:] = (pair[1:] != pair[:-1]) | (index[1:] != index[:-1] + 1)
    closes = np.ones(pair.size, dtype=bool)
    closes[:-1] = opens[1:]
    starts = np.flatnonzero(opens)
    cluster = np.cumsum(opens) - 1
    still_open = index[closes] == open_at
    carry = still_open[cluster]
    at_peak = np.flatnonzero(mag2 == np.maximum.reduceat(mag2, starts)[cluster])
    best = index[at_peak[np.unique(cluster[at_peak], return_index=True)[1]]]
    cl_pair = pair[starts]
    keep = ((cl_pair // n != cl_pair % n) | (index[starts] != 0)) & ~still_open
    cl_pair, best = cl_pair[keep], best[keep]
    rank = np.arange(cl_pair.size) - np.searchsorted(cl_pair, cl_pair)
    return cl_pair, best, rank, (pair[carry], index[carry], mag2[carry])


def _f32_mag2(pv32: np.ndarray, waves: np.ndarray) -> np.ndarray:
    """|U|^2 of one grid block in single precision: pv32 @ waves^T with the
    float64 waves rounded to complex64.  Row r, column j is the pair pv32[r]
    at the time of waves[j]."""
    amp = pv32 @ waves.astype(np.complex64).T
    mag2 = np.square(amp.real)
    mag2 += np.square(amp.imag)
    return mag2


def _block_hits(
    pvecs: np.ndarray, pv32: np.ndarray, live: np.ndarray, waves: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Hits of one grid block.  pv32 holds the complex64 rows of the flat
    pairs live, waves the block's float64 waves (one row per time point).
    Every point the float32 grid puts within GRID_SLACK of the threshold is
    recomputed in float64 from waves, by row dots in batches of REFINE_BLOCK
    elements.  Returns the flat pair, the time index in the block and the
    float64 |U|^2 of the points with |U|^2 >= DETECTION_THRESHOLD, and the
    number of float32 prefilter survivors."""
    row, w = np.divmod(
        np.flatnonzero(_f32_mag2(pv32, waves) >= DETECTION_THRESHOLD - GRID_SLACK),
        waves.shape[0],
    )
    pair = live[row]
    amp = np.empty(pair.size, dtype=complex)
    rows = max(1, REFINE_BLOCK // pvecs.shape[1])
    for first in range(0, pair.size, rows):
        part = slice(first, first + rows)
        amp[part] = _row_dots(pvecs[pair[part]], waves[w[part]])
    mag2 = np.square(amp.real)
    mag2 += np.square(amp.imag)
    hit = mag2 >= DETECTION_THRESHOLD
    return pair[hit], w[hit], mag2[hit], pair.size


def scan_min_times(es: EigenSystem, horizon: float, step: float) -> TransferReport:
    """Grid scan of |U(t)[v][u]| for every ordered pair at t = step, 2 step,
    ... up to horizon, in one pass in time order.  The caller sizes the grid
    (verify_upst derives both from the return period), so the report leaves
    return_period unset.

    The grid is walked in blocks of GRID_BLOCK // max(live pairs, n) time
    points, so neither the pairs x time amplitudes nor the n x time waves of
    a block outgrow GRID_BLOCK elements.  Each block is evaluated in
    complex64 as a prefilter: every point with |U|^2 >= DETECTION_THRESHOLD -
    GRID_SLACK is recomputed in float64 from the block's float64 waves, and
    the points with |U|^2 >= DETECTION_THRESHOLD there are the hits, with
    the float64 magnitudes a float64 grid would give.

    GRID_SLACK bounds the float32 error.  The waves are formed in float64 and
    rounded, so every factor carries a relative error of at most u = 2^-24,
    and sum_k |X[v,k] X[u,k]| <= 1 by Cauchy-Schwarz.  A complex64 dot
    product then errs by at most about (n + 4) u if it sums complex terms,
    and by at most about 2 sqrt(2) (n + 1) u if it accumulates the 2n real
    products of each component.  |U|^2 <= 1 moves by at most twice the dot's
    error, plus about 3 u from squaring.  GRID_SLACK = 2^-12 covers the
    larger bound for every n <= 700 (pvecs alone is 5.5 GB there).

    Hits form clusters of consecutive grid points per pair.  After each
    block, the clusters that ended inside it are refined in lockstep rounds:
    round r takes the r-th cluster of every pair still unresolved, refines
    it from the cluster's best grid point inside one step either side
    (_refine_peaks), then applies the |U| >= 1 - PST_ENTRY_TOL test to the
    amplitude at the refined time.  A pair that passes takes that time and
    amplitude, which is its earliest confirmed peak, and leaves the scan.  A
    cluster that reaches the block's last grid point carries its hits into
    the next block.

    diagnostics holds the grid step, horizon and number of grid points, and
    integer counts of the pair x time products evaluated, the float32
    prefilter hits, the float64-confirmed hits, the candidate clusters, the
    rows refined, and the rows whose refinement bisected at least once.

    Pairs with no confirmed peak keep NaN and are flagged in reasons; a
    degenerate spectrum refuses the extraction outright (every t is a return
    time).
    """
    n = es.n
    lam = es.lambdas
    scale = max(1.0, float(np.max(np.abs(lam)))) if n else 1.0
    min_times = np.full((n, n), np.nan)
    phases = np.zeros((n, n), dtype=complex)
    if n < 2 or float(np.max(lam) - np.min(lam)) <= DEGENERACY_TOL * scale:
        return TransferReport(
            n=n, min_times=min_times, phases=phases, reasons=("degenerate-spectrum",)
        )
    nsteps = max(0, int(math.ceil(horizon / step)))
    diagnostics = {
        "grid_step": float(step),
        "horizon": float(horizon),
        "grid_points": nsteps,
        "pair_time_products": 0,
        "f32_hits": 0,
        "f64_hits": 0,
        "clusters": 0,
        "newton_rows": 0,
        "bisect_rows": 0,
    }
    # Row u*n + v of pvecs holds X[v,k] conj(X[u,k]) over k, so that
    # U(t)[v,u] = sum_k pvecs[u*n + v, k] e^{-i lam_k t}.
    pvecs = (es.X[np.newaxis, :, :] * es.X.conj()[:, np.newaxis, :]).reshape(n * n, n)
    live = np.arange(n * n)  # flat pairs still unresolved, rows of pv32
    pv32 = pvecs.astype(np.complex64)
    flat_times = min_times.reshape(-1)
    flat_phases = phases.reshape(-1)
    resolved = np.zeros(n * n, dtype=bool)
    carried = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    rows = max(1, REFINE_BLOCK // n)
    start = 0
    while start < nsteps and live.size:
        stop = min(nsteps, start + max(1, GRID_BLOCK // max(live.size, n)))
        waves = _waves((np.arange(start, stop) + 1) * step, lam)
        pair, w, mag2, survivors = _block_hits(pvecs, pv32, live, waves)
        diagnostics["pair_time_products"] += live.size * (stop - start)
        diagnostics["f32_hits"] += survivors
        diagnostics["f64_hits"] += pair.size
        cl_pair, best, rank, carried = _candidate_clusters(
            np.concatenate((carried[0], pair)),
            np.concatenate((carried[1], start + w)),
            np.concatenate((carried[2], mag2)),
            n,
            stop - 1 if stop < nsteps else -1,
        )
        diagnostics["clusters"] += cl_pair.size
        for r in range(int(rank.max(initial=-1)) + 1):
            todo = np.flatnonzero((rank == r) & ~resolved[cl_pair])
            for first in range(0, todo.size, rows):
                batch = todo[first:first + rows]
                peak_pair, peak = cl_pair[batch], best[batch]
                pv = pvecs[peak_pair]
                t_star, amp, bisected = _refine_peaks(
                    pv, lam, (peak + 1) * step, peak * step, (peak + 2) * step
                )
                ok = np.abs(amp) >= 1 - PST_ENTRY_TOL
                flat_times[peak_pair[ok]] = t_star[ok]
                flat_phases[peak_pair[ok]] = amp[ok]
                resolved[peak_pair[ok]] = True
                diagnostics["newton_rows"] += batch.size
                diagnostics["bisect_rows"] += int(np.count_nonzero(bisected))
        still = ~resolved[live]
        if not still.all():
            live, pv32 = live[still], pv32[still]
            going = ~resolved[carried[0]]
            carried = tuple(a[going] for a in carried)
        start = stop
    return TransferReport(
        n=n,
        min_times=min_times,
        phases=phases,
        reasons=() if resolved.all() else ("scan-missing-pairs",),
        diagnostics=diagnostics,
    )


def _spacing_structure(min_times: np.ndarray) -> tuple[bool, tuple[int, ...], bool]:
    """Timing signature of circulants on a complete min_times matrix: order
    the vertices by transfer time from vertex 0; then every consecutive pair,
    wrap-around included, transfers in t_{0, order[1]} to TIME_AGREEMENT_TOL.
    Returns that verdict, the order, and whether the order is free of ties
    (gaps above TIE_TOL); verify_upst's circulant_timing needs both."""
    n = min_times.shape[0]
    t0 = min_times[0]
    order = [0] + sorted(range(1, n), key=lambda v: t0[v])
    sorted_times = [t0[v] for v in order[1:]]
    tie_ok = all(
        sorted_times[i + 1] - sorted_times[i] > TIE_TOL for i in range(len(sorted_times) - 1)
    )
    ref = min_times[order[0], order[1]]
    deviation = max(
        abs(min_times[order[i], order[(i + 1) % n]] - ref) for i in range(n)
    )
    return deviation <= TIME_AGREEMENT_TOL, tuple(order), tie_ok


def monomial_check(u_matrix: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Decompose U as permutation x diagonal phases if it is one.

    Returns (perm, phases) with U[perm[u]][u] = phases[u] of unit magnitude,
    or None unless every row and column has exactly one entry of magnitude
    >= 1 - PST_ENTRY_TOL with all others <= PST_ENTRY_TOL.
    """
    m = np.asarray(u_matrix, dtype=complex)
    n = m.shape[0]
    absm = np.abs(m)
    perm = np.empty(n, dtype=int)
    phases = np.empty(n, dtype=complex)
    for u in range(n):
        v = int(np.argmax(absm[:, u]))
        column_rest = np.delete(absm[:, u], v)
        if absm[v, u] < 1 - PST_ENTRY_TOL or np.max(column_rest, initial=0.0) > PST_ENTRY_TOL:
            return None
        perm[u] = v
        phases[u] = m[v, u]
    if len(set(perm.tolist())) != n:
        return None
    for v in range(n):
        u = int(np.argmax(absm[v, :]))
        row_rest = np.delete(absm[v, :], u)
        if perm[u] != v or np.max(row_rest, initial=0.0) > PST_ENTRY_TOL:
            return None
    return perm, phases


def denseness_check(spec: CirculantSpec) -> tuple[bool, tuple[int, ...]]:
    """Exact test that all off-diagonal circulant coefficients are nonzero."""
    zeros = tuple(j for j in range(1, spec.n) if spec.a[j].is_zero())
    return len(zeros) == 0, zeros


def verify_upst(
    graph: HermitianGraph, es: EigenSystem, scan_steps: Optional[int] = None
) -> TransferReport:
    """Certify universal perfect state transfer.

    Pipeline: eigenvalue distinctness -> flat diagonalizer -> canonical form
    -> analytic transfer times -> numeric spot confirmation -> full scan.
    upst is True only when the analytic solution exists, every analytic time
    is confirmed by the walk operator, the scan finds a first-passage time for
    every ordered pair, and analytic and scanned times for vertex 0 agree to
    TIME_AGREEMENT_TOL.  Failures come back as False verdicts with reason
    codes, not exceptions.
    """
    n = es.n
    lam = es.lambdas

    def failed(reason: str) -> TransferReport:
        return TransferReport(
            n=n,
            min_times=np.full((n, n), np.nan),
            phases=np.zeros((n, n), dtype=complex),
            upst=False,
            reasons=(reason,),
            dense=denseness_check(graph.spec)[0] if graph.spec is not None else None,
        )

    if n < 2:
        return failed("degenerate-spectrum")
    scale = max(1.0, float(np.max(np.abs(lam))))
    gaps = np.abs(lam[:, np.newaxis] - lam[np.newaxis, :]).astype(float)
    np.fill_diagonal(gaps, np.inf)
    if float(gaps.min()) <= 1e-10 * scale:
        return failed("degenerate-spectrum")
    if not is_type_ii(es.X):
        return failed("diagonalizer-not-flat")
    form = canonicalize(es.X)
    es_c = EigenSystem(n=n, X=form.X, lambdas=lam, exact_lambdas=es.exact_lambdas)
    times = analytic_pst_times(es_c)
    if times is None:
        return failed("no-consistent-times")
    # Row 0 of the canonical X is flat, so t_{0,0} is the return period:
    # |U(t)[0][0]| = 1 exactly when every (lambda_k - lambda_0) t is a multiple
    # of 2 pi.  The confirmation below checks that entry like every other.
    period = float(times[0])

    reasons: list[str] = []
    confirmed = all(
        abs(unitary_at(es, times[l])[l, 0]) >= 1 - PST_ENTRY_TOL for l in range(n)
    )
    if not confirmed:
        reasons.append("analytic-time-not-confirmed")

    step = period / (scan_steps or DEFAULT_SCAN_STEPS)
    scanned = scan_min_times(es, horizon=1.25 * period, step=step)
    min_times = scanned.min_times
    reasons.extend(scanned.reasons)
    complete = not scanned.reasons
    agree = complete and float(np.max(np.abs(min_times[0, :] - times))) <= TIME_AGREEMENT_TOL
    if complete and not agree:
        reasons.append("analytic-scan-disagreement")
    upst = bool(confirmed and complete and agree)

    circulant_timing = None
    spacing_order = None
    if upst:
        verdict, spacing_order, tie_ok = _spacing_structure(min_times)
        circulant_timing = bool(verdict and tie_ok)
        if not tie_ok:
            reasons.append("tied-transfer-times")

    dense = denseness_check(graph.spec)[0] if graph.spec is not None else None
    return TransferReport(
        n=n,
        min_times=min_times,
        phases=scanned.phases,
        analytic_times=times,
        upst=upst,
        circulant_timing=circulant_timing,
        dense=dense,
        reasons=tuple(reasons),
        return_period=period,
        spacing_order=spacing_order,
        diagnostics=scanned.diagnostics,
    )
