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
REFINE_XTOL = 1e-10
DEFAULT_SCAN_STEPS = 10_000
DETECTION_THRESHOLD = 0.96  # on |U|^2; refinement applies the strict test
DEGENERACY_TOL = 1e-12
TIE_TOL = 1e-10
GRID_BLOCK = 2**18  # pair x time elements per grid block
REFINE_BLOCK = 2**16  # pair x eigenvalue elements per refinement batch

TWO_PI = 2 * math.pi


@dataclass(eq=False)
class TransferReport:
    """Certification output.

    min_times[u][v] is the first time |U(t)[v][u]| reaches 1 (NaN if never
    observed inside the scan window); phases holds the complex amplitude at
    that time.  analytic_times[l] is the phase-matrix solution for transfer
    0 -> l.  Verdicts are tri-state: None means not evaluated on this input.
    reasons carries short codes explaining any False verdict.
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


def _amplitudes(pvecs: np.ndarray, lam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Row r of the result is sum_k pvecs[r, k] exp(-i lam_k t[r])."""
    return _row_dots(pvecs, _waves(t, lam))


def _golden_max(pvecs: np.ndarray, lam: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section search for the maximum of |amp|^2 on [lo[r], hi[r]],
    every row in lockstep; a row stops once its bracket is REFINE_XTOL wide.
    Returns the bracket midpoints."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = np.abs(_amplitudes(pvecs, lam, c)) ** 2
    fd = np.abs(_amplitudes(pvecs, lam, d)) ** 2
    while True:
        live = np.flatnonzero(b - a > REFINE_XTOL)
        if not live.size:
            return (a + b) / 2
        left = fc[live] >= fd[live]
        lt, rt = live[left], live[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        probe = np.where(left, c[live], d[live])
        f = np.abs(_amplitudes(pvecs[live], lam, probe)) ** 2
        fc[lt], fd[rt] = f[left], f[~left]


def _polish_peak(
    pvecs: np.ndarray, lam: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Newton iterations on d|amp|^2/dt, row by row.  The squared magnitude is
    flat at a peak, so a bracketing search alone resolves the argmax only to
    the square root of the float noise; the analytic derivative restores full
    precision.  A row stops at 12 steps, at non-negative curvature, at a step
    leaving its bracket, or once the step is below 1e-15 relative."""
    dp = -1j * lam * pvecs
    ddp = -(lam**2) * pvecs
    t = t.copy()
    live = np.arange(t.size)
    for _ in range(12):
        if not live.size:
            break
        waves = _waves(t[live], lam)
        a = _row_dots(pvecs[live], waves)
        a1 = _row_dots(dp[live], waves)
        a2 = _row_dots(ddp[live], waves)
        slope = (a.conjugate() * a1).real
        curvature = (a1.conjugate() * a1 + a.conjugate() * a2).real
        peaked = curvature < 0
        live, slope, curvature = live[peaked], slope[peaked], curvature[peaked]
        t_next = t[live] - slope / curvature
        inside = (lo[live] <= t_next) & (t_next <= hi[live])
        live, t_next = live[inside], t_next[inside]
        done = np.abs(t_next - t[live]) <= 1e-15 * np.maximum(1.0, np.abs(t[live]))
        t[live] = t_next
        live = live[~done]
    return t


def _candidate_clusters(
    pair: np.ndarray, index: np.ndarray, mag2: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group grid hits into runs of consecutive grid indices per pair.

    Returns, per cluster in (pair, time) order: the flat pair u*n + v, the
    grid index of its largest stored |U|^2 (the earliest on a tie) and its
    rank among the pair's clusters.  The t -> 0 cluster of each u == v pair
    is the shoulder of the identity, not a return, and is dropped.
    """
    order = np.lexsort((index, pair))
    pair, index, mag2 = pair[order], index[order], mag2[order]
    opens = np.ones(pair.size, dtype=bool)
    opens[1:] = (pair[1:] != pair[:-1]) | (index[1:] != index[:-1] + 1)
    starts = np.flatnonzero(opens)
    cluster = np.cumsum(opens) - 1
    at_peak = np.flatnonzero(mag2 == np.maximum.reduceat(mag2, starts)[cluster])
    best = index[at_peak[np.unique(cluster[at_peak], return_index=True)[1]]]
    cl_pair = pair[starts]
    keep = (cl_pair // n != cl_pair % n) | (index[starts] != 0)
    cl_pair, best = cl_pair[keep], best[keep]
    rank = np.arange(cl_pair.size) - np.searchsorted(cl_pair, cl_pair)
    return cl_pair, best, rank


def scan_min_times(es: EigenSystem, horizon: float, step: float) -> TransferReport:
    """Grid scan of |U(t)[v][u]| for every ordered pair at t = step, 2 step,
    ... up to horizon, then refinement of the candidate peaks in lockstep
    rounds.  The caller sizes the grid (verify_upst derives both from the
    return period), so the report leaves return_period unset.

    Grid points with |U|^2 >= DETECTION_THRESHOLD form clusters of
    consecutive points per pair.  Round r refines the r-th cluster of every
    pair still unresolved, all at once: golden section to REFINE_XTOL on the
    bracket one step either side of the cluster's best grid point, Newton
    polish, then the |U| >= 1 - PST_ENTRY_TOL test; a pair that passes takes
    that time and amplitude, the rest wait for round r + 1.

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
    nsteps = int(math.ceil(horizon / step))
    # Row u*n + v of pvecs holds X[v,k] conj(X[u,k]) over k, so that
    # U(t)[v,u] = sum_k pvecs[u*n + v, k] e^{-i lam_k t}.
    pvecs = (es.X[np.newaxis, :, :] * es.X.conj()[:, np.newaxis, :]).reshape(n * n, n)
    hit_pair = [np.empty(0, dtype=np.intp)]  # an empty grid (horizon <= 0) has no hits
    hit_index = [np.empty(0, dtype=np.intp)]
    hit_mag2 = [np.empty(0)]
    chunk = max(1, GRID_BLOCK // (n * n))
    for start in range(0, nsteps, chunk):
        ts = (np.arange(start, min(start + chunk, nsteps)) + 1) * step
        amp = pvecs @ _waves(lam, ts)
        mag2 = np.square(amp.real)
        mag2 += np.square(amp.imag)
        flat = np.flatnonzero(mag2 >= DETECTION_THRESHOLD)
        pair, w = np.divmod(flat, ts.size)
        hit_pair.append(pair)
        hit_index.append(start + w)
        hit_mag2.append(mag2.reshape(-1)[flat])
    cl_pair, best, rank = _candidate_clusters(
        np.concatenate(hit_pair), np.concatenate(hit_index), np.concatenate(hit_mag2), n
    )
    flat_times = min_times.reshape(-1)
    flat_phases = phases.reshape(-1)
    resolved = np.zeros(n * n, dtype=bool)
    rows = max(1, REFINE_BLOCK // n)
    for r in range(int(rank.max(initial=-1)) + 1):
        todo = np.flatnonzero((rank == r) & ~resolved[cl_pair])
        for first in range(0, todo.size, rows):
            batch = todo[first:first + rows]
            pair = cl_pair[batch]
            pv = pvecs[pair]
            lo = best[batch] * step
            hi = (best[batch] + 2) * step
            t_star = _polish_peak(pv, lam, _golden_max(pv, lam, lo, hi), lo, hi)
            amp = _amplitudes(pv, lam, t_star)
            ok = np.abs(amp) >= 1 - PST_ENTRY_TOL
            flat_times[pair[ok]] = t_star[ok]
            flat_phases[pair[ok]] = amp[ok]
            resolved[pair[ok]] = True
    return TransferReport(
        n=n,
        min_times=min_times,
        phases=phases,
        reasons=() if resolved.all() else ("scan-missing-pairs",),
    )


def _spacing_structure(min_times: np.ndarray) -> tuple[bool, tuple[int, ...], bool]:
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


def spacing_test(report: TransferReport) -> bool:
    """Timing signature of circulants: after ordering vertices by transfer time
    from vertex 0, every consecutive pair (including the wrap-around) transfers
    in the same time t_{0, sigma(1)}, to TIME_AGREEMENT_TOL.

    True means the timing is consistent with a circulant relabeling; ties in
    the ordering (closer than TIE_TOL) void the certification and return
    False.  Requires a complete min_times matrix.
    """
    if not np.all(np.isfinite(report.min_times)):
        raise ValueError("transfer report is incomplete: scan missed some pairs")
    if report.n < 2:
        raise ValueError("spacing needs at least two vertices")
    verdict, _, tie_ok = _spacing_structure(report.min_times)
    return bool(verdict and tie_ok)


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
    complete = bool(np.all(np.isfinite(min_times)))
    if not complete:
        reasons.append("scan-missing-pairs")
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
    )
