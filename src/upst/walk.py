"""Continuous-time quantum walk U(t) = exp(-i A t) and UPST certification.

Certification runs two independent routes and requires both: analytic
transfer times solved from the canonical diagonalizer's phase matrix, and a
time-domain scan that locates first-passage peaks of |U(t)[v][u]| without
assuming where they are.  Reports never hide a failed route behind the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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
    literal_phase_equality: Optional[bool] = None
    spacing_order: Optional[tuple[int, ...]] = None


def unitary_at(es: EigenSystem, t: float) -> np.ndarray:
    """The walk operator X diag(exp(-i lambda_k t)) X^dagger."""
    phases = np.exp(-1j * es.lambdas * t)
    return (es.X * phases) @ es.X.conj().T


def pst_at(u_matrix: np.ndarray, source: int, target: int,
           tol: float = PST_ENTRY_TOL) -> Optional[complex]:
    """The transfer phase U[target][source] if its magnitude is >= 1 - tol."""
    amp = complex(u_matrix[target, source])
    return amp if abs(amp) >= 1 - tol else None


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


def analytic_pst_times(es: EigenSystem, tol: float = TIME_AGREEMENT_TOL) -> Optional[np.ndarray]:
    """Solve the phase-matching conditions for the transfer times from vertex 0.

    For each target l, the smallest t > 0 with (lambda_k - lambda_0) t
    congruent to alpha[l][k] mod 2 pi for every k.  Candidates come from the
    k = 1 congruence and are checked against the rest within one return
    period; returns None as soon as some l admits no solution.  Requires the
    canonical form (first row/column of X equal to 1/sqrt(n)).
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
        t = _solve_phase_congruences(d, alpha[l], period, tol)
        if t is None:
            return None
        times[l] = t
    return times


def _solve_phase_congruences(
    d: np.ndarray, alpha_row: np.ndarray, period: float, tol: float
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
        if np.max(_angle_distance(d * t - alpha_row)) <= tol:
            return float(t)
    return None


def _pair_amplitude(pvec: np.ndarray, lam: np.ndarray) -> Callable[[float], complex]:
    def amp(t: float) -> complex:
        return complex(np.dot(pvec, np.exp(-1j * lam * t)))

    return amp


def _golden_max(f: Callable[[float], float], lo: float, hi: float, xtol: float) -> tuple[float, float]:
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    mid = (a + b) / 2
    return mid, f(mid)


def _polish_peak(
    pvec: np.ndarray, lam: np.ndarray, t: float, lo: float, hi: float
) -> float:
    """Newton iterations on d|amp|^2/dt.  The squared magnitude is flat at a
    peak, so a bracketing search alone resolves the argmax only to the square
    root of the float noise; the analytic derivative restores full precision."""
    dp = -1j * lam * pvec
    ddp = -(lam**2) * pvec
    for _ in range(12):
        waves = np.exp(-1j * lam * t)
        a = np.dot(pvec, waves)
        a1 = np.dot(dp, waves)
        a2 = np.dot(ddp, waves)
        slope = (a.conjugate() * a1).real
        curvature = (a1.conjugate() * a1 + a.conjugate() * a2).real
        if curvature >= 0:
            break
        t_next = t - slope / curvature
        if not lo <= t_next <= hi:
            break
        done = abs(t_next - t) <= 1e-15 * max(1.0, abs(t))
        t = t_next
        if done:
            break
    return t


def _cluster(indices: list[int]) -> list[list[int]]:
    groups: list[list[int]] = []
    for i in indices:
        if groups and i == groups[-1][-1] + 1:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _first_hit(
    pvec: np.ndarray,
    lam: np.ndarray,
    indices: list[int],
    step: float,
    tol: float,
    skip_zero_cluster: bool,
) -> Optional[tuple[float, complex]]:
    """Earliest candidate cluster whose refined peak reaches 1 - tol, as
    (time, amplitude); None when no cluster does."""
    amp = _pair_amplitude(pvec, lam)

    def mag2(t: float) -> float:
        return abs(amp(t)) ** 2

    for group in _cluster(indices):
        if skip_zero_cluster and group[0] == 0:
            continue  # the t -> 0 shoulder of the identity, not a return
        best = max(group, key=lambda i: mag2((i + 1) * step))
        lo = best * step
        hi = (best + 2) * step
        t_star, _ = _golden_max(mag2, lo, hi, REFINE_XTOL)
        t_star = _polish_peak(pvec, lam, t_star, lo, hi)
        if math.sqrt(mag2(t_star)) >= 1 - tol:
            return t_star, amp(t_star)
    return None


def _fallback_period(lam: np.ndarray) -> float:
    d = np.abs(lam[1:] - lam[0])
    return TWO_PI / float(np.min(d[d > 0])) if np.any(d > 0) else TWO_PI


def scan_min_times(
    es: EigenSystem,
    horizon: Optional[float] = None,
    step: Optional[float] = None,
    tol: float = PST_ENTRY_TOL,
) -> TransferReport:
    """Grid scan of |U(t)[v][u]| for every ordered pair with golden-section
    refinement of each candidate peak to REFINE_XTOL.

    Defaults: horizon = 1.25 x the return period (or a spacing-based window
    when eigenvalue ratios admit no period), step = period / 10^4; the period
    is derived, and reported, only when one of them is left unset.  Pairs with
    no confirmed peak keep NaN and are flagged in reasons; a degenerate
    spectrum refuses the extraction outright (every t is a return time).
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
    period = None
    if horizon is None or step is None:
        period = analytic_return_period(es)
        base = period if period is not None else _fallback_period(lam)
        if horizon is None:
            horizon = 1.25 * base
        if step is None:
            step = base / DEFAULT_SCAN_STEPS
    nsteps = int(math.ceil(horizon / step))
    # P[v, u, k] = X[v,k] conj(X[u,k]); U(t)[v,u] = sum_k P[v,u,k] e^{-i lam_k t}
    p_tensor = es.X[:, np.newaxis, :] * es.X.conj()[np.newaxis, :, :]
    candidates: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n)]
    chunk = max(1, 1_000_000 // (n * n))
    for start in range(0, nsteps, chunk):
        idx = np.arange(start, min(start + chunk, nsteps))
        ts = (idx + 1) * step
        waves = np.exp(-1j * np.outer(lam, ts))
        amp = np.tensordot(p_tensor, waves, axes=([2], [0]))
        mag2 = amp.real**2 + amp.imag**2
        for v, u, w in zip(*np.nonzero(mag2 >= DETECTION_THRESHOLD)):
            candidates[u][v].append(start + int(w))
    missing = False
    for u in range(n):
        for v in range(n):
            hit = _first_hit(
                p_tensor[v, u], lam, candidates[u][v], step, tol, skip_zero_cluster=(u == v)
            )
            if hit is None:
                missing = True
            else:
                min_times[u, v], phases[u, v] = hit
    return TransferReport(
        n=n,
        min_times=min_times,
        phases=phases,
        reasons=("scan-missing-pairs",) if missing else (),
        return_period=period,
    )


def _spacing_structure(
    min_times: np.ndarray, time_tol: float, tie_tol: float
) -> tuple[bool, tuple[int, ...], bool]:
    n = min_times.shape[0]
    t0 = min_times[0]
    order = [0] + sorted(range(1, n), key=lambda v: t0[v])
    sorted_times = [t0[v] for v in order[1:]]
    tie_ok = all(
        sorted_times[i + 1] - sorted_times[i] > tie_tol for i in range(len(sorted_times) - 1)
    )
    ref = min_times[order[0], order[1]]
    deviation = max(
        abs(min_times[order[i], order[(i + 1) % n]] - ref) for i in range(n)
    )
    return deviation <= time_tol, tuple(order), tie_ok


def spacing_test(
    report: TransferReport, time_tol: float = TIME_AGREEMENT_TOL, tie_tol: float = TIE_TOL
) -> bool:
    """Timing signature of circulants: after ordering vertices by transfer time
    from vertex 0, every consecutive pair (including the wrap-around) transfers
    in the same time t_{0, sigma(1)}.

    True means the timing is consistent with a circulant relabeling; ties in
    the ordering (closer than tie_tol) void the certification and return
    False.  Requires a complete min_times matrix.
    """
    if not np.all(np.isfinite(report.min_times)):
        raise ValueError("transfer report is incomplete: scan missed some pairs")
    if report.n < 2:
        raise ValueError("spacing needs at least two vertices")
    verdict, _, tie_ok = _spacing_structure(report.min_times, time_tol, tie_tol)
    return bool(verdict and tie_ok)


def monomial_check(
    u_matrix: np.ndarray, tol: float = PST_ENTRY_TOL
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Decompose U as permutation x diagonal phases if it is one.

    Returns (perm, phases) with U[perm[u]][u] = phases[u] of unit magnitude,
    or None unless every row and column has exactly one entry of magnitude
    >= 1 - tol with all others <= tol.
    """
    m = np.asarray(u_matrix, dtype=complex)
    n = m.shape[0]
    absm = np.abs(m)
    perm = np.empty(n, dtype=int)
    phases = np.empty(n, dtype=complex)
    for u in range(n):
        v = int(np.argmax(absm[:, u]))
        column_rest = np.delete(absm[:, u], v)
        if absm[v, u] < 1 - tol or (column_rest.size and np.max(column_rest) > tol):
            return None
        perm[u] = v
        phases[u] = m[v, u]
    if len(set(perm.tolist())) != n:
        return None
    for v in range(n):
        u = int(np.argmax(absm[v, :]))
        row_rest = np.delete(absm[v, :], u)
        if perm[u] != v or (row_rest.size and np.max(row_rest) > tol):
            return None
    return perm, phases


def denseness_check(spec: CirculantSpec) -> tuple[bool, tuple[int, ...]]:
    """Exact test that all off-diagonal circulant coefficients are nonzero."""
    zeros = tuple(j for j in range(1, spec.n) if spec.a[j].is_zero())
    return len(zeros) == 0, zeros


def verify_upst(
    graph: HermitianGraph,
    es: EigenSystem,
    tol: float = PST_ENTRY_TOL,
    scan_steps: Optional[int] = None,
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
    confirmed = True
    for l in range(n):
        if pst_at(unitary_at(es, times[l]), 0, l, tol) is None:
            confirmed = False
            reasons.append("analytic-time-not-confirmed")
            break

    step = period / (scan_steps or DEFAULT_SCAN_STEPS)
    scanned = scan_min_times(es, horizon=1.25 * period, step=step, tol=tol)
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
        verdict, spacing_order, tie_ok = _spacing_structure(
            min_times, TIME_AGREEMENT_TOL, TIE_TOL
        )
        circulant_timing = bool(verdict and tie_ok)
        if not tie_ok:
            reasons.append("tied-transfer-times")

    dense = denseness_check(graph.spec)[0] if graph.spec is not None else None
    alpha = _canonical_angles(es_c)
    d = lam - lam[0]
    # Literal (unreduced) reading of the phase conditions: does some real t
    # make (lambda_k - lambda_0) t equal alpha[l][k] exactly, not just mod
    # 2 pi?  Row 0 is satisfied by t = 0; other rows pin t from k = 1.
    literal = True
    for l in range(1, n):
        t_lit = alpha[l, 1] / d[1]
        if float(np.max(np.abs(d * t_lit - alpha[l]))) > TIME_AGREEMENT_TOL:
            literal = False
            break
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
        literal_phase_equality=literal,
        spacing_order=spacing_order,
    )
