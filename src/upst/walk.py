"""Continuous-time quantum walk U(t) = exp(-i A t) and UPST certification.

Certification runs two independent routes and requires both: analytic
transfer times solved row by row from the diagonalizer's phase congruences,
and a time-domain scan that locates first-passage peaks of |U(t)[v][u]|
without assuming where they are.  Reports never hide a failed route behind the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph import CirculantSpec, HermitianGraph
from .spectra import (
    BLOCK_ELEMENTS, UNITARITY_TOL, EigenSystem, eigenvalue_steps, fits_exponents,
    integer_multiples, is_type_ii)

PST_ENTRY_TOL = 1e-9
TIME_AGREEMENT_TOL = 1e-8
DETECTION_THRESHOLD = 0.96  # on |U|^2; a candidate's evaluation applies the strict test
DEGENERACY_TOL = 1e-10  # least eigenvalue gap over max|lambda|, see verify_upst
STEP_MARGIN = 2.0**-16  # relative shrink of the derived grid step, see grid_step
MAX_GRID_POINTS = 2**22  # largest grid verify_upst scans

TWO_PI = 2 * math.pi


@dataclass(eq=False)
class TransferReport:
    """Certification output.

    min_times[u][v] is the first time |U(t)[v][u]| reaches 1 (NaN if never
    observed inside the scan window); phases holds the complex amplitude at
    that time.  analytic_times[l] is the phase-matrix solution for transfer
    0 -> l (transfer_table extends it to every pair).  Verdicts are
    tri-state: None means not evaluated on this input.  reasons carries short
    codes explaining any False verdict.  spacing_order is the circulant
    witness (see verify_upst).  diagnostics holds the time scan's grid and
    work counters (see scan_min_times) and verify_upst's entries, or None.
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
    phases = np.exp(-1j * es.eigenvalues * t)
    return (es.X * phases) @ es.X.conj().T


def _bezout_mod(d: Sequence[int], q: int) -> list[int]:
    """Integers c in [0, q) with sum_k c_k d_k = gcd(d) > 0 (mod q), d nonzero:
    fold h = gcd(g, d_k) = x_k g + y_k d_k, then c_k = y_k x_{k+1} ... x_last."""
    g, xs, ys = 0, [], []
    for dk in d:
        h = math.gcd(g, dk)
        xs.append(pow(g // h, -1, abs(dk) // h))
        ys.append((h - xs[-1] * g) // dk)
        g = h
    tails = itertools.accumulate(reversed(xs[1:]), lambda a, x: a * x % q, initial=1)
    return [y * t % q for y, t in zip(ys, reversed(list(tails)))]


def analytic_pst_times(
    es: EigenSystem, structure: Optional[tuple]
) -> tuple[Optional[np.ndarray], Optional[float]]:
    """(times, row_residual): the transfer times t_w = s_w P from vertex 0
    (see transfer_table), t_0 = P, and the largest over rows w >= 1 of max_k
    |s_w D_k - rho_wk| in angle (mod 2 pi), rho the phases of es.canonical.
    At q = min|D_k| = |D_k*|, s_w = (start_w + j_w)/q, start_w = sign(D_k*)
    rho_wk* mod 1, and j_w = sum_k c_k r_wk mod q, c = _bezout_mod(D, q), is
    the one j with j D_k = r_wk = q rho_wk - start_w D_k (mod q) on every k;
    s_w is checked on every k to TIME_AGREEMENT_TOL, and r_wk rounds exactly
    on a passing row while q TIME_AGREEMENT_TOL < pi and q max|D| < 2^53.
    structure is es's eigenvalue_steps (beta, D), P = 2 pi/beta; for None, as
    outside that range, both are None; times is None when a row fails."""
    if structure is None:
        return None, None
    beta, multiples = structure
    q = min(sizes := [abs(m) for m in multiples])
    if q * max(sizes) >= 2**53 or q * TIME_AGREEMENT_TOL >= math.pi:
        return None, None
    big_d = np.array(multiples, dtype=float)
    rho = np.arctan2(es.canonical[1:, 1:].imag, es.canonical[1:, 1:].real) / TWO_PI
    k = sizes.index(q)
    s = start = (1.0 if multiples[k] > 0 else -1.0) * rho[:, k] % 1
    if q > 1:  # at q = 1, j_w = 0
        r = (np.rint(q * rho - start[:, np.newaxis] * big_d) % q).astype(np.int64)
        s = (start + (r * _bezout_mod(multiples, q) % q).sum(axis=1) % q) / q
    miss = s[:, np.newaxis] * big_d - rho
    miss = TWO_PI * abs(miss - np.rint(miss)).max(axis=1)
    times = TWO_PI / float(beta) * np.concatenate(([1.0], s))
    return (times if (miss <= TIME_AGREEMENT_TOL).all() else None), float(miss.max())


def transfer_table(analytic_times: np.ndarray) -> np.ndarray:
    """All n^2 first transfer times from vertex 0's: T[u][v] = (t_v - t_u)
    mod P off the diagonal, P = analytic_times[0] on it.  With X scaled by
    unit row and column phases to X[w][k] = e^{2 pi i rho_wk}/sqrt(n) and
    lambda_k - lambda_0 = 2 pi D_k/P, integers D_k of gcd 1, |U(sP)[v][u]| =
    1 iff rho_v - rho_u = s D mod 1, which fixes s mod 1; row 0 is zero, so
    rho_w = (t_w/P) D mod 1."""
    period = analytic_times[0]
    table = (analytic_times - analytic_times[:, np.newaxis]) % period
    table.flat[::table.shape[0] + 1] = period
    return table


def _waves(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(-i * outer(a, b)): the angles written as the imaginary part of a
    zero complex array, and np.exp taken in place, with no other temporary."""
    out = np.zeros((a.size, b.size), dtype=complex)
    np.multiply(a[:, np.newaxis], -b, out=out.imag)
    return np.exp(out, out=out)


def _scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2^-e, e), max|v| 2^-e in [1/2, 1) (e = 0 for v = 0): the scaling is
    exact, and a sum of squares of v 2^-e neither underflows nor overflows."""
    e = math.frexp(float(abs(v).max()))[1]
    return np.ldexp(v, -e), e


def _aligned_start(
    terms: np.ndarray, d: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Each row's t moved to where its terms p_k e^{-i d_k t} align, clipped to
    [lo, hi] (see scan_min_times); d - mean d is scaled as in grid_step."""
    z = terms * terms.sum(axis=1, keepdims=True).conj()
    dc, e = _scaled(d - np.add.reduce(d) / d.size)
    shift = np.ldexp(np.arctan2(z.imag, z.real) @ dc / (dc @ dc), -e)
    return np.minimum(np.maximum(t + shift, lo), hi)


def _block_peaks(
    pvecs: np.ndarray, waves: np.ndarray
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """Hits and candidates of one grid block: row r, column j of pvecs @ waves^T
    is curve r at the time of waves[j], the first and last columns being the
    halo, one grid point past each edge.  A hit is an inner point with |U|^2
    >= DETECTION_THRESHOLD, a candidate a hit >= both neighbours.  Returns the
    hit count, the count of runs of hits opening in the block (left neighbour
    no hit), and each candidate's row and inner column in (row, time) order.
    |U|^2 is squared into amp's own storage: no other array of the block's size."""
    amp = pvecs @ waves.T
    mag2 = np.square(amp.real, out=amp.real)
    mag2 += np.square(amp.imag, out=amp.imag)
    hit = (mag2[:, 1:-1] >= DETECTION_THRESHOLD).ravel()
    row, w = np.divmod(hit.nonzero()[0], waves.shape[0] - 2)
    here, left, right = mag2[row, w + 1], mag2[row, w], mag2[row, w + 2]
    peak = (here >= left) & (here >= right)
    return row.size, int((left < DETECTION_THRESHOLD).sum()), row[peak], w[peak]


def _grid_waves(
    base: np.ndarray, lam: np.ndarray, step: float, start: int, stop: int
) -> np.ndarray:
    """Waves of the grid indices start .. stop - 1, index j at time (j + 1) step
    (-1 at t = 0): head[j // C] * base[j % C], C = len(base), with head c the
    wave at time c C step and base the first C grid waves.  A wave so depends
    only on its index and C, never on the block asking."""
    chunk = base.shape[0]
    head = start // chunk
    heads = _waves(np.arange(head, (stop - 1) // chunk + 1) * chunk * step, lam)
    waves = (heads[:, np.newaxis, :] * base).reshape(-1, lam.size)
    return waves[start - head * chunk:stop - head * chunk]


def _scan_pairs(
    x: np.ndarray, pairs: np.ndarray, d: np.ndarray, nsteps: int, step: float, diagnostics: dict
) -> tuple[np.ndarray, np.ndarray]:
    """One-pass grid scan of |U(t)[v][u]| for the given flat pairs u*n + v at
    grid index j < nsteps, time (j + 1) step: each pair's earliest confirmed
    peak time (NaN for none) and amplitude sum_k X[v,k] conj(X[u,k]) e^{-i
    d_k t} there (0 for none), d = lambda - lambda_0.  Adds to diagnostics.

    Each block's waves (_grid_waves) reach one grid point past each edge, so
    _block_peaks decides the candidates of the pairs still unresolved inside
    the block.  Each is evaluated once, at its aligned start (_aligned_start),
    in batches of BLOCK_ELEMENTS // n rows; a pair takes the first candidate of
    its (row, time) order with |U| >= 1 - PST_ENTRY_TOL there and leaves.  The
    wave chunk C = ceil(sqrt(nsteps + 2)) minimises the C + (nsteps + 2)/C
    exponentials per eigenvalue, capped so the C x n base fits that bound."""
    n = d.size
    u, v = np.divmod(pairs, n)
    pvecs = x[v] * x.conj()[u]
    times, amps = np.full(pairs.size, np.nan), np.zeros(pairs.size, dtype=complex)
    live = np.arange(pairs.size)  # rows of pvecs still unresolved
    rows = max(1, BLOCK_ELEMENTS // n)
    base = _waves((np.arange(min(math.isqrt(nsteps + 1) + 1, rows)) + 1) * step, d)
    start = 0
    while start < nsteps and live.size:
        stop = min(nsteps, start + max(1, BLOCK_ELEMENTS // max(live.size, n)))
        waves = _grid_waves(base, d, step, start - 1, stop + 1)
        hits, clusters, row, w = _block_peaks(pvecs[live], waves)
        cand_row, peak = live[row], start + w
        diagnostics["pair_time_products"] += live.size * (stop - start)
        diagnostics["f64_hits"] += hits
        diagnostics["clusters"] += clusters
        diagnostics["newton_rows"] += cand_row.size
        t_star, amp = np.empty(cand_row.size), np.empty(cand_row.size, dtype=complex)
        for first in range(0, cand_row.size, rows):
            part = slice(first, first + rows)
            g, pv = peak[part], pvecs[cand_row[part]]
            t = t_star[part] = _aligned_start(
                pv * waves[w[part] + 1], d, (g + 1) * step, g * step, (g + 2) * step)
            amp[part] = (pv[:, np.newaxis] @ _waves(t, d)[:, :, np.newaxis])[:, 0, 0]
        ok = abs(amp) >= 1 - PST_ENTRY_TOL
        done, t_star, amp = cand_row[ok], t_star[ok], amp[ok]
        earliest = np.ones(done.size, dtype=bool)
        earliest[1:] = done[1:] != done[:-1]
        times[done[earliest]], amps[done[earliest]] = t_star[earliest], amp[earliest]
        live = live[np.isnan(times[live])]
        start = stop
    return times, amps


def grid_step(es: EigenSystem) -> float:
    """The largest scan step h that provably puts a grid hit next to every t*
    with |U(t*)[v][u]| = 1 - delta >= 1 - PST_ENTRY_TOL.

    Up to a unit factor U(t* + s)[v][u] = sum_k a_k e^{-i mu_k s}, mu = lambda
    - mean(lambda), sum_k a_k = 1 - delta, sum_k |a_k| <= 1.  Its real part is
    >= 1 - delta - V s^2/2 - |s| sqrt(2 V delta) = 1 - (|s| sqrt(V/2) +
    sqrt(delta))^2 for V >= sum_k |a_k| mu_k^2, by Cauchy-Schwarz with (Im
    a_k)^2 <= 2 |a_k| (|a_k| - Re a_k); X passed is_type_ii, so every |a_k| <=
    (1/sqrt(n) + UNITARITY_TOL)^2 and V is that times sum_k mu_k^2.  So |U| >=
    sqrt(DETECTION_THRESHOLD) within h/2 of t* for h <= sqrt(8/V) (sqrt(1 -
    sqrt(DETECTION_THRESHOLD)) - sqrt(PST_ENTRY_TOL)), here shrunk by
    STEP_MARGIN: the nearest grid point clears the threshold by about 1.2e-6
    in |U|^2, above float64 rounding (about 2^-52 max|lambda| t) for
    max|lambda| t up to 10^9.  Also h <= 2 pi/(3 R), R = lambda_max -
    lambda_min (see scan_min_times).  Summed on _scaled(mu), h is finite at any
    scale, and bit for bit the plain sum's wherever that neither under- nor overflows."""
    lam = es.lambdas
    mu, e = _scaled(lam - np.add.reduce(lam) / lam.size)
    v = (1 / math.sqrt(es.n) + UNITARITY_TOL) ** 2 * float(np.square(mu).sum())
    root = math.sqrt(1 - math.sqrt(DETECTION_THRESHOLD)) - math.sqrt(PST_ENTRY_TOL)
    return min(math.ldexp(math.sqrt(8 / v) * root * (1 - STEP_MARGIN), -e),
               TWO_PI / (3 * float(lam.max() - lam.min())))


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, run), the flat pair opening each class and each flat pair's class:
    the integer keys sorted once (stable, so a class opens at its least pair)."""
    order = keys.argsort(kind="stable")
    opens = np.concatenate(([True], np.diff(keys[order]) != 0))
    run = np.empty(keys.size, dtype=np.intp)
    run[order] = opens.cumsum() - 1
    return order[opens], run


def _generator_keys(
    canonical: np.ndarray, d: np.ndarray, row_times: np.ndarray
) -> Optional[np.ndarray]:
    """(a_v - a_u) mod N at flat pair u*n + v, a_w/N = t_w/P read off row_times by
    integer_multiples (P = t_0, so its multiple is N) and D = rint(d P/2 pi), if
    sqrt(n) canonical fits (a, D) mod N (fits_exponents); else None."""
    if not (row_times > 0).all() or (lifted := integer_multiples(row_times.tolist())) is None:
        return None
    big_n, steps = lifted[1][0], np.rint(d * (row_times[0] / TWO_PI))
    if big_n > 2**31 or not abs(steps).max() < 2**53:
        return None
    a = np.array([m % big_n for m in lifted[1]])
    if not fits_exponents(math.sqrt(a.size) * canonical, big_n, a, steps.astype(np.int64) % big_n):
        return None
    return ((a - a[:, np.newaxis]) % big_n).astype(np.min_scalar_type(big_n)).reshape(-1)


def scan_min_times(
    es: EigenSystem, horizon: float, step: float, row_times: np.ndarray
) -> TransferReport:
    """Grid scan of |U(t)[v][u]| for every ordered pair at t = step, 2 step,
    ... up to horizon, in one pass in time order.  The caller sizes the grid
    (verify_upst from the return period and grid_step), so return_period
    stays unset.  row_times are verify_upst's analytic times (P = row_times[0],
    t_w for 0 -> w); besides the table amplitudes they only propose which
    pairs share a curve, and X decides, so a wrong vector costs a scan of
    every pair, never a wrong time.

    Classes.  With d = lambda - lambda_0, pair m = (u, v) has U_m(t) = e^{-i
    lambda_0 t} sum_k p_m,k e^{-i d_k t}, p_m,k = X[v,k] conj(X[u,k]).  A
    flat X with UPST has rows rho_w = s_w D mod 1 (transfer_table), s_w =
    t_w/P = a_w/N rational; _generator_keys lifts a and N from row_times
    with integer_multiples and D_k = rint(d_k P/2 pi), and keeps them only if
    sqrt(n) es.canonical fits zeta_N^(a (x) D) within UNITARITY_TOL = delta
    on every entry (fits_exponents, one n^2 check).  X = S^-1 es.canonical
    C^-1, S and C unit diagonals, so p_m,k = f_m (zeta_N^((a_v - a_u) D_k)
    + F_m,k)/n with |F_m,k| <= 2 delta + delta^2 and row factor f_m =
    conj(S_v) S_u = unit(X[v,0] conj(X[u,0])).  So two pairs m, r of one key
    (a_v - a_u) mod N have |U_m(t)/f_m - U_r(t)/f_r| <= 4 delta + 2 delta^2 at
    every t: one curve within the check's bound.  The grid scans each
    class's first pair r (_group), and a member takes r's time, with r's
    phase turned by f_m/f_r, so switched and eigh inputs keep each pair's own
    amplitude.  If the lift or its check fails (integer_multiples finds no
    N, N > 2^31, a row time is not positive and finite), every pair is its
    own class: sound, and n^2 curves to scan.  One GEMM gives every table
    amplitude: with Y = X o e^{-i d t_w}, (Y Y^dagger)[v, u] = sum_k p_m,k
    e^{-i d_k (t_v - t_u)}, and the diagonal's at P is |X|^2 e^{-i d P}.

    The grid is walked in blocks of BLOCK_ELEMENTS // max(live curves, n)
    time points, each read with one grid point beyond either edge, so a
    block's curves x time amplitudes and n x time waves (plus at most two
    points and two chunks) stay within BLOCK_ELEMENTS elements.  Each block's
    |U|^2 is one float64 GEMM, its hits the points with |U|^2 >=
    DETECTION_THRESHOLD.  Each wave is a product of two unit complex numbers
    a few ulps off, whatever the chunk, and sum_k |X[v,k] X[u,k]| <= 1, so the
    GEMM errs by about n 2^-52, far below the 1.2e-6 by which grid_step puts
    the nearest grid point above the threshold: the chunk moves only last bits.

    Every hit >= both grid neighbours is a candidate; with step <=
    grid_step(es) no peak is missed.  At a peak t* every term of U is aligned
    and sum_k |p_k| = 1, so |U(t* + s)|^2 = sum_{k,l} |p_k| |p_l|
    cos((lambda_k - lambda_l) s), which does not increase with |s| while |s|
    <= pi/R.  The grid point g* nearest t* is a hit, and its neighbours lie
    within 3 step/2 <= pi/R of t*: g* is a candidate.  (A float64 tie of g*
    with a neighbour puts both within about step/2 of t*.)  A candidate at g
    is evaluated once, at t^ = g + psi.e/|e|^2, e = d - mean d (summed on
    _scaled), clipped to [g - step, g + step], psi_k the angle of p_k e^{-i
    d_k g} against the sum, and passes on |U(t^)| alone, so a poor t^ can
    only lose a pair.  At a block's edge the neighbour is read too: t = 0,
    where |U[u][u]| = 1 keeps the identity's shoulder from being a candidate,
    and past the last point, which can drop a hit there only beyond P, every
    first passage.

    One evaluation finds the peak.  Let t* be a local maximum of |U|, |U(t*)|
    >= 1 - delta, within step of g, eps_k the angle of term k against the sum
    there, |x| the 2-norm and |x|_1 the 1-norm over k.  Then psi_k = eps_k -
    e_k (g - t*) + c, c common to all k, with no wrap (the unwrapped angles
    span at most R step + 2 max|eps_k| < pi), so t^ - t* = D/|e|^2, D = sum_k
    e_k eps_k.  With |p_k| = 1/n, d|U|^2/dt = 0 at t* reads sum_k e_k sin
    eps_k = 0, so D = sum_k e_k (eps_k - sin eps_k) and A = |D|/|e| <=
    |eps^3|/6.  Turned by e^{i mean(d) (t^ - t*)} onto U(t*)'s direction,
    |U(t^)| >= (1/n) sum_k cos(eps_k - e_k (t^ - t*)), whose first-order term
    vanishes with the same sum: |U(t*)| - |U(t^)| <= (A^2/2 + |eps|_1
    A^3/6)/n.  X passed is_type_ii, so n |p_k| = 1 + eta_k, |eta_k| <= eta = 2
    sqrt(n) UNITARITY_TOL + n UNITARITY_TOL^2; with weights |p_k| the same
    steps give A <= |eps^3|/6 + eta |eps| and the bound times 1 + eta.  As
    sum_k |p_k| <= 1, sum_k (1 - cos eps_k) <= C = n delta/(1 - eta), and
    eps^2 <= 2 (1 - cos eps)(2 - cos eps) gives |eps|^2 <= 2 C (1 + C): at n =
    1024 and delta = PST_ENTRY_TOL, t^ loses under 1.3e-22 of |U|, far below
    the rounding of an evaluation (about n 2^-52).

    diagnostics holds grid_step, horizon, grid_points, the integer counts
    classes (curves scanned), members (pairs that took their class's time),
    member_rescans (always 0, kept for the report format), pair_time_products
    (curve x time points), f64_hits (grid hits), clusters (runs of hits that
    open on the grid: left neighbour no hit), newton_rows (candidates
    evaluated), classes + members being n^2 on a complete scan; class_keys,
    "generators" (lifted) or "pairs" (the fallback); and margin_min, the least
    1 - |U(t_uv)| found (1 for none), and confirm_margin, the largest 1 -
    |U(T_m)| of all n^2 table amplitudes; margins are clamped at 0.  Pairs with no
    confirmed peak keep NaN and are flagged in reasons.  The spectrum is one
    verify_upst has gated: n >= 2 distinct eigenvalues.
    """
    n = es.n
    nsteps = max(0, int(math.ceil(horizon / step)))
    diagnostics = dict(grid_step=float(step), horizon=float(horizon), grid_points=nsteps,
                       classes=0, members=0, member_rescans=0, pair_time_products=0, f64_hits=0,
                       clusters=0, newton_rows=0)
    x, d = es.X, es.lambdas - es.lambdas[0]
    row_times = np.asarray(row_times, dtype=float)
    keys = _generator_keys(es.canonical, d, row_times)
    first, run = _group(keys) if keys is not None else (np.arange(n * n),) * 2
    omega = _waves(row_times, d)
    y = x * omega
    amp = (y.conj() @ y.T).reshape(-1)  # amp[u*n + v] at t_v - t_u
    amp[::n + 1] = np.square(abs(x)) @ omega[0]

    times, phases = _scan_pairs(x, first, d, nsteps, step, diagnostics)
    found = ~np.isnan(times)
    phases[found] *= np.exp(-1j * (float(es.offset) + es.lambdas[0]) * times[found])
    flat_times, flat_phases = times[run], phases[run]
    member = (first[run] != np.arange(n * n)).nonzero()[0]
    unit = np.exp(1j * np.arctan2(x[:, 0].imag, x[:, 0].real))
    turn = (unit * unit.conj()[:, np.newaxis]).reshape(-1)  # unit_v conj(unit_u) at u*n + v
    flat_phases[member] *= turn[member] * turn[first[run[member]]].conj()
    seen = found[run]
    diagnostics.update(
        classes=first.size, members=int(seen.sum() - found.sum()),
        class_keys="pairs" if keys is None else "generators",
        margin_min=max(0.0, float(np.minimum.reduce(1 - abs(flat_phases[seen]), initial=1.0))),
        confirm_margin=max(0.0, float(1 - abs(amp).min())))
    return TransferReport(n, flat_times.reshape(n, n), flat_phases.reshape(n, n),
                          reasons=() if seen.all() else ("scan-missing-pairs",),
                          diagnostics=diagnostics)


def monomial_check(u_matrix: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Decompose U as permutation x diagonal phases if it is one.

    Returns (perm, phases) with U[perm[u]][u] = phases[u] of unit magnitude,
    or None unless every row and column has exactly one entry of magnitude
    >= 1 - PST_ENTRY_TOL with all others <= PST_ENTRY_TOL.
    """
    m = np.asarray(u_matrix, dtype=complex)
    big = np.abs(m) >= 1 - PST_ENTRY_TOL
    if not (np.all(big | (np.abs(m) <= PST_ENTRY_TOL))
            and np.all(big.sum(axis=0) == 1) and np.all(big.sum(axis=1) == 1)):
        return None
    perm = np.argmax(big, axis=0)
    return perm, m[perm, np.arange(m.shape[0])]


def denseness_check(spec: CirculantSpec) -> tuple[bool, tuple[int, ...]]:
    """Exact test that all off-diagonal circulant coefficients are nonzero."""
    zeros = tuple((np.flatnonzero(~spec.w[1:].any(axis=1)) + 1).tolist())
    return len(zeros) == 0, zeros


def verify_upst(graph: HermitianGraph, es: EigenSystem) -> TransferReport:
    """Certify universal perfect state transfer.

    Pipeline: distinct eigenvalues (one eigenvalue_steps gives (beta, D); floats
    alone must also pass the gap gate) -> flat diagonalizer -> analytic
    transfer times -> full scan, which also confirms the table.
    upst is True only when the analytic solution exists, the walk operator
    confirms all n^2 times of transfer_table (confirm_margin <= PST_ENTRY_TOL:
    one GEMM off the diagonal, U(P)[w][w] on it; see scan_min_times), the
    scan, given the analytic times as row_times, finds a first-passage time for
    every ordered pair, the scanned times agree with transfer_table on all n^2
    pairs to TIME_AGREEMENT_TOL P, and so do t_uv + t_vu and the
    return period P for every u != v (time reversal); float times err in
    proportion to P, so the bound scales with it.  Failures come back as False
    verdicts with reason codes, not exceptions.  When upst, circulant_timing
    is True iff the t_0w lie within the same bound of distinct multiples of
    P/n: spacing_order, the vertices by t_0w mod P, then relabels the table
    into a circulant.

    The scan runs to P + 2h in steps of P / ceil(P/h), P the return period
    and h = grid_step(es): with a flat X each pair transfers once per period.
    A grid past MAX_GRID_POINTS is not scanned: scan-grid-too-large.  The
    diagnostics add agreement_max, max |transfer_table - scanned| over all
    n^2 pairs, and every report past the flatness test row_residual_max,
    the worst row's residual at its solved time (see analytic_pst_times).
    """
    n = es.n
    dense = denseness_check(graph.spec)[0] if graph.spec is not None else None

    def failed(reason: str, diagnostics: Optional[dict] = None) -> TransferReport:
        return TransferReport(n, np.full((n, n), np.nan), np.zeros((n, n), dtype=complex),
                              upst=False, reasons=(reason,), dense=dense,
                              diagnostics=diagnostics)

    exact = es.exact_rows or es.exact_lambdas
    if exact is None and len(es.lambdas) > 1:
        ordered = np.sort(es.lambdas)
        if (ordered[1:] - ordered[:-1]).min() <= DEGENERACY_TOL * abs(ordered).max():
            return failed("degenerate-spectrum")
    try:
        structure = eigenvalue_steps(exact or es.lambdas)
    except ValueError:
        return failed("degenerate-spectrum")
    if not is_type_ii(es.X):
        return failed("diagonalizer-not-flat")
    times, residual = analytic_pst_times(es, structure)
    solve = {"row_residual_max": residual}
    if times is None:
        return failed("no-consistent-times", solve)
    # t_{0,0} is the return period: with a flat X, |U(t)[0][0]| = 1 exactly
    # when every (lambda_k - lambda_0) t is a multiple of 2 pi.  The scan's
    # table amplitudes confirm it like every other entry.
    period = float(times[0])
    tol = TIME_AGREEMENT_TOL * period
    h = grid_step(es)
    step = period / math.ceil(period / h)
    if math.ceil((period + 2 * h) / step) > MAX_GRID_POINTS:
        return failed("scan-grid-too-large", solve)

    scanned = scan_min_times(es, horizon=period + 2 * h, step=step, row_times=times)
    confirmed = scanned.diagnostics["confirm_margin"] <= PST_ENTRY_TOL
    reasons = ([] if confirmed else ["analytic-time-not-confirmed"]) + list(scanned.reasons)
    min_times = scanned.min_times
    complete = not scanned.reasons
    agreement = float(abs(min_times - transfer_table(times)).max())
    scanned.diagnostics["agreement_max"] = None if math.isnan(agreement) else agreement
    scanned.diagnostics.update(solve)
    agree = complete and agreement <= tol
    if complete and not agree:
        reasons.append("analytic-scan-disagreement")
    upst = bool(confirmed and complete and agree)
    # time reversal: U(P - t) = e^{-i lambda_0 P} U(t)^dagger, so with a flat X
    # t_vu = P - t_uv for u != v, a check on all n^2 scanned times
    reversal = abs(min_times + min_times.T - period)
    reversal.flat[::n + 1] = 0
    if upst and reversal.max() > tol:
        upst = False
        reasons.append("time-reversal-violation")

    circulant_timing = spacing_order = None
    if upst:
        residues = times % period
        order = residues.argsort(kind="stable")
        spacing_order = tuple(order.tolist())
        spread = abs(residues[order] - np.arange(n) * period / n).max()
        circulant_timing = bool(spread <= tol)

    return TransferReport(
        n=n, min_times=min_times, phases=scanned.phases, analytic_times=times, upst=upst,
        circulant_timing=circulant_timing, dense=dense, reasons=tuple(reasons),
        return_period=period, spacing_order=spacing_order, diagnostics=scanned.diagnostics,
    )
