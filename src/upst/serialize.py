"""JSON persistence for graphs, eigensystems, and certification reports: the
one module that reads and writes the bundle format.

Complex numbers are [re, im] pairs, matrices row-major nested lists of them,
and exact rationals [numerator, denominator] pairs of JSON integers.  Graph
files carry a format tag plus optional exact circulant data, the eigensystem
used to build the graph, and the generator descriptor.  `load_graph` is the
one loader: it runs the cross-checks and picks the eigensystem to certify.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from typing import Optional

import numpy as np

from .cyclotomic import check_degree
from .graph import CirculantSpec, HermitianGraph, circulant_to_graph, validate_hermitian
from .spectra import EigenSystem, eigensystem_for, exponent_matrix
from .walk import TransferReport

GRAPH_FORMAT = "upst-graph"
MATRIX_MATCH_TOL = 1e-12  # relative to max|A| of the exact embedding, no floor
EIGEN_RESIDUAL_TOL = 1e-8  # relative to max(max|A|, max|lambda|), no floor


def _json_int(value, name: str) -> int:
    """value, if it is a JSON integer: int() would read 4.4, "4" or true as a
    number the file does not hold."""
    if type(value) is not int:
        raise ValueError("%s must be a JSON integer, got %r" % (name, value))
    return value


def _rational_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators, object arrays of ints, of a list of
    [numerator, denominator] pairs of JSON integers, each denominator nonzero."""
    if type(pairs) is not list or set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
        raise ValueError("rational %.80r is not [numerator, nonzero denominator]" % (pairs,))
    if set(map(type, flat := list(chain.from_iterable(pairs)))) - {int}:  # see _json_int
        raise ValueError("rational entries must be JSON integers in %.80r" % (pairs,))
    if not all(flat[1::2]):
        raise ValueError("rational with denominator 0 in %.80r" % (pairs,))
    return np.array(flat[::2], dtype=object), np.array(flat[1::2], dtype=object)


def _json_numbers(values, name: str):
    """values, if each is a JSON number (int or float): float() would read
    "3.5" as 3.5 and true as 1.0."""
    bad = set(map(type, values)) - {int, float}
    if bad:
        raise ValueError("malformed %s: expected JSON numbers, found %s"
                         % (name, ", ".join(sorted(t.__name__ for t in bad))))
    return values


def matrix_to_json(matrix: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(matrix, dtype=complex)
    return np.stack((m.real, m.imag), -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """errors: ValueError unless data is a non-empty list of equal-length,
    non-empty list rows of [re, im] pairs of JSON numbers (int or float)."""
    if type(data) is not list or not data or not set(map(type, data)) <= {list}:
        raise ValueError("matrix must be a non-empty list of rows")
    if len(set(map(len, data))) != 1 or not data[0]:
        raise ValueError("matrix rows have inconsistent lengths or are empty")
    entries = list(chain.from_iterable(data))
    if not set(map(type, entries)) <= {list} or set(map(len, entries)) != {2}:
        raise ValueError("complex entries must be [re, im] pairs")
    _json_numbers(chain.from_iterable(entries), "matrix entry")
    return np.array(data, dtype=float).view(complex)[..., 0]


def spec_to_json(spec: CirculantSpec) -> dict:
    # a_j as {"n": conductor, "coeffs": w[j, m] / den as reduced pairs [w // g, den // g]}
    den = spec.den
    return {"n": spec.n, "a": [
        {"n": spec.conductor, "coeffs": [[c // (g := math.gcd(c, den)), den // g] for c in row]}
        for row in spec.w.tolist()]}


def spec_from_json(data: dict) -> CirculantSpec:
    """The pairs as integers over their lcm denominator, one matrix.  errors: ValueError
    on a malformed number, a coefficient of length != phi(conductor) (refused before
    euler_phi for a huge conductor), mixed conductors or a spec CirculantSpec refuses;
    KeyError or TypeError on a missing or mistyped field (see graph_from_json)."""
    n = _json_int(data["n"], "circulant order")
    conductors, rows = set(), [x["coeffs"] for x in data["a"]]
    for x, row in zip(data["a"], rows):
        conductors.add(_json_int(x["n"], "conductor"))
        check_degree(x["n"], len(row))
    if len(conductors) > 1:
        raise ValueError("coefficients mix conductors %s" % sorted(conductors))
    num, q = _rational_pairs(list(chain.from_iterable(rows)))
    den = math.lcm(*set(map(abs, q.tolist())))
    w = (num * (den // q)).reshape(len(rows), -1)
    return CirculantSpec.from_rows(n, conductors.pop() if conductors else 1, w, den)


def eigensystem_to_json(es: EigenSystem) -> dict:
    # X as its exponents (N, r, c) where they describe it, else as a matrix
    head = {"X": matrix_to_json(es.X)} if es.exponent_keys is None else {"exponents": dict(
        N=int(es.exponents[0]), r=es.exponents[1].tolist(), c=es.exponents[2].tolist())}
    return {
        **head,
        "lambdas": es.eigenvalues.tolist(),
        "exact_lambdas": None if es.exact_lambdas is None
        else [[v.numerator, v.denominator] for v in es.exact_lambdas],
    }


def eigensystem_from_json(data: dict) -> EigenSystem:
    """X is "X", or exponent_matrix of "exponents" {"N": N, "r": r, "c": c}, r and c
    mod N.  errors: ValueError unless, for n = len(lambdas), X is n x n, r, c (checked
    first) and exact_lambdas (if present) have length n, every entry is finite, every
    X and lambdas entry a JSON number, every exact_lambdas entry a rational pair and
    N, r and c JSON integers, 0 < N <= 2^31 (r_w c_k fits an int64); KeyError or
    TypeError on a missing or mistyped field.  The lambdas are centred by their mean,
    the offset; with exact_lambdas, both come from those: floats of 1e16 + k lose k."""
    n = len(lambdas := np.array(_json_numbers(data["lambdas"], "lambdas"), dtype=float))
    if "exponents" not in data:
        exponents, x = None, matrix_from_json(data["X"])
    else:
        big_n = _json_int(data["exponents"]["N"], "exponent modulus N")
        if not 0 < big_n <= 2**31:
            raise ValueError("exponent modulus N = %d is not in 1 .. 2^31" % big_n)
        exponents = big_n, *(np.array([_json_int(v, "exponent") % big_n for v in
                                       data["exponents"][k]], dtype=np.int64) for k in "rc")
        if not len(exponents[1]) == len(exponents[2]) == n:  # before an r x c allocation
            raise ValueError("exponents r and c are not %d long each" % n)
        x = exponent_matrix(*exponents)
    exact = data.get("exact_lambdas")
    exact_lambdas = None if exact is None else tuple(map(Fraction, *_rational_pairs(exact)))
    if x.shape != (n, n):
        raise ValueError("eigensystem X has shape %s for %d lambdas" % (x.shape, n))
    if exact_lambdas is not None and len(exact_lambdas) != n:
        raise ValueError("eigensystem has %d exact_lambdas for n = %d" % (len(exact_lambdas), n))
    if not (np.all(np.isfinite(x.view(float))) and np.all(np.isfinite(lambdas))):
        raise ValueError("eigensystem contains non-finite entries")
    offset = float(np.mean(lambdas)) if exact is None else sum(exact_lambdas) / n
    centred = lambdas - offset if exact is None else [float(v - offset) for v in exact_lambdas]
    return EigenSystem(n, x, np.asarray(centred), exact_lambdas, offset, exponents=exponents)


def graph_to_json(
    graph: HermitianGraph,
    eigensystem: Optional[EigenSystem] = None,
    descriptor: Optional[dict] = None,
) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "n": graph.n,
        "matrix": matrix_to_json(graph.adjacency),
        "circulant": None if graph.spec is None else spec_to_json(graph.spec),
        "eigensystem": None if eigensystem is None else eigensystem_to_json(eigensystem),
        "descriptor": descriptor,
    }


def graph_from_json(data: dict) -> tuple[HermitianGraph, Optional[EigenSystem]]:
    """Rebuild (graph, eigensystem) from a graph dict; the descriptor is not read.

    errors: ValueError on a missing/foreign format tag or malformed fields.
    """
    if not isinstance(data, dict):
        raise ValueError("graph file must contain a JSON object")
    if data.get("format") != GRAPH_FORMAT:
        raise ValueError(
            "unrecognized graph format %r (expected %r)" % (data.get("format"), GRAPH_FORMAT)
        )
    try:
        n = _json_int(data["n"], "n")
        matrix = matrix_from_json(data["matrix"])
        if matrix.shape != (n, n):
            raise ValueError("matrix shape %s does not match n = %d" % (matrix.shape, n))
        spec_data = data.get("circulant")
        spec = None if spec_data is None else spec_from_json(spec_data)
        if spec is not None and spec.n != n:
            raise ValueError("circulant order %d does not match n = %d" % (spec.n, n))
        es_data = data.get("eigensystem")
        if es_data is not None and len(es_data["lambdas"]) != n:  # so X is n x n
            raise ValueError("eigensystem order does not match n = %d" % n)
        es = None if es_data is None else eigensystem_from_json(es_data)
    except KeyError as exc:
        raise ValueError("graph file is missing field %s" % (exc,)) from exc
    except (TypeError, IndexError, ValueError) as exc:
        raise ValueError("malformed graph file: %s" % (exc,)) from exc
    return HermitianGraph(n=n, adjacency=matrix, spec=spec), es


def _float_or_none(x: float) -> Optional[float]:
    return None if (x is None or not math.isfinite(x)) else float(x)


def report_to_json(report: TransferReport) -> dict:
    """TransferReport as a JSON-safe dict; NaN transfer times become null."""
    return {
        "n": report.n,
        "upst": report.upst,
        "circulant_timing": report.circulant_timing,
        "dense": report.dense,
        "reasons": list(report.reasons),
        "return_period": _float_or_none(report.return_period),
        "spacing_order": None if report.spacing_order is None else list(report.spacing_order),
        "analytic_times": None
        if report.analytic_times is None
        else [float(t) for t in report.analytic_times],
        "min_times": np.where(np.isfinite(report.min_times), report.min_times, None).tolist(),
        "phases": matrix_to_json(report.phases),
        "diagnostics": report.diagnostics,
    }


def load_graph(path: str) -> tuple[HermitianGraph, EigenSystem]:
    """Read a graph file and choose the eigensystem to certify it with.

    Accepts a graph bundle or a bare matrix (nested [re, im] rows).  A bundle
    with circulant data must match the exact embedding to MATRIX_MATCH_TOL max|A|
    and is diagonalized exactly.  A stored eigensystem must diagonalize the
    matrix to EIGEN_RESIDUAL_TOL with its stored float lambdas and with its
    eigenvalues (exact where given); without circulant data it is the one
    certified.  Anything else gets a dense numerical solve.

    errors: OSError if the file cannot be read, ValueError on malformed
    content or a failed cross-check.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("%r is not valid JSON: %s" % (path, exc)) from exc
    if isinstance(data, list):
        graph = validate_hermitian(matrix_from_json(data))
        return graph, eigensystem_for(graph)
    graph, stored_es = graph_from_json(data)
    validate_hermitian(graph.adjacency)
    if graph.spec is not None:
        rebuilt = circulant_to_graph(graph.spec)
        deviation = float(np.max(np.abs(rebuilt.adjacency - graph.adjacency)))
        if deviation > MATRIX_MATCH_TOL * float(np.max(np.abs(rebuilt.adjacency))):
            raise ValueError(
                "matrix does not match its circulant data (max deviation %.3e)" % deviation
            )
    if stored_es is not None:
        x, ax = stored_es.X, graph.adjacency @ stored_es.X
        for lam in (np.array(data["eigensystem"]["lambdas"], dtype=float), stored_es.eigenvalues):
            residual = float(np.max(np.abs(ax - x * lam)))
            scale = max(float(np.max(np.abs(graph.adjacency))), float(np.max(np.abs(lam))))
            if not residual <= EIGEN_RESIDUAL_TOL * scale:
                raise ValueError(
                    "stored eigensystem does not diagonalize the matrix (residual %.3e)" % residual
                )
        if graph.spec is None:
            return graph, stored_es
    return graph, eigensystem_for(graph)
