"""JSON persistence: strict matrix input, bit-exact round trips, exact
circulant data, report tables."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spec_reference as ref
from field_reference import cyc, rational, zeta
from test_cyclotomic import small_cyc
from upst.constructors import NoncirculantParams, nondense_circulant, noncirculant_graph
from upst.graph import HermitianGraph, circulant_to_graph, with_diagonal_shift
from upst.serialize import (
    GRAPH_FORMAT,
    eigensystem_from_json,
    eigensystem_to_json,
    graph_from_json,
    graph_to_json,
    load_graph,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
    spec_from_json,
    spec_to_json,
)
from upst.spectra import circulant_eigensystem
from upst.walk import TransferReport, verify_upst

SUBNORMALS = (5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310)
EDGE_VALUES = (0.0, -0.0, 1e300, -1e300, 1.7976931348623157e308) + SUBNORMALS


def round_trip(matrix: np.ndarray) -> np.ndarray:
    return matrix_from_json(json.loads(json.dumps(matrix_to_json(matrix))))


def hex_entries(matrix: np.ndarray) -> list[str]:
    return [float.hex(v) for v in np.asarray(matrix, dtype=complex).view(float).ravel().tolist()]


# ------------------------------------------------------------ strict input

ROWS = "non-empty list of rows"
LENGTHS = "inconsistent lengths or are empty"
PAIRS = r"\[re, im\] pairs"


@pytest.mark.parametrize(
    "data, message",
    [
        ([[[True, 0]]], "malformed"),
        ([[[0, False]]], "malformed"),
        ([[["1", 0]]], "malformed"),
        ([[[0, "0.5"]]], "malformed"),
        ([[[None, 0]]], "malformed"),
        ([[[[1, 0], 0]]], "malformed"),
        ([[[1]]], PAIRS),
        ([[[1, 0, 0]]], PAIRS),
        ([[[1, 0, 0, 0]]], PAIRS),
        ([[[1, 0], [0, 1]], [[1, 0]]], LENGTHS),
        ([[[1, 0]], [[1, 0], [0, 1]]], LENGTHS),
        ([[[1, 0]], 7], ROWS),
        ([[[1, 0]], "ab"], ROWS),
        ([[[1, 0]], None], ROWS),
        ([[5]], PAIRS),
        ([["ab"]], PAIRS),
        ([[None]], PAIRS),
        ([], ROWS),
        ([[]], LENGTHS),
        ([[], []], LENGTHS),
        (None, ROWS),
        ({"matrix": [[[1, 0]]]}, ROWS),
        ("[[[1, 0]]]", ROWS),
    ],
    ids=["bool-re", "bool-im", "string-re", "string-im", "null", "nested-pair",
         "one-element-pair", "three-element-pair", "four-element-pair", "ragged-short-row",
         "ragged-long-row", "int-row", "string-row", "null-row", "int-entry", "string-entry",
         "null-entry", "empty", "empty-row", "empty-rows", "null-matrix", "object-matrix",
         "string-matrix"],
)
def test_matrix_from_json_refuses_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_json(data)


def test_non_numbers_are_named_as_malformed():
    with pytest.raises(ValueError, match="malformed.*bool, str"):
        matrix_from_json([[["1", 0], [True, 0]]])


def test_json_ints_read_as_the_correctly_rounded_double():
    big = 2**53 + 1
    m = matrix_from_json([[[1, -2], [big, 2**70 + 1]], [[0, 0], [-3, 0.5]]])
    assert m.dtype == complex and m.shape == (2, 2)
    expected = [[complex(1, -2), complex(float(big), float(2**70 + 1))],
                [0j, complex(-3, 0.5)]]
    assert hex_entries(m) == hex_entries(np.array(expected))
    with pytest.raises(OverflowError):
        matrix_from_json([[[10**400, 0]]])


# --------------------------------------------------------------- round trip

@pytest.mark.parametrize("value", EDGE_VALUES)
def test_round_trip_is_bit_exact_at_the_edges(value):
    m = np.array([[complex(value, -value), complex(-value, value)],
                  [complex(value, 0.0), complex(-0.0, value)]])
    assert hex_entries(round_trip(m)) == hex_entries(m)


components = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(EDGE_VALUES)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_round_trip_is_bit_exact(rows, cols, data):
    values = data.draw(st.lists(components, min_size=2 * rows * cols, max_size=2 * rows * cols))
    m = np.array(values, dtype=float).view(complex).reshape(rows, cols)
    out = round_trip(m)
    assert out.shape == (rows, cols)
    assert hex_entries(out) == hex_entries(m)


@pytest.mark.parametrize("entry", [[math.inf, 0.0], [0.0, -math.inf], [0.0, math.nan]])
def test_eigensystem_with_non_finite_x_is_refused(entry):
    # a circulant's eigensystem carries no exponents: X is stored as a matrix
    es = circulant_eigensystem(nondense_circulant(2, 3))
    doc = json.loads(json.dumps(eigensystem_to_json(es)))
    assert "exponents" not in doc
    assert np.array_equal(eigensystem_from_json(doc).X, es.X)
    doc["X"][2][3] = entry
    doc = json.loads(json.dumps(doc))
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem_from_json(doc)


@pytest.mark.parametrize("move, stored", [
    ("none", "exponents"), ("rephase", "exponents"), ("relabel", "X"), ("switch", "X")])
def test_exponents_are_written_only_where_x_fits_them(tmp_path, move, stored):
    # the writer checks n X o conj(X[0]) against (r - r_0, c): eigenvector
    # phases keep the exponents; a relabelled or switched X leaves them stale,
    # so X is stored as a matrix, and that bundle loads and certifies
    es = noncirculant_graph(NoncirculantParams(4, 2, 3))[1]
    rng = np.random.default_rng(7)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=es.n))
    x = {"none": es.X, "rephase": es.X * phases, "relabel": es.X[[1, 0, *range(2, es.n)]],
         "switch": phases[:, np.newaxis] * es.X}[move]
    es = dataclasses.replace(es, X=x)
    a = (x * es.eigenvalues) @ x.conj().T
    path = tmp_path / "graph.json"
    doc = graph_to_json(HermitianGraph(es.n, (a + a.conj().T) / 2), es)
    assert set(doc["eigensystem"]) - {"lambdas", "exact_lambdas"} == {stored}
    path.write_text(json.dumps(doc))
    graph, loaded = load_graph(str(path))
    if stored == "X":
        assert np.array_equal(loaded.X, x)
    report = verify_upst(graph, loaded)
    assert report.upst is True, report.reasons


def test_exponents_longer_than_the_lambdas_are_refused_before_x_is_built():
    # X would be 10^5 x 10^5; n is the number of lambdas, 3 here
    doc = {"exponents": {"N": 3, "r": [0] * 10**5, "c": [0] * 10**5}, "lambdas": [0.0, 1.0, 2.0]}
    with pytest.raises(ValueError, match="not 3 long"):
        eigensystem_from_json(doc)


ZERO_2 = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
ONE_3 = {"n": 3, "a": [{"n": 1, "coeffs": [[0, 1]]}] * 3}


@pytest.mark.parametrize("read, data, message", [
    (spec_from_json, {"n": 2, "a": [{"n": 3, "coeffs": [[1, 1], [0, 1]]},
                                    {"n": 4, "coeffs": [[0, 1], [0, 1]]}]},
     r"coefficients mix conductors \[3, 4\]"),
    (eigensystem_from_json, {"X": ZERO_2, "lambdas": [0.0, 1.0, 2.0]},
     r"eigensystem X has shape \(2, 2\) for 3 lambdas"),
    (eigensystem_from_json, {"X": ZERO_2, "lambdas": [0.0, 1.0], "exact_lambdas": [[0, 1]]},
     "eigensystem has 1 exact_lambdas for n = 2"),
    (graph_from_json, "upst-graph", "graph file must contain a JSON object"),
    (graph_from_json, {"format": GRAPH_FORMAT, "n": 3, "matrix": ZERO_2},
     r"malformed graph file: matrix shape \(2, 2\) does not match n = 3"),
    (graph_from_json, {"format": GRAPH_FORMAT, "n": 2, "matrix": ZERO_2, "circulant": ONE_3},
     "malformed graph file: circulant order 3 does not match n = 2"),
    (load_graph, '{"format": "upst-graph", "n": ', "is not valid JSON: "),
], ids=["spec-mixed-conductors", "x-shape", "exact-lambdas-count", "graph-not-an-object",
        "matrix-shape", "circulant-order", "file-not-json"])
def test_readers_refuse_inconsistent_input(tmp_path, read, data, message):
    # load_graph reads data as a file's text
    if read is load_graph:
        (path := tmp_path / "graph.json").write_text(data)
        data = str(path)
    with pytest.raises(ValueError, match=message):
        read(data)


# ------------------------------------------------------- exact circulant data

def one_vertex_bundle(coeffs=None, exact_lambdas=None):
    """A one-vertex graph bundle whose circulant holds the number coeffs, a
    cyclotomic number's JSON, or whose eigensystem has exact_lambdas."""
    bundle = {"format": GRAPH_FORMAT, "n": 1, "matrix": [[[0, 0]]]}
    if coeffs is not None:
        bundle["circulant"] = {"n": 1, "a": [coeffs]}
    if exact_lambdas is not None:
        bundle["eigensystem"] = {"X": [[[1, 0]]], "lambdas": [0], "exact_lambdas": exact_lambdas}
    return bundle


def spec_of(x):
    """The order-3 spec (0, x, conjugate(x)): x as a circulant's coefficient a_1."""
    return ref.circulant_spec(3, (rational(x.n, 0), x, x.conjugate()))


def test_cyclotomic_json_round_trip_is_exact():
    x = Fraction(2, 3) - zeta(12, 5) * Fraction(7, 2)
    data = spec_to_json(spec_of(x))
    assert data["a"][1]["n"] == 12
    assert all(isinstance(pair, list) and len(pair) == 2 for pair in data["a"][1]["coeffs"])
    assert spec_from_json(data).a[1] == x


def test_cyclotomic_json_rejects_malformed_input():
    with pytest.raises(ValueError):
        graph_from_json(one_vertex_bundle({"n": 6}))
    for data in ({"n": 6, "coeffs": [[1, 1]]}, {"n": 0, "coeffs": []},
                 {"n": 3, "coeffs": 5}, {"n": 3, "coeffs": [[1, 2], [3]]}):
        with pytest.raises(ValueError, match="malformed"):
            graph_from_json(one_vertex_bundle(data))


@pytest.mark.parametrize("pairs", [
    [[3, -4]], [[2, 4]], [[-3, -4], [2, 4]], [[3, -4], [0, 5], [2, 4], [-7, 6]],
    [[0, -9], [0, 1]], [[2**70, 3], [-(2**65), -(2**66)]],
])
def test_json_coefficients_read_as_integers_equal_the_fraction_route(pairs):
    n = {1: 1, 2: 3, 4: 5}[len(pairs)]
    y = cyc(n, [Fraction(*pair) for pair in pairs])
    data = spec_to_json(spec_of(y))
    data["a"][1]["coeffs"] = pairs
    x = spec_from_json(data).a[1]
    assert (x.num, x.den) == (y.num, y.den)
    assert x == y and hash(x) == hash(y)


@pytest.mark.parametrize(
    "pair",
    [[4.4, 3], [4.0, 3], ["4", 3], [True, 1], [1, False], [1, 0], [1], [1, 2, 3], 5, None],
)
def test_rational_json_accepts_integers_only(pair):
    # in exact eigenvalues and in cyclotomic coefficients alike
    with pytest.raises(ValueError, match="malformed graph file: .*rational"):
        graph_from_json(one_vertex_bundle(exact_lambdas=[pair]))
    with pytest.raises(ValueError, match="malformed graph file: .*rational"):
        graph_from_json(one_vertex_bundle({"n": 1, "coeffs": [pair]}))


@settings(max_examples=40, deadline=None)
@given(small_cyc())
def test_json_round_trip_property(x):
    # the pairs are the reduced Fractions of the coefficients, read back exactly
    data = spec_to_json(spec_of(x))
    coeffs = [Fraction(c, x.den) for c in x.num]
    assert data["a"][1]["coeffs"] == [[c.numerator, c.denominator] for c in coeffs]
    assert spec_from_json(data).a[1] == x


def test_spec_json_round_trip(nd6):
    data = spec_to_json(nd6)
    again = spec_from_json(data)
    assert again.n == nd6.n
    assert all(x == y for x, y in zip(again.a, nd6.a))


def test_shifted_nondense_spec_json_is_pinned():
    # frozen from the Fraction-per-coefficient implementation
    z = [0, 1]
    zero = [z] * 8

    def cyc(*pairs):
        return {"n": 15, "coeffs": [list(p) for p in pairs]}

    expected = {
        "n": 15,
        "a": [
            cyc([7, 3], *zero[1:]),
            cyc(*zero),
            cyc(*zero),
            cyc([3, 5], z, [6, 5], [-3, 5], z, z, [-9, 5], [6, 5]),
            cyc(*zero),
            cyc([5, 3], z, z, z, z, [-5, 3], z, z),
            cyc([9, 5], z, [3, 5], [6, 5], z, z, [3, 5], [3, 5]),
            cyc(*zero),
            cyc(*zero),
            cyc([6, 5], z, [-3, 5], [-6, 5], z, z, [-3, 5], [-3, 5]),
            cyc([10, 3], z, z, z, z, [5, 3], z, z),
            cyc(*zero),
            cyc([12, 5], z, [-6, 5], [3, 5], z, z, [9, 5], [-6, 5]),
            cyc(*zero),
            cyc(*zero),
        ],
    }
    spec = with_diagonal_shift(nondense_circulant(3, 5), Fraction(7, 3))
    assert spec_to_json(spec) == expected


# ------------------------------------------------------------------ reports

def test_report_time_table_writes_non_finite_times_as_null():
    graph = circulant_to_graph(nondense_circulant(2, 3))
    times = np.array([[1.5, np.nan, np.inf], [-np.inf, 0.0, -0.0], [2.0**-1074, 1e300, 3.0]])
    report = TransferReport(3, times, graph.adjacency[:3, :3])
    doc = json.loads(json.dumps(report_to_json(report)))
    assert doc["min_times"] == [[1.5, None, None], [None, 0.0, -0.0], [2.0**-1074, 1e300, 3.0]]
    assert all(type(t) is float for row in doc["min_times"] for t in row if t is not None)
    assert math.copysign(1.0, doc["min_times"][1][2]) == -1.0
    assert hex_entries(matrix_from_json(doc["phases"])) == hex_entries(graph.adjacency[:3, :3])
