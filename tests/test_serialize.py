"""JSON persistence: strict matrix input, bit-exact round trips, report tables."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upst.constructors import nondense_circulant
from upst.graph import circulant_to_graph
from upst.serialize import (
    eigensystem_from_json,
    eigensystem_to_json,
    matrix_from_json,
    matrix_to_json,
    report_to_json,
)
from upst.spectra import circulant_eigensystem
from upst.walk import TransferReport

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
    es = circulant_eigensystem(nondense_circulant(2, 3))
    doc = json.loads(json.dumps(eigensystem_to_json(es)))
    assert np.array_equal(eigensystem_from_json(doc).X, es.X)
    doc["X"][2][3] = entry
    doc = json.loads(json.dumps(doc))
    with pytest.raises(ValueError, match="non-finite"):
        eigensystem_from_json(doc)


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
