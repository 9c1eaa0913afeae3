"""Command-line front-end: generate | verify | times, exit codes, file formats."""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from upst import cli, cyclotomic
from upst.cli import FLOAT_FMT, build_from_descriptor, main
from upst.constructors import circulant_from_c, nondense_circulant
from upst.graph import CirculantSpec, HermitianGraph, circulant_to_graph
from upst.serialize import graph_to_json, load_graph, matrix_to_json, report_to_json
from upst.spectra import EigenSystem, circulant_eigensystem, eigenvalue_steps
from upst.walk import transfer_table, verify_upst

SQ3 = math.sqrt(3)
SRC = Path(__file__).resolve().parents[1] / "src"
DROP = object()  # marks a bundle field to delete

CIRC3_DESC = '{"family": "circulant_c", "n": 3, "c": [0, 1, 2]}'
FLAT3_DESC = '{"family": "circulant_c", "n": 3, "c": [0, 0, 0]}'
ND6_DESC = '{"family": "nondense", "p": 2, "q": 3}'
NC_DESC = '{"family": "noncirculant", "a": 2, "b": 2, "beta": 3}'
X_CIRC3, X_ND6, X_NC = (("X", desc) for desc in (CIRC3_DESC, ND6_DESC, NC_DESC))
LONG_EXPONENTS = {"N": 12, "r": [0] * 10**5, "c": [0] * 10**5}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def generate(tmp_path, capsys, desc, name, shift=None):
    path = str(tmp_path / name)
    argv = ["generate", desc, "--out", path]
    if shift is not None:
        argv += ["--shift", shift]
    code, _, err = run(argv, capsys)
    assert code == 0, err
    return path


def x_form_bundle(tmp_path, desc, name, shift=None):
    """desc's bundle in the format without exponents: graph_to_json with its
    eigensystem (the exact one for a circulant) stripped of its exponents, so
    X is stored as a matrix, and a circulant bundle carries an eigensystem."""
    graph, es, out_desc = build_from_descriptor(
        json.loads(desc), None if shift is None else Fraction(shift))
    es = dataclasses.replace(es or circulant_eigensystem(graph.spec), exponents=None)
    path = tmp_path / name
    path.write_text(json.dumps(graph_to_json(graph, es, out_desc)))
    return str(path)


# ----------------------------------------------------------------- generate

def test_generate_emits_complete_bundle(capsys):
    code, out, _ = run(["generate", CIRC3_DESC], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["format"] == "upst-graph"
    assert doc["n"] == 3
    assert doc["circulant"] is not None
    # the loader solves a circulant exactly: its bundle stores no eigensystem
    assert doc["eigensystem"] is None
    assert doc["descriptor"]["family"] == "circulant_c"
    a01 = doc["matrix"][0][1]
    a10 = doc["matrix"][1][0]
    assert a01 == pytest.approx([a10[0], -a10[1]])


def test_generate_shifted_nondense_matches_exact_entries(tmp_path, capsys):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json", shift="5/2")
    doc = json.loads(Path(path).read_text())
    row = [complex(re, im) for re, im in doc["matrix"][0]]
    expected = [2.5, 0.0, 1 - 1j / SQ3, 1.5, 1 + 1j / SQ3, 0.0]
    assert max(abs(r - e) for r, e in zip(row, expected)) < 1e-12
    assert doc["eigensystem"] is None
    assert list(load_graph(path)[1].exact_lambdas) == [6, 1, 2, 3, 4, -1]
    assert doc["descriptor"]["shift"] == "5/2"


@pytest.mark.parametrize("shift", [None, "5/2"])
def test_flat_bundle_keeps_its_exact_eigenvalues_through_json(tmp_path, capsys, shift):
    # noncirculant_graph stores plain ints; the bundle holds [p, q] pairs,
    # which read back as Fractions of the same values, plus --shift
    _, es, _ = build_from_descriptor(json.loads(NC_DESC))
    added = Fraction(shift or 0)
    _, loaded = load_graph(generate(tmp_path, capsys, NC_DESC, "nc.json", shift=shift))
    assert loaded.exact_lambdas == tuple(v + added for v in es.exact_lambdas)
    assert eigenvalue_steps(loaded.exact_lambdas) == eigenvalue_steps(es.exact_lambdas)


def test_generate_reads_descriptor_files(tmp_path, capsys):
    desc_path = tmp_path / "desc.json"
    desc_path.write_text(CIRC3_DESC)
    code_file, out_file, _ = run(["generate", str(desc_path)], capsys)
    code_inline, out_inline, _ = run(["generate", CIRC3_DESC], capsys)
    assert code_file == code_inline == 0
    assert out_file == out_inline


def test_generate_rejects_unknown_family(capsys):
    code, _, err = run(["generate", '{"family": "petersen"}'], capsys)
    assert code == 2
    assert "error:" in err


def test_generate_rejects_descriptor_shape_problems(capsys):
    bad = [
        '{"family": "circulant_c", "n": 3, "c": [0, 1]}',
        '{"family": "circulant_c", "n": 3, "c": [0, 1, true]}',
        '{"family": "circulant_c", "n": 3, "c": [0, 1, 1.5]}',
        '{"family": "nondense", "p": 4, "q": 3}',
        '{"family": "noncirculant", "a": 1, "b": 1, "beta": 2}',
        "[1, 2, 3]",
    ]
    for desc in bad:
        code, _, _ = run(["generate", desc], capsys)
        assert code == 2, desc


def test_generate_rejects_irrational_shift(capsys):
    code, _, err = run(["generate", ND6_DESC, "--shift", "sqrt2"], capsys)
    assert code == 2
    assert "rational" in err


def test_generate_rejects_missing_descriptor_file(capsys):
    code, _, _ = run(["generate", "/nonexistent/desc.json"], capsys)
    assert code == 2


# ------------------------------------------------------------------- verify

def test_verify_passes_every_check_on_dense_circulant(tmp_path, capsys):
    path = generate(tmp_path, capsys, CIRC3_DESC, "c3.json")
    code, out, _ = run(
        ["verify", path, "--checks", "upst,spacing,dense,typeii,connectivity"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["checks"] == {
        "upst": True,
        "spacing": True,
        "dense": True,
        "typeii": True,
        "connectivity": True,
    }
    assert doc["report"]["upst"] is True
    assert doc["report"]["reasons"] == []
    diagnostics = doc["report"]["diagnostics"]
    # P = pi/2 and h = grid_step: ceil(P/h) = 13 points, plus the 2 h past P
    assert diagnostics["grid_points"] == 16
    # a circulant has one curve per difference v - u
    assert diagnostics["classes"] == 3
    assert diagnostics["classes"] + diagnostics["members"] == 9
    assert diagnostics["newton_rows"] >= diagnostics["classes"]
    # the least 1 - |U(t_uv)| and the largest |analytic - scanned| on all pairs
    assert 0 <= diagnostics["margin_min"] <= 1e-9
    assert 0 <= diagnostics["agreement_max"] <= 1e-8


def test_verify_fails_denseness_of_sparse_family(tmp_path, capsys):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json")
    code, out, _ = run(["verify", path, "--checks", "upst,dense"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["upst"] is True
    assert doc["checks"]["dense"] is False
    assert doc["pass"] is False


def test_verify_fails_spacing_of_flat_family(tmp_path, capsys):
    path = generate(tmp_path, capsys, NC_DESC, "nc.json")
    code, out, _ = run(["verify", path, "--checks", "upst,spacing"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"] == {"upst": True, "spacing": False}


def test_verify_table_output(tmp_path, capsys):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json")
    code, out, _ = run(
        ["verify", path, "--checks", "upst,dense", "--format", "table"], capsys
    )
    assert code == 1
    assert "upst" in out and "pass" in out
    assert "dense" in out and "FAIL" in out
    assert "return period:" in out


def test_verify_table_prints_scan_diagnostics(tmp_path, capsys):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json")
    code, out, _ = run(["verify", path], capsys)
    expected = json.loads(out)["report"]["diagnostics"]
    code, out, _ = run(["verify", path, "--format", "table"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("diagnostics:")]
    assert len(lines) == 1
    fields = dict(item.split("=") for item in lines[0].split()[1:])
    assert list(fields) == list(expected)
    assert fields["grid_step"] == "%.15g" % expected["grid_step"]
    assert fields["grid_points"] == "38"
    for key in ("margin_min", "agreement_max"):
        assert fields[key] == "%.15g" % expected[key]
    assert fields["newton_rows"] == str(expected["newton_rows"])
    # no scan ran on a graph whose diagonalizer is not flat
    p3 = [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [1, 0]], [[0, 0], [1, 0], [0, 0]]]
    bare = tmp_path / "p3.json"
    bare.write_text(json.dumps(p3))
    code, out, _ = run(["verify", str(bare), "--format", "table"], capsys)
    assert code == 1
    assert "reasons: diagonalizer-not-flat" in out
    assert "diagnostics:" not in out


def test_verify_reports_the_row_residual_of_inconsistent_times(tmp_path, capsys):
    # F_4 diag(0, 1, 3, 2) F_4^dagger: flat, integer gaps, no consistent
    # times; the worst row misses its congruences by pi
    f = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2
    a = (f * np.array([0.0, 1.0, 3.0, 2.0])) @ f.conj().T
    path = tmp_path / "f4.json"
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in a]))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    report = json.loads(out)["report"]
    assert report["reasons"] == ["no-consistent-times"]
    assert report["diagnostics"]["row_residual_max"] == pytest.approx(math.pi, abs=1e-9)
    code, out, _ = run(["verify", str(path), "--format", "table"], capsys)
    assert code == 1
    line = next(line for line in out.splitlines() if line.startswith("diagnostics:"))
    assert line == "diagnostics: row_residual_max=%.15g" % report["diagnostics"]["row_residual_max"]


def test_verify_certifies_bare_matrix_inputs(tmp_path, capsys):
    # path graph on three vertices: eigenvector weights are not flat
    p3 = [
        [[0, 0], [1, 0], [0, 0]],
        [[1, 0], [0, 0], [1, 0]],
        [[0, 0], [1, 0], [0, 0]],
    ]
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(p3))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["checks"]["upst"] is False
    assert "diagonalizer-not-flat" in doc["report"]["reasons"]


@functools.cache
def switched_wide_spread_circulants() -> dict[int, np.ndarray]:
    # circulant_c(n, c) for n = 3..12, c drawn in turn with entries in
    # [-3000, 3000], each switched by a random diagonal unitary D: D A D^-1
    rng = np.random.default_rng(1)
    out = {}
    for n in range(3, 13):
        c = [int(v) for v in rng.integers(-3000, 3001, n)]
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        out[n] = d[:, None] * circulant_to_graph(circulant_from_c(n, c)).adjacency * d.conj()
    return out


@pytest.mark.parametrize("n", range(3, 13))
def test_verify_certifies_switched_wide_spread_circulants(tmp_path, capsys, n):
    # switching rounds each entry to a few ulps of max|A| (4.8e3 .. 9.5e3), so
    # |A - A^dagger| reaches 2e-12; an absolute HERMITICITY_TOL refused
    # n = 4, 6, 7, 9, 10, 11 and 12 at load as not Hermitian
    path = tmp_path / "switched.json"
    path.write_text(json.dumps(matrix_to_json(switched_wide_spread_circulants()[n])))
    code, out, err = run(["verify", str(path), "--checks", "upst"], capsys)
    assert code == 0, err
    assert json.loads(out)["checks"]["upst"] is True


@pytest.mark.parametrize("entry", [["1", 0], [True, 0], [1, "0"]])
def test_verify_rejects_non_numeric_bare_matrix_entries(tmp_path, capsys, entry):
    # K3 with one off-diagonal pair written as a string or a boolean
    k3 = [[[0, 0] if u == v else [1, 0] for v in range(3)] for u in range(3)]
    k3[0][1] = k3[1][0] = entry
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(k3))
    code, _, err = run(["verify", str(path), "--checks", "typeii"], capsys)
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize(
    "rows", [[[[0, 0]], 7], [[[0, 0]], None], [[[0, 0], [1, 0]], [[1, 0]]], [[]]],
    ids=["int-row", "null-row", "ragged", "empty-row"],
)
def test_verify_rejects_malformed_bare_matrix_rows(tmp_path, capsys, rows):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(rows))
    code, out, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert out == "" and err.startswith("error: matrix")


def test_verify_circulant_only_checks_need_exact_data(tmp_path, capsys):
    p3 = [
        [[0, 0], [1, 0], [0, 0]],
        [[1, 0], [0, 0], [1, 0]],
        [[0, 0], [1, 0], [0, 0]],
    ]
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(p3))
    for check in ("dense", "connectivity"):
        code, _, err = run(["verify", str(path), "--checks", check], capsys)
        assert code == 2
        assert "exact circulant data" in err


def test_verify_detects_matrix_tampering(tmp_path, capsys):
    path = generate(tmp_path, capsys, CIRC3_DESC, "c3.json")
    doc = json.loads(Path(path).read_text())
    # Hermitian-preserving edit, so only the circulant cross-check can catch it
    doc["matrix"][0][1][0] += 1e-6
    doc["matrix"][1][0][0] += 1e-6
    Path(path).write_text(json.dumps(doc))
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    assert "does not match" in err


def test_circulant_bundles_match_their_data_relative_to_the_largest_entry(tmp_path):
    # MATRIX_MATCH_TOL is relative to max|A| with no floor.  circulant_c(12)
    # with entries up to 7.4e3, assembled as X diag(lambda) X^dagger from its
    # own exact eigensystem, is 3.4e-11 off the embedding and an absolute
    # 1e-12 refused it; entries of 1e-13 doubled got past that bound
    c = [int(v) for v in np.random.default_rng(1).integers(-3000, 3001, 12)]
    spec = circulant_from_c(12, c)
    es = circulant_eigensystem(spec)
    assembled = (es.X * es.eigenvalues) @ es.X.conj().T
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(graph_to_json(
        HermitianGraph(12, (assembled + assembled.conj().T) / 2, spec))))
    assert load_graph(str(wide))[1].exact_lambdas is not None
    small = CirculantSpec.from_rows(3, 1, [[0], [1], [1]], 10**13)  # Circ(0, 1e-13, 1e-13)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(graph_to_json(
        HermitianGraph(3, 2 * circulant_to_graph(small).adjacency, small))))
    with pytest.raises(ValueError, match="does not match its circulant data"):
        load_graph(str(tampered))


def test_verify_detects_stale_eigensystem(tmp_path, capsys):
    # no circulant data here, so the stored eigensystem is the authority
    path = generate(tmp_path, capsys, NC_DESC, "nc.json")
    doc = json.loads(Path(path).read_text())
    doc["eigensystem"]["lambdas"][0] += 0.5
    Path(path).write_text(json.dumps(doc))
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    assert "diagonalize" in err


def test_verify_detects_stale_exact_eigenvalues(tmp_path, capsys):
    # the loaded eigenvalues come from exact_lambdas, so the residual gate
    # checks those against the matrix too, not only the stored floats
    path = generate(tmp_path, capsys, NC_DESC, "nc.json")
    doc = json.loads(Path(path).read_text())
    doc["eigensystem"]["exact_lambdas"][0] = [1, 2]
    Path(path).write_text(json.dumps(doc))
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    assert "diagonalize" in err


def test_verify_detects_a_circulant_bundles_stale_eigensystem(tmp_path, capsys):
    # the exact route certifies a circulant bundle, but the eigensystem a
    # bundle without exponents stores is checked all the same
    desc = '{"family": "circulant_c", "n": 12, "c": [0, 3, -1, 0, 2, 5, 0, 1, 0, 0, 4, 7]}'
    path = x_form_bundle(tmp_path, desc, "c12.json")
    assert run(["verify", path, "--checks", "upst,typeii"], capsys)[0] == 0
    doc = json.loads(Path(path).read_text())
    doc["eigensystem"]["X"] = [[[float(j == k), 0.0] for k in range(12)] for j in range(12)]
    doc["eigensystem"]["lambdas"] = [v + 1000 for v in doc["eigensystem"]["lambdas"]]
    Path(path).write_text(json.dumps(doc))
    code, _, err = run(["verify", path, "--checks", "upst,typeii"], capsys)
    assert code == 2
    assert "diagonalize" in err


def test_verify_refuses_a_tiny_bundle_whose_eigensystem_is_another_matrixs(tmp_path, capsys):
    # 1e-9 P_6 (the path, real symmetric: no UPST) stored with the eigensystem
    # of 1e-9 nondense(2,3): the residual 1.8e-9 passed a gate floored at
    # EIGEN_RESIDUAL_TOL = 1e-8, and verify printed "upst pass"; the gate now
    # scales with max(max|A|, max|lambda|), about 6e-9
    path_matrix = 1e-9 * (np.eye(6, k=1) + np.eye(6, k=-1))
    es = circulant_eigensystem(nondense_circulant(2, 3))
    stored = EigenSystem(6, es.X, 1e-9 * es.eigenvalues)
    path = tmp_path / "p6.json"
    path.write_text(json.dumps(graph_to_json(HermitianGraph(6, path_matrix), stored)))
    code, out, err = run(["verify", str(path), "--format", "table"], capsys)
    assert code == 2
    assert "does not diagonalize the matrix (residual 1.837e-09)" in err
    assert out == ""


@pytest.mark.parametrize("shift", ["10000000000000000", "100000000000000000000"])
def test_shifted_flat_bundle_certifies_through_verify_and_times(tmp_path, capsys, shift):
    # the stored eigensystem is certified: centred on the float mean of its
    # absolute float lambdas, 1e16 + k lost k (analytic-time-not-confirmed,
    # scan-missing-pairs) and 1e20 + k collapsed to one value (grid_step
    # divided by zero); centred on the exact mean, it keeps every gap
    path = generate(tmp_path, capsys, '{"family": "noncirculant", "a": 2, "b": 2, "beta": 2}',
                    "nc.json", shift=shift)
    code, out, err = run(["verify", path], capsys)
    assert code == 0, (out, err)
    code, out, err = run(["times", path], capsys)
    assert code == 0, err
    assert len(out.splitlines()) == 17
    _, es = load_graph(path)
    assert es.offset == Fraction(int(shift)) + Fraction(5, 2)
    assert es.lambdas.tolist() == [-2.5, -1.5, 1.5, 2.5]


@pytest.mark.parametrize("desc", [
    CIRC3_DESC, FLAT3_DESC, ND6_DESC, NC_DESC,
    '{"family": "circulant_c", "n": 6, "c": [0, 0, 0, 0, 0, 5000]}',
    '{"family": "circulant_c", "n": 12, "c": [0, 3, -1, 0, 2, 5, 0, 1, 0, 0, 4, 7]}',
])
@pytest.mark.parametrize("shift", [None, "1000000000"])
def test_every_generated_bundle_loads_past_the_eigensystem_check(tmp_path, capsys, desc, shift):
    graph, es = load_graph(generate(tmp_path, capsys, desc, "bundle.json", shift=shift))
    assert es.n == graph.n and es.exact_lambdas is not None


@pytest.mark.parametrize("desc, shift, checks", [
    (CIRC3_DESC, None, "upst,spacing,dense,typeii,connectivity"),
    (ND6_DESC, "5/2", "upst,spacing,dense,typeii,connectivity"),
    ('{"family": "circulant_c", "n": 12, "c": [0, 3, -1, 0, 2, 5, 0, 1, 0, 0, 4, 7]}', None,
     "upst,spacing,dense,typeii,connectivity"),
    (NC_DESC, None, "upst,spacing,typeii"),
    (NC_DESC, "7/3", "upst,spacing,typeii"),
    ('{"family": "noncirculant", "a": 4, "b": 3, "beta": 2}', None, "upst,spacing,typeii"),
])
def test_bundles_with_and_without_exponents_give_one_result(tmp_path, capsys, desc, shift, checks):
    # the format without exponents (X a matrix, circulants with an
    # eigensystem) still loads, to the same verdicts, checks and classes;
    # the two X differ in their last bits, so times and phases agree to
    # rounding
    paths = (x_form_bundle(tmp_path, desc, "old.json", shift),
             generate(tmp_path, capsys, desc, "new.json", shift))
    old, new = (json.loads(Path(path).read_text()) for path in paths)
    assert "X" in old["eigensystem"]
    assert new["eigensystem"] is None or "X" not in new["eigensystem"]
    outputs = []
    for path in paths:
        code, out, err = run(["verify", path, "--checks", checks], capsys)
        assert code in (0, 1), err
        doc = json.loads(out)
        code, table, err = run(["times", path], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in table.splitlines()]
        outputs.append((doc, rows))
    (old_doc, old_rows), (new_doc, new_rows) = outputs
    assert old_doc["checks"] == new_doc["checks"] and old_doc["pass"] == new_doc["pass"]
    a, b = old_doc["report"], new_doc["report"]
    for key in ("upst", "circulant_timing", "dense", "reasons", "spacing_order"):
        assert a[key] == b[key], key
    for key in ("classes", "members", "member_rescans", "grid_points"):
        assert a["diagnostics"][key] == b["diagnostics"][key], key
    # either X, stored or built from exponents, is keyed by the row solve's generators
    assert a["diagnostics"]["class_keys"] == b["diagnostics"]["class_keys"] == "generators"
    assert np.max(np.abs(np.array(a["min_times"]) - np.array(b["min_times"]))) <= 1e-12
    assert np.max(np.abs(np.array(a["phases"]) - np.array(b["phases"]))) <= 1e-12
    assert old_rows[0] == new_rows[0] and len(old_rows) == len(new_rows)
    for x, y in zip(old_rows[1:], new_rows[1:]):
        assert x[:2] == y[:2]
        assert max(abs(float(p) - float(q)) for p, q in zip(x[2:], y[2:])) <= 1e-12


def test_verify_rejects_unknown_check(tmp_path, capsys):
    path = generate(tmp_path, capsys, CIRC3_DESC, "c3.json")
    code, _, err = run(["verify", path, "--checks", "upst,chromatic"], capsys)
    assert code == 2
    assert "unknown check" in err
    code, _, err = run(["verify", path, "--checks", "upst,,typeii"], capsys)
    assert code == 2
    assert "unknown check ''" in err


def test_verify_rejects_missing_input(capsys):
    code, _, _ = run(["verify", "/nonexistent/graph.json"], capsys)
    assert code == 2


def test_verify_rejects_foreign_format_tag(tmp_path, capsys):
    path = tmp_path / "alien.json"
    path.write_text('{"format": "adjacency-v2", "n": 1, "matrix": [[[0, 0]]]}')
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 2
    assert "format" in err


@pytest.mark.parametrize(
    "desc, field, value, names",
    [
        (X_CIRC3, ("eigensystem", "X"), DROP, "X"),
        (X_CIRC3, ("eigensystem", "exact_lambdas", 0), 5, ""),
        (CIRC3_DESC, ("n",), [4], ""),
        (CIRC3_DESC, ("eigensystem",), [1], ""),
        (CIRC3_DESC, ("matrix", 1), 7, ""),
        (X_NC, ("eigensystem", "X", 0, 0), [float("nan"), 0.0], "eigensystem"),
        (NC_DESC, ("eigensystem", "lambdas", 3), DROP, "eigensystem"),
        # bundle numbers must be JSON integers: int() would read 4.4 or "4"
        # as 4 and load a graph the file does not describe
        (ND6_DESC, ("circulant", "a", 2, "coeffs", 0), [4.4, 3], "malformed"),
        (ND6_DESC, ("circulant", "a", 2, "coeffs", 0), ["4", 3], "malformed"),
        (ND6_DESC, ("circulant", "a", 2, "coeffs", 0), [True, 1], "malformed"),
        (X_ND6, ("eigensystem", "exact_lambdas", 0), [1.7, 1], "malformed"),
        (X_ND6, ("eigensystem", "exact_lambdas", 0), [7, 2.0], "malformed"),
        (ND6_DESC, ("circulant", "n"), 6.9, "malformed"),
        (ND6_DESC, ("circulant", "a", 2, "n"), 6.0, "malformed"),
        (ND6_DESC, ("n",), 6.0, "malformed"),
        # matrix, X and lambdas entries are JSON numbers, never strings or
        # booleans: float() would read "3.5" as 3.5 and true as 1.0
        (NC_DESC, ("matrix", 0, 0), ["3.5", 0], "malformed"),
        (NC_DESC, ("matrix", 0, 2), [-0.5, False], "malformed"),
        (X_NC, ("eigensystem", "X", 0, 0), ["0.5", 0], "malformed"),
        (NC_DESC, ("eigensystem", "lambdas", 1), "1", "malformed"),
        (NC_DESC, ("eigensystem", "lambdas", 1), True, "malformed"),
        # exponents {"N": 12, "r": [0, 1, 6, 7], "c": [0, 1, 6, 7]}: N a JSON
        # integer in 1 .. 2^31, r and c n JSON integers each, and X = zeta_N^(r c)
        # / sqrt(n) diagonalizing the matrix
        (NC_DESC, ("eigensystem", "exponents"), DROP, "X"),
        (NC_DESC, ("eigensystem", "exponents", "N"), 12.0, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "N"), "12", "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "N"), 0, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "N"), -12, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "N"), 2**40, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "r", 3), DROP, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "c", 3), DROP, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "c"), [0, 1, 6, 7, 2], "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "r", 1), 1.0, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "c", 2), True, "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "r"), "0167", "malformed"),
        (NC_DESC, ("eigensystem", "exponents", "r", 1), 2, "diagonalize"),
        (NC_DESC, ("eigensystem", "exponents", "N"), 24, "diagonalize"),
        # long r and c on a 4-vertex graph are refused before X, len(r) x len(c),
        # is built: 10^10 entries here
        (NC_DESC, ("eigensystem", "exponents"), LONG_EXPONENTS, "malformed"),
        (NC_DESC, ("eigensystem",), {"exponents": LONG_EXPONENTS, "lambdas": [0.0] * 10**5},
         "malformed"),
    ],
    ids=["eigensystem-without-X", "exact-lambda-not-a-pair", "n-as-list",
         "eigensystem-as-list", "matrix-row-not-a-list", "eigensystem-nan",
         "eigensystem-short-lambdas", "coeff-float", "coeff-string", "coeff-bool",
         "exact-lambda-float", "exact-lambda-float-denominator", "circulant-n-float",
         "cyclotomic-n-float", "graph-n-float", "matrix-string", "matrix-bool",
         "x-string", "lambda-string", "lambda-bool",
         "exponents-and-X-missing", "exponent-n-float", "exponent-n-string", "exponent-n-zero",
         "exponent-n-negative", "exponent-n-huge", "exponent-r-short", "exponent-c-short",
         "exponent-c-long", "exponent-r-float", "exponent-c-bool", "exponent-r-string",
         "exponent-r-wrong", "exponent-n-wrong", "exponents-long", "exponents-and-lambdas-long"],
)
def test_verify_rejects_malformed_bundles(tmp_path, capsys, desc, field, value, names):
    # X_* bundles store X as a matrix (x_form_bundle), the others as generated
    if isinstance(desc, tuple):
        path = x_form_bundle(tmp_path, desc[1], "bundle.json")
    else:
        path = generate(tmp_path, capsys, desc, "bundle.json")
    doc = json.loads(Path(path).read_text())
    *parents, last = field
    node = doc
    for key in parents:
        node = node[key]
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    Path(path).write_text(json.dumps(doc))
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert names in err


def test_verify_refuses_a_huge_conductor_without_factoring_it(tmp_path, capsys, monkeypatch):
    # one coefficient cannot span Q(zeta_n) for n > 2: refused before any
    # trial division up to sqrt(n), which would take seconds here
    def spy(n):
        raise AssertionError("euler_phi(%d) called" % n)

    path = generate(tmp_path, capsys, ND6_DESC, "bundle.json")
    doc = json.loads(Path(path).read_text())
    doc["circulant"]["a"][0] = {"n": 10**16 + 61, "coeffs": [[0, 1]]}
    Path(path).write_text(json.dumps(doc))
    monkeypatch.setattr(cyclotomic, "euler_phi", spy)
    code, _, err = run(["verify", path], capsys)
    assert code == 2
    assert err.startswith("error: ") and "phi(%d)" % (10**16 + 61) in err


def test_verify_without_walk_checks_has_no_report(tmp_path, capsys):
    path = generate(tmp_path, capsys, CIRC3_DESC, "c3.json")
    argv = ["verify", path, "--checks", "typeii,connectivity"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == {"typeii": True, "connectivity": True}
    assert doc["report"] is None
    code, out, _ = run(argv + ["--format", "table"], capsys)
    assert code == 0
    assert "typeii" in out and "connectivity" in out
    assert "reasons:" not in out and "return period:" not in out


# -------------------------------------------------------------------- times

def test_times_csv_layout_and_values(tmp_path, capsys):
    path = generate(tmp_path, capsys, FLAT3_DESC, "flat3.json")
    code, out, _ = run(["times", path], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["u", "v", "t_uv", "phase_re", "phase_im", "analytic_t"]
    assert len(rows) == 10
    # eigenvalues 0,1,2: vertex 0 reaches vertex v at 2 pi v / 3
    by_pair = {(int(r[0]), int(r[1])): r for r in rows[1:]}
    assert abs(float(by_pair[0, 1][2]) - 2 * math.pi / 3) < 1e-8
    assert abs(float(by_pair[0, 2][2]) - 4 * math.pi / 3) < 1e-8
    assert abs(float(by_pair[0, 0][2]) - 2 * math.pi) < 1e-8
    for (u, v), r in by_pair.items():
        phase = complex(float(r[3]), float(r[4]))
        assert abs(abs(phase) - 1) < 1e-9
        # analytic_t is transfer_table's time for the same pair
        assert abs(float(r[5]) - float(r[2])) < 1e-8


def test_times_table_output(tmp_path, capsys):
    path = generate(tmp_path, capsys, FLAT3_DESC, "flat3.json")
    code, out, _ = run(["times", path, "--format", "table"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].split() == ["u", "v", "t_uv", "phase_re", "phase_im", "analytic_t"]
    assert len(lines) == 10


def test_times_writes_csv_file(tmp_path, capsys):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json")
    out_path = tmp_path / "times.csv"
    code, _, _ = run(["times", path, "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))
    assert len(rows) == 37  # header + 36 ordered pairs


def test_times_refuses_graphs_without_transfer(tmp_path, capsys):
    p3 = [
        [[0, 0], [1, 0], [0, 0]],
        [[1, 0], [0, 0], [1, 0]],
        [[0, 0], [1, 0], [0, 0]],
    ]
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(p3))
    code, out, err = run(["times", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "does not certify" in err


# ---------------------------------------------------------- output contract

def times_reference(path):
    """The times CSV and table, written row by row with csv.writer."""
    graph, es = load_graph(path)
    report = verify_upst(graph, es)
    table = transfer_table(report.analytic_times)
    header = ["u", "v", "t_uv", "phase_re", "phase_im", "analytic_t"]
    rows = []
    for u in range(report.n):
        for v in range(report.n):
            phase = report.phases[u, v]
            values = (report.min_times[u, v], phase.real, phase.imag, table[u, v])
            rows.append([str(u), str(v)] + [FLOAT_FMT % x for x in values])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    widths = [max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(6)]
    lines = ["  ".join(r[i].ljust(widths[i]) for i in range(6)) for r in [header] + rows]
    return buf.getvalue(), "\n".join(lines) + "\n"


@pytest.mark.parametrize("shift", [None, "7/3"])
def test_times_output_matches_a_row_by_row_csv_writer(tmp_path, capsys, shift):
    path = generate(tmp_path, capsys, ND6_DESC, "nd6.json", shift=shift)
    csv_text, table_text = times_reference(path)
    assert len(csv_text.splitlines()) == 37
    code, out, _ = run(["times", path], capsys)
    assert code == 0 and out == csv_text
    code, out, _ = run(["times", path, "--format", "table"], capsys)
    assert code == 0 and out == table_text


def test_json_output_is_one_line_with_the_indented_values(tmp_path, capsys):
    code, out, _ = run(["generate", ND6_DESC, "--shift", "5/2"], capsys)
    assert code == 0 and out.endswith("}\n") and out.count("\n") == 1
    graph, es, desc = build_from_descriptor(json.loads(ND6_DESC), Fraction(5, 2))
    indented = json.dumps(graph_to_json(graph, es, desc), indent=2)
    assert json.loads(out) == json.loads(indented)

    path = tmp_path / "nd6.json"
    path.write_text(out)
    checks = ("upst", "spacing", "dense", "typeii", "connectivity")
    code, out, _ = run(["verify", str(path), "--checks", ",".join(checks)], capsys)
    assert code == 1 and out.count("\n") == 1  # nondense: the dense check fails
    graph, es = load_graph(str(path))
    results, report = cli._run_checks(graph, es, checks)
    document = {"input": str(path), "checks": results, "pass": False,
                "report": report_to_json(report)}
    assert json.loads(out) == json.loads(json.dumps(document, indent=2))


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    bundle = generate(tmp_path, capsys, CIRC3_DESC, "c3.json")
    sequences = (
        (["generate", ND6_DESC, "--shift", "5/2"], ["generate", ND6_DESC]),
        (["verify", bundle, "--format", "table"], ["verify", bundle]),
    )
    outputs = []
    for sequence in sequences:
        cached = [run(argv, capsys) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli.build_parser.cache_clear()
            fresh.append(run(argv, capsys))
        assert cached == fresh
        outputs += [out for _, out, _ in cached]
    assert json.loads(outputs[0])["descriptor"]["shift"] == "5/2"
    assert "shift" not in json.loads(outputs[1])["descriptor"]
    assert outputs[2].startswith("check ") and json.loads(outputs[3])["checks"]
    parser = cli.build_parser()
    assert parser.parse_args(["generate", ND6_DESC, "--shift", "1"]).shift == "1"
    assert parser.parse_args(["generate", ND6_DESC]).shift is None
    assert parser.parse_args(["verify", bundle, "--format", "table"]).output_format == "table"
    assert parser.parse_args(["verify", bundle]).output_format == "json"


# ----------------------------------------------------------- console script

def test_installed_entry_point(tmp_path):
    exe = shutil.which("upst")
    assert exe is not None, "console script 'upst' not on PATH"
    path = tmp_path / "c3.json"
    gen = subprocess.run(
        [exe, "generate", CIRC3_DESC, "--out", str(path)],
        capture_output=True,
        text=True,
    )
    assert gen.returncode == 0, gen.stderr
    ver = subprocess.run(
        [exe, "verify", str(path), "--checks", "upst,typeii"],
        capture_output=True,
        text=True,
    )
    assert ver.returncode == 0, ver.stderr
    assert json.loads(ver.stdout)["pass"] is True


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    path = tmp_path / "c3.json"
    gen = subprocess.run(
        [sys.executable, "-m", "upst", "generate", CIRC3_DESC, "--out", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert gen.returncode == 0, gen.stderr
    ver = subprocess.run(
        [sys.executable, "-m", "upst", "verify", str(path), "--checks", "upst,typeii"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert ver.returncode == 0, ver.stderr
    assert json.loads(ver.stdout)["pass"] is True
