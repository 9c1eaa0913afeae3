"""Batch front-end: construct fixture graphs, certify transfer, dump timing.

Subcommands: generate | verify | times.  Exit codes: 0 all requested checks
pass, 1 a check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .constructors import (
    NoncirculantParams,
    circulant_from_c,
    nondense_circulant,
    noncirculant_graph,
)
from .graph import HermitianGraph, circulant_to_graph, is_connected_circulant, with_diagonal_shift
from .serialize import graph_to_json, load_graph, report_to_json
from .spectra import EigenSystem, circulant_eigensystem, is_type_ii
from .walk import TransferReport, denseness_check, transfer_table, verify_upst

CHECK_NAMES = ("upst", "spacing", "dense", "typeii", "connectivity")
FAMILIES = ("circulant_c", "nondense", "noncirculant")
FLOAT_FMT = "%.15g"


class InputError(ValueError):
    """Problems with descriptors, files, or flag values: exit code 2."""


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("not a rational number: %r" % (text,)) from exc


def _parse_checks(text: str) -> tuple[str, ...]:
    checks = tuple(name.strip() for name in text.split(","))
    for name in checks:
        if name not in CHECK_NAMES:
            raise InputError(
                "unknown check %r (choose from %s)" % (name, ", ".join(CHECK_NAMES))
            )
    return checks


def _parse_descriptor(source: str) -> dict:
    """Descriptor as inline JSON (starts with '{') or a path to a JSON file."""
    text = source.strip()
    if not text.startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError("cannot read descriptor file %r: %s" % (source, exc)) from exc
    try:
        desc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("descriptor is not valid JSON: %s" % (exc,)) from exc
    if not isinstance(desc, dict):
        raise InputError("descriptor must be a JSON object")
    return desc


def _require_int(desc: dict, key: str) -> int:
    if key not in desc:
        raise InputError("descriptor is missing %r" % (key,))
    value = desc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError("descriptor field %r must be an integer, got %r" % (key, value))
    return value


def build_from_descriptor(
    desc: dict, shift: Optional[Fraction] = None
) -> tuple[HermitianGraph, EigenSystem, dict]:
    """Instantiate a graph family from its JSON descriptor.

    Returns (graph, eigensystem, descriptor-with-shift-recorded).  Circulant
    shifts stay exact in the spec; the non-circulant family shifts the float
    matrix, the offset and the exact eigenvalue list.
    """
    family = desc.get("family")
    if family not in FAMILIES:
        raise InputError(
            "unknown family %r (choose from %s)" % (family, ", ".join(FAMILIES))
        )
    try:
        if family == "circulant_c":
            n = _require_int(desc, "n")
            c_raw = desc.get("c")
            if not isinstance(c_raw, list) or len(c_raw) != n:
                raise InputError("field 'c' must be a list of %d integers" % n)
            spec = circulant_from_c(n, c_raw)
        elif family == "nondense":
            spec = nondense_circulant(_require_int(desc, "p"), _require_int(desc, "q"))
        else:
            spec = None
            params = NoncirculantParams(
                _require_int(desc, "a"), _require_int(desc, "b"), _require_int(desc, "beta")
            )
            graph, es = noncirculant_graph(params)
            if shift is not None:
                graph = HermitianGraph(params.n, graph.adjacency + float(shift) * np.eye(params.n))
                es = dataclasses.replace(es, offset=es.offset + shift,
                                         exact_lambdas=tuple(v + shift for v in es.exact_lambdas))
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if spec is not None:
        if shift is not None:
            spec = with_diagonal_shift(spec, shift)
        graph = circulant_to_graph(spec)
        es = circulant_eigensystem(spec)
    out_desc = dict(desc)
    if shift is not None:
        out_desc["shift"] = str(shift)
    return graph, es, out_desc


def _run_checks(
    graph: HermitianGraph, es: EigenSystem, checks: Sequence[str]
) -> tuple[dict, Optional[TransferReport]]:
    """Verdict per requested check; the report is None when no walk check
    (upst, spacing) is requested."""
    for name in checks:
        if name in ("dense", "connectivity") and graph.spec is None:
            raise InputError(
                "check %r needs exact circulant data, which this input lacks" % name
            )
    report = None
    if any(name in ("upst", "spacing") for name in checks):
        report = verify_upst(graph, es)
    results: dict = {}
    for name in checks:
        if name == "upst":
            results[name] = report.upst is True
        elif name == "spacing":
            results[name] = report.circulant_timing is True
        elif name == "dense":
            results[name] = denseness_check(graph.spec)[0]
        elif name == "typeii":
            results[name] = is_type_ii(es.X)
        elif name == "connectivity":
            results[name] = is_connected_circulant(graph.spec)
    return results, report


def _emit(path: Optional[str], text: str) -> None:
    """Write text, newline-terminated, to path or to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(descriptor: str, shift: Optional[Fraction], out: Optional[str]) -> int:
    graph, es, out_desc = build_from_descriptor(_parse_descriptor(descriptor), shift)
    _emit(out, json.dumps(graph_to_json(graph, es, out_desc)))
    return 0


def _format_verdict_table(results: dict, report: Optional[TransferReport]) -> str:
    lines = ["check         verdict", "-----         -------"]
    for name, ok in results.items():
        lines.append("%-13s %s" % (name, "pass" if ok else "FAIL"))
    if report is None:
        return "\n".join(lines)
    if report.reasons:
        lines.append("reasons: " + ", ".join(report.reasons))
    if report.analytic_times is not None:
        times = "  ".join(FLOAT_FMT % t for t in report.analytic_times)
        lines.append("analytic transfer times from vertex 0: " + times)
    if report.return_period is not None:
        lines.append("return period: " + FLOAT_FMT % report.return_period)
    if report.diagnostics is not None:
        fields = (
            "%s=%s" % (key, FLOAT_FMT % value if isinstance(value, float) else value)
            for key, value in report.diagnostics.items()
        )
        lines.append("diagnostics: " + " ".join(fields))
    return "\n".join(lines)


def cmd_verify(
    source: str,
    checks: Sequence[str],
    output_format: str,
    out: Optional[str],
) -> int:
    graph, es = load_graph(source)
    results, report = _run_checks(graph, es, checks)
    all_pass = all(results.values())
    if output_format == "table":
        _emit(out, _format_verdict_table(results, report))
    else:
        document = {
            "input": source,
            "checks": results,
            "pass": all_pass,
            "report": None if report is None else report_to_json(report),
        }
        _emit(out, json.dumps(document))
    return 0 if all_pass else 1


def cmd_times(source: str, output_format: str, out: Optional[str]) -> int:
    graph, es = load_graph(source)
    report = verify_upst(graph, es)
    if report.upst is not True:
        print(
            "input does not certify universal perfect state transfer: %s"
            % (", ".join(report.reasons) or "unknown"),
            file=sys.stderr,
        )
        return 1
    n, phases = report.n, report.phases.ravel()
    columns = (*np.divmod(np.arange(n * n), n), report.min_times.ravel(),
               phases.real, phases.imag, transfer_table(report.analytic_times).ravel())
    row_fmt = ",".join(["%d", "%d"] + [FLOAT_FMT] * 4)
    lines = ["u,v,t_uv,phase_re,phase_im,analytic_t"]
    lines += [row_fmt % row for row in zip(*(c.tolist() for c in columns))]
    if output_format == "table":
        cells = [line.split(",") for line in lines]
        widths = [max(map(len, column)) for column in zip(*cells)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    _emit(out, "\n".join(lines))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: argparse keeps no state between
    parse_args calls, so building it once is safe.  Only a process that calls
    `main` more than once gains; the console script calls it once."""
    parser = argparse.ArgumentParser(
        prog="upst",
        description="Construct graphs with universal perfect state transfer and certify them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a graph from a JSON family descriptor")
    gen.add_argument(
        "descriptor",
        help='inline JSON like {"family":"nondense","p":2,"q":3} or a path to a JSON file',
    )
    gen.add_argument("--out", help="output path (default stdout)")
    gen.add_argument(
        "--shift",
        help="rational diagonal shift alpha added as alpha*I (e.g. 5/2)",
    )

    ver = sub.add_parser("verify", help="run certification checks on a graph file")
    ver.add_argument("input", help="graph file (bundle or bare matrix JSON)")
    ver.add_argument(
        "--checks",
        default="upst",
        help="comma-separated subset of %s (default: upst)" % (",".join(CHECK_NAMES),),
    )
    ver.add_argument("--out", help="report path (default stdout)")
    ver.add_argument(
        "--format", choices=("json", "table"), default="json", dest="output_format"
    )

    tim = sub.add_parser("times", help="dump the per-pair transfer timing table")
    tim.add_argument("input", help="graph file (bundle or bare matrix JSON)")
    tim.add_argument("--out", help="CSV path (default stdout)")
    tim.add_argument(
        "--format", choices=("csv", "table"), default="csv", dest="output_format"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            shift = None if args.shift is None else _parse_fraction(args.shift)
            return cmd_generate(args.descriptor, shift, args.out)
        if args.command == "verify":
            checks = _parse_checks(args.checks)
            return cmd_verify(args.input, checks, args.output_format, args.out)
        return cmd_times(args.input, args.output_format, args.out)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
