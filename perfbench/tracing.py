"""Per-layer spans recorded from outside the `upst` package.

`Tracer` wraps public functions of the package's modules and swaps every
module attribute bound to them: the defining module, the `upst` namespace and
each `from ... import` copy in a sibling module, so calls between layers are
timed too.  Nothing in the package changes.  A function that cannot be found
(renamed, moved or deleted by a refactor) is reported as absent and its
metrics read 0.

Spans are kept in memory: name, start, end, parent span and the scheduled
graph that caused them.  Time metrics are inclusive durations of the outermost
call of each span name (a call nested in a span of the same name, such as
`circulant_from_c` inside `nondense_circulant`, is part of the outer span);
`walk.verify_self_s` is the one self time: `verify_upst` minus its direct
child spans.  Everything runs in one process and one thread, so no layer
queues or waits.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

# (span name, module, attribute path).  Several targets may share a span name.
TARGETS = (
    ("cyclotomic.invert", "upst.cyclotomic", "CycNum.invert"),
    ("constructors.build", "upst.constructors", "noncirculant_graph"),
    ("constructors.build", "upst.constructors", "circulant_from_c"),
    ("constructors.build", "upst.constructors", "nondense_circulant"),
    ("constructors.build", "upst.constructors", "gk_example"),
    ("graph.embed", "upst.graph", "circulant_to_graph"),
    ("graph.validate", "upst.graph", "validate_hermitian"),
    ("spectra.exact_eig", "upst.spectra", "circulant_eigensystem"),
    ("spectra.numeric_eig", "upst.spectra", "numerical_eigensystem"),
    ("spectra.typeii", "upst.spectra", "is_type_ii"),
    ("spectra.canonical", "upst.spectra", "canonicalize"),
    ("spectra.recognize", "upst.spectra", "recognize_eigenvalue_form"),
    ("ratios.multiples", "upst.ratios", "integer_multiples"),
    ("walk.scan", "upst.walk", "scan_min_times"),
    ("walk.confirm", "upst.walk", "unitary_at"),
    ("walk.analytic", "upst.walk", "analytic_pst_times"),
    ("walk.analytic", "upst.walk", "analytic_return_period"),
    ("walk.verify", "upst.walk", "verify_upst"),
    ("serialize.dump", "upst.serialize", "graph_to_json"),
    ("serialize.dump", "upst.serialize", "report_to_json"),
    ("serialize.load", "upst.serialize", "graph_from_json"),
    ("cli.load_input", "upst.cli", "load_input"),
    ("cli.main", "upst.cli", "main"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "cyclotomic.invert_calls": "count",
    "cyclotomic.invert_s": "s",
    "constructors.calls": "count",
    "constructors.build_s": "s",
    "graph.embed_s": "s",
    "graph.validate_s": "s",
    "spectra.exact_eig_s": "s",
    "spectra.numeric_eig_s": "s",
    "spectra.typeii_s": "s",
    "spectra.canonical_s": "s",
    "spectra.recognize_s": "s",
    "spectra.recognize_hit_ratio": "1",
    "ratios.calls": "count",
    "ratios.busy_s": "s",
    "ratios.none_ratio": "1",
    "walk.scan_calls": "count",
    "walk.scan_s": "s",
    "walk.scan_pairs": "count",
    "walk.confirm_calls": "count",
    "walk.confirm_s": "s",
    "walk.analytic_s": "s",
    "walk.verify_self_s": "s",
    "walk.agreement_max": "s",
    "walk.margin_min": "1",
    "serialize.dump_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes": "B",
    "cli.load_input_s": "s",
    "cli.generate_s": "s",
    "cli.verify_s": "s",
    "cli.times_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    graph: Optional[str]
    end: float = math.nan


@dataclass
class Tracer:
    """Swaps traced functions in on `install()` and back on `restore()`."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    graph: Optional[str] = None
    _stack: list[int] = field(default_factory=list)
    _swapped: list[tuple[Any, str, Any]] = field(default_factory=list)

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name: str, func: Callable) -> Callable:
        observe = _OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = _cli_span_name(args, kwargs) if name == "cli.main" else name
            if any(spans[i].name == span_name for i in stack):
                return func(*args, **kwargs)
            spans.append(Span(span_name, 0.0, stack[-1] if stack else None, self.graph))
            index = len(spans) - 1
            stack.append(index)
            spans[index].start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                spans[index].end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
                *owner_path, attr = path.split(".")
                owner = module
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append("%s.%s" % (module_name, path))
                continue
            wrapper = self._wrap(name, original)
            if owner is module:
                for mod, binding in _module_bindings(original):
                    self._swap(mod, binding, wrapper)
            else:
                self._swap(owner, attr, wrapper)

    def _swap(self, owner: Any, attr: str, value: Any) -> None:
        self._swapped.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._swapped:
            owner, attr, original = self._swapped.pop()
            setattr(owner, attr, original)

    # -- aggregating -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        children: dict[int, float] = {}
        for span in self.spans:
            duration = span.end - span.start
            busy[span.name] = busy.get(span.name, 0.0) + duration
            calls[span.name] = calls.get(span.name, 0) + 1
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + duration
        verify_self = sum(
            (span.end - span.start) - children.get(i, 0.0)
            for i, span in enumerate(self.spans)
            if span.name == "walk.verify"
        )
        c = self.counters
        ratio_calls = calls.get("ratios.multiples", 0)
        recognize_calls = calls.get("spectra.recognize", 0)
        return {
            "cyclotomic.invert_calls": calls.get("cyclotomic.invert", 0),
            "cyclotomic.invert_s": busy.get("cyclotomic.invert", 0.0),
            "constructors.calls": calls.get("constructors.build", 0),
            "constructors.build_s": busy.get("constructors.build", 0.0),
            "graph.embed_s": busy.get("graph.embed", 0.0),
            "graph.validate_s": busy.get("graph.validate", 0.0),
            "spectra.exact_eig_s": busy.get("spectra.exact_eig", 0.0),
            "spectra.numeric_eig_s": busy.get("spectra.numeric_eig", 0.0),
            "spectra.typeii_s": busy.get("spectra.typeii", 0.0),
            "spectra.canonical_s": busy.get("spectra.canonical", 0.0),
            "spectra.recognize_s": busy.get("spectra.recognize", 0.0),
            "spectra.recognize_hit_ratio": c.get("recognize.hits", 0) / recognize_calls
            if recognize_calls
            else 0.0,
            "ratios.calls": ratio_calls,
            "ratios.busy_s": busy.get("ratios.multiples", 0.0),
            "ratios.none_ratio": c.get("ratios.none", 0) / ratio_calls if ratio_calls else 0.0,
            "walk.scan_calls": calls.get("walk.scan", 0),
            "walk.scan_s": busy.get("walk.scan", 0.0),
            "walk.scan_pairs": c.get("walk.scan_pairs", 0),
            "walk.confirm_calls": calls.get("walk.confirm", 0),
            "walk.confirm_s": busy.get("walk.confirm", 0.0),
            "walk.analytic_s": busy.get("walk.analytic", 0.0),
            "walk.verify_self_s": verify_self,
            "walk.agreement_max": c.get("walk.agreement_max", 0.0),
            "walk.margin_min": c.get("walk.margin_min", 0.0),
            "serialize.dump_s": busy.get("serialize.dump", 0.0),
            "serialize.load_s": busy.get("serialize.load", 0.0),
            "serialize.bytes": c.get("serialize.bytes", 0),
            "cli.load_input_s": busy.get("cli.load_input", 0.0),
            "cli.generate_s": busy.get("cli.generate", 0.0),
            "cli.verify_s": busy.get("cli.verify", 0.0),
            "cli.times_s": busy.get("cli.times", 0.0),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "graph": span.graph, "start": span.start, "end": span.end,
                }) + "\n")


def _module_bindings(original: Any):
    """Every (module, attribute) in the `upst` package bound to `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "upst" or mod_name.startswith("upst.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


def _cli_span_name(args: tuple, kwargs: dict) -> str:
    argv = args[0] if args else kwargs.get("argv")
    command = argv[0] if argv else "none"
    return "cli.%s" % command


def _observe_scan(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    es = args[0] if args else kwargs["es"]
    tracer.count("walk.scan_pairs", es.n ** 2)


def _observe_verify(tracer: Tracer, args: tuple, kwargs: dict, report: Any) -> None:
    if report.upst is not True or report.analytic_times is None:
        return
    import numpy as np

    agreement = float(np.max(np.abs(report.min_times[0] - report.analytic_times)))
    margin = float(np.min(1.0 - np.abs(report.phases)))
    c = tracer.counters
    c["walk.agreement_max"] = max(c.get("walk.agreement_max", agreement), agreement)
    c["walk.margin_min"] = min(c.get("walk.margin_min", margin), margin)


def _observe_recognize(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.count("recognize.hits")


def _observe_ratios(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is None:
        tracer.count("ratios.none")


_OBSERVERS: dict[str, Callable[[Tracer, tuple, dict, Any], None]] = {
    "walk.scan": _observe_scan,
    "walk.verify": _observe_verify,
    "spectra.recognize": _observe_recognize,
    "ratios.multiples": _observe_ratios,
}
