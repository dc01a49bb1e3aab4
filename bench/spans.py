"""Spans around calls into the package's layers, recorded from outside.

``Tracer.install`` replaces each traced function at every place the
package binds it (``from .relations import compose`` gives the caller
its own name for it), and traced methods on their class. A span opens
only on the outermost entry into a function and only while an op is
running, so recursion and the benchmark's own checks record nothing.
Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = {
    "relations.compose": ("gradedpdl.relations", "compose"),
    "relations.star": ("gradedpdl.relations", "star"),
    "relations.parallel": ("gradedpdl.relations", "parallel"),
    "relations.union": ("gradedpdl.relations", "union"),
    "semantics.valid_in_model": ("gradedpdl.semantics", "valid_in_model"),
    "semantics.value_num": ("gradedpdl.semantics", "Evaluator.value_num"),
    "semantics.relation": ("gradedpdl.semantics", "Evaluator.relation"),
    "audit.sample_model": ("gradedpdl.audit", "sample_model"),
    "audit.sample_bindings": ("gradedpdl.audit", "sample_bindings"),
    "audit.random_formula": ("gradedpdl.audit", "random_formula"),
    "audit.random_program": ("gradedpdl.audit", "random_program"),
    "audit.find_counterexample": ("gradedpdl.audit", "find_counterexample"),
    "audit.audit_rule": ("gradedpdl.audit", "audit_rule"),
    "audit.equiv_check": ("gradedpdl.audit", "equiv_check"),
    "audit.audit_all": ("gradedpdl.audit", "audit_all"),
    "schemas.instantiate": ("gradedpdl.schemas", "instantiate_schema"),
    "schemas.match": ("gradedpdl.schemas", "match_axiom_instance"),
    "syntax.parse_formula": ("gradedpdl.syntax", "parse_formula"),
    "syntax.parse_program": ("gradedpdl.syntax", "parse_program"),
    "syntax.closure": ("gradedpdl.syntax", "closure_of_set"),
    "syntax.format_formula": ("gradedpdl.syntax", "format_formula"),
    "syntax.format_program": ("gradedpdl.syntax", "format_program"),
    "filtration.quotient": ("gradedpdl.filtration", "quotient"),
    "filtration.preservation": ("gradedpdl.filtration", "check_preservation"),
    "proofcheck.load": ("gradedpdl.proofcheck", "load_derivation"),
    "proofcheck.parse": ("gradedpdl.proofcheck", "parse_derivation"),
    "proofcheck.check": ("gradedpdl.proofcheck", "check_derivation"),
    "modelio.load": ("gradedpdl.modelio", "load_model"),
    "modelio.from_dict": ("gradedpdl.modelio", "model_from_dict"),
    "modelio.to_dict": ("gradedpdl.modelio", "model_to_dict"),
    "modelio.dumps": ("gradedpdl.modelio", "dumps"),
}

# Span names summed into each self-time metric.
SELF_TIME = {
    "relations.compose.self_s": ("relations.compose",),
    "relations.parallel.self_s": ("relations.parallel",),
    "relations.union.self_s": ("relations.union",),
    "semantics.eval.self_s": (
        "semantics.valid_in_model", "semantics.value_num", "semantics.relation",
    ),
    "audit.sample.self_s": (
        "audit.sample_model", "audit.sample_bindings",
        "audit.random_formula", "audit.random_program",
    ),
    "audit.search.self_s": (
        "audit.find_counterexample", "audit.audit_rule",
        "audit.equiv_check", "audit.audit_all",
    ),
    "schemas.instantiate.self_s": ("schemas.instantiate",),
    "schemas.match.self_s": ("schemas.match",),
    "syntax.parse.self_s": ("syntax.parse_formula", "syntax.parse_program"),
    "syntax.closure.self_s": ("syntax.closure",),
    "syntax.format.self_s": ("syntax.format_formula", "syntax.format_program"),
    "filtration.quotient.self_s": ("filtration.quotient",),
    "filtration.preservation.self_s": ("filtration.preservation",),
    "proofcheck.parse.self_s": ("proofcheck.load", "proofcheck.parse"),
    "proofcheck.check.self_s": ("proofcheck.check",),
    "modelio.load.self_s": ("modelio.load", "modelio.from_dict"),
    "modelio.emit.self_s": ("modelio.to_dict", "modelio.dumps"),
    "cli.self_s": ("cli.op",),
}

# Span names whose number of spans is a metric.
CALLS = {
    "relations.compose.calls": "relations.compose",
    "relations.star.calls": "relations.star",
    "relations.parallel.calls": "relations.parallel",
    "semantics.valid_in_model.calls": "semantics.valid_in_model",
    "audit.sample_model.calls": "audit.sample_model",
    "schemas.instantiate.calls": "schemas.instantiate",
    "schemas.match.calls": "schemas.match",
    "syntax.parse.calls": "syntax.parse_formula",
    "filtration.quotient.calls": "filtration.quotient",
}


def _relation_size(result):
    return len(result.entries)


# Sizes read from what a traced call returns, summed into a counter.
RESULT_COUNTS = {
    "relations.compose": ("relations.out_entries", _relation_size),
    "relations.star": ("relations.out_entries", _relation_size),
    "relations.parallel": ("relations.out_entries", _relation_size),
    "relations.union": ("relations.out_entries", _relation_size),
    "syntax.closure": ("syntax.closure.size", len),
    "filtration.quotient": ("filtration.classes", lambda result: len(result.classes)),
    "proofcheck.parse": ("proofcheck.steps", lambda result: len(result.steps)),
    "modelio.dumps": ("modelio.bytes_out", lambda text: len(text.encode("utf-8"))),
}


class Tracer:
    """Span recorder. A span is [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op ``op_id`` inside the root span "cli.op"."""
        self.op = op_id
        index = self.open("cli.op")
        try:
            return fn(*args)
        finally:
            self.close(index)
            self.op = None

    def wrap(self, name: str, fn):
        tracer = self
        active = False
        counter = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            nonlocal active
            if active or tracer.op is None:
                return fn(*args, **kwargs)
            active = True
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
                active = False
            if counter is not None:
                tracer.counts[counter[0]] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def count_evaluators(self, cls) -> None:
        init = cls.__init__
        tracer = self

        def counted(obj, *args, **kwargs):
            if tracer.op is not None:
                tracer.counts["semantics.evaluator.created"] += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", counted)

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded package."""
        package = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gradedpdl" or name.startswith("gradedpdl."))
        ]
        for name, (module_name, attr) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self.wrap(name, getattr(cls, method)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in package:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
        self.count_evaluators(sys.modules["gradedpdl.semantics"].Evaluator)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    The program is single-threaded, so children of one span never
    overlap and the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_n, start, end, _p, _o) in enumerate(spans)]


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before the overhead ratio."""
    own = self_times(spans)
    by_name: dict[str, float] = Counter()
    calls: Counter = Counter()
    star_iterations = 0
    for span, self_s in zip(spans, own):
        by_name[span[0]] += self_s
        calls[span[0]] += 1
        parent = span[3]
        if span[0] == "relations.compose" and parent is not None and spans[parent][0] == "relations.star":
            star_iterations += 1
    metrics: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        metrics[metric] = sum(by_name[n] for n in names)
    for metric, name in CALLS.items():
        metrics[metric] = calls[name]
    metrics["relations.star.iterations"] = star_iterations
    metrics["semantics.evaluator.created"] = counts["semantics.evaluator.created"]
    for metric, _size in RESULT_COUNTS.values():
        metrics[metric] = counts[metric]
    return metrics
