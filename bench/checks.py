"""Known-answer checks on each op's exit code, stdout and JSON output.

A check returns the list of problems it found; an op with any problem
counts as failed. Values are re-derived with the Fraction evaluator in
``oracle``; the package is used only to parse formula text it printed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from oracle import FracModel, format_value, from_package, subformulas
from workloads import REFUTED


def _parse(text: str, n: int):
    from gradedpdl.chain import ChainContext
    from gradedpdl.syntax import parse_formula

    return from_package(parse_formula(text, ChainContext(n)))


def read_output(op) -> str | None:
    """The JSON file the op wrote with --out, if it has one."""
    path = op.expect.get("out")
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def check(op, rc, stdout: str, document: str | None) -> list[str]:
    try:
        return _CHECKS[op.kind](op, rc, stdout, document)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _witness_problems(witness: dict, n: int, label: str) -> list[str]:
    model = FracModel(witness["model"])
    value = model.value(_parse(witness["formula"], n), model.names.index(witness["state"]))
    if value != Fraction(witness["value"]) or value >= 1:
        return [f"{label}: witness re-evaluates to {value}, report says {witness['value']}"]
    return []


def _audit(op, rc, stdout, document):
    report = json.loads(document)
    n = op.expect["n"]
    samples = report["config"]["samples"]
    problems = []
    found = False
    for entry in report["schemas"]:
        label = entry["schema"] if entry["variant"] is None else f"{entry['schema']}/{entry['variant']}"
        if entry["verdict"] == "counterexample":
            found = True
            if label not in REFUTED[n]:
                problems.append(f"{label}: counterexample outside the refuted set at n={n}")
            problems += _witness_problems(entry["witness"], n, label)
        elif entry["models_tested"] != samples:
            problems.append(f"{label}: {entry['models_tested']} models tested, budget {samples}")
    for rule in report["rules"]:
        # Box and diamond are monotone, so the rules preserve validity.
        if rule["verdict"] != "no-counterexample-found":
            problems.append(f"{rule['rule']}: validity reported not preserved")
    if rc != (1 if found else 0):
        problems.append(f"exit {rc}, expected {1 if found else 0}")
    if len(stdout.splitlines()) != len(report["schemas"]) + len(report["rules"]):
        problems.append("stdout does not have one line per schema and rule")
    return problems


def _valid(op, rc, stdout, document):
    want = f"no counterexample in {op.expect['samples']} sampled models\n"
    if rc != 0 or stdout != want:
        return [f"exit {rc} with {stdout[:80]!r} on a valid formula"]
    return []


def _equiv(op, rc, stdout, document):
    samples = op.expect["samples"]
    report = json.loads(document)
    if rc != 0 or stdout != f"no difference in {samples} sampled models\n":
        return [f"exit {rc} with {stdout[:80]!r} on equivalent formulas"]
    if report["difference_found"] or report["models_tested"] != samples:
        return ["report disagrees with stdout"]
    return []


def _eval(op, rc, stdout, document):
    model = FracModel(op.expect["model"])
    formula = op.expect["formula"]
    values = [model.value(formula, s) for s in range(model.size)]
    want = "".join(f"{name}: {format_value(v)}\n" for name, v in zip(model.names, values))
    problems = []
    if stdout != want:
        problems.append("values differ from the Fraction evaluator")
    if rc != (0 if all(v == 1 for v in values) else 1):
        problems.append(f"exit {rc} does not match the values")
    return problems


def _closure(op, rc, stdout, document):
    lines = stdout.splitlines()
    members = lines[:-1]
    problems = []
    if rc != 0 or not lines or lines[-1] != f"-- {len(members)} formulas":
        problems.append(f"exit {rc} or a bad count line")
    if members != sorted(set(members)):
        problems.append("members not sorted and distinct")
    closure = {_parse(text, 3) for text in members}
    if not set(subformulas(op.expect["formula"])) <= closure:
        problems.append("a subformula is missing from the closure")
    return problems


def _filtrate(op, rc, stdout, document):
    report = json.loads(document)
    model = FracModel(op.expect["model"])
    gamma = [_parse(row["formula"], 3) for row in report["preservation"]["rows"]]
    problems = []
    if rc != 0 or f"closed set: {len(gamma)} formulas\n" not in stdout:
        problems.append(f"exit {rc} or a bad closed-set line")
    if not set(subformulas(op.expect["formula"])) <= set(gamma):
        problems.append("a subformula is missing from the closed set")
    by_signature: dict[tuple, list[str]] = {}
    for s in range(model.size):
        signature = tuple(model.value(f, s) for f in gamma)
        by_signature.setdefault(signature, []).append(model.names[s])
    classes = sorted(by_signature.values(), key=lambda members: model.names.index(members[0]))
    if [report["classes"][f"c{c}"] for c in range(len(report["classes"]))] != classes:
        problems.append("classes differ from the Fraction evaluator's partition")
    return problems


def _proof(op, rc, stdout, document):
    failed_step = op.expect["failed_step"]
    if failed_step is None:
        if rc != 0 or stdout != f"accepted: {op.expect['steps']} steps\n":
            return [f"valid derivation: exit {rc} with {stdout[:80]!r}"]
        return []
    if rc != 1 or not stdout.startswith(f"rejected at step {failed_step}:"):
        return [f"mutated at step {failed_step}: exit {rc} with {stdout[:80]!r}"]
    return []


_CHECKS = {
    "audit": _audit,
    "valid": _valid,
    "equiv": _equiv,
    "eval": _eval,
    "closure": _closure,
    "filtrate": _filtrate,
    "proof": _proof,
}


def instances(op, stdout: str, document: str | None) -> int:
    """Models and instantiations the op's search tested, from its outputs."""
    if op.kind == "audit":
        report = json.loads(document)
        return sum(e["instantiations_tested"] for e in report["schemas"]) + sum(
            r["models_tested"] for r in report["rules"]
        )
    if op.kind == "equiv":
        return json.loads(document)["models_tested"]
    if op.kind == "valid":
        return op.expect["samples"]
    return 0
