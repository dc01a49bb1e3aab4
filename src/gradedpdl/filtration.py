"""Filtration: quotient a model through a finite closed formula set.

States collapse when they agree on the value of every member of the
closed set. The quotient relation for an atomic program at a pair
(class, class set) is the meet, over formulas whose box and diamond
under that program both lie in the closed set, of

    (value of the box at the source) -> (meet of the body over targets)
    conjoined with
    (meet of the body over targets) -> (value of the diamond at the source)

computed from minimal-index class representatives; an empty meet is top.
Because every indexing formula lies in the closed set itself, class
members agree on all the inputs, so the construction cannot depend on
the representatives; the quotient recomputes with maximal-index
representatives anyway and flags any discrepancy as a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

from .chain import ChainValue
from .relations import ReachRelation, StateSpace, mask_states
from .semantics import Evaluator, Model
from .syntax import (
    Atomic,
    Box,
    Diamond,
    Formula,
    PropVar,
    closure_of_set,
    format_formula,
)


class NotClosedError(ValueError):
    """The formula set is not closed."""


def _sorted_gamma(gamma: Iterable[Formula]) -> list[Formula]:
    return sorted(set(gamma), key=format_formula)


@dataclass
class FiltrationResult:
    quotient: Model
    class_of: tuple[int, ...]  # state -> class index
    classes: tuple[tuple[int, ...], ...]  # class index -> member states
    representatives: tuple[int, ...]  # class index -> minimal member
    gamma: frozenset[Formula]
    # The input model's evaluator; it already holds every closed-set value
    # at every state, which the checks below reuse.
    evaluator: Evaluator = field(compare=False, repr=False)
    warnings: tuple[str, ...] = ()


def _model_evaluator(model: Model, result: FiltrationResult) -> Evaluator:
    if result.evaluator.model != model:
        raise ValueError("the filtration result was computed from a different model")
    return result.evaluator


def _signature(evaluator: Evaluator, gamma: Sequence[Formula], s: int) -> tuple[int, ...]:
    return tuple(evaluator.value_num(f, s) for f in gamma)


def _box_diamond_pairs(gamma: Iterable[Formula], name: str) -> list[Formula]:
    """Bodies phi with both the box and the diamond of phi under the
    named atomic program in the set."""
    boxes = set()
    diamonds = set()
    for f in gamma:
        if isinstance(f, Box) and f.program == Atomic(name):
            boxes.add(f.body)
        elif isinstance(f, Diamond) and f.program == Atomic(name):
            diamonds.add(f.body)
    return sorted(boxes & diamonds, key=format_formula)


def _sandwich(
    evaluator: Evaluator,
    prog: Atomic,
    body: Formula,
    source: int,
    targets: Sequence[int],
    top: int,
) -> int:
    """The box/diamond sandwich of one body at (source, targets):
    (box -> meet of the body over targets) & (that meet -> diamond)."""
    body_meet = top
    for t in targets:
        body_meet = min(body_meet, evaluator.value_num(body, t))
    box_val = evaluator.value_num(Box(prog, body), source)
    dia_val = evaluator.value_num(Diamond(prog, body), source)
    return min(top, top - box_val + body_meet, top - body_meet + dia_val)


def _gamma_meet(
    evaluator: Evaluator,
    name: str,
    bodies: Sequence[Formula],
    source: int,
    targets: Sequence[int],
    top: int,
) -> int:
    """The defining meet at one (source state, target states) pair."""
    acc = top
    prog = Atomic(name)
    for body in bodies:
        acc = min(acc, _sandwich(evaluator, prog, body, source, targets, top))
        if acc == 0:
            break
    return acc


def quotient(model: Model, gamma: Iterable[Formula]) -> FiltrationResult:
    """Collapse states that agree on every member of the closed set."""
    gamma_set = frozenset(gamma)
    ctx = model.context
    if closure_of_set(gamma_set, ctx) != gamma_set:
        raise NotClosedError("the formula set is not closed")
    ordered = _sorted_gamma(gamma_set)
    evaluator = Evaluator(model)

    by_signature: dict[tuple[int, ...], list[int]] = {}
    for s in model.space.states():
        by_signature.setdefault(_signature(evaluator, ordered, s), []).append(s)
    classes = tuple(
        tuple(members) for members in sorted(by_signature.values(), key=lambda ms: ms[0])
    )
    class_of_list = [0] * model.space.size
    for c, members in enumerate(classes):
        for s in members:
            class_of_list[s] = c
    class_of = tuple(class_of_list)
    reps_min = tuple(members[0] for members in classes)
    reps_max = tuple(members[-1] for members in classes)

    qspace = StateSpace(len(classes))
    top = ctx.top

    def relation_for(
        name: str, bodies: list[Formula], reps: tuple[int, ...]
    ) -> ReachRelation:
        entries: dict[tuple[int, int], int] = {}
        for c in qspace.states():
            for mask in qspace.subset_masks():
                targets = [reps[d] for d in mask_states(mask)]
                num = _gamma_meet(evaluator, name, bodies, reps[c], targets, top)
                if num > 0:
                    entries[(c, mask)] = num
        return ReachRelation(qspace, ctx, entries)

    warnings: list[str] = []
    atomics: dict[str, ReachRelation] = {}
    for name in sorted(model.atomics):
        bodies = _box_diamond_pairs(gamma_set, name)
        rel = relation_for(name, bodies, reps_min)
        if reps_max != reps_min:
            alt = relation_for(name, bodies, reps_max)
            if alt != rel:
                warnings.append(
                    f"relation {name!r} depends on the choice of class representatives"
                )
        atomics[name] = rel

    valuation: dict[str, dict[int, int]] = {}
    for f in gamma_set:
        if isinstance(f, PropVar):
            valuation[f.name] = {
                c: model.prop_num(f.name, reps_min[c]) for c in qspace.states()
            }

    names = tuple(f"c{c}" for c in qspace.states())
    qmodel = Model(ctx, qspace, atomics, valuation, names)
    return FiltrationResult(
        qmodel, class_of, classes, reps_min, gamma_set, evaluator, tuple(warnings)
    )


# -- the computable inequality check ---------------------------------------------


@dataclass
class Lemma4Report:
    program: str
    points_checked: int
    violations: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "program": self.program,
            "points_checked": self.points_checked,
            "violations": self.violations,
        }


def check_lemma4(
    model: Model,
    result: FiltrationResult,
    program_name: str,
    corpus: Iterable[Formula],
) -> Lemma4Report:
    """Check that the quotient relation dominates the corpus meet.

    ``result`` is the quotient of ``model``. For every state s and every
    target set T, the meet over the whole corpus of the box/diamond
    sandwich at (s, T) must be at most the quotient relation value at the
    corresponding class pair. The corpus plays the role of "all
    formulas": whenever it contains the indexing formulas of the
    quotient, the inequality is forced, because a meet over more terms
    can only be smaller.
    """
    evaluator = _model_evaluator(model, result)
    top = model.context.top
    corpus_list = _sorted_gamma(corpus)
    prog = Atomic(program_name)
    qrel = result.quotient.atomics[program_name]
    report = Lemma4Report(program=program_name, points_checked=0)
    for s in model.space.states():
        for mask in model.space.subset_masks():
            targets = mask_states(mask)
            unrestricted = top
            floor_formula: Optional[Formula] = None
            for body in corpus_list:
                term = _sandwich(evaluator, prog, body, s, targets, top)
                if term < unrestricted:
                    unrestricted = term
                    floor_formula = body
            qmask = 0
            for t in targets:
                qmask |= 1 << result.class_of[t]
            restricted = qrel.num(result.class_of[s], qmask)
            report.points_checked += 1
            if unrestricted > restricted:
                report.violations.append(
                    {
                        "state": model.state_names[s],
                        "targets": [model.state_names[t] for t in targets],
                        "unrestricted": str(ChainValue(unrestricted, model.context)),
                        "restricted": str(ChainValue(restricted, model.context)),
                        "formula": format_formula(floor_formula) if floor_formula else None,
                    }
                )
    return report


# -- value preservation report -----------------------------------------------------


@dataclass
class PreservationReport:
    rows: list[dict[str, Any]] = field(default_factory=list)

    @property
    def all_agree(self) -> bool:
        return all(row["agreements"] == row["states"] for row in self.rows)

    def to_json(self) -> dict[str, Any]:
        return {"rows": self.rows}


def check_preservation(model: Model, result: FiltrationResult) -> PreservationReport:
    """Compare each closed-set formula in the model and in its quotient
    ``result``.

    This emits an agreement table rather than asserting equality: the
    preservation theorem is proved for the canonical construction, and
    its behaviour on arbitrary explicit models is exactly what this
    report surfaces.
    """
    evaluator = _model_evaluator(model, result)
    q_evaluator = Evaluator(result.quotient)
    report = PreservationReport()
    for f in _sorted_gamma(result.gamma):
        agreements = 0
        mismatches = []
        for s in model.space.states():
            original = evaluator.value_num(f, s)
            quotiented = q_evaluator.value_num(f, result.class_of[s])
            if original == quotiented:
                agreements += 1
            else:
                mismatches.append(
                    {
                        "state": model.state_names[s],
                        "in_model": str(ChainValue(original, model.context)),
                        "in_quotient": str(ChainValue(quotiented, model.context)),
                    }
                )
        report.rows.append(
            {
                "formula": format_formula(f),
                "states": model.space.size,
                "agreements": agreements,
                "mismatches": mismatches,
            }
        )
    return report
