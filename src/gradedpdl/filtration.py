"""Filtration: quotient a model through a finite closed formula set.

States collapse when they agree on the value of every member of the
closed set. The quotient relation for an atomic program at a pair
(class, class set) is the meet, over formulas whose box and diamond
under that program both lie in the closed set, of the sandwich

    (value of the box at the source) -> (meet of the body over targets)
    conjoined with
    (meet of the body over targets) -> (value of the diamond at the source)

at the classes' least members; an empty meet is top. Every input of that
meet, the box, the diamond and the body itself, is a member of the
closed set, on which all members of a class agree, so any other choice
of class members gives the same relation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

from .chain import ChainValue, InputError
from .relations import ReachRelation, StateSpace, mask_states
from .semantics import Model, Plan, compile_plan, subset_meets
from .syntax import (
    Atomic,
    Box,
    Diamond,
    Formula,
    PropVar,
    closure_of_set,
    format_formula,
)


class NotClosedError(InputError):
    """The formula set is not closed."""


Vectors = Mapping[Formula, tuple[int, ...]]


def _sorted_gamma(gamma: Iterable[Formula]) -> list[Formula]:
    return sorted(set(gamma), key=format_formula)


@dataclass
class FiltrationResult:
    quotient: Model
    class_of: tuple[int, ...]  # state -> class index
    classes: tuple[tuple[int, ...], ...]  # class index -> member states, least first
    gamma: frozenset[Formula]
    # The input model, which the checks below read; the closed set's
    # plan, whose roots are its members in printed order; and each
    # member's vector in the model, from one run of that plan.
    # check_preservation runs the same plan in the quotient.
    model: Model = field(compare=False, repr=False)
    plan: Plan = field(compare=False, repr=False)
    vectors: Vectors = field(compare=False, repr=False)


def _box_diamond_pairs(gamma: Iterable[Formula], name: str) -> list[Formula]:
    """Bodies phi with both the box and the diamond of phi under the
    named atomic program in the set."""
    prog = Atomic(name)
    boxes = {f.body for f in gamma if isinstance(f, Box) and f.program == prog}
    diamonds = {f.body for f in gamma if isinstance(f, Diamond) and f.program == prog}
    return sorted(boxes & diamonds, key=format_formula)


Term = tuple[tuple[int, ...], tuple[int, ...], list[int]]


def _terms(
    vectors: Vectors, name: str, bodies: Sequence[Formula], points: Sequence[int], top: int
) -> list[Term]:
    """Per body: the vectors of its box and its diamond under the named
    program, read from ``vectors``, and its ``subset_meets`` table over
    ``points``, the table that box and diamond themselves read, here
    indexed by the bit mask of positions in ``points``."""
    prog = Atomic(name)
    return [
        (
            vectors[Box(prog, body)],
            vectors[Diamond(prog, body)],
            subset_meets(vectors[body], points, top),
        )
        for body in bodies
    ]


def _sandwich(
    terms: Sequence[Term], source: int, mask: int, top: int
) -> tuple[int, Optional[int]]:
    """The meet over the terms of the box/diamond sandwich at (source,
    targets in mask): (box -> body meet) & (body meet -> diamond). Also
    the index of the first term that sets it, None when every term is
    top."""
    acc, first = top, None
    for i, (box, diamond, meets) in enumerate(terms):
        meet = meets[mask]
        term = min(top - box[source] + meet, top - meet + diamond[source])
        if term < acc:
            acc, first = term, i
            if acc == 0:
                break
    return acc, first


def quotient(model: Model, gamma: Iterable[Formula]) -> FiltrationResult:
    """Collapse states that agree on every member of the closed set."""
    gamma_set = frozenset(gamma)
    ctx = model.context
    if closure_of_set(gamma_set, ctx) != gamma_set:
        raise NotClosedError("the formula set is not closed")
    ordered = _sorted_gamma(gamma_set)
    plan = compile_plan(*ordered)
    vectors = dict(zip(ordered, plan.root_values(model)))
    signatures = list(zip(*vectors.values())) or [()] * model.space.size
    by_signature: dict[tuple[int, ...], list[int]] = {}
    for s, signature in enumerate(signatures):
        by_signature.setdefault(signature, []).append(s)
    # first seen, first listed: classes come in least-member order
    index = {signature: c for c, signature in enumerate(by_signature)}
    class_of = tuple(index[signature] for signature in signatures)
    classes = tuple(map(tuple, by_signature.values()))
    reps = [members[0] for members in classes]

    qspace = StateSpace(len(classes))
    top = ctx.top
    atomics: dict[str, ReachRelation] = {}
    for name in sorted(model.atomics):
        terms = _terms(vectors, name, _box_diamond_pairs(gamma_set, name), reps, top)
        entries: dict[tuple[int, int], int] = {}
        for c, rep in enumerate(reps):
            for mask in qspace.subset_masks():
                num, _ = _sandwich(terms, rep, mask, top)
                if num > 0:
                    entries[(c, mask)] = num
        atomics[name] = ReachRelation._unchecked(qspace, ctx, entries)

    valuation = {
        f.name: {c: model.prop_num(f.name, rep) for c, rep in enumerate(reps)}
        for f in gamma_set
        if isinstance(f, PropVar)
    }
    names = tuple(f"c{c}" for c in qspace.states())
    qmodel = Model(ctx, qspace, atomics, valuation, names)
    return FiltrationResult(qmodel, class_of, classes, gamma_set, model, plan, vectors)


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
    result: FiltrationResult, program_name: str, corpus: Iterable[Formula]
) -> Lemma4Report:
    """Check that the quotient relation dominates the corpus meet.

    The model is the one ``result`` quotients.
    For every state s and every target set T, the meet over the whole
    corpus of the box/diamond sandwich at (s, T) must be at most the
    quotient relation value at the corresponding class pair. The corpus
    plays the role of "all formulas": whenever it contains the indexing
    formulas of the quotient, the inequality is forced, because a meet
    over more terms can only be smaller. A violation names the first
    corpus formula, in printed order, whose sandwich sets the meet, or
    None if the meet is top.
    """
    model = result.model
    top = model.context.top
    class_of = result.class_of
    qrel = result.quotient.atomics[program_name]
    bodies = _sorted_gamma(corpus)
    prog = Atomic(program_name)
    formulas = [f for body in bodies for f in (Box(prog, body), Diamond(prog, body), body)]
    vectors = dict(zip(formulas, compile_plan(*formulas).root_values(model)))
    terms = _terms(vectors, program_name, bodies, model.space.states(), top)
    qmasks = [0]  # per target mask, the mask of the targets' classes
    for t in model.space.states():
        qmasks += [qmask | 1 << class_of[t] for qmask in qmasks]
    names = model.state_names
    report = Lemma4Report(program_name, points_checked=model.space.size * len(qmasks))
    for s in model.space.states():
        for mask, qmask in enumerate(qmasks):
            unrestricted, floor = _sandwich(terms, s, mask, top)
            restricted = qrel.num(class_of[s], qmask)
            if unrestricted > restricted:
                targets = mask_states(mask)
                report.violations.append(
                    {
                        "state": names[s],
                        "targets": [names[t] for t in targets],
                        "unrestricted": str(ChainValue(unrestricted, model.context)),
                        "restricted": str(ChainValue(restricted, model.context)),
                        "formula": None if floor is None else format_formula(bodies[floor]),
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


def check_preservation(result: FiltrationResult) -> PreservationReport:
    """Compare each closed-set formula in the model that ``result``
    quotients, as ``result`` holds it, and in the quotient, from one run
    of the closed set's plan.

    This emits an agreement table rather than asserting equality: the
    preservation theorem is proved for the canonical construction, and
    its behaviour on arbitrary explicit models is exactly what this
    report surfaces.
    """
    model = result.model
    in_quotient = result.plan.root_values(result.quotient)
    report = PreservationReport()
    for (f, vector), quotient_vector in zip(result.vectors.items(), in_quotient):
        agreements = 0
        mismatches = []
        for s, original in enumerate(vector):
            quotiented = quotient_vector[result.class_of[s]]
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
