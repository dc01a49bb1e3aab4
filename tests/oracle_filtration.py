"""The filtration that ``filtration`` replaced, kept as a test-only
reference.

``reference_quotient``, ``reference_check_lemma4`` and
``reference_check_preservation`` are the package's ``quotient``,
``check_lemma4`` and ``check_preservation`` before they read the
evaluator's value vectors. They ask for one numerator per (formula,
state), build a fresh box and diamond node for every (state, target set,
body) cell, write the box/diamond sandwich loop once per caller, and the
quotient builds every relation a second time from maximal-index class
representatives, recording a warning if the two differ. Their numerators
come from ``oracle_semantics.PointwiseEvaluator``, so the reference runs
none of the package's plans.

The differential test asserts that the package's functions give the same
classes, quotient models and reports.
"""

from dataclasses import dataclass, field
from typing import Any, Optional

from gradedpdl.chain import ChainValue
from gradedpdl.filtration import Lemma4Report, NotClosedError, PreservationReport
from gradedpdl.relations import ReachRelation, StateSpace, mask_states
from gradedpdl.semantics import Model
from gradedpdl.syntax import (
    Atomic,
    Box,
    Diamond,
    Formula,
    PropVar,
    closure_of_set,
    format_formula,
)
from oracle_semantics import PointwiseEvaluator


def _sorted_gamma(gamma):
    return sorted(set(gamma), key=format_formula)


@dataclass
class ReferenceResult:
    quotient: Model
    class_of: tuple
    classes: tuple
    representatives: tuple  # class index -> minimal member
    gamma: frozenset
    evaluator: PointwiseEvaluator = field(compare=False, repr=False)
    warnings: tuple = ()


def _model_evaluator(model, result):
    if result.evaluator.model != model:
        raise ValueError("the filtration result was computed from a different model")
    return result.evaluator


def _signature(evaluator, gamma, s):
    return tuple(evaluator.value_num(f, s) for f in gamma)


def _box_diamond_pairs(gamma, name):
    boxes = set()
    diamonds = set()
    for f in gamma:
        if isinstance(f, Box) and f.program == Atomic(name):
            boxes.add(f.body)
        elif isinstance(f, Diamond) and f.program == Atomic(name):
            diamonds.add(f.body)
    return sorted(boxes & diamonds, key=format_formula)


def _sandwich(evaluator, prog, body, source, targets, top):
    body_meet = top
    for t in targets:
        body_meet = min(body_meet, evaluator.value_num(body, t))
    box_val = evaluator.value_num(Box(prog, body), source)
    dia_val = evaluator.value_num(Diamond(prog, body), source)
    return min(top, top - box_val + body_meet, top - body_meet + dia_val)


def _gamma_meet(evaluator, name, bodies, source, targets, top):
    acc = top
    prog = Atomic(name)
    for body in bodies:
        acc = min(acc, _sandwich(evaluator, prog, body, source, targets, top))
        if acc == 0:
            break
    return acc


def reference_quotient(model, gamma):
    gamma_set = frozenset(gamma)
    ctx = model.context
    if closure_of_set(gamma_set, ctx) != gamma_set:
        raise NotClosedError("the formula set is not closed")
    ordered = _sorted_gamma(gamma_set)
    evaluator = PointwiseEvaluator(model)

    by_signature = {}
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

    def relation_for(name, bodies, reps):
        entries = {}
        for c in qspace.states():
            for mask in qspace.subset_masks():
                targets = [reps[d] for d in mask_states(mask)]
                num = _gamma_meet(evaluator, name, bodies, reps[c], targets, top)
                if num > 0:
                    entries[(c, mask)] = num
        return ReachRelation(qspace, ctx, entries)

    warnings = []
    atomics = {}
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

    valuation = {}
    for f in gamma_set:
        if isinstance(f, PropVar):
            valuation[f.name] = {
                c: model.prop_num(f.name, reps_min[c]) for c in qspace.states()
            }

    names = tuple(f"c{c}" for c in qspace.states())
    qmodel = Model(ctx, qspace, atomics, valuation, names)
    return ReferenceResult(
        qmodel, class_of, classes, reps_min, gamma_set, evaluator, tuple(warnings)
    )


def reference_check_lemma4(model, result, program_name, corpus):
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


def reference_check_preservation(model, result):
    evaluator = _model_evaluator(model, result)
    q_evaluator = PointwiseEvaluator(result.quotient)
    report = PreservationReport()
    for f in _sorted_gamma(result.gamma):
        agreements = 0
        mismatches: list[dict[str, Any]] = []
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
