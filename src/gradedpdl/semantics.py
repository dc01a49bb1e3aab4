"""Models and the graded interpretation of formulas and programs.

A model fixes a chain, a state space, one reachability relation per
atomic program, and a valuation for proposition names. Formula values
at a state and program values at (state, state set) pairs follow the
clauses:

* box:     meet over all target sets T of  R(s,T) -> meet_{t in T} value(body, t)
* diamond: join over all target sets T of  R(s,T) (*) meet_{t in T} value(body, t)

with the empty meet at top, so a relation's mass on the empty set is
vacuous for box and counts as success for diamond.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional

from .chain import ChainContext, ChainMismatchError, ChainValue
from .relations import (
    ReachRelation,
    StateSpace,
    StateSetLike,
    compose,
    mask_states,
    parallel,
    star,
    union,
    zero_relation,
)
from .syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Formula,
    Implies,
    Inter,
    Or,
    Program,
    PropVar,
    Seq,
    Star,
    Test,
    Union as PUnion,
)

logger = logging.getLogger(__name__)


class Model:
    """A finite graded model.

    ``atomics`` maps atomic program names to relations; ``valuation``
    maps proposition names to per-state numerators (absent means bottom).
    Atomic-program names and proposition names live in separate
    namespaces, so the same name may appear in both maps.
    """

    __slots__ = ("context", "space", "atomics", "valuation", "state_names")

    def __init__(
        self,
        context: ChainContext,
        space: StateSpace,
        atomics: Mapping[str, ReachRelation] | None = None,
        valuation: Mapping[str, Mapping[int, int]] | None = None,
        state_names: tuple[str, ...] | None = None,
    ):
        self.context = context
        self.space = space
        self.atomics = dict(atomics or {})
        for name, rel in self.atomics.items():
            if rel.space != space:
                raise ValueError(f"relation {name!r} lives on a different state space")
            if rel.context != context:
                raise ChainMismatchError(f"relation {name!r} uses a different chain")
        table: dict[str, dict[int, int]] = {}
        for name, per_state in (valuation or {}).items():
            row = {}
            for s, num in per_state.items():
                if not 0 <= s < space.size:
                    raise ValueError(f"state {s} outside space of size {space.size}")
                if not 0 <= num <= context.top:
                    raise ValueError(f"numerator {num} outside chain of order {context.n}")
                if num > 0:
                    row[s] = num
            table[name] = row
        self.valuation = table
        if state_names is None:
            state_names = tuple(f"s{i}" for i in space.states())
        if len(state_names) != space.size:
            raise ValueError("state_names length must match the space size")
        self.state_names = tuple(state_names)

    def prop_num(self, name: str, s: int) -> int:
        return self.valuation.get(name, {}).get(s, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.context == other.context
            and self.space == other.space
            and self.state_names == other.state_names
            and self.atomics == other.atomics
            and {k: v for k, v in self.valuation.items() if v}
            == {k: v for k, v in other.valuation.items() if v}
        )

    def __repr__(self) -> str:
        return (
            f"Model(n={self.context.n}, states={list(self.state_names)}, "
            f"programs={sorted(self.atomics)}, props={sorted(self.valuation)})"
        )


class Evaluator:
    """Memoizing interpreter for one model.

    Caches the materialized relation of every compound program and the
    value of every (formula, state) pair. A cache belongs to a single
    evaluation session; build a fresh one to re-derive values from
    scratch.
    """

    def __init__(self, model: Model):
        self.model = model
        self._relations: dict[Program, ReachRelation] = {}
        self._values: dict[tuple[Formula, int], int] = {}

    def relation(self, program: Program) -> ReachRelation:
        cached = self._relations.get(program)
        if cached is not None:
            return cached
        model = self.model
        if isinstance(program, Atomic):
            rel = model.atomics.get(program.name)
            if rel is None:
                logger.warning(
                    "unknown atomic program %r treated as the empty relation",
                    program.name,
                )
                rel = zero_relation(model.space, model.context)
        elif isinstance(program, PUnion):
            rel = union(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Seq):
            rel = compose(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Inter):
            rel = parallel(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Star):
            rel = star(self.relation(program.body))
        elif isinstance(program, Test):
            entries = {}
            for s in model.space.states():
                num = self.value_num(program.condition, s)
                if num > 0:
                    entries[(s, 1 << s)] = num
            rel = ReachRelation(model.space, model.context, entries)
        else:
            raise TypeError(f"not a program: {program!r}")
        self._relations[program] = rel
        return rel

    def value_num(self, formula: Formula, s: int) -> int:
        key = (formula, s)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        model = self.model
        top = model.context.top
        if isinstance(formula, PropVar):
            num = model.prop_num(formula.name, s)
        elif isinstance(formula, Constant):
            if formula.value.context != model.context:
                raise ChainMismatchError(
                    f"constant {formula.value} belongs to a chain of order "
                    f"{formula.value.context.n}, model uses {model.context.n}"
                )
            num = formula.value.numerator
        elif isinstance(formula, And):
            num = min(self.value_num(formula.left, s), self.value_num(formula.right, s))
        elif isinstance(formula, Or):
            num = max(self.value_num(formula.left, s), self.value_num(formula.right, s))
        elif isinstance(formula, Implies):
            num = min(
                top,
                top - self.value_num(formula.left, s) + self.value_num(formula.right, s),
            )
        elif isinstance(formula, Box):
            rel = self.relation(formula.program)
            num = top
            for (src, mask), rval in rel.entries.items():
                if src != s:
                    continue
                body = top
                for t in mask_states(mask):
                    body = min(body, self.value_num(formula.body, t))
                    if body == 0:
                        break
                num = min(num, min(top, top - rval + body))
                if num == 0:
                    break
        elif isinstance(formula, Diamond):
            rel = self.relation(formula.program)
            num = 0
            for (src, mask), rval in rel.entries.items():
                if src != s:
                    continue
                body = top
                for t in mask_states(mask):
                    body = min(body, self.value_num(formula.body, t))
                    if body == 0:
                        break
                num = max(num, max(0, rval + body - top))
                if num == top:
                    break
        else:
            raise TypeError(f"not a formula: {formula!r}")
        self._values[key] = num
        return num


def eval_formula(
    model: Model, formula: Formula, state: int, evaluator: Optional[Evaluator] = None
) -> ChainValue:
    ev = evaluator or Evaluator(model)
    return ChainValue(ev.value_num(formula, state), model.context)


def eval_program(
    model: Model,
    program: Program,
    state: int,
    target: StateSetLike,
    evaluator: Optional[Evaluator] = None,
) -> ChainValue:
    ev = evaluator or Evaluator(model)
    return ev.relation(program).value(state, target)


@dataclass(frozen=True)
class Refutation:
    """Lowest-index state whose value falls short of top."""

    state: int
    state_name: str
    value: ChainValue


def valid_in_model(
    model: Model, formula: Formula, evaluator: Optional[Evaluator] = None
) -> tuple[bool, Optional[Refutation]]:
    """True iff the formula takes the top value at every state."""
    ev = evaluator or Evaluator(model)
    for s in model.space.states():
        num = ev.value_num(formula, s)
        if num < model.context.top:
            value = ChainValue(num, model.context)
            return False, Refutation(s, model.state_names[s], value)
    return True, None
