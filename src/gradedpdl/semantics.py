"""Models and the graded interpretation of formulas and programs.

A model fixes a chain, a state space, one reachability relation per
atomic program, and a valuation for proposition names. Formula values
at a state and program values at (state, state set) pairs follow the
clauses:

* box:     meet over all target sets T of  R(s,T) -> meet_{t in T} value(body, t)
* diamond: join over all target sets T of  R(s,T) (*) meet_{t in T} value(body, t)

with the empty meet at top, so a relation's mass on the empty set is
vacuous for box and counts as success for diamond.

``Evaluator`` computes a formula at all states of the model at once and
memoizes the vector of numerators. Box and diamond read the meets of
the body from one table, ``subset_meets``, indexed by target mask, so
each relation entry costs one lookup; filtration reads the same table.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .chain import ChainContext, ChainMismatchError, ChainValue
from .relations import (
    ReachRelation,
    StateSpace,
    StateSetLike,
    compose,
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


@functools.lru_cache(maxsize=None)
def _default_state_names(size: int) -> tuple[str, ...]:
    """``s0``, ``s1``, ... for a space of the given size."""
    return tuple(f"s{i}" for i in range(size))


def subset_meets(vector: Sequence[int], points: Sequence[int], top: int) -> list[int]:
    """The meet of ``vector`` over each subset of ``points``, indexed by
    the bit mask of positions in ``points``; the empty meet is top."""
    meets = [top]
    for point in points:
        value = vector[point]
        meets += [meet if meet < value else value for meet in meets]
    return meets


class Model:
    """A finite graded model.

    ``atomics`` maps atomic program names to relations; ``valuation``
    maps proposition names to per-state numerators (absent means bottom).
    Atomic-program names and proposition names live in separate
    namespaces, so the same name may appear in both maps. The
    constructor checks that every relation lives on the model's space
    and chain and every valuation entry on its states and chain, and
    drops zero entries; the sampler, whose parts hold this by
    construction, builds its models with ``_unchecked``.
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
            state_names = _default_state_names(space.size)
        if len(state_names) != space.size:
            raise ValueError("state_names length must match the space size")
        self.state_names = tuple(state_names)

    @classmethod
    def _unchecked(
        cls,
        context: ChainContext,
        space: StateSpace,
        atomics: dict[str, ReachRelation],
        valuation: dict[str, dict[int, int]],
    ) -> "Model":
        """Wrap parts that already hold the constructor's invariants:
        relations on this space and chain, valuation rows without zeros
        and inside the space and chain. States get the default names.
        Takes ownership of the dicts."""
        model = object.__new__(cls)
        model.context = context
        model.space = space
        model.atomics = atomics
        model.valuation = valuation
        model.state_names = _default_state_names(space.size)
        return model

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

    Caches the materialized relation of every compound program and, for
    every formula, one vector of numerators over all states: the formula
    is evaluated at every state at once, the first time any state asks.
    Propositional clauses combine the operands' vectors element-wise.
    Box and diamond take the body's meet over every target set from
    ``subset_meets`` and fold each relation entry into its source state's
    value. A cache belongs to a single evaluation session; build a fresh
    one to re-derive values from scratch.
    """

    def __init__(self, model: Model):
        self.model = model
        self._relations: dict[Program, ReachRelation] = {}
        self._vectors: dict[Formula, tuple[int, ...]] = {}

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
            vector = self.vector(program.condition)
            entries = {(s, 1 << s): num for s, num in enumerate(vector) if num > 0}
            rel = ReachRelation._unchecked(model.space, model.context, entries)
        else:
            raise TypeError(f"not a program: {program!r}")
        self._relations[program] = rel
        return rel

    def value_num(self, formula: Formula, s: int) -> int:
        return self.vector(formula)[s]

    def vector(self, formula: Formula) -> tuple[int, ...]:
        """The formula's numerator at every state, in state order."""
        cached = self._vectors.get(formula)
        if cached is not None:
            return cached
        model = self.model
        top = model.context.top
        if isinstance(formula, PropVar):
            row = model.valuation.get(formula.name, {})
            vector = tuple(row.get(s, 0) for s in model.space.states())
        elif isinstance(formula, Constant):
            if formula.value.context != model.context:
                raise ChainMismatchError(
                    f"constant {formula.value} belongs to a chain of order "
                    f"{formula.value.context.n}, model uses {model.context.n}"
                )
            vector = (formula.value.numerator,) * model.space.size
        elif isinstance(formula, And):
            vector = tuple(map(min, self.vector(formula.left), self.vector(formula.right)))
        elif isinstance(formula, Or):
            vector = tuple(map(max, self.vector(formula.left), self.vector(formula.right)))
        elif isinstance(formula, Implies):
            vector = tuple(
                min(top, top - a + b)
                for a, b in zip(self.vector(formula.left), self.vector(formula.right))
            )
        elif isinstance(formula, Box):
            entries = self.relation(formula.program).entries
            meets = subset_meets(self.vector(formula.body), model.space.states(), top)
            # out starts at top, which caps the implication
            out = [top] * model.space.size
            for (src, mask), rval in entries.items():
                val = top - rval + meets[mask]
                if val < out[src]:
                    out[src] = val
            vector = tuple(out)
        elif isinstance(formula, Diamond):
            entries = self.relation(formula.program).entries
            meets = subset_meets(self.vector(formula.body), model.space.states(), top)
            out = [0] * model.space.size
            for (src, mask), rval in entries.items():
                val = rval + meets[mask] - top
                if val > out[src]:
                    out[src] = val
            vector = tuple(out)
        else:
            raise TypeError(f"not a formula: {formula!r}")
        self._vectors[formula] = vector
        return vector


def eval_formula(model: Model, formula: Formula, state: int) -> ChainValue:
    return ChainValue(Evaluator(model).value_num(formula, state), model.context)


def eval_program(
    model: Model, program: Program, state: int, target: StateSetLike
) -> ChainValue:
    return Evaluator(model).relation(program).value(state, target)


@dataclass(frozen=True)
class Refutation:
    """Lowest-index state whose value falls short of top."""

    state: int
    state_name: str
    value: ChainValue


def valid_in_model(model: Model, formula: Formula) -> tuple[bool, Optional[Refutation]]:
    """True iff the formula takes the top value at every state; otherwise
    the first state below top refutes it."""
    top = model.context.top
    for s, num in enumerate(Evaluator(model).vector(formula)):
        if num < top:
            value = ChainValue(num, model.context)
            return False, Refutation(s, model.state_names[s], value)
    return True, None
