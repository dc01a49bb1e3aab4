"""Models and the graded interpretation of formulas and programs.

A model fixes a chain, a state space, one reachability relation per
atomic program, and a valuation for proposition names. Formula values
at a state and program values at (state, state set) pairs follow the
clauses:

* box:     meet over all target sets T of  R(s,T) -> meet_{t in T} value(body, t)
* diamond: join over all target sets T of  R(s,T) (*) meet_{t in T} value(body, t)

with the empty meet at top, so a relation's mass on the empty set is
vacuous for box and counts as success for diamond.

``compile_plan`` turns formulas and programs into a ``Plan`` once: one
slot per distinct subterm, in post-order, each slot an opcode and the
slots of its operands. ``Plan.run`` is the one interpreter: a loop over
the slots that fills in a formula's vector of numerators over all states
of a model, or a program's relation, with no recursion and no lookup
keyed by formula. A search that evaluates one formula in many models
compiles it once and runs the plan per model. Box and diamond read the
meets of the body from one table, ``subset_meets``, indexed by target
mask, so each relation entry costs one lookup; filtration reads the same
table. ``Evaluator`` is a per-model memo over the same runner, for terms
asked for one at a time.
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
    children,
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


# A plan step is (opcode, a, b), the opcode being the node's class: a
# leaf's a is its name or constant and b None; a compound node's a and b
# are the slots of its children in constructor order, b None for one child.
_OPCODES = frozenset(
    {PropVar, Constant, And, Or, Implies, Box, Diamond, Atomic, PUnion, Seq, Inter, Star, Test}
)


class Plan:
    """Formulas and programs compiled for evaluation in any model.

    One slot per distinct subterm, in post-order, so every child's slot
    comes before its parent's and a box or diamond's program before its
    body. ``nodes`` holds a subterm per slot, ``steps`` its (opcode,
    operand, operand) step, and ``roots`` the slot of each compiled term,
    in the order given.
    """

    __slots__ = ("nodes", "steps", "roots")

    def __init__(self, nodes: tuple, steps: tuple, roots: tuple[int, ...]):
        self.nodes = nodes
        self.steps = steps
        self.roots = roots

    def run(self, model: Model, values: Optional[list] = None) -> list:
        """Every slot's value in ``model``: a formula's vector of
        numerators over the states, in state order, or a program's
        relation. Slots that ``values`` already fills are kept, and the
        list is filled in place and returned."""
        if values is None:
            values = [None] * len(self.steps)
        ctx = model.context
        top = ctx.top
        space = model.space
        size = space.size
        states = space.states()
        for slot, (op, a, b) in enumerate(self.steps):
            if values[slot] is not None:
                continue
            if op is PropVar:
                row = model.valuation.get(a)
                value = tuple([row.get(s, 0) for s in states]) if row else (0,) * size
            elif op is Atomic:
                value = model.atomics.get(a)
                if value is None:
                    logger.warning("unknown atomic program %r treated as the empty relation", a)
                    value = zero_relation(space, ctx)
            elif op is Implies:
                value = tuple([
                    top if left <= right else top - left + right
                    for left, right in zip(values[a], values[b])
                ])
            elif op is Box:
                meets = subset_meets(values[b], states, top)
                # out starts at top, which caps the implication
                out = [top] * size
                for (src, mask), rval in values[a].entries.items():
                    val = top - rval + meets[mask]
                    if val < out[src]:
                        out[src] = val
                value = tuple(out)
            elif op is Diamond:
                meets = subset_meets(values[b], states, top)
                out = [0] * size
                for (src, mask), rval in values[a].entries.items():
                    val = rval + meets[mask] - top
                    if val > out[src]:
                        out[src] = val
                value = tuple(out)
            elif op is And:
                value = tuple(map(min, values[a], values[b]))
            elif op is Or:
                value = tuple(map(max, values[a], values[b]))
            elif op is Constant:
                if a.context != ctx:
                    raise ChainMismatchError(
                        f"constant {a} belongs to a chain of order "
                        f"{a.context.n}, model uses {ctx.n}"
                    )
                value = (a.numerator,) * size
            elif op is Seq:
                value = compose(values[a], values[b])
            elif op is PUnion:
                value = union(values[a], values[b])
            elif op is Inter:
                value = parallel(values[a], values[b])
            elif op is Star:
                value = star(values[a])
            else:  # Test
                entries = {(s, 1 << s): num for s, num in enumerate(values[a]) if num > 0}
                value = ReachRelation._unchecked(space, ctx, entries)
            values[slot] = value
        return values

    def root_values(self, model: Model) -> list:
        """The value in ``model`` of each compiled term, in order."""
        values = self.run(model)
        return [values[root] for root in self.roots]


def compile_plan(*terms: Formula | Program) -> Plan:
    """The plan of ``terms``, whose roots are their slots in that order.

    The walk keeps its own stack, so a term of any depth compiles. Equal
    subterms share a slot: a step is keyed by its opcode and its
    children's slots, so no subterm is hashed or compared as a tree.
    """
    nodes: list = []
    steps: list[tuple] = []
    slot_of_step: dict[tuple, int] = {}
    slot_of_node: dict[int, int] = {}  # by id; each term keeps its nodes alive
    roots = []
    for term in terms:
        stack = [(term, None)]
        while stack:
            node, kids = stack.pop()
            if id(node) in slot_of_node:
                continue
            if kids is None:
                kids = children(node)
                if kids:
                    stack.append((node, kids))
                    stack.extend((kid, None) for kid in reversed(kids))
                    continue
            op = type(node)
            if op not in _OPCODES:
                raise TypeError(f"not a formula or program: {node!r}")
            if not kids:
                step = (op, node.value if op is Constant else node.name, None)
            elif len(kids) == 1:
                step = (op, slot_of_node[id(kids[0])], None)
            else:
                step = (op, slot_of_node[id(kids[0])], slot_of_node[id(kids[1])])
            slot = slot_of_step.setdefault(step, len(steps))
            if slot == len(steps):
                nodes.append(node)
                steps.append(step)
            slot_of_node[id(node)] = slot
        roots.append(slot_of_node[id(term)])
    return Plan(tuple(nodes), tuple(steps), tuple(roots))


class Evaluator:
    """Memo of one model's values, for terms asked for one at a time.

    A term not yet known is compiled and its plan run, with every
    subterm already known filled in from the memo; every slot's value is
    then kept. A formula's value is its vector of numerators over all
    states, a program's its relation. A memo belongs to a single
    evaluation session; build a fresh one to re-derive values from
    scratch. A search that evaluates one term in many models runs its
    ``Plan`` directly instead.
    """

    def __init__(self, model: Model):
        self.model = model
        self._values: dict = {}
        # id of each term asked for -> (term, value); holding the term
        # keeps its id from being reused, so a repeated question is
        # answered without compiling the term again
        self._asked: dict[int, tuple] = {}

    def _value(self, term: Formula | Program):
        asked = self._asked.get(id(term))
        if asked is None:
            # post-order, so hashing a node finds its children's hashes cached
            plan = compile_plan(term)
            memo = self._values
            values = plan.run(self.model, [memo.get(node) for node in plan.nodes])
            memo.update(zip(plan.nodes, values))
            asked = self._asked[id(term)] = (term, values[plan.roots[0]])
        return asked[1]

    def relation(self, program: Program) -> ReachRelation:
        return self._value(program)

    def value_num(self, formula: Formula, s: int) -> int:
        return self.vector(formula)[s]

    def vector(self, formula: Formula) -> tuple[int, ...]:
        """The formula's numerator at every state, in state order."""
        return self._value(formula)


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


def valid_in_model(
    model: Model, formula: Formula | Plan
) -> tuple[bool, Optional[Refutation]]:
    """True iff the formula, or the first root of a plan, takes the top
    value at every state; otherwise the first state below top refutes it."""
    plan = formula if isinstance(formula, Plan) else compile_plan(formula)
    top = model.context.top
    for s, num in enumerate(plan.root_values(model)[0]):
        if num < top:
            value = ChainValue(num, model.context)
            return False, Refutation(s, model.state_names[s], value)
    return True, None
