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
compiles it once and runs the plan per model. Box and diamond fold a
relation's entries against a table slot indexed by target mask, so each
entry costs one lookup: ``subset_meets``, the meets of the body, for a
plain modality; filtration reads the same table.

Exact rewrites keep a modality from composing the ';' steps of its
program or building the relation of a '^' in it, since the clauses read
a relation only through its meets over target sets.

* ``[l;q]phi`` and ``<l;q>phi`` fold ``l``'s entries against a table
  made from ``q``'s rows and the meets ``m`` of the body, so ``l;q`` is
  never materialised. Composition joins, over the members u of an
  intermediate set U, one row ``q(u, T_u)`` each, and the meet over the
  union of the T_u is the least of their meets. So the box table is
  ``G[U] = sum_u (top - qmax(u)) + min_u (qmax(u) + min_T (m(T) - q(u,T)))``:
  every member takes its largest row but one, which takes the row that
  lowers the meet most for its cost. The diamond table is
  ``H[U] = max_theta (theta + sum_u (up_theta(u) - top))``, where
  ``up_theta(u)`` is u's largest row whose meet is at least theta, and
  theta ranges over the meets of ``q``'s rows; ``H[empty] = top``.
  Products are summed unclipped: a family whose product reaches bottom
  gives a box term at or above top and a diamond term at or below bottom,
  which neither fold keeps.
* The rewrite covers the whole left spine of a chain: under a box or
  diamond, ``((l1;l2);...;lk);q`` folds ``l1``'s entries against one
  table per level, and ``l1;...;lk`` is never built either. ``q``'s table
  is G or H above; each inner level l_j adds
  ``G'[U] = min_T (top - best_U[T] + G[T])`` for box and
  ``H'[U] = max_T (best_U[T] + H[T] - top)`` for diamond, with G or H
  the table of the level outside it and best_U l_j's product tables
  (``relations._product_table``). This is exact because composition is
  a join over intermediate sets, and then over families of rows, so the
  join over the sets U of one level moves into the next level's table.
  The tables follow the chain's own grouping, as ';' is not associative.
  An inner level cannot use the closed form of the outer one: that form
  rests on the body's meet of a union being the least of the parts'
  meets, and G is not a meet over unions (G[T1 | T2] need not be the
  least of G[T1] and G[T2]), so a level joins over the unions T that
  best_U reaches. A level's table is filled per U on first
  read, so it builds product tables only for the sets the fold reaches.
* ``[a+b]phi`` is the meet of ``[a]phi`` and ``[b]phi``, and ``<a+b>phi``
  the join of ``<a>phi`` and ``<b>phi``: implication is antitone in its
  first argument and strong conjunction monotone, and a union's entries
  are the larger of its operands'.
* A box or diamond over a '^' among the '+' nodes at the top of its
  program is folded from its operands, so the parallel relation is never
  built. A '^' joins one row of each operand into the union of their
  targets, and the body's meet over a union is the least of the parts'
  meets. Below the '^', a '+' is a meet (box) or join (diamond) as
  above, and any other program is a leaf: its box is the plain box over
  it, and its reach and its diamond's rows are read from its relation.

  The box is README's D7/corrected,
  ``[r ^ q]phi = (<q>#1 -> [r]phi) & (<r>#1 -> [q]phi)``: the meet of a
  union is the lesser of two meets, so the box splits into one
  implication per operand. ``<pi>#1`` is pi's largest entry, and
  ``<r ^ q>#1 = <r>#1 (*) <q>#1``, as (*) distributes over joins.

  The diamond does not split: D13, ``<r ^ q>phi <-> <r>phi & <q>phi``,
  is refuted at n = 3, as the operands' best rows may lie at different
  meets and a pair is read at the lesser. So it keeps, per threshold
  theta and source, ``up_theta``, the largest entry whose meet is at
  least theta; ``up_theta(r ^ q) = up_theta(r) (*) up_theta(q)``, and the
  diamond is the largest ``up_theta (*) theta``. The thresholds V are the
  distinct meets of the body, its values and top, read per run, so there
  are at most one more than the states, whatever the chain's order.

``eval_formula`` and ``eval_program`` answer one question of one model
each, through ``Evaluator``, by compiling the term and running its plan
once; they keep nothing between questions. A formula's vector over all
states is its plan's root value, ``compile_plan(f).root_values(model)[0]``.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from operator import add
from typing import Mapping, Optional, Sequence

from .chain import ChainContext, ChainMismatchError, ChainValue
from .relations import (
    ReachRelation,
    StateSpace,
    StateSetLike,
    _product_table,
    _subset_tables,
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


def _box_table(q: ReachRelation, meets: Sequence[int], top: int) -> list[int]:
    """G of ``[l;q]``, indexed by intermediate-set mask: the least of
    sum_u (top - q(u, T_u)) + m(union of the T_u) over the families of
    one row of ``q`` per member u, with ``meets`` the body's
    ``subset_meets``. At or above top where no family exists, the empty
    set included."""
    size = q.space.size
    qmax = [0] * size
    low = [top] * size  # least m(T) - q(u, T) over u's rows
    for (u, mask), val in q.entries.items():
        if val > qmax[u]:
            qmax[u] = val
        val = meets[mask] - val
        if val < low[u]:
            low[u] = val
    # a member without rows costs top, so every set holding it reads >= top
    sums, mins = [0], [top]
    for u in range(size):
        cost, best = top - qmax[u], qmax[u] + low[u]
        sums += [total + cost for total in sums]
        mins += [least if least < best else best for least in mins]
    return list(map(add, sums, mins))


def _diamond_table(q: ReachRelation, meets: Sequence[int], top: int) -> list[int]:
    """H of ``<l;q>``, indexed by intermediate-set mask: the largest of
    sum_u (q(u, T_u) - top) + m(union of the T_u) over the families of one
    row of ``q`` per member u, with ``meets`` the body's ``subset_meets``.
    At or below bottom where no family exists; top at the empty set."""
    rows = [(u, meets[mask], val) for (u, mask), val in q.entries.items()]
    table = [0] * (1 << q.space.size)
    for theta in {meet for _, meet, _ in rows}:
        # each member's largest row whose meet is at least theta, 0 if none
        ups = [0] * q.space.size
        for u, meet, val in rows:
            if meet >= theta and val > ups[u]:
                ups[u] = val
        sums = [theta]
        for up in ups:
            up -= top
            sums += [total + up for total in sums]
        table = list(map(max, table, sums))
    table[0] = top
    return table


class _Level(dict):
    """The table of one inner level l_j of a modality over a left-nested
    ';' chain ``((l1;l2);...;lk);q``, indexed by intermediate-set mask
    and filled on first read, from l_j's product tables best_U
    (``relations._product_table``) and ``outer``, the table of the level
    outside it. The sets a fold reaches are all it builds tables for.
    ``_fold`` gives one entry from best_U and ``outer``.
    """

    __slots__ = ("rows", "best", "outer", "top")

    def __init__(self, rel: ReachRelation, outer, top: int):
        self.rows, self.best = _subset_tables(rel)
        self.outer = outer
        self.top = top

    def __missing__(self, umask: int) -> int:
        # the entries of lazy outer levels that an entry reads are filled
        # first, from a stack of their own, so a chain of any length fills
        # under the default recursion limit; an entry is pushed only while
        # missing, and is filled before the entry that pushed it is read
        # again, so none is pushed twice
        todo = [(self, umask)]
        while todo:
            level, umask = todo[-1]
            best = level.best
            table = best.get(umask)
            if table is None:
                table = _product_table(best, level.rows, level.top, umask)
            outer = level.outer
            if type(outer) is not list:
                missing = [(outer, t) for t in table if t not in outer]
                if missing:
                    todo += missing
                    continue
            todo.pop()
            level[umask] = level._fold(table, outer, level.top)
        return self[umask]


class _BoxLevel(_Level):
    """G'[U] = min_T (top - best_U[T] + G[T]), clipped at top, G the outer
    level's table; top where best_U is empty."""

    __slots__ = ()

    @staticmethod
    def _fold(table: dict[int, int], outer, top: int) -> int:
        low = 0
        for tmask, val in table.items():
            val = outer[tmask] - val
            if val < low:
                low = val
        return top + low


class _DiamondLevel(_Level):
    """H'[U] = max_T (best_U[T] + H[T] - top), clipped at bottom, H the
    outer level's table; bottom where best_U is empty."""

    __slots__ = ()

    @staticmethod
    def _fold(table: dict[int, int], outer, top: int) -> int:
        high = top
        for tmask, val in table.items():
            val += outer[tmask]
            if val > high:
                high = val
        return high - top


def _reach(rel: ReachRelation, states: range, top: int) -> tuple[int, ...]:
    """<rel>#1 per source: its largest entry, bottom where it has none."""
    out = [0] * len(states)
    for (s, _), val in rel.entries.items():
        if val > out[s]:
            out[s] = val
    return tuple(out)


def _strong(left: Sequence[int], right: Sequence[int], top: int) -> tuple[int, ...]:
    """The pointwise strong conjunction (*) of two vectors or rows."""
    return tuple([val - top if val > top else 0 for val in map(add, left, right)])


def _thresholds(meets: Sequence[int], states: range, top: int) -> tuple[list[int], list[int]]:
    """The thresholds V of a diamond over a '^', the distinct values of
    the body's ``subset_meets`` (its values and top), ascending; and per
    target mask the offset size * k of the place k of its meet in V, where
    a diamond row keeps the mask's entries."""
    values = sorted(set(meets))
    size = len(states)
    return values, [size * values.index(meet) for meet in meets]


def _diamond_summary(
    rel: ReachRelation, thresholds: tuple[list[int], list[int]], top: int
) -> list[int]:
    """The rows of ``rel`` under a diamond over a '^': per threshold theta
    in V and source s, at size * k + s for theta's place k, up_theta(s),
    the largest rel(s,T) whose meet m(T) is at least theta; bottom where
    there is none."""
    offsets = thresholds[1]
    size = rel.space.size
    ups = [0] * (len(thresholds[0]) * size)
    for (s, mask), val in rel.entries.items():
        i = offsets[mask] + s
        if val > ups[i]:
            ups[i] = val
    # a row also holds every row above its threshold
    for i in range(len(ups) - size - 1, -1, -1):
        if ups[i + size] > ups[i]:
            ups[i] = ups[i + size]
    return ups


def _diamond_fold(ups: Sequence[int], thresholds: tuple, top: int) -> tuple[int, ...]:
    """<pi>phi from the rows of pi: the largest up_theta (*) theta over the
    thresholds theta in V."""
    values = thresholds[0]
    size = len(ups) // len(values)
    out = [0] * size
    i = 0
    for theta in values:
        theta -= top
        for s in range(size):
            val = ups[i] + theta
            if val > out[s]:
                out[s] = val
            i += 1
    return tuple(out)


class Model:
    """A finite graded model.

    ``atomics`` maps atomic program names to relations; ``valuation``
    maps proposition names to rows, each a tuple of ``space.size``
    numerators in state order: the vector a plan run reads. Atomic-program
    names and proposition names live in separate namespaces, so the same
    name may appear in both maps. The constructor takes each row sparse,
    as a map from state to numerator (absent means bottom), and checks
    that every relation lives on the model's space and chain and every
    valuation entry on its states and chain; the sampler, whose parts
    hold this by construction, builds its models with ``_unchecked``.
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
        table: dict[str, tuple[int, ...]] = {}
        for name, per_state in (valuation or {}).items():
            if not isinstance(per_state, Mapping):
                shown = type(per_state).__name__
                raise ValueError(f"valuation of {name!r} must map state to numerator, got {shown}")
            row = [0] * space.size
            for s, num in per_state.items():
                if not isinstance(s, int) or not 0 <= s < space.size:
                    raise ValueError(f"state {s!r} outside space of size {space.size}")
                if not isinstance(num, int) or not 0 <= num <= context.top:
                    raise ValueError(f"numerator {num!r} outside chain of order {context.n}")
                row[s] = num
            table[name] = tuple(row)
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
        valuation: dict[str, tuple[int, ...]],
    ) -> "Model":
        """Wrap parts that already hold the constructor's invariants:
        relations on this space and chain, and valuation rows of
        ``space.size`` numerators inside the chain. States get the
        default names. Takes ownership of the dicts."""
        model = object.__new__(cls)
        model.context = context
        model.space = space
        model.atomics = atomics
        model.valuation = valuation
        model.state_names = _default_state_names(space.size)
        return model

    def prop_num(self, name: str, s: int) -> int:
        self.space.mask_of((s,))  # a state outside the space raises ValueError
        row = self.valuation.get(name)
        return row[s] if row else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.context == other.context
            and self.space == other.space
            and self.state_names == other.state_names
            and self.atomics == other.atomics
            and {k: v for k, v in self.valuation.items() if any(v)}
            == {k: v for k, v in other.valuation.items() if any(v)}
        )

    def __repr__(self) -> str:
        return (
            f"Model(n={self.context.n}, states={list(self.state_names)}, "
            f"programs={sorted(self.atomics)}, props={sorted(self.valuation)})"
        )


# A plan step is (opcode, a, b). A term's opcode is its node's class: a
# leaf's a is its name or constant and b None; a compound node's a and b
# are the slots of its children in constructor order, b None for one
# child, except that a box or diamond reads (program, table) and one over
# a union (min or max, left modality, right modality). A table's opcode
# is the function or class that builds it: subset_meets (body, None),
# _thresholds (meets, None), _box_table and _diamond_table (right operand
# of ';', meets of the body), and _BoxLevel and _DiamondLevel (a level's
# program, the outer level's table). Below a '^' at the top of a box's
# program, a leaf reads the step of the plain box over it and
# (_reach, leaf, None), its <leaf>#1; a '+' is min of the boxes and max
# of the reaches, and a '^' is D7/corrected, min of
# (Implies, <q>#1, [r]phi) and (Implies, <r>#1, [q]phi), with
# (_strong, <r>#1, <q>#1) its reach. Below a '^' under a diamond, a leaf
# reads (_diamond_summary, leaf, thresholds), its rows, a '+' is max and
# a '^' _strong of its operands' rows, and the '^' at the root is
# (_diamond_fold, its rows, thresholds).
_OPCODES = frozenset(
    {PropVar, Constant, And, Or, Implies, Box, Diamond, Atomic, PUnion, Seq, Inter, Star, Test}
)
# the steps Plan.run calls as op(a's value, b's value, top)
_TABLES = frozenset({
    _box_table, _diamond_table, _BoxLevel, _DiamondLevel,
    _diamond_summary, _strong, _diamond_fold,
})


class Plan:
    """Formulas and programs compiled for evaluation in any model.

    One slot per distinct step, in post-order, so every operand's slot
    comes before its reader's. Each distinct subterm has a slot, except a
    ``;``, ``+`` or ``^`` that is only ever read as the program of a box
    or diamond, the ``;`` nodes on the left spine of such a ``;``, and
    the ``^`` and ``+`` nodes below such a ``^``: ``[l;q]phi`` reads slots
    for ``l``, ``q`` and a table built from ``q`` and the body's meets;
    ``[((l1;l2);l3);q]phi`` reads slots for ``l1``, ``l2``, ``l3``, ``q``,
    that table, and one table per inner level, built from ``l3`` and that
    table, then from ``l2`` and ``l3``'s; ``[a+b]phi`` reads the slots of
    ``[a]phi`` and ``[b]phi``; ``[a ^ (b+c)]phi`` reads the slots of
    ``[a]phi``, ``[b]phi``, ``[c]phi`` and ``[b+c]phi``, of the reaches
    ``<a>#1``, ``<b>#1``, ``<c>#1`` and ``<b+c>#1``, and of the two
    implications of D7/corrected; and ``<a ^ (b+c)>phi`` reads the body's
    meets, its thresholds, and the rows of ``a``, ``b``, ``c``, ``b+c``
    and the '^' (see the module docstring). ``steps`` holds each slot's
    (opcode, operand, operand) step, and ``roots`` the slot of each
    compiled term, in the order given.
    """

    __slots__ = ("steps", "roots")

    def __init__(self, steps: tuple, roots: tuple[int, ...]):
        self.steps = steps
        self.roots = roots

    def run(self, model: Model) -> list:
        """Every slot's value in ``model``: a formula's vector of
        numerators over the states, in state order, a program's relation,
        or a table or summary."""
        values = [None] * len(self.steps)
        ctx = model.context
        top = ctx.top
        space = model.space
        size = space.size
        states = space.states()
        for slot, (op, a, b) in enumerate(self.steps):
            if op is PropVar:
                value = model.valuation.get(a) or (0,) * size
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
                table = values[b]
                # out starts at top, which caps the implication
                out = [top] * size
                for (src, mask), rval in values[a].entries.items():
                    val = top - rval + table[mask]
                    if val < out[src]:
                        out[src] = val
                value = tuple(out)
            elif op is Diamond:
                table = values[b]
                out = [0] * size
                for (src, mask), rval in values[a].entries.items():
                    val = rval + table[mask] - top
                    if val > out[src]:
                        out[src] = val
                value = tuple(out)
            elif op is And or op is min:
                value = tuple(map(min, values[a], values[b]))
            elif op is Or or op is max:
                value = tuple(map(max, values[a], values[b]))
            # tables after the connectives, which most plans hold more of
            elif op is subset_meets or op is _thresholds or op is _reach:
                value = op(values[a], states, top)
            elif op in _TABLES:
                value = op(values[a], values[b], top)
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


# The form of a box or diamond: its program's pieces, in post-order over
# the '+' nodes at its top, with None for each '+' that joins the last
# two. A '^' piece is a list: the post-order of its '^' and '+' nodes,
# each as its class, and of its other nodes, its leaves, each None. Any
# other piece is the number of relations it reads (1 for a plain
# program, k+1 for a ';' chain l1;...;lk;q).
_PLAIN = (1,)


def _spine(program: Program) -> list:
    """The programs of the left spine of ';' of ``program``, its right
    operand last: itself alone if it is no ';'."""
    spine = []
    while type(program) is Seq:
        spine.append(program.right)
        program = program.left
    spine.append(program)
    spine.reverse()
    return spine


def _modal_form(program: Program, body: Formula) -> tuple[list, list]:
    """The relations a modality over ``program`` reads, in order, then its
    body; and its form. A '+' gives its operands' pieces, a '^' the leaves
    below its '^' and '+' nodes, and any other program the programs of
    its left spine of ';', its right operand last: itself alone if it is
    no ';'."""
    kids: list = []
    form: list = []
    todo = [(program, form, False)]  # (node, the form or '^' piece it adds to, visited)
    while todo:
        program, out, joined = todo.pop()
        kind = type(program)
        if joined:
            out.append(None if out is form else kind)
        elif kind is PUnion or kind is Inter and out is not form:
            todo += [(program, out, True), (program.right, out, False), (program.left, out, False)]
        elif kind is Inter:
            piece: list = []
            form.append(piece)
            todo.append((program, piece, False))
        elif out is not form:
            kids.append(program)
            out.append(None)
        else:
            spine = _spine(program)
            kids += spine
            form.append(len(spine))
    kids.append(body)
    return kids, form


def compile_plan(*terms: Formula | Program) -> Plan:
    """The plan of ``terms``, whose roots are their slots in that order.

    The walk keeps its own stack, so a term of any depth compiles. Equal
    subterms share a slot: a step is keyed by its opcode and its
    operands' slots, so no subterm is hashed or compared as a tree, and
    equal tables and summaries share a slot the same way. Each node is classified once,
    when it is first reached; a box or diamond then takes its program's
    form (``_modal_form``) to the visit that emits its steps. The
    relations it reads come before its body, as they would if its
    program were built.
    """
    steps: list[tuple] = []
    slot_of_step: dict[tuple, int] = {}
    slot_of_node: dict[int, int] = {}  # by id; each term keeps its nodes alive
    roots = []

    def slot(step: tuple) -> int:
        """The slot of ``step``: a node's, a table's, a summary's, or a
        modality's over a piece of a '+'; a new step takes the next one."""
        found = slot_of_step.setdefault(step, len(steps))
        if found == len(steps):
            steps.append(step)
        return found

    def modal(op: type, spine: Sequence, meets: tuple) -> tuple:
        """The step of a box or diamond ``op`` over the left-nested ';'
        chain of the programs ``spine``: the first one's slot, folded
        against the last one's table and one per inner level, or against
        the body's ``meets`` if there is one program."""
        table = slot(meets)
        if len(spine) > 1:
            build = _box_table if op is Box else _diamond_table
            table = slot((build, slot_of_node[id(spine[-1])], table))
            level = _BoxLevel if op is Box else _DiamondLevel
            for program in reversed(spine[1:-1]):
                table = slot((level, slot_of_node[id(program)], table))
        return (op, slot_of_node[id(spine[0])], table)

    for term in terms:
        stack = [(term, None, None)]
        while stack:
            node, kids, form = stack.pop()
            if kids is None:
                if id(node) in slot_of_node:
                    continue
                op = type(node)
                kids = children(node)
                if kids:
                    if op is Box or op is Diamond:
                        kind = type(kids[0])
                        if kind is Seq or kind is PUnion or kind is Inter:
                            kids, form = _modal_form(*kids)
                        else:
                            form = _PLAIN
                    stack.append((node, kids, form))
                    stack.extend((kid, None, None) for kid in reversed(kids))
                    continue
                if op not in _OPCODES:
                    raise TypeError(f"not a formula or program: {node!r}")
                step = (op, node.value if op is Constant else node.name, None)
            elif form is None:
                op = type(node)
                if len(kids) == 1:
                    step = (op, slot_of_node[id(kids[0])], None)
                else:
                    step = (op, slot_of_node[id(kids[0])], slot_of_node[id(kids[1])])
            else:
                op = type(node)
                body = slot_of_node[id(kids[-1])]
                meets = (subset_meets, body, None)
                pending = []
                i = 0
                for piece in form:
                    if piece is None:
                        right, left = pending.pop(), pending.pop()
                        join = min if op is Box else max
                        pending.append((join, slot(left), slot(right)))
                        continue
                    if type(piece) is list:
                        # per node below the '^' at its root, the steps
                        # of its box and reach, or of its diamond's rows
                        if op is Diamond:
                            table = slot((_thresholds, slot(meets), None))
                        parts = []
                        for kind in piece:
                            if kind is None:
                                leaf = kids[i]
                                i += 1
                                if op is Box:
                                    # the step a plain box over the leaf runs
                                    box = modal(Box, _spine(leaf), meets)
                                    parts.append((box, (_reach, slot_of_node[id(leaf)], None)))
                                else:
                                    parts.append((_diamond_summary, slot_of_node[id(leaf)], table))
                                continue
                            right, left = parts.pop(), parts.pop()
                            if op is Diamond:
                                join = max if kind is PUnion else _strong
                                parts.append((join, slot(left), slot(right)))
                            elif kind is PUnion:
                                boxes = (min, slot(left[0]), slot(right[0]))
                                parts.append((boxes, (max, slot(left[1]), slot(right[1]))))
                            else:
                                # D7/corrected
                                reach_r, reach_q = slot(left[1]), slot(right[1])
                                half_r = slot((Implies, reach_q, slot(left[0])))
                                half_q = slot((Implies, reach_r, slot(right[0])))
                                reach = (_strong, reach_r, reach_q)
                                parts.append(((min, half_r, half_q), reach))
                        (part,) = parts
                        if op is Box:
                            pending.append(part[0])
                        else:
                            pending.append((_diamond_fold, slot(part), table))
                        continue
                    pending.append(modal(op, kids[i:i + piece], meets))
                    i += piece
                (step,) = pending
            slot_of_node[id(node)] = slot(step)
        roots.append(slot_of_node[id(term)])
    return Plan(tuple(steps), tuple(roots))


class Evaluator:
    """A formula's numerator at one state, or a program's relation, in one
    model, each read from one run of the term's plan. A formula's vector
    over all states is ``compile_plan(formula).root_values(model)[0]``.
    """

    def __init__(self, model: Model):
        self.model = model

    def relation(self, program: Program) -> ReachRelation:
        return compile_plan(program).root_values(self.model)[0]

    def value_num(self, formula: Formula, s: int) -> int:
        return compile_plan(formula).root_values(self.model)[0][s]


def eval_formula(model: Model, formula: Formula, state: int) -> ChainValue:
    model.space.mask_of((state,))  # a state outside the space raises ValueError
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
