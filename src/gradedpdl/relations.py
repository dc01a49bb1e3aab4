"""Reachability relations graded over a finite chain.

A relation assigns a chain value to every pair (state, set of states);
pairs that are not stored sit at bottom. State sets are bitmasks over
0..size-1, so unions of target sets are bitwise ors and composition can
index its tables of partial unions by intermediate-set masks.

One kernel, ``_product_table``, builds those tables. They depend on the
right operand alone, so they live on it: ``compose`` fills them in the
right operand's ``_tables`` slot on first use, and every later
composition with that operand, whatever its left operand, reads them
there. This is exact because relations are immutable values. The slot
is a cache, so it takes no part in equality, printing, pickles or copies.

``star`` runs each of its rounds through ``compose``. ``star``
is a semi-naive fixpoint: its first step is unit join r, since
r o unit = r exactly, and each later round composes only the entries
r(s, U) whose intermediate set U meets the sources whose row grew in
the round before. An entry with U disjoint from them would contribute
what it already did, so the result is the least fixpoint of
p = unit join (r o p) without a confirming round of full compositions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union as _U

from .chain import ChainContext, ChainMismatchError, ChainValue, parse_value


class SpaceMismatchError(ValueError):
    """Relations over different state spaces were combined."""


@dataclass(frozen=True)
class StateSpace:
    """States 0..size-1."""

    size: int

    def __post_init__(self) -> None:
        if not isinstance(self.size, int) or self.size < 1:
            raise ValueError(f"state space needs at least one state, got {self.size!r}")

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def states(self) -> range:
        return range(self.size)

    def subset_masks(self) -> range:
        """All subsets of the space, as masks (empty set included)."""
        return range(1 << self.size)

    def mask_of(self, states: Iterable[int]) -> int:
        mask = 0
        for s in states:
            if not 0 <= s < self.size:
                raise ValueError(f"state {s} outside space of size {self.size}")
            mask |= 1 << s
        return mask


def mask_states(mask: int) -> list[int]:
    """Member states of a bitmask, ascending."""
    out = []
    s = 0
    while mask:
        if mask & 1:
            out.append(s)
        mask >>= 1
        s += 1
    return out


StateSetLike = _U[int, Iterable[int]]


class ReachRelation:
    """Finite-support map (state, state set) -> chain value.

    Stored entries are the nonzero ones: ``entries`` maps (state, mask)
    to a positive numerator at most top, with the state and every
    member of the mask inside the space. Instances are treated as
    immutable values.

    The constructor checks its entries, so input from outside goes
    through it. Relations the library computes from checked operands
    (``iota``, ``union``, ``compose``, ``parallel``, ``star``, tests,
    sampled atomics and filtration quotients) hold these invariants by
    construction and are wrapped by ``_unchecked`` instead.

    ``_tables`` is None until the relation is the right operand of a
    ``compose``, which then keeps its subset tables there (see
    ``compose``).
    """

    __slots__ = ("space", "context", "entries", "_tables")

    def __init__(
        self,
        space: StateSpace,
        context: ChainContext,
        entries: Mapping[tuple[int, int], int] | None = None,
    ):
        self.space = space
        self.context = context
        table: dict[tuple[int, int], int] = {}
        full = space.full_mask
        top = context.top
        for (s, mask), num in (entries or {}).items():
            if not 0 <= s < space.size:
                raise ValueError(f"state {s} outside space of size {space.size}")
            if not 0 <= mask <= full:
                raise ValueError(f"mask {mask:#x} outside space of size {space.size}")
            if not isinstance(num, int) or not 0 <= num <= top:
                raise ValueError(f"numerator {num!r} outside chain of order {context.n}")
            if num > 0:
                table[(s, mask)] = num
        self.entries = table
        self._tables = None

    @classmethod
    def _unchecked(
        cls, space: StateSpace, context: ChainContext, entries: dict[tuple[int, int], int]
    ) -> "ReachRelation":
        """Wrap entries that already hold the invariants; takes ownership
        of the dict."""
        rel = object.__new__(cls)
        rel.space = space
        rel.context = context
        rel.entries = entries
        rel._tables = None
        return rel

    @classmethod
    def of(
        cls,
        space: StateSpace,
        context: ChainContext,
        triples: Iterable[tuple[int, StateSetLike, _U[int, str, ChainValue]]],
    ) -> "ReachRelation":
        """Build from (state, state set, value) triples; values may be
        numerators, ``p/q`` strings, or chain values."""
        table: dict[tuple[int, int], int] = {}
        for s, states, val in triples:
            mask = states if isinstance(states, int) else space.mask_of(states)
            if isinstance(val, ChainValue):
                if val.context != context:
                    raise ChainMismatchError("value from a different chain")
                num = val.numerator
            elif isinstance(val, str):
                num = parse_value(val, context).numerator
            else:
                num = val
            key = (s, mask)
            table[key] = max(table.get(key, 0), num)
        return cls(space, context, table)

    def num(self, s: int, mask: int) -> int:
        return self.entries.get((s, mask), 0)

    def value(self, s: int, states: StateSetLike) -> ChainValue:
        mask = states if isinstance(states, int) else self.space.mask_of(states)
        return ChainValue(self.num(s, mask), self.context)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReachRelation):
            return NotImplemented
        return (
            self.space == other.space
            and self.context == other.context
            and self.entries == other.entries
        )

    def __hash__(self):  # pragma: no cover - relations are not dict keys
        raise TypeError("ReachRelation is not hashable")

    def __reduce__(self):
        # pickles and copies rebuild through the constructor and so come
        # back without ``_tables``
        return ReachRelation, (self.space, self.context, self.entries)

    def __repr__(self) -> str:
        cells = ", ".join(
            f"({s},{{{','.join(map(str, mask_states(m)))}}})={v}"
            for (s, m), v in sorted(self.entries.items())
        )
        return f"ReachRelation(|S|={self.space.size}, n={self.context.n}, {{{cells}}})"


def _check_same(a: ReachRelation, b: ReachRelation) -> None:
    if a.space is not b.space and a.space != b.space:
        raise SpaceMismatchError(
            f"state spaces differ: {a.space.size} vs {b.space.size}"
        )
    if a.context is not b.context and a.context != b.context:
        raise ChainMismatchError(
            f"chains differ: order {a.context.n} vs {b.context.n}"
        )


def zero_relation(space: StateSpace, ctx: ChainContext) -> ReachRelation:
    return ReachRelation._unchecked(space, ctx, {})


def iota(space: StateSpace, ctx: ChainContext) -> ReachRelation:
    """Unit relation: top at (s, {s}), bottom elsewhere."""
    top = ctx.top
    return ReachRelation._unchecked(space, ctx, {(s, 1 << s): top for s in space.states()})


def union(r: ReachRelation, q: ReachRelation) -> ReachRelation:
    """Pointwise join."""
    _check_same(r, q)
    table = dict(r.entries)
    for key, val in q.entries.items():
        if val > table.get(key, 0):
            table[key] = val
    return ReachRelation._unchecked(r.space, r.context, table)


def _product_table(
    best: dict[int, dict[int, int]],
    rows: Mapping[int, list[tuple[int, int]]],
    top: int,
    umask: int,
) -> dict[int, int]:
    """best[umask]: every union T of one nonzero row per member of umask,
    mapped to the largest product of such rows with union T.

    ``rows`` maps a member's bit to its (target mask, value) rows, and
    ``best`` memoizes the tables built so far; it must hold
    best[0] = {0: top}. best[U] extends best[U minus its lowest member]
    by that member's rows, so a table reads only the rows of members of
    U. Products that hit bottom are dropped.
    """
    found = best.get(umask)
    if found is not None:
        return found
    low = umask & -umask
    ext: dict[int, int] = {}
    member_rows = rows.get(low)
    if member_rows:
        for pmask, pval in _product_table(best, rows, top, umask ^ low).items():
            for tmask, qval in member_rows:
                val = pval + qval - top
                if val > 0:
                    key = pmask | tmask
                    if val > ext.get(key, 0):
                        ext[key] = val
    best[umask] = ext
    return ext


def compose(r: ReachRelation, q: ReachRelation) -> ReachRelation:
    """Concurrent composition.

    (r o q)(s, T) is the join, over intermediate sets U and over families
    assigning each u in U a target set T_u with union T, of
    r(s, U) (*) prod_u q(u, T_u), where (*) is strong conjunction. The
    empty U contributes r(s, empty) at T = empty.

    Families are not enumerated one by one. For each intermediate set U
    in the support of ``r``, a table best[U] maps every reachable union
    T to the largest product of one nonzero row q(u, T_u) per member u
    (``_product_table``); best[U] extends best[U minus its lowest member]
    by that member's rows, and best[empty] = {empty: top}. Each r(s, U)
    is then combined with best[U] once. This gives the same join because
    (*) is associative and monotone: a family's product is its partial
    product (*) the rest, so of all partial families with the same
    partial union only the largest partial product can reach the
    maximum. Products that hit bottom stay at bottom and are dropped.
    A step costs at most (unions so far) x (rows of the member), while
    listing every family costs the product of the members' row counts.

    q's rows and best[U] are functions of q and U alone, and q is an
    immutable value, so they are kept on q (``q._tables``) and serve
    every later composition with q on the right. Tables are built on
    demand, for the intermediate sets that some left operand asks for.

    Composition is not associative: ((a o b) o c) and (a o (b o c)) can
    differ, so chains of ``;`` must not be regrouped. In a o (b o c), a
    state reached from two members of a's intermediate set picks and
    (*)-combines a row of c once for each of them; in (a o b) o c it
    does so once, and (*) is not idempotent.
    """
    _check_same(r, q)
    top = r.context.top
    tables = q._tables
    if tables is None:
        rows: dict[int, list[tuple[int, int]]] = {}
        for (u, mask), val in q.entries.items():
            rows.setdefault(1 << u, []).append((mask, val))
        tables = q._tables = (rows, {0: {0: top}})
    rows, best = tables

    out: dict[tuple[int, int], int] = {}
    for (s, umask), rval in r.entries.items():
        table = best.get(umask)
        if table is None:
            table = _product_table(best, rows, top, umask)
        for tmask, bval in table.items():
            val = rval + bval - top
            if val > 0:
                key = (s, tmask)
                if val > out.get(key, 0):
                    out[key] = val
    return ReachRelation._unchecked(r.space, r.context, out)


def parallel(r: ReachRelation, q: ReachRelation) -> ReachRelation:
    """Parallel combination: join over splittings of the target set.

    (r (x) q)(s, X) joins r(s, T) (*) q(s, W) over all pairs with
    T union W = X; T and W may overlap.
    """
    _check_same(r, q)
    top = r.context.top
    q_by_state: dict[int, list[tuple[int, int]]] = {}
    for (s, mask), val in q.entries.items():
        q_by_state.setdefault(s, []).append((mask, val))

    out: dict[tuple[int, int], int] = {}
    for (s, tmask), rval in r.entries.items():
        for wmask, qval in q_by_state.get(s, ()):
            val = rval + qval - top
            if val <= 0:
                continue
            key = (s, tmask | wmask)
            if val > out.get(key, 0):
                out[key] = val
    return ReachRelation._unchecked(r.space, r.context, out)


def leq(r: ReachRelation, q: ReachRelation) -> bool:
    """Pointwise order."""
    _check_same(r, q)
    return all(val <= q.entries.get(key, 0) for key, val in r.entries.items())


def star(r: ReachRelation) -> ReachRelation:
    """Reflexive-transitive closure: the least p with p = unit join (r o p),
    the limit of p(0) = unit, p(i+1) = unit join (r o p(i)).

    Evaluated semi-naively. The first step needs no composition:
    best[U] over the unit's rows is {U: top}, so r o unit = r and
    p(1) = unit join r. The sources whose row grew from the unit, those
    of r's entries with a target other than {s}, form the changed set C.
    A round composes only the entries r(s, U) whose U meets C with p as
    it was when the round began, and takes every product into p; the
    sources whose row grew form the next C, and the loop stops when no
    row grew. This is exact: composition is a join over r's entries,
    and for U disjoint from C, best[U] reads only rows that did not
    change, so r(s, U) contributes what it did in an earlier round,
    which p already holds. The iterates grow monotonically in a finite
    lattice, so the loop ends, at p = unit join (r o p).
    p is its own running table of r o p: the two differ only at
    (s, {s}), where p holds top and no product can exceed it.

    Each round lends p to ``compose`` in a fresh wrapper. ``compose``
    keeps its subset tables on its right operand, and p grows after
    the round, so a wrapper reused across rounds would hand the next
    round tables built from rows that have since changed.
    """
    space, ctx, top = r.space, r.context, r.context.top
    p = {(s, 1 << s): top for s in space.states()}
    changed = 0
    for (s, mask), val in r.entries.items():
        if mask != 1 << s:
            p[(s, mask)] = val
            changed |= 1 << s
    while changed:
        delta = {key: val for key, val in r.entries.items() if key[1] & changed}
        # compose reads p only while it runs, so p can be lent to it; the
        # wrapper is fresh, so no tables built from an older p are read.
        step = compose(
            ReachRelation._unchecked(space, ctx, delta),
            ReachRelation._unchecked(space, ctx, p),
        )
        changed = 0
        for key, val in step.entries.items():
            if val > p.get(key, 0):
                p[key] = val
                changed |= 1 << key[0]
    return ReachRelation._unchecked(space, ctx, p)
