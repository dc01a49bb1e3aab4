"""Naive relation algebra used as an oracle.

Everything here recomputes the defining equations word for word with
Fraction arithmetic and full enumeration over all subsets and all
families, sharing no code with the package implementation.

``enum_compose`` and ``naive_star`` are the exceptions, kept as
differential references for sizes the Fraction oracle is too slow for:
the integer family enumeration that ``relations.compose`` used before its
subset-table form, and the naive fixpoint loop that ``relations.star``
used before its semi-naive form.
"""

from fractions import Fraction
from itertools import product

# A relation is a dict mapping (state, frozenset) to Fraction; missing
# pairs are 0. `size` is the number of states.


def all_subsets(size):
    states = range(size)
    out = [frozenset()]
    for s in states:
        out += [prev | {s} for prev in list(out)]
    return sorted(set(out), key=lambda fs: (len(fs), sorted(fs)))


def tnorm(a, b):
    return max(Fraction(0), a + b - 1)


def from_reach(rel):
    """Convert a package ReachRelation into the oracle encoding."""
    top = rel.context.top
    table = {}
    for (s, mask), num in rel.entries.items():
        members = frozenset(i for i in range(rel.space.size) if mask & (1 << i))
        table[(s, members)] = Fraction(num, top)
    return table, rel.space.size


def to_entries(table, size, top):
    """Back to (state, mask) -> numerator form for comparison."""
    entries = {}
    for (s, members), val in table.items():
        if val == 0:
            continue
        mask = 0
        for m in members:
            mask |= 1 << m
        entries[(s, mask)] = int(val * top)
    return entries


def oracle_iota(size):
    return {(s, frozenset([s])): Fraction(1) for s in range(size)}


def oracle_union(r, q, size):
    out = {}
    for s in range(size):
        for t in all_subsets(size):
            val = max(r.get((s, t), Fraction(0)), q.get((s, t), Fraction(0)))
            if val > 0:
                out[(s, t)] = val
    return out


def oracle_compose(r, q, size):
    subsets = all_subsets(size)
    out = {}
    for s in range(size):
        for target in subsets:
            best = Fraction(0)
            for u in subsets:
                rv = r.get((s, u), Fraction(0))
                members = sorted(u)
                # every family assigning each member of u a subset
                for family in product(subsets, repeat=len(members)):
                    union = frozenset().union(*family) if family else frozenset()
                    if union != target:
                        continue
                    val = rv
                    for member, tset in zip(members, family):
                        val = tnorm(val, q.get((member, tset), Fraction(0)))
                    best = max(best, val)
            if best > 0:
                out[(s, target)] = best
    return out


def oracle_parallel(r, q, size, disjoint=False):
    subsets = all_subsets(size)
    out = {}
    for s in range(size):
        for target in subsets:
            best = Fraction(0)
            for t in subsets:
                for w in subsets:
                    if t | w != target:
                        continue
                    if disjoint and (t & w):
                        continue
                    best = max(
                        best,
                        tnorm(r.get((s, t), Fraction(0)), q.get((s, w), Fraction(0))),
                    )
            if best > 0:
                out[(s, target)] = best
    return out


def oracle_power(r, k, size):
    acc = oracle_iota(size)
    for _ in range(k):
        acc = oracle_union(oracle_iota(size), oracle_compose(r, acc, size), size)
    return acc


def oracle_star(r, size):
    acc = oracle_iota(size)
    while True:
        nxt = oracle_union(oracle_iota(size), oracle_compose(r, acc, size), size)
        if nxt == acc:
            return acc
        acc = nxt


def enum_compose(r, q):
    """Composition by enumerating every family over the stored support.

    Takes two package ReachRelations and returns the (state, mask) ->
    numerator entries of their composition. A branch is dropped as soon
    as its running product hits bottom.
    """
    top = r.context.top
    by_state = {}
    for (u, mask), val in q.entries.items():
        by_state.setdefault(u, []).append((mask, val))

    out = {}
    for (s, umask), rval in r.entries.items():
        members = [u for u in range(r.space.size) if umask & (1 << u)]
        choices = [by_state.get(u) for u in members]
        if any(c is None for c in choices):
            continue  # some intermediate state has no nonzero row

        def descend(idx, acc_mask, acc_val):
            if idx == len(members):
                key = (s, acc_mask)
                if acc_val > out.get(key, 0):
                    out[key] = acc_val
                return
            for tmask, qval in choices[idx]:
                val = acc_val + qval - top
                if val <= 0:
                    continue
                descend(idx + 1, acc_mask | tmask, val)

        descend(0, 0, rval)
    return out


def naive_star(r):
    """Star by naive iteration, the loop ``relations.star`` ran before it
    went semi-naive. Test-only reference.

    Takes a package ReachRelation and iterates p(i+1) = unit join (r o p(i))
    from the unit with the package's ``compose`` and ``union``, each round
    in full, until a round returns what it was given.
    """
    # imported here: the benchmark's oracle loads this module and must
    # not import the package with it
    from gradedpdl.relations import compose, iota, union

    unit = iota(r.space, r.context)
    current = unit
    while True:
        nxt = union(unit, compose(r, current))
        if nxt == current:
            return current
        current = nxt
