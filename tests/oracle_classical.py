"""Two-valued concurrent dynamic logic by naive set semantics.

An independent evaluator for the Boolean collapse: relations are plain
sets of (state, frozenset) pairs, programs are interpreted by explicit
set constructions, box demands every reachable target set be covered by
the goal, diamond asks for one. Used to cross-check the graded
evaluator at chain order 2.
"""

from itertools import product

from gradedpdl.syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Implies,
    Inter,
    Or,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
)


def bool_model(model):
    """Extract the set-based picture of an order-2 model."""
    assert model.context.n == 2
    rel = {}
    for name, reach in model.atomics.items():
        pairs = set()
        for (s, mask), num in reach.entries.items():
            members = frozenset(i for i in range(model.space.size) if mask & (1 << i))
            if num == 1:
                pairs.add((s, members))
        rel[name] = pairs
    val = {
        name: {s for s, num in enumerate(row) if num == 1}
        for name, row in model.valuation.items()
    }
    return {"size": model.space.size, "rel": rel, "val": val}


def _compose(r, q, size):
    out = set()
    for (s, u) in r:
        members = sorted(u)
        options = [[t for (src, t) in q if src == m] for m in members]
        if any(not opt for opt in options):
            continue
        for family in product(*options):
            union = frozenset().union(*family) if family else frozenset()
            out.add((s, union))
    return out


def _relation(bm, program):
    if isinstance(program, Atomic):
        return set(bm["rel"].get(program.name, set()))
    if isinstance(program, Union):
        return _relation(bm, program.left) | _relation(bm, program.right)
    if isinstance(program, Seq):
        return _compose(_relation(bm, program.left), _relation(bm, program.right), bm["size"])
    if isinstance(program, Inter):
        left, right = _relation(bm, program.left), _relation(bm, program.right)
        return {(s, t | w) for (s, t) in left for (s2, w) in right if s2 == s}
    if isinstance(program, Star):
        base = _relation(bm, program.body)
        acc = {(s, frozenset([s])) for s in range(bm["size"])}
        while True:
            nxt = acc | _compose(base, acc, bm["size"]) | {
                (s, frozenset([s])) for s in range(bm["size"])
            }
            if nxt == acc:
                return acc
            acc = nxt
    if isinstance(program, Test):
        return {
            (s, frozenset([s]))
            for s in range(bm["size"])
            if holds(bm, program.condition, s)
        }
    raise TypeError(program)


def holds(bm, formula, s):
    if isinstance(formula, PropVar):
        return s in bm["val"].get(formula.name, set())
    if isinstance(formula, Constant):
        return formula.value.numerator == formula.value.context.top
    if isinstance(formula, And):
        return holds(bm, formula.left, s) and holds(bm, formula.right, s)
    if isinstance(formula, Or):
        return holds(bm, formula.left, s) or holds(bm, formula.right, s)
    if isinstance(formula, Implies):
        return (not holds(bm, formula.left, s)) or holds(bm, formula.right, s)
    if isinstance(formula, Box):
        rel = _relation(bm, formula.program)
        return all(
            all(holds(bm, formula.body, t) for t in target)
            for (src, target) in rel
            if src == s
        )
    if isinstance(formula, Diamond):
        rel = _relation(bm, formula.program)
        return any(
            all(holds(bm, formula.body, t) for t in target)
            for (src, target) in rel
            if src == s
        )
    raise TypeError(formula)
