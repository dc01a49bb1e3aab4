"""Independent Fraction evaluator used to re-check the program's answers.

Formulas and programs are plain tuples (see ``render``); relations are
dicts mapping (state, frozenset of states) to a Fraction, in the
encoding of ``tests/oracle_relations.py``, whose unit, choice and
t-norm are used as they are. Sequential and parallel composition
enumerate the nonzero entries only (a zero factor contributes nothing to
a join), and the self-tests check them against the word-for-word
``oracle_compose`` and ``oracle_parallel``. Nothing here calls the
package's evaluator or relation algebra.

Formula nodes: ("var", name), ("const", Fraction), ("and" | "or" | "imp",
f, g), ("box" | "dia", program, f).  Program nodes: ("atom", name),
("choice" | "par" | "seq", p, q), ("star", p), ("test", f).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import oracle_relations as naive

ONE = Fraction(1)
ZERO = Fraction(0)

# A model's values are the few multiples of 1/(n-1), so remembering each
# t-norm result saves most of the Fraction arithmetic.
tnorm = lru_cache(maxsize=None)(naive.tnorm)


# -- text ---------------------------------------------------------------------


def render(node) -> str:
    """Fully parenthesised concrete syntax accepted by the package parser."""
    kind = node[0]
    if kind == "var":
        return node[1]
    if kind == "const":
        return "#" + format_value(node[1])
    if kind in ("and", "or", "imp"):
        op = {"and": "&", "or": "|", "imp": "->"}[kind]
        return f"({render(node[1])} {op} {render(node[2])})"
    if kind in ("box", "dia"):
        left, right = ("[", "]") if kind == "box" else ("<", ">")
        return f"{left}{render_program(node[1])}{right}{render(node[2])}"
    raise TypeError(node)


def render_program(node) -> str:
    kind = node[0]
    if kind == "atom":
        return node[1]
    if kind in ("choice", "par", "seq"):
        op = {"choice": "+", "par": "^", "seq": ";"}[kind]
        return f"({render_program(node[1])} {op} {render_program(node[2])})"
    if kind == "star":
        return f"({render_program(node[1])})*"
    if kind == "test":
        return f"?({render(node[1])})"
    raise TypeError(node)


_FORMULA_KINDS = {"And": "and", "Or": "or", "Implies": "imp", "Box": "box", "Diamond": "dia"}
_PROGRAM_KINDS = {"Union": "choice", "Inter": "par", "Seq": "seq"}


def from_package(node):
    """Tuple form of a package syntax tree, read by class name only."""
    name = type(node).__name__
    if name == "PropVar":
        return ("var", node.name)
    if name == "Constant":
        return ("const", Fraction(node.value.numerator, node.value.context.top))
    if name in ("And", "Or", "Implies"):
        return (_FORMULA_KINDS[name], from_package(node.left), from_package(node.right))
    if name in ("Box", "Diamond"):
        return (_FORMULA_KINDS[name], from_package(node.program), from_package(node.body))
    if name == "Atomic":
        return ("atom", node.name)
    if name in _PROGRAM_KINDS:
        return (_PROGRAM_KINDS[name], from_package(node.left), from_package(node.right))
    if name == "Star":
        return ("star", from_package(node.body))
    if name == "Test":
        return ("test", from_package(node.condition))
    raise TypeError(f"unknown syntax node {node!r}")


def subformulas(node):
    """Every formula node of the tree, the tree itself included."""
    out = [node]
    kind = node[0]
    if kind in ("and", "or", "imp"):
        out += subformulas(node[1]) + subformulas(node[2])
    elif kind in ("box", "dia"):
        out += _program_subformulas(node[1]) + subformulas(node[2])
    return out


def _program_subformulas(node):
    kind = node[0]
    if kind in ("choice", "par", "seq"):
        return _program_subformulas(node[1]) + _program_subformulas(node[2])
    if kind == "star":
        return _program_subformulas(node[1])
    if kind == "test":
        return subformulas(node[1])
    return []


# -- models ---------------------------------------------------------------------


def format_value(v: Fraction) -> str:
    """The package's text form of a chain value: ``0``, ``1`` or ``p/q``."""
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


class FracModel:
    """A model document read into Fraction tables."""

    def __init__(self, doc: dict):
        self.names = list(doc["states"])
        self.size = len(self.names)
        index = {name: i for i, name in enumerate(self.names)}
        self.valuation = {
            prop: {index[s]: Fraction(v) for s, v in row.items()}
            for prop, row in doc.get("valuation", {}).items()
        }
        self.atomics = {}
        for prog, rows in doc.get("programs", {}).items():
            table = {}
            for row in rows:
                key = (index[row["from"]], frozenset(index[t] for t in row["to"]))
                value = Fraction(row["value"])
                if value > table.get(key, ZERO):
                    table[key] = value
            self.atomics[prog] = table
        self._relations = {}
        self._values = {}

    def relation(self, prog):
        cached = self._relations.get(prog)
        if cached is not None:
            return cached
        kind = prog[0]
        if kind == "atom":
            rel = self.atomics.get(prog[1], {})
        elif kind == "choice":
            rel = naive.oracle_union(self.relation(prog[1]), self.relation(prog[2]), self.size)
        elif kind == "par":
            rel = parallel(self.relation(prog[1]), self.relation(prog[2]))
        elif kind == "seq":
            rel = compose(self.relation(prog[1]), self.relation(prog[2]))
        elif kind == "star":
            rel = star(self.relation(prog[1]), self.size)
        elif kind == "test":
            rel = {}
            for s in range(self.size):
                v = self.value(prog[1], s)
                if v > 0:
                    rel[(s, frozenset([s]))] = v
        else:
            raise TypeError(prog)
        self._relations[prog] = rel
        return rel

    def value(self, f, s: int) -> Fraction:
        key = (f, s)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        kind = f[0]
        if kind == "var":
            v = self.valuation.get(f[1], {}).get(s, ZERO)
        elif kind == "const":
            v = f[1]
        elif kind == "and":
            v = min(self.value(f[1], s), self.value(f[2], s))
        elif kind == "or":
            v = max(self.value(f[1], s), self.value(f[2], s))
        elif kind == "imp":
            v = min(ONE, ONE - self.value(f[1], s) + self.value(f[2], s))
        elif kind in ("box", "dia"):
            v = ONE if kind == "box" else ZERO
            for (src, targets), grade in self.relation(f[1]).items():
                if src != s:
                    continue
                meet = min((self.value(f[2], t) for t in targets), default=ONE)
                if kind == "box":
                    v = min(v, min(ONE, ONE - grade + meet))
                else:
                    v = max(v, tnorm(grade, meet))
        else:
            raise TypeError(f)
        self._values[key] = v
        return v


def compose(r, q):
    """Join over intermediate sets U and families (T_u) of r(s,U) (*) prod q(u,T_u)."""
    rows = {}
    for (u, targets), val in q.items():
        rows.setdefault(u, []).append((targets, val))
    out = {}

    def descend(s, options, i, val, union):
        if not val:
            return  # a zero factor keeps the whole product at zero
        if i == len(options):
            if val > out.get((s, union), ZERO):
                out[(s, union)] = val
            return
        for targets, qval in options[i]:
            descend(s, options, i + 1, tnorm(val, qval), union | targets)

    for (s, middle), rval in r.items():
        descend(s, [rows.get(u, []) for u in sorted(middle)], 0, rval, frozenset())
    return out


def parallel(r, q):
    """Join over T union W = X of r(s,T) (*) q(s,W)."""
    rows = {}
    for (s, w), qval in q.items():
        rows.setdefault(s, []).append((w, qval))
    out = {}
    for (s, t), rval in r.items():
        for w, qval in rows.get(s, ()):
            val = tnorm(rval, qval)
            if val > out.get((s, t | w), ZERO):
                out[(s, t | w)] = val
    return out


def star(r, size):
    unit = naive.oracle_iota(size)
    acc = unit
    while True:
        nxt = naive.oracle_union(unit, compose(r, acc), size)
        if nxt == acc:
            return acc
        acc = nxt
