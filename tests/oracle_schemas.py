"""The axiom catalog as ``schemas`` kept it before its templates were
written as formula text, kept as a test-only reference.

Templates here are formula trees extended with template-only leaves:
formula metas (phi, psi, chi), program metas (pi, pi0, pi1), constant
metas (c, d), the chain-dependent bound constants, and a computed-constant
node for the arithmetic axiom A5. ``metas``, ``instantiate_schema`` and
``match_axiom_instance`` each walk these leaves. The differential tests in
``tests/test_schemas.py`` check the package's catalog against this one,
and ``oracle_sampler`` reads its metavariable walk from it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Union as _U

from gradedpdl.chain import ChainContext, ChainValue
from gradedpdl.syntax import (
    And,
    Box,
    Constant,
    Diamond,
    Formula,
    Implies,
    Inter,
    Or,
    Program,
    Seq,
    Star,
    Test,
    Union as PUnion,
    biconditional,
    children,
)
from gradedpdl.schemas import MissingBinding


@dataclass(frozen=True)
class FormulaMeta:
    name: str


@dataclass(frozen=True)
class ProgramMeta:
    name: str


@dataclass(frozen=True)
class ConstMeta:
    """Stands for a chain constant; usable in formula position."""

    name: str


@dataclass(frozen=True)
class BoundConst:
    """The chain-dependent bottom or top constant."""

    which: str  # "zero" | "one"


@dataclass(frozen=True)
class ConstOp:
    """A constant computed from two constant metas by a chain operation."""

    op: str  # "and" | "or" | "imp"
    left: ConstMeta
    right: ConstMeta


Template = _U[Formula, FormulaMeta, ConstMeta, BoundConst, ConstOp]

Binding = _U[Formula, Program, ChainValue]


def _apply_const_op(op: str, a: ChainValue, b: ChainValue) -> ChainValue:
    if op == "and":
        return a.meet(b)
    if op == "or":
        return a.join(b)
    if op == "imp":
        return a.implies(b)
    raise ValueError(f"unknown constant operation {op!r}")


_FORMULA_OPS = {"and": And, "or": Or, "imp": Implies}


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    variant: Optional[str]
    template: Template
    systems: tuple[str, ...]  # subset of ("PL", "DL")

    @property
    def label(self) -> str:
        return self.id if self.variant is None else f"{self.id}/{self.variant}"

    @functools.cached_property
    def metas(self) -> tuple[tuple[str, str], ...]:
        """(name, kind) per metavariable, sorted by name; kind is
        'formula', 'program' or 'const'. Built on first use, then kept."""
        kinds: dict[str, str] = {}
        stack: list[object] = [self.template]
        while stack:
            node = stack.pop()
            if isinstance(node, FormulaMeta):
                kinds[node.name] = "formula"
            elif isinstance(node, ProgramMeta):
                kinds[node.name] = "program"
            elif isinstance(node, ConstMeta):
                kinds[node.name] = "const"
            elif isinstance(node, ConstOp):
                stack += [node.left, node.right]
            else:
                stack.extend(children(node))
        return tuple(sorted(kinds.items()))


# -- catalog -------------------------------------------------------------------

_PHI = FormulaMeta("phi")
_PSI = FormulaMeta("psi")
_CHI = FormulaMeta("chi")
_PI = ProgramMeta("pi")
_PI0 = ProgramMeta("pi0")
_PI1 = ProgramMeta("pi1")
_C = ConstMeta("c")
_D = ConstMeta("d")
_ZERO = BoundConst("zero")
_ONE = BoundConst("one")


def _neg(t: Template) -> Template:
    return Implies(t, _ZERO)


def _catalog() -> list[AxiomSchema]:
    pl = ("PL", "DL")
    dl = ("DL",)
    out = [
        AxiomSchema("A1", None, Implies(_PHI, Implies(_PSI, _PHI)), pl),
        AxiomSchema(
            "A2",
            None,
            Implies(
                Implies(_PHI, _PSI),
                Implies(Implies(_PSI, _CHI), Implies(_PHI, _CHI)),
            ),
            pl,
        ),
        AxiomSchema(
            "A3",
            None,
            Implies(
                Implies(Implies(_PHI, _PSI), _PSI),
                Implies(Implies(_PSI, _PHI), _PHI),
            ),
            pl,
        ),
        AxiomSchema(
            "A4",
            None,
            Implies(Implies(_neg(_PSI), _neg(_PHI)), Implies(_PHI, _PSI)),
            pl,
        ),
    ]
    for op, node in _FORMULA_OPS.items():
        out.append(
            AxiomSchema(
                "A5", op, biconditional(ConstOp(op, _C, _D), node(_C, _D)), pl
            )
        )
    out += [
        AxiomSchema("D1", None, Box(_PI, _ONE), dl),
        AxiomSchema(
            "D2",
            None,
            Implies(And(Box(_PI, _PHI), Box(_PI, _PSI)), Box(_PI, And(_PHI, _PSI))),
            dl,
        ),
        AxiomSchema(
            "D3",
            None,
            biconditional(Box(_PI, Implies(_C, _PHI)), Implies(_C, Box(_PI, _PHI))),
            dl,
        ),
        AxiomSchema(
            "D4",
            None,
            biconditional(Box(_PI, Implies(_PHI, _C)), Implies(Diamond(_PI, _PHI), _C)),
            dl,
        ),
        AxiomSchema(
            "D5",
            None,
            biconditional(Box(Seq(_PI0, _PI1), _PHI), Box(_PI0, Box(_PI1, _PHI))),
            dl,
        ),
        AxiomSchema(
            "D6",
            None,
            biconditional(
                Box(PUnion(_PI0, _PI1), _PHI), And(Box(_PI0, _PHI), Box(_PI1, _PHI))
            ),
            dl,
        ),
        AxiomSchema(
            "D7",
            "printed",
            biconditional(
                Box(Inter(_PI0, _PI1), _PHI),
                And(
                    Implies(Diamond(_PI0, _ONE), Box(_PI1, _PHI)),
                    Implies(Diamond(_PI1, _ONE), Box(_PI1, _PHI)),
                ),
            ),
            dl,
        ),
        AxiomSchema(
            "D7",
            "corrected",
            biconditional(
                Box(Inter(_PI0, _PI1), _PHI),
                And(
                    Implies(Diamond(_PI0, _ONE), Box(_PI1, _PHI)),
                    Implies(Diamond(_PI1, _ONE), Box(_PI0, _PHI)),
                ),
            ),
            dl,
        ),
        AxiomSchema(
            "D8",
            None,
            Implies(
                Box(Star(_PI), _PHI),
                And(_PHI, Box(_PI, Box(Star(_PI), _PHI))),
            ),
            dl,
        ),
        AxiomSchema(
            "D9",
            None,
            Implies(
                Box(Star(_PI), Implies(_PHI, Box(_PI, _PHI))),
                Implies(_PHI, Box(Star(_PI), _PHI)),
            ),
            dl,
        ),
        AxiomSchema(
            "D10",
            None,
            biconditional(Box(Test(_PHI), _PSI), Implies(_PHI, _PSI)),
            dl,
        ),
        AxiomSchema(
            "D11",
            None,
            biconditional(
                Diamond(Seq(_PI0, _PI1), _PHI), Diamond(_PI0, Diamond(_PI1, _PHI))
            ),
            dl,
        ),
        AxiomSchema(
            "D12",
            None,
            biconditional(
                Diamond(PUnion(_PI0, _PI1), _PHI),
                Or(Diamond(_PI0, _PHI), Diamond(_PI1, _PHI)),
            ),
            dl,
        ),
        AxiomSchema(
            "D13",
            None,
            biconditional(
                Diamond(Inter(_PI0, _PI1), _PHI),
                And(Diamond(_PI0, _PHI), Diamond(_PI1, _PHI)),
            ),
            dl,
        ),
        AxiomSchema(
            "D14",
            None,
            Implies(
                Or(_PHI, Diamond(_PI, Diamond(Star(_PI), _PHI))),
                Diamond(Star(_PI), _PHI),
            ),
            dl,
        ),
        AxiomSchema(
            "D15",
            None,
            Implies(
                Box(Star(_PI), Implies(Diamond(_PI, _PHI), _PHI)),
                Implies(Diamond(Star(_PI), _PHI), _PHI),
            ),
            dl,
        ),
        AxiomSchema(
            "D16",
            None,
            biconditional(Diamond(Test(_PHI), _PSI), And(_PHI, _PSI)),
            dl,
        ),
        AxiomSchema(
            "D17",
            None,
            Or(Box(_PI, _ZERO), Diamond(_PI, _ONE)),
            dl,
        ),
    ]
    return out


_CATALOG = _catalog()
_BY_LABEL = {s.label: s for s in _CATALOG}


def all_schemata(system: str = "DL") -> list[AxiomSchema]:
    return [s for s in _CATALOG if system in s.systems]


def schemata_named(schema_id: str, variant: Optional[str] = None) -> list[AxiomSchema]:
    """Catalog entries for an id; a variant narrows to one entry."""
    if variant is not None:
        entry = _BY_LABEL.get(f"{schema_id}/{variant}")
        return [entry] if entry else []
    return [s for s in _CATALOG if s.id == schema_id]


# -- instantiation ---------------------------------------------------------------


def instantiate_schema(
    schema: AxiomSchema, bindings: Mapping[str, Binding], ctx: ChainContext
) -> Formula:
    """Substitute concrete trees and constants for the metavariables."""

    def need(name: str) -> Binding:
        try:
            return bindings[name]
        except KeyError:
            raise MissingBinding(
                f"schema {schema.label} needs a binding for {name!r}"
            ) from None

    def build(node):
        if isinstance(node, FormulaMeta):
            return need(node.name)
        if isinstance(node, ProgramMeta):
            return need(node.name)
        if isinstance(node, ConstMeta):
            value = need(node.name)
            if not isinstance(value, ChainValue):
                raise TypeError(f"binding for {node.name!r} must be a chain value")
            return Constant(value)
        if isinstance(node, BoundConst):
            return Constant(ctx.one if node.which == "one" else ctx.zero)
        if isinstance(node, ConstOp):
            a, b = need(node.left.name), need(node.right.name)
            return Constant(_apply_const_op(node.op, a, b))
        parts = children(node)
        if not parts:
            return node  # PropVar, Constant, Atomic
        return type(node)(*map(build, parts))

    return build(schema.template)


# -- matching ----------------------------------------------------------------------


def match_axiom_instance(
    schema: AxiomSchema, formula: Formula, ctx: ChainContext
) -> tuple[bool, Optional[dict[str, Binding]]]:
    """Syntactic unification of the template against a concrete formula.

    Metavariables bind whole subtrees; a repeated metavariable must match
    equal subtrees. Computed constants are checked by chain arithmetic
    once both operands are bound.
    """
    bindings: dict[str, Binding] = {}
    deferred: list[tuple[ConstOp, ChainValue]] = []

    def walk(t, node) -> bool:
        if isinstance(t, FormulaMeta) or isinstance(t, ProgramMeta):
            seen = bindings.get(t.name)
            if seen is None:
                bindings[t.name] = node
                return True
            return seen == node
        if isinstance(t, ConstMeta):
            if not isinstance(node, Constant):
                return False
            seen = bindings.get(t.name)
            if seen is None:
                bindings[t.name] = node.value
                return True
            return seen == node.value
        if isinstance(t, BoundConst):
            if not isinstance(node, Constant):
                return False
            want = ctx.top if t.which == "one" else 0
            return node.value.context == ctx and node.value.numerator == want
        if isinstance(t, ConstOp):
            if not isinstance(node, Constant):
                return False
            deferred.append((t, node.value))
            return True
        if type(t) is not type(node):
            return False
        parts = children(t)
        if not parts:
            return t == node  # PropVar, Constant, Atomic
        return all(map(walk, parts, children(node)))

    if not walk(schema.template, formula):
        return False, None
    for const_op, claimed in deferred:
        a = bindings.get(const_op.left.name)
        b = bindings.get(const_op.right.name)
        if not isinstance(a, ChainValue) or not isinstance(b, ChainValue):
            return False, None
        if _apply_const_op(const_op.op, a, b) != claimed:
            return False, None
    return True, bindings
