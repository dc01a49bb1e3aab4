"""Axiom schemata: templates, instantiation, and instance matching.

Each template is written as text in the formula language and parsed at
the chain in use, so ``#0``, ``#1`` and ``~`` are that chain's bottom, top
and negation. Its names are the metavariables:

- the propositions ``phi``, ``psi`` and ``chi`` stand for formulas;
- the propositions ``c`` and ``d`` stand for chain constants, and ``e``
  for the constant the arithmetic schema A5 computes from them with the
  chain operation its variant names (``and`` meet, ``or`` join, ``imp``
  implication);
- the atomic programs ``pi``, ``pi0`` and ``pi1`` stand for programs.

A template is thus an ordinary formula. It is also the schema's generic
instance: every formula metavariable a fresh proposition and every
program metavariable a fresh atomic program, ``schema.template(ctx)``.

The propositional system consists of A1-A4 plus A5 (one entry per
connective). The dynamic system adds D1-D17. The intersection box schema
D7 ships in two variants: ``printed``, whose second conjunct repeats the
pi1 box, and ``corrected``, whose second conjunct boxes pi0 instead; the
repetition is a suspected typo and the auditor discriminates between the
two empirically.

The monotonicity rules ``Mon-box`` and ``Mon-diamond`` are written here
too, as a premise and a conclusion template each, outside the catalog.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from .chain import ChainContext, ChainValue
from .syntax import (
    Atomic,
    Constant,
    Formula,
    Program,
    PropVar,
    children,
    collect_names,
    parse_formula,
)


class MissingBinding(KeyError):
    """A metavariable was left unbound during instantiation."""


Binding = Formula | Program | ChainValue

# Proposition names that stand for chain constants rather than formulas.
_CONSTANTS = frozenset("cde")

# A5's computed constant e, by variant: the chain operation on c and d.
_A5_OPS = {"and": ChainValue.meet, "or": ChainValue.join, "imp": ChainValue.implies}

# Template text and chain -> the parsed template, kept for every chain read.
_parse_template = functools.lru_cache(maxsize=None)(parse_formula)


def schema_label(schema_id: str, variant: Optional[str]) -> str:
    """The name a schema is cited and reported by: ``id`` or ``id/variant``."""
    return schema_id if variant is None else f"{schema_id}/{variant}"


@dataclass(frozen=True)
class AxiomSchema:
    id: str
    variant: Optional[str]
    text: str  # the template in the formula language
    systems: tuple[str, ...]  # subset of ("PL", "DL")

    @property
    def label(self) -> str:
        return schema_label(self.id, self.variant)

    def template(self, ctx: ChainContext) -> Formula:
        """The template read at ``ctx``; parsed once per chain."""
        return _parse_template(self.text, ctx)

    @functools.cached_property
    def metas(self) -> tuple[tuple[str, str], ...]:
        """(name, kind) per bound metavariable, sorted by name; kind is
        'formula', 'program' or 'const'. The computed ``e`` is not
        listed. Built on first use, then kept."""
        props, progs = collect_names(self.template(ChainContext(2)))
        kinds = {name: "const" if name in _CONSTANTS else "formula" for name in props - {"e"}}
        kinds.update(dict.fromkeys(progs, "program"))
        return tuple(sorted(kinds.items()))


# -- catalog -------------------------------------------------------------------

_PL_TEXTS = {
    "A1": "phi -> (psi -> phi)",
    "A2": "(phi -> psi) -> ((psi -> chi) -> (phi -> chi))",
    "A3": "((phi -> psi) -> psi) -> ((psi -> phi) -> phi)",
    "A4": "(~psi -> ~phi) -> (phi -> psi)",
    "A5/and": "e <-> c & d",
    "A5/or": "e <-> c | d",
    "A5/imp": "e <-> (c -> d)",
}

_DL_TEXTS = {
    "D1": "[pi]#1",
    "D2": "[pi]phi & [pi]psi -> [pi](phi & psi)",
    "D3": "[pi](c -> phi) <-> (c -> [pi]phi)",
    "D4": "[pi](phi -> c) <-> (<pi>phi -> c)",
    "D5": "[pi0 ; pi1]phi <-> [pi0][pi1]phi",
    "D6": "[pi0 + pi1]phi <-> [pi0]phi & [pi1]phi",
    "D7/printed": "[pi0 ^ pi1]phi <-> (<pi0>#1 -> [pi1]phi) & (<pi1>#1 -> [pi1]phi)",
    "D7/corrected": "[pi0 ^ pi1]phi <-> (<pi0>#1 -> [pi1]phi) & (<pi1>#1 -> [pi0]phi)",
    "D8": "[pi*]phi -> phi & [pi][pi*]phi",
    "D9": "[pi*](phi -> [pi]phi) -> (phi -> [pi*]phi)",
    "D10": "[?(phi)]psi <-> (phi -> psi)",
    "D11": "<pi0 ; pi1>phi <-> <pi0><pi1>phi",
    "D12": "<pi0 + pi1>phi <-> <pi0>phi | <pi1>phi",
    "D13": "<pi0 ^ pi1>phi <-> <pi0>phi & <pi1>phi",
    "D14": "phi | <pi><pi*>phi -> <pi*>phi",
    "D15": "[pi*](<pi>phi -> phi) -> (<pi*>phi -> phi)",
    "D16": "<?(phi)>psi <-> phi & psi",
    "D17": "[pi]#0 | <pi>#1",
}


_CATALOG = [
    AxiomSchema(schema_id, variant or None, text, systems)
    for texts, systems in ((_PL_TEXTS, ("PL", "DL")), (_DL_TEXTS, ("DL",)))
    for label, text in texts.items()
    for schema_id, _, variant in [label.partition("/")]
]
_BY_LABEL = {s.label: s for s in _CATALOG}

# The monotonicity rules, each as (premise, conclusion): from a valid
# premise infer the conclusion. They stay out of the catalog, so no axiom
# step may cite them.
RULES = {
    rule_id: (AxiomSchema(rule_id, None, "phi -> psi", ()), AxiomSchema(rule_id, None, text, ()))
    for rule_id, text in (("Mon-box", "[pi]phi -> [pi]psi"), ("Mon-diamond", "<pi>phi -> <pi>psi"))
}


def all_schemata(system: str = "DL") -> list[AxiomSchema]:
    return [s for s in _CATALOG if system in s.systems]


def schemata_named(schema_id: str, variant: Optional[str] = None) -> list[AxiomSchema]:
    """Catalog entries for an id; a variant narrows to one entry."""
    if variant is not None:
        entry = _BY_LABEL.get(schema_label(schema_id, variant))
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

    def constant(name: str) -> ChainValue:
        if name == "e":
            return _A5_OPS[schema.variant](constant("c"), constant("d"))
        value = need(name)
        if not isinstance(value, ChainValue):
            raise TypeError(f"binding for {name!r} must be a chain value")
        return value

    def build(node):
        kind = type(node)
        if kind is PropVar and node.name in _CONSTANTS:
            return Constant(constant(node.name))
        if kind is PropVar or kind is Atomic:
            return need(node.name)
        parts = children(node)
        return kind(*map(build, parts)) if parts else node

    return build(schema.template(ctx))


# -- matching ----------------------------------------------------------------------


def match_axiom_instance(
    schema: AxiomSchema, formula: Formula, ctx: ChainContext
) -> tuple[bool, Optional[dict[str, Binding]]]:
    """Syntactic unification of the template against a concrete formula.

    Metavariables bind whole subtrees, and a constant metavariable binds
    only a constant's value; a repeated metavariable must match equal
    subtrees. A5's ``e`` must equal the chain operation on ``c`` and
    ``d``, and is left out of the returned bindings.
    """
    bindings: dict[str, Binding] = {}

    def bind(name: str, value: Binding) -> bool:
        seen = bindings.setdefault(name, value)
        return seen is value or seen == value

    def walk(t, node) -> bool:
        kind = type(t)
        if kind is PropVar and t.name in _CONSTANTS:
            return type(node) is Constant and bind(t.name, node.value)
        if kind is PropVar or kind is Atomic:
            return bind(t.name, node)
        if kind is not type(node):
            return False
        parts = children(t)
        if not parts:
            return t == node  # Constant
        return all(map(walk, parts, children(node)))

    if not walk(schema.template(ctx), formula):
        return False, None
    if "e" in bindings:
        e = bindings.pop("e")
        if e != _A5_OPS[schema.variant](bindings["c"], bindings["d"]):
            return False, None
    return True, bindings
