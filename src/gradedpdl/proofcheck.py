"""Hilbert-style derivation checking.

A derivation is a numbered sequence of steps, each one an axiom-schema
instance, a premise, or a detachment from two earlier steps. Checking is
purely syntactic: a detachment at step k citing i and j demands that
step j be exactly the implication from step i's formula to the claimed
formula, as trees.

Text format, one step per line::

    n: 3
    premise: p -> q
    1 premise p -> q
    2 axiom A1 p -> (q -> p)
    3 axiom D7/corrected <formula>
    4 mp 1 2 <formula>
    5 mon 4 <formula>        # only with the monotonicity rule enabled

``_STEP_FORMS`` is the one statement of each step kind's form. Blank
lines and whole-line ``#`` comments are ignored (inline comments would
collide with constant literals). Step numbers must run 1, 2, 3, ... in
order. A line ends at ``\n``, ``\r\n`` or ``\r`` and nowhere
else: a form feed or U+2028 is whitespace inside a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .chain import ChainContext, InputError
from .schemas import (
    RULES, all_schemata, instantiate_schema, match_axiom_instance, schema_label, schemata_named,
)
from .syntax import Formula, Implies, format_formula, parse_formula


class DerivationFormatError(InputError):
    """The derivation text does not follow the step format."""


@dataclass(frozen=True)
class AxiomStep:
    schema_id: str
    variant: Optional[str]
    formula: Formula


@dataclass(frozen=True)
class PremiseStep:
    formula: Formula


@dataclass(frozen=True)
class MPStep:
    antecedent: int  # 1-based index of the minor premise
    implication: int  # 1-based index of the implication
    formula: Formula


@dataclass(frozen=True)
class MonStep:
    source: int  # 1-based index of the implication being lifted
    formula: Formula


Step = AxiomStep | PremiseStep | MPStep | MonStep


@dataclass
class Derivation:
    context: ChainContext
    premises: list[Formula]
    steps: list[Step]


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failed_step: Optional[int] = None
    reason: Optional[str] = None  # machine-readable code
    message: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


def _reject(step: int, reason: str, message: str) -> Verdict:
    return Verdict(False, step, reason, message)


# A rejection message shows a formula of up to this many characters in
# full and a longer one by its head and tail: a formula's text grows with
# its expanded tree, which a short chain of ``<->`` makes huge.
SHOWN_FORMULA_CHARS = 2000


def _shown(formula: Formula) -> str:
    text = format_formula(formula)
    if len(text) <= SHOWN_FORMULA_CHARS:
        return repr(text)
    keep = SHOWN_FORMULA_CHARS // 2
    left_out = len(text) - 2 * keep
    return f"{text[:keep]!r} ... [{left_out} characters left out] ... {text[-keep:]!r}"


def check_derivation(
    derivation: Derivation,
    system: str = "DL",
    any_schema: bool = False,
    allow_mon: bool = False,
) -> Verdict:
    """Validate every step; report the first failure with its index.

    ``system`` is "PL" (propositional schemata only) or "DL" (the full
    catalog). With ``any_schema`` an axiom step is accepted when any
    schema of the system matches, regardless of the name it cites. The
    monotonicity steps are accepted only when ``allow_mon`` is set, since
    the displayed system has no such rule.
    """
    if system not in ("PL", "DL"):
        raise ValueError(f"unknown system {system!r}")
    ctx = derivation.context
    derived: list[Formula] = []
    for k, step in enumerate(derivation.steps, start=1):
        if isinstance(step, AxiomStep):
            if any_schema:
                candidates = all_schemata(system)
                cited = f"any schema of system {system}"
            else:
                label = schema_label(step.schema_id, step.variant)
                candidates = schemata_named(step.schema_id, step.variant)
                candidates = [s for s in candidates if system in s.systems]
                if not candidates:
                    return _reject(
                        k, "unknown-schema",
                        f"step {k}: no schema named {label!r} in system {system}",
                    )
                cited = f"schema {label}"
            if not any(match_axiom_instance(s, step.formula, ctx)[0] for s in candidates):
                return _reject(
                    k, "axiom-mismatch",
                    f"step {k}: {_shown(step.formula)} is not an instance of {cited}",
                )
        elif isinstance(step, PremiseStep):
            if step.formula not in derivation.premises:
                return _reject(
                    k, "not-a-premise",
                    f"step {k}: {_shown(step.formula)} is not among the premises",
                )
        elif isinstance(step, MPStep):
            i, j = step.antecedent, step.implication
            if not (1 <= i < k and 1 <= j < k):
                return _reject(
                    k, "bad-reference",
                    f"step {k}: detachment references {i}, {j}; both must be earlier steps",
                )
            want = Implies(derived[i - 1], step.formula)
            if derived[j - 1] != want:
                return _reject(
                    k, "mp-mismatch",
                    f"step {k}: step {j} is not an implication with antecedent "
                    f"{_shown(derived[i - 1])} and consequent "
                    f"{_shown(step.formula)}",
                )
        elif isinstance(step, MonStep):
            if not allow_mon:
                return _reject(
                    k, "mon-not-enabled",
                    f"step {k}: the monotonicity rule is not part of the checked system",
                )
            i = step.source
            if not 1 <= i < k:
                return _reject(
                    k, "bad-reference",
                    f"step {k}: monotonicity references {i}; must be an earlier step",
                )
            if not _mon_lift_ok(derived[i - 1], step.formula, ctx):
                return _reject(
                    k, "mon-mismatch",
                    f"step {k}: {_shown(step.formula)} does not lift "
                    f"{_shown(derived[i - 1])} under one modality",
                )
        else:  # pragma: no cover - parser produces only the above
            return _reject(k, "unknown-step", f"step {k}: unrecognized step kind")
        derived.append(step.formula)
    return Verdict(True)


def _mon_lift_ok(source: Formula, claimed: Formula, ctx: ChainContext) -> bool:
    """``claimed`` is an instance of a monotonicity rule's conclusion
    whose premise instance is ``source``."""
    for premise, conclusion in RULES.values():
        ok, bindings = match_axiom_instance(conclusion, claimed, ctx)
        if ok and instantiate_schema(premise, bindings, ctx) == source:
            return True
    return False


# -- text format -----------------------------------------------------------------

# The one statement of each step kind's form: the step it builds, the
# pattern of what follows '<k> <kind> ', and the form a line that does
# not match is told to follow. The step's fields come in the order of
# its class, the formula last; the fields named ``i`` and ``j`` are step
# numbers.
_STEP_FORMS = {
    kind: (step, re.compile(head + r"(?P<formula>.*)"), usage)
    for kind, step, head, usage in [
        ("axiom", AxiomStep, r"(?P<id>[A-Za-z][\w-]*)(?:/(?P<variant>[\w-]+))?\s+",
         "axiom steps read '<k> axiom <id>[/<variant>] <formula>'"),
        ("premise", PremiseStep, r"", "premise steps read '<k> premise <formula>'"),
        ("mp", MPStep, r"(?P<i>\d+)\s+(?P<j>\d+)\s+",
         "detachment steps read '<k> mp <i> <j> <formula>'"),
        ("mon", MonStep, r"(?P<i>\d+)\s+", "monotonicity steps read '<k> mon <i> <formula>'"),
    ]
}
_STEP_RE = re.compile(rf"^(?P<num>\d+)\s+(?P<kind>{'|'.join(_STEP_FORMS)})\s+(?P<rest>.*)$")
# Only these end a line. ``str.splitlines`` also splits at form feeds,
# U+2028 and other characters that a formula may hold as whitespace.
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")


def _number(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise DerivationFormatError(f"line {lineno}: number {digits[:20]}... is too long") from None


def _formula(text: str, ctx: ChainContext, lineno: int, groups: dict) -> Formula:
    try:
        return parse_formula(text, ctx, groups)
    except InputError as exc:
        raise DerivationFormatError(f"line {lineno}: {exc}") from exc


def parse_derivation(text: str) -> Derivation:
    """The derivation ``text`` states. Its lines restate the same
    subformulas, every premise of a detachment and every metavariable an
    axiom instance repeats, so they are parsed with one map of bracketed
    groups: a group already read in the file is the node read then."""
    ctx: Optional[ChainContext] = None
    premises: list[Formula] = []
    steps: list[Step] = []
    groups: dict = {}
    for lineno, raw in enumerate(_LINE_BREAK_RE.split(text), start=1):
        line = raw.strip()
        # whole-line comments only: constants also use '#'
        if not line or line.startswith("#"):
            continue
        if ctx is None:
            m = re.match(r"^n\s*:\s*(\d+)$", line)
            if not m:
                raise DerivationFormatError(
                    f"line {lineno}: expected the chain header 'n: <int>' first"
                )
            n = _number(m.group(1), lineno)
            if n < 2:
                raise DerivationFormatError(f"line {lineno}: chain order must be >= 2, got {n}")
            ctx = ChainContext(n)
            continue
        if line.startswith("premise:"):
            if steps:
                raise DerivationFormatError(
                    f"line {lineno}: premises must precede the numbered steps"
                )
            premises.append(_formula(line[len("premise:"):], ctx, lineno, groups))
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise DerivationFormatError(f"line {lineno}: unrecognized step {line!r}")
        num = _number(m.group("num"), lineno)
        if num != len(steps) + 1:
            raise DerivationFormatError(
                f"line {lineno}: step numbered {num}, expected {len(steps) + 1}"
            )
        step, pattern, usage = _STEP_FORMS[m.group("kind")]
        head = pattern.fullmatch(m.group("rest"))
        if not head:
            raise DerivationFormatError(f"line {lineno}: {usage}")
        *fields, formula = (
            _number(value, lineno) if name in ("i", "j") else value
            for name, value in head.groupdict().items()
        )
        steps.append(step(*fields, _formula(formula, ctx, lineno, groups)))
    if ctx is None:
        raise DerivationFormatError("empty derivation: missing the 'n: <int>' header")
    return Derivation(ctx, premises, steps)


def load_derivation(path) -> Derivation:
    # utf-8-sig drops the byte order mark some editors put first
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise DerivationFormatError(f"{path}: {exc}") from None
    return parse_derivation(text)
