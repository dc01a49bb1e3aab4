"""The derivation reader that ``proofcheck`` replaced, kept as a
test-only reference.

``reference_parse_derivation`` is the package's ``parse_derivation``
before one table, ``_STEP_FORMS``, held every step kind's form: it
matches each kind's head with its own regex (``_AXIOM_HEAD_RE``,
``_MP_HEAD_RE``, ``_MON_HEAD_RE``), names that kind's form in its own
error block, and reads the step numbers and the formula per kind. Its
cited names are ``[A-Za-z]\\w*``, so a name with a hyphen is a
malformed line here and an unknown schema in the package.

It parses each line on its own, where the package parses the lines
with one map of the groups read so far and shares their nodes.

The differential tests assert that both readers return equal
derivations, or raise the same exception type with the same message.
"""

import re
from typing import Optional

from gradedpdl.chain import ChainContext, InputError
from gradedpdl.proofcheck import (
    AxiomStep,
    Derivation,
    DerivationFormatError,
    MonStep,
    MPStep,
    PremiseStep,
    Step,
)
from gradedpdl.syntax import Formula, parse_formula

_STEP_RE = re.compile(
    r"^(?P<num>\d+)\s+(?P<kind>axiom|premise|mp|mon)\s+(?P<rest>.*)$"
)
_AXIOM_HEAD_RE = re.compile(r"^(?P<id>[A-Za-z]\w*)(?:/(?P<variant>[\w-]+))?\s+(?P<formula>.*)$")
_MP_HEAD_RE = re.compile(r"^(?P<i>\d+)\s+(?P<j>\d+)\s+(?P<formula>.*)$")
_MON_HEAD_RE = re.compile(r"^(?P<i>\d+)\s+(?P<formula>.*)$")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")


def _number(digits: str, lineno: int) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise DerivationFormatError(f"line {lineno}: number {digits[:20]}... is too long") from None


def _formula(text: str, ctx: ChainContext, lineno: int) -> Formula:
    try:
        return parse_formula(text, ctx)
    except InputError as exc:
        raise DerivationFormatError(f"line {lineno}: {exc}") from exc


def reference_parse_derivation(text: str) -> Derivation:
    ctx: Optional[ChainContext] = None
    premises: list[Formula] = []
    steps: list[Step] = []
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
            premises.append(_formula(line[len("premise:"):], ctx, lineno))
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise DerivationFormatError(f"line {lineno}: unrecognized step {line!r}")
        num = _number(m.group("num"), lineno)
        if num != len(steps) + 1:
            raise DerivationFormatError(
                f"line {lineno}: step numbered {num}, expected {len(steps) + 1}"
            )
        kind, rest = m.group("kind"), m.group("rest").strip()
        if kind == "axiom":
            head = _AXIOM_HEAD_RE.match(rest)
            if not head:
                raise DerivationFormatError(
                    f"line {lineno}: axiom steps read '<k> axiom <id>[/<variant>] <formula>'"
                )
            steps.append(
                AxiomStep(
                    head.group("id"),
                    head.group("variant"),
                    _formula(head.group("formula"), ctx, lineno),
                )
            )
        elif kind == "premise":
            steps.append(PremiseStep(_formula(rest, ctx, lineno)))
        elif kind == "mp":
            head = _MP_HEAD_RE.match(rest)
            if not head:
                raise DerivationFormatError(
                    f"line {lineno}: detachment steps read '<k> mp <i> <j> <formula>'"
                )
            steps.append(
                MPStep(
                    _number(head.group("i"), lineno),
                    _number(head.group("j"), lineno),
                    _formula(head.group("formula"), ctx, lineno),
                )
            )
        else:
            head = _MON_HEAD_RE.match(rest)
            if not head:
                raise DerivationFormatError(
                    f"line {lineno}: monotonicity steps read '<k> mon <i> <formula>'"
                )
            steps.append(
                MonStep(
                    _number(head.group("i"), lineno), _formula(head.group("formula"), ctx, lineno)
                )
            )
    if ctx is None:
        raise DerivationFormatError("empty derivation: missing the 'n: <int>' header")
    return Derivation(ctx, premises, steps)
