"""Exact arithmetic in finite Lukasiewicz chains.

The chain of order n carries the truth values {0/(n-1), ..., (n-1)/(n-1)}.
Every value is stored as its integer numerator over the fixed denominator
n-1, so all operations are bit-exact and the algebraic laws can be checked
exhaustively rather than up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import total_ordering


class InputError(ValueError):
    """Input that cannot be used: the base of every error that the
    command line reports with ``error:`` and exit 2."""


class NotAChainElement(InputError):
    """A rational that does not lie on the chain."""


class ChainMismatchError(InputError):
    """Values or structures from different chains were combined."""


@dataclass(frozen=True)
class ChainContext:
    """A chain of ``n`` equally spaced truth values, n >= 2."""

    n: int
    # Numerator of the greatest element, n - 1. A plain attribute, not a
    # property: the relation algebra and the evaluator read it per call.
    top: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"chain order must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "top", self.n - 1)

    @property
    def zero(self) -> ChainValue:
        return ChainValue(0, self)

    @property
    def one(self) -> ChainValue:
        return ChainValue(self.n - 1, self)

    def value(self, numerator: int) -> ChainValue:
        return ChainValue(numerator, self)

    def values(self) -> list[ChainValue]:
        """All elements, bottom to top."""
        return [ChainValue(k, self) for k in range(self.n)]


@total_ordering
@dataclass(frozen=True)
class ChainValue:
    """One element k/(n-1) of a chain, held as the exact numerator k."""

    numerator: int
    context: ChainContext

    def __post_init__(self) -> None:
        if not isinstance(self.numerator, int):
            raise TypeError(f"numerator must be an integer, got {self.numerator!r}")
        if not 0 <= self.numerator <= self.context.top:
            raise ValueError(
                f"numerator {self.numerator} outside chain of order {self.context.n}"
            )

    def _same(self, other: ChainValue) -> None:
        if not isinstance(other, ChainValue):
            raise TypeError(f"expected a chain value, got {other!r}")
        if other.context != self.context:
            raise ChainMismatchError(
                f"cannot combine values from chains of order "
                f"{self.context.n} and {other.context.n}"
            )

    # -- the algebra ------------------------------------------------------

    def conj(self, other: ChainValue) -> ChainValue:
        """Strong conjunction: max(0, a + b - 1)."""
        self._same(other)
        top = self.context.top
        return ChainValue(max(0, self.numerator + other.numerator - top), self.context)

    def implies(self, other: ChainValue) -> ChainValue:
        """Residual implication: min(1, 1 - a + b)."""
        self._same(other)
        top = self.context.top
        return ChainValue(min(top, top - self.numerator + other.numerator), self.context)

    def neg(self) -> ChainValue:
        """Involutive negation 1 - a, i.e. a -> 0."""
        return ChainValue(self.context.top - self.numerator, self.context)

    def join(self, other: ChainValue) -> ChainValue:
        self._same(other)
        return ChainValue(max(self.numerator, other.numerator), self.context)

    def meet(self, other: ChainValue) -> ChainValue:
        self._same(other)
        return ChainValue(min(self.numerator, other.numerator), self.context)

    # -- order ------------------------------------------------------------

    def __lt__(self, other: ChainValue) -> bool:
        self._same(other)
        return self.numerator < other.numerator

    @property
    def is_top(self) -> bool:
        return self.numerator == self.context.top

    @property
    def is_bottom(self) -> bool:
        return self.numerator == 0

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return format_value(self)


def format_value(value: ChainValue) -> str:
    """Render as ``p/q`` in lowest terms; the bounds render as ``0``/``1``."""
    k, top = value.numerator, value.context.top
    if k == 0:
        return "0"
    if k == top:
        return "1"
    g = math.gcd(k, top)
    return f"{k // g}/{top // g}"


def from_rational(p: int, q: int, ctx: ChainContext) -> ChainValue:
    """The chain element equal to p/q, if there is one.

    Raises NotAChainElement when p/q does not reduce to some k/(n-1).
    """
    if q <= 0:
        raise NotAChainElement(f"denominator must be positive, got {q}")
    if not 0 <= p <= q:
        raise NotAChainElement(f"{p}/{q} lies outside [0, 1]")
    num, rem = divmod(p * ctx.top, q)
    if rem != 0:
        raise NotAChainElement(f"{p}/{q} is not an element of the chain of order {ctx.n}")
    return ChainValue(num, ctx)


def rational_parts(text: str) -> tuple[int, int]:
    """The integers p and q of ``p/q`` text, q = 1 without a slash.
    Raises ValueError when a part is not an integer, as in ``3/``."""
    p, slash, q = text.partition("/")
    return int(p), int(q) if slash else 1


def parse_value(text: str, ctx: ChainContext) -> ChainValue:
    """Parse the ``p/q`` serialization (``0`` and ``1`` accepted)."""
    try:
        p, q = rational_parts(text.strip())
    except ValueError:
        raise NotAChainElement(f"malformed chain value {text!r}") from None
    return from_rational(p, q, ctx)
