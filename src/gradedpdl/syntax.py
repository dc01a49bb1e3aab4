"""Formula and program syntax: ASTs, concrete notation, closure computation.

Concrete syntax (whitespace-insensitive)::

    formula := imp ( "<->" imp )*
    imp     := or ( "->" imp )?          right-associative
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "~" unary | "[" program "]" unary | "<" program ">" unary | atom
    atom    := ident | "#" int ( "/" int )? | "(" formula ")"
    program := par ( "+" par )*
    par     := seq ( "^" seq )*
    seq     := post ( ";" post )*
    post    := prim ( "*" )*
    prim    := ident | "?" "(" formula ")" | "(" program ")"

``~f`` is notation for ``f -> #0`` and ``f <-> g`` for the conjunction of
the two implications; the parser removes both, so the ASTs below have no
negation or biconditional nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Union as _U

from .chain import ChainContext, ChainValue, NotAChainElement, format_value, from_rational


# Deepest nesting the parser accepts, and the most levels a parsed tree may
# have. The parser recurses up to ten frames per nesting level (a bracket
# that opens an operand shares the operand's level), and hashing,
# comparing, evaluating and printing a tree up to three per level, so at
# this depth each stays under 650 frames of Python's default recursion
# limit of 1000.
MAX_DEPTH = 64

# Most nodes a parsed tree may have once both sides of every "<->" are
# written out. Evaluation walks the shared graph, but printing walks the
# tree, and every formula that reaches a report or a seed is printed;
# 15 chained "<->" links give 196 603 nodes, 16 give 393 211.
MAX_NODES = 1 << 18


class ParseError(ValueError):
    """Input text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ClosureBudgetExceeded(RuntimeError):
    """The closure worklist grew past its safety cap."""


# -- abstract syntax --------------------------------------------------------


def _node(cls):
    """Make ``cls`` a frozen dataclass whose hash is computed once per node
    and cached on it.

    The cached value is the one the dataclass hash gives, the hash of the
    field tuple, so sets and dicts of nodes iterate in the same order. A
    dataclass hash re-hashes the whole subtree on every call. The cache is
    left out of pickles, because string hashes differ between processes.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        return {name: getattr(self, name) for name in names}

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class PropVar:
    name: str


@_node
class Constant:
    value: ChainValue


@_node
class And:
    left: "Formula"
    right: "Formula"


@_node
class Or:
    left: "Formula"
    right: "Formula"


@_node
class Implies:
    left: "Formula"
    right: "Formula"


@_node
class Box:
    program: "Program"
    body: "Formula"


@_node
class Diamond:
    program: "Program"
    body: "Formula"


@_node
class Atomic:
    name: str


@_node
class Union:
    left: "Program"
    right: "Program"


@_node
class Inter:
    left: "Program"
    right: "Program"


@_node
class Seq:
    left: "Program"
    right: "Program"


@_node
class Star:
    body: "Program"


@_node
class Test:
    condition: "Formula"

    __test__ = False  # keep pytest from collecting the class


Formula = _U[PropVar, Constant, And, Or, Implies, Box, Diamond]
Program = _U[Atomic, Union, Inter, Seq, Star, Test]


def negation(f: Formula, ctx: ChainContext) -> Formula:
    """``~f`` desugared: f -> #0."""
    return Implies(f, Constant(ctx.zero))


def biconditional(a: Formula, b: Formula) -> Formula:
    """``a <-> b`` desugared: (a -> b) & (b -> a)."""
    return And(Implies(a, b), Implies(b, a))


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<const>\#\d+(?:/\d+)?)"
    r"|(?P<op><->|->|[~&|()\[\]<>+^;*?])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: ChainContext):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.i = 0
        # Open nested() calls, which bound the parser's own recursion, and
        # the height of the tree the last rule returned: chains such as
        # p & q & ... nest to the left in the tree but not in the parser.
        self.depth = 0
        self.height = 0
        # Token index at which the last operand nested() began.
        self.level_start = -1
        # Whether a "<->" put one subtree into the tree twice.
        self.shared = False

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        kind, got, pos = self.tokens[self.i]
        if got != text or kind == "eof":
            shown = got if kind != "eof" else "end of input"
            raise ParseError(f"expected {text!r}, found {shown!r}", pos)
        self.i += 1

    def at(self, text: str) -> bool:
        # The end token's text is "", which no caller asks for.
        return self.tokens[self.i][1] == text

    def done(self) -> None:
        kind, got, pos = self.tokens[self.i]
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {got!r}", pos)

    def nested(self, rule, pos: int, bracket: bool = False):
        """Parse ``rule`` one nesting level down. A bracket that opens an
        operand, as in [a](p & q) or ~(p | q), stays on the operand's
        level, so that every printed tree of at most MAX_DEPTH levels
        parses."""
        if bracket and self.i - 1 == self.level_start:
            return rule()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", pos)
        self.level_start = -1 if bracket else self.i
        node = rule()
        self.depth -= 1
        return node

    # formulas

    def formula(self) -> Formula:
        node = self.imp()
        while self.at("<->"):
            self.take()
            self.shared = True
            height = self.height
            node = biconditional(node, self.imp())
            self.height = max(height, self.height) + 2
        return node

    def imp(self) -> Formula:
        left = self.disj()
        if self.at("->"):
            height = self.height
            _, _, pos = self.take()
            node = Implies(left, self.nested(self.imp, pos))
            self.height = max(height, self.height) + 1
            return node
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.at("|"):
            self.take()
            height = self.height
            node = Or(node, self.conj())
            self.height = max(height, self.height) + 1
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.at("&"):
            self.take()
            height = self.height
            node = And(node, self.unary())
            self.height = max(height, self.height) + 1
        return node

    def unary(self) -> Formula:
        kind, text, pos = self.tokens[self.i]
        if text == "~":
            self.take()
            node = negation(self.nested(self.unary, pos), self.ctx)
            self.height += 1
            return node
        if text == "[" or text == "<":
            self.take()
            prog = self.nested(self.program, pos)
            height = self.height
            self.expect("]" if text == "[" else ">")
            body = self.nested(self.unary, pos)
            self.height = max(height, self.height) + 1
            return Box(prog, body) if text == "[" else Diamond(prog, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.take()
        self.height = 1
        if kind == "ident":
            return PropVar(text)
        if kind == "const":
            body = text[1:]
            try:
                if "/" in body:
                    p_str, q_str = body.split("/", 1)
                    p, q = int(p_str), int(q_str)
                else:
                    p, q = int(body), 1
            except ValueError:  # more digits than int() converts
                raise ParseError(f"constant {text[:20]!r}... is too long", pos) from None
            try:
                return Constant(from_rational(p, q, self.ctx))
            except NotAChainElement as exc:
                raise NotAChainElement(f"{exc} (at position {pos})") from None
        if text == "(":
            node = self.nested(self.formula, pos, bracket=True)
            self.expect(")")
            return node
        shown = text if kind != "eof" else "end of input"
        raise ParseError(f"expected a formula, found {shown!r}", pos)

    # programs

    def program(self) -> Program:
        node = self.par()
        while self.at("+"):
            self.take()
            height = self.height
            node = Union(node, self.par())
            self.height = max(height, self.height) + 1
        return node

    def par(self) -> Program:
        node = self.seq()
        while self.at("^"):
            self.take()
            height = self.height
            node = Inter(node, self.seq())
            self.height = max(height, self.height) + 1
        return node

    def seq(self) -> Program:
        node = self.post()
        while self.at(";"):
            self.take()
            height = self.height
            node = Seq(node, self.post())
            self.height = max(height, self.height) + 1
        return node

    def post(self) -> Program:
        node = self.prim()
        while self.at("*"):
            self.take()
            node = Star(node)
            self.height += 1
        return node

    def prim(self) -> Program:
        kind, text, pos = self.take()
        if kind == "ident":
            self.height = 1
            return Atomic(text)
        if text == "?":
            self.expect("(")
            cond = self.nested(self.formula, pos)
            self.expect(")")
            self.height += 1
            return Test(cond)
        if text == "(":
            node = self.nested(self.program, pos, bracket=True)
            self.expect(")")
            return node
        shown = text if kind != "eof" else "end of input"
        raise ParseError(f"expected a program, found {shown!r}", pos)


def _parse(text: str, ctx: ChainContext, rule):
    parser = _Parser(text, ctx)
    node = rule(parser)
    parser.done()
    if parser.height > MAX_DEPTH:
        raise ParseError(f"formula or program deeper than {MAX_DEPTH} levels", 0)
    # Without a shared subtree each token adds at most two nodes ("~p" is
    # p -> #0), so short input needs no count.
    if (parser.shared or 2 * len(parser.tokens) > MAX_NODES) and ast_size(node) > MAX_NODES:
        raise ParseError(
            f"formula or program has more than {MAX_NODES} nodes after expanding '~' and '<->'", 0
        )
    return node


def parse_formula(text: str, ctx: ChainContext) -> Formula:
    return _parse(text, ctx, _Parser.formula)


def parse_program(text: str, ctx: ChainContext) -> Program:
    return _parse(text, ctx, _Parser.program)


# -- printer -----------------------------------------------------------------

# Formula precedence levels, loosest to tightest.
_IMP, _OR, _AND, _UNARY, _FATOM = 1, 2, 3, 4, 5
# Program levels.
_UNION, _INTER, _SEQ, _POST, _PRIM = 1, 2, 3, 4, 5


def _wrap(rendered: tuple[str, int], floor: int) -> str:
    text, level = rendered
    return text if level >= floor else f"({text})"


def _ff(f: Formula) -> tuple[str, int]:
    if isinstance(f, PropVar):
        return f.name, _FATOM
    if isinstance(f, Constant):
        return "#" + format_value(f.value), _FATOM
    if isinstance(f, And):
        return f"{_wrap(_ff(f.left), _AND)} & {_wrap(_ff(f.right), _UNARY)}", _AND
    if isinstance(f, Or):
        return f"{_wrap(_ff(f.left), _OR)} | {_wrap(_ff(f.right), _AND)}", _OR
    if isinstance(f, Implies):
        return f"{_wrap(_ff(f.left), _OR)} -> {_wrap(_ff(f.right), _IMP)}", _IMP
    if isinstance(f, Box):
        return f"[{format_program(f.program)}]{_wrap(_ff(f.body), _UNARY)}", _UNARY
    if isinstance(f, Diamond):
        return f"<{format_program(f.program)}>{_wrap(_ff(f.body), _UNARY)}", _UNARY
    raise TypeError(f"not a formula: {f!r}")


def _fp(p: Program) -> tuple[str, int]:
    if isinstance(p, Atomic):
        return p.name, _PRIM
    if isinstance(p, Union):
        return f"{_wrap(_fp(p.left), _UNION)} + {_wrap(_fp(p.right), _INTER)}", _UNION
    if isinstance(p, Inter):
        return f"{_wrap(_fp(p.left), _INTER)} ^ {_wrap(_fp(p.right), _SEQ)}", _INTER
    if isinstance(p, Seq):
        return f"{_wrap(_fp(p.left), _SEQ)} ; {_wrap(_fp(p.right), _POST)}", _SEQ
    if isinstance(p, Star):
        return f"{_wrap(_fp(p.body), _POST)}*", _POST
    if isinstance(p, Test):
        return f"?({format_formula(p.condition)})", _PRIM
    raise TypeError(f"not a program: {p!r}")


def format_formula(f: Formula) -> str:
    return _ff(f)[0]


def format_program(p: Program) -> str:
    return _fp(p)[0]


# -- structure helpers ---------------------------------------------------------


def immediate_subformulas(f: Formula) -> list[Formula]:
    if isinstance(f, (And, Or, Implies)):
        return [f.left, f.right]
    if isinstance(f, (Box, Diamond)):
        return [f.body]
    return []


_BINARY = attrgetter("left", "right")
_MODAL = attrgetter("program", "body")
_CHILDREN = {
    And: _BINARY,
    Or: _BINARY,
    Implies: _BINARY,
    Box: _MODAL,
    Diamond: _MODAL,
    Union: _BINARY,
    Inter: _BINARY,
    Seq: _BINARY,
    Star: lambda n: (n.body,),
    Test: lambda n: (n.condition,),
}


def children(node: object) -> tuple:
    """The subtrees of a compound node in constructor order, so that
    ``type(node)(*children(node))`` rebuilds it; ``()`` for leaves."""
    get = _CHILDREN.get(type(node))
    return get(node) if get is not None else ()


def ast_size(node: _U[Formula, Program]) -> int:
    """Node count of the whole tree, programs included.

    A subtree held once and used twice, as both sides of a desugared
    ``<->`` are, counts twice but is walked once, so the time is linear
    in the distinct objects, not in the tree.
    """
    sizes: dict[int, int] = {}

    def size(cur) -> int:
        found = sizes.get(id(cur))
        if found is None:
            found = 1 + sum(map(size, children(cur)))
            sizes[id(cur)] = found
        return found

    return size(node)


def collect_names(node: _U[Formula, Program]) -> tuple[set[str], set[str]]:
    """All proposition names and atomic program names in the tree."""
    props: set[str] = set()
    progs: set[str] = set()
    stack: list[_U[Formula, Program]] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, PropVar):
            props.add(cur.name)
        elif isinstance(cur, Atomic):
            progs.add(cur.name)
        else:
            stack.extend(children(cur))
    return props, progs


# -- Fischer-Ladner closure ----------------------------------------------------


def _expansions(f: Formula, ctx: ChainContext) -> list[Formula]:
    """Formulas forced into a closed set by the presence of ``f``."""
    out = list(immediate_subformulas(f))
    if isinstance(f, (Box, Diamond)):
        node, p, body = type(f), f.program, f.body
        if isinstance(p, (Union, Inter)):
            out += [node(p.left, body), node(p.right, body)]
            if isinstance(p, Inter) and node is Box:
                # only the box rule adds the top-constant boxes
                one = Constant(ctx.one)
                out += [Box(p.left, one), Box(p.right, one)]
        elif isinstance(p, Seq):
            out.append(node(p.left, node(p.right, body)))
        elif isinstance(p, Star):
            out.append(node(p.body, f))
        elif isinstance(p, Test):
            out.append((Implies if node is Box else And)(p.condition, body))
    return out


def closure_of_set(
    formulas: Iterable[Formula], ctx: ChainContext, cap: int = 10_000
) -> frozenset[Formula]:
    """Smallest closed set containing every given formula."""
    seen: set[Formula] = set()
    work = list(formulas)
    while work:
        f = work.pop()
        if f in seen:
            continue
        if len(seen) >= cap:
            raise ClosureBudgetExceeded(f"closure exceeded the cap of {cap} formulas")
        seen.add(f)
        work.extend(_expansions(f, ctx))
    return frozenset(seen)


def fl_closure(formula: Formula, ctx: ChainContext, cap: int = 10_000) -> frozenset[Formula]:
    """Fischer-Ladner closure of a single formula."""
    return closure_of_set([formula], ctx, cap)
