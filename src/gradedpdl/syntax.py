"""Formula and program syntax: ASTs, concrete notation, closure computation.

Concrete syntax (whitespace-insensitive)::

    formula := unary ( op unary )*       op: "<->" "->" "|" "&"
    unary   := "~" unary | "[" program "]" unary | "<" program ">" unary | atom
    atom    := ident | "#" int ( "/" int )? | "(" formula ")"
    program := post ( op post )*         op: "+" "^" ";"
    post    := prim ( "*" )*
    prim    := ident | "?" "(" formula ")" | "(" program ")"

How tightly each binary operator binds and which way it groups is written
once, in ``_INFIX``, which the parser and the printer both read.

A token is an identifier, a constant or an operator, written once in
``_TOKEN``; any whitespace ``str.split`` splits at may stand between
tokens. One ``findall`` gives the token texts, and the parser keeps only
token indices: an error's character position is worked out from the same
pattern when the error is raised, so input that parses pays for no
positions.

``~f`` is notation for ``f -> #0`` and ``f <-> g`` for the conjunction of
the two implications; the parser removes both, so the ASTs below have no
negation or biconditional nodes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import islice
from operator import attrgetter
from typing import Iterable, Union as _U

from .chain import (
    ChainContext, ChainValue, InputError, NotAChainElement, format_value, from_rational,
)


# Deepest nesting the parser accepts, and the most levels a parsed tree may
# have. The parser recurses up to five frames per nesting level (a bracket
# that opens an operand shares the operand's level): 64 nested parentheses
# parse under a recursion limit of 329, measured in a fresh interpreter on
# Python 3.11.7. Hashing, comparing, evaluating and printing a tree
# take up to three frames per level, so at this depth each stays far under
# Python's default recursion limit of 1000.
MAX_DEPTH = 64

# Most nodes a parsed tree may have once both sides of every "<->" are
# written out. Evaluation walks the shared graph, but printing walks the
# tree, and every formula that reaches a report or a seed is printed;
# 15 chained "<->" links give 196 603 nodes, 16 give 393 211.
MAX_NODES = 1 << 18


class ParseError(InputError):
    """Input text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ClosureBudgetExceeded(InputError, RuntimeError):
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


# -- operators -----------------------------------------------------------------

# The binary operators of both sorts: node class -> (text, binding power,
# right-associative). A higher power binds tighter; the prefix forms ("~",
# "[π]", "<π>"), "*" and atoms bind tighter than all of these. The parser
# and the printer both read this table.
_INFIX = {
    Implies: ("->", 1, True),
    Or: ("|", 2, False),
    And: ("&", 3, False),
    Union: ("+", 1, False),
    Inter: ("^", 2, False),
    Seq: (";", 3, False),
}


def _operators(*classes) -> dict:
    """The parser's table for one sort: text -> (builder, power, right)."""
    return {_INFIX[cls][0]: (cls, *_INFIX[cls][1:]) for cls in classes}


# "<->" is notation and binds loosest of all.
_FORMULA_OPS = {"<->": (biconditional, 0, False), **_operators(Implies, Or, And)}
_PROGRAM_OPS = _operators(Union, Inter, Seq)


# -- tokenizer ---------------------------------------------------------------

# One token: an identifier, a constant or an operator. No token holds
# whitespace or starts with it, and every other character that starts no
# token is an error. The pattern has no group, so that ``findall`` returns
# the token texts themselves.
_TOKEN = r"[A-Za-z_][A-Za-z0-9_]*|\#\d+(?:/\d+)?|<->|->|[~&|()\[\]<>+^;*?]"
_TOKEN_RE = re.compile(_TOKEN)
# The same tokens, then any other character but whitespace as group 1: the
# scan that names a bad character, run only on text that has one.
_SCAN_RE = re.compile(rf"{_TOKEN}|(\S)")


def _tokenize(text: str) -> list[str]:
    """The texts of the tokens of ``text``, then ``""`` to mark its end.

    ``findall`` skips every character at which no token starts, which is
    whitespace or an error. No token holds whitespace, so the tokens
    cover every other character exactly when their lengths add up to the
    length of the text without its whitespace. Only when they do not is
    the text scanned again, to name the first bad character.
    """
    tokens = _TOKEN_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        for m in _SCAN_RE.finditer(text):
            if m.lastindex:
                raise ParseError(f"unexpected character {m.group()!r}", m.start())
    tokens.append("")
    return tokens


def _position(text: str, i: int) -> int:
    """The character position of token ``i`` of ``text``, which tokenizes;
    the end marker's is the length of the text."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _shown(token: str) -> str:
    return repr(token or "end of input")


class _Parser:
    """Recursive descent over the token texts. The parser keeps token
    indices only; an error maps its token's index to a character position
    when it is raised."""

    def __init__(self, text: str, ctx: ChainContext):
        self.text = text
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

    def error(self, message: str, i: int) -> ParseError:
        """The error to raise at token ``i``."""
        return ParseError(message, _position(self.text, i))

    def expect(self, text: str) -> None:
        got = self.tokens[self.i]
        if got != text:
            raise self.error(f"expected {text!r}, found {_shown(got)}", self.i)
        self.i += 1

    def done(self) -> None:
        got = self.tokens[self.i]
        if got:
            raise self.error(f"unexpected trailing input {got!r}", self.i)

    def nested(self, i: int, rule, *args, bracket: bool = False):
        """Parse ``rule(*args)`` one nesting level down, for the operator at
        token ``i``. A bracket that opens an operand, as in [a](p & q) or
        ~(p | q), stays on the operand's level, so that every printed tree
        of at most MAX_DEPTH levels parses."""
        if bracket and self.i - 1 == self.level_start:
            return rule(*args)
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"nesting deeper than {MAX_DEPTH} levels", i)
        self.level_start = -1 if bracket else self.i
        node = rule(*args)
        self.depth -= 1
        return node

    def infix(self, ops: dict, operand, floor: int = 0):
        """Operands joined by the operators of ``ops`` whose power is at
        least ``floor`` (precedence climbing). The right operand of a
        right-associative operator is one nesting level down."""
        node = operand()
        while True:
            i = self.i
            op = ops.get(self.tokens[i])
            if op is None or op[1] < floor:
                return node
            build, power, right = op
            self.i = i + 1
            height = self.height
            if right:
                node = build(node, self.nested(i, self.infix, ops, operand, power))
            else:
                node = build(node, self.infix(ops, operand, power + 1))
            if build is biconditional:
                self.shared = True
                self.height = max(height, self.height) + 2
            else:
                self.height = max(height, self.height) + 1

    # formulas

    def formula(self) -> Formula:
        return self.infix(_FORMULA_OPS, self.unary)

    def unary(self) -> Formula:
        i = self.i
        text = self.tokens[i]
        if text.isidentifier():  # names are the only tokens that are identifiers
            self.i = i + 1
            self.height = 1
            return PropVar(text)
        if text == "~":
            self.i = i + 1
            node = negation(self.nested(i, self.unary), self.ctx)
            self.height += 1
            return node
        if text == "[" or text == "<":
            self.i = i + 1
            prog = self.nested(i, self.program)
            height = self.height
            self.expect("]" if text == "[" else ">")
            body = self.nested(i, self.unary)
            self.height = max(height, self.height) + 1
            return Box(prog, body) if text == "[" else Diamond(prog, body)
        return self.atom()

    def atom(self) -> Formula:
        """A constant or a bracketed formula; unary() reads propositions."""
        i = self.i
        text = self.tokens[i]
        self.i = i + 1
        self.height = 1
        if text[:1] == "#":
            body = text[1:]
            try:
                if "/" in body:
                    p_str, q_str = body.split("/", 1)
                    p, q = int(p_str), int(q_str)
                else:
                    p, q = int(body), 1
            except ValueError:  # more digits than int() converts
                raise self.error(f"constant {text[:20]!r}... is too long", i) from None
            try:
                return Constant(from_rational(p, q, self.ctx))
            except NotAChainElement as exc:
                position = _position(self.text, i)
                raise NotAChainElement(f"{exc} (at position {position})") from None
        if text == "(":
            node = self.nested(i, self.formula, bracket=True)
            self.expect(")")
            return node
        raise self.error(f"expected a formula, found {_shown(text)}", i)

    # programs

    def program(self) -> Program:
        return self.infix(_PROGRAM_OPS, self.post)

    def post(self) -> Program:
        node = self.prim()
        while self.tokens[self.i] == "*":
            self.i += 1
            node = Star(node)
            self.height += 1
        return node

    def prim(self) -> Program:
        i = self.i
        text = self.tokens[i]
        self.i = i + 1
        if text.isidentifier():
            self.height = 1
            return Atomic(text)
        if text == "?":
            self.expect("(")
            cond = self.nested(i, self.formula)
            self.expect(")")
            self.height += 1
            return Test(cond)
        if text == "(":
            node = self.nested(i, self.program, bracket=True)
            self.expect(")")
            return node
        raise self.error(f"expected a program, found {_shown(text)}", i)


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

# The power of the prefix forms, "*" and atoms, above every power in _INFIX.
_TIGHT = 4


def _wrap(rendered: tuple[str, int], floor: int) -> str:
    text, power = rendered
    return text if power >= floor else f"({text})"


def _render(node) -> tuple[str, int]:
    """The text of a formula or program and the power of its outermost
    operator. An operand is bracketed when it binds looser than its
    place allows: the left operand of a right-associative operator and
    the right operand of a left-associative one must bind tighter."""
    kind = type(node)
    if kind is PropVar or kind is Atomic:
        return node.name, _TIGHT
    if kind is Constant:
        return "#" + format_value(node.value), _TIGHT
    if kind is Box:
        return f"[{_render(node.program)[0]}]{_wrap(_render(node.body), _TIGHT)}", _TIGHT
    if kind is Diamond:
        return f"<{_render(node.program)[0]}>{_wrap(_render(node.body), _TIGHT)}", _TIGHT
    if kind is Star:
        return f"{_wrap(_render(node.body), _TIGHT)}*", _TIGHT
    if kind is Test:
        return f"?({_render(node.condition)[0]})", _TIGHT
    if kind not in _INFIX:
        raise TypeError(f"not a formula or program: {node!r}")
    text, power, right = _INFIX[kind]
    left = _wrap(_render(node.left), power + right)
    return f"{left} {text} {_wrap(_render(node.right), power + (not right))}", power


def format_formula(f: Formula) -> str:
    return _render(f)[0]


def format_program(p: Program) -> str:
    return _render(p)[0]


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
