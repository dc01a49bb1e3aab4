"""The tokenizer, parser and printer that ``syntax`` replaced, kept as
test-only references.

This is ``gradedpdl.syntax`` before one operator table, ``_INFIX``, held
every binding power: the parser has one rule per precedence level
(``formula``, ``imp``, ``disj``, ``conj`` for formulas; ``program``,
``par``, ``seq`` for programs), and the printer has one renderer per sort
with its own level constants. The nodes, the desugaring helpers and the
caps are the package's own, and so is the one depth rule: a node taller
than ``MAX_DEPTH`` levels is refused at the token that builds it, and
parentheses add no level.

The differential tests assert that each text gives equal trees, or the
same exception type and message, under both parsers, and that both
printers print every tree the same.
"""

import re

from gradedpdl.chain import ChainContext, NotAChainElement, format_value, from_rational
from gradedpdl.syntax import (
    MAX_DEPTH,
    MAX_NODES,
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Formula,
    Implies,
    Inter,
    Or,
    ParseError,
    Program,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
    ast_size,
    biconditional,
    negation,
)

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
        # The height of the tree the last rule returned: chains such as
        # p & q & ... nest to the left in the tree but not in the parser.
        self.height = 0
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

    def built(self, height: int, back: int = 0) -> None:
        """Record the height of the node just built, or refuse it past
        MAX_DEPTH at the token that built it: the next token for an
        operator, which the rule has just looked at, or the one ``back``
        tokens before for "*" and a test's ")"."""
        if height > MAX_DEPTH:
            pos = self.tokens[self.i - back][2]
            raise ParseError(f"formula or program deeper than {MAX_DEPTH} levels", pos)
        self.height = height

    # formulas

    def formula(self) -> Formula:
        node = self.imp()
        while self.at("<->"):
            self.take()
            self.shared = True
            height = self.height
            node = biconditional(node, self.imp())
            self.built(max(height, self.height) + 2)
        return node

    def imp(self) -> Formula:
        left = self.disj()
        if self.at("->"):
            height = self.height
            self.take()
            node = Implies(left, self.imp())
            self.built(max(height, self.height) + 1)
            return node
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.at("|"):
            self.take()
            height = self.height
            node = Or(node, self.conj())
            self.built(max(height, self.height) + 1)
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.at("&"):
            self.take()
            height = self.height
            node = And(node, self.unary())
            self.built(max(height, self.height) + 1)
        return node

    def unary(self) -> Formula:
        text = self.tokens[self.i][1]
        if text == "~":
            self.take()
            node = negation(self.unary(), self.ctx)
            self.built(self.height + 1)
            return node
        if text == "[" or text == "<":
            self.take()
            prog = self.program()
            height = self.height
            self.expect("]" if text == "[" else ">")
            body = self.unary()
            self.built(max(height, self.height) + 1)
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
            node = self.formula()
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
            self.built(max(height, self.height) + 1)
        return node

    def par(self) -> Program:
        node = self.seq()
        while self.at("^"):
            self.take()
            height = self.height
            node = Inter(node, self.seq())
            self.built(max(height, self.height) + 1)
        return node

    def seq(self) -> Program:
        node = self.post()
        while self.at(";"):
            self.take()
            height = self.height
            node = Seq(node, self.post())
            self.built(max(height, self.height) + 1)
        return node

    def post(self) -> Program:
        node = self.prim()
        while self.at("*"):
            self.take()
            node = Star(node)
            self.built(self.height + 1, back=1)
        return node

    def prim(self) -> Program:
        kind, text, pos = self.take()
        if kind == "ident":
            self.height = 1
            return Atomic(text)
        if text == "?":
            self.expect("(")
            cond = self.formula()
            self.expect(")")
            self.built(self.height + 1, back=1)
            return Test(cond)
        if text == "(":
            node = self.program()
            self.expect(")")
            return node
        shown = text if kind != "eof" else "end of input"
        raise ParseError(f"expected a program, found {shown!r}", pos)


def _parse(text: str, ctx: ChainContext, rule):
    parser = _Parser(text, ctx)
    node = rule(parser)
    parser.done()
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
