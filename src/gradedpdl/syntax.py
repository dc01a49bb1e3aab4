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

The parser is one loop over the tokens, for both sorts, with an operand
stack and one operator stack that holds the waiting binary operators,
the prefix forms not yet applied and the open brackets. It does not
recurse, so its own frames do not grow with the input's nesting. The one
depth it bounds is the height of the tree: it refuses a node taller than
``MAX_DEPTH`` levels at the token that would build it, so no taller tree
is built. Parentheses build no node, so any number of them is free.

A token is an identifier, a constant or an operator, written once in
``_TOKEN``; any whitespace ``str.split`` splits at may stand between
tokens. One ``findall`` gives the token texts, and the parser keeps only
token indices: an error's character position is worked out from the same
pattern when the error is raised, so input that parses pays for no
positions.

Texts parsed with one map of groups, as the lines of a derivation are,
share the node of each parenthesized group they have in common: a group
whose tokens were read before is one lookup, not a parse.

``~f`` is notation for ``f -> #0`` and ``f <-> g`` for the conjunction of
the two implications; the parser removes both, so the ASTs below have no
negation or biconditional nodes.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass, fields
from itertools import accumulate, islice, repeat
from operator import attrgetter

from .chain import (
    ChainContext, ChainValue, InputError, NotAChainElement, format_value, from_rational,
    rational_parts,
)


# Most levels a parsed tree may have: its height, the nodes on its longest
# path from the root. Parentheses add no level. The parser takes the same
# few frames at any depth, but hashing a tree the first time, comparing,
# printing and counting its nodes, and matching it against a schema
# recurse, up to three frames per level, so at this height each stays far
# under Python's default recursion limit of 1000.
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
    """Make ``cls`` a frozen dataclass that is built with one dictionary
    store per field and whose hash is computed once per node and cached
    on it.

    The frozen dataclass's own ``__init__`` calls ``object.__setattr__``
    once per field; the one given here writes the fields straight into
    the instance ``__dict__``, which is what those calls do, and takes the
    same arguments, so ``dataclasses.replace`` and pickles work as before.

    The cached value is the one the dataclass hash gives, the hash of the
    field tuple, so sets and dicts of nodes iterate in the same order. A
    dataclass hash re-hashes the whole subtree on every call. The cache is
    left out of pickles, because string hashes differ between processes.
    """
    cls = dataclass(frozen=True)(cls)
    names = tuple(f.name for f in fields(cls))
    stores = "".join(f"\n    attrs[{name!r}] = {name}" for name in names)
    namespace: dict = {}
    exec(f"def __init__(self, {', '.join(names)}):\n    attrs = self.__dict__{stores}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    def __hash__(self):
        value = self._hash
        if value is None:
            value = hash(tuple([getattr(self, name) for name in names]))
            object.__setattr__(self, "_hash", value)
        return value

    def __getstate__(self):
        return {name: getattr(self, name) for name in names}

    cls.__init__ = init
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


# Module-level aliases are built without ``typing``: its alias cache is
# process-wide, and would keep these classes, and with them every copy of
# the package ever imported, alive after the package is imported again.
Formula = PropVar | Constant | And | Or | Implies | Box | Diamond
Program = Atomic | Union | Inter | Seq | Star | Test


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

# The power of the prefix forms, "*" and atoms, above every power in _INFIX.
_TIGHT = 4


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


def _error(text: str, message: str, i: int) -> ParseError:
    """The error to raise at token ``i`` of ``text``."""
    return ParseError(message, _position(text, i))


def _too_tall(text: str, i: int) -> ParseError:
    """The error for a node that token ``i`` would build past MAX_DEPTH."""
    return _error(text, f"formula or program deeper than {MAX_DEPTH} levels", i)


def _shown(token: str) -> str:
    return repr(token or "end of input")


def _constant(text: str, i: int, token: str, ctx: ChainContext) -> Constant:
    """The constant that ``token``, token ``i`` of ``text``, names."""
    try:
        p, q = rational_parts(token[1:])
    except ValueError:  # more digits than int() converts
        raise _error(text, f"constant {token[:20]!r}... is too long", i) from None
    try:
        return Constant(from_rational(p, q, ctx))
    except NotAChainElement as exc:
        raise NotAChainElement(f"{exc} (at position {_position(text, i)})") from None


# -- parser --------------------------------------------------------------------

# The parser is one loop over the tokens with an operand stack, a parallel
# stack of tree heights and one operator stack. A row of the operator
# stack that builds a node is (key, build, grow). The row is reduced, its
# node built from the top operands, when a token arrives whose key is at
# most ``key``; ``grow`` is how many levels the node adds above its taller
# operand. A binary operator of power p arrives with key 2p and waits with
# key 2p, or 2p - 1 if it groups to the right, so that an operator of the
# same power leaves it waiting. The prefix forms wait with a key above
# every binary operator's, and a closing bracket or the end of the text
# arrives with key 0, which reduces every row down to the bracket.
_PREFIX_KEY = 2 * _TIGHT


def _operators(*rows) -> dict:
    """One sort's binary operators: text -> (arriving key, waiting row)."""
    table = {}
    for build, text, power, right in rows:
        grow = 2 if build is biconditional else 1
        table[text] = (2 * power, (2 * power - right, build, grow))
    return table


# "<->" is notation and binds loosest of all.
_FORMULA_OPS = _operators(
    (biconditional, "<->", 0, False), *((cls, *_INFIX[cls]) for cls in (Implies, Or, And))
)
_PROGRAM_OPS = _operators(*((cls, *_INFIX[cls]) for cls in (Union, Inter, Seq)))
_IFF = _FORMULA_OPS["<->"][1]
# "~" waits as a row with no build: "~f" is f -> #0, built as "->" is.
_NEGATION = (_PREFIX_KEY, None, 1)

# A bracket on the operator stack is (-1, closing token, then); its key of
# -1 stops every reduction. ``then`` is what closing it builds: nothing for
# "(" around an operand of either sort, which adds no level, and for the
# bottom of the stack, which the end of the text closes; for "[" or "<"
# around a program, the row that builds the box or diamond from the
# program and the body; Test for "?(" around a test's condition.
_OPEN = (-1, ")", None)
_OPEN_BOX = (-1, "]", (_PREFIX_KEY, Box, 1))
_OPEN_DIAMOND = (-1, ">", (_PREFIX_KEY, Diamond, 1))
_OPEN_TEST = (-1, ")", Test)
_BOTTOM = (-1, "", None)
_PAREN_STEP = {"(": 1, ")": -1}


def _depths(tokens: list[str]) -> bytes | None:
    """How many parentheses are open before each of ``tokens`` and after
    the last, or None when they do not balance, so that the text cannot
    parse, or nest deeper than MAX_DEPTH.

    Only a text whose parentheses nest at most MAX_DEPTH deep is read
    with a map of groups, so that each token lies in at most MAX_DEPTH
    keys. A text that nests them deeper parses only if some of them are
    redundant, "((...))", as each group that is not adds a level.
    """
    try:
        depths = bytes(accumulate(map(_PAREN_STEP.get, tokens, repeat(0)), initial=0))
    except ValueError:  # a depth below 0 or above 255
        return None
    return depths if depths[-1] == 0 and max(depths) <= MAX_DEPTH else None


def _parse(text: str, ctx: ChainContext, in_program: bool, groups: dict | None = None):
    """The tree of ``text``, a program when ``in_program`` and otherwise a
    formula, or the ParseError at the first token where it goes wrong.

    Every node is built at one token: a binary operator or a prefix form
    at the first token after its right operand, a star at "*" and a test
    at its closing ")". The height of the node is checked there, before
    the node is built, so no tree taller than MAX_DEPTH levels exists.

    ``groups``, when given, holds the parenthesized groups already parsed
    with it: (whether a program, the index of the ")" less that of the
    "(") -> {the tokens inside, joined by spaces -> (node, height, whether
    a "<->" in it shares a subtree)}. A "(" whose group is there stands
    for that node: the parser takes it and goes on after the matching
    ")". A group's tokens are joined only when a group of its sort and
    length is there. Each group that closes cleanly is added. A group
    parses to the same node wherever it stands, so the tree, and any
    error and its position, are those of a parse without the map.
    """
    tokens = _tokenize(text)
    operands = []
    heights = []  # the tree height of each operand
    ops = [_BOTTOM]
    iffs = 0  # how many "<->" put one subtree into the tree twice
    infix = _PROGRAM_OPS if in_program else _FORMULA_OPS
    depths = _depths(tokens) if groups is not None else None
    pending = []  # ("(" index, iffs so far) of each open group to add
    i = 0
    while True:
        # Before an operand: prefix forms and opening brackets, then a
        # name, a constant, or a test's condition.
        token = tokens[i]
        if token == "(":
            if depths is None:
                ops.append(_OPEN)
                i += 1
                continue
            close = depths.index(depths[i], i + 2) - 1
            same = groups.get((in_program, close - i))
            hit = same and same.get(" ".join(tokens[i + 1 : close]))
            if not hit:
                pending.append((i, iffs))
                ops.append(_OPEN)
                i += 1
                continue
            # the group read before: its node, then on after its ")"
            node, height, shared = hit
            operands.append(node)
            iffs += shared
            i = close
        elif token.isidentifier():  # names are the only tokens that are identifiers
            operands.append(Atomic(token) if in_program else PropVar(token))
            height = 1
        elif in_program:
            if token != "?":
                raise _error(text, f"expected a program, found {_shown(token)}", i)
            if tokens[i + 1] != "(":
                raise _error(text, f"expected '(', found {_shown(tokens[i + 1])}", i + 1)
            ops.append(_OPEN_TEST)
            in_program = False
            infix = _FORMULA_OPS
            i += 2
            continue
        elif token == "~" or token == "[" or token == "<":
            if token == "~":
                ops.append(_NEGATION)
            else:
                ops.append(_OPEN_BOX if token == "[" else _OPEN_DIAMOND)
                in_program = True
                infix = _PROGRAM_OPS
            i += 1
            continue
        elif token[:1] == "#":
            operands.append(_constant(text, i, token, ctx))
            height = 1
        else:
            raise _error(text, f"expected a formula, found {_shown(token)}", i)
        heights.append(height)
        i += 1
        # After an operand: stars, binary operators and closing brackets.
        while True:
            token = tokens[i]
            op = infix.get(token)
            if op is not None:
                key, row = op
            elif token == "*" and in_program:
                if heights[-1] >= MAX_DEPTH:
                    raise _too_tall(text, i)
                operands[-1] = Star(operands[-1])
                heights[-1] += 1
                i += 1
                continue
            else:
                key = 0
            while ops[-1][0] >= key:
                _, build, grow = ops.pop()
                if build is None:
                    build = Implies
                    operands.append(Constant(ctx.zero))
                    heights.append(1)
                right_height = heights.pop()
                left_height = heights[-1]
                height = (left_height if left_height > right_height else right_height) + grow
                if height > MAX_DEPTH:
                    raise _too_tall(text, i)
                right = operands.pop()
                operands[-1] = build(operands[-1], right)
                heights[-1] = height
            if op is not None:
                if row is _IFF:
                    iffs += 1
                ops.append(row)
                i += 1
                break
            _, closer, then = bracket = ops[-1]
            if token != closer:
                if bracket is _BOTTOM:
                    raise _error(text, f"unexpected trailing input {token!r}", i)
                raise _error(text, f"expected {closer!r}, found {_shown(token)}", i)
            if bracket is _BOTTOM:
                return _checked(operands[0], iffs > 0, len(tokens))
            if then is Test:
                if heights[-1] >= MAX_DEPTH:
                    raise _too_tall(text, i)
                operands[-1] = Test(operands[-1])
                heights[-1] += 1
                in_program = True
                infix = _PROGRAM_OPS
            elif then is not None:
                # the program is read; the box or diamond waits for its body
                ops[-1] = then
                in_program = False
                infix = _FORMULA_OPS
                i += 1
                break
            elif pending:  # each "(" read with the map and not in it
                start, before = pending.pop()
                same = groups.setdefault((in_program, i - start), {})
                same[" ".join(tokens[start + 1 : i])] = (operands[-1], heights[-1], iffs > before)
            ops.pop()
            i += 1


def _checked(node, shared: bool, tokens: int):
    """``node``, a parsed tree read from ``tokens`` tokens, once it passes
    the cap on nodes."""
    # Without a shared subtree each token adds at most two nodes ("~p" is
    # p -> #0), so short input needs no count.
    if (shared or 2 * tokens > MAX_NODES) and ast_size(node) > MAX_NODES:
        raise ParseError(
            f"formula or program has more than {MAX_NODES} nodes after expanding '~' and '<->'", 0
        )
    return node


def parse_formula(text: str, ctx: ChainContext, groups: dict | None = None) -> Formula:
    """The formula ``text`` denotes. Texts parsed with one map of
    ``groups`` (see ``_parse``), all in the chain ``ctx``, share the node
    of each bracketed group they have in common."""
    return _parse(text, ctx, False, groups)


def parse_program(text: str, ctx: ChainContext) -> Program:
    return _parse(text, ctx, True)


# -- printer -----------------------------------------------------------------

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


def ast_size(node: Formula | Program) -> int:
    """Node count of the whole tree, programs included.

    A subtree held once and used twice, as both sides of a desugared
    ``<->`` are, counts twice but is walked once, so the time is linear
    in the distinct objects, not in the tree. The walk keeps its own
    stack, so a tree of any height is counted.
    """
    sizes: dict[int, int] = {}
    stack: list[Formula | Program] = [node]
    while stack:
        # a node is sized, and popped, once all its children are
        pending = [child for child in children(stack[-1]) if id(child) not in sizes]
        stack.extend(pending)
        if not pending:
            cur = stack.pop()
            sizes[id(cur)] = 1 + sum(sizes[id(child)] for child in children(cur))
    return sizes[id(node)]


def collect_names(node: Formula | Program) -> tuple[set[str], set[str]]:
    """All proposition names and atomic program names in the tree."""
    props: set[str] = set()
    progs: set[str] = set()
    stack: list[Formula | Program] = [node]
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
