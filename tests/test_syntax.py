import copy as copy_module
import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradedpdl
import oracle_syntax
from gradedpdl.chain import ChainContext, ChainValue, NotAChainElement
from gradedpdl.syntax import (
    MAX_DEPTH,
    MAX_NODES,
    And,
    Atomic,
    Box,
    ClosureBudgetExceeded,
    Constant,
    Diamond,
    Implies,
    Inter,
    Or,
    ParseError,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
    ast_size,
    biconditional,
    children,
    closure_of_set,
    collect_names,
    fl_closure,
    format_formula,
    format_program,
    immediate_subformulas,
    parse_formula,
    parse_program,
    _tokenize,
)

from oracle_sampler import _random_formula, _random_program

C3 = ChainContext(3)


def test_parse_box_union():
    assert parse_formula("[a + b]p", C3) == Box(Union(Atomic("a"), Atomic("b")), PropVar("p"))


def test_parse_diamond_test():
    assert parse_formula("<?(p) >p", C3) == Diamond(Test(PropVar("p")), PropVar("p"))


def test_bad_constant_rejected():
    with pytest.raises(NotAChainElement):
        parse_formula("#1/2 -> p", ChainContext(4))


def test_desugaring():
    p, q = PropVar("p"), PropVar("q")
    assert parse_formula("~p", C3) == Implies(p, Constant(C3.zero))
    assert parse_formula("p <-> q", C3) == And(Implies(p, q), Implies(q, p))
    assert parse_formula("p <-> q", C3) == biconditional(p, q)


def test_precedence():
    p, q, r, s = map(PropVar, "pqrs")
    assert parse_formula("p -> q -> r", C3) == Implies(p, Implies(q, r))
    assert parse_formula("p | q & r", C3) == Or(p, And(q, r))
    assert parse_formula("~p & q", C3) == And(Implies(p, Constant(C3.zero)), q)
    got = parse_formula("p & q | r -> s", C3)
    assert got == Implies(Or(And(p, q), r), s)


def test_program_precedence():
    a, b, c, d = map(Atomic, "abcd")
    assert parse_program("a;b + c^d", C3) == Union(Seq(a, b), Inter(c, d))
    assert parse_program("a;b;c", C3) == Seq(Seq(a, b), c)
    assert parse_program("a**", C3) == Star(Star(a))
    assert parse_program("(a + b)*", C3) == Star(Union(a, b))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p -> ", C3)
    assert "position" in str(err.value)
    with pytest.raises(ParseError):
        parse_formula("p q", C3)
    with pytest.raises(ParseError):
        parse_program("a + ", C3)
    with pytest.raises(ParseError):
        parse_formula("p $ q", C3)


def test_constants_parse_and_print():
    f = parse_formula("#1/2 -> #0 | #1", C3)
    assert format_formula(f) == "#1/2 -> #0 | #1"
    five = ChainContext(5)
    assert format_formula(parse_formula("#2/4", five)) == "#1/2"


# -- random round-trip --------------------------------------------------------


def test_round_trip_random_formulas():
    rng = random.Random(12)
    for _ in range(300):
        f = _random_formula(rng, C3, 4, "pqr", "abc")
        assert parse_formula(format_formula(f), C3) == f


def test_round_trip_random_programs():
    rng = random.Random(13)
    for _ in range(300):
        p = _random_program(rng, C3, 4, "pqr", "abc")
        assert parse_program(format_program(p), C3) == p


@st.composite
def formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return PropVar(draw(st.sampled_from("pq")))
        return Constant(ChainValue(draw(st.integers(0, 2)), C3))
    kind = draw(st.integers(0, 4))
    if kind < 3:
        node = (And, Or, Implies)[kind]
        return node(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    node = (Box, Diamond)[kind - 3]
    prog_kind = draw(st.integers(0, 2))
    if prog_kind == 0:
        prog = Atomic(draw(st.sampled_from("ab")))
    elif prog_kind == 1:
        prog = Star(Atomic(draw(st.sampled_from("ab"))))
    else:
        prog = Test(draw(formulas(depth=0)))
    return node(prog, draw(formulas(depth=depth - 1)))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_round_trip_property(f):
    assert parse_formula(format_formula(f), C3) == f


def _height(node):
    return 1 + max(map(_height, children(node)), default=0)


def test_depth_limit_is_exact():
    # Each "p -> " adds one level, so the text parses exactly when its
    # tree fits in MAX_DEPTH levels: the parser neither over- nor
    # under-counts the height of what it built.
    rng = random.Random(14)
    for _ in range(150):
        f = _random_formula(rng, C3, 6, "pqr", "abc")
        prog = _random_program(rng, C3, 5, "pqr", "abc")
        for text, node in ((format_formula(f), f), (f"[{format_program(prog)}]p", Box(prog, PropVar("p")))):
            room = MAX_DEPTH - _height(node)
            assert parse_formula("p -> " * room + text, C3) is not None
            with pytest.raises(ParseError):
                parse_formula("p -> " * (room + 1) + text, C3)
    # the bracket under each box adds no level: [a](q -> [a](q -> ...))
    deep = PropVar("p")
    for _ in range((MAX_DEPTH - 1) // 2):
        deep = Box(Atomic("a"), Implies(PropVar("q"), deep))
    assert parse_formula(format_formula(deep), C3) == deep
    # p <-> q adds two levels, (p -> q) & (q -> p), and shares p and q;
    # 15 links stay under MAX_NODES
    chain = "(p" + " <-> p" * 15 + ")"
    assert parse_formula("p -> " * (MAX_DEPTH - 31) + chain, C3) is not None
    with pytest.raises(ParseError, match="deeper"):
        parse_formula("p -> " * (MAX_DEPTH - 30) + chain, C3)
    # ~p is p -> #0
    assert parse_formula("~" * (MAX_DEPTH - 1) + "p", C3) is not None
    with pytest.raises(ParseError):
        parse_formula("~" * MAX_DEPTH + "p", C3)
    # parentheses add no level, however many there are
    k = 10 * MAX_DEPTH
    assert parse_formula("(" * k + "p" + ")" * k, C3) == PropVar("p")
    assert parse_program("(" * k + "a" + ")" * k, C3) == Atomic("a")
    assert parse_formula("~" * (MAX_DEPTH - 1) + "(" * k + "p" + ")" * k, C3) is not None
    # a star and a test each add one
    assert parse_program("a" + "*" * (MAX_DEPTH - 1), C3) is not None
    with pytest.raises(ParseError, match="deeper"):
        parse_program("a" + "*" * MAX_DEPTH, C3)
    assert parse_program("?(" + "~" * (MAX_DEPTH - 2) + "p)", C3) is not None
    with pytest.raises(ParseError, match="deeper"):
        parse_program("?(" + "~" * (MAX_DEPTH - 1) + "p)", C3)


# -- the deepest inputs: parser frames ---------------------------------------------

# The deepest accepted input of each shape, as (text of k levels, k), and
# the shapes that parentheses alone make deep, which parse at any k. The
# parser keeps its operands and operators on its own stacks, so every
# shape parses under one recursion limit whatever its depth, and at
# 100 000 levels each deep shape raises the height error, and each
# bracketed one parses, under the same limit. PARSE_FRAME_LIMIT is the
# least limit under which all of them run in a fresh interpreter,
# measured on Python 3.11.7 (the bracketed box at 100 000 needs the most:
# a text that long has its nodes counted, by a walk that recurses once
# per level of the two-level tree). The recursive parser
# before the one loop needed 135 to 334, depending on the shape, and a
# limit that grew with k.
DEEPEST_SHAPES = {
    "negations": (lambda k: "~" * k + "p", MAX_DEPTH - 1),
    "implications": (lambda k: "p -> " * k + "p", MAX_DEPTH - 1),
    "box-implications": (lambda k: "[a](q -> " * k + "p" + ")" * k, (MAX_DEPTH - 1) // 2),
    "tests": (lambda k: "[?(" * k + "p" + ")]p" * k, (MAX_DEPTH - 1) // 2),
}
BRACKETED_SHAPES = {
    "parentheses": lambda k: "(" * k + "p" + ")" * k,
    "program-parentheses": lambda k: "[" + "(" * k + "a" + ")" * k + "]p",
}
PARSE_FRAME_LIMIT = 9
FAR_TOO_DEEP = 100_000
# Room above the measured limit for the interpreter's own frames, which
# differ by a few between Python versions.
FRAME_HEADROOM = 20

# Reads [[name, text], ...] and a recursion limit on stdin, since a text
# of 100 000 levels is longer than one command-line argument may be.
_UNDER_LIMIT = """
import json, sys
from gradedpdl.chain import ChainContext
from gradedpdl.syntax import ParseError, parse_formula
texts, limit = json.load(sys.stdin)
outcomes = {}
for name, text in texts:
    sys.setrecursionlimit(limit)
    try:
        parse_formula(text, ChainContext(3))
        outcome = "parsed"
    except ParseError as exc:
        outcome = str(exc)
    except RecursionError:
        outcome = "RecursionError"
    sys.setrecursionlimit(1000)
    outcomes[name] = outcome
print(json.dumps(outcomes))
"""


def test_deepest_inputs_parse_within_a_frame_budget():
    texts = []
    for name, (make, k) in DEEPEST_SHAPES.items():
        parse_formula(make(k), C3)
        with pytest.raises(ParseError):
            parse_formula(make(k + 1), C3)
        texts += [[name, make(k)], [f"{name} x{FAR_TOO_DEEP}", make(FAR_TOO_DEEP)]]
    for name, make in BRACKETED_SHAPES.items():
        texts.append([f"{name} x{FAR_TOO_DEEP}", make(FAR_TOO_DEEP)])
    src = str(Path(gradedpdl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _UNDER_LIMIT],
        input=json.dumps([texts, PARSE_FRAME_LIMIT + FRAME_HEADROOM]),
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    outcomes = json.loads(run.stdout)
    too_deep = f"formula or program deeper than {MAX_DEPTH} levels"
    for name in DEEPEST_SHAPES:
        assert outcomes[name] == "parsed"
        assert outcomes[f"{name} x{FAR_TOO_DEEP}"].startswith(too_deep)
    for name in BRACKETED_SHAPES:
        assert outcomes[f"{name} x{FAR_TOO_DEEP}"] == "parsed"


# -- differential: the parser and printer against tests/oracle_syntax.py -------------

_SOUP = ["p", "q", "a", "b", "#0", "#1", "#1/2", "#2", "#1/0", "~", "&", "|", "->", "<->",
         "-", "(", ")", "[", "]", "<", ">", "+", "^", ";", "*", "?", " ", "$"]
# Text put around the soup, repeated to reach the depth cap.
_WRAPPERS = [("(", ")"), ("~", ""), ("p -> ", ""), ("p & ", ""), ("p & (", ")"), ("[a]", ""),
             ("[?(", ")]p"), ("<(", ")>p"), ("a ; ", ""), ("(a ^ ", ")"), ("?([a]", ")")]


# Text put between the soup's tokens: besides nothing and one space, tabs,
# runs of spaces, form feeds and Unicode spaces, which the tokenizer skips
# like one space, so that a token's index and its position differ widely.
_JOINERS = ["", " ", "\t", "  ", "\x0c", "\u00a0", "\u2028"]

# One sort's infix operators, and fragments that each parse as an operand.
_CHAINS = [
    (["<->", "->", "|", "&"], ["", "", "~", "[a]", "<b*>"],
     ["p", "q", "#1/2", "(p -> q)", "(p | q)"], [""]),
    (["+", "^", ";"], [""], ["a", "b", "?(p)", "(a + b)", "(a ; b)"], ["", "", "*"]),
]


@st.composite
def _token_soup(draw):
    """Tokens at random, or operands joined by one sort's infix operators,
    which parse far more often."""
    joiner = draw(st.sampled_from(_JOINERS))
    if draw(st.booleans()):
        tokens = draw(st.lists(st.sampled_from(_SOUP), max_size=40))
        return joiner.join(tokens)
    ops, prefixes, operands, suffixes = draw(st.sampled_from(_CHAINS))
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        parts += [draw(st.sampled_from(prefixes)) + draw(st.sampled_from(operands))
                  + draw(st.sampled_from(suffixes)), draw(st.sampled_from(ops))]
    return (joiner or " ").join(parts[:-1])


def _outcome(parse, text):
    try:
        return parse(text, C3)
    except Exception as exc:  # the oracle must raise the same
        return type(exc), str(exc)


@settings(max_examples=1500, deadline=None)
@given(
    st.sampled_from(_WRAPPERS),
    st.one_of(st.just(0), st.integers(1, MAX_DEPTH + 4)),
    _token_soup(),
)
def test_parsers_match_the_oracle_on_token_soup(wrapper, repeats, soup):
    text = wrapper[0] * repeats + soup + wrapper[1] * repeats
    for parse, show, reference, reference_show in (
        (parse_formula, format_formula, oracle_syntax.parse_formula, oracle_syntax.format_formula),
        (parse_program, format_program, oracle_syntax.parse_program, oracle_syntax.format_program),
    ):
        got = _outcome(parse, text)
        assert got == _outcome(reference, text)
        if not isinstance(got, tuple):
            assert show(got) == reference_show(got)


# Every error that carries a position, with tabs, runs of spaces and form
# feeds between the tokens, so that no token's index is its position.
_GAP = " \t\x0c  "
POSITIONED_ERRORS = {
    "bad character": (parse_formula, f"p{_GAP}&{_GAP}${_GAP}q"),
    "trailing input": (parse_formula, f"p{_GAP}&{_GAP}q{_GAP}q"),
    "expected )": (parse_formula, f"({_GAP}p{_GAP}&{_GAP}q{_GAP}q{_GAP})"),
    "expected ]": (parse_formula, f"[{_GAP}a{_GAP}b{_GAP}]p"),
    "expected >": (parse_formula, f"<{_GAP}a{_GAP}+{_GAP}b{_GAP}q{_GAP}>p"),
    "expected ) after a test": (parse_program, f"?{_GAP}({_GAP}p{_GAP}q{_GAP})"),
    "expected ( after ?": (parse_program, f"a{_GAP};{_GAP}?{_GAP}p"),
    "expected a formula": (parse_formula, f"p{_GAP}->{_GAP}){_GAP}q"),
    "expected a formula at the end": (parse_formula, f"p{_GAP}&{_GAP}"),
    "expected a program": (parse_program, f"a{_GAP}+{_GAP}]"),
    "constant too long": (parse_formula, f"p{_GAP}&{_GAP}#{'9' * 5000}"),
    "#5 at n=3": (parse_formula, f"p{_GAP}&{_GAP}#5"),
    "#1/0 at n=3": (parse_formula, f"[{_GAP}?({_GAP}#1/0{_GAP})]{_GAP}p"),
    "nesting under ~": (parse_formula, f"({_GAP}" + f"~{_GAP}" * MAX_DEPTH + f"p{_GAP}){_GAP}&{_GAP}q"),
    "nesting under ->": (parse_formula, f"({_GAP}" + f"p{_GAP}->{_GAP}" * MAX_DEPTH + f"p{_GAP}){_GAP}|{_GAP}q"),
    "nesting under [": (parse_formula, f"[{_GAP}a{_GAP}]{_GAP}" * MAX_DEPTH + f"p{_GAP}&{_GAP}q"),
    "program tree too deep": (parse_program, f"a{_GAP};{_GAP}" * (MAX_DEPTH + 1) + "a"),
    "nesting under *": (parse_program, "a" + f"{_GAP}*" * (MAX_DEPTH + 1)),
    "tree too deep": (parse_formula, f"p{_GAP}&{_GAP}" * (MAX_DEPTH + 1) + "p"),
}


@pytest.mark.parametrize("parse,text", POSITIONED_ERRORS.values(), ids=POSITIONED_ERRORS)
def test_error_positions_match_the_oracle(parse, text):
    reference = getattr(oracle_syntax, parse.__name__)
    got = _outcome(parse, text)
    assert isinstance(got, tuple) and "(at position " in got[1]
    assert got == _outcome(reference, text)


@settings(max_examples=400, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(0, 8))
def test_printers_match_the_oracle(rng, depth):
    f = _random_formula(rng, C3, depth, "pqr", "abc")
    p = _random_program(rng, C3, depth, "pqr", "abc")
    assert format_formula(f) == oracle_syntax.format_formula(f)
    assert format_program(p) == oracle_syntax.format_program(p)


# Text of each binary operator, for the fully bracketed renderer below.
_BINARY_TEXT = {And: "&", Or: "|", Implies: "->", Union: "+", Inter: "^", Seq: ";"}


def _bracketed(node) -> str:
    """The text of a tree with every binary operand bracketed and every
    starred program too, as the benchmark's derivation files are written."""
    kind = type(node)
    if kind is PropVar or kind is Atomic:
        return node.name
    if kind is Constant:
        return format_formula(node)
    if kind is Box or kind is Diamond:
        opening, closing = "[]" if kind is Box else "<>"
        return f"{opening}{_bracketed(node.program)}{closing}{_bracketed(node.body)}"
    if kind is Star:
        return f"({_bracketed(node.body)})*"
    if kind is Test:
        return f"?({_bracketed(node.condition)})"
    return f"({_bracketed(node.left)} {_BINARY_TEXT[kind]} {_bracketed(node.right)})"


# Ways to put a tree one level further down, so that some texts pass the
# depth cap: as the right operand of "->" or "&", a box or diamond body,
# or a test's condition.
_DEEPER = [
    lambda f, g: Implies(PropVar("p"), f),
    lambda f, g: And(PropVar("q"), f),
    lambda f, g: Box(Atomic("a"), f),
    lambda f, g: Diamond(Star(g), f),
    lambda f, g: Box(Test(f), PropVar("p")),
]


@settings(max_examples=400, deadline=None)
@given(
    st.randoms(use_true_random=False), st.integers(0, 7), st.integers(0, MAX_DEPTH + 2), st.data()
)
def test_fully_bracketed_texts_match_the_oracle(rng, depth, levels, data):
    f = _random_formula(rng, C3, depth, "pqr", "abc")
    g = _random_program(rng, C3, depth, "pqr", "abc")
    for _ in range(levels):
        f = rng.choice(_DEEPER)(f, g)
    for tree in (f, g):
        text = _bracketed(tree)
        starts = [m.start() for m in oracle_syntax._TOKEN_RE.finditer(text) if m.lastgroup != "ws"]
        cut = text[:data.draw(st.sampled_from(starts))]
        for parse, reference in (
            (parse_formula, oracle_syntax.parse_formula),
            (parse_program, oracle_syntax.parse_program),
        ):
            for t in (text, cut):
                assert _outcome(parse, t) == _outcome(reference, t)
        got = _outcome(parse_formula if tree is f else parse_program, text)
        assert got == tree or isinstance(got, tuple) and "deeper" in got[1]


def test_nodes_hash_once_like_dataclasses():
    # Two parses build separate but equal trees, which hash equal; every
    # node's hash is the frozen-dataclass one, hash of its field tuple.
    text = "[a ; b* + ?(p <-> q) ^ c]~(p & #1/2) | <a>q"
    one, two = parse_formula(text, C3), parse_formula(text, C3)
    assert one == two and one is not two
    assert hash(one) == hash(two)
    stack, kinds = [one], set()
    while stack:
        node = stack.pop()
        kinds.add(type(node))
        assert hash(node) == hash(tuple(getattr(node, f.name) for f in fields(node)))
        stack.extend(children(node))
    assert kinds == {PropVar, Constant, And, Or, Implies, Box, Diamond,
                     Atomic, Union, Inter, Seq, Star, Test}
    # the cached hash stays out of pickles: string hashes differ by process
    copy = pickle.loads(pickle.dumps(one))
    assert copy == one and "_hash" not in vars(copy)


def test_nodes_are_frozen_dataclasses_built_into_their_dict():
    p, q, a = PropVar("p"), PropVar("q"), Atomic("a")
    nodes = [p, Constant(ChainValue(1, C3)), And(p, q), Or(p, q),
             Implies(p, q), Box(a, p), Diamond(Star(a), q), a, Union(a, a), Inter(a, Test(p)),
             Seq(a, Star(a)), Star(a), Test(q)]
    # the fields, and nothing else until the first hash, sit in __dict__
    for node in nodes:
        assert vars(node) == {f.name: getattr(node, f.name) for f in fields(node)}
    for node in nodes:
        values = tuple(getattr(node, f.name) for f in fields(node))
        assert type(node)(*values) == node
        assert type(node)(**{f.name: v for f, v in zip(fields(node), values)}) == node
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, fields(node)[0].name, p)
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.other = p
        for copy in (pickle.loads(pickle.dumps(node)), copy_module.deepcopy(node),
                     dataclasses.replace(node)):
            assert copy == node and copy is not node and type(copy) is type(node)
            assert hash(copy) == hash(node) == hash(values)
        args = ", ".join(f"{f.name}={v!r}" for f, v in zip(fields(node), values))
        assert repr(node) == f"{type(node).__name__}({args})"
    assert dataclasses.replace(And(p, q), right=p) == And(p, p)
    assert And(p, q) != Or(p, q) and Union(a, a) != Inter(a, a) != Seq(a, a)
    assert Box(a, p) != Diamond(a, p)
    with pytest.raises(TypeError):
        And(p)
    with pytest.raises(TypeError):
        And(p, q, p)


def test_node_cap_counts_the_expanded_tree():
    # a chain of k "<->" links expands to 6 * 2**k - 5 nodes
    for links in (1, 5, 15):
        f = parse_formula("p" + " <-> p" * links, C3)
        assert ast_size(f) == 6 * 2**links - 5 <= MAX_NODES
    for links in (16, 31):
        with pytest.raises(ParseError, match="nodes"):
            parse_formula("p" + " <-> p" * links, C3)
    with pytest.raises(ParseError, match="nodes"):
        parse_program("?(p" + " <-> p" * 16 + ")", C3)
    # Without "<->" each token adds at most two nodes ("~p" is p -> #0),
    # which lets the parser skip the count on short input.
    rng = random.Random(15)
    for _ in range(100):
        text = format_formula(_random_formula(rng, C3, 5, "pqr", "abc"))
        for t in (text, "~" * 20 + f"({text})"):
            assert ast_size(parse_formula(t, C3)) <= 2 * len(_tokenize(t))


# -- closure -------------------------------------------------------------------


def _texts(formulas_set):
    return sorted(format_formula(f) for f in formulas_set)


def test_closure_of_atom():
    assert fl_closure(PropVar("p"), C3) == frozenset([PropVar("p")])


def test_closure_union_box():
    got = fl_closure(parse_formula("[a+b]p", C3), C3)
    assert _texts(got) == ["[a + b]p", "[a]p", "[b]p", "p"]


def test_closure_star_box_is_exactly_three():
    got = fl_closure(parse_formula("[a*]p", C3), C3)
    assert _texts(got) == ["[a*]p", "[a][a*]p", "p"]


def test_closure_inter_box_adds_top_boxes():
    got = fl_closure(parse_formula("[a^b]p", C3), C3)
    assert _texts(got) == ["#1", "[a ^ b]p", "[a]#1", "[a]p", "[b]#1", "[b]p", "p"]


def test_closure_inter_diamond_has_no_top_diamonds():
    got = fl_closure(parse_formula("<a^b>p", C3), C3)
    assert _texts(got) == ["<a ^ b>p", "<a>p", "<b>p", "p"]


def test_closure_test_rules():
    box = fl_closure(parse_formula("[?(q)]p", C3), C3)
    assert parse_formula("q -> p", C3) in box
    dia = fl_closure(parse_formula("<?(q)>p", C3), C3)
    assert parse_formula("q & p", C3) in dia


def test_closure_cap():
    f = parse_formula("[(a;b)*](p & q)", C3)
    with pytest.raises(ClosureBudgetExceeded):
        fl_closure(f, C3, cap=2)


def test_closure_properties_random():
    rng = random.Random(99)
    for _ in range(100):
        f = _random_formula(rng, C3, 4, "pqr", "abc")
        closure = fl_closure(f, C3)
        assert f in closure
        # subformula-closed
        for member in closure:
            for child in immediate_subformulas(member):
                assert child in closure
        # idempotent
        assert closure_of_set(closure, C3) == closure
        # monotone
        member = rng.choice(sorted(closure, key=format_formula))
        assert fl_closure(member, C3) <= closure


def test_ast_size_and_names():
    f = parse_formula("[a;b*]p -> <?(q)>r", C3)
    assert ast_size(f) == 11
    props, progs = collect_names(f)
    assert props == {"p", "q", "r"}
    assert progs == {"a", "b"}
    # a tree built in code is not bound by the parser's depth limit:
    # 10 000 boxes [a][a]...p, alone and on both sides of a "<->"
    deep = PropVar("p")
    for _ in range(10_000):
        deep = Box(Atomic("a"), deep)
    assert ast_size(deep) == 20_001
    assert ast_size(biconditional(deep, PropVar("q"))) == 3 + 2 * 20_001 + 2
    assert collect_names(deep) == ({"p"}, {"a"})
