import pickle
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from gradedpdl.audit import random_formula, random_program
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
        f = random_formula(rng, C3, 4, "pqr", "abc")
        assert parse_formula(format_formula(f), C3) == f


def test_round_trip_random_programs():
    rng = random.Random(13)
    for _ in range(300):
        p = random_program(rng, C3, 4, "pqr", "abc")
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
        f = random_formula(rng, C3, 6, "pqr", "abc")
        prog = random_program(rng, C3, 5, "pqr", "abc")
        for text, node in ((format_formula(f), f), (f"[{format_program(prog)}]p", Box(prog, PropVar("p")))):
            room = MAX_DEPTH - _height(node)
            assert parse_formula("p -> " * room + text, C3) is not None
            with pytest.raises(ParseError):
                parse_formula("p -> " * (room + 1) + text, C3)
    # the bracket under each box shares the body's level: [a](q -> [a](q -> ...))
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
    # parentheses nest the parser without deepening the tree
    assert parse_formula("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, C3) == PropVar("p")
    with pytest.raises(ParseError):
        parse_formula("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1), C3)
    with pytest.raises(ParseError):
        parse_program("(" * (MAX_DEPTH + 1) + "a" + ")" * (MAX_DEPTH + 1), C3)


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
        text = format_formula(random_formula(rng, C3, 5, "pqr", "abc"))
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
        f = random_formula(rng, C3, 4, "pqr", "abc")
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
