import operator

import pytest

from gradedpdl.chain import (
    ChainContext,
    ChainMismatchError,
    ChainValue,
    NotAChainElement,
    format_value,
    from_rational,
    parse_value,
    rational_parts,
)


def test_order_validation():
    with pytest.raises(ValueError):
        ChainContext(1)
    ChainContext(2)


def test_numerator_bounds():
    ctx = ChainContext(3)
    with pytest.raises(ValueError):
        ChainValue(3, ctx)
    with pytest.raises(ValueError):
        ChainValue(-1, ctx)


def test_conj_examples():
    c3 = ChainContext(3)
    half = c3.value(1)
    assert half.conj(half) == c3.zero
    for x in c3.values():
        assert c3.one.conj(x) == x
    c4 = ChainContext(4)
    two_thirds = c4.value(2)
    assert two_thirds.conj(two_thirds) == c4.value(1)


def test_implies_examples():
    c3 = ChainContext(3)
    assert c3.value(1).implies(c3.zero) == c3.value(1)
    for n in (2, 3, 4, 7):
        ctx = ChainContext(n)
        for a in ctx.values():
            assert a.implies(a) == ctx.one
    c2 = ChainContext(2)
    assert c2.one.implies(c2.zero) == c2.zero


def test_neg_join_meet_examples():
    c3 = ChainContext(3)
    half = c3.value(1)
    assert half.neg() == half
    assert half.join(c3.zero) == half
    assert half.meet(c3.one) == half


def test_from_rational():
    c3 = ChainContext(3)
    assert from_rational(1, 2, c3).numerator == 1
    assert from_rational(0, 1, c3) == c3.zero
    assert from_rational(2, 4, c3).numerator == 1
    with pytest.raises(NotAChainElement):
        from_rational(1, 2, ChainContext(4))
    with pytest.raises(NotAChainElement):
        from_rational(3, 2, c3)
    with pytest.raises(NotAChainElement):
        from_rational(1, 0, c3)


def test_context_mismatch_rejected():
    a = ChainContext(3).value(1)
    b = ChainContext(4).value(1)
    for op in (a.conj, a.implies, a.join, a.meet):
        with pytest.raises(ChainMismatchError):
            op(b)
    mismatch = "^cannot combine values from chains of order 3 and 4$"
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ChainMismatchError, match=mismatch):
            compare(a, b)
        # the other operand is no chain value, on either side
        for left, right in ((a, 1), (1, a)):
            with pytest.raises(TypeError, match="^expected a chain value, got 1$"):
                compare(left, right)


def test_serialization_round_trip():
    for n in range(2, 13):
        ctx = ChainContext(n)
        for v in ctx.values():
            assert parse_value(format_value(v), ctx) == v
    assert format_value(ChainContext(5).value(2)) == "1/2"
    assert format_value(ChainContext(3).value(0)) == "0"
    assert format_value(ChainContext(3).value(2)) == "1"
    with pytest.raises(NotAChainElement):
        parse_value("nonsense", ChainContext(3))


def test_p_over_q_text_has_one_reading():
    # model files and formula constants split p/q text with one helper;
    # each caller turns a bad part into its own error
    assert rational_parts("3/4") == (3, 4)
    assert rational_parts("1") == (1, 1)
    for text in ("3/", "/4", "", "a/b", "1/2/3"):
        with pytest.raises(ValueError):
            rational_parts(text)
        with pytest.raises(NotAChainElement, match="^malformed chain value"):
            parse_value(text, ChainContext(3))


def _laws(ctx):
    values = ctx.values()
    one = ctx.one
    for a in values:
        assert a.neg().neg() == a
        for b in values:
            assert a.conj(b) == b.conj(a)
            assert a.implies(b).join(b.implies(a)) == one
            assert a.meet(b) == a.conj(a.implies(b))
            assert a.join(b).numerator == max(a.numerator, b.numerator)
            assert a.meet(b).numerator == min(a.numerator, b.numerator)
            assert one.conj(a) == a
            assert a.conj(b.join(ctx.zero)) == a.conj(b)
            for c in values:
                assert a.conj(b).conj(c) == a.conj(b.conj(c))
                assert (a.conj(b) <= c) == (b <= a.implies(c))
                assert a.conj(b.join(c)) == a.conj(b).join(a.conj(c))


@pytest.mark.parametrize("n", range(2, 7))
def test_chain_laws_exhaustive(n):
    _laws(ChainContext(n))


def test_boolean_collapse():
    ctx = ChainContext(2)
    zero, one = ctx.zero, ctx.one
    # strong conjunction degenerates to meet, implication to classical
    for a in (zero, one):
        for b in (zero, one):
            assert a.conj(b) == a.meet(b)
            expected = one if (a == zero or b == one) else zero
            assert a.implies(b) == expected
