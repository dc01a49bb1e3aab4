import copy
import pickle
import random

import pytest

from gradedpdl.chain import ChainContext, ChainMismatchError
from gradedpdl.relations import (
    ReachRelation,
    SpaceMismatchError,
    StateSpace,
    compose,
    iota,
    leq,
    mask_states,
    parallel,
    star,
    union,
    zero_relation,
)

import oracle_relations as oracle

C3 = ChainContext(3)
S2 = StateSpace(2)


def random_relation(rng, space, ctx, density=0.45):
    entries = {}
    for s in space.states():
        for mask in space.subset_masks():
            if rng.random() < density:
                entries[(s, mask)] = rng.randint(1, ctx.top)
    return ReachRelation(space, ctx, entries)


def assert_matches_oracle(rel, table):
    top = rel.context.top
    assert rel.entries == oracle.to_entries(table, rel.space.size, top)


# -- basics ---------------------------------------------------------------------


def test_iota_values():
    un = iota(S2, C3)
    assert un.value(0, [0]).is_top
    assert un.value(0, []).is_bottom
    assert un.value(0, [0, 1]).is_bottom


def test_entry_validation():
    with pytest.raises(ValueError):
        ReachRelation(S2, C3, {(5, 0): 1})
    with pytest.raises(ValueError):
        ReachRelation(S2, C3, {(0, 9): 1})
    with pytest.raises(ValueError):
        ReachRelation(S2, C3, {(0, 1): 7})
    # zeros are dropped into sparse normal form
    rel = ReachRelation(S2, C3, {(0, 1): 0, (1, 1): 2})
    assert rel.entries == {(1, 1): 2}


def test_mismatch_errors():
    other_space = random_relation(random.Random(0), StateSpace(3), C3)
    mine = random_relation(random.Random(0), S2, C3)
    with pytest.raises(SpaceMismatchError):
        union(mine, other_space)
    other_chain = random_relation(random.Random(0), S2, ChainContext(4))
    with pytest.raises(ChainMismatchError):
        compose(mine, other_chain)


def test_union_examples():
    r = ReachRelation.of(S2, C3, [(0, [1], "1/2")])
    q = ReachRelation.of(S2, C3, [(0, [1], "1")])
    assert union(r, q).value(0, [1]).is_top
    assert union(r, zero_relation(S2, C3)) == r
    assert union(r, r) == r


def test_compose_example():
    r = ReachRelation.of(S2, C3, [(0, [1], "1")])
    q = ReachRelation.of(S2, C3, [(1, [0, 1], "1/2")])
    got = compose(r, q)
    assert got.value(0, [0, 1]) == C3.value(1)
    assert got.entries == {(0, 3): 1}


def test_compose_empty_intermediate_contributes_at_empty_target():
    r = ReachRelation.of(S2, C3, [(0, [], "1/2")])
    q = random_relation(random.Random(5), S2, C3)
    assert compose(r, q).value(0, []) == C3.value(1)


def test_compose_zero():
    q = random_relation(random.Random(1), S2, C3)
    assert compose(zero_relation(S2, C3), q) == zero_relation(S2, C3)


def test_unit_laws_random():
    rng = random.Random(2)
    un = iota(S2, C3)
    for _ in range(150):
        r = random_relation(rng, S2, C3)
        assert compose(un, r) == r
        assert compose(r, un) == r


def test_star_examples():
    assert star(zero_relation(S2, C3)) == iota(S2, C3)
    assert star(iota(S2, C3)) == iota(S2, C3)
    r = ReachRelation.of(S2, C3, [(0, [1], "1/2"), (1, [1], "1")])
    assert star(r).value(0, [1]) == C3.value(1)
    # 2 -> 0 -> 1 -> halt: row 2 gains the empty target one round after
    # row 0 gained it
    r = ReachRelation.of(StateSpace(3), C3, [(2, [0], "1"), (0, [1], "1"), (1, [], "1")])
    assert star(r).value(2, []).is_top


def test_parallel_examples():
    c4 = ChainContext(4)
    s3 = StateSpace(3)
    r = ReachRelation.of(s3, c4, [(0, [1], "2/3")])
    q = ReachRelation.of(s3, c4, [(0, [2], "2/3")])
    got = parallel(r, q)
    assert got.value(0, [1, 2]) == c4.value(1)
    assert parallel(r, zero_relation(s3, c4)) == zero_relation(s3, c4)
    assert parallel(q, r) == got
    # overlapping target sets combine too
    r = ReachRelation.of(S2, C3, [(0, [1], "1")])
    q = ReachRelation.of(S2, C3, [(0, [1], "1/2")])
    assert parallel(r, q).value(0, [1]) == C3.value(1)


def test_leq():
    rng = random.Random(3)
    r = random_relation(rng, S2, C3)
    assert leq(zero_relation(S2, C3), r)
    assert leq(r, r)
    assert leq(r, star(r)) and leq(iota(S2, C3), star(r))


# -- oracle agreement ------------------------------------------------------------


@pytest.mark.parametrize("n,size", [(2, 2), (3, 2), (3, 3), (5, 2)])
def test_compose_matches_oracle(n, size):
    ctx, space = ChainContext(n), StateSpace(size)
    rng = random.Random(100 + n * size)
    for _ in range(25):
        r = random_relation(rng, space, ctx)
        q = random_relation(rng, space, ctx)
        rt, _ = oracle.from_reach(r)
        qt, _ = oracle.from_reach(q)
        assert_matches_oracle(compose(r, q), oracle.oracle_compose(rt, qt, size))


def test_compose_matches_enumeration():
    # The Fraction oracle stops at 3 states; the family enumeration that
    # compose replaced reaches 4, and 5 with a sparse right factor.
    rng = random.Random(7)
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        for size in (1, 2, 3, 4):
            space = StateSpace(size)
            for density in (0, 0.1, 0.4, 0.8, 1):
                for _ in range(3):
                    r = random_relation(rng, space, ctx, density)
                    q = random_relation(rng, space, ctx, density)
                    assert compose(r, q).entries == oracle.enum_compose(r, q)
        space = StateSpace(5)
        for q_density in (0.05, 0.1):
            for _ in range(3):
                r = random_relation(rng, space, ctx, 0.4)
                q = random_relation(rng, space, ctx, q_density)
                assert compose(r, q).entries == oracle.enum_compose(r, q)


def test_compose_drops_families_whose_product_hits_bottom():
    # Every member of U = {0, 1} has a row, but any family's product of
    # the two halves is already bottom, so nothing reaches the output.
    r = ReachRelation.of(S2, C3, [(0, [0, 1], "1")])
    q = ReachRelation.of(S2, C3, [(0, [0], "1/2"), (1, [1], "1/2")])
    assert compose(r, q) == zero_relation(S2, C3)
    assert oracle.enum_compose(r, q) == {}
    # with one member at top the other half survives
    q = ReachRelation.of(S2, C3, [(0, [0], "1"), (1, [1], "1/2")])
    assert compose(r, q).entries == oracle.enum_compose(r, q) == {(0, 3): 1}


@pytest.mark.parametrize("n,size", [(2, 2), (3, 3), (4, 2)])
def test_parallel_matches_oracle(n, size):
    ctx, space = ChainContext(n), StateSpace(size)
    rng = random.Random(200 + n * size)
    for _ in range(40):
        r = random_relation(rng, space, ctx)
        q = random_relation(rng, space, ctx)
        rt, _ = oracle.from_reach(r)
        qt, _ = oracle.from_reach(q)
        assert_matches_oracle(parallel(r, q), oracle.oracle_parallel(rt, qt, size))


@pytest.mark.parametrize("n,size", [(2, 2), (3, 2), (3, 3)])
def test_star_matches_oracle(n, size):
    ctx, space = ChainContext(n), StateSpace(size)
    rng = random.Random(300 + n * size)
    for _ in range(10):
        r = random_relation(rng, space, ctx, density=0.35)
        rt, _ = oracle.from_reach(r)
        assert_matches_oracle(star(r), oracle.oracle_star(rt, size))


def _star_cases(rng):
    """Seeded operands for the differential star test: random relations
    over the grid, plus the edge shapes named below."""
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        for size in (1, 2, 3, 4):
            space = StateSpace(size)
            for density in (0.05, 0.15, 0.35, 0.6):
                for _ in range(4):
                    yield random_relation(rng, space, ctx, density)
            yield zero_relation(space, ctx)
            # only (s, {s}) entries: the unit's support, below top too
            yield ReachRelation(
                space, ctx, {(s, 1 << s): rng.randint(1, ctx.top) for s in space.states()}
            )
            # a chain 0 -> 1 -> ... that halts (empty target) at its end,
            # so rows grow at the empty target over several rounds
            chain = {(s, 1 << (s + 1)): rng.randint(1, ctx.top) for s in range(size - 1)}
            chain[(size - 1, 0)] = rng.randint(1, ctx.top)
            yield ReachRelation(space, ctx, chain)
            # empty-target entries (s, {}) beside random ones
            rel = random_relation(rng, space, ctx, 0.15)
            entries = dict(rel.entries)
            for s in space.states():
                if rng.random() < 0.6:
                    entries[(s, 0)] = rng.randint(1, ctx.top)
            yield ReachRelation(space, ctx, entries)


def test_star_matches_naive_iteration():
    # The naive loop reaches 4 states where the Fraction oracle stops at 3.
    cases = 0
    for r in _star_cases(random.Random(11)):
        before = dict(r.entries)
        got = star(r)
        assert got.entries == oracle.naive_star(r).entries, r
        assert r.entries == before
        cases += 1
    assert cases == 3 * 4 * (4 * 4 + 4)


def test_iota_matches_oracle():
    got = iota(StateSpace(3), C3)
    assert_matches_oracle(got, oracle.oracle_iota(3))


# -- subset tables kept on the right operand -------------------------------------


def _right_operands(rng):
    """Seeded right operands over the grid: random relations, star
    results and test relations (entries only at (s, {s})), and at five
    states sparse random ones."""
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        for size in (1, 2, 3, 4):
            space = StateSpace(size)
            for density in (0.05, 0.3, 0.7):
                yield random_relation(rng, space, ctx, density)
            yield star(random_relation(rng, space, ctx, 0.2))
            yield ReachRelation(
                space, ctx,
                {(s, 1 << s): rng.randint(1, ctx.top) for s in space.states() if rng.random() < 0.7},
            )
        space = StateSpace(5)
        for density in (0.05, 0.1):
            yield random_relation(rng, space, ctx, density)


def test_compose_with_warmed_right_operand_matches_enumeration():
    # One right operand serves many left operands of varied support, in
    # shuffled order, so that later calls read tables built by earlier
    # ones; every result equals the enumeration and the composition
    # with a cold copy of the operand.
    rng = random.Random(17)
    operands = 0
    for q in _right_operands(rng):
        space, ctx = q.space, q.context
        big = space.size == 5
        lefts = [random_relation(rng, space, ctx, d) for d in (0, 0.05, 0.15, 0.4)]
        if not big:
            lefts += [random_relation(rng, space, ctx, d) for d in (0.8, 1)]
            lefts += [q, star(random_relation(rng, space, ctx, 0.3))]
        lefts += [iota(space, ctx), zero_relation(space, ctx)]
        rng.shuffle(lefts)
        tables = None
        for r in lefts:
            got = compose(r, q)
            assert got.entries == oracle.enum_compose(r, q)
            assert got == compose(r, ReachRelation(space, ctx, q.entries))
            if tables is None:
                tables = q._tables
            assert tables is not None and q._tables is tables
        operands += 1
    assert operands == 3 * (4 * 5 + 2)


def test_warmed_tables_stay_out_of_equality_pickles_and_copies():
    rng = random.Random(19)
    q = random_relation(rng, StateSpace(3), C3)
    cold = ReachRelation(q.space, q.context, q.entries)
    compose(random_relation(rng, q.space, C3), q)
    assert q._tables is not None and cold._tables is None
    assert q == cold and repr(q) == repr(cold)
    assert pickle.dumps(q) == pickle.dumps(cold)
    copies = [copy.copy(q), copy.deepcopy(q)]
    copies += [pickle.loads(pickle.dumps(q, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in copies:
        assert back == cold and back._tables is None
        assert back.entries is not q.entries


def test_compose_is_not_associative():
    # b takes both members of a's {0, 1} to state 0. In a o (b o c), c's
    # row at 0 is then picked once per member and strong-conjoined twice,
    # and 1/2 (*) 1/2 is bottom; in (a o b) o c it is picked once.
    a = ReachRelation.of(S2, C3, [(0, [0], "1/2"), (0, [0, 1], "1"), (1, [0], "1")])
    b = ReachRelation.of(S2, C3, [(0, [0], "1"), (1, [0], "1")])
    c = ReachRelation.of(S2, C3, [(0, [], "1/2")])
    assert compose(compose(a, b), c).value(0, []) == C3.value(1)
    assert compose(a, compose(b, c)).value(0, []).is_bottom


# -- algebraic laws ----------------------------------------------------------------


def test_monotonicity_distribution_and_fixpoint():
    rng = random.Random(42)
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        for size in (2, 3):
            space = StateSpace(size)
            un = iota(space, ctx)
            for _ in range(30):
                r = random_relation(rng, space, ctx)
                r2 = random_relation(rng, space, ctx)
                q = random_relation(rng, space, ctx)
                q2 = union(q, random_relation(rng, space, ctx))
                # right-monotonicity
                assert leq(compose(r, q), compose(r, q2))
                # union distributes on the left of composition
                assert compose(union(r, r2), q) == union(compose(r, q), compose(r2, q))
                # star satisfies its unfolding fixpoint
                st = star(r)
                assert st == union(un, compose(r, st))
                # parallel is commutative and monotone
                assert parallel(r, q) == parallel(q, r)
                assert leq(parallel(r, q), parallel(r, q2))


def test_mask_states():
    assert mask_states(0b101) == [0, 2]
    assert mask_states(0) == []
