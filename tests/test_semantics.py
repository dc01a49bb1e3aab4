import logging
import os
import operator
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradedpdl

from gradedpdl import semantics
from gradedpdl.chain import ChainContext, ChainMismatchError, ChainValue
from gradedpdl.relations import (
    ReachRelation,
    StateSpace,
    compose,
    iota,
    mask_states,
    parallel,
    star,
    union,
    zero_relation,
)
from gradedpdl.semantics import (
    Evaluator, Model, compile_plan, eval_formula, eval_program, subset_meets, valid_in_model,
)
from gradedpdl.syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Implies,
    Inter,
    Or,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
    children,
    parse_formula,
    parse_program,
)
from gradedpdl.audit import SamplerConfig, random_formula, random_program, sample_model

import oracle_classical as classical
from oracle_sampler import _random_formula
from oracle_semantics import PointwiseEvaluator

C3 = ChainContext(3)


def single_state_model(n=3, rel_value="1/2", props=None):
    ctx = ChainContext(n)
    space = StateSpace(1)
    rel = ReachRelation.of(space, ctx, [(0, [0], rel_value)]) if rel_value else None
    atomics = {"a": rel} if rel else {}
    return Model(ctx, space, atomics, props or {})


def test_box_of_top_is_top():
    rng = random.Random(0)
    cfg = SamplerConfig(n=3, max_states=3, seed=5)
    for _ in range(20):
        model = sample_model(cfg, rng)
        f = parse_formula("[a]#1", model.context)
        for s in model.space.states():
            assert eval_formula(model, f, s).is_top


def test_half_loop_example():
    model = single_state_model()
    f = parse_formula("[a]#0 | <a>#1", C3)
    assert eval_formula(model, f, 0) == C3.value(1)


def test_not_interdefinable_witness():
    ctx = ChainContext(2)
    space = StateSpace(3)
    rel = ReachRelation.of(space, ctx, [(2, [0, 1], "1")])
    model = Model(ctx, space, {"a": rel}, {"p": {0: 1}})
    assert eval_formula(model, parse_formula("<a>p", ctx), 2).is_bottom
    assert eval_formula(model, parse_formula("~[a]~p", ctx), 2).is_top


def test_states_and_target_masks_outside_the_space_are_refused():
    # a negative state read another state's value, a state past the end
    # raised IndexError, and a mask past the space read bottom
    space = StateSpace(2)
    model = Model(C3, space, {"a": ReachRelation.of(space, C3, [(0, [1], "1")])}, {"p": {1: 2}})
    p, a = parse_formula("p", C3), parse_program("a", C3)
    for bad in (-1, space.size, 1 << space.size):
        with pytest.raises(ValueError, match=f"^state {bad} outside space of size 2$"):
            eval_formula(model, p, bad)
        with pytest.raises(ValueError, match=f"^state {bad} outside space of size 2$"):
            model.prop_num("p", bad)
        with pytest.raises(ValueError, match=f"^state {bad} outside space of size 2$"):
            eval_program(model, a, bad, 0b10)
    for bad in (-1, 1 << space.size):
        with pytest.raises(ValueError, match=f"^target mask {bad} outside space of size 2$"):
            eval_program(model, a, 0, bad)
    with pytest.raises(ValueError, match="^state 2 outside space of size 2$"):
        eval_program(model, a, 0, [1, 2])
    # the relation's own value read bottom at both
    rel = model.atomics["a"]
    for state, target, shown in [(5, [0], "state 5"), (-1, 0, "state -1"), (0, 9, "target mask 9")]:
        with pytest.raises(ValueError, match=f"^{shown} outside space of size 2$"):
            rel.value(state, target)
    assert rel.value(0, [1]).is_top and rel.value(0, 0b11).is_bottom
    assert eval_formula(model, p, 1).is_top and eval_formula(model, p, 0).is_bottom
    assert eval_program(model, a, 0, 0b10).is_top
    assert eval_program(model, a, 0, 0b11).is_bottom


def test_non_integer_states_masks_and_numerators_are_refused():
    # a float state or numerator was accepted, and failed only later: in
    # ChainValue, or as the index of a valuation row
    space = StateSpace(2)
    bad_rows = [({0.0: 1}, "state 0.0"), ({0: 1.5}, "numerator 1.5"), ({0: "1"}, "numerator '1'")]
    for row, shown in bad_rows:
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} outside "):
            Model(C3, space, {}, {"p": row})
    # a row that is not a map, such as another model's stored tuple, raised
    # AttributeError from its missing items()
    stored = Model(C3, space, {}, {"p": {1: 2}}).valuation
    for rows, shown in [(stored, "tuple"), ({"p": [0, 2]}, "list"), ({"p": 2}, "int")]:
        message = f"^valuation of 'p' must map state to numerator, got {shown}$"
        with pytest.raises(ValueError, match=message):
            Model(C3, space, {}, rows)
    bad_entries = [
        ({(0.0, 1): 1}, "state 0.0"), ({(0, 1.0): 1}, "mask 1.0"), ({(0, 1): 1.0}, "numerator 1.0"),
    ]
    for entries, shown in bad_entries:
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} outside "):
            ReachRelation(space, C3, entries)
    with pytest.raises(ValueError, match="^state 1.0 outside space of size 2$"):
        ReachRelation.of(space, C3, [(0, [1.0], 1)])
    model = Model(C3, space, {}, {"p": {1: 2}})
    with pytest.raises(ValueError, match="^state 1.0 outside space of size 2$"):
        eval_formula(model, parse_formula("p", C3), 1.0)
    with pytest.raises(ValueError, match="^state 1.0 outside space of size 2$"):
        model.prop_num("p", 1.0)


def test_valuation_rows_are_full_vectors_and_all_zero_is_absent():
    # each row is stored as the vector a plan run reads; the constructor
    # takes the sparse form, and a row of zeros equals no row
    space = StateSpace(3)
    model = Model(C3, space, {}, {"p": {1: 2}, "q": {}, "r": {0: 0, 2: 0}})
    assert model.valuation == {"p": (0, 2, 0), "q": (0, 0, 0), "r": (0, 0, 0)}
    assert model == Model(C3, space, {}, {"p": {1: 2}})
    assert model == Model(C3, space, {}, {"p": {0: 0, 1: 2}, "s": {}})
    assert model != Model(C3, space, {}, {"p": {1: 1}})
    assert model != Model(C3, space, {}, {"p": {1: 2}, "q": {0: 1}})
    assert [model.prop_num(name, 1) for name in "pqx"] == [2, 0, 0]
    (vector,) = compile_plan(PropVar("p")).root_values(model)
    assert vector is model.valuation["p"]


def test_program_clauses():
    model = single_state_model(props={"p": {0: 1}})
    p = parse_formula("p", C3)
    test_prog = parse_program("?(p)", C3)
    assert eval_program(model, test_prog, 0, [0]) == eval_formula(model, p, 0)
    assert eval_program(model, test_prog, 0, []).is_bottom

    cfg = SamplerConfig(n=3, max_states=3, seed=6)
    rng = random.Random(1)
    from gradedpdl.relations import compose

    for _ in range(10):
        m = sample_model(cfg, rng)
        composed = compose(m.atomics["a"], m.atomics["b"])
        assert Evaluator(m).relation(parse_program("a;b", C3)) == composed


def test_unknown_propvar_defaults_to_bottom():
    model = single_state_model()
    assert eval_formula(model, PropVar("never_named"), 0).is_bottom


def test_unknown_atomic_program_warns_and_is_empty(caplog):
    model = single_state_model()
    with caplog.at_level(logging.WARNING, logger="gradedpdl.semantics"):
        value = eval_formula(model, parse_formula("<zz>#1", C3), 0)
    assert value.is_bottom
    assert any("zz" in record.message for record in caplog.records)


def test_box_reads_its_program_before_its_body(caplog):
    # the outer program's relations come first, so their warnings do too,
    # also where a ';' or '+' under the box is never built
    model = single_state_model()
    for text in ("[z][y]p", "[z;x][y]p", "[z+x]<y>p", "<(z;x)+w>[y]p"):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="gradedpdl.semantics"):
            eval_formula(model, parse_formula(text, C3), 0)
        unknown = [record.args[0] for record in caplog.records if "unknown atomic" in record.msg]
        assert unknown == [name for name in "zxwy" if name in text], text


def test_wrong_chain_constant_rejected():
    model = single_state_model(n=3)
    alien = Constant(ChainContext(4).value(1))
    with pytest.raises(ChainMismatchError):
        eval_formula(model, alien, 0)


def test_foreign_constant_raises_under_an_empty_box():
    # Every body is evaluated at every state, so a constant from another
    # chain is caught even where no relation row reaches it; the pointwise
    # evaluator never looked at the body there.
    model = Model(C3, StateSpace(2), {"a": zero_relation(StateSpace(2), C3)})
    alien = Box(Atomic("a"), Constant(ChainContext(4).value(1)))
    assert PointwiseEvaluator(model).value_num(alien, 0) == C3.top
    with pytest.raises(ChainMismatchError):
        Evaluator(model).value_num(alien, 0)


def test_valid_in_model():
    model = single_state_model(props={"p": {0: 1}})
    ok, refutation = valid_in_model(model, parse_formula("#1", C3))
    assert ok and refutation is None
    ok, refutation = valid_in_model(model, parse_formula("p | ~p", C3))
    assert not ok
    assert refutation.state == 0
    assert refutation.value == C3.value(1)


def test_valid_in_model_reports_minimal_state():
    ctx = ChainContext(3)
    space = StateSpace(3)
    model = Model(ctx, space, {}, {"p": {0: 2, 1: 1, 2: 0}})
    ok, refutation = valid_in_model(model, PropVar("p"))
    assert not ok and refutation.state == 1  # first state below top


# -- semantic identities -----------------------------------------------------------


def _sampled_models(n, count, seed, max_states=3):
    cfg = SamplerConfig(n=n, max_states=max_states, seed=seed)
    rng = random.Random(seed)
    return [sample_model(cfg, rng) for _ in range(count)]


def test_box_constant_shift_identity():
    # [pi](c -> f) and c -> [pi]f agree everywhere
    for n in (2, 3, 4):
        ctx = ChainContext(n)
        rng = random.Random(n)
        for model in _sampled_models(n, 25, 40 + n):
            f = random_formula(rng, ctx, 2)
            prog = random_program(rng, ctx, 2)
            c = Constant(ChainValue(rng.randint(0, ctx.top), ctx))
            lhs = Box(prog, Implies(c, f))
            rhs = Implies(c, Box(prog, f))
            left, right = compile_plan(lhs, rhs).root_values(model)
            assert left == right


def _without_empty_mass(model):
    atomics = {
        name: ReachRelation(
            rel.space,
            rel.context,
            {(s, m): v for (s, m), v in rel.entries.items() if m != 0},
        )
        for name, rel in model.atomics.items()
    }
    # the constructor takes each row in its sparse input form
    valuation = {name: dict(enumerate(row)) for name, row in model.valuation.items()}
    return Model(model.context, model.space, atomics, valuation, model.state_names)


def test_box_to_constant_dominated_by_diamond_form_without_empty_mass():
    # Over relations with no mass on the empty target set,
    # [pi](f -> c) <= (<pi>f -> c); mixed body values make it strict,
    # which is what keeps box and diamond independent connectives here.
    for n in (2, 3):
        ctx = ChainContext(n)
        rng = random.Random(50 + n)
        for model in _sampled_models(n, 25, 50 + n):
            model = _without_empty_mass(model)
            f = random_formula(rng, ctx, 2)
            prog = random_program(rng, ctx, 2)
            c = Constant(ChainValue(rng.randint(0, ctx.top), ctx))
            lhs = Box(prog, Implies(f, c))
            rhs = Implies(Diamond(prog, f), c)
            assert all(map(operator.le, *compile_plan(lhs, rhs).root_values(model)))


def test_box_to_constant_gap_witnesses_both_directions():
    ctx = ChainContext(2)
    space = StateSpace(3)
    # mixed body values: box side strictly below the diamond side
    rel = ReachRelation.of(space, ctx, [(2, [0, 1], "1")])
    model = Model(ctx, space, {"a": rel}, {"p": {0: 1}})
    lhs = parse_formula("[a](p -> #0)", ctx)
    rhs = parse_formula("<a>p -> #0", ctx)
    assert eval_formula(model, lhs, 2).is_bottom
    assert eval_formula(model, rhs, 2).is_top
    # mass on the empty target set: diamond side strictly below
    rel2 = ReachRelation.of(space, ctx, [(2, [], "1")])
    model2 = Model(ctx, space, {"a": rel2}, {"p": {0: 1}})
    assert eval_formula(model2, lhs, 2).is_top
    assert eval_formula(model2, rhs, 2).is_bottom


def test_k_conjunction_identity():
    # [pi]f & [pi]g -> [pi](f & g) holds with the top value everywhere
    from gradedpdl.syntax import And

    for n in (2, 3, 4):
        ctx = ChainContext(n)
        rng = random.Random(60 + n)
        for model in _sampled_models(n, 25, 60 + n):
            f = random_formula(rng, ctx, 2)
            g = random_formula(rng, ctx, 2)
            prog = random_program(rng, ctx, 2)
            formula = Implies(And(Box(prog, f), Box(prog, g)), Box(prog, And(f, g)))
            ok, refutation = valid_in_model(model, formula)
            assert ok, (model, refutation)


def test_test_program_identities():
    for n in (2, 3, 4):
        ctx = ChainContext(n)
        rng = random.Random(70 + n)
        for model in _sampled_models(n, 25, 70 + n):
            f = random_formula(rng, ctx, 2)
            g = random_formula(rng, ctx, 2)
            from gradedpdl.syntax import Test as PTest

            plan = compile_plan(Box(PTest(f), g), Implies(f, g), Diamond(PTest(f), g), f, g)
            box_test, implies, dia_test, fv, gv = plan.root_values(model)
            assert box_test == implies
            assert dia_test == tuple(max(0, x + y - ctx.top) for x, y in zip(fv, gv))


def test_modal_monotonicity():
    for n in (2, 3):
        ctx = ChainContext(n)
        rng = random.Random(80 + n)
        for model in _sampled_models(n, 20, 80 + n):
            f = random_formula(rng, ctx, 2)
            g = random_formula(rng, ctx, 2)
            prog = random_program(rng, ctx, 2)
            if not all(map(operator.le, *compile_plan(f, g).root_values(model))):
                continue
            for modal in (Box, Diamond):
                plan = compile_plan(modal(prog, f), modal(prog, g))
                assert all(map(operator.le, *plan.root_values(model)))


PROGRAMS = (Atomic, Inter, Seq, Star, Test, Union)


def _random_model(rng, ctx, size, density):
    space = StateSpace(size)
    atomics = {
        name: ReachRelation(space, ctx, {
            (s, mask): rng.randint(1, ctx.top)
            for s in space.states()
            for mask in space.subset_masks()
            if rng.random() < density
        })
        for name in "ab"
    }
    valuation = {name: {s: rng.randint(0, ctx.top) for s in space.states()} for name in "pq"}
    return Model(ctx, space, atomics, valuation)


def _nodes(node):
    yield node
    for child in children(node):
        yield from _nodes(child)


# Every model size the CLI accepts; the larger ones only sparse, as a
# dense 6-state relation has hundreds of entries.
SIZES_AND_DENSITIES = [(size, (0, 0.1, 0.4, 1)) for size in (1, 2, 3, 4)]
SIZES_AND_DENSITIES += [(size, (0, 0.05, 0.2)) for size in (5, 6)]


def test_vectors_match_pointwise_evaluator():
    # "z" names no program of the models, and at density 0 every relation
    # is empty; each model's two evaluators are shared by all its formulas.
    fixed = ["[z]p", "<z>p", "[a](p -> q)", "<a ^ b>p", "<?(p) ; a*>q", "[(a + ?(q))* ; b]#0"]
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        for size, densities in SIZES_AND_DENSITIES:
            for density in densities:
                rng = random.Random(f"{n}:{size}:{density}")
                model = _random_model(rng, ctx, size, density)
                formulas = [parse_formula(text, ctx) for text in fixed]
                formulas += [_random_formula(rng, ctx, 3, "pq", "abz") for _ in range(6)]
                evaluator, pointwise = Evaluator(model), PointwiseEvaluator(model)
                for formula in formulas:
                    for node in _nodes(formula):
                        if isinstance(node, PROGRAMS):
                            want = pointwise.relation(node).entries
                            assert evaluator.relation(node).entries == want, (model, node)
                            continue
                        want = tuple(pointwise.value_num(node, s) for s in model.space.states())
                        assert compile_plan(node).root_values(model)[0] == want, (model, node)
                    # valid_in_model refutes at the first state below top
                    below = [
                        s for s in model.space.states()
                        if pointwise.value_num(formula, s) < ctx.top
                    ]
                    ok, refutation = valid_in_model(model, formula)
                    if below:
                        want = ChainValue(pointwise.value_num(formula, below[0]), ctx)
                        assert not ok and (refutation.state, refutation.value) == (below[0], want)
                    else:
                        assert ok and refutation is None


def test_library_relations_pass_the_validating_constructor():
    # The library builds these relations without the constructor's checks;
    # each must come out of the checking constructor unchanged: positive
    # int numerators at most top, states and masks inside the space.
    fixed = ["a ; b", "a + b", "a ^ b", "a*", "?(p)", "?([a ; b]q) ; (a ^ b + ?(#0))*"]
    for n in (2, 3, 5):
        ctx = ChainContext(n)
        programs = [parse_program(text, ctx) for text in fixed]
        rng = random.Random(n)
        # sampled models, whose atomics skip the checks too, and models
        # built at densities other than the sampler's
        models = [sample_model(SamplerConfig(n=n, max_states=4), rng) for _ in range(5)]
        models += [
            _random_model(rng, ctx, rng.randint(1, 4), density)
            for density in (0, 0.1, 1) for _ in range(5)
        ]
        for model in models:
            a, b = model.atomics["a"], model.atomics["b"]
            built = list(model.atomics.values()) + [
                iota(model.space, ctx), zero_relation(model.space, ctx),
                compose(a, b), union(a, b), parallel(a, b), star(a),
            ]
            evaluator = Evaluator(model)
            for program in programs + [random_program(rng, ctx, 3) for _ in range(4)]:
                built += [
                    evaluator.relation(node) for node in _nodes(program)
                    if isinstance(node, PROGRAMS)
                ]
            for rel in built:
                assert all(type(num) is int for num in rel.entries.values())
                checked = ReachRelation(rel.space, rel.context, rel.entries)
                assert checked.entries == rel.entries, (model, rel)


def test_boolean_collapse_agrees_with_classical_oracle():
    cfg = SamplerConfig(n=2, max_states=3, seed=11)
    rng = random.Random(11)
    formula_rng = random.Random(12)
    ctx = ChainContext(2)
    for _ in range(500):
        model = sample_model(cfg, rng)
        bm = classical.bool_model(model)
        f = random_formula(formula_rng, ctx, 3)
        s = formula_rng.randrange(model.space.size)
        got = eval_formula(model, f, s).is_top
        assert got == classical.holds(bm, f, s), (model, f, s)


# -- plans against the pointwise evaluator --------------------------------------

C4 = ChainContext(4)


def _copy(node):
    """An equal tree that shares no node with ``node``."""
    kids = children(node)
    if kids:
        return type(node)(*map(_copy, kids))
    return type(node)(node.value if isinstance(node, Constant) else node.name)


@st.composite
def _terms(draw, sort, depth):
    """A formula or program of C3 over p, q, a, b and the unknown program
    z; one constant in ten is C4's. Some subterms are shared: ``f & f``
    holds one object twice, ``[π][π]f`` one program, and ``f | f'`` an
    equal copy."""
    if sort == "program":
        kind = draw(st.integers(0, 5 if depth > 0 else 0))
        if kind == 0:
            return Atomic(draw(st.sampled_from("abz")))
        if kind == 4:
            return Star(draw(_terms("program", depth - 1)))
        if kind == 5:
            return Test(draw(_terms("formula", depth - 1)))
        node = (Union, Seq, Inter)[kind - 1]
        return node(draw(_terms("program", depth - 1)), draw(_terms("program", depth - 1)))
    kind = draw(st.integers(0, 7 if depth > 0 else 1))
    if kind == 0:
        return PropVar(draw(st.sampled_from("pq")))
    if kind == 1:
        ctx = C4 if draw(st.integers(0, 9)) == 0 else C3
        return Constant(ctx.value(draw(st.integers(0, ctx.top))))
    body = draw(_terms("formula", depth - 1))
    if kind == 2:
        return And(body, body)
    if kind == 3:
        return Or(body, _copy(body))
    if kind == 4:
        return Implies(body, draw(_terms("formula", depth - 1)))
    program = draw(_terms("program", depth - 1))
    if kind == 5:
        return Box(program, Box(program, body))
    return (Box, Diamond)[kind - 6](program, body)


_BOX_TABLES = (semantics._box_table, semantics._BoxLevel)
_SEQ_TABLES = _BOX_TABLES + (semantics._diamond_table, semantics._DiamondLevel)


def _read_subterms(term):
    """The subterms a plan of ``term`` holds a slot for: all of them but a
    ``;``, ``+`` or ``^`` met only as a modality's program (an operand of a
    ``+`` that is one is such a program too), the ``;`` nodes on the left
    spine of such a ``;``, and the ``^`` and ``+`` nodes below such a
    ``^``, whose other nodes are read as relations."""
    stack = [(term, None)]
    while stack:
        node, modal = stack.pop()
        if modal == "program" and isinstance(node, Union):
            stack += [(node.left, "program"), (node.right, "program")]
        elif modal in ("program", "parallel") and isinstance(node, (Union, Inter)):
            stack += [(node.left, "parallel"), (node.right, "parallel")]
        elif modal in ("program", "spine") and isinstance(node, Seq):
            stack += [(node.left, "spine"), (node.right, None)]
        else:
            yield node
            if isinstance(node, (Box, Diamond)):
                stack += [(node.program, "program"), (node.body, None)]
            else:
                stack += [(kid, None) for kid in children(node)]


# the program that a step over two reaches or two diamonds' rows reads
_COMBINED = {max: Union, semantics._strong: Inter}


def _slot_terms(plan, ctx):
    """Per slot, the term its step computes, rebuilt from the steps alone,
    or None for a table or a summary; with the programs l2, ..., q that
    each table composes after the folded relation, in order, and the body
    it reads; per summary slot its modality, Box for a reach ``<pi>#1``
    and Diamond for a diamond's rows or thresholds, the program it
    summarises, None for the thresholds, and the body, None for a reach;
    and the slots of the halves of D7/corrected, each rebuilt as
    ``<q>#1 -> [r]phi`` with ``ctx``'s top."""
    terms, tables, summaries, halves = [], {}, {}, set()
    one = Constant(ctx.value(ctx.top))
    for op, a, b in plan.steps:
        term = None
        if op is subset_meets:
            tables[len(terms)] = ((), terms[a])
        elif op in _SEQ_TABLES:
            rights, body = tables[b]
            tables[len(terms)] = ((terms[a],) + rights, body)
        elif op is semantics._thresholds:
            summaries[len(terms)] = (Diamond, None, tables[a][1])
        elif op is semantics._reach:
            summaries[len(terms)] = (Box, terms[a], None)
        elif op is semantics._diamond_summary:
            summaries[len(terms)] = (Diamond, terms[a], summaries[b][2])
        elif op in _COMBINED and a in summaries:
            # a '^' or '+' of two reaches or of two diamonds' rows
            modal, left, body = summaries[a]
            summaries[len(terms)] = (modal, _COMBINED[op](left, summaries[b][1]), body)
        elif op is semantics._diamond_fold:
            _, program, body = summaries[a]
            term = Diamond(program, body)
        elif op is Implies and a in summaries:
            term = Implies(Diamond(summaries[a][1], one), terms[b])
            halves.add(len(terms))
        elif op in (Box, Diamond):
            term, (rights, body) = terms[a], tables[b]
            for right in rights:
                term = Seq(term, right)
            term = op(term, body)
        elif op is min and a in halves:
            # (<q>#1 -> [r]phi) & (<r>#1 -> [q]phi) is [r ^ q]phi
            left, right = terms[a].right, terms[b].right
            assert (terms[a].left.program, terms[b].left.program) == (right.program, left.program)
            term = Box(Inter(left.program, right.program), left.body)
        elif op in (min, max):
            left, right = terms[a], terms[b]
            term = type(left)(Union(left.program, right.program), left.body)
        elif op in (PropVar, Atomic, Constant):
            term = op(a)
        else:
            term = op(*(terms[slot] for slot in (a, b) if slot is not None))
        terms.append(term)
    return terms, tables, summaries, halves


def _check_plan(plan, terms, model):
    """The plan's shape, and every slot's value against the pointwise
    evaluator: a term slot's value; a table's by its definition on each
    intermediate set U, as the box or diamond of
    ``((iota_U ; l2) ; ...) ; q``, composed left to right, where iota_U is
    the one entry (0, U) at top and l2, ..., q the programs the table
    reads, the right operand of ';' at an outer table; and a summary's by
    its definition from the relation of the program it summarises."""
    ctx, space, top = model.context, model.space, model.context.top
    rebuilt, tables, summaries, halves = _slot_terms(plan, ctx)
    # the roots rebuild the terms in order; distinct term slots rebuild
    # distinct terms, each read subterm has a slot, and operands come
    # before their readers. A half of D7/corrected reads a reach, not a
    # diamond slot, so it is left out of the first count: a term may spell
    # the same implication
    assert [rebuilt[root] for root in plan.roots] == list(terms)
    named = [term for term in rebuilt if term is not None]
    unique = [term for slot, term in enumerate(rebuilt) if term is not None and slot not in halves]
    assert len(set(unique)) == len(unique)
    assert set(named) >= {node for term in terms for node in _read_subterms(term)}
    for slot, (_, a, b) in enumerate(plan.steps):
        assert (rebuilt[slot] is None) == (slot in tables or slot in summaries)
        assert all(operand < slot for operand in (a, b) if type(operand) is int)
    pointwise = PointwiseEvaluator(model)
    values = plan.run(model)
    for slot, term in enumerate(rebuilt):
        if isinstance(term, PROGRAMS):
            assert values[slot].entries == pointwise.relation(term).entries, term
        elif term is not None:
            vector = tuple(pointwise.value_num(term, s) for s in space.states())
            assert values[slot] == vector, term

    def meets_of(body):
        return [
            min([top] + [pointwise.value_num(body, t) for t in mask_states(mask)])
            for mask in space.subset_masks()
        ]

    for slot, (rights, body) in tables.items():
        meets = meets_of(body)
        if not rights:
            assert values[slot] == meets, body
            continue
        box = plan.steps[slot][0] in _BOX_TABLES
        relations = [pointwise.relation(right) for right in rights]
        for umask in space.subset_masks():
            composed = ReachRelation(space, ctx, {(0, umask): top})
            for rel in relations:
                composed = compose(composed, rel)
            entries = composed.entries.items()
            if box:
                want = min([top] + [top - r + meets[t] for (_, t), r in entries])
                assert min(top, values[slot][umask]) == want, (rights, body, umask)
            else:
                want = max([0] + [r + meets[t] - top for (_, t), r in entries])
                assert max(0, values[slot][umask]) == want, (rights, body, umask)
    # a reach <pi>#1 is, per source s, the largest pi(s,T), bottom if none;
    # a diamond's rows are, per theta in V and s, the largest pi(s,T) with
    # m(T) >= theta, bottom if none, where V is the body's values and top,
    # ascending. The thresholds are V and per T the offset
    # size * (m(T)'s place in V). A _strong step is the pointwise (*) of
    # its operands, as well as the summary of a '^'
    size = space.size
    for slot, (modal, program, body) in summaries.items():
        op, a, b = plan.steps[slot]
        if op is semantics._strong:
            strong = [max(0, x + y - top) for x, y in zip(values[a], values[b])]
            assert list(values[slot]) == strong, (modal, program, body)
        entries = () if program is None else pointwise.relation(program).entries.items()
        if modal is Box:
            reaches = [max([0] + [r for (u, _), r in entries if u == s]) for s in space.states()]
            assert list(values[slot]) == reaches, program
            continue
        meets = meets_of(body)
        thresholds = sorted({top, *(pointwise.value_num(body, s) for s in space.states())})
        if program is None:
            offsets = [size * thresholds.index(meet) for meet in meets]
            assert values[slot] == (thresholds, offsets), body
            continue
        rows = {s: [(r, meets[t]) for (u, t), r in entries if u == s] for s in space.states()}
        ups = [
            max([0] + [r for r, meet in rows[s] if meet >= theta])
            for theta in thresholds for s in space.states()
        ]
        assert list(values[slot]) == ups, (modal, program, body)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_terms("formula", 3), min_size=1, max_size=3),
    st.lists(_terms("program", 2), max_size=2),
    st.integers(1, 3),
    st.sampled_from((0, 0.3, 1)),
    st.integers(0, 2**32 - 1),
)
def test_every_plan_slot_matches_pointwise_evaluator(formulas, programs, size, density, seed):
    terms = formulas + programs
    model = _random_model(random.Random(seed), C3, size, density)
    plan = compile_plan(*terms)
    # every constant is evaluated, even where no relation entry reads it
    if any(
        isinstance(node, Constant) and node.value.context != C3
        for term in terms for node in _nodes(term)
    ):
        with pytest.raises(ChainMismatchError):
            plan.run(model)
        return
    _check_plan(plan, terms, model)


@st.composite
def _seq_terms(draw, ctx, sort, depth):
    """A formula or program of ``ctx`` over p, q, a, b and the unknown
    program z that leans to ';', on either side and inside '+', '^', '*'
    and '?', whose modalities are often over ';' or '+', and whose bodies
    hold constants."""
    if sort == "program":
        kind = draw(st.integers(0, 6 if depth > 0 else 0))
        if kind == 0:
            return Atomic(draw(st.sampled_from("aabz")))
        if kind == 1:
            return Star(draw(_seq_terms(ctx, "program", depth - 1)))
        if kind == 2:
            return Test(draw(_seq_terms(ctx, "formula", depth - 1)))
        node = (Union, Inter, Seq, Seq)[kind - 3]
        left = draw(_seq_terms(ctx, "program", depth - 1))
        return node(left, draw(_seq_terms(ctx, "program", depth - 1)))
    kind = draw(st.integers(0, 6 if depth > 0 else 1))
    if kind == 0:
        return PropVar(draw(st.sampled_from("pq")))
    if kind == 1:
        return Constant(ctx.value(draw(st.integers(0, ctx.top))))
    if kind == 2:
        left = draw(_seq_terms(ctx, "formula", depth - 1))
        return (And, Or, Implies)[draw(st.integers(0, 2))](
            left, draw(_seq_terms(ctx, "formula", depth - 1))
        )
    program = draw(_seq_terms(ctx, "program", depth - 1))
    body = draw(_seq_terms(ctx, "formula", depth - 1))
    if kind in (3, 4):
        program = (Seq, Union)[kind - 3](program, draw(_seq_terms(ctx, "program", depth - 1)))
    elif kind == 6:
        program = Inter(program, draw(_parallel_trees(ctx, depth - 1)))
    return (Box, Diamond)[draw(st.integers(0, 1))](program, body)


@st.composite
def _parallel_trees(draw, ctx, depth):
    """A tree of '^' and '+' nodes of ``ctx`` whose leaves are atomic
    programs, or a ';', '*' or '?' over small programs or formulas."""
    kind = draw(st.integers(0, 5 if depth > 0 else 3))
    if kind == 0:
        return Atomic(draw(st.sampled_from("aabz")))
    if kind == 1:
        left = draw(_seq_terms(ctx, "program", 1))
        return Seq(left, draw(_seq_terms(ctx, "program", 1)))
    if kind == 2:
        return Star(draw(_seq_terms(ctx, "program", 1)))
    if kind == 3:
        return Test(draw(_seq_terms(ctx, "formula", 1)))
    left = draw(_parallel_trees(ctx, depth - 1))
    return (Inter, Union)[kind - 4](left, draw(_parallel_trees(ctx, depth - 1)))


@st.composite
def _compound_programs(draw, ctx):
    """A '+', '^', '*' or '?' over small programs or formulas of ``ctx``."""
    kind = draw(st.integers(0, 3))
    if kind == 3:
        return Test(draw(_seq_terms(ctx, "formula", 1)))
    left = draw(_seq_terms(ctx, "program", 1))
    if kind == 2:
        return Star(left)
    return (Union, Inter)[kind](left, draw(_seq_terms(ctx, "program", 1)))


@st.composite
def _sparse_models(draw):
    """A model of 1-6 states, of a chain of order 2, 3, 4, 5 or 7, whose
    atomic programs have rows at only some states and may hold entries on
    the empty target set."""
    ctx = ChainContext(draw(st.sampled_from((2, 3, 4, 5, 7))))
    size = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    space = StateSpace(size)
    density = draw(st.sampled_from((0.05, 0.2, 0.5) if size <= 4 else (0.03, 0.08)))
    atomics = {}
    for name in "ab":
        sources = [s for s in space.states() if rng.random() < 0.7]
        entries = {
            (s, mask): rng.randint(1, ctx.top)
            for s in sources
            for mask in space.subset_masks()
            if rng.random() < density or (mask == 0 and rng.random() < 0.3)
        }
        atomics[name] = ReachRelation(space, ctx, entries)
    valuation = {name: {s: rng.randint(0, ctx.top) for s in space.states()} for name in "pq"}
    return Model(ctx, space, atomics, valuation)


@st.composite
def _seq_cases(draw):
    """A model (``_sparse_models``) and terms: a few formulas, a
    left-nested ';' chain of 3-4 programs, the middle ones compound, under
    a modality, and its prefix without the last program read both under
    that modality and as a relation."""
    model = draw(_sparse_models())
    ctx = model.context
    formulas = draw(st.lists(_seq_terms(ctx, "formula", 3), min_size=1, max_size=3))
    middle = draw(st.lists(_compound_programs(ctx), min_size=1, max_size=2))
    shared = draw(_seq_terms(ctx, "program", 1))
    for program in middle:
        shared = Seq(shared, program)
    chain = Seq(shared, draw(_seq_terms(ctx, "program", 1)))
    body = draw(_seq_terms(ctx, "formula", 1))
    modal = draw(st.sampled_from((Box, Diamond)))
    both = And(modal(chain, body), modal(shared, body))
    return model, formulas + [both, shared]


@st.composite
def _parallel_cases(draw):
    """A model (``_sparse_models``) and terms: a few formulas, a '^' of two
    nested '^'/'+' trees under a modality, that modality over a '+' of a
    ';' and the '^', and the '^' read as a relation."""
    model = draw(_sparse_models())
    ctx = model.context
    formulas = draw(st.lists(_seq_terms(ctx, "formula", 2), min_size=1, max_size=2))
    program = Inter(draw(_parallel_trees(ctx, 2)), draw(_parallel_trees(ctx, 2)))
    chain = Seq(draw(_seq_terms(ctx, "program", 1)), draw(_seq_terms(ctx, "program", 1)))
    body = draw(_seq_terms(ctx, "formula", 1))
    modal = draw(st.sampled_from((Box, Diamond)))
    both = And(modal(program, body), modal(Union(chain, program), body))
    return model, formulas + [both, program]


@settings(max_examples=200, deadline=None)
@given(_seq_cases())
def test_modalities_over_seq_and_union_match_pointwise_evaluator(case):
    model, terms = case
    _check_plan(compile_plan(*terms), terms, model)


@settings(max_examples=200, deadline=None)
@given(_parallel_cases())
def test_modalities_over_parallel_match_pointwise_evaluator(case):
    model, terms = case
    _check_plan(compile_plan(*terms), terms, model)


def test_a_union_of_compositions_composes_nothing(monkeypatch):
    # a modality over a ';' chain folds its first program against one table
    # per level, so not even the chain's left operand a;b is composed
    model = _random_model(random.Random(4), C3, 4, 0.3)
    formula = parse_formula("[((a;b);a)+b]p -> [(a;b);a]p", C3)
    calls = []

    def counting(r, q):
        calls.append((r, q))
        return compose(r, q)

    monkeypatch.setattr(semantics, "compose", counting)
    got = compile_plan(formula).root_values(model)[0]
    assert calls == []
    pointwise = PointwiseEvaluator(model)
    assert got == tuple(pointwise.value_num(formula, s) for s in model.space.states())


def test_a_modality_over_parallel_builds_parallel_only_as_an_operand(monkeypatch):
    # a box or diamond over '^' is folded from the '^''s leaves, so no
    # parallel relation is built for it; a '^' read as the operand of ';'
    # or '*' is still built, once
    model = _random_model(random.Random(5), C3, 3, 0.3)
    pointwise = PointwiseEvaluator(model)
    calls = []

    def counting(r, q):
        calls.append((r, q))
        return parallel(r, q)

    monkeypatch.setattr(semantics, "parallel", counting)
    cases = [
        ("[(a ^ b) ^ (a + b)]p", 0), ("<a ^ (b + a)>p", 0),
        ("[(a ^ b);a]p", 1), ("[(a ^ b)*]p", 1),
    ]
    for text, built in cases:
        calls.clear()
        formula = parse_formula(text, C3)
        got = compile_plan(formula).root_values(model)[0]
        assert len(calls) == built, text
        assert got == tuple(pointwise.value_num(formula, s) for s in model.space.states()), text


def test_a_box_over_parallel_is_d7_corrected_over_the_plain_boxes():
    # [a ^ b]p runs (<b>#1 -> [a]p) & (<a>#1 -> [b]p) and no reach of the
    # root '^'; its [a]p and [b]p are the steps of the plain boxes, so a
    # plan that holds [a]p & [b]p adds no box for it
    formula = parse_formula("[a ^ b]p", C3)
    a, b, p, meets, reach_a, reach_b, box_a, half_a, box_b, half_b = range(10)
    assert compile_plan(formula).steps == (
        (Atomic, "a", None), (Atomic, "b", None), (PropVar, "p", None),
        (subset_meets, p, None),
        (semantics._reach, a, None), (semantics._reach, b, None),
        (Box, a, meets), (Implies, reach_b, box_a),
        (Box, b, meets), (Implies, reach_a, box_b),
        (min, half_a, half_b),
    )
    plan = compile_plan(parse_formula("[a]p & [b]p", C3), formula)
    steps = plan.steps
    _, box_a, box_b = steps[plan.roots[0]]
    _, half_a, half_b = steps[plan.roots[1]]
    assert (steps[half_a][2], steps[half_b][2]) == (box_a, box_b)
    assert sum(op is Box for op, _, _ in steps) == 2
    model = _random_model(random.Random(7), C3, 3, 0.3)
    _check_plan(plan, [parse_formula("[a]p & [b]p", C3), formula], model)
    # a ';' leaf's box is the step of the plain box over its chain, which
    # folds through the spine tables, so [a;b]p is not run twice
    terms = [parse_formula(text, C3) for text in ("[a ^ (a;b)]p", "[a;b]p")]
    plan = compile_plan(*terms)
    half_b = plan.steps[plan.roots[0]][2]
    assert plan.steps[half_b][2] == plan.roots[1]
    _check_plan(plan, terms, model)


def test_a_union_of_a_composition_and_a_parallel_composes_nothing(monkeypatch):
    model = _random_model(random.Random(6), C3, 3, 0.3)
    formula = parse_formula("[(a;b) + (a ^ b)]p", C3)
    calls = []

    def counting(r, q):
        calls.append((r, q))
        return compose(r, q)

    monkeypatch.setattr(semantics, "compose", counting)
    got = compile_plan(formula).root_values(model)[0]
    assert calls == []
    pointwise = PointwiseEvaluator(model)
    assert got == tuple(pointwise.value_num(formula, s) for s in model.space.states())


def test_a_modality_over_parallel_takes_its_thresholds_from_the_body():
    # the thresholds are the body's values and top, not the whole chain: at
    # n = 10**6 a run reads three of them
    ctx = ChainContext(10**6)
    top = ctx.top
    space = StateSpace(2)
    a = ReachRelation(space, ctx, {(0, 0b01): top, (1, 0b10): top})
    b = ReachRelation(space, ctx, {(0, 0b10): top, (1, 0b10): top})
    model = Model(ctx, space, {"a": a, "b": b}, {"p": {1: top}})
    start = time.perf_counter()
    got = compile_plan(parse_formula("[a ^ b]p & <a ^ b>p", ctx)).root_values(model)[0]
    assert time.perf_counter() - start < 0.05
    assert got == (0, 999999)


def test_an_inner_level_builds_product_tables_only_for_the_sets_its_fold_reads():
    # a's entries reach two intermediate sets; b's product tables then hold
    # those two, the sets left as each drops its lowest member, and the
    # empty set; a, which is read only entry by entry, gets none
    ctx, space = C3, StateSpace(6)
    reached = (0b101101, 0b110010)
    a = ReachRelation(space, ctx, {(0, reached[0]): 2, (3, reached[0]): 1, (5, reached[1]): 2})
    b = ReachRelation(space, ctx, {(u, (1 << u) | 1): 1 + u % 2 for u in space.states()})
    model = Model(ctx, space, {"a": a, "b": b}, {"p": {0: 1, 4: 2}})
    for text in ("[(a;b);a]p", "<(a;b);a>p"):
        a._tables = b._tables = None
        formula = parse_formula(text, ctx)
        got = compile_plan(formula).root_values(model)[0]
        prefixes = {0}
        for umask in reached:
            while umask:
                prefixes.add(umask)
                umask &= umask - 1
        assert set(b._tables[1]) == prefixes
        assert a._tables is None
        pointwise = PointwiseEvaluator(model)
        assert got == tuple(pointwise.value_num(formula, s) for s in space.states())


def test_evaluator_answers_after_rewritten_modalities():
    # the evaluator answers the rewritten modalities, and composes a;b,
    # which <a;b>p reads only through a table, when a;b itself is asked for
    texts = ["[a+b]p", "[a]p", "<a;b>p"]
    for seed in range(20):
        model = _random_model(random.Random(seed), C3, 1 + seed % 4, 0.3)
        evaluator, pointwise = Evaluator(model), PointwiseEvaluator(model)
        for text in texts:
            formula = parse_formula(text, C3)
            for s in model.space.states():
                want = pointwise.value_num(formula, s)
                assert evaluator.value_num(formula, s) == want, (seed, text, s)
        program = parse_program("a;b", C3)
        assert evaluator.relation(program).entries == pointwise.relation(program).entries
    # in one plan, [a]p takes the slot that [a+b]p's piece made, its root
    terms = [parse_formula(text, C3) for text in texts]
    _check_plan(compile_plan(*terms), terms, model)


def test_a_two_root_plan_warns_once_per_program_in_root_order(caplog):
    # as equiv reads them: the left root's programs first, each unknown
    # atomic program once per run, also where a modality over ';' or '+'
    # is rewritten
    model = single_state_model()
    pairs = [("[z]p & <y>q", "<x>[z]q | [y]p"), ("[z;y]p", "[z+y]p | <x;z>q")]
    for left, right in pairs:
        plan = compile_plan(parse_formula(left, C3), parse_formula(right, C3))
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="gradedpdl.semantics"):
                plan.run(model)
            unknown = [record.args for record in caplog.records if "unknown atomic" in record.msg]
            assert unknown == [("z",), ("y",), ("x",)], (left, right)


_DEEP = """
import sys
from gradedpdl.chain import ChainContext
from gradedpdl.relations import ReachRelation, StateSpace
from gradedpdl.semantics import Model, compile_plan, valid_in_model
from gradedpdl.syntax import Atomic, Box, Diamond, Implies, PropVar, Seq

assert sys.getrecursionlimit() == 1000
ctx, space = ChainContext(3), StateSpace(2)
swap = ReachRelation(space, ctx, {(0, 0b10): 2, (1, 0b01): 1})
model = Model(ctx, space, {"a": swap}, {"p": {0: 2, 1: 1}})


def deep():
    f = PropVar("p")
    for _ in range(10_000):
        f = Box(Atomic("a"), f)
    return f


# two equal trees that share no node, and a third, each never hashed before
assert valid_in_model(model, Implies(deep(), deep())) == (True, None)
assert compile_plan(deep()).root_values(model)[0] == (2, 2)


def chain():
    program = Atomic("a")
    for _ in range(10_000):
        program = Seq(program, Atomic("a"))
    return program


# a modality over a left-nested ';' chain fills one table per level
plan = compile_plan(Box(chain(), PropVar("p")), Diamond(chain(), PropVar("p")))
assert plan.root_values(model) == [(2, 2), (0, 0)]
"""


def test_a_10000_deep_formula_evaluates_under_the_default_recursion_limit():
    src = str(Path(gradedpdl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _DEEP],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
