import random

import pytest

from oracle_filtration import (
    reference_check_lemma4,
    reference_check_preservation,
    reference_quotient,
)
from oracle_semantics import PointwiseEvaluator

from gradedpdl.audit import SamplerConfig, random_formula, sample_model
from gradedpdl.chain import ChainContext, ChainValue
from gradedpdl.filtration import (
    NotClosedError,
    check_lemma4,
    check_preservation,
    quotient,
)
from gradedpdl.modelio import dumps, model_from_dict, model_to_dict
from gradedpdl.relations import ReachRelation, StateSpace, mask_states
from gradedpdl.semantics import Model
from gradedpdl.syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Or,
    PropVar,
    closure_of_set,
    fl_closure,
    parse_formula,
)

C3 = ChainContext(3)


def test_total_agreement_gives_one_class():
    space = StateSpace(2)
    model = Model(C3, space, {}, {"p": {0: 2, 1: 2}})
    result = quotient(model, {PropVar("p")})
    assert len(result.classes) == 1
    assert result.class_of == (0, 0)


def test_merge_ignores_names_outside_the_set():
    space = StateSpace(2)
    rel = ReachRelation.of(space, C3, [(0, [1], "1"), (1, [0], "1")])
    model = Model(C3, space, {"a": rel}, {"p": {0: 2, 1: 2}, "q": {0: 2}})
    gamma = fl_closure(parse_formula("[a]p", C3), C3)
    ev = PointwiseEvaluator(model)
    for f in gamma:
        assert ev.value_num(f, 0) == ev.value_num(f, 1)
    result = quotient(model, gamma)
    assert len(result.classes) == 1  # q differs but is not in the set
    # and q is dropped from the quotient valuation
    assert "q" not in result.quotient.valuation


def test_no_modal_members_means_top_relation():
    space = StateSpace(2)
    rel = ReachRelation.of(space, C3, [(0, [1], "1/2")])
    model = Model(C3, space, {"a": rel}, {"p": {0: 1}})
    result = quotient(model, {PropVar("p")})
    qrel = result.quotient.atomics["a"]
    qspace = result.quotient.space
    for c in qspace.states():
        for mask in qspace.subset_masks():
            assert qrel.num(c, mask) == C3.top  # empty meet everywhere


def test_not_closed_rejected():
    space = StateSpace(1)
    model = Model(C3, space, {}, {})
    with pytest.raises(NotClosedError):
        quotient(model, {parse_formula("[a]p", C3)})


def test_quotient_valuation_copies_members():
    space = StateSpace(3)
    model = Model(C3, space, {}, {"p": {0: 2, 1: 1}})
    result = quotient(model, {PropVar("p")})
    assert len(result.classes) == 3  # three distinct p-values
    for s in space.states():
        c = result.class_of[s]
        assert result.quotient.prop_num("p", c) == model.prop_num("p", s)


def _random_pair(rng, n):
    cfg = SamplerConfig(n=n, max_states=4, seed=rng.randrange(10**6))
    model = sample_model(cfg, rng)
    formula = random_formula(rng, ChainContext(n), 3)
    gamma = fl_closure(formula, ChainContext(n))
    return model, gamma


def test_quotient_properties_random():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.choice((2, 3, 5))
        model, gamma = _random_pair(rng, n)
        result = quotient(model, gamma)
        # size bound
        assert len(result.classes) <= min(model.space.size, n ** len(gamma))
        # class_of is a surjection compatible with the member lists
        assert set(result.class_of) == set(range(len(result.classes)))
        for c, members in enumerate(result.classes):
            for s in members:
                assert result.class_of[s] == c
        # equivalence: same signature iff same class
        ev = PointwiseEvaluator(model)
        states = model.space.states()
        signature = [tuple(ev.value_num(f, s) for f in gamma) for s in states]
        for s in states:
            for t in states:
                same = signature[s] == signature[t]
                assert same == (result.class_of[s] == result.class_of[t])


def test_lemma4_identical_index_sets_coincide():
    # the set {[a]p & <a>p and its parts} filters to exactly {p}; with the
    # corpus also {p}, the class-level meet equals the state-level meet
    space = StateSpace(3)
    rng = random.Random(5)
    for trial in range(20):
        entries = {}
        for s in space.states():
            for mask in space.subset_masks():
                if rng.random() < 0.4:
                    entries[(s, mask)] = rng.randint(1, 2)
        model = Model(
            C3,
            space,
            {"a": ReachRelation(space, C3, entries)},
            {"p": {s: rng.randint(0, 2) for s in space.states()}},
        )
        gamma = fl_closure(parse_formula("[a]p & <a>p", C3), C3)
        corpus = [PropVar("p")]
        result = quotient(model, gamma)
        report = check_lemma4(result, "a", corpus)
        assert report.ok
        # equality, not just domination
        ev = PointwiseEvaluator(model)
        qrel = result.quotient.atomics["a"]
        top = C3.top
        for s in space.states():
            for mask in space.subset_masks():
                targets = mask_states(mask)
                body = min([ev.value_num(PropVar("p"), t) for t in targets], default=top)
                box_val = ev.value_num(Box(Atomic("a"), PropVar("p")), s)
                dia_val = ev.value_num(Diamond(Atomic("a"), PropVar("p")), s)
                unrestricted = min(
                    min(top, top - box_val + body), min(top, top - body + dia_val)
                )
                qmask = 0
                for t in targets:
                    qmask |= 1 << result.class_of[t]
                assert unrestricted == qrel.num(result.class_of[s], qmask)


def test_lemma4_smaller_set_dominates():
    rng = random.Random(6)
    cfg = SamplerConfig(n=3, max_states=3, seed=6)
    corpus = [
        parse_formula("p", C3),
        parse_formula("q", C3),
        parse_formula("p & q", C3),
        parse_formula("p -> #1/2", C3),
    ]
    for _ in range(30):
        model = sample_model(cfg, rng)
        report = check_lemma4(quotient(model, {PropVar("p")}), "a", corpus)
        assert report.ok
        assert report.points_checked == model.space.size * (2**model.space.size)


def test_lemma4_random_trials():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.choice((2, 3, 5))
        model, gamma = _random_pair(rng, n)
        prog = rng.choice(sorted(model.atomics))
        extra = [random_formula(rng, ChainContext(n), 2) for _ in range(2)]
        corpus = list(gamma) + extra
        report = check_lemma4(quotient(model, gamma), prog, corpus)
        assert report.ok, report.to_json()


def _model_of_size(rng, n, size, density=0.35):
    ctx = ChainContext(n)
    space = StateSpace(size)
    atomics = {}
    for name in "ab":
        entries = {}
        for s in space.states():
            for mask in space.subset_masks():
                if rng.random() < density:
                    entries[(s, mask)] = rng.randint(1, ctx.top)
        atomics[name] = ReachRelation(space, ctx, entries)
    valuation = {
        name: {s: rng.randint(0, ctx.top) for s in space.states()} for name in "pq"
    }
    return Model(ctx, space, atomics, valuation)


def test_filtration_matches_reference():
    # the vector-reading quotient, Lemma-4 check and preservation report
    # against the per-cell reference with its second representative pass
    rng = random.Random(88)
    floors = {"none": 0, "named": 0}
    for size in range(1, 7):
        for n in (2, 3, 5):
            for _ in range(2):
                ctx = ChainContext(n)
                model = _model_of_size(rng, n, size)
                prog = rng.choice("ab")
                body = random_formula(rng, ctx, 2)
                formula = And(Box(Atomic(prog), body), Diamond(Atomic(prog), body))
                if rng.random() < 0.5:
                    formula = And(formula, random_formula(rng, ctx, 2))
                gamma = fl_closure(formula, ctx)
                for closed in (frozenset(), gamma):  # the Lemma-4 checks read gamma
                    result = quotient(model, closed)
                    ref = reference_quotient(model, closed)
                    assert ref.warnings == ()
                    assert result.classes == ref.classes
                    assert result.class_of == ref.class_of
                    assert result.quotient == ref.quotient
                    assert result.gamma == ref.gamma
                    assert (
                        check_preservation(result).to_json()
                        == reference_check_preservation(model, ref).to_json()
                    )
                extra = [random_formula(rng, ctx, 2) for _ in range(2)]
                indexing = {f.body for f in gamma if isinstance(f, Box)}
                mid = Constant(ChainValue(ctx.top // 2, ctx))
                corpora = (
                    list(gamma) + extra,  # holds
                    [],  # every violation has no floor formula
                    # the indexing bodies only weakened: floors are named
                    [f for f in list(gamma) + extra if f not in indexing]
                    + [Or(f, mid) for f in indexing],
                )
                for corpus in corpora:
                    got = check_lemma4(result, prog, corpus).to_json()
                    assert got == reference_check_lemma4(model, ref, prog, corpus).to_json()
                    assert got["points_checked"] == size * 2**size
                    for violation in got["violations"]:
                        assert set(violation) == {
                            "state", "targets", "unrestricted", "restricted", "formula",
                        }
                        floors["none" if violation["formula"] is None else "named"] += 1
                assert check_lemma4(result, prog, corpora[0]).ok
    # both kinds of violation report actually occur
    assert floors["none"] > 0 and floors["named"] > 0, floors


def test_preservation_propvar_only():
    space = StateSpace(3)
    model = Model(C3, space, {}, {"p": {0: 2, 1: 1}})
    report = check_preservation(quotient(model, {PropVar("p")}))
    assert report.all_agree


def test_preservation_on_separated_model():
    # all classes singletons: agreement is forced for closed sets of
    # propositional formulas
    space = StateSpace(2)
    model = Model(C3, space, {}, {"p": {0: 2, 1: 1}, "q": {1: 2}})
    gamma = closure_of_set(
        {parse_formula("p & q", C3), parse_formula("p -> q", C3)}, C3
    )
    result = quotient(model, gamma)
    assert len(result.classes) == 2
    report = check_preservation(result)
    assert report.all_agree


def test_preservation_report_structure():
    rng = random.Random(8)
    agreements = total = 0
    for _ in range(30):
        n = rng.choice((2, 3))
        model, gamma = _random_pair(rng, n)
        report = check_preservation(quotient(model, gamma))
        assert len(report.rows) == len(gamma)
        for row in report.rows:
            assert set(row) == {"formula", "states", "agreements", "mismatches"}
            assert row["agreements"] + len(row["mismatches"]) == row["states"]
            agreements += row["agreements"]
            total += row["states"]
        dumps(report.to_json())  # serializable
    assert total > 0  # the table actually accumulated data


def test_quotient_round_trips_through_model_json():
    rng = random.Random(9)
    model, gamma = _random_pair(rng, 3)
    result = quotient(model, gamma)
    reborn = model_from_dict(model_to_dict(result.quotient))
    assert reborn == result.quotient


def test_filtrate_runs_one_plan_per_model(tmp_path, monkeypatch, capsys):
    from gradedpdl import semantics
    from gradedpdl.cli import main

    rng = random.Random(10)
    space = StateSpace(5)
    entries = {
        (s, mask): rng.randint(1, 2)
        for s in space.states()
        for mask in space.subset_masks()
        if rng.random() < 0.2
    }
    model = Model(
        C3,
        space,
        {"a": ReachRelation(space, C3, entries)},
        {"p": {s: rng.randint(0, 2) for s in space.states()}},
    )
    path = tmp_path / "model.json"
    path.write_text(dumps(model_to_dict(model)))
    # the closed set is compiled once and its plan run once in the model
    # and once in the quotient; no evaluator is built
    runs, built = [], []
    real_run, real_init = semantics.Plan.run, semantics.Evaluator.__init__

    def counting_run(self, model):
        runs.append((self, model))
        return real_run(self, model)

    def counting_init(self, model):
        built.append(model)
        real_init(self, model)

    monkeypatch.setattr(semantics.Plan, "run", counting_run)
    monkeypatch.setattr(semantics.Evaluator, "__init__", counting_init)
    assert main(["filtrate", str(path), "[a]p & <a>p", "--force-states"]) == 0
    capsys.readouterr()
    assert built == [] and len(runs) == 2
    (plan, in_model), (again, in_quotient) = runs
    assert again is plan and len(plan.roots) == 4  # [a]p & <a>p, [a]p, <a>p, p
    assert in_model.space.size == 5 and in_quotient is not in_model
