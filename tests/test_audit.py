import itertools
import json
import random

import pytest

from gradedpdl.audit import (
    BudgetExceeded,
    ModalFormulaRejected,
    SamplerConfig,
    SamplerConfigError,
    VALUATION_LIMIT,
    _bound_model,
    _search,
    audit_all,
    audit_rule,
    check_consequence_prop,
    derive_seed,
    equiv_check,
    find_counterexample,
    sample_bindings,
    sample_model,
)
from gradedpdl.chain import ChainContext
from gradedpdl.modelio import dumps
from gradedpdl.schemas import RULES, AxiomSchema, all_schemata, instantiate_schema, schemata_named
from gradedpdl.semantics import Evaluator, compile_plan, eval_formula, valid_in_model
from gradedpdl.relations import ReachRelation, StateSpace
from gradedpdl.semantics import Model
from gradedpdl.syntax import Box, Diamond, Implies, collect_names, parse_formula, parse_program

from oracle_audit import reference_audit_rule, reference_find_counterexample
from oracle_sampler import _random_formula, reference_sample_bindings, reference_sample_model
from oracle_semantics import PointwiseEvaluator

C3 = ChainContext(3)


def schema(label):
    schema_id, _, variant = label.partition("/")
    (entry,) = schemata_named(schema_id, variant or None)
    return entry


# -- sampling -------------------------------------------------------------------


def test_sampler_determinism():
    cfg = SamplerConfig(n=3, max_states=3, seed=5)
    for seed in (cfg.seed, 9):
        a = sample_model(cfg, random.Random(seed))
        b = sample_model(cfg, random.Random(seed))
        assert a == b and a.atomics == b.atomics and a.valuation == b.valuation


def _same_model(got, want):
    # Model equality ignores empty valuation rows; the parts must match too.
    assert got == want
    assert got.atomics == want.atomics
    assert got.valuation == want.valuation
    assert got.state_names == want.state_names
    assert list(got.atomics) == list(want.atomics)


def test_sampler_matches_reference_stream():
    names = ("pq", "ab"), (["p", "r", "z"], ["a", "x"])
    for n in range(2, 9):
        for max_states in range(1, 7):
            cfg = SamplerConfig(n=n, max_states=max_states, allow_large=True)
            for props, progs in names:
                seed = f"{n}:{max_states}:{props}"
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(3 if max_states > 4 else 8):
                    got = sample_model(cfg, rng, props, progs)
                    want = reference_sample_model(cfg, ref_rng, props, progs)
                    _same_model(got, want)
                    assert rng.getstate() == ref_rng.getstate(), (n, max_states)
    # the reference without an rng starts from the configured seed
    cfg = SamplerConfig(n=4, max_states=3, seed=12)
    _same_model(sample_model(cfg, random.Random(cfg.seed)), reference_sample_model(cfg))


def test_sampler_config_validation():
    with pytest.raises(SamplerConfigError):
        SamplerConfig(n=1)
    with pytest.raises(SamplerConfigError, match="cap is 4 .*force-states.* 6"):
        SamplerConfig(n=3, max_states=5)
    SamplerConfig(n=3, max_states=5, allow_large=True)
    with pytest.raises(SamplerConfigError):
        SamplerConfig(n=3, max_states=7, allow_large=True)
    with pytest.raises(SamplerConfigError):
        SamplerConfig(n=3, max_states=0)
    with pytest.raises(SamplerConfigError):
        SamplerConfig(n=3, samples=0)
    # a float went through and failed later: in ChainContext, in the
    # sampler's bit_length, in range()
    for bad in ({"n": 3.0}, {"n": 3, "max_states": 2.5}, {"n": 3, "samples": 2.5}):
        with pytest.raises(SamplerConfigError, match="must be an integer"):
            SamplerConfig(**bad)


def test_bindings_match_reference_stream():
    # the config's names and pools and each schema's meta table, built
    # once, give the bindings and draws of the per-call reference
    for n in range(2, 8):
        cfg = SamplerConfig(n=n)
        for schema in all_schemata("DL"):
            for seed in range(4):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                for _ in range(5):
                    got = sample_bindings(schema, rng, cfg)
                    assert got == reference_sample_bindings(schema, ref_rng, cfg)
                    assert rng.getstate() == ref_rng.getstate(), (n, schema.label)


def test_search_asks_the_predicate_once_per_reference_model():
    # a predicate that never fails sees every trial's model, drawn over
    # the configured names and those of the formulas, and the budget runs out
    cfg = SamplerConfig(n=3, max_states=3, samples=25)
    seen = []

    def never(rng, model):
        seen.append((rng, model))
        return None

    formula = parse_formula("[c]r -> p", cfg.context)
    assert _search(cfg, 17, never, formula) == (cfg.samples, None, None)
    assert len(seen) == cfg.samples
    ref_rng = random.Random(17)
    for _rng, model in seen:
        _same_model(model, reference_sample_model(cfg, ref_rng, "pqr", "abc"))
    assert seen[-1][0].getstate() == ref_rng.getstate()


def test_search_stops_at_the_failing_trial():
    # the predicate's own draws follow the model from the same stream; a
    # trial that fails ends the search with no draw after it
    cfg = SamplerConfig(n=4, max_states=3, samples=50)
    for k in (1, 7, 50):
        seen = []

        def fails_at_k(rng, model):
            seen.append((rng, model))
            found = rng.random()
            return found if len(seen) == k else None

        trial, model, found = _search(cfg, 3, fails_at_k)
        ref_rng = random.Random(3)
        for _rng, got in seen:
            _same_model(got, reference_sample_model(cfg, ref_rng))
            want = ref_rng.random()
        assert (trial, model, found) == (k, seen[-1][1], want)
        assert len(seen) == k
        assert seen[-1][0].getstate() == ref_rng.getstate()


def test_derive_seed_is_stable():
    assert derive_seed(7, "schema", "D16", 3) == derive_seed(7, "schema", "D16", 3)
    assert derive_seed(7, "schema", "D16", 3) != derive_seed(8, "schema", "D16", 3)


# -- counterexample search -------------------------------------------------------


def test_test_diamond_counterexample_found_at_three():
    cfg = SamplerConfig(n=3, max_states=3, seed=7, samples=10_000)
    entry = find_counterexample(schema("D16"), cfg)
    assert entry.verdict == "counterexample"
    w = entry.witness
    assert w.value < C3.one
    assert w.reevaluate() == w.value


def test_test_diamond_canonical_witness():
    # single state, p at one half: the biconditional sits at one half
    space = StateSpace(1)
    model = Model(C3, space, {}, {"p": {0: 1}})
    instance = parse_formula("<?(p)>p <-> p & p", C3)
    assert eval_formula(model, instance, 0) == C3.value(1)


def test_termination_axiom_counterexample_found_at_three():
    cfg = SamplerConfig(n=3, max_states=3, seed=7, samples=10_000)
    entry = find_counterexample(schema("D17"), cfg)
    assert entry.verdict == "counterexample"
    assert entry.witness.reevaluate() == entry.witness.value


def test_termination_axiom_canonical_witness():
    space = StateSpace(1)
    rel = ReachRelation.of(space, C3, [(0, [0], "1/2")])
    model = Model(C3, space, {"a": rel}, {})
    instance = parse_formula("[a]#0 | <a>#1", C3)
    assert eval_formula(model, instance, 0) == C3.value(1)


def test_box_top_never_refuted():
    for n in (2, 3, 5):
        cfg = SamplerConfig(n=n, max_states=3, seed=3, samples=300)
        entry = find_counterexample(schema("D1"), cfg)
        assert entry.verdict == "no-counterexample-found"
        assert entry.models_tested == 300


def test_inter_box_variants_discriminated_at_two():
    cfg = SamplerConfig(n=2, max_states=3, seed=7, samples=4000)
    printed = find_counterexample(schema("D7/printed"), cfg)
    corrected = find_counterexample(schema("D7/corrected"), cfg)
    assert printed.verdict == "counterexample"
    assert corrected.verdict == "no-counterexample-found"


def test_rewritten_axioms_hold_under_the_pointwise_evaluator():
    # the plans fold a box over '+' or '^' and a diamond over '+' by D6,
    # D7/corrected and D12, so the audit of those axioms would compare the
    # rewrite with itself; the pointwise evaluator builds union and
    # parallel, and finds them valid, and the witnesses refuting
    # D7/printed and D13 below top
    for n in (2, 3, 5):
        cfg = SamplerConfig(n=n, max_states=3, samples=300)
        rng = random.Random(n)
        for label in ("D6", "D7/corrected", "D12"):
            template = schema(label).template(cfg.context)
            props, progs = collect_names(template)
            for _ in range(cfg.samples):
                model = sample_model(cfg, rng, sorted(props), sorted(progs))
                pointwise = PointwiseEvaluator(model)
                for s in model.space.states():
                    assert pointwise.value_num(template, s) == cfg.context.top, (label, n)
    for label, n in (("D7/printed", 2), ("D13", 3)):
        cfg = SamplerConfig(n=n, max_states=3, seed=7, samples=4000)
        witness = find_counterexample(schema(label), cfg).witness
        pointwise = PointwiseEvaluator(witness.model)
        assert pointwise.value_num(witness.formula, witness.state) < cfg.context.top, label


def test_inter_box_printed_direct_witness():
    # a has no successor rows, b reaches a state violating p: the printed
    # right-hand side drops to bottom while the intersection box is vacuous
    ctx = ChainContext(2)
    space = StateSpace(2)
    rel_b = ReachRelation.of(space, ctx, [(0, [1], "1")])
    model = Model(ctx, space, {"a": ReachRelation(space, ctx, {}), "b": rel_b}, {"p": {}})
    printed = parse_formula("[a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [b]p)", ctx)
    corrected = parse_formula("[a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)", ctx)
    assert eval_formula(model, printed, 0).is_bottom
    assert eval_formula(model, corrected, 0).is_top


def test_seq_box_gap_direct_witness():
    # an intermediate state with an empty row makes the composed box
    # vacuous while the nested boxes see the failure
    ctx = ChainContext(2)
    space = StateSpace(3)
    rel_a = ReachRelation.of(space, ctx, [(0, [1, 2], "1")])
    rel_b = ReachRelation.of(space, ctx, [(1, [1], "1")])
    model = Model(ctx, space, {"a": rel_a, "b": rel_b}, {"p": {}})
    composed = parse_formula("[a;b]p", ctx)
    nested = parse_formula("[a][b]p", ctx)
    assert eval_formula(model, composed, 0).is_top
    assert eval_formula(model, nested, 0).is_bottom


def test_witnesses_reevaluate_exactly():
    cfg = SamplerConfig(n=3, max_states=3, seed=21, samples=800)
    for s in all_schemata("DL"):
        entry = find_counterexample(s, cfg)
        if entry.witness is not None:
            assert entry.witness.reevaluate() == entry.witness.value


def test_audit_reports_are_deterministic():
    cfg = SamplerConfig(n=3, max_states=2, seed=13, samples=60)
    first = dumps(audit_all(cfg).to_json())
    second = dumps(audit_all(cfg).to_json())
    assert first == second
    json.loads(first)  # well-formed


def test_audit_all_empty_schema_list():
    cfg = SamplerConfig(n=3, seed=1, samples=10)
    report = audit_all(cfg, schemata=[], include_rules=False)
    assert report.schemas == [] and report.rules == []
    assert not report.has_counterexample


def test_rule_audit_runs():
    cfg = SamplerConfig(n=3, max_states=2, seed=5, samples=400)
    for rule_id in ("Mon-box", "Mon-diamond"):
        entry = audit_rule(rule_id, cfg)
        assert entry.verdict in ("counterexample", "no-counterexample-found")
        assert entry.premises_valid >= 1


# -- templates in the model extended by the bindings -------------------------------


def test_template_in_extended_model_equals_instance():
    # compositionality: at every state the template's value in the model
    # extended by the bindings is the instance's value in the model, by
    # the evaluator and by the pointwise reference
    for n in (2, 3, 5):
        cfg = SamplerConfig(n=n, max_states=3, seed=n)
        ctx = cfg.context
        for s in all_schemata("DL"):
            rng = random.Random(f"{n}:{s.label}")
            for _ in range(12):
                model = sample_model(cfg, rng)
                names = (set(model.valuation), set(model.atomics))
                bindings = sample_bindings(s, rng, cfg)
                (got,) = compile_plan(s.template(ctx)).root_values(_bound_model(s, bindings, model))
                assert (set(model.valuation), set(model.atomics)) == names
                instance = instantiate_schema(s, bindings, ctx)
                assert got == compile_plan(instance).root_values(model)[0], (n, s.label)
                pointwise = PointwiseEvaluator(model)
                want = tuple(pointwise.value_num(instance, st) for st in model.space.states())
                assert got == want, (n, s.label)


def test_audit_matches_instantiating_reference():
    # the parent loop built and evaluated every instance; the reports,
    # witnesses included, are equal
    witnesses = 0
    for n in (2, 3):
        for max_states in (1, 3, 4):
            for seed in (0, 1):
                cfg = SamplerConfig(n=n, max_states=max_states, seed=seed, samples=40)
                for s in all_schemata("DL"):
                    got = find_counterexample(s, cfg).to_json()
                    assert got == reference_find_counterexample(s, cfg).to_json()
                    witnesses += "witness" in got
    assert witnesses >= 50


def _steps(*terms):
    """What ``_count_runs`` records of a run of the plan of ``terms``."""
    plan = compile_plan(*terms)
    return plan.steps, plan.roots


def _count_runs(monkeypatch):
    """Record the steps and roots of every plan run, and the model of
    every evaluator built, from here on."""
    from gradedpdl import semantics

    runs, built = [], []
    real_run, real_init = semantics.Plan.run, semantics.Evaluator.__init__

    def counting_run(self, model):
        runs.append((self.steps, self.roots))
        return real_run(self, model)

    def counting_init(self, model):
        built.append(model)
        real_init(self, model)

    monkeypatch.setattr(semantics.Plan, "run", counting_run)
    monkeypatch.setattr(semantics.Evaluator, "__init__", counting_init)
    return runs, built


def test_audit_instantiates_only_witnesses(monkeypatch):
    # a trial runs the template's plan, compiled once per search, and no
    # evaluator; only a witness's instance is built
    from gradedpdl import audit

    instantiated = []
    real_instantiate = audit.instantiate_schema

    def counting_instantiate(*args):
        instantiated.append(args[0].label)
        return real_instantiate(*args)

    monkeypatch.setattr(audit, "instantiate_schema", counting_instantiate)
    runs, built = _count_runs(monkeypatch)
    cfg = SamplerConfig(n=3, max_states=3, seed=4, samples=80)
    refuted = []
    for s in all_schemata("DL"):
        del runs[:]
        entry = find_counterexample(s, cfg)
        assert runs.count(_steps(s.template(cfg.context))) == entry.models_tested, s.label
        if entry.witness is not None:
            refuted.append(s.label)
    assert refuted and instantiated == refuted
    assert built == []


def test_rule_audit_matches_two_evaluator_reference():
    # the reference builds premise and conclusion in Python and checks
    # each in an evaluator of its own; the reports are equal
    premises_valid = 0
    for n in (2, 3, 4):
        for max_states in (1, 2, 3):
            for seed in range(10):
                cfg = SamplerConfig(n=n, max_states=max_states, seed=seed, samples=20)
                for rule_id in RULES:
                    got = audit_rule(rule_id, cfg).to_json()
                    assert got == reference_audit_rule(rule_id, cfg).to_json(), (cfg, rule_id)
                    premises_valid += got["premises_valid"]
    assert premises_valid >= 500


def test_unsound_rule_witness_is_the_instance(monkeypatch):
    # Mon is sound, so only an unsound rule reaches the witness path
    premise, _ = RULES["Mon-box"]
    mixed = AxiomSchema("Mon-mixed", None, "[pi]phi -> <pi>psi", ())
    monkeypatch.setitem(RULES, "Mon-mixed", (premise, mixed))
    for seed in range(5):
        entry = audit_rule("Mon-mixed", SamplerConfig(n=3, max_states=2, seed=seed, samples=200))
        assert entry.verdict == "counterexample"
        witness = entry.witness
        phi, psi, pi = (witness.bindings[name] for name in ("phi", "psi", "pi"))
        assert witness.formula == instantiate_schema(mixed, witness.bindings, C3)
        assert witness.formula == Implies(Box(pi, phi), Diamond(pi, psi))
        assert valid_in_model(witness.model, Implies(phi, psi))[0]
        ok, refutation = valid_in_model(witness.model, witness.formula)
        assert not ok and (refutation.state, refutation.value) == (witness.state, witness.value)
        assert witness.reevaluate() == witness.value


def test_rule_audit_runs_the_conclusion_only_where_the_premise_is_valid(monkeypatch):
    runs, built = _count_runs(monkeypatch)
    for rule_id, (premise, conclusion) in RULES.items():
        del runs[:]
        entry = audit_rule(rule_id, SamplerConfig(n=3, max_states=3, seed=2, samples=60))
        assert 0 < entry.premises_valid < 60, rule_id
        assert runs.count(_steps(premise.template(C3))) == entry.models_tested == 60, rule_id
        assert runs.count(_steps(conclusion.template(C3))) == entry.premises_valid, rule_id
    assert built == []


def test_extension_rows_are_the_binding_vectors():
    cfg = SamplerConfig(n=3, max_states=3, seed=2)
    rng = random.Random(2)
    for _ in range(10):
        model = sample_model(cfg, rng)
        size = model.space.size
        phi, psi = parse_formula("p -> q", C3), parse_formula("[a*]p & q", C3)
        bound = _bound_model(schema("A1"), {"phi": phi, "psi": psi}, model)
        vectors = compile_plan(phi, psi).root_values(model)
        assert bound.valuation == {**model.valuation, "phi": vectors[0], "psi": vectors[1]}
        bound = _bound_model(schema("A5/and"), {"c": C3.value(1), "d": C3.one}, model)
        constants = {"c": (1,) * size, "d": (2,) * size, "e": (1,) * size}
        assert bound.valuation == {**model.valuation, **constants}
        pi = parse_program("a;b", C3)
        bound = _bound_model(schema("D1"), {"pi": pi}, model)
        assert bound.atomics == {**model.atomics, "pi": Evaluator(model).relation(pi)}
        for row in bound.valuation.values():
            assert type(row) is tuple and len(row) == size
            assert all(type(num) is int for num in row)


def test_extension_refuses_a_model_that_names_a_metavariable(monkeypatch):
    from gradedpdl import audit

    cfg = SamplerConfig(n=3, max_states=2, seed=1, samples=5)
    space = StateSpace(1)
    named_phi = Model(C3, space, {}, {"phi": {0: 1}})
    bindings = {"phi": parse_formula("p", C3), "psi": parse_formula("q", C3)}
    with pytest.raises(ValueError, match="'phi'"):
        _bound_model(schema("A1"), bindings, named_phi)
    empty = ReachRelation(space, C3, {})
    named_pi = Model(C3, space, {"a": empty, "pi": empty}, {})
    with pytest.raises(ValueError, match="'pi'"):
        _bound_model(schema("D1"), {"pi": parse_program("a", C3)}, named_pi)
    # A5's computed e is a metavariable too
    named_e = Model(C3, space, {}, {"e": {}})
    with pytest.raises(ValueError, match="'e'"):
        _bound_model(schema("A5/and"), {"c": C3.value(1), "d": C3.one}, named_e)
    # the two namespaces stay apart: a program named phi shadows nothing
    program_phi = Model(C3, space, {"phi": empty}, {})
    _bound_model(schema("A1"), bindings, program_phi)
    # through the search, when the sampled models' names include one
    monkeypatch.setattr(audit, "_sample_names", lambda: (["p", "phi", "q"], ["a", "b"]))
    with pytest.raises(ValueError, match="'phi'"):
        find_counterexample(schema("A1"), cfg)


# -- modality-free consequence -----------------------------------------------------


def test_consequence_trivial():
    p = parse_formula("p", C3)
    assert check_consequence_prop([p], p, C3) == (True, None)


def test_excluded_middle_fails_at_three():
    ok, witness = check_consequence_prop([], parse_formula("p | ~p", C3), C3)
    assert not ok
    assert witness == {"p": C3.value(1)}


def test_axiom_instances_are_tautologies():
    texts = [
        "p -> (q -> p)",
        "(p -> q) -> ((q -> r) -> (p -> r))",
        "((p -> q) -> q) -> ((q -> p) -> p)",
        "(~q -> ~p) -> (p -> q)",
    ]
    for n in (2, 3, 4, 5):
        ctx = ChainContext(n)
        for text in texts:
            assert check_consequence_prop([], parse_formula(text, ctx), ctx)[0], (n, text)


def test_modal_formulas_rejected():
    with pytest.raises(ModalFormulaRejected):
        check_consequence_prop([], parse_formula("[a]p", C3), C3)
    with pytest.raises(ModalFormulaRejected):
        check_consequence_prop([parse_formula("<a>p", C3)], parse_formula("p", C3), C3)


def test_valuation_budget():
    # 3**15 valuations are over the limit; the check refuses before
    # building any valuation
    phi = parse_formula(" | ".join(f"p{i}" for i in range(15)), C3)
    assert C3.n ** 15 > VALUATION_LIMIT
    with pytest.raises(BudgetExceeded):
        check_consequence_prop([], phi, C3)


def test_consequence_with_premises():
    theta = [parse_formula("p", C3), parse_formula("p -> q", C3)]
    assert check_consequence_prop(theta, parse_formula("q", C3), C3)[0]
    ok, witness = check_consequence_prop(
        [parse_formula("p | q", C3)], parse_formula("p", C3), C3
    )
    assert not ok and witness["p"] < C3.one


def test_consequence_witness_is_first_falsifying_valuation():
    # With premises, several valuations falsify each case; the witness is
    # the first in product order over the sorted names, including one past
    # the first block of valuations (a, b, c, d all above 1/4 at n=5).
    cases = [
        (3, [], "p -> q"),
        (5, ["q -> p"], "p -> q & #1/2"),
        (5, [], "a & b & c & d -> #1/4"),
    ]
    for n, premises, text in cases:
        ctx = ChainContext(n)
        theta = [parse_formula(t, ctx) for t in premises]
        phi = parse_formula(text, ctx)
        names = sorted(collect_names(phi)[0].union(*(collect_names(f)[0] for f in theta)))
        falsifying = []
        for nums in itertools.product(range(n), repeat=len(names)):
            model = Model(ctx, StateSpace(1), {}, {x: {0: k} for x, k in zip(names, nums)})
            if all(valid_in_model(model, f)[0] for f in theta) and not valid_in_model(model, phi)[0]:
                falsifying.append(dict(zip(names, nums)))
        assert len(falsifying) > 1, text
        ok, witness = check_consequence_prop(theta, phi, ctx)
        assert not ok
        assert {x: v.numerator for x, v in witness.items()} == falsifying[0], text


def test_consequence_agrees_with_one_state_models():
    rng = random.Random(31)
    for n in (2, 3):
        ctx = ChainContext(n)
        for _ in range(40):
            f = _random_formula(rng, ctx, 3, "pq", "a")
            # keep only modality-free draws
            try:
                expected, _ = check_consequence_prop([], f, ctx)
            except ModalFormulaRejected:
                continue
            # truth in all one-state models == tautology over valuations
            holds_everywhere = True
            for pnum in range(n):
                for qnum in range(n):
                    model = Model(ctx, StateSpace(1), {}, {"p": {0: pnum}, "q": {0: qnum}})
                    ok, _ = valid_in_model(model, f)
                    holds_everywhere = holds_everywhere and ok
            assert expected == holds_everywhere


# -- difference search ----------------------------------------------------------------


def test_equiv_identical_formulas():
    f = parse_formula("[a]p", C3)
    cfg = SamplerConfig(n=3, max_states=2, seed=2, samples=50)
    report = equiv_check(f, f, cfg)
    assert not report.difference_found
    assert report.models_tested == 50


def test_equiv_box_test_is_implication():
    for n in (2, 3):
        ctx = ChainContext(n)
        cfg = SamplerConfig(n=n, max_states=3, seed=4, samples=400)
        report = equiv_check(
            parse_formula("[?(p)]q", ctx), parse_formula("p -> q", ctx), cfg
        )
        assert not report.difference_found


def test_equiv_finds_modal_non_duality():
    ctx = ChainContext(2)
    cfg = SamplerConfig(n=2, max_states=3, seed=1, samples=1000)
    report = equiv_check(parse_formula("<a>p", ctx), parse_formula("~[a]~p", ctx), cfg)
    assert report.difference_found
    assert report.models_tested <= 1000
    # the witness re-evaluates exactly
    assert eval_formula(report.model, report.left, report.state) == report.left_value
    assert eval_formula(report.model, report.right, report.state) == report.right_value
    json.loads(dumps(report.to_json()))
