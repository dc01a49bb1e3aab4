import random
import re
from pathlib import Path

import pytest

import oracle_schemas as oracle
from gradedpdl.chain import ChainContext, ChainValue
from gradedpdl.schemas import (
    MissingBinding,
    all_schemata,
    instantiate_schema,
    match_axiom_instance,
    schemata_named,
)
from gradedpdl.audit import SamplerConfig, sample_bindings
from gradedpdl.syntax import (
    And,
    Atomic,
    Constant,
    Implies,
    Or,
    PropVar,
    biconditional,
    children,
    format_formula,
    parse_formula,
)

C3 = ChainContext(3)
README = Path(__file__).parents[1] / "README.md"


def schema(label):
    schema_id, _, variant = label.partition("/")
    entries = schemata_named(schema_id, variant or None)
    assert len(entries) == 1, label
    return entries[0]


def test_catalog_shape():
    labels = [s.label for s in all_schemata("DL")]
    assert labels[:4] == ["A1", "A2", "A3", "A4"]
    assert {"A5/and", "A5/or", "A5/imp"} <= set(labels)
    assert [l for l in labels if l.startswith("D")] == [
        "D1", "D2", "D3", "D4", "D5", "D6", "D7/printed", "D7/corrected",
        "D8", "D9", "D10", "D11", "D12", "D13", "D14", "D15", "D16", "D17",
    ]
    pl = {s.label for s in all_schemata("PL")}
    assert pl == {"A1", "A2", "A3", "A4", "A5/and", "A5/or", "A5/imp"}


def test_instantiate_a1():
    got = instantiate_schema(schema("A1"), {"phi": PropVar("p"), "psi": PropVar("q")}, C3)
    assert got == parse_formula("p -> (q -> p)", C3)


def test_instantiate_seq_box():
    bindings = {"pi0": Atomic("a"), "pi1": Atomic("b"), "phi": PropVar("p")}
    got = instantiate_schema(schema("D5"), bindings, C3)
    assert got == parse_formula("[a;b]p <-> [a][b]p", C3)


def test_instantiate_constant_axiom():
    half = C3.value(1)
    got = instantiate_schema(schema("A5/imp"), {"c": half, "d": half}, C3)
    assert got == parse_formula("#1 <-> (#1/2 -> #1/2)", C3)


def test_instantiate_bound_constants():
    # #0, #1 and ~ are read at the chain in use
    for ctx in (ChainContext(2), C3, ChainContext(4), ChainContext(7)):
        got = instantiate_schema(schema("D17"), {"pi": Atomic("a")}, ctx)
        assert got == parse_formula("[a]#0 | <a>#1", ctx)
        assert got.right.body == Constant(ctx.one)
        a4 = instantiate_schema(schema("A4"), {"phi": PropVar("p"), "psi": PropVar("q")}, ctx)
        assert a4 == parse_formula("(~q -> ~p) -> (p -> q)", ctx)


def test_missing_binding():
    with pytest.raises(MissingBinding):
        instantiate_schema(schema("A1"), {"phi": PropVar("p")}, C3)


def test_match_a1():
    ok, bindings = match_axiom_instance(schema("A1"), parse_formula("p -> (q -> p)", C3), C3)
    assert ok
    assert bindings == {"phi": PropVar("p"), "psi": PropVar("q")}
    ok, _ = match_axiom_instance(schema("A1"), parse_formula("p -> (q -> r)", C3), C3)
    assert not ok


def test_match_repeated_metavariable():
    a3 = schema("A3")
    good = parse_formula("((p -> q) -> q) -> ((q -> p) -> p)", C3)
    assert match_axiom_instance(a3, good, C3)[0]
    bad = parse_formula("((p -> q) -> q) -> ((q -> p) -> q)", C3)
    assert not match_axiom_instance(a3, bad, C3)[0]


def test_match_constant_axiom_checks_arithmetic():
    a5 = schema("A5/imp")
    assert match_axiom_instance(a5, parse_formula("#1 <-> (#1/2 -> #1/2)", C3), C3)[0]
    assert not match_axiom_instance(a5, parse_formula("#0 <-> (#1/2 -> #1/2)", C3), C3)[0]
    a5_and = schema("A5/and")
    assert match_axiom_instance(a5_and, parse_formula("#0 <-> #0 & #1", C3), C3)[0]
    assert not match_axiom_instance(a5_and, parse_formula("#1 <-> #0 & #1", C3), C3)[0]


def test_match_bound_constant_is_chain_aware():
    d1 = schema("D1")
    assert match_axiom_instance(d1, parse_formula("[a]#1", C3), C3)[0]
    assert not match_axiom_instance(d1, parse_formula("[a]#1/2", C3), C3)[0]
    assert not match_axiom_instance(d1, parse_formula("[a]p", C3), C3)[0]


def test_match_distinguishes_inter_box_variants():
    printed = schema("D7/printed")
    corrected = schema("D7/corrected")
    text_printed = "[a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [b]p)"
    text_corrected = "[a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)"
    assert match_axiom_instance(printed, parse_formula(text_printed, C3), C3)[0]
    assert not match_axiom_instance(printed, parse_formula(text_corrected, C3), C3)[0]
    assert match_axiom_instance(corrected, parse_formula(text_corrected, C3), C3)[0]
    assert not match_axiom_instance(corrected, parse_formula(text_printed, C3), C3)[0]


def test_instantiate_then_match_recovers_bindings():
    rng = random.Random(17)
    cfg = SamplerConfig(n=3, seed=17)
    for s in all_schemata("DL"):
        for _ in range(20):
            bindings = sample_bindings(s, rng, cfg)
            instance = instantiate_schema(s, bindings, C3)
            ok, recovered = match_axiom_instance(s, instance, C3)
            assert ok, (s.label, format_formula(instance))
            for name, bound in bindings.items():
                if isinstance(bound, ChainValue):
                    assert recovered[name] == bound
                else:
                    assert recovered[name] == bound


def test_schema_lookup():
    assert schemata_named("D7") == [schema("D7/printed"), schema("D7/corrected")]
    assert schemata_named("ZZ") == []
    assert schemata_named("D7", "nope") == []


def test_generic_instance_is_the_template():
    # a template is an ordinary formula: with every formula and program
    # metavariable bound to its own name, instantiation gives it back
    for ctx in (ChainContext(2), C3, ChainContext(6)):
        for s in all_schemata("DL"):
            template = s.template(ctx)
            assert template is s.template(ctx)
            kinds = dict(s.metas)
            ok, bindings = match_axiom_instance(s, template, ctx)
            if "const" in kinds.values():
                # a constant metavariable accepts only a constant
                assert (ok, bindings) == (False, None), s.label
                continue
            names = {
                name: Atomic(name) if kind == "program" else PropVar(name)
                for name, kind in kinds.items()
            }
            assert ok and bindings == names, s.label
            assert instantiate_schema(s, names, ctx) == template


def test_instantiate_leaves_the_bindings_alone():
    bindings = {"c": C3.value(1), "d": C3.one}
    instantiate_schema(schema("A5/and"), bindings, C3)
    assert bindings == {"c": C3.value(1), "d": C3.one}


# -- differential test against the reference catalog -------------------------

PAIRS = [(s, oracle.schemata_named(s.id, s.variant)) for s in all_schemata("DL")]
# The connective between c and d, by A5 variant.
_A5_NODES = {"and": And, "or": Or, "imp": Implies}


def test_catalog_agrees_with_reference():
    for system in ("PL", "DL"):
        assert [(s.label, s.systems) for s in all_schemata(system)] == [
            (r.label, r.systems) for r in oracle.all_schemata(system)
        ]
    for s, refs in PAIRS:
        assert len(refs) == 1
        assert s.metas == refs[0].metas, s.label


def _rewrite(node, old, first, rest, seen):
    """``node`` with its first occurrence of ``old`` in preorder replaced
    by ``first`` and every later one by ``rest``."""
    if node == old:
        seen.append(node)
        return first if len(seen) == 1 else rest
    parts = children(node)
    if not parts:
        return node
    return type(node)(*(_rewrite(part, old, first, rest, seen) for part in parts))


def _mutants(s, bindings, instance, ctx):
    """Near-instances of ``s``: its first ``#1`` moved down the chain,
    A5's ``e`` one step off, a constant metavariable's places holding a
    formula, and a repeated metavariable bound to two different subtrees.
    Every schema must judge each of them as the reference does."""
    out = []
    one = Constant(ctx.one)
    # the chain's midpoint (#1/2 where the chain has it) for the first #1
    out.append(_rewrite(instance, one, Constant(ctx.value(ctx.top // 2)), one, []))
    if s.id == "A5":
        c, d = bindings["c"], bindings["d"]
        e = instance.left.left.value
        for k in (e.numerator - 1, e.numerator + 1):
            if 0 <= k <= ctx.top:
                wrong = Constant(ctx.value(k))
                node = _A5_NODES[s.variant](Constant(c), Constant(d))
                out.append(biconditional(wrong, node))
    for name, kind in s.metas:
        if kind == "const":
            # a constant metavariable's places holding a formula
            bound = Constant(bindings[name])
            out.append(_rewrite(instance, bound, PropVar("p"), PropVar("p"), []))
            continue
        # one repeated metavariable bound to two different subtrees
        marker = Atomic("zz") if kind == "program" else PropVar("zz")
        tree = instantiate_schema(s, dict(bindings, **{name: marker}), ctx)
        other = Atomic("yy") if kind == "program" else PropVar("yy")
        seen = []
        mutant = _rewrite(tree, marker, bindings[name], other, seen)
        if len(seen) > 1:
            out.append(mutant)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_instantiate_and_match_agree_with_reference(n):
    ctx = ChainContext(n)
    cfg = SamplerConfig(n=n)
    rng = random.Random(9000 + n)
    instances, mutants = [], []
    for s, (ref,) in PAIRS:
        for _ in range(24):
            bindings = sample_bindings(s, rng, cfg)
            got = instantiate_schema(s, bindings, ctx)
            assert got == oracle.instantiate_schema(ref, bindings, ctx), s.label
            instances.append(got)
            mutants += _mutants(s, bindings, got, ctx)
    assert len(mutants) > len(instances)
    for formula in instances + mutants:
        for s, (ref,) in PAIRS:
            got = match_axiom_instance(s, formula, ctx)
            assert got == oracle.match_axiom_instance(ref, formula, ctx), (
                s.label, format_formula(formula)
            )


def test_mutants_are_rejected():
    # each kind of mutant is refused by the schema it was made from
    ctx = ChainContext(5)
    texts = {
        "A5/and": "#1/4 <-> #3/4 & #1/2",  # e one step below 1/2
        "A5/imp": "#1/2 <-> (#1/2 -> #1/4)",  # e one step below 3/4
        "D1": "[a]#1/2",
        "D7/corrected": "[a ^ b]p <-> (<a>#1/2 -> [b]p) & (<b>#1 -> [a]p)",
        "D3": "[a](q -> p) <-> (q -> [a]p)",  # c bound to a formula
        "D4": "[a](p -> #1) <-> (<a>p -> #3/4)",
        "D5": "[a ; b]p <-> [a][c]p",
        "D8": "[a*]p -> q & [a][a*]p",
    }
    for label, text in texts.items():
        formula = parse_formula(text, ctx)
        assert match_axiom_instance(schema(label), formula, ctx) == (False, None), label
        schema_id, _, variant = label.partition("/")
        (ref,) = oracle.schemata_named(schema_id, variant or None)
        assert oracle.match_axiom_instance(ref, formula, ctx) == (False, None), label


def _readme_rows():
    section = README.read_text(encoding="utf-8").split("### Schema identifiers", 1)[1]
    section = section.split("\n### ", 1)[0]
    rows = re.findall(r"^\| ([AD]\d+(?:/\w+)?) \| `(.*)` \|$", section, re.MULTILINE)
    return [(label, text.replace("\\|", "|")) for label, text in rows]


def test_readme_schema_table_is_the_catalog():
    rows = _readme_rows()
    assert [label for label, _ in rows] == [s.label for s in all_schemata("DL")]
    for label, text in rows:
        s = schema(label)
        assert text == s.text, label
        assert parse_formula(text, C3) == s.template(C3), label
