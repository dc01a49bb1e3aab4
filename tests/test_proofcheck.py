import random
import re
import time
from collections import Counter
from pathlib import Path

import pytest

import oracle_proofcheck
from gradedpdl.audit import check_consequence_prop, random_formula, random_program
from gradedpdl.chain import ChainContext
from gradedpdl import proofcheck
from gradedpdl.proofcheck import (
    AxiomStep,
    Derivation,
    DerivationFormatError,
    MPStep,
    PremiseStep,
    SHOWN_FORMULA_CHARS,
    check_derivation,
    load_derivation,
    parse_derivation,
)
from gradedpdl.schemas import all_schemata
from gradedpdl.syntax import (
    MAX_DEPTH, MAX_NODES, And, Atomic, Box, Diamond, Implies, ParseError, PropVar, children,
    format_formula, format_program, parse_formula,
)

FIXTURES = Path(__file__).parent / "fixtures"
C3 = ChainContext(3)


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_identity_fixture_accepted():
    derivation = load_derivation(FIXTURES / "identity.proof")
    verdict = check_derivation(derivation, system="PL")
    assert verdict.accepted
    assert derivation.steps[-1].formula == parse_formula("p -> p", C3)


def test_mixed_fixture_accepted_and_long_enough():
    derivation = load_derivation(FIXTURES / "mixed22.proof")
    assert len(derivation.steps) >= 20
    assert check_derivation(derivation, system="PL").accepted
    assert check_derivation(derivation, system="DL").accepted
    used = {s.schema_id for s in derivation.steps if isinstance(s, AxiomStep)}
    assert used == {"A1", "A2", "A3", "A4", "A5"}


def test_soundness_bridge_every_line_is_a_tautology():
    for name in ("identity.proof", "mixed22.proof"):
        derivation = parse_derivation(fixture_text(name))
        for index, step in enumerate(derivation.steps, start=1):
            ok, witness = check_consequence_prop([], step.formula, derivation.context)
            assert ok, (name, index, witness)


def test_mp_example_accepted():
    text = "n: 3\npremise: p\npremise: p -> q\n1 premise p\n2 premise p -> q\n3 mp 1 2 q\n"
    verdict = check_derivation(parse_derivation(text))
    assert verdict.accepted


def test_mp_self_reference_rejected_with_message():
    text = "n: 3\npremise: p\n1 premise p\n2 mp 1 1 q\n"
    verdict = check_derivation(parse_derivation(text))
    assert not verdict.accepted
    assert verdict.failed_step == 2
    assert verdict.reason == "mp-mismatch"
    assert "antecedent 'p'" in verdict.message and "consequent 'q'" in verdict.message


def test_mp_forward_reference_rejected():
    text = "n: 3\npremise: p\n1 premise p\n2 mp 1 3 q\n3 premise p\n"
    verdict = check_derivation(parse_derivation(text))
    assert not verdict.accepted
    assert verdict.failed_step == 2
    assert verdict.reason == "bad-reference"


def test_premise_not_listed_rejected():
    text = "n: 3\npremise: p\n1 premise q\n"
    verdict = check_derivation(parse_derivation(text))
    assert verdict.failed_step == 1 and verdict.reason == "not-a-premise"


_MUTATIONS = [
    # (original line, replacement, expected failing step)
    ("3 mp 1 2 ", "3 mp 2 1 ", 3),
    ("5 mp 4 3 ", "5 mp 3 4 ", 5),
    ("11 mp 7 10 p -> p", "11 mp 10 7 p -> p", 11),
    ("1 axiom A1 ", "1 axiom A2 ", 1),
    ("4 axiom A3 ", "4 axiom A1 ", 4),
    (
        "13 axiom A5/imp #1 <-> (#1/2 -> #1/2)",
        "13 axiom A5/imp #1/2 <-> (#1/2 -> #1/2)",
        13,
    ),
    ("6 axiom A1 p -> (q -> p)", "6 axiom A1 p -> (q -> q)", 6),
    (
        "7 mp 6 5 ((p -> (q -> p)) -> p) -> p",
        "7 mp 6 5 ((p -> (q -> p)) -> p) -> q",
        7,
    ),
    (
        "12 axiom A4 (~q -> ~p) -> (p -> q)",
        "12 axiom A4 (~q -> ~p) -> (q -> p)",
        12,
    ),
    ("17 mp 11 16 ", "17 mp 12 16 ", 17),
]


@pytest.mark.parametrize("original,replacement,expected_step", _MUTATIONS)
def test_mutations_rejected_at_the_right_step(original, replacement, expected_step):
    text = fixture_text("mixed22.proof")
    assert original in text, original
    mutated = text.replace(original, replacement, 1)
    verdict = check_derivation(parse_derivation(mutated), system="PL")
    assert not verdict.accepted
    assert verdict.failed_step == expected_step


def test_axiom_must_name_known_schema():
    # a cited name may hold a hyphen, as the rule names do: the step is
    # read, and then rejected as outside the catalog
    for name in ("ZZ", "Mon-box"):
        verdict = check_derivation(parse_derivation(f"n: 3\n1 axiom {name} [a]p -> [a]q\n"))
        assert (verdict.failed_step, verdict.reason) == (1, "unknown-schema")
        assert verdict.message == f"step 1: no schema named {name!r} in system DL"


@pytest.mark.parametrize(
    "step,usage",
    [
        ("1 axiom 7 p", "axiom steps read '<k> axiom <id>[/<variant>] <formula>'"),
        ("1 axiom A1/ p", "axiom steps read '<k> axiom <id>[/<variant>] <formula>'"),
        ("1 mp 1 p", "detachment steps read '<k> mp <i> <j> <formula>'"),
        ("1 mon p", "monotonicity steps read '<k> mon <i> <formula>'"),
    ],
)
def test_malformed_step_names_its_form(step, usage):
    with pytest.raises(DerivationFormatError) as info:
        parse_derivation(f"n: 3\n# a comment\n{step}\n")
    assert str(info.value) == f"line 3: {usage}"


def test_dl_schema_rejected_in_pl_mode():
    text = "n: 3\n1 axiom D1 [a]#1\n"
    assert check_derivation(parse_derivation(text), system="DL").accepted
    verdict = check_derivation(parse_derivation(text), system="PL")
    assert verdict.failed_step == 1 and verdict.reason == "unknown-schema"


def test_any_schema_mode_searches_the_catalog():
    # labeled A1 but shaped like A3: strict mode rejects, search accepts
    text = "n: 3\n1 axiom A1 ((p -> q) -> q) -> ((q -> p) -> p)\n"
    strict = check_derivation(parse_derivation(text))
    assert not strict.accepted and strict.reason == "axiom-mismatch"
    assert check_derivation(parse_derivation(text), any_schema=True).accepted


def test_mismatch_message_names_the_cited_label():
    # a D7/printed instance cited as D7/corrected
    text = "n: 3\n1 axiom D7/corrected [a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [b]p)\n"
    verdict = check_derivation(parse_derivation(text))
    assert verdict.reason == "axiom-mismatch"
    assert verdict.message.endswith(" is not an instance of schema D7/corrected")


def test_any_schema_mismatch_message_names_the_system():
    # under --any-schema the cited name is not looked up, so not shown
    for system in ("PL", "DL"):
        verdict = check_derivation(
            parse_derivation("n: 3\n1 axiom ZZ p -> p\n"), system=system, any_schema=True
        )
        assert verdict.reason == "axiom-mismatch"
        assert verdict.message == (
            f"step 1: 'p -> p' is not an instance of any schema of system {system}"
        )


def test_any_schema_mode_matches_each_schema_once(monkeypatch):
    calls = Counter()
    real = proofcheck.match_axiom_instance

    def counting(schema, formula, ctx):
        calls[schema.label, formula] += 1
        return real(schema, formula, ctx)

    monkeypatch.setattr(proofcheck, "match_axiom_instance", counting)
    # p -> p fits no schema, so every schema of the system is tried, once
    for system in ("PL", "DL"):
        calls.clear()
        derivation = parse_derivation("n: 3\n1 axiom A1 p -> p\n")
        verdict = check_derivation(derivation, system=system, any_schema=True)
        assert verdict.failed_step == 1 and verdict.reason == "axiom-mismatch"
        assert max(calls.values()) == 1
        assert {label for label, _ in calls} == {s.label for s in all_schemata(system)}
    # an A3 instance cited as A1 is accepted, A1 tried once on the way
    calls.clear()
    text = "n: 3\n1 axiom A1 ((p -> q) -> q) -> ((q -> p) -> p)\n"
    assert check_derivation(parse_derivation(text), any_schema=True).accepted
    assert calls[("A1", parse_formula("((p -> q) -> q) -> ((q -> p) -> p)", C3))] == 1
    assert max(calls.values()) == 1


def test_variant_selection():
    corrected = "n: 3\n1 axiom D7/corrected [a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)\n"
    assert check_derivation(parse_derivation(corrected)).accepted
    wrong = "n: 3\n1 axiom D7/printed [a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)\n"
    assert not check_derivation(parse_derivation(wrong)).accepted
    # without a variant, any variant of the id may match
    bare = "n: 3\n1 axiom D7 [a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)\n"
    assert check_derivation(parse_derivation(bare)).accepted


def test_mon_rule_gated_by_flag():
    text = (
        "n: 3\n"
        "premise: p -> q\n"
        "1 premise p -> q\n"
        "2 mon 1 [a]p -> [a]q\n"
    )
    derivation = parse_derivation(text)
    gated = check_derivation(derivation)
    assert not gated.accepted and gated.reason == "mon-not-enabled"
    assert check_derivation(derivation, allow_mon=True).accepted
    bad = parse_derivation(
        "n: 3\npremise: p -> q\n1 premise p -> q\n2 mon 1 [a]p -> [b]q\n"
    )
    verdict = check_derivation(bad, allow_mon=True)
    assert not verdict.accepted and verdict.reason == "mon-mismatch"
    dia = parse_derivation(
        "n: 3\npremise: p -> q\n1 premise p -> q\n2 mon 1 <a>p -> <a>q\n"
    )
    assert check_derivation(dia, allow_mon=True).accepted


def _shape_lift_ok(source, claimed):
    """The hand-written check that ``proofcheck._mon_lift_ok`` replaced:
    claimed == [pi]a -> [pi]b or <pi>a -> <pi>b for source == a -> b."""
    if not isinstance(source, Implies) or not isinstance(claimed, Implies):
        return False
    lhs, rhs = claimed.left, claimed.right
    for node in (Box, Diamond):
        if isinstance(lhs, node) and isinstance(rhs, node):
            if (
                lhs.program == rhs.program
                and lhs.body == source.left
                and rhs.body == source.right
            ):
                return True
    return False


def test_mon_lift_matches_the_shape_check():
    # true lifts and near misses: another program, swapped bodies, box
    # and diamond mixed, a source that is not an implication, and
    # unrelated random formulas
    rng = random.Random(16)
    lifts = 0
    for n in (2, 3):
        ctx = ChainContext(n)
        for _ in range(150):
            a, b = random_formula(rng, ctx, 2), random_formula(rng, ctx, 2)
            pi, other = random_program(rng, ctx, 2), random_program(rng, ctx, 2)
            source = Implies(a, b)
            cases = [(source, random_formula(rng, ctx, 3)), (a, b)]
            for node, mixed in ((Box, Diamond), (Diamond, Box)):
                cases += [
                    (source, Implies(node(pi, a), node(pi, b))),
                    (source, Implies(node(pi, a), node(other, b))),
                    (source, Implies(node(other, a), node(pi, b))),
                    (source, Implies(node(pi, b), node(pi, a))),
                    (source, Implies(node(pi, a), mixed(pi, b))),
                    (And(a, b), Implies(node(pi, a), node(pi, b))),
                    (a, Implies(node(pi, a), node(pi, b))),
                    (source, And(node(pi, a), node(pi, b))),
                ]
            for src, claimed in cases:
                want = _shape_lift_ok(src, claimed)
                assert proofcheck._mon_lift_ok(src, claimed, ctx) == want, (src, claimed)
                lifts += want
    assert lifts >= 2 * 2 * 150


def test_acceptance_insensitive_to_reserialization():
    derivation = load_derivation(FIXTURES / "mixed22.proof")
    rebuilt_steps = []
    for step in derivation.steps:
        formula = parse_formula(format_formula(step.formula), derivation.context)
        if isinstance(step, AxiomStep):
            rebuilt_steps.append(AxiomStep(step.schema_id, step.variant, formula))
        elif isinstance(step, MPStep):
            rebuilt_steps.append(MPStep(step.antecedent, step.implication, formula))
        else:
            rebuilt_steps.append(PremiseStep(formula))
    rebuilt = Derivation(derivation.context, derivation.premises, rebuilt_steps)
    assert check_derivation(rebuilt, system="PL").accepted


def test_format_errors():
    with pytest.raises(DerivationFormatError):
        parse_derivation("1 premise p\n")  # missing header
    with pytest.raises(DerivationFormatError):
        parse_derivation("n: 3\n2 premise p\n")  # wrong numbering
    with pytest.raises(DerivationFormatError):
        parse_derivation("n: 3\n1 conjure p\n")  # unknown kind
    with pytest.raises(DerivationFormatError):
        parse_derivation("")  # empty
    with pytest.raises(DerivationFormatError):
        parse_derivation("n: 3\n1 premise p\npremise: p\n")  # premise after steps


# Characters that str.splitlines() breaks a line at, all of them whitespace
# to the formula tokenizer; only "\r\n", "\r" and "\n" end a step.
NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("ch", NOT_LINE_BREAKS, ids=lambda ch: f"U+{ord(ch):04X}")
def test_lines_break_only_at_line_breaks(ch):
    assert ch.isspace() and len(f"a{ch}b".splitlines()) == 2
    # inside a comment
    derivation = parse_derivation(f"n: 3\n# note{ch}more\n1 axiom A1 p -> (q -> p)\n")
    assert len(derivation.steps) == 1
    # inside a formula, where it separates two tokens
    derivation = parse_derivation(f"n: 3\n1 axiom A1 p -> (q{ch}-> p)\n")
    assert derivation.steps[0].formula == parse_formula("p -> (q -> p)", C3)
    assert check_derivation(derivation).accepted


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_line_numbers_count_each_line_break_once(newline):
    text = newline.join(["n: 3", "", "1 premise p", "2 conjure p", ""])
    with pytest.raises(DerivationFormatError, match="^line 4: unrecognized step"):
        parse_derivation(text)


def test_rejections_always_carry_step_and_reason():
    texts = [
        "n: 3\n1 axiom ZZ p\n",
        "n: 3\n1 premise p\n",
        "n: 3\n1 axiom A1 p -> p\n",
        "n: 3\npremise: p\n1 premise p\n2 mp 1 1 q\n",
    ]
    for text in texts:
        verdict = check_derivation(parse_derivation(text))
        assert not verdict.accepted
        assert isinstance(verdict.failed_step, int)
        assert verdict.reason and verdict.message


def test_rejection_message_cuts_long_formulas():
    # One A2 step over a 14-link <-> chain: the formula's text is the
    # expanded tree, 288 KB long, and the message keeps its head and tail.
    chain = "p" + " <-> p" * 14
    verdict = check_derivation(parse_derivation(f"n: 3\n1 axiom A2 {chain}\n"))
    assert (verdict.failed_step, verdict.reason) == (1, "axiom-mismatch")
    full = format_formula(parse_formula(chain, C3))
    assert len(full) > 250_000
    keep = SHOWN_FORMULA_CHARS // 2
    assert verdict.message == (
        f"step 1: {full[:keep]!r} ... [{len(full) - 2 * keep} characters left out] ... "
        f"{full[-keep:]!r} is not an instance of schema A2"
    )


def test_rejection_message_shows_formulas_up_to_the_cap_whole():
    for length, cut in ((SHOWN_FORMULA_CHARS, False), (SHOWN_FORMULA_CHARS + 1, True)):
        name = "x" * length
        verdict = check_derivation(Derivation(C3, [], [PremiseStep(PropVar(name))]))
        assert verdict.reason == "not-a-premise"
        assert (repr(name) in verdict.message) is not cut
        assert ("[1 characters left out]" in verdict.message) is cut


# -- differential: the reader against tests/oracle_proofcheck.py -------------

_DIFFERENTIAL_SOURCES = [
    fixture_text("identity.proof"),
    fixture_text("mixed22.proof"),
    "n: 3\npremise: p -> q\npremise: p\n1 premise p -> q\n2 mon 1 [a]p -> [a]q\n"
    "3 premise p\n4 mp 3 1 q\n5 mon 1 <a>p -> <a>q\n",
    "n: 4\n1 axiom D7/corrected [a^b]p <-> (<a>#1 -> [b]p) & (<b>#1 -> [a]p)\n"
    "2 axiom D1 [a]#1\n3 axiom A1 #1/3 -> (q -> #1/3)\n",
]
# What the mutations insert: the format's own letters, digits and marks,
# an Arabic-Indic digit, and whitespace that does and does not end a line.
# No '-', which would reach cited names through the inserts alone.
_INSERTS = list("0123456789 axiompremonAD/:#_<>[]()~&pq\t\x0c\u2028\r\n\u0663") + [
    "axiom ", " mp ", " mon ", "premise:", "\n12 ",
]
# A cited name with a hyphen reads as an axiom step in the package and as
# a malformed line in the reference: the one intended difference.
_HYPHENATED_NAME = re.compile(r"axiom\s+[A-Za-z]\w*-")


def _mutated(rng, text):
    for _ in range(rng.randint(1, 3)):
        action = rng.randrange(6)
        if action < 3:
            at = rng.randrange(len(text) + 1)
            span = text[at : at + rng.randint(1, 4)]
            edited = (rng.choice(_INSERTS) + span, "", span + span)[action]
            text = text[:at] + edited + text[at + len(span) :]
        else:
            lines = text.split("\n")
            k = rng.randrange(len(lines))
            if action == 3:
                del lines[k]
            elif action == 4:
                lines.insert(k, lines[k])
            else:
                lines.insert(k, rng.choice(rng.choice(_DIFFERENTIAL_SOURCES).split("\n")))
            text = "\n".join(lines)
    return text


def _read(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # both readers must fail alike
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text",
    [
        # a step number too long for int() ahead of a malformed formula
        "n: 3\npremise: p\n1 premise p\n2 mp 1 " + "9" * 5000 + " (p\n",
        "n: 3\n1 mon " + "9" * 5000 + " (p\n",
        # Arabic-Indic step numbers, and whitespace that is not a line end
        "n: 3\npremise: p\n1 premise p\n2 mp \u0661 \u0661 p\n",
        "n: 3\n1 axiom A1\u2028p -> (q -> p)\n2 mon\x0c1\t[a]p\n",
        "n: 3\n1 axiom D7/x-y p\n2 axiom D7/ p\n",
    ],
    ids=["mp-long-number", "mon-long-number", "arabic-digits", "inner-whitespace", "variant"],
)
def test_reader_agrees_with_the_reference_at_the_edges(text):
    got = _read(parse_derivation, text)
    assert got == _read(oracle_proofcheck.reference_parse_derivation, text)


def test_reader_agrees_with_the_reference():
    rng = random.Random(17)
    outcomes = Counter()
    for _ in range(3000):
        text = _mutated(rng, rng.choice(_DIFFERENTIAL_SOURCES))
        if _HYPHENATED_NAME.search(text):
            outcomes["hyphen"] += 1
            continue
        got = _read(parse_derivation, text)
        assert got == _read(oracle_proofcheck.reference_parse_derivation, text), text
        outcomes["read" if isinstance(got, Derivation) else got[1].split(": ", 1)[-1]] += 1
    # the mutations reach read derivations and every malformed head, and
    # few texts are left out
    heads = [usage for kind, (_, _, usage) in proofcheck._STEP_FORMS.items() if kind != "premise"]
    assert outcomes["read"] >= 200 and all(outcomes[usage] >= 5 for usage in heads)
    assert outcomes["hyphen"] <= 100


# -- one shared graph per derivation: against the unshared reference ---------------


def _restating(rng):
    """A derivation whose lines restate bracketed groups: A1 weakenings
    X -> (G -> X) and their detachments, boxes over program groups,
    tests, "<->" groups and groups under enough "~" to near MAX_DEPTH."""
    formula = lambda: format_formula(random_formula(rng, C3, rng.randint(0, 4)))  # noqa: E731
    xs = [formula() for _ in range(3)]
    programs = [format_program(random_program(rng, C3, rng.randint(1, 3))) for _ in range(2)]
    lines = ["n: 3"] + [f"premise: ({x})" for x in xs if rng.random() < 0.3]
    for k in range(1, rng.randint(3, 10)):
        x, y, g, pi = rng.choice(xs), rng.choice(xs), formula(), rng.choice(programs)
        shape = rng.choice([
            f"({x}) -> ({g} -> ({x}))",
            f"{g} -> ({x})",
            f"[({pi})]({x}) -> <({pi})*>({y})",
            f"[?(({x}))]({y}) -> <?({x}) ; ({pi})>({y})",
            f"(({x}) <-> ({y})) & ({x})",
            "~" * rng.randint(MAX_DEPTH - 12, MAX_DEPTH) + f"({x})",
        ])
        head = rng.choice(["axiom A1", "premise", f"mp {rng.randint(1, k)} {rng.randint(1, k)}"])
        lines.append(f"{k} {head} {shape}")
    return "\n".join(lines) + "\n"


def _shares_across_lines(derivation):
    """Whether some node object stands in two of the derivation's lines."""
    seen = {}
    for line, formula in enumerate(derivation.premises + [s.formula for s in derivation.steps]):
        stack = [formula]
        while stack:
            node = stack.pop()
            if seen.setdefault(id(node), line) != line:
                return True
            stack.extend(children(node))
    return False


def test_shared_reader_agrees_with_the_unshared_reference():
    rng = random.Random(27)
    outcomes = Counter()
    for _ in range(600):
        text = _restating(rng)
        if rng.random() < 0.6:
            text = _mutated(rng, text)
        if _HYPHENATED_NAME.search(text):
            continue
        got = _read(parse_derivation, text)
        assert got == _read(oracle_proofcheck.reference_parse_derivation, text), text
        if isinstance(got, Derivation):
            outcomes["shared" if _shares_across_lines(got) else "read"] += 1
        else:
            outcomes["deeper" if "deeper than" in got[1] else "error"] += 1
    # most derivations that read share a node between lines, and errors,
    # the height error among them, are reached as well
    assert outcomes["shared"] >= 100 and outcomes["shared"] > outcomes["read"]
    assert outcomes["deeper"] >= 20 and outcomes["error"] >= 50


_IFF_CHAIN = "p" + " <-> p" * 15  # 196 603 nodes, under MAX_NODES
_TALL = "~" * (MAX_DEPTH - 1) + "p"  # MAX_DEPTH levels


@pytest.mark.parametrize(
    "text,message",
    [
        # no "<->" outside the two groups: only the flag the first line
        # left with the group makes the second line count its nodes
        (f"n: 3\npremise: ({_IFF_CHAIN})\npremise: ({_IFF_CHAIN}) & ({_IFF_CHAIN})\n",
         f"line 3: formula or program has more than {MAX_NODES} nodes"),
        # the error at the token after a group read before
        ("n: 3\npremise: (p & q) -> r\npremise: (p & q) (r)\n",
         "line 3: unexpected trailing input '(' (at position 9)"),
        # a group read before, MAX_DEPTH levels high, joined by "&" at "|"
        (f"n: 3\npremise: ({_TALL})\n1 premise ({_TALL}) & p | q\n",
         f"line 3: formula or program deeper than {MAX_DEPTH} levels (at position "
         f"{len(_TALL) + 7})"),
    ],
    ids=["node-cap-through-a-group", "error-after-a-group", "height-where-a-group-joins"],
)
def test_shared_reader_keeps_the_unshared_outcome(text, message):
    got = _read(parse_derivation, text)
    assert got == _read(oracle_proofcheck.reference_parse_derivation, text)
    assert got[0] is DerivationFormatError and got[1].startswith(message)


def test_restated_groups_are_one_node():
    # step 2 weakens step 1, X = p -> (q -> p), and step 3 detaches it
    text = (
        "n: 3\n1 axiom A1 p -> (q -> p)\n"
        "2 axiom A1 (p -> (q -> p)) -> (r -> (p -> (q -> p)))\n"
        "3 mp 1 2 r -> (p -> (q -> p))\n"
    )
    derivation = parse_derivation(text)
    first, second, third = (step.formula for step in derivation.steps)
    x = second.left
    assert x == first and second.right.right is x and third.right is x
    assert x.right is first.right  # (q -> p), a group of step 1
    assert check_derivation(derivation).accepted


def test_a_group_is_keyed_by_its_sort():
    # "(a)" is a proposition in a formula and a program in a box
    text = "n: 3\npremise: (a) -> p\n1 premise [(a)]p -> (a)\n"
    derivation = parse_derivation(text)
    assert derivation == oracle_proofcheck.reference_parse_derivation(text)
    box = derivation.steps[0].formula.left
    assert box.program == Atomic("a") and derivation.premises[0].left == PropVar("a")


def _best_of_three(parse, text):
    best = float("inf")
    for _ in range(3):
        start = time.process_time()
        outcome = _read(parse, text)
        best = min(best, time.process_time() - start)
    return outcome, best


_WRAPPED = 20_000


@pytest.mark.parametrize(
    "line",
    [
        "(" * _WRAPPED + "p -> (q -> p)" + ")" * _WRAPPED,
        "(" * _WRAPPED + "p" + " & p)" * _WRAPPED,
        "(" * MAX_DEPTH + "p" + " & p" * _WRAPPED + ")" * MAX_DEPTH,
    ],
    ids=["redundant", "nested", "flat-under-max-depth-groups"],
)
def test_shared_reader_costs_what_an_unshared_parse_does(line):
    # A key copied from the tokens of every group would take time and
    # memory quadratic in these lines: 13 s for the first one, against
    # about 10 ms for a plain parse.
    shared, shared_s = _best_of_three(parse_derivation, f"n: 3\n1 axiom A1 {line}\n")
    plain, plain_s = _best_of_three(lambda text: parse_formula(text, C3), line)
    if isinstance(plain, tuple):
        assert plain[0] is ParseError and "deeper than" in plain[1]
        assert shared == (DerivationFormatError, f"line 2: {plain[1]}")
    else:
        assert shared.steps[0].formula == plain
    assert shared_s <= 10 * plain_s + 0.1
