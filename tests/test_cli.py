import contextlib
import functools
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradedpdl
from gradedpdl import audit, cli
from gradedpdl.cli import main
from gradedpdl.modelio import dumps
from gradedpdl.proofcheck import SHOWN_FORMULA_CHARS
from gradedpdl.schemas import AxiomSchema, all_schemata
from gradedpdl.syntax import MAX_DEPTH

FIXTURES = Path(__file__).parent / "fixtures"

ONE_STATE_HALF_P = {
    "n": 3,
    "states": ["s0"],
    "valuation": {"p": {"s0": "1/2"}},
    "programs": {},
}


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(dumps(ONE_STATE_HALF_P))
    return str(path)


def test_eval_refuted(model_path, capsys):
    code = main(["eval", model_path, "p | ~p"])
    out = capsys.readouterr().out
    assert code == 1
    assert "s0: 1/2" in out


def test_eval_valid(model_path, capsys):
    code = main(["eval", model_path, "#1"])
    assert code == 0
    assert "s0: 1" in capsys.readouterr().out


def test_eval_bad_constant_is_usage_error(tmp_path, capsys):
    doc = dict(ONE_STATE_HALF_P, n=4, valuation={})
    path = tmp_path / "m.json"
    path.write_text(dumps(doc))
    code = main(["eval", str(path), "#1/2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [
        {"from": "s0", "to": ["s0"], "value": 0.5},
        {"from": "s0", "to": [["s0"]], "value": "1"},
    ],
    ids=["numeric-value", "nested-target"],
)
def test_eval_malformed_model_is_usage_error(entry, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps(dict(ONE_STATE_HALF_P, programs={"a": [entry]})))
    assert main(["eval", str(path), "p"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_eval_missing_file(capsys):
    assert main(["eval", "/nonexistent/m.json", "p"]) == 2


def test_eval_state_cap(tmp_path, capsys):
    doc = {"n": 2, "states": [f"s{i}" for i in range(5)]}
    path = tmp_path / "big.json"
    path.write_text(dumps(doc))
    assert main(["eval", str(path), "#1"]) == 2
    assert "force-states" in capsys.readouterr().err
    assert main(["eval", str(path), "#1", "--force-states"]) == 0
    err = capsys.readouterr().err
    assert "warning" in err


def test_valid_tautology(capsys):
    code = main(["valid", "p -> p", "--n", "3", "--samples", "50", "--seed", "1"])
    assert code == 0
    assert "no counterexample" in capsys.readouterr().out


def test_valid_refutes_excluded_middle(capsys):
    code = main(["valid", "p | ~p", "--n", "3", "--samples", "200", "--seed", "1"])
    assert code == 1
    assert "counterexample" in capsys.readouterr().out


def test_closure_lists_four_formulas(capsys):
    code = main(["closure", "[a+b]p", "--n", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[-1] == "-- 4 formulas"
    assert set(out[:-1]) == {"[a + b]p", "[a]p", "[b]p", "p"}


def test_closure_usage_error(capsys):
    assert main(["closure", "[a+b"]) == 2


def test_audit_n3_finds_counterexamples(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["audit", "--n", "3", "--samples", "60", "--seed", "7", "--out", str(out_path)]
    )
    assert code == 1
    report = json.loads(out_path.read_text())
    flagged = {e["schema"] for e in report["schemas"] if e["verdict"] == "counterexample"}
    assert "D16" in flagged and "D17" in flagged
    # byte-identical on a second run
    first = out_path.read_text()
    main(["audit", "--n", "3", "--samples", "60", "--seed", "7", "--out", str(out_path)])
    assert out_path.read_text() == first


def test_audit_inter_box_selection(tmp_path):
    out_path = tmp_path / "report.json"
    main(
        [
            "audit", "--n", "2", "--samples", "10", "--seed", "1",
            "--inter-box", "corrected", "--no-rules", "--out", str(out_path),
        ]
    )
    report = json.loads(out_path.read_text())
    variants = {e["variant"] for e in report["schemas"] if e["schema"] == "D7"}
    assert variants == {"corrected"}
    assert report["rules"] == []


def test_check_proof_accepts_fixture(capsys):
    code = main(["check-proof", str(FIXTURES / "identity.proof"), "--system", "pl"])
    assert code == 0
    assert "accepted" in capsys.readouterr().out


def test_check_proof_rejects_mutation(tmp_path, capsys):
    text = (FIXTURES / "identity.proof").read_text().replace("11 mp 7 10", "11 mp 10 7")
    path = tmp_path / "broken.proof"
    path.write_text(text)
    code = main(["check-proof", str(path)])
    assert code == 1
    assert "rejected at step 11" in capsys.readouterr().out


def test_check_proof_format_error(tmp_path):
    path = tmp_path / "bad.proof"
    path.write_text("not a proof\n")
    assert main(["check-proof", str(path)]) == 2


def test_filtrate(tmp_path, capsys):
    model = {
        "n": 3,
        "states": ["s0", "s1"],
        "valuation": {"p": {"s0": "1", "s1": "1"}, "q": {"s0": "1"}},
        "programs": {"a": [{"from": "s0", "to": ["s1"], "value": "1"}]},
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(dumps(model))
    out_path = tmp_path / "quotient.json"
    dot_path = tmp_path / "classes.dot"
    code = main(
        ["filtrate", str(mpath), "p", "--out", str(out_path), "--dot", str(dot_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "classes: 1" in out
    document = json.loads(out_path.read_text())
    assert document["classes"] == {"c0": ["s0", "s1"]}
    assert document["model"]["n"] == 3
    assert "preservation" in document
    assert dot_path.read_text().startswith("digraph")
    # the emitted quotient is itself ingestible
    qpath = tmp_path / "q.json"
    qpath.write_text(dumps(document["model"]))
    assert main(["eval", str(qpath), "#1"]) == 0


def test_filtrate_dot_labels_use_state_names(tmp_path, capsys):
    # state names are arbitrary JSON strings; the DOT labels escape them
    model = {
        "n": 3,
        "states": ["home", 'w"rk', "g\\m"],
        "valuation": {"p": {"home": "1", 'w"rk': "1"}},
        "programs": {},
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(dumps(model))
    dot_path = tmp_path / "classes.dot"
    assert main(["filtrate", str(mpath), "p", "--dot", str(dot_path)]) == 0
    out = capsys.readouterr().out
    assert '  c0: home, w"rk\n  c1: g\\m\n' in out
    assert dot_path.read_text().splitlines()[1:3] == [
        '  c0 [label="c0: {home,w\\"rk}"];',
        '  c1 [label="c1: {g\\\\m}"];',
    ]


def test_equiv_finds_difference(tmp_path, capsys):
    out_path = tmp_path / "equiv.json"
    code = main(
        [
            "equiv", "<a>p", "~[a]~p", "--n", "2", "--samples", "1000",
            "--seed", "1", "--out", str(out_path),
        ]
    )
    assert code == 1
    assert "difference" in capsys.readouterr().out
    report = json.loads(out_path.read_text())
    assert report["difference_found"] is True


def test_equiv_no_difference(capsys):
    code = main(["equiv", "[?(p)]q", "p -> q", "--n", "3", "--samples", "100", "--seed", "2"])
    assert code == 0


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_states_cap_flag():
    assert main(["valid", "#1", "--n", "2", "--states", "5", "--samples", "1"]) == 2
    assert (
        main(["valid", "#1", "--n", "2", "--states", "5", "--samples", "1", "--force-states"])
        == 0
    )


def test_states_cap_message_names_the_lift(capsys):
    assert main(["valid", "p", "--states", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "the cap is 4" in err and "--force-states" in err and "6" in err


SUBCOMMANDS = ["eval", "valid", "audit", "closure", "check-proof", "filtrate", "equiv"]
SAMPLER_OPTIONS = ["--n", "--states", "--samples", "--seed", "--force-states"]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_for_every_subcommand(command, capsys):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: gradedpdl {command}")
    if command in ("valid", "audit", "equiv"):
        assert all(option in out for option in SAMPLER_OPTIONS)


def test_parser_schema_tables_and_pools_built_once(monkeypatch, capsys):
    counts = {"pools": 0, "tables": 0}

    def counted(key, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # the program pool names no config setting and is built at import
    monkeypatch.setattr(audit, "_adversarial_formulas",
                        counted("pools", audit._adversarial_formulas))
    table = functools.cached_property(counted("tables", AxiomSchema.metas.func))
    table.__set_name__(AxiomSchema, "metas")
    monkeypatch.setattr(AxiomSchema, "metas", table)
    for schema in all_schemata("DL"):
        vars(schema).pop("metas", None)
    cli.build_parser.cache_clear()
    assert main(["audit", "--samples", "50"]) == 1
    assert counts == {"pools": 1, "tables": len(all_schemata("DL"))}
    assert main(["closure", "p"]) == 0
    assert cli.build_parser.cache_info().misses == 1
    capsys.readouterr()


def _run_cli(*argv):
    """Run the command in a fresh interpreter, as the installed script would."""
    env = dict(os.environ, PYTHONPATH=str(Path(gradedpdl.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "gradedpdl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


@pytest.mark.parametrize(
    "formula,codes",
    [
        ("~" * 700 + "p", {2}),
        ("(" * 400 + "p" + ")" * 400, {2}),
        ("p" + " & p" * 5000, {2}),
        ("~" * (MAX_DEPTH - 1) + "p", {0, 1}),
        ("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, {0, 1}),
        ("p" + " <-> p" * 31, {2}),
    ],
    ids=["700-negations", "400-parentheses", "5000-conjuncts", "deepest-negation",
         "deepest-parentheses", "31-biconditionals"],
)
def test_deep_formula_never_crashes(formula, codes):
    start = time.monotonic()
    done = _run_cli("valid", formula, "--samples", "2", "--states", "2")
    assert time.monotonic() - start < 10
    assert done.returncode in codes
    assert "Traceback" not in done.stderr
    if done.returncode == 2:
        assert done.stderr.startswith("error:")


def test_internal_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_closure", broken)
    assert main(["closure", "p"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["valid", "p", "--n", "1"],
        ["valid", "p", "--states", "0"],
        ["valid", "p", "--states", "-2"],
        ["valid", "p", "--samples", "0"],
        ["valid", "p", "--density", "2"],
        ["equiv", "p", "q", "--samples", "-1"],
        ["audit", "--n", "0", "--samples", "1"],
        ["audit", "--states", "0", "--samples", "1"],
        ["closure", "p", "--n", "1"],
        ["closure", "p", "--cap", "0"],
        ["closure", "p", "--cap", "-5"],
        ["closure", "#" + "1" * 5000],
    ],
    ids=["n-1", "states-0", "states-negative", "samples-0", "density-option",
         "equiv-samples-negative", "audit-n-0", "audit-states-0", "closure-n-1",
         "closure-cap-0", "closure-cap-negative", "5000-digit-constant"],
)
def test_bad_options_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_closure_cap_below_one_names_the_option(capsys):
    assert main(["closure", "p", "--cap", "-5"]) == 2
    assert capsys.readouterr().err == "error: --cap -5 is below 1; a closure holds at least its formula\n"
    # a cap of 1 is the smallest that a one-formula closure fits
    assert main(["closure", "p", "--cap", "1"]) == 0


@pytest.mark.parametrize(
    "command,content",
    [
        ("eval", dumps(dict(ONE_STATE_HALF_P, n=1, valuation={}))),
        ("eval", dumps(dict(ONE_STATE_HALF_P, n=True, valuation={}))),
        ("eval", b'{"n": 3, "states": ["s\xff"]}'),
        ("eval", "[" * 100_000 + "]" * 100_000),
        ("check-proof", "n: 1\n1 premise p\n"),
        ("check-proof", "n: 3\n" + "1" * 5000 + " axiom A1 p -> (q -> p)\n"),
        ("check-proof", "n: 3\npremise: p\n1 premise p\n2 mp 1 " + "9" * 5000 + " q\n"),
        ("check-proof", b"n: 3\n1 premise \xff\n"),
    ],
    ids=["model-n-1", "model-n-true", "model-not-utf8", "model-deep-json", "proof-n-1",
         "proof-long-step-number", "proof-long-reference", "proof-not-utf8"],
)
def test_bad_input_files_are_usage_errors(command, content, tmp_path, capsys):
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    argv = [command, str(path), "p"] if command == "eval" else [command, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unreadable_paths_are_usage_errors(tmp_path, model_path, capsys):
    assert main(["eval", str(tmp_path), "p"]) == 2
    # An --out or --dot that is a directory, or whose directory is
    # missing, is refused before any work: no finding is printed and no
    # file is written, not even an --out beside an unwritable --dot.
    missing = tmp_path / "missing" / "x.json"
    out = tmp_path / "out.json"
    for bad in (tmp_path, missing):
        assert main(["audit", "--samples", "1", "--no-rules", "--out", str(bad)]) == 2
        assert main(["equiv", "p", "p", "--samples", "1", "--out", str(bad)]) == 2
        assert main(["filtrate", model_path, "p", "--out", str(bad)]) == 2
        assert main(["filtrate", model_path, "p", "--out", str(out), "--dot", str(bad)]) == 2
    assert not out.exists() and not missing.parent.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 9 and all(line.startswith("error:") for line in err)


def test_unexpected_value_error_exits_3(monkeypatch, capsys):
    def broken(args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "cmd_closure", broken)
    assert main(["closure", "p"]) == 3
    assert capsys.readouterr().err == "internal error: ValueError: boom\n"


def test_check_proof_rejection_line_is_bounded(tmp_path, capsys):
    # the step's formula expands to 288 KB of text; the line shows its ends
    path = tmp_path / "big.proof"
    path.write_text("n: 3\n1 axiom A2 p" + " <-> p" * 14 + "\n")
    assert main(["check-proof", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected at step 1: step 1: ")
    assert "characters left out" in out
    assert len(out) < SHOWN_FORMULA_CHARS + 200


THREE_STATES = {
    "n": 3,
    "states": ["s0", "s1", "s2"],
    "valuation": {"p": {"s0": "1/2", "s2": "1"}, "q": {"s1": "1"}},
    "programs": {
        "a": [
            {"from": "s0", "to": ["s1", "s2"], "value": "1"},
            {"from": "s1", "to": [], "value": "1/2"},
            {"from": "s2", "to": ["s2"], "value": "1/2"},
        ],
        "b": [{"from": "s0", "to": ["s0"], "value": "1/2"}],
    },
}

TOKENS = st.sampled_from(
    ["p", "q", "r", "a", "b", "x1", "#0", "#1", "#1/2", "#2/4", "#1/3", "#3/2", "#1/0",
     "~", "&", "|", "->", "<->", "[", "]", "<", ">", "(", ")", "+", "^", ";", "*", "?"]
)


@pytest.fixture(scope="module")
def three_state_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(dumps(THREE_STATES))
    return str(path)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TOKENS, st.sampled_from(["", " "])), max_size=30))
def test_eval_on_fuzzed_formula_text_never_crashes(three_state_model, tokens):
    # Token runs, glued or spaced, so that "<" "->" can also read as "<->".
    text = "".join(token + gap for token, gap in tokens)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", three_state_model, text])
    assert code in (0, 1, 2), (text, stderr.getvalue())
    assert "internal error" not in stderr.getvalue()


# -- fuzzed input files ---------------------------------------------------------------
#
# Input files are checked where they enter; whatever a mutated document or
# derivation holds, the command ends with an answer or a usage error.

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "s0", "s1", "s2", "s9", "0", "1", "1/2", "2/4", "1/3", "3/2",
                     "1/0", "-1/2", "#1", "p", "a"]),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "from", "to", "value", "p", "a", "s0"]), inner,
                      max_size=3),
    max_leaves=6,
)
EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "delete", "add"]), st.integers(0, 999), JSON_VALUES),
    min_size=1, max_size=4,
)


def _slots(doc):
    """Every (container, key) pair of a JSON document, depth first."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            out.extend(_slots(value))
    return out


def _mutate(doc, edits):
    for action, pick, value in edits:
        slots = _slots(doc)
        if not slots:
            return doc
        container, key = slots[pick % len(slots)]
        if action == "replace":
            container[key] = value
        elif action == "delete":
            del container[key]
        elif isinstance(container, list):
            container.insert(key, value)
        else:
            container[str(value)] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(EDITS, st.sampled_from(["<a ; b>p -> [a*]q", "[a ^ b](p & q)", "<?(p) + a>#1/2"]))
def test_eval_on_fuzzed_model_documents_never_crashes(tmp_path_factory, edits, formula):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(_mutate(json.loads(json.dumps(THREE_STATES)), edits)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["eval", str(path), formula])
    assert code in (0, 1, 2), (path.read_text(), stderr.getvalue())
    assert "internal error" not in stderr.getvalue()


PROOF_TOKENS = st.sampled_from(
    ["n:", "0", "1", "2", "3", "12", "99", "axiom", "premise", "premise:", "mp", "mon",
     "A1", "A2", "D7/corrected", "D7/printed", "D16", "X9", "p", "q", "->", "(", ")",
     "[a]p", "<a>q", "#1/2", "#3/2", "~", "&", "<->", "#", ""]
)
PROOF_EDITS = st.lists(
    st.tuples(st.sampled_from(["token", "delete", "duplicate", "swap", "cut"]),
              st.integers(0, 999), st.integers(0, 999), PROOF_TOKENS),
    min_size=1, max_size=4,
)


def _mutate_proof(lines, edits, renumber):
    for action, i, j, token in edits:
        if not lines:
            break
        k = i % len(lines)
        if action == "token":
            words = lines[k].split(" ")
            words[j % len(words)] = token
            lines[k] = " ".join(words)
        elif action == "delete":
            del lines[k]
        elif action == "duplicate":
            lines.insert(k, lines[k])
        elif action == "swap":
            m = j % len(lines)
            lines[k], lines[m] = lines[m], lines[k]
        else:
            lines[k] = lines[k][: j % (len(lines[k]) + 1)]
    if renumber:  # so that edited derivations also reach the checker
        steps = itertools.count(1)
        lines = [re.sub(r"^\d+ ", lambda _: f"{next(steps)} ", line) for line in lines]
    return lines


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["identity.proof", "mixed22.proof"]),
    PROOF_EDITS,
    st.booleans(),
    st.sampled_from([[], ["--system", "pl"], ["--any-schema"], ["--allow-mon"]]),
)
def test_check_proof_on_fuzzed_derivations_never_crashes(
    tmp_path_factory, fixture, edits, renumber, flags
):
    lines = (FIXTURES / fixture).read_text().splitlines()
    path = tmp_path_factory.mktemp("proof") / "fuzzed.proof"
    path.write_text("\n".join(_mutate_proof(lines, edits, renumber)) + "\n")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["check-proof", str(path), *flags])
    assert code in (0, 1, 2), (path.read_text(), stderr.getvalue())
    assert "internal error" not in stderr.getvalue()
