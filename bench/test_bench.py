"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import functools
import itertools
import json
import random
import statistics
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle_relations as naive  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gradedpdl import cli  # noqa: E402
from gradedpdl.chain import ChainContext  # noqa: E402
from gradedpdl.syntax import parse_formula  # noqa: E402


def _inputs(workload: str, seed: int, workdir: Path):
    workdir.mkdir()
    deck = itertools.islice(workloads.make_deck(workload, seed, str(workdir)), 300)
    argvs = [[a.replace(str(workdir), "<dir>") for a in op.argv] for op in deck]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argvs, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    first = _inputs(workload, 5, tmp_path / "a")
    assert first == _inputs(workload, 5, tmp_path / "b")
    assert first != _inputs(workload, 6, tmp_path / "c")


@pytest.fixture(scope="module")
def outcomes():
    return run.Outcomes(prefix=0)


def _record(outcomes, op, rc, stdout):
    before = outcomes.failed
    outcomes.record(0, op, rc, stdout)
    return outcomes.failed - before


def test_tampered_witness_and_wrong_exit_fail(tmp_path, outcomes):
    out = tmp_path / "audit.json"
    op = workloads.Op("audit", ["audit", "--n", "3", "--samples", "8", "--seed", "7",
                                "--out", str(out)], {"n": 3, "out": str(out)})
    rc, stdout, _ = run.run_op(cli.main, op)
    assert rc == 1 and _record(outcomes, op, rc, stdout) == 0

    assert _record(outcomes, op, 0, stdout) == 1  # wrong exit code
    assert _record(outcomes, op, None, stdout) == 1  # raised

    report = json.loads(out.read_text())
    entry = next(e for e in report["schemas"] if "witness" in e)
    entry["witness"]["value"] = "1"
    out.write_text(json.dumps(report))
    assert _record(outcomes, op, rc, stdout) == 1
    assert outcomes.failed == 3 and outcomes.attempted == 4


def test_explicit_checks_reject_wrong_answers(tmp_path, outcomes):
    deck = list(itertools.islice(workloads.make_deck("explicit", 3, str(tmp_path)), 50))
    for kind in ("eval", "closure", "filtrate", "proof"):
        op = next(op for op in deck if op.kind == kind)
        rc, stdout, _ = run.run_op(cli.main, op)
        assert _record(outcomes, op, rc, stdout) == 0, kind
        assert _record(outcomes, op, 2, stdout) == 1, kind
    mutated = next(op for op in deck if op.kind == "proof" and op.expect["failed_step"])
    rc, stdout, _ = run.run_op(cli.main, mutated)
    assert _record(outcomes, mutated, rc, stdout) == 0
    wrong = workloads.Op("proof", mutated.argv, dict(mutated.expect, failed_step=mutated.expect["failed_step"] + 1))
    assert _record(outcomes, wrong, rc, stdout) == 1


def test_self_time_on_hand_built_tree():
    tree = [
        ["cli.op", 0.0, 10.0, None, 0],
        ["relations.star", 1.0, 6.0, 0, 0],
        ["relations.compose", 2.0, 3.0, 1, 0],
        ["relations.compose", 3.0, 5.0, 1, 0],
        ["semantics.value_num", 6.0, 9.0, 0, 0],
        ["relations.parallel", 7.0, 8.0, 4, 0],
    ]
    assert spans.self_times(tree) == [2.0, 2.0, 1.0, 2.0, 2.0, 1.0]
    metrics = spans.layer_metrics(tree, Counter())
    assert metrics["cli.self_s"] == 2.0
    assert metrics["relations.compose.self_s"] == 3.0
    assert metrics["relations.compose.calls"] == 2
    assert metrics["relations.star.iterations"] == 2
    assert metrics["semantics.eval.self_s"] == 2.0
    assert metrics["relations.parallel.self_s"] == 1.0


def test_tracer_wraps_every_binding_and_restores(tmp_path):
    from gradedpdl import relations, semantics

    original = relations.compose
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert semantics.compose is not original and relations.compose is not original
        op = workloads.Op("valid", ["valid", "[(a;b)*]p -> p", "--samples", "20"], {"samples": 20})
        rc, stdout, _ = run.run_op(functools.partial(tracer.run_op, 0, cli.main), op)
    finally:
        tracer.uninstall()
    assert semantics.compose is original and relations.compose is original
    assert rc == 0
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.op" and "relations.star" in names
    metrics = spans.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["relations.star.iterations"] > 0
    assert metrics["semantics.valid_in_model.calls"] == 20
    assert all(s[2] is not None for s in tracer.spans)


def _random_reach(rng, size, ctx):
    from gradedpdl.relations import ReachRelation, StateSpace

    entries = {
        (s, m): rng.randint(1, ctx.top)
        for s in range(size) for m in range(1 << size) if rng.random() < 0.4
    }
    return ReachRelation(StateSpace(size), ctx, entries)


def test_oracle_composition_matches_word_for_word_oracle():
    rng = random.Random(11)
    for n, size in [(2, 1), (3, 2), (3, 3), (4, 2)]:
        ctx = ChainContext(n)
        for _ in range(6):
            r, _ = naive.from_reach(_random_reach(rng, size, ctx))
            q, _ = naive.from_reach(_random_reach(rng, size, ctx))
            assert oracle.compose(r, q) == naive.oracle_compose(r, q, size)
            assert oracle.parallel(r, q) == naive.oracle_parallel(r, q, size)
            assert oracle.star(r, size) == naive.oracle_star(r, size)


def test_known_answers_hold_in_random_models():
    from gradedpdl.audit import SamplerConfig, sample_model
    from gradedpdl.modelio import model_to_dict

    rng = random.Random(12)
    for n in (2, 3):
        ctx = ChainContext(n)
        cfg = SamplerConfig(n=n, max_states=3)
        valid = [oracle.from_package(parse_formula(t, ctx))
                 for t in workloads.S3_VALID + workloads.S4_VALID]
        pairs = [tuple(oracle.from_package(parse_formula(t, ctx)) for t in pair)
                 for pair in workloads.S3_EQUIV + workloads.S4_EQUIV]
        for _ in range(40):
            model = oracle.FracModel(model_to_dict(sample_model(cfg, rng, "pq", "ab")))
            for s in range(model.size):
                assert all(model.value(f, s) == 1 for f in valid)
                assert all(model.value(a, s) == model.value(b, s) for a, b in pairs)


def test_generated_formulas_round_trip_through_the_parser():
    rng = random.Random(13)
    ctx = ChainContext(3)
    for _ in range(50):
        f = workloads.random_formula(rng, 5, 2)
        assert oracle.from_package(parse_formula(oracle.render(f), ctx)) == f


def test_refuted_schema_outside_the_set_fails(tmp_path):
    report = {"config": {"samples": 1}, "rules": [], "schemas": [
        {"schema": "D2", "variant": None, "verdict": "counterexample", "models_tested": 1,
         "witness": {"model": {"n": 2, "states": ["s0"], "valuation": {}, "programs": {}},
                     "formula": "p", "state": "s0", "value": "0"}},
    ]}
    op = workloads.Op("audit", ["audit"], {"n": 2})
    problems = checks.check(op, 1, "D2: counterexample\n", json.dumps(report))
    assert problems == ["D2: counterexample outside the refuted set at n=2"]


def test_op_time_is_cpu_time():
    import time

    def main(argv):
        time.sleep(0.05)
        return 0

    rc, _, elapsed = run.run_op(main, workloads.Op("valid", ["valid"]))
    assert rc == 0 and elapsed.wall >= 0.05 and elapsed.cpu < 0.02


def test_op_times_are_scaled_by_the_speed_of_their_stretch():
    host = run.HostSpeed(0.05)
    assert sum(host.keep_up(0.2)) >= 0.01 and host.keep_up(0.2) == []
    stretch = run.STRETCH_S
    latencies = [stretch / 2] * 4 + [stretch / 8]
    chunks_after = [[0.001], [0.001], [0.002, 0.002], [0.002], [0.004]]
    scaled = run.scale_by_stretch(latencies, chunks_after)
    slow = run.REF_CHUNK_S / statistics.mean([0.002, 0.002, 0.002, 0.004])
    assert scaled == pytest.approx([stretch / 2] * 2 + [stretch / 2 * slow] * 2 + [stretch / 8 * slow])
