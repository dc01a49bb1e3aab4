"""Seeded workload decks: every input of a run is derived from its seed.

A deck is the endless sequence of CLI invocations a run works through in
order, each with what it must answer. Decks are built from blocks with a
fixed command mix, and formulas, chain orders, models and derivations are
dealt in shuffled rounds, so any long prefix has the same mix and a run's
cost varies with the seed mostly through what the sampler draws. The
explicit deck also writes the model and derivation files its commands
read.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from oracle import format_value, render

WORKLOADS = ("search-s3", "search-s4", "explicit")

# Valid at every chain order: the known answer of `valid` is exit 0.
S3_VALID = (
    "[a + b]p -> [a]p",
    "[(a;b)*]p -> p",
    "[a]p & [b]p -> [a + b]p",
    "<a>p -> <a + b>p",
    "<a>p | <b>p -> <a + b>p",
    "[a]p & [a]q -> [a](p & q)",
    "p -> <a*>p",
    "[?(p)]q -> (p -> q)",
    "<a ^ b>p -> <a>#1",
    "[a]#1",
)
# Equivalent at every chain order: the known answer of `equiv` is exit 0.
S3_EQUIV = (
    ("[a + b]p", "[a]p & [b]p"),
    ("<a + b>p", "<a>p | <b>p"),
    ("[?(p)]q", "p -> q"),
    ("<?(p)>q", "~(p -> ~q)"),
    ("[a]#1", "#1"),
    ("[a]p & [a]q", "[a](p & q)"),
    ("<a*>p", "<a*>p | p"),
)
# Nested composition without star. At 4 states a star formula's cost per
# model is so heavy-tailed that 30-s runs on different seeds disagree by
# about a fifth, while these spend most of their time in `compose` at a
# steady cost per model. Star still runs in the audits.
S4_VALID = (
    "[((a;b);a) + b]p -> [(a;b);a]p",
    "<(a;b);a>p -> <((a;b);a) + b>p",
)
S4_EQUIV = (
    ("[((a + b);b);a]p", "[(a;b);a]p & [(b;b);a]p"),
    ("<((a + b);b);a>p", "<(a;b);a>p | <(b;b);a>p"),
)

# Schemata the README reports refuted; no other schema may get a witness.
REFUTED = {
    2: {"D4", "D5", "D7/printed"},
    3: {"D4", "D5", "D7/printed", "D9", "D11", "D13", "D14", "D15", "D16", "D17"},
}

# Per-command settings of the two search workloads. Audits alternate
# between chain orders 2 and 3; valid and equiv run at order 3. Sample
# budgets are drawn from the given ranges, so op costs spread smoothly
# rather than in one narrow cluster per formula, and no quantile falls
# into a gap between clusters. `block` is the command mix of each block
# of ops. In `search-s4` an audit costs several times any other op and its
# cost is heavy-tailed, so audits are one op in forty and test three
# models per schema: they then lie beyond p90 almost all together, and
# p90 is set by the many `valid` and `equiv` ops. With one audit in ten
# at one model per schema, half the ops beyond p90 were audits and p90
# spread by 0.10 over ten seeds. Small `valid` and `equiv` budgets give
# about 400 ops a run, so their quantiles are well sampled.
SEARCH = {
    "search-s3": dict(
        states=3, audit_samples=(4, 12), valid_samples=(200, 600), equiv_samples=(200, 600),
        valid=S3_VALID, equiv=S3_EQUIV,
        block=("audit",) * 4 + ("valid",) * 3 + ("equiv",) * 3,
    ),
    "search-s4": dict(
        states=4, audit_samples=(3, 3), valid_samples=(30, 90), equiv_samples=(12, 36),
        valid=S4_VALID, equiv=S4_EQUIV,
        block=("audit",) + ("valid",) * 20 + ("equiv",) * 19,
    ),
}
EXPLICIT_BLOCK = ("eval", "closure") + ("filtrate",) * 3 + ("proof",) * 5
EXPLICIT_MODELS = 8
EXPLICIT_PROOFS = 16  # half of them mutated; proof k has 60 + 5k steps
EXPLICIT_DENSITY = 0.15
# Formula depth per command: filtrate cost grows with the closure size.
EXPLICIT_DEPTH = {"eval": 7, "closure": 7, "filtrate": 5}


@dataclass
class Op:
    """One CLI invocation and what its answer must be."""

    kind: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def make_deck(workload: str, seed: int, workdir: str) -> Iterator[Op]:
    """Write the workload's input files under ``workdir`` and return its
    endless sequence of ops; a run takes as many as it has time for."""
    if workload in SEARCH:
        return _search_deck(workload, seed, workdir)
    if workload == "explicit":
        return _explicit_deck(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def warmup_op(workload: str, seed: int, workdir: str) -> Op:
    """A light op of the workload, run once during set-up."""
    if workload in SEARCH:
        states = str(SEARCH[workload]["states"])
        argv = ["valid", S3_VALID[0], "--states", states, "--samples", "20", "--seed", str(seed)]
        return Op("valid", argv, {"samples": 20})
    model = os.path.join(workdir, "model0.json")
    return Op("eval", ["eval", model, "[a ^ b]p | <a + b>q", "--force-states"])


# -- search -------------------------------------------------------------------------


def _dealer(rng: random.Random, cards: list):
    """Deal the cards in shuffled rounds, so every card comes up equally
    often over any long stretch of the deck."""
    while True:
        shoe = list(cards)
        rng.shuffle(shoe)
        yield from shoe


def _search_deck(workload: str, seed: int, workdir: str) -> Iterator[Op]:
    cfg = SEARCH[workload]
    rng = rng_for(workload, seed, "deck")
    deal = {
        "audit": _dealer(rng, [(None, 2), (None, 3)]),
        "valid": _dealer(rng, [(f, 3) for f in cfg["valid"]]),
        "equiv": _dealer(rng, [(pair, 3) for pair in cfg["equiv"]]),
    }
    states = str(cfg["states"])
    audit_out = os.path.join(workdir, "audit.json")
    equiv_out = os.path.join(workdir, "equiv.json")
    while True:
        block = list(cfg["block"])
        rng.shuffle(block)
        for kind in block:
            subject, n = next(deal[kind])
            samples = rng.randint(*cfg[f"{kind}_samples"])
            common = [
                "--n", str(n), "--states", states,
                "--samples", str(samples), "--seed", str(rng.randrange(10**6)),
            ]
            if kind == "audit":
                yield Op("audit", ["audit", *common, "--out", audit_out], {"n": n, "out": audit_out})
            elif kind == "valid":
                yield Op("valid", ["valid", subject, *common], {"samples": samples})
            else:
                argv = ["equiv", *subject, *common, "--out", equiv_out]
                yield Op("equiv", argv, {"samples": samples, "out": equiv_out})


# -- explicit -----------------------------------------------------------------------


def _value(rng: random.Random, top: int, low: int = 0) -> Fraction:
    return Fraction(rng.randint(low, top), top)


def random_model_doc(rng: random.Random, n: int, size: int, density: float) -> dict:
    """A model document over programs a, b and propositions p, q.

    Every state of every program gets the same number of target sets, the
    share ``density`` of all of them, so models of one size cost about the
    same to evaluate.
    """
    top = n - 1
    names = [f"s{i}" for i in range(size)]
    valuation = {
        prop: {name: format_value(_value(rng, top)) for name in names} for prop in ("p", "q")
    }
    per_state = max(1, round(density * (1 << size)))
    programs = {}
    for prog in ("a", "b"):
        rows = []
        for s in range(size):
            for mask in sorted(rng.sample(range(1 << size), per_state)):
                rows.append({
                    "from": names[s],
                    "to": [names[t] for t in range(size) if mask >> t & 1],
                    "value": format_value(_value(rng, top, low=1)),
                })
        programs[prog] = rows
    return {"n": n, "states": names, "valuation": valuation, "programs": programs}


def random_program(rng: random.Random, depth: int):
    """Atomic programs joined by choice and parallel only: no composition."""
    if depth <= 0 or rng.random() < 0.5:
        return ("atom", rng.choice("ab"))
    kind = rng.choice(("choice", "par"))
    return (kind, random_program(rng, depth - 1), random_program(rng, depth - 1))


def random_formula(rng: random.Random, depth: int, top: int):
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.8:
            return ("var", rng.choice("pq"))
        return ("const", _value(rng, top))
    kind = rng.choice(("and", "or", "imp", "box", "dia", "box", "dia"))
    if kind in ("box", "dia"):
        return (kind, random_program(rng, 2), random_formula(rng, depth - 1, top))
    return (kind, random_formula(rng, depth - 1, top), random_formula(rng, depth - 1, top))


def _imp(a, b):
    return ("imp", a, b)


def _iff(a, b):
    return ("and", _imp(a, b), _imp(b, a))


def _neg(a):
    return _imp(a, ("const", Fraction(0)))


def _axiom(rng: random.Random, top: int):
    """(schema id, instance) for a schema picked at random."""
    f = lambda: random_formula(rng, 2, top)  # noqa: E731
    prog = lambda: random_program(rng, 1)  # noqa: E731
    schema = rng.choice(("A1", "A2", "A3", "A4", "D1", "D2", "D6", "D8", "D10", "D12"))
    if schema == "A1":
        x, y = f(), f()
        return schema, _imp(x, _imp(y, x))
    if schema == "A2":
        x, y, z = f(), f(), f()
        return schema, _imp(_imp(x, y), _imp(_imp(y, z), _imp(x, z)))
    if schema == "A3":
        x, y = f(), f()
        return schema, _imp(_imp(_imp(x, y), y), _imp(_imp(y, x), x))
    if schema == "A4":
        x, y = f(), f()
        return schema, _imp(_imp(_neg(y), _neg(x)), _imp(x, y))
    if schema == "D1":
        return schema, ("box", prog(), ("const", Fraction(1)))
    if schema == "D2":
        p, x, y = prog(), f(), f()
        return schema, _imp(("and", ("box", p, x), ("box", p, y)), ("box", p, ("and", x, y)))
    if schema == "D6":
        p0, p1, x = prog(), prog(), f()
        return schema, _iff(("box", ("choice", p0, p1), x), ("and", ("box", p0, x), ("box", p1, x)))
    if schema == "D8":
        p, x = prog(), f()
        starred = ("star", p)
        return schema, _imp(("box", starred, x), ("and", x, ("box", p, ("box", starred, x))))
    if schema == "D10":
        x, y = f(), f()
        return schema, _iff(("box", ("test", x), y), _imp(x, y))
    p0, p1, x = prog(), prog(), f()
    return schema, _iff(("dia", ("choice", p0, p1), x), ("or", ("dia", p0, x), ("dia", p1, x)))


def random_derivation(rng: random.Random, n: int, length: int) -> list[tuple]:
    """Steps ("axiom", id, formula) and ("mp", i, j, formula), all valid.

    Detachments cut a weakening X -> (G -> X) of an earlier axiom step X
    down to G -> X; taking X from axiom steps only keeps formula sizes
    bounded however long the derivation.
    """
    top = n - 1
    steps: list[tuple] = []
    axioms: list[int] = []
    while len(steps) < length:
        if axioms and rng.random() < 0.5:
            i = rng.choice(axioms)
            x = steps[i - 1][-1]
            g = random_formula(rng, 1, top)
            steps.append(("axiom", "A1", _imp(x, _imp(g, x))))
            steps.append(("mp", i, len(steps), _imp(g, x)))
        else:
            steps.append(("axiom", *_axiom(rng, top)))
            axioms.append(len(steps))
    return steps


def mutate(rng: random.Random, steps: list[tuple]) -> tuple[list[tuple], int]:
    """Replace one step's formula F by F & F, which no schema template and
    no detachment can produce; returns the steps and the 1-based index."""
    k = rng.randrange(len(steps))
    step = steps[k]
    out = list(steps)
    out[k] = (*step[:-1], ("and", step[-1], step[-1]))
    return out, k + 1


def derivation_text(n: int, steps: list[tuple]) -> str:
    lines = [f"n: {n}"]
    for k, step in enumerate(steps, start=1):
        if step[0] == "axiom":
            lines.append(f"{k} axiom {step[1]} {render(step[2])}")
        else:
            lines.append(f"{k} mp {step[1]} {step[2]} {render(step[3])}")
    return "\n".join(lines) + "\n"


def _explicit_deck(seed: int, workdir: str) -> Iterator[Op]:
    n = 3
    files = rng_for("explicit", seed, "files")
    models = []
    for k in range(EXPLICIT_MODELS):
        doc = random_model_doc(files, n, 5 + k % 2, density=EXPLICIT_DENSITY)
        path = os.path.join(workdir, f"model{k}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
        models.append((path, doc))
    proofs = []
    for k in range(EXPLICIT_PROOFS):
        steps = random_derivation(files, n, 60 + 5 * k)
        failed_step = None
        if k % 2:
            steps, failed_step = mutate(files, steps)
        path = os.path.join(workdir, f"proof{k}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(derivation_text(n, steps))
        proofs.append((path, len(steps), failed_step))
    return _explicit_ops(rng_for("explicit", seed, "deck"), n, models, proofs, workdir)


def _explicit_ops(rng: random.Random, n: int, models: list, proofs: list, workdir: str) -> Iterator[Op]:
    deal_model = _dealer(rng, models)
    deal_proof = _dealer(rng, proofs)
    filtrate_out = os.path.join(workdir, "filtrate.json")
    while True:
        block = list(EXPLICIT_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "proof":
                path, length, failed_step = next(deal_proof)
                yield Op("proof", ["check-proof", path], {"steps": length, "failed_step": failed_step})
                continue
            formula = random_formula(rng, EXPLICIT_DEPTH[kind], n - 1)
            text = render(formula)
            if kind == "closure":
                yield Op("closure", ["closure", text, "--n", str(n)], {"formula": formula})
                continue
            path, model = next(deal_model)
            expect = {"formula": formula, "model": model}
            if kind == "eval":
                yield Op("eval", ["eval", path, text, "--force-states"], expect)
            else:
                argv = ["filtrate", path, text, "--out", filtrate_out, "--force-states"]
                yield Op("filtrate", argv, dict(expect, out=filtrate_out))
