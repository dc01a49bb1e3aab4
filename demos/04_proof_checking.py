"""
Verifying Hilbert-style derivations
===================================

A derivation is a numbered list of axiom-schema instances, premises and
detachments. The checker validates each step syntactically and pinpoints
the first broken one. As an independent cross-check, every line of an
accepted premise-free derivation is confirmed to be a tautology by
enumerating all valuations.
"""

from pathlib import Path

from gradedpdl.audit import check_consequence_prop
from gradedpdl.proofcheck import check_derivation, parse_derivation
from gradedpdl.syntax import format_formula

PROOF = """
n: 3
premise: p
premise: p -> q
1 premise p
2 premise p -> q
3 mp 1 2 q
4 axiom A1 q -> (p -> q)
5 mp 3 4 p -> q
"""

derivation = parse_derivation(PROOF)
verdict = check_derivation(derivation)
print("small derivation accepted:", verdict.accepted)

BROKEN = PROOF.replace("3 mp 1 2 q", "3 mp 2 1 q")
verdict = check_derivation(parse_derivation(BROKEN))
print(f"swapped detachment: rejected at step {verdict.failed_step}")
print(f"  reason: {verdict.message}")

FIXTURE = Path(__file__).resolve().parent.parent / "tests/fixtures/identity.proof"
IDENTITY = FIXTURE.read_text(encoding="utf-8")
derivation = parse_derivation(IDENTITY)
verdict = check_derivation(derivation, system="PL")
print(f"\np -> p from the first three schemata: accepted = {verdict.accepted}")
for index, step in enumerate(derivation.steps, 1):
    ok, _ = check_consequence_prop([], step.formula, derivation.context)
    marker = "tautology" if ok else "NOT A TAUTOLOGY"
    print(f"  {index:2d}. {marker}: {format_formula(step.formula)[:60]}")
