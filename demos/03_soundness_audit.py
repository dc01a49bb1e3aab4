"""
Auditing the axiom schemata by counterexample search
====================================================

Each schema is instantiated with random formulas, programs and
constants, then evaluated at every state of freshly sampled models. At
order 2 most schemata survive; the two that do not are exactly the ones
whose box form ignores concurrency effects. Above order 2 the graded
values break several more, always at mid-chain values.
"""

from gradedpdl.audit import SamplerConfig, audit_all
from gradedpdl.modelio import dumps

for n in (2, 3):
    print(f"=== audit at chain order {n} (400 trials per schema) ===")
    cfg = SamplerConfig(n=n, max_states=3, samples=400, seed=7)
    report = audit_all(cfg)
    for entry in report.schemas:
        if entry.verdict == "counterexample":
            w = entry.witness
            print(
                f"  {entry.label:14s} REFUTED at trial {entry.models_tested}: "
                f"value {w.value} at {w.model.state_names[w.state]}"
            )
        else:
            print(f"  {entry.label:14s} clean over {entry.models_tested} trials")
    for rule in report.rules:
        print(
            f"  {rule.rule_id:14s} {rule.verdict} "
            f"({rule.premises_valid} valid-premise models seen)"
        )
    print()

print("one full witness, re-evaluated from scratch:")
cfg = SamplerConfig(n=3, max_states=3, samples=400, seed=7)
report = audit_all(cfg)
witness = next(e.witness for e in report.schemas if e.verdict == "counterexample")
print(dumps(witness.to_json()))
print("re-evaluates to:", witness.reevaluate())
