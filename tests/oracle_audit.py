"""The audit loops that ``audit`` replaced, kept as test-only references.

``reference_find_counterexample`` is the package's schema loop before it
read each schema's template in the sampled model extended by the
bindings: on every trial it builds the whole instance with
``instantiate_schema`` and checks it with ``valid_in_model``, which
builds its own evaluator.

``reference_audit_rule`` is the package's rule loop before it read the
monotonicity rules' templates: it builds the premise and the conclusion
in Python and checks each with ``valid_in_model``, two evaluators per
trial whose premise is valid.

Both run their own failing-trial predicates on the package's search
loop, ``_search``, and share the draws and the report classes with the
package, so the differential tests compare the evaluation step only.
"""

from gradedpdl.audit import (
    RuleAudit,
    SchemaAudit,
    Witness,
    _search,
    derive_seed,
    random_formula,
    random_program,
    sample_bindings,
)
from gradedpdl.schemas import instantiate_schema
from gradedpdl.semantics import valid_in_model
from gradedpdl.syntax import Box, Diamond, Implies


def reference_find_counterexample(schema, cfg):
    seed = derive_seed(cfg.seed, "schema", schema.label, cfg.n)

    def fails(rng, model):
        bindings = sample_bindings(schema, rng, cfg)
        instance = instantiate_schema(schema, bindings, cfg.context)
        ok, refutation = valid_in_model(model, instance)
        if not ok:
            return Witness(model, bindings, instance, refutation.state, refutation.value)
        return None

    trial, _model, witness = _search(cfg, seed, fails)
    if witness is not None:
        return SchemaAudit(
            schema.id, schema.variant, cfg.n, trial, "counterexample", seed, witness
        )
    return SchemaAudit(
        schema.id, schema.variant, cfg.n, cfg.samples, "no-counterexample-found", seed
    )


def reference_audit_rule(rule_id, cfg):
    if rule_id not in ("Mon-box", "Mon-diamond"):
        raise ValueError(f"unknown rule {rule_id!r}")
    seed = derive_seed(cfg.seed, "rule", rule_id, cfg.n)
    ctx = cfg.context
    node = Box if rule_id == "Mon-box" else Diamond
    premises_valid = 0

    def fails(rng, model):
        nonlocal premises_valid
        phi = random_formula(rng, ctx, 2)
        psi = random_formula(rng, ctx, 2)
        program = random_program(rng, ctx, 2)
        ok, _ = valid_in_model(model, Implies(phi, psi))
        if not ok:
            return None
        premises_valid += 1
        conclusion = Implies(node(program, phi), node(program, psi))
        ok, refutation = valid_in_model(model, conclusion)
        if not ok:
            bindings = {"phi": phi, "psi": psi, "pi": program}
            return Witness(model, bindings, conclusion, refutation.state, refutation.value)
        return None

    trial, _model, witness = _search(cfg, seed, fails)
    if witness is not None:
        return RuleAudit(
            rule_id, cfg.n, trial, premises_valid, "counterexample", seed, witness
        )
    return RuleAudit(
        rule_id, cfg.n, cfg.samples, premises_valid, "no-counterexample-found", seed
    )
