"""The schema audit loop that ``audit.find_counterexample`` replaced, kept
as a test-only reference.

``reference_find_counterexample`` is the package's loop before it read
each schema's template in the sampled model extended by the bindings: on
every trial it builds the whole instance with ``instantiate_schema`` and
checks it with ``valid_in_model``, which builds its own evaluator. It
shares the trial driver, the binding draws and the report classes with
the package, so the differential test compares the evaluation step only.
"""

from gradedpdl.audit import SchemaAudit, Witness, _trials, derive_seed, sample_bindings
from gradedpdl.schemas import instantiate_schema
from gradedpdl.semantics import valid_in_model


def reference_find_counterexample(schema, cfg):
    seed = derive_seed(cfg.seed, "schema", schema.label, cfg.n)
    for trial, rng, model in _trials(cfg, seed):
        bindings = sample_bindings(schema, rng, cfg)
        instance = instantiate_schema(schema, bindings, cfg.context)
        ok, refutation = valid_in_model(model, instance)
        if not ok:
            witness = Witness(model, bindings, instance, refutation.state, refutation.value)
            return SchemaAudit(
                schema.id, schema.variant, cfg.n, trial, "counterexample", seed, witness
            )
    return SchemaAudit(
        schema.id, schema.variant, cfg.n, cfg.samples, "no-counterexample-found", seed
    )
