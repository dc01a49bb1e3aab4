"""Empirical soundness audit: axiom schemata over sampled models.

The auditor draws random metavariable bindings for each axiom schema
and evaluates the schema's template at every state of a freshly sampled
model extended by those bindings, which by compositionality gives the
instance's values; it records the first state whose value falls short
of top, and builds the instance itself only for that witness.
Everything is driven by one seed: per-schema streams are derived from it
with a stable hash, so a batch run can be split or reordered and still
produce the identical report.

All four sampled searches (schema audits, rule audits, the validity
search and the difference search) run on one loop, ``_search``: it owns
the seeded stream and the sample budget, and each trial draws its model
first and then asks the search's predicate ``fails(rng, model)``, which
makes the search's own draws and returns what the trial found, or None.
The schema, rule and validity predicates decide below top with
``semantics.valid_in_model``; the schema and rule searches share
``_witness``, the one place that builds an instance.

Also here: the valuation-enumeration decision procedure for
modality-free consequence.
"""

from __future__ import annotations

import functools
import itertools
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from .chain import ChainContext, ChainValue, InputError
from .modelio import model_to_dict
from .relations import ReachRelation, StateSpace
from .schemas import (
    _A5_OPS,
    RULES,
    AxiomSchema,
    Binding,
    all_schemata,
    instantiate_schema,
    schema_label,
)
from .semantics import Model, Plan, Refutation, compile_plan, eval_formula, valid_in_model
from .syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Formula,
    Implies,
    Inter,
    Or,
    Program,
    PropVar,
    Seq,
    Star,
    Test,
    Union as PUnion,
    children,
    collect_names,
    format_formula,
    format_program,
)

# The atomic programs and propositions of every sampled model and
# generated formula, besides the names a checked formula mentions.
PROGRAM_NAMES = "ab"
PROP_NAMES = "pq"

STATE_CAP = 4
STATE_CAP_FORCED = 6
# The share of (state, target set) pairs at which a sampled program has an entry.
DENSITY = 0.4


class ModalFormulaRejected(ValueError):
    """A modality-free operation was given a modal formula."""


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed its limit."""


class SamplerConfigError(InputError):
    """A sampler setting, or the state count of a model, is out of range."""


def check_state_count(states: int, allow_large: bool) -> None:
    """The state cap: set operations are doubly exponential in the number
    of states, so a model has at most STATE_CAP of them, or
    STATE_CAP_FORCED with ``allow_large`` (``--force-states``)."""
    if states < 1:
        raise SamplerConfigError(f"{states} states; a model needs at least 1")
    cap = STATE_CAP_FORCED if allow_large else STATE_CAP
    if states > cap:
        lift = "" if allow_large else (
            f" (--force-states, or allow_large, raises it to {STATE_CAP_FORCED})"
        )
        raise SamplerConfigError(f"{states} states; the cap is {cap}{lift}")


@dataclass(frozen=True)
class SamplerConfig:
    """Shape of the random models and the search budget.

    The one place the sampler's settings are checked, and the one home of
    what follows from them: the chain and the adversarial formula pool,
    each built once per config.
    """

    n: int
    max_states: int = 3
    samples: int = 1000
    seed: int = 0
    allow_large: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "max_states", "samples"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise SamplerConfigError(f"{name} must be an integer, got {value!r}")
        if self.n < 2:
            raise SamplerConfigError(f"chain order {self.n} is below 2")
        check_state_count(self.max_states, self.allow_large)
        if self.samples < 1:
            raise SamplerConfigError(f"sample budget {self.samples} is below 1")

    @functools.cached_property
    def context(self) -> ChainContext:
        return ChainContext(self.n)

    @functools.cached_property
    def formula_pool(self) -> tuple[Formula, ...]:
        return _adversarial_formulas(self.context)


def derive_seed(seed: int, *parts: object) -> int:
    """Stable per-stream seed; independent of interpreter hash salts."""
    text = ":".join([str(seed)] + [str(p) for p in parts])
    return zlib.crc32(text.encode("utf-8"))


# Per space size, the space and the (state, mask) keys in the order the
# sampler visits them: states ascending, target masks ascending per state.
_SHAPES: dict[int, tuple[StateSpace, tuple[tuple[int, int], ...]]] = {}


def _below(getrandbits, width: int) -> int:
    """``randrange(width)`` for ``width >= 1``, drawn as CPython 3.10 to
    3.13 draw it: ``getrandbits`` of the bit length of ``width`` until
    the draw falls below ``width``."""
    bits = width.bit_length()
    r = getrandbits(bits)
    while r >= width:
        r = getrandbits(bits)
    return r


def sample_model(
    cfg: SamplerConfig,
    rng: random.Random,
    props: Sequence[str] = PROP_NAMES,
    progs: Sequence[str] = PROGRAM_NAMES,
) -> Model:
    """One pseudorandom model, reproducible from the rng state.

    Draws, in order: the size (``randint(1, max_states)``); per program,
    state and target mask, one ``random()`` and, below ``DENSITY``, the
    entry (``randint(1, top)``); per proposition and state, its value
    (``randint(0, top)``). Each ``randint(a, b)`` is taken as
    ``a + _below(b - a + 1)``, which is how ``random.Random.randint``
    draws it, so the stream, and every model, is the same with fewer
    calls per draw. ``rng`` must be a ``random.Random``.
    """
    draw, getrandbits = rng.random, rng.getrandbits
    ctx = cfg.context
    top = ctx.top

    size = 1 + _below(getrandbits, cfg.max_states)
    shape = _SHAPES.get(size)
    if shape is None:
        keys = tuple(itertools.product(range(size), range(1 << size)))
        shape = _SHAPES[size] = (StateSpace(size), keys)
    space, keys = shape

    bits = top.bit_length()
    atomics = {}
    for name in progs:
        entries = {}
        for key in keys:
            if draw() < DENSITY:
                r = getrandbits(bits)  # 1 + _below(getrandbits, top), inlined
                while r >= top:
                    r = getrandbits(bits)
                entries[key] = r + 1
        atomics[name] = ReachRelation._unchecked(space, ctx, entries)

    valuation = {
        name: tuple([_below(getrandbits, top + 1) for _ in range(size)]) for name in props
    }
    return Model._unchecked(ctx, space, atomics, valuation)


# -- random instantiation ----------------------------------------------------------


def random_formula(rng: random.Random, ctx: ChainContext, depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return PropVar(rng.choice(PROP_NAMES))
        return Constant(ChainValue(rng.randint(0, ctx.top), ctx))
    kind = rng.randrange(5)
    if kind < 3:
        return (And, Or, Implies)[kind](
            random_formula(rng, ctx, depth - 1), random_formula(rng, ctx, depth - 1)
        )
    return (Box, Diamond)[kind - 3](
        random_program(rng, ctx, depth - 1), random_formula(rng, ctx, depth - 1)
    )


def random_program(rng: random.Random, ctx: ChainContext, depth: int) -> Program:
    if depth <= 0 or rng.random() < 0.4:
        return Atomic(rng.choice(PROGRAM_NAMES))
    kind = rng.randrange(5)
    if kind < 3:
        return (PUnion, Inter, Seq)[kind](
            random_program(rng, ctx, depth - 1), random_program(rng, ctx, depth - 1)
        )
    if kind == 3:
        return Star(random_program(rng, ctx, depth - 1))
    return Test(random_formula(rng, ctx, depth - 1))


def _adversarial_formulas(ctx: ChainContext) -> tuple[Formula, ...]:
    """Counterexamples concentrate at mid-chain values, so the pool leads
    with bare propvars and near-half constants."""
    p, q = map(PropVar, PROP_NAMES)
    mid = ctx.top // 2
    pool: list[Formula] = [p, Constant(ChainValue(mid, ctx)), Implies(p, Constant(ctx.zero)), q]
    if ctx.top - (ctx.top + 1) // 2 != mid:
        pool.append(Constant(ChainValue((ctx.top + 1) // 2, ctx)))
    return tuple(pool)


def _adversarial_programs() -> tuple[Program, ...]:
    a, b = map(Atomic, PROGRAM_NAMES)
    return (a, Star(a), Test(PropVar(PROP_NAMES[0])), Inter(a, b))


_PROGRAM_POOL = _adversarial_programs()


def sample_bindings(
    schema: AxiomSchema, rng: random.Random, cfg: SamplerConfig
) -> dict[str, Binding]:
    """One random binding per metavariable, in name order: half the time
    from the adversarial pools (the midpoint for a constant),
    otherwise freshly generated."""
    ctx = cfg.context
    mid = ctx.top // 2
    bindings: dict[str, Binding] = {}
    for name, kind in schema.metas:
        if kind == "formula":
            if rng.random() < 0.5:
                bindings[name] = rng.choice(cfg.formula_pool)
            else:
                bindings[name] = random_formula(rng, ctx, 3)
        elif kind == "program":
            if rng.random() < 0.5:
                bindings[name] = rng.choice(_PROGRAM_POOL)
            else:
                bindings[name] = random_program(rng, ctx, 2)
        else:
            num = mid if rng.random() < 0.5 else rng.randint(0, ctx.top)
            bindings[name] = ChainValue(num, ctx)
    return bindings


# -- reports ---------------------------------------------------------------------


def _binding_text(bindings: Mapping[str, Binding]) -> dict[str, str]:
    out = {}
    for name, value in sorted(bindings.items()):
        if isinstance(value, ChainValue):
            out[name] = str(value)
        elif isinstance(value, Program):
            out[name] = format_program(value)
        else:
            out[name] = format_formula(value)
    return out


@dataclass(frozen=True)
class Witness:
    """A model, instantiation and state where an instance is below top."""

    model: Model
    bindings: Mapping[str, Binding]
    formula: Formula
    state: int
    value: ChainValue

    def reevaluate(self) -> ChainValue:
        """Recompute the witness value from a fresh compile and run of its formula."""
        return eval_formula(self.model, self.formula, self.state)

    def to_json(self) -> dict[str, Any]:
        return {
            "model": model_to_dict(self.model),
            "bindings": _binding_text(self.bindings),
            "formula": format_formula(self.formula),
            "state": self.model.state_names[self.state],
            "value": str(self.value),
        }


@dataclass(frozen=True)
class SchemaAudit:
    schema_id: str
    variant: Optional[str]
    n: int
    models_tested: int  # one instantiation per model
    verdict: str  # "no-counterexample-found" | "counterexample"
    seed: int
    witness: Optional[Witness] = None

    @property
    def label(self) -> str:
        return schema_label(self.schema_id, self.variant)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema": self.schema_id,
            "variant": self.variant,
            "n": self.n,
            "models_tested": self.models_tested,
            "instantiations_tested": self.models_tested,
            "verdict": self.verdict,
            "seed": self.seed,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


@dataclass(frozen=True)
class RuleAudit:
    """Validity-preservation probe for a candidate inference rule."""

    rule_id: str
    n: int
    models_tested: int
    premises_valid: int
    verdict: str
    seed: int
    witness: Optional[Witness] = None

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "rule": self.rule_id,
            "n": self.n,
            "models_tested": self.models_tested,
            "premises_valid": self.premises_valid,
            "verdict": self.verdict,
            "seed": self.seed,
        }
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        return doc


@dataclass
class AuditReport:
    n: int
    seed: int
    config: dict[str, Any]
    schemas: list[SchemaAudit] = field(default_factory=list)
    rules: list[RuleAudit] = field(default_factory=list)

    @property
    def has_counterexample(self) -> bool:
        return any(e.verdict == "counterexample" for e in [*self.schemas, *self.rules])

    def to_json(self) -> dict[str, Any]:
        return {
            "n": self.n,
            "seed": self.seed,
            "config": self.config,
            "schemas": [e.to_json() for e in self.schemas],
            "rules": [r.to_json() for r in self.rules],
        }


# -- the searches --------------------------------------------------------------------


def _search(cfg: SamplerConfig, seed: int, fails: Callable, *formulas: Formula) -> tuple:
    """The sampled-search loop, the one owner of the seeded stream and the
    sample budget. Each trial draws its model, over the names that
    ``_sample_names`` gives for the formulas, and then asks
    ``fails(rng, model)``, which makes the search's own draws from the
    same stream and returns what it found, or None when the trial passes.

    Returns (trial, model, found) for the first trial that fails, with no
    draw after it; (samples, None, None) when the budget runs out first.
    """
    rng = random.Random(seed)
    names = _sample_names(*formulas)
    for trial in range(1, cfg.samples + 1):
        model = sample_model(cfg, rng, *names)
        found = fails(rng, model)
        if found is not None:
            return trial, model, found
    return cfg.samples, None, None


def _sample_names(*formulas: Formula) -> tuple[list[str], list[str]]:
    """Proposition and program names of the sampled models: the
    configured ones plus every name the formulas mention."""
    props = set(PROP_NAMES)
    progs = set(PROGRAM_NAMES)
    for f in formulas:
        p, a = collect_names(f)
        props |= p
        progs |= a
    return sorted(props), sorted(progs)


def _bound_model(
    schema: AxiomSchema, bindings: Mapping[str, Binding], model: Model
) -> Model:
    """``model`` extended by ``bindings``, in which the schema's template
    takes the instance's value at every state: each formula metavariable
    is the proposition whose row is its binding's vector, each constant
    (A5's ``e`` among them) a constant row, and each program metavariable
    the atomic program of its binding's relation. The bindings are read
    in the model's own names, as one plan run; a metavariable that the
    model already names raises ValueError rather than shadow that name."""
    size = model.space.size
    values = dict(bindings)
    if schema.variant in _A5_OPS:
        values["e"] = _A5_OPS[schema.variant](values["c"], values["d"])
    terms = [value for value in values.values() if not isinstance(value, ChainValue)]
    results = iter(compile_plan(*terms).root_values(model))
    atomics, valuation = dict(model.atomics), dict(model.valuation)
    for name, value in values.items():
        if isinstance(value, ChainValue):
            result = (value.numerator,) * size
        else:
            result = next(results)
        table = atomics if isinstance(value, Program) else valuation
        if name in table:
            raise ValueError(f"the sampled model already names the metavariable {name!r}")
        table[name] = result
    return Model._unchecked(model.context, model.space, atomics, valuation)


def _witness(
    schema: AxiomSchema, bindings: Mapping[str, Binding], model: Model, bound: Model, plan: Plan
) -> Optional[Witness]:
    """The witness of a schema or rule trial whose template ``plan``,
    run in ``bound`` (``model`` extended by ``bindings``), falls below
    top at a state, else None. The instance is built here, and only here."""
    refutation = valid_in_model(bound, plan)[1]
    if refutation is None:
        return None
    instance = instantiate_schema(schema, bindings, model.context)
    return Witness(model, bindings, instance, refutation.state, refutation.value)


def find_counterexample(schema: AxiomSchema, cfg: SamplerConfig) -> SchemaAudit:
    """Random (model, bindings) trials until a state falls below top.

    A trial runs the schema's template, compiled once per search, in the
    sampled model extended by the bindings (``_bound_model``); the
    semantics is compositional, so that is the instance's value. The
    instance itself is built only for a witness.
    """
    plan = compile_plan(schema.template(cfg.context))
    seed = derive_seed(cfg.seed, "schema", schema.label, cfg.n)

    def fails(rng: random.Random, model: Model) -> Optional[Witness]:
        bindings = sample_bindings(schema, rng, cfg)
        return _witness(schema, bindings, model, _bound_model(schema, bindings, model), plan)

    trial, _model, witness = _search(cfg, seed, fails)
    verdict = "no-counterexample-found" if witness is None else "counterexample"
    return SchemaAudit(schema.id, schema.variant, cfg.n, trial, verdict, seed, witness)


def audit_rule(rule_id: str, cfg: SamplerConfig) -> RuleAudit:
    """Search for a model where the premise of a monotonicity rule is
    valid but the conclusion is not. A trial runs the rule's premise
    template, and the conclusion template only where the premise is
    valid, in the sampled model extended by the bindings; the conclusion
    instance is built only for a witness."""
    if rule_id not in RULES:
        raise ValueError(f"unknown rule {rule_id!r}")
    premise, conclusion = RULES[rule_id]
    seed = derive_seed(cfg.seed, "rule", rule_id, cfg.n)
    ctx = cfg.context
    premise_plan = compile_plan(premise.template(ctx))
    conclusion_plan = compile_plan(conclusion.template(ctx))
    premises_valid = 0

    def fails(rng: random.Random, model: Model) -> Optional[Witness]:
        nonlocal premises_valid
        bindings = {
            "phi": random_formula(rng, ctx, 2),
            "psi": random_formula(rng, ctx, 2),
            "pi": random_program(rng, ctx, 2),
        }
        bound = _bound_model(conclusion, bindings, model)
        if not valid_in_model(bound, premise_plan)[0]:
            return None
        premises_valid += 1
        return _witness(conclusion, bindings, model, bound, conclusion_plan)

    trial, _model, witness = _search(cfg, seed, fails)
    verdict = "no-counterexample-found" if witness is None else "counterexample"
    return RuleAudit(rule_id, cfg.n, trial, premises_valid, verdict, seed, witness)


def valid_check(
    formula: Formula, cfg: SamplerConfig
) -> tuple[int, Optional[Model], Optional[Refutation]]:
    """Search sampled models for a state where the formula is below top.

    Returns (models tested, refuting model, refutation); the last two
    are None when the budget runs out first.
    """
    seed = derive_seed(cfg.seed, "valid", format_formula(formula), cfg.n)
    plan = compile_plan(formula)

    def fails(_rng: random.Random, model: Model) -> Optional[Refutation]:
        return valid_in_model(model, plan)[1]

    return _search(cfg, seed, fails, formula)


def audit_all(
    cfg: SamplerConfig,
    schemata: Optional[Iterable[AxiomSchema]] = None,
    include_rules: bool = True,
) -> AuditReport:
    """Run the counterexample search across the whole catalog.

    Entries are ordered by catalog position, and every schema draws from
    its own derived seed, so a fan-out over schemata merges back into the
    same report.
    """
    selected = list(schemata) if schemata is not None else all_schemata("DL")
    report = AuditReport(
        n=cfg.n,
        seed=cfg.seed,
        config={
            "max_states": cfg.max_states,
            "density": DENSITY,
            "num_programs": len(PROGRAM_NAMES),
            "num_propvars": len(PROP_NAMES),
            "samples": cfg.samples,
        },
    )
    for schema in selected:
        report.schemas.append(find_counterexample(schema, cfg))
    if include_rules:
        for rule_id in RULES:
            report.rules.append(audit_rule(rule_id, cfg))
    return report


# -- modality-free consequence ----------------------------------------------------


def _require_modality_free(formula: Formula) -> None:
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, (Box, Diamond)):
            raise ModalFormulaRejected(
                f"modal operator in {format_formula(node)!r}; "
                "consequence checking covers modality-free formulas only"
            )
        stack.extend(children(node))


# Valuations per model in check_consequence_prop, one per state: enough
# that one evaluation covers many, few enough that an enumeration up to
# the limit is never held in one model.
_VALUATION_BLOCK = 256

# The most valuations check_consequence_prop enumerates.
VALUATION_LIMIT = 10_000_000


def check_consequence_prop(
    theta: Iterable[Formula], phi: Formula, ctx: ChainContext
) -> tuple[bool, Optional[dict[str, ChainValue]]]:
    """Decide modality-free consequence by enumerating all valuations.

    Returns (True, None) when every valuation sending all premises to top
    also sends the conclusion to top, else (False, falsifying valuation):
    the first one in ``itertools.product`` order over the sorted names.
    The valuations are the states of program-free models, a block per
    model, in which the premises and the conclusion, compiled once into
    one plan, are evaluated by one run.
    """
    premises = list(theta)
    names: set[str] = set()
    for f in premises + [phi]:
        _require_modality_free(f)
        names |= collect_names(f)[0]
    ordered = sorted(names)
    count = ctx.n ** len(ordered)
    if count > VALUATION_LIMIT:
        raise BudgetExceeded(
            f"{count} valuations over {len(ordered)} variables exceed the limit {VALUATION_LIMIT}"
        )
    top = ctx.top
    plan = compile_plan(*premises, phi)
    valuations = itertools.product(range(ctx.n), repeat=len(ordered))
    while block := list(itertools.islice(valuations, _VALUATION_BLOCK)):
        columns = dict(zip(ordered, zip(*block)))
        *premise_vectors, conclusion = plan.root_values(
            Model._unchecked(ctx, StateSpace(len(block)), {}, columns)
        )
        for s, nums in enumerate(block):
            if conclusion[s] != top and all(vector[s] == top for vector in premise_vectors):
                return False, {name: ChainValue(num, ctx) for name, num in zip(ordered, nums)}
    return True, None


# -- difference search ---------------------------------------------------------------


@dataclass(frozen=True)
class EquivReport:
    left: Formula
    right: Formula
    difference_found: bool
    models_tested: int
    seed: int
    model: Optional[Model] = None
    state: Optional[int] = None
    left_value: Optional[ChainValue] = None
    right_value: Optional[ChainValue] = None

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "left": format_formula(self.left),
            "right": format_formula(self.right),
            "difference_found": self.difference_found,
            "models_tested": self.models_tested,
            "seed": self.seed,
        }
        if self.difference_found:
            doc["witness"] = {
                "model": model_to_dict(self.model),
                "state": self.model.state_names[self.state],
                "left_value": str(self.left_value),
                "right_value": str(self.right_value),
            }
        return doc


def equiv_check(left: Formula, right: Formula, cfg: SamplerConfig) -> EquivReport:
    """Search sampled models for a state where the two formulas differ."""
    seed = derive_seed(cfg.seed, "equiv", format_formula(left), format_formula(right), cfg.n)
    plan = compile_plan(left, right)

    def fails(_rng: random.Random, model: Model) -> Optional[tuple]:
        lefts, rights = plan.root_values(model)
        for s, (lv, rv) in enumerate(zip(lefts, rights)):
            if lv != rv:
                return s, ChainValue(lv, model.context), ChainValue(rv, model.context)
        return None

    trial, model, found = _search(cfg, seed, fails, left, right)
    if found is None:
        return EquivReport(left, right, False, trial, seed)
    return EquivReport(left, right, True, trial, seed, model, *found)
