"""The sampler and binding draws that ``audit`` replaced, kept as
test-only references.

``reference_sample_model`` is the package's sampler before it drew its
integers through ``getrandbits`` itself: every draw goes through
``rng.randint`` and ``rng.random``, and the model is built by the
validating ``ReachRelation`` and ``Model`` constructors.

``reference_sample_bindings`` is ``audit.sample_bindings`` before the
adversarial pools and each schema's table of metavariables were built
once: it walks the template of the reference catalog in
``oracle_schemas`` and builds both pools on every call, and its formula
and program generators branch once per node kind.

The differential tests assert that each pair gives equal results and
leaves the rng in the same state.
"""

import random

from gradedpdl import audit
from gradedpdl.audit import PROGRAM_NAMES, PROP_NAMES
from gradedpdl.chain import ChainValue
from gradedpdl.relations import ReachRelation, StateSpace
from gradedpdl.semantics import Model
from gradedpdl.syntax import (
    And,
    Atomic,
    Box,
    Constant,
    Diamond,
    Implies,
    Inter,
    Or,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
    children,
)
from oracle_schemas import ConstMeta, ConstOp, FormulaMeta, ProgramMeta, schemata_named


def reference_sample_model(cfg, rng=None, prop_names=None, prog_names=None):
    rng = rng or random.Random(cfg.seed)
    ctx = cfg.context
    size = rng.randint(1, cfg.max_states)
    space = StateSpace(size)
    props = list(prop_names or PROP_NAMES)
    progs = list(prog_names or PROGRAM_NAMES)
    atomics = {}
    for name in progs:
        entries = {}
        for s in space.states():
            for mask in space.subset_masks():
                if rng.random() < audit.DENSITY:
                    entries[(s, mask)] = rng.randint(1, ctx.top)
        atomics[name] = ReachRelation(space, ctx, entries)
    valuation = {
        name: {s: rng.randint(0, ctx.top) for s in space.states()} for name in props
    }
    return Model(ctx, space, atomics, valuation)


def _meta_names(schema):
    (reference,) = schemata_named(schema.id, schema.variant)
    kinds = {}
    stack = [reference.template]
    while stack:
        node = stack.pop()
        if isinstance(node, FormulaMeta):
            kinds[node.name] = "formula"
        elif isinstance(node, ProgramMeta):
            kinds[node.name] = "program"
        elif isinstance(node, ConstMeta):
            kinds[node.name] = "const"
        elif isinstance(node, ConstOp):
            stack += [node.left, node.right]
        else:
            stack.extend(children(node))
    return kinds


def _random_formula(rng, ctx, depth, props, progs):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return PropVar(rng.choice(list(props)))
        return Constant(ChainValue(rng.randint(0, ctx.top), ctx))
    kind = rng.randrange(5)
    if kind == 0:
        return And(
            _random_formula(rng, ctx, depth - 1, props, progs),
            _random_formula(rng, ctx, depth - 1, props, progs),
        )
    if kind == 1:
        return Or(
            _random_formula(rng, ctx, depth - 1, props, progs),
            _random_formula(rng, ctx, depth - 1, props, progs),
        )
    if kind == 2:
        return Implies(
            _random_formula(rng, ctx, depth - 1, props, progs),
            _random_formula(rng, ctx, depth - 1, props, progs),
        )
    node = Box if kind == 3 else Diamond
    return node(
        _random_program(rng, ctx, depth - 1, props, progs),
        _random_formula(rng, ctx, depth - 1, props, progs),
    )


def _random_program(rng, ctx, depth, props, progs):
    if depth <= 0 or rng.random() < 0.4:
        return Atomic(rng.choice(list(progs)))
    kind = rng.randrange(5)
    if kind == 0:
        return Union(
            _random_program(rng, ctx, depth - 1, props, progs),
            _random_program(rng, ctx, depth - 1, props, progs),
        )
    if kind == 1:
        return Inter(
            _random_program(rng, ctx, depth - 1, props, progs),
            _random_program(rng, ctx, depth - 1, props, progs),
        )
    if kind == 2:
        return Seq(
            _random_program(rng, ctx, depth - 1, props, progs),
            _random_program(rng, ctx, depth - 1, props, progs),
        )
    if kind == 3:
        return Star(_random_program(rng, ctx, depth - 1, props, progs))
    return Test(_random_formula(rng, ctx, depth - 1, props, progs))


def _adversarial_formulas(ctx, props):
    p = PropVar(props[0])
    mid = ctx.top // 2
    pool = [p, Constant(ChainValue(mid, ctx)), Implies(p, Constant(ctx.zero))]
    if len(props) > 1:
        pool.append(PropVar(props[1]))
    if ctx.top - (ctx.top + 1) // 2 != mid:
        pool.append(Constant(ChainValue((ctx.top + 1) // 2, ctx)))
    return pool


def _adversarial_programs(props, progs):
    a = Atomic(progs[0])
    pool = [a, Star(a), Test(PropVar(props[0]))]
    if len(progs) > 1:
        pool.append(Inter(a, Atomic(progs[1])))
    return pool


def reference_sample_bindings(schema, rng, cfg):
    ctx = cfg.context
    props = list(PROP_NAMES)
    progs = list(PROGRAM_NAMES)
    formula_pool = _adversarial_formulas(ctx, props)
    program_pool = _adversarial_programs(props, progs)
    mid = ctx.top // 2
    bindings = {}
    for name, kind in sorted(_meta_names(schema).items()):
        if kind == "formula":
            if rng.random() < 0.5:
                bindings[name] = rng.choice(formula_pool)
            else:
                bindings[name] = _random_formula(rng, ctx, 3, props, progs)
        elif kind == "program":
            if rng.random() < 0.5:
                bindings[name] = rng.choice(program_pool)
            else:
                bindings[name] = _random_program(rng, ctx, 2, props, progs)
        else:
            num = mid if rng.random() < 0.5 else rng.randint(0, ctx.top)
            bindings[name] = ChainValue(num, ctx)
    return bindings
