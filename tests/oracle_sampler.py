"""The sampler that ``audit.sample_model`` replaced, kept as a test-only
reference.

``reference_sample_model`` is the package's sampler before it drew its
integers through ``getrandbits`` itself: every draw goes through
``rng.randint`` and ``rng.random``, and the model is built by the
validating ``ReachRelation`` and ``Model`` constructors. The
differential test asserts that both samplers give equal models and leave
the rng in the same state.
"""

import random

from gradedpdl.audit import PROGRAM_NAMES, PROP_NAMES
from gradedpdl.relations import ReachRelation, StateSpace
from gradedpdl.semantics import Model


def reference_sample_model(cfg, rng=None, prop_names=None, prog_names=None):
    rng = rng or random.Random(cfg.seed)
    ctx = cfg.context
    size = rng.randint(1, cfg.max_states)
    space = StateSpace(size)
    props = list(prop_names or PROP_NAMES[: cfg.num_propvars])
    progs = list(prog_names or PROGRAM_NAMES[: cfg.num_programs])
    atomics = {}
    for name in progs:
        entries = {}
        for s in space.states():
            for mask in space.subset_masks():
                if rng.random() < cfg.density:
                    entries[(s, mask)] = rng.randint(1, ctx.top)
        atomics[name] = ReachRelation(space, ctx, entries)
    valuation = {
        name: {s: rng.randint(0, ctx.top) for s in space.states()} for name in props
    }
    return Model(ctx, space, atomics, valuation)
