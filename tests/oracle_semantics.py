"""The evaluator that ``semantics.Evaluator`` replaced, kept as a test-only
reference.

``PointwiseEvaluator`` is the package's evaluator before it computed one
value vector per formula: it memoizes one numerator per (formula, state)
pair and evaluates a box or diamond body lazily, only at the states a
relation reaches. Its relations come from the package's relation
algebra, which ``oracle_relations`` checks on its own; what the
differential test compares is the formula clauses and the test program.
"""

import logging

from gradedpdl.chain import ChainMismatchError
from gradedpdl.relations import (
    ReachRelation,
    compose,
    mask_states,
    parallel,
    star,
    union,
    zero_relation,
)
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
    Union as PUnion,
)

_logger = logging.getLogger("gradedpdl.semantics")


class PointwiseEvaluator:
    """Memoizing interpreter for one model, one (formula, state) pair at a time.

    Caches the materialized relation of every compound program and the
    value of every (formula, state) pair. Box and diamond scan every row
    of the relation for each state and evaluate the body only at the
    targets they reach.
    """

    def __init__(self, model):
        self.model = model
        self._relations = {}
        self._values = {}

    def relation(self, program):
        cached = self._relations.get(program)
        if cached is not None:
            return cached
        model = self.model
        if isinstance(program, Atomic):
            rel = model.atomics.get(program.name)
            if rel is None:
                _logger.warning(
                    "unknown atomic program %r treated as the empty relation",
                    program.name,
                )
                rel = zero_relation(model.space, model.context)
        elif isinstance(program, PUnion):
            rel = union(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Seq):
            rel = compose(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Inter):
            rel = parallel(self.relation(program.left), self.relation(program.right))
        elif isinstance(program, Star):
            rel = star(self.relation(program.body))
        elif isinstance(program, Test):
            entries = {}
            for s in model.space.states():
                num = self.value_num(program.condition, s)
                if num > 0:
                    entries[(s, 1 << s)] = num
            rel = ReachRelation(model.space, model.context, entries)
        else:
            raise TypeError(f"not a program: {program!r}")
        self._relations[program] = rel
        return rel

    def value_num(self, formula, s):
        key = (formula, s)
        cached = self._values.get(key)
        if cached is not None:
            return cached
        model = self.model
        top = model.context.top
        if isinstance(formula, PropVar):
            num = model.prop_num(formula.name, s)
        elif isinstance(formula, Constant):
            if formula.value.context != model.context:
                raise ChainMismatchError(
                    f"constant {formula.value} belongs to a chain of order "
                    f"{formula.value.context.n}, model uses {model.context.n}"
                )
            num = formula.value.numerator
        elif isinstance(formula, And):
            num = min(self.value_num(formula.left, s), self.value_num(formula.right, s))
        elif isinstance(formula, Or):
            num = max(self.value_num(formula.left, s), self.value_num(formula.right, s))
        elif isinstance(formula, Implies):
            num = min(
                top,
                top - self.value_num(formula.left, s) + self.value_num(formula.right, s),
            )
        elif isinstance(formula, Box):
            rel = self.relation(formula.program)
            num = top
            for (src, mask), rval in rel.entries.items():
                if src != s:
                    continue
                body = top
                for t in mask_states(mask):
                    body = min(body, self.value_num(formula.body, t))
                    if body == 0:
                        break
                num = min(num, min(top, top - rval + body))
                if num == 0:
                    break
        elif isinstance(formula, Diamond):
            rel = self.relation(formula.program)
            num = 0
            for (src, mask), rval in rel.entries.items():
                if src != s:
                    continue
                body = top
                for t in mask_states(mask):
                    body = min(body, self.value_num(formula.body, t))
                    if body == 0:
                        break
                num = max(num, max(0, rval + body - top))
                if num == top:
                    break
        else:
            raise TypeError(f"not a formula: {formula!r}")
        self._values[key] = num
        return num
