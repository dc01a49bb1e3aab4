"""
Closure computation and model quotients
=======================================

The closure of a formula is the finite set of formulas its evaluation
can ever touch: subformulas plus the program-decomposition unfoldings.
Quotienting a model by agreement on a closed set shrinks it while the
closed set's values survive at the class level whenever the relation
grades cooperate; the agreement table reports how often they do.
"""

from gradedpdl import (
    ChainContext,
    Model,
    ReachRelation,
    StateSpace,
    fl_closure,
    format_formula,
    parse_formula,
)
from gradedpdl.filtration import check_lemma4, check_preservation, quotient

ctx = ChainContext(3)

print("closure of [ (a + b)* ] p:")
closure = fl_closure(parse_formula("[(a+b)*]p", ctx), ctx)
for text in sorted(format_formula(f) for f in closure):
    print("  ", text)

# A four-state model where two states are indistinguishable on the set.
space = StateSpace(4)
rel = ReachRelation.of(
    space, ctx, [(0, [1], "1"), (1, [2, 3], "1/2"), (2, [2], "1"), (3, [3], "1")]
)
model = Model(
    ctx,
    space,
    {"a": rel},
    {"p": {2: 2, 3: 2}, "q": {2: 2}},  # p true at s2, s3; q separates them
)

gamma = fl_closure(parse_formula("[a]p & <a>p", ctx), ctx)
print(f"\nquotient through the closure of [a]p & <a>p ({len(gamma)} formulas):")
result = quotient(model, gamma)
for c, members in enumerate(result.classes):
    names = ", ".join(model.state_names[m] for m in members)
    print(f"  class c{c}: {names}")
print("  (s2 and s3 collapse: q tells them apart, but q is not in the set)")

print("\nquotient relation grades out of each class (nonzero):")
qrel = result.quotient.atomics["a"]
for (c, mask), num in sorted(qrel.entries.items()):
    members = ",".join(f"c{i}" for i in range(len(result.classes)) if mask & (1 << i))
    value = result.quotient.context.value(num)
    print(f"  c{c} -> {{{members}}} at {value}")

lemma = check_lemma4(result, "a", list(gamma))
print(f"\ndomination check: {lemma.points_checked} points, violations: {len(lemma.violations)}")

report = check_preservation(result)
print("value preservation per formula (model vs quotient):")
for row in report.rows:
    print(f"  {row['formula']:20s} {row['agreements']}/{row['states']} states agree")
