"""Workbench for concurrent dynamic logic graded over finite Lukasiewicz chains.

The pieces, bottom up:

* ``chain``      exact arithmetic in the finite chain of truth values
* ``syntax``     formula/program ASTs, parser, printer, closure computation
* ``relations``  graded reachability relations and their algebra
* ``semantics``  models, formula plans and their runner, one-question evaluation
* ``schemas``    axiom-schema templates, instantiation, instance matching
* ``audit``      counterexample search over sampled models
* ``proofcheck`` Hilbert-style derivation verification
* ``filtration`` model quotients through closed formula sets
* ``modelio``    the model JSON document format
* ``cli``        the ``gradedpdl`` command
"""

from .chain import (
    ChainContext,
    ChainMismatchError,
    ChainValue,
    InputError,
    NotAChainElement,
    format_value,
    from_rational,
    parse_value,
)
from .relations import (
    ReachRelation,
    SpaceMismatchError,
    StateSpace,
    compose,
    iota,
    leq,
    parallel,
    star,
    union,
    zero_relation,
)
from .semantics import (
    Evaluator,
    Model,
    Plan,
    Refutation,
    compile_plan,
    eval_formula,
    eval_program,
    valid_in_model,
)
from .syntax import (
    And,
    Atomic,
    Box,
    ClosureBudgetExceeded,
    Constant,
    Diamond,
    Formula,
    Implies,
    Inter,
    Or,
    ParseError,
    Program,
    PropVar,
    Seq,
    Star,
    Test,
    Union,
    biconditional,
    closure_of_set,
    fl_closure,
    format_formula,
    format_program,
    negation,
    parse_formula,
    parse_program,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
