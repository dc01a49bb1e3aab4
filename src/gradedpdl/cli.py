"""Batch command-line front end.

Exit codes follow one convention across all subcommands: 0 when the
checked property holds, 1 when a counterexample or rejection is the
result, 2 on bad input: argparse's usage errors, an ``InputError`` from
any module, or an ``OSError`` from a file; and 3 when the program itself
fails, so that a crash is never read as a counterexample.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .audit import (
    STATE_CAP,
    STATE_CAP_FORCED,
    SamplerConfig,
    all_schemata,
    audit_all,
    check_state_count,
    equiv_check,
    valid_check,
)
from .chain import ChainContext, ChainValue, InputError
from .filtration import check_preservation, quotient
from .modelio import dumps, load_model, model_to_dict
from .proofcheck import check_derivation, load_derivation
from .relations import mask_states
from .semantics import Model, compile_plan
from .syntax import fl_closure, format_formula, parse_formula


class CliError(InputError):
    """An option value that the command cannot use."""


def _check_model_size(model: Model, force: bool) -> None:
    check_state_count(model.space.size, force)
    if model.space.size > STATE_CAP:
        print(
            f"warning: {model.space.size} states; set operations are "
            "doubly exponential and may be slow",
            file=sys.stderr,
        )


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(
        n=args.n,
        max_states=args.states,
        samples=args.samples,
        seed=args.seed,
        allow_large=args.force_states,
    )


def _check_output_paths(args) -> None:
    """Refuse an --out or --dot that cannot be written, or whose output
    would be lost, before any work starts, so that a long search does not
    end in a failed or lost write."""
    written = set()
    for option in ("out", "dot"):
        path = getattr(args, option, None)
        if path is None:
            continue
        if not path:
            raise CliError(f"--{option} is an empty path")
        target = Path(path)
        if target.is_dir():
            raise CliError(f"--{option} {path} is a directory")
        if not target.parent.is_dir():
            raise CliError(f"--{option} {path}: no directory {target.parent}")
        real = os.path.realpath(target)
        # the second write to a file replaces the first; a device keeps both
        if real in written and (target.is_file() or not target.exists()):
            raise CliError(f"--{option} {path} is also the --out file")
        written.add(real)


def _write_out(args, document) -> None:
    if args.out:
        Path(args.out).write_text(dumps(document) + "\n", encoding="utf-8")


# -- subcommands ------------------------------------------------------------------


def cmd_eval(args) -> int:
    model = load_model(args.model)
    _check_model_size(model, args.force_states)
    formula = parse_formula(args.formula, model.context)
    all_top = True
    for name, num in zip(model.state_names, compile_plan(formula).root_values(model)[0]):
        value = ChainValue(num, model.context)
        print(f"{name}: {value}")
        all_top = all_top and value.is_top
    return 0 if all_top else 1


def cmd_valid(args) -> int:
    cfg = _sampler_config(args)
    formula = parse_formula(args.formula, cfg.context)
    models_tested, model, refutation = valid_check(formula, cfg)
    if refutation is not None:
        print(
            f"counterexample after {models_tested} models: value {refutation.value} "
            f"at state {refutation.state_name}"
        )
        print(dumps(model_to_dict(model)))
        return 1
    print(f"no counterexample in {models_tested} sampled models")
    return 0


def cmd_audit(args) -> int:
    cfg = _sampler_config(args)
    selected = all_schemata("DL")
    if args.inter_box != "both":
        selected = [
            s for s in selected if s.id != "D7" or s.variant == args.inter_box
        ]
    report = audit_all(cfg, selected, include_rules=not args.no_rules)
    for entry in report.schemas:
        if entry.verdict == "counterexample":
            w = entry.witness
            print(
                f"{entry.label}: counterexample after {entry.models_tested} models "
                f"(value {w.value} at state {w.model.state_names[w.state]})"
            )
        else:
            print(f"{entry.label}: no counterexample in {entry.models_tested} models")
    for rule in report.rules:
        if rule.verdict == "counterexample":
            print(f"{rule.rule_id}: validity not preserved (see report)")
        else:
            print(
                f"{rule.rule_id}: validity preserved on {rule.premises_valid} "
                f"valid-premise models"
            )
    _write_out(args, report.to_json())
    return 1 if report.has_counterexample else 0


def cmd_closure(args) -> int:
    if args.n < 2:
        raise CliError(f"--n {args.n} is below 2, the smallest chain order")
    if args.cap < 1:
        raise CliError(f"--cap {args.cap} is below 1; a closure holds at least its formula")
    ctx = ChainContext(args.n)
    formula = parse_formula(args.formula, ctx)
    members = fl_closure(formula, ctx, cap=args.cap)
    for text in sorted(format_formula(f) for f in members):
        print(text)
    print(f"-- {len(members)} formulas")
    return 0


def cmd_check_proof(args) -> int:
    derivation = load_derivation(args.path)
    verdict = check_derivation(
        derivation,
        system=args.system.upper(),
        any_schema=args.any_schema,
        allow_mon=args.allow_mon,
    )
    if verdict.accepted:
        print(f"accepted: {len(derivation.steps)} steps")
        return 0
    print(f"rejected at step {verdict.failed_step}: {verdict.message}")
    return 1


def cmd_filtrate(args) -> int:
    model = load_model(args.model)
    _check_model_size(model, args.force_states)
    formula = parse_formula(args.formula, model.context)
    gamma = fl_closure(formula, model.context)
    result = quotient(model, gamma)
    print(f"closed set: {len(gamma)} formulas")
    print(f"classes: {len(result.classes)}")
    names = model.state_names
    for c, members in enumerate(result.classes):
        print(f"  c{c}: {', '.join(names[m] for m in members)}")
    preservation = check_preservation(result)
    agree = sum(row["agreements"] for row in preservation.rows)
    total = sum(row["states"] for row in preservation.rows)
    print(f"value preservation: {agree}/{total} (formula, state) pairs agree")
    document = {
        "model": model_to_dict(result.quotient),
        "classes": {
            f"c{c}": [names[m] for m in members]
            for c, members in enumerate(result.classes)
        },
        "preservation": preservation.to_json(),
        "warnings": [],  # always empty; kept so the document's format holds
    }
    _write_out(args, document)
    if args.dot:
        Path(args.dot).write_text(_class_graph_dot(result, names), encoding="utf-8")
    return 0


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _class_graph_dot(result, state_names) -> str:
    """The quotient's classes, labelled with their members' names, and
    an edge per (program, class, class) that some relation entry joins."""
    lines = ["digraph filtration {"]
    qnames = result.quotient.state_names
    for c, members in enumerate(result.classes):
        label = ",".join(_dot_escape(state_names[m]) for m in members)
        lines.append(f'  {qnames[c]} [label="{qnames[c]}: {{{label}}}"];')
    seen = set()
    for prog, rel in sorted(result.quotient.atomics.items()):
        for c, mask in sorted(rel.entries):
            for d in mask_states(mask):
                key = (prog, c, d)
                if key in seen:
                    continue
                seen.add(key)
                lines.append(f'  {qnames[c]} -> {qnames[d]} [label="{_dot_escape(prog)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_equiv(args) -> int:
    cfg = _sampler_config(args)
    left = parse_formula(args.left, cfg.context)
    right = parse_formula(args.right, cfg.context)
    report = equiv_check(left, right, cfg)
    _write_out(args, report.to_json())
    if report.difference_found:
        print(
            f"difference after {report.models_tested} models: "
            f"{format_formula(left)} = {report.left_value}, "
            f"{format_formula(right)} = {report.right_value} "
            f"at state {report.model.state_names[report.state]}"
        )
        print(dumps(model_to_dict(report.model)))
        return 1
    print(f"no difference in {report.models_tested} sampled models")
    return 0


# -- wiring -----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    call of ``main``; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gradedpdl",
        description="Workbench for concurrent dynamic logic graded over finite chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument(
        "--force-states", action="store_true",
        help=f"allow up to {STATE_CAP_FORCED} states instead of {STATE_CAP}",
    )
    search = argparse.ArgumentParser(add_help=False, parents=[force])
    search.add_argument("--n", type=int, default=3, help="chain order")
    search.add_argument("--states", type=int, default=3, help="most states per sampled model")
    search.add_argument(
        "--samples", type=int, default=1000, help="trial budget (per schema for audit)"
    )
    search.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", parents=[force],
                       help="evaluate a formula at every state of a model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("formula")

    p = sub.add_parser("valid", parents=[search],
                       help="search sampled models for a validity counterexample")
    p.add_argument("formula")

    p = sub.add_parser("audit", parents=[search], help="soundness audit of the axiom schemata")
    p.add_argument(
        "--inter-box",
        choices=["printed", "corrected", "both"],
        default="both",
        help="which intersection-box variant(s) to audit",
    )
    p.add_argument("--no-rules", action="store_true", help="skip the rule audits")
    p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("closure", help="list the closure of a formula")
    p.add_argument("formula")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--cap", type=int, default=10_000)

    p = sub.add_parser("check-proof", help="verify a derivation file")
    p.add_argument("path")
    p.add_argument("--system", choices=["pl", "dl"], default="dl")
    p.add_argument("--any-schema", action="store_true",
                   help="accept an axiom step when any schema matches")
    p.add_argument("--allow-mon", action="store_true",
                   help="accept monotonicity steps")

    p = sub.add_parser("filtrate", parents=[force],
                       help="quotient a model through a formula's closure")
    p.add_argument("model", help="model JSON path")
    p.add_argument("formula")
    p.add_argument("--out", help="write the quotient JSON here")
    p.add_argument("--dot", help="write a DOT class graph here")

    p = sub.add_parser("equiv", parents=[search],
                       help="search for a state separating two formulas")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    # looked up per call, not bound into the cached parser, so that a
    # replaced cmd_* function is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _check_output_paths(args)
        return command(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: a crash must not exit 1, "counterexample"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
