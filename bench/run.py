"""Seeded end-to-end benchmark of the gradedpdl CLI.

Run from the repository root:

    python3 bench/run.py --workload search-s3 --seed 1 --seconds 20 --trace 0

One client calls ``gradedpdl.cli.main(argv)`` in this process in a
closed loop over the workload's deck (see workloads.py), checks every
answer outside the timed region, and prints one JSON line of metrics
last. Op and set-up times are CPU seconds, scaled by the speed of a
fixed reference loop timed between ops. ``--trace 1`` instead runs a fixed prefix of the deck once
untraced and once with spans around the package's layers, and prints
the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

if __name__ == "__main__" and not (
    (ROOT / "src" / "gradedpdl" / "__init__.py").is_file()
    and (ROOT / "tests" / "oracle_relations.py").is_file()
):
    print(f"error: {ROOT} lacks src/gradedpdl or tests/oracle_relations.py; "
          "run from the root of a full checkout", file=sys.stderr)
    raise SystemExit(2)

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or
# file write does not decide the figure.
SETUP_REPS = 9
# The first ops of the deck: the traced pass and the digests cover them,
# so per-layer counts and digests repeat exactly for a seed. An untraced
# run does at least this many, so at least ten ops lie beyond p90.
PREFIX_OPS = 100
# A run stops taking new ops after this much wall time, to end in time
# on a machine far slower than the one the run length was chosen on.
WALL_CAP_S = 150.0
# Between ops the run times a fixed reference loop, for this share of the
# op CPU time so far, and between set-ups for SETUP_REF_SHARE of the set-up
# CPU time, as set-ups are short and few. Time metrics are scaled to a
# host on which one reference chunk takes REF_CHUNK_S of CPU, about what it
# took on the 2-vCPU host the benchmark was set up on. See README.md,
# "Host speed".
REF_SHARE = 0.05
SETUP_REF_SHARE = 0.25
REF_CHUNK_S = 0.001
# Op times are scaled by the host speed of their stretch of the run: this
# much op CPU time and the ~100 chunks run between those ops.
STRETCH_S = 2.0


def _import_package():
    """Import gradedpdl fresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "gradedpdl" or m.startswith("gradedpdl.")]:
        del sys.modules[name]
    import gradedpdl.cli as cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise ImportError(f"gradedpdl was imported from {cli.__file__}, not {ROOT / 'src'}")
    return cli


class Elapsed(NamedTuple):
    wall: float
    cpu: float


def run_op(main, op):
    """Run one op; returns (exit code or None if it raised, stdout, Elapsed).

    End-to-end metrics use the CPU time. The benchmark's host is a 2-vCPU
    share of a machine whose hypervisor takes the vCPU away for stretches;
    wall time then counts other tenants' work, while the kernel books that
    steal time apart from the process's CPU time. The traced run, whose
    spans are in wall time, uses the wall time.
    """
    out_path = op.expect.get("out")
    if out_path and os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = main(op.argv)
    except Exception as exc:  # a crash is a failed op, not the end of the run
        rc = None
        print(f"op raised {exc!r}: {op.argv}", file=sys.stderr)
    elapsed = Elapsed(time.perf_counter() - start, time.process_time() - cpu_start)
    return rc, stdout.getvalue(), elapsed


class Outcomes:
    """Failures and output digests of the ops run so far."""

    def __init__(self, prefix: int):
        self.prefix = prefix
        self.attempted = 0
        self.failed = 0
        self.instances = 0
        self.digests = {
            kind: hashlib.sha256()
            for kind in ("stdout", "audit_json", "equiv_json", "filtrate_json")
        }

    def record(self, index: int, op, rc, stdout: str) -> None:
        document = checks.read_output(op)
        problems = ["raised"] if rc is None else checks.check(op, rc, stdout, document)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {index} {op.argv[0]} failed: {problems[:3]}", file=sys.stderr)
        else:
            self.instances += checks.instances(op, stdout, document)
        if index < self.prefix:
            self.digests["stdout"].update(f"{index}:{rc}:{stdout}\0".encode())
            if document is not None:
                self.digests[f"{op.kind}_json"].update(f"{index}:{document}\0".encode())

    def hexdigests(self) -> dict[str, str]:
        return {kind: h.hexdigest() for kind, h in self.digests.items()}


def settle() -> None:
    """Collect garbage and freeze what survives, between ops and outside
    the timed region. The package's collections then see only the objects
    of the op they run in, as in a fresh process, not the deck or the
    benchmark's other objects, and no op pays for an earlier one's garbage."""
    gc.collect()
    gc.freeze()


def setup(workload: str, seed: int, scratch: str):
    """Import, input generation and one warm-up op, timed as one in CPU
    seconds."""
    start = time.process_time()
    cli = _import_package()
    workdir = tempfile.mkdtemp(dir=scratch)
    deck = workloads.make_deck(workload, seed, workdir)
    run_op(cli.main, workloads.warmup_op(workload, seed, workdir))
    return time.process_time() - start, cli, deck


def reference_chunk() -> int:
    """Fixed pure-Python work of the package's kind: tuple keys in a dict,
    then a frozenset of them. It does not touch the package."""
    table: dict[tuple[int, int], int] = {}
    for i in range(2700):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + i % 7
    return len(frozenset(table))


class HostSpeed:
    """CPU time of reference chunks run between ops or set-ups, outside the
    timed region, so it follows the host's speed through the run."""

    def __init__(self, share: float):
        self.share = share
        self.chunks: list[float] = []
        self.total = 0.0

    def keep_up(self, timed_cpu_s: float) -> list[float]:
        """Run chunks until they have taken `share` of `timed_cpu_s`;
        returns the CPU seconds of the chunks it ran."""
        first = len(self.chunks)
        while self.total < self.share * timed_cpu_s:
            start = time.process_time()
            reference_chunk()
            self.chunks.append(time.process_time() - start)
            self.total += self.chunks[-1]
        return self.chunks[first:]


def ref_scale(chunks: list[float]) -> float:
    """Factor from CPU seconds at the speed these chunks ran at to
    reference-host seconds."""
    return REF_CHUNK_S / statistics.mean(chunks)


def scale_by_stretch(latencies: list[float], chunks_after: list[list[float]]) -> list[float]:
    """Each op's CPU seconds times the factor of its stretch: consecutive
    ops of STRETCH_S op CPU seconds with the chunks run after them. One
    factor for the whole run would leave the host's drift within the run
    in the op times, where it widens their quantiles. A last stretch of
    under half the length joins the one before."""
    groups: list[tuple[list[float], list[float]]] = []
    op_s = STRETCH_S
    for t, after in zip(latencies, chunks_after):
        if op_s >= STRETCH_S:
            groups.append(([], []))
            op_s = 0.0
        groups[-1][0].append(t)
        groups[-1][1].extend(after)
        op_s += t
    if len(groups) > 1 and op_s < STRETCH_S / 2:
        ops, chunks = groups.pop()
        groups[-1][0].extend(ops)
        groups[-1][1].extend(chunks)
    return [t * ref_scale(chunks) for ops, chunks in groups for t in ops]


def measure(cli, deck, seconds: float, outcomes: Outcomes, host: HostSpeed):
    """Closed loop over the deck until `seconds` of op CPU time have
    passed; returns the CPU seconds of each op and of the reference chunks
    run after it."""
    latencies: list[float] = []
    chunks_after: list[list[float]] = []
    wall_start = time.perf_counter()
    for index, op in enumerate(deck):
        done = sum(latencies) >= seconds and index >= outcomes.prefix
        if done or time.perf_counter() - wall_start > WALL_CAP_S:
            break
        rc, stdout, elapsed = run_op(cli.main, op)
        latencies.append(elapsed.cpu)
        outcomes.record(index, op, rc, stdout)
        settle()
        chunks_after.append(host.keep_up(sum(latencies)))
    return latencies, chunks_after


def end_to_end(latencies: list[float], setup_s: float) -> dict:
    """Metrics from op and set-up times already scaled to the reference
    host speed."""
    deciles = statistics.quantiles(latencies, n=10)
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_cpu_s.norm": (len(latencies) / sum(latencies), "1/s"),
        "op_cpu_s.p50.norm": (statistics.median(latencies), "s"),
        "op_cpu_s.p90.norm": (deciles[8], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def traced(cli, deck, prefix: int, outcomes: Outcomes, spans_path: Path) -> dict:
    """One untraced and one traced pass over the deck's first ops."""
    ops = list(itertools.islice(deck, prefix))
    untraced_s = 0.0
    for index, op in enumerate(ops):
        rc, stdout, elapsed = run_op(cli.main, op)
        untraced_s += elapsed.wall
        outcomes.record(index, op, rc, stdout)
        settle()
    instances_before = outcomes.instances
    tracer = Tracer()
    tracer.install()
    try:
        traced_s = 0.0
        for index, op in enumerate(ops):
            rc, stdout, elapsed = run_op(functools.partial(tracer.run_op, index, cli.main), op)
            traced_s += elapsed.wall
            outcomes.record(prefix + index, op, rc, stdout)
            settle()
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["audit.instances"] = outcomes.instances - instances_before
    metrics["trace.ops"] = len(ops)
    metrics["trace.wall_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return {name: {"value": v, "unit": _unit(name)} for name, v in sorted(metrics.items())}


def _unit(name: str) -> str:
    if name.endswith("self_s") or name == "trace.wall_s":
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "modelio.bytes_out":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch_root = ROOT / ".bench_run"
    scratch_root.mkdir(exist_ok=True)
    outcomes = Outcomes(PREFIX_OPS)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        setup_times = []
        setup_host = HostSpeed(SETUP_REF_SHARE)
        for _ in range(SETUP_REPS):
            elapsed, cli, deck = setup(args.workload, args.seed, scratch)
            setup_times.append(elapsed)
            # Collect, not freeze: the earlier set-ups' modules are cyclic
            # garbage, which a freeze would keep for the rest of the run.
            gc.collect()
            setup_host.keep_up(sum(setup_times))
        settle()
        if args.trace:
            spans_path = scratch_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            metrics = traced(cli, deck, PREFIX_OPS, outcomes, spans_path)
        else:
            host = HostSpeed(REF_SHARE)
            latencies, chunks_after = measure(cli, deck, args.seconds, outcomes, host)
            scaled = scale_by_stretch(latencies, chunks_after)
            setup_scale = ref_scale(setup_host.chunks)
            metrics = end_to_end(scaled, statistics.median(setup_times) * setup_scale)
            print(f"reference chunk: mean {statistics.mean(host.chunks) * 1e3:.4f} ms "
                  f"over {len(host.chunks)}; op times scaled by {sum(scaled) / sum(latencies):.4f} "
                  f"on the whole, set-up times by {setup_scale:.4f}")

    print(f"workload {args.workload} seed {args.seed}: {outcomes.attempted} ops, "
          f"fail_ratio {outcomes.failed / outcomes.attempted:.4f}")
    print(f"digests of the first {PREFIX_OPS} ops: {json.dumps(outcomes.hexdigests(), sort_keys=True)}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
