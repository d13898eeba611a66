"""superroot benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (one closed-loop client, one operation in flight):

* structure-ladder: Lie models and admissible-base checks, gl/q/p ladders.
* digit-stream: a seeded stream of Steinberg digit decompositions.
* cli-session: one cold ``superroot --json <verb>`` process at a time.

``--trace 0`` runs whole rounds until the operations' busy time reaches
``--seconds`` (or exactly the workload's FIXED_ROUNDS) and reports the
end-to-end metrics.  Latency percentiles cover every attempted
operation; ``op_tail_ms`` is the highest percentile with at least ten
samples beyond it.  ``setup_s`` is the median over fresh processes of
the time from spawn until the workload is ready for its first timed
operation.  The timed operations are requests the program answers: an
operation fails when the program gives no answer, and a failure in a
timed run is reported in ``failed``.

``--trace 1`` runs a fixed, seed-determined amount of work twice, each
operation once plain and once wrapped by the outside-in tracer, and
reports the per-layer metrics; call counts repeat exactly for a given
seed.  Spans are written to ``.perfbench_out/``.  The traced run also
runs the workload's known-defect probe, a fixed seeded set of requests
the program is known not to answer (q(n) decompositions, malformed CLI
requests), and reports how many of them went unanswered as
``defects.failed`` of ``defects.probed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any wrong answer
makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

from reference import NoAnswer, WrongAnswer
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "structure-ladder": "ladder",
    "digit-stream": "digits",
    "cli-session": "clisession",
}
SETUP_PROBES = 5
IMPORT_PROBES = 5
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10
CLI_VERBS = (
    "describe", "unimodular", "frobenius", "delta", "dims", "admissible",
    "restricted", "decompose", "flatcheck", "char", "verify-commutator",
)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in ("lattice.hnf", "lattice.in_lattice"):
        out.append((name + ".calls", "count", "lower"))
        out.append((name + ".self_s", "s", "lower"))
    out.append(("lattice.integer_kernel.self_s", "s", "lower"))
    out.append(("lattice.pair.calls", "count", "lower"))
    out.append(("rootdata.order_eval.calls", "count", "lower"))
    out.append(("rootdata.positive_system.calls", "count", "lower"))
    out.append(("rootdata.positive_system.self_s", "s", "lower"))
    out.append(("rootdata.builders.self_s", "s", "lower"))
    out.append(("liesuper.lie_algebra_for.self_s", "s", "lower"))
    out.append(("liesuper.super_commutator.calls", "count", "lower"))
    out.append(("liesuper.bracket_entries", "count", "lower"))
    out.append(("liesuper.bracket_useful_ratio", "ratio", "higher"))
    out.append(("liesuper.check_admissible_base.self_s", "s", "lower"))
    out.append(("liesuper.subalgebra_closure.calls", "count", "lower"))
    out.append(("liesuper.subalgebra_closure.self_s", "s", "lower"))
    out.append(("liesuper.bracket.calls", "count", "lower"))
    out.append(("clifford.gram_form.self_s", "s", "lower"))
    out.append(("clifford.form_rank.self_s", "s", "lower"))
    out.append(("steinberg.steinberg_decompose.self_s", "s", "lower"))
    out.append(("steinberg.flat_checks", "count", "lower"))
    out.append(("steinberg.flat_accept_ratio", "ratio", "higher"))
    out.append(("steinberg.digits_out", "count", "higher"))
    out.append(("steinberg.is_restricted.self_s", "s", "lower"))
    out.append(("steinberg.char_ring.self_s", "s", "lower"))
    out.append(("hyperalg.verify_commutator_formula.self_s", "s", "lower"))
    out.append(("hyperalg.comparisons", "count", "lower"))
    out.append(("cli.import_ms", "ms", "lower"))
    for verb in CLI_VERBS:
        out.append(("cli.process_ms." + verb, "ms", "lower"))
        out.append(("cli.main_ms." + verb, "ms", "lower"))
    import ladder

    for family in ladder.LADDER:
        out.append(("ladder.%s.ms" % ladder.scale_name(family), "ms", "lower"))
    out.append(("bench.attempted", "count", "higher"))
    out.append(("defects.probed", "count", "higher"))
    out.append(("defects.failed", "count", "lower"))
    out.append(("trace.untraced_ops_per_s", "1/s", "higher"))
    out.append(("trace.traced_ops_per_s", "1/s", "higher"))
    out.append(("trace.overhead_ops_per_s", "1/s", "higher"))
    out.append(("trace.spans", "count", "lower"))
    return out


class OpTimeout(Exception):
    """An in-process operation ran past OP_TIMEOUT_S."""


def _alarm(_signum, _frame):
    raise OpTimeout("operation exceeded %d s" % OP_TIMEOUT_S)


class Run:
    """Samples of one measured phase: (name, latency_s, failure or None)."""

    def __init__(self) -> None:
        signal.signal(signal.SIGALRM, _alarm)
        self.samples = []
        self.busy = 0.0
        self.wrong = []

    def execute(self, name, run, check, tracer=None) -> None:
        failure = None
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        if tracer:
            tracer.begin_op(name)
        start = time.perf_counter()
        try:
            result = run()
        except Exception as exc:  # any error is 'no answer'; recorded by type
            failure = type(exc).__name__
        finally:
            latency = time.perf_counter() - start
            if tracer:
                tracer.end_op()
            signal.setitimer(signal.ITIMER_REAL, 0)
        if failure is None:
            try:
                check(result)
            except NoAnswer:
                failure = "NoAnswer"
            except WrongAnswer as exc:
                self.wrong.append("%s: %s" % (name, exc))
        self.samples.append((name, latency, failure))
        self.busy += latency

    def rounds(self, ops_of_round, first: int, count: int, tracer=None) -> None:
        for index in range(first, first + count):
            gc.collect()  # the previous round's garbage is not this round's cost
            for name, run, check in ops_of_round(index):
                self.execute(name, run, check, tracer)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, f in self.samples if f)

    def ops_per_s(self) -> float:
        return (len(self.samples) - self.failed) / self.busy


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it (the maximum when there are
    fewer)."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - k - 1


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Spawn-to-ready time of one fresh process running the set-up."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes.
    return float(out.strip().splitlines()[-1]) - start


def end_to_end(mod, state, args):
    """(run, metrics) of a time-bounded, untraced run."""
    run = Run()
    index = 0
    fixed = getattr(mod, "FIXED_ROUNDS", None)
    while (index < fixed) if fixed else (run.busy < args.seconds):  # whole rounds only
        run.rounds(lambda i: mod.round_ops(state, i), index, 1)
        index += 1
    who = resource.RUSAGE_CHILDREN if mod.NAME == "cli-session" else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    latencies = [lat for _, lat, _ in run.samples]
    n = len(latencies)
    tail_s, pct, beyond = tail(latencies)
    print("rounds: %d, operations: %d, busy: %.3f s" % (index, n, run.busy))
    print("op_tail_ms is p%.2f of %d samples (%d beyond)" % (pct, n, beyond))
    _print_failures(run)
    return run, {
        "ops_per_s": run.ops_per_s(),
        "op_p50_ms": statistics.median(latencies) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def per_layer(mod, state, args):
    """(traced run, metrics) of a fixed amount of work, each operation run
    once plain and once traced."""
    cli = mod.NAME == "cli-session"
    rounds = mod.TRACE_ROUNDS
    if cli:
        ops = lambda i: mod.round_ops(state, i, in_process=True)
    else:
        ops = lambda i: mod.round_ops(state, i)
    values = {name: 0 if unit == "count" else 0.0 for name, unit, _ in per_layer_names()}

    if cli:
        children = Run()
        children.rounds(lambda i: mod.round_ops(state, i), 0, rounds)
        values.update(_by_verb("cli.process_ms.", children))
        values["cli.import_ms"] = statistics.median(mod.import_ms(state) for _ in range(IMPORT_PROBES))
        Run().rounds(ops, 0, 1)  # first in-process calls pay one-off imports
    # Each operation runs plain and traced back to back, in alternating
    # order, so that drift in machine speed hits both sides alike.
    plain, traced, tracer = Run(), Run(), Tracer()
    for index in range(rounds):
        gc.collect()
        for k, (name, run, check) in enumerate(ops(index)):
            for side in ((plain, traced) if k % 2 == 0 else (traced, plain)):
                if side is plain:
                    plain.execute(name, run, check)
                    continue
                tracer.install()
                try:
                    traced.execute(name, run, check, tracer)
                finally:
                    tracer.uninstall()
    # The known-defect probe runs traced too, outside the traced run's
    # operations: its unanswered requests are counted, not failed.
    probe = None
    if hasattr(mod, "probe_ops"):
        probe = Run()
        tracer.install()
        try:
            probe.rounds(lambda i: mod.probe_ops(state, i), 0, mod.PROBE_ROUNDS, tracer)
        finally:
            tracer.uninstall()
        values["defects.probed"] = len(probe.samples)
        values["defects.failed"] = probe.failed
    if mod.NAME == "structure-ladder":
        values.update(mod.scaling_rows(plain.samples))
    if cli:
        values.update(_by_verb("cli.main_ms.", plain))

    counts, selfs = tracer.counts, tracer.self_times()
    for name, _unit, _better in per_layer_names():
        base = name.rsplit(".", 1)[0]
        if name.endswith(".calls") or name in counts:
            values[name] = counts.get(name, 0)
        elif name.endswith(".self_s") and base.count(".") == 1:
            values[name] = selfs.get(base, 0.0)
    commutators = counts["liesuper.super_commutator.calls"]
    values["liesuper.bracket_useful_ratio"] = (
        counts["liesuper.bracket_entries"] / commutators if commutators else 0.0
    )
    checks = counts["steinberg.flat_checks.calls"]
    values["steinberg.flat_checks"] = checks
    values["steinberg.flat_accept_ratio"] = counts["steinberg.flat_accepts"] / checks if checks else 0.0
    values["bench.attempted"] = len(traced.samples)
    values["trace.untraced_ops_per_s"] = plain.ops_per_s()
    values["trace.traced_ops_per_s"] = traced.ops_per_s()
    values["trace.overhead_ops_per_s"] = traced.ops_per_s() - plain.ops_per_s()
    values["trace.spans"] = len(tracer.spans)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(
        os.path.join(out_dir, "trace-%s-seed%d.json" % (mod.NAME, args.seed)),
        {"workload": mod.NAME, "seed": args.seed, "rounds": rounds},
    )
    untraced_failures = [(n, f) for n, _, f in plain.samples]
    if untraced_failures != [(n, f) for n, _, f in traced.samples]:
        traced.wrong.append("traced and untraced runs disagree on which operations fail")
    _print_failures(traced)
    if probe is not None:
        print("known-defect probe: %d of %d requests unanswered" % (probe.failed, len(probe.samples)))
        _print_failures(probe)
        traced.wrong.extend(probe.wrong)
    print("tracing overhead: %.4f ops/s (traced %.4f, untraced %.4f)" % (
        values["trace.overhead_ops_per_s"], traced.ops_per_s(), plain.ops_per_s()))
    return traced, values


def _by_verb(prefix, run) -> dict:
    by_verb = {}
    for name, latency, _ in run.samples:
        by_verb.setdefault(name, []).append(latency * 1000.0)
    return {prefix + verb: statistics.median(v) for verb, v in by_verb.items()}


def _print_failures(run) -> None:
    kinds = {}
    for name, _, failure in run.samples:
        if failure:
            key = "%s %s" % (name.split(":")[0], failure)
            kinds[key] = kinds.get(key, 0) + 1
    for key in sorted(kinds):
        print("failed: %s x%d" % (key, kinds[key]))
    for message in run.wrong[:20]:
        print("WRONG: " + message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "superroot", "__init__.py")):
        print("no superroot sources under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.pop("SUPERROOT_SEARCH_RADIUS", None)
    sys.path.insert(0, SRC)
    mod = importlib.import_module(WORKLOADS[args.workload])

    state = mod.setup(args.seed)
    try:
        if args.setup_probe:
            print(repr(time.perf_counter()))
            return 0
        if args.trace:
            run, metrics = per_layer(mod, state, args)
            units = {name: unit for name, unit, _ in per_layer_names()}
        else:
            run, metrics = end_to_end(mod, state, args)
            metrics["setup_s"] = statistics.median(
                setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)
            )
            units = dict(END_TO_END)
    finally:
        if hasattr(mod, "teardown"):
            mod.teardown(state)

    for name in units:
        print("%-44s %14.6f %s" % (name, metrics[name], units[name]))
    result = {
        "correct": not run.wrong,
        "attempted": len(run.samples),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
