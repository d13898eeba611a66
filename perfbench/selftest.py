"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

* each tracer binding, re-imported names included, fires on the
  workload meant to exercise it;
* call counters repeat exactly for the same seed, and no timed
  operation fails;
* the known-defect probes fail on the same requests for the same seed;
* the gate's references agree with the library on random inputs, and
  the gate rejects a corrupted answer;
* BENCHMARK.json lists exactly the metrics run.py reports, and the
  cli-session round covers every verb of the CLI parser.
"""

from __future__ import annotations

import json
import os
import random
import sys

import run as bench

sys.path.insert(0, bench.SRC)

import clisession  # noqa: E402
import digits  # noqa: E402
import ladder  # noqa: E402
import reference as ref  # noqa: E402
from superroot import cli, liesuper, rootdata, steinberg  # noqa: E402
from tracer import Tracer  # noqa: E402

# Bindings each workload must reach, by the module name callers use.
EXPECTED = {
    ladder: [
        "lattice.hnf", "lattice.integer_kernel", "lattice.in_lattice", "lattice.pair",
        "rootdata.build_gl", "rootdata.OrderFunctional.eval", "liesuper.positive_system",
        "liesuper.lie_algebra_for", "liesuper.check_admissible_base",
        "liesuper.subalgebra_closure", "liesuper.super_commutator",
        "liesuper.LieSuperAlgebra.bracket", "liesuper.LieSuperAlgebra.__init__",
        "clifford.gram_form", "clifford.form_rank", "clifford.eval_weight_on_cartan",
    ],
    digits: [
        "steinberg.steinberg_decompose", "steinberg.positive_system", "steinberg.K_alpha",
        "steinberg.is_flat", "steinberg.is_dominant", "lattice.pair",
    ],
    clisession: [
        "steinberg.check_admissible_base", "steinberg.is_restricted", "steinberg.char_mul",
        "steinberg.char_add", "steinberg.frobenius_twist", "steinberg.steinberg_character",
        "hyperalg.verify_commutator_formula", "rootdata.build_gl", "rootdata.build_q",
        "rootdata.build_p", "liesuper.lie_algebra_for",
    ],
}
EXACT = (
    "rootdata.order_eval.calls", "liesuper.super_commutator.calls", "liesuper.bracket_entries",
    "lattice.hnf.calls", "rootdata.positive_system.calls", "steinberg.flat_checks.calls",
    "steinberg.digits_out", "hyperalg.comparisons",
)


def traced_round(mod, seed: int):
    state = mod.setup(seed)
    try:
        ops = mod.round_ops(state, 0, in_process=True) if mod is clisession else mod.round_ops(state, 0)
        tracer, run = Tracer(), bench.Run()
        tracer.install()
        try:
            for name, fn, check in ops:
                run.execute(name, fn, check, tracer)
            if mod is digits:  # traced in the benchmark's traced run too
                bench.Run().rounds(lambda i: digits.probe_ops(state, i), 0, 1, tracer)
        finally:
            tracer.uninstall()
    finally:
        if mod is clisession:
            clisession.teardown(state)
    assert not run.wrong, run.wrong
    return tracer, run


def check_tracer() -> None:
    for mod, bindings in EXPECTED.items():
        tracer, run = traced_round(mod, 7)
        hits = {k: v for k, v in tracer.binding_hits.items() if v}
        for binding in bindings:
            assert hits.get(binding), "%s never fired on %s" % (binding, mod.NAME)
        again, run2 = traced_round(mod, 7)
        for key in EXACT:
            assert tracer.counts[key] == again.counts[key], (mod.NAME, key)
        assert run.failed == run2.failed == 0, (mod.NAME, run.failed, run2.failed)
        print("tracer: %s ok (%d bindings fired)" % (mod.NAME, len(hits)))


def check_probes() -> None:
    for mod in (digits, clisession):
        outcomes = []
        for _ in range(2):
            state = mod.setup(7)
            try:
                run = bench.Run()
                run.rounds(lambda i: mod.probe_ops(state, i), 0, 1)
            finally:
                if mod is clisession:
                    clisession.teardown(state)
            assert not run.wrong, run.wrong
            outcomes.append([(name, failure) for name, _, failure in run.samples])
        assert outcomes[0] == outcomes[1], mod.NAME
        print("probe: %s ok (%d of %d unanswered)" % (
            mod.NAME, sum(1 for _, f in outcomes[0] if f), len(outcomes[0])))


FAMILIES = [
    ("gl", (1, 1)), ("gl", (2, 1)), ("gl", (2, 3)), ("q", (2,)), ("q", (4,)), ("p", (2,)), ("p", (4,)),
]


def check_references() -> None:
    rng = random.Random(11)
    for family in FAMILIES:
        datum = getattr(rootdata, ref.BUILDERS[family[0]])(*family[1])
        even, odd = ref.roots(family)
        assert sorted(even) == sorted(r for r, _ in datum.even_roots), family
        assert odd == dict(datum.odd_roots), family
        assert ref.dims(family) == (datum.n_even, datum.n_odd), family
        assert ref.odd_root_sum(family) == rootdata.odd_root_sum(datum), family
        order = rootdata.default_order(datum)
        assert list(order.values) == ref.default_order(family), family
        assert ref.simple_even(family, ref.default_order(family)) == rootdata.simple_even_roots(datum, order)
        reversed_order = rootdata.OrderFunctional.from_values(ref.default_order(family)[::-1])
        assert ref.simple_even(family, ref.default_order(family)[::-1]) == rootdata.simple_even_roots(
            datum, reversed_order
        )
        L = liesuper.lie_algebra_for(datum)
        psi_even = rootdata.simple_even_roots(datum, order)
        psi_odd = ref.default_psi_odd(family)
        assert psi_odd == cli.default_psi_odd(datum), family
        for _ in range(40):
            p, r = rng.choice((3, 5)), rng.randint(1, 2)
            lam = ref.flat_weight(rng, family, p, span=2 * p**r)
            report = steinberg.is_restricted(
                datum, L, order, psi_even, psi_odd, lam, p, r, validate_base=False
            )
            assert report.verdict == ref.restricted(family, lam, p, r), (family, lam, p, r)
            raw = tuple(rng.randint(-4, 4) for _ in lam)
            if family[0] == "p":
                assert ref.flat(family, raw, p) == steinberg.is_dominant(datum, order, raw)
            else:
                assert ref.flat(family, raw, p) == steinberg.is_flat(datum, p, raw), (family, raw)
    try:
        ref.check_digits(("gl", (1, 1)), (4, -2), 3, [(1, 1), (1, 0)])
    except ref.WrongAnswer:
        pass
    else:
        raise AssertionError("a corrupted decomposition passed the gate")
    ref.check_digits(("gl", (1, 1)), (4, -2), 3, [(1, 1), (1, -1)])
    print("references: ok")


def check_declarations() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == bench.per_layer_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
    verbs = set(cli.make_parser()._subparsers._group_actions[0].choices)
    assert verbs == set(bench.CLI_VERBS), verbs
    state = {"seed": 1}
    covered = {verb for verb, _, check in clisession.round_requests(state, 0) if check}
    assert covered == verbs, verbs - covered
    print("declarations: ok")


if __name__ == "__main__":
    check_declarations()
    check_references()
    check_tracer()
    check_probes()
    print("selftest: ok")
