"""structure-ladder: build each Lie model once and check bases on it.

One round is one pass over gl(k|k) k=1..5, q(k) k=2..8 and p(k) k=2..6.
Every family size appears once per pass, so nothing is reused across
calls; gl(5|5) is the tail operation.

* A: build the datum and the Lie model, check the default base
  (assisted mode).  Expected: accepted.
* B (gl(2..4|..), q(3..6), p(2..5)): the default base plus one seeded
  extra positive odd root, a dependent base.  Generation still holds,
  so the verdict is separation and multiplicity-one, recomputed from the
  root set.
* C (same sizes): the reversed order functional, its simple even roots,
  and the default odd base with roots that became negative negated.  The
  coordinate reversal carries the default base of gl(k|k) and q(k) onto
  this one, so both are accepted; for p(k) it carries 2e_k to 2e_1, not
  to the 2e_k kept here, and the base is rejected.
* For q(k): a seeded weight's Gram form on the odd Cartan in char 0, 3
  and 5, which must be diag(2 lam_i) reduced mod p.
"""

from __future__ import annotations

import random

from superroot import clifford, liesuper, rootdata

import reference as ref
from reference import expect

NAME = "structure-ladder"
LADDER = [("gl", (k, k)) for k in range(1, 6)]
LADDER += [("q", (k,)) for k in range(2, 9)]
LADDER += [("p", (k,)) for k in range(2, 7)]
DEPENDENT_MAX = {"gl": 4, "q": 6, "p": 5}
DEPENDENT_MIN = {"gl": 2, "q": 3, "p": 2}
TRACE_ROUNDS = 1
# Exactly two passes per run, whatever --seconds says: the tail percentile
# (ten samples beyond it) lands on a different operation for each pass
# count, and a pass takes 10-18 s on a shared 2-core machine, so a time
# bound would flip the count from run to run.
FIXED_ROUNDS = 2


def scale_name(family) -> str:
    """Scaling-row key: gl1 for gl(1|1), q5 for q(5), p3 for p(3)."""
    return "%s%d" % (family[0], family[1][0])


def setup(seed: int) -> dict:
    return {"seed": seed}


def _order(values):
    return rootdata.OrderFunctional.from_values(values)


def round_ops(state: dict, index: int):
    """Operations of one pass, as (name, run, check) triples."""
    rng = random.Random("%d/%d" % (state["seed"], index))
    ops = []
    for family in LADDER:
        kind, params = family
        k = params[0]
        model = {}

        def op_a(family=family, model=model):
            datum = getattr(rootdata, ref.BUILDERS[family[0]])(*family[1])
            L = liesuper.lie_algebra_for(datum)
            order = rootdata.default_order(datum)
            psi_even = rootdata.simple_even_roots(datum, order)
            report = liesuper.check_admissible_base(
                L, datum, order, psi_even, ref.default_psi_odd(family)
            )
            model.update(datum=datum, L=L)
            return report, L.basis_counts()

        def check_a(result, family=family):
            report, counts = result
            expect(report.ok, "%s: default base rejected: %r" % (ref.label(family), report.failures))
            expect(counts == ref.dims(family), "%s: basis counts %r" % (ref.label(family), counts))

        ops.append(("A:" + scale_name(family), op_a, check_a))

        if DEPENDENT_MIN[kind] <= k <= DEPENDENT_MAX[kind]:
            order = ref.default_order(family)
            base = ref.default_psi_odd(family)
            extra = rng.choice([g for g in ref.positive_odd(family, order) if g not in base])
            ops.append(_base_op("B:" + scale_name(family), family, model, order, base + [extra], None))
            rev = order[::-1]
            psi_odd = [g if ref.value(rev, g) > 0 else tuple(-c for c in g) for g in base]
            ops.append(_base_op("C:" + scale_name(family), family, model, rev, psi_odd, kind != "p"))

        if kind == "q":
            for char_p in (0, 3, 5):
                lam = tuple(rng.randint(-30, 30) for _ in range(k))
                ops.append(_gram_op(family, model, lam, char_p))
    return ops


def _base_op(name, family, model, order_values, psi_odd, expected_ok):
    psi_even = ref.simple_even(family, order_values)

    def run():
        return liesuper.check_admissible_base(
            model["L"], model["datum"], _order(order_values), psi_even, psi_odd
        )

    def check(report):
        sep = ref.separation(family, psi_even, psi_odd)
        mult = ref.multiplicity_one(family, psi_even, psi_odd)
        where = "%s %s" % (name, ref.label(family))
        expect(report.condition("separation") == sep, "%s: separation verdict" % where)
        expect(report.condition("multiplicity-one") == mult, "%s: multiplicity verdict" % where)
        if expected_ok is None:
            # A superset of an admissible base still generates.
            expect(report.ok == (sep and mult), "%s: verdict %r" % (where, report.ok))
        else:
            expect(report.ok == expected_ok, "%s: verdict %r" % (where, report.ok))

    return name, run, check


def _gram_op(family, model, lam, char_p):
    def run():
        form = clifford.gram_form(model["L"], lam, char_p)
        return form, clifford.u_lambda_dim_closed(form)

    def check(result):
        form, (dim, kind) = result
        diag = [2 * c % char_p if char_p else 2 * c for c in lam]
        want = tuple(
            tuple(diag[s] if s == t else 0 for t in range(len(lam))) for s in range(len(lam))
        )
        rank = sum(1 for v in diag if v)
        expect(form.gram == want, "gram form of %r in char %d" % (lam, char_p))
        expect(
            (dim, kind) == (2 ** ((rank + 1) // 2), "M" if rank % 2 == 0 else "Q"),
            "u_lambda of %r in char %d" % (lam, char_p),
        )

    return "G:%s/%d" % (scale_name(family), char_p), run, check


def scaling_rows(samples) -> dict:
    """ladder.<family>.ms from operation A latencies (median over passes)."""
    by_name = {}
    for name, latency, _failed in samples:
        if name.startswith("A:"):
            by_name.setdefault(name[2:], []).append(latency * 1000.0)
    rows = {}
    for family in LADDER:
        values = sorted(by_name.get(scale_name(family), [0.0]))
        rows["ladder.%s.ms" % scale_name(family)] = values[len(values) // 2]
    return rows
