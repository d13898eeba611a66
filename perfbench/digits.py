"""digit-stream: a seeded stream of Steinberg digit decompositions.

Bases are checked once, in set-up.  Each operation is one
``steinberg_decompose(..., validate_base=False)`` at the default search
radius.  One round is every small family at p=3 and p=5, twice, plus one
rank-7 gl(4|3) weight, whose (2R+1)^7 shift box makes the tail.  Weights
are flat (dominant for p(n)) with coordinates in [-30, 30].  Families
repeat across rounds, so a cross-call cache would show here and nowhere
else.

q(2), q(3) and q(4) are not in the timed stream: at the default radius
some of their flat weights raise DecompositionFailure, and the timed
stream holds only requests the program answers.  They are the known-defect
probe instead, a fixed seeded set of PROBE_ROUNDS weights per family and
prime whose failures the traced run reports as ``defects.failed``.
"""

from __future__ import annotations

import random

from superroot import liesuper, rootdata, steinberg

import reference as ref

NAME = "digit-stream"
SMALL = [
    ("gl", (1, 1)),
    ("gl", (2, 1)),
    ("gl", (2, 2)),
    ("gl", (3, 2)),
    ("p", (2,)),
    ("p", (3,)),
]
TAIL = ("gl", (4, 3))
PROBE = [("q", (2,)), ("q", (3,)), ("q", (4,))]
PRIMES = (3, 5)
TRACE_ROUNDS = 10
PROBE_ROUNDS = 40


def setup(seed: int) -> dict:
    """Build every timed family's model and check its default base once."""
    return {"seed": seed, "models": {family: _model(family) for family in SMALL + [TAIL]}}


def _model(family):
    datum = getattr(rootdata, ref.BUILDERS[family[0]])(*family[1])
    L = liesuper.lie_algebra_for(datum)
    order = rootdata.default_order(datum)
    psi_even = rootdata.simple_even_roots(datum, order)
    psi_odd = ref.default_psi_odd(family)
    report = liesuper.check_admissible_base(L, datum, order, psi_even, psi_odd)
    if not report.ok:
        raise ref.WrongAnswer("%s: default base rejected" % ref.label(family))
    return datum, L, order, psi_even, psi_odd


def round_ops(state: dict, index: int):
    rng = random.Random("%d/%d" % (state["seed"], index))
    slots = [(f, p) for _ in range(2) for f in SMALL for p in PRIMES]
    slots.append((TAIL, PRIMES[index % 2]))
    return [_decompose_op(state["models"][f], f, ref.flat_weight(rng, f, p), p) for f, p in slots]


def probe_ops(state: dict, index: int):
    """One weight of each q(n) family at each prime."""
    models = state["models"]
    for family in PROBE:
        if family not in models:
            models[family] = _model(family)
    rng = random.Random("probe/%d/%d" % (state["seed"], index))
    slots = [(f, p) for f in PROBE for p in PRIMES]
    return [_decompose_op(models[f], f, ref.flat_weight(rng, f, p), p) for f, p in slots]


def _decompose_op(model, family, lam, p):
    datum, L, order, psi_even, psi_odd = model

    def run():
        return steinberg.steinberg_decompose(
            datum, L, order, psi_even, psi_odd, lam, p, validate_base=False
        )

    def check(digits):
        ref.check_digits(family, lam, p, digits)

    return "%s/%d" % (ref.label(family), p), run, check
