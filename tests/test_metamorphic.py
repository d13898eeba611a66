"""Symmetries of the data must leave every verdict unchanged.

A permutation of the coordinates within the blocks (S_m x S_n on
gl(m|n), S_n on q(n) and p(n)) is the even Weyl group; negating every
weight is the automorphism X -> -X^st of gl(m|n) and of q(n).  Applied
to the order's values, the odd base and the weight at once, either maps
positive roots to positive roots, so the admissible-base check and the
restriction test must give the same verdicts, with the roots in their
texts moved by the same map.  p(n) has no negation: its odd roots are
not closed under it, and the negated base is refused.
"""

import re

from hypothesis import event, given, settings
from hypothesis import strategies as st

from superroot import lattice
from superroot.cli import default_psi_odd
from superroot.liesuper import check_admissible_base, lie_algebra_for
from superroot.rootdata import (
    Family,
    OrderFunctional,
    ParameterError,
    build_p,
    default_order,
    simple_even_roots,
)
from superroot.steinberg import is_flat, is_restricted

MODELS = [("gl", (m, n)) for m in (1, 2, 3) for n in (1, 2, 3)]
MODELS += [("q", (n,)) for n in (2, 3, 4)] + [("p", (n,)) for n in (2, 3, 4)]

RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=3)

TUPLE = re.compile(r"\((-?\d+(?:, -?\d+)+)\)")


def blocks(datum):
    """The coordinate blocks that the even Weyl group permutes."""
    if datum.family.kind == "gl":
        m, n = datum.family.params
        return [range(m), range(m, m + n)]
    return [range(datum.rank)]


def acting(perm, sign):
    """w -> sign * (w[perm[0]], w[perm[1]], ...)."""
    return lambda w: tuple(sign * w[i] for i in perm)


def moved(text, act):
    """The text with every integer tuple in it replaced by its image."""
    return TUPLE.sub(lambda m: repr(act(tuple(int(v) for v in m.group(1).split(", ")))), text)


def random_order(draw, datum):
    values = draw(st.lists(RATIONAL, min_size=datum.rank, max_size=datum.rank))
    order = OrderFunctional(tuple(values))
    if any(order.eval(root) == 0 for root in datum.all_roots()):
        return default_order(datum)
    return order


@st.composite
def requests(draw):
    """A model, an order and an odd base: the default pair, or a random
    rational order nonzero on every root with 0-3 of its positive odd
    roots, which often makes the base dependent."""
    kind, params = draw(st.sampled_from(MODELS))
    datum = Family(kind, params).build()
    if draw(st.booleans()):
        return datum, default_order(datum), default_psi_odd(datum)
    order = random_order(draw, datum)
    odd_pos = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0})
    psi_odd = draw(st.lists(st.sampled_from(odd_pos), max_size=3, unique=True))
    return datum, order, psi_odd


def moved_order(order, act):
    return OrderFunctional(act(order.values))


def admissible(datum, order, psi_odd, mode):
    return check_admissible_base(
        lie_algebra_for(datum), datum, order, simple_even_roots(datum, order), psi_odd, mode=mode
    )


@settings(max_examples=200, deadline=None)
@given(requests(), st.sampled_from(["assisted", "strict"]), st.data())
def test_admissible_check_is_invariant_under_the_even_weyl_group_and_negation(
    request, mode, data
):
    datum, order, psi_odd = request
    perm = [i for block in blocks(datum) for i in data.draw(st.permutations(block))]
    sign = data.draw(st.sampled_from([1] if datum.family.kind == "p" else [1, -1]))
    act = acting(perm, sign)
    image = moved_order(order, act)
    assert simple_even_roots(datum, image) == sorted(map(act, simple_even_roots(datum, order)))
    want = admissible(datum, order, psi_odd, mode)
    event("accepted" if want.ok else "refused")
    got = admissible(datum, image, [act(g) for g in psi_odd], mode)
    assert (got.ok, got.conditions, len(got.failures)) == (
        want.ok,
        want.conditions,
        len(want.failures),
    )
    assert sorted(got.failures) == sorted(moved(f, act) for f in want.failures)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4), st.data())
def test_negated_p_base_is_refused(n, data):
    # An order positive on some 2 e_i, and a base holding such a root:
    # -2 e_i is no root of p(n), so the negated base is refused.
    datum = build_p(n)
    order = random_order(data.draw, datum)
    if all(v < 0 for v in order.values):
        order = OrderFunctional(tuple(-v for v in order.values))
    odd_pos = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0})
    doubled = [r for r in odd_pos if max(r) == 2]
    psi_odd = [data.draw(st.sampled_from(doubled))]
    psi_odd += data.draw(st.lists(st.sampled_from(odd_pos), max_size=2))
    negated = sorted({lattice.neg(g) for g in psi_odd})
    odd_roots = {r for r, _ in datum.odd_roots}
    first = next(g for g in negated if g not in odd_roots)
    try:
        admissible(datum, moved_order(order, acting(range(n), -1)), negated, "assisted")
    except ParameterError as exc:
        assert str(exc) == "psi_odd root %r is not a positive odd root" % (first,)
    else:
        raise AssertionError("the negated base of p(%d) was accepted" % n)


def restriction(datum, order, psi_odd, lam, p, r, act, sign):
    """The per-root verdicts, or the refusal with its roots moved by act.
    Negation maps the Cartan subalgebra to its negative, so it negates
    the weight's value on each [K_alpha, K_alpha]: sign is applied to it."""
    try:
        report = is_restricted(
            datum, lie_algebra_for(datum), order, simple_even_roots(datum, order), psi_odd, lam, p, r
        )
    except lattice.SuperrootError as exc:
        head, _, tail = moved(str(exc), act).partition(": ")
        return type(exc).__name__, head, sorted(tail.split("; "))
    checks = {}
    for c in report.per_root:
        kform = None if c.kform_value is None else sign * c.kform_value
        checks[act(c.root)] = (c.kind, c.pairing, kform, c.bound, c.ok)
    return report.verdict, report.weakened, checks


@settings(max_examples=150, deadline=None)
@given(requests(), st.sampled_from([3, 5, 7]), st.integers(1, 2), st.data())
def test_restriction_verdicts_move_with_the_even_weyl_group_and_negation(
    request, p, r, data
):
    # On gl and q the precondition is flatness, which is read in the
    # standard coordinates: the map must keep the weight flat.  So the
    # weight is flat, and the permutation fixes it (with negation, it
    # reverses each block, so that -w0 lam is flat again).  On p(n) the
    # precondition is dominance under the order, which moves with it.
    datum, order, psi_odd = request
    if datum.family.kind == "p":
        lam = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=datum.rank, max_size=datum.rank)))
        perm = data.draw(st.permutations(range(datum.rank)))
        sign = 1
    else:
        values = [-p, 0, p, 2 * p] if datum.family.kind == "q" else [-2, -1, 0, 1, 2]
        lam = []
        for block in blocks(datum):
            drawn = data.draw(st.lists(st.sampled_from(values), min_size=len(block), max_size=len(block)))
            lam += sorted(drawn, reverse=True)
        lam = tuple(lam)
        assert is_flat(datum, p, lam)
        stabiliser = list(range(datum.rank))
        for block in blocks(datum):
            for value in sorted(set(lam[i] for i in block)):
                orbit = [i for i in block if lam[i] == value]
                for i, j in zip(orbit, data.draw(st.permutations(orbit))):
                    stabiliser[i] = j
        sign = data.draw(st.sampled_from([1, -1]))
        reverse = [i for block in blocks(datum) for i in (reversed(block) if sign < 0 else block)]
        perm = [stabiliser[i] for i in reverse]
    act = acting(perm, sign)
    if datum.family.kind != "p":
        assert is_flat(datum, p, act(lam))
    want = restriction(datum, order, psi_odd, lam, p, r, act, sign)
    event(want[0] if isinstance(want[0], str) else "verdicts")
    got = restriction(
        datum, moved_order(order, act), [act(g) for g in psi_odd], act(lam), p, r, lambda w: w, 1
    )
    assert got == want
