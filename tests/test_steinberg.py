import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import reference_decompose, shift_boxes
from superroot import lattice, steinberg
from superroot.cli import default_psi_odd
from superroot.clifford import gram_form
from superroot.lattice import DimensionMismatch
from superroot.liesuper import gl_superalgebra, lie_algebra_for, q_superalgebra
from superroot.rootdata import (
    OrderFunctional,
    ParameterError,
    build_gl,
    build_p,
    build_q,
    default_order,
    simple_even_roots,
)
from superroot.steinberg import (
    CharacterElement,
    DecompositionFailure,
    FlatnessError,
    UnsupportedFamilyError,
    char_add,
    char_from_json,
    char_mul,
    char_to_json,
    frobenius_twist,
    is_dominant,
    is_flat,
    is_restricted,
    steinberg_character,
    steinberg_decompose,
    upsilon_leading,
    _shifts,
)


def setup_family(datum, psi_odd=None):
    order = default_order(datum)
    L = lie_algebra_for(datum)
    psi_even = simple_even_roots(datum, order)
    if psi_odd is None:
        psi_odd = psi_even
    return datum, L, order, psi_even, psi_odd


GL11 = setup_family(build_gl(1, 1), psi_odd=[(1, -1)])
GL21 = setup_family(build_gl(2, 1), psi_odd=[(0, 1, -1)])
Q2 = setup_family(build_q(2))


def gl11_closed_form(lam, p):
    """Independent digit expansion: canonical residues while the remainder
    shrinks, one signed terminal digit otherwise."""
    digits = []
    mu = tuple(lam)
    while any(mu):
        if max(abs(c) for c in mu) == 1 and any(c == -1 for c in mu):
            digits.append(mu)
            break
        d = tuple(c % p for c in mu)
        digits.append(d)
        mu = tuple((c - dc) // p for c, dc in zip(mu, d))
    return digits


# -- dominance and flatness ---------------------------------------------------


def test_dominant_gl21():
    d = build_gl(2, 1)
    assert is_dominant(d, default_order(d), (3, 1, -5)) is True


def test_dominant_zero():
    d = build_q(3)
    assert is_dominant(d, default_order(d), (0, 0, 0)) is True


def test_dominant_q2_negative():
    d = build_q(2)
    assert is_dominant(d, default_order(d), (-1, 0)) is False


def test_flat_q2_examples():
    assert is_flat(build_q(2), 3, (1, -2)) is True
    assert is_flat(build_q(2), 3, (1, 1)) is False
    assert is_flat(build_q(3), 3, (3, 3, 0)) is True


def test_flat_gl_blockwise():
    d = build_gl(2, 2)
    assert is_flat(d, 3, (5, 1, 7, 0)) is True
    assert is_flat(d, 3, (1, 5, 7, 0)) is False


def test_flat_char_zero_equal_coordinates():
    assert is_flat(build_q(2), 0, (0, 0)) is True
    assert is_flat(build_q(2), 0, (2, 2)) is False


def test_flat_unsupported_family():
    with pytest.raises(UnsupportedFamilyError):
        is_flat(build_p(2), 3, (1, 0))


# -- restriction ----------------------------------------------------------------


def test_restricted_q2_worked_example():
    d, L, order, pe, po = Q2
    rep = is_restricted(d, L, order, pe, po, (1, -2), 3, 2)
    assert rep.verdict is True
    assert rep.weakened is False
    (check,) = rep.per_root
    assert check.kind == "shared"
    assert check.pairing == 3
    assert check.kform_value == -2
    assert check.bound == 9


def test_restricted_q2_r1_boundary():
    d, L, order, pe, po = Q2
    rep = is_restricted(d, L, order, pe, po, (1, -2), 3, 1)
    assert rep.verdict is True  # pairing 3 <= p^1 since 3 does not divide -2
    (check,) = rep.per_root
    assert check.bound == 3


def test_restricted_even_only_bound():
    d, L, order, pe, po = GL21
    for p in (3, 5):
        rep = is_restricted(d, L, order, pe, po, (p, 0, 0), p, 1)
        assert rep.verdict is False
        even_check = [c for c in rep.per_root if c.kind == "even-only"][0]
        assert even_check.pairing == p and even_check.bound == p - 1


def test_restricted_zero_weight():
    d, L, order, pe, po = GL21
    for p, r in ((3, 1), (5, 2)):
        assert is_restricted(d, L, order, pe, po, (0, 0, 0), p, r).verdict is True


def test_restricted_monotone_in_r():
    d, L, order, pe, po = Q2
    rng = random.Random(5)
    for _ in range(60):
        lam = (rng.randint(-9, 9), rng.randint(-9, 9))
        if not is_flat(d, 3, lam):
            continue
        for r in (1, 2, 3):
            if is_restricted(d, L, order, pe, po, lam, 3, r).verdict:
                assert is_restricted(d, L, order, pe, po, lam, 3, r + 1).verdict


def test_restricted_rejects_nonflat():
    d, L, order, pe, po = Q2
    with pytest.raises(FlatnessError):
        is_restricted(d, L, order, pe, po, (1, 1), 3, 1)


def test_restricted_weakened_flag_for_p_family():
    d = build_p(2)
    L = lie_algebra_for(d)
    order = default_order(d)
    pe = simple_even_roots(d, order)
    rep = is_restricted(d, L, order, pe, [(0, 2)], (1, 0), 3, 1)
    assert rep.weakened is True
    assert rep.verdict is True


# -- decomposition ----------------------------------------------------------------


def test_decompose_gl11_spec_example():
    d, L, order, pe, po = GL11
    assert steinberg_decompose(d, L, order, pe, po, (4, -2), 3) == [(1, 1), (1, -1)]


def test_decompose_q2_already_restricted():
    d, L, order, pe, po = Q2
    assert steinberg_decompose(d, L, order, pe, po, (1, -2), 3) == [(1, -2)]


def test_decompose_zero():
    d, L, order, pe, po = Q2
    assert steinberg_decompose(d, L, order, pe, po, (0, 0), 3) == []


def test_decompose_gl11_matches_closed_form_grid():
    d, L, order, pe, po = GL11
    for p in (3, 5):
        for a in range(-20, 21, 2):
            for b in range(-20, 21, 3):
                got = steinberg_decompose(d, L, order, pe, po, (a, b), p)
                assert got == gl11_closed_form((a, b), p)
                total = (0, 0)
                for i, digit in enumerate(got):
                    total = (
                        total[0] + p**i * digit[0],
                        total[1] + p**i * digit[1],
                    )
                assert total == (a, b)


def test_decompose_gl11_brute_force_small():
    # enumerate every digit sequence over the candidate boxes and check the
    # returned one is valid and present
    d, L, order, pe, po = GL11
    p = 3

    def all_decompositions(lam, depth):
        if lam == (0, 0):
            return [[]]
        if depth == 0:
            return []
        out = []
        res = tuple(c % p for c in lam)
        for k0 in range(-2, 3):
            for k1 in range(-2, 3):
                digit = (res[0] + p * k0, res[1] + p * k1)
                nxt = tuple((c - dc) // p for c, dc in zip(lam, digit))
                for tail in all_decompositions(nxt, depth - 1):
                    out.append([digit] + tail)
        return out

    for lam in [(-6, 5), (4, -2), (2, 2), (-1, -1), (5, 0)]:
        got = steinberg_decompose(d, L, order, pe, po, lam, p)
        assert list(got) in all_decompositions(lam, 3)


def test_decompose_digit_congruence_and_restriction():
    d, L, order, pe, po = Q2
    rng = random.Random(17)
    for p in (3, 5):
        done = 0
        while done < 40:
            lam = tuple(sorted((rng.randint(-30, 30), rng.randint(-30, 30)), reverse=True))
            if not is_flat(d, p, lam):
                continue
            done += 1
            try:
                digits = steinberg_decompose(d, L, order, pe, po, lam, p)
            except DecompositionFailure:
                continue
            assert tuple(c % p for c in digits[0]) == tuple(c % p for c in lam)
            assert any(digits[-1])  # the last digit is a nonzero remainder
            total = (0, 0)
            for i, digit in enumerate(digits):
                rep = is_restricted(
                    d, L, order, pe, po, digit, p, 1, validate_base=False
                )
                assert rep.verdict
                total = (total[0] + p**i * digit[0], total[1] + p**i * digit[1])
            assert total == lam


def test_decompose_skips_a_state_known_to_fail(monkeypatch):
    # This search reaches a (remainder, digit budget) pair that has
    # already failed; the memo skips it, saving 11 of 69 flatness tests.
    d, L, order, pe, po = Q2
    calls = []
    flat = steinberg.is_flat
    monkeypatch.setattr(steinberg, "is_flat", lambda *a: calls.append(a) or flat(*a))
    digits = steinberg_decompose(d, L, order, pe, po, (-15, -39), 3, radius=1)
    assert digits == [(-3, -3), (-1, -3), (-1, -3)]
    assert len(calls) == 58


def test_decompose_failure_carries_frontier():
    # radius 0 forbids every non-canonical lift, so negative weights fail:
    # (0,-1) has no lift that approaches zero, then (0,-2) is exhausted
    d, L, order, pe, po = GL11
    with pytest.raises(DecompositionFailure) as err:
        steinberg_decompose(d, L, order, pe, po, (0, -2), 3, radius=0)
    assert isinstance(err.value.frontier, list)
    assert (0, -2) in err.value.frontier
    assert err.value.frontier == [(0, -1), (0, -2)]


def test_decompose_env_radius(monkeypatch):
    # The radius comes from the argument only: SUPERROOT_SEARCH_RADIUS,
    # which the search once read when radius was None, changes nothing.
    d, L, order, pe, po = GL11
    for env in ("0", "abc"):
        monkeypatch.setenv("SUPERROOT_SEARCH_RADIUS", env)
        assert steinberg_decompose(d, L, order, pe, po, (4, -2), 3) == [(1, 1), (1, -1)]
        assert steinberg_decompose(d, L, order, pe, po, (0, -2), 3) == [(0, 1), (0, -1)]
        with pytest.raises(DecompositionFailure):
            steinberg_decompose(d, L, order, pe, po, (0, -2), 3, radius=0)


@pytest.mark.parametrize("radius, env, message", [
    (-1, None, "radius must be >= 0, got -1"),
    (-3, "2", "radius must be >= 0, got -3"),
    (None, "-1", None),
    (None, "abc", None),
    (None, "1.5", None),
], ids=["arg-negative", "arg-over-env", "env-negative", "env-word", "env-fraction"])
def test_decompose_rejects_bad_radius(monkeypatch, radius, env, message):
    # Only the argument sets the radius; a malformed SUPERROOT_SEARCH_RADIUS
    # (message None) is ignored and the default radius 2 answers.
    d, L, order, pe, po = GL11
    if env is None:
        monkeypatch.delenv("SUPERROOT_SEARCH_RADIUS", raising=False)
    else:
        monkeypatch.setenv("SUPERROOT_SEARCH_RADIUS", env)
    if message is None:
        got = steinberg_decompose(d, L, order, pe, po, (4, -2), 3, radius=radius)
        assert got == [(1, 1), (1, -1)]
        return
    with pytest.raises(ParameterError) as err:
        steinberg_decompose(d, L, order, pe, po, (4, -2), 3, radius=radius)
    assert str(err.value) == message


def test_decompose_rejects_nonflat():
    d, L, order, pe, po = Q2
    with pytest.raises(FlatnessError):
        steinberg_decompose(d, L, order, pe, po, (0, 1), 3)


def test_restricted_and_decompose_name_the_same_precondition():
    # One set-up checks the weight for both: flatness where the family has
    # a flat rule (gl, q), dominance otherwise (p).
    cases = [
        (GL21, (0, 1, 0), "flatness"),
        (Q2, (0, 1), "flatness"),
        (setup_family(build_p(2), default_psi_odd(build_p(2))), (0, 1), "dominance"),
    ]
    for (d, L, order, pe, po), lam, rule in cases:
        message = "weight %r fails the %s precondition" % (lam, rule)
        with pytest.raises(FlatnessError) as err:
            is_restricted(d, L, order, pe, po, lam, 3, 1)
        assert str(err.value) == message
        with pytest.raises(FlatnessError) as err:
            steinberg_decompose(d, L, order, pe, po, lam, 3)
        assert str(err.value) == message


def test_decompose_radius_extends_reach():
    # (15,13) at p=5 needs a digit five boxes away from the canonical lift
    d, L, order, pe, po = Q2
    with pytest.raises(DecompositionFailure) as err:
        steinberg_decompose(d, L, order, pe, po, (15, 13), 5, radius=2)
    # no lift of (15,13) within radius 2 passes, so the root level is exhausted
    assert err.value.frontier == [(15, 13)]
    digits = steinberg_decompose(d, L, order, pe, po, (15, 13), 5, radius=3)
    total = (0, 0)
    for i, digit in enumerate(digits):
        total = (total[0] + 5**i * digit[0], total[1] + 5**i * digit[1])
    assert total == (15, 13)


# -- the lazy shift order against the eager shift box --------------------------------


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_shifts_full_window_is_the_sorted_box(rank, radius):
    assert list(_shifts([(-radius, radius)] * rank)) == shift_boxes(rank, radius)


@given(st.integers(0, 3).flatmap(lambda radius: st.tuples(
    st.just(radius),
    st.lists(
        st.tuples(st.integers(-radius, radius), st.integers(-radius, radius)),
        min_size=1,
        max_size=4,
    ),
)))
def test_shifts_window_is_the_filtered_box(case):
    # A window (lo, hi) with lo > hi is empty, and then so is the result.
    radius, windows = case
    expected = [
        s for s in shift_boxes(len(windows), radius)
        if all(lo <= k <= hi for k, (lo, hi) in zip(s, windows))
    ]
    assert list(_shifts(windows)) == expected


DIFFERENTIAL = [
    setup_family(datum, default_psi_odd(datum))
    for datum in (
        build_gl(1, 1), build_gl(2, 1), build_gl(2, 2), build_gl(3, 2),
        build_p(2), build_p(3), build_q(2), build_q(3),
    )
]


def _traced_outcome(decompose, model, lam, p, radius):
    """The digits, or the exception's type and message, and every
    flatness test and pairing the search made, in order."""
    calls = []
    pair, flat = lattice.pair, steinberg.is_flat

    def traced_pair(w, cov):
        calls.append(("pair", w, cov))
        return pair(w, cov)

    def traced_flat(datum, p, w):
        calls.append(("flat", w))
        return flat(datum, p, w)

    with mock.patch.object(lattice, "pair", traced_pair), mock.patch.object(
        steinberg, "is_flat", traced_flat
    ), mock.patch.object(oracles, "is_flat", traced_flat):
        try:
            result = decompose(*model, lam, p, radius=radius, validate_base=False)
        except ValueError as exc:  # compared by type and message
            result = type(exc), str(exc)
    return result, calls


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(range(len(DIFFERENTIAL))),
    st.lists(st.integers(-30, 30), min_size=5, max_size=5),
    st.booleans(),
    st.sampled_from([3, 5, 7]),
    st.integers(0, 3),
)
def test_decompose_matches_eager_reference(index, coords, flat, p, radius):
    # Sorting each block makes the weight flat for gl(m|n), dominant for
    # p(n), and decreasing (mostly flat) for q(n); unsorted weights
    # exercise the precondition failures.  Both searches must also test
    # the same candidates in the same order: the reference skips a shift
    # whose remainder does not approach zero before testing it, and the
    # lazy search never generates one.
    model = DIFFERENTIAL[index]
    datum = model[0]
    lam = tuple(coords[: datum.rank])
    if flat:
        cut = datum.family.params[0] if datum.family.kind == "gl" else datum.rank
        lam = tuple(sorted(lam[:cut], reverse=True)) + tuple(sorted(lam[cut:], reverse=True))
    got = _traced_outcome(steinberg_decompose, model, lam, p, radius)
    assert got == _traced_outcome(reference_decompose, model, lam, p, radius)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(range(len(DIFFERENTIAL))),
    st.lists(st.integers(-30, 30), min_size=5, max_size=5),
    st.sampled_from([3, 5, 7]),
    st.integers(1, 2),
)
def test_restricted_matches_reference_bound(index, coords, p, r):
    # Each per-root entry is the pairing with the coroot and the bound rule
    # written out as the reference has it; the verdict is their conjunction.
    d, L, order, pe, po = DIFFERENTIAL[index]
    lam = tuple(coords[: d.rank])
    cut = d.family.params[0] if d.family.kind == "gl" else d.rank
    lam = tuple(sorted(lam[:cut], reverse=True)) + tuple(sorted(lam[cut:], reverse=True))
    try:
        report = is_restricted(d, L, order, pe, po, lam, p, r, validate_base=False)
    except FlatnessError:
        return
    rows = steinberg._restriction_rows(d, L, pe, po)
    assert len(report.per_root) == len(rows)
    for check, (alpha, coroot, kvec) in zip(report.per_root, rows):
        kval, bound = oracles._reference_bound(lam, kvec, p, p**r)
        pairing = lattice.pair(lam, coroot)
        assert check == steinberg.PerRootCheck(
            alpha, "even-only" if kvec is None else "shared", pairing, kval, bound,
            pairing <= bound,
        )
    assert report.verdict == all(c.ok for c in report.per_root)


# -- character ring ----------------------------------------------------------------


def e(*coords):
    return CharacterElement.monomial(tuple(coords))


def test_char_mul_identity():
    a = e(2, -1)
    assert char_mul(a, e(0, 0)) == a


def test_char_mul_single_terms():
    assert char_mul(e(1, 2), e(3, -1)) == e(4, 1)


def test_char_distributivity():
    a = char_add(e(1, 0), e(0, 1))
    assert char_mul(a, e(2, 2)) == char_add(e(3, 2), e(2, 3))


def test_char_rank_mismatch():
    with pytest.raises(DimensionMismatch):
        char_mul(e(1, 0), e(1, 0, 0))


def test_twist_examples():
    a = char_add(e(1, 0), char_add(e(0, 1), e(0, 1)))
    assert frobenius_twist(a, 3, 0) == a
    twisted = frobenius_twist(a, 3, 1)
    assert twisted.as_dict() == {(3, 0): 1, (0, 3): 2}


def test_twist_composition_and_ring_hom():
    rng = random.Random(23)
    for _ in range(100):
        rank = rng.randint(1, 3)
        def rand_char():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                w = tuple(rng.randint(-6, 6) for _ in range(rank))
                terms[w] = terms.get(w, 0) + rng.randint(-3, 3)
            return CharacterElement.from_dict(rank, terms)
        a, b = rand_char(), rand_char()
        p = rng.choice((3, 5))
        assert frobenius_twist(frobenius_twist(a, p, 1), p, 2) == frobenius_twist(a, p, 3)
        assert frobenius_twist(char_mul(a, b), p, 1) == char_mul(
            frobenius_twist(a, p, 1), frobenius_twist(b, p, 1)
        )
        assert frobenius_twist(char_add(a, b), p, 1) == char_add(
            frobenius_twist(a, p, 1), frobenius_twist(b, p, 1)
        )


def test_steinberg_character_single():
    a = char_add(e(1, 0), e(0, 1))
    assert steinberg_character([a], 3) == a


def test_steinberg_character_monomials():
    out = steinberg_character([e(1, -2), e(1, -1)], 3)
    assert out == e(4, -5)


def test_steinberg_character_total_dim():
    a = char_add(e(1, 0), e(0, 1))
    b = char_add(e(2, 0), char_add(e(1, 1), e(0, 2)))
    out = steinberg_character([a, b], 3)
    assert out.total_dim() == a.total_dim() * b.total_dim()


def test_upsilon_leading():
    order = OrderFunctional.from_values([-1, -2])
    ch = char_add(e(1, 0), e(0, 1))
    # eval(1,0) = -1 > eval(0,1) = -2
    assert upsilon_leading(ch, order) == ((1, 0), 1)
    with pytest.raises(ParameterError):
        # (2,0) and (0,1) both evaluate to -2: a genuine tie
        upsilon_leading(char_add(e(2, 0), e(0, 1)), order)


def test_upsilon_leading_evaluates_each_term_once(monkeypatch):
    order = OrderFunctional.from_values([-1, -2])
    ch = CharacterElement.from_dict(2, {(k, -k): k + 1 for k in range(50)})
    seen = []
    real_eval = OrderFunctional.eval
    monkeypatch.setattr(
        OrderFunctional, "eval", lambda self, w: seen.append(w) or real_eval(self, w)
    )
    # eval(k, -k) = k, so the last term leads.
    assert upsilon_leading(ch, order) == ((49, -49), 50)
    assert sorted(seen) == sorted(w for w, _ in ch.terms)


def test_char_json_round_trip():
    ch = CharacterElement.from_dict(2, {(1, -2): 3, (0, 5): -1})
    blob = char_to_json(ch)
    assert blob == {
        "terms": [{"weight": [0, 5], "mult": -1}, {"weight": [1, -2], "mult": 3}]
    }
    assert char_from_json(blob) == ch


@pytest.mark.parametrize("p", [-3, 1, 2, 9, 15])
def test_flat_and_gram_share_the_characteristic_check(p):
    with pytest.raises(ParameterError, match=r"^p must be 0 or an odd prime, got %d$" % p):
        is_flat(build_q(2), p, (1, 0))
    with pytest.raises(ParameterError, match=r"^char_p must be 0 or an odd prime, got %d$" % p):
        gram_form(q_superalgebra(2), (1, 0), p)
