from math import comb, factorial, prod

import pytest

from superroot.hyperalg import (
    DividedMonomial,
    _binom_int,
    apply_lower,
    apply_monomial,
    apply_raise,
    apply_sum,
    bw_multiply,
    lucas_binom,
    normal_order,
    verify_commutator_formula,
)
from superroot.rootdata import ParameterError


def test_normal_order_sl2_relation():
    terms = normal_order(1, 1)
    assert terms == (
        DividedMonomial(1, 1, (), 1),
        DividedMonomial(1, 0, ((0, 1),), 0),
    )


def test_normal_order_trivial_cases():
    assert normal_order(0, 3) == (DividedMonomial(1, 3, (), 0),)
    assert normal_order(2, 0) == (DividedMonomial(1, 0, (), 2),)


def test_normal_order_shifts():
    terms = normal_order(2, 3)
    assert [t.h_binoms for t in terms] == [(), ((3, 1),), ((1, 2),)]
    # oracle check on all monomials of degree <= 12
    for a in range(13):
        for b in range(13 - a):
            mono = {(a, b): 1}
            lhs = apply_raise(2, apply_lower(3, mono))
            assert lhs == apply_sum(terms, mono)


def test_operator_actions_are_integral():
    for m in range(5):
        for a in range(8):
            for b in range(8):
                out = apply_raise(m, {(a, b): 1})
                assert all(isinstance(v, int) for v in out.values())


def test_normal_order_operator_identity_small():
    for m in range(7):
        for n in range(7):
            terms = normal_order(m, n)
            for a in range(9):
                for b in range(9 - a):
                    mono = {(a, b): 1}
                    assert apply_raise(m, apply_lower(n, mono)) == apply_sum(
                        terms, mono
                    )


def test_bw_multiply():
    assert bw_multiply(1, 1) == (2, 2)
    assert bw_multiply(0, 5) == (1, 5)
    assert bw_multiply(3, 4) == (35, 7)
    assert bw_multiply(3, 4)[0] % 7 == 0


def test_bw_associativity():
    for n in range(9):
        for m in range(9):
            for k in range(9):
                c1, e1 = bw_multiply(n, m)
                c2, e2 = bw_multiply(e1, k)
                d1, f1 = bw_multiply(m, k)
                d2, f2 = bw_multiply(n, f1)
                assert (c1 * c2, e2) == (d1 * d2, f2)


def test_lucas_examples():
    assert lucas_binom(3, 3, 3) == 1
    assert lucas_binom(10**12, 0, 5) == 1
    assert lucas_binom(3, 1, 3) == 0
    assert lucas_binom(5, 1, 5) == 0


def test_lucas_matches_exact():
    for p in (3, 5, 7):
        for n in range(0, 201, 7):
            for k in range(0, 201, 3):
                assert lucas_binom(n, k, p) == comb(n, k) % p


def test_lucas_rejects_even_p():
    with pytest.raises(ParameterError):
        lucas_binom(4, 2, 2)


def test_verify_success():
    rep = verify_commutator_formula(4, 4, 16, 0)
    assert rep.ok and rep.counterexample is None
    rep = verify_commutator_formula(4, 4, 16, 3)
    assert rep.ok


def test_verify_mutation_detected():
    def corrupted(m, n):
        terms = []
        for i in range(min(m, n) + 1):
            h = ((m + n - i, i),) if i > 0 else ()  # shift uses i, not 2i
            terms.append(DividedMonomial(1, n - i, h, m - i))
        return tuple(terms)

    rep = verify_commutator_formula(4, 4, 12, 0, normal_form=corrupted)
    assert not rep.ok
    assert rep.counterexample is not None
    m, n, a, b = rep.counterexample
    # the reported counterexample is a genuine operator mismatch
    mono = {(a, b): 1}
    assert apply_raise(m, apply_lower(n, mono)) != apply_sum(corrupted(m, n), mono)


def test_apply_monomial_coefficient():
    dm = DividedMonomial(3, 1, ((0, 1),), 1)
    out = apply_monomial(dm, {(2, 2): 1})
    # raise(1): binom(2,1) x^3 y^1 ; H-binom(a-b-0,1)=2 ; lower(1): binom(3,1)
    assert out == {(2, 2): 3 * 2 * 2 * 3}


def test_divided_monomial_rejects_negative():
    with pytest.raises(ParameterError):
        DividedMonomial(1, -1, (), 0)


def test_binom_int_is_the_falling_factorial_quotient():
    # binom(top, k) = top (top - 1) ... (top - k + 1) / k! for every
    # integer top, negative ones included.
    for top in range(-15, 16):
        for k in range(16):
            falling = prod(top - i for i in range(k))
            assert falling % factorial(k) == 0
            assert _binom_int(top, k) == falling // factorial(k), (top, k)
        assert _binom_int(top, -1) == 0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: normal_order(-1, 0), "exponents must be nonnegative"),
        (lambda: bw_multiply(-1, 0), "exponents must be nonnegative"),
        (lambda: lucas_binom(-1, 0, 3), "lucas_binom needs nonnegative arguments"),
    ],
    ids=["normal-order", "bw-multiply", "lucas-binom"],
)
def test_negative_arguments_are_refused(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert err.type is ParameterError and str(err.value) == message
