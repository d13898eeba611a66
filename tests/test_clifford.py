import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superroot import clifford
from superroot.clifford import (
    CliffordForm,
    form_rank,
    gram_form,
    u_lambda_dim_closed,
)
from superroot.liesuper import eval_weight_on_cartan, gl_superalgebra, q_superalgebra
from superroot.rootdata import ParameterError, build_gl, build_p, build_q

from oracles import RationalField, clifford_simple_dim, may_fail_absolute_simplicity, rank_mod_p


def diag_form(entries, char_p=0):
    n = len(entries)
    gram = tuple(
        tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    return CliffordForm(gram, (0,) * max(n, 1), char_p)


# -- gram matrices ------------------------------------------------------------


def test_gram_q2_char0():
    f = gram_form(q_superalgebra(2), (1, -2), 0)
    assert f.gram == ((2, 0), (0, -4))


def test_gram_zero_weight():
    f = gram_form(q_superalgebra(2), (0, 0), 0)
    assert f.gram == ((0, 0), (0, 0))


def test_gram_q2_char3():
    f = gram_form(q_superalgebra(2), (1, -2), 3)
    assert f.gram == ((2, 0), (0, 2))
    assert form_rank(f) == 2


def test_gram_q3_diagonal_structure():
    lam = (4, -1, 3)
    f = gram_form(q_superalgebra(3), lam, 0)
    for s in range(3):
        for t in range(3):
            assert f.gram[s][t] == (2 * lam[s] if s == t else 0)


def test_gram_empty_odd_cartan():
    f = gram_form(gl_superalgebra(2, 1), (1, 0, 0), 0)
    assert f.gram == ()
    assert u_lambda_dim_closed(f) == (1, "M")


def test_gram_rejects_even_characteristic():
    with pytest.raises(ParameterError):
        gram_form(q_superalgebra(2), (1, 0), 2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.lists(st.integers(-30, 30), min_size=n, max_size=n)),
    st.sampled_from([0, 3, 5]),
)
def test_gram_is_symmetric_by_super_skew_symmetry(lam, char_p):
    # Odd elements super-commute: [K_s, K_t] = K_s K_t + K_t K_s = [K_t, K_s].
    L = q_superalgebra(len(lam))
    form = gram_form(L, tuple(lam), char_p)
    assert form.gram == tuple(zip(*form.gram))
    ks = L.odd_cartan()
    for s in range(len(ks)):
        for t in range(len(ks)):
            value = eval_weight_on_cartan(L, tuple(lam), L.bracket(ks[t], ks[s]))
            assert form.gram[s][t] == (value % char_p if char_p else value)


@pytest.mark.parametrize("n", range(2, 7))
def test_gram_evaluates_each_unordered_pair_once(monkeypatch, n):
    # q(n) has n odd Cartan elements: n(n+1)/2 pairs s <= t, not n^2.
    calls = []

    def counting(*args):
        calls.append(args)
        return eval_weight_on_cartan(*args)

    monkeypatch.setattr(clifford, "eval_weight_on_cartan", counting)
    gram_form(q_superalgebra(n), tuple(range(1, n + 1)), 0)
    assert len(calls) == n * (n + 1) // 2


# -- dimension law ------------------------------------------------------------


def test_u_dim_q2_example():
    f = gram_form(q_superalgebra(2), (1, -2), 0)
    assert u_lambda_dim_closed(f) == (2, "M")


def test_u_dim_rank_one():
    assert u_lambda_dim_closed(diag_form([1])) == (2, "Q")
    assert u_lambda_dim_closed(diag_form([0, 2, 0])) == (2, "Q")


def test_u_dim_zero_form():
    assert u_lambda_dim_closed(diag_form([0, 0])) == (1, "M")


def test_rank_mod_p_drops():
    # entry 3 dies mod 3
    f = diag_form([3, 1], char_p=3)
    assert form_rank(f) == 1
    assert u_lambda_dim_closed(f) == (2, "Q")


# A prime above every minor of the matrices drawn below (at most 8 x 8,
# entries at most 72 in absolute value), so rank mod it is rank over Q.
BIG_PRIME = 2**89 - 1


@st.composite
def square_matrices(draw):
    """Square integer matrices up to 8 x 8: random entries, or a product
    X Y through a smaller inner size, so that the rank drops."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        entry = st.integers(-6, 6)
        return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    k = draw(st.integers(0, max(n - 1, 0)))
    entry = st.integers(-3, 3)
    x = [draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(n)]
    y = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    return [[sum(x[i][t] * y[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


@settings(max_examples=400, deadline=None)
@given(square_matrices(), st.sampled_from([0, 3, 5, 7]))
def test_form_rank_matches_elimination_mod_p(rows, char_p):
    gram = tuple(tuple(row) for row in rows)
    form = CliffordForm(gram, (0,), char_p)
    want = rank_mod_p(gram, char_p or BIG_PRIME) if gram else 0
    assert form_rank(form) == want


def test_oracle_small_forms():
    for entries in itertools.product((0, 1, -1, 2, -2), repeat=2):
        rank = form_rank(diag_form(list(entries)))
        got = clifford_simple_dim(entries)
        assert got == u_lambda_dim_closed(diag_form(list(entries)))
        assert got[0] == 2 ** ((rank + 1) // 2)


@pytest.mark.parametrize("entries", [(1, -2, 2), (0, 1, -1), (2, 2, 2), (0, 0, -2)])
def test_oracle_selected_rank3(entries):
    assert clifford_simple_dim(entries) == u_lambda_dim_closed(diag_form(list(entries)))


def test_dimension_bound():
    for entries in itertools.product((0, 1, -1, 2, -2), repeat=2):
        f = diag_form(list(entries))
        dim, kind = u_lambda_dim_closed(f)
        factor = 1 if kind == "M" else 2
        assert dim * dim * factor <= 2 ** len(entries) * 2


def test_quaternion_case_diverges_over_plain_rationals():
    # the rank-2 form of the q(2) worked example: over a field missing the
    # needed square roots the Clifford algebra is a division superalgebra
    # and its simple supermodule is 4-dimensional, twice the closed-field
    # value reported by u_lambda_dim_closed.
    closed_dim, _ = u_lambda_dim_closed(diag_form([2, -4]))
    rational_dim, _ = clifford_simple_dim((2, -4), field=RationalField, certify=False)
    assert closed_dim == 2
    assert rational_dim == 4


# -- absolute simplicity flag ---------------------------------------------------


def test_may_fail_flag():
    assert may_fail_absolute_simplicity(build_gl(2, 2)) is False
    assert may_fail_absolute_simplicity(build_q(3)) is True
    assert may_fail_absolute_simplicity(build_p(2)) is False
