import functools
import itertools
import random
import signal
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from superroot import lattice, liesuper, rootdata
from superroot.cli import default_psi_odd
from superroot.liesuper import (
    EVEN,
    ODD,
    DecompositionError,
    K_alpha,
    _cone_solver,
    check_admissible_base,
    eval_weight_on_cartan,
    gl_superalgebra,
    lie_algebra_for,
    p_superalgebra,
    q_superalgebra,
    subalgebra_closure,
)
from superroot.rootdata import (
    Family,
    OrderFunctional,
    ParameterError,
    SuperRootDatum,
    build_gl,
    build_p,
    build_q,
    default_order,
    positive_system,
    simple_even_roots,
)


def names(L, elem):
    return {L.basis[i].name: c for i, c in elem.items()}


# -- bracket ----------------------------------------------------------------


def test_gl11_odd_anticommutator():
    L = gl_superalgebra(1, 1)
    e12 = L.weight_space((1, -1), ODD)[0]
    e21 = L.weight_space((-1, 1), ODD)[0]
    assert names(L, L.bracket(e12, e21)) == {"H_1": 1, "H_2": 1}


def test_self_bracket_parity_cases():
    L = q_superalgebra(2)
    for b in L.basis:
        sq = L.bracket(b, b)
        if b.parity == EVEN:
            assert sq == {}
        else:
            # equals twice the matrix square
            twice = lattice_mat_scale(L, b)
            assert L.element_matrix(sq) == twice


def lattice_mat_scale(L, b):
    sq = {}
    for (i, k), u in b.matrix:
        for (k2, j), v in b.matrix:
            if k == k2:
                sq[(i, j)] = sq.get((i, j), 0) + 2 * u * v
    return tuple(sorted((ij, v) for ij, v in sq.items() if v))


def test_q2_odd_cartan_square():
    L = q_superalgebra(2)
    k1 = L.weight_space((0, 0), ODD)[0]
    assert names(L, L.bracket(k1, k1)) == {"H_1": 2}


def test_bracket_rejects_foreign_matrix():
    L = q_superalgebra(2)
    bad = (((0, 1), 1),)
    with pytest.raises(DecompositionError):
        L.decompose(bad)


# -- weight spaces ----------------------------------------------------------


def test_weight_space_gl21():
    L = gl_superalgebra(2, 1)
    space = L.weight_space((1, 0, -1), ODD)
    assert len(space) == 1 and space[0].name == "Y[1,3]"


def test_weight_space_q_odd_cartan():
    for n in (1, 2, 3):
        L = q_superalgebra(n)
        assert len(L.odd_cartan()) == n == build_q(n).h_odd_dim


def test_weight_space_missing_weight():
    L = gl_superalgebra(1, 1)
    assert L.weight_space((2, -2), ODD) == []


@pytest.mark.parametrize(
    "datum,L",
    [
        (build_gl(2, 1), gl_superalgebra(2, 1)),
        (build_gl(2, 2), gl_superalgebra(2, 2)),
        (build_q(2), q_superalgebra(2)),
        (build_q(3), q_superalgebra(3)),
        (build_p(2), p_superalgebra(2)),
        (build_p(3), p_superalgebra(3)),
    ],
    ids=lambda v: getattr(v, "label", None) or getattr(v, "family", ""),
)
def test_weight_space_dims_match_datum(datum, L):
    for root, mult in datum.odd_roots:
        assert len(L.weight_space(root, ODD)) == mult
    for root, _ in datum.even_roots:
        assert len(L.weight_space(root, EVEN)) == 1
    assert L.basis_counts() == (datum.n_even, datum.n_odd)


def test_lie_algebra_for_handles():
    assert lie_algebra_for(build_gl(2, 1)).family == "gl(2|1)"
    assert lie_algebra_for(build_q(2)).family == "q(2)"
    assert lie_algebra_for(build_p(2)).family == "p(2)"


# -- structure properties ---------------------------------------------------


def _parity_sign(px, py):
    return -1 if (px == ODD and py == ODD) else 1


@pytest.mark.parametrize("L", [gl_superalgebra(1, 1), q_superalgebra(2), p_superalgebra(2)], ids=lambda L: L.family)
def test_super_skew_symmetry(L):
    for x in L.basis:
        for y in L.basis:
            lhs = L.bracket(x, y)
            rhs = L.bracket(y, x)
            sign = _parity_sign(x.parity, y.parity)
            combined = dict(lhs)
            for k, v in rhs.items():
                combined[k] = combined.get(k, 0) + sign * v
            assert not any(combined.values())


# -- closure ----------------------------------------------------------------


def test_closure_empty():
    L = q_superalgebra(2)
    assert subalgebra_closure(L, []) == []


def test_closure_single_odd_vector_stays_small():
    L = gl_superalgebra(2, 1)
    y23 = L.weight_space((0, 1, -1), ODD)[0]
    closure = subalgebra_closure(L, [y23])
    assert len(closure) == 1


def test_closure_assisted_reaches_second_odd_space():
    L = gl_superalgebra(2, 1)
    y23 = L.weight_space((0, 1, -1), ODD)[0]
    x12 = L.even_root_vector((1, -1, 0))
    closure = subalgebra_closure(L, [y23, x12])
    y13 = L.weight_space((1, 0, -1), ODD)[0]
    vec = [0] * L.dim
    vec[y13.index] = 1
    assert lattice.in_lattice(vec, closure)


def test_closure_q2_derived_part():
    L = q_superalgebra(2)
    gens = [
        L.even_root_vector((1, -1)),
        L.even_root_vector((-1, 1)),
        L.weight_space((1, -1), ODD)[0],
        L.weight_space((-1, 1), ODD)[0],
    ]
    closure = subalgebra_closure(L, gens)
    assert len(closure) == 7  # gl(2) plus traceless odd part


def test_closure_idempotent_and_monotone():
    L = q_superalgebra(2)
    gens = [L.even_root_vector((1, -1)), L.weight_space((1, -1), ODD)[0]]
    once = subalgebra_closure(L, gens)
    again = subalgebra_closure(L, [dict(enumerate(row)) for row in once])
    assert once == again
    bigger = subalgebra_closure(L, gens + [L.weight_space((-1, 1), ODD)[0]])
    for row in once:
        assert lattice.in_lattice(row, bigger)


# -- admissible bases ---------------------------------------------------------


def _base_check(datum, L, order, psi_odd, mode="assisted"):
    psi_even = simple_even_roots(datum, order)
    return check_admissible_base(L, datum, order, psi_even, psi_odd, mode=mode)


def test_admissible_gl():
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
        d = build_gl(m, n)
        psi_odd = [tuple((1 if k == m - 1 else 0) - (1 if k == m else 0) for k in range(m + n))]
        rep = _base_check(d, lie_algebra_for(d), default_order(d), psi_odd)
        assert rep.ok, (m, n, rep.failures)


def test_admissible_p_good_order():
    for n in (2, 3):
        d = build_p(n)
        psi_odd = [tuple(2 if k == n - 1 else 0 for k in range(n))]
        rep = _base_check(d, lie_algebra_for(d), default_order(d), psi_odd)
        assert rep.ok, rep.failures


def test_admissible_p2_bad_order():
    d = build_p(2)
    order = OrderFunctional.from_values([-1, -2])
    rep = _base_check(d, lie_algebra_for(d), order, [(-1, -1)])
    assert not rep.ok
    assert rep.condition("generation") is False
    assert rep.condition("separation") is True
    assert rep.condition("multiplicity-one") is True


def test_admissible_q():
    for n in (2, 3):
        d = build_q(n)
        order = default_order(d)
        psi = simple_even_roots(d, order)
        rep = _base_check(d, lie_algebra_for(d), order, psi)
        assert rep.ok, rep.failures


def test_admissible_strict_mode_gl21():
    d = build_gl(2, 1)
    rep = _base_check(
        d, lie_algebra_for(d), default_order(d), [(0, 1, -1)], mode="strict"
    )
    assert not rep.ok and rep.condition("generation") is False


def test_admissible_multiplicity_one_failure():
    # q(2)'s roots with the odd space of weight (1,-1) made 2-dimensional:
    # the shared simple root (1,-1) then fails multiplicity-one only.
    q2 = build_q(2)
    odd = tuple((r, 2 if r == (1, -1) else m) for r, m in q2.odd_roots)
    d = SuperRootDatum(q2.rank, q2.even_roots, odd, q2.h_odd_dim, q2.label, q2.family)
    rep = _base_check(d, lie_algebra_for(q2), default_order(d), [(1, -1)])
    assert not rep.ok
    assert rep.conditions == (
        ("generation", True), ("separation", True), ("multiplicity-one", False)
    )
    assert rep.failures == ("multiplicity-one: dim of odd space (1, -1) is 2",)


def test_admissible_rejects_bad_psi_odd():
    d = build_q(2)
    with pytest.raises(ParameterError):
        _base_check(d, lie_algebra_for(d), default_order(d), [(-1, 1)])


def test_admissible_rejects_bad_psi_even():
    d = build_q(2)
    L = lie_algebra_for(d)
    with pytest.raises(ParameterError):
        check_admissible_base(L, d, default_order(d), [(2, -2)], [(1, -1)])


# -- K_alpha and weight evaluation -------------------------------------------


def test_K_alpha_q2():
    L = q_superalgebra(2)
    assert names(L, K_alpha(L, (1, -1))) == {"K_1": 1, "K_2": -1}


def test_K_alpha_square_value():
    L = q_superalgebra(3)
    for i, lam in ((0, (1, -2, 4)), (1, (0, 3, -1))):
        alpha = tuple(
            (1 if k == i else 0) - (1 if k == i + 1 else 0) for k in range(3)
        )
        k = K_alpha(L, alpha)
        value = eval_weight_on_cartan(L, lam, L.bracket(k, k))
        assert value == 2 * (lam[i] + lam[i + 1])


def test_K_alpha_needs_multiplicity_one():
    L = gl_superalgebra(2, 1)
    with pytest.raises(ParameterError):
        K_alpha(L, (1, -1, 0))  # no odd space of weight -(1,-1,0)


def test_eval_weight_examples():
    Lq = q_superalgebra(2)
    h = {Lq.even_root_vector((1, -1)).index: 0}  # zero element
    assert eval_weight_on_cartan(Lq, (1, -2), h) == 0
    halpha = Lq.bracket(Lq.even_root_vector((1, -1)), Lq.even_root_vector((-1, 1)))
    assert eval_weight_on_cartan(Lq, (1, -2), halpha) == 3
    k = K_alpha(Lq, (1, -1))
    assert eval_weight_on_cartan(Lq, (1, -2), Lq.bracket(k, k)) == -2


def test_eval_weight_rejects_non_cartan():
    L = q_superalgebra(2)
    with pytest.raises(ParameterError):
        eval_weight_on_cartan(L, (1, 0), L.even_root_vector((1, -1)))
    with pytest.raises(ParameterError):
        eval_weight_on_cartan(L, (1, 0), L.odd_cartan()[0])


# -- the sparse models against the dense reference ----------------------------

MODELS = [("gl", (m, n)) for m in (1, 2, 3) for n in (1, 2, 3)]
MODELS += [("q", (n,)) for n in (2, 3, 4)] + [("p", (n,)) for n in (2, 3, 4)]
SPARSE = {"gl": gl_superalgebra, "q": q_superalgebra, "p": p_superalgebra}
DENSE = {
    "gl": oracles.dense_gl_superalgebra,
    "q": oracles.dense_q_superalgebra,
    "p": oracles.dense_p_superalgebra,
}


@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_weight_space_index_matches_scan(kind, params):
    L = SPARSE[kind](*params)
    for w in {b.weight for b in L.basis} | {lattice.zero(L.rank)}:
        for parity in (EVEN, ODD):
            scan = [b for b in L.basis if b.parity == parity and b.weight == w]
            assert L.weight_space(w, parity) == scan
            assert L.weight_space(list(w), parity) == scan
            # a fresh list each call: a caller's edit leaves the index alone
            L.weight_space(w, parity).append(None)
            assert L.weight_space(w, parity) == scan


def dense_matrix(mat, size):
    rows = [[0] * size for _ in range(size)]
    for (i, j), v in mat:
        rows[i][j] += v
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_weight_grading(kind, params):
    # [H, x] = x.weight(H) x on the even Cartan, read from the brackets
    # alone, independently of the dense reference.
    L = SPARSE[kind](*params)
    for t in L.weight_space(lattice.zero(L.rank), EVEN):
        for x in L.basis:
            got = L.bracket(t, x)
            expect = eval_weight_on_cartan(L, x.weight, t)
            target = {x.index: expect} if expect else {}
            assert got == target


def _pair_entries(L):
    """Every ordered basis pair's bracket through ``L.bracket``, keyed in
    all-pairs order, as (pair, items) in each bracket's key order."""
    return [
        ((x, y), list(L.bracket(x, y).items())) for x in range(L.dim) for y in range(L.dim)
    ]


def _reference_entries(table, dim):
    return [
        ((x, y), list(table.get((x, y), {}).items())) for x in range(dim) for y in range(dim)
    ]


@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_bracket_table_matches_dense_reference(kind, params):
    L, ref = SPARSE[kind](*params), DENSE[kind](*params)
    assert (L.family, L.rank, L.size) == (ref.family, ref.rank, ref.size)
    assert [(b.index, b.parity, b.weight, b.name) for b in L.basis] == [
        (b.index, b.parity, b.weight, b.name) for b in ref.basis
    ]
    for b, d in zip(L.basis, ref.basis):
        assert dense_matrix(b.matrix, L.size) == d.matrix
    # Every ordered pair, through the bracket, in the same key order;
    # the sweep also shows that every commutator decomposes.
    assert _pair_entries(L) == _reference_entries(ref.bracket_table, L.dim)
    for coeffs in L.bracket_table.values():
        assert dense_matrix(L.element_matrix(coeffs), L.size) == ref.element_matrix(coeffs)


LARGER = [("gl", (5, 4)), ("gl", (1, 6)), ("gl", (6, 2)), ("q", (6,)), ("p", (6,))]


@pytest.mark.parametrize("kind, params", LARGER, ids=lambda v: str(v))
def test_bracket_table_matches_all_pairs_reference(kind, params):
    # Models too large for the dense reference: each pair's bracket,
    # formed on demand, against the table from all dim^2 commutators.
    L = SPARSE[kind](*params)
    reference = oracles.all_pairs_bracket_table(L)
    assert _pair_entries(L) == _reference_entries(reference, L.dim)
    assert L.bracket_table == reference


SCALING = [("gl", (k, k)) for k in range(1, 7)]
SCALING += [("q", (n,)) for n in range(2, 9)] + [("p", (n,)) for n in range(2, 9)]


def _sharing_pairs(L):
    """Ordered pairs (x, y) in which a column of one matrix is a row of
    the other, read off the basis matrices."""
    rows = [{i for (i, _j), _v in b.matrix} for b in L.basis]
    cols = [{j for (_i, j), _v in b.matrix} for b in L.basis]
    return sum(
        1
        for x in range(L.dim)
        for y in range(L.dim)
        if cols[x] & rows[y] or cols[y] & rows[x]
    )


@pytest.mark.parametrize("kind, params", SCALING, ids=lambda v: str(v))
def test_bracket_table_build_scales_as_dim_times_size(monkeypatch, kind, params):
    # Construction forms no commutator; a sweep over every ordered pair
    # forms one per pair sharing a row/column index, and a second sweep
    # none.  Every commutator decomposes over the basis.
    calls = _count_calls(monkeypatch, [(liesuper, "super_commutator")])
    L = SPARSE[kind](*params)
    assert calls == []
    _pair_entries(L)
    assert len(calls) == _sharing_pairs(L)
    assert len(calls) <= 2 * L.dim * L.size
    _pair_entries(L)
    assert len(calls) == _sharing_pairs(L)


@pytest.mark.parametrize(
    "kind, params, commutators",
    [("gl", (5, 5), 72), ("q", (8,), 168), ("p", (6,), 55)],
    ids=["gl55", "q8", "p6"],
)
def test_default_check_forms_few_commutators(monkeypatch, kind, params, commutators):
    # A fresh model brackets only the pairs its closure reads: gl(5|5)
    # has 1,900 sharing pairs, q(8) 3,840 and p(6) 1,518.
    datum = {"gl": build_gl, "q": build_q, "p": build_p}[kind](*params)
    calls = _count_calls(monkeypatch, [(liesuper, "super_commutator")])
    L, order = lie_algebra_for(datum), default_order(datum)
    report = check_admissible_base(
        L, datum, order, simple_even_roots(datum, order), default_psi_odd(datum)
    )
    assert report.ok
    assert len(calls) == commutators


@pytest.mark.parametrize(
    "build, fits, too_large",
    [
        (gl_superalgebra, (2, 2), (3, 2)), (q_superalgebra, (4,), (5,)),
        (p_superalgebra, (4,), (5,)), (build_gl, (2, 2), (3, 2)), (build_q, (4,), (5,)),
        (build_p, (4,), (5,)), (rootdata.build_gl_even, (4,), (5,)),
    ],
    ids=["gl", "q", "p", "build_gl", "build_q", "build_p", "build_gl_even"],
)
def test_model_builders_refuse_ranks_above_the_limit(monkeypatch, build, fits, too_large):
    monkeypatch.setattr(rootdata, "MAX_RANK", 4)
    assert build(*fits).rank == 4
    with pytest.raises(ParameterError, match="has rank 5, above the limit of 4"):
        build(*too_large)


@pytest.mark.parametrize(
    "basis, message",
    [
        ([liesuper.BasisElement(0, EVEN, (0,), (), "Z")], "zero basis matrix"),
        (
            [
                liesuper.BasisElement(0, EVEN, (0,), (((0, 0), 1),), "A"),
                liesuper.BasisElement(1, EVEN, (0,), (((0, 0), 2), ((1, 1), 1)), "B"),
            ],
            "basis supports are not disjoint",
        ),
    ],
    ids=["zero-matrix", "overlapping-supports"],
)
def test_model_refuses_a_basis_it_cannot_index(basis, message):
    with pytest.raises(ValueError) as err:
        liesuper.LieSuperAlgebra("gl", 1, 2, basis)
    assert err.type is ValueError and str(err.value) == message


def _decompose_outcome(algebra, mat):
    try:
        return algebra.decompose(mat)
    except DecompositionError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["q", "p"]),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-2, 2), max_size=6
    ),
)
def test_decompose_matches_dense_reference(kind, entries):
    # Mostly foreign matrices: same coordinates, or the same error message.
    L, ref = SPARSE[kind](2), DENSE[kind](2)
    mat = tuple(sorted((ij, v) for ij, v in entries.items() if v))
    assert _decompose_outcome(L, mat) == _decompose_outcome(ref, dense_matrix(mat, 4))
    coeffs = {i: c for i, c in enumerate(entries.values()) if c}
    assert _decompose_outcome(L, L.element_matrix(coeffs)) == coeffs


# -- the admissible-base check against the Fraction reference ---------------

RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=3)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ParameterError as exc:
        return str(exc)


@st.composite
def base_requests(draw):
    """A model, a random rational order nonzero on every root, its simple
    even roots, and an odd base: empty, the default one, or a random set
    of positive odd roots (independent or dependent)."""
    kind, params = draw(st.sampled_from(MODELS))
    datum = Family(kind, params).build()
    values = draw(st.lists(RATIONAL, min_size=datum.rank, max_size=datum.rank))
    order = OrderFunctional(tuple(values))
    if any(order.eval(root) == 0 for root in datum.all_roots()):
        order = default_order(datum)
    odd_pos = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0})
    shape = draw(st.sampled_from(["empty", "default", "random"]))
    if shape == "default" and order == default_order(datum):
        psi_odd = default_psi_odd(datum)
    elif shape == "empty" or not odd_pos:
        psi_odd = []
    else:
        psi_odd = draw(st.lists(st.sampled_from(odd_pos), min_size=1, max_size=4))
    mode = draw(st.sampled_from(["assisted", "strict"]))
    return datum, order, simple_even_roots(datum, order), psi_odd, mode


@settings(max_examples=150, deadline=None)
@given(base_requests())
def test_admissible_check_matches_fraction_reference(request):
    datum, order, psi_even, psi_odd, mode = request
    L = lie_algebra_for(datum)
    got = _outcome(check_admissible_base, L, datum, order, psi_even, psi_odd, mode=mode)
    want = _outcome(
        oracles.reference_check_admissible_base, L, datum, order, psi_even, psi_odd, mode=mode
    )
    assert got == want


@pytest.mark.parametrize("mode", ["assisted", "strict"])
def test_admissible_empty_base_matches_fraction_reference(mode):
    # gl(1|1) has no even roots, so an empty odd base is an empty base.
    datum = build_gl(1, 1)
    L, order = lie_algebra_for(datum), default_order(datum)
    report = check_admissible_base(L, datum, order, [], [], mode=mode)
    assert report == oracles.reference_check_admissible_base(L, datum, order, [], [], mode=mode)
    assert report.failures[0] == (
        "generation: root (-1, 1) is not a signed combination of the base"
    )


@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_coordinate_solver_is_chosen_from_the_base(monkeypatch, kind, params):
    # One elimination, hnf([B | I]), for every base: one more positive odd
    # root makes the base dependent, and no independent part of it is
    # chosen and eliminated again.
    datum = Family(kind, params).build()
    order = default_order(datum)
    psi_even = simple_even_roots(datum, order)
    base = list(dict.fromkeys(psi_even + sorted(set(default_psi_odd(datum)))))
    positive = [r for r in datum.all_roots() if order.eval(r) > 0]
    extra = [r for r, _ in datum.odd_roots if order.eval(r) > 0 and r not in base]
    # the base spans the roots, so one more root is dependent
    assert len(lattice.hnf(base)) == len(lattice.hnf(datum.all_roots()))
    calls = _count_calls(monkeypatch, [(lattice, "hnf")])
    member = _cone_solver(base, order, datum.rank)
    assert len(calls) == 1
    assert all(member(r) for r in positive) and not any(member(lattice.neg(r)) for r in positive)
    if extra:
        member = _cone_solver(base + extra[:1], order, datum.rank)
        assert len(calls) == 2
        assert all(member(r) for r in positive)
        assert not any(member(lattice.neg(r)) for r in positive)


@pytest.mark.parametrize("kind, params", [("gl", (32, 32)), ("q", (64,)), ("p", (64,))])
def test_cone_elimination_matches_the_xgcd_reference_at_rank_64(kind, params):
    # The [B | I] rows that _cone_solver eliminates, for the default base
    # and for it with 20 more positive odd roots.
    datum = Family(kind, params).build()
    pos = positive_system(datum, default_order(datum))
    base = list(dict.fromkeys(sorted(pos.simple_even) + sorted(set(default_psi_odd(datum)))))
    extra = sorted({r for r, _ in pos.odd_pos} - set(base))
    for psi in (base, base + random.Random(2).sample(extra, 20)):
        rows = [list(w) + [int(s == t) for s in range(len(psi))] for t, w in enumerate(psi)]
        assert lattice.hnf(rows) == oracles.reference_hnf(rows)


def test_coordinate_solver_membership():
    # e1 - e2, e2 - e3, their sum and 2(e1 - e2) are in the cone; the
    # negative, the mixed-sign and the out-of-span vectors are not, and
    # neither is half of a base vector.  Adding the sum e1 - e3 to the
    # base changes none of these, and the empty base holds only zero.
    order = OrderFunctional.from_values([2, 1, 0])
    for base in ([(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1), (1, 0, -1)]):
        member = _cone_solver(base, order, 3)
        assert member((1, 0, -1)) and member((2, -2, 0)) and member((1, -1, 0))
        assert not member((-1, 1, 0)) and not member((1, -2, 1)) and not member((1, 0, 0))
    assert not _cone_solver([(2, 0)], order, 2)((1, 0))
    # 3 e1 is 3 (e1) or e1 + (2 e1); 1 e1 of a base {2 e1, 3 e1} is not.
    assert _cone_solver([(1, 0), (2, 0)], order, 2)((3, 0))
    assert not _cone_solver([(2, 0), (3, 0)], order, 2)((1, 0))
    assert _cone_solver([(2, 0), (3, 0)], order, 2)((5, 0))
    empty = _cone_solver([], order, 3)
    assert empty((0, 0, 0)) and not empty((1, -1, 0))


def test_cone_solver_answers_under_a_wide_order():
    # gl(2|1)'s base with both odd roots is dependent, and under the
    # last order a root's value is about a thousand times the even
    # simple root's; the walk it needs is the budget, not the stack.
    datum, L = build_gl(2, 1), gl_superalgebra(2, 1)
    psi_odd = [(1, 0, -1), (0, 1, -1)]

    def check(values):
        order = OrderFunctional.from_values(values)
        return check_admissible_base(
            L, datum, order, simple_even_roots(datum, order), psi_odd
        )

    order = OrderFunctional.from_values([3, -2, -500])
    assert check([3, -2, -500]) == oracles.reference_check_admissible_base(
        L, datum, order, simple_even_roots(datum, order), psi_odd
    )
    for values in ([3, -2, -500], [3, -2, -4997], [3, -2, -10**6]):
        report = check(values)
        assert report.condition("generation") and not report.condition("separation")


def _within_ten_seconds(what, answer):
    def give_up(signum, frame):
        raise TimeoutError("%s took over 10 s" % what)

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        return answer()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _with_every_positive_odd_root(datum, values):
    order = OrderFunctional.from_values(values)
    psi_odd = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0})
    return order, simple_even_roots(datum, order), psi_odd


@pytest.mark.parametrize("mode", ["assisted", "strict"])
def test_cone_answers_gl33_under_a_wide_order_as_the_reference_does(mode):
    # Four simple even roots and nine odd ones, with eight relations
    # among them, and order values from 2 to 3,005.
    datum, L = build_gl(3, 3), gl_superalgebra(3, 3)
    order, psi_even, psi_odd = _with_every_positive_odd_root(datum, [5, 3, -2, -40, -900, -3000])
    report = _within_ten_seconds(
        "gl(3|3) " + mode,
        lambda: check_admissible_base(L, datum, order, psi_even, psi_odd, mode=mode),
    )
    assert report == oracles.reference_check_admissible_base(
        L, datum, order, psi_even, psi_odd, mode=mode
    )


@pytest.mark.parametrize("mode", ["assisted", "strict"])
def test_cone_answers_p4_under_a_wide_order(mode):
    # Every positive root is a base element or a sum of simple even
    # roots, so generation (a) holds; the thirteen base elements carry
    # nine relations, with order values from 2 to 2,000.
    datum, L = build_p(4), p_superalgebra(4)
    order, psi_even, psi_odd = _with_every_positive_odd_root(datum, [1000, 100, 10, 1])
    sums = {
        tuple(map(sum, zip(*roots)))
        for k in range(1, len(psi_even) + 1)
        for roots in itertools.combinations(psi_even, k)
    }
    positive = [r for r in datum.all_roots() if order.eval(r) > 0]
    assert all(r in psi_odd or r in sums for r in positive)
    report = _within_ten_seconds(
        "p(4) " + mode,
        lambda: check_admissible_base(L, datum, order, psi_even, psi_odd, mode=mode),
    )
    assert report.condition("generation")


@st.composite
def cone_requests(draw):
    """A base of up to six vectors in rank 1-3 and four in rank 4-5, with
    dependent (often with two or more relations), repeated, zero and
    non-primitive ones among them, and targets: integer combinations of
    the base with coefficients in [-2, 3], unit steps off them, and
    vectors in a box."""
    rank = draw(st.integers(1, 5))
    vector = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    base = []
    for v in draw(st.lists(vector, max_size=6 if rank <= 3 else 4)):
        c = draw(st.sampled_from([1, 1, 2, 3]))
        base.append(tuple(c * a for a in v))
    if len(base) >= 2 and draw(st.booleans()):
        base.append(lattice.add(base[0], base[1]))
    targets = draw(st.lists(vector.map(tuple), max_size=4))
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.integers(-2, 3), min_size=len(base), max_size=len(base)))
        t = [sum(c * psi[j] for c, psi in zip(coeffs, base)) for j in range(rank)]
        targets.append(tuple(t))
        t[draw(st.integers(0, rank - 1))] += draw(st.sampled_from([-1, 1]))
        targets.append(tuple(t))
    return base, rank, targets


@settings(max_examples=400, deadline=None)
@given(cone_requests(), st.data())
def test_coordinate_solver_matches_fraction_reference(request, data):
    # A random rational order; each base vector is signed by it, and
    # those it vanishes on are dropped, so the order is positive on the
    # base.
    base, rank, targets = request
    order = OrderFunctional(tuple(data.draw(st.lists(RATIONAL, min_size=rank, max_size=rank))))
    base = [psi if order.eval(psi) > 0 else lattice.neg(psi) for psi in base if order.eval(psi)]
    relations = len(base) - len(lattice.hnf(base))
    event("two or more relations" if relations >= 2 else "%d relations" % relations)
    member = _cone_solver(base, order, rank)
    got = [member(t) for t in targets]
    # The reference walk evaluates the order on every base vector at each
    # remainder, so it is given the same order with its values kept.
    cached = SimpleNamespace(eval=functools.lru_cache(maxsize=None)(order.eval))
    memo = {}  # shared by the targets, as the reference check shares it
    assert got == [oracles.fraction_cone_member(t, base, cached, memo) for t in targets]
    independent = oracles.fraction_coordinate_solver(base, rank)
    if independent is not None:
        assert got == [independent(t) for t in targets]


@settings(max_examples=200, deadline=None)
@given(cone_requests(), st.data())
def test_cone_solver_answers_alike_for_any_order_of_the_base(request, data):
    # The base is sorted by decreasing order value, ties in the caller's
    # order, so a reversed or shuffled base gives another elimination
    # whenever two elements share a value: the answers stay the same.
    base, rank, targets = request
    order = OrderFunctional(tuple(data.draw(st.lists(RATIONAL, min_size=rank, max_size=rank))))
    base = [psi if order.eval(psi) > 0 else lattice.neg(psi) for psi in base if order.eval(psi)]
    got = [_cone_solver(base, order, rank)(t) for t in targets]
    for other in (base[::-1], data.draw(st.permutations(base))):
        member = _cone_solver(other, order, rank)
        assert [member(t) for t in targets] == got


def _count_eliminations_and_solves(monkeypatch):
    """Count the hnf calls and the solves of every lattice.solver."""
    counts = {"hnf": 0, "solve": 0}
    hnf, solver = lattice.hnf, lattice.solver

    def counting_hnf(rows):
        counts["hnf"] += 1
        return hnf(rows)

    def counting_solver(rows):
        solve = solver(rows)

        def counting_solve(vec):
            counts["solve"] += 1
            return solve(vec)

        return counting_solve

    monkeypatch.setattr(lattice, "hnf", counting_hnf)
    monkeypatch.setattr(lattice, "solver", counting_solver)
    return counts


@pytest.mark.parametrize(
    "base, targets",
    [
        # two and three relations, and a non-member of large value under
        # the order (1, 1)
        ([(1, 0), (1, 1), (1, 2), (1, 3)], {(-1, 1000): False, (2, 6): True, (3, 4): True}),
        ([(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)], {(-1, 200): False, (2, 6): True, (3, 4): True}),
    ],
)
def test_cone_solver_eliminates_once_and_solves_once_per_target(monkeypatch, base, targets):
    counts = _count_eliminations_and_solves(monkeypatch)
    member = _cone_solver(base, OrderFunctional.from_values([1, 1]), 2)
    assert {t: member(t) for t in targets} == targets
    assert counts == {"hnf": 1, "solve": len(targets)}


@pytest.mark.parametrize("more", [1, 2, 3])
@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_dependent_default_base_eliminates_once_and_solves_once_per_root(
    monkeypatch, kind, params, more
):
    # The default base with one to three more positive odd roots: every
    # positive root is in its cone, and no negative one.
    datum = Family(kind, params).build()
    order = default_order(datum)
    base = list(dict.fromkeys(simple_even_roots(datum, order) + default_psi_odd(datum)))
    extra = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0} - set(base))
    base += extra[:more]
    positive = [r for r in datum.all_roots() if order.eval(r) > 0]
    counts = _count_eliminations_and_solves(monkeypatch)
    member = _cone_solver(base, order, datum.rank)
    assert all(member(r) for r in positive)
    assert not any(member(lattice.neg(r)) for r in positive)
    assert counts == {"hnf": 1, "solve": 2 * len(positive)}


def _count_calls(monkeypatch, module_attrs):
    """Wrap module functions so that every call is counted once."""
    calls = []
    real = getattr(*module_attrs[0])

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module, attr in module_attrs:
        monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_gl_check_calls_hnf_twice(monkeypatch, k):
    # One hnf for the coordinate solver and one inside the single
    # integer kernel that saturates the closure; in_lattice reads the
    # closure's HNF as it is.
    datum = build_gl(k, k)
    L, order = lie_algebra_for(datum), default_order(datum)
    psi_even = simple_even_roots(datum, order)
    calls = _count_calls(monkeypatch, [(lattice, "hnf")])
    report = check_admissible_base(L, datum, order, psi_even, default_psi_odd(datum))
    assert report.ok
    assert len(calls) == 2


@pytest.mark.parametrize("kind, params", MODELS, ids=lambda v: str(v))
def test_admissible_check_splits_the_roots_once(monkeypatch, kind, params):
    datum = Family(kind, params).build()
    L, order = lie_algebra_for(datum), default_order(datum)
    psi_even = simple_even_roots(datum, order)
    calls = _count_calls(
        monkeypatch, [(rootdata, "positive_system"), (liesuper, "positive_system")]
    )
    check_admissible_base(L, datum, order, psi_even, default_psi_odd(datum))
    assert len(calls) == 1


@st.composite
def closure_requests(draw):
    kind, params = draw(st.sampled_from(MODELS))
    L = SPARSE[kind](*params)
    coeff = st.one_of(st.integers(-2, 2), RATIONAL)
    gens = draw(
        st.lists(
            st.dictionaries(st.integers(0, L.dim - 1), coeff, min_size=1, max_size=3),
            max_size=3,
        )
    )
    return L, gens


@settings(max_examples=100, deadline=None)
@given(closure_requests())
def test_closure_matches_dense_reference(request):
    L, gens = request
    assert subalgebra_closure(L, gens) == oracles.dense_subalgebra_closure(L, gens)


def _dense(elem, dim):
    vec = [0] * dim
    for k, v in elem.items():
        vec[k] = v
    return vec


def _share_an_index(a, b):
    """Whether a column of one basis matrix is a row of the other, read
    off the matrices' entries."""
    rows_a, cols_a = {i for (i, _), _ in a.matrix}, {j for (_, j), _ in a.matrix}
    rows_b, cols_b = {i for (i, _), _ in b.matrix}, {j for (_, j), _ in b.matrix}
    return bool(cols_a & rows_b or cols_b & rows_a)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_closure_brackets_each_element_with_each_generator(monkeypatch, k):
    # The default base of gl(k|k) is homogeneous, so each element the
    # closure finds is bracketed once with each independent generator
    # whose matrix shares a row or column index with its own.  Brackets of
    # basis vectors of gl are basis vectors up to sign, so the elements
    # found are the closure's rows, each a unit vector.
    datum = build_gl(k, k)
    L, order = lie_algebra_for(datum), default_order(datum)
    gens = [{b.index: 1} for g in default_psi_odd(datum) for b in L.weight_space(g, ODD)]
    gens += [{L.even_root_vector(a).index: 1} for a in simple_even_roots(datum, order)]
    assert len(lattice.hnf(_dense(g, L.dim) for g in gens)) == len(gens)
    calls = _count_calls(monkeypatch, [(L, "bracket")])
    closure = subalgebra_closure(L, gens)
    assert all(sorted(row) == [0] * (L.dim - 1) + [1] for row in closure)
    found = [L.basis[row.index(1)] for row in closure]
    partners = [L.basis[next(iter(g))] for g in gens]
    assert len(calls) == sum(_share_an_index(u, g) for u in found for g in partners)
    assert len(calls) < len(closure) * len(gens)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MODELS), st.data())
def test_pairs_sharing_no_index_bracket_to_zero(model, data):
    # Every (element, generator) pair that the closure's index skips
    # brackets to zero, for homogeneous elements of random support.
    kind, params = model
    L = SPARSE[kind](*params)

    def homogeneous():
        parity = data.draw(st.sampled_from([EVEN, ODD]))
        support = [b.index for b in L.basis if b.parity == parity]
        coeff = st.integers(-3, 3).filter(bool)
        return data.draw(st.dictionaries(st.sampled_from(support), coeff, min_size=1, max_size=4))

    g, u = homogeneous(), homogeneous()
    if not L.meets(L.indices(g), L.indices(u)):
        assert L.bracket(g, u) == {} and L.bracket(u, g) == {}
    shares = any(_share_an_index(L.basis[i], L.basis[j]) for i in g for j in u)
    assert L.meets(L.indices(g), L.indices(u)) == shares


def test_closure_brackets_mixed_elements_both_ways():
    # For mixed u and v, [v, u] is not a multiple of [u, v]; the closure of
    # these two mixed generators of p(3) must still equal the dense
    # reference's.  It does not pin the walk's second bracket [u, v]:
    # test_mixed_closure_brackets_every_ordered_pair does.
    L = p_superalgebra(3)
    index = {b.name: b.index for b in L.basis}
    gens = [{index["X[3,2]"]: 1, index["B[3,3]"]: 1}, {index["X[1,3]"]: 1, index["C[1,2]"]: 1}]
    assert subalgebra_closure(L, gens) == oracles.dense_subalgebra_closure(L, gens)


def test_closure_of_a_mixed_generator_is_not_right_normed():
    # The super Jacobi identity needs homogeneous elements: from this
    # mixed generator of q(2) the right-normed brackets span only 7 of
    # the 8 dimensions of its closure.
    L = q_superalgebra(2)
    index = {b.name: b.index for b in L.basis}
    gens = [{index["X[2,1]"]: 2, index["K_1"]: 2, index["Y[1,2]"]: 1}]
    closure = subalgebra_closure(L, gens)
    assert closure == oracles.dense_subalgebra_closure(L, gens)
    assert len(closure) == L.dim


@pytest.mark.parametrize(
    "model, n, terms",
    [
        (p_superalgebra, 3, [{"X[3,2]": 1, "B[3,3]": 1}, {"X[1,3]": 1, "C[1,2]": 1}]),
        (q_superalgebra, 2, [{"X[2,1]": 2, "K_1": 2, "Y[1,2]": 1}]),
    ],
    ids=["p3-two-mixed", "q2-one-mixed"],
)
def test_mixed_closure_brackets_every_ordered_pair(monkeypatch, model, n, terms):
    # With a mixed generator every ordered pair (x, y) of elements found is
    # bracketed as [x, y], or as [y, x] when both are homogeneous.  The
    # walk's second bracket [u, v] is what covers an element found after
    # an earlier element's partner loop has ended.
    L = model(n)
    index = {b.name: b.index for b in L.basis}
    gens = [{index[name]: c for name, c in gen.items()} for gen in terms]
    calls = _count_calls(monkeypatch, [(L, "bracket")])
    closure = subalgebra_closure(L, gens)
    key = lambda elem: tuple(sorted(elem.items()))
    found = {key(x): x for call in calls for x in call}
    pairs = {(key(x), key(y)) for x, y in calls}
    assert len(found) == len(closure)
    missing = [
        (x, y)
        for x in found
        for y in found
        if (x, y) not in pairs
        and not (
            L.parity_of(found[x]) != liesuper.MIXED
            and L.parity_of(found[y]) != liesuper.MIXED
            and (y, x) in pairs
        )
    ]
    assert missing == []


@st.composite
def homogeneous_closure_requests(draw):
    """A model and generators of one parity each, with 1-3 terms and
    int, Fraction and zero coefficients."""
    kind, params = draw(st.sampled_from(MODELS))
    L = SPARSE[kind](*params)
    coeff = st.one_of(st.integers(-2, 2), RATIONAL)
    gens = []
    for parity in draw(st.lists(st.sampled_from([EVEN, ODD]), max_size=3)):
        indices = [b.index for b in L.basis if b.parity == parity]
        gens.append(draw(st.dictionaries(st.sampled_from(indices), coeff, min_size=1, max_size=3)))
    return L, gens


@settings(max_examples=100, deadline=None)
@given(homogeneous_closure_requests())
def test_homogeneous_closure_matches_references(request):
    L, gens = request
    closure = subalgebra_closure(L, gens)
    assert closure == oracles.dense_subalgebra_closure(L, gens)
    assert closure == oracles.pairwise_subalgebra_closure(L, gens)


@st.composite
def echelon_rows(draw):
    """Integer rows {pivot: row}, each positive at its pivot and zero at
    every other row's pivot, over up to 7 columns."""
    dim = draw(st.integers(1, 7))
    pivots = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=dim))
    rows = {}
    for piv in sorted(pivots):
        row = {piv: draw(st.integers(1, 6))}
        for j in range(dim):
            if j not in pivots:
                v = draw(st.integers(-6, 6))
                if v:
                    row[j] = v
        rows[piv] = row
    return rows, dim


@settings(max_examples=300, deadline=None)
@given(echelon_rows())
def test_one_kernel_saturation_matches_two_kernels(request):
    rows, dim = request
    dense = [_dense(row, dim) for row in rows.values()]
    assert liesuper._saturation(rows, dim) == oracles.two_kernel_saturate(dense, dim)


@st.composite
def wide_sparse_echelon_rows(draw):
    """Echelon rows as echelon_rows makes them, over up to 40 columns,
    each touching its pivot and at most three free columns."""
    dim = draw(st.integers(1, 40))
    pivots = draw(st.lists(st.integers(0, dim - 1), unique=True, max_size=8))
    free = [j for j in range(dim) if j not in pivots]
    rows = {}
    for piv in sorted(pivots):
        row = {piv: draw(st.integers(1, 6))}
        if free:
            for j in draw(st.lists(st.sampled_from(free), unique=True, max_size=3)):
                row[j] = draw(st.integers(-6, 6).filter(bool))
        rows[piv] = row
    return rows, dim


@settings(max_examples=300, deadline=None)
@given(wide_sparse_echelon_rows())
def test_saturation_over_touched_coordinates_matches_two_kernels(request):
    rows, dim = request
    dense = [_dense(row, dim) for row in rows.values()]
    assert liesuper._saturation(rows, dim) == oracles.two_kernel_saturate(dense, dim)


@st.composite
def decompose_requests(draw):
    """A model and a sparse matrix: an element's matrix, then edits that
    drop an entry, add half of a two-entry basis matrix, add an entry
    off the support or outside the matrix, or make an entry non-integral."""
    kind, params = draw(st.sampled_from(MODELS))
    L = SPARSE[kind](*params)
    coeffs = draw(st.dictionaries(st.integers(0, L.dim - 1), st.integers(-3, 3), max_size=4))
    entries = dict(L.element_matrix(coeffs))
    halves = [b.matrix for b in L.basis if len(b.matrix) == 2]
    for edit in draw(st.lists(st.sampled_from(["drop", "half", "off", "fraction"]), max_size=3)):
        if edit == "drop" and entries:
            del entries[draw(st.sampled_from(sorted(entries)))]
        elif edit == "half" and halves:
            ij, v = draw(st.sampled_from(draw(st.sampled_from(halves))))
            entries[ij] = v * draw(st.sampled_from([1, -2, 3]))
        elif edit == "off":
            cell = st.integers(0, L.size)
            entries[(draw(cell), draw(cell))] = draw(st.integers(-2, 2))
        elif edit == "fraction" and entries:
            ij = draw(st.sampled_from(sorted(entries)))
            entries[ij] += Fraction(1, 2)
    return L, tuple(sorted(entries.items()))


def _typed_outcome(decompose, *args):
    try:
        return list(decompose(*args).items())
    except DecompositionError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(decompose_requests())
def test_decompose_matches_rebuilding_reference(request):
    L, mat = request
    assert _typed_outcome(L.decompose, mat) == _typed_outcome(oracles.rebuild_decompose, L, mat)


def _gl11_check(**kwargs):
    d = build_gl(1, 1)
    return check_admissible_base(
        gl_superalgebra(1, 1), d, default_order(d), [], default_psi_odd(d), **kwargs
    )


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: gl_superalgebra(0, 1), ParameterError, "gl(m|n) requires m, n >= 1"),
        (lambda: q_superalgebra(0), ParameterError, "q(n) requires n >= 1"),
        (lambda: p_superalgebra(1), ParameterError, "p(n) requires n >= 2"),
        (lambda: gl_superalgebra(1, 1).even_root_vector((0, 0)), ParameterError,
         "expected a one-dimensional even root space for (0, 0), found 2"),
        (lambda: _gl11_check().condition("x"), KeyError, "'x'"),
        (lambda: _gl11_check(mode="x"), ParameterError, "mode must be 'assisted' or 'strict'"),
    ],
    ids=["gl(0|1)", "q(0)", "p(1)", "even-root-vector-of-zero", "unknown-condition",
         "unknown-mode"],
)
def test_bad_requests_are_refused(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and str(err.value) == message
