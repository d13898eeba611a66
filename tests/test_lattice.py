import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superroot import lattice
from superroot.lattice import DimensionMismatch, hnf, in_lattice, integer_kernel, pair, solve

from oracles import hnf_in_lattice, kernel_box_vectors, two_kernel_saturate


def test_pair_worked_example():
    # dot product by hand: 1*1 + (-2)(-1) = 3
    assert pair((1, -2), (1, -1)) == 3


def test_pair_zero_weight():
    assert pair((0, 0), (7, -3)) == 0


def test_pair_symmetric_against_difference():
    assert pair((5, 5, 5), (1, -1, 0)) == 0


def test_pair_length_mismatch():
    with pytest.raises(DimensionMismatch):
        pair((1, 2), (1, 2, 3))


def test_pair_bilinear_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 6)
        a = tuple(rng.randint(-9, 9) for _ in range(n))
        b = tuple(rng.randint(-9, 9) for _ in range(n))
        c = tuple(rng.randint(-9, 9) for _ in range(n))
        assert pair(lattice.add(a, b), c) == pair(a, c) + pair(b, c)
        assert pair(lattice.scale(3, a), c) == 3 * pair(a, c)


def test_kernel_type_a_coroots():
    n = 4
    covs = []
    for i in range(n):
        for j in range(n):
            if i != j:
                c = [0] * n
                c[i], c[j] = 1, -1
                covs.append(tuple(c))
    assert integer_kernel(covs, n) == [(1, 1, 1, 1)]


def test_kernel_empty_constraints():
    assert integer_kernel([], 3) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_gl21_even_coroot():
    assert integer_kernel([(1, -1, 0)], 3) == [(1, 1, 0), (0, 0, 1)]


@pytest.mark.parametrize(
    "covs,rank",
    [
        ([(1, -1, 0)], 3),
        ([(1, -1, 0), (0, 1, -1)], 3),
        ([(2, 3)], 2),
        ([(2, 4, 6), (1, 1, 1)], 3),
        ([(0, 0)], 2),
    ],
)
def test_kernel_against_box_oracle(covs, rank):
    basis = integer_kernel(covs, rank)
    for row in basis:
        for c in covs:
            assert pair(row, c) == 0
    # every box vector annihilating the covs is an integer combination
    for vec in kernel_box_vectors(covs, rank, radius=3):
        assert in_lattice(vec, basis)


def test_hnf_canonical():
    assert hnf([(2, 0), (0, 2), (1, 1)]) == [(1, 1), (0, 2)]
    assert hnf([(0, 0)]) == []
    # lattice equality is representation equality
    assert hnf([(1, 2), (3, 4)]) == hnf([(3, 4), (4, 6)])


def test_saturate():
    assert two_kernel_saturate([(2, 0), (0, 2)], 2) == [(1, 0), (0, 1)]
    assert two_kernel_saturate([(2, 4)], 2) == [(1, 2)]


@st.composite
def lattices_and_mixes(draw):
    """Integer rows, and a unimodular mix of them: elementary row
    additions and swaps, which keep the row lattice."""
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    mixed = [list(r) for r in rows]
    for i, j, c in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), entry), max_size=8)):
        i, j = i % len(mixed), j % len(mixed)
        if i == j:
            mixed[0], mixed[i] = mixed[i], mixed[0]
        else:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    return rows, mixed


@settings(max_examples=300, deadline=None)
@given(lattices_and_mixes())
def test_hnf_is_canonical_on_random_lattices(case):
    rows, mixed = case
    form = hnf(rows)
    assert hnf(form) == form
    assert hnf(mixed) == form
    for t, row in enumerate(form):
        col = next(j for j, v in enumerate(row) if v)
        assert row[col] > 0 and all(not v for v in row[:col])
        assert all(0 <= above[col] < row[col] for above in form[:t])


@st.composite
def echelon_and_vectors(draw):
    """HNF rows, integer coordinates y of the same length, and a vector
    near y . H (a unit step off it, or none)."""
    ncols = draw(st.integers(1, 6))
    entry = st.integers(-6, 6)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    form = hnf(rows)
    y = tuple(draw(st.lists(st.integers(-5, 5), min_size=len(form), max_size=len(form))))
    vec = [sum(c * row[j] for c, row in zip(y, form)) for j in range(ncols)]
    step = draw(st.integers(-1, ncols - 1))
    off = list(vec)
    if step >= 0:
        off[step] += draw(st.sampled_from([-1, 1]))
    return form, y, vec, off


@settings(max_examples=500, deadline=None)
@given(echelon_and_vectors())
def test_solve_round_trips_and_matches_the_hnf_reference(case):
    form, y, vec, off = case
    assert solve(vec, form) == y
    assert in_lattice(vec, form)
    got = solve(off, form)
    assert in_lattice(off, form) == (got is not None) == hnf_in_lattice(off, form)
    if got is not None:
        assert [sum(c * row[j] for c, row in zip(got, form)) for j in range(len(off))] == off


@st.composite
def echelon_rows_and_vectors(draw):
    """Random rows in echelon form (not reduced above the pivots), and
    vectors on and off their lattice."""
    ncols = draw(st.integers(1, 8))
    cols = sorted(draw(st.lists(st.integers(0, ncols - 1), unique=True, max_size=ncols)))
    entry = st.integers(-6, 6)
    rows = []
    for col in cols:
        tail = draw(st.lists(entry, min_size=ncols - col - 1, max_size=ncols - col - 1))
        rows.append((0,) * col + (draw(entry.filter(bool)),) + tuple(tail))
    y = draw(st.lists(st.integers(-4, 4), min_size=len(rows), max_size=len(rows)))
    on = [sum(c * row[j] for c, row in zip(y, rows)) for j in range(ncols)]
    others = st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4)
    return rows, [on] + draw(others)


@settings(max_examples=300, deadline=None)
@given(echelon_rows_and_vectors())
def test_solver_finds_pivots_once_and_matches_solve(case):
    rows, vectors = case
    solve_one = lattice.solver(rows)
    for vec in vectors:
        got = solve_one(vec)
        assert got == solve(vec, rows)
        assert (got is not None) == hnf_in_lattice(vec, rows)
        if got is not None:
            assert [sum(c * row[j] for c, row in zip(got, rows)) for j in range(len(vec))] == vec
    assert solve_one(vectors[0]) is not None


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 1), (1, 0)],
        [(1, 0), (1, 1)],
        [(1, 2), (0, 0)],
        [(0, 0, 1), (0, 2, 0)],
    ],
)
def test_solver_refuses_rows_out_of_echelon_form_as_solve_does(rows):
    with pytest.raises(ValueError) as by_solver:
        lattice.solver(rows)
    with pytest.raises(ValueError) as by_solve:
        solve((0,) * len(rows[0]), rows)
    assert by_solver.type is by_solve.type and str(by_solver.value) == str(by_solve.value)


def test_solve_off_the_lattice():
    assert solve((1, 0), [(2, 0), (0, 1)]) is None
    assert solve((0, 0, 1), [(1, 1, 0)]) is None
    assert solve((3, 5), [(1, 2), (0, 3)]) is None
    assert solve((3, 3), [(1, 2), (0, 3)]) == (3, -1)
    assert solve((0, 0), []) == () and solve((1, 0), []) is None


@pytest.mark.parametrize(
    "rows",
    [
        [(0, 1), (1, 0)],
        [(1, 0), (1, 1)],
        [(1, 2), (0, 0)],
        [(0, 0, 1), (0, 2, 0)],
    ],
)
def test_solve_refuses_rows_out_of_echelon_form(rows):
    with pytest.raises(ValueError):
        solve((0,) * len(rows[0]), rows)


def test_solve_checks_the_length():
    with pytest.raises(DimensionMismatch):
        solve((1, 2, 3), [(1, 0)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lattice.add((1, 2), (1,)), "cannot add (1, 2) and (1,)"),
        (lambda: lattice.sub((1, 2), (1,)), "cannot subtract (1, 2) and (1,)"),
        (lambda: hnf([[1, 2], [1]]), "ragged rows in hnf input"),
    ],
    ids=["add", "sub", "hnf-ragged"],
)
def test_unequal_lengths_are_refused(call, message):
    with pytest.raises(DimensionMismatch) as err:
        call()
    assert err.type is DimensionMismatch and str(err.value) == message
