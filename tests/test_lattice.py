import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superroot import lattice
from superroot.lattice import DimensionMismatch, hnf, in_lattice, integer_kernel, pair

from oracles import kernel_box_vectors


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
    assert lattice.saturate([(2, 0), (0, 2)], 2) == [(1, 0), (0, 1)]
    assert lattice.saturate([(2, 4)], 2) == [(1, 2)]


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
