"""Exact integer arithmetic on the character lattice X(T) and its dual.

Weights and coweights are plain tuples of Python ints (arbitrary
precision).  All integer linear algebra of the package is :func:`hnf`,
whose row-style Hermite normal form gives equal lattices equal bases in
one left-to-right pass of Euclidean row reduction, plus :func:`solver`,
which reads integer coordinates off such a basis.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

Weight = Tuple[int, ...]
Coweight = Tuple[int, ...]


class SuperrootError(Exception):
    """Base class of every error the library raises for an input it refuses."""


class DimensionMismatch(SuperrootError, ValueError):
    """Vectors of unequal length were combined."""


def check_rank(vec: Sequence[int], rank: int) -> None:
    if len(vec) != rank:
        raise DimensionMismatch(
            "expected length %d, got %d: %r" % (rank, len(vec), tuple(vec))
        )


def zero(rank: int) -> Weight:
    return (0,) * rank


def add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionMismatch("cannot add %r and %r" % (a, b))
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionMismatch("cannot subtract %r and %r" % (a, b))
    return tuple(x - y for x, y in zip(a, b))


def neg(a: Weight) -> Weight:
    return tuple(-x for x in a)


def scale(c: int, a: Weight) -> Weight:
    return tuple(c * x for x in a)


def unit_difference(rank: int, i: int, j: int) -> Weight:
    """e_i - e_j (zero when i == j)."""
    return tuple((k == i) - (k == j) for k in range(rank))


def is_zero(a: Weight) -> bool:
    return all(x == 0 for x in a)


def pair(lam: Weight, cov: Coweight) -> int:
    """Perfect pairing X(T) x X(T)^v -> Z, i.e. the integer dot product."""
    if len(lam) != len(cov):
        raise DimensionMismatch("cannot pair %r with %r" % (lam, cov))
    return sum(a * b for a, b in zip(lam, cov))


def hnf(rows: Iterable[Sequence[int]]) -> List[Weight]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped.  The result is a canonical basis
    of the row lattice.

    One pass, column by column: while more than one row is nonzero in
    the column, every other such row is floor-divided by the first row
    of least absolute entry there, and that multiple is subtracted
    (Euclid's algorithm on whole rows).  A row cleared in the column
    waits for the later columns, and a row cleared everywhere is dropped.
    The row left, made positive, is the pivot: the rows already output
    are reduced by it into [0, pivot), and it is output after them.
    Every row still in play is zero left of the column, so each
    subtraction runs over the columns from there on.
    """
    mat = [list(r) for r in rows if any(r)]
    if any(len(r) != len(mat[0]) for r in mat):
        raise DimensionMismatch("ragged rows in hnf input")
    out: List[List[int]] = []
    for col in range(len(mat[0]) if mat else 0):
        live = [r for r in mat if r[col]]
        while len(live) > 1:
            least = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not least:
                    q = r[col] // least[col]
                    r[col:] = [a - q * b for a, b in zip(r[col:], least[col:])]
            live = [r for r in live if r[col]]
        if live:
            piv = live[0]
            if piv[col] < 0:
                piv[col:] = [-a for a in piv[col:]]
            for above in out:
                q = above[col] // piv[col]
                if q:
                    above[col:] = [a - q * b for a, b in zip(above[col:], piv[col:])]
            out.append(piv)
            mat = [r for r in mat if r is not piv and any(r)]
    return [tuple(r) for r in out]


def integer_kernel(vectors: Sequence[Sequence[int]], rank: int) -> List[Weight]:
    """Basis (HNF rows) of {x in Z^rank : dot(x, v) == 0 for all v}.

    The rows of hnf([A^T | I]) whose image part is zero."""
    for v in vectors:
        check_rank(v, rank)
    k = len(vectors)
    aug = [
        [vectors[t][i] for t in range(k)] + [1 if j == i else 0 for j in range(rank)]
        for i in range(rank)
    ]
    return [r[k:] for r in hnf(aug) if not any(r[:k])]


def solver(rows: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], Optional[Weight]]:
    """A function sending a vector to integer coordinates y with
    y . rows == vec, or to None when it is off the row lattice.

    ``rows`` must be in echelon form, as :func:`hnf` returns them: each
    row nonzero, with its first nonzero entry (its pivot) strictly right
    of the previous row's; otherwise ValueError.  The rows are checked
    and their pivots found once, not once per vector.  A vector of
    another length than the rows raises DimensionMismatch.  A row whose
    quotient is zero is not subtracted.
    """
    pivots = [next(compress(count(), row), None) for row in rows]
    for prev, col in zip([-1] + pivots, pivots):
        if col is None or col <= prev:
            raise ValueError("rows are not in echelon form")
    by_pivot = {col: (t, row) for t, (row, col) in enumerate(zip(rows, pivots))}
    width = len(rows[0]) if rows else None

    def solve_one(vec: Sequence[int]) -> Optional[Weight]:
        if width is not None:
            check_rank(vec, width)
        residue = list(vec)
        coords = [0] * len(rows)
        # Walk the residue's nonzero entries left to right, reading each
        # after the rows left of it are subtracted: only the row pivoted
        # there can clear it, and every other row's quotient is zero.
        for col in compress(count(), residue):
            if col not in by_pivot:
                return None
            t, row = by_pivot[col]
            q, rem = divmod(residue[col], row[col])
            if rem:
                return None
            residue[col:] = [a - q * b for a, b in zip(residue[col:], row[col:])]
            coords[t] = q
        return tuple(coords)

    return solve_one


def in_lattice(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Whether ``vec`` is an integer combination of the basis rows, which
    must be in echelon form as :func:`hnf` returns them (see :func:`solver`)."""
    return solver(basis)(vec) is not None
