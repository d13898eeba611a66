"""Matrix Lie superalgebras gl(m|n), q(n), p(n) with exact structure constants.

Each algebra is realized inside Mat(N) over Z with a fixed homogeneous
basis whose matrices have pairwise disjoint supports, so decomposing a
matrix over the basis is exact coordinate reading.  A matrix is stored
as its nonzero entries, ((i, j), value) in row-major order; basis
matrices have one or two entries.  Elements are sparse coordinate dicts
{basis_index: coefficient}.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress, count
from operator import mul
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from . import lattice
from .lattice import Weight
from .rootdata import (
    Family,
    OrderFunctional,
    ParameterError,
    SuperRootDatum,
    positive_system,
)

EVEN = "even"
ODD = "odd"
MIXED = "mixed"

Entry = Tuple[int, int]
Indices = Tuple[Set[int], Set[int]]
Matrix = Tuple[Tuple[Entry, int], ...]
Element = Dict[int, int]


class DecompositionError(lattice.SuperrootError, ValueError):
    """A matrix does not lie in the span of the algebra basis."""


class BasisElement(namedtuple("BasisElement", "index parity weight matrix name")):
    __slots__ = ()


def _matrix(entries: Mapping[Entry, int]) -> Matrix:
    """The nonzero entries, in row-major order."""
    return tuple(sorted((ij, v) for ij, v in entries.items() if v))


def super_commutator(a: Matrix, b: Matrix, parity_a: str, parity_b: str) -> Matrix:
    sign = -1 if (parity_a == ODD and parity_b == ODD) else 1
    out: Dict[Entry, int] = {}
    for left, right, c in ((a, b, 1), (b, a, -sign)):
        for (i, k), u in left:
            for (k2, j), v in right:
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + c * u * v
    return _matrix(out)


class LieSuperAlgebra:
    """Finite homogeneous basis whose basis-pair brackets are formed on
    first use and kept."""

    def __init__(self, rank: int, size: int, basis: List[BasisElement]):
        self.rank = rank
        self.size = size
        self.basis = basis
        self.dim = len(basis)
        # Every basis entry's owner; the first entry of each is its anchor.
        # Each basis matrix's (rows, columns), and the basis by (weight,
        # parity), in basis order.
        self._owner: Dict[Entry, int] = {}
        self._indices: List[Indices] = []
        self._spaces: Dict[Tuple[Weight, str], List[BasisElement]] = {}
        for b in basis:
            if not b.matrix:
                raise ValueError("zero basis matrix")
            for (i, j), _v in b.matrix:
                if (i, j) in self._owner:
                    raise ValueError("basis supports are not disjoint")
                self._owner[(i, j)] = b.index
            self._indices.append(
                ({i for (i, _j), _v in b.matrix}, {j for (_i, j), _v in b.matrix})
            )
            self._spaces.setdefault((b.weight, b.parity), []).append(b)
        # The basis-pair brackets formed so far, zero ones included.
        self.bracket_table: Dict[Tuple[int, int], Element] = {}

    # -- coordinates ----------------------------------------------------

    def decompose(self, mat: Matrix) -> Element:
        """Exact coordinates of ``mat`` over the basis.

        ``mat`` is in the span when each owner's entries are c times its
        own and those entries cover every nonzero entry of ``mat``."""
        entries = dict(mat)
        owner = self._owner
        coeffs: Element = {}
        in_span = True
        covered = 0
        for idx in sorted({owner[ij] for ij in entries if ij in owner}):
            support = self.basis[idx].matrix
            anchor, v = support[0]
            c, rem = divmod(entries.get(anchor, 0), v)
            if rem:
                raise DecompositionError("non-integral coordinate")
            if c:
                coeffs[idx] = c
                covered += len(support)
            for ij, w in support[1:]:
                if entries.get(ij, 0) != c * w:
                    in_span = False
        if not in_span or covered != len(entries) - list(entries.values()).count(0):
            raise DecompositionError("matrix is not in the span of the basis")
        return coeffs

    def element_matrix(self, elem: Mapping[int, int]) -> Matrix:
        out: Dict[Entry, int] = {}
        for idx, c in elem.items():
            for ij, v in self.basis[idx].matrix:
                out[ij] = out.get(ij, 0) + c * v
        return _matrix(out)

    def diagonal(self, elem: Mapping[int, int], what: str) -> Weight:
        """The first ``rank`` diagonal entries of a diagonal element's
        matrix; ``what`` names the element in the error otherwise."""
        mat = self.element_matrix(elem)
        if any(i != j for (i, j), _v in mat):
            raise ParameterError("%s is not diagonal" % what)
        diag = dict(mat)
        return tuple(diag.get((i, i), 0) for i in range(self.rank))

    def as_element(self, x: Union[int, BasisElement, Mapping[int, int]]) -> Element:
        if isinstance(x, BasisElement):
            return {x.index: 1}
        if isinstance(x, int):
            return {x: 1}
        return {k: v for k, v in x.items() if v}

    def parity_of(self, elem: Mapping[int, int]) -> Optional[str]:
        parities = {self.basis[i].parity for i, c in elem.items() if c}
        if not parities:
            return None
        if len(parities) > 1:
            return MIXED
        return parities.pop()

    # -- bracket --------------------------------------------------------

    def indices(self, elem: Iterable[int]) -> Indices:
        """The rows and the columns of the matrix of an element with the
        support ``elem``: basis supports are disjoint, so nothing cancels."""
        rows: Set[int] = set()
        cols: Set[int] = set()
        for k in elem:
            r, c = self._indices[k]
            rows |= r
            cols |= c
        return rows, cols

    @staticmethod
    def meets(x: Indices, y: Indices) -> bool:
        """Whether matrices with the (rows, columns) x and y share an
        index: x·y is nonzero only where a column of x meets a row of y, so
        two matrices that share none in either order bracket to zero."""
        return not (x[1].isdisjoint(y[0]) and y[1].isdisjoint(x[0]))

    def _pair_bracket(self, i: int, j: int) -> Element:
        """[b_i, b_j] in coordinates, formed on first use; zero without a
        commutator when b_i and b_j share no index (:meth:`meets`)."""
        if not self.meets(self._indices[i], self._indices[j]):
            return {}
        x, y = self.basis[i], self.basis[j]
        coeffs = self.decompose(super_commutator(x.matrix, y.matrix, x.parity, y.parity))
        self.bracket_table[(i, j)] = coeffs
        return coeffs

    def bracket(
        self,
        x: Union[int, BasisElement, Mapping[int, int]],
        y: Union[int, BasisElement, Mapping[int, int]],
    ):
        """Super-commutator of two elements, expanded bilinearly."""
        xe, ye = self.as_element(x), self.as_element(y)
        table = self.bracket_table
        out: Dict[int, object] = {}
        for i, ci in xe.items():
            for j, cj in ye.items():
                entry = table.get((i, j))
                if entry is None:
                    entry = self._pair_bracket(i, j)
                c = ci * cj
                for k, v in entry.items():
                    out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    # -- weight structure -------------------------------------------------

    def weight_space(self, w: Weight, parity: str) -> List[BasisElement]:
        lattice.check_rank(w, self.rank)
        return list(self._spaces.get((tuple(w), parity), ()))

    def even_root_vector(self, alpha: Weight) -> BasisElement:
        space = self.weight_space(alpha, EVEN)
        if len(space) != 1:
            raise ParameterError(
                "expected a one-dimensional even root space for %r, found %d"
                % (alpha, len(space))
            )
        return space[0]

    def basis_counts(self) -> Tuple[int, int]:
        n_even = sum(1 for b in self.basis if b.parity == EVEN)
        return n_even, self.dim - n_even


# ---------------------------------------------------------------------------
# Concrete families: one torus-grading rule.  Row a of a model matrix
# carries the weight rows[a], the entry (a, b) has weight rows[a] - rows[b],
# and a basis element has the weight of its first entry.


def _units(rank: int, sign: int = 1) -> List[Weight]:
    return [tuple(sign * (k == a) for k in range(rank)) for a in range(rank)]


def _model(
    rows: Sequence[Weight], basis: Iterable[Tuple[str, str, Mapping[Entry, int]]]
) -> LieSuperAlgebra:
    """The model on the basis (parity, name, entries)."""
    elements: List[BasisElement] = []
    for index, (parity, name, entries) in enumerate(basis):
        mat = _matrix(entries)
        (a, b), _v = mat[0]
        weight = lattice.sub(rows[a], rows[b])
        elements.append(BasisElement(index, parity, weight, mat, name))
    return LieSuperAlgebra(len(rows[0]), len(rows), elements)


def _name(letter: str, i: int, j: int, diagonal: str = "") -> str:
    if i == j and diagonal:
        return "%s_%d" % (diagonal, i + 1)
    return "%s[%d,%d]" % (letter, i + 1, j + 1)


def gl_superalgebra(m: int, n: int) -> LieSuperAlgebra:
    Family("gl", (m, n)).checked("gl(m|n)")
    size = m + n
    cells = [(i, j) for i in range(size) for j in range(size)]
    basis = [
        (EVEN, _name("X", i, j, "H"), {(i, j): 1}) for i, j in cells if (i < m) == (j < m)
    ]
    basis += [(ODD, _name("Y", i, j), {(i, j): 1}) for i, j in cells if (i < m) != (j < m)]
    return _model(_units(size), basis)


def q_superalgebra(n: int) -> LieSuperAlgebra:
    Family("q", (n,)).checked("q(n)")
    cells = [(i, j) for i in range(n) for j in range(n)]
    basis = [
        (EVEN, _name("X", i, j, "H"), {(i, j): 1, (n + i, n + j): 1}) for i, j in cells
    ]
    basis += [
        (ODD, _name("Y", i, j, "K"), {(i, n + j): 1, (n + i, j): 1}) for i, j in cells
    ]
    return _model(_units(n) * 2, basis)


def p_superalgebra(n: int) -> LieSuperAlgebra:
    Family("p", (n,)).checked("p(n)")
    cells = [(i, j) for i in range(n) for j in range(n)]
    basis = [
        (EVEN, _name("X", i, j, "H"), {(i, j): 1, (n + j, n + i): -1}) for i, j in cells
    ]
    # the symmetric odd block B (i <= j), then the antisymmetric one C (i < j)
    basis += [
        (ODD, _name("B", i, j), {(i, n + j): 1, (j, n + i): 1}) for i, j in cells if i <= j
    ]
    basis += [
        (ODD, _name("C", i, j), {(n + i, j): 1, (n + j, i): -1}) for i, j in cells if i < j
    ]
    return _model(_units(n) + _units(n, -1), basis)


def lie_algebra_for(datum: SuperRootDatum) -> LieSuperAlgebra:
    """Instantiate the matrix model of the datum's family."""
    family = datum.family
    if family is None:
        raise ParameterError("datum %r carries no Lie-algebra handle" % datum.label)
    make = {"gl": gl_superalgebra, "q": q_superalgebra, "p": p_superalgebra}[family.kind]
    return make(*family.params)


# ---------------------------------------------------------------------------
# Subalgebra closure over Q with integral saturation.


def _unit(k: int, dim: int) -> Weight:
    """The k-th unit vector of Z^dim."""
    return (0,) * k + (1,) + (0,) * (dim - k - 1)


def _eliminate(vec: Element, piv: int, row: Element) -> None:
    """Clear vec[piv] against ``row``, positive at ``piv``, in place:
    vec <- (d/g) vec - (c/g) row with d = row[piv], c = vec[piv] and
    g = gcd(d, c), dropping the entries that become zero."""
    d, c = row[piv], vec[piv]
    g = math.gcd(d, c)
    d, c = d // g, c // g
    if d != 1:
        for k in vec:
            vec[k] *= d
    for k, w in row.items():
        v = vec.get(k, 0) - c * w
        if v:
            vec[k] = v
        else:
            vec.pop(k, None)


def _saturation(rows: Mapping[int, Element], dim: int) -> List[Weight]:
    """span_Q(rows) intersected with Z^dim, as HNF rows, for echelon rows
    {pivot: row}, each positive at its pivot and zero at every other
    row's pivot.

    A row with one entry spans the line of the unit vector at its pivot,
    a coordinate no other row touches, so that unit vector is its part of
    the saturation.  The other rows span a subspace of the coordinates T
    they touch, so their saturation is found in Z^T and embedded; merged
    by pivot, the rows stay the canonical HNF.  With d_i their pivots and
    D the lcm, each free column j in T gives the vector
    D e_j - sum_i (D / d_i) row_i[j] e_(pivot_i) orthogonal to the rows,
    and these span the orthogonal complement in Q^T; the saturation is
    the one integer kernel of that complement."""
    out = {piv: _unit(piv, dim) for piv, row in rows.items() if len(row) == 1}
    wide = {piv: row for piv, row in rows.items() if len(row) > 1}
    touched = sorted({j for row in wide.values() for j in row})
    at = {j: t for t, j in enumerate(touched)}
    lcm = math.lcm(*(row[piv] for piv, row in wide.items()))
    free = {j: [0] * len(touched) for j in touched if j not in wide}
    for j, vec in free.items():
        vec[at[j]] = lcm
    for piv, row in wide.items():
        scale = lcm // row[piv]
        for j, w in row.items():
            if j != piv:
                free[j][at[piv]] = -scale * w
    for short in lattice.integer_kernel(list(free.values()), len(touched)):
        vec = [0] * dim
        nonzero = list(compress(count(), short))
        for t in nonzero:
            vec[touched[t]] = short[t]
        out[touched[nonzero[0]]] = tuple(vec)
    return [out[piv] for piv in sorted(out)]


def subalgebra_closure(
    L: LieSuperAlgebra,
    generators: Iterable[Union[int, BasisElement, Mapping[int, int]]],
) -> List[Tuple[int, ...]]:
    """Saturated integral basis of the smallest bracket-closed subspace
    containing the generators (HNF rows in basis coordinates).

    The span is kept as integer echelon rows {pivot: {index: int}}: each
    row is primitive, positive at its pivot and zero at every other
    row's pivot, so a vector is reduced by one lookup per nonzero
    coordinate.

    For homogeneous generators the closure is spanned by the right-normed
    brackets [g1, [g2, ... [g_(k-1), g_k]]] (by induction on the super
    Jacobi identity), so each element u found is bracketed once, as
    [g, u], with each independent generator g that shares a row or column
    index with u (:meth:`LieSuperAlgebra.meets`); every other [g, u] is
    zero.  With a mixed generator each element is bracketed with every
    element found, in both orders when either of the two is mixed."""
    rows: Dict[int, Element] = {}
    # The pivots of the rows with more than one entry: only these can hold
    # a new row's pivot column.
    wide: Set[int] = set()

    def insert(vec: Mapping[int, object]) -> bool:
        den = math.lcm(*(v.denominator for v in vec.values()))
        red = {k: int(v * den) for k, v in vec.items()}
        for piv in [k for k in red if k in rows]:
            _eliminate(red, piv, rows[piv])
        if not red:
            return False
        piv = min(red)
        content = math.gcd(*red.values())
        content = content if red[piv] > 0 else -content
        row = {k: v // content for k, v in red.items()}
        for q in [q for q in wide if piv in rows[q]]:
            other = rows[q]
            _eliminate(other, piv, row)
            g = math.gcd(*other.values())
            if g != 1:
                for k in other:
                    other[k] //= g
            if len(other) == 1:
                wide.discard(q)
        rows[piv] = row
        if len(row) > 1:
            wide.add(piv)
        return True

    # Each element found, with whether it is homogeneous.
    found: List[Tuple[Element, bool]] = []

    def add(vec: Element) -> None:
        if insert(vec):
            found.append((vec, L.parity_of(vec) != MIXED))

    for g in generators:
        add(L.as_element(g))
    if all(h for _, h in found):
        gens = [(g, L.indices(g)) for g, _ in found]
        # found grows while walked.
        for u, _ in found:
            at = L.indices(u)
            for g, g_at in gens:
                if L.meets(g_at, at):
                    add(L.bracket(g, u))
    else:
        # found, and so the partners, grow while walked.
        for u, homogeneous_u in found:
            for v, homogeneous_v in found:
                add(L.bracket(v, u))
                if not (homogeneous_u and homogeneous_v):
                    add(L.bracket(u, v))
    return _saturation(rows, L.dim) if rows else []


# ---------------------------------------------------------------------------
# Admissible bases.


class AdmissibleBaseReport(
    namedtuple("AdmissibleBaseReport", "ok conditions failures mode")
):
    __slots__ = ()

    def condition(self, name: str) -> bool:
        for key, value in self.conditions:
            if key == name:
                return value
        raise KeyError(name)


def _cone_solver(
    base: Sequence[Weight], order: OrderFunctional, rank: int
) -> Callable[[Weight], bool]:
    """A membership test of the nonnegative integer cone of a base on
    which the order is positive.

    The base is taken in decreasing order value (a stable sort: ties
    keep the caller's order), and hnf([B | I]) is [U B | U] with U
    unimodular.  The one lattice.solver of the B parts of its rows with
    a nonzero B part finds t's coordinates y over them when t is in the
    lattice, and then x = y U, over those rows' U parts, solves x B = t.
    The rows with a zero B part are the relations R among the base
    elements, echelon in U, so t lies in the cone iff some x + z R is
    >= 0 (with none, iff x is).  Relation j is the last one nonzero at
    its pivot, so z_1 ... z_(d-1) are walked on an explicit stack, one
    pivot coordinate at a time, smallest first, within the budget of t's
    value under the order, scaled to integers once.  Echelon pivots lie
    as far left as they can, on the base elements of largest value, so
    each level is short.  The order is zero on R and positive on B, so
    the last relation has entries of both signs: the z_d that keep every
    coordinate >= 0 are an interval with two ends.
    """
    den = math.lcm(*(v.denominator for v in order.values))
    scaled = [v.numerator * (den // v.denominator) for v in order.values]
    base = sorted(base, key=lambda psi: sum(map(mul, scaled, psi)), reverse=True)
    values = [sum(map(mul, scaled, psi)) for psi in base]
    k = len(base)
    form = lattice.hnf(list(psi) + [int(s == t) for s in range(k)] for t, psi in enumerate(base))
    spanning = [row for row in form if any(row[:rank])]
    solve = lattice.solver([row[:rank] for row in spanning])
    columns = list(zip(*(row[rank:] for row in spanning)))  # of U
    relations = [row[rank:] for row in form[len(spanning):]]
    pivots = [next(compress(count(), rel)) for rel in relations]

    def lowest(j: int, c: List[int]) -> List[int]:
        # c plus the multiple of relation j that puts its pivot coordinate in [0, pivot entry)
        z = -(c[pivots[j]] // relations[j][pivots[j]])
        return [a + z * b for a, b in zip(c, relations[j])]

    def member(target: Weight) -> bool:
        y = solve(target)
        if y is None:
            return False
        if not relations:
            return all(sum(map(mul, y, col)) >= 0 for col in columns)
        x = [sum(map(mul, y, col)) for col in columns]
        last = relations[-1]
        # Each open state: z_1 ... z_j fixed in c, and the budget before
        # z_j's pivot coordinate is paid for.
        stack = [(0, lowest(0, x), sum(map(mul, scaled, target)))]
        while stack:
            j, c, budget = stack.pop()
            if j == len(pivots) - 1:
                low = max(-(a // b) for a, b in zip(c, last) if b > 0)
                high = min(a // -b for a, b in zip(c, last) if b < 0)
                if low <= high and all(a >= 0 for a, b in zip(c, last) if not b):
                    return True
                continue
            left = budget - c[pivots[j]] * values[pivots[j]]
            if left >= 0:
                # the next pivot coordinate up, and, popped first, z_(j+1);
                # the interval is read the same after any multiple of the last
                stack.append((j, [a + b for a, b in zip(c, relations[j])], budget))
                stack.append((j + 1, lowest(j + 1, c) if j + 2 < len(pivots) else c, left))
        return False

    return member


def check_admissible_base(
    L: LieSuperAlgebra,
    datum: SuperRootDatum,
    order: OrderFunctional,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
    mode: str = "assisted",
) -> AdmissibleBaseReport:
    """Evaluate the three base conditions: generation, separation,
    multiplicity-one.

    Generation demands (a) that every nonzero root, signed by the
    order's split, is a nonnegative integer combination of the base (one
    :func:`_cone_solver` for a dependent base as for an independent one),
    and (b) that every positive odd weight space lies in the bracket
    closure of the odd base vectors -- together with the even simple root
    vectors in ``assisted`` mode (default), or of the odd base vectors
    alone in ``strict`` mode.
    """
    if mode not in ("assisted", "strict"):
        raise ParameterError("mode must be 'assisted' or 'strict'")
    psi_even = sorted(tuple(w) for w in psi_even)
    psi_odd_set = sorted(set(tuple(w) for w in psi_odd))
    pos = positive_system(datum, order)
    expected_even = pos.simple_even
    if psi_even != expected_even:
        raise ParameterError(
            "psi_even %r is not the simple system %r of the positive even roots"
            % (psi_even, expected_even)
        )
    odd_pos = [w for w, _ in pos.odd_pos]
    for gamma in psi_odd_set:
        if gamma not in odd_pos:
            raise ParameterError("psi_odd root %r is not a positive odd root" % (gamma,))

    # generation (a): the base spans every root, signed by the split.
    base = list(dict.fromkeys(psi_even + psi_odd_set))
    member = _cone_solver(base, order, datum.rank)
    positive = {w for w, _ in pos.even_pos + pos.odd_pos}
    all_roots = set(datum.all_roots())
    signed = {root: root if root in positive else lattice.neg(root) for root in all_roots}
    # A root and its negative are signed alike: each signed root is tested once.
    spanned = {s: member(s) for s in dict.fromkeys(signed.values())}
    cone = [
        "generation: root %r is not a signed combination of the base" % (root,)
        for root in sorted(all_roots)
        if not spanned[signed[root]]
    ]

    # generation (b): bracket closure reaches every positive odd weight space.
    gens: List[Mapping[int, int]] = []
    for gamma in psi_odd_set:
        for b in L.weight_space(gamma, ODD):
            gens.append({b.index: 1})
    if mode == "assisted":
        for alpha in psi_even:
            gens.append({L.even_root_vector(alpha).index: 1})
    closure = subalgebra_closure(L, gens)
    escaped = [
        "generation: odd weight space %r escapes the %s closure" % (gamma, mode)
        for gamma in odd_pos
        for b in L.weight_space(gamma, ODD)
        if not lattice.in_lattice(_unit(b.index, L.dim), closure)
    ]

    # separation: gamma - alpha is never a root.
    separation = [
        "separation: %r - %r is a root" % (gamma, alpha)
        for alpha in psi_even
        for gamma in psi_odd_set
        if alpha != gamma and lattice.sub(gamma, alpha) in all_roots
    ]

    # multiplicity-one on shared simple roots.
    odd_mult = {r: m for r, m in datum.odd_roots}
    multiplicity = [
        "multiplicity-one: dim of odd space %r is %d"
        % (signed, odd_mult.get(signed, 0))
        for alpha in psi_even
        if alpha in psi_odd_set
        for signed in (alpha, lattice.neg(alpha))
        if odd_mult.get(signed, 0) != 1
    ]

    failures = cone + escaped + separation + multiplicity
    return AdmissibleBaseReport(
        ok=not failures,
        conditions=(
            ("generation", not cone and not escaped),
            ("separation", not separation),
            ("multiplicity-one", not multiplicity),
        ),
        failures=tuple(failures),
        mode=mode,
    )


def K_alpha(L: LieSuperAlgebra, alpha: Weight) -> Element:
    """Bracket of the even raising vector of weight alpha with the odd
    vector of weight -alpha; requires a one-dimensional odd space."""
    x = L.even_root_vector(alpha)
    neg_space = L.weight_space(lattice.neg(alpha), ODD)
    if len(neg_space) != 1:
        raise ParameterError(
            "odd weight space for %r has dimension %d, need 1"
            % (lattice.neg(alpha), len(neg_space))
        )
    return L.bracket(x, neg_space[0])


def eval_weight_on_cartan(
    L: LieSuperAlgebra, lam: Weight, h: Union[int, BasisElement, Mapping[int, int]]
) -> int:
    """Value of a weight on a diagonal even element, read off the first
    ``rank`` diagonal entries of its matrix."""
    lattice.check_rank(lam, L.rank)
    elem = L.as_element(h)
    parity = L.parity_of(elem)
    if parity not in (None, EVEN):
        raise ParameterError("element is not even")
    diag = L.diagonal(elem, "element")
    return sum(lam[i] * diag[i] for i in range(L.rank))
