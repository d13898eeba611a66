"""Independent brute-force oracles used by the test suite.

The Clifford oracle and the lattice box kernel call nothing under test:
the Clifford oracle builds the 2^l-dimensional superalgebra explicitly and reads the
simple-supermodule dimension off the regular representation by linear
algebra over an explicit splitting field (the eighth cyclotomic field,
which contains i and sqrt(2) and hence splits every diagonal form with
entries in {0, +-1, +-2}).  The digit-search reference keeps the
library's per-digit predicates and replaces only the search order's
implementation, by the eager sorted shift box.  The dense Lie models
build gl(m|n), q(n) and p(n) from dense N x N matrices, as the library
did before it stored only their nonzero entries, and the all-pairs table
brackets every ordered pair of basis elements, as the library did before
it paired only elements sharing a row or column index.  The reference
admissible-base check decides cone membership by the Fraction-valued DFS
on every base and closes subalgebras over dense Fraction rows, as the
library did before it scaled the order functional to integers.  The
elimination references are the routines that ``lattice.hnf`` and
``lattice.solver`` replaced: the two-pass HNF by extended-gcd row
updates, membership by reducing against a fresh HNF, the Fraction
Gauss-Jordan coordinate solver, and Gaussian elimination mod p for the
rank of a Gram form; Bareiss's fraction-free elimination gives
determinants.  The pairwise closure brackets each
new element with every member over Fraction rows and saturates with two
integer kernels, and the rebuilding decomposition checks the span by
building the element's matrix again, as the library did before it
bracketed new elements with the generators alone over integer rows and
checked each owner's entries in place.  The divided-power reference
applies x d/dy, y d/dx and x d/dx - y d/dy one step at a time and
divides the factorials out at the end, with no binomial coefficient.
The flatness reference is the two-loop rule, one loop for q(n) and one
for gl(m|n), that ``steinberg.is_flat`` replaced by one walk over
neighbour pairs.  The last section holds helpers that only the tests
call: the raising divided-power product, Lucas's binomial mod p, the
leading term of a character, the absolute-simplicity flag and the
closed-form digit expansion on gl(1|1).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import comb
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from superroot import lattice
from superroot.lattice import DimensionMismatch
from superroot.liesuper import (
    EVEN,
    ODD,
    AdmissibleBaseReport,
    BasisElement,
    DecompositionError,
    MIXED,
    LieSuperAlgebra,
    _matrix,
    check_admissible_base,
    super_commutator,
)
from superroot.rootdata import (
    OrderFunctional,
    ParameterError,
    SuperRootDatum,
    check_characteristic,
    check_odd_prime,
    positive_system,
    simple_even_roots,
)
from superroot.steinberg import (
    CharacterElement,
    DecompositionFailure,
    FlatnessError,
    UnsupportedFamilyError,
    _has_flat_rule,
    _restriction_rows,
    is_flat,
)

Weight = Tuple[int, ...]


class Cyc8:
    """Element of Q[x]/(x^4 + 1), coefficients as Fractions."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(v if type(v) is Fraction else Fraction(v) for v in c)
        if len(self.c) != 4:
            raise ValueError("need 4 coefficients")

    @staticmethod
    def from_int(n) -> "Cyc8":
        return Cyc8((n, 0, 0, 0))

    @staticmethod
    def gen(power: int = 1) -> "Cyc8":
        c = [0, 0, 0, 0]
        sign = 1
        power %= 8
        if power >= 4:
            sign, power = -1, power - 4
        c[power] = sign
        return Cyc8(c)

    def __bool__(self) -> bool:
        return any(self.c)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        return self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other):
        other = _coerce(other)
        return Cyc8(tuple(a + b for a, b in zip(self.c, other.c)))

    __radd__ = __add__

    def __neg__(self):
        return Cyc8(tuple(-a for a in self.c))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = [Fraction(0)] * 4
        for i, a in enumerate(self.c):
            if not a:
                continue
            for j, b in enumerate(other.c):
                if not b:
                    continue
                k = i + j
                if k >= 4:
                    out[k - 4] -= a * b  # x^4 = -1
                else:
                    out[k] += a * b
        return Cyc8(out)

    __rmul__ = __mul__

    def inv(self) -> "Cyc8":
        # Solve self * y = 1 as a 4x4 rational linear system.
        cols = [(self * Cyc8.gen(j)).c for j in range(4)]
        aug = [[cols[j][i] for j in range(4)] + [Fraction(1 if i == 0 else 0)] for i in range(4)]
        n = 4
        for col in range(n):
            piv = next(i for i in range(col, n) if aug[i][col])
            aug[col], aug[piv] = aug[piv], aug[col]
            d = aug[col][col]
            aug[col] = [v / d for v in aug[col]]
            for i in range(n):
                if i != col and aug[i][col]:
                    f = aug[i][col]
                    aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
        return Cyc8([aug[i][4] for i in range(4)])

    def __truediv__(self, other):
        return self * _coerce(other).inv()

    def __repr__(self):
        return "Cyc8%r" % (self.c,)


def _coerce(v) -> Cyc8:
    if isinstance(v, Cyc8):
        return v
    return Cyc8((Fraction(v), 0, 0, 0))


# ---------------------------------------------------------------------------
# Explicit Clifford superalgebra on bitmask basis.


class CliffordOracle:
    """Cl of a diagonal form: generators square to the diagonal entries
    and anticommute; basis monomials are index subsets as bitmasks."""

    def __init__(self, diag: Sequence[int], field=Cyc8):
        self.diag = list(diag)
        self.n = len(diag)
        self.dim = 1 << self.n
        self.field = field
        self.zero = field.from_int(0)
        self.one = field.from_int(1)

    def basis_mul(self, s: int, t: int) -> Tuple[int, int]:
        """Product of basis monomials e_s * e_t as (int coefficient, mask)."""
        coeff = 1
        out = s
        for gen in range(self.n):
            if not (t >> gen) & 1:
                continue
            higher = out >> (gen + 1)
            swaps = bin(higher).count("1")
            if swaps % 2:
                coeff = -coeff
            if (out >> gen) & 1:
                coeff *= self.diag[gen]
                out &= ~(1 << gen)
            else:
                out |= 1 << gen
            if coeff == 0:
                return 0, 0
        return coeff, out

    def parity(self, mask: int) -> int:
        return bin(mask).count("1") % 2

    def left_mul(self, s: int, vec: List) -> List:
        out = [self.zero] * self.dim
        for t, c in enumerate(vec):
            if not c:
                continue
            coeff, mask = self.basis_mul(s, t)
            if coeff:
                out[mask] = out[mask] + c * coeff
        return out

    # -- rational radical and socle (the defining systems live over Q) --

    def _trace_gram(self) -> List[List[int]]:
        gram = [[0] * self.dim for _ in range(self.dim)]
        for i in range(self.dim):
            for j in range(self.dim):
                tr = 0
                for t in range(self.dim):
                    c1, m1 = self.basis_mul(j, t)
                    if not c1:
                        continue
                    c2, m2 = self.basis_mul(i, m1)
                    if c2 and m2 == t:
                        tr += c1 * c2
                gram[i][j] = tr
        return gram

    def _rational_kernel(self, rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
        mat = [list(map(Fraction, r)) for r in rows]
        pivots = []
        rank = 0
        for col in range(ncols):
            piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            d = mat[rank][col]
            mat[rank] = [v / d for v in mat[rank]]
            for i in range(len(mat)):
                if i != rank and mat[i][col]:
                    f = mat[i][col]
                    mat[i] = [v - f * w for v, w in zip(mat[i], mat[rank])]
            pivots.append(col)
            rank += 1
        free = [c for c in range(ncols) if c not in pivots]
        kernel = []
        for fc in free:
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for prow, pcol in enumerate(pivots):
                vec[pcol] = -mat[prow][fc]
            kernel.append(vec)
        return kernel

    def radical(self) -> List[List[Fraction]]:
        gram = self._trace_gram()
        return self._rational_kernel([list(map(Fraction, row)) for row in gram], self.dim)

    def socle_basis(self, parity: int) -> List[List[Fraction]]:
        """Rational basis of the radical annihilator in the given parity."""
        rad = self.radical()
        coords = [m for m in range(self.dim) if self.parity(m) == parity]
        if not rad:
            rows = []
            for k, m in enumerate(coords):
                row = [Fraction(0)] * len(coords)
                row[k] = Fraction(1)
                rows.append(row)
            return [self._expand(row, coords) for row in rows]
        # unknowns: coefficients on `coords`; equations: for each radical
        # element j and each basis position, (j * v) == 0.
        eqs: List[List[Fraction]] = []
        for j in rad:
            cols = []
            for m in coords:
                image = [Fraction(0)] * self.dim
                for s, cj in enumerate(j):
                    if not cj:
                        continue
                    coeff, mask = self.basis_mul(s, m)
                    if coeff:
                        image[mask] += cj * coeff
                cols.append(image)
            for pos in range(self.dim):
                eqs.append([col[pos] for col in cols])
        kernel = self._rational_kernel(eqs, len(coords))
        return [self._expand(vec, coords) for vec in kernel]

    def _expand(self, vec: List[Fraction], coords: List[int]) -> List[Fraction]:
        out = [Fraction(0)] * self.dim
        for v, m in zip(vec, coords):
            out[m] = v
        return out

    # -- ideals over the splitting field --

    def _rref_insert(self, rows, vec) -> bool:
        vec = list(vec)
        for piv, row in rows:
            if vec[piv]:
                f = vec[piv]  # rows are pivot-normalized
                vec = [a - f * b for a, b in zip(vec, row)]
        lead = next((i for i, v in enumerate(vec) if v), None)
        if lead is None:
            return False
        inv = self.one / vec[lead]
        rows.append((lead, [inv * v for v in vec]))
        return True

    def ideal_dim_and_basis(self, w: List) -> Tuple[int, List[List]]:
        rows: List[Tuple[int, List]] = []
        basis = []
        for s in range(self.dim):
            img = self.left_mul(s, w)
            if self._rref_insert(rows, img):
                basis.append(img)
        return len(rows), basis

    def algebra_mul(self, u: List, v: List) -> List:
        out = [self.zero] * self.dim
        for s, cu in enumerate(u):
            if not cu:
                continue
            for t, cv in enumerate(v):
                if not cv:
                    continue
                coeff, mask = self.basis_mul(s, t)
                if coeff:
                    out[mask] = out[mask] + cu * cv * coeff
        return out

    def _sqrt(self, value: int):
        """Square root of +-1, +-2 times a perfect square, inside the
        eighth cyclotomic field."""
        if value == 0:
            raise AssertionError("zero has no useful square root here")
        square = 1
        rest = abs(value)
        f = 2
        while f * f <= rest:
            while rest % (f * f) == 0:
                rest //= f * f
                square *= f
            f += 1
        if rest not in (1, 2):
            raise AssertionError("no square root prepared for %d" % value)
        table = {
            1: Cyc8((1, 0, 0, 0)),
            -1: Cyc8((0, 0, 1, 0)),
            2: Cyc8((0, 1, 0, -1)),
            -2: Cyc8((0, 1, 0, 1)),
        }
        root = table[rest if value > 0 else -rest] * square
        assert root * root == Cyc8.from_int(value)
        return root

    def _idempotent_probe(self) -> List:
        """Explicit small cyclic generator: orthogonal pair idempotents on
        the nondegenerate generators times the top null monomial."""
        nonzero = [s for s in range(self.n) if self.diag[s]]
        null_mask = 0
        for s in range(self.n):
            if not self.diag[s]:
                null_mask |= 1 << s
        f = [self.zero] * self.dim
        f[0] = self.one
        half = self.field.from_int(1) / self.field.from_int(2)
        for a, b in zip(nonzero[0::2], nonzero[1::2]):
            coeff, mask = self.basis_mul(1 << a, 1 << b)
            z = [self.zero] * self.dim
            z[mask] = self._sqrt(-self.diag[a] * self.diag[b]).inv() * coeff
            factor = [self.zero] * self.dim
            factor[0] = half
            factor = [x + half * y for x, y in zip(factor, z)]
            f = self.algebra_mul(f, factor)
        top = [self.zero] * self.dim
        top[null_mask] = self.one
        return self.algebra_mul(f, top)

    def simple_supermodule(self, seed: int = 11, certify: bool = True) -> Tuple[int, str]:
        """Dimension and type of the simple supermodule of the regular
        representation, with an endomorphism-based simplicity certificate.

        With ``certify=False`` (for non-split coefficient fields) only the
        minimal cyclic-ideal dimension is returned and the type is None.
        """
        probes: List[List] = []
        if self.field is Cyc8:
            probes.append(self._idempotent_probe())
        for parity in (0, 1):
            soc = self.socle_basis(parity)
            vecs = [[_lift(self.field, v) for v in row] for row in soc]
            probes.extend(vecs)
            rng = random.Random(seed + parity)
            for _ in range(4):
                if not vecs:
                    break
                combo = [self.field.from_int(0)] * self.dim
                for vec in vecs:
                    if self.field is Cyc8:
                        coeff = Cyc8([rng.randint(-1, 1) for _ in range(4)])
                    else:
                        coeff = self.field.from_int(rng.randint(-2, 2))
                    combo = [a + coeff * b for a, b in zip(combo, vec)]
                probes.append(combo)
        dims = []
        best = None
        best_basis = None
        for w in probes:
            if not any(w):
                continue
            d, basis = self.ideal_dim_and_basis(w)
            dims.append(d)
            if best is None or d < best:
                best, best_basis = d, basis
        if best is None:
            raise AssertionError("no nonzero probe found")
        for d in dims:
            if d % best:
                raise AssertionError("ideal dims %r not multiples of %d" % (dims, best))
        if not certify:
            return best, None
        e_even = self._endo_space_dim(best_basis, reverse=False)
        e_odd = self._endo_space_dim(best_basis, reverse=True)
        if (e_even, e_odd) not in ((1, 0), (1, 1)):
            raise AssertionError(
                "minimal ideal not certified simple: endo dims %r" % ((e_even, e_odd),)
            )
        return best, "Q" if e_odd else "M"

    def _endo_space_dim(self, module_basis: List[List], reverse: bool) -> int:
        """Dimension of the space of module endomorphisms that preserve
        (reverse=False) or swap (reverse=True) the parity."""
        k = len(module_basis)
        rows: List[Tuple[int, List]] = []
        reduced = []
        for vec in module_basis:
            v = list(vec)
            for piv, row in rows:
                if v[piv]:
                    f = v[piv]
                    v = [a - f * b for a, b in zip(v, row)]
            lead = next(i for i, val in enumerate(v) if val)
            inv = self.one / v[lead]
            v = [inv * val for val in v]
            rows.append((lead, v))
            reduced.append((lead, v, inv))

        def coords(vec: List) -> List:
            v = list(vec)
            out = [self.field.from_int(0)] * k
            for idx, (piv, row, _inv) in enumerate(reduced):
                if v[piv]:
                    f = v[piv]
                    out[idx] = f
                    v = [a - f * b for a, b in zip(v, row)]
            if any(v):
                raise AssertionError("vector escapes the module")
            return out

        basis = [row for _piv, row, _inv in reduced]
        parities = []
        for vec in basis:
            ps = {self.parity(m) for m, v in enumerate(vec) if v}
            if len(ps) != 1:
                raise AssertionError("module basis vector not homogeneous")
            parities.append(ps.pop())
        nunk = k * k
        zero = self.field.from_int(0)
        eqs: List[List] = []
        want_diff = 1 if reverse else 0
        for i in range(k):
            for j in range(k):
                if (parities[i] + parities[j]) % 2 != want_diff:
                    row = [zero] * nunk
                    row[i * k + j] = self.field.from_int(1)
                    eqs.append(row)
        # phi(s.b_j) = (-1)^{|s||phi|} s.phi(b_j) for each generator s
        for g in range(self.n):
            s = 1 << g
            sgn = -1 if (reverse and self.parity(s)) else 1
            act = [coords(self.left_mul(s, b)) for b in basis]
            for j in range(k):
                for i in range(k):
                    row = [zero] * nunk
                    for t in range(k):
                        row[t * k + i] = row[t * k + i] + act[j][t]
                        row[j * k + t] = row[j * k + t] - sgn * act[t][i]
                    eqs.append(row)
        rank = 0
        rowsys: List[Tuple[int, List]] = []
        one = self.field.from_int(1)
        for eq in eqs:
            v = list(eq)
            for piv, row in rowsys:
                if v[piv]:
                    f = v[piv]
                    v = [a - f * b for a, b in zip(v, row)]
            lead = next((i for i, val in enumerate(v) if val), None)
            if lead is not None:
                inv = one / v[lead]
                rowsys.append((lead, [inv * val for val in v]))
                rank += 1
        return nunk - rank


def _lift(field, value):
    if field is Cyc8:
        return Cyc8((value, 0, 0, 0))
    return value


class RationalField:
    """Adapter so the oracle can also run over plain Q."""

    @staticmethod
    def from_int(n) -> Fraction:
        return Fraction(n)


def clifford_simple_dim(
    diag: Sequence[int], field=Cyc8, seed: int = 11, certify: bool = True
) -> Tuple[int, str]:
    return CliffordOracle(diag, field=field).simple_supermodule(seed=seed, certify=certify)


# ---------------------------------------------------------------------------
# Brute-force lattice kernel over a box.


def kernel_box_vectors(covs, rank: int, radius: int = 3):
    """All vectors in the box [-radius, radius]^rank annihilating every cov."""
    out = []

    def rec(prefix):
        if len(prefix) == rank:
            vec = tuple(prefix)
            if all(sum(a * b for a, b in zip(vec, c)) == 0 for c in covs):
                out.append(vec)
            return
        for v in range(-radius, radius + 1):
            rec(prefix + [v])

    rec([])
    return out


# ---------------------------------------------------------------------------
# Reference digit search: the eager shift box.
#
# This is the digit search as it was before shifts were generated lazily:
# the whole (2R+1)^rank box is built and sorted by (L1 size, lex) on every
# call, every shift is tried, and the remainder test rejects the ones that
# do not approach zero.  The per-digit predicates (flatness and restriction
# rows) are the library's own; the search and the bound rule, as it was
# written before the restriction checks shared one rule, are the reference.


def _reference_bound(lam, kvec, p, q):
    """lam(K_alpha) (None off the odd base) and the bound on lam's pairing
    with the coroot: q = p^r when p does not divide lam(K_alpha), else q - 1."""
    if kvec is None:
        return None, q - 1
    kval = lattice.pair(lam, kvec)
    return kval, q - 1 if kval % p == 0 else q


def _reference_is_dominant(datum, order, lam) -> bool:
    """Nonnegative pairing against every positive even coroot."""
    lattice.check_rank(lam, datum.rank)
    pos = positive_system(datum, order)
    pos_set = {w for w, _ in pos.even_pos}
    for root, coroot in datum.even_roots:
        if root in pos_set and lattice.pair(lam, coroot) < 0:
            return False
    return True


def shift_boxes(rank: int, radius: int) -> List[Tuple[int, ...]]:
    """Every shift in [-radius, radius]^rank, by L1 size and then lex."""
    shifts = [()]
    for _ in range(rank):
        shifts = [s + (k,) for s in shifts for k in range(-radius, radius + 1)]
    shifts.sort(key=lambda s: (sum(abs(k) for k in s), s))
    return shifts


def reference_decompose(
    datum, L, order, psi_even, psi_odd, lam, p, radius=None, validate_base=True,
):
    """``steinberg_decompose`` over the eager shift box; same signature,
    same digits, same exception types and messages."""
    check_odd_prime(p)
    lattice.check_rank(lam, datum.rank)
    if validate_base:
        base_report = check_admissible_base(L, datum, order, psi_even, psi_odd)
        if not base_report.ok:
            raise ParameterError(
                "(psi_even, psi_odd) is not an admissible base: %s"
                % "; ".join(base_report.failures)
            )
    weakened = not _has_flat_rule(datum.family)

    def passes_flat(w: Weight) -> bool:
        return _reference_is_dominant(datum, order, w) if weakened else is_flat(datum, p, w)

    if not passes_flat(lam):
        raise FlatnessError(
            "weight %r fails the %s precondition"
            % (lam, "dominance" if weakened else "flatness")
        )
    rows = _restriction_rows(datum, L, psi_even, psi_odd)

    radius = 2 if radius is None else radius
    shifts = shift_boxes(datum.rank, radius)
    top = max((abs(c) for c in lam), default=0)
    max_digits = 3
    q = 1
    while q <= top:
        q *= p
        max_digits += 1
    frontier: List[Weight] = []
    dead: Dict[Tuple[Weight, int], bool] = {}

    def dfs(mu: Weight, budget: int) -> Optional[List[Weight]]:
        if lattice.is_zero(mu):
            return []
        if budget == 0:
            if len(frontier) < 32:
                frontier.append(mu)
            return None
        if dead.get((mu, budget)):
            return None
        residues = tuple(c % p for c in mu)
        height = max(abs(c) for c in mu)
        for shift in shifts:
            digit = tuple(res + p * k for res, k in zip(residues, shift))
            nxt = tuple((c - d) // p for c, d in zip(mu, digit))
            if any(nxt) and max(abs(c) for c in nxt) >= height:
                continue
            if not passes_flat(digit):
                continue
            if any(
                lattice.pair(digit, coroot) > _reference_bound(digit, kvec, p, p)[1]
                for _a, coroot, kvec in rows
            ):
                continue
            if not passes_flat(nxt):
                continue
            tail = dfs(nxt, budget - 1)
            if tail is not None:
                return [digit] + tail
        dead[(mu, budget)] = True
        return None

    digits = dfs(tuple(lam), max_digits)
    if digits is None:
        raise DecompositionFailure(
            "no decomposition of %r within radius %d and %d digits"
            % (lam, radius, max_digits),
            frontier,
        )
    while digits and lattice.is_zero(digits[-1]):
        digits.pop()
    return digits


# ---------------------------------------------------------------------------
# The bracket table as it was built before the basis was indexed by rows
# and columns: one commutator per ordered pair of basis elements.


def all_pairs_bracket_table(L: LieSuperAlgebra) -> Dict[Tuple[int, int], Dict[int, int]]:
    """The bracket table of the sparse model ``L`` from all dim^2 ordered
    pairs of basis elements."""
    table: Dict[Tuple[int, int], Dict[int, int]] = {}
    for x in L.basis:
        for y in L.basis:
            mat = super_commutator(x.matrix, y.matrix, x.parity, y.parity)
            coeffs = L.decompose(mat)
            if coeffs:
                table[(x.index, y.index)] = coeffs
    return table


# ---------------------------------------------------------------------------
# The Lie models as they were before matrices were stored sparse: every
# basis matrix is a dense N x N tuple, the bracket table is built from
# dim^2 dense commutators, and decomposition scans a dense residual.


Matrix = Tuple[Tuple[int, ...], ...]
Element = Dict[int, int]


def _zero_matrix(size: int) -> List[List[int]]:
    return [[0] * size for _ in range(size)]


def _freeze(mat: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(row) for row in mat)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    size = len(a)
    out = _zero_matrix(size)
    for i in range(size):
        arow = a[i]
        orow = out[i]
        for k in range(size):
            if arow[k]:
                c = arow[k]
                brow = b[k]
                for j in range(size):
                    if brow[j]:
                        orow[j] += c * brow[j]
    return _freeze(out)


def mat_add(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    return _freeze(
        [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    )


def dense_super_commutator(a: Matrix, b: Matrix, parity_a: str, parity_b: str) -> Matrix:
    sign = -1 if (parity_a == ODD and parity_b == ODD) else 1
    return mat_add(mat_mul(a, b), mat_mul(b, a), -sign)


class DenseLieSuperAlgebra:
    """Finite homogeneous basis plus the exact bracket table, with every
    matrix stored dense."""

    def __init__(self, rank: int, size: int, basis: List[BasisElement]):
        self.rank = rank
        self.size = size
        self.basis = basis
        self.dim = len(basis)
        self._anchors: List[Tuple[int, int, int]] = []
        seen = set()
        for b in basis:
            anchor = None
            for i in range(size):
                for j in range(size):
                    if b.matrix[i][j]:
                        if (i, j) in seen:
                            raise ValueError("basis supports are not disjoint")
                        seen.add((i, j))
                        if anchor is None:
                            anchor = (i, j, b.matrix[i][j])
            if anchor is None:
                raise ValueError("zero basis matrix")
            self._anchors.append(anchor)
        self.bracket_table: Dict[Tuple[int, int], Element] = {}
        for x in basis:
            for y in basis:
                mat = dense_super_commutator(x.matrix, y.matrix, x.parity, y.parity)
                coeffs = self.decompose(mat)
                if coeffs:
                    self.bracket_table[(x.index, y.index)] = coeffs

    # -- coordinates ----------------------------------------------------

    def decompose(self, mat: Matrix) -> Element:
        """Exact coordinates of ``mat`` over the basis."""
        coeffs: Element = {}
        residual = [list(row) for row in mat]
        for b, (i, j, v) in zip(self.basis, self._anchors):
            c = residual[i][j] * (1 if v == 1 else -1) if abs(v) == 1 else None
            if c is None:
                # anchors are +-1 for all built-in families
                if residual[i][j] % v:
                    raise DecompositionError("non-integral coordinate")
                c = residual[i][j] // v
            if c:
                coeffs[b.index] = c
                for r in range(self.size):
                    row = b.matrix[r]
                    for s in range(self.size):
                        if row[s]:
                            residual[r][s] -= c * row[s]
        if any(any(row) for row in residual):
            raise DecompositionError("matrix is not in the span of the basis")
        return coeffs

    def element_matrix(self, elem: Mapping[int, int]) -> Matrix:
        out = _zero_matrix(self.size)
        for idx, c in elem.items():
            for i in range(self.size):
                row = self.basis[idx].matrix[i]
                for j in range(self.size):
                    if row[j]:
                        out[i][j] += c * row[j]
        return _freeze(out)


def dense_gl_superalgebra(m: int, n: int) -> LieSuperAlgebra:
    if m < 1 or n < 1:
        raise ParameterError("gl(m|n) requires m, n >= 1")
    size = m + n
    basis: List[BasisElement] = []
    odd: List[Tuple[str, Weight, Matrix]] = []
    for i in range(size):
        for j in range(size):
            mat = _zero_matrix(size)
            mat[i][j] = 1
            weight = lattice.unit_difference(size, i, j)
            same_block = (i < m) == (j < m)
            if same_block:
                name = "H_%d" % (i + 1) if i == j else "X[%d,%d]" % (i + 1, j + 1)
                basis.append(
                    BasisElement(len(basis), EVEN, weight, _freeze(mat), name)
                )
            else:
                odd.append(("Y[%d,%d]" % (i + 1, j + 1), weight, _freeze(mat)))
    for name, weight, mat in odd:
        basis.append(BasisElement(len(basis), ODD, weight, mat, name))
    return DenseLieSuperAlgebra(size, size, basis)


def dense_q_superalgebra(n: int) -> LieSuperAlgebra:
    if n < 1:
        raise ParameterError("q(n) requires n >= 1")
    size = 2 * n
    basis: List[BasisElement] = []
    for i in range(n):
        for j in range(n):
            mat = _zero_matrix(size)
            mat[i][j] = 1
            mat[n + i][n + j] = 1
            name = "H_%d" % (i + 1) if i == j else "X[%d,%d]" % (i + 1, j + 1)
            weight = lattice.unit_difference(n, i, j)
            basis.append(BasisElement(len(basis), EVEN, weight, _freeze(mat), name))
    for i in range(n):
        for j in range(n):
            mat = _zero_matrix(size)
            mat[i][n + j] = 1
            mat[n + i][j] = 1
            name = "K_%d" % (i + 1) if i == j else "Y[%d,%d]" % (i + 1, j + 1)
            weight = lattice.unit_difference(n, i, j)
            basis.append(BasisElement(len(basis), ODD, weight, _freeze(mat), name))
    return DenseLieSuperAlgebra(n, size, basis)


def dense_p_superalgebra(n: int) -> LieSuperAlgebra:
    if n < 2:
        raise ParameterError("p(n) requires n >= 2")
    size = 2 * n
    basis: List[BasisElement] = []
    for i in range(n):
        for j in range(n):
            mat = _zero_matrix(size)
            mat[i][j] = 1
            mat[n + j][n + i] = -1
            name = "H_%d" % (i + 1) if i == j else "X[%d,%d]" % (i + 1, j + 1)
            weight = lattice.unit_difference(n, i, j)
            basis.append(BasisElement(len(basis), EVEN, weight, _freeze(mat), name))
    # symmetric block: weights li + lj (diagonal gives 2*li)
    for i in range(n):
        for j in range(i, n):
            mat = _zero_matrix(size)
            mat[i][n + j] = 1
            if i != j:
                mat[j][n + i] = 1
            weight = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(n)
            )
            basis.append(
                BasisElement(
                    len(basis), ODD, weight, _freeze(mat), "B[%d,%d]" % (i + 1, j + 1)
                )
            )
    # antisymmetric block: weights -(li + lj), i < j
    for i in range(n):
        for j in range(i + 1, n):
            mat = _zero_matrix(size)
            mat[n + i][j] = 1
            mat[n + j][i] = -1
            weight = tuple(
                -(1 if k == i else 0) - (1 if k == j else 0) for k in range(n)
            )
            basis.append(
                BasisElement(
                    len(basis), ODD, weight, _freeze(mat), "C[%d,%d]" % (i + 1, j + 1)
                )
            )
    return DenseLieSuperAlgebra(n, size, basis)


# ---------------------------------------------------------------------------
# The admissible-base check as it was before order values were scaled to
# integers: a Fraction-valued DFS for cone membership on every base, and
# a subalgebra closure over dense Fraction rows, reduced row by row.


def _reduce(vec: List[Fraction], rows: List[Tuple[int, List[Fraction]]]) -> List[Fraction]:
    for piv, row in rows:
        if vec[piv]:
            c = vec[piv] / row[piv]
            vec = [a - c * b for a, b in zip(vec, row)]
    return vec


def dense_subalgebra_closure(
    L: LieSuperAlgebra,
    generators: Iterable[Union[int, BasisElement, Mapping[int, int]]],
) -> List[Tuple[int, ...]]:
    """Saturated integral basis of the smallest bracket-closed subspace
    containing the generators (HNF rows in basis coordinates)."""
    rows: List[Tuple[int, List[Fraction]]] = []

    def insert(vec: List[Fraction]) -> bool:
        vec = _reduce(list(vec), rows)
        piv = next((i for i, v in enumerate(vec) if v), None)
        if piv is None:
            return False
        rows.append((piv, vec))
        return True

    def to_vec(elem: Mapping[int, object]) -> List[Fraction]:
        out = [Fraction(0)] * L.dim
        for k, v in elem.items():
            out[k] = Fraction(v)
        return out

    table = all_pairs_bracket_table(L)
    frontier: List[List[Fraction]] = []
    for g in generators:
        vec = to_vec(L.as_element(g))
        if insert(vec):
            frontier.append(vec)
    members: List[List[Fraction]] = list(frontier)
    while frontier:
        new_frontier: List[List[Fraction]] = []
        for u in frontier:
            for v in members:
                for a, b in ((u, v), (v, u)):
                    prod: Dict[int, Fraction] = {}
                    for i, ci in enumerate(a):
                        if not ci:
                            continue
                        for j, cj in enumerate(b):
                            if not cj:
                                continue
                            entry = table.get((i, j))
                            if not entry:
                                continue
                            c = ci * cj
                            for k, w in entry.items():
                                prod[k] = prod.get(k, Fraction(0)) + c * w
                    vec = to_vec(prod)
                    if insert(vec):
                        new_frontier.append(vec)
        members.extend(new_frontier)
        frontier = new_frontier
    if not rows:
        return []
    int_rows = []
    for _piv, row in rows:
        den = math.lcm(*(v.denominator for v in row))
        int_rows.append([int(v * den) for v in row])
    return two_kernel_saturate(int_rows, L.dim)


def fraction_cone_member(
    target: Weight,
    psis: Sequence[Weight],
    order: OrderFunctional,
    memo: Dict[Weight, bool],
) -> bool:
    """Whether target is a nonnegative integer combination of the psis.

    All psis have positive order value, so the order value is a strictly
    decreasing budget and the search terminates.
    """
    if target in memo:
        return memo[target]
    if lattice.is_zero(target):
        return True
    memo[target] = False
    budget = order.eval(target)
    for psi in psis:
        if order.eval(psi) <= budget:
            if fraction_cone_member(lattice.sub(target, psi), psis, order, memo):
                memo[target] = True
                break
    return memo[target]


def reference_check_admissible_base(
    L: LieSuperAlgebra,
    datum: SuperRootDatum,
    order: OrderFunctional,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
    mode: str = "assisted",
) -> AdmissibleBaseReport:
    """Evaluate the three base conditions: generation, separation,
    multiplicity-one.

    Generation demands (a) that every nonzero root is a sign-definite
    integer combination of the base, and (b) that every positive odd
    weight space lies in the bracket closure of the odd base vectors --
    together with the even simple root vectors in ``assisted`` mode
    (default), or of the odd base vectors alone in ``strict`` mode.
    """
    if mode not in ("assisted", "strict"):
        raise ParameterError("mode must be 'assisted' or 'strict'")
    psi_even = sorted(tuple(w) for w in psi_even)
    psi_odd_set = sorted(set(tuple(w) for w in psi_odd))
    expected_even = simple_even_roots(datum, order)
    if psi_even != expected_even:
        raise ParameterError(
            "psi_even %r is not the simple system %r of the positive even roots"
            % (psi_even, expected_even)
        )
    pos = positive_system(datum, order)
    odd_pos = [w for w, _ in pos.odd_pos]
    for gamma in psi_odd_set:
        if gamma not in odd_pos:
            raise ParameterError("psi_odd root %r is not a positive odd root" % (gamma,))

    failures: List[str] = []

    # generation (a): the base spans every root with a uniform sign.
    base = list(dict.fromkeys(psi_even + psi_odd_set))
    memo: Dict[Weight, bool] = {}
    cone_ok = True
    for root in sorted(set(datum.all_roots())):
        if order.eval(root) > 0:
            member = fraction_cone_member(root, base, order, memo)
        else:
            member = fraction_cone_member(lattice.neg(root), base, order, memo)
        if not member:
            cone_ok = False
            failures.append(
                "generation: root %r is not a signed combination of the base" % (root,)
            )

    # generation (b): bracket closure reaches every positive odd weight space.
    gens: List[Mapping[int, int]] = []
    for gamma in psi_odd_set:
        for b in L.weight_space(gamma, ODD):
            gens.append({b.index: 1})
    if mode == "assisted":
        for alpha in psi_even:
            gens.append({L.even_root_vector(alpha).index: 1})
    closure = dense_subalgebra_closure(L, gens)
    closure_ok = True
    for gamma in odd_pos:
        for b in L.weight_space(gamma, ODD):
            vec = [0] * L.dim
            vec[b.index] = 1
            if not lattice.in_lattice(vec, closure):
                closure_ok = False
                failures.append(
                    "generation: odd weight space %r escapes the %s closure"
                    % (gamma, mode)
                )
    generation_ok = cone_ok and closure_ok

    # separation: gamma - alpha is never a root.
    all_roots = set(datum.all_roots())
    separation_ok = True
    for alpha in psi_even:
        for gamma in psi_odd_set:
            if alpha == gamma:
                continue
            if lattice.sub(gamma, alpha) in all_roots:
                separation_ok = False
                failures.append(
                    "separation: %r - %r is a root" % (gamma, alpha)
                )

    # multiplicity-one on shared simple roots.
    odd_mult = {r: m for r, m in datum.odd_roots}
    shared = [a for a in psi_even if a in psi_odd_set]
    mult_ok = True
    for alpha in shared:
        for signed in (alpha, lattice.neg(alpha)):
            if odd_mult.get(signed, 0) != 1:
                mult_ok = False
                failures.append(
                    "multiplicity-one: dim of odd space %r is %d"
                    % (signed, odd_mult.get(signed, 0))
                )

    conditions = (
        ("generation", generation_ok),
        ("separation", separation_ok),
        ("multiplicity-one", mult_ok),
    )
    return AdmissibleBaseReport(
        ok=generation_ok and separation_ok and mult_ok,
        conditions=conditions,
        failures=tuple(failures),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Saturation, the closure and the span check as they were before the
# closure kept integer rows: two integer kernels, a pairwise closure over
# Fraction rows, and a decomposition that rebuilds the element's matrix.


def two_kernel_saturate(rows: Sequence[Sequence[int]], rank: int) -> List[Weight]:
    """Saturation of the row lattice: (span_Q(rows)) intersected with Z^rank."""
    ortho = lattice.integer_kernel(rows, rank)
    return lattice.integer_kernel(ortho, rank)


def _subtract(vec: Dict[int, Fraction], c: Fraction, row: Dict[int, Fraction]) -> None:
    """vec -= c * row in place, dropping the entries that become zero."""
    for k, w in row.items():
        v = vec.get(k, 0) - c * w
        if v:
            vec[k] = v
        else:
            vec.pop(k, None)


def pairwise_subalgebra_closure(
    L: LieSuperAlgebra,
    generators: Iterable[Union[int, BasisElement, Mapping[int, int]]],
) -> List[Tuple[int, ...]]:
    """Saturated integral basis of the smallest bracket-closed subspace
    containing the generators (HNF rows in basis coordinates).

    The span is kept as reduced echelon rows {index: Fraction}: each row
    is 1 at its pivot and 0 at every other row's pivot, so a vector is
    reduced by one lookup per nonzero coordinate."""
    pivot_rows: Dict[int, Dict[int, Fraction]] = {}

    def insert(vec: Mapping[int, object]) -> bool:
        red = {k: Fraction(v) for k, v in vec.items()}
        for piv in [k for k in red if k in pivot_rows]:
            _subtract(red, red[piv], pivot_rows[piv])
        if not red:
            return False
        piv = min(red)
        lead = red[piv]
        row = {k: v / lead for k, v in red.items()}
        for other in pivot_rows.values():
            if piv in other:
                _subtract(other, other[piv], row)
        pivot_rows[piv] = row
        return True

    # Elements with whether they are homogeneous.  For homogeneous u and
    # v, [v, u] = -+[u, v] lies in the span of [u, v], so only [u, v] is
    # formed; a pair with a mixed element is bracketed in both orders.
    frontier: List[Tuple[Element, bool]] = []

    def add(vec: Element, to: List[Tuple[Element, bool]]) -> None:
        if insert(vec):
            to.append((vec, L.parity_of(vec) != MIXED))

    for g in generators:
        add(L.as_element(g), frontier)
    members = list(frontier)
    while frontier:
        new_frontier: List[Tuple[Element, bool]] = []
        for u, homogeneous_u in frontier:
            for v, homogeneous_v in members:
                add(L.bracket(u, v), new_frontier)
                if not (homogeneous_u and homogeneous_v):
                    add(L.bracket(v, u), new_frontier)
        members.extend(new_frontier)
        frontier = new_frontier
    int_rows = []
    for row in pivot_rows.values():
        den = math.lcm(*(v.denominator for v in row.values()))
        dense = [0] * L.dim
        for k, v in row.items():
            dense[k] = int(v * den)
        int_rows.append(dense)
    return two_kernel_saturate(int_rows, L.dim) if int_rows else []


def rebuild_decompose(
    L: LieSuperAlgebra, mat: Sequence[Tuple[Tuple[int, int], int]]
) -> Dict[int, int]:
    """Exact coordinates of the sparse matrix ``mat`` over the basis of
    ``L``, with the span checked by rebuilding the element's matrix."""
    entries = dict(mat)
    coeffs: Dict[int, int] = {}
    for idx in sorted({L._owner[ij] for ij in entries if ij in L._owner}):
        anchor, v = L.basis[idx].matrix[0]
        c, rem = divmod(entries.get(anchor, 0), v)
        if rem:
            raise DecompositionError("non-integral coordinate")
        if c:
            coeffs[idx] = c
    if L.element_matrix(coeffs) != _matrix(entries):
        raise DecompositionError("matrix is not in the span of the basis")
    return coeffs


# ---------------------------------------------------------------------------
# The elimination routines as they were before lattice.hnf and
# lattice.solver became the only integer linear algebra of the package.


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    # Returns (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0 when a,b not both 0.
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def reference_hnf(rows: Iterable[Sequence[int]]) -> List[Weight]:
    """Row-style Hermite normal form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into
    [0, pivot), zero rows are dropped.  The result is a canonical basis
    of the row lattice.
    """
    mat = [list(r) for r in rows]
    mat = [r for r in mat if any(r)]
    if not mat:
        return []
    ncols = len(mat[0])
    for r in mat:
        if len(r) != ncols:
            raise DimensionMismatch("ragged rows in hnf input")
    pivot_row = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(ncols):
        # Eliminate everything below pivot_row in this column via gcd steps.
        nonzero = [i for i in range(pivot_row, len(mat)) if mat[i][col]]
        if not nonzero:
            continue
        i0 = nonzero[0]
        mat[pivot_row], mat[i0] = mat[i0], mat[pivot_row]
        for i in range(pivot_row + 1, len(mat)):
            if not mat[i][col]:
                continue
            a, b = mat[pivot_row][col], mat[i][col]
            x, y, g = _xgcd(a, b)
            ag, bg = a // g, b // g
            ri, rp = mat[i], mat[pivot_row]
            for j in range(ncols):
                rp[j], ri[j] = x * rp[j] + y * ri[j], ag * ri[j] - bg * rp[j]
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-v for v in mat[pivot_row]]
        pivots.append((pivot_row, col))
        pivot_row += 1
        if pivot_row == len(mat):
            break
    mat = mat[:pivot_row]
    # Reduce entries above each pivot, left to right: row prow is zero
    # left of pcol, so a subtraction never disturbs an earlier column.
    for prow, pcol in pivots:
        piv = mat[prow][pcol]
        for i in range(prow):
            q = mat[i][pcol] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[prow])]
    return [tuple(r) for r in mat]


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination: every division is exact, so all entries stay integers."""
    mat = [list(r) for r in rows]
    size = len(mat)
    sign, prev = 1, 1
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if size else 1


def hnf_in_lattice(vec: Sequence[int], basis: Sequence[Sequence[int]]) -> bool:
    """Whether ``vec`` is an integer combination of the (HNF) basis rows."""
    if not basis:
        return not any(vec)
    rank = len(basis[0])
    lattice.check_rank(vec, rank)
    residue = list(vec)
    rows = lattice.hnf(basis)
    for row in rows:
        col = next((j for j, v in enumerate(row) if v), None)
        if col is None:
            continue
        if residue[col] % row[col] != 0:
            return False
        q = residue[col] // row[col]
        residue = [a - q * b for a, b in zip(residue, row)]
    return not any(residue)


def fraction_coordinate_solver(
    base: Sequence[Weight], rank: int
) -> Optional[Callable[[Weight], bool]]:
    """For a linearly independent nonempty base, a membership test of its
    nonnegative integer cone; None for a dependent or empty base.

    Gauss-Jordan elimination on [B | I] finds pivot columns P with B_P
    invertible and E = B_P^-1, scaled to integers once; a target t has
    the unique rational coordinates x = t_P E, and lies in the cone iff
    x is a nonnegative integer vector with x B = t (the span check).
    """
    k = len(base)
    if not k:
        return None
    rows = [
        [Fraction(c) for c in psi] + [Fraction(int(s == t)) for s in range(k)]
        for t, psi in enumerate(base)
    ]
    cols: List[int] = []
    for t in range(k):
        col = next((j for j in range(rank) if any(rows[i][j] for i in range(t, k))), None)
        if col is None:
            return None
        i0 = next(i for i in range(t, k) if rows[i][col])
        rows[t], rows[i0] = rows[i0], rows[t]
        lead = rows[t][col]
        rows[t] = [v / lead for v in rows[t]]
        for i in range(k):
            if i != t and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a - c * b for a, b in zip(rows[i], rows[t])]
        cols.append(col)
    den = math.lcm(*(v.denominator for row in rows for v in row[rank:]))
    inverse = [[int(v * den) for v in row[rank:]] for row in rows]

    def member(target: Weight) -> bool:
        coords = []
        for s in range(k):
            num = sum(target[col] * inverse[t][s] for t, col in enumerate(cols))
            if num < 0 or num % den:
                return False
            coords.append(num // den)
        return all(
            sum(x * psi[j] for x, psi in zip(coords, base)) == target[j]
            for j in range(rank)
        )

    return member



def rank_mod_p(gram: Tuple[Tuple[int, ...], ...], p: int) -> int:
    rows = [[v % p for v in row] for row in gram]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] * inv % p
                rows[i] = [(a - c * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# The divided-power action from first principles: X_+ = x d/dy,
# X_- = y d/dx and H = x d/dx - y d/dy applied one step at a time to a
# polynomial {(a, b): coefficient} in x^a y^b, with every factorial
# divided out once at the end.


def _derive(poly: Mapping[Tuple[int, int], int], step: int) -> Dict[Tuple[int, int], int]:
    """x d/dy (step 1) or y d/dx (step -1) applied once."""
    out: Dict[Tuple[int, int], int] = {}
    for (a, b), c in poly.items():
        factor = b if step == 1 else a
        if factor:
            key = (a + step, b - step)
            out[key] = out.get(key, 0) + factor * c
    return out


def reference_divided_action(dm, poly: Mapping[Tuple[int, int], int]) -> Dict[Tuple[int, int], int]:
    """coeff * X_-^(a) * prod binom(H - shift, degree) * X_+^(c) applied
    to ``poly``, without zero coefficients.  X_+ is applied c times, each
    binomial as the falling product (H - shift)(H - shift - 1)...
    (H - shift - degree + 1), and X_- a times; the product of c!, a! and
    every degree! then divides each coefficient exactly."""
    out = dict(poly)
    divisor = math.factorial(dm.c) * math.factorial(dm.a)
    for _ in range(dm.c):
        out = _derive(out, 1)
    for shift, degree in dm.h_binoms:
        for i in range(degree):
            out = {(a, b): (a - b - shift - i) * c for (a, b), c in out.items()}
        divisor *= math.factorial(degree)
    for _ in range(dm.a):
        out = _derive(out, -1)
    for key, c in out.items():
        assert c % divisor == 0, (dm, key, c, divisor)
    return {key: dm.coeff * c // divisor for key, c in out.items() if dm.coeff * c}


# ---------------------------------------------------------------------------
# Flatness as two rules: the exact arithmetic condition on q(n) and
# blockwise dominance on gl(m|n), each with its own loop.


def reference_is_flat(datum: SuperRootDatum, p: int, lam: Weight) -> bool:
    """Membership in the set of weights with nonvanishing induced module.

    For q(n) this is the exact arithmetic condition (weakly decreasing,
    with equal neighbours divisible by p); for gl(m|n) it is blockwise
    dominance.  Other families raise.
    """
    # The digit search calls this per candidate: read each record field once.
    family = datum.family
    if not _has_flat_rule(family):
        raise UnsupportedFamilyError(
            "no flat-weight characterization for family %r" % datum.label
        )
    check_characteristic(p)
    kind, params = family.kind, family.params
    if kind == "q":
        (n,) = params
        lattice.check_rank(lam, n)
        for i in range(n - 1):
            if lam[i] < lam[i + 1]:
                return False
            if lam[i] == lam[i + 1]:
                if p == 0:
                    if lam[i] != 0:
                        return False
                elif lam[i] % p != 0:
                    return False
        return True
    m, n = params
    lattice.check_rank(lam, m + n)
    blocks = (lam[:m], lam[m:])
    return all(
        all(block[i] >= block[i + 1] for i in range(len(block) - 1)) for block in blocks
    )


# ---------------------------------------------------------------------------
# Helpers that only the tests call.


def bw_multiply(n: int, m: int) -> Tuple[int, int]:
    """Product of two raising divided powers: coefficient and exponent."""
    if m < 0 or n < 0:
        raise ParameterError("exponents must be nonnegative")
    return comb(n + m, n), n + m


def lucas_binom(n: int, k: int, p: int) -> int:
    """binom(n, k) mod p via base-p digits."""
    check_odd_prime(p)
    if n < 0 or k < 0:
        raise ParameterError("lucas_binom needs nonnegative arguments")
    out = 1
    while k or n:
        out = out * comb(n % p, k % p) % p
        n //= p
        k //= p
    return out


def upsilon_leading(
    ch: CharacterElement, order: OrderFunctional
) -> Tuple[Weight, int]:
    """The unique term of maximal order value; raises on ties or zero."""
    if not ch.terms:
        raise ParameterError("zero character has no leading term")
    values = [order.eval(w) for w, _ in ch.terms]
    top = max(values)
    if values.count(top) != 1:
        raise ParameterError("leading term is not unique")
    return ch.terms[values.index(top)]


def may_fail_absolute_simplicity(datum: SuperRootDatum) -> bool:
    """True when the root system contains weight zero (nontrivial odd
    Cartan): simple supermodules need not stay simple under base change."""
    return datum.h_odd_dim > 0


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
