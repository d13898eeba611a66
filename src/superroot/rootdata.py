"""Super root data: builders for the standard families, positivity splits,
unimodularity verdicts and the dimension calculus of Frobenius kernels.

A datum records the even root system with its coroots, the odd roots
with their multiplicities (the dimension of the corresponding odd
weight space), and the dimension of the odd part of the Cartan.  The
weight zero never appears among the odd roots; it is carried by
``h_odd_dim`` alone.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction
from operator import sub
from typing import Dict, List, Sequence, Tuple

from . import lattice
from .lattice import Coweight, SuperrootError, Weight


class DatumValidationError(SuperrootError, ValueError):
    """A super root datum violated a structural invariant."""


class InvalidOrderError(SuperrootError, ValueError):
    """An order functional vanishes on a root of the datum."""


class ParameterError(SuperrootError, ValueError):
    """A numeric parameter is outside its allowed domain."""


# The largest power p**r, in bits, computed for a user-given exponent.
MAX_POWER_BITS = 1 << 15

# The largest rank of a family or a datum file, and the largest h_odd_dim
# and odd-root multiplicity a datum file may give.
MAX_RANK = 64

# Miller-Rabin with the first 13 prime bases decides primality exactly
# below this bound (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_LIMIT = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin over _PRIME_BASES, a base itself being
    prime; an odd p at or beyond PRIME_TEST_LIMIT is refused."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _PRIME_BASES:
        return True
    if p >= PRIME_TEST_LIMIT:
        raise ParameterError(
            "p must be below %d for the primality test, got %d" % (PRIME_TEST_LIMIT, p)
        )
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ParameterError("p must be an odd prime, got %r" % (p,))


def check_characteristic(p: int, name: str = "p") -> None:
    if p != 0 and not is_odd_prime(p):
        raise ParameterError("%s must be 0 or an odd prime, got %r" % (name, p))


def prime_power(p: int, r: int) -> int:
    """p**r for r >= 0, refused before it is computed when it would have
    more than MAX_POWER_BITS bits."""
    if r * p.bit_length() > MAX_POWER_BITS:
        raise ParameterError(
            "%d**%d exceeds the %d-bit limit on p**r" % (p, r, MAX_POWER_BITS)
        )
    return p**r


def frobenius_modulus(p: int, r: int) -> int:
    """The modulus p**r cutting out the r-th Frobenius kernel: p must be
    an odd prime and r >= 1, checked in that order before the power."""
    check_odd_prime(p)
    if r < 1:
        raise ParameterError("r must be >= 1, got %r" % (r,))
    return prime_power(p, r)


# Each kind's parameter names, as refusals print them, and least value.
_LEAST = {"gl": ("m, n", 1), "q": ("n", 1), "p": ("n", 2)}

_FAMILY_TEXT = re.compile(r"(gl|q|p)\(([1-9][0-9]{0,8})(?:\|([1-9][0-9]{0,8}))?\)")


class Family(namedtuple("Family", "kind params")):
    """A built-in family: ``kind`` "gl" with params (m, n), or "q" or "p"
    with params (n,).  Its text form ``gl(m|n)``, ``q(n)``, ``p(n)`` is
    the datum JSON's ``lie_handle``."""

    __slots__ = ()

    def __str__(self) -> str:
        return "%s(%s)" % (self.kind, "|".join(str(v) for v in self.params))

    @staticmethod
    def parse(text) -> "Family":
        """Read ``gl(m|n)``, ``q(n)`` or ``p(n)``; anything else raises."""
        match = _FAMILY_TEXT.fullmatch(text) if isinstance(text, str) else None
        if match is None or (match[1] == "gl") != bool(match[3]):
            raise DatumValidationError(
                "lie_handle: expected gl(m|n), q(n) or p(n), got %r" % (text,)
            )
        family = Family(match[1], tuple(int(v) for v in match.groups()[1:] if v))
        if family.rank > MAX_RANK:
            raise DatumValidationError("lie_handle: %s" % family.too_large())
        return family

    @property
    def rank(self) -> int:
        return sum(self.params)

    def too_large(self) -> str:
        return "%s has rank %d, above the limit of %d" % (self, self.rank, MAX_RANK)

    def checked(self, maker: str) -> "Family":
        """This family; a parameter below the kind's least value, then a
        rank above MAX_RANK, raises ParameterError naming ``maker``."""
        names, least = _LEAST[self.kind]
        if min(self.params) < least:
            raise ParameterError("%s requires %s >= %d" % (maker, names, least))
        if self.rank > MAX_RANK:
            raise ParameterError(self.too_large())
        return self

    def build(self) -> "SuperRootDatum":
        """The family's datum, from its builder."""
        return {"gl": build_gl, "q": build_q, "p": build_p}[self.kind](*self.params)


class SuperRootDatum(
    namedtuple(
        "SuperRootDatum",
        "rank even_roots odd_roots h_odd_dim label family",
        defaults=(None,),
    )
):
    """Even roots are (root, coroot) pairs and odd roots (root, mult)
    pairs; ``label`` is display text only.  Checked on construction."""

    __slots__ = ()

    def __new__(cls, rank, even_roots, odd_roots, h_odd_dim, label, family=None):
        self = super().__new__(cls, rank, even_roots, odd_roots, h_odd_dim, label, family)
        if self.rank < 0:
            raise DatumValidationError("rank: must be nonnegative")
        if self.h_odd_dim < 0:
            raise DatumValidationError("h_odd_dim: must be nonnegative")
        seen = set()
        for k, (root, coroot) in enumerate(self.even_roots):
            where = "even_roots[%d]" % k
            if len(root) != self.rank or len(coroot) != self.rank:
                raise DatumValidationError("%s: wrong length" % where)
            if lattice.is_zero(root):
                raise DatumValidationError("%s.root: even root must be nonzero" % where)
            if lattice.pair(root, coroot) != 2:
                raise DatumValidationError(
                    "%s: pairing of root with coroot is %d, expected 2"
                    % (where, lattice.pair(root, coroot))
                )
            if root in seen:
                raise DatumValidationError("%s.root: duplicate even root %r" % (where, root))
            seen.add(root)
        for root in seen:
            if lattice.neg(root) not in seen:
                raise DatumValidationError(
                    "even_roots: not closed under negation (missing %r)"
                    % (lattice.neg(root),)
                )
        seen_odd = set()
        for k, (root, mult) in enumerate(self.odd_roots):
            where = "odd_roots[%d]" % k
            if len(root) != self.rank:
                raise DatumValidationError("%s.root: wrong length" % where)
            if lattice.is_zero(root):
                raise DatumValidationError(
                    "%s.root: weight zero belongs to h_odd_dim, not odd_roots" % where
                )
            if mult < 1:
                raise DatumValidationError("%s.mult: must be >= 1" % where)
            if root in seen_odd:
                raise DatumValidationError("%s.root: odd root %r listed twice" % (where, root))
            seen_odd.add(root)
        return self

    @property
    def n_even(self) -> int:
        """dim of the even part of the Lie superalgebra: roots plus Cartan."""
        return len(self.even_roots) + self.rank

    @property
    def n_odd(self) -> int:
        """dim of the odd part: weighted odd roots plus the odd Cartan."""
        return sum(m for _, m in self.odd_roots) + self.h_odd_dim

    def coroot_of(self, root: Weight) -> Coweight:
        for r, c in self.even_roots:
            if r == root:
                return c
        raise ParameterError("%r is not an even root of %s" % (root, self.label))

    def all_roots(self) -> List[Weight]:
        """Every nonzero root, even and odd (odd multiplicities ignored)."""
        return [r for r, _ in self.even_roots] + [r for r, _ in self.odd_roots]


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


class OrderFunctional(namedtuple("OrderFunctional", "values")):
    """Linear functional on X(T) (x) Q used to split the roots by sign."""

    __slots__ = ()

    @staticmethod
    def from_values(values: Sequence) -> "OrderFunctional":
        """Values as ints, Fractions or text of a sign, ASCII digits and
        optionally "/" and ASCII digits ("-3/2"); no bool, float or other."""
        out = []
        for v in values:
            text = isinstance(v, str) and _RATIONAL_TEXT.fullmatch(v)
            try:
                if not (text or is_json_int(v) or isinstance(v, Fraction)):
                    raise ValueError
                out.append(Fraction(v))
            except (ValueError, ZeroDivisionError):
                raise ParameterError(
                    "order value %r is not a rational number" % (v,)
                ) from None
        return OrderFunctional(tuple(out))

    def eval(self, w: Weight) -> Fraction:
        if len(w) != len(self.values):
            raise lattice.DimensionMismatch(
                "functional of rank %d applied to %r" % (len(self.values), w)
            )
        return sum((v * c for v, c in zip(self.values, w)), Fraction(0))

    def is_positive(self, root: Weight) -> bool:
        """Whether the functional is positive on a root; raises where it vanishes."""
        value = self.eval(root)
        if value == 0:
            raise InvalidOrderError("order functional vanishes on root %r" % (root,))
        return value > 0


def default_order(datum: SuperRootDatum) -> OrderFunctional:
    """The standard order for built-in families: GL/Q use -i, P uses n-i+1."""
    n = datum.rank
    if datum.family is not None and datum.family.kind == "p":
        return OrderFunctional.from_values([n - i for i in range(n)])
    return OrderFunctional.from_values([-(i + 1) for i in range(n)])


class PositiveSystem(namedtuple("PositiveSystem", "even_pos even_neg odd_pos odd_neg")):
    """The (root, multiplicity) pairs, sorted, on each side of an order."""

    __slots__ = ()

    @property
    def n_odd_pos(self) -> int:
        return sum(m for _, m in self.odd_pos)

    @property
    def n_odd_neg(self) -> int:
        return sum(m for _, m in self.odd_neg)

    @property
    def simple_even(self) -> List[Weight]:
        """Positive even roots that are not sums of two positive even roots."""
        pos = {r for r, _ in self.even_pos}
        return sorted(
            r for r in pos if not any(tuple(map(sub, r, s)) in pos for s in pos if s != r)
        )


def positive_system(datum: SuperRootDatum, order: OrderFunctional) -> PositiveSystem:
    """Split all nonzero roots, even roots first, by the sign of the order
    functional; raises at the first root where it vanishes."""
    even_pos, even_neg, odd_pos, odd_neg = [], [], [], []
    for root, _ in datum.even_roots:
        (even_pos if order.is_positive(root) else even_neg).append((root, 1))
    for root, mult in datum.odd_roots:
        (odd_pos if order.is_positive(root) else odd_neg).append((root, mult))
    key = lambda pair: pair[0]
    return PositiveSystem(
        tuple(sorted(even_pos, key=key)),
        tuple(sorted(even_neg, key=key)),
        tuple(sorted(odd_pos, key=key)),
        tuple(sorted(odd_neg, key=key)),
    )


def simple_even_roots(datum: SuperRootDatum, order: OrderFunctional) -> List[Weight]:
    """Positive even roots that are not sums of two positive even roots."""
    return positive_system(datum, order).simple_even


# ---------------------------------------------------------------------------
# Builders for the named families.


def _type_a_roots(rank: int) -> List[Tuple[int, int, Weight]]:
    """(i, j, e_i - e_j) for i != j, row by row; each root is its own coroot."""
    return [
        (i, j, lattice.unit_difference(rank, i, j))
        for i in range(rank)
        for j in range(rank)
        if i != j
    ]


def build_gl(m: int, n: int) -> SuperRootDatum:
    """General linear family gl(m|n): cross-block differences are odd."""
    family = Family("gl", (m, n)).checked("build_gl")
    even: List[Tuple[Weight, Coweight]] = []
    odd: List[Tuple[Weight, int]] = []
    for i, j, root in _type_a_roots(m + n):
        if (i < m) == (j < m):
            even.append((root, root))
        else:
            odd.append((root, 1))
    return SuperRootDatum(m + n, tuple(even), tuple(odd), 0, str(family), family)


def build_q(n: int) -> SuperRootDatum:
    """Queer family q(n): even and odd roots coincide, odd Cartan of dim n."""
    family = Family("q", (n,)).checked("build_q")
    roots = [root for _, _, root in _type_a_roots(n)]
    even = tuple((r, r) for r in roots)
    return SuperRootDatum(n, even, tuple((r, 1) for r in roots), n, str(family), family)


def build_p(n: int) -> SuperRootDatum:
    """Periplectic family p(n): odd roots +-(li+lj) for i<j and 2*lt."""
    family = Family("p", (n,)).checked("build_p")
    odd: List[Tuple[Weight, int]] = []
    for i in range(n):
        for j in range(i + 1, n):
            plus = tuple(1 if k in (i, j) else 0 for k in range(n))
            odd.append((plus, 1))
            odd.append((lattice.neg(plus), 1))
    for t in range(n):
        odd.append((tuple(2 if k == t else 0 for k in range(n)), 1))
    even = tuple((r, r) for _, _, r in _type_a_roots(n))
    return SuperRootDatum(n, even, tuple(odd), 0, str(family), family)


def build_gl_even(n: int) -> SuperRootDatum:
    """Purely even GL_n datum, the reductive backbone for semidirect twists."""
    if n < 1:
        raise ParameterError("build_gl_even requires n >= 1")
    if n > MAX_RANK:
        raise ParameterError("gl_%d has rank %d, above the limit of %d" % (n, n, MAX_RANK))
    even = tuple((r, r) for _, _, r in _type_a_roots(n))
    return SuperRootDatum(n, even, (), 0, "gl_%d" % n)


def build_semidirect(even_datum: SuperRootDatum, chars: Sequence[Weight]) -> SuperRootDatum:
    """Even group acting on an odd abelian tail twisted by characters.

    Each character chi contributes the odd root -chi; repeated characters
    pile up as multiplicity, zero characters enlarge the odd Cartan.
    """
    if even_datum.odd_roots or even_datum.h_odd_dim:
        raise ParameterError("build_semidirect needs a purely even base datum")
    counts: Dict[Weight, int] = {}
    zero_count = 0
    for chi in chars:
        lattice.check_rank(chi, even_datum.rank)
        if lattice.is_zero(chi):
            zero_count += 1
        else:
            key = lattice.neg(tuple(chi))
            counts[key] = counts.get(key, 0) + 1
    odd = tuple(sorted(counts.items()))
    return SuperRootDatum(
        rank=even_datum.rank,
        even_roots=even_datum.even_roots,
        odd_roots=odd,
        h_odd_dim=zero_count,
        label="%s:semidirect[%d]" % (even_datum.label, len(chars)),
    )


# ---------------------------------------------------------------------------
# Unimodularity and dimension calculus.


class UnimodularityReport(
    namedtuple(
        "UnimodularityReport",
        "odd_root_sum per_coordinate_divisibility verdict modulus",
        defaults=(None,),
    )
):
    """``modulus`` is p^r for the Frobenius check, None in char 0."""

    __slots__ = ()


def odd_root_sum(datum: SuperRootDatum) -> Weight:
    """Sum over odd roots of multiplicity times the root."""
    total = lattice.zero(datum.rank)
    for root, mult in datum.odd_roots:
        total = lattice.add(total, lattice.scale(mult, root))
    return total


def is_unimodular_char0(datum: SuperRootDatum) -> UnimodularityReport:
    total = odd_root_sum(datum)
    per = tuple((i, v, v == 0) for i, v in enumerate(total))
    return UnimodularityReport(total, per, lattice.is_zero(total), None)


def is_frobenius_unimodular(datum: SuperRootDatum, p: int, r: int) -> UnimodularityReport:
    """Divisibility of every coordinate of the odd-root sum by p^r."""
    q = frobenius_modulus(p, r)
    total = odd_root_sum(datum)
    per = tuple((i, v, v % q == 0) for i, v in enumerate(total))
    return UnimodularityReport(total, per, all(ok for _, _, ok in per), q)


def all_frobenius_unimodular(datum: SuperRootDatum) -> bool:
    """Whether every Frobenius kernel is unimodular: the odd-root sum is zero."""
    return lattice.is_zero(odd_root_sum(datum))


def delta_r(datum: SuperRootDatum, pos: PositiveSystem, p: int, r: int) -> Weight:
    """Torus restriction of the character measuring ind/coind asymmetry:
    -(p**r - 1) times the sum of the positive even roots of the split
    ``pos`` of the datum's roots, plus its negative odd roots with
    multiplicity."""
    q = frobenius_modulus(p, r)
    total = lattice.zero(datum.rank)
    for root, _ in pos.even_pos:
        total = lattice.add(total, lattice.scale(-(q - 1), root))
    for root, mult in pos.odd_neg:
        total = lattice.add(total, lattice.scale(mult, root))
    return total


def dim_O_Gr(datum: SuperRootDatum, p: int, r: int) -> int:
    """Dimension of the coordinate superalgebra of the r-th Frobenius kernel."""
    return frobenius_modulus(p, r) ** datum.n_even * 2**datum.n_odd


def pbw_monomial_count(datum: SuperRootDatum, p: int, r: int) -> int:
    """Number of ordered divided-power monomials with exponents below p^r.

    Counted factor by factor: p^r choices for each even root vector and
    each Cartan generator, 2 for every odd basis vector.  Must agree
    with :func:`dim_O_Gr` by duality.
    """
    q = frobenius_modulus(p, r)
    count = 1
    for _root, _cov in datum.even_roots:
        count *= q
    for _i in range(datum.rank):
        count *= q
    for _root, mult in datum.odd_roots:
        count *= 2**mult
    count *= 2**datum.h_odd_dim
    return count


def induced_dims(
    pos: PositiveSystem, p: int, r: int, dim_u_lambda: int
) -> Tuple[int, int]:
    """Dimensions of the induced and coinduced modules from a seed of
    dimension ``dim_u_lambda``, read from the counts of the split ``pos``:
    p**r per even root and 2 per odd dimension on the positive side for
    the induced module, on the negative side for the coinduced one."""
    q = frobenius_modulus(p, r)
    if dim_u_lambda < 0:
        raise ParameterError("dim_u_lambda must be nonnegative")
    dim_ind = q ** len(pos.even_pos) * 2**pos.n_odd_pos * dim_u_lambda
    dim_coind = q ** len(pos.even_neg) * 2**pos.n_odd_neg * dim_u_lambda
    return dim_ind, dim_coind


# ---------------------------------------------------------------------------
# JSON interchange.


def datum_to_json(datum: SuperRootDatum) -> dict:
    out = {
        "rank": datum.rank,
        "label": datum.label,
        "even_roots": [
            {"root": list(r), "coroot": list(c)} for r, c in datum.even_roots
        ],
        "odd_roots": [{"root": list(r), "mult": m} for r, m in datum.odd_roots],
        "h_odd_dim": datum.h_odd_dim,
    }
    if datum.family is not None:
        out["lie_handle"] = str(datum.family)
    return out


def is_json_int(value) -> bool:
    """An integer read from JSON: an int, and not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _as_int_list(value, where: str) -> Tuple[int, ...]:
    if not isinstance(value, list) or not all(is_json_int(v) for v in value):
        raise DatumValidationError("%s: expected a list of integers" % where)
    return tuple(value)


def datum_from_json(data: dict) -> SuperRootDatum:
    if not isinstance(data, dict):
        raise DatumValidationError("$: expected an object")
    for key in ("rank", "label", "even_roots", "odd_roots", "h_odd_dim"):
        if key not in data:
            raise DatumValidationError("$.%s: missing" % key)
    if not is_json_int(data["rank"]):
        raise DatumValidationError("$.rank: expected an integer")
    if not isinstance(data["label"], str):
        raise DatumValidationError("$.label: expected a string")
    if not is_json_int(data["h_odd_dim"]):
        raise DatumValidationError("$.h_odd_dim: expected an integer")
    for key in ("even_roots", "odd_roots"):
        if not isinstance(data[key], list):
            raise DatumValidationError("$.%s: expected a list" % key)
    even = []
    for k, entry in enumerate(data["even_roots"]):
        where = "$.even_roots[%d]" % k
        if not isinstance(entry, dict) or "root" not in entry or "coroot" not in entry:
            raise DatumValidationError("%s: expected {root, coroot}" % where)
        even.append(
            (
                _as_int_list(entry["root"], where + ".root"),
                _as_int_list(entry["coroot"], where + ".coroot"),
            )
        )
    odd = []
    for k, entry in enumerate(data["odd_roots"]):
        where = "$.odd_roots[%d]" % k
        if not isinstance(entry, dict) or "root" not in entry or "mult" not in entry:
            raise DatumValidationError("%s: expected {root, mult}" % where)
        if not is_json_int(entry["mult"]):
            raise DatumValidationError("%s.mult: expected an integer" % where)
        odd.append((_as_int_list(entry["root"], where + ".root"), entry["mult"]))
    handle = data.get("lie_handle")
    try:
        family = None if handle is None else Family.parse(handle)
        sizes = [("rank", data["rank"]), ("h_odd_dim", data["h_odd_dim"])]
        sizes += [("odd_roots[%d].mult" % k, m) for k, (_r, m) in enumerate(odd)]
        for where, size in sizes:
            if size > MAX_RANK:
                raise DatumValidationError("%s: must be at most %d" % (where, MAX_RANK))
        datum = SuperRootDatum(
            rank=data["rank"],
            even_roots=tuple(even),
            odd_roots=tuple(odd),
            h_odd_dim=data["h_odd_dim"],
            label=data["label"],
            family=family,
        )
    except DatumValidationError as exc:
        raise DatumValidationError("$.%s" % exc.args[0]) from exc
    if datum.family is not None and not _has_family_roots(datum, datum.family):
        raise DatumValidationError(
            "$.lie_handle: the roots are not those of %s" % (datum.family,)
        )
    return datum


def _has_family_roots(datum: SuperRootDatum, family: Family) -> bool:
    """Whether the datum has the rank, roots and odd Cartan of the family's
    builder."""
    try:
        ref = family.build()
    except ParameterError:
        return False
    return (
        ref.rank == datum.rank
        and set(ref.even_roots) == set(datum.even_roots)
        and dict(ref.odd_roots) == dict(datum.odd_roots)
        and ref.h_odd_dim == datum.h_odd_dim
    )


def parse_json(text: str):
    """``json.loads`` for user text; text that is not JSON, a number
    longer than Python's int-to-str limit or nesting deeper than the
    parser's stack is a ParameterError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(str(exc)) from None
    except RecursionError:
        raise ParameterError("the JSON text is nested too deeply") from None
    except ValueError:  # an integer literal beyond sys.get_int_max_str_digits()
        raise ParameterError(
            "a number in the JSON text has more than %d digits"
            % sys.get_int_max_str_digits()
        ) from None


def load_json(path: str):
    """:func:`parse_json` on a user's file; a file that cannot be read or
    is not UTF-8 is a ParameterError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParameterError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ParameterError("%s: %s" % (path, exc)) from None
    return parse_json(text)

