"""Dominant and flat weight predicates, p^r-restriction, base-p digit
decomposition of weights, and the character ring with Frobenius twist.

The digit search is deterministic: candidates for each digit run over
the canonical residue lift {0..p-1} shifted by p times a shift in the box
[-R, R]^rank, where the search radius R must be >= 0.  Shifts are
generated lazily, canonical-first (by L1 size of the shift, then
lexicographically), and only inside the window where the remainder
strictly approaches zero; the first complete decomposition in that
depth-first order is returned.  The open levels are kept in a list, not
on the interpreter's stack, so only the digit budget bounds the depth.
When the search is exhausted, the failure's ``frontier`` holds, in
discovery order and at most 32 of them, the remainders left when the
digit budget ran out and the remainders whose every candidate digit
failed.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import lattice
from .lattice import Weight
from .liesuper import K_alpha, LieSuperAlgebra, check_admissible_base
from .rootdata import (
    Family,
    OrderFunctional,
    ParameterError,
    SuperRootDatum,
    check_characteristic,
    check_odd_prime,
    frobenius_modulus,
    is_json_int,
    positive_system,
    prime_power,
)


class UnsupportedFamilyError(lattice.SuperrootError, NotImplementedError):
    """The requested predicate has no formula for this family."""


class FlatnessError(lattice.SuperrootError, ValueError):
    """A weight failed the flat (or dominant) precondition."""


class DecompositionFailure(lattice.SuperrootError, ValueError):
    """No digit decomposition was found within the search bounds."""

    def __init__(self, message: str, frontier: Sequence[Weight]):
        super().__init__(message)
        self.frontier = list(frontier)


# ---------------------------------------------------------------------------
# Weight predicates.


def _positive_even_coroots(
    datum: SuperRootDatum, order: OrderFunctional
) -> List[Weight]:
    """Coroots of the positive even roots, in the datum's root order."""
    pos_set = {w for w, _ in positive_system(datum, order).even_pos}
    return [coroot for root, coroot in datum.even_roots if root in pos_set]


def _pairs_nonnegative(lam: Weight, coroots: Sequence[Weight]) -> bool:
    return all(lattice.pair(lam, coroot) >= 0 for coroot in coroots)


def is_dominant(datum: SuperRootDatum, order: OrderFunctional, lam: Weight) -> bool:
    """Nonnegative pairing against every positive even coroot."""
    lattice.check_rank(lam, datum.rank)
    return _pairs_nonnegative(lam, _positive_even_coroots(datum, order))


def _has_flat_rule(family: Optional[Family]) -> bool:
    return family is not None and family.kind in ("gl", "q")


def is_flat(datum: SuperRootDatum, p: int, lam: Weight) -> bool:
    """Membership in the set of weights with nonvanishing induced module.

    Each block, lam[:m] and lam[m:] for gl(m|n) and all of lam for q(n),
    is weakly decreasing; for q(n) equal neighbours are moreover
    divisible by p (zero when p is 0).  Other families raise.
    """
    # The digit search calls this per candidate: read each record field once.
    family = datum.family
    if not _has_flat_rule(family):
        raise UnsupportedFamilyError(
            "no flat-weight characterization for family %r" % datum.label
        )
    check_characteristic(p)
    lattice.check_rank(lam, family.rank)
    cut, q = family.params[0], family.kind == "q"
    for i in range(1, len(lam)):
        a, b = lam[i - 1], lam[i]
        if i != cut and (a < b or q and a == b and (a % p if p else a)):
            return False
    return True


# ---------------------------------------------------------------------------
# Restriction.


class PerRootCheck(
    namedtuple("PerRootCheck", "root kind pairing kform_value bound ok")
):
    """``kind`` is "even-only" or "shared"."""

    __slots__ = ()


class RestrictionReport(
    namedtuple("RestrictionReport", "weight p r per_root verdict weakened")
):
    __slots__ = ()


def _kform_vector(L: LieSuperAlgebra, alpha: Weight) -> Weight:
    """Diagonal of [K_alpha, K_alpha]; pairing a weight with it gives the
    value of the weight on that Cartan element."""
    k = K_alpha(L, alpha)
    return L.diagonal(L.bracket(k, k), "[K_alpha, K_alpha]")


def _restriction_rows(
    datum: SuperRootDatum,
    L: LieSuperAlgebra,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
) -> List[Tuple[Weight, Weight, Optional[Weight]]]:
    """(alpha, coroot, K-form vector) per simple even root, in sorted order;
    the vector is None when alpha is not also in the odd base."""
    psi_odd_set = {tuple(w) for w in psi_odd}
    return [
        (a, datum.coroot_of(a), _kform_vector(L, a) if a in psi_odd_set else None)
        for a in sorted(tuple(w) for w in psi_even)
    ]


def _root_checks(
    lam: Weight, rows: Sequence[Tuple[Weight, Weight, Optional[Weight]]], p: int, q: int
) -> Iterator[Tuple[int, Optional[int], int, bool]]:
    """Lazily, per restriction row: lam's pairing with the coroot,
    lam(K_alpha) (None off the odd base), the bound on the pairing (q = p^r
    when p does not divide lam(K_alpha), else q - 1) and whether the
    pairing is within it."""
    for _alpha, coroot, kvec in rows:
        pairing = lattice.pair(lam, coroot)
        kval = None if kvec is None else lattice.pair(lam, kvec)
        bound = q if kval is not None and kval % p else q - 1
        yield pairing, kval, bound, pairing <= bound


def _restriction_setup(
    datum: SuperRootDatum,
    L: LieSuperAlgebra,
    order: OrderFunctional,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
    lam: Weight,
    p: int,
    validate_base: bool,
) -> Tuple[bool, List[Tuple]]:
    """Checks lam's rank, the base (when ``validate_base``) and lam's
    precondition: flatness for families with a flat rule (gl, q), else
    dominance.  Returns whether the precondition is dominance and the
    restriction rows; steinberg_decompose builds the same test for its
    digits itself, so is_restricted splits the roots no more than it
    must."""
    lattice.check_rank(lam, datum.rank)
    if validate_base:
        report = check_admissible_base(L, datum, order, psi_even, psi_odd)
        if not report.ok:
            raise ParameterError(
                "(psi_even, psi_odd) is not an admissible base: %s"
                % "; ".join(report.failures)
            )
    weakened = not _has_flat_rule(datum.family)
    lam_ok = is_dominant(datum, order, lam) if weakened else is_flat(datum, p, lam)
    if not lam_ok:
        raise FlatnessError(
            "weight %r fails the %s precondition"
            % (lam, "dominance" if weakened else "flatness")
        )
    return weakened, _restriction_rows(datum, L, psi_even, psi_odd)


def is_restricted(
    datum: SuperRootDatum,
    L: LieSuperAlgebra,
    order: OrderFunctional,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
    lam: Weight,
    p: int,
    r: int,
    validate_base: bool = True,
) -> RestrictionReport:
    """Per-simple-root bound check for p^r-restriction.

    Roots in the even base only are bounded by p^r - 1; roots shared
    with the odd base are bounded by p^r when p does not divide the
    weight's value on [K_alpha, K_alpha], and by p^r - 1 otherwise.
    """
    q = frobenius_modulus(p, r)
    weakened, rows = _restriction_setup(
        datum, L, order, psi_even, psi_odd, lam, p, validate_base
    )
    checks = tuple(
        PerRootCheck(alpha, "even-only" if kvec is None else "shared", *check)
        for (alpha, _coroot, kvec), check in zip(rows, _root_checks(lam, rows, p, q))
    )
    return RestrictionReport(
        weight=tuple(lam),
        p=p,
        r=r,
        per_root=checks,
        verdict=all(c.ok for c in checks),
        weakened=weakened,
    )


# ---------------------------------------------------------------------------
# Digit decomposition.


def _shifts(windows: Sequence[Tuple[int, int]]) -> Iterator[Tuple[int, ...]]:
    """Every shift k with lo <= k_i <= hi for each window (lo, hi), by L1
    size and then lexicographically."""
    if any(lo > hi for lo, hi in windows):
        return
    # reach[i]: the least and greatest sum of |k_j| over coordinates j >= i.
    reach = [(0, 0)]
    for lo, hi in reversed(windows):
        least = 0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
        most = max(abs(lo), abs(hi))
        reach.append((reach[-1][0] + least, reach[-1][1] + most))
    reach.reverse()
    rank = len(windows)

    def fill(i: int, size: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if i == rank:
            yield prefix
            return
        least, most = reach[i + 1]
        lo, hi = windows[i]
        for k in range(lo, hi + 1):
            if least <= size - abs(k) <= most:
                yield from fill(i + 1, size - abs(k), prefix + (k,))

    for size in range(reach[0][0], reach[0][1] + 1):
        yield from fill(0, size, ())


def steinberg_decompose(
    datum: SuperRootDatum,
    L: LieSuperAlgebra,
    order: OrderFunctional,
    psi_even: Sequence[Weight],
    psi_odd: Sequence[Weight],
    lam: Weight,
    p: int,
    radius: Optional[int] = None,
    validate_base: bool = True,
) -> List[Weight]:
    """Write ``lam`` as digit_0 + p*digit_1 + ... with every digit
    restricted at r=1 (and flat where the family supports the check).

    Digits are congruent to the running weight mod p coordinatewise; the
    first complete decomposition in the canonical-first search order is
    returned.  Its last digit is the nonzero remainder at its level, so
    it never ends in a zero digit, and the zero weight has no digits.
    ``radius=None`` means 2.  Raises :class:`ParameterError` for a
    negative radius and :class:`DecompositionFailure` when the bounded
    search is exhausted.
    """
    check_odd_prime(p)
    if radius is None:
        radius = 2
    elif radius < 0:
        raise ParameterError("radius must be >= 0, got %d" % radius)
    weakened, rows = _restriction_setup(
        datum, L, order, psi_even, psi_odd, lam, p, validate_base
    )
    if weakened:
        # The positive even coroots, split once for every digit tested.
        coroots = _positive_even_coroots(datum, order)
        passes_flat = lambda w: _pairs_nonnegative(w, coroots)
    else:
        passes_flat = lambda w: is_flat(datum, p, w)
    top = max((abs(c) for c in lam), default=0)
    max_digits = 3
    q = 1
    while q <= top:
        q *= p
        max_digits += 1
    frontier: List[Weight] = []
    dead: Dict[Tuple[Weight, int], bool] = {}

    def give_up(mu: Weight) -> None:
        """Record a remainder the search could not finish."""
        if len(frontier) < 32:
            frontier.append(mu)

    def candidates(mu: Weight) -> Iterator[Tuple[Weight, Weight]]:
        """Each (digit, remainder) of a level that passes the digit's and
        the remainder's filters, in the search order."""
        residues = tuple(c % p for c in mu)
        base = tuple((c - res) // p for c, res in zip(mu, residues))
        height = max(abs(c) for c in mu)
        # The remainder base - shift must strictly approach zero, otherwise
        # the canonical digit of a negative coordinate cycles forever; that
        # is |base_i - k_i| < height in every coordinate.
        windows = [
            (max(-radius, b - height + 1), min(radius, b + height - 1)) for b in base
        ]
        for shift in _shifts(windows):
            digit = tuple(res + p * k for res, k in zip(residues, shift))
            if not passes_flat(digit):
                continue
            if not all(check[-1] for check in _root_checks(digit, rows, p, p)):
                continue
            nxt = tuple(b - k for b, k in zip(base, shift))
            if passes_flat(nxt):
                yield digit, nxt

    # Depth-first: each open level holds its remainder, its budget and its
    # candidates not yet tried, and digits[i] is the one level i tries.
    levels: List[Tuple[Weight, int, Iterator[Tuple[Weight, Weight]]]] = []
    digits: List[Weight] = []
    mu, budget = tuple(lam), max_digits
    while not lattice.is_zero(mu):
        if budget == 0:
            give_up(mu)
        elif not dead.get((mu, budget)):
            levels.append((mu, budget, candidates(mu)))
        while levels:
            nu, budget, untried = levels[-1]
            step = next(untried, None)
            if step is not None:
                digits[len(levels) - 1 :] = [step[0]]
                mu, budget = step[1], budget - 1
                break
            levels.pop()
            dead[(nu, budget)] = True
            give_up(nu)
        else:
            raise DecompositionFailure(
                "no decomposition of %r within radius %d and %d digits"
                % (lam, radius, max_digits),
                frontier,
            )
    return digits


# ---------------------------------------------------------------------------
# Character ring.

# The most pairs of terms one char_mul may multiply.
MAX_PRODUCT_PAIRS = 250_000


class CharacterElement(namedtuple("CharacterElement", "rank terms")):
    """Finitely supported integer function on the weight lattice."""

    __slots__ = ()

    @staticmethod
    def from_dict(rank: int, terms: Dict[Weight, int]) -> "CharacterElement":
        clean = {tuple(w): m for w, m in terms.items() if m}
        for w in clean:
            lattice.check_rank(w, rank)
        return CharacterElement(rank, tuple(sorted(clean.items())))

    @staticmethod
    def monomial(weight: Weight, mult: int = 1) -> "CharacterElement":
        return CharacterElement.from_dict(len(weight), {tuple(weight): mult})

    def as_dict(self) -> Dict[Weight, int]:
        return dict(self.terms)


def _check_same_rank(a: CharacterElement, b: CharacterElement) -> None:
    if a.rank != b.rank:
        raise lattice.DimensionMismatch(
            "characters of rank %d and %d" % (a.rank, b.rank)
        )


def char_add(a: CharacterElement, b: CharacterElement) -> CharacterElement:
    _check_same_rank(a, b)
    out = a.as_dict()
    for w, m in b.terms:
        out[w] = out.get(w, 0) + m
    return CharacterElement.from_dict(a.rank, out)


def char_mul(a: CharacterElement, b: CharacterElement) -> CharacterElement:
    """Convolution product: e^a * e^b = e^(a+b)."""
    _check_same_rank(a, b)
    pairs = len(a.terms) * len(b.terms)
    if pairs > MAX_PRODUCT_PAIRS:
        raise ParameterError(
            "the product would form %d pairs of terms, above the limit of %d"
            % (pairs, MAX_PRODUCT_PAIRS)
        )
    out: Dict[Weight, int] = {}
    for wa, ma in a.terms:
        for wb, mb in b.terms:
            key = lattice.add(wa, wb)
            out[key] = out.get(key, 0) + ma * mb
    return CharacterElement.from_dict(a.rank, out)


def frobenius_twist(a: CharacterElement, p: int, r: int) -> CharacterElement:
    """e^w -> e^(p^r w), multiplicities preserved."""
    check_odd_prime(p)
    if r < 0:
        raise ParameterError("twist exponent must be >= 0")
    q = prime_power(p, r)
    return CharacterElement.from_dict(
        a.rank, {lattice.scale(q, w): m for w, m in a.terms}
    )


def steinberg_character(
    restricted_chars: Sequence[CharacterElement], p: int
) -> CharacterElement:
    """Product of the i-th character twisted by p^i."""
    check_odd_prime(p)
    if not restricted_chars:
        raise ParameterError("need at least one factor")
    out = frobenius_twist(restricted_chars[0], p, 0)
    for i, ch in enumerate(restricted_chars[1:], start=1):
        out = char_mul(out, frobenius_twist(ch, p, i))
    return out


def char_to_json(ch: CharacterElement) -> dict:
    return {"terms": [{"weight": list(w), "mult": m} for w, m in ch.terms]}


def char_from_json(data: dict, rank: Optional[int] = None) -> CharacterElement:
    if not isinstance(data, dict) or "terms" not in data:
        raise ParameterError("character JSON must be an object with 'terms'")
    if not isinstance(data["terms"], list):
        raise ParameterError("terms: expected a list")
    terms: Dict[Weight, int] = {}
    for k, entry in enumerate(data["terms"]):
        if (
            not isinstance(entry, dict)
            or "weight" not in entry
            or "mult" not in entry
            or not is_json_int(entry["mult"])
            or not isinstance(entry["weight"], list)
            or not all(is_json_int(c) for c in entry["weight"])
        ):
            raise ParameterError("terms[%d]: expected {weight: [int], mult: int}" % k)
        w = tuple(entry["weight"])
        terms[w] = terms.get(w, 0) + entry["mult"]
    if rank is None:
        if not terms:
            raise ParameterError("cannot infer rank of an empty character")
        rank = len(next(iter(terms)))
    return CharacterElement.from_dict(rank, terms)
