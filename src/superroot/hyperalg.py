"""Divided-power arithmetic for a rank-1 even pair over Z, checked
against a faithful operator model on two-variable polynomials.

Normal form is (lowering, Cartan binomials, raising).  The operator
model acts on single monomials x^a y^b, since every divided monomial
sends one to a multiple of one: the raising divided power moves b to a
with a binomial coefficient, the lowering one moves a to b, and a
Cartan binomial acts by the scalar binom(a - b - shift, degree).
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from typing import Callable, Dict, Iterable, Tuple

from .rootdata import ParameterError, check_odd_prime

Monomial = Tuple[int, int]
Poly = Dict[Monomial, int]

# The most comparisons one verify_commutator_formula sweep may make.
MAX_COMPARISONS = 250_000


class DividedMonomial(namedtuple("DividedMonomial", "coeff a h_binoms c")):
    """coeff * X_-^(a) * prod binom(H - shift, degree) * X_+^(c)."""

    __slots__ = ()

    def __new__(cls, coeff, a, h_binoms, c):
        if a < 0 or c < 0 or any(d < 0 for _, d in h_binoms):
            raise ParameterError("negative exponent in divided monomial")
        return super().__new__(cls, coeff, a, h_binoms, c)

    def act(self, mono: Monomial) -> Tuple[int, Monomial]:
        """The image of x^a y^b as (coefficient, monomial): X_+^(c) moves
        c from b to a with coefficient binom(b, c), each Cartan binomial
        multiplies by binom(a - b - shift, degree), and X_-^(self.a) moves
        self.a back with binom(a, self.a).  A zero image is (0, mono)."""
        x, y = mono
        coeff = self.coeff * comb(y, self.c)
        x, y = x + self.c, y - self.c
        for shift, degree in self.h_binoms:
            coeff *= _binom_int(x - y - shift, degree)
        coeff *= comb(x, self.a)
        if not coeff:
            return 0, mono
        return coeff, (x - self.a, y + self.a)


def normal_order(m: int, n: int) -> Tuple[DividedMonomial, ...]:
    """Reordering of X_+^(m) X_-^(n) into normal form."""
    if m < 0 or n < 0:
        raise ParameterError("exponents must be nonnegative")
    terms = []
    for i in range(min(m, n) + 1):
        h = ((m + n - 2 * i, i),) if i > 0 else ()
        terms.append(DividedMonomial(1, n - i, h, m - i))
    return tuple(terms)


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


def _binom_int(top: int, k: int) -> int:
    """binom(top, k) for possibly negative top, integer valued."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k)
    return (-1) ** k * comb(k - top - 1, k)


def _poly(terms: Iterable[Tuple[int, Monomial]]) -> Poly:
    """The sum of (coefficient, monomial) terms, zero coefficients dropped."""
    out: Poly = {}
    for coeff, key in terms:
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


class CommutatorReport(
    namedtuple("CommutatorReport", "ok checked counterexample detail")
):
    __slots__ = ()


def verify_commutator_formula(
    max_m: int,
    max_n: int,
    degree_bound: int,
    p: int = 0,
    normal_form: Callable[[int, int], Tuple[DividedMonomial, ...]] = normal_order,
) -> CommutatorReport:
    """Operator identity sweep: the composite raise(m) after lower(n)
    must equal the normal form on every monomial of total degree within
    the bound, over Z (p=0) or mod p.

    The first counterexample, in lexicographic (m, n, a, b) order, is
    reported; success reports the number of comparisons.
    """
    if max_m < 0 or max_n < 0 or degree_bound < 0:
        raise ParameterError("bounds must be nonnegative")
    total = (max_m + 1) * (max_n + 1) * (degree_bound + 1) * (degree_bound + 2) // 2
    if total > MAX_COMPARISONS:
        raise ParameterError(
            "the sweep would make %d comparisons, above the limit of %d"
            % (total, MAX_COMPARISONS)
        )
    if p:
        check_odd_prime(p)
    checked = 0
    for m in range(max_m + 1):
        raising = DividedMonomial(1, 0, (), m)
        for n in range(max_n + 1):
            lowering = DividedMonomial(1, n, (), 0)
            rhs_terms = normal_form(m, n)
            for a in range(degree_bound + 1):
                for b in range(degree_bound + 1 - a):
                    c_low, mid = lowering.act((a, b))
                    c_raise, top = raising.act(mid)
                    lhs = _poly([(c_low * c_raise, top)])
                    rhs = _poly(dm.act((a, b)) for dm in rhs_terms)
                    checked += 1
                    if not _poly_equal(lhs, rhs, p):
                        return CommutatorReport(
                            False,
                            checked,
                            (m, n, a, b),
                            "mismatch at m=%d n=%d on x^%d y^%d: %r vs %r"
                            % (m, n, a, b, sorted(lhs.items()), sorted(rhs.items())),
                        )
    return CommutatorReport(True, checked, None, "all comparisons agree")


def _poly_equal(lhs: Poly, rhs: Poly, p: int) -> bool:
    keys = set(lhs) | set(rhs)
    for k in keys:
        d = lhs.get(k, 0) - rhs.get(k, 0)
        if (d % p if p else d) != 0:
            return False
    return True
