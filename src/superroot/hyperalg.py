"""Divided-power arithmetic for a rank-1 even pair over Z, checked
against a faithful operator model on two-variable polynomials.

Normal form is (lowering, Cartan binomials, raising).  The operator
model acts on monomials x^a y^b: the raising divided power moves b to a
with a binomial coefficient, the lowering one moves a to b, and a
Cartan binomial acts by the scalar binom(a - b - shift, degree).
"""

from __future__ import annotations

from collections import namedtuple
from math import comb
from typing import Callable, Dict, Tuple

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


# ---------------------------------------------------------------------------
# Operator model.


def apply_raise(m: int, poly: Poly) -> Poly:
    out: Poly = {}
    for (a, b), coeff in poly.items():
        c = comb(b, m)
        if c:
            key = (a + m, b - m)
            out[key] = out.get(key, 0) + c * coeff
    return out


def apply_lower(n: int, poly: Poly) -> Poly:
    out: Poly = {}
    for (a, b), coeff in poly.items():
        c = comb(a, n)
        if c:
            key = (a - n, b + n)
            out[key] = out.get(key, 0) + c * coeff
    return out


def apply_h_binom(shift: int, degree: int, poly: Poly) -> Poly:
    out: Poly = {}
    for (a, b), coeff in poly.items():
        c = _binom_int(a - b - shift, degree)
        if c:
            out[(a, b)] = out.get((a, b), 0) + c * coeff
    return out


def _binom_int(top: int, k: int) -> int:
    """binom(top, k) for possibly negative top, integer valued."""
    if k < 0:
        return 0
    if top >= 0:
        return comb(top, k)
    return (-1) ** k * comb(k - top - 1, k)


def apply_monomial(dm: DividedMonomial, poly: Poly) -> Poly:
    out = apply_raise(dm.c, poly)
    for shift, degree in dm.h_binoms:
        out = apply_h_binom(shift, degree, out)
    out = apply_lower(dm.a, out)
    if dm.coeff != 1:
        out = {k: dm.coeff * v for k, v in out.items()}
    return out


def apply_sum(terms: Tuple[DividedMonomial, ...], poly: Poly) -> Poly:
    total: Poly = {}
    for dm in terms:
        part = apply_monomial(dm, poly)
        for k, v in part.items():
            total[k] = total.get(k, 0) + v
    return {k: v for k, v in total.items() if v}


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
        for n in range(max_n + 1):
            rhs_terms = normal_form(m, n)
            for a in range(degree_bound + 1):
                for b in range(degree_bound + 1 - a):
                    mono: Poly = {(a, b): 1}
                    lhs = apply_raise(m, apply_lower(n, mono))
                    rhs = apply_sum(rhs_terms, mono)
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
