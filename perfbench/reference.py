"""Independent references for the benchmark's correctness gate.

Everything here is written from the definitions of the gl(m|n), q(n) and
p(n) families, not from the superroot library, so that a gate built on it
checks the library against something other than the function being
timed.  Roots are integer tuples; a family is a (kind, params) pair such
as ("gl", (2, 1)), ("q", (3,)) or ("p", (4,)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Weight = Tuple[int, ...]

# Name of the library's datum builder for each family kind.
BUILDERS = {"gl": "build_gl", "q": "build_q", "p": "build_p"}


def rank_of(family) -> int:
    kind, params = family
    return params[0] + params[1] if kind == "gl" else params[0]


def label(family) -> str:
    kind, params = family
    if kind == "gl":
        return "gl(%d|%d)" % params
    return "%s(%d)" % (kind, params[0])


def _unit(rank: int, *idx: int) -> Weight:
    w = [0] * rank
    for i in idx:
        w[i] += 1
    return tuple(w)


def _diff(rank: int, i: int, j: int) -> Weight:
    w = [0] * rank
    w[i], w[j] = 1, -1
    return tuple(w)


def even_blocks(family) -> List[List[int]]:
    """Coordinate blocks on which the even roots are of type A."""
    kind, params = family
    if kind == "gl":
        m, n = params
        return [list(range(m)), list(range(m, m + n))]
    return [list(range(params[0]))]


def roots(family) -> Tuple[List[Weight], Dict[Weight, int]]:
    """Even roots and odd roots with multiplicity."""
    kind, params = family
    rank = rank_of(family)
    even = [
        _diff(rank, i, j)
        for block in even_blocks(family)
        for i in block
        for j in block
        if i != j
    ]
    odd: Dict[Weight, int] = {}
    if kind == "gl":
        m = params[0]
        for i in range(rank):
            for j in range(rank):
                if (i < m) != (j < m):
                    odd[_diff(rank, i, j)] = 1
    elif kind == "q":
        odd = {r: 1 for r in even}
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                plus = _unit(rank, i, j)
                odd[plus] = 1
                odd[tuple(-c for c in plus)] = 1
            odd[_unit(rank, i, i)] = 1
    return even, odd


def dims(family) -> Tuple[int, int]:
    """(n_even, n_odd) of the Lie superalgebra, in closed form."""
    kind, params = family
    if kind == "gl":
        m, n = params
        return m * m + n * n, 2 * m * n
    n = params[0]
    return n * n, n * n


def odd_root_sum(family) -> Weight:
    """0 for gl and q; (2, ..., 2) for p(n), from the 2*e_t roots."""
    rank = rank_of(family)
    return (2,) * rank if family[0] == "p" else (0,) * rank


def default_order(family) -> List[int]:
    rank = rank_of(family)
    if family[0] == "p":
        return [rank - i for i in range(rank)]
    return [-(i + 1) for i in range(rank)]


def value(order: Sequence, w: Weight) -> Fraction:
    return sum((Fraction(v) * c for v, c in zip(order, w)), Fraction(0))


def simple_even(family, order: Sequence) -> List[Weight]:
    """Simple roots of each type-A block: neighbours in order-value order."""
    rank = rank_of(family)
    out = []
    for block in even_blocks(family):
        ranked = sorted(block, key=lambda i: Fraction(order[i]), reverse=True)
        out.extend(_diff(rank, a, b) for a, b in zip(ranked, ranked[1:]))
    return sorted(out)


def default_psi_odd(family) -> List[Weight]:
    kind, params = family
    rank = rank_of(family)
    if kind == "gl":
        return [_diff(rank, params[0] - 1, params[0])]
    if kind == "q":
        return [_diff(rank, i, i + 1) for i in range(rank - 1)]
    return [_unit(rank, rank - 1, rank - 1)]


def positive_odd(family, order: Sequence) -> List[Weight]:
    _, odd = roots(family)
    return sorted(r for r in odd if value(order, r) > 0)


def separation(family, psi_even: Sequence[Weight], psi_odd: Sequence[Weight]) -> bool:
    """No gamma - alpha is a root, for alpha even simple and gamma odd simple."""
    even, odd = roots(family)
    all_roots = set(even) | set(odd)
    for alpha in psi_even:
        for gamma in psi_odd:
            if alpha != gamma:
                if tuple(g - a for g, a in zip(gamma, alpha)) in all_roots:
                    return False
    return True


def multiplicity_one(family, psi_even, psi_odd) -> bool:
    _, odd = roots(family)
    for alpha in set(psi_even) & set(psi_odd):
        for signed in (alpha, tuple(-c for c in alpha)):
            if odd.get(signed, 0) != 1:
                return False
    return True


def restricted(family, lam: Weight, p: int, r: int) -> bool:
    """p^r-restriction under the default order and default odd base.

    Simple roots are e_i - e_(i+1) inside each block.  For gl and p no
    simple root is also odd simple, so each pairing is bounded by p^r - 1.
    For q(n) every simple root is shared; [K_a, K_a] for a = e_i - e_(i+1)
    is 2(H_i + H_(i+1)), so the bound is p^r - 1 when p divides
    2(lam_i + lam_(i+1)) and p^r otherwise.
    """
    q = p**r
    for block in even_blocks(family):
        for i, j in zip(block, block[1:]):
            pairing = lam[i] - lam[j]
            bound = q - 1
            if family[0] == "q" and (2 * (lam[i] + lam[j])) % p != 0:
                bound = q
            if pairing > bound:
                return False
    return True


def flat(family, lam: Weight, p: int) -> bool:
    """Flatness for gl (blockwise decreasing) and q (decreasing, equal
    neighbours divisible by p); dominance under the default order for p."""
    for block in even_blocks(family):
        for i, j in zip(block, block[1:]):
            if lam[i] < lam[j]:
                return False
            if family[0] == "q" and lam[i] == lam[j] and lam[i] % p:
                return False
    return True


def flat_weight(rng, family, p: int, span: int = 30) -> Weight:
    """A weight with coordinates drawn from [-span, span] and sorted into
    the flat (dominant) chamber; q(n) weights with an equal neighbour pair
    not divisible by p are drawn again."""
    while True:
        lam = [0] * rank_of(family)
        for block in even_blocks(family):
            values = sorted((rng.randint(-span, span) for _ in block), reverse=True)
            for i, v in zip(block, values):
                lam[i] = v
        if flat(family, lam, p):
            return tuple(lam)


def gl11_digits(lam: Weight, p: int) -> List[Weight]:
    """gl(1|1) digits: canonical residues while the remainder shrinks,
    then one signed terminal digit."""
    digits = []
    mu = tuple(lam)
    while any(mu):
        if max(abs(c) for c in mu) == 1 and -1 in mu:
            digits.append(mu)
            break
        d = tuple(c % p for c in mu)
        digits.append(d)
        mu = tuple((c - dc) // p for c, dc in zip(mu, d))
    return digits


def check_digits(family, lam: Weight, p: int, digits: Sequence[Weight]) -> None:
    """Digits re-sum to lam, each is restricted at r=1, the first is
    congruent to lam mod p, and gl(1|1) matches the closed form."""
    total = [0] * len(lam)
    for i, d in enumerate(digits):
        if len(d) != len(lam):
            raise WrongAnswer("digit %r has the wrong rank" % (d,))
        for k, c in enumerate(d):
            total[k] += p**i * c
        if not restricted(family, d, p, 1):
            raise WrongAnswer("digit %r of %r is not restricted" % (d, lam))
    if tuple(total) != tuple(lam):
        raise WrongAnswer("digits %r do not re-sum to %r" % (digits, lam))
    if digits and any((a - b) % p for a, b in zip(digits[0], lam)):
        raise WrongAnswer("first digit of %r is not congruent mod %d" % (lam, p))
    if family == ("gl", (1, 1)) and [tuple(d) for d in digits] != gl11_digits(lam, p):
        raise WrongAnswer("gl(1|1) digits of %r differ from the closed form" % (lam,))


def convolve(a: Dict[Weight, int], b: Dict[Weight, int]) -> Dict[Weight, int]:
    out: Dict[Weight, int] = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            key = tuple(x + y for x, y in zip(wa, wb))
            out[key] = out.get(key, 0) + ma * mb
    return {w: m for w, m in out.items() if m}


class WrongAnswer(AssertionError):
    """The program answered, and the answer disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


class NoAnswer(Exception):
    """The program gave no answer: an error on a valid request, a
    traceback, or an unstructured reply to a malformed one."""
