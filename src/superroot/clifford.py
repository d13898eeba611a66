"""Weight bilinear forms on the odd Cartan and the size of the attached
simple supermodule over an algebraically closed field.

The Gram matrix of a weight ``lam`` has entries lam([K_s, K_t]) computed
in the matrix model; over a closed field the simple supermodule of the
corresponding Clifford superalgebra has dimension 2^ceil(rank/2), of
type M for even rank and type Q for odd rank.  Over non-closed fields
the dimension can grow (division superalgebras) when the odd Cartan is
nonzero (``h_odd_dim > 0``, as for q(n)).
"""

from __future__ import annotations

from collections import namedtuple
from typing import List, Tuple

from . import lattice
from .lattice import Weight
from .liesuper import ODD, LieSuperAlgebra, eval_weight_on_cartan
from .rootdata import check_characteristic


class CliffordForm(namedtuple("CliffordForm", "gram lam char_p")):
    __slots__ = ()


def gram_form(L: LieSuperAlgebra, lam: Weight, char_p: int = 0) -> CliffordForm:
    """Gram matrix (s,t) -> lam([K_s, K_t]) on the odd Cartan basis,
    reduced to [0, p) when char_p is positive.  It is symmetric: the
    bracket of two odd elements is K_s K_t + K_t K_s in either order, so
    each unordered pair s <= t is bracketed and evaluated once."""
    check_characteristic(char_p, "char_p")
    lattice.check_rank(lam, L.rank)
    ks = L.weight_space(lattice.zero(L.rank), ODD)
    size = len(ks)
    gram: List[List[int]] = [[0] * size for _ in range(size)]
    for s in range(size):
        for t in range(s, size):
            value = eval_weight_on_cartan(L, lam, L.bracket(ks[s], ks[t]))
            gram[s][t] = gram[t][s] = value % char_p if char_p else value
    return CliffordForm(tuple(tuple(row) for row in gram), tuple(lam), char_p)


def form_rank(form: CliffordForm) -> int:
    """Rank of the Gram matrix over the coefficient field.  In
    characteristic p, the HNF of the Gram rows stacked with p times the
    identity has one pivot per column, each dividing p, and the rank is
    the number of pivots equal to 1."""
    p = form.char_p
    size = len(form.gram)
    rows = list(form.gram)
    if p:
        rows += [[p * (s == t) for s in range(size)] for t in range(size)]
    echelon = lattice.hnf(rows)
    if not p:
        return len(echelon)
    return sum(1 for t, row in enumerate(echelon) if row[t] == 1)


def u_lambda_dim_closed(form: CliffordForm) -> Tuple[int, str]:
    """Dimension and type (M or Q) of the simple supermodule of the
    Clifford superalgebra of the form, over an algebraically closed field."""
    rank = form_rank(form)
    dim = 2 ** ((rank + 1) // 2)
    kind = "M" if rank % 2 == 0 else "Q"
    return dim, kind
