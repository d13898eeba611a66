"""Acceptance suite: every criterion runs exactly, prints one line, and
fails loudly on any mismatch.  Run either under pytest or directly:

    python3 tests/test_acceptance.py
"""

import itertools
import random
from math import comb

from superroot import lattice
from superroot.clifford import (
    CliffordForm,
    form_rank,
    gram_form,
    u_lambda_dim_closed,
)
from superroot.hyperalg import (
    DividedMonomial,
    verify_commutator_formula,
)
from superroot.liesuper import (
    EVEN,
    ODD,
    check_admissible_base,
    eval_weight_on_cartan,
    gl_superalgebra,
    lie_algebra_for,
    p_superalgebra,
    q_superalgebra,
)
from superroot.rootdata import (
    OrderFunctional,
    SuperRootDatum,
    all_frobenius_unimodular,
    build_gl,
    build_gl_even,
    build_p,
    build_q,
    build_semidirect,
    default_order,
    dim_O_Gr,
    is_frobenius_unimodular,
    is_unimodular_char0,
    pbw_monomial_count,
    simple_even_roots,
)
from superroot.steinberg import (
    CharacterElement,
    DecompositionFailure,
    char_add,
    char_mul,
    frobenius_twist,
    is_flat,
    is_restricted,
    steinberg_character,
    steinberg_decompose,
)

from oracles import (
    all_pairs_bracket_table,
    bw_multiply,
    clifford_simple_dim,
    gl11_closed_form,
    lucas_binom,
    upsilon_leading,
)


def report(number, text):
    print("criterion %2d: PASS  %s" % (number, text))


def test_criterion_01_unimodularity_table():
    for m in range(1, 5):
        for n in range(1, 5):
            d = build_gl(m, n)
            assert is_unimodular_char0(d).verdict is True
            assert all_frobenius_unimodular(d) is True
    for n in range(1, 5):
        d = build_q(n)
        assert is_unimodular_char0(d).verdict is True
        assert all_frobenius_unimodular(d) is True
    for n in range(2, 5):
        d = build_p(n)
        rep = is_unimodular_char0(d)
        assert rep.verdict is False
        assert rep.odd_root_sum == (2,) * n
        assert all_frobenius_unimodular(d) is False
    semi = build_semidirect(build_gl_even(3), [(1, 0, 0), (0, 0, 1)])
    rep = is_unimodular_char0(semi)
    assert rep.verdict is False and rep.odd_root_sum == (-1, 0, -1)
    report(1, "unimodularity table over GL/Q/P/semidirect, exact")


def test_criterion_02_frobenius_divisibility():
    p2 = build_p(2)
    for p in (3, 5, 7):
        for r in range(1, 5):
            assert is_frobenius_unimodular(p2, p, r).verdict is False
    for p in (3, 5, 7):
        d = SuperRootDatum(
            rank=2,
            even_roots=(),
            odd_roots=(((p * p, 0), 1),),
            h_odd_dim=0,
            label="synthetic(p^2,0)",
        )
        for r in range(1, 5):
            assert is_frobenius_unimodular(d, p, r).verdict is (r <= 2)
    report(2, "Frobenius divisibility on P(2) and the p^2 ladder")


def test_criterion_03_dimension_duality():
    families = (
        [build_gl(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
        + [build_q(n) for n in (1, 2, 3)]
        + [build_p(n) for n in (2, 3)]
    )
    for d in families:
        L = lie_algebra_for(d)
        n_even, n_odd = L.basis_counts()
        assert (n_even, n_odd) == (d.n_even, d.n_odd)
        for p in (3, 5):
            for r in (1, 2):
                lhs = dim_O_Gr(d, p, r)
                rhs = pbw_monomial_count(d, p, r)
                assert lhs == rhs == 2**n_odd * p ** (r * n_even)
    report(3, "dim O(G_r) = PBW count = 2^n_odd p^(r n_even), recounted from gl/q/p bases")


def test_criterion_04_admissible_bases():
    for m, n in ((1, 1), (2, 1), (2, 2), (3, 2)):
        d = build_gl(m, n)
        order = default_order(d)
        psi_odd = [
            tuple((1 if k == m - 1 else 0) - (1 if k == m else 0) for k in range(m + n))
        ]
        rep = check_admissible_base(
            lie_algebra_for(d), d, order, simple_even_roots(d, order), psi_odd
        )
        assert rep.ok and rep.mode == "assisted"
    for n in (2, 3):
        d = build_q(n)
        order = default_order(d)
        pe = simple_even_roots(d, order)
        rep = check_admissible_base(lie_algebra_for(d), d, order, pe, pe)
        assert rep.ok
    for n in (2, 3):
        d = build_p(n)
        order = default_order(d)  # values n-i+1
        psi_odd = [tuple(2 if k == n - 1 else 0 for k in range(n))]
        rep = check_admissible_base(
            lie_algebra_for(d), d, order, simple_even_roots(d, order), psi_odd
        )
        assert rep.ok
    d = build_p(2)
    order = OrderFunctional.from_values([-1, -2])
    rep = check_admissible_base(
        lie_algebra_for(d), d, order, simple_even_roots(d, order), [(-1, -1)]
    )
    assert not rep.ok
    assert rep.condition("generation") is False
    assert rep.condition("separation") is True
    report(4, "admissible bases accepted for GL/Q/P, rejected for P(2) reversed order")


def test_criterion_05_lie_structure_suite():
    datums = {
        "gl(2|2)": build_gl(2, 2),
        "q(2)": build_q(2),
        "q(3)": build_q(3),
        "p(2)": build_p(2),
        "p(3)": build_p(3),
    }
    algebras = {
        "gl(2|2)": gl_superalgebra(2, 2),
        "q(2)": q_superalgebra(2),
        "q(3)": q_superalgebra(3),
        "p(2)": p_superalgebra(2),
        "p(3)": p_superalgebra(3),
    }
    triples = nonzero_triples = 0
    for name, L in algebras.items():
        # The sweep reads a table from all dim^2 commutators, and the
        # library's brackets must agree with it pair by pair.
        table = all_pairs_bracket_table(L)
        assert table, name
        for x in L.basis:
            for y in L.basis:
                assert L.bracket(x, y) == table.get((x.index, y.index), {}), (name, x, y)

        def br(x, y):
            out = {}
            for i, ci in x.items():
                for j, cj in y.items():
                    for k, v in table.get((i, j), {}).items():
                        out[k] = out.get(k, 0) + ci * cj * v
            return {k: v for k, v in out.items() if v}

        basis = [({b.index: 1}, b.parity) for b in L.basis]
        # super skew-symmetry
        for (x, px) in basis:
            for (y, py) in basis:
                sign = -1 if (px == ODD and py == ODD) else 1
                lhs = br(x, y)
                rhs = br(y, x)
                total = dict(lhs)
                for k, v in rhs.items():
                    total[k] = total.get(k, 0) + sign * v
                assert not any(total.values()), (name, x, y)
        # super Jacobi on every basis triple
        for (x, px) in basis:
            for (y, py) in basis:
                sign = -1 if (px == ODD and py == ODD) else 1
                for (z, _pz) in basis:
                    left = br(x, br(y, z))
                    nonzero_triples += bool(left)
                    right = br(br(x, y), z)
                    mixed = br(y, br(x, z))
                    total = dict(left)
                    for k, v in right.items():
                        total[k] = total.get(k, 0) - v
                    for k, v in mixed.items():
                        total[k] = total.get(k, 0) - sign * v
                    assert not any(total.values()), (name, x, y, z)
                    triples += 1
        # weight grading against every diagonal even element
        for t in L.weight_space(lattice.zero(L.rank), EVEN):
            for b in L.basis:
                got = L.bracket(t, b)
                scalar = eval_weight_on_cartan(L, b.weight, t)
                assert got == ({b.index: scalar} if scalar else {})
        # weight-space dimensions match the datum
        d = datums[name]
        for root, mult in d.odd_roots:
            assert len(L.weight_space(root, ODD)) == mult
        for root, _ in d.even_roots:
            assert len(L.weight_space(root, EVEN)) == 1
        assert len(L.odd_cartan()) == d.h_odd_dim
        assert L.basis_counts() == (d.n_even, d.n_odd)
    assert nonzero_triples
    report(5, "skew/Jacobi on %d basis triples, gradings and multiplicities" % triples)


def test_criterion_06_q2_worked_example():
    assert lattice.pair((1, -2), (1, -1)) == 3
    L = q_superalgebra(2)
    form = gram_form(L, (1, -2), 0)
    assert form.gram == ((2, 0), (0, -4))
    assert u_lambda_dim_closed(form) == (2, "M")
    d = build_q(2)
    order = default_order(d)
    pe = simple_even_roots(d, order)
    rep = is_restricted(d, L, order, pe, pe, (1, -2), 3, 2)
    assert rep.verdict is True
    assert rep.per_root[0].kform_value == -2
    assert is_flat(d, 3, (1, -2)) is True
    assert is_flat(d, 3, (1, 1)) is False
    report(6, "Q(2) worked example: pairing 3, gram (2,-4), dim 2, restricted at r=2")


def test_criterion_07_clifford_oracle_equivalence():
    checked = 0
    for size in (1, 2, 3):
        for diag in itertools.product((0, 1, -1, 2, -2), repeat=size):
            gram = tuple(
                tuple(diag[i] if i == j else 0 for j in range(size))
                for i in range(size)
            )
            form = CliffordForm(gram, (0,) * size, 0)
            rank = form_rank(form)
            expected_dim = 2 ** ((rank + 1) // 2)
            expected_kind = "M" if rank % 2 == 0 else "Q"
            assert u_lambda_dim_closed(form) == (expected_dim, expected_kind)
            assert clifford_simple_dim(diag) == (expected_dim, expected_kind)
            checked += 1
    report(7, "brute-force Clifford supermodule dims match 2^ceil(rk/2) on %d forms" % checked)


def test_criterion_08_commutator_sweep():
    for p in (0, 3, 5):
        rep = verify_commutator_formula(5, 5, 20, p)
        assert rep.ok, rep.detail

    def corrupted(m, n):
        terms = []
        for i in range(min(m, n) + 1):
            h = ((m + n - i, i),) if i > 0 else ()
            terms.append(DividedMonomial(1, n - i, h, m - i))
        return tuple(terms)

    bad = verify_commutator_formula(5, 5, 20, 0, normal_form=corrupted)
    assert not bad.ok and bad.counterexample is not None
    for n in range(9):
        for m in range(9):
            for k in range(9):
                c1, e1 = bw_multiply(n, m)
                c2, e2 = bw_multiply(e1, k)
                d1, f1 = bw_multiply(m, k)
                d2, f2 = bw_multiply(n, f1)
                assert (c1 * c2, e2) == (d1 * d2, f2)
    for p in (3, 5, 7):
        for n in range(201):
            for k in range(201):
                assert lucas_binom(n, k, p) == comb(n, k) % p
    report(8, "commutator sweep (m,n<=5, deg 20, p in {0,3,5}), mutation caught, Lucas exact")


def _random_flat(rng, d, p):
    if d.label == "gl(1|1)":
        return (rng.randint(-30, 30), rng.randint(-30, 30))
    if d.label == "gl(2|1)":
        a, b = sorted((rng.randint(-30, 30), rng.randint(-30, 30)), reverse=True)
        return (a, b, rng.randint(-30, 30))
    while True:
        a, b = sorted((rng.randint(-30, 30), rng.randint(-30, 30)), reverse=True)
        if a == b and a % p:
            continue
        return (a, b)


def test_criterion_09_steinberg_round_trip():
    setups = []
    for d, psi_odd in (
        (build_gl(1, 1), [(1, -1)]),
        (build_gl(2, 1), [(0, 1, -1)]),
        (build_q(2), [(1, -1)]),
    ):
        order = default_order(d)
        L = lie_algebra_for(d)
        pe = simple_even_roots(d, order)
        rep = check_admissible_base(L, d, order, pe, psi_odd)
        assert rep.ok
        setups.append((d, L, order, pe, psi_odd))
    failures = 0
    rng = random.Random(2024)
    for d, L, order, pe, po in setups:
        for p in (3, 5):
            for _ in range(250):
                lam = _random_flat(rng, d, p)
                try:
                    digits = steinberg_decompose(
                        d, L, order, pe, po, lam, p, validate_base=False
                    )
                except DecompositionFailure:
                    failures += 1
                    continue
                total = lattice.zero(d.rank)
                for i, digit in enumerate(digits):
                    total = lattice.add(total, lattice.scale(p**i, digit))
                    assert is_restricted(
                        d, L, order, pe, po, digit, p, 1, validate_base=False
                    ).verdict
                assert total == lam
                if digits:
                    assert tuple(c % p for c in digits[0]) == tuple(c % p for c in lam)
                if d.label == "gl(1|1)":
                    assert digits == gl11_closed_form(lam, p)
    report(
        9,
        "1500 decompositions re-sum with restricted digits (%d logged failures); "
        "gl(1|1) matches the closed form" % failures,
    )


def test_criterion_10_character_ring_laws():
    rng = random.Random(99)

    def rand_char(rank):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.randint(-8, 8) for _ in range(rank))
            terms[w] = terms.get(w, 0) + rng.randint(-4, 4)
        return CharacterElement.from_dict(rank, terms)

    for _ in range(200):
        rank = rng.randint(1, 3)
        a, b = rand_char(rank), rand_char(rank)
        p = rng.choice((3, 5))
        r, s = rng.randint(0, 3), rng.randint(0, 2)
        assert frobenius_twist(char_mul(a, b), p, r) == char_mul(
            frobenius_twist(a, p, r), frobenius_twist(b, p, r)
        )
        assert frobenius_twist(char_add(a, b), p, r) == char_add(
            frobenius_twist(a, p, r), frobenius_twist(b, p, r)
        )
        assert frobenius_twist(frobenius_twist(a, p, r), p, s) == frobenius_twist(
            a, p, r + s
        )
    order = OrderFunctional.from_values([-1, -2])
    done = 0
    while done < 60:
        p = rng.choice((3, 5))
        factors = []
        leads = []
        ok = True
        for _ in range(rng.randint(1, 4)):
            ch = rand_char(2)
            try:
                leads.append(upsilon_leading(ch, order))
            except Exception:
                ok = False
                break
            factors.append(ch)
        if not ok:
            continue
        product = steinberg_character(factors, p)
        expect_weight = lattice.zero(2)
        expect_mult = 1
        for i, (w, m) in enumerate(leads):
            expect_weight = lattice.add(expect_weight, lattice.scale(p**i, w))
            expect_mult *= m
        terms = product.as_dict()
        assert terms.get(expect_weight) == expect_mult
        top = order.eval(expect_weight)
        assert all(order.eval(w) <= top for w in terms)
        done += 1
    report(10, "twist is a ring homomorphism; product leading term is e^(sum p^i l_i)")


ALL = [v for k, v in sorted(globals().items()) if k.startswith("test_criterion_")]


if __name__ == "__main__":
    for fn in ALL:
        fn()
    print("acceptance suite: all %d criteria passed" % len(ALL))
