import json

import pytest

import superroot
from superroot import cli, lattice, liesuper, rootdata, steinberg
from superroot.lattice import SuperrootError
from superroot.rootdata import (
    DatumValidationError,
    Family,
    InvalidOrderError,
    OrderFunctional,
    ParameterError,
    SuperRootDatum,
    all_frobenius_unimodular,
    build_gl,
    build_gl_even,
    build_p,
    build_q,
    build_semidirect,
    datum_from_json,
    datum_to_json,
    default_order,
    delta_r,
    dim_O_Gr,
    induced_dims,
    is_frobenius_unimodular,
    is_unimodular_char0,
    odd_root_sum,
    pbw_monomial_count,
    positive_system,
    simple_even_roots,
)

ALL_FAMILIES = (
    [build_gl(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
    + [build_q(n) for n in (1, 2, 3)]
    + [build_p(n) for n in (2, 3)]
)


# -- builders ---------------------------------------------------------------


def test_build_gl21_odd_roots():
    d = build_gl(2, 1)
    odd = {r for r, _ in d.odd_roots}
    assert odd == {(1, 0, -1), (0, 1, -1), (-1, 0, 1), (0, -1, 1)}
    assert all(m == 1 for _, m in d.odd_roots)


def test_build_gl11_degenerate():
    d = build_gl(1, 1)
    assert d.even_roots == ()
    assert {r for r, _ in d.odd_roots} == {(1, -1), (-1, 1)}


def test_build_gl22_counts():
    d = build_gl(2, 2)
    assert d.n_even == 8
    assert d.n_odd == 8
    L = liesuper.gl_superalgebra(2, 2)
    assert L.basis_counts() == (8, 8)


def test_build_q2():
    d = build_q(2)
    assert {r for r, _ in d.odd_roots} == {(1, -1), (-1, 1)}
    assert d.h_odd_dim == 2


def test_build_q1_torus():
    d = build_q(1)
    assert d.even_roots == () and d.odd_roots == ()
    assert d.h_odd_dim == 1


def test_build_q3_counts():
    d = build_q(3)
    assert d.n_even == 9 and d.n_odd == 9
    assert liesuper.q_superalgebra(3).basis_counts() == (9, 9)


def test_build_p2_odd_roots():
    d = build_p(2)
    assert {r for r, _ in d.odd_roots} == {(1, 1), (-1, -1), (2, 0), (0, 2)}


def test_build_p_odd_sum_is_two_everywhere():
    for n in (2, 3, 4):
        assert odd_root_sum(build_p(n)) == (2,) * n


def test_build_p3_counts_match_matrix_model():
    # odd part of p(3): symmetric 6 + antisymmetric 3
    d = build_p(3)
    L = liesuper.p_superalgebra(3)
    assert L.basis_counts() == (d.n_even, d.n_odd)
    assert d.n_odd == 9


def test_build_semidirect_example():
    d = build_semidirect(build_gl_even(3), [(1, 0, 0), (0, 0, 1)])
    assert odd_root_sum(d) == (-1, 0, -1)
    assert is_unimodular_char0(d).verdict is False


def test_build_semidirect_all_zero_chars():
    d = build_semidirect(build_gl_even(2), [(0, 0), (0, 0), (0, 0)])
    assert d.odd_roots == ()
    assert d.h_odd_dim == 3


def test_build_semidirect_symmetric_chars():
    chars = [(1, 1, 1), (2, 2, 2)]
    d = build_semidirect(build_gl_even(3), chars)
    assert odd_root_sum(d) == (-3, -3, -3)


def test_build_semidirect_rejects_odd_base():
    with pytest.raises(ParameterError):
        build_semidirect(build_q(2), [(1, 0)])


# -- datum invariants -------------------------------------------------------


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
def test_datum_invariants(d):
    roots = [r for r, _ in d.even_roots]
    total = lattice.zero(d.rank)
    for r, c in d.even_roots:
        assert lattice.neg(r) in roots
        assert lattice.pair(r, c) == 2
        total = lattice.add(total, r)
    assert lattice.is_zero(total)


@pytest.mark.parametrize("d", ALL_FAMILIES, ids=lambda d: d.label)
def test_positive_system_partitions(d):
    order = default_order(d)
    pos = positive_system(d, order)
    even = {r for r, _ in d.even_roots}
    assert {r for r, _ in pos.even_pos} | {r for r, _ in pos.even_neg} == even
    assert not ({r for r, _ in pos.even_pos} & {r for r, _ in pos.even_neg})
    odd = {r for r, _ in d.odd_roots}
    assert {r for r, _ in pos.odd_pos} | {r for r, _ in pos.odd_neg} == odd
    assert pos.n_odd_pos + pos.n_odd_neg == sum(m for _, m in d.odd_roots)


def test_positive_system_gl21():
    d = build_gl(2, 1)
    pos = positive_system(d, default_order(d))
    assert [r for r, _ in pos.odd_pos] == [(0, 1, -1), (1, 0, -1)]


def test_positive_system_p2_bad_order():
    d = build_p(2)
    pos = positive_system(d, OrderFunctional.from_values([-1, -2]))
    assert [r for r, _ in pos.odd_pos] == [(-1, -1)]
    assert [r for r, _ in pos.odd_neg] == [(0, 2), (1, 1), (2, 0)]


def test_positive_system_rejects_vanishing_order():
    d = build_gl(1, 1)
    with pytest.raises(InvalidOrderError):
        positive_system(d, OrderFunctional.from_values([1, 1]))


def test_simple_even_roots_gl():
    d = build_gl(2, 2)
    assert simple_even_roots(d, default_order(d)) == [
        (0, 0, 1, -1),
        (1, -1, 0, 0),
    ]


# -- unimodularity ----------------------------------------------------------


@pytest.mark.parametrize("values", [[-1, -2, -3], [3, 1, 2], [1, 1, 2], [1, 2, 2], [0, 0, 0]])
def test_positive_system_evaluates_each_root_once(monkeypatch, values):
    # The vanishing check and the split share one value per root, and a
    # vanishing order is reported at the first root, even roots then odd,
    # where is_positive refuses it.
    d = build_gl(2, 1)
    order = OrderFunctional.from_values(values)
    try:
        for root in d.all_roots():
            order.is_positive(root)
        expected = None
    except InvalidOrderError as exc:
        expected = str(exc)
    seen = []
    real_eval = OrderFunctional.eval
    monkeypatch.setattr(
        OrderFunctional, "eval", lambda self, w: seen.append(w) or real_eval(self, w)
    )
    if expected is None:
        positive_system(d, order)
        assert seen == d.all_roots()
    else:
        with pytest.raises(InvalidOrderError) as err:
            positive_system(d, order)
        assert str(err.value) == expected
        assert len(seen) == len(set(seen))


def test_odd_root_sum_vanishes_for_gl_and_q():
    for m in range(1, 5):
        for n in range(1, 5):
            assert lattice.is_zero(odd_root_sum(build_gl(m, n)))
    for n in range(1, 5):
        assert lattice.is_zero(odd_root_sum(build_q(n)))


def test_char0_verdicts():
    assert is_unimodular_char0(build_gl(3, 2)).verdict is True
    assert is_unimodular_char0(build_p(2)).verdict is False
    d = build_semidirect(build_gl_even(3), [(1, 0, 0), (0, 0, 1)])
    rep = is_unimodular_char0(d)
    assert rep.verdict is False and rep.odd_root_sum == (-1, 0, -1)


def test_frobenius_p2():
    rep = is_frobenius_unimodular(build_p(2), 3, 1)
    assert rep.verdict is False
    assert rep.per_coordinate_divisibility[1] == (1, 2, False)


def test_frobenius_gl21_always_true():
    d = build_gl(2, 1)
    for p in (3, 5, 7):
        for r in (1, 2, 3):
            assert is_frobenius_unimodular(d, p, r).verdict is True


def test_frobenius_divisibility_ladder():
    d = SuperRootDatum(
        rank=2,
        even_roots=(),
        odd_roots=(((9, 0), 1),),
        h_odd_dim=0,
        label="synthetic",
    )
    assert is_frobenius_unimodular(d, 3, 1).verdict is True
    assert is_frobenius_unimodular(d, 3, 2).verdict is True
    assert is_frobenius_unimodular(d, 3, 3).verdict is False


def test_frobenius_monotone_in_r():
    for d in ALL_FAMILIES:
        for p in (3, 5):
            for r in (1, 2, 3, 4):
                if is_frobenius_unimodular(d, p, r + 1).verdict:
                    assert is_frobenius_unimodular(d, p, r).verdict


def test_frobenius_rejects_bad_p():
    d = build_q(2)
    for p in (2, 4, 9, 1):
        with pytest.raises(ParameterError):
            is_frobenius_unimodular(d, p, 1)


def test_all_frobenius_grid_equivalence():
    for d in ALL_FAMILIES + [build_q(4), build_p(4)]:
        expected = all_frobenius_unimodular(d)
        grid = all(
            is_frobenius_unimodular(d, p, r).verdict
            for p in (3, 5, 7)
            for r in range(1, 6)
        )
        assert grid == expected


def test_all_frobenius_trivial_even_case():
    assert all_frobenius_unimodular(build_gl_even(3)) is True


def test_chi_r_examples():
    assert odd_root_sum(build_gl(2, 2)) == (0, 0, 0, 0)
    assert odd_root_sum(build_p(2)) == (2, 2)
    d = build_semidirect(build_gl_even(2), [(1, 1), (1, 1)])
    assert odd_root_sum(d) == (-2, -2)


def test_odd_root_sum_independent_of_order():
    d = build_p(3)
    for values in ([3, 2, 1], [-1, -2, -3], [5, -1, 2]):
        order = OrderFunctional.from_values(values)
        pos = positive_system(d, order)
        total = lattice.zero(d.rank)
        for root, mult in pos.odd_pos + pos.odd_neg:
            total = lattice.add(total, lattice.scale(mult, root))
        assert total == odd_root_sum(d)


# -- delta, dims ------------------------------------------------------------


def _split(d):
    return positive_system(d, default_order(d))


def test_delta_gl11():
    d = build_gl(1, 1)
    assert delta_r(d, _split(d), 3, 1) == (-1, 1)
    assert delta_r(d, _split(d), 5, 2) == (-1, 1)


def test_delta_purely_even():
    d = build_gl_even(2)
    # -2 * (sum of positive even roots) at p=3, r=1
    assert delta_r(d, _split(d), 3, 1) == (-2, 2)


def test_delta_q2():
    d = build_q(2)
    assert delta_r(d, _split(d), 3, 1) == (-3, 3)


def test_dim_O_Gr_examples():
    assert dim_O_Gr(build_q(2), 3, 1) == 1296
    assert dim_O_Gr(build_gl(1, 1), 5, 2) == 2500


def test_dim_O_Gr_r_step():
    d = build_p(2)
    for r in (1, 2, 3):
        assert dim_O_Gr(d, 3, r + 1) == dim_O_Gr(d, 3, r) * 3**d.n_even


def test_pbw_count_examples():
    assert pbw_monomial_count(build_q(1), 3, 1) == 6
    d = build_gl(2, 1)
    assert pbw_monomial_count(d, 3, 2) == dim_O_Gr(d, 3, 2)
    even = build_gl_even(2)
    assert pbw_monomial_count(even, 3, 1) == 3**even.n_even


def test_pbw_equals_dim_all_families():
    for d in ALL_FAMILIES:
        for p in (3, 5):
            for r in (1, 2):
                assert pbw_monomial_count(d, p, r) == dim_O_Gr(d, p, r)


def test_induced_dims_q2():
    d = build_q(2)
    assert induced_dims(_split(d), 3, 1, 2) == (12, 12)


def test_induced_dims_zero_seed():
    d = build_q(2)
    assert induced_dims(_split(d), 3, 1, 0) == (0, 0)


def test_induced_dims_gl11():
    # one positive and one negative odd root, no even roots
    d = build_gl(1, 1)
    assert induced_dims(_split(d), 3, 1, 1) == (2, 2)


# -- json -------------------------------------------------------------------


def test_json_round_trip():
    for d in ALL_FAMILIES:
        blob = json.dumps(datum_to_json(d))
        back = datum_from_json(json.loads(blob))
        assert back.rank == d.rank
        assert back.even_roots == d.even_roots
        assert back.odd_roots == d.odd_roots
        assert back.h_odd_dim == d.h_odd_dim


def test_json_round_trip_keeps_family():
    for d in ALL_FAMILIES:
        back = datum_from_json(json.loads(json.dumps(datum_to_json(d))))
        assert back == d
        assert datum_to_json(back)["lie_handle"] == str(d.family)


def test_family_text_round_trip():
    for text in ("gl(1|1)", "gl(12|3)", "q(2)", "p(7)"):
        assert str(Family.parse(text)) == text
    assert Family.parse("gl(2|1)") == build_gl(2, 1).family == Family("gl", (2, 1))


def test_builders_set_family():
    assert build_q(3).family == Family("q", (3,))
    assert build_p(2).family == Family("p", (2,))
    assert build_gl_even(2).family is None
    assert build_semidirect(build_gl_even(2), [(1, 0)]).family is None


def _relabel(d, label, handle):
    data = datum_to_json(d)
    data["label"] = label
    if handle is None:
        data.pop("lie_handle", None)
    else:
        data["lie_handle"] = handle
    return data


@pytest.mark.parametrize(
    "data",
    [
        _relabel(build_q(2), "q(2)", "q(x)"),
        _relabel(build_q(2), "q(2)", 5),
        _relabel(build_q(2), "q(2)", "p(3)"),
        _relabel(build_q(2), "q(2)", "q(3)"),
        _relabel(build_q(2), "q(2)", "gl(1|1)"),
        _relabel(build_gl(2, 1), "gl(2|1)", "gl(2|a)"),
        _relabel(build_gl(2, 1), "gl(2|1)", "gl(1|2)"),
        _relabel(build_gl(2, 1), "gl(2|1)", "gl(2)"),
        _relabel(build_gl(2, 1), "gl(2|1)", "q(2|1)"),
        _relabel(build_gl(2, 1), "gl(2|1)", " gl(2|1)"),
        _relabel(build_q(1), "q(1)", "q(0)"),
        _relabel(build_p(2), "p(2)", "p(1)"),
        _relabel(build_gl_even(2), "gl_2", "gl(99999|99999)"),
        dict(_relabel(build_q(2), "q(2)", "q(2)"), h_odd_dim=1),
    ],
    ids=lambda data: repr(data["lie_handle"]),
)
def test_json_rejects_bad_lie_handle(data):
    with pytest.raises(DatumValidationError) as err:
        datum_from_json(data)
    assert str(err.value).startswith("$.lie_handle: ")


@pytest.mark.parametrize(
    "handle, rank, h_odd_dim",
    [("q(1000)", 1000 * 1000, 1000 * 1000), ("q(1000)", 1000, 1000),
     ("p(1000)", 1000, 0), ("gl(1000|1000)", 2000, 0)],
)
def test_json_large_handle_on_small_datum_is_not_built(monkeypatch, handle, rank, h_odd_dim):
    # A handle above the rank limit is refused as it is read, before any
    # builder runs, whatever the datum's bare integers say.
    def refuse(*args):
        raise AssertionError("builder called for a datum with no roots")

    for name in ("build_gl", "build_q", "build_p"):
        monkeypatch.setattr(rootdata, name, refuse)
    data = {"rank": rank, "h_odd_dim": h_odd_dim, "even_roots": [], "odd_roots": [],
            "label": "x", "lie_handle": handle}
    with pytest.raises(DatumValidationError) as err:
        datum_from_json(data)
    assert str(err.value).startswith("$.lie_handle: ")


def test_json_handle_of_a_larger_family_is_refused_after_its_build():
    # A handle within the rank limit is built and compared: q(64) has
    # rank 64, the datum rank 2.
    with pytest.raises(DatumValidationError) as err:
        datum_from_json(_relabel(build_q(2), "q(2)", "q(64)"))
    assert str(err.value) == "$.lie_handle: the roots are not those of q(64)"


def test_json_lie_handle_may_be_null():
    assert datum_from_json(_relabel(build_q(2), "q(2)", None)).family is None
    data = dict(datum_to_json(build_p(2)), lie_handle=None)
    assert datum_from_json(data).family is None


def test_json_label_is_display_text():
    d = datum_from_json(_relabel(build_gl(1, 1), "p(2)", "gl(1|1)"))
    assert d.family == Family("gl", (1, 1)) and d.label == "p(2)"
    assert default_order(d).values == (-1, -2)
    assert cli.default_psi_odd(d) == [(1, -1)]


def test_json_rejects_bad_pairing():
    data = datum_to_json(build_gl(1, 2))
    data["even_roots"][0]["coroot"] = [0, 0, 0]
    with pytest.raises(DatumValidationError):
        datum_from_json(data)


def test_json_rejects_zero_odd_root():
    data = datum_to_json(build_q(2))
    data["odd_roots"].append({"root": [0, 0], "mult": 1})
    with pytest.raises(DatumValidationError):
        datum_from_json(data)


def test_json_path_in_message():
    data = datum_to_json(build_q(2))
    data["odd_roots"][0]["mult"] = "x"
    with pytest.raises(DatumValidationError) as err:
        datum_from_json(data)
    assert "odd_roots[0]" in str(err.value)


def test_datum_rejects_unnegated_even_root():
    with pytest.raises(DatumValidationError):
        SuperRootDatum(
            rank=2,
            even_roots=(((1, -1), (1, -1)),),
            odd_roots=(),
            h_odd_dim=0,
            label="bad",
        )


# -- the error contract -----------------------------------------------------


@pytest.mark.parametrize(
    "cls, base",
    [
        (lattice.DimensionMismatch, ValueError),
        (DatumValidationError, ValueError),
        (InvalidOrderError, ValueError),
        (ParameterError, ValueError),
        (liesuper.DecompositionError, ValueError),
        (steinberg.FlatnessError, ValueError),
        (steinberg.DecompositionFailure, ValueError),
        (steinberg.UnsupportedFamilyError, NotImplementedError),
    ],
    ids=lambda v: v.__name__,
)
def test_every_library_error_is_a_superroot_error(cls, base):
    assert issubclass(cls, SuperrootError) and issubclass(cls, base)


def test_the_cli_catches_the_base_class():
    assert SuperrootError is superroot.SuperrootError
    assert not hasattr(cli, "DOMAIN_ERRORS")


def _is_restricted_q2(p, r):
    q2 = build_q(2)
    order = default_order(q2)
    psi = simple_even_roots(q2, order)
    return steinberg.is_restricted(
        q2, liesuper.lie_algebra_for(q2), order, psi, psi, (1, -2), p, r
    )


def test_prime_power_is_bounded_before_it_is_computed():
    top = rootdata.MAX_POWER_BITS // 2  # 3 has bit length 2
    assert rootdata.prime_power(3, top) == 3**top
    assert rootdata.prime_power(5, 0) == 1
    with pytest.raises(ParameterError, match=r"^3\*\*%d exceeds the" % (top + 1)):
        rootdata.prime_power(3, top + 1)
    for call in (
        lambda r: is_frobenius_unimodular(build_q(2), 3, r),
        lambda r: delta_r(build_q(2), _split(build_q(2)), 3, r),
        lambda r: dim_O_Gr(build_q(2), 3, r),
        lambda r: pbw_monomial_count(build_q(2), 3, r),
        lambda r: induced_dims(_split(build_q(2)), 3, r, 1),
        lambda r: _is_restricted_q2(3, r),
        lambda r: steinberg.frobenius_twist(steinberg.CharacterElement.from_dict(2, {(1, 0): 1}), 3, r),
    ):
        with pytest.raises(ParameterError, match="-bit limit on p"):
            call(10**12)


# Every caller whose modulus p**r cuts out the Frobenius kernel G_r.
FROBENIUS_KERNEL_CALLERS = {
    "is_frobenius_unimodular": lambda p, r: is_frobenius_unimodular(build_q(2), p, r),
    "delta_r": lambda p, r: delta_r(build_q(2), _split(build_q(2)), p, r),
    "dim_O_Gr": lambda p, r: dim_O_Gr(build_q(2), p, r),
    "pbw_monomial_count": lambda p, r: pbw_monomial_count(build_q(2), p, r),
    "induced_dims": lambda p, r: induced_dims(_split(build_q(2)), p, r, 1),
    "is_restricted": _is_restricted_q2,
}


@pytest.mark.parametrize(
    "p, r, message",
    [
        (4, 1, "p must be an odd prime, got 4"),
        (3, 0, "r must be >= 1, got 0"),
        (4, 0, "p must be an odd prime, got 4"),
    ],
    ids=["p", "r", "p-before-r"],
)
@pytest.mark.parametrize("caller", sorted(FROBENIUS_KERNEL_CALLERS))
def test_frobenius_kernel_callers_check_p_then_r(caller, p, r, message):
    with pytest.raises(ParameterError, match="^%s$" % message):
        FROBENIUS_KERNEL_CALLERS[caller](p, r)


@pytest.mark.parametrize(
    "bad",
    ["1/0", "a", "", "1.5.2", float("inf"), float("nan"), True, 2.5, "1_0", " 1", "1e3",
     "\u0663", "1/-2", "+"],
)
def test_order_values_must_be_rational(bad):
    with pytest.raises(ParameterError, match="is not a rational number"):
        OrderFunctional.from_values([1, bad])


@pytest.mark.parametrize("key", ["rank", "h_odd_dim"])
def test_json_bools_are_not_integers(key):
    with pytest.raises(DatumValidationError, match=r"^\$\.%s: expected an integer$" % key):
        datum_from_json(dict(datum_to_json(build_q(2)), **{key: True}))
    assert not rootdata.is_json_int(True) and rootdata.is_json_int(0)


def test_parse_json_refuses_deep_nesting():
    # Nesting deeper than the parser's stack is refused with a fixed text;
    # a shallow text parses as json.loads does.
    for text in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(ParameterError) as err:
            rootdata.parse_json(text)
        assert err.type is ParameterError
        assert str(err.value) == "the JSON text is nested too deeply"
    assert rootdata.parse_json("[" * 50 + "]" * 50) == json.loads("[" * 50 + "]" * 50)


def _trial_division_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def test_is_odd_prime_agrees_with_trial_division():
    assert [p for p in range(10**5) if rootdata.is_odd_prime(p)] == [
        p for p in range(10**5) if _trial_division_odd_prime(p)
    ]


def test_is_odd_prime_rejects_pseudoprimes():
    # 41041 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7.
    assert not rootdata.is_odd_prime(41041)
    assert not rootdata.is_odd_prime(3215031751)
    assert rootdata.is_odd_prime(1000000000000000003)
    assert not rootdata.is_odd_prime(1000000007 * 998244353)


def test_is_odd_prime_refuses_beyond_its_limit():
    top = rootdata.PRIME_TEST_LIMIT
    assert not rootdata.is_odd_prime(top - 4)  # 3 * 1105681354893295795320659
    with pytest.raises(ParameterError, match="for the primality test"):
        rootdata.is_odd_prime(top)
    with pytest.raises(ParameterError, match="for the primality test"):
        rootdata.check_odd_prime(top + 2)
    assert not rootdata.is_odd_prime(top + 1)  # even: no test needed


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_gl(1, 1).coroot_of((5, 5)), "(5, 5) is not an even root of gl(1|1)"),
        (lambda: build_gl_even(0), "build_gl_even requires n >= 1"),
        (lambda: build_gl(40, 25), "gl(40|25) has rank 65, above the limit of 64"),
        (lambda: build_q(65), "q(65) has rank 65, above the limit of 64"),
        (lambda: build_p(65), "p(65) has rank 65, above the limit of 64"),
        (lambda: build_gl_even(65), "gl_65 has rank 65, above the limit of 64"),
        (lambda: Family("gl", (0, 70)).build(), "build_gl requires m, n >= 1"),
        (lambda: Family("p", (1,)).build(), "build_p requires n >= 2"),
        (lambda: induced_dims(positive_system(build_gl(1, 1), default_order(build_gl(1, 1))),
                              3, 1, -1), "dim_u_lambda must be nonnegative"),
    ],
    ids=["coroot-of-non-root", "gl-even-0", "gl-40-25", "q-65", "p-65", "gl-even-65",
         "least-before-rank", "family-p-1", "induced-negative-seed"],
)
def test_bad_requests_are_refused(call, message):
    with pytest.raises(ParameterError) as err:
        call()
    assert err.type is ParameterError and str(err.value) == message
