"""The package namespace and the record types: every public name is the
defining module's object, loaded on first use; records are immutable
named tuples whose repr and validation are those of the dataclasses
they replaced."""

import importlib
import os
import subprocess
import sys

import pytest

import superroot
from superroot import cli, clifford, hyperalg, liesuper, rootdata, steinberg
from superroot.rootdata import DatumValidationError, ParameterError

SRC = os.path.dirname(os.path.dirname(os.path.abspath(superroot.__file__)))

PUBLIC = {
    "lattice": ["DimensionMismatch", "SuperrootError", "hnf", "pair"],
    "rootdata": [
        "Family", "OrderFunctional", "PositiveSystem", "SuperRootDatum",
        "UnimodularityReport", "all_frobenius_unimodular", "build_gl", "build_gl_even",
        "build_p", "build_q", "build_semidirect", "datum_from_json", "datum_to_json",
        "default_order", "delta_r", "dim_O_Gr", "induced_dims", "is_frobenius_unimodular",
        "is_unimodular_char0", "odd_root_sum", "pbw_monomial_count", "positive_system",
        "simple_even_roots",
    ],
    "liesuper": [
        "AdmissibleBaseReport", "BasisElement", "K_alpha", "LieSuperAlgebra",
        "check_admissible_base", "eval_weight_on_cartan", "gl_superalgebra",
        "lie_algebra_for", "p_superalgebra", "q_superalgebra", "subalgebra_closure",
    ],
    "clifford": [
        "CliffordForm", "form_rank", "gram_form", "u_lambda_dim_closed",
    ],
    "steinberg": [
        "CharacterElement", "RestrictionReport", "char_add", "char_from_json", "char_mul",
        "char_to_json", "frobenius_twist", "is_dominant", "is_flat", "is_restricted",
        "steinberg_character", "steinberg_decompose",
    ],
    "hyperalg": [
        "DividedMonomial", "normal_order", "verify_commutator_formula",
    ],
}


def child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_all_lists_the_public_names():
    names = sorted(n for names in PUBLIC.values() for n in names)
    assert len(names) == 57
    assert sorted(superroot.__all__) == names
    assert superroot.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_the_defining_modules_object(module):
    mod = importlib.import_module("superroot." + module)
    for name in PUBLIC[module]:
        assert getattr(superroot, name) is getattr(mod, name), name


def test_import_loads_no_submodule():
    out = child("import sys, superroot; print(sorted(m for m in sys.modules if 'superroot' in m))")
    assert out == "['superroot']\n"
    out = child("import superroot, sys; superroot.pair; print(sorted(sys.modules))")
    assert "superroot.lattice" in out and "superroot.rootdata" not in out


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        superroot.no_such_name


def _records():
    d = rootdata.build_gl(2, 1)
    order = rootdata.default_order(d)
    pos = rootdata.positive_system(d, order)
    L = liesuper.lie_algebra_for(d)
    psi_odd = cli.default_psi_odd(d)
    restricted = steinberg.is_restricted(d, L, order, pos.simple_even, psi_odd, (1, 0, 0), 3, 1)
    return [
        rootdata.Family("gl", (2, 1)),
        rootdata.build_gl(1, 1),
        order,
        pos,
        rootdata.is_frobenius_unimodular(d, 3, 1),
        L.basis[3],
        liesuper.check_admissible_base(L, d, order, pos.simple_even, psi_odd),
        clifford.gram_form(liesuper.lie_algebra_for(rootdata.build_q(2)), (1, 0), 3),
        restricted.per_root[0],
        restricted,
        steinberg.CharacterElement.from_dict(2, {(1, 2): 3}),
        hyperalg.normal_order(2, 1)[1],
        hyperalg.verify_commutator_formula(1, 1, 2),
    ]


# The reprs of the frozen dataclasses these records used to be.
DATACLASS_REPRS = [
    "Family(kind='gl', params=(2, 1))",
    "SuperRootDatum(rank=2, even_roots=(), odd_roots=(((1, -1), 1), ((-1, 1), 1)), "
    "h_odd_dim=0, label='gl(1|1)', family=Family(kind='gl', params=(1, 1)))",
    "OrderFunctional(values=(Fraction(-1, 1), Fraction(-2, 1), Fraction(-3, 1)))",
    "PositiveSystem(even_pos=(((1, -1, 0), 1),), even_neg=(((-1, 1, 0), 1),), "
    "odd_pos=(((0, 1, -1), 1), ((1, 0, -1), 1)), odd_neg=(((-1, 0, 1), 1), ((0, -1, 1), 1)))",
    "UnimodularityReport(odd_root_sum=(0, 0, 0), per_coordinate_divisibility="
    "((0, 0, True), (1, 0, True), (2, 0, True)), verdict=True, modulus=3)",
    "BasisElement(index=3, parity='even', weight=(0, 0, 0), matrix=(((1, 1), 1),), name='H_2')",
    "AdmissibleBaseReport(ok=True, conditions=(('generation', True), ('separation', True), "
    "('multiplicity-one', True)), failures=(), mode='assisted')",
    "CliffordForm(gram=((2, 0), (0, 0)), lam=(1, 0), char_p=3)",
    "PerRootCheck(root=(1, -1, 0), kind='even-only', pairing=1, kform_value=None, bound=2, ok=True)",
    "RestrictionReport(weight=(1, 0, 0), p=3, r=1, per_root=(PerRootCheck(root=(1, -1, 0), "
    "kind='even-only', pairing=1, kform_value=None, bound=2, ok=True),), verdict=True, "
    "weakened=False)",
    "CharacterElement(rank=2, terms=(((1, 2), 3),))",
    "DividedMonomial(coeff=1, a=0, h_binoms=((1, 1),), c=1)",
    "CommutatorReport(ok=True, checked=24, counterexample=None, detail='all comparisons agree')",
]


@pytest.mark.parametrize("index", range(13), ids=[r.split("(")[0] for r in DATACLASS_REPRS])
def test_record_repr_and_immutability(index):
    record = _records()[index]
    assert repr(record) == DATACLASS_REPRS[index]
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_records_are_tuples_of_their_fields():
    family = rootdata.Family("q", (3,))
    assert family == ("q", (3,)) and tuple(family) == ("q", (3,))
    assert hash(family) == hash(("q", (3,)))
    assert "%s" % (family,) == "q(3)"
    assert rootdata.is_unimodular_char0(rootdata.build_gl(1, 1)).modulus is None


def test_validating_records_refuse_bad_input():
    good = rootdata.build_gl(1, 1)
    with pytest.raises(DatumValidationError, match="^rank: must be nonnegative$"):
        rootdata.SuperRootDatum(-1, (), (), 0, "x")
    with pytest.raises(DatumValidationError, match="^h_odd_dim: must be nonnegative$"):
        rootdata.SuperRootDatum(rank=0, even_roots=(), odd_roots=(), h_odd_dim=-1, label="x")
    with pytest.raises(DatumValidationError, match=r"^odd_roots\[1\].root: odd root \(1, -1\) listed twice$"):
        rootdata.SuperRootDatum(2, (), good.odd_roots[:1] * 2, 0, "x", good.family)
    assert rootdata.SuperRootDatum(*good) == good
    assert rootdata.SuperRootDatum(2, (), (), 0, "x").family is None
    for args in ((1, -1, (), 0), (1, 0, (), -1), (1, 0, ((2, -1),), 0)):
        with pytest.raises(ParameterError, match="^negative exponent in divided monomial$"):
            hyperalg.DividedMonomial(*args)
