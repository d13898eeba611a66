"""Exact root-data computations for split quasireductive supergroups.

The public names below are loaded from their modules on first use: a
plain ``import superroot`` loads none of its modules.
"""

import importlib

_PUBLIC = {
    "lattice": "DimensionMismatch SuperrootError hnf pair",
    "rootdata": """Family OrderFunctional PositiveSystem SuperRootDatum
        UnimodularityReport all_frobenius_unimodular build_gl build_gl_even build_p
        build_q build_semidirect datum_from_json datum_to_json default_order delta_r
        dim_O_Gr induced_dims is_frobenius_unimodular is_unimodular_char0 odd_root_sum
        pbw_monomial_count positive_system simple_even_roots""",
    "liesuper": """AdmissibleBaseReport BasisElement K_alpha LieSuperAlgebra
        check_admissible_base eval_weight_on_cartan gl_superalgebra lie_algebra_for
        p_superalgebra q_superalgebra subalgebra_closure""",
    "clifford": """CliffordForm form_rank gram_form may_fail_absolute_simplicity
        u_lambda_dim_closed""",
    "steinberg": """CharacterElement RestrictionReport char_add char_from_json char_mul
        char_to_json frobenius_twist is_dominant is_flat is_restricted
        steinberg_character steinberg_decompose upsilon_leading""",
    "hyperalg": "DividedMonomial bw_multiply lucas_binom normal_order verify_commutator_formula",
}
_MODULE_OF = {name: mod for mod, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(importlib.import_module("." + mod, __name__), name)
    return value
