"""Command-line front end: every library operation over built-in families
or JSON datum files, with table or machine-readable JSON output.

Exit codes: 0 success, 1 domain error (structured error object on
stdout), 2 usage error.  Integers beyond 2^53 are emitted as decimal
strings in JSON mode so consumers never lose precision; a result too
long for Python's int-to-str limit is a ``ParameterError``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

# liesuper, steinberg and hyperalg are imported inside the verbs that run
# them, so a process loads only the modules its verb needs.
from . import lattice, rootdata
from .lattice import Weight

BIG = 2**53


def _too_long() -> rootdata.ParameterError:
    return rootdata.ParameterError(
        "result has more than %d decimal digits" % sys.get_int_max_str_digits()
    )


def _decimal(value: int) -> str:
    try:
        return str(value)
    except ValueError:  # beyond sys.get_int_max_str_digits()
        raise _too_long() from None


def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return _decimal(value) if abs(value) >= BIG else value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


def emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        return
    width = max((len(str(k)) for k in payload), default=0)
    for key in sorted(payload):
        print("%-*s  %s" % (width, key, json.dumps(payload[key], sort_keys=True)))


def parse_weight(text: str) -> Weight:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise rootdata.ParameterError("cannot parse weight %r" % text) from exc


def parse_weights(text: str) -> List[Weight]:
    return [parse_weight(part) for part in text.split(";") if part]


def build_datum(args) -> rootdata.SuperRootDatum:
    if args.family == "file":
        if not args.file:
            raise rootdata.ParameterError("--family file needs --file")
        return rootdata.load_datum(args.file)
    gl = args.family == "gl"
    params = (args.m, args.n) if gl else (args.n,)
    if None in params:
        raise rootdata.ParameterError(
            "--family %s needs %s" % (args.family, "--m and --n" if gl else "--n")
        )
    return rootdata.Family(args.family, params).build()


def get_order(
    args, datum: rootdata.SuperRootDatum
) -> Tuple[rootdata.OrderFunctional, rootdata.PositiveSystem]:
    """``--order`` (else the family's default order) and the roots split by
    it; the split is the order's check, raising at the first root where
    the order vanishes.  An empty ``--order=`` is given, and refused as
    not rational."""
    if args.order is not None:
        order = rootdata.OrderFunctional.from_values(args.order.split(","))
    else:
        order = rootdata.default_order(datum)
    return order, rootdata.positive_system(datum, order)


def default_psi_odd(datum: rootdata.SuperRootDatum) -> List[Weight]:
    family = datum.family
    if family is None:
        raise rootdata.ParameterError(
            "no default odd base for %r; pass --psi-odd" % datum.label
        )
    rank = datum.rank
    if family.kind == "gl":
        m = family.params[0]
        return [lattice.unit_difference(rank, m - 1, m)]
    if family.kind == "q":
        return [lattice.unit_difference(rank, i, i + 1) for i in range(rank - 1)]
    return [tuple(2 if k == rank - 1 else 0 for k in range(rank))]


def load_chars(texts: Sequence[str]) -> list:
    """The characters given as JSON, inline or ``@file``, read in order.
    One with no terms has no rank of its own: it takes the rank of the
    first one with terms, or 0 when none has any."""
    from . import steinberg

    out = []
    for text in texts:
        if text.startswith("@"):
            data = rootdata.load_json(text[1:])
        else:
            data = rootdata.parse_json(text)
        empty = isinstance(data, dict) and data.get("terms") == []
        out.append(data if empty else steinberg.char_from_json(data))
    rank = next((c.rank for c in out if not isinstance(c, dict)), 0)
    return [steinberg.char_from_json(c, rank) if isinstance(c, dict) else c for c in out]


# ---------------------------------------------------------------------------
# Verb implementations.


def cmd_describe(args) -> dict:
    datum = build_datum(args)
    payload = rootdata.datum_to_json(datum)
    payload["n_even"] = datum.n_even
    payload["n_odd"] = datum.n_odd
    return payload


def cmd_unimodular(args) -> dict:
    datum = build_datum(args)
    if args.p is not None or args.r is not None:
        if args.p is None or args.r is None:
            raise rootdata.ParameterError("give both --p and --r or neither")
        report = rootdata.is_frobenius_unimodular(datum, args.p, args.r)
    else:
        report = rootdata.is_unimodular_char0(datum)
    return {
        "verdict": report.verdict,
        "odd_root_sum": list(report.odd_root_sum),
        "per_coordinate": [
            {"index": i, "value": v, "divides": ok}
            for i, v, ok in report.per_coordinate_divisibility
        ],
        "modulus": report.modulus,
    }


def cmd_frobenius(args) -> dict:
    datum = build_datum(args)
    return {
        "all_unimodular": rootdata.all_frobenius_unimodular(datum),
        "odd_root_sum": list(rootdata.odd_root_sum(datum)),
    }


def cmd_delta(args) -> dict:
    datum = build_datum(args)
    _order, split = get_order(args, datum)
    value = rootdata.delta_r(datum, split, args.p, args.r)
    return {"delta_r": list(value), "p": args.p, "r": args.r}


def cmd_dims(args) -> dict:
    """Both counts equal q**n_even * 2**n_odd, with q = p**r, which is at
    least 2**(n_even*(bitlen(q)-1) + n_odd).  When that bound already
    passes the int-to-str limit the request is refused before either
    count is computed; p and r are checked first."""
    datum = build_datum(args)
    q = rootdata.frobenius_modulus(args.p, args.r)
    digits = sys.get_int_max_str_digits()
    bits = datum.n_even * (q.bit_length() - 1) + datum.n_odd
    if digits and bits >= (10**digits).bit_length():
        raise _too_long()
    return {
        "dim_O_Gr": rootdata.dim_O_Gr(datum, args.p, args.r),
        "pbw_count": rootdata.pbw_monomial_count(datum, args.p, args.r),
        "n_even": datum.n_even,
        "n_odd": datum.n_odd,
    }


def base_setup(args):
    """Datum, order, Lie model and base, built in that order so the first
    bad input is the one reported.  The even base is the simple roots of
    the order's split; the odd base is ``--psi-odd`` (empty for
    ``--psi-odd=``), else the family's default."""
    from . import liesuper

    datum = build_datum(args)
    order, split = get_order(args, datum)
    L = liesuper.lie_algebra_for(datum)
    psi_odd = (
        default_psi_odd(datum) if args.psi_odd is None else parse_weights(args.psi_odd)
    )
    return datum, L, order, split.simple_even, psi_odd


def cmd_admissible(args) -> dict:
    from . import liesuper

    datum, L, order, psi_even, psi_odd = base_setup(args)
    report = liesuper.check_admissible_base(
        L, datum, order, psi_even, psi_odd, mode=args.mode
    )
    return {
        "ok": report.ok,
        "mode": report.mode,
        "conditions": {name: ok for name, ok in report.conditions},
        "failures": list(report.failures),
        "psi_even": [list(w) for w in psi_even],
        "psi_odd": [list(w) for w in sorted(set(psi_odd))],
    }


def cmd_restricted(args) -> dict:
    from . import steinberg

    report = steinberg.is_restricted(
        *base_setup(args), parse_weight(args.weight), args.p, args.r
    )
    return {
        "verdict": report.verdict,
        "weakened": report.weakened,
        "per_root": [
            {
                "root": list(c.root),
                "class": c.kind,
                "pairing": c.pairing,
                "kform_value": c.kform_value,
                "bound": c.bound,
                "ok": c.ok,
            }
            for c in report.per_root
        ],
    }


def cmd_decompose(args) -> dict:
    from . import steinberg

    digits = steinberg.steinberg_decompose(
        *base_setup(args), parse_weight(args.weight), args.p, radius=args.radius
    )
    return {"digits": [list(d) for d in digits], "p": args.p}


def cmd_flatcheck(args) -> dict:
    from . import steinberg

    datum = build_datum(args)
    weight = parse_weight(args.weight)
    flat = steinberg.is_flat(datum, args.p, weight)
    return {"flat": flat, "weight": list(weight), "p": args.p}


def cmd_char(args) -> dict:
    from . import steinberg

    if args.op in ("add", "mul"):
        if not args.a or not args.b:
            raise rootdata.ParameterError("char %s needs --a and --b" % args.op)
        a, b = load_chars([args.a, args.b])
        fn = steinberg.char_add if args.op == "add" else steinberg.char_mul
        return steinberg.char_to_json(fn(a, b))
    if args.op == "twist":
        if not args.a or args.p is None:
            raise rootdata.ParameterError("char twist needs --a and --p")
        return steinberg.char_to_json(
            steinberg.frobenius_twist(*load_chars([args.a]), args.p, args.r or 0)
        )
    # "steinberg", the one op left that argparse's choices admit.
    if not args.inputs or args.p is None:
        raise rootdata.ParameterError("char steinberg needs --inputs and --p")
    chars = load_chars(args.inputs)
    return steinberg.char_to_json(steinberg.steinberg_character(chars, args.p))


def cmd_verify_commutator(args) -> dict:
    from . import hyperalg

    report = hyperalg.verify_commutator_formula(
        args.max_m, args.max_n, args.degree, args.p
    )
    return {
        "ok": report.ok,
        "checked": report.checked,
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "detail": report.detail,
    }


# ---------------------------------------------------------------------------
# Argument wiring.


def _add_family_flags(sub, order: bool = False) -> None:
    """The family flags, and ``--order`` for the verbs that read it."""
    sub.add_argument("--family", required=True, choices=["gl", "q", "p", "file"])
    sub.add_argument("--m", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--file")
    if order:
        sub.add_argument(
            "--order", help="comma-separated rationals for the order functional"
        )


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superroot",
        description="Exact computations with super root data.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("describe", help="print a datum with derived counts")
    _add_family_flags(sub)
    sub.set_defaults(fn=cmd_describe)

    sub = subs.add_parser("unimodular", help="char-0 or Frobenius-kernel verdict")
    _add_family_flags(sub)
    sub.add_argument("--p", type=int)
    sub.add_argument("--r", type=int)
    sub.set_defaults(fn=cmd_unimodular)

    sub = subs.add_parser("frobenius", help="are all Frobenius kernels unimodular")
    _add_family_flags(sub)
    sub.set_defaults(fn=cmd_frobenius)

    sub = subs.add_parser("delta", help="torus weight of the ind/coind twist")
    _add_family_flags(sub, order=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.set_defaults(fn=cmd_delta)

    sub = subs.add_parser("dims", help="coordinate-algebra dimension and PBW count")
    _add_family_flags(sub)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.set_defaults(fn=cmd_dims)

    sub = subs.add_parser("admissible", help="check an admissible base")
    _add_family_flags(sub, order=True)
    sub.add_argument("--psi-odd", dest="psi_odd", help="odd base roots, ';'-separated")
    sub.add_argument("--mode", choices=["assisted", "strict"], default="assisted")
    sub.set_defaults(fn=cmd_admissible)

    sub = subs.add_parser("restricted", help="p^r-restriction report for a weight")
    _add_family_flags(sub, order=True)
    sub.add_argument("--psi-odd", dest="psi_odd")
    sub.add_argument("--weight", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--r", type=int, required=True)
    sub.set_defaults(fn=cmd_restricted)

    sub = subs.add_parser("decompose", help="base-p digit decomposition of a weight")
    _add_family_flags(sub, order=True)
    sub.add_argument("--psi-odd", dest="psi_odd")
    sub.add_argument("--weight", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--radius", type=int)
    sub.set_defaults(fn=cmd_decompose)

    sub = subs.add_parser("flatcheck", help="flat-weight membership for gl/q")
    _add_family_flags(sub)
    sub.add_argument("--weight", required=True)
    sub.add_argument("--p", type=int, required=True)
    sub.set_defaults(fn=cmd_flatcheck)

    sub = subs.add_parser("char", help="character ring operations")
    sub.add_argument("--op", required=True, choices=["add", "mul", "twist", "steinberg"])
    sub.add_argument("--a", help="character JSON (inline or @file)")
    sub.add_argument("--b")
    sub.add_argument("--inputs", nargs="*")
    sub.add_argument("--p", type=int)
    sub.add_argument("--r", type=int)
    sub.set_defaults(fn=cmd_char)

    sub = subs.add_parser(
        "verify-commutator", help="operator sweep of the reordering identity"
    )
    sub.add_argument("--max-m", dest="max_m", type=int, default=4)
    sub.add_argument("--max-n", dest="max_n", type=int, default=4)
    sub.add_argument("--degree", type=int, default=12)
    sub.add_argument("--p", type=int, default=0)
    sub.set_defaults(fn=cmd_verify_commutator)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    for dest, value in vars(args).items():
        # argparse drops a lone "--" value ("--weight=--") and stores [].
        if isinstance(value, list) and dest != "inputs":
            parser.error("argument --%s: expected one argument" % dest.replace("_", "-"))
    try:
        payload, code = _jsonable(args.fn(args)), 0
    except (lattice.SuperrootError, OSError, json.JSONDecodeError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        code = 1
    emit(payload, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
