import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

from superroot import liesuper, rootdata, steinberg
from superroot.cli import main
from superroot.rootdata import build_gl, build_q, datum_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


def test_unimodular_p2_frobenius(capsys):
    code, payload = run_json(
        capsys, "unimodular", "--family", "p", "--n", "2", "--p", "3", "--r", "1"
    )
    assert code == 0
    assert payload["verdict"] is False
    assert payload["odd_root_sum"] == [2, 2]


def test_unimodular_char0(capsys):
    code, payload = run_json(capsys, "unimodular", "--family", "gl", "--m", "3", "--n", "2")
    assert code == 0 and payload["verdict"] is True


def test_dims_q2(capsys):
    code, payload = run_json(
        capsys, "dims", "--family", "q", "--n", "2", "--p", "3", "--r", "1"
    )
    assert code == 0
    assert payload["dim_O_Gr"] == 1296
    assert payload["pbw_count"] == 1296


def test_decompose_gl11(capsys):
    code, payload = run_json(
        capsys,
        "decompose", "--family", "gl", "--m", "1", "--n", "1",
        "--p", "3", "--weight", "4,-2",
    )
    assert code == 0
    assert payload["digits"] == [[1, 1], [1, -1]]


@pytest.mark.parametrize("radius, env, message", [
    ("-1", None, "radius must be >= 0, got -1"),
    (None, "-2", None),
    (None, "abc", None),
    (None, "0", None),
], ids=["flag-negative", "env-negative", "env-not-an-integer", "env-zero"])
def test_decompose_bad_radius_is_a_parameter_error(capsys, monkeypatch, radius, env, message):
    # Only --radius sets the radius; SUPERROOT_SEARCH_RADIUS (message None),
    # well-formed or not, is ignored and the default radius 2 answers.
    if env is None:
        monkeypatch.delenv("SUPERROOT_SEARCH_RADIUS", raising=False)
    else:
        monkeypatch.setenv("SUPERROOT_SEARCH_RADIUS", env)
    argv = ["decompose", "--family", "gl", "--m", "1", "--n", "1", "--p", "3", "--weight", "4,-2"]
    if radius is not None:
        argv += ["--radius", radius]
    code, payload = run_json(capsys, *argv)
    if message is None:
        assert code == 0
        assert payload == {"digits": [[1, 1], [1, -1]], "p": 3}
        return
    assert code == 1
    assert payload == {"error": {"type": "ParameterError", "message": message}}


def test_admissible_defaults(capsys):
    code, payload = run_json(capsys, "admissible", "--family", "q", "--n", "3")
    assert code == 0 and payload["ok"] is True
    code, payload = run_json(capsys, "admissible", "--family", "p", "--n", "2")
    assert code == 0 and payload["ok"] is True
    code, payload = run_json(
        capsys,
        "admissible", "--family", "p", "--n", "2",
        "--order=-1,-2", "--psi-odd=-1,-1",
    )
    assert code == 0 and payload["ok"] is False


def test_empty_psi_odd_is_the_empty_base(capsys):
    # An explicit empty --psi-odd= is given, not replaced by the default
    # base [[0,2]] of p(2): it checks the same empty base as ";".
    argv = ["admissible", "--family", "p", "--n", "2"]
    code, payload = run_json(capsys, *argv, "--psi-odd=")
    assert code == 0 and payload["psi_odd"] == [] and payload["ok"] is False
    assert payload["conditions"]["generation"] is False
    assert run_json(capsys, *argv, "--psi-odd=;") == (0, payload)


def test_restricted_verb(capsys):
    code, payload = run_json(
        capsys,
        "restricted", "--family", "q", "--n", "2",
        "--weight", "1,-2", "--p", "3", "--r", "2",
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["per_root"][0]["kform_value"] == -2


def test_flatcheck(capsys):
    code, payload = run_json(
        capsys, "flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight", "1,1"
    )
    assert code == 0 and payload["flat"] is False


def test_delta_verb(capsys):
    code, payload = run_json(
        capsys, "delta", "--family", "q", "--n", "2", "--p", "3", "--r", "1"
    )
    assert code == 0 and payload["delta_r"] == [-3, 3]


def test_frobenius_verb(capsys):
    code, payload = run_json(capsys, "frobenius", "--family", "p", "--n", "3")
    assert code == 0
    assert payload["all_unimodular"] is False
    assert payload["odd_root_sum"] == [2, 2, 2]


def test_char_verbs(capsys):
    a = '{"terms":[{"weight":[1,-2],"mult":1}]}'
    b = '{"terms":[{"weight":[1,-1],"mult":1}]}'
    code, payload = run_json(
        capsys, "char", "--op", "steinberg", "--inputs", a, b, "--p", "3"
    )
    assert code == 0
    assert payload == {"terms": [{"mult": 1, "weight": [4, -5]}]}
    code, payload = run_json(capsys, "char", "--op", "mul", "--a", a, "--b", b)
    assert code == 0
    assert payload == {"terms": [{"mult": 1, "weight": [2, -3]}]}


ZERO = '{"terms":[]}'


def test_char_reads_back_its_own_zero(capsys):
    x = '{"terms":[{"weight":[0,-1],"mult":-1},{"weight":[1,2],"mult":3}]}'
    minus = '{"terms":[{"weight":[0,-1],"mult":1},{"weight":[1,2],"mult":-3}]}'
    code, zero = run(capsys, "--json", "char", "--op", "add", "--a", x, "--b", minus)
    assert (code, zero) == (0, ZERO + "\n")
    for op, a, b, want in [
        ("add", x, ZERO, x), ("add", ZERO, x, x), ("mul", x, ZERO, ZERO),
        ("mul", ZERO, x, ZERO), ("add", ZERO, ZERO, ZERO), ("mul", ZERO, ZERO, ZERO),
    ]:
        code, payload = run_json(capsys, "char", "--op", op, "--a", a, "--b", b)
        assert code == 0 and payload == json.loads(want), (op, a, b)
    code, payload = run_json(capsys, "char", "--op", "twist", "--a", ZERO, "--p", "3", "--r", "2")
    assert code == 0 and payload == {"terms": []}
    for inputs in ([x, ZERO], [ZERO, x], [ZERO], [x, x, ZERO, x]):
        code, payload = run_json(capsys, "char", "--op", "steinberg", "--inputs", *inputs, "--p", "5")
        assert code == 0 and payload == {"terms": []}, inputs


@pytest.mark.parametrize("argv, error, message", [
    (["--op", "add", "--a", "{}", "--b", "{"],
     "ParameterError", "character JSON must be an object with 'terms'"),
    (["--op", "add", "--a", ZERO, "--b", '{"terms":[{"weight":[1],"mult":1.5}]}'],
     "ParameterError", "terms[0]: expected {weight: [int], mult: int}"),
    (["--op", "twist", "--a", ZERO, "--p", "4"], "ParameterError", "p must be an odd prime, got 4"),
    (["--op", "steinberg", "--inputs", ZERO, ZERO, "--p", "9"],
     "ParameterError", "p must be an odd prime, got 9"),
    (["--op", "mul", "--a", '{"terms":[{"weight":[1],"mult":1}]}',
      "--b", '{"terms":[{"weight":[1,2],"mult":1}]}'],
     "DimensionMismatch", "characters of rank 1 and 2"),
], ids=["a-before-b", "bad-b-after-empty-a", "twist-bad-p", "steinberg-bad-p", "rank-mismatch"])
def test_char_errors_keep_their_order(capsys, argv, error, message):
    code, payload = run_json(capsys, "char", *argv)
    assert code == 1
    assert payload == {"error": {"type": error, "message": message}}


def test_verify_commutator_verb(capsys):
    code, payload = run_json(
        capsys, "verify-commutator", "--max-m", "2", "--max-n", "2", "--degree", "6"
    )
    assert code == 0 and payload["ok"] is True


def test_describe_round_trip(capsys, tmp_path):
    code, payload = run_json(capsys, "describe", "--family", "q", "--n", "2")
    assert code == 0
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(payload))
    code, reload = run_json(capsys, "describe", "--family", "file", "--file", str(path))
    assert code == 0
    assert reload == payload


def test_json_key_order_stability(capsys, tmp_path):
    data = datum_to_json(build_q(2))
    ordered = json.dumps(data, sort_keys=True)
    shuffled = json.dumps(dict(reversed(list(data.items()))))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(ordered)
    p2.write_text(shuffled)
    _, out1 = run(capsys, "--json", "describe", "--family", "file", "--file", str(p1))
    _, out2 = run(capsys, "--json", "describe", "--family", "file", "--file", str(p2))
    assert out1 == out2


def test_domain_error_exit_code(capsys):
    code, payload = run_json(
        capsys, "unimodular", "--family", "p", "--n", "2", "--p", "4", "--r", "1"
    )
    assert code == 1
    assert payload["error"]["type"] == "ParameterError"


def test_invalid_order_error(capsys):
    code, payload = run_json(
        capsys, "delta", "--family", "gl", "--m", "1", "--n", "1",
        "--p", "3", "--r", "1", "--order", "1,1",
    )
    assert code == 1
    assert payload["error"]["type"] == "InvalidOrderError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["unimodular"])  # missing --family
    assert err.value.code == 2


def test_big_integers_become_strings(capsys):
    code, payload = run_json(
        capsys, "dims", "--family", "gl", "--m", "3", "--n", "3", "--p", "5", "--r", "2"
    )
    assert code == 0
    assert isinstance(payload["dim_O_Gr"], str)
    assert int(payload["dim_O_Gr"]) == 5 ** (2 * 18) * 2**18


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "--json", "describe", "--family", "p", "--n", "3")
    _, out2 = run(capsys, "--json", "describe", "--family", "p", "--n", "3")
    assert out1 == out2


def test_table_output(capsys):
    code, out = run(capsys, "flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight", "1,-2")
    assert code == 0
    assert "flat" in out and "true" in out


def _datum_file(tmp_path, datum, **changes):
    data = dict(datum_to_json(datum), **changes)
    if data.get("lie_handle") is None:
        data.pop("lie_handle", None)
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(data))
    return str(path)


EMPTY_RANK_2 = {
    "rank": 2, "even_roots": [], "odd_roots": [], "h_odd_dim": 0, "lie_handle": None
}
UNSUPPORTED = "UnsupportedFamilyError"


@pytest.mark.parametrize(
    "datum, changes, verb, error",
    [
        # A label alone never names a family.
        (build_q(2), {"label": "q(x)", "lie_handle": None}, "flatcheck", UNSUPPORTED),
        (build_gl(2, 1), {"label": "gl(2|a)", "lie_handle": None}, "flatcheck", UNSUPPORTED),
        (build_q(2), dict(EMPTY_RANK_2, label="q(2)"), "flatcheck", UNSUPPORTED),
        # A handle must name a family whose roots the datum has.
        (build_q(2), {"lie_handle": "q(x)"}, "admissible", "DatumValidationError"),
        (build_q(2), {"lie_handle": "q(x)"}, "decompose", "DatumValidationError"),
        (build_q(2), {"lie_handle": 5}, "admissible", "DatumValidationError"),
        (build_q(2), {"lie_handle": 5}, "decompose", "DatumValidationError"),
        (build_q(2), {"lie_handle": "p(3)"}, "admissible", "DatumValidationError"),
        (build_q(2), {"lie_handle": "p(3)"}, "flatcheck", "DatumValidationError"),
    ],
    ids=[
        "label-q(x)", "label-gl(2|a)", "empty-label-q(2)", "handle-q(x)-admissible",
        "handle-q(x)-decompose", "handle-5-admissible", "handle-5-decompose",
        "handle-p(3)-admissible", "handle-p(3)-flatcheck",
    ],
)
def test_file_datum_family_errors(capsys, tmp_path, datum, changes, verb, error):
    path = _datum_file(tmp_path, datum, **changes)
    extra = {
        "admissible": [],
        "decompose": ["--p", "3", "--weight", "1,0"],
        "flatcheck": ["--p", "3", "--weight", "1,0"],
    }[verb]
    code, payload = run_json(capsys, verb, "--family", "file", "--file", path, *extra)
    assert code == 1
    assert payload["error"]["type"] == error
    if error == "DatumValidationError":
        assert payload["error"]["message"].startswith("$.lie_handle: ")


def test_file_datum_defaults_follow_family_not_label(capsys, tmp_path):
    path = _datum_file(tmp_path, build_gl(1, 1), label="p(2)")
    code, payload = run_json(capsys, "admissible", "--family", "file", "--file", path)
    assert code == 0 and payload["ok"] is True
    assert payload["psi_odd"] == [[1, -1]]
    code, payload = run_json(
        capsys, "delta", "--family", "file", "--file", path, "--p", "3", "--r", "1"
    )
    assert code == 0 and payload["delta_r"] == [-1, 1]


CHAR_1 = '{"terms":[{"weight":[1,-1],"mult":1}]}'


def _json_file(tmp_path, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    return str(path)


def _datum_with(**changes):
    return dict(datum_to_json(build_q(2)), **changes)


NOT_ADMISSIBLE = (
    "(psi_even, psi_odd) is not an admissible base: "
    "generation: root (2, 0) is not a signed combination of the base"
)


def _line_char(n):
    """Character JSON with the n rank-1 terms e^0, ..., e^(n-1)."""
    return json.dumps({"terms": [{"weight": [w], "mult": 1} for w in range(n)]})


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (["delta", "--family", "gl", "--m", "2", "--n", "1", "--p", "3", "--r", "1",
          "--order", "1/0"], "ParameterError", "order value '1/0' is not a rational number"),
        (["admissible", "--family", "q", "--n", "2", "--order", "a,b"],
         "ParameterError", "order value 'a' is not a rational number"),
        (["admissible", "--family", "q", "--n", "2", "--order="],
         "ParameterError", "order value '' is not a rational number"),
        (["describe", "--family", "file", "--file", _datum_with(even_roots=7)],
         "DatumValidationError", "$.even_roots: expected a list"),
        (["describe", "--family", "file", "--file", _datum_with(odd_roots={})],
         "DatumValidationError", "$.odd_roots: expected a list"),
        (["describe", "--family", "file", "--file", _datum_with(rank=True)],
         "DatumValidationError", "$.rank: expected an integer"),
        (["describe", "--family", "file", "--file", _datum_with(h_odd_dim=False)],
         "DatumValidationError", "$.h_odd_dim: expected an integer"),
        (["describe", "--family", "file", "--file",
          _datum_with(odd_roots=[{"root": [1, -1], "mult": True}])],
         "DatumValidationError", "$.odd_roots[0].mult: expected an integer"),
        (["describe", "--family", "file", "--file",
          _datum_with(even_roots=[{"root": [True, -1], "coroot": [1, -1]}])],
         "DatumValidationError", "$.even_roots[0].root: expected a list of integers"),
        (["char", "--op", "add", "--a", '{"terms":7}', "--b", CHAR_1],
         "ParameterError", "terms: expected a list"),
        (["char", "--op", "add", "--a", '{"terms":[{"weight":[1.5],"mult":1}]}', "--b", CHAR_1],
         "ParameterError", "terms[0]: expected {weight: [int], mult: int}"),
        (["char", "--op", "add", "--a",
          '{"terms":[{"weight":["a"],"mult":1},{"weight":[1],"mult":1}]}', "--b", CHAR_1],
         "ParameterError", "terms[0]: expected {weight: [int], mult: int}"),
        (["char", "--op", "add", "--a", '{"terms":[{"weight":[1,-1],"mult":true}]}', "--b", CHAR_1],
         "ParameterError", "terms[0]: expected {weight: [int], mult: int}"),
        (["dims", "--family", "q", "--n", "2", "--p", "3", "--r", "3000"],
         "ParameterError", "result has more than 4300 decimal digits"),
        (["char", "--op", "twist", "--a", CHAR_1, "--p", "3", "--r", "10000"],
         "ParameterError", "result has more than 4300 decimal digits"),
        (["char", "--op", "twist", "--a", CHAR_1, "--p", "3", "--r", "100000"],
         "ParameterError", "3**100000 exceeds the 32768-bit limit on p**r"),
        (["dims", "--family", "gl", "--m", "1", "--n", "1", "--p", "3", "--r", "100000000"],
         "ParameterError", "3**100000000 exceeds the 32768-bit limit on p**r"),
        (["flatcheck", "--family", "q", "--n", "2", "--p", "9", "--weight", "1,0"],
         "ParameterError", "p must be 0 or an odd prime, got 9"),
        (["describe", "--family", "file", "--file",
          _datum_with(even_roots=[{"root": [1], "coroot": [1, -1]}])],
         "DatumValidationError", "$.even_roots[0]: wrong length"),
        (["describe", "--family", "file", "--file",
          _datum_with(even_roots=[{"root": [0, 0], "coroot": [1, -1]}])],
         "DatumValidationError", "$.even_roots[0].root: even root must be nonzero"),
        (["describe", "--family", "file", "--file",
          _datum_with(even_roots=[{"root": [1, -1], "coroot": [1, -1]}] * 2)],
         "DatumValidationError", "$.even_roots[1].root: duplicate even root (1, -1)"),
        (["describe", "--family", "file", "--file",
          _datum_with(odd_roots=[{"root": [1], "mult": 1}])],
         "DatumValidationError", "$.odd_roots[0].root: wrong length"),
        (["describe", "--family", "file", "--file",
          _datum_with(odd_roots=[{"root": [1, -1], "mult": 0}])],
         "DatumValidationError", "$.odd_roots[0].mult: must be >= 1"),
        (["describe", "--family", "file", "--file", _datum_with(odd_roots=[[1, -1]])],
         "DatumValidationError", "$.odd_roots[0]: expected {root, mult}"),
        (["describe", "--family", "file", "--file", _datum_with(even_roots=[[1, -1]])],
         "DatumValidationError", "$.even_roots[0]: expected {root, coroot}"),
        # Its counts are those of p(1), which build_p refuses.
        (["describe", "--family", "file", "--file",
          {"rank": 1, "label": "x", "even_roots": [], "odd_roots": [{"root": [2], "mult": 1}],
           "h_odd_dim": 0, "lie_handle": "p(1)"}],
         "DatumValidationError", "$.lie_handle: the roots are not those of p(1)"),
        (["delta", "--family", "q", "--n", "2", "--p", "3", "--r", "1", "--order=1,2,3"],
         "DimensionMismatch", "functional of rank 3 applied to (1, -1)"),
        (["char", "--op", "add", "--a", '{"terms":[]}'],
         "ParameterError", "char add needs --a and --b"),
        (["char", "--op", "twist", "--a", CHAR_1],
         "ParameterError", "char twist needs --a and --p"),
        (["char", "--op", "steinberg", "--p", "3"],
         "ParameterError", "char steinberg needs --inputs and --p"),
        (["restricted", "--family", "p", "--n", "2", "--order=-1,-2", "--psi-odd=-1,-1",
          "--weight", "1,0", "--p", "3", "--r", "1"],
         "ParameterError", NOT_ADMISSIBLE),
        (["decompose", "--family", "p", "--n", "2", "--order=-1,-2", "--psi-odd=-1,-1",
          "--weight", "1,0", "--p", "3"],
         "ParameterError", NOT_ADMISSIBLE),
        (["flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight=1_0,2"],
         "ParameterError", "cannot parse weight '1_0,2'"),
        (["flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight= 1,2"],
         "ParameterError", "cannot parse weight ' 1,2'"),
        (["flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight=1,2 "],
         "ParameterError", "cannot parse weight '1,2 '"),
        (["flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight=\u0661,2"],
         "ParameterError", "cannot parse weight '\u0661,2'"),
        (["admissible", "--family", "q", "--n", "2", "--psi-odd=1_0,-1"],
         "ParameterError", "cannot parse weight '1_0,-1'"),
        (["delta", "--family", "q", "--n", "2", "--p", "3", "--r", "1", "--order=\u0663,1_0"],
         "ParameterError", "order value '\u0663' is not a rational number"),
        (["delta", "--family", "q", "--n", "2", "--p", "3", "--r", "1", "--order= 1e3,2.5 "],
         "ParameterError", "order value ' 1e3' is not a rational number"),
        (["unimodular", "--family", "q", "--n", "2", "--p", "3"],
         "ParameterError", "give both --p and --r or neither"),
        (["unimodular", "--family", "q", "--n", "2", "--r", "1"],
         "ParameterError", "give both --p and --r or neither"),
    ],
    ids=[
        "order-zero-division", "order-not-rational", "order-empty", "even-roots-not-list",
        "odd-roots-not-list", "rank-bool", "h-odd-dim-bool", "mult-bool", "root-entry-bool",
        "terms-not-list", "weight-float", "weight-string", "char-mult-bool",
        "dims-beyond-str-limit", "twist-beyond-str-limit", "twist-huge-r",
        "dims-huge-r", "flatcheck-odd-composite-p", "even-root-wrong-length",
        "even-root-zero", "even-root-duplicate", "odd-root-wrong-length", "odd-mult-zero",
        "odd-root-not-object", "even-root-not-object", "handle-p(1)", "order-wrong-rank",
        "char-add-without-b", "char-twist-without-p", "char-steinberg-without-inputs",
        "restricted-not-admissible", "decompose-not-admissible",
        "weight-underscore", "weight-leading-space", "weight-trailing-space",
        "weight-arabic-indic-digit", "psi-odd-underscore", "order-arabic-indic-digit",
        "order-exponent", "unimodular-p-without-r", "unimodular-r-without-p",
    ],
)
def test_malformed_request_is_a_structured_error(capsys, tmp_path, argv, error, message):
    argv = [_json_file(tmp_path, tok) if isinstance(tok, dict) else tok for tok in argv]
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload == {"error": {"type": error, "message": message}}


@pytest.mark.parametrize(
    "argv, error, message",
    [
        (["dims", "--family", "file", "--p", "3", "--r", "1", "--file",
          {"rank": 3000000, "label": "x", "even_roots": [], "odd_roots": [], "h_odd_dim": 0}],
         "DatumValidationError", "$.rank: must be at most 64"),
        (["dims", "--family", "file", "--p", "3", "--r", "1", "--file",
          _datum_with(h_odd_dim=10**6)],
         "DatumValidationError", "$.h_odd_dim: must be at most 64"),
        (["dims", "--family", "file", "--p", "3", "--r", "1", "--file",
          _datum_with(odd_roots=[{"root": [1, -1], "mult": 1}, {"root": [-1, 1], "mult": 65}])],
         "DatumValidationError", "$.odd_roots[1].mult: must be at most 64"),
        (["dims", "--family", "file", "--p", "3", "--r", "1", "--file",
          _datum_with(lie_handle="q(65)")],
         "DatumValidationError", "$.lie_handle: q(65) has rank 65, above the limit of 64"),
        (["describe", "--family", "q", "--n", "100000"],
         "ParameterError", "q(100000) has rank 100000, above the limit of 64"),
        (["describe", "--family", "gl", "--m", "40", "--n", "25"],
         "ParameterError", "gl(40|25) has rank 65, above the limit of 64"),
        (["verify-commutator", "--max-m", "100", "--max-n", "100", "--degree", "1000"],
         "ParameterError", "the sweep would make 5115811701 comparisons, above the limit of 250000"),
        (["verify-commutator", "--max-m", "0", "--max-n", "0", "--degree", "706"],
         "ParameterError", "the sweep would make 250278 comparisons, above the limit of 250000"),
        (["unimodular", "--family", "q", "--n", "2", "--p", "3317044064679887385961981", "--r", "1"],
         "ParameterError",
         "p must be below 3317044064679887385961981 for the primality test, "
         "got 3317044064679887385961981"),
        (["char", "--op", "mul", "--a", _line_char(501), "--b", _line_char(501)],
         "ParameterError", "the product would form 251001 pairs of terms, above the limit of 250000"),
        (["char", "--op", "steinberg", "--p", "3", "--inputs", _line_char(2000), _line_char(2000)],
         "ParameterError", "the product would form 4000000 pairs of terms, above the limit of 250000"),
    ],
    ids=[
        "file-rank", "file-h-odd-dim", "file-mult", "file-handle", "family-n", "family-m-n",
        "sweep", "sweep-one-row", "prime-beyond-test", "char-mul", "char-steinberg",
    ],
)
def test_oversized_request_is_refused_at_once(capsys, tmp_path, argv, error, message):
    argv = [_json_file(tmp_path, tok) if isinstance(tok, dict) else tok for tok in argv]
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload == {"error": {"type": error, "message": message}}


def test_deeply_nested_json_is_a_structured_error(capsys, tmp_path):
    # 100,000 nested lists, from a datum file, an inline character and a
    # character file.
    text = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(text)
    for argv in (
        ["describe", "--family", "file", "--file", str(path)],
        ["char", "--op", "add", "--a", text, "--b", CHAR_1],
        ["char", "--op", "add", "--a", "@" + str(path), "--b", CHAR_1],
    ):
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {
            "error": {"type": "ParameterError", "message": "the JSON text is nested too deeply"}
        }


# An order under which a root's value is about a thousand times a base
# element's, on a dependent base, and a weight of 1,048 base-3 digits.
@pytest.mark.parametrize(
    "argv, check",
    [
        (["admissible", "--family", "gl", "--m", "2", "--n", "1", "--order=3,-2,-4997",
          "--psi-odd=1,0,-1;0,1,-1"],
         lambda payload: payload["conditions"]["generation"] is True),
        (["decompose", "--family", "gl", "--m", "1", "--n", "1", "--weight=%d,0" % 10**500,
          "--p", "3"],
         lambda payload: len(payload["digits"]) == 1048 and [
             sum(int(d[i]) * 3**k for k, d in enumerate(payload["digits"])) for i in (0, 1)
         ] == [10**500, 0]),
    ],
    ids=["cone-search-depth", "digit-search-depth"],
)
def test_requests_deep_for_a_recursive_search_are_answered(capsys, argv, check):
    code, payload = run_json(capsys, *argv)
    assert code == 0 and check(payload)


# `admissible` on gl(7|7) with the default odd base plus e1 - e14, a
# dependent base; the report is the one the earlier recursive cone walk
# gave after about a minute.
GL77_PSI_ODD = "0,0,0,0,0,0,1,-1,0,0,0,0,0,0;1,0,0,0,0,0,0,0,0,0,0,0,0,-1"
GL77_REPORT = (
    '{"conditions":{"generation":true,"multiplicity-one":true,"separation":false},'
    '"failures":["separation: (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1) - '
    '(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1) is a root","separation: '
    '(1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1) - (1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, '
    '0, 0, 0) is a root"],"mode":"assisted","ok":false,"psi_even":[[0,0,0,0,0,0,0,0,0,'
    '0,0,0,1,-1],[0,0,0,0,0,0,0,0,0,0,0,1,-1,0],[0,0,0,0,0,0,0,0,0,0,1,-1,0,0],[0,0,0,'
    '0,0,0,0,0,0,1,-1,0,0,0],[0,0,0,0,0,0,0,0,1,-1,0,0,0,0],[0,0,0,0,0,0,0,1,-1,0,0,0,'
    '0,0],[0,0,0,0,0,1,-1,0,0,0,0,0,0,0],[0,0,0,0,1,-1,0,0,0,0,0,0,0,0],[0,0,0,1,-1,0,'
    '0,0,0,0,0,0,0,0],[0,0,1,-1,0,0,0,0,0,0,0,0,0,0],[0,1,-1,0,0,0,0,0,0,0,0,0,0,0],[1,'
    '-1,0,0,0,0,0,0,0,0,0,0,0,0]],"psi_odd":[[0,0,0,0,0,0,1,-1,0,0,0,0,0,0],[1,0,0,0,0,'
    '0,0,0,0,0,0,0,0,-1]]}'
)


def test_gl77_with_its_highest_root_answers_at_once(capsys):
    start = time.perf_counter()
    code, out = run(
        capsys, "--json", "admissible", "--family", "gl", "--m", "7", "--n", "7",
        "--psi-odd=" + GL77_PSI_ODD,
    )
    assert time.perf_counter() - start < 2
    assert code == 0 and out == GL77_REPORT + "\n"


def test_requests_at_the_size_limits_are_answered(capsys):
    code, payload = run_json(capsys, "describe", "--family", "gl", "--m", "32", "--n", "32")
    assert code == 0 and payload["rank"] == 64
    code, payload = run_json(
        capsys, "verify-commutator", "--max-m", "5", "--max-n", "5", "--degree", "60"
    )
    assert code == 0 and payload["checked"] == 68076
    code, payload = run_json(
        capsys, "unimodular", "--family", "q", "--n", "2", "--p", "1000000000000000003", "--r", "1"
    )
    assert code == 0 and payload["modulus"] == "1000000000000000003"
    code, payload = run_json(
        capsys, "char", "--op", "mul", "--a", _line_char(500), "--b", _line_char(500)
    )
    assert code == 0 and len(payload["terms"]) == 999


def test_large_results_within_the_limit_are_decimal_strings(capsys):
    # 3^(3600 * 2) * 2^2 has 3,436 digits: under the limit, so answered.
    code, payload = run_json(
        capsys, "dims", "--family", "gl", "--m", "1", "--n", "1", "--p", "3", "--r", "3600"
    )
    assert code == 0
    assert int(payload["dim_O_Gr"]) == 3 ** 7200 * 4 == int(payload["pbw_count"])


def test_dims_refuses_an_unprintable_result_before_computing_it(capsys, monkeypatch):
    # 3^(4000 * 4160) has about 7.9 million digits; neither count is formed.
    def refuse(*args):
        raise AssertionError("count computed")

    monkeypatch.setattr(rootdata, "dim_O_Gr", refuse)
    monkeypatch.setattr(rootdata, "pbw_monomial_count", refuse)
    code, payload = run_json(
        capsys, "dims", "--family", "q", "--n", "64", "--p", "3", "--r", "4000"
    )
    assert code == 1
    assert payload == {
        "error": {"type": "ParameterError", "message": "result has more than 4300 decimal digits"}
    }
    code, payload = run_json(
        capsys, "dims", "--family", "q", "--n", "64", "--p", "9", "--r", "4000"
    )
    assert payload["error"]["message"] == "p must be an odd prime, got 9"


def test_dims_answers_just_under_the_limit(capsys):
    # 3^9010 * 4 has 4,300 digits, and its lower bound 2^14282 is just
    # under the refusal's 14,285 bits; one step of r further is refused.
    code, payload = run_json(
        capsys, "dims", "--family", "gl", "--m", "1", "--n", "1", "--p", "3", "--r", "4505"
    )
    assert code == 0
    assert len(payload["dim_O_Gr"]) == 4300
    assert int(payload["dim_O_Gr"]) == 3 ** 9010 * 4 == int(payload["pbw_count"])
    code, payload = run_json(
        capsys, "dims", "--family", "gl", "--m", "1", "--n", "1", "--p", "3", "--r", "4506"
    )
    assert code == 1
    assert payload["error"]["message"] == "result has more than 4300 decimal digits"


def test_table_mode_reports_an_oversized_result(capsys):
    code, out = run(capsys, "dims", "--family", "q", "--n", "2", "--p", "3", "--r", "3000")
    assert code == 1
    assert out.splitlines() == [
        'error  {"message": "result has more than 4300 decimal digits", "type": "ParameterError"}'
    ]


def test_unreadable_json_is_a_structured_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rank": 2, "label": "\xff"}')
    code, payload = run_json(capsys, "describe", "--family", "file", "--file", str(path))
    assert code == 1
    assert payload["error"]["type"] == "ParameterError"
    assert payload["error"]["message"].startswith(str(path) + ": 'utf-8' codec can't decode")
    huge = '{"terms":[{"weight":[%s],"mult":1}]}' % ("1" * 5000)
    (tmp_path / "huge.json").write_text(huge)
    for text in (huge, "@" + str(tmp_path / "huge.json")):
        code, payload = run_json(capsys, "char", "--op", "add", "--a", text, "--b", CHAR_1)
        assert code == 1
        assert payload == {"error": {
            "type": "ParameterError",
            "message": "a number in the JSON text has more than 4300 digits",
        }}


@pytest.mark.parametrize(
    "argv, read",
    [
        (["describe", "--family", "file", "--file", "{tmp}/missing.json"],
         lambda tmp: open(tmp + "/missing.json", encoding="utf-8")),
        (["describe", "--family", "file", "--file", "{tmp}"],
         lambda tmp: open(tmp, encoding="utf-8")),
        (["char", "--op", "add", "--a", "@{tmp}/missing.json", "--b", CHAR_1],
         lambda tmp: open(tmp + "/missing.json", encoding="utf-8")),
        (["char", "--op", "add", "--a", '{"terms":', "--b", CHAR_1],
         lambda tmp: json.loads('{"terms":')),
    ],
    ids=["file-missing", "file-is-a-directory", "at-file-missing", "inline-malformed"],
)
def test_unreadable_file_or_malformed_json_is_a_parameter_error(capsys, tmp_path, argv, read):
    # The message is the text of the OSError or json.JSONDecodeError
    # that reading the input raises.
    tmp = str(tmp_path)
    with pytest.raises((OSError, ValueError)) as err:
        read(tmp)
    code, payload = run_json(capsys, *[tok.replace("{tmp}", tmp) for tok in argv])
    assert code == 1
    assert payload == {"error": {"type": "ParameterError", "message": str(err.value)}}


def test_an_error_raised_while_computing_propagates(capsys, monkeypatch):
    # Only a SuperrootError becomes a structured error; an OSError raised
    # by the computation itself, such as a timer's TimeoutError, is not one.
    def cut(*args, **kwargs):
        raise TimeoutError("cut")

    monkeypatch.setattr(liesuper, "check_admissible_base", cut)
    with pytest.raises(TimeoutError, match="^cut$"):
        main(["--json", "admissible", "--family", "gl", "--m", "3", "--n", "3"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--family", "q", "--n=1", "--weight=--", "--p=3"],
        ["dims", "--family", "q", "--n", "2", "--p=--", "--r", "1"],
        ["delta", "--family", "q", "--n", "2", "--p", "3", "--r", "1", "--order=--"],
    ],
    ids=["weight", "p", "order"],
)
def test_lone_double_dash_value_is_a_usage_error(capsys, argv):
    # argparse stores [] for "--opt=--"; that is a usage error, not a traceback.
    with pytest.raises(SystemExit) as exc:
        main(["--json"] + argv)
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, value",
    [
        (["describe", "--family", "q", "--n", " 2"], " 2"),
        (["describe", "--family", "q", "--n", "0_2"], "0_2"),
        (["describe", "--family", "q", "--n", "2 "], "2 "),
        (["dims", "--family", "q", "--n", "2", "--p", "\u0663", "--r", "1"], "\u0663"),
        (["dims", "--family", "q", "--n", "2", "--p", "3", "--r", "+-1"], "+-1"),
        (["decompose", "--family", "q", "--n", "2", "--p", "3", "--weight", "1,0",
          "--radius", "1_0"], "1_0"),
        (["verify-commutator", "--degree", "\uff11"], "\uff11"),
        (["char", "--op", "twist", "--a", '{"terms":[]}', "--p", "3", "--r", "1.0"], "1.0"),
        (["verify-commutator", "--degree", "1" * 5000], "1" * 5000),
    ],
    ids=["leading-space", "underscore", "trailing-space", "arabic-indic-digit", "two-signs",
         "radius-underscore", "fullwidth-digit", "decimal-point", "beyond-str-limit"],
)
def test_integer_flags_take_only_sign_and_ascii_digits(capsys, argv, value):
    # JSON writes an integer as an optional sign and ASCII digits; int()
    # alone would also read spaces, underscores and other scripts' digits.
    with pytest.raises(SystemExit) as exc:
        main(["--json"] + argv)
    assert exc.value.code == 2
    flag = argv[argv.index(value) - 1]
    assert "argument %s: invalid int value: %r" % (flag, value) in capsys.readouterr().err


def test_signed_ascii_integers_are_read(capsys):
    argv = ["decompose", "--family", "gl", "--m", "+1", "--n", "1", "--p", "+3",
            "--weight=+4,-2", "--psi-odd=+1,-1"]
    assert run_json(capsys, *argv) == (0, {"digits": [[1, 1], [1, -1]], "p": 3})


@pytest.mark.parametrize(
    "argv",
    [
        ["describe", "--family", "gl", "--m", "1", "--n", "1"],
        ["unimodular", "--family", "p", "--n", "2", "--p", "3", "--r", "1"],
        ["frobenius", "--family", "p", "--n", "3"],
        ["dims", "--family", "q", "--n", "2", "--p", "3", "--r", "1"],
        ["flatcheck", "--family", "q", "--n", "2", "--p", "3", "--weight", "1,1"],
    ],
    ids=lambda argv: argv[0],
)
def test_order_is_a_usage_error_where_it_is_not_read(capsys, argv):
    assert main(["--json"] + argv) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--json"] + argv + ["--order", "1/0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --order" in capsys.readouterr().err


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_cli_examples():
    """Each ``superroot ...`` command of README's sh block, continuations
    joined, with the comment line that follows it (or None)."""
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"```sh\n(superroot .*?)```", fh.read(), re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [
        (line, nxt[2:] if nxt.startswith("# ") else None)
        for line, nxt in zip(lines, lines[1:] + [""])
        if line.startswith("superroot ")
    ]


def test_readme_cli_examples_run(capsys):
    # A comment under an example is its output, each "..." standing for
    # any text.
    examples = readme_cli_examples()
    assert len(examples) == 10
    checked = 0
    for line, comment in examples:
        assert main(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment is not None:
            pattern = ".*".join(re.escape(part) for part in comment.split("..."))
            assert re.fullmatch(pattern + "\n", out), line
            checked += 1
    assert checked == 4


def test_readme_library_quick_start_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        block = re.search(r"## Library quick start\n\n```python\n(.*?)```", fh.read(), re.S)[1]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "False\n[(1, -2)]\n"


@pytest.mark.parametrize(
    "argv, splits, evals",
    [
        (["admissible", "--family", "p", "--n", "3"], 2, 30),
        (["restricted", "--family", "p", "--n", "3", "--p", "3", "--r", "1", "--weight=2,1,0"],
         3, 45),
        (["decompose", "--family", "p", "--n", "3", "--p", "3", "--weight=2,1,0"], 4, 60),
        (["decompose", "--family", "q", "--n", "8", "--p", "3", "--weight=3" + ",0" * 7],
         2, 224),
        (["restricted", "--family", "q", "--n", "16", "--p", "3", "--r", "1",
          "--weight=1" + ",0" * 15], 2, 960),
        (["delta", "--family", "q", "--n", "8", "--p", "3", "--r", "1"], 1, 112),
    ],
    ids=["admissible-p3", "restricted-p3", "decompose-p3", "decompose-q8",
         "restricted-q16", "delta-q8"],
)
def test_order_work_per_verb(capsys, monkeypatch, argv, splits, evals):
    # The CLI's order check is its one split, which delta_r reads; the rest
    # are the library's (check_admissible_base, is_dominant, the digits'
    # coroots).
    # p(3) has 15 roots, q(8) 112 and q(16) 480: each split evaluates the
    # order once per root.
    counts = {"splits": 0, "evals": 0}
    real_split, real_eval = rootdata.positive_system, rootdata.OrderFunctional.eval

    def split(*args):
        counts["splits"] += 1
        return real_split(*args)

    def evaluate(self, w):
        counts["evals"] += 1
        return real_eval(self, w)

    for module in (rootdata, liesuper, steinberg):
        monkeypatch.setattr(module, "positive_system", split)
    monkeypatch.setattr(rootdata.OrderFunctional, "eval", evaluate)
    code, _payload = run_json(capsys, *argv)
    assert code == 0
    assert counts == {"splits": splits, "evals": evals}


# The superroot modules a cold process loads for each verb: the package,
# lattice and rootdata, and what the verb itself runs.
BASE_MODULES = ["superroot", "superroot.cli", "superroot.lattice", "superroot.rootdata"]
STEINBERG_MODULES = BASE_MODULES + ["superroot.liesuper", "superroot.steinberg"]
VERB_MODULES = {
    "describe": BASE_MODULES,
    "unimodular": BASE_MODULES,
    "frobenius": BASE_MODULES,
    "delta": BASE_MODULES,
    "dims": BASE_MODULES,
    "admissible": BASE_MODULES + ["superroot.liesuper"],
    "restricted": STEINBERG_MODULES,
    "decompose": STEINBERG_MODULES,
    "flatcheck": STEINBERG_MODULES,
    "char": STEINBERG_MODULES,
    "verify-commutator": BASE_MODULES + ["superroot.hyperalg"],
}
REPORT_MODULES = """
import json, sys
from superroot import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "superroot"),
                  "dataclasses" in sys.modules]), file=sys.stderr)
"""


@pytest.mark.parametrize(
    "verb, code", [(verb, 0) for verb in VERB_MODULES] + [("decompose", 1)],
    ids=list(VERB_MODULES) + ["decompose-error"],
)
def test_cold_process_answers_and_loads_only_its_modules(verb, code):
    with open(os.path.join(os.path.dirname(__file__), "golden", "cli.json"), encoding="utf-8") as fh:
        entry = next(
            e for e in json.load(fh)["entries"]
            if not e["files"] and e["code"] == code and e["argv"][1] == verb
        )
    src = os.path.dirname(os.path.dirname(os.path.abspath(rootdata.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "superroot.cli"] + entry["argv"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (entry["code"], entry["stdout"])
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_MODULES, json.dumps(entry["argv"])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.stdout == entry["stdout"]
    assert json.loads(proc.stderr) == [entry["code"], sorted(VERB_MODULES[verb]), False]
