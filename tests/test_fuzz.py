"""Fuzzing of the input boundary with bounded sizes.

``datum_from_json`` and ``char_from_json`` either return or raise a
``SuperrootError``; ``main(argv)`` exits 0 with a JSON payload, exits 1
with a structured ``{"error": ...}`` object, or stops with argparse's
usage exit 2.  Nothing else may escape.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from superroot.cli import main
from superroot.lattice import SuperrootError
from superroot.rootdata import build_gl, build_p, build_q, datum_from_json, datum_to_json
from superroot.steinberg import char_from_json

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(max_size=3)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
SMALL = st.integers(-3, 3)


def maybe(valid):
    """Mostly well-typed values, sometimes any JSON value."""
    return valid | valid | JSON


VECTOR = st.lists(maybe(SMALL), max_size=3)
DATUM = st.fixed_dictionaries(
    {
        "rank": maybe(st.integers(0, 3)),
        "label": maybe(st.text(max_size=4)),
        "even_roots": maybe(st.lists(maybe(st.fixed_dictionaries(
            {"root": maybe(VECTOR), "coroot": maybe(VECTOR)}
        )), max_size=3)),
        "odd_roots": maybe(st.lists(maybe(st.fixed_dictionaries(
            {"root": maybe(VECTOR), "mult": maybe(st.integers(0, 3))}
        )), max_size=3)),
        "h_odd_dim": maybe(st.integers(0, 3)),
    },
    optional={"lie_handle": maybe(st.sampled_from(["gl(1|1)", "q(2)", "p(2)", "q(x)"]))},
)
VALID_DATA = st.sampled_from(
    [datum_to_json(d) for d in (build_gl(1, 1), build_gl(2, 1), build_q(2), build_p(2))]
)
CHAR = st.fixed_dictionaries(
    {
        "terms": maybe(st.lists(maybe(st.fixed_dictionaries(
            {"weight": maybe(st.lists(maybe(SMALL), min_size=2, max_size=2)), "mult": maybe(SMALL)}
        )), max_size=4))
    }
)


@settings(max_examples=300, deadline=None)
@given(DATUM | VALID_DATA | JSON)
def test_datum_from_json_answers_or_refuses(data):
    try:
        datum_from_json(data)
    except SuperrootError:
        pass


@settings(max_examples=300, deadline=None)
@given(CHAR | JSON)
def test_char_from_json_answers_or_refuses(data):
    try:
        char_from_json(data)
    except SuperrootError:
        pass


# -- main(argv) ---------------------------------------------------------------

# The options each family verb takes besides the family flags; the
# required ones first.
FAMILY_VERBS = {
    "describe": (0, ()),
    "frobenius": (0, ()),
    "unimodular": (0, ("--p", "--r")),
    "delta": (2, ("--p", "--r", "--order")),
    "dims": (2, ("--p", "--r")),
    "admissible": (0, ("--psi-odd", "--mode", "--order")),
    "restricted": (3, ("--weight", "--p", "--r", "--psi-odd", "--order")),
    "decompose": (2, ("--weight", "--p", "--psi-odd", "--radius", "--order")),
    "flatcheck": (2, ("--weight", "--p")),
}
NUMBERS = st.sampled_from(["-1", "0", "1", "2", "3", "5", "9", "3000", "100000000"])
PRIMES = st.sampled_from(["3", "5", "7"]) | NUMBERS
SIZES = st.sampled_from(["-1", "0", "1", "2", "3"])
ORDERS = st.sampled_from(["-1,-2", "2,1", "1,1", "1/0", "a,b", "1/2,-3", ","]) | st.text(
    alphabet="01-/,a", max_size=6
)
GARBAGE = st.text(alphabet="0123-,;x", max_size=6)


def _json_text(strategy):
    return strategy.map(json.dumps) | st.text(alphabet='{}[]":,0123abc', max_size=8)


CHAR_TEXT = _json_text(CHAR) | st.just("@missing.json")


@st.composite
def requests(draw):
    """An argv and the files it names, relative to a work directory.
    Required options are usually given and weights usually have the
    family's rank, so that most requests get past argparse and parsing."""
    verb = draw(st.sampled_from(sorted(FAMILY_VERBS) + ["char", "verify-commutator"]))
    argv, files = ["--json", verb], {}

    def option(flag, values, likely=False):
        if draw(st.integers(0, 9)) < (9 if likely else 5):
            argv.append("%s=%s" % (flag, draw(values)))

    if verb in FAMILY_VERBS:
        family = draw(st.sampled_from(["gl", "q", "p", "file"]))
        argv += ["--family", family]
        m, n = draw(st.integers(-1, 3)), draw(st.integers(-1, 3))
        if family == "gl" or draw(st.integers(0, 9)) == 0:
            argv.append("--m=%d" % m)
        if family != "file" or draw(st.integers(0, 9)) == 0:
            argv.append("--n=%d" % n)
        rank = {"gl": m + n, "file": draw(st.integers(1, 3))}.get(family, n)
        if family == "file":
            files["datum.json"] = draw(_json_text(DATUM | VALID_DATA))
            option("--file", st.just("{dir}/datum.json"), likely=True)
        weight = st.lists(st.integers(-9, 9), min_size=max(rank, 1), max_size=max(rank, 1)).map(
            lambda w: ",".join(map(str, w))
        )
        values = {
            "--p": PRIMES,
            "--r": NUMBERS,
            "--weight": weight | GARBAGE,
            "--psi-odd": weight | GARBAGE,
            "--radius": SIZES,
            "--mode": st.sampled_from(["assisted", "strict"]),
            "--order": ORDERS,
        }
        required, flags = FAMILY_VERBS[verb]
        for k, flag in enumerate(flags):
            option(flag, values[flag], likely=k < required)
    elif verb == "char":
        argv += ["--op", draw(st.sampled_from(["add", "mul", "twist", "steinberg"]))]
        option("--a", CHAR_TEXT, likely=True)
        option("--b", CHAR_TEXT, likely=True)
        option("--p", PRIMES, likely=True)
        option("--r", NUMBERS)
        if draw(st.booleans()):
            argv += ["--inputs"] + draw(st.lists(CHAR_TEXT, max_size=3))
    else:
        for flag in ("--max-m", "--max-n", "--degree"):
            option(flag, SIZES)
        option("--p", PRIMES)
    return argv, files


@settings(max_examples=300, deadline=None)
@given(requests())
def test_main_answers_or_refuses(request):
    argv, files = request
    with tempfile.TemporaryDirectory() as work:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([tok.replace("{dir}", work) for tok in argv])
            except SystemExit as exc:  # argparse usage error
                assert exc.code == 2, argv
                return
    payload = json.loads(out.getvalue())
    if code == 1:
        assert set(payload) == {"error"}, argv
        assert set(payload["error"]) == {"type", "message"}, argv
    else:
        assert code == 0 and "error" not in payload, argv
