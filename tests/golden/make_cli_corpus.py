"""Capture the golden CLI corpus replayed by ``tests/test_golden.py``.

Each entry is one ``superroot --json <verb> ...`` request run in-process
through ``cli.main``, with its exit code and exact stdout.  Argument
tokens may contain ``{dir}``, which the replay replaces by a directory
holding the entry's ``files``.  Regenerate only when an output change is
intended:

    PYTHONPATH=src python tests/golden/make_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

from superroot import cli, rootdata  # noqa: E402

FAMILIES = {
    "gl11": (["--family", "gl", "--m", "1", "--n", "1"], [(4, -2), (1, 0), (2, -1), (0, 0), (-3, 5)]),
    "gl21": (["--family", "gl", "--m", "2", "--n", "1"], [(3, 1, 0), (2, 2, -1), (1, 0, 0), (5, 2, -4), (0, 1, 0)]),
    "gl22": (["--family", "gl", "--m", "2", "--n", "2"], [(3, 1, 2, 0), (1, 1, 0, 0), (4, -1, 2, 2), (1, 2, 0, 0)]),
    "q2": (["--family", "q", "--n", "2"], [(1, -2), (3, 3), (4, 1), (1, 1), (-10, -13)]),
    "q3": (["--family", "q", "--n", "3"], [(3, 3, 0), (2, 1, 0), (5, 2, -1), (1, 2, 3)]),
    "p2": (["--family", "p", "--n", "2"], [(1, 0), (3, 1), (2, 2), (0, 1)]),
    "p3": (["--family", "p", "--n", "3"], [(2, 1, 0), (1, 1, 1), (4, 2, -1), (0, 0, 1)]),
}

CHARS = {
    "a": '{"terms":[{"weight":[1,-2],"mult":1}]}',
    "b": '{"terms":[{"weight":[1,-1],"mult":1}]}',
    "c": '{"terms":[{"weight":[0,0],"mult":2},{"weight":[1,0],"mult":-1},{"weight":[2,-3],"mult":3}]}',
    "d": '{"terms":[{"weight":[1,1,0],"mult":1},{"weight":[0,1,-1],"mult":2}]}',
}


def run(argv, files):
    """Exit code and stdout of one request, with ``{dir}`` bound to a
    temporary directory holding ``files``."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        real = [tok.replace("{dir}", workdir) for tok in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(real)
    return code, buf.getvalue()


def wstr(w):
    return ",".join(str(c) for c in w)


def requests():
    out = []

    def add(argv, files=None):
        out.append((["--json"] + argv, files or {}))

    for key, (flags, weights) in FAMILIES.items():
        rank = len(weights[0])
        add(["describe"] + flags)
        add(["unimodular"] + flags)
        add(["unimodular"] + flags + ["--p", "3", "--r", "1"])
        add(["unimodular"] + flags + ["--p", "5", "--r", "2"])
        add(["frobenius"] + flags)
        add(["delta"] + flags + ["--p", "3", "--r", "1"])
        add(["delta"] + flags + ["--p", "5", "--r", "2"])
        reverse = ",".join(str(rank - i) for i in range(rank))
        add(["delta"] + flags + ["--p", "3", "--r", "1", "--order", reverse])
        add(["dims"] + flags + ["--p", "3", "--r", "1"])
        add(["dims"] + flags + ["--p", "7", "--r", "3"])
        add(["admissible"] + flags)
        add(["admissible"] + flags + ["--mode", "strict"])
        add(["admissible"] + flags + ["--order", reverse])
        for w in weights:
            add(["flatcheck"] + flags + ["--p", "3", "--weight=" + wstr(w)])
            add(["restricted"] + flags + ["--p", "3", "--r", "1", "--weight=" + wstr(w)])
            add(["restricted"] + flags + ["--p", "5", "--r", "2", "--weight=" + wstr(w)])
            add(["decompose"] + flags + ["--p", "3", "--weight=" + wstr(w)])
            add(["decompose"] + flags + ["--p", "5", "--weight=" + wstr(w)])
        # The same datum read back from the file `describe` wrote.
        _, text = run(["--json", "describe"] + flags, {})
        name = "%s.json" % key
        fileflags = ["--family", "file", "--file", "{dir}/" + name]
        for verb in (["describe"], ["frobenius"], ["admissible"]):
            add(verb + fileflags, {name: text})
        w = wstr(weights[0])
        add(["flatcheck"] + fileflags + ["--p", "3", "--weight=" + w], {name: text})
        add(["restricted"] + fileflags + ["--p", "3", "--r", "1", "--weight=" + w], {name: text})
        add(["decompose"] + fileflags + ["--p", "3", "--weight=" + w], {name: text})

    # The digit search at explicit radii, on small families and a few
    # negative weights that need non-canonical lifts.
    extra = {"gl11": [(0, -2), (-6, 5)], "q2": [(15, 13), (-4, -6)]}
    for key in ("gl11", "gl22", "q2", "p3"):
        flags, weights = FAMILIES[key]
        for w in weights + extra.get(key, []):
            for p in ("3", "5"):
                for radius in ("0", "1", "3"):
                    add(["decompose"] + flags + ["--p", p, "--weight=" + wstr(w), "--radius", radius])
    # q(2) (15,13) at p=5 fails within radius 2 and decomposes within 3.
    for radius in ("2", "3"):
        add(["decompose"] + FAMILIES["q2"][0] + ["--p", "5", "--weight", "15,13", "--radius", radius])
    for m, n, w in (
        (3, 2, (12, 6, -8, -4, -10)),
        (3, 2, (8, 0, -6, 3, -9)),
        (4, 3, (12, 6, -8, -10, 3, -4, -9)),
        (4, 3, (3, 1, 0, -12, 12, 12, 7)),
    ):
        for p in ("3", "5"):
            add(["decompose", "--family", "gl", "--m", str(m), "--n", str(n), "--p", p, "--weight=" + wstr(w)])

    # Admissible checks at larger ranks: both modes, the reversed default
    # order with the default odd base and with its negation, and odd
    # bases made linearly dependent by two more positive odd roots.
    for kind, params in (("gl", (4, 4)), ("gl", (5, 5)), ("q", (5,)), ("p", (5,))):
        datum = rootdata.Family(kind, params).build()
        order = rootdata.default_order(datum)
        flags = ["--family", kind] + (["--m", str(params[0])] if kind == "gl" else [])
        flags += ["--n", str(params[-1])]
        psi = cli.default_psi_odd(datum)
        reverse = ",".join(str(v) for v in order.values[::-1])
        extra = sorted({r for r, _ in datum.odd_roots if order.eval(r) > 0} - set(psi))
        superset = ";".join(wstr(w) for w in psi + [extra[0], extra[-1]])
        for mode in ("assisted", "strict"):
            add(["admissible"] + flags + ["--mode", mode])
            add(["admissible"] + flags + ["--mode", mode, "--psi-odd=" + superset])
        add(["admissible"] + flags + ["--order=" + reverse])
        negated = ";".join(wstr(tuple(-c for c in w)) for w in psi)
        add(["admissible"] + flags + ["--order=" + reverse, "--psi-odd=" + negated])

    # A datum with no built-in family: default order, no default odd base.
    semi = rootdata.build_semidirect(rootdata.build_gl_even(2), [(1, 1), (1, 1), (0, 0)])
    text = json.dumps(rootdata.datum_to_json(semi))
    fileflags = ["--family", "file", "--file", "{dir}/semi.json"]
    for verb in (
        ["describe"],
        ["unimodular"],
        ["delta", "--p", "3", "--r", "1"],
        ["dims", "--p", "3", "--r", "1"],
        ["admissible"],
        ["flatcheck", "--p", "3", "--weight", "1,0"],
    ):
        add(verb + fileflags, {"semi.json": text})

    # Family flags that name no datum.
    for flags in (
        ["--family", "gl", "--m", "1"],
        ["--family", "gl", "--n", "1"],
        ["--family", "gl", "--m", "0", "--n", "1"],
        ["--family", "q"],
        ["--family", "q", "--n", "0"],
        ["--family", "p"],
        ["--family", "p", "--n", "1"],
        ["--family", "file"],
    ):
        add(["describe"] + flags)

    add(["char", "--op", "add", "--a", CHARS["a"], "--b", CHARS["c"]])
    add(["char", "--op", "mul", "--a", CHARS["a"], "--b", CHARS["b"]])
    add(["char", "--op", "mul", "--a", CHARS["c"], "--b", CHARS["c"]])
    add(["char", "--op", "twist", "--a", CHARS["c"], "--p", "3"])
    add(["char", "--op", "twist", "--a", CHARS["d"], "--p", "5", "--r", "2"])
    add(["char", "--op", "steinberg", "--inputs", CHARS["a"], CHARS["b"], "--p", "3"])
    add(["char", "--op", "steinberg", "--inputs", CHARS["c"], CHARS["a"], CHARS["c"], "--p", "5"])
    add(["char", "--op", "add", "--a", "@{dir}/d.json", "--b", CHARS["d"]], {"d.json": CHARS["d"]})
    add(["verify-commutator", "--max-m", "2", "--max-n", "2", "--degree", "6"])
    add(["verify-commutator", "--max-m", "3", "--max-n", "2", "--degree", "8", "--p", "3"])

    # Admissible checks at scale, where the closure has thousands of rows:
    # both modes on gl(8|8), q(12) and p(12), an increasing q(16) order
    # that the default odd base does not fit, and one q(12) restriction.
    for flags in (["--family", "gl", "--m", "8", "--n", "8"], ["--family", "q", "--n", "12"], ["--family", "p", "--n", "12"]):
        for mode in ("assisted", "strict"):
            add(["admissible"] + flags + ["--mode", mode])
    add(["admissible", "--family", "q", "--n", "16", "--order=" + wstr(range(1, 17))])
    add(["restricted", "--family", "q", "--n", "12", "--weight=" + wstr((1,) + (0,) * 11), "--p", "3", "--r", "1"])

    # Odd bases with several relations under wide orders, where the cone
    # search walks the relation coefficients: every positive odd root, a
    # smaller base that generates the roots and one that does not, and
    # strict mode on those two.
    for flags, order, generates, fails in (
        (["--family", "gl", "--m", "2", "--n", "2"], "3,-2,-300,-1000", [1, 3, 4], [2, 3, 4]),
        (["--family", "gl", "--m", "3", "--n", "2"], "5,3,-2,-40,-900", [1, 3, 4, 5, 6], [2, 3, 4, 5, 6]),
        (["--family", "p", "--n", "3"], "1000,10,1", [1, 2, 3, 4, 5], [2, 3, 4, 5, 6]),
    ):
        datum = rootdata.Family(flags[1], tuple(int(v) for v in flags[3::2])).build()
        values = rootdata.OrderFunctional.from_values(order.split(","))
        pos = sorted({r for r, _ in datum.odd_roots if values.eval(r) > 0})
        flags = flags + ["--order=" + order]
        add(["admissible"] + flags + ["--psi-odd=" + ";".join(wstr(w) for w in pos)])
        for picks in (generates, fails):
            psi = "--psi-odd=" + ";".join(wstr(pos[i - 1]) for i in picks)
            for mode in ("assisted", "strict"):
                add(["admissible"] + flags + ["--mode", mode, psi])

    # Operator sweeps of the reordering identity: the empty sweep, one
    # sweep over Z and mod 3 and 5, and the two lopsided exponent ranges.
    add(["verify-commutator", "--max-m", "0", "--max-n", "0", "--degree", "0"])
    for p in ("0", "3", "5"):
        add(["verify-commutator", "--max-m", "5", "--max-n", "5", "--degree", "20", "--p", p])
    add(["verify-commutator", "--max-m", "1", "--max-n", "6", "--degree", "15", "--p", "7"])
    add(["verify-commutator", "--max-m", "6", "--max-n", "1", "--degree", "15"])

    # Every positive odd root as the odd base under orders whose values
    # spread over orders of magnitude, so that the cone's relations meet
    # base elements of very different order value: both modes.
    for flags, order in (
        (["--family", "gl", "--m", "3", "--n", "2"], "50,30,-20,-400,-9000"),
        (["--family", "q", "--n", "3"], "1000,10,1"),
    ):
        datum = rootdata.Family(flags[1], tuple(int(v) for v in flags[3::2])).build()
        values = rootdata.OrderFunctional.from_values(order.split(","))
        pos = sorted({r for r, _ in datum.odd_roots if values.eval(r) > 0})
        psi = "--psi-odd=" + ";".join(wstr(w) for w in pos)
        for mode in ("assisted", "strict"):
            add(["admissible"] + flags + ["--order=" + order, "--mode", mode, psi])
    return out


def main() -> None:
    entries = []
    for argv, files in requests():
        code, stdout = run(argv, files)
        entries.append({"argv": argv, "files": files, "code": code, "stdout": stdout})
    path = os.path.join(HERE, "cli.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"entries": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d entries -> %s" % (len(entries), path))


if __name__ == "__main__":
    main()
