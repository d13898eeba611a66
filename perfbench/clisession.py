"""cli-session: one cold ``superroot --json <verb>`` process at a time.

Mostly interpreter start-up, import, argparse and JSON output; the only
workload that reaches the CLI, the hyperalgebra sweep and the character
ring.  One round is 18 seeded requests over gl(<=3|<=3), q(<=4) and
p(<=4) covering every verb, with heavier requests (a 5x5 degree-20
commutator sweep, products of ~20-term characters, dims with a large r).
``decompose`` runs on gl and p only.

The timed rounds hold only requests the program answers.  Requests it
is known not to answer are the known-defect probe, run as child
processes in the traced run and reported as ``defects.failed``: the four
malformed requests `--order 1/0`, `--order a,b`, a datum file whose
even_roots is not a list, and a dims result beyond Python's int-to-str
limit (each answered only by a structured {"error": ...} with exit 1),
and ``decompose`` on q(2), q(3) and q(4), which can raise
DecompositionFailure at the default radius.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys

import reference as ref
from reference import NoAnswer, expect

NAME = "cli-session"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE_ROUNDS = 2
PROBE_ROUNDS = 2
TIMEOUT_S = 60
MALFORMED = ("order-zero-division", "order-not-rational", "even-roots-not-list", "dims-huge-r")


def setup(seed: int) -> dict:
    """Work directory, child environment, and one untimed warm-up process
    so that compiled bytecode exists before the first timed request."""
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    bad = os.path.join(work, "even_roots_not_list.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump({"rank": 2, "label": "x", "even_roots": 7, "odd_roots": [], "h_odd_dim": 0}, fh)
    env = dict(os.environ)
    env.pop("SUPERROOT_SEARCH_RADIUS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    state = {"seed": seed, "work": work, "bad_file": bad, "env": env}
    run_child(state, ["describe", "--family", "gl", "--m", "1", "--n", "1"])
    return state


def teardown(state: dict) -> None:
    shutil.rmtree(state["work"], ignore_errors=True)
    with contextlib.suppress(OSError):  # still in use by another run
        os.rmdir(os.path.dirname(state["work"]))


def run_child(state: dict, argv):
    proc = subprocess.run(
        [sys.executable, "-m", "superroot.cli", "--json"] + list(argv),
        cwd=ROOT,
        env=state["env"],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def run_main(argv):
    """The same request through ``main(argv)`` in this process."""
    from superroot import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["--json"] + list(argv))
        except SystemExit as exc:  # argparse usage errors, as in a child
            code = exc.code
    return code, buf.getvalue()


def import_ms(state: dict) -> float:
    """Wall time of ``import superroot.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import superroot.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=state["env"],
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
        check=True,
    ).stdout
    return float(out) * 1000.0


# ---------------------------------------------------------------------------
# Requests.


def _family(rng, kinds=("gl", "q", "p")):
    kind = rng.choice(kinds)
    if kind == "gl":
        return ("gl", (rng.randint(1, 3), rng.randint(1, 3)))
    return (kind, (rng.randint(2, 4),))


def _flags(family):
    kind, params = family
    if kind == "gl":
        return ["--family", "gl", "--m", str(params[0]), "--n", str(params[1])]
    return ["--family", kind, "--n", str(params[0])]


def _weight_arg(lam):
    # One token, so that a leading minus sign is not read as an option.
    return "--weight=" + ",".join(str(c) for c in lam)


def _char(rng, rank, terms):
    out = {}
    while len(out) < terms:
        out[tuple(rng.randint(-6, 6) for _ in range(rank))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return out


def _char_json(ch):
    return json.dumps({"terms": [{"weight": list(w), "mult": m} for w, m in sorted(ch.items())]})


def _read_char(payload):
    return {tuple(t["weight"]): t["mult"] for t in payload["terms"]}


def _int(v):
    return int(v) if isinstance(v, str) else v


def round_requests(state: dict, index: int):
    """The round's requests as (verb, argv, check of the payload)."""
    rng = random.Random("%d/%d" % (state["seed"], index))
    reqs = []

    f = _family(rng)

    def check_describe(out, f=f):
        even, odd = ref.roots(f)
        expect(out["rank"] == ref.rank_of(f), "describe rank")
        expect((out["n_even"], out["n_odd"]) == ref.dims(f), "describe dims")
        expect(sorted(tuple(e["root"]) for e in out["even_roots"]) == sorted(even), "even roots")
        expect({tuple(e["root"]): e["mult"] for e in out["odd_roots"]} == odd, "odd roots")
        expect(out["h_odd_dim"] == (ref.rank_of(f) if f[0] == "q" else 0), "h_odd_dim")

    reqs.append(("describe", ["describe"] + _flags(f), check_describe))

    f = _family(rng)

    def check_unimodular(out, f=f):
        total = ref.odd_root_sum(f)
        expect(tuple(out["odd_root_sum"]) == total, "odd root sum")
        expect(out["verdict"] == (not any(total)) and out["modulus"] is None, "char-0 verdict")

    reqs.append(("unimodular", ["unimodular"] + _flags(f), check_unimodular))

    f, p, r = _family(rng), rng.choice((3, 5)), rng.randint(1, 3)

    def check_unimodular_p(out, f=f, p=p, r=r):
        total = ref.odd_root_sum(f)
        divides = [v % p**r == 0 for v in total]
        expect(_int(out["modulus"]) == p**r, "modulus")
        expect(out["verdict"] == all(divides), "Frobenius verdict")
        expect([c["divides"] for c in out["per_coordinate"]] == divides, "per coordinate")

    argv = ["unimodular"] + _flags(f) + ["--p", str(p), "--r", str(r)]
    reqs.append(("unimodular", argv, check_unimodular_p))

    f = _family(rng)

    def check_frobenius(out, f=f):
        total = ref.odd_root_sum(f)
        expect(tuple(out["odd_root_sum"]) == total, "odd root sum")
        expect(out["all_unimodular"] == (not any(total)), "all unimodular")

    reqs.append(("frobenius", ["frobenius"] + _flags(f), check_frobenius))

    f, p, r = _family(rng), rng.choice((3, 5)), rng.randint(1, 3)

    def check_delta(out, f=f, p=p, r=r):
        even, odd = ref.roots(f)
        order = ref.default_order(f)
        want = [0] * ref.rank_of(f)
        for a in even:
            if ref.value(order, a) > 0:
                want = [w - (p**r - 1) * c for w, c in zip(want, a)]
        for g, mult in odd.items():
            if ref.value(order, g) < 0:
                want = [w + mult * c for w, c in zip(want, g)]
        expect([_int(v) for v in out["delta_r"]] == want, "delta_r")

    reqs.append(("delta", ["delta"] + _flags(f) + ["--p", str(p), "--r", str(r)], check_delta))

    for large in (False, True):
        f, p = _family(rng), rng.choice((3, 5))
        n_even, n_odd = ref.dims(f)
        if large:
            # Largest r whose answer stays under 3500 decimal digits.
            r_max = int((3500 - n_odd * math.log10(2)) / (n_even * math.log10(p)))
            r = rng.randint(r_max // 2, r_max)
        else:
            r = rng.randint(1, 3)

        def check_dims(out, n_even=n_even, n_odd=n_odd, p=p, r=r):
            want = 2**n_odd * p ** (r * n_even)
            expect(_int(out["dim_O_Gr"]) == want and _int(out["pbw_count"]) == want, "dims")
            expect((out["n_even"], out["n_odd"]) == (n_even, n_odd), "dims counts")

        reqs.append(("dims", ["dims"] + _flags(f) + ["--p", str(p), "--r", str(r)], check_dims))

    f = _family(rng)

    def check_admissible(out, f=f):
        expect(out["ok"] is True, "default base of %s rejected" % ref.label(f))
        psi_even = ref.simple_even(f, ref.default_order(f))
        expect([tuple(w) for w in out["psi_even"]] == psi_even, "psi_even")
        expect([tuple(w) for w in out["psi_odd"]] == sorted(ref.default_psi_odd(f)), "psi_odd")

    reqs.append(("admissible", ["admissible"] + _flags(f), check_admissible))

    f, p, r = _family(rng), rng.choice((3, 5)), rng.randint(1, 2)
    lam = ref.flat_weight(rng, f, p, span=2 * p**r)

    def check_restricted(out, f=f, lam=lam, p=p, r=r):
        expect(out["verdict"] == ref.restricted(f, lam, p, r), "restricted %r" % (lam,))

    argv = ["restricted"] + _flags(f) + [_weight_arg(lam), "--p", str(p), "--r", str(r)]
    reqs.append(("restricted", argv, check_restricted))

    # Rank 6 in every round: its shift box sets the largest child's memory.
    for f in (("gl", (3, 3)), _family(rng, ("gl", "p"))):
        reqs.append(_decompose(rng, f))

    if rng.random() < 0.5:
        f = ("gl", (rng.randint(1, 3), rng.randint(1, 3)))
    else:
        f = ("q", (rng.randint(2, 4),))
    p = rng.choice((3, 5))
    lam = tuple(rng.randint(-9, 9) for _ in range(ref.rank_of(f)))

    def check_flat(out, f=f, lam=lam, p=p):
        expect(out["flat"] == ref.flat(f, lam, p), "flatcheck %r" % (lam,))

    reqs.append(("flatcheck", ["flatcheck"] + _flags(f) + [_weight_arg(lam), "--p", str(p)], check_flat))

    rank = rng.randint(2, 3)
    a, b = _char(rng, rank, 20), _char(rng, rank, 20)

    def check_mul(out, a=a, b=b):
        expect(_read_char(out) == ref.convolve(a, b), "char mul")

    reqs.append(("char", ["char", "--op", "mul", "--a", _char_json(a), "--b", _char_json(b)], check_mul))
    a, b = _char(rng, rank, 20), _char(rng, rank, 20)

    def check_add(out, a=a, b=b):
        want = dict(a)
        for w, m in b.items():
            want[w] = want.get(w, 0) + m
        expect(_read_char(out) == {w: m for w, m in want.items() if m}, "char add")

    reqs.append(("char", ["char", "--op", "add", "--a", _char_json(a), "--b", _char_json(b)], check_add))
    a, p, r = _char(rng, rank, 8), rng.choice((3, 5)), rng.randint(0, 3)

    def check_twist(out, a=a, p=p, r=r):
        expect(_read_char(out) == {tuple(p**r * c for c in w): m for w, m in a.items()}, "char twist")

    argv = ["char", "--op", "twist", "--a", _char_json(a), "--p", str(p), "--r", str(r)]
    reqs.append(("char", argv, check_twist))
    chars, p = [_char(rng, rank, 5) for _ in range(3)], rng.choice((3, 5))

    def check_steinberg(out, chars=chars, p=p):
        want = {(0,) * rank: 1}
        for i, ch in enumerate(chars):
            want = ref.convolve(want, {tuple(p**i * c for c in w): m for w, m in ch.items()})
        expect(_read_char(out) == want, "char steinberg")

    argv = ["char", "--op", "steinberg", "--p", str(p), "--inputs"] + [_char_json(c) for c in chars]
    reqs.append(("char", argv, check_steinberg))

    for p in (0, 3):
        m, n, d = 5, 5, 20

        def check_commutator(out, m=m, n=n, d=d):
            expect(out["ok"] is True, "commutator sweep failed: %s" % out.get("detail"))
            expect(out["checked"] == (m + 1) * (n + 1) * (d + 1) * (d + 2) // 2, "checked count")

        argv = ["verify-commutator", "--max-m", str(m), "--max-n", str(n), "--degree", str(d), "--p", str(p)]
        reqs.append(("verify-commutator", argv, check_commutator))

    return reqs


def _decompose(rng, f):
    p = rng.choice((3, 5))
    lam = ref.flat_weight(rng, f, p)

    def check_decompose(out, f=f, lam=lam, p=p):
        expect(out["p"] == p, "decompose p")
        ref.check_digits(f, lam, p, [tuple(d) for d in out["digits"]])

    return "decompose", ["decompose"] + _flags(f) + [_weight_arg(lam), "--p", str(p)], check_decompose


def probe_requests(state: dict, index: int):
    """The known-defect probe: every malformed request (check None), and
    decompose on each q(n) with n <= 4."""
    rng = random.Random("probe/%d/%d" % (state["seed"], index))
    reqs = [_malformed(state, kind) for kind in MALFORMED]
    reqs += [_decompose(rng, ("q", (n,))) for n in (2, 3, 4)]
    return reqs


def _malformed(state, kind):
    argv = {
        "order-zero-division": "delta --family gl --m 2 --n 1 --p 3 --r 1 --order 1/0",
        "order-not-rational": "admissible --family q --n 2 --order a,b",
        "even-roots-not-list": "describe --family file --file",
        "dims-huge-r": "dims --family q --n 2 --p 3 --r 3000",
    }[kind].split()
    if kind == "even-roots-not-list":
        argv.append(state["bad_file"])
    return argv[0], argv, None


def round_ops(state: dict, index: int, in_process: bool = False):
    return _ops(state, round_requests(state, index), in_process)


def probe_ops(state: dict, index: int):
    return _ops(state, probe_requests(state, index), False)


def _ops(state, requests, in_process):
    ops = []
    for verb, argv, check in requests:
        if in_process:
            run = lambda argv=argv: run_main(argv)
        else:
            run = lambda argv=argv: run_child(state, argv)
        ops.append((verb, run, _classifier(check)))
    return ops


def _classifier(check):
    """Exit code and stdout to an answer: a JSON payload with exit 0 for a
    valid request, a structured error with exit 1 for a malformed one."""

    def classify(result):
        code, out = result
        try:
            payload = json.loads(out)
        except ValueError:
            raise NoAnswer("exit %d without JSON output" % code)
        if check is None:
            if code != 1 or not isinstance(payload, dict) or "error" not in payload:
                raise NoAnswer("malformed request not refused with a structured error")
            return
        if code != 0:
            raise NoAnswer("exit %d: %s" % (code, out.strip()[:200]))
        check(payload)

    return classify
