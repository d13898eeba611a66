"""Replay the golden CLI corpus: every recorded request must give the
same exit code and byte-identical stdout.  The corpus is written by
``tests/golden/make_cli_corpus.py``."""

import json
import os

from superroot.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "golden", "cli.json")


def test_golden_cli_corpus(capsys, tmp_path):
    with open(CORPUS, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    assert len(entries) > 250
    mismatches = []
    for entry in entries:
        for name, text in entry["files"].items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        argv = [tok.replace("{dir}", str(tmp_path)) for tok in entry["argv"]]
        code = main(argv)
        out = capsys.readouterr().out
        if (code, out) != (entry["code"], entry["stdout"]):
            mismatches.append((entry["argv"], entry["code"], code, entry["stdout"], out))
    assert not mismatches, "%d of %d entries differ, first: %r" % (
        len(mismatches), len(entries), mismatches[0]
    )
