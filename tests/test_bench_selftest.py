"""The benchmark's self-test as a tier-1 test: a source change that drops a
binding the benchmark's tracer wraps, or breaks its reference gate, fails
here instead of only when the benchmark runs."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("selftest: ok"), done.stdout
