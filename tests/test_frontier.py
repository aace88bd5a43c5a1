"""Frontier runs: the largest builds known to fit a fixed memory budget.

Each run takes about a minute, so the `slow` marker keeps them out of the
default selection; run them with

    python -m pytest -m slow tests/test_frontier.py
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 768 << 20  # bytes, RLIMIT_AS of the child
TRUNCATION_11111 = ("from schurres.schurfunctor import truncated_resolution\n"
                    "cx = truncated_resolution((1,) * 5)\n"
                    "print(*(cx.rank(k) for k in cx.degrees()))\n")


def run_limited(code):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.slow
def test_truncation_at_1_5_fits_768_mib():
    done = run_limited(TRUNCATION_11111)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["120", "3426", "27878", "106188", "230086", "309760",
                                   "268559", "149795", "51599", "9840", "768"]
