"""Frontier runs: the largest builds known to fit a fixed memory budget.

Each run takes up to about a minute, so the `slow` marker keeps them out of the
default selection; run them with

    python -m pytest -m slow tests/test_frontier.py
"""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRUNCATION_11111 = ("from schurres.schurfunctor import truncated_resolution\n"
                    "cx = truncated_resolution((1,) * 5)\n"
                    "print(*(cx.rank(k) for k in cx.degrees()))\n")


def run_limited(address_space, *args):
    """Run `python *args` with src on the path and RLIMIT_AS set to
    address_space bytes."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=900)


@pytest.mark.slow
def test_truncation_at_1_5_fits_768_mib():
    done = run_limited(768 << 20, "-c", TRUNCATION_11111)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["120", "3426", "27878", "106188", "230086", "309760",
                                   "268559", "149795", "51599", "9840", "768"]


@pytest.mark.slow
def test_resolve_at_2_1_1_1_fits_144_mib(tmp_path):
    # the document peaks at about 93 MiB of address space when the writer
    # holds only weight-matrix texts and one matrix's row buckets, against
    # about 192 MiB when it kept every label's text and every entry list
    out = tmp_path / "weyl.json"
    done = run_limited(144 << 20, "-m", "schurres.cli", "resolve", "-n", "4", "-r", "5",
                       "--lambda", "2,1,1,1", "--variant", "weyl", "-o", str(out))
    assert done.returncode == 0, done.stderr[-2000:]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "fba4f2316fb26fff0a438099c3277522b768e80ac1ca7c7a6cc3426cb6287fe7"


@pytest.mark.slow
def test_filtration_at_4_4_fits_48_mib():
    # about 22 MiB of address space when only composable basis products are
    # cached, against about 73 MiB when every vanishing product held an entry
    done = run_limited(48 << 20, "-m", "schurres.cli", "verify", "-n", "4", "-r", "4",
                       "--checks", "filtration")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "ok filtration (n=4, r=4)\n"
