"""CLI outputs against the goldens of tests/golden/, byte for byte.

scripts/record_golden.py wrote the goldens and writes the fresh outputs here,
with the CSV's wall_ms column masked; no other field may differ.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepfree

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SRC = Path(stepfree.__file__).resolve().parent.parent
NAMES = sorted(p.name for p in GOLDEN.iterdir())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "record_golden.py"),
                           "--out", str(out)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out


def test_same_files(fresh):
    assert sorted(p.name for p in fresh.iterdir()) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_output_equals_golden(fresh, name):
    assert (fresh / name).read_bytes() == (GOLDEN / name).read_bytes()
