"""The README's Library examples run as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import stepfree

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(stepfree.__file__).resolve().parent.parent


def test_python_examples_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 3
    # the second block reads the first one's names: one interpreter runs all
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
