"""Every script under ``examples/`` runs to completion.

Each is a self-contained end-to-end drive of the public API, so an API
change that breaks one fails here rather than in a reader's terminal.
Each runs in its own interpreter, the way the README tells a reader to
run it, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, f"no scripts under {ROOT / 'examples'}"


@pytest.mark.timeout(120)
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_zero(script):
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=110,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
