"""The packages import in any order: no import cycle among them.

``repro.engine`` reaches ``repro.pipeline`` (chunking) and the XNoise
round reaches back into the engine, so an edge from ``repro.pipeline``
into ``repro.xnoise`` would close a cycle that only shows up when one
particular package is the first a fresh interpreter imports.  Each case
starts a new interpreter, imports one package first and then the rest,
and checks that ``repro.xnoise`` serves its protocol exports as plain
module attributes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ["repro.engine", "repro.xnoise", "repro.pipeline", "repro.core", "repro.cli"]


@pytest.mark.timeout(60)
@pytest.mark.parametrize("first", PACKAGES)
def test_each_package_imports_first_in_a_fresh_interpreter(first):
    rest = [name for name in PACKAGES if name != first]
    program = "\n".join(
        [f"import {name}" for name in [first, *rest]]
        + [
            "import repro.xnoise as xnoise",
            "assert 'XNoiseServer' in vars(xnoise)",
            "assert not hasattr(xnoise, '__getattr__')",
        ]
    )
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=50,
    )
    assert done.returncode == 0, done.stderr[-4000:]


def _top_level_modules(program: str) -> set[str]:
    """Top-level names in ``sys.modules`` after ``program`` runs in a
    fresh interpreter."""
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            program + "\nimport sys\nprint(' '.join(sorted({m.split('.')[0] for m in sys.modules})))",
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=50,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    return set(done.stdout.split())


@pytest.mark.timeout(120)
def test_the_device_path_imports_nothing_third_party_but_numpy():
    """What the protocol packages add to a bare interpreter (whose
    ``site`` may load modules of its own) is the standard library,
    numpy and this package — a device's cold start pays for no more."""
    bare = _top_level_modules("pass")
    loaded = _top_level_modules(
        "import repro.secagg, repro.core, repro.engine, repro.xnoise"
    )
    added = loaded - bare - set(sys.stdlib_module_names)
    assert added == {"numpy", "repro"}
