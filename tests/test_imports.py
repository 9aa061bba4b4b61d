"""The packages import in any order: no import cycle among them.

``src/repro`` ships the protocol alone: no ``*_reference`` twin (the
specifications a fast path is pinned against live in ``tests/oracles/``)
and no import of ``tests`` or ``benchmarks``.

``repro.engine`` reaches ``repro.pipeline`` (chunking) and the XNoise
round reaches back into the engine, so an edge from ``repro.pipeline``
into ``repro.xnoise`` would close a cycle that only shows up when one
particular package is the first a fresh interpreter imports.  Each case
starts a new interpreter, imports one package first and then the rest,
and checks that ``repro.xnoise`` serves its protocol exports as plain
module attributes.
"""

import ast
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


def _guard_findings(package: Path) -> list[str]:
    """Each ``def *_reference`` and each absolute import of ``tests`` or
    ``benchmarks`` under ``package``, as ``file:line: what``."""
    found = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bad, what = node.name.endswith("_reference"), f"def {node.name}"
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0):
                modules = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import) else [node.module]
                )
                bad = any(m.split(".")[0] in ("tests", "benchmarks") for m in modules)
                what = f"import {', '.join(modules)}"
            else:
                continue
            if bad:
                found.append(f"{rel.as_posix()}:{node.lineno}: {what}")
    return found


def test_src_ships_no_twin_and_imports_no_test_or_benchmark_code():
    found = _guard_findings(ROOT / "src" / "repro")
    assert not found, "\n".join(found)


def _package_with(tmp_path: Path, source: str) -> Path:
    package = tmp_path / "repro"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "sub" / "mod.py").write_text(source)
    return package


@pytest.mark.parametrize(
    "source, finding",
    [
        ("x = 1\ndef lonely_reference(v):\n    return v\n", "2: def lonely_reference"),
        ("async def fetch_reference():\n    pass\n", "1: def fetch_reference"),
        (
            "class Sharer:\n    def share_reference(self):\n        pass\n",
            "2: def share_reference",
        ),
        ("import tests.oracles.shamir\n", "1: import tests.oracles.shamir"),
        (
            "from benchmarks.bench_schema import write_bench\n",
            "1: import benchmarks.bench_schema",
        ),
        ("import numpy, benchmarks\n", "1: import numpy, benchmarks"),
    ],
    ids=["function", "async-function", "method", "import-tests", "from-benchmarks", "one-of-many"],
)
def test_guard_trips_on_a_twin_or_a_test_import(tmp_path, source, finding):
    """The guard fails the tree a twin or a harness import would ship in,
    naming the file and line."""
    assert _guard_findings(_package_with(tmp_path, source)) == [f"repro/sub/mod.py:{finding}"]


@pytest.mark.parametrize(
    "source",
    [
        "def reference_point():\n    pass\ndef referenced():\n    pass\n",
        "from .tests import helper\nfrom . import benchmarks\n",
        "import testsuite\nfrom benchmarking import clock\n",
    ],
    ids=["reference-not-a-suffix", "relative-import", "prefix-only-names"],
)
def test_guard_passes_names_that_only_resemble(tmp_path, source):
    assert _guard_findings(_package_with(tmp_path, source)) == []
