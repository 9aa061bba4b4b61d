"""Call census: which functions of ``src/`` the paper's runs reach.

``python3 benchmarks/census.py [--out DIR]``

Every *leg* below runs as a child process whose interpreter carries a
profile hook: a ``sitecustomize`` module on ``PYTHONPATH`` that installs
``sys.setprofile`` / ``threading.setprofile`` before anything else is
imported and, at exit, writes the ``(module, first line)`` of every code
object under ``src/`` it saw called.  ``PYTHONPATH`` is inherited, so
grandchildren — the perf driver's per-workload processes, ``serve`` and
its ``join``\\ s, the examples a test starts — report too.

Every function ``def`` in ``src/`` (methods and nested functions
included) is then classified: reached iff some process called a code
object starting at its first line (the first decorator's line for a
decorated function — that is what ``co_firstlineno`` holds).  Lines are
counted from that first line to the end of the body; a function nested
in an unreached one is not counted twice.

The result is ``DIR/BENCH_size.json`` (the ``bench_schema.py`` report,
unit ``count``): the size of ``src/`` (Python lines and modules, C lines, ``__all__`` symbols), the
number of tier-1 test ids, functions and unreached functions, unreached
lines per module, and how many legs failed.  Each leg's environment,
exit status and wall time are in the report's ``config``, with the list
of unreached functions.  The census exits 1 if any leg fails: a leg that
did not run to the end proves nothing about what it would have reached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
PACKAGE_DIR = SRC_DIR / "repro"
LEG_TIMEOUT_S = 1800

#: The hook every leg's interpreters import first (as ``sitecustomize``).
HOOK = '''\
import atexit
import json
import os
import sys
import threading

_SRC = os.environ["REPRO_CENSUS_SRC"]
_OUT = os.environ["REPRO_CENSUS_HITS"]
_codes = set()


def _hook(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    prefix = _SRC + os.sep
    hits = set()
    for code in list(_codes):
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            hits.add((path[len(prefix):], code.co_firstlineno))
    with open(os.path.join(_OUT, "hits-%d.json" % os.getpid()), "w") as fh:
        json.dump(sorted(hits), fh)


atexit.register(_dump)
threading.setprofile(_hook)
sys.setprofile(_hook)
'''

#: A fresh build of the native object into the census's own directory:
#: a build cached in the checkout would hide the compile path.
NATIVE_BUILD = '''\
import sys
from pathlib import Path
from repro import native
native._BUILD_DIR = Path(sys.argv[1])
assert native.load() is not None, "the native object did not build and load"
'''

#: One ``malicious=True`` SecAgg round and one XNoise round: signatures,
#: the PKI and the consistency check run in no other leg.
MALICIOUS_ROUNDS = '''\
import numpy as np
from repro.secagg import DropoutSchedule, SecAggConfig, run_secagg_round
from repro.xnoise import XNoiseConfig, run_xnoise_round

config = SecAggConfig(threshold=4, bits=18, dimension=64, malicious=True,
                      dh_group="modp512")
rng = np.random.default_rng(0)
inputs = {u: rng.integers(0, config.modulus, size=64) for u in range(1, 7)}
result = run_secagg_round(config, inputs, DropoutSchedule.before_upload({5}))
expected = sum(inputs[u] for u in result.u3) % config.modulus
assert set(result.u3) == {1, 2, 3, 4, 6}, result.u3
assert np.array_equal(result.aggregate, expected)

xconfig = XNoiseConfig(secagg=config, n_sampled=6, tolerance=2,
                       target_variance=400.0)
signals = {u: rng.integers(-10, 11, size=64) for u in range(1, 7)}
xresult = run_xnoise_round(xconfig, signals, DropoutSchedule.before_upload({5}))
assert abs(xresult.residual_variance - 400.0) < 1e-9, xresult.residual_variance
print("malicious secagg + xnoise rounds verified")
'''


@dataclass(frozen=True)
class Leg:
    """One child process the census runs under the hook."""

    name: str
    argv: tuple[str, ...]
    env: dict[str, str] = field(default_factory=dict)


def _cli(*args: str) -> tuple[str, ...]:
    return (sys.executable, "-m", "repro.cli", *args)


def legs(scratch: Path) -> list[Leg]:
    """Every leg, in the order they run; ``scratch`` takes their outputs."""
    py = sys.executable
    perf = str(REPO_ROOT / "benchmarks" / "perf" / "run.py")
    found: list[Leg] = [
        Leg("native-build", (py, "-c", NATIVE_BUILD, str(scratch / "native"))),
        Leg("perf", (py, perf, "--seconds", "1", "--out", str(scratch / "perf"))),
    ]
    for workload in ("wide_model", "dordis_round"):
        found.append(Leg(
            f"perf-{workload}-native0",
            (py, perf, "--workload", workload, "--seconds", "1", "--trace", "0"),
            {"REPRO_NATIVE": "0"},
        ))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        found.append(Leg(f"example-{example.stem}", (py, str(example))))
    figures = sorted(
        str(p) for p in (REPO_ROOT / "benchmarks").glob("test_*.py")
    )
    found += [
        Leg("figures", (py, "-m", "pytest", "-q", "-p", "no:cacheprovider", *figures)),
        Leg("cli-run-xnoise", _cli(
            "run", "--num-clients", "12", "--sample-size", "6", "--rounds", "3",
            "--strategy", "xnoise",
        )),
        Leg("cli-run-skellam-sockets", _cli(
            "run", "--num-clients", "12", "--sample-size", "6", "--rounds", "2",
            "--mechanism", "skellam", "--transport", "sockets",
        )),
        Leg("cli-plan", _cli(
            "plan", "--rounds", "50", "--epsilon", "6", "--delta", "1e-5",
            "--mechanism", "skellam",
        )),
        Leg("cli-pipeline", _cli(
            "pipeline", "--clients", "100", "--model-size", "1000000", "--xnoise",
        )),
        Leg("cli-check", _cli("check")),
        Leg("micro", (
            py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(REPO_ROOT / "benchmarks" / "micro" / "test_micro.py"),
        )),
        Leg("serve-join", (py, str(Path(__file__).resolve()), "--drive-serve")),
        Leg("malicious-rounds", (py, "-c", MALICIOUS_ROUNDS)),
    ]
    return found


def drive_serve(clients: int = 3) -> int:
    """``serve`` with ``clients`` ``join`` processes dialing it."""
    serve = subprocess.Popen(
        _cli("serve", "--clients", str(clients), "--json"),
        stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT,
    )
    first = serve.stdout.readline().split()
    if first[:1] != ["listening"]:
        serve.kill()
        print(f"serve printed {first!r}, not 'listening HOST PORT'", file=sys.stderr)
        return 1
    port = first[2]
    joins = [
        subprocess.Popen(
            _cli("join", "--client-id", str(k), "--clients", str(clients), "--port", port),
            stdout=subprocess.DEVNULL, cwd=REPO_ROOT,
        )
        for k in range(1, clients + 1)
    ]
    codes = [j.wait(timeout=LEG_TIMEOUT_S) for j in joins]
    report = json.loads(serve.stdout.read().splitlines()[-1])
    codes.append(serve.wait(timeout=LEG_TIMEOUT_S))
    print(f"serve/join exit codes {codes}, aggregate_ok={report['aggregate_ok']}")
    return 0 if not any(codes) and report["aggregate_ok"] else 1


def run_leg(leg: Leg, hook_dir: Path, hits_dir: Path) -> tuple[int, float]:
    """Run one leg under the hook; returns its exit status and wall time."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    paths = [str(hook_dir), str(SRC_DIR)] + ([extra] if extra else [])
    env.update(leg.env)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_CENSUS_SRC"] = os.path.realpath(SRC_DIR)
    env["REPRO_CENSUS_HITS"] = str(hits_dir)
    started = time.perf_counter()
    done = subprocess.run(
        leg.argv, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=LEG_TIMEOUT_S,
    )
    if done.returncode != 0:
        print(done.stdout[-4000:], file=sys.stderr)
    return done.returncode, time.perf_counter() - started


def read_hits(hits_dir: Path) -> set[tuple[str, int]]:
    """The union of every process's ``(module, first line)`` hits."""
    hits: set[tuple[str, int]] = set()
    for path in hits_dir.glob("hits-*.json"):
        hits.update((module, line) for module, line in json.loads(path.read_text()))
    return hits


@dataclass(frozen=True)
class Function:
    """One ``def`` in a module: where its code object starts and ends."""

    module: str  # path under src/, e.g. "repro/dp/skellam.py"
    qualname: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    last: int


def functions_in(source: str, module: str) -> list[Function]:
    """Every function ``def`` in ``source``, nested and methods included."""
    found: list[Function] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found.append(Function(module, name, first, child.end_lineno))
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def unreached(functions: list[Function], hits: set[tuple[str, int]]) -> list[Function]:
    """The functions no process called."""
    return [f for f in functions if (f.module, f.first) not in hits]


def unreached_lines(functions: list[Function]) -> dict[str, int]:
    """Lines per module the given functions span, each line counted once."""
    lines: dict[str, set[int]] = {}
    for f in functions:
        lines.setdefault(f.module, set()).update(range(f.first, f.last + 1))
    return {module: len(covered) for module, covered in sorted(lines.items())}


def public_symbols(tree: ast.Module) -> int:
    """Entries of a module's ``__all__`` list or tuple (0 without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            return len(node.value.elts)
    return 0


def tier1_test_ids() -> int:
    """How many tests the tier-1 command collects."""
    done = subprocess.run(
        (sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider"),
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=LEG_TIMEOUT_S,
    )
    last = [line for line in done.stdout.splitlines() if "collected" in line]
    if done.returncode != 0 or not last:
        raise RuntimeError(f"test collection failed:\n{done.stdout[-2000:]}")
    return int(last[-1].split()[0])


def census(hits: set[tuple[str, int]]) -> tuple[dict[str, int], list[Function]]:
    """Size counts of ``src/`` and the functions ``hits`` does not reach."""
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    functions: list[Function] = []
    python_lines = symbols = 0
    for path in modules:
        source = path.read_text()
        module = path.relative_to(SRC_DIR).as_posix()
        python_lines += len(source.splitlines())
        symbols += public_symbols(ast.parse(source))
        functions += functions_in(source, module)
    c_lines = sum(
        len(p.read_text().splitlines())
        for p in sorted(PACKAGE_DIR.rglob("*"))
        if p.suffix in (".c", ".h") and "_build" not in p.parts
    )
    missed = unreached(functions, hits)
    counts = {
        "src_python_lines": python_lines,
        "src_modules": len(modules),
        "c_lines": c_lines,
        "public_symbols": symbols,
        "functions": len(functions),
        "unreached_functions": len(missed),
    }
    per_module = unreached_lines(missed)
    counts["unreached_lines"] = sum(per_module.values())
    for module, lines in per_module.items():
        counts["unreached_lines." + module.removesuffix(".py").replace("/", ".")] = lines
    return counts, missed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=".", help="directory for BENCH_size.json")
    parser.add_argument("--drive-serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.drive_serve:
        return drive_serve()
    from bench_schema import make_report, metric, write_bench

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        hook_dir, hits_dir = scratch / "hook", scratch / "hits"
        for d in (hook_dir, hits_dir, scratch / "perf"):
            d.mkdir()
        (hook_dir / "sitecustomize.py").write_text(HOOK)
        ran = {}
        for leg in legs(scratch):
            code, seconds = run_leg(leg, hook_dir, hits_dir)
            ran[leg.name] = {"env": leg.env, "exit": code, "seconds": round(seconds, 1)}
            print(f"{leg.name:32s} exit {code}  {seconds:7.1f} s", flush=True)
        hits = read_hits(hits_dir)

    counts, missed = census(hits)
    counts["tier1_test_ids"] = tier1_test_ids()
    counts["legs_failed"] = sum(1 for leg in ran.values() if leg["exit"] != 0)
    config = {
        "legs": ran,
        "unreached": [f"{f.module}:{f.qualname}:{f.first}-{f.last}" for f in missed],
    }
    report = make_report("size", config, {k: metric(v, "count") for k, v in counts.items()})
    path = write_bench(report, args.out)
    for name in ("src_python_lines", "src_modules", "c_lines", "public_symbols",
                 "tier1_test_ids", "functions", "unreached_functions",
                 "unreached_lines", "legs_failed"):
        print(f"{name:24s} {counts[name]:>8,d}")
    print(f"wrote {path}")
    return 1 if counts["legs_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
