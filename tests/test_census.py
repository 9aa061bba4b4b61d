"""The call census's classifier (``benchmarks/census.py``), on a
synthetic module and a hand-made hit set — no leg runs."""

import ast
import importlib.util
import inspect
import json
import sys
import textwrap
import types
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _PATH)
census = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("census", census)  # dataclasses look their module up
_spec.loader.exec_module(census)

SOURCE = textwrap.dedent('''\
    import functools


    def plain(x):
        return x


    @functools.lru_cache(
        maxsize=None,
    )
    def decorated(x):
        return x


    class Box:
        def method(self):
            def helper():
                return 1

            return helper()

        @property
        def size(self):
            return 0


    def outer():
        def inner():
            def innermost():
                return 2

            return innermost()

        return inner()


    async def fetch():
        return None
    ''')
MODULE = "repro/synthetic.py"


def _firstlines(code: types.CodeType) -> set[int]:
    """``co_firstlineno`` of every function code object under ``code``
    (a class body's code has no fresh locals and is not a function)."""
    found = set()
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS:
                found.add(const.co_firstlineno)
            found |= _firstlines(const)
    return found


def _by_name():
    return {f.qualname: f for f in census.functions_in(SOURCE, MODULE)}


def test_every_def_is_found_with_its_qualified_name():
    assert set(_by_name()) == {
        "plain",
        "decorated",
        "Box.method",
        "Box.method.<locals>.helper",
        "Box.size",
        "outer",
        "outer.<locals>.inner",
        "outer.<locals>.inner.<locals>.innermost",
        "fetch",
    }


def test_first_lines_are_the_interpreters_co_firstlineno():
    functions = _by_name()
    # A decorated function's code object starts at its first decorator.
    assert functions["decorated"].first == 8
    assert functions["Box.size"].first == 22
    assert functions["plain"].first == 4
    assert {f.first for f in functions.values()} == _firstlines(
        compile(SOURCE, MODULE, "exec")
    )


def test_a_hit_at_the_first_line_is_what_reaches_a_function():
    functions = census.functions_in(SOURCE, MODULE)
    by_name = _by_name()
    hits = {
        (MODULE, by_name["decorated"].first),
        (MODULE, by_name["Box.method"].first),
        (MODULE, by_name["Box.method.<locals>.helper"].first),
        (MODULE, by_name["outer"].first),
        # The def line of a decorated function is not where its code starts.
        (MODULE, by_name["Box.size"].first + 1),
        # Another module's hit at a matching line reaches nothing here.
        ("repro/other.py", by_name["fetch"].first),
    }
    missed = {f.qualname for f in census.unreached(functions, hits)}
    assert missed == {
        "plain",
        "Box.size",
        "outer.<locals>.inner",
        "outer.<locals>.inner.<locals>.innermost",
        "fetch",
    }


def test_unreached_lines_count_a_nested_function_once():
    by_name = _by_name()
    inner = by_name["outer.<locals>.inner"]
    innermost = by_name["outer.<locals>.inner.<locals>.innermost"]
    fetch = by_name["fetch"]
    lines = census.unreached_lines([inner, innermost, fetch])
    assert lines == {MODULE: (inner.last - inner.first + 1) + (fetch.last - fetch.first + 1)}
    assert census.unreached_lines([]) == {}


NESTED = textwrap.dedent('''\
    def factory():
        class Local:
            def method(self):
                return 1

            class Inner:
                @staticmethod
                def deep():
                    return 2

        key = lambda item: item
        return Local, key


    class Outer:
        async def run(self):
            async def step():
                return 3

            return await step()
    ''')


def _qualnames(code: types.CodeType) -> dict[int, str]:
    """``{co_firstlineno: co_qualname}`` of every function code object
    under ``code``, lambdas left out (they have no ``def``)."""
    found = {}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_NEWLOCALS and const.co_name != "<lambda>":
                found[const.co_firstlineno] = const.co_qualname
            found.update(_qualnames(const))
    return found


def test_qualified_names_are_the_interpreters_co_qualname():
    functions = census.functions_in(NESTED, MODULE)
    assert {f.first: f.qualname for f in functions} == _qualnames(
        compile(NESTED, MODULE, "exec")
    )
    assert "factory.<locals>.Local.Inner.deep" in {f.qualname for f in functions}


def test_a_lambda_is_not_a_function_of_the_census():
    names = {f.qualname for f in census.functions_in(NESTED, MODULE)}
    assert not any("<lambda>" in name for name in names)
    assert len(names) == 5


def test_last_line_is_the_end_of_the_body():
    by_name = {f.qualname: f for f in census.functions_in(NESTED, MODULE)}
    assert (by_name["factory"].first, by_name["factory"].last) == (1, 12)
    assert (by_name["Outer.run"].first, by_name["Outer.run"].last) == (16, 20)


@pytest.mark.parametrize(
    "source, count",
    [
        ("__all__ = ['a', 'b', 'c']\n", 3),
        ("__all__ = ('a',)\n", 1),
        ("x = 1\n", 0),
        ("__all__ = sorted(['a', 'b'])\n", 0),
        ("def f():\n    __all__ = ['a']\n", 0),
    ],
    ids=["list", "tuple", "absent", "computed", "not-module-level"],
)
def test_public_symbols_counts_a_literal_module_level_all(source, count):
    assert census.public_symbols(ast.parse(source)) == count


def test_hits_of_every_process_are_unioned(tmp_path):
    (tmp_path / "hits-1.json").write_text(json.dumps([["repro/a.py", 3], ["repro/b.py", 9]]))
    (tmp_path / "hits-2.json").write_text(json.dumps([["repro/a.py", 3], ["repro/a.py", 7]]))
    (tmp_path / "other.json").write_text(json.dumps([["repro/c.py", 1]]))
    assert census.read_hits(tmp_path) == {
        ("repro/a.py", 3),
        ("repro/a.py", 7),
        ("repro/b.py", 9),
    }


TRACED = textwrap.dedent('''\
    import threading


    def direct():
        return 1


    def in_a_thread():
        return 2


    def never():
        return 3
    ''')


def _hooked(tmp_path, monkeypatch):
    """A source tree holding ``TRACED`` and the hook, as ``main`` lays
    them out; returns ``(hook_dir, hits_dir)``."""
    src = tmp_path / "src"
    src.mkdir()
    # A name no other sys.path entry holds (an inherited PYTHONPATH may
    # carry the real src/, whose regular ``repro`` package would win).
    (src / "census_traced.py").write_text(TRACED)
    hook_dir, hits_dir = tmp_path / "hook", tmp_path / "hits"
    hook_dir.mkdir()
    hits_dir.mkdir()
    (hook_dir / "sitecustomize.py").write_text(census.HOOK)
    monkeypatch.setattr(census, "SRC_DIR", src)
    return hook_dir, hits_dir


def test_a_leg_reports_what_it_called_threads_included(tmp_path, monkeypatch):
    hook_dir, hits_dir = _hooked(tmp_path, monkeypatch)
    script = (
        "import threading\n"
        "import census_traced\n"
        "census_traced.direct()\n"
        "t = threading.Thread(target=census_traced.in_a_thread)\n"
        "t.start(); t.join()\n"
    )
    leg = census.Leg("synthetic", (sys.executable, "-c", script))
    code, seconds = census.run_leg(leg, hook_dir, hits_dir)
    assert code == 0 and seconds >= 0
    functions = census.functions_in(TRACED, "census_traced.py")
    missed = census.unreached(functions, census.read_hits(hits_dir))
    assert [f.qualname for f in missed] == ["never"]


def test_a_failing_leg_reports_its_status_and_its_env(tmp_path, monkeypatch):
    hook_dir, hits_dir = _hooked(tmp_path, monkeypatch)
    script = "import os, sys; sys.exit(int(os.environ['CENSUS_TEST_EXIT']))"
    leg = census.Leg("failing", (sys.executable, "-c", script), {"CENSUS_TEST_EXIT": "3"})
    code, _ = census.run_leg(leg, hook_dir, hits_dir)
    assert code == 3
    # The hook still dumps at exit; nothing under src/ was called.
    assert census.read_hits(hits_dir) == set()


def test_legs_cover_every_run_of_the_paper(tmp_path):
    found = census.legs(tmp_path)
    names = [leg.name for leg in found]
    assert len(names) == len(set(names))
    examples = sorted(p.stem for p in (_PATH.parent.parent / "examples").glob("*.py"))
    assert [n.removeprefix("example-") for n in names if n.startswith("example-")] == examples
    for name in ("native-build", "perf", "figures", "cli-run-xnoise",
                 "cli-run-skellam-sockets", "cli-plan", "cli-pipeline", "cli-check",
                 "cli-bench", "serve-join", "malicious-rounds"):
        assert name in names
    native0 = [leg for leg in found if leg.name.endswith("-native0")]
    assert {leg.name for leg in native0} == {
        "perf-wide_model-native0",
        "perf-dordis_round-native0",
    }
    assert all(leg.env == {"REPRO_NATIVE": "0"} for leg in native0)
    assert all(leg.argv[0] == sys.executable for leg in found)
