"""The objects the kernel matrix runs on (``tests/test_native_matrix.py``).

- ``"loaded"``: what ``native.load()`` answers on this host (the lanes on
  an AVX-512 host);
- ``"scalar"``: the same source built with ``-DREPRO_NO_X16`` — the scalar
  loops alone, which that host would never pick;
- ``"asan"``: built with ``-fsanitize=address,undefined`` and run in a
  subprocess with the sanitizer runtime preloaded — any report fails;
- ``"twin"``: no object at all (``REPRO_NATIVE=0``), so every entry point
  runs its numpy twin;
- ``"lanes_off"``: built with ``-DREPRO_TEST_LANES_OFF`` — the lanes
  compiled in, the CPU checks answering "not here" and every lane
  function a trap — and run in a subprocess, so entering a lane function
  before its check crashes instead of passing.

Every alternative object is built by :func:`build` under a name that
hashes the source and its flags (``native._object_path``), so none of
them can be the one a production run loads.  A host without a C compiler
or a sanitizer runtime, or a run under ``REPRO_NATIVE=0``, skips them by
name.
"""

from __future__ import annotations

import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import native

OBJECTS = ("loaded", "scalar", "asan", "twin", "lanes_off")
#: Objects that run in a child interpreter, not in the test process.
IN_SUBPROCESS = ("asan", "lanes_off")

FLAGS = {
    "scalar": native._CFLAGS + ("-DREPRO_NO_X16",),
    "lanes_off": native._CFLAGS + ("-DREPRO_TEST_LANES_OFF",),
    "asan": (
        "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off", "-fPIC", "-shared",
        "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
    ),
}

ROOT = Path(__file__).resolve().parents[1]


def _native_disabled() -> bool:
    return os.environ.get("REPRO_NATIVE", "1") == "0"


def _sanitizer_runtime() -> str:
    """The sanitizer runtime to preload, or ``""`` when there is none."""
    cc = next((cc for cc in native._compilers() if shutil.which(cc)), None)
    if cc is None:
        return ""
    found = subprocess.run(
        [cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    # An unresolved name comes back as given; a linker script is no preload.
    return os.path.realpath(found) if os.path.isabs(found) and os.path.exists(found) else ""


def child_env(name: str) -> dict[str, str]:
    """The environment an object's child interpreter runs under."""
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        REPRO_NATIVE="0",  # the child binds the object itself
    )
    if name == "asan":
        env.update(
            LD_PRELOAD=_sanitizer_runtime(),
            # CPython never frees everything; leaks are not what this hunts.
            ASAN_OPTIONS="detect_leaks=0:abort_on_error=0:exitcode=99",
            UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1",
        )
    return env


@functools.cache
def _built(name: str) -> tuple[Path | None, str]:
    """The named object, compiled once, or why this host cannot build or
    run it (cached too: a host without a sanitizer tries once)."""
    if name == "asan" and not _sanitizer_runtime():
        return None, "toolchain has no libasan.so (sanitizer runtime not installed)"
    sofile = native._object_path(FLAGS[name])
    if not sofile.exists():
        try:
            native._compile(FLAGS[name], sofile)
        except native._Unavailable as exc:
            return None, f"cannot build the {name} object: {exc}"
    if name == "asan":
        # The runtime must preload into this interpreter and the object
        # load under it — a toolchain matter, not a kernel one.
        loaded = subprocess.run(
            [sys.executable, "-c", "import ctypes, sys; ctypes.CDLL(sys.argv[1])", str(sofile)],
            env=child_env(name), capture_output=True, text=True, timeout=60,
        )
        if loaded.returncode != 0:
            return None, f"cannot preload the sanitizer runtime: {loaded.stderr[-300:]!r}"
    return sofile, ""


def build(name: str) -> Path:
    """The named alternative object; a named skip when this host cannot
    build or run it."""
    if _native_disabled():
        pytest.skip("REPRO_NATIVE=0: no kernel object is built")
    sofile, reason = _built(name)
    if sofile is None:
        pytest.skip(reason)
    return sofile


@functools.cache
def _scalar():
    lib = native._bind(build("scalar"))
    native._probe(lib)  # a build without lanes that fails the probe fails here
    return lib


def bind(name: str, monkeypatch: pytest.MonkeyPatch):
    """Make ``native.load()`` answer an in-process object for the rest
    of a test; returns it (``None`` for the twins)."""
    if name == "loaded":
        lib = native.load()
        if lib is None:
            pytest.skip("REPRO_NATIVE=0" if _native_disabled() else "no kernel on this host")
    elif name == "scalar":
        lib = _scalar()
    elif name == "twin":
        lib = None
    else:
        raise ValueError(f"{name!r} runs in a subprocess")
    monkeypatch.setattr(native, "_lib", lib)
    monkeypatch.setattr(native, "_loaded", True)
    return lib
