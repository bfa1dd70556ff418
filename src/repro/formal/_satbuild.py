"""Build and load the native SAT core (``_satcore.c``).

The same extension holds the AIG kernel the engine's encoder and PDR
lifter run on next to the core, so one artifact and one source hash
cover both.

:func:`load` returns the compiled ``_satcore`` module, building it first
when no artifact matches the current source.  The artifact lives in this
package's ``__pycache__`` (ignored by git), named by a hash of the C
source and the compile flags plus the interpreter's ``EXT_SUFFIX``, so a
matching build is loaded as is and never recompiled.  Building takes an
exclusive ``flock`` and publishes with ``os.replace``: processes starting
together (``serve`` and its worker agents, forked campaign tasks) build
once and never load a half-written file.

The compiler runs in a child interpreter (``python -I _satbuild.py SRC
OUT``) through setuptools' ``new_compiler``/``customize_compiler``, so
the standard ``CC``/``CFLAGS`` variables apply and setuptools never
enters the solving process.  Any failure raises; the caller
(:mod:`repro.formal.sat`) then falls back to the pure-Python solver.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import subprocess
import sys
import sysconfig
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_satcore.c"
#: On top of the interpreter's own CFLAGS (``-O3 -g`` here).  No FMA
#: contraction, so VSIDS activities round exactly as CPython's floats do.
EXTRA_CFLAGS = ["-ffp-contract=off"]
BUILD_TIMEOUT_S = 300


def artifact_path() -> Path:
    """Where the build of the current source (and flags) lives."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(EXTRA_CFLAGS).encode())
    return HERE / "__pycache__" / f"_satcore-{digest.hexdigest()[:16]}" \
        f"{_suffix()}"


def _suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def load():
    """The ``_satcore`` extension module, built first if needed."""
    path = artifact_path()
    if not path.exists():
        _build_locked(path)
    spec = importlib.util.spec_from_file_location(
        "repro.formal._satcore", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build_locked(path: Path) -> None:
    import fcntl

    path.parent.mkdir(exist_ok=True)
    with open(path.parent / "_satcore.lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if path.exists():          # another process built it meanwhile
            return
        partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(Path(__file__).resolve()),
                 str(SOURCE), str(partial)],
                stdin=subprocess.DEVNULL, capture_output=True, text=True,
                timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout).strip().splitlines()
                raise RuntimeError("compiling _satcore.c failed: "
                                   + (tail[-1] if tail else
                                      f"exit {proc.returncode}"))
            os.replace(partial, path)
        finally:
            if partial.exists():
                partial.unlink()
        # Builds of an older source for this interpreter are dead weight.
        for stale in path.parent.glob("_satcore-*" + _suffix()):
            if stale != path:
                stale.unlink(missing_ok=True)


def _compile(source: str, target: str) -> None:
    """Compile and link ``source`` into the extension file ``target``."""
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    import setuptools  # noqa: F401  (provides distutils on Python >= 3.12)
    from distutils.ccompiler import new_compiler
    from distutils.sysconfig import customize_compiler

    compiler = new_compiler()
    customize_compiler(compiler)
    with tempfile.TemporaryDirectory() as build_dir:
        objects = compiler.compile(
            [source], output_dir=build_dir,
            include_dirs=[sysconfig.get_paths()["include"]],
            extra_postargs=EXTRA_CFLAGS)
        compiler.link_shared_object(objects, target)


if __name__ == "__main__":
    _compile(sys.argv[1], sys.argv[2])
