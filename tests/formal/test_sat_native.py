"""Safety of the native SAT core: memory, int32 arena, signals, the build.

The C core must fail like Python code does — a ``MemoryError`` or an
``OverflowError``, never an abort or a silently wrapped offset — and stay
usable afterwards; Ctrl-C must interrupt a long solve; and the on-demand
build must compile once, however many processes start together.
"""

import os
import random
import shutil
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import scheduler
from repro.formal import _satbuild
from repro.formal.sat import PySolver, native_core

NATIVE = native_core()
pytestmark = pytest.mark.skipif(NATIVE is None,
                                reason="native SAT core unavailable")


def _pigeonhole(solver, holes):
    """PHP(holes + 1, holes), every clause guarded by an activation var."""
    act = solver.new_var()
    x = {(p, h): solver.new_var()
         for p in range(holes + 1) for h in range(holes)}
    for p in range(holes + 1):
        solver.add_clause([-act] + [x[p, h] for h in range(holes)])
    for h in range(holes):
        for p in range(holes + 1):
            for q in range(p + 1, holes + 1):
                solver.add_clause([-act, -x[p, h], -x[q, h]])
    return act


def _vm_size_mb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1]) // 1024
    raise RuntimeError("no VmSize")


def _grow_arena(_job):
    solver = NATIVE()
    lits = [solver.new_var() for _ in range(1000)]
    try:
        while True:
            solver.add_clause(lits)
    except MemoryError:
        # The failed growth left the solver consistent.
        assert solver.solve()
        raise


def _child(conn):
    scheduler._child_main(conn, _grow_arena, None, _vm_size_mb() + 64)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc for the address-space size")
def test_allocation_failure_is_memory_limit_exceeded():
    """Under the worker's RLIMIT_AS envelope a failed allocation in the C
    core surfaces as MemoryError, which the envelope reports."""
    context = scheduler.fork_context()
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child, args=(sender,))
    process.start()
    sender.close()
    status, payload, error, _obs = receiver.recv()
    process.join(30)
    assert process.exitcode == 0
    assert (status, payload) == ("error", None)
    assert "memory limit" in error and "exceeded" in error


class TestArenaLimit:
    def test_default_is_the_int32_range(self):
        assert NATIVE()._arena_limit == 2 ** 31 - 1

    def test_problem_clause_past_the_limit_raises(self):
        solver = NATIVE()
        a, b, c = (solver.new_var() for _ in range(3))
        solver._arena_limit = 40        # sentinel + 7 clauses of 3
        for _ in range(7):
            assert solver.add_clause([a, b, c])
        with pytest.raises(OverflowError):
            solver.add_clause([a, b, c])
        assert solver.arena_ints == 37 and solver.num_clauses == 7
        assert solver.solve()

    def test_learned_clause_past_the_limit_raises(self):
        rng = random.Random(3)
        solvers = [PySolver(), NATIVE()]
        for solver in solvers:
            for _ in range(60):
                solver.new_var()
        for _ in range(256):
            trio = rng.sample(range(1, 61), 3)
            clause = [v if rng.random() < 0.5 else -v for v in trio]
            for solver in solvers:
                solver.add_clause(clause)
        reference, native = solvers
        native._arena_limit = native.arena_ints
        with pytest.raises(OverflowError):
            native.solve()
        # Nothing was learned past the limit, and lifting it resumes the
        # search soundly.
        assert native.arena_ints == native._arena_limit
        native._arena_limit = 2 ** 31 - 1
        assert native.solve() == reference.solve()


def test_ctrl_c_interrupts_a_long_solve_and_leaves_it_usable():
    solver = NATIVE()
    act = _pigeonhole(solver, 9)        # about a minute to refute

    def interrupt(_signum, _frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.3)
    try:
        with pytest.raises(KeyboardInterrupt):
            solver.solve([act])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert solver.stats.solve_calls == 1 and solver.stats.restarts > 0
    assert solver.solve([-act])
    assert solver.value(act) is False


# -- the build ------------------------------------------------------------

LOAD = ("import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('b', sys.argv[1])\n"
        "builder = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(builder)\n"
        "print(builder.load().Solver.__name__)\n")


def _fresh_builder(tmp_path: Path) -> Path:
    """A copy of the builder and the C source with no artifact yet."""
    package = tmp_path / "pkg"
    package.mkdir()
    for source in (_satbuild.HERE / "_satbuild.py", _satbuild.SOURCE):
        shutil.copy(source, package / source.name)
    return package / "_satbuild.py"


def _load(builder: Path, **env):
    return subprocess.Popen([sys.executable, "-c", LOAD, str(builder)],
                            env=dict(os.environ, **env),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_concurrent_first_use_compiles_once(tmp_path):
    builder = _fresh_builder(tmp_path)
    calls = tmp_path / "cc-calls"
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\necho "$*" >> {calls}\nexec gcc "$@"\n')
    cc.chmod(cc.stat().st_mode | stat.S_IEXEC)
    loaders = [_load(builder, CC=str(cc)) for _ in range(2)]
    outputs = [loader.communicate(timeout=300) for loader in loaders]
    assert [loader.returncode for loader in loaders] == [0, 0], outputs
    compiles = [line for line in calls.read_text().splitlines()
                if " -c " in f" {line} "]
    assert len(compiles) == 1
    cache = builder.parent / "__pycache__"
    assert [p.name for p in cache.iterdir() if p.name != "_satcore.lock"] \
        == [_satbuild.artifact_path().name]
    # A matching artifact is loaded, never rebuilt: no compiler needed.
    late = _load(builder, CC="false")
    assert late.communicate(timeout=60)[0].strip() == "Solver"


def test_failed_build_raises_for_the_fallback(tmp_path):
    loader = _load(_fresh_builder(tmp_path), CC="false")
    _out, err = loader.communicate(timeout=120)
    assert loader.returncode != 0
    assert "compiling _satcore.c failed" in err
