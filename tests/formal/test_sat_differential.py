"""Differential tests: the native core against the PySolver reference.

The C core is a line-for-line port with identical heuristics, so for the
same call sequence both must return the same values, models, cores and
every deterministic counter (all of ``SolverStats`` but ``wall_time_s``).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.compile import CompileCache, compile_design
from repro.core import generate_ft
from repro.designs import case_by_id
from repro.formal import EngineConfig, FormalEngine, sat
from repro.formal.sat import PySolver, native_core

NATIVE = native_core()
pytestmark = pytest.mark.skipif(NATIVE is None,
                                reason="native SAT core unavailable")


def _counters(solver):
    stats = solver.stats.as_dict()
    stats.pop("wall_time_s")
    return stats


def _snapshot(solver):
    return (_counters(solver), solver.model(), list(solver.core),
            solver.num_vars, solver.num_clauses, solver.num_learned,
            solver.arena_ints)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:        # the error type must match too
        return ("raised", type(exc).__name__)


def _run_both(num_vars, ops, max_learnts=None):
    """Replay ``ops`` on both cores; assert equal after every step."""
    solvers = [PySolver(), NATIVE()]
    for solver in solvers:
        if max_learnts is not None:
            solver._max_learnts = max_learnts
        for _ in range(num_vars):
            solver.new_var()
    for op, arg in ops:
        results = [_outcome(lambda s=s: getattr(s, op)(arg))
                   for s in solvers]
        assert results[0] == results[1], (op, arg)
        assert _snapshot(solvers[0]) == _snapshot(solvers[1]), (op, arg)
    return solvers


def _random_3sat(rng, num_vars, ratio=4.26):
    clauses = []
    for _ in range(int(ratio * num_vars)):
        trio = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in trio])
    return clauses


literal = st.integers(min_value=-8, max_value=8).filter(lambda x: x != 0)
clause = st.lists(literal, min_size=1, max_size=4)
operation = st.one_of(
    st.tuples(st.just("add_clause"), clause),
    st.tuples(st.just("solve"), st.lists(literal, max_size=5)))


class TestDifferential:
    @given(st.lists(clause, max_size=30), st.lists(operation, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_random_cnf_and_assumption_sequences(self, clauses, ops):
        _run_both(8, [("add_clause", c) for c in clauses] + ops)

    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_small_max_learnts_forces_reductions(self, seed, max_learnts):
        """Constant reductions exercise the stable (lbd, size) sort."""
        rng = random.Random(seed)
        ops = [("add_clause", c) for c in _random_3sat(rng, 40)]
        ops += [("solve", [rng.choice([-1, 1]) * rng.randint(1, 40)
                           for _ in range(rng.randint(0, 3))])
                for _ in range(6)]
        solvers = _run_both(40, ops, max_learnts=max_learnts)
        if solvers[0].stats.conflicts > 2 * max_learnts:
            assert solvers[1].stats.reductions > 0

    def test_activity_rescale(self):
        """Enough conflicts to push VSIDS activity past 1e100 (a rescale
        every ~4,500 conflicts), then more queries on the rescaled state."""
        rng = random.Random(5)
        ops = [("add_clause", c) for c in _random_3sat(rng, 120)]
        ops += [("solve", [v * rng.choice([-1, 1])
                           for v in rng.sample(range(1, 121), 4)])
                for _ in range(40)]
        reference, _native = _run_both(120, ops)
        # Without a rescale var_inc would be exactly 0.95 ** -conflicts.
        assert reference._var_inc < 0.95 ** -reference.stats.conflicts / 2

    def test_invalid_literals_raise_alike(self):
        ops = [("add_clause", [0]), ("add_clause", [9]),
               ("add_clause", [-9]), ("add_clause", [2 ** 80]),
               ("add_clause", [1, -1, 9]),     # tautology before the bad one
               ("add_clause", [1.5]), ("add_clause", 3),
               ("solve", [9]), ("solve", [0]), ("solve", [-(2 ** 70)]),
               ("value", 9), ("value", -9), ("value", 0),
               ("value", 2 ** 80)]
        _run_both(8, ops)


def _check_all(case_id, variant):
    case = case_by_id(case_id)
    source = case.dut_source() if variant == "fixed" else case.buggy_source()
    ft = generate_ft(source, module_name=case.dut_module)
    sources = [source] + case.extra_sources() + ft.testbench_sources()
    compiled = compile_design(["\n".join(sources)], case.dut_module,
                              cache=CompileCache())
    engine = FormalEngine(compiled.system,
                          EngineConfig(max_bound=8, max_frames=30))
    report = engine.check_all()
    results = [(r.name, r.kind, r.status, r.depth, r.trace)
               for r in report.results]
    totals = dict(engine.solver_stats)
    delta = dict(report.solver)
    for counters in (totals, delta):
        counters.pop("wall_time_s", None)
    return results, totals, delta


@pytest.mark.parametrize("case_id, variant", [
    ("A2", "fixed"), ("A5", "buggy"), ("E10", "buggy")])
def test_engine_reports_equal_on_both_cores(case_id, variant, monkeypatch):
    """Whole check_all runs: same verdicts, depths, traces and counters."""
    monkeypatch.setattr(sat, "_new_core", NATIVE)
    native = _check_all(case_id, variant)
    monkeypatch.setattr(sat, "_new_core", PySolver)
    reference = _check_all(case_id, variant)
    assert native == reference
    assert native[1]["conflicts"] > 0
