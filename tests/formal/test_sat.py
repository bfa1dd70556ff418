"""Unit and property-based tests for the CDCL SAT solver.

Each solver test class runs on the PySolver reference; its ``...Native``
twin at the bottom runs the same tests on the C core (skipped when the
core cannot be built here).
"""

import itertools
import logging

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.formal import sat
from repro.formal.sat import PySolver, Solver, luby, native_core

NATIVE = native_core()
#: The ``...Native`` twins run the same @given methods from a second class;
#: the drawn examples do not depend on which core runs them.
SHARED = [HealthCheck.differing_executors]


class TestBasics:
    make = staticmethod(PySolver)

    def test_empty_formula_is_sat(self):
        assert self.make().solve()

    def test_single_unit(self):
        s = self.make()
        a = s.new_var()
        assert s.add_clause([a])
        assert s.solve()
        assert s.value(a) is True

    def test_contradictory_units(self):
        s = self.make()
        a = s.new_var()
        assert s.add_clause([a])
        assert not s.add_clause([-a])
        assert not s.solve()

    def test_implication_chain(self):
        s = self.make()
        vs = [s.new_var() for _ in range(10)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([-x, y])
        s.add_clause([vs[0]])
        assert s.solve()
        assert all(s.value(v) for v in vs)

    def test_simple_unsat(self):
        s = self.make()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([a, -b])
        s.add_clause([-a, b])
        s.add_clause([-a, -b])
        assert not s.solve()

    def test_tautology_ignored(self):
        s = self.make()
        a = s.new_var()
        assert s.add_clause([a, -a])
        assert s.solve()

    def test_duplicate_literals_collapse(self):
        s = self.make()
        a = s.new_var()
        assert s.add_clause([a, a, a])
        assert s.solve()
        assert s.value(a) is True

    def test_invalid_literal_rejected(self):
        s = self.make()
        s.new_var()
        with pytest.raises(ValueError):
            s.add_clause([0])
        with pytest.raises(ValueError):
            s.add_clause([5])

    def test_model_covers_all_vars(self):
        s = self.make()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a])
        s.add_clause([b])
        assert s.solve()
        assert set(s.model()) == {a, b}


class TestAssumptions:
    make = staticmethod(PySolver)

    def test_sat_under_assumption(self):
        s = self.make()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert s.solve(assumptions=[a])
        assert s.value(b) is True

    def test_unsat_under_assumption_then_sat(self):
        s = self.make()
        a, b = s.new_var(), s.new_var()
        s.add_clause([-a, b])
        assert not s.solve(assumptions=[a, -b])
        # The solver must remain usable.
        assert s.solve(assumptions=[a])
        assert s.solve(assumptions=[-b])
        assert s.value(a) is False

    def test_conflicting_assumptions(self):
        s = self.make()
        a = s.new_var()
        assert not s.solve(assumptions=[a, -a])

    def test_core_is_subset_of_assumptions(self):
        s = self.make()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        s.add_clause([-a, -b])
        assert not s.solve(assumptions=[a, b, c])
        assert set(s.core) <= {a, b, c}

    def test_incremental_reuse(self):
        s = self.make()
        vs = [s.new_var() for _ in range(8)]
        for x, y in zip(vs, vs[1:]):
            s.add_clause([-x, y])
        for _ in range(5):
            assert s.solve(assumptions=[vs[0]])
            assert s.value(vs[-1]) is True
            assert not s.solve(assumptions=[vs[0], -vs[-1]])

    def test_invalid_assumption_rejected(self):
        s = self.make()
        s.new_var()
        with pytest.raises(ValueError):
            s.solve(assumptions=[7])


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == \
            [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _brute_force(num_vars, clauses):
    """Reference SAT decision by enumeration."""
    for bits in itertools.product([False, True], repeat=num_vars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


@st.composite
def cnf_instances(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * draw(st.sampled_from([1, -1]))
            for _ in range(width)
        ]
        clauses.append(clause)
    return num_vars, clauses


class TestAgainstBruteForce:
    make = staticmethod(PySolver)

    @given(cnf_instances())
    @settings(max_examples=150, deadline=None, suppress_health_check=SHARED)
    def test_matches_enumeration(self, instance):
        num_vars, clauses = instance
        s = self.make()
        for _ in range(num_vars):
            s.new_var()
        ok = True
        for clause in clauses:
            ok = s.add_clause(clause) and ok
        result = s.solve() if ok else False
        assert result == _brute_force(num_vars, clauses)
        if result:
            # The model must actually satisfy every clause.
            for clause in clauses:
                assert any(s.value(l) for l in clause)

    @given(cnf_instances(), st.lists(st.integers(min_value=1, max_value=6),
                                     max_size=3))
    @settings(max_examples=100, deadline=None, suppress_health_check=SHARED)
    def test_assumptions_match_added_units(self, instance, assumption_vars):
        num_vars, clauses = instance
        assumptions = [v for v in assumption_vars if v <= num_vars]
        s = self.make()
        for _ in range(num_vars):
            s.new_var()
        ok = True
        for clause in clauses:
            ok = s.add_clause(clause) and ok
        under_assumptions = s.solve(assumptions=assumptions) if ok else False
        expected = _brute_force(num_vars,
                                clauses + [[a] for a in assumptions])
        assert under_assumptions == expected


class TestIncrementalAssumptionSequences:
    """Trail reuse across shifting assumption sets must never change
    answers: one incremental solver vs a fresh solver per query."""
    make = staticmethod(PySolver)


    @given(cnf_instances(),
           st.lists(st.lists(st.integers(min_value=-6, max_value=6)
                             .filter(lambda x: x != 0),
                             max_size=4),
                    min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None, suppress_health_check=SHARED)
    def test_matches_fresh_solver_per_query(self, instance, queries):
        num_vars, clauses = instance
        incremental = self.make()
        for _ in range(num_vars):
            incremental.new_var()
        ok = True
        for clause in clauses:
            ok = incremental.add_clause(clause) and ok
        for assumptions in queries:
            assumptions = [a for a in assumptions
                           if abs(a) <= num_vars]
            got = incremental.solve(assumptions=assumptions) if ok else False
            expected = _brute_force(
                num_vars, clauses + [[a] for a in assumptions])
            assert got == expected, (clauses, assumptions)
            if got:
                for clause in clauses:
                    assert any(incremental.value(l) for l in clause)
                for a in assumptions:
                    assert incremental.value(a) is True


class TestLearnedClauseReduction:
    make = staticmethod(PySolver)

    def _hard_chain(self, s, n=60):
        """A random 3-SAT instance near the phase transition: enough real
        conflict-driven learning that clauses with LBD above the glue
        threshold exist when reduction triggers."""
        import random
        rng = random.Random(11)
        vs = [s.new_var() for _ in range(n)]
        clauses = []
        for _ in range(int(4.3 * n)):
            trio = rng.sample(vs, 3)
            clause = [v if rng.random() < 0.5 else -v for v in trio]
            clauses.append(clause)
        return vs, clauses

    def test_reduction_preserves_answers(self):
        eager = self.make()
        eager._max_learnts = 10          # reduce constantly
        lazy = self.make()
        lazy._max_learnts = 10 ** 9      # never reduce
        _, clauses = self._hard_chain(eager)
        self._hard_chain(lazy)
        answers = []
        for solver in (eager, lazy):
            ok = True
            for clause in clauses:
                ok = solver.add_clause(clause) and ok
            answers.append(solver.solve() if ok else False)
        assert answers[0] == answers[1]
        # The eager solver must actually have deleted something.
        assert eager.stats.clauses_deleted > 0
        assert eager.stats.reductions > 0
        assert lazy.stats.clauses_deleted == 0

    def test_stats_carry_wall_time_and_deletions(self):
        s = self.make()
        a = s.new_var()
        s.add_clause([a])
        assert s.solve()
        stats = s.stats.as_dict()
        assert {"wall_time_s", "clauses_deleted",
                "reductions"} <= set(stats)
        assert stats["wall_time_s"] >= 0.0
        assert stats["solve_calls"] == 1


class TestFrontAndBackend:
    def test_solver_runs_on_the_reported_core(self):
        solver = Solver()
        expected = PySolver if sat.backend() == "python" else \
            type(NATIVE())
        assert type(solver._impl) is expected
        a = solver.new_var()
        assert solver.add_clause([a])
        assert solver.solve() and solver.value(a) is True
        assert solver.stats is solver._impl.stats
        assert solver.stats.solve_calls == 1 and solver.arena_ints == 2

    def test_fallback_logs_one_warning(self, monkeypatch, caplog):
        monkeypatch.setattr(sat, "_new_core", None)
        monkeypatch.setattr(sat, "native_core", lambda: None)
        with caplog.at_level(logging.WARNING, logger=sat.__name__):
            solvers = [Solver(), Solver()]
            assert sat.backend() == "python"
        assert all(type(s._impl) is PySolver for s in solvers)
        assert len(caplog.records) == 1
        assert "pure-Python" in caplog.records[0].getMessage()


def _on_native(cls):
    """``cls``'s tests, run on the native core."""
    twin = type(cls.__name__ + "Native", (cls,),
                {"make": staticmethod(NATIVE or PySolver)})
    return pytest.mark.skipif(NATIVE is None,
                              reason="native SAT core unavailable")(twin)


TestBasicsNative = _on_native(TestBasics)
TestAssumptionsNative = _on_native(TestAssumptions)
TestAgainstBruteForceNative = _on_native(TestAgainstBruteForce)
TestIncrementalAssumptionSequencesNative = _on_native(
    TestIncrementalAssumptionSequences)
TestLearnedClauseReductionNative = _on_native(TestLearnedClauseReduction)
