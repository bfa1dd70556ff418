"""The native AIG kernel against the Python encoder and lifter.

On the native SAT core, ``Unroller`` encodes AND cones with
``_satcore.Encoder`` and ``Pdr`` lifts cubes with ``_satcore.Lifter``;
``Unroller._encode_node`` and ``Pdr._lift_cube`` stay as the PySolver
path.  Both must give *exactly* what the Python bodies give: the same
variables and clauses in the same order (so the same solver state) and
the same lifted tuples, because PDR's search trajectory, pinned in
``tests/integration/test_sat_trajectory.py``, depends on both.
"""

import pytest
from hypothesis import given, settings, strategies as st

from test_pdr_lifting import X, base_values, reference_lift, ternary_eval
from test_pdr_properties import random_systems

from repro.formal import TransitionSystem, sat
from repro.formal.aig import FALSE, TRUE
from repro.formal.cnf import Unroller
from repro.formal.pdr import Pdr
from repro.formal.sat import PySolver, Solver, native_core
from repro.obs import METRICS

pytestmark = pytest.mark.skipif(native_core() is None,
                                reason="native SAT core unavailable")


def python_solver():
    """A Solver on PySolver, so an Unroller over it encodes in Python."""
    sat.backend()                      # settle the default core first
    saved = sat._new_core
    sat._new_core = PySolver
    try:
        return Solver()
    finally:
        sat._new_core = saved


# -- encoding -----------------------------------------------------------------

def _snapshot(unroller):
    encoder = unroller._encoder
    frames = []
    for k in range(unroller.num_frames):
        env = unroller.frame(k)
        gates = (encoder.gates(k) if encoder is not None
                 else dict(env._gate_cache))
        frames.append((dict(env.input_sat), gates))
    solver = unroller.solver
    return (solver.num_vars, solver.num_clauses, solver.arena_ints, frames)


@st.composite
def encoding_scripts(draw):
    """A random system (sometimes with constraints), unroller flags and a
    sequence of (literal, frame) queries; some queries use a node the AIG
    only gains after the unrolling started."""
    ts, prop = draw(random_systems())
    g = ts.aig
    for _ in range(draw(st.integers(0, 2))):
        ts.add_constraint("c", g.OR(draw(st.sampled_from(
            [latch.node for latch in ts.latches])), prop))
    symbolic_init = draw(st.booleans())
    eager = draw(st.booleans())
    candidates = ([FALSE, TRUE, prop] + list(g.inputs)
                  + [latch.next_lit for latch in ts.latches]
                  + list(g._and_of))
    queries = draw(st.lists(
        st.tuples(st.sampled_from(candidates), st.integers(0, 1),
                  st.integers(0, 5)), min_size=1, max_size=12))
    grow_at = draw(st.integers(0, len(queries)))
    return ts, prop, symbolic_init, eager, queries, grow_at


class TestEncodingDifferential:
    @given(encoding_scripts())
    @settings(max_examples=200, deadline=None)
    def test_same_variables_clauses_and_maps(self, script):
        ts, prop, symbolic_init, eager, queries, grow_at = script
        native = Unroller(ts, symbolic_init=symbolic_init,
                          eager_latches=eager)
        python = Unroller(ts, solver=python_solver(),
                          symbolic_init=symbolic_init, eager_latches=eager)
        assert native._encoder is not None and python._encoder is None
        for step, (lit, neg, k) in enumerate(queries):
            if step == grow_at:
                # A node created after frames exist: a free variable per
                # frame, and a gate over it.
                late = ts.aig.new_input("late")
                lit = ts.aig.AND(late, prop ^ 1)
            assert native.sat_literal(lit ^ neg, k) == \
                python.sat_literal(lit ^ neg, k)
        assert _snapshot(native) == _snapshot(python)
        # Same clauses in the same order: the same search and model.
        assert native.solver.solve() == python.solver.solve()
        assert native.solver.model() == python.solver.model()
        for key in ("propagations", "decisions", "conflicts"):
            assert getattr(native.solver.stats, key) == \
                getattr(python.solver.stats, key)

    def test_deep_lazy_unrolling_matches(self):
        """A chain of latches makes frame k's cone reach back k frames:
        the walk asks Python for latches, frame by frame, and resumes."""
        ts = TransitionSystem("chain")
        src = ts.add_input("in")
        latches = [ts.add_latch(f"l{i}", init=False) for i in range(6)]
        prev = src
        for latch in latches:
            ts.set_next(latch, ts.aig.XOR(prev, latch.node))
            prev = latch.node
        out = ts.aig.AND(latches[-1].node, latches[2].node ^ 1)
        native = Unroller(ts)
        python = Unroller(ts, solver=python_solver())
        for k in (12, 3, 20):
            assert native.sat_literal(out, k) == python.sat_literal(out, k)
        assert _snapshot(native) == _snapshot(python)
        assert native.slicing() == python.slicing()

    def test_free_input_lands_in_input_sat(self):
        ts = TransitionSystem("free")
        a = ts.add_latch("a", init=True)
        ts.set_next(a, a.node)
        native = Unroller(ts)
        native.frame(1)
        late = ts.aig.new_input("late")
        gate = ts.aig.AND(late, a.node)
        sat_lit = native.sat_literal(gate, 1)
        assert late in native.frame(1).input_sat
        assert native._encoder.gates(1)[gate] == sat_lit


# -- lifting -------------------------------------------------------------------

@st.composite
def native_lifting_problems(draw):
    """A PDR run whose solver holds a real model with random frame-0
    values, a random literal order and a random required set."""
    ts, prop = draw(random_systems())
    pdr = Pdr(ts, bad_lit=prop ^ 1)
    bits = draw(st.lists(st.booleans(), min_size=len(pdr._model_sat),
                         max_size=len(pdr._model_sat)))
    assumptions = [sat_lit if bit else -sat_lit
                   for sat_lit, bit in zip(pdr._model_sat.values(), bits)]
    assert pdr.solver.solve(assumptions=assumptions)
    cube = tuple(draw(st.permutations(pdr._model_cube())))
    and_of = ts.aig._and_of
    candidates = ([FALSE, TRUE, prop] + list(ts.aig.inputs)
                  + [latch.node for latch in ts.latches]
                  + [latch.next_lit for latch in ts.latches]
                  + list(and_of))
    base = base_values(pdr)
    required = []
    for _ in range(draw(st.integers(1, 4))):
        lit = draw(st.sampled_from(candidates)) ^ draw(st.integers(0, 1))
        value = ternary_eval(and_of, lit, dict(base))
        if value == X or draw(st.integers(0, 7)) == 0:
            required.append((lit, draw(st.booleans())))
        else:
            required.append((lit, bool(value)))
    return pdr, cube, required


class TestLiftingDifferential:
    @given(native_lifting_problems())
    @settings(max_examples=300, deadline=None)
    def test_native_equals_python_equals_reference(self, problem):
        pdr, cube, required = problem
        assert pdr._lifter is not None
        native = pdr._lift(cube, required)
        assert native == pdr._lift_cube(cube, required)
        assert native == reference_lift(pdr, cube, required)

    def _two_latch_pdr(self):
        ts = TransitionSystem("edge")
        a = ts.add_latch("a", init=False)
        b = ts.add_latch("b", init=False)
        ts.set_next(a, b.node)
        ts.set_next(b, a.node ^ 1)
        pdr = Pdr(ts, bad_lit=ts.aig.AND(a.node, b.node))
        assert pdr.solver.solve(assumptions=list(pdr._model_sat.values()))
        return ts, pdr, a, b, pdr._model_cube()

    def test_node_added_after_the_run_started_reads_x(self):
        ts, pdr, a, b, cube = self._two_latch_pdr()
        free = ts.aig.new_input("free")
        required = [(ts.aig.OR(a.node, free ^ 1), True)]
        assert pdr._lift(cube, required) == (pdr._cur[a.node],)
        assert pdr._lift(cube, required) == \
            reference_lift(pdr, cube, required)

    def test_whole_cube_comes_back_as_the_same_object(self):
        ts, pdr, a, b, cube = self._two_latch_pdr()
        for required in ([(TRUE, True)], [(FALSE, True)], []):
            assert pdr._lift(cube, required) is cube

    def test_counters_match_python(self):
        ts, pdr, a, b, cube = self._two_latch_pdr()
        literals = METRICS.counter("pdr.lift_literals").value
        dropped = METRICS.counter("pdr.lift_dropped").value
        assert pdr._lift(cube, [(a.node, True)]) == (pdr._cur[a.node],)
        assert METRICS.counter("pdr.lift_literals").value == literals + 2
        assert METRICS.counter("pdr.lift_dropped").value == dropped + 1

    def test_unknown_cube_variable_is_a_key_error(self):
        ts, pdr, a, b, cube = self._two_latch_pdr()
        stray = pdr.solver.new_var()
        with pytest.raises(KeyError):
            pdr._lift_cube(cube + (stray,), [(a.node, True)])
        with pytest.raises(KeyError):
            pdr._lift(cube + (stray,), [(a.node, True)])
