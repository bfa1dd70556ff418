"""PDR ternary-simulation cube lifting, held to the full re-evaluation.

``Pdr._lift_cube`` simulates incrementally: one concrete pass over the
union cone of the required literals, then X pushed through the fanout of
one latch per trial.  ``reference_lift`` below is the lifter it replaced:
every trial copies the model, sets the dropped latches and the trial latch
to X and re-evaluates every required cone from scratch.  The two must return the *same tuple* on every input — PDR's
search trajectory (and so every SAT counter pinned in
``tests/integration/test_sat_trajectory.py``) depends on the exact cube,
not only on its soundness.
"""

from hypothesis import given, settings, strategies as st

from test_pdr_properties import random_systems

from repro.formal import TransitionSystem
from repro.formal.aig import FALSE, TRUE
from repro.formal.pdr import Pdr
from repro.obs import METRICS

X = 2


def ternary_eval(and_of, lit, values):
    """Three-valued evaluation of an AIG literal: 0, 1 or X (2).

    ``values`` maps input/latch nodes to 0/1/X and doubles as the memo
    table; a leaf that is neither in it nor an AND node reads X.
    """
    stack = [lit & ~1]
    while stack:
        node = stack[-1]
        if node == FALSE or node in values:
            stack.pop()
            continue
        pair = and_of.get(node)
        if pair is None:
            values[node] = X
            stack.pop()
            continue
        pending = [fanin & ~1 for fanin in pair
                   if fanin & ~1 != FALSE and fanin & ~1 not in values]
        if pending:
            stack.extend(pending)
            continue
        bits = []
        for fanin in pair:
            v = 0 if fanin & ~1 == FALSE else values[fanin & ~1]
            bits.append(X if v == X else v ^ (fanin & 1))
        if 0 in bits:
            values[node] = 0
        elif X in bits:
            values[node] = X
        else:
            values[node] = 1
        stack.pop()
    base = 0 if lit & ~1 == FALSE else values[lit & ~1]
    return X if base == X else base ^ (lit & 1)


def base_values(pdr):
    """Concrete model values of the nodes lifting may read."""
    return {node: 1 if pdr.solver.value(sat) else 0
            for node, sat in pdr._model_sat.items()}


def determined(and_of, values, required):
    return all(ternary_eval(and_of, lit, dict(values)) == int(want)
               for lit, want in required)


def reference_lift(pdr, cube, required):
    """The full re-evaluation lifter: one from-scratch simulation of every
    required cone per cube literal."""
    if not required:
        return cube
    and_of = pdr.system.aig._and_of
    base = base_values(pdr)
    kept, dropped = [], set()
    for lit in cube:
        node = pdr._var_to_node[abs(lit)]
        trial = dict(base)
        trial[node] = X
        for other in dropped:
            trial[other] = X
        if determined(and_of, trial, required):
            dropped.add(node)
        else:
            kept.append(lit)
    return tuple(kept) if kept else cube


class _Model:
    """Stands in for the solver's model: SAT variable -> bool."""

    def __init__(self, bits):
        self.bits = bits

    def value(self, lit):
        return self.bits[abs(lit)] ^ (lit < 0)


def _with_model(pdr, bits):
    pdr.solver = _Model(
        {abs(sat): bit for sat, bit in zip(pdr._model_sat.values(), bits)})
    cube = []
    for latch in pdr._latches:
        sat = pdr._cur[latch.node]
        cube.append(sat if pdr.solver.value(sat) else -sat)
    return cube


@st.composite
def lifting_problems(draw):
    """A PDR run on a random system, a random concrete model, a random
    literal order and a random required set (mostly satisfied by the
    model, sometimes not)."""
    ts, prop = draw(random_systems())
    pdr = Pdr(ts, bad_lit=prop ^ 1)
    bits = draw(st.lists(st.booleans(), min_size=len(pdr._model_sat),
                         max_size=len(pdr._model_sat)))
    cube = tuple(draw(st.permutations(_with_model(pdr, bits))))
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
    @given(lifting_problems())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_reevaluation(self, problem):
        pdr, cube, required = problem
        assert pdr._lift_cube(cube, required) == \
            reference_lift(pdr, cube, required)

    @given(lifting_problems())
    @settings(max_examples=300, deadline=None)
    def test_dropped_latches_leave_requirements_determined(self, problem):
        pdr, cube, required = problem
        lifted = pdr._lift_cube(cube, required)
        assert set(lifted) <= set(cube)
        dropped = set(cube) - set(lifted)
        if not dropped:
            return
        values = base_values(pdr)
        for lit in dropped:
            values[pdr._var_to_node[abs(lit)]] = X
        assert determined(pdr.system.aig._and_of, values, required)


def _two_latch_pdr():
    """Latches a, b (both model nodes) and a PDR run over both."""
    ts = TransitionSystem("edge")
    a = ts.add_latch("a", init=False)
    b = ts.add_latch("b", init=False)
    ts.set_next(a, b.node)
    ts.set_next(b, a.node ^ 1)
    pdr = Pdr(ts, bad_lit=ts.aig.AND(a.node, b.node))
    cube = _with_model(pdr, [True] * len(pdr._model_sat))
    return ts, pdr, a, b, tuple(cube)


class TestLiftingEdgeCases:
    def test_leaf_outside_the_model_reads_x(self):
        ts, pdr, a, b, cube = _two_latch_pdr()
        # A node created after the run's frame 0 was encoded: neither a
        # model node nor an AND node.  Read as X, !free cannot decide
        # OR(a, !free), so a=1 must stay concrete: a's literal is kept and
        # b's is dropped.  (Read as 0, !free alone would decide it.)
        free = ts.aig.new_input("free")
        required = [(ts.aig.OR(a.node, free ^ 1), True)]
        lifted = pdr._lift_cube(cube, required)
        assert lifted == (pdr._cur[a.node],)
        assert lifted == reference_lift(pdr, cube, required)

    def test_constant_requirements(self):
        ts, pdr, a, b, cube = _two_latch_pdr()
        for required in ([(TRUE, False)], [(FALSE, True)],
                         [(FALSE, True), (a.node, True)]):
            # Fails even concretely: every literal is kept.
            assert pdr._lift_cube(cube, required) == cube
        # A satisfied constant constrains nothing: b's literal drops.
        required = [(TRUE, True), (FALSE, False), (a.node, True)]
        assert pdr._lift_cube(cube, required) == (pdr._cur[a.node],)

    def test_cube_where_every_literal_drops_is_returned_whole(self):
        ts, pdr, a, b, cube = _two_latch_pdr()
        # Pinned conservative behaviour: nothing is required of the
        # latches, yet the full cube (not the empty one) comes back.
        assert pdr._lift_cube(cube, [(TRUE, True)]) == cube
        assert pdr._lift_cube(cube, []) == cube

    def test_lifting_counters(self):
        ts, pdr, a, b, cube = _two_latch_pdr()
        literals = METRICS.counter("pdr.lift_literals").value
        dropped = METRICS.counter("pdr.lift_dropped").value
        pdr._lift_cube(cube, [(a.node, True)])
        assert METRICS.counter("pdr.lift_literals").value == literals + 2
        assert METRICS.counter("pdr.lift_dropped").value == dropped + 1
