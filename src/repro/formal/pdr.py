"""IC3/PDR: property-directed reachability, the engine's proof workhorse.

k-induction (kept in :mod:`repro.formal.kinduction` for the ablation study)
cannot close liveness-to-safety proofs in practice: the shadow registers of
the L2S construction admit arbitrarily long spurious inductive paths.  Real
formal tools (the JasperGold engines and ABC's ``suprove`` behind SymbiYosys)
rely on IC3/PDR, which incrementally learns a *relative inductive* clause set
per time frame until a safety invariant emerges.  This is a from-scratch
implementation of the standard algorithm (Bradley 2011, Een/Mishchenko/
Brayton 2011):

* frames ``F_0 (init), F_1, ..., F_N`` of blocked-cube clauses over latch
  variables, with the usual monotone clause-set representation;
* counterexamples-to-induction blocked recursively with unsat-core based
  literal dropping (plus a bounded literal-elimination pass);
* clause propagation and fixpoint detection (``F_i == F_{i+1}`` proves the
  property).

Invariant-style assumptions (``constraints``) are enforced at both sides of
the transition; the caller is expected to have bug-hunted with BMC first (the
0/1-step base cases), as :class:`repro.formal.engine.FormalEngine` does.

**One solver per run.**  Each :class:`Pdr` run owns its two-frame
unrolling of the transition relation and its solver.  Sharing one warm
unrolling across the properties of a system was measured and rejected
(see ``FormalEngine._proof_context``): the learned state a run leaves
behind steers later runs' searches off course and costs more than the
re-encoding it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import METRICS
from .aig import FALSE, TRUE
from .cnf import Unroller
from .coi import coi_latches
from .sat import Solver
from .transition import Latch, TransitionSystem

__all__ = ["PdrResult", "Pdr", "pdr_prove"]


@dataclass
class PdrResult:
    """``proven`` with the closing frame, or ``failed`` with the CEX depth
    (regenerate the trace with BMC at that depth), or neither (bound hit)."""

    proven: bool
    frames: int
    failed: bool = False
    cex_depth: int = 0
    num_clauses: int = 0
    solver_stats: Optional[dict] = None


class _Clause:
    """A blocked-cube clause with its frame level."""

    __slots__ = ("lits", "level", "tried_mods")

    def __init__(self, lits: Tuple[int, ...], level: int) -> None:
        self.lits = lits        # clause literals over frame-0 latch SAT vars
        self.level = level
        # Frame-modification snapshot at the last *failed* push attempt:
        # the push query's answer only changes when some clause lands at a
        # level >= this clause's, so unchanged snapshots skip the re-solve.
        self.tried_mods = -1


class Pdr:
    """One PDR run for a single bad literal on a transition system."""

    def __init__(self, system: TransitionSystem, bad_lit: int,
                 max_frames: int = 60) -> None:
        self.system = system
        self.bad_lit = bad_lit
        self.max_frames = max_frames
        # Symbolic-init two-frame unrolling: frame 0 = current state,
        # frame 1 = successor, invariant constraints asserted in both by
        # the unroller itself.  Eager latch encoding: the unrolling is two
        # frames deep, so the slicing win is small, and keeping the
        # historical variable numbering keeps PDR's (trajectory-sensitive)
        # search behaviour.
        self.unroller = Unroller(system, symbolic_init=True,
                                 eager_latches=True)
        self.solver: Solver = self.unroller.solver
        self.unroller.frame(1)
        self._bad_sat = self.unroller.sat_literal(bad_lit, 0)
        # Latch variable maps, restricted to the property's cone of
        # influence (constraint support included — exact reduction).
        self._latches: List[Latch] = coi_latches(system, [bad_lit])
        self._cur: Dict[int, int] = {
            latch.node: self.unroller.sat_literal(latch.node, 0)
            for latch in self._latches}
        self._nxt: Dict[int, int] = {
            latch.node: self.unroller.sat_literal(latch.node, 1)
            for latch in self._latches}
        self._init_value: Dict[int, Optional[bool]] = {
            latch.node: latch.init for latch in self._latches}
        self._var_to_node: Dict[int, int] = {
            abs(sat): node for node, sat in self._cur.items()}
        # F_0 is the init predicate, guarded by one activation literal.
        self._init_act = self._new_act()
        for latch in self._latches:
            if latch.init is None:
                continue
            sat = self._cur[latch.node]
            self.solver.add_clause(
                [-self._init_act, sat if latch.init else -sat])
        self._clauses: List[_Clause] = []
        self._num_frames = 1
        # One activation literal per *frame level*, not per clause: a
        # frame clause at level L is guarded by act[L], and the query for
        # F_X assumes the descending chain [act[N], ..., act[X]].  That
        # keeps assumption lists at O(frames) instead of O(clauses) — the
        # per-query establishment cost used to dominate PDR — and makes
        # each deeper query's assumption list an exact extension of the
        # previous one, which the solver's trail reuse turns into almost
        # free re-establishment.  Pushing a clause to L+1 re-asserts it
        # under act[L+1]; the stale copy under act[L] stays, harmlessly,
        # because frames are monotone (F_X contains all clauses of level
        # >= X either way).
        self._level_acts: List[int] = [self._new_act()]  # act for level 0*
        # (*level 0 frame clauses never exist, but keeping index parity
        #  makes the arithmetic below uniform.)
        # Per-level frame-modification counters backing _Clause.tried_mods.
        self._level_mods: List[int] = [0]
        # Concrete model nodes ternary lifting reads (COI inputs and
        # latches) with their frame-0 SAT literals, snapshotted once, and
        # the per-node cones lifting has needed so far (the AIG is fixed
        # for the run).
        frame0 = self.unroller.frame(0)
        self._model_sat: Dict[int, int] = dict(frame0.input_sat)
        self._cones: Dict[int, List[int]] = {}
        # On the native core, lifting runs in C on the core's model.
        self._lifter = None
        if self.unroller.kernel is not None:
            self._lifter = self.unroller.kernel.Lifter(
                self.unroller.native_aig(), self.solver._impl,
                self._model_sat, self._var_to_node)

    def _new_act(self) -> int:
        return self.solver.new_var()

    # -- ternary-simulation lifting ------------------------------------------
    # Predecessor cubes from the SAT model assign *every* COI latch; most of
    # those literals are irrelevant to why the successor is reached.  The
    # standard IC3 trick (Een/Mishchenko/Brayton 2011) drops a latch literal
    # when three-valued simulation shows the required outputs stay determined
    # with that latch set to X.  This shrinks proof obligations by orders of
    # magnitude on control logic.
    #
    # The simulation is incremental.  One concrete pass evaluates the union
    # cone of the required literals (leaves: model values; a leaf that is
    # neither a model node nor an AND node reads X).  Each cube literal in
    # turn then sets its latch to X and pushes X only through that latch's
    # fanout inside the cone; when a required node is reached, the recorded
    # changes are undone and the literal is kept.  Three-valued AND is
    # monotone — more X inputs can only turn a 0/1 node into X — so a node
    # changes at most once per trial, and the result is exactly the full
    # re-evaluation with every dropped latch and the trial latch at X.  A
    # lift costs O(cone + fanout touched) instead of O(cube x cone).
    #
    # On the native core ``_lift`` runs this algorithm in C (``_satcore``'s
    # ``Lifter``) and returns the same tuple; ``_lift_cube`` is the Python
    # lifter for PySolver.
    _X = 2

    def _lift(self, cube: Tuple[int, ...],
              required: List[Tuple[int, bool]]) -> Tuple[int, ...]:
        """Drop cube literals while all required (lit, value) stay
        determined, on the native kernel when the solver has one."""
        if self._lifter is None or not required:
            return self._lift_cube(cube, required)
        self.unroller.native_aig()
        lifted = self._lifter.lift(cube, required)
        self._count_lift(cube, lifted)
        return lifted

    @staticmethod
    def _count_lift(cube: Tuple[int, ...], lifted: Tuple[int, ...]) -> None:
        METRICS.counter("pdr.lift_literals").inc(len(cube))
        METRICS.counter("pdr.lift_dropped").inc(len(cube) - len(lifted))

    def _cone(self, node: int) -> List[int]:
        """AND nodes of ``node``'s cone in topological order (node ids are
        allocated after their fanins', so ascending order is topological)."""
        cone = self._cones.get(node)
        if cone is None:
            and_of = self.system.aig._and_of
            seen = set()
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur in seen or cur not in and_of:
                    continue
                seen.add(cur)
                lhs, rhs = and_of[cur]
                stack.append(lhs & ~1)
                stack.append(rhs & ~1)
            cone = self._cones[node] = sorted(seen)
        return cone

    def _lift_cube(self, cube: Tuple[int, ...],
                   required: List[Tuple[int, bool]]) -> Tuple[int, ...]:
        """Drop cube literals while all required (lit, value) stay determined."""
        if not required:
            return cube
        and_of = self.system.aig._and_of
        model_sat = self._model_sat
        value = self.solver.value
        X = self._X
        values: Dict[int, int] = {FALSE: 0}
        fanout: Dict[int, List[int]] = {}

        def read(leaf: int) -> int:
            sat = model_sat.get(leaf)
            return X if sat is None else (1 if value(sat) else 0)

        def ternary_and(node: int) -> int:
            lhs, rhs = and_of[node]
            a = values[lhs & ~1]
            b = values[rhs & ~1]
            a = X if a == X else a ^ (lhs & 1)
            b = X if b == X else b ^ (rhs & 1)
            if a == 0 or b == 0:
                return 0
            return X if a == X or b == X else 1

        # Concrete pass over the union cone, recording in-cone fanout.
        roots = {lit & ~1 for lit, _ in required} - {FALSE}
        for root in roots:
            if root not in values and root not in and_of:
                values[root] = read(root)
            for node in self._cone(root):
                if node in values:
                    continue
                for fanin in and_of[node]:
                    fanin &= ~1
                    if fanin not in values:
                        values[fanin] = read(fanin)
                    if fanin != FALSE:
                        fanout.setdefault(fanin, []).append(node)
                values[node] = ternary_and(node)
        # A requirement that fails even concretely fails every trial, so
        # every literal is kept: skip the trials (``kept`` stays empty and
        # the fallback below returns the whole cube).
        holds = all(values[lit & ~1] != X
                    and bool(values[lit & ~1] ^ (lit & 1)) == want
                    for lit, want in required)
        kept: List[int] = []
        for lit in cube if holds else ():
            node = self._var_to_node[abs(lit)]
            if values.get(node, X) == X:
                continue  # outside the cone (or already X): no effect
            changed = [(node, values[node])]
            values[node] = X
            stack = [node]
            while stack:
                cur = stack.pop()
                if cur in roots:  # a required literal went X: keep lit
                    for changed_node, old in changed:
                        values[changed_node] = old
                    kept.append(lit)
                    break
                for out in fanout.get(cur, ()):
                    if values[out] != X and ternary_and(out) == X:
                        changed.append((out, values[out]))
                        values[out] = X
                        stack.append(out)
        lifted = tuple(kept) if kept else cube
        self._count_lift(cube, lifted)
        return lifted

    def _constraint_requirements(self) -> List[Tuple[int, bool]]:
        return [(prop.lit, True) for prop in self.system.constraints]

    # -- init handling ------------------------------------------------------
    def _cube_intersects_init(self, cube: Sequence[int]) -> bool:
        """Does the cube (over frame-0 latch SAT literals) contain an init
        state?  True unless some literal contradicts a defined init value."""
        for lit in cube:
            var = abs(lit)
            node = self._var_to_node.get(var)
            if node is None:
                continue
            init = self._init_value[node]
            if init is None:
                continue
            if (lit > 0) != init:
                return False
        return True

    # -- frame queries ------------------------------------------------------
    def _level_act(self, level: int) -> int:
        while len(self._level_acts) <= level:
            self._level_acts.append(self._new_act())
        return self._level_acts[level]

    def _frame_assumptions(self, level: int) -> List[int]:
        # Descending level order: the act chain for frame X is a *prefix*
        # of the chain for X-1, which is exactly what the solver's
        # assumption-prefix trail reuse wants — a blocking cascade
        # descends levels and keeps extending, not rebuilding, the
        # assumption trail.
        top = max(self._num_frames, len(self._level_acts) - 1)
        acts = [self._level_act(l) for l in range(top, level - 1, -1)]
        if level == 0:
            acts.append(self._init_act)
        return acts

    def _note_level_mod(self, level: int) -> None:
        while len(self._level_mods) <= level:
            self._level_mods.append(0)
        self._level_mods[level] += 1

    def _add_frame_clause(self, lits: Tuple[int, ...], level: int) -> None:
        self.solver.add_clause([-self._level_act(level)] + list(lits))
        self._clauses.append(_Clause(lits, level))
        self._note_level_mod(level)

    # -- main loop -----------------------------------------------------------
    def run(self) -> PdrResult:
        if self.bad_lit == FALSE:
            return PdrResult(proven=True, frames=0)
        while True:
            # Find a bad state inside the outermost frame.
            assumptions = self._frame_assumptions(self._num_frames)
            assumptions.append(self._bad_sat)
            # Frame N also requires the init predicate when N == 0 — the
            # engine's BMC pass already covered the concrete init cases.
            if not self.solver.solve(assumptions=assumptions):
                # Bad unreachable from F_N: add a frame and propagate.
                self._num_frames += 1
                METRICS.counter("pdr.frames_added").inc()
                if self._propagate():
                    return PdrResult(
                        proven=True, frames=self._num_frames,
                        num_clauses=len(self._clauses),
                        solver_stats=self.solver.stats.as_dict())
                if self._num_frames > self.max_frames:
                    return PdrResult(
                        proven=False, frames=self._num_frames,
                        num_clauses=len(self._clauses),
                        solver_stats=self.solver.stats.as_dict())
                continue
            cube = self._model_cube()
            cube = self._lift(
                cube, [(self.bad_lit, True)] + self._constraint_requirements())
            chain = self._block(cube, self._num_frames, chain_len=0)
            if chain is not None:
                # chain = number of transitions from an init state to the
                # bad cube, i.e. the cycle index where the property fails.
                return PdrResult(
                    proven=False, frames=self._num_frames, failed=True,
                    cex_depth=chain,
                    num_clauses=len(self._clauses),
                    solver_stats=self.solver.stats.as_dict())

    def _model_cube(self) -> Tuple[int, ...]:
        """Full cube of current-state latch values from the SAT model."""
        cube = []
        for latch in self._latches:
            sat = self._cur[latch.node]
            value = self.solver.value(sat)
            cube.append(sat if value else -sat)
        return tuple(cube)

    # -- recursive blocking ----------------------------------------------------
    def _block(self, cube: Tuple[int, ...], level: int,
               chain_len: int) -> Optional[int]:
        """Block ``cube`` at ``level``.  Returns None on success, or the
        length of the counterexample chain when the cube reaches init."""
        if not cube:
            # Empty cube = the bad condition holds in *every* state
            # (possible when its cone of influence has no latches at all):
            # the initial state itself is bad.
            return chain_len
        if self._cube_intersects_init(cube):
            # Lifting preserves "every state in the cube steps into the
            # parent obligation under the recorded inputs", so an init state
            # inside the cube is a genuine counterexample at any level.
            return chain_len
        if level == 0:
            return None
        while True:
            # Relative induction: F_{level-1} ∧ ¬cube ∧ T ∧ cube'
            not_cube_act = self._new_act()
            self.solver.add_clause([-not_cube_act] + [-lit for lit in cube])
            assumptions = self._frame_assumptions(level - 1)
            assumptions.append(not_cube_act)
            assumptions.extend(self._prime(cube))
            sat = self.solver.solve(assumptions=assumptions)
            if not sat:
                core = set(self.solver.core)
                self.solver.add_clause([-not_cube_act])  # retire
                reduced = self._generalize(cube, core, level)
                self._add_frame_clause(
                    tuple(-lit for lit in reduced), level)
                return None
            predecessor = self._model_cube()
            required = self._constraint_requirements()
            for lit in cube:
                node = self._var_to_node[abs(lit)]
                latch = self.system.latch_of(node)
                required.append((latch.next_lit, lit > 0))
            predecessor = self._lift(predecessor, required)
            self.solver.add_clause([-not_cube_act])  # retire
            result = self._block(predecessor, level - 1, chain_len + 1)
            if result is not None:
                return result

    def _prime(self, cube: Sequence[int]) -> List[int]:
        """Map a frame-0 latch cube to the corresponding frame-1 literals."""
        primed = []
        for lit in cube:
            node = self._var_to_node[abs(lit)]
            nxt = self._nxt[node]
            primed.append(-nxt if lit < 0 else nxt)
        return primed

    # -- generalization -----------------------------------------------------
    def _generalize(self, cube: Tuple[int, ...], core: set,
                    level: int) -> Tuple[int, ...]:
        """Shrink the blocked cube: first with the unsat core over the primed
        assumption literals, then with a bounded literal-dropping pass."""
        primed = self._prime(cube)
        keep = []
        for lit, primed_lit in zip(cube, primed):
            if primed_lit in core:
                keep.append(lit)
        if not keep:
            keep = list(cube)
        if self._cube_intersects_init(keep):
            keep = self._restore_init_blocking(cube, keep)
        keep = self._drop_literals(tuple(keep), level)
        return tuple(keep)

    def _restore_init_blocking(self, cube: Tuple[int, ...],
                               keep: List[int]) -> List[int]:
        """Re-add a literal that separates the cube from the init states."""
        present = set(keep)
        for lit in cube:
            if lit in present:
                continue
            node = self._var_to_node[abs(lit)]
            init = self._init_value[node]
            if init is not None and (lit > 0) != init:
                return keep + [lit]
        return list(cube)

    def _relatively_inductive(self, cube_lits: Sequence[int],
                              level: int) -> bool:
        """Is ``F_{level-1} ∧ ¬cube ∧ T ∧ cube'`` unsatisfiable?"""
        not_cube_act = self._new_act()
        self.solver.add_clause([-not_cube_act]
                               + [-lit for lit in cube_lits])
        assumptions = self._frame_assumptions(level - 1)
        assumptions.append(not_cube_act)
        assumptions.extend(self._prime(cube_lits))
        sat = self.solver.solve(assumptions=assumptions)
        self.solver.add_clause([-not_cube_act])
        return not sat

    def _drop_literals(self, cube: Tuple[int, ...], level: int,
                       max_attempts: int = 8) -> Tuple[int, ...]:
        """Try removing individual literals while the clause stays relatively
        inductive (bounded pass: PDR works without it, just slower).

        The budget of 8 is measured, not arbitrary: stronger
        generalization means fewer, stronger frame clauses and roughly
        half the total queries on the slow-converging liveness monitors
        (A4's k-liveness rung: 17.8s at 3 attempts, 7.5s at 8, no further
        gain unbounded; a bounded ctgDown pass was also tried here and
        measured net-negative on this corpus).
        """
        current = list(cube)
        attempts = 0
        idx = 0
        while idx < len(current) and attempts < max_attempts:
            if len(current) == 1:
                break
            candidate = current[:idx] + current[idx + 1:]
            if self._cube_intersects_init(candidate):
                idx += 1
                continue
            attempts += 1
            if self._relatively_inductive(candidate, level):
                current = candidate
            else:
                idx += 1
        return tuple(current)

    # -- propagation -----------------------------------------------------------
    def _propagate(self) -> bool:
        """Push clauses forward; True when a fixpoint frame is found.

        A clause that failed to push is only retried once some clause has
        landed at (or moved into) a level at or above its own — the push
        query's formula is unchanged otherwise, so its UNSAT/SAT answer is
        too.  This prunes the bulk of the O(frames x clauses) re-solves on
        slow-converging proofs.
        """
        mods = self._level_mods
        # suffix[l] = total modifications at levels >= l.
        suffix = [0] * (len(mods) + 1)
        for l in range(len(mods) - 1, -1, -1):
            suffix[l] = suffix[l + 1] + mods[l]
        for clause in self._clauses:
            if clause.level >= self._num_frames:
                continue
            snapshot = suffix[min(clause.level, len(suffix) - 1)]
            if clause.tried_mods == snapshot:
                continue  # frame unchanged since the last failed attempt
            # Does the clause hold one frame later?  F_level ∧ T ∧ ¬c'
            cube = tuple(-lit for lit in clause.lits)
            assumptions = self._frame_assumptions(clause.level)
            assumptions.extend(self._prime(cube))
            if not self.solver.solve(assumptions=assumptions):
                clause.level += 1
                METRICS.counter("pdr.frames_pushed").inc()
                clause.tried_mods = -1
                # Re-assert under the stronger level's act (the old copy
                # stays active for weaker queries — frames are monotone).
                self.solver.add_clause(
                    [-self._level_act(clause.level)] + list(clause.lits))
                self._note_level_mod(clause.level)
                # The new modification is at clause.level: every suffix
                # count at or below it grows by one (and only those —
                # overcounting higher entries would let a later clause
                # store an inflated snapshot and wrongly skip a retry).
                for l in range(min(clause.level, len(suffix) - 1),
                               -1, -1):
                    suffix[l] += 1
            else:
                clause.tried_mods = snapshot
        # Fixpoint: some frame 1..N-1 has no clause at exactly its level.
        for level in range(1, self._num_frames):
            if not any(c.level == level for c in self._clauses):
                return True
        return False


def pdr_prove(system: TransitionSystem, assert_lit: int,
              max_frames: int = 60) -> PdrResult:
    """Prove ``assert_lit`` invariant (or find it violable) with PDR.

    ``assert_lit`` is the property literal (must always hold); PDR works on
    its negation as the bad state.
    """
    return Pdr(system, bad_lit=assert_lit ^ 1, max_frames=max_frames).run()
