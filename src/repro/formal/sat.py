"""The CDCL SAT solver behind the :mod:`repro.formal` model checker.

The paper's AutoSVA flow hands the generated formal testbench to JasperGold
or SymbiYosys; both are SAT-based model checkers at their core.  Since
neither is available in this environment, we implement the solver layer
from scratch: a conflict-driven clause-learning (CDCL) solver with
two-watched-literal propagation, VSIDS-style activity ordering, phase
saving, Luby restarts, first-UIP clause learning and LBD-scored
learned-clause reduction.

The search exists twice, with identical heuristics and tie-breaks:

* :class:`PySolver` — the pure-Python reference implementation below;
* ``_satcore.c`` — a line-for-line C port, compiled on first use
  (:mod:`repro.formal._satbuild`).

:class:`Solver` is the one class every engine constructs.  It runs on the
native core when that builds and loads (a C compiler and the Python
headers are present), else on :class:`PySolver` after logging one warning;
:func:`backend` says which.  Both cores give the same answers, models,
cores and deterministic counters for the same call sequence, so verdicts,
traces and the benchmark counters do not depend on the core.

The clause database is a flat **int arena** rather than a list of Python
lists: every clause lives at an offset in one large ``list`` of ints
(``[size, lbd, lit0, lit1, ...]``), watch lists hold offsets, and the reason
of an implied variable is an offset.  In CPython this matters a great deal —
the propagate inner loop indexes two flat lists instead of chasing object
references and bound-method lookups, which is where a pure-Python CDCL
spends most of its time on unrolled circuits (measured ~65% of the whole
model checker before this layout).  The C core keeps the same layout.

The API is deliberately small and incremental-friendly:

>>> s = Solver()
>>> a, b = s.new_var(), s.new_var()
>>> s.add_clause([a, b])
True
>>> s.add_clause([-a, b])
True
>>> s.solve()
True
>>> s.value(b)
True

Literals are non-zero Python ints: ``+v`` is the positive literal of variable
``v`` and ``-v`` its negation, like the DIMACS convention.  ``solve`` accepts
*assumptions*, which is what makes bounded model checking and k-induction
queries cheap to re-issue at increasing depths — and what lets the batched
BMC sweep decide many properties on one solver.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Iterable, List, Optional, Sequence

__all__ = ["PySolver", "Solver", "SolverStats", "backend", "luby",
           "native_core", "native_kernel"]

log = logging.getLogger(__name__)

# Truth constants used in the internal assignment array.
_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

#: Learned clauses with an LBD at or below this are "glue" and never deleted.
_GLUE_LBD = 3


def _lit_index(lit: int) -> int:
    """Map a signed literal to a dense array index (2v for +v, 2v+1 for -v)."""
    return (lit << 1) if lit > 0 else ((-lit << 1) | 1)


def luby(i: int) -> int:
    """The Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    ``i`` is 1-based.  Used to scale the conflict budget between restarts.
    """
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class SolverStats:
    """Counters exposed for benchmarking and the engine-ablation experiment.

    All counters except ``wall_time_s`` are deterministic for a given call
    sequence, which is what lets the hot-path benchmark gate regressions on
    them across machines.
    """

    __slots__ = ("conflicts", "decisions", "propagations", "restarts",
                 "learned_clauses", "solve_calls", "clauses_deleted",
                 "reductions", "wall_time_s")

    def __init__(self) -> None:
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.solve_calls = 0
        self.clauses_deleted = 0
        self.reductions = 0
        self.wall_time_s = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SolverStats({inner})"


class _VarHeap:
    """Binary max-heap of variables ordered by VSIDS activity.

    MiniSat's order heap: O(log n) insert/increase-key/pop instead of the
    O(n) scan that otherwise dominates solve time on unrolled circuits.
    (A static activity-sorted array with a scan cursor was tried here —
    cheaper per operation, but the stale decision order cost far more in
    extra conflicts/frames on the conflict-heavy PDR rungs than the heap
    costs in bookkeeping; with assumption-prefix trail reuse the heap
    churn per query is small anyway.)
    """

    __slots__ = ("_heap", "_pos", "_activity")

    def __init__(self, activity: List[float]) -> None:
        self._heap: List[int] = []
        self._pos: List[int] = []
        self._activity = activity

    def grow(self) -> None:
        self._pos.append(-1)

    def __contains__(self, var: int) -> bool:
        return self._pos[var - 1] >= 0

    def insert(self, var: int) -> None:
        if self._pos[var - 1] >= 0:
            return
        self._heap.append(var)
        self._pos[var - 1] = len(self._heap) - 1
        self._up(len(self._heap) - 1)

    def increased(self, var: int) -> None:
        idx = self._pos[var - 1]
        if idx >= 0:
            self._up(idx)

    def pop(self) -> int:
        heap = self._heap
        top = heap[0]
        last = heap.pop()
        self._pos[top - 1] = -1
        if heap:
            heap[0] = last
            self._pos[last - 1] = 0
            self._down(0)
        return top

    def __len__(self) -> int:
        return len(self._heap)

    def _up(self, idx: int) -> None:
        heap, pos, act = self._heap, self._pos, self._activity
        var = heap[idx]
        key = act[var]
        while idx > 0:
            parent = (idx - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[idx] = pvar
            pos[pvar - 1] = idx
            idx = parent
        heap[idx] = var
        pos[var - 1] = idx

    def _down(self, idx: int) -> None:
        heap, pos, act = self._heap, self._pos, self._activity
        size = len(heap)
        var = heap[idx]
        key = act[var]
        while True:
            left = 2 * idx + 1
            if left >= size:
                break
            right = left + 1
            child = left
            if right < size and act[heap[right]] > act[heap[left]]:
                child = right
            cvar = heap[child]
            if key >= act[cvar]:
                break
            heap[idx] = cvar
            pos[cvar - 1] = idx
            idx = child
        heap[idx] = var
        pos[var - 1] = idx


class PySolver:
    """Incremental CDCL SAT solver over a flat clause arena (pure Python).

    Variables are created with :meth:`new_var` and clauses added with
    :meth:`add_clause`.  :meth:`solve` may be called repeatedly with
    different assumption sets; learned clauses persist across calls (and
    are periodically reduced by LBD so multi-thousand-query BMC sweeps do
    not drown in kept clauses).

    Arena layout per clause, at offset ``c``::

        _arena[c]     size (0 marks a deleted clause)
        _arena[c+1]   LBD at learn time (0 for problem clauses)
        _arena[c+2:]  the literals; slots 0 and 1 are the watched pair

    Watch lists store arena offsets; deleted clauses are dropped lazily the
    next time a watch list containing them is traversed.
    """

    def __init__(self) -> None:
        self._num_vars = 0
        # Assignment state, indexed by variable (1-based).
        self._assign: List[int] = [_UNASSIGNED]
        self._level: List[int] = [0]
        self._reason: List[int] = [0]      # arena offset; 0 = no reason
        self._phase: List[bool] = [False]
        # VSIDS activity, indexed by variable.
        self._activity: List[float] = [0.0]
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._order = _VarHeap(self._activity)
        # Watched literals: lit-index -> list of arena offsets.
        self._watches: List[List[int]] = [[], []]
        # The clause arena.  Offsets 0/1 are a sentinel so that offset 0
        # can mean "no clause" in _reason.
        self._arena: List[int] = [0, 0]
        self._clauses: List[int] = []      # problem clause offsets
        self._learned: List[int] = []      # live learned clause offsets
        self._max_learnts = 4000
        # Trail of assigned literals plus per-level markers.
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        # Assumption literal established at each leading decision level —
        # the bookkeeping behind assumption-prefix trail reuse in solve().
        self._assump_levels: List[int] = []
        self._qhead = 0
        self._ok = True
        self.core: List[int] = []
        self.stats = SolverStats()

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its positive literal."""
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(0)
        self._phase.append(False)
        self._activity.append(0.0)
        self._watches.append([])  # positive literal watch list
        self._watches.append([])  # negative literal watch list
        self._order.grow()
        self._order.insert(self._num_vars)
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    @property
    def num_learned(self) -> int:
        return len(self._learned)

    @property
    def arena_ints(self) -> int:
        """Length of the clause arena in ints (dead slots included)."""
        return len(self._arena)

    def _alloc(self, lits: Sequence[int], lbd: int) -> int:
        """Append a clause to the arena; returns its offset."""
        arena = self._arena
        offset = len(arena)
        arena.append(len(lits))
        arena.append(lbd)
        arena.extend(lits)
        return offset

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        The clause is simplified against root-level assignments.  Duplicate
        literals are removed; tautologies are silently satisfied.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        assign = self._assign
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0 or abs(lit) > self._num_vars:
                raise ValueError(f"invalid literal {lit!r}")
            if -lit in seen:
                return True  # tautology: trivially satisfied
            if lit in seen:
                continue
            val = assign[lit] if lit > 0 else -assign[-lit]
            if val == _TRUE:
                return True  # already satisfied at root level
            if val == _FALSE:
                continue  # falsified at root: drop the literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self._ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], 0):
                self._ok = False
                return False
            if self._propagate():
                self._ok = False
                return False
            return True
        offset = self._alloc(clause, 0)
        self._clauses.append(offset)
        self._attach(offset)
        return True

    def _attach(self, offset: int) -> None:
        arena = self._arena
        a, b = arena[offset + 2], arena[offset + 3]
        # Watch entries are (offset, blocker) pairs, flattened: the blocker
        # is the clause's other watched literal, checked before the arena
        # is touched at all (MiniSat's blocker trick).
        self._watches[_lit_index(-a)].extend((offset, b))
        self._watches[_lit_index(-b)].extend((offset, a))

    # ------------------------------------------------------------------
    # Assignment helpers
    # ------------------------------------------------------------------
    def _lit_value(self, lit: int) -> int:
        val = self._assign[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else -val

    def value(self, lit: int) -> Optional[bool]:
        """Model value of a literal after a satisfiable :meth:`solve` call."""
        val = self._lit_value(lit)
        if val == _UNASSIGNED:
            return None
        return val == _TRUE

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._lit_value(lit)
        if val == _FALSE:
            return False
        if val == _TRUE:
            return True
        var = lit if lit > 0 else -lit
        self._assign[var] = _TRUE if lit > 0 else _FALSE
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause offset or 0.

        This is *the* hot loop of the model checker.  Everything it touches
        is a flat list of ints bound to a local name: clause literals come
        out of the arena, implied assignments are written inline (no
        :meth:`_enqueue` call), and watch lists are compacted in place.
        Deleted clauses (``arena[c] == 0``) encountered here are dropped
        from the watch list as a side effect.
        """
        arena = self._arena
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        watches = self._watches
        trail = self._trail
        qhead = self._qhead
        ntrail = len(trail)
        cur_level = len(self._trail_lim)
        propagations = 0
        while qhead < ntrail:
            lit = trail[qhead]
            qhead += 1
            propagations += 1
            widx = (lit << 1) if lit > 0 else ((-lit << 1) | 1)
            watchers = watches[widx]
            i = 0
            j = 0
            num = len(watchers)
            while i < num:
                # Blocker check: a true blocker means the clause is
                # satisfied — skip it without touching the arena at all.
                # This is the common case on circuit instances.
                blocker = watchers[i + 1]
                if (assign[blocker] if blocker > 0
                        else -assign[-blocker]) == 1:
                    watchers[j] = watchers[i]
                    watchers[j + 1] = blocker
                    j += 2
                    i += 2
                    continue
                c = watchers[i]
                i += 2
                size = arena[c]
                if size == 0:
                    continue  # deleted: drop from this watch list
                # Normalize: the falsified watched literal goes to slot 1.
                first = arena[c + 2]
                if first == -lit:
                    first = arena[c + 3]
                    arena[c + 2] = first
                    arena[c + 3] = -lit
                fval = assign[first] if first > 0 else -assign[-first]
                if fval == 1:
                    watchers[j] = c
                    watchers[j + 1] = first
                    j += 2
                    continue
                if size > 2:
                    # Search for a replacement watch.
                    k = c + 4
                    end = c + 2 + size
                    found = False
                    while k < end:
                        cand = arena[k]
                        if (assign[cand] if cand > 0
                                else -assign[-cand]) != -1:
                            arena[c + 3] = cand
                            arena[k] = -lit
                            watches[(-cand << 1) if cand < 0
                                    else ((cand << 1) | 1)].extend((c, first))
                            found = True
                            break
                        k += 1
                    if found:
                        continue
                # Binary clauses skip the search: they are unit (or
                # conflicting) on `first` as soon as their other watch
                # falsifies — two thirds of Tseitin clauses take this
                # short route.
                watchers[j] = c
                watchers[j + 1] = first
                j += 2
                if fval == -1:
                    # Conflict: keep the untraversed tail, stop.
                    while i < num:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self._qhead = len(trail)
                    self.stats.propagations += propagations
                    return c
                # Clause is unit on `first`: assign inline.
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else -1
                level[var] = cur_level
                reason[var] = c
                phase[var] = first > 0
                trail.append(first)
                ntrail += 1
            del watchers[j:]
        self._qhead = qhead
        self.stats.propagations += propagations
        return 0

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: int) -> "tuple[List[int], int, int]":
        """First-UIP learning; returns (learnt, backtrack level, LBD)."""
        arena = self._arena
        levels = self._level
        trail = self._trail
        reasons = self._reason
        learnt: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = bytearray(self._num_vars + 1)
        counter = 0
        lit = 0
        cur_level = len(self._trail_lim)
        trail_idx = len(trail) - 1
        # Current reason clause as an arena range.
        begin = conflict + 2
        end = begin + arena[conflict]
        while True:
            for idx in range(begin, end):
                q = arena[idx]
                if q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if levels[var] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                p = trail[trail_idx]
                if seen[p if p > 0 else -p]:
                    break
                trail_idx -= 1
            trail_idx -= 1
            var = p if p > 0 else -p
            seen[var] = 0
            counter -= 1
            if counter == 0:
                learnt[0] = -p
                break
            lit = p
            roff = reasons[var]
            if roff:
                begin = roff + 2
                end = begin + arena[roff]
            else:
                begin = end = 0
        # Backtrack level: the second-highest level in the learnt clause.
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if levels[abs(learnt[i])] > levels[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = levels[abs(learnt[1])]
        lbd = len({levels[abs(q)] for q in learnt})
        return learnt, back_level, lbd

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            # Uniform rescale preserves the heap order.
            for v in range(1, self._num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        self._order.increased(var)

    def _decay_activity(self) -> None:
        self._var_inc /= self._var_decay

    # ------------------------------------------------------------------
    # Learned-clause reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learned clauses.

        "Glue" clauses (LBD <= ``_GLUE_LBD``) and clauses currently acting
        as a reason are kept; the rest are ranked by (LBD, size) and the
        worse half is marked dead in the arena.  Watch lists shed dead
        offsets lazily during propagation, so deletion is O(1) per clause
        here.
        """
        arena = self._arena
        reasons = self._reason
        keep: List[int] = []
        deletable: List[int] = []
        for c in self._learned:
            if arena[c] == 0:
                continue
            first = arena[c + 2]
            if arena[c + 1] <= _GLUE_LBD or \
                    reasons[first if first > 0 else -first] == c:
                keep.append(c)
            else:
                deletable.append(c)
        deletable.sort(key=lambda c: (arena[c + 1], arena[c]))
        half = len(deletable) // 2
        for c in deletable[half:]:
            arena[c] = 0
            self.stats.clauses_deleted += 1
        self._learned = keep + deletable[:half]
        self._max_learnts = int(self._max_learnts * 1.2)
        self.stats.reductions += 1

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        assign = self._assign
        reasons = self._reason
        order = self._order
        trail = self._trail
        for idx in range(len(trail) - 1, bound - 1, -1):
            var = abs(trail[idx])
            assign[var] = _UNASSIGNED
            reasons[var] = 0
            order.insert(var)
        del trail[bound:]
        del self._trail_lim[level:]
        if len(self._assump_levels) > level:
            del self._assump_levels[level:]
        self._qhead = len(trail)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pick_branch(self) -> int:
        assign = self._assign
        order = self._order
        while len(order):
            var = order.pop()
            if assign[var] == _UNASSIGNED:
                return var if self._phase[var] else -var
        return 0

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals.

        Returns True (SAT; query model values with :meth:`value`) or False
        (UNSAT under the assumptions; :attr:`core` then holds an
        over-approximated subset of assumptions used in the refutation).

        Consecutive calls reuse the trail of the longest shared assumption
        prefix instead of backtracking to the root: incremental BMC/IC3
        query streams repeat most of their assumption list, so keeping
        those decision levels (and everything they imply) skips the bulk
        of each query's re-propagation.  Sound because every clause is
        re-examined whenever one of its watched literals is assigned —
        implications a kept level "missed" (from clauses learned after it
        was established) surface as ordinary visits or conflicts as soon
        as search touches them.
        """
        begin = time.perf_counter()
        self.stats.solve_calls += 1
        self.core = []
        if not self._ok:
            self.stats.wall_time_s += time.perf_counter() - begin
            return False
        assumptions = list(assumptions)
        for lit in assumptions:
            if lit == 0 or abs(lit) > self._num_vars:
                raise ValueError(f"invalid assumption literal {lit!r}")
        try:
            # Assumption-prefix trail reuse.
            keep = 0
            established = self._assump_levels
            for lit in assumptions:
                if keep < len(established) and established[keep] == lit:
                    keep += 1
                else:
                    break
            self._cancel_until(keep)
            restart_num = 0
            while True:
                restart_num += 1
                status = self._search(assumptions,
                                      budget=100 * luby(restart_num))
                if status is not None:
                    return status
                self.stats.restarts += 1
                self._cancel_until(0)
        finally:
            self.stats.wall_time_s += time.perf_counter() - begin

    def _search(self, assumptions: List[int], budget: int) -> Optional[bool]:
        """Run CDCL until SAT/UNSAT or until `budget` conflicts (restart)."""
        conflicts = 0
        stats = self.stats
        while True:
            conflict = self._propagate()
            if conflict:
                conflicts += 1
                stats.conflicts += 1
                if not self._trail_lim:
                    self._ok = False
                    return False
                # Batched assumption establishment can surface a conflict
                # whose literals all sit below the current decision level
                # (the falsifying pair was established without propagating
                # in between).  First-UIP analysis needs at least one
                # literal at the analysis level, so drop to the conflict's
                # own (maximum-literal) level first.
                arena = self._arena
                levels = self._level
                conflict_level = 0
                for idx in range(conflict + 2,
                                 conflict + 2 + arena[conflict]):
                    lit_level = levels[abs(arena[idx])]
                    if lit_level > conflict_level:
                        conflict_level = lit_level
                if conflict_level == 0:
                    self._ok = False
                    return False
                if conflict_level < len(self._trail_lim):
                    self._cancel_until(conflict_level)
                learnt, back_level, lbd = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learnt) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], 0):
                        self._ok = False
                        return False
                    if self._propagate():
                        self._ok = False
                        return False
                else:
                    offset = self._alloc(learnt, lbd)
                    self._learned.append(offset)
                    stats.learned_clauses += 1
                    self._attach(offset)
                    self._enqueue(learnt[0], offset)
                    if len(self._learned) >= self._max_learnts:
                        self._reduce_db()
                self._decay_activity()
                if conflicts >= budget:
                    return None  # signal a restart
            else:
                # Establish every pending assumption, one decision level
                # each, then fall back to the loop top for ONE propagation
                # pass over the whole batch.  Propagating per assumption
                # (the textbook shape) costs a full _propagate call — ten
                # local rebinds — per literal, which dominated IC3 query
                # streams with hundreds of act assumptions each.  An
                # assumption a propagation pass would have falsified is
                # instead established as a decision and surfaces as an
                # ordinary conflict; the re-establishment after the
                # backjump then sees it false and extracts the core.
                if len(self._trail_lim) < len(assumptions):
                    while len(self._trail_lim) < len(assumptions):
                        lit = assumptions[len(self._trail_lim)]
                        val = self._lit_value(lit)
                        if val == _FALSE:
                            # Implied false by root facts + earlier
                            # assumptions: extract a proper core from the
                            # implication graph.
                            self.core = self._analyze_final(lit,
                                                            assumptions)
                            return False
                        # Dummy level when already true keeps positions
                        # aligned.
                        self._trail_lim.append(len(self._trail))
                        self._assump_levels.append(lit)
                        if val == _UNASSIGNED:
                            stats.decisions += 1
                            self._enqueue(lit, 0)
                    continue
                lit = self._pick_branch()
                if lit == 0:
                    return True  # full assignment: SAT
                stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, 0)

    def _analyze_final(self, failed_lit: int,
                       assumptions: Sequence[int]) -> List[int]:
        """Walk the implication graph from a failed assumption literal back
        to the assumption decisions it depends on (MiniSat's analyzeFinal).

        A small core is what makes IC3 clause generalization effective.
        """
        arena = self._arena
        assumption_set = set(assumptions)
        core = [failed_lit]
        seen = {abs(failed_lit)}
        stack = [abs(failed_lit)]
        while stack:
            var = stack.pop()
            if self._level[var] == 0:
                continue
            roff = self._reason[var]
            if not roff:
                lit = var if self._assign[var] == _TRUE else -var
                if lit in assumption_set and lit != failed_lit:
                    core.append(lit)
                continue
            for idx in range(roff + 2, roff + 2 + arena[roff]):
                other = abs(arena[idx])
                if other != var and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return core

    # ------------------------------------------------------------------
    def model(self) -> List[int]:
        """Return the satisfying assignment as a list of signed literals."""
        out = []
        for var in range(1, self._num_vars + 1):
            if self._assign[var] == _TRUE:
                out.append(var)
            elif self._assign[var] == _FALSE:
                out.append(-var)
        return out


# ----------------------------------------------------------------------
# Core selection
# ----------------------------------------------------------------------
_native: Optional[Callable[[], object]] = None
_native_error: Optional[str] = None
#: The loaded ``_satcore`` module (None until it loads).
_module = None
#: Constructor of the core every Solver runs on; set on the first Solver().
_new_core: Optional[Callable[[], object]] = None


def native_core() -> Optional[Callable[[], object]]:
    """Constructor of the C core (each call: a new solver with its own
    :class:`SolverStats`), or None when it cannot be built or loaded."""
    global _native, _native_error, _module
    if _native is None and _native_error is None:
        try:
            from . import _satbuild
            module = _satbuild.load()
        except Exception as exc:  # no compiler, no headers, read-only tree
            _native_error = f"{type(exc).__name__}: {exc}"
        else:
            _module = module
            _native = lambda: module.Solver(SolverStats())  # noqa: E731
    return _native


def native_kernel(solver: "Solver"):
    """The ``_satcore`` module when ``solver`` runs on its native core,
    else None.

    The module's AIG kernel (``Aig``, ``Encoder``, ``Lifter``) extends and
    reads such a core directly; :mod:`repro.formal.cnf` and
    :mod:`repro.formal.pdr` use it exactly then and run their Python
    encoder and lifter on :class:`PySolver`.
    """
    impl = getattr(solver, "_impl", None)
    if _module is not None and type(impl) is _module.Solver:
        return _module
    return None


def _core_factory() -> Callable[[], object]:
    global _new_core
    if _new_core is None:
        _new_core = native_core()
        if _new_core is None:
            log.warning("native SAT core unavailable (%s); using the "
                        "pure-Python solver", _native_error)
            _new_core = PySolver
    return _new_core


def backend() -> str:
    """``"native"`` or ``"python"``: the core :class:`Solver` runs on."""
    return "python" if _core_factory() is PySolver else "native"


class Solver:
    """The incremental CDCL solver every engine constructs.

    A thin front over the core picked on first use (see :func:`backend`):
    ``new_var``, ``add_clause``, ``value`` and ``model`` are the core's
    own bound methods, so hot calls pay no extra Python frame; ``solve``
    stays a method of this class so that wrappers installed on
    ``Solver.solve`` see every query.  :attr:`stats` is the core's live
    :class:`SolverStats`, current whenever ``solve`` or ``add_clause``
    returns.
    """

    __slots__ = ("_impl", "stats", "new_var", "add_clause", "value", "model")

    def __init__(self) -> None:
        impl = _core_factory()()
        self._impl = impl
        self.stats: SolverStats = impl.stats
        self.new_var = impl.new_var
        self.add_clause = impl.add_clause
        self.value = impl.value
        self.model = impl.model

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under the given assumption literals; see
        :meth:`PySolver.solve`."""
        return self._impl.solve(assumptions)

    @property
    def core(self) -> List[int]:
        """Assumption core of the last UNSAT :meth:`solve` (else empty)."""
        return self._impl.core

    @property
    def num_vars(self) -> int:
        return self._impl.num_vars

    @property
    def num_clauses(self) -> int:
        return self._impl.num_clauses

    @property
    def num_learned(self) -> int:
        return self._impl.num_learned

    @property
    def arena_ints(self) -> int:
        """Length of the clause arena in ints (dead slots included)."""
        return self._impl.arena_ints
