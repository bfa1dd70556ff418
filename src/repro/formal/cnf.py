"""Tseitin encoding of AIG time-frames into the CDCL solver.

The :class:`Unroller` is the bridge between the symbolic circuit
(:class:`~repro.formal.transition.TransitionSystem`) and the SAT solver: each
call to :meth:`Unroller.frame` materializes one clock cycle, wiring latch
inputs of frame *k+1* to the encoded next-state literals of frame *k* and
giving free inputs fresh SAT variables.

Encoding is **cone-sliced and lazy**: AND gates are encoded iteratively
(explicit stack) and memoized per frame, and — unlike the original eager
unroller, which encoded every latch's next-state function in every frame —
a latch's next-state cone is only encoded when some queried literal
actually reaches that latch.  Only logic in the cone of influence of the
queried properties (plus the invariant constraints, which are asserted in
every frame) ever reaches the solver; this is the encoder-level half of the
paper's Section III observation that FV scales by ignoring logic outside
each property's cone.  :meth:`Unroller.slicing` reports how much of the
design the queries actually pulled in.

Values of latches that were never encoded are reconstructed by concrete
forward simulation at trace-extraction time (:meth:`Unroller.frame_values`),
so counterexample waveforms stay complete.

On the native SAT core the AND walk runs in C (``_satcore``'s ``Encoder``
over the AIG as int arrays, :meth:`Unroller.native_aig`), with the same
``new_var`` and ``add_clause`` order as :meth:`Unroller._encode_node`,
which stays as the encoder for :class:`~repro.formal.sat.PySolver`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .aig import FALSE, TRUE
from .coi import latch_support
from .sat import Solver, native_kernel
from .transition import TransitionSystem

__all__ = ["FrameEnv", "Unroller"]


class FrameEnv:
    """SAT environment of one time frame: AIG input node -> SAT literal."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.input_sat: Dict[int, int] = {}
        self._gate_cache: Dict[int, int] = {}


class Unroller:
    """Incrementally unrolls a transition system into a SAT instance."""

    def __init__(self, system: TransitionSystem, solver: Optional[Solver] = None,
                 symbolic_init: bool = False,
                 eager_latches: bool = False) -> None:
        self.system = system
        self.solver = solver or Solver()
        self.symbolic_init = symbolic_init
        #: Encode every latch in every frame up front (the pre-slicing
        #: behaviour).  PDR wants this: its unrolling is only two frames
        #: deep, and search trajectory there is sensitive to variable
        #: numbering — keeping the historical numbering keeps the
        #: historical (tuned-for) trajectories.  Deep BMC unrollings keep
        #: the default lazy slicing.
        self.eager_latches = eager_latches
        self._frames: List[FrameEnv] = []
        # node -> transitive latch closure of its next-state cone.
        self._cone_cache: Dict[int, List] = {}
        # node -> deepest frame whose cone is fully materialized (avoids
        # re-scanning frames 1..k-1 every time a sweep touches depth k).
        self._cone_depth: Dict[int, int] = {}
        # SAT literals for the constants.
        self._true_sat = self.solver.new_var()
        self.solver.add_clause([self._true_sat])
        #: The ``_satcore`` module when the solver runs on the native core
        #: (then encoding runs there, on ``_aig``), else None.
        self.kernel = native_kernel(self.solver)
        self._encoder = None
        if self.kernel is not None:
            self._aig = self.kernel.Aig()
            self._encoder = self.kernel.Encoder(
                self.native_aig(), self.solver._impl, self._true_sat)

    def native_aig(self):
        """The system's AIG as the native kernel's int arrays, re-synced
        whenever the graph has grown (monitors or queries built after the
        unrolling started)."""
        aig = self.system.aig
        if self._aig.next_node != aig._next_node:
            self._aig.sync(aig._and_of,
                           [latch.node for latch in self.system.latches],
                           aig._next_node)
        return self._aig

    @property
    def num_frames(self) -> int:
        return len(self._frames)

    def frame(self, k: int) -> FrameEnv:
        """Return frame ``k``, materializing frames up to it as needed."""
        while len(self._frames) <= k:
            self._push_frame()
        return self._frames[k]

    def _push_frame(self) -> None:
        index = len(self._frames)
        env = FrameEnv(index)
        if self._encoder is not None:
            self._encoder.add_frame(env.input_sat)
        system = self.system
        # Primary inputs are free every cycle: a fresh variable each, eagerly
        # (cheap, and PDR's ternary lifting reads them back by node).
        for node in system.inputs:
            env.input_sat[node] = self.solver.new_var()
        # By default latches are *not* encoded here: their current-value
        # literal (and transitively the previous frame's next-state cone)
        # materializes on first use, in _latch_sat.  That is the per-frame
        # cone slicing.  ``eager_latches`` restores the historical
        # encode-everything order instead.
        self._frames.append(env)
        if self.eager_latches:
            if index == 0:
                for latch in system.latches:
                    var = self.solver.new_var()
                    env.input_sat[latch.node] = var
                    if latch.init is not None and not self.symbolic_init:
                        self.solver.add_clause(
                            [var if latch.init else -var])
            else:
                prev = self._frames[index - 1]
                for latch in system.latches:
                    env.input_sat[latch.node] = self._encode(latch.next_lit,
                                                             prev)
        # Invariant constraints hold in every materialized frame.
        for prop in system.constraints:
            sat_lit = self._encode(prop.lit, env)
            self.solver.add_clause([sat_lit])

    # ------------------------------------------------------------------
    def sat_literal(self, aig_lit: int, k: int) -> int:
        """SAT literal for AIG literal ``aig_lit`` evaluated at frame ``k``."""
        return self._encode(aig_lit, self.frame(k))

    def _encode(self, aig_lit: int, env: FrameEnv) -> int:
        node = aig_lit & ~1
        negated = aig_lit & 1
        if self._encoder is None:
            sat = self._encode_node(node, env)
        else:
            sat = self._encode_native(node, env)
        return -sat if negated else sat

    def _encode_native(self, node: int, env: FrameEnv) -> int:
        """:meth:`_encode_node` on the native kernel.  A latch the walk
        meets unencoded comes back here for :meth:`_latch_sat`, then the
        same walk resumes, so numbering matches the Python walk."""
        self.native_aig()
        encoder = self._encoder
        sat = encoder.encode(node, env.index)
        while sat is None:
            self._latch_sat(encoder.pending, env)
            sat = encoder.resume()
        return sat

    def _frame0_latch(self, node: int) -> int:
        """Allocate frame 0's variable for a latch (reset-constrained
        unless the unrolling is symbolic-init)."""
        latch = self.system.latch_of(node)
        var = self.solver.new_var()
        self._frames[0].input_sat[node] = var
        if latch.init is not None and not self.symbolic_init:
            self.solver.add_clause([var if latch.init else -var])
        return var

    def _latch_cone(self, node: int) -> List:
        """Transitive latch closure of one latch's next-state cone, cached.

        The closure is what bottom-up materialization needs: every latch a
        frame-k value can transitively depend on, in declaration order.
        """
        cached = self._cone_cache.get(node)
        if cached is None:
            system = self.system
            closed: Set[int] = set()
            frontier = {node}
            while frontier:
                current = frontier.pop()
                if current in closed:
                    continue
                closed.add(current)
                latch = system.latch_of(current)
                for dep in latch_support(system, [latch.next_lit]):
                    if dep not in closed:
                        frontier.add(dep)
            cached = [latch for latch in system.latches
                      if latch.node in closed]
            self._cone_cache[node] = cached
        return cached

    def _latch_sat(self, node: int, env: FrameEnv) -> int:
        """Current-value literal of a latch in ``env``, encoded on demand.

        Frame 0 allocates a fresh variable; frame k>0 materializes the
        latch's whole transitive cone *bottom-up*, frame by frame, so no
        cross-frame recursion occurs (a recursive formulation would hit
        Python's recursion limit at unrolling depths of a few hundred).
        By the closure property, encoding a cone latch's next-state
        function at frame j only ever reads cone latches at frame j-1 —
        already materialized by the previous outer iteration (or frame 0's
        direct allocation).
        """
        if env.index == 0:
            return self._frame0_latch(node)
        cone = self._latch_cone(node)
        done = self._cone_depth.get(node, 0)
        for j in range(done + 1, env.index + 1):
            prev = self._frames[j - 1]
            frame_j = self._frames[j]
            for latch in cone:
                if latch.node not in frame_j.input_sat:
                    frame_j.input_sat[latch.node] = self._encode(
                        latch.next_lit, prev)
        if env.index > done:
            self._cone_depth[node] = env.index
        return env.input_sat[node]

    def _encode_node(self, node: int, env: FrameEnv) -> int:
        if node == FALSE:
            return -self._true_sat
        cached = env._gate_cache.get(node)
        if cached is not None:
            return cached
        sat_in = env.input_sat.get(node)
        if sat_in is not None:
            return sat_in
        system = self.system
        if system.is_latch_node(node):
            return self._latch_sat(node, env)
        aig = system.aig
        # Iterative post-order encoding of the AND cone.
        gate_cache = env._gate_cache
        input_sat = env.input_sat
        stack = [node]
        while stack:
            cur = stack[-1]
            if cur in gate_cache or cur in input_sat:
                stack.pop()
                continue
            if not aig.is_and(cur):
                if system.is_latch_node(cur):
                    self._latch_sat(cur, env)
                else:
                    # Unconstrained node (e.g. a symbolic variable created
                    # after this frame): give it a free SAT variable.
                    input_sat[cur] = self.solver.new_var()
                stack.pop()
                continue
            lhs, rhs = aig.fanins(cur)
            pending = [n for n in (lhs & ~1, rhs & ~1)
                       if n != FALSE and n not in gate_cache
                       and n not in input_sat]
            if pending:
                stack.extend(pending)
                continue
            lhs_sat = self._leaf(lhs, env)
            rhs_sat = self._leaf(rhs, env)
            out = self.solver.new_var()
            # Tseitin clauses for out <-> lhs & rhs.
            self.solver.add_clause([-out, lhs_sat])
            self.solver.add_clause([-out, rhs_sat])
            self.solver.add_clause([out, -lhs_sat, -rhs_sat])
            gate_cache[cur] = out
            stack.pop()
        return gate_cache.get(node) or input_sat[node]

    def _leaf(self, aig_lit: int, env: FrameEnv) -> int:
        node = aig_lit & ~1
        if node == FALSE:
            sat = -self._true_sat
        else:
            sat = env._gate_cache.get(node)
            if sat is None:
                sat = env.input_sat[node]
        return -sat if aig_lit & 1 else sat

    # ------------------------------------------------------------------
    # Slicing statistics
    # ------------------------------------------------------------------
    def slicing(self) -> Dict[str, int]:
        """How much of the design the queries pulled into the solver.

        ``latch_slots`` is latches x frames (what the eager encoder used to
        encode); ``encoded_latch_slots`` how many were actually needed.
        """
        total = len(self.system.latches) * max(1, len(self._frames))
        encoded = sum(1 for env in self._frames for node in env.input_sat
                      if self.system.is_latch_node(node))
        return {"frames": len(self._frames),
                "latch_slots": total,
                "encoded_latch_slots": encoded,
                "solver_vars": self.solver.num_vars}

    # ------------------------------------------------------------------
    # Trace support
    # ------------------------------------------------------------------
    def input_values(self, k: int) -> Dict[int, bool]:
        """After SAT, the model's values for frame ``k`` *encoded* nodes."""
        env = self.frame(k)
        values: Dict[int, bool] = {}
        for node, sat in env.input_sat.items():
            val = self.solver.value(sat)
            values[node] = bool(val)
        return values

    def frame_values(self, depth: int) -> List[Dict[int, bool]]:
        """Complete per-frame node values for frames ``0..depth``.

        Encoded nodes read back their SAT model value; latches the cone
        slicing never encoded are reconstructed by concrete simulation
        (reset value at frame 0, previous frame's next-state function
        after), so trace extraction sees a complete waveform.  Unencoded
        free inputs default to 0 — they are, by construction, outside every
        queried cone.
        """
        aig = self.system.aig
        envs: List[Dict[int, bool]] = []
        prev: Optional[Dict[int, bool]] = None
        for k in range(depth + 1):
            values = self.input_values(k)
            for latch in self.system.latches:
                if latch.node in values:
                    continue
                if k == 0:
                    if self.symbolic_init or latch.init is None:
                        values[latch.node] = False
                    else:
                        values[latch.node] = bool(latch.init)
                else:
                    values[latch.node] = aig.eval_literal(latch.next_lit,
                                                          prev)
            envs.append(values)
            prev = values
        return envs
