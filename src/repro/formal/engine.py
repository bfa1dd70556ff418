"""The proof engine: per-property orchestration of BMC, k-induction and L2S.

This module plays the role JasperGold/SymbiYosys play in the paper's flow
(Fig. 4): it takes a compiled formal testbench (a
:class:`~repro.formal.transition.TransitionSystem` carrying asserts, assumes,
covers, liveness and fairness) and returns, per property, one of:

* ``proven``      — invariant proof closed by k-induction (or L2S+induction),
* ``cex``         — a counterexample trace (safety violation or liveness
  lasso),
* ``covered``     — a witness trace reaching a cover target,
* ``unreachable`` — a cover target proven unreachable,
* ``unknown``     — bound exhausted without a verdict.

The engine mirrors the paper's usage model: run everything, report a proof
rate, and hand short CEX traces to the designer.

**Set-at-a-time orchestration.**  The engine checks a property set the way
production FV tools do:

* one :func:`~repro.formal.bmc.bmc_sweep` walks the depths once and decides
  every assert, cover and liveness lasso hunt on a shared unroller —
  learned clauses and (lazily cone-sliced) frame encodings amortize across
  the whole property set;
* proof attempts receive the sweep's warm state through
  :class:`~repro.formal.engines.ProofContext`: k-induction base cases
  extend the sweep's frames and skip the depths the sweep already
  cleared.  (PDR runs deliberately get *fresh* solver state per property
  — sharing was measured and rejected, see ``_proof_context``.);
* a proof backend that reports a counterexample *depth* beyond the sweep
  bound gets its trace regenerated by resuming BMC past the cleared bound
  (``start_depth``), never by re-hunting from zero.

Verdicts and CEX/cover depths are those of checking each property on its
own (each BMC query is an exact decision); proof-artifact depths (PDR
closing frame, induction k) legitimately depend on solver state.

Since the ``repro.api`` redesign the engine is the *check* half only: proof
backends are looked up in the :mod:`repro.formal.engines` registry (so
``EngineConfig.proof_engine`` is data, not an if/elif), the compile half
lives in :mod:`repro.api.compile`, and :meth:`FormalEngine.check_properties`
checks any named subset — the hook per-property scheduling builds on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Collection, Dict, List, Optional

from ..obs import METRICS, TRACER
from .bmc import BmcResult, SweepTarget, bmc_cover, bmc_safety, bmc_sweep
from .cnf import Unroller
from .engines import (EngineVerdict, ProofContext, available_engines,
                      available_liveness_strategies, get_engine,
                      get_liveness_strategy, prove_with)
from .liveness import (SAVED_OBSERVABLE, compile_kliveness, compile_liveness,
                       find_loop_start)
from .trace import Trace
from .transition import TransitionSystem

__all__ = ["PropertyResult", "CheckReport", "FormalEngine", "EngineConfig"]

PROVEN = "proven"
CEX = "cex"
COVERED = "covered"
UNREACHABLE = "unreachable"
UNKNOWN = "unknown"


@dataclass
class EngineConfig:
    """Bounds and strategy knobs for the proof engine.

    ``max_bound`` limits BMC bug hunting; ``proof_engine`` names a
    registered proof engine (see :mod:`repro.formal.engines`) — built-ins
    are ``"pdr"`` (IC3, the default and what production tools use),
    ``"kind"`` (k-induction, kept for the ablation study E12) and
    ``"bmc-only"`` (bug hunting without proof attempts);
    ``max_frames`` bounds PDR frames, ``max_k`` bounds induction depth;
    ``simple_path`` toggles the path-uniqueness strengthening of k-induction;
    ``liveness_strategy`` selects L2S+proof (``"l2s"``) or pure bounded lasso
    search (``"bounded"``, bug-hunting only).

    Unknown ``proof_engine`` / ``liveness_strategy`` names raise
    :class:`~repro.core.language.AutoSVAError` at construction — a config
    typo must fail where it is written, not minutes later inside a worker.
    """

    max_bound: int = 20
    max_k: int = 20
    simple_path: bool = True
    liveness_strategy: str = "l2s"
    proof_engine: str = "pdr"
    max_frames: int = 80
    kliveness_rounds: tuple = (1, 2, 4)

    def __post_init__(self) -> None:
        # Imported here: core.language must stay importable without pulling
        # the whole core package through formal at module-import time.
        from ..core.language import AutoSVAError
        if self.proof_engine not in available_engines():
            raise AutoSVAError(
                f"unknown proof engine {self.proof_engine!r}; registered "
                f"engines: {', '.join(available_engines())}")
        if self.liveness_strategy not in available_liveness_strategies():
            raise AutoSVAError(
                f"unknown liveness strategy {self.liveness_strategy!r}; "
                f"registered strategies: "
                f"{', '.join(available_liveness_strategies())}")
        for bound_name in ("max_bound", "max_k", "max_frames"):
            if getattr(self, bound_name) < 0:
                raise AutoSVAError(f"{bound_name} must be >= 0, "
                                   f"got {getattr(self, bound_name)}")


@dataclass
class PropertyResult:
    name: str
    kind: str            # assert | cover | live
    status: str          # proven | cex | covered | unreachable | unknown
    depth: int = 0
    trace: Optional[Trace] = None
    time_s: float = 0.0

    @property
    def ok(self) -> bool:
        """True when the property's obligation is met (proof or coverage)."""
        return self.status in (PROVEN, COVERED)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PropertyResult({self.name!r}, {self.kind}, {self.status}, "
                f"depth={self.depth}, {self.time_s:.3f}s)")


@dataclass
class CheckReport:
    """Results for one verification run over a whole testbench."""

    design: str
    results: List[PropertyResult] = field(default_factory=list)
    total_time_s: float = 0.0
    #: Seconds spent inside SAT ``solve()`` calls during this run — the
    #: solver share of ``total_time_s`` (the rest is encoding/orchestration).
    solve_time_s: float = 0.0
    #: Solver-counter deltas for this run (conflicts, decisions, ...),
    #: from :attr:`FormalEngine.solver_stats` before/after the check.
    solver: Dict[str, float] = field(default_factory=dict)

    def by_name(self, name: str) -> PropertyResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    @property
    def num_properties(self) -> int:
        return len(self.results)

    @property
    def num_proven(self) -> int:
        return sum(1 for r in self.results if r.status == PROVEN)

    @property
    def num_cex(self) -> int:
        return sum(1 for r in self.results if r.status == CEX)

    @property
    def proof_rate(self) -> float:
        """Fraction of assert/live properties that were proven."""
        checkable = [r for r in self.results if r.kind in ("assert", "live")]
        if not checkable:
            return 1.0
        return sum(1 for r in checkable if r.status == PROVEN) / len(checkable)

    @property
    def cex_results(self) -> List[PropertyResult]:
        return [r for r in self.results if r.status == CEX]

    def summary(self) -> str:
        lines = [f"== {self.design}: {self.num_properties} properties, "
                 f"{self.num_proven} proven, {self.num_cex} CEX, "
                 f"proof rate {self.proof_rate:.0%}, "
                 f"{self.total_time_s:.2f}s =="]
        for result in self.results:
            mark = {"proven": "PASS ", "covered": "COVER",
                    "unreachable": "UNREA", "cex": "FAIL ",
                    "unknown": "?    "}[result.status]
            depth = f" depth={result.depth}" if result.status in (CEX, COVERED) else ""
            lines.append(f"  [{mark}] {result.kind:<6} {result.name}{depth}")
        return "\n".join(lines)


class FormalEngine:
    """Runs properties of a compiled testbench and collates a report.

    ``system_factory`` must return a *fresh* TransitionSystem on each call;
    the engine builds separate instances for safety and liveness so the L2S
    monitor state never weakens safety induction.  A
    :class:`~repro.api.compile.CompiledDesign` provides exactly such a
    factory (``compiled.system``) without re-running the RTL frontend.

    The schedulable unit is a property *subset*: :meth:`check_properties`
    checks any named group, which is what lets the campaign layer shard one
    design's property set across workers; :meth:`check_all` is the
    everything-at-once convenience wrapper.

    The engine keeps its hunt state — sweep unrollers and the L2S
    compilation — warm on the instance, so repeated
    :meth:`check_properties` calls on one engine (the per-property task
    path) pay the encoding once.
    """

    def __init__(self, system_factory: Callable[[], TransitionSystem],
                 config: Optional[EngineConfig] = None) -> None:
        self._factory = system_factory
        self.config = config or EngineConfig()
        # Warm state, created lazily, keyed to this engine.
        self._probe: Optional[TransitionSystem] = None
        self._hunt: Optional[Unroller] = None
        self._live_system: Optional[TransitionSystem] = None
        self._live_compilation = None
        self._live_hunt: Optional[Unroller] = None
        # Persistent solvers whose counters feed solver_stats.
        self._tracked_solvers: List = []

    # -- warm-state accessors ---------------------------------------------
    def _track(self, solver) -> None:
        """Register a *persistent* solver whose counters feed solver_stats."""
        self._tracked_solvers.append(solver)

    @property
    def solver_stats(self) -> Dict[str, float]:
        """Aggregated counters over the engine's warm hunt solvers.

        Solvers a proof backend builds for itself (PDR, k-induction) are
        not included.
        """
        totals: Dict[str, float] = {}
        for solver in self._tracked_solvers:
            for key, value in solver.stats.as_dict().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def warm_ints(self) -> int:
        """Approximate size (ints) of the warm solvers' clause arenas.

        Arenas only grow — deleted learned clauses and retired guards
        leave dead slots — so long-lived callers
        (:meth:`~repro.api.compile.CompiledDesign.engine_for`) use this to
        decide when to retire a warm engine instead of reusing it.
        """
        return sum(solver.arena_ints for solver in self._tracked_solvers)

    def _probe_system(self) -> TransitionSystem:
        if self._probe is None:
            self._probe = self._factory()
        return self._probe

    def _hunt_unroller(self) -> Unroller:
        if self._hunt is None:
            self._hunt = Unroller(self._probe_system())
            self._track(self._hunt.solver)
        return self._hunt

    def _proof_context(self) -> ProofContext:
        """Context for safety proofs on the probe system.

        Deliberately carries no shared PDR solver: corpus-wide A/B
        measurement showed PDR runs on a warm shared solver take ~30% more
        conflicts and ~2x the decisions (accumulated learned state steers
        later properties' searches off course), costing more than the
        two-frame re-encode it saves.  k-induction's hunt-frame reuse has
        no such feedback loop and stays.
        """
        return ProofContext(hunt_unroller=self._hunt_unroller(),
                            cleared_depth=self.config.max_bound)

    def _live_state(self):
        if self._live_system is None:
            self._live_system = self._factory()
            self._live_compilation = compile_liveness(self._live_system)
            self._live_hunt = Unroller(self._live_system)
            self._track(self._live_hunt.solver)
        return self._live_system, self._live_compilation, self._live_hunt

    # -- public API -------------------------------------------------------
    def check_all(self) -> CheckReport:
        return self.check_properties(None)

    def check_properties(self,
                         names: Optional[Collection[str]] = None
                         ) -> CheckReport:
        """Check the named properties (``None`` = every property).

        Results come back in canonical order — asserts, covers, liveness,
        each in declaration order — restricted to ``names``.  Unknown names
        raise ``KeyError`` before any solving starts.
        """
        start = time.perf_counter()
        stats_before = self.solver_stats
        only = None if names is None else set(names)
        probe = self._probe_system()
        if only is not None:
            known = {p.name for p in
                     probe.asserts + probe.covers + probe.liveness}
            missing = sorted(only - known)
            if missing:
                raise KeyError(f"no property named {missing[0]!r}")
        report = CheckReport(design=probe.name)
        # One sweep decides every assert *and* cover hunt: the disjunction
        # batching inside bmc_sweep then scales with the number of failing
        # properties, not the number of properties.
        safety_props = self._selected(probe.asserts, only)
        cover_props = self._selected(probe.covers, only)
        targets = ([SweepTarget(p.name, p.lit, "assert")
                    for p in safety_props]
                   + [SweepTarget(p.name, p.lit, "cover")
                      for p in cover_props])
        sweep: Dict[str, object] = {}
        share = 0.0
        if targets:
            begin = time.perf_counter()
            sweep = bmc_sweep(probe, targets, self.config.max_bound,
                              unroller=self._hunt_unroller())
            share = (time.perf_counter() - begin) / len(targets)
        report.results.extend(
            self._check_safety(probe, safety_props, sweep, share))
        report.results.extend(
            self._check_covers(probe, cover_props, sweep, share))
        if self._selected(probe.liveness, only):
            report.results.extend(self._check_liveness(only))
        report.total_time_s = time.perf_counter() - start
        stats_after = self.solver_stats
        delta = {key: value - stats_before.get(key, 0)
                 for key, value in stats_after.items()
                 if value != stats_before.get(key, 0)}
        report.solver = delta
        report.solve_time_s = float(delta.get("wall_time_s", 0.0))
        for key, value in delta.items():
            METRICS.counter(f"solver.{key}").inc(value)
        if TRACER.enabled:
            TRACER.instant("engine.check_done", cat="engine",
                           args={"design": probe.name,
                                 "properties": len(report.results),
                                 "solve_time_s":
                                     round(report.solve_time_s, 6)})
        return report

    def check_property(self, name: str) -> PropertyResult:
        """Check a single property by name (assert, cover or liveness)."""
        return self.check_properties([name]).results[0]

    @staticmethod
    def _selected(props, only) -> List:
        return [p for p in props if only is None or p.name in only]

    # -- safety -----------------------------------------------------------
    def _check_safety(self, system: TransitionSystem, props,
                      sweep, share: float) -> List[PropertyResult]:
        if not props:
            return []
        unroller = self._hunt_unroller()
        engine = get_engine(self.config.proof_engine)
        results = []
        for prop in props:
            begin_p = time.perf_counter()
            hunt = sweep[(prop.name, "assert")]
            if hunt.failed:
                result = PropertyResult(prop.name, "assert", CEX,
                                        depth=hunt.depth, trace=hunt.trace)
            else:
                result = self._prove_safety(system, prop, engine, unroller)
            result.time_s = share + (time.perf_counter() - begin_p)
            results.append(result)
        return results

    def _prove_safety(self, system: TransitionSystem, prop, engine,
                      unroller: Unroller) -> PropertyResult:
        """Proof attempt for a property the sweep failed to falsify."""
        verdict = prove_with(engine, system, prop.lit, self.config,
                             self._proof_context())
        return self._settle(verdict, prop.name, "assert",
                            engine.unknown_depth(self.config),
                            partial(bmc_safety, system, prop.lit,
                                    property_name=prop.name,
                                    unroller=unroller))

    def _settle(self, verdict: EngineVerdict, name: str, kind: str,
                unknown_depth: int, regenerate: Callable[..., BmcResult],
                finish: Callable[[Trace], Trace] = lambda trace: trace
                ) -> PropertyResult:
        """Map a proof attempt's verdict onto the property's result.

        A counterexample the backend reports without a trace (PDR learns
        only the depth) is regenerated by ``regenerate(depth,
        start_depth=...)``, a BMC run resuming past the bound the sweep
        already cleared.  ``finish`` post-processes the reported trace.
        Covers read a proof as unreachable and a violation as covered.
        """
        held, violated = ((UNREACHABLE, COVERED) if kind == "cover"
                          else (PROVEN, CEX))
        if verdict.proven:
            return PropertyResult(name, kind, held, depth=verdict.depth)
        if verdict.failed:
            if verdict.trace is not None:
                # Backends see only the literal; restore the property name
                # the trace renderer prints.
                verdict.trace.property_name = name
                return PropertyResult(name, kind, violated,
                                      depth=verdict.cex_depth,
                                      trace=finish(verdict.trace))
            deep = regenerate(max(verdict.cex_depth, self.config.max_bound),
                              start_depth=self.config.max_bound + 1)
            if deep.failed:
                return PropertyResult(name, kind, violated, depth=deep.depth,
                                      trace=finish(deep.trace))
        return PropertyResult(name, kind, UNKNOWN, depth=unknown_depth)

    # -- covers -----------------------------------------------------------
    def _check_covers(self, system: TransitionSystem, props,
                      sweep, share: float) -> List[PropertyResult]:
        if not props:
            return []
        unroller = self._hunt_unroller()
        proves = get_engine(self.config.proof_engine).proves_covers
        results = []
        for prop in props:
            begin_p = time.perf_counter()
            hunt = sweep[(prop.name, "cover")]
            if hunt.failed:  # "failed" = target reached = covered
                result = PropertyResult(prop.name, "cover", COVERED,
                                        depth=hunt.depth, trace=hunt.trace)
            elif not proves:
                # A no-proof engine (bmc-only) stops at the hunt.
                result = PropertyResult(prop.name, "cover", UNKNOWN,
                                        depth=self.config.max_bound)
            else:
                result = self._prove_cover(system, prop, unroller)
            result.time_s = share + (time.perf_counter() - begin_p)
            results.append(result)
        return results

    def _prove_cover(self, system: TransitionSystem, prop,
                     unroller: Unroller) -> PropertyResult:
        # Try to prove the cover unreachable (negation invariant).  Cover
        # unreachability is frame-shaped work, so proving engines all go
        # to PDR here regardless of the configured proof engine (matching
        # the pre-registry behaviour for pdr and kind).
        proof = prove_with(get_engine("pdr"), system, prop.lit ^ 1,
                           self.config, self._proof_context())
        return self._settle(proof, prop.name, "cover", self.config.max_bound,
                            partial(bmc_cover, system, prop.lit,
                                    property_name=prop.name,
                                    unroller=unroller))

    # -- liveness ---------------------------------------------------------
    @staticmethod
    def _lasso_trace(trace: Trace) -> Trace:
        """Mark the loop start on an L2S counterexample trace."""
        saved = trace.cycles.get(SAVED_OBSERVABLE, [])
        trace.loop_start = find_loop_start(saved)
        return trace

    def _check_liveness(self,
                        only: Optional[set] = None) -> List[PropertyResult]:
        system, compilation, unroller = self._live_state()
        wanted = [(name, bad) for name, bad in compilation.bad_lits.items()
                  if only is None or name in only]
        if not wanted:
            return []
        begin = time.perf_counter()
        sweep = bmc_sweep(system,
                          [SweepTarget(name, bad, "cover")
                           for name, bad in wanted],
                          self.config.max_bound, unroller=unroller)
        share = (time.perf_counter() - begin) / len(wanted)
        strategy = get_liveness_strategy(self.config.liveness_strategy)
        engine = get_engine(self.config.proof_engine)
        results = []
        for name, bad_lit in wanted:
            begin_p = time.perf_counter()
            hunt = sweep[(name, "cover")]
            if hunt.failed:  # lasso found: liveness CEX
                result = PropertyResult(name, "live", CEX, depth=hunt.depth,
                                        trace=self._lasso_trace(hunt.trace))
            elif not strategy.proves:
                result = PropertyResult(name, "live", UNKNOWN,
                                        depth=self.config.max_bound)
            else:
                result = self._prove_liveness(system, name, bad_lit,
                                              engine, unroller)
            result.time_s = share + (time.perf_counter() - begin_p)
            results.append(result)
        return results

    def _kliveness_ladder(self, name: str, engine) -> Optional[int]:
        """k-liveness attempts, each on a fresh monitor system.

        Returns the proving PDR depth, or None.  Attempts deliberately do
        *not* share solver state: PDR runtime on the tiny monitor systems
        is dominated by search trajectory, not encoding cost, and a fresh
        system per attempt keeps each rung's trajectory independent of how
        the previous rung failed (measured: a stacked-monitor shared
        context ran up to an order of magnitude slower).
        """
        for rounds in self.config.kliveness_rounds:
            fresh = self._factory()
            bad_k = compile_kliveness(fresh, name, rounds)
            attempt = engine.prove_invariant(fresh, bad_k ^ 1, self.config)
            if attempt.proven:
                return attempt.depth
            if not attempt.failed:
                break  # bound exhausted: a bigger k will not help
        return None

    def _prove_liveness(self, system: TransitionSystem, name: str,
                        bad_lit: int, engine,
                        unroller: Unroller) -> PropertyResult:
        if engine.liveness_ladder:
            # Proof ladder: k-liveness monitors first (tiny state, usually
            # easy for a frame-based engine), then full L2S as the complete
            # fallback.
            depth = self._kliveness_ladder(name, engine)
            if depth is not None:
                return PropertyResult(name, "live", PROVEN, depth=depth)
        context = ProofContext(hunt_unroller=unroller,
                               cleared_depth=self.config.max_bound)
        proof = prove_with(engine, system, bad_lit ^ 1, self.config,
                           context)
        return self._settle(proof, name, "live",
                            engine.unknown_depth(self.config),
                            partial(bmc_cover, system, bad_lit,
                                    property_name=name, unroller=unroller),
                            finish=self._lasso_trace)
