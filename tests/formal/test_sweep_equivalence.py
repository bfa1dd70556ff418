"""Batched-sweep equivalence: bmc_sweep vs per-property BMC, and the
engine's verdicts on a fixture whose truth is known.

The hot-path contract is that batching changes *solver work*, never
*answers*: every (target, depth) BMC query is decided by the formula, so
``bmc_sweep`` must return the verdicts and depths of the per-property
functions, and the engine must report the statuses a property-at-a-time
check would.  Trace witnesses are model-dependent (a shared solver may
find a different — equally valid — model), so traces are compared in
full only on deterministic systems (no free inputs) and structurally
elsewhere.
"""

import pytest

from repro.formal import (EngineConfig, FormalEngine, TransitionSystem,
                          bmc_cover, bmc_safety)
from repro.formal.bmc import SweepTarget, bmc_sweep


def make_counter(width=3, wrap=True):
    ts = TransitionSystem("counter")
    g = ts.aig
    lats = ts.add_latch_vec("cnt", width, init=0)
    bits = [lat.node for lat in lats]
    inc = g.add_vec(bits, g.const_vec(1, width))
    if wrap:
        for lat, nxt in zip(lats, inc):
            ts.set_next(lat, nxt)
    else:
        top = g.eq_vec(bits, g.const_vec((1 << width) - 1, width))
        for lat, nxt, cur in zip(lats, inc, bits):
            ts.set_next(lat, g.MUX(top, cur, nxt))
    ts.add_observable("cnt", bits)
    return ts, bits


class TestSweepVsPerProperty:
    def test_mixed_targets_match_individual_runs(self):
        """Verdicts, depths and (deterministic) traces match per-property
        BMC for a mix of failing asserts, held asserts and covers."""
        ts, bits = make_counter()
        g = ts.aig
        targets = [
            SweepTarget("bad5", g.NOT(g.eq_vec(bits, g.const_vec(5, 3))),
                        "assert"),
            SweepTarget("bad2", g.NOT(g.eq_vec(bits, g.const_vec(2, 3))),
                        "assert"),
            SweepTarget("holds", g.OR(bits[0], g.NOT(bits[0])), "assert"),
            SweepTarget("reach3", g.eq_vec(bits, g.const_vec(3, 3)),
                        "cover"),
            SweepTarget("reach_never", g.AND(bits[0], g.NOT(bits[0])),
                        "cover"),
        ]
        swept = bmc_sweep(ts, targets, max_depth=10)
        for target in targets:
            if target.kind == "assert":
                solo = bmc_safety(ts, target.lit, 10,
                                  property_name=target.name)
            else:
                solo = bmc_cover(ts, target.lit, 10,
                                 property_name=target.name)
            batched = swept[(target.name, target.kind)]
            assert batched.failed == solo.failed, target.name
            assert batched.depth == solo.depth, target.name
            if solo.failed:
                # The counter has no free inputs: the witness is unique,
                # so even the traces must agree cycle for cycle.
                assert batched.trace.cycles == solo.trace.cycles
                assert batched.trace.depth == solo.trace.depth
            else:
                assert batched.trace is None

    def test_sweep_decides_each_target_at_minimal_depth(self):
        ts, bits = make_counter()
        g = ts.aig
        swept = bmc_sweep(
            ts,
            [SweepTarget(f"bad{v}",
                         g.NOT(g.eq_vec(bits, g.const_vec(v, 3))),
                         "assert") for v in (1, 4, 6)],
            max_depth=8)
        assert {name: r.depth for (name, _), r in swept.items()} == \
            {"bad1": 1, "bad4": 4, "bad6": 6}
        assert all(r.failed for r in swept.values())

    def test_duplicate_name_kind_rejected(self):
        ts, bits = make_counter()
        g = ts.aig
        lit = g.NOT(bits[0])
        with pytest.raises(ValueError, match="duplicate"):
            bmc_sweep(ts, [SweepTarget("x", lit, "assert"),
                           SweepTarget("x", g.NOT(lit), "assert")], 4)

    def test_assert_and_cover_may_share_a_name(self):
        """Names are unique per *kind*: an assert and a cover with the
        same label must both be decided (regression: the batched engine
        merges both families into one sweep)."""
        ts, bits = make_counter()
        g = ts.aig
        swept = bmc_sweep(
            ts, [SweepTarget("handshake",
                             g.NOT(g.eq_vec(bits, g.const_vec(5, 3))),
                             "assert"),
                 SweepTarget("handshake",
                             g.eq_vec(bits, g.const_vec(3, 3)), "cover")],
            max_depth=8)
        assert swept[("handshake", "assert")].depth == 5
        assert swept[("handshake", "cover")].depth == 3

    def test_start_depth_resumes_past_cleared_bound(self):
        """start_depth skips cleared depths without changing the verdict."""
        ts, bits = make_counter()
        g = ts.aig
        bad6 = g.NOT(g.eq_vec(bits, g.const_vec(6, 3)))
        full = bmc_safety(ts, bad6, 10)
        resumed = bmc_safety(ts, bad6, 10, start_depth=5)
        assert full.failed and resumed.failed
        assert full.depth == resumed.depth == 6
        assert resumed.trace.cycles == full.trace.cycles
        # Resuming past the failure depth must *miss* it: the caller owns
        # the claim that earlier depths were cleared.
        late = bmc_safety(ts, bad6, 10, start_depth=7)
        assert not late.failed

    def test_sweep_on_shared_unroller_equals_fresh(self):
        """Query order on a shared unroller cannot change answers."""
        from repro.formal.cnf import Unroller

        ts, bits = make_counter(wrap=False)
        g = ts.aig
        targets = [
            SweepTarget("top", g.eq_vec(bits, g.const_vec(7, 3)), "cover"),
            SweepTarget("never8",
                        g.NOT(g.eq_vec(bits, g.const_vec(7, 3))), "assert"),
        ]
        shared = Unroller(ts)
        first = bmc_sweep(ts, targets, 9, unroller=shared)
        again = bmc_sweep(ts, targets, 9, unroller=shared)
        fresh = bmc_sweep(ts, targets, 9)
        for key in (("top", "cover"), ("never8", "assert")):
            assert first[key].failed == again[key].failed \
                == fresh[key].failed
            assert first[key].depth == again[key].depth \
                == fresh[key].depth


def _engine_outcome(report):
    """The deterministic projection of a report: status always, depth for
    the exact (trace-backed) verdicts; proof-artifact depths are solver-
    trajectory-dependent and deliberately excluded."""
    out = []
    for r in report.results:
        depth = r.depth if r.status in ("cex", "covered") else None
        out.append((r.name, r.kind, r.status, depth))
    return out


class TestBatchedVsLegacyEngine:
    def _factory(self):
        def factory():
            ts, bits = make_counter(width=4)
            g = ts.aig
            ts.add_assert("never11",
                          g.NOT(g.eq_vec(bits, g.const_vec(11, 4))))
            ts.add_assert("tautology", g.OR(bits[0], g.NOT(bits[0])))
            ts.add_cover("reach6", g.eq_vec(bits, g.const_vec(6, 4)))
            ts.add_cover("reach_never", g.AND(bits[0], g.NOT(bits[0])))
            return ts
        return factory

    #: The fixture's truth per proof engine: a 4-bit wrapping counter
    #: reaches 11 at cycle 11 (past the hunt bound of 8, so the proof
    #: engine must find it) and 6 at cycle 6; bmc-only stops at the hunt.
    PROVED = [("never11", "assert", "cex", 11),
              ("tautology", "assert", "proven", None),
              ("reach6", "cover", "covered", 6),
              ("reach_never", "cover", "unreachable", None)]
    KNOWN = {
        "pdr": PROVED,
        "kind": PROVED,
        "bmc-only": [("never11", "assert", "unknown", None),
                     ("tautology", "assert", "unknown", None),
                     ("reach6", "cover", "covered", 6),
                     ("reach_never", "cover", "unknown", None)],
    }

    @pytest.mark.parametrize("proof_engine", ["pdr", "kind", "bmc-only"])
    def test_statuses_and_exact_depths_match(self, proof_engine):
        """The statuses and exact depths a property-at-a-time check
        reports on this fixture (``KNOWN``)."""
        config = EngineConfig(max_bound=8, max_frames=30,
                              proof_engine=proof_engine)
        report = FormalEngine(self._factory(), config).check_all()
        assert _engine_outcome(report) == self.KNOWN[proof_engine]

    def test_repeated_checks_on_warm_engine_stay_identical(self):
        """A persistent (warm) engine must keep answering the
        same: the per-property task path reuses one engine per design."""
        config = EngineConfig(max_bound=8, max_frames=30)
        engine = FormalEngine(self._factory(), config)
        first = _engine_outcome(engine.check_all())
        second = _engine_outcome(engine.check_all())
        assert first == second
        single = engine.check_property("never11")
        assert single.status == "cex" and single.depth == 11

    def test_subset_checks_match_full_run(self):
        config = EngineConfig(max_bound=8, max_frames=30)
        engine = FormalEngine(self._factory(), config)
        full = {r.name: r.status for r in engine.check_all().results}
        fresh = FormalEngine(self._factory(), config)
        for name, status in full.items():
            assert fresh.check_property(name).status == status


class TestDeepUnrolling:
    def test_no_recursion_limit_at_deep_bounds(self):
        """Lazy cone-sliced encoding must materialize latch chains
        iteratively: a recursive formulation dies at depth ~330."""
        from repro.formal import TransitionSystem, bmc_safety

        ts = TransitionSystem("chain")
        g = ts.aig
        a = ts.add_latch("a", init=False)
        b = ts.add_latch("b", init=False)
        ts.set_next(a, b.node)
        ts.set_next(b, g.NOT(a.node))
        result = bmc_safety(ts, g.OR(a.node, g.NOT(a.node)), max_depth=500)
        assert not result.failed and result.depth == 500
