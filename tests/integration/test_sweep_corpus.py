"""Corpus-wide sweep equivalence: the engine's verdicts, pinned per pair.

The acceptance contract of the hot-path overhaul: on every Table III
design (both variants), the engine — one bmc_sweep for all
asserts+covers, one for the liveness lassos, shared proof contexts —
returns property-for-property the statuses a property-at-a-time
orchestration returns, with identical depths for the exact
(trace-backed) verdicts.  ``PINNED`` holds, per design x variant, the
digest of that outcome; each was recorded while both orchestrations
still existed and agreed on it.  Runs at the standard corpus config
(bound 8 / 30 frames); *smaller* bounds are a trap, not a speedup: a CEX
pushed beyond the hunt bound must be rediscovered through a full proof
engine run, which costs orders of magnitude more than hunting it.

Granularity equivalence (property-sharded campaign == design jobs) is
asserted in ``tests/campaign/test_property_granularity.py`` on top of the
same engine, so together the two files pin per-property == batched ==
sharded.
"""

import hashlib

import pytest

from repro.api.compile import CompileCache
from repro.core import generate_ft
from repro.designs import CORPUS
from repro.formal import EngineConfig, FormalEngine

CONFIG = EngineConfig(max_bound=8, max_frames=30)

#: sha256(repr(_outcome(report)))[:16] per design x variant.
PINNED = {
    "A1.fixed": "53cfb83ff9de0820",
    "A2.fixed": "4e3bd80db73373cf",
    "A3.fixed": "a96eb3a1bd4006bc",
    "A3.buggy": "5dd6b9159966b705",
    "A4.fixed": "b141366a959b599b",
    "A4.buggy": "53296b68b2ab2e73",
    "A5.fixed": "7415d029735fc2c8",
    "A5.buggy": "a50fd11d4c644fef",
    "O1.fixed": "02391e36ab0dc7f3",
    "O1.buggy": "92003673c92f48ce",
    "O2.fixed": "fc6624072b127503",
    "E10.fixed": "7d350b96144a7142",
    "E10.buggy": "c7e6e62d29d50685",
}

_CACHE = CompileCache()


def _variants():
    for case in CORPUS:
        yield pytest.param(case, "fixed", id=f"{case.case_id}.fixed")
        if case.buggy_file:
            yield pytest.param(case, "buggy", id=f"{case.case_id}.buggy")


def _outcome(report):
    out = []
    for r in report.results:
        depth = r.depth if r.status in ("cex", "covered") else None
        trace_shape = None
        if r.trace is not None:
            # loop_start is deliberately NOT compared: a lasso CEX at
            # minimal depth can snapshot its loop at different cycles in
            # different (equally valid) witness models.
            trace_shape = (r.trace.depth, sorted(r.trace.cycles))
        out.append((r.name, r.kind, r.status, depth, trace_shape))
    return out


def _digest(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest()[:16]


@pytest.mark.parametrize("case,variant", list(_variants()))
def test_batched_sweep_matches_per_property(case, variant):
    source = (case.dut_source() if variant == "fixed"
              else case.buggy_source())
    ft = generate_ft(source, module_name=case.dut_module)
    merged = "\n".join([source] + case.extra_sources()
                       + ft.testbench_sources())
    compiled = _CACHE.get_or_compile([merged], case.dut_module)
    outcome = _outcome(FormalEngine(compiled.system, CONFIG).check_all())
    label = f"{case.case_id}.{variant}"
    assert _digest(outcome) == PINNED[label], \
        f"{label}: verdicts moved from the pinned outcome: {outcome}"
