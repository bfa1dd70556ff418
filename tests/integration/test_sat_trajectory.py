"""Corpus-wide SAT trajectory pin: every solver's counters, summed.

The verdict digests in ``test_sweep_corpus.py`` say *what* the engine
decided; this file pins *how it searched*.  Every ``Solver`` created while
``check_all`` runs on the 13 Table III design x variant pairs is recorded
(BMC hunts, induction, PDR and liveness proofs alike), and the sums of
their deterministic counters must match exactly.  A change to anything that
shapes the queries — PDR's cube lifting and generalization, the encoding
order, the solver's heuristics — moves these numbers even when every
verdict stays the same, so a "pure speedup" that silently alters the search
fails here.

The counters are exact on the native core and on the pure-Python fallback
alike (the two are held to equal counters by the differential tests), and
RTL elaboration iterates in sorted order, so they do not follow
``PYTHONHASHSEED``.  The file lives under ``tests/integration`` because the
whole corpus takes minutes on the fallback core.
"""

from repro.api.compile import CompileCache, compile_design
from repro.core import generate_ft
from repro.designs import CORPUS
from repro.formal import EngineConfig, FormalEngine
from repro.formal.sat import Solver, SolverStats

CONFIG = EngineConfig(max_bound=8, max_frames=30)

#: Summed ``SolverStats`` over the whole corpus (``wall_time_s`` excluded).
PINNED = {
    "solvers": 105,
    "solve_calls": 34204,
    "conflicts": 55011,
    "decisions": 868420,
    "propagations": 11094252,
    "learned_clauses": 54721,
    "restarts": 137,
    "clauses_deleted": 4694,
    "reductions": 3,
}


def test_corpus_sat_counters_are_pinned(monkeypatch):
    stats = []
    original_init = Solver.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        stats.append(self.stats)   # live: current after every call

    monkeypatch.setattr(Solver, "__init__", recording_init)
    for case in CORPUS:
        for variant in ("fixed", "buggy"):
            if variant == "buggy" and not case.buggy_file:
                continue
            source = (case.dut_source() if variant == "fixed"
                      else case.buggy_source())
            ft = generate_ft(source, module_name=case.dut_module)
            sources = [source] + case.extra_sources() \
                + ft.testbench_sources()
            compiled = compile_design(["\n".join(sources)], case.dut_module,
                                      cache=CompileCache())
            FormalEngine(compiled.system, CONFIG).check_all()
    totals = {"solvers": len(stats)}
    for name in SolverStats.__slots__:
        if name != "wall_time_s":
            totals[name] = sum(getattr(s, name) for s in stats)
    assert totals == PINNED
