"""SAT-based formal verification engine (the JasperGold/SymbiYosys stand-in).

Layers, bottom to top:

* :mod:`repro.formal.sat` — CDCL SAT solver: ``Solver`` runs on the
  native core (``_satcore.c``, built on first use by
  :mod:`repro.formal._satbuild`) or, without a C compiler, on the
  pure-Python ``PySolver`` reference; both search identically.
* :mod:`repro.formal.aig` — and-inverter graph for bit-level logic.
* :mod:`repro.formal.transition` — sequential circuit + proof obligations.
* :mod:`repro.formal.cnf` — Tseitin encoding / time-frame unrolling
  (on the native core, the AND walk runs in ``_satcore.c``'s AIG kernel,
  which also runs PDR's ternary cube lifting).
* :mod:`repro.formal.bmc` / :mod:`repro.formal.kinduction` /
  :mod:`repro.formal.liveness` — the checking algorithms.
* :mod:`repro.formal.engines` — the pluggable proof-engine registry
  (``pdr`` / ``kind`` / ``bmc-only``, liveness strategies ``l2s`` /
  ``bounded``) that ``EngineConfig`` names dispatch through.
* :mod:`repro.formal.engine` — per-property orchestration and reports.

The public, per-property verification surface built on this package lives
in :mod:`repro.api` (property tasks, streaming sessions, compile cache).
"""

from .aig import AIG, FALSE, TRUE
from .bmc import BmcResult, bmc_cover, bmc_safety
from .cnf import Unroller
from .engine import (CheckReport, EngineConfig, FormalEngine, PropertyResult,
                     CEX, COVERED, PROVEN, UNKNOWN, UNREACHABLE)
from .engines import (Engine, EngineVerdict, LivenessStrategy,
                      available_engines, available_liveness_strategies,
                      get_engine, get_liveness_strategy, register_engine,
                      register_liveness_strategy)
from .kinduction import InductionResult, prove_safety
from .liveness import LivenessCompilation, compile_liveness
from .sat import Solver, SolverStats
from .trace import Trace, extract_trace
from .transition import Latch, Property, TransitionSystem

__all__ = [
    "AIG", "FALSE", "TRUE",
    "BmcResult", "bmc_cover", "bmc_safety",
    "Unroller",
    "CheckReport", "EngineConfig", "FormalEngine", "PropertyResult",
    "CEX", "COVERED", "PROVEN", "UNKNOWN", "UNREACHABLE",
    "Engine", "EngineVerdict", "LivenessStrategy",
    "available_engines", "available_liveness_strategies",
    "get_engine", "get_liveness_strategy", "register_engine",
    "register_liveness_strategy",
    "InductionResult", "prove_safety",
    "LivenessCompilation", "compile_liveness",
    "Solver", "SolverStats",
    "Trace", "extract_trace",
    "Latch", "Property", "TransitionSystem",
]
