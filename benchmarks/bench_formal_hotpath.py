#!/usr/bin/env python
"""Formal hot-path benchmark: corpus-wide ``check_all`` before/after.

It runs every corpus design x variant through ``FormalEngine.check_all``
and records

* **wall time** of the check phase (frontend/compile time is excluded —
  the RTL frontend is unchanged by the hot-path work and would only dilute
  the measurement),
* a **verdict digest** — a content hash over every per-property
  ``(name, kind, status, depth)`` — the bit-identical-verdicts guarantee,
* **deterministic solver counters** (propagations / conflicts / decisions)
  which are machine-independent, so CI can compare them against a
  checked-in baseline without wall-clock flakiness.

Usage::

    python bench_formal_hotpath.py                        # measure, print
    python bench_formal_hotpath.py --quick --record quick-LABEL
    python bench_formal_hotpath.py --quick --check        # the CI gate

Entries accumulate in ``BENCH_formal.json`` next to this script — a
trajectory of measurements, oldest first.  ``--check`` compares the run
against the newest recorded entry of the same configuration: it exits
non-zero when the verdict digest differs from the recorded one or when a
deterministic counter grew by more than 25%.

Methodology notes live in ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.compile import CompileCache, hash_chunks  # noqa: E402
from repro.core import generate_ft  # noqa: E402
from repro.designs import CORPUS, case_by_id  # noqa: E402
from repro.formal import EngineConfig, FormalEngine  # noqa: E402

BENCH_JSON = Path(__file__).resolve().parent / "BENCH_formal.json"

#: The quick subset: small/medium designs, enough solving to measure while
#: staying CI-friendly.  The full run is every corpus case.
QUICK_CASE_IDS = ["A1", "A2", "A5", "E10", "O1"]

#: Counter drift tolerated by --check before it fails the build.  Counters
#: are deterministic, so any drift at all means the algorithm changed; the
#: slack only absorbs deliberate small tweaks that were not re-recorded.
COUNTER_TOLERANCE = 0.25


def _variant_list(case):
    out = [("fixed", case.dut_source)]
    if case.buggy_file:
        out.append(("buggy", case.buggy_source))
    return out


def run_corpus(case_ids, config: EngineConfig) -> dict:
    """Check every selected design x variant; return the measurement dict."""
    compile_cache = CompileCache()
    designs = {}
    digest_pairs = []
    totals = {"wall_s": 0.0, "propagations": 0, "conflicts": 0,
              "decisions": 0, "properties": 0}
    for case_id in case_ids:
        case = case_by_id(case_id)
        for variant, source_of in _variant_list(case):
            source = source_of()
            ft = generate_ft(source, module_name=case.dut_module)
            sources = [source] + case.extra_sources() \
                + ft.testbench_sources()
            compiled = compile_cache.get_or_compile(
                ["\n".join(sources)], case.dut_module)
            engine = FormalEngine(compiled.system, config)
            begin = time.perf_counter()
            report = engine.check_all()
            wall = time.perf_counter() - begin
            stats = getattr(engine, "solver_stats", None)
            stats = dict(stats) if stats else {}
            label = f"{case_id}.{variant}"
            # Depth participates only for the exact, trace-backed verdicts;
            # proof-artifact depths (PDR closing frame, induction k) depend
            # legitimately on solver state and are excluded from the
            # bit-identical contract.
            verdicts = [(r.name, r.kind, r.status,
                         r.depth if r.status in ("cex", "covered") else "-")
                        for r in report.results]
            digest_pairs.extend(
                ("verdict", f"{label}/{n}/{k}/{s}/{d}")
                for n, k, s, d in verdicts)
            designs[label] = {
                "wall_s": round(wall, 4),
                "properties": report.num_properties,
                "proven": report.num_proven,
                "cex": report.num_cex,
            }
            totals["wall_s"] += wall
            totals["properties"] += report.num_properties
            for key in ("propagations", "conflicts", "decisions"):
                totals[key] += int(stats.get(key, 0))
    return {
        "designs": designs,
        "total_wall_s": round(totals["wall_s"], 3),
        "total_properties": totals["properties"],
        "counters": {k: totals[k]
                     for k in ("propagations", "conflicts", "decisions")},
        "verdict_digest": hash_chunks(digest_pairs),
    }


def _load_trajectory() -> list:
    if BENCH_JSON.exists():
        return json.loads(BENCH_JSON.read_text())
    return []


def _entry_meta(args, case_ids) -> dict:
    return {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "quick": bool(args.quick),
        "cases": list(case_ids),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "max_bound": args.depth,
        "max_frames": args.frames,
    }


def _latest(trajectory, quick: bool, cases=None, depth=None, frames=None):
    """Newest entry for the same measurement configuration.

    Matching on cases/bounds (not just the quick flag) keeps the CI gate
    from comparing counters of incompatible runs — e.g. an ad-hoc
    ``--quick --cases A1 --record`` entry must never become the baseline
    for the full quick subset.
    """
    for entry in reversed(trajectory):
        if bool(entry.get("quick")) != quick:
            continue
        if cases is not None and entry.get("cases") != list(cases):
            continue
        if depth is not None and entry.get("max_bound") != depth:
            continue
        if frames is not None and entry.get("max_frames") != frames:
            continue
        return entry
    return None


def _recorded_run(entry) -> dict:
    """The measurement inside a trajectory entry.

    Entries recorded while the engine still had two orchestration paths
    keep the measured (default) path under ``"batched"``.
    """
    return entry.get("measured") or entry["batched"]


def check_against(baseline, measurement) -> list:
    """Why ``measurement`` fails the gate against ``baseline`` (or [])."""
    recorded = _recorded_run(baseline)
    failures = []
    if measurement["verdict_digest"] != recorded.get("verdict_digest"):
        failures.append(
            f"verdict digest {measurement['verdict_digest'][:12]} != "
            f"recorded {str(recorded.get('verdict_digest'))[:12]}")
    for key, base_value in recorded.get("counters", {}).items():
        now = measurement["counters"].get(key, 0)
        if base_value and now > base_value * (1 + COUNTER_TOLERANCE):
            failures.append(f"{key} regressed: {now} > "
                            f"{base_value} +{COUNTER_TOLERANCE:.0%}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"small subset ({','.join(QUICK_CASE_IDS)}) "
                             f"instead of the whole corpus")
    parser.add_argument("--cases", default=None,
                        help="comma-separated case ids (overrides --quick "
                             "selection)")
    parser.add_argument("--depth", type=int, default=8,
                        help="BMC bound (default 8, the corpus config)")
    parser.add_argument("--frames", type=int, default=30,
                        help="PDR frame bound (default 30)")
    parser.add_argument("--record", metavar="LABEL", default=None,
                        help="append a measurement entry to BENCH_formal."
                             "json under this label")
    parser.add_argument("--check", action="store_true",
                        help="CI gate: exit 1 when the verdict digest "
                             "differs from the recorded baseline's or a "
                             "counter grew by more than 25%%")
    args = parser.parse_args(argv)

    if args.cases:
        case_ids = [c.strip() for c in args.cases.split(",") if c.strip()]
    elif args.quick:
        case_ids = list(QUICK_CASE_IDS)
    else:
        case_ids = [case.case_id for case in CORPUS]
    config = EngineConfig(max_bound=args.depth, max_frames=args.frames)

    measurement = run_corpus(case_ids, config)
    print(f"check_all: {measurement['total_wall_s']:.2f}s, "
          f"{measurement['total_properties']} properties, "
          f"counters={measurement['counters']}")
    print(f"verdict digest: {measurement['verdict_digest'][:16]}...")
    for label, row in measurement["designs"].items():
        print(f"  {label:<12} {row['wall_s']:7.2f}s  "
              f"{row['properties']:>3} props  {row['proven']:>3} proven  "
              f"{row['cex']:>2} cex")
    if args.check:
        baseline = _latest(_load_trajectory(), quick=args.quick,
                           cases=case_ids, depth=args.depth,
                           frames=args.frames)
        if baseline is None:
            print("FAIL: no recorded baseline for this configuration",
                  file=sys.stderr)
            return 1
        failures = check_against(baseline, measurement)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"regression gate: OK (baseline {baseline['label']!r})")
    if args.record:
        trajectory = _load_trajectory()
        trajectory.append(dict(_entry_meta(args, case_ids),
                               label=args.record, measured=measurement))
        BENCH_JSON.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"recorded -> {BENCH_JSON} (label {args.record!r})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
