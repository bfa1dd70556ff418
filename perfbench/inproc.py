"""The in-process workloads: ``corpus-serial`` and ``campaign-2w``.

Both check the 13 Table III design x variant pairs at the corpus bench
config (``max_bound=8``, ``max_frames=30``) with every cache cold.  The
work is the same on every seed: ``corpus-serial`` submits the pairs in a
seeded order (each pair's check is independent of the others), and
``campaign-2w`` keeps the registry order.
"""

from __future__ import annotations

import random
import shutil
import time
from pathlib import Path
from typing import Dict, List

import measure
import oracle as oracle_mod

#: Latency limit behind ``slo_frac`` for one design x variant on both
#: workloads (from its submission, or from the campaign start): the
#: slowest pair, A4.fixed, takes about 25 s here.
SLO_S = 60.0
WORKERS = 2


def corpus_pairs(seed: int) -> List[tuple]:
    """(label, case, variant) for every corpus pair, in seeded order."""
    from repro.designs import CORPUS

    pairs = []
    for case in CORPUS:
        pairs.append((f"{case.case_id}.fixed", case, "fixed"))
        if case.buggy_file:
            pairs.append((f"{case.case_id}.buggy", case, "buggy"))
    random.Random(seed).shuffle(pairs)
    return pairs


def bench_config():
    from repro.campaign.jobs import default_engine_config
    return default_engine_config()


def setup_probe(workload: str) -> None:
    """What a fresh process does before it can submit the first design."""
    if workload == "corpus-serial":
        import repro.core  # noqa: F401
        from repro.api.compile import CompileCache  # noqa: F401
        from repro.formal import FormalEngine  # noqa: F401
        for _label, case, variant in corpus_pairs(0):
            case.dut_source() if variant == "fixed" else case.buggy_source()
            case.extra_sources()
    else:
        from repro.campaign import ArtifactCache  # noqa: F401
        from repro.campaign.jobs import expand_jobs
        from repro.campaign.sharding import run_property_campaign  # noqa
        for job in expand_jobs(config=bench_config()):
            job.sources()


def run_corpus_serial(seed: int, recorder=None) -> Dict[str, object]:
    """generate_ft -> compile_design -> FormalEngine.check_all, one pair
    at a time, caches cold per design."""
    import repro.core
    from repro.api.compile import CompileCache, compile_design
    from repro.formal import FormalEngine

    config = bench_config()
    oracle = oracle_mod.Oracle("corpus")
    pairs = corpus_pairs(seed)
    latencies: List[float] = []
    check_s: Dict[str, float] = {}
    reported_solve_s = 0.0
    per_label: Dict[str, str] = {}
    failed = 0
    begin = time.perf_counter()
    root = recorder.begin("bench.corpus-serial") if recorder else None
    for label, case, variant in pairs:
        start = time.perf_counter()
        source = case.dut_source() if variant == "fixed" \
            else case.buggy_source()
        try:
            ft = repro.core.generate_ft(source, module_name=case.dut_module)
            sources = [source] + case.extra_sources() \
                + ft.testbench_sources()
            compiled = compile_design(["\n".join(sources)], case.dut_module,
                                      cache=CompileCache())
            check_begin = time.perf_counter()
            report = FormalEngine(compiled.system, config).check_all()
            check_s[label] = time.perf_counter() - check_begin
        except Exception as exc:  # a crash is a failed operation
            oracle.mismatches.append(f"{label}: {type(exc).__name__}: {exc}")
            failed += 1
            latencies.append(time.perf_counter() - start)
            continue
        latencies.append(time.perf_counter() - start)
        reported_solve_s += report.solve_time_s
        properties = [{"name": r.name, "kind": r.kind, "status": r.status,
                       "depth": r.depth} for r in report.results]
        per_label[label] = oracle_mod.digest(properties)
        if not oracle.check(label, properties, case, variant):
            failed += 1
    wall = time.perf_counter() - begin
    if recorder:
        recorder.end(root)
    slo_ok = sum(1 for lat in latencies if lat <= SLO_S) - failed
    return {
        "wall_s": wall, "latencies": latencies, "attempted": len(pairs),
        "failed": failed, "slo_ok": max(0, slo_ok),
        "cpu_s": None, "peak_rss_mb": measure.self_peak_rss_mb(),
        "mismatches": oracle.mismatches,
        "digest": oracle_mod.combined_digest(per_label),
        "check_s": check_s, "reported_solve_s": reported_solve_s,
        "units": "design x variant",
    }


def run_campaign_2w(work_dir: Path,
                    recorder=None) -> Dict[str, object]:
    """The 13 jobs as one property campaign on 2 local fork workers."""
    from repro.campaign import ArtifactCache
    from repro.campaign.jobs import expand_jobs
    from repro.campaign.sharding import run_property_campaign
    from repro.designs import case_by_id

    # Registry order on every seed: the order jobs stream in decides the
    # schedule, so a shuffled order would make each job's completion time
    # a property of the seed rather than of the program.
    jobs = expand_jobs(config=bench_config())
    cache_dir = work_dir / "campaign-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = ArtifactCache(cache_dir)
    events: List[tuple] = []
    begin = time.perf_counter()

    def on_event(event) -> None:
        events.append((time.perf_counter() - begin, event))

    root = recorder.begin("bench.campaign-2w") if recorder else None
    results = run_property_campaign(jobs, workers=WORKERS, group_size=1,
                                    cache=cache, schedule="cost",
                                    progress=on_event)
    wall = time.perf_counter() - begin
    if recorder:
        recorder.end(root)
    shutil.rmtree(cache_dir, ignore_errors=True)

    oracle = oracle_mod.Oracle("corpus")
    per_label: Dict[str, str] = {}
    failed_jobs = 0
    for result in results:
        case = case_by_id(result.job_id.split(".")[0])
        variant = result.job_id.split(".")[1]
        properties = list((result.payload or {}).get("properties") or [])
        per_label[result.job_id] = oracle_mod.digest(properties)
        if not result.ok:
            oracle.mismatches.append(
                f"{result.job_id}: {result.status}: {result.error}")
            failed_jobs += 1
        elif not oracle.check(result.job_id, properties, case, variant):
            failed_jobs += 1
    task_events = [(t, e) for t, e in events if e.kind == "result"]
    failed_tasks = sum(1 for _t, e in task_events if not e.ok)
    last_result: Dict[str, float] = {}
    for t, event in task_events:
        last_result[event.design] = max(
            last_result.get(event.design, 0.0), t)
    latencies = [last_result.get(job.job_id, wall) for job in jobs]
    slo_ok = sum(1 for lat in latencies if lat <= SLO_S)
    return {
        "wall_s": wall, "latencies": latencies,
        # Tasks are the operations here; a wrong job verdict fails every
        # task of that job's digest, counted once per job on top.
        "attempted": len(task_events), "failed": failed_tasks + failed_jobs,
        "slo_ok": max(0, slo_ok - failed_jobs), "slo_units": len(jobs),
        "cpu_s": None,
        "peak_rss_mb": max(measure.self_peak_rss_mb(),
                           measure.children_peak_rss_mb()),
        "mismatches": oracle.mismatches,
        "digest": oracle_mod.combined_digest(per_label),
        "events": events,
        "units": "task",
    }
