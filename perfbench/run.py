"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus-serial --seed 1 \\
        --seconds 15 --trace 0

``--workload`` is ``corpus-serial``, ``campaign-2w``, ``service-open`` or
``all`` (every workload in turn, each in its own process).  With
``--trace 0`` the last stdout line is one JSON object with the
end-to-end metrics; with ``--trace 1`` the layer wrappers of
``tracing.py`` are installed and it carries the per-layer metrics
instead.  The exit code is 0 only when every verdict matched the oracle.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inproc  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("service-open", "campaign-2w", "corpus-serial")
#: Fresh-process set-ups measured per run; setup_s is their median.  Each
#: takes ~0.3 s, so five keep the median steady for little time.
SETUP_REPEATS = 5
#: corpus-serial: the layers' self times must explain the wall to within
#: this share; the rest is printed as the unattributed row.
LAYER_SUM_TOLERANCE = 0.05
#: Count metrics that are known not to repeat exactly: SAT call and
#: counter totals follow PYTHONHASHSEED through set iteration order in
#: the engine.  The benchmark deliberately does not pin the hash seed.
INEXACT_COUNTS = ("sat.calls", "sat.solvers", "sat.conflicts",
                  "sat.decisions", "sat.propagations")

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("latency_s_mean", "s"), ("slo_frac", "frac"),
]


def corpus_labels() -> List[str]:
    from repro.designs import CORPUS
    labels = []
    for case in CORPUS:
        labels.append(f"{case.case_id}.fixed")
        if case.buggy_file:
            labels.append(f"{case.case_id}.buggy")
    return labels


def per_layer_names() -> List[tuple]:
    names = [
        ("core.generate_s", "s"), ("core.properties", "count"),
        ("rtl.compile_s", "s"), ("rtl.compiles", "count"),
        ("rtl.aig_ands", "count"), ("rtl.latches", "count"),
        ("formal.check_s", "s")]
    names += [(f"formal.check_s.{label}", "s") for label in corpus_labels()]
    names += [
        ("formal.bmc_sweep_s", "s"), ("formal.prove_s", "s"),
        ("formal.l2s_compile_s", "s"), ("formal.other_s", "s"),
        ("sat.solve_s", "s"), ("sat.solve_share", "frac"),
        ("sat.unreported_s", "s"), ("sat.calls", "count"),
        ("sat.solvers", "count"), ("sat.conflicts", "count"),
        ("sat.decisions", "count"), ("sat.propagations", "count"),
        ("api.tasks", "count"), ("api.execute_task_s", "s"),
        ("campaign.frontend_s", "s"), ("campaign.queue_wait_s_p50", "s"),
        ("campaign.queue_wait_s_tail", "s"),
        ("campaign.dispatch_overhead_s", "s"),
        ("campaign.worker_busy_frac", "frac"),
        ("campaign.tail_idle_s", "s"), ("campaign.steals", "count"),
        ("campaign.fold_s", "s"),
        ("dist.roundtrip_overhead_ms_p50", "ms"),
        ("dist.agent_compiles", "count"), ("dist.heartbeat_rtt_ms", "ms"),
        ("dist.requeues", "count"),
        ("service.submit_ms_p50", "ms"), ("service.http_ms_p50", "ms"),
        ("service.journal_append_ms_p50", "ms"),
        ("service.journal_appends", "count"),
        ("service.cache_hit_frac", "frac"),
        ("service.issue_wait_s_p50", "s"),
        ("service.settle_build_ms_p50", "ms"),
        ("service.stream_replay_ms_p50", "ms"),
        ("service.metric_series", "count"), ("service.campaigns", "count"),
        ("obs.scrape_ms_p50", "ms"), ("obs.trace_overhead_frac", "frac"),
        ("bench.late_ms_p95", "ms"),
    ]
    return names


# -- set-up -------------------------------------------------------------------

def measure_setup(root: Path, workload: str) -> List[float]:
    """Seconds from spawning a fresh interpreter until it is ready to
    submit the first design, :data:`SETUP_REPEATS` times."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        proc = subprocess.Popen(
            [measure.python_exe(), str(HERE / "run.py"),
             "--setup-probe", workload],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - begin
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {workload} failed")
        out.append(elapsed)
    return out


# -- end-to-end metrics -------------------------------------------------------

def end_to_end(result: Dict[str, object]) -> Dict[str, float]:
    units = result.get("slo_units", result["attempted"])
    return {
        "setup_s": statistics.median(result["setups"]),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "latency_s_mean": statistics.mean(result["latencies"])
        if result["latencies"] else float(result["wall_s"]),
        "slo_frac": result["slo_ok"] / units if units else 0.0,
    }


def named_view(workload: str, result: Dict[str, object],
               e2e: Dict[str, float]) -> List[tuple]:
    """The end-to-end metrics under the names the workload defines them
    by, with their units; tails print only with enough samples."""
    latencies = result["latencies"]
    rows = [("setup_s", e2e["setup_s"], "s")]
    if workload == "corpus-serial":
        rows += [("corpus_s", e2e["wall_s"], "s")]
    elif workload == "campaign-2w":
        rows += [("campaign_s", e2e["wall_s"], "s")]
    else:
        admit = result["admit_ms"]
        hits = result["hit_latencies"]
        rows += [
            ("wall_s", e2e["wall_s"], "s"),
            ("warm_up_s", result["warm_up_s"], "s"),
            ("admit_ms_p50", measure.median(admit) if admit else None, "ms"),
            ("admit_ms_p95", measure.tail_percentile(admit, 95), "ms"),
            ("settle_s_p50", measure.median(latencies) if latencies
             else None, "s"),
            ("settle_s_p95", measure.tail_percentile(latencies, 95), "s"),
            ("settle_hit_s_p50", measure.median(hits) if hits else None,
             "s"),
        ]
    rows += [
        ("cpu_s", e2e["cpu_s"], "s"),
        (f"latency_s_mean (n={len(latencies)})", e2e["latency_s_mean"], "s"),
        ("slo_frac", e2e["slo_frac"], "frac"),
        ("failed_frac", result["failed"] / max(1, result["attempted"]),
         "frac"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
    ]
    return rows


# -- per-layer metrics --------------------------------------------------------

def _p50(values) -> float:
    return measure.median(values) if values else 0.0


def per_layer(workload: str, seconds: int, result: Dict[str, object],
              recorder, trace_dir: Path, out_dir: Path,
              code: str) -> Dict[str, object]:
    processes = tracing.load_span_files(trace_dir)
    own = {"pid": os.getpid(), "spans": recorder.closed_spans(),
           "counters": recorder.counters, "samples": recorder.samples}
    processes = [p for p in processes if p["pid"] != own["pid"]] + [own]
    spans_by_proc = [[tuple(s) for s in p["spans"]] for p in processes]

    def total(name: str) -> float:
        return sum(tracing.total_time(spans, name)
                   for spans in spans_by_proc)

    def durations(name: str) -> List[float]:
        return [s[tracing.END] - s[tracing.START]
                for spans in spans_by_proc for s in spans
                if s[tracing.NAME] == name]

    def counter(name: str) -> float:
        return sum(p["counters"].get(name, 0.0) for p in processes)

    def samples(name: str) -> List[float]:
        return [v for p in processes for v in p["samples"].get(name, [])]

    m: Dict[str, float] = {name: 0.0 for name, _ in per_layer_names()}
    check = total("formal.check")
    solve = total("sat.solve")
    m.update({
        "core.generate_s": total("core.generate"),
        "core.properties": counter("core.properties"),
        "rtl.compile_s": total("rtl.compile"),
        "rtl.compiles": counter("rtl.compiles"),
        "rtl.aig_ands": counter("rtl.aig_ands"),
        "rtl.latches": counter("rtl.latches"),
        "formal.check_s": check,
        "formal.bmc_sweep_s": total("formal.bmc_sweep"),
        "formal.prove_s": total("formal.prove"),
        "formal.l2s_compile_s": total("formal.l2s_compile"),
        "formal.other_s": check - solve,
        "sat.solve_s": solve,
        "sat.solve_share": solve / check if check else 0.0,
        "sat.calls": counter("sat.calls"),
        "sat.solvers": counter("sat.solvers"),
        "sat.conflicts": counter("sat.conflicts"),
        "sat.decisions": counter("sat.decisions"),
        "sat.propagations": counter("sat.propagations"),
    })
    notes: Dict[str, str] = {}
    if workload == "corpus-serial":
        for label, check_s in result["check_s"].items():
            m[f"formal.check_s.{label}"] = check_s
        m["sat.unreported_s"] = solve - result["reported_solve_s"]
        root = [s for s in spans_by_proc[-1]
                if s[tracing.NAME] == "bench.corpus-serial"][0]
        table = tracing.layer_table(spans_by_proc[-1],
                                    root[tracing.END] - root[tracing.START],
                                    LAYER_SUM_TOLERANCE)
    elif workload == "campaign-2w":
        table = None
        _campaign_layers(m, result, spans_by_proc, total, notes)
    else:
        table = None
        _service_layers(m, result, durations, samples, notes)
    m["obs.trace_overhead_frac"] = _trace_overhead(
        out_dir, workload, seconds, code, end_to_end(result), notes)
    return {"metrics": m, "table": table, "notes": notes,
            "processes": processes}


def _campaign_layers(m, result, spans_by_proc, total, notes) -> None:
    events = result["events"]
    results = [(t, e) for t, e in events if e.kind == "result"]
    parent = spans_by_proc[-1]
    root = [s for s in parent if s[tracing.NAME] == "bench.campaign-2w"][0]
    origin = root[tracing.START]
    ready: Dict[str, float] = {}
    for t, e in events:
        if e.kind == "compile_done":
            ready[e.design] = origin + t
    dispatch = {s[tracing.RID]: s[tracing.START] for s in parent
                if s[tracing.NAME] == "campaign.dispatch"}
    child = {}
    for spans in spans_by_proc[:-1]:
        for s in spans:
            if s[tracing.NAME] == "api.execute_task":
                child[s[tracing.RID]] = (s[tracing.START], s[tracing.END])
    waits = [child[e.task_id][0] - ready[e.design] for _t, e in results
             if e.task_id in child and e.design in ready]
    overhead = sum(origin + t - dispatch[e.task_id] - e.engine_time_s
                   for t, e in results if e.task_id in dispatch)
    intervals = sorted(child.values())
    busy = sum(end - start for start, end in intervals)
    m.update({
        "sat.unreported_s": m["sat.solve_s"]
        - sum(e.solve_time_s for _t, e in results),
        "api.tasks": len(results),
        "api.execute_task_s": sum(e.engine_time_s for _t, e in results),
        "campaign.frontend_s": sum(e.wall_time_s for _t, e in events
                                   if e.kind == "compile_done"),
        "campaign.queue_wait_s_p50": _p50(waits),
        "campaign.dispatch_overhead_s": overhead,
        "campaign.worker_busy_frac": busy / (inproc.WORKERS
                                             * result["wall_s"]),
        "campaign.tail_idle_s": root[tracing.END]
        - _last_full(intervals, inproc.WORKERS, root[tracing.END]),
        "campaign.steals": sum(1 for _t, e in events if e.kind == "steal"),
        "campaign.fold_s": total("campaign.fold"),
    })
    m["campaign.queue_wait_s_tail"], pct = _tail(waits)
    notes["campaign.queue_wait_s_tail"] = (
        f"p{pct:g} of {len(waits)} task waits (the highest percentile "
        f"with 10 samples beyond it)")
    for _t, e in results:
        key = f"formal.check_s.{e.design}"
        if key in m:
            m[key] += e.engine_time_s


def _service_layers(m, result, durations, samples, notes) -> None:
    submit_ms = [d * 1e3 for d in durations("service.submit")]
    rtts = [w["heartbeat_rtt_ms"]["mean"] for w in result["workers"]
            if w.get("heartbeat_rtt_ms")]
    m.update({
        "dist.roundtrip_overhead_ms_p50":
            _p50(samples("dist.roundtrip_overhead_ms")),
        "dist.agent_compiles": sum(w.get("compiles", 0)
                                   for w in result["workers"]),
        "dist.heartbeat_rtt_ms": _p50(rtts),
        "dist.requeues": result["requeues"],
        "api.tasks": result["tasks"],
        "api.execute_task_s": result["engine_s"],
        "sat.unreported_s": m["sat.solve_s"] - result["reported_solve_s"],
        "service.submit_ms_p50": _p50(submit_ms),
        "service.http_ms_p50": _p50(result["admit_ms"]) - _p50(submit_ms),
        "service.journal_append_ms_p50":
            _p50([d * 1e3 for d in durations("service.journal_append")]),
        "service.journal_appends": len(durations("service.journal_append")),
        "service.cache_hit_frac":
            result["cache_hit_tasks"] / max(1, result["tasks"]),
        "service.issue_wait_s_p50": _p50(samples("service.issue_wait_s")),
        "service.settle_build_ms_p50":
            _p50([d * 1e3 for d in durations("service.settle_build")]),
        "service.stream_replay_ms_p50": _p50(result["replay_ms"]),
        "service.metric_series": result["metric_series"],
        "service.campaigns": result["campaigns"],
        "obs.scrape_ms_p50": _p50(result["scrape_ms"]),
        "bench.late_ms_p95": measure.percentile(result["late_ms"], 95),
    })
    notes["service.http_ms_p50"] = "admit_ms_p50 - service.submit_ms_p50"


def _tail(values: List[float]) -> tuple:
    """(value, percentile): the highest of the listed percentiles with at
    least ten samples beyond it, else the median."""
    best = (_p50(values), 50.0)
    for pct in (75.0, 87.5, 90.0, 95.0, 99.0):
        value = measure.tail_percentile(values, pct)
        if value is not None:
            best = (value, pct)
    return best


def _last_full(intervals: List[tuple], slots: int, end: float) -> float:
    """Latest instant at which ``slots`` intervals overlapped."""
    points = sorted([(s, 1) for s, _ in intervals]
                    + [(e, -1) for _, e in intervals])
    level, last = 0, None
    for t, step in points:
        if step < 0 and level >= slots:
            last = t
        level += step
    return last if last is not None else end


def _trace_overhead(out_dir: Path, workload: str, seconds: int, code: str,
                    traced: Dict[str, float], notes: Dict[str, str]) -> float:
    """Traced minus untraced headline metric, as a share of the median of
    this checkout's untraced runs of the same code, workload and length.
    The headline is the wall for the fixed-work workloads and the mean
    settle time for ``service-open``, whose wall is the arrival window.
    Without such a run the overhead is unknown: the row says so and the
    value reads 0."""
    headline = "latency_s_mean" if workload == "service-open" else "wall_s"
    base_runs = [r["metrics"][headline]
                 for r in _history(out_dir, workload, False, code)
                 if r.get("seconds") == seconds]
    if not base_runs:
        notes["obs.trace_overhead_frac"] = (
            "unknown: no untraced run of this code in this checkout")
        return 0.0
    base = measure.median(base_runs)
    notes["obs.trace_overhead_frac"] = (
        f"traced {headline} {traced[headline]:.3f}s vs untraced median "
        f"{base:.3f}s over {len(base_runs)} run(s)")
    return (traced[headline] - base) / base


def _history(out_dir: Path, workload: str, trace: bool,
             code: str) -> List[dict]:
    """Earlier runs of ``workload`` in this checkout on the same code
    (:func:`measure.code_fingerprint`): runs of other code would mix a
    code change into the comparison."""
    path = out_dir / "history" / f"{workload}.jsonl"
    if not path.exists():
        return []
    rows = []
    for line in path.read_text().splitlines():
        try:
            row = json.loads(line)
        except ValueError:
            continue
        if row.get("trace") == trace \
                and row.get("meta", {}).get("code") == code:
            rows.append(row)
    return rows


def _append_history(out_dir: Path, workload: str, row: dict) -> None:
    path = out_dir / "history" / f"{workload}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def determinism_report(out_dir: Path, workload: str, code: str,
                       metrics: Dict[str, float]) -> List[str]:
    """Which count metrics repeated exactly across this checkout's traced
    runs of ``workload`` on the same code; unknown until there are two."""
    units = dict(per_layer_names())
    previous = [r["metrics"] for r in _history(out_dir, workload, True,
                                               code)]
    lines = []
    for name, value in metrics.items():
        if units.get(name) != "count":
            continue
        seen = {p.get(name) for p in previous} | {value}
        if not previous:
            verdict = "unknown (1 run)"
        elif len(seen) == 1:
            verdict = f"exact over {len(previous) + 1} runs"
        else:
            verdict = (f"varies ({len(seen)} values over "
                       f"{len(previous) + 1} runs)")
        if name in INEXACT_COUNTS:
            verdict += "; marked not exact (follows PYTHONHASHSEED)"
        lines.append(f"  {name:<28} {verdict}")
    return lines


# -- entry points -------------------------------------------------------------

def run_workload(root: Path, workload: str, seed: int, seconds: int,
                 trace: bool) -> int:
    out_dir = root / ".perfbench_out"
    work_dir = out_dir / f"work-{os.getpid()}"
    trace_dir = out_dir / "trace" / f"{workload}-{seed}-{os.getpid()}"
    meta = measure.run_metadata(root, seed, workload)
    recorder = None
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        recorder = tracing.Recorder(trace_dir)
    try:
        result = _execute(root, workload, seed, seconds, recorder,
                          work_dir, trace_dir if trace else None)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    measure.finish_metadata(root, meta)
    if workload == "service-open":
        meta["poll_interval_s"] = result["poll_s"]
        meta["late_ms_p95"] = measure.percentile(result["late_ms"], 95)
        meta["late_limit_ms"] = _late_limit()
        meta["late_flag"] = meta["late_ms_p95"] > meta["late_limit_ms"]

    e2e = end_to_end(result)
    print(f"== {workload}  seed={seed}  {result['attempted']} "
          f"{result['units']}(s) attempted, {result['failed']} failed")
    print("run: " + json.dumps(meta, sort_keys=True))
    if meta.get("late_flag"):
        print(f"WARNING: generator ran late (p95 {meta['late_ms_p95']:.1f} "
              f"ms > {meta['late_limit_ms']} ms); this run is not a valid "
              f"open-loop measurement")
    for name, value, unit in named_view(workload, result, e2e):
        shown = "n/a (too few samples for this tail)" if value is None \
            else f"{value:.6g}"
        print(f"  {name:<22} {shown} {unit}")
    print(f"verdict digest: {result.get('digest', 'per-spec')}")
    for line in result["mismatches"]:
        print(f"VERDICT MISMATCH: {line}")

    correct = not result["mismatches"] and result["failed"] == 0
    if trace:
        layer = per_layer(workload, seconds, result, recorder, trace_dir,
                          out_dir, meta["code"])
        metrics = layer["metrics"]
        _write_trace(trace_dir, layer["processes"], out_dir, workload)
        print("per-layer metrics:")
        units = dict(per_layer_names())
        for name, unit in per_layer_names():
            note = layer["notes"].get(name, "")
            shown = "unknown" if note.startswith("unknown") \
                else f"{metrics[name]:.6g} {unit}"
            print(f"  {name:<34} {shown}" + (f"   ({note})" if note else ""))
        if layer["table"] is not None:
            print("layer self time (single process, wall of the workload):")
            print(tracing.format_layer_table(layer["table"]))
            if not layer["table"]["ok"]:
                correct = False
                print("LAYER SUM CHECK FAILED")
        print("count determinism:")
        for line in determinism_report(out_dir, workload, meta["code"],
                                       metrics):
            print(line)
        payload = {name: {"value": float(metrics[name]), "unit": unit}
                   for name, unit in units.items()}
    else:
        payload = {name: {"value": float(e2e[name]), "unit": unit}
                   for name, unit in END_TO_END}
    _append_history(out_dir, workload, {
        "trace": trace, "seed": seed, "seconds": seconds,
        "metrics": {k: v["value"] for k, v in payload.items()},
        "meta": meta})
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": payload}))
    return 0 if correct else 1


def _late_limit() -> float:
    import service_open
    return service_open.LATE_LIMIT_MS


def _execute(root, workload, seed, seconds, recorder, work_dir,
             trace_dir) -> Dict[str, object]:
    if workload == "service-open":
        import service_open
        return service_open.run_service_open(root, seed, seconds, work_dir,
                                             trace_dir)
    cpu_before = measure.process_cpu_s()
    if recorder is not None:
        tracing.install_engine_layers(recorder)
        tracing.install_task_boundary(recorder)
        if workload == "campaign-2w":
            tracing.install_campaign_layers(recorder)
    work_dir.mkdir(parents=True, exist_ok=True)
    if workload == "corpus-serial":
        result = inproc.run_corpus_serial(seed, recorder)
    else:
        result = inproc.run_campaign_2w(work_dir, recorder)
    result["cpu_s"] = measure.process_cpu_s() - cpu_before
    # The set-up probes run after the workload has read its CPU time and
    # peak RSS, which cover reaped children: the probes are not the
    # workload's children.
    result["setups"] = measure_setup(root, workload)
    return result


def _write_trace(trace_dir: Path, processes, out_dir: Path,
                 workload: str) -> None:
    origin = min((s[tracing.START] for p in processes for s in p["spans"]),
                 default=0.0)
    path = out_dir / f"trace-{workload}.json"
    measure.write_json(path, tracing.chrome_trace(processes, origin))
    shutil.rmtree(trace_dir, ignore_errors=True)
    print(f"chrome trace: {path.relative_to(out_dir.parent)} "
          f"({sum(len(p['spans']) for p in processes)} spans, "
          f"{len(processes)} process(es))")


def run_all(root: Path, seed: int, seconds: int, trace: bool) -> int:
    worst = 0
    summary = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [measure.python_exe(), str(HERE / "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=root, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if lines else None
        worst = max(worst, proc.returncode)
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A stop signal unwinds through the workloads' cleanup, which stops
    # and reaps every process the benchmark started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout: no "
              "src/repro here", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        inproc.setup_probe(args.setup_probe)
        print("ready", flush=True)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(root, args.seed, args.seconds, bool(args.trace))
    return run_workload(root, args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
