#!/usr/bin/env python
"""Distributed-fabric smoke gate: loopback TCP verdicts == local.

The CI-facing equivalence check of the distributed worker fabric: run a
corpus slice once on the local fork transport and once over loopback TCP
with 2 spawned ``autosva worker`` agents, and fail (exit 1) unless every
per-job status, error and payload verdict is bit-identical.  The run is
also gated against the recorded **verdict digest** in
``BENCH_campaign.json`` — the campaign-level measurement trajectory this
file starts — so a verdict drift anywhere in the engine, scheduler or
wire path fails even if both transports drift *together*.  Wall times
are printed for the record, never asserted.

Usage::

    python benchmarks/dist_smoke.py                  # A1,A2 on 2 agents
    python benchmarks/dist_smoke.py --cases A1,A2,A5 --workers 4
    python benchmarks/dist_smoke.py --record <label> # append baseline

The full-corpus version of this gate runs in tier-1
(``tests/integration/test_dist_corpus.py``).
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import (CampaignReport, expand_jobs,  # noqa: E402
                            run_property_campaign, verdict_contract)
from repro.dist import TcpTransport  # noqa: E402
from repro.formal import EngineConfig  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_campaign.json"


def verdict_digest(results) -> str:
    """Content hash of everything the verdict contract covers."""
    return hashlib.sha256(json.dumps(
        verdict_contract(results), sort_keys=True).encode()).hexdigest()


def _load_baseline():
    try:
        return json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        return []


def _latest_entry(entries, cases, depth, frames):
    """The newest entry this script recorded for the same run shape.

    Other scripts (``service_smoke.py``, ``chaos_smoke.py``) append to the
    same file with their own run shapes and digests; only entries carrying
    ``tcp_wall_s``, which ``--record`` below writes, are this gate's
    baselines.
    """
    for entry in reversed(entries):
        if "tcp_wall_s" in entry and entry.get("cases") == cases \
                and entry.get("depth") == depth \
                and entry.get("frames") == frames:
            return entry
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="A1,A2")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--record", metavar="LABEL", default=None,
                        help="append this run to BENCH_campaign.json")
    args = parser.parse_args(argv)

    cases = ",".join(c.strip() for c in args.cases.split(",") if c.strip())
    config = EngineConfig(max_bound=args.depth, max_frames=args.frames)
    jobs = expand_jobs(case_ids=cases.split(","), config=config)
    print(f"dist-smoke: {len(jobs)} jobs ({cases}) — local fork pool vs "
          f"{args.workers} loopback TCP agent(s), bound "
          f"{args.depth}/{args.frames}")

    events = []
    begin = time.monotonic()
    local = run_property_campaign(jobs, workers=args.workers,
                                  progress=events.append)
    local_wall = time.monotonic() - begin
    print(f"      local: {local_wall:6.1f}s  "
          f"({sum(1 for r in local if not r.ok)} failed)")
    frontend = sum(event.wall_time_s for event in events
                   if event.kind == "compile_done" and not event.from_cache)
    phases = CampaignReport(jobs, local, workers=args.workers,
                            wall_time_s=local_wall,
                            frontend_time_s=frontend).phase_breakdown()
    print(f"     phases: frontend {phases['frontend_s']}s | solve "
          f"{phases['solve_s']}s | engine-other {phases['engine_other_s']}s "
          f"| overhead {phases['overhead_s']}s")

    # Ping faster than the default 2s: the smoke slice finishes in a few
    # seconds and the recorded entry should carry real RTT samples.
    transport = TcpTransport(min_workers=args.workers,
                             worker_timeout_s=120.0, heartbeat_s=0.5)
    transport.spawn_local(args.workers)
    begin = time.monotonic()
    remote = run_property_campaign(jobs, transport=transport)
    remote_wall = time.monotonic() - begin
    stats = transport.worker_stats()
    shipped = sum(entry["tasks"] for entry in stats)
    print(f"        tcp: {remote_wall:6.1f}s  "
          f"({sum(1 for r in remote if not r.ok)} failed, {shipped} "
          f"task(s) across {len(stats)} agent(s))")

    if verdict_contract(local) != verdict_contract(remote):
        for a, b in zip(local, remote):
            if (a.status, a.error, a.payload) != (b.status, b.error,
                                                  b.payload):
                print(f"MISMATCH on {a.job_id}: local={a.status} "
                      f"tcp={b.status}", file=sys.stderr)
        print("dist-smoke: FAIL — TCP fabric diverged from the local "
              "transport", file=sys.stderr)
        return 1
    digest = verdict_digest(local)
    print(f"dist-smoke: verdicts bit-identical across transports "
          f"(digest {digest[:16]}…)")

    entries = _load_baseline()
    if args.record is not None:
        entries.append({
            "label": args.record,
            "timestamp": time.strftime("%Y-%m-%d %H:%M:%S"),
            "cases": cases, "workers": args.workers,
            "depth": args.depth, "frames": args.frames,
            "verdict_digest": digest,
            "local_wall_s": round(local_wall, 2),
            "tcp_wall_s": round(remote_wall, 2),
            # Measurements, not gates: where the local run's wall clock
            # went, and what the loopback fabric's ping RTTs looked like.
            "phases": phases,
            "heartbeat_rtt_ms": [entry.get("heartbeat_rtt_ms")
                                 for entry in stats
                                 if entry.get("heartbeat_rtt_ms")],
        })
        BASELINE_PATH.write_text(json.dumps(entries, indent=2,
                                            sort_keys=True) + "\n")
        print(f"dist-smoke: baseline appended -> {BASELINE_PATH.name} "
              f"({len(entries)} entries)")
        return 0

    baseline = _latest_entry(entries, cases, args.depth, args.frames)
    if baseline is None:
        print(f"dist-smoke: note: no recorded baseline for ({cases}, "
              f"{args.depth}/{args.frames}) in {BASELINE_PATH.name}; "
              f"record one with --record <label>")
        return 0
    if baseline["verdict_digest"] != digest:
        print(f"dist-smoke: FAIL — verdict digest drifted from recorded "
              f"baseline '{baseline['label']}'\n"
              f"  recorded: {baseline['verdict_digest']}\n"
              f"  this run: {digest}\n"
              f"If the engine change is intentional, re-record with "
              f"--record <label>.", file=sys.stderr)
        return 1
    print(f"dist-smoke: OK — digest matches recorded baseline "
          f"'{baseline['label']}'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
