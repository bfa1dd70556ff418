#!/usr/bin/env python
"""Campaign-service smoke gate: concurrent HTTP campaigns == one-shot CLI.

The CI-facing acceptance check of the campaign-as-a-service front door:
boot ``autosva serve`` machinery (broker + asyncio HTTP server) over ONE
shared 2-worker local fleet, submit three overlapping campaigns from two
tenants over HTTP, and fail (exit 1) unless

* every campaign's verdicts are **bit-identical** (verdict-contract
  digest) to a one-shot ``run_property_campaign`` of the same jobs —
  multiplexing many tenants onto one fabric must be invisible in the
  verdicts;
* an over-quota submission is rejected with a structured 429 body and
  consumes **zero** fabric slots (no campaign object, no tasks);
* every completed campaign's ExecutionRecord re-validates from its JSON
  wire form (digest check included);
* each campaign's SSE stream is isolated and terminates with its own
  ``campaign_done`` frame;
* the operator surface works live: ``/readyz`` flips unstarted ->
  serving -> draining (503 on both ends), every mid-campaign
  ``/metrics`` scrape is validator-clean Prometheus text, ``autosva
  top --once`` renders a frame, and a continuously-scraped campaign
  round stays within 5% (+0.5s floor) of an unscraped warm round.

Usage::

    python benchmarks/service_smoke.py
    python benchmarks/service_smoke.py --cases A1,A2 --workers 2
    python benchmarks/service_smoke.py --record <label>   # append BENCH
"""

import argparse
import asyncio
import contextlib
import hashlib
import http.client
import io
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign import (expand_jobs,  # noqa: E402
                            run_property_campaign, verdict_contract)
from repro.formal import EngineConfig  # noqa: E402
from repro.obs.promexport import (PROM_CONTENT_TYPE,  # noqa: E402
                                  validate_exposition)
from repro.obs.record import validate_record  # noqa: E402
from repro.service import (CampaignBroker, CampaignServer,  # noqa: E402
                           TenantQuota, TenantRegistry)
from repro.service.top import top_main  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_campaign.json"


def verdict_digest(results) -> str:
    """Content hash of everything the verdict contract covers."""
    return hashlib.sha256(json.dumps(
        verdict_contract(results), sort_keys=True).encode()).hexdigest()


class _Service:
    """The server on its own event-loop thread (what ``serve`` runs)."""

    def __init__(self, broker):
        self.broker = broker
        self.server = CampaignServer(broker)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("service never came up")

    def _run(self):
        async def main():
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            await self.server.start("127.0.0.1", 0)
            self.port = self.server.address[1]
            self._ready.set()
            await self._stop.wait()
            await self.server.close()

        asyncio.run(main())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(10.0)
        self.broker.close()

    def request(self, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120.0)
        try:
            connection.request(
                method, path,
                body=json.dumps(body) if body is not None else None)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def raw(self, path):
        """GET returning (status, content-type, text) — for /metrics."""
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=120.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return (response.status, response.getheader("Content-Type"),
                    response.read().decode("utf-8"))
        finally:
            connection.close()

    def stream_events(self, campaign_id):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=600.0)
        try:
            connection.request(
                "GET", f"/campaigns/{campaign_id}/events?format=ndjson")
            response = connection.getresponse()
            assert response.status == 200
            return [json.loads(line)
                    for line in response.read().decode().splitlines()]
        finally:
            connection.close()


class _Scraper:
    """Hammers ``/metrics`` like an aggressive Prometheus (10 Hz vs the
    usual 1/15s), validating every exposition it pulls."""

    def __init__(self, service, interval_s=0.1):
        self.service = service
        self.interval_s = interval_s
        self.scrapes = 0
        self.errors = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.interval_s):
            try:
                status, content_type, text = self.service.raw("/metrics")
                if status != 200:
                    raise ValueError(f"scrape returned {status}")
                if content_type != PROM_CONTENT_TYPE:
                    raise ValueError(f"content-type {content_type!r}")
                validate_exposition(text)
                self.scrapes += 1
            except Exception as exc:  # noqa: BLE001 — collected, reported
                self.errors.append(str(exc))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self._thread.join(10.0)
        return False


def _run_round(service, submissions, depth, frames):
    """Submit the round's campaigns, drain every stream, return
    (wall_s, [(tenant, case_id, campaign_id), ...])."""
    begin = time.monotonic()
    admitted = []
    for tenant, case_id in submissions:
        status, body = service.request(
            "POST", "/campaigns", {"tenant": tenant, "cases": [case_id],
                                   "depth": depth, "frames": frames})
        if status != 201:
            raise RuntimeError(f"submit({tenant},{case_id}) -> {status}: "
                               f"{body}")
        admitted.append((tenant, case_id, body["id"]))
    for _tenant, _case_id, campaign_id in admitted:
        events = service.stream_events(campaign_id)
        if events[-1].get("kind") != "campaign_done":
            raise RuntimeError(f"{campaign_id} stream did not terminate")
    return time.monotonic() - begin, admitted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cases", default="A1,A2",
                        help="two case ids: tenants overlap on the first")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--depth", type=int, default=8)
    parser.add_argument("--frames", type=int, default=30)
    parser.add_argument("--record", metavar="LABEL", default=None,
                        help="append this run to BENCH_campaign.json")
    args = parser.parse_args(argv)

    case_ids = [c.strip() for c in args.cases.split(",") if c.strip()]
    if len(case_ids) < 2:
        print("service-smoke: need at least two cases", file=sys.stderr)
        return 1
    config = EngineConfig(max_bound=args.depth, max_frames=args.frames)

    # The one-shot truth, per case set, on its own fork pool.
    oneshot_digest = {}
    begin = time.monotonic()
    for case_id in case_ids[:2]:
        jobs = expand_jobs(case_ids=[case_id], config=config)
        oneshot_digest[case_id] = verdict_digest(
            run_property_campaign(jobs, workers=args.workers))
    oneshot_wall = time.monotonic() - begin
    print(f"service-smoke: one-shot truth computed in {oneshot_wall:5.1f}s "
          f"({', '.join(case_ids[:2])})")

    registry = TenantRegistry(
        overrides={"capped": TenantQuota(max_open_campaigns=0)})
    broker = CampaignBroker(workers=args.workers, tenants=registry,
                            history_interval_s=0.5)
    # Readiness must be down before start() — no broker thread, no fleet.
    ready, checks = broker.ready()
    if ready or checks["broker_thread"]:
        print(f"service-smoke: FAIL — unstarted broker reported ready "
              f"({checks})", file=sys.stderr)
        return 1
    service = _Service(broker.start())
    started = time.monotonic()
    try:
        status, body = service.request("GET", "/healthz")
        if status != 200 or body["status"] != "ok":
            print(f"service-smoke: FAIL — /healthz {status}: {body}",
                  file=sys.stderr)
            return 1
        status, body = service.request("GET", "/readyz")
        if status != 200 or not all(body["checks"].values()):
            print(f"service-smoke: FAIL — /readyz {status}: {body}",
                  file=sys.stderr)
            return 1
        print("service-smoke: probes up (unstarted not-ready -> "
              "serving ready)")
        # Three overlapping campaigns from two tenants on ONE fleet;
        # alice and bob both want the first design (compile sharing).
        submissions = [("alice", case_ids[0]), ("bob", case_ids[0]),
                       ("alice", case_ids[1])]
        begin = time.monotonic()
        admitted = []
        for tenant, case_id in submissions:
            status, body = service.request(
                "POST", "/campaigns", {"tenant": tenant,
                                       "cases": [case_id],
                                       "depth": args.depth,
                                       "frames": args.frames})
            if status != 201:
                print(f"service-smoke: FAIL — submit({tenant},{case_id}) "
                      f"returned {status}: {body}", file=sys.stderr)
                return 1
            admitted.append((tenant, case_id, body["id"]))
        print(f"service-smoke: {len(admitted)} campaign(s) admitted on one "
              f"{args.workers}-worker fleet")

        # The over-quota tenant is refused with a structured body —
        # before anything was allocated.
        status, body = service.request(
            "POST", "/campaigns", {"tenant": "capped",
                                   "cases": [case_ids[0]]})
        if status != 429 or body.get("error") != "too_many_campaigns" \
                or not body.get("detail"):
            print(f"service-smoke: FAIL — over-quota submission got "
                  f"{status}: {body}", file=sys.stderr)
            return 1
        status, listing = service.request("GET", "/campaigns")
        if len(listing["campaigns"]) != len(admitted):
            print(f"service-smoke: FAIL — rejected submission left "
                  f"{len(listing['campaigns'])} campaigns (expected "
                  f"{len(admitted)})", file=sys.stderr)
            return 1
        print("service-smoke: over-quota submission rejected 429 "
              "(too_many_campaigns), zero slots consumed")

        # Drain every SSE stream to its own terminal frame.
        failures = 0
        for tenant, case_id, campaign_id in admitted:
            events = service.stream_events(campaign_id)
            terminal = events[-1]
            if terminal.get("kind") != "campaign_done" \
                    or terminal.get("status") != "completed" \
                    or terminal.get("campaign") != campaign_id:
                print(f"service-smoke: FAIL — {campaign_id} terminal "
                      f"frame: {terminal}", file=sys.stderr)
                failures += 1
        service_wall = time.monotonic() - begin
        print(f"service-smoke: all streams terminal in {service_wall:5.1f}s")

        # Verdict digests must match the one-shot runs bit for bit, and
        # every record must re-validate from its wire JSON.
        for tenant, case_id, campaign_id in admitted:
            campaign = service.broker.get(campaign_id)
            digest = verdict_digest(campaign.results)
            if digest != oneshot_digest[case_id]:
                print(f"service-smoke: FAIL — {campaign_id} "
                      f"({tenant}/{case_id}) verdicts diverged from the "
                      f"one-shot run\n  one-shot: "
                      f"{oneshot_digest[case_id]}\n   service: {digest}",
                      file=sys.stderr)
                failures += 1
                continue
            status, record = service.request(
                "GET", f"/campaigns/{campaign_id}/record")
            try:
                validate_record(record)
            except Exception as exc:
                print(f"service-smoke: FAIL — {campaign_id} record "
                      f"invalid: {exc}", file=sys.stderr)
                failures += 1
                continue
            print(f"  {campaign_id} ({tenant}/{case_id}): digest "
                  f"{digest[:16]}… == one-shot, record valid")

        # ------------------------------------------------------------
        # Scrape-overhead gate.  Round 1 above warmed the fleet's
        # compile caches, so these two rounds are like for like: the
        # same three submissions plain, then again under a 10 Hz
        # validating scraper.  Verdicts must stay digest-identical and
        # the scraped round must cost <=5% (+0.5s noise floor) extra.
        plain_wall, _ = _run_round(service, submissions,
                                   args.depth, args.frames)
        with _Scraper(service) as scraper:
            scraped_wall, scraped = _run_round(service, submissions,
                                               args.depth, args.frames)
        if scraper.errors:
            print(f"service-smoke: FAIL — {len(scraper.errors)} dirty "
                  f"scrape(s): {scraper.errors[0]}", file=sys.stderr)
            failures += 1
        if scraper.scrapes == 0:
            print("service-smoke: FAIL — scraper never completed a "
                  "mid-campaign scrape", file=sys.stderr)
            failures += 1
        for tenant, case_id, campaign_id in scraped:
            digest = verdict_digest(service.broker.get(campaign_id).results)
            if digest != oneshot_digest[case_id]:
                print(f"service-smoke: FAIL — scraped-round {campaign_id} "
                      f"({tenant}/{case_id}) verdicts diverged",
                      file=sys.stderr)
                failures += 1
        budget = plain_wall * 1.05 + 0.5
        overhead_pct = 100.0 * (scraped_wall - plain_wall) \
            / plain_wall if plain_wall else 0.0
        verdict = "within" if scraped_wall <= budget else "OVER"
        print(f"service-smoke: scrape overhead: plain {plain_wall:5.2f}s "
              f"vs scraped {scraped_wall:5.2f}s under {scraper.scrapes} "
              f"validated scrape(s) ({overhead_pct:+.1f}%, {verdict} "
              f"5% +0.5s budget)")
        if scraped_wall > budget:
            failures += 1

        # One final scrape must carry the full metric surface, and the
        # broker's snapshot loop must have been filling the history ring
        # the whole time.
        status, content_type, text = service.raw("/metrics")
        families = validate_exposition(text)
        # (journal.append_s only appears under --state-dir, so it is
        # not on this list.)
        for family in ("autosva_scheduler_queue_depth",
                       "autosva_service_tasks_issued_total",
                       "autosva_service_campaigns_submitted_total",
                       "autosva_service_settle_latency_s"):
            if family not in families:
                print(f"service-smoke: FAIL — /metrics missing {family}",
                      file=sys.stderr)
                failures += 1
        # The sampler has had two intervals by now only if the campaigns
        # above took that long; a fast engine finishes sooner, so wait
        # out the rest before asking for two samples.
        time.sleep(max(0.0, started + 2.5 * broker.history.interval_s
                       - time.monotonic()))
        status, history = service.request("GET", "/metrics/history")
        if status != 200 or len(history["samples"]) < 2:
            print(f"service-smoke: FAIL — history ring has "
                  f"{len(history.get('samples', []))} sample(s)",
                  file=sys.stderr)
            failures += 1
        print(f"service-smoke: /metrics clean ({len(families)} families), "
              f"history ring {len(history['samples'])} sample(s) @ "
              f"{history['interval_s']}s")

        # The operator dashboard renders a frame from the same endpoints.
        top_out = io.StringIO()
        with contextlib.redirect_stdout(top_out):
            top_code = top_main(["--connect", f"127.0.0.1:{service.port}",
                                 "--once", "--no-clear"])
        frame = top_out.getvalue()
        if top_code != 0 or "autosva top" not in frame \
                or "fleet" not in frame:
            print(f"service-smoke: FAIL — top --once exited {top_code}",
                  file=sys.stderr)
            failures += 1
        else:
            print("service-smoke: autosva top --once rendered "
                  f"({len(frame.splitlines())} line(s))")

        status, status_body = service.request("GET", "/status")
        phases = status_body.get("phases", {})
        fabric = status_body.get("fabric", {})
        print(f"service-smoke: fleet phases: "
              f"{json.dumps(phases, sort_keys=True)}")
        print(f"service-smoke: fabric counters: "
              f"{json.dumps(fabric, sort_keys=True)}")

        # Drain: readiness must flip to 503 while liveness and the
        # scrape endpoint keep answering, and admission must refuse.
        service.broker.drain()
        status, body = service.request("GET", "/readyz")
        if status != 503 or body["status"] != "not_ready":
            print(f"service-smoke: FAIL — draining /readyz {status}: "
                  f"{body}", file=sys.stderr)
            failures += 1
        status, _ = service.request("GET", "/healthz")
        drain_live = status == 200
        status, _, text = service.raw("/metrics")
        try:
            validate_exposition(text)
        except ValueError as exc:
            print(f"service-smoke: FAIL — draining scrape dirty: {exc}",
                  file=sys.stderr)
            failures += 1
        status, body = service.request(
            "POST", "/campaigns", {"tenant": "alice",
                                   "cases": [case_ids[0]]})
        if not drain_live or status != 503 \
                or body.get("error") != "service_shutting_down":
            print(f"service-smoke: FAIL — draining admission {status}: "
                  f"{body}", file=sys.stderr)
            failures += 1
        else:
            print("service-smoke: drain flips /readyz 503, /healthz + "
                  "/metrics stay up, admission refuses 503")

        if failures:
            print(f"service-smoke: FAIL ({failures} check(s))",
                  file=sys.stderr)
            return 1

        if args.record is not None:
            entries = json.loads(BASELINE_PATH.read_text()) \
                if BASELINE_PATH.exists() else []
            entries.append({
                "label": args.record,
                "timestamp": time.strftime("%Y-%m-%d %H:%M:%S"),
                "cases": ",".join(case_ids[:2]), "workers": args.workers,
                "depth": args.depth, "frames": args.frames,
                "verdict_digest": oneshot_digest[case_ids[0]],
                "scrape_overhead": {
                    "plain_wall_s": round(plain_wall, 2),
                    "scraped_wall_s": round(scraped_wall, 2),
                    "overhead_pct": round(overhead_pct, 1),
                    "scrapes": scraper.scrapes,
                    "scrape_interval_s": scraper.interval_s,
                },
                "phases": phases,
            })
            BASELINE_PATH.write_text(json.dumps(entries, indent=2,
                                                sort_keys=True) + "\n")
            print(f"service-smoke: measurement appended -> "
                  f"{BASELINE_PATH.name} ({len(entries)} entries)")

        print("service-smoke: OK — concurrent HTTP campaigns are "
              "verdict-identical to one-shot runs, scrape surface clean")
        return 0
    finally:
        service.close()


if __name__ == "__main__":
    sys.exit(main())
