"""The ``service-open`` workload: open-loop traffic against ``autosva serve``.

The benchmark starts the server (``--state-dir``: fsync'd journal and
cache) with a loopback TCP fleet of two ``autosva worker`` agents, all
through ``launch.py``, and warms it: every pool spec is checked once.
Then one client process with one asyncio loop drives it over at most
two connections at a time: one submits on the seeded
schedule, the other polls ``GET /campaigns`` every :data:`POLL_S` for
settled campaigns (the settle-time resolution), replays each settled
campaign's event stream to check its verdicts, and reads ``/status`` and
``/metrics`` beside it.  Every latency is timed from the request's due
time, not its send time.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
import oracle as oracle_mod
import traffic

HERE = Path(__file__).resolve().parent
#: Settle polling interval: the resolution of every settle latency.
POLL_S = 0.05
#: Period of the concurrent /status and /metrics reads.
READ_PERIOD_S = 0.5
#: A campaign meets the SLO when it completes with correct verdicts
#: within this many seconds of its due time.
SLO_S = 10.0
#: Generator lateness above which a run is flagged as not open-loop.
LATE_LIMIT_MS = 50.0
#: Longest waits for the fleet to come up, for the warm-up, and for the
#: last campaigns to settle after the window; together they keep a run
#: well inside 180 s.
START_LIMIT_S = 20.0
WARM_UP_LIMIT_S = 40.0
DRAIN_LIMIT_S = 60.0
AGENTS = 2
SETUP_REPEATS = 3


class Fleet:
    """One server plus its agents, each a child process of the benchmark."""

    def __init__(self, root: Path, state: Path,
                 trace_dir: Optional[Path]) -> None:
        self.root = root
        self.state = state
        self.trace_dir = trace_dir
        self.procs: List[subprocess.Popen] = []
        self.logs: List = []
        self.server: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def _spawn(self, args: List[str], log_name: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir)
        log = open(self.state / log_name, "wb")
        self.logs.append(log)
        proc = subprocess.Popen(
            [measure.python_exe(), str(HERE / "launch.py")] + args,
            cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT)
        self.procs.append(proc)
        return proc

    def _wait_log(self, name: str, event: str, key: str,
                  deadline: float) -> str:
        path = self.state / name
        while time.monotonic() < deadline:
            for line in path.read_text(errors="replace").splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if record.get("event") == event and key in record:
                    return str(record[key])
            if any(p.poll() is not None for p in self.procs):
                raise RuntimeError(f"a fleet process exited early; "
                                   f"see {path}")
            time.sleep(0.005)
        raise TimeoutError(f"no {event!r} line in {path}")

    def start(self) -> float:
        """Spawn everything; seconds until /readyz is 200 with every
        agent attached."""
        self.state.mkdir(parents=True, exist_ok=True)
        begin = time.perf_counter()
        deadline = time.monotonic() + START_LIMIT_S
        self.server = self._spawn(
            ["serve", "--listen", "127.0.0.1:0", "--transport", "tcp",
             "--fabric-listen", "127.0.0.1:0",
             "--min-workers", str(AGENTS),
             "--state-dir", str(self.state / "state"),
             "--log-format", "json"], "server.log")
        fabric = self._wait_log("server.log", "fabric coordinator listening",
                                "address", deadline)
        for index in range(AGENTS):
            self._spawn(["worker", "--connect", fabric, "--slots", "1",
                         "--log-format", "json"], f"agent{index}.log")
        url = self._wait_log("server.log", "campaign service listening",
                             "url", deadline)
        self.host, _, port = url.rpartition("//")[2].partition(":")
        self.port = int(port)
        while time.monotonic() < deadline:
            status, _ = http_sync(self.host, self.port, "GET", "/readyz")
            if status == 200:
                _, body = http_sync(self.host, self.port, "GET", "/status")
                fleet = json.loads(body).get("fleet", {})
                if fleet.get("capacity", 0) >= AGENTS:
                    return time.perf_counter() - begin
            time.sleep(0.005)
        raise TimeoutError("service never became ready")

    def stop(self) -> None:
        """SIGTERM the server (it drains and dismisses the agents), then
        wait for every process; kill what does not end."""
        if self.server is not None and self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        for log in self.logs:
            log.close()


def http_sync(host: str, port: int, method: str, path: str,
              body: Optional[dict] = None) -> Tuple[int, bytes]:
    return asyncio.run(http(host, port, method, path, body))


async def http(host: str, port: int, method: str, path: str,
               body: Optional[dict] = None) -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange on its own connection (the server closes
    every connection after its response)."""
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        return 0, b""
    try:
        payload = json.dumps(body).encode() if body is not None else b""
        writer.write((f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
                      f"Content-Type: application/json\r\n"
                      f"Content-Length: {len(payload)}\r\n"
                      f"Connection: close\r\n\r\n").encode() + payload)
        await writer.drain()
        data = await reader.read()
    except OSError:
        return 0, b""
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, rest = data.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, b""
    return status, rest


class Client:
    """The single-process open-loop client."""

    def __init__(self, host: str, port: int,
                 arrivals: List[traffic.Arrival]) -> None:
        self.host, self.port = host, port
        self.arrivals = arrivals
        self.oracle = oracle_mod.Oracle("service")
        self.admit_ms: List[float] = []
        self.late_ms: List[float] = []
        self.refused: List[str] = []
        #: campaign id -> (due perf_counter, spec)
        self.pending: Dict[str, Tuple[float, traffic.Spec]] = {}
        self.settled: Dict[str, dict] = {}
        self.submitting = True
        self.scrape_ms: List[float] = []
        self.replay_ms: List[float] = []
        self.metric_series = 0
        self.last_status: dict = {}

    async def submitter(self, t0: float) -> None:
        for arrival in self.arrivals:
            due = t0 + arrival.due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append((time.perf_counter() - due) * 1e3)
            status, body = await http(self.host, self.port, "POST",
                                      "/campaigns",
                                      arrival.spec.body(arrival.tenant))
            if status == 201:
                self.admit_ms.append((time.perf_counter() - due) * 1e3)
                self.pending[json.loads(body)["id"]] = (due, arrival.spec)
            else:
                self.refused.append(f"{arrival.spec.label}: HTTP {status} "
                                    f"{body[:200]!r}")
        self.submitting = False

    async def reader(self, drain_limit_s: float) -> None:
        next_read = time.perf_counter()
        drain_deadline = None
        while self.submitting or self.pending:
            if not self.submitting and drain_deadline is None:
                drain_deadline = time.perf_counter() + drain_limit_s
            if drain_deadline is not None \
                    and time.perf_counter() > drain_deadline:
                break
            status, body = await http(self.host, self.port, "GET",
                                      "/campaigns")
            seen = time.perf_counter()
            if status == 200:
                for summary in json.loads(body)["campaigns"]:
                    cid = summary["id"]
                    if cid in self.pending and summary["status"] != "running":
                        due, spec = self.pending.pop(cid)
                        await self._replay(cid, spec, seen - due,
                                           summary["status"])
            if time.perf_counter() >= next_read:
                next_read += READ_PERIOD_S
                await self._read_side()
            await asyncio.sleep(POLL_S)
        await self._read_side()

    async def _read_side(self) -> None:
        status, body = await http(self.host, self.port, "GET", "/status")
        if status == 200:
            self.last_status = json.loads(body)
        begin = time.perf_counter()
        status, body = await http(self.host, self.port, "GET", "/metrics")
        self.scrape_ms.append((time.perf_counter() - begin) * 1e3)
        if status == 200:
            self.metric_series = sum(
                1 for line in body.decode("utf-8", "replace").splitlines()
                if line and not line.startswith("#"))

    async def _replay(self, cid: str, spec: traffic.Spec, settle_s: float,
                      status: str) -> None:
        begin = time.perf_counter()
        code, body = await http(self.host, self.port, "GET",
                                f"/campaigns/{cid}/events?format=ndjson")
        self.replay_ms.append((time.perf_counter() - begin) * 1e3)
        events = []
        if code == 200:
            try:
                events = [json.loads(line) for line in body.splitlines()
                          if line]
            except ValueError:
                code = 0          # a torn stream: the campaign fails
        results = [e for e in events if e.get("kind") == "result"]
        properties = [p for e in results for p in e.get("results") or []]
        ok = (code == 200 and status == "completed" and results
              and all(e.get("status") == "ok" for e in results))
        if ok:
            ok = self.oracle.check(spec.label, properties)
        else:
            self.oracle.mismatches.append(
                f"{cid} ({spec.label}): status {status}, HTTP {code}")
        self.settled[cid] = {
            "settle_s": settle_s, "ok": bool(ok), "spec": spec.label,
            "tasks": len(results),
            "hit": bool(results) and all(e.get("from_cache")
                                         for e in results),
            "from_cache": sum(1 for e in results if e.get("from_cache")),
            "engine_s": sum(e.get("engine_time_s") or 0.0 for e in results
                            if not e.get("from_cache")),
            "solve_s": sum(e.get("solve_time_s") or 0.0 for e in results
                           if not e.get("from_cache")),
        }


def warm_up(fleet: Fleet, oracle: oracle_mod.Oracle) -> Dict[str, float]:
    """Check every pool spec once and wait for it, so the timed window
    starts from a warm artifact cache and warm agents.  Each spec's
    verdicts go through ``oracle``; returns the number of specs checked
    and the engine and SAT seconds the agents reported for them."""
    ids: Dict[str, dict] = {}
    for body in traffic.warm_up_bodies():
        status, reply = http_sync(fleet.host, fleet.port, "POST",
                                  "/campaigns", body)
        if status != 201:
            raise RuntimeError(f"warm-up submission refused: HTTP {status}")
        ids[json.loads(reply)["id"]] = body
    deadline = time.monotonic() + WARM_UP_LIMIT_S
    while time.monotonic() < deadline:
        _, reply = http_sync(fleet.host, fleet.port, "GET", "/campaigns")
        done = {c["id"] for c in json.loads(reply)["campaigns"]
                if c["status"] == "completed"}
        if set(ids) <= done:
            break
        time.sleep(POLL_S)
    else:
        raise TimeoutError("warm-up campaigns did not settle")
    totals = {"specs": 0, "engine_s": 0.0, "solve_s": 0.0}
    for cid, body in ids.items():
        _, reply = http_sync(fleet.host, fleet.port, "GET",
                             f"/campaigns/{cid}/events?format=ndjson")
        by_design: Dict[str, list] = {}
        for line in reply.splitlines():
            event = json.loads(line)
            if event.get("kind") != "result":
                continue
            if event.get("status") != "ok":
                oracle.mismatches.append(f"warm-up {cid}: task "
                                         f"{event.get('status')}")
            by_design.setdefault(event["design"], []).extend(
                event.get("results") or [])
            totals["engine_s"] += event.get("engine_time_s") or 0.0
            totals["solve_s"] += event.get("solve_time_s") or 0.0
        for design, properties in by_design.items():
            totals["specs"] += 1
            oracle.check(f"{design}.d{body['depth']}.f{body['frames']}",
                         properties)
    return totals


def run_service_open(root: Path, seed: int, seconds: float,
                     work_dir: Path, trace_dir: Optional[Path]
                     ) -> Dict[str, object]:
    """Set the fleet up :data:`SETUP_REPEATS` times (setup_s is the
    median), warm the last one, then drive ``seconds`` of traffic."""
    arrivals = traffic.schedule(seed, seconds)
    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        last = attempt == SETUP_REPEATS - 1
        if last:
            cpu_before = measure.process_cpu_s()
        fleet = Fleet(root, work_dir / f"fleet{attempt}",
                      trace_dir if last else None)
        try:
            setups.append(fleet.start())
        except BaseException:
            fleet.stop()
            raise
        if not last:
            fleet.stop()
            shutil.rmtree(fleet.state, ignore_errors=True)
    try:
        begin = time.perf_counter()
        warm_oracle = oracle_mod.Oracle("service")
        warm = warm_up(fleet, warm_oracle)
        warm_up_s = time.perf_counter() - begin
        client = Client(fleet.host, fleet.port, arrivals)

        async def drive() -> float:
            t0 = time.perf_counter()
            await asyncio.gather(client.submitter(t0),
                                 client.reader(DRAIN_LIMIT_S))
            return time.perf_counter() - t0

        wall = asyncio.run(drive())
        rss = measure.pid_peak_rss_mb(fleet.server.pid) or 0.0
    finally:
        fleet.stop()
        shutil.rmtree(fleet.state, ignore_errors=True)
    cpu_s = measure.process_cpu_s() - cpu_before

    settled = list(client.settled.values())
    status = client.last_status
    return {
        "wall_s": wall, "setups": setups, "warm_up_s": warm_up_s,
        "latencies": [s["settle_s"] for s in settled],
        "hit_latencies": [s["settle_s"] for s in settled if s["hit"]],
        "admit_ms": client.admit_ms, "late_ms": client.late_ms,
        # The warm-up's first-sight checks are operations too.
        "attempted": len(arrivals) + warm["specs"],
        "failed": len(arrivals) - sum(1 for s in settled if s["ok"])
        + len(warm_oracle.mismatches),
        "slo_ok": sum(1 for s in settled
                      if s["ok"] and s["settle_s"] <= SLO_S),
        "slo_units": len(arrivals),
        "cpu_s": cpu_s, "peak_rss_mb": rss,
        "mismatches": warm_oracle.mismatches + client.oracle.mismatches
        + client.refused,
        "scrape_ms": client.scrape_ms, "replay_ms": client.replay_ms,
        "metric_series": client.metric_series,
        "workers": status.get("fleet", {}).get("workers", []),
        "requeues": status.get("fabric", {}).get("requeues", 0),
        "tasks": sum(s["tasks"] for s in settled),
        "cache_hit_tasks": sum(s["from_cache"] for s in settled),
        "engine_s": warm["engine_s"] + sum(s["engine_s"] for s in settled),
        "reported_solve_s": warm["solve_s"]
        + sum(s["solve_s"] for s in settled),
        "campaigns": len(settled), "units": "campaign or warm-up spec",
        "poll_s": POLL_S,
    }
