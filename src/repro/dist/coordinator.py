"""The coordinator side of the fabric: :class:`TcpTransport`.

A :class:`TcpTransport` plugs into the
:class:`~repro.campaign.scheduler.Scheduler` as its execution backend:
the scheduler keeps everything verdict-relevant (source pulling, cache
replay at admission, steal bookkeeping, event ordering) and this
transport answers the four backend questions — how many slots are free,
where does this job run, what finished, and what must be requeued.

Mechanics:

* **Pool membership** — workers connect to the listen socket and
  identify themselves with a versioned ``hello`` (slots, host, pid);
  capacity grows and shrinks as agents come and go, mid-campaign
  included.  ``min_workers`` is a *startup quorum*: dispatch is gated
  (capacity reported as 0) until that many agents joined, so a campaign
  can be started before its fleet — but once reached, the gate never
  re-engages, because blocking dispatch when deaths shrink the pool
  would deadlock the requeues that recover a dead worker's tasks.
* **Capacity-weighted cost dispatch** — each worker advertises ``slots``
  and may hold ``prefetch`` extra queued tasks (hiding dispatch latency
  behind the running task).  The next job — the scheduler issues
  costliest-first under LPT scheduling — goes to the worker with the
  lowest estimated load *relative to its capacity*
  (``(load + cost) / slots``), the streaming analogue of LPT's
  least-loaded-bin rule, priced by the same
  :class:`~repro.campaign.costmodel.CostModel` the scheduler groups
  with.
* **Liveness** — every worker is pinged every ``heartbeat_s``; any frame
  (echo, event, result) refreshes its ``last_seen``.  A worker silent
  past ``liveness_timeout_s`` — or one whose socket EOFs/resets, e.g.
  ``kill -9`` — is declared dead: its in-flight tasks are handed back to
  the scheduler as requeues **excluded from that worker id**, exactly
  once per death, and the campaign converges on the survivors.
* **Graceful departures** — an agent stopping on SIGTERM/SIGINT
  announces its drain with a worker-sent ``shutdown`` frame naming the
  unstarted tasks it hands back; those requeue immediately (no
  exclusion — the agent is leaving, not dead), its running tasks finish
  and report normally, and its eventual EOF is recorded as a clean
  ``graceful shutdown`` departure rather than a death.
* **Tail steal grants** — when the scheduler has idle slots and nothing
  queued, :meth:`reclaim` asks busy workers to give back tasks they have
  not *started* (prefetched backlog).  Granted tasks re-enter the
  scheduler queue, where ordinary work stealing may re-split them for
  the idle workers.  A started task is never reclaimed — it finishes or
  times out where it is, so no work is ever executed twice.

Security posture (v1): none — frames are cleartext and unauthenticated.
Bind to loopback or a trusted segment only (see ``docs/distributed.md``).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..campaign.scheduler import _IDLE_WAIT_S, JobResult, wait_or_wake
from ..obs import METRICS, TRACER, absorb_obs
from ..obs.log import get_logger
from ..testing.faults import FAULTS
from .protocol import (PROTOCOL_VERSION, FrameDecoder, ProtocolError,
                       encode_frame, encode_unit, negotiate_version,
                       transmit, validate_message)

__all__ = ["TcpTransport", "parse_address", "spawn_local_workers"]

_LOG = get_logger("dist.coordinator")


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` listen/connect spec (port 0 = ephemeral)."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
        if not host or port < 0 or port > 65535:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"expected HOST:PORT, got {text!r}") from None
    return host, port


def spawn_local_workers(address: Tuple[str, int], count: int,
                        slots: int = 1,
                        preload: Sequence[str] = (),
                        quiet: bool = True,
                        reconnect: bool = False) -> List[subprocess.Popen]:
    """Start ``count`` worker agents on this host as subprocesses.

    A convenience for the loopback quickstart, tests and CI — production
    fleets start ``autosva worker`` themselves (one per host/container).
    The child environment inherits this process plus the parent's
    ``repro`` package location on ``PYTHONPATH``, so spawned agents
    resolve the same code the coordinator runs.
    """
    import repro

    host, port = address
    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (package_root + os.pathsep + existing
                             if existing else package_root)
    command = [sys.executable, "-m", "repro.dist.worker",
               "--connect", f"{host}:{port}", "--slots", str(slots)]
    if reconnect:
        command += ["--reconnect"]
    for module in preload:
        command += ["--preload", module]
    sink = subprocess.DEVNULL if quiet else None
    return [subprocess.Popen(command, env=env, stdout=sink, stderr=sink)
            for _ in range(count)]


def _obs_clock_offset(obs: Dict[str, object]) -> float:
    """Timestamp shift for spans arriving from a remote agent.

    Span timestamps are ``time.monotonic()`` seconds, whose base is
    per-host (boot-relative on Linux).  Loopback agents share this
    host's clock and need no shift; an agent on another host can be
    arbitrarily far off.  Heuristic: if the newest incoming span ended
    within 5 minutes of *our* now, treat the clocks as shared (offset
    0); otherwise pin that newest end to now, which keeps the remote
    spans in a plausible position on the campaign timeline (their
    *relative* layout — the part that matters for overlap analysis — is
    exact either way).
    """
    spans = obs.get("spans") or []
    ends = [float(span.get("ts", 0.0)) + float(span.get("dur", 0.0))
            for span in spans]
    if not ends:
        return 0.0
    latest = max(ends)
    now = time.monotonic()
    if abs(now - latest) < 300.0:
        return 0.0
    return now - latest


@dataclass
class _RemoteWorker:
    """Coordinator-side state for one connected agent."""

    sock: socket.socket
    seq: int                               # connection order (determinism)
    decoder: FrameDecoder = field(default_factory=FrameDecoder)
    worker_id: Optional[str] = None        # host:pid once hello'd
    label: Optional[str] = None
    slots: int = 0
    ready: bool = False
    connected_at: float = 0.0
    last_seen: float = 0.0
    last_ping: float = 0.0
    ping_seq: int = 0
    #: Outstanding pings: seq -> send time; echoes pop their entry and
    #: feed the RTT accumulators below.
    ping_sent: Dict[int, float] = field(default_factory=dict)
    rtt_min: Optional[float] = None
    rtt_max: Optional[float] = None
    rtt_total: float = 0.0
    rtt_samples: int = 0
    steal_pending: bool = False
    #: The agent announced a graceful drain (worker-sent ``shutdown``):
    #: it gets no new work, its running tasks finish normally, and its
    #: eventual EOF is a clean departure, not a death.
    draining: bool = False
    #: Liveness kills are suspended until this time: the agent announced
    #: a first-sight compile (``compile_started``), which runs
    #: synchronously in its event loop and legitimately blocks heartbeat
    #: echoes until ``compile_done``.
    grace_until: float = 0.0
    assigned: Dict[int, object] = field(default_factory=dict)
    costs: Dict[int, float] = field(default_factory=dict)
    started: set = field(default_factory=set)   # job_ids seen starting
    load: float = 0.0
    #: Agent-chosen session id from the hello (stable across that
    #: process's reconnects); None for agents predating the field.
    session: Optional[str] = None
    #: Times this agent resumed its session on a fresh connection.
    reconnects: int = 0
    # lifetime stats (survive into worker_stats after departure)
    tasks_done: int = 0
    busy_s: float = 0.0
    compiles: int = 0
    steals_granted: int = 0
    departed: Optional[str] = None         # reason, once gone
    departed_at: float = 0.0

    def free(self, prefetch: int) -> int:
        if not self.ready or self.draining:
            return 0
        return max(0, self.slots + prefetch - len(self.assigned))

    def record_rtt(self, rtt_s: float) -> None:
        self.rtt_samples += 1
        self.rtt_total += rtt_s
        if self.rtt_min is None or rtt_s < self.rtt_min:
            self.rtt_min = rtt_s
        if self.rtt_max is None or rtt_s > self.rtt_max:
            self.rtt_max = rtt_s

    def stats(self, now: float) -> Dict[str, object]:
        lifetime = max(1e-9, (self.departed_at or now) - self.connected_at)
        rtt = None
        if self.rtt_samples:
            rtt = {
                "min": round(self.rtt_min * 1000.0, 3),
                "mean": round(self.rtt_total / self.rtt_samples
                              * 1000.0, 3),
                "max": round(self.rtt_max * 1000.0, 3),
                "samples": self.rtt_samples,
            }
        return {
            "worker": self.worker_id or "(handshaking)",
            "label": self.label,
            "slots": self.slots,
            "tasks": self.tasks_done,
            "busy_s": round(self.busy_s, 3),
            "utilization": (round(self.busy_s / (self.slots * lifetime), 4)
                            if self.slots else 0.0),
            "steals_granted": self.steals_granted,
            "compiles": self.compiles,
            "heartbeat_rtt_ms": rtt,
            "reconnects": self.reconnects,
            "departed": self.departed,
        }


class TcpTransport:
    """A pool of remote worker agents behind the scheduler interface.

    A transport instance powers exactly **one** campaign run: the
    scheduler shuts the fleet down (``shutdown`` frames, listener
    closed, spawned agents reaped) when its run completes, because idle
    agents waiting on a dead campaign help nobody.  Reusing a consumed
    transport raises a clear :class:`~repro.core.language.AutoSVAError`
    — to compare several runs (as the smoke gates do), build one
    transport + fleet per run.  Post-run ``worker_stats()`` stays
    available.
    """

    remote = True

    def __init__(self, listen: Tuple[str, int] = ("127.0.0.1", 0),
                 heartbeat_s: float = 2.0,
                 liveness_timeout_s: float = 30.0,
                 compile_grace_s: float = 300.0,
                 prefetch: int = 1,
                 min_workers: int = 1,
                 worker_timeout_s: Optional[float] = None) -> None:
        if isinstance(listen, str):
            listen = parse_address(listen)
        if prefetch < 0:
            raise ValueError("prefetch must be >= 0")
        if min_workers < 1:
            raise ValueError("min_workers must be >= 1")
        if heartbeat_s >= liveness_timeout_s:
            # The first ping would be due only after a healthy idle agent
            # had already been declared dead.
            raise ValueError(
                f"heartbeat_s ({heartbeat_s}) must be below "
                f"liveness_timeout_s ({liveness_timeout_s})")
        self.heartbeat_s = heartbeat_s
        self.liveness_timeout_s = liveness_timeout_s
        self.compile_grace_s = compile_grace_s
        self.prefetch = prefetch
        self.min_workers = min_workers
        self.worker_timeout_s = worker_timeout_s
        self.timeout_s: Optional[float] = None
        self.memory_limit_mb: Optional[int] = None
        self.cost_of: Optional[Callable] = None

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(listen)
        self._listener.listen(16)
        #: The actual bound address — with port 0 this is where workers
        #: must ``--connect``.
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

        self._workers: List[_RemoteWorker] = []
        self._departed: List[_RemoteWorker] = []
        self._spawned: List[subprocess.Popen] = []
        self._next_seq = 0
        self._created = time.monotonic()
        #: When the pool became unable to dispatch (no ready workers, or
        #: startup quorum not yet met); None while dispatch is possible.
        #: ``worker_timeout_s`` measures against this, so a fleet that
        #: dies mid-campaign times out just like one that never arrived.
        self._starved_since: Optional[float] = self._created
        # min_workers is a *startup quorum*: once the pool has reached it,
        # dispatch keeps flowing even if deaths shrink the pool below it —
        # blocking there would deadlock the very requeues that recover a
        # killed worker's tasks.
        self._quorum_reached = False
        self._finished: List[Tuple[int, object, JobResult]] = []
        self._requeue: List[Tuple[int, object, Optional[str]]] = []
        self._closed = False
        self._wake = None

    # -- scheduler contract ------------------------------------------------
    def bind(self, runner: Callable, timeout_s: Optional[float],
             memory_limit_mb: Optional[int],
             cost_of: Optional[Callable] = None, wake=None) -> None:
        # ``runner`` is deliberately unused: the worker agent picks the
        # execution function from the unit's registered codec, so a
        # coordinator cannot ship arbitrary callables over the wire.
        self.timeout_s = timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.cost_of = cost_of
        self._wake = wake

    def _ready_workers(self) -> List[_RemoteWorker]:
        return [worker for worker in self._workers if worker.ready]

    def _quorum(self) -> bool:
        if not self._quorum_reached and \
                len(self._ready_workers()) >= self.min_workers:
            self._quorum_reached = True
        return self._quorum_reached

    def capacity(self) -> int:
        if not self._quorum():
            return 0
        return sum(worker.slots + self.prefetch
                   for worker in self._ready_workers()
                   if not worker.draining)

    def free_slots(self) -> int:
        if not self._quorum():
            return 0
        return sum(worker.free(self.prefetch)
                   for worker in self._ready_workers())

    def in_flight(self) -> int:
        return sum(len(worker.assigned) for worker in self._workers) \
            + len(self._requeue)

    def _check_open(self) -> None:
        if self._closed:
            from ..core.language import AutoSVAError

            raise AutoSVAError(
                "this TcpTransport was already consumed by a campaign "
                "run (the scheduler shuts the fleet down when a run "
                "completes); create a new transport — and new worker "
                "agents — per run")

    def dispatch(self, index: int, job,
                 excluded: frozenset = frozenset()) -> bool:
        self._check_open()
        if not self._quorum():
            return False
        ready = self._ready_workers()
        cost = float(self.cost_of(job)) if self.cost_of is not None else 1.0
        # Exclusion marks workers that *died* holding the job.  An agent
        # that resumed its session is the same living process back on a
        # new connection — the "death" was the wire, not the task — so
        # it is eligible again; honoring a stale exclusion could starve
        # a one-agent fleet forever.
        candidates = [worker for worker in ready
                      if worker.free(self.prefetch) > 0
                      and (worker.worker_id not in excluded
                           or worker.reconnects > 0)]
        while candidates:
            target = min(candidates,
                         key=lambda w: ((w.load + cost) / w.slots, w.seq))
            try:
                self._send(target, {
                    "type": "task", "task": encode_unit(job),
                    "timeout_s": self.timeout_s,
                    "memory_limit_mb": self.memory_limit_mb,
                })
            except OSError:
                self._kill(target, "send failed")
                candidates.remove(target)
                continue
            target.assigned[index] = job
            target.costs[index] = cost
            target.load += cost
            return True
        return False

    def reclaim(self) -> None:
        """Ask busy workers to give back not-yet-started backlog."""
        for worker in self._ready_workers():
            if worker.steal_pending or worker.draining:
                continue
            unstarted = sum(
                1 for job in worker.assigned.values()
                if job.job_id not in worker.started)
            if unstarted <= 0:
                continue
            try:
                self._send(worker, {"type": "steal", "max": unstarted})
                worker.steal_pending = True
            except OSError:
                self._kill(worker, "send failed")

    def step(self) -> Tuple[List[Tuple[int, object, JobResult]],
                            List[Tuple[int, object, Optional[str]]]]:
        self._check_open()
        now = time.monotonic()
        self._maintain(now)
        waitables = [self._listener] + \
            [worker.sock for worker in self._workers]
        ready = wait_or_wake(waitables, self._wake, self._wait_timeout(now))
        if self._listener in ready:
            self._accept()
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.sock not in ready:
                continue
            try:
                data = worker.sock.recv(65536)
            except OSError as exc:
                self._kill(worker, f"recv failed: {exc}")
                continue
            if not data:
                # A draining agent's EOF with nothing left assigned is
                # the *expected* end of a graceful shutdown; EOF with
                # work still running means it died mid-drain after all,
                # so the usual death requeue applies.
                if worker.draining and not worker.assigned:
                    _LOG.info("worker departed gracefully",
                              worker=worker.worker_id)
                    self._drop(worker, "graceful shutdown")
                else:
                    self._kill(worker, "connection closed")
                continue
            worker.last_seen = now
            try:
                for message in worker.decoder.feed(data):
                    self._handle(worker, message)
            except ProtocolError as exc:
                self._kill(worker, f"protocol error: {exc}")
        self._check_starvation()
        finished, requeued = self._finished, self._requeue
        self._finished, self._requeue = [], []
        return finished, requeued

    def worker_stats(self) -> List[Dict[str, object]]:
        """Per-agent utilization/steal numbers, departed agents included."""
        now = time.monotonic()
        return [worker.stats(now)
                for worker in self._departed + self._workers
                if worker.slots or worker.tasks_done]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.sock.sendall(encode_frame(
                    {"type": "shutdown", "reason": "campaign complete"}))
            except OSError:
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
            worker.departed = worker.departed or "shutdown"
            worker.departed_at = time.monotonic()
            self._departed.append(worker)
        self._workers = []
        try:
            self._listener.close()
        except OSError:
            pass
        for process in self._spawned:
            if process.poll() is None:
                process.terminate()
        for process in self._spawned:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    # -- conveniences ------------------------------------------------------
    def spawn_local(self, count: int, slots: int = 1,
                    preload: Sequence[str] = (),
                    reconnect: bool = False) -> None:
        """Spawn loopback worker agents owned (and closed) by this
        transport — the quickstart/CI path."""
        self._spawned.extend(spawn_local_workers(
            self.address, count, slots=slots, preload=preload,
            reconnect=reconnect))

    def wait_for_workers(self, count: int,
                         timeout_s: float = 30.0) -> None:
        """Block until ``count`` agents completed their handshake."""
        deadline = time.monotonic() + timeout_s
        while len(self._ready_workers()) < count:
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"only {len(self._ready_workers())}/{count} worker(s) "
                    f"connected within {timeout_s:.0f}s")
            self.step()

    # -- internals ---------------------------------------------------------
    def _send(self, worker: _RemoteWorker,
              message: Dict[str, object]) -> None:
        transmit(worker.sock, message)

    def _wait_timeout(self, now: float) -> float:
        next_ping = min(
            (worker.last_ping + self.heartbeat_s
             for worker in self._ready_workers()), default=now + _IDLE_WAIT_S)
        return min(max(0.0, next_ping - now), _IDLE_WAIT_S)

    def _accept(self) -> None:
        while True:
            try:
                self._listener.setblocking(False)
                sock, _addr = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            finally:
                self._listener.setblocking(True)
            sock.setblocking(True)
            now = time.monotonic()
            self._workers.append(_RemoteWorker(
                sock=sock, seq=self._next_seq, connected_at=now,
                last_seen=now, last_ping=now))
            self._next_seq += 1

    def _maintain(self, now: float) -> None:
        for worker in list(self._workers):
            if worker.ready and FAULTS.enabled \
                    and FAULTS.maybe_fire("coordinator.heartbeat_stall"):
                # Chaos: falsely declare a live agent dead, exactly as a
                # stalled heartbeat would — its tasks requeue and the
                # agent (if --reconnect) resumes its session.
                self._kill(worker,
                           "heartbeat timeout (injected stall)")
                continue
            window = self.liveness_timeout_s
            if worker.ready and now - worker.last_seen > window \
                    and now > worker.grace_until:
                self._kill(worker,
                           f"heartbeat timeout ({window:.0f}s silent)")
                continue
            if not worker.ready and now - worker.last_seen > window:
                # A connection that never says hello is not a worker.
                self._drop(worker)
                continue
            if worker.ready and now - worker.last_ping >= self.heartbeat_s:
                worker.ping_seq += 1
                try:
                    self._send(worker, {"type": "heartbeat",
                                        "seq": worker.ping_seq})
                    worker.last_ping = now
                    worker.ping_sent[worker.ping_seq] = now
                    # Unanswered pings (a worker mid-compile) must not
                    # accumulate forever; the liveness timeout bounds how
                    # many can matter.
                    if len(worker.ping_sent) > 128:
                        oldest = min(worker.ping_sent)
                        del worker.ping_sent[oldest]
                except OSError:
                    self._kill(worker, "send failed")

    def _handle(self, worker: _RemoteWorker,
                message: Dict[str, object]) -> None:
        validate_message(message)
        kind = message["type"]
        if kind == "hello":
            try:
                negotiate_version(message.get("version"))
            except ProtocolError as exc:
                try:
                    self._send(worker, {"type": "shutdown",
                                        "reason": str(exc)})
                except OSError:
                    pass
                self._drop(worker)
                return
            worker.worker_id = (f"{message.get('host', '?')}:"
                                f"{message.get('pid', '?')}")
            worker.slots = max(1, int(message.get("slots", 1)))
            worker.label = message.get("label")
            worker.ready = True
            _LOG.debug("worker joined", worker=worker.worker_id,
                       slots=worker.slots, label=worker.label)
            # "session" is a minor optional field: a --reconnect agent
            # carries a stable id across connections so a return is
            # recognized instead of double-counted as a fresh worker.
            session = message.get("session")
            if isinstance(session, str) and session:
                worker.session = session
                self._resume_session(worker)
            # "trace" is a minor ack field: a tracing coordinator asks
            # the agent to record spans too; old agents ignore it.
            try:
                self._send(worker, {"type": "hello",
                                    "version": PROTOCOL_VERSION,
                                    "role": "coordinator",
                                    "trace": TRACER.enabled})
            except OSError:
                self._kill(worker, "send failed")
        elif kind == "result":
            task_id = message["task_id"]
            index = next((i for i, job in worker.assigned.items()
                          if job.job_id == task_id), None)
            if index is None:
                return     # stale result for a task already reclaimed
            job = worker.assigned.pop(index)
            worker.load -= worker.costs.pop(index, 0.0)
            worker.started.discard(task_id)
            wall = float(message.get("wall_time_s", 0.0))
            worker.tasks_done += 1
            worker.busy_s += wall
            obs = message.get("obs")
            if obs:
                absorb_obs(obs, ts_offset=_obs_clock_offset(obs))
            self._finished.append((index, job, JobResult(
                job_id=task_id, status=message["status"],
                payload=message.get("payload"),
                error=message.get("error"),
                wall_time_s=wall, worker=worker.worker_id)))
        elif kind == "event":
            event_kind = message.get("kind")
            if event_kind == "task_started":
                worker.started.add(message.get("task_id"))
            elif event_kind == "compile_started":
                # The agent is about to block its event loop in a
                # frontend compile and cannot echo heartbeats: suspend
                # liveness kills until compile_done (or the grace cap).
                worker.grace_until = time.monotonic() + self.compile_grace_s
            elif event_kind == "compile_done":
                worker.compiles += 1
                worker.grace_until = 0.0
        elif kind == "heartbeat":
            # last_seen is already refreshed; the echo additionally
            # closes the round trip for the ping it answers.
            sent = worker.ping_sent.pop(message.get("seq"), None)
            if sent is not None:
                rtt = time.monotonic() - sent
                worker.record_rtt(rtt)
                METRICS.histogram(
                    "fabric.heartbeat_rtt_s",
                    bounds=(0.001, 0.005, 0.02, 0.1, 0.5)).observe(rtt)
        elif kind == "steal_grant":
            worker.steal_pending = False
            granted = message.get("task_ids") or []
            for task_id in granted:
                index = next((i for i, job in worker.assigned.items()
                              if job.job_id == task_id), None)
                if index is None:
                    continue           # finished while the grant flew
                job = worker.assigned.pop(index)
                worker.load -= worker.costs.pop(index, 0.0)
                worker.steals_granted += 1
                self._requeue.append((index, job, None))
        elif kind == "shutdown":
            # Worker-initiated graceful drain (SIGTERM/SIGINT on the
            # agent): its ``task_ids`` are the unstarted tasks it is
            # handing back — requeue them with no exclusion (this agent
            # is not dead, just leaving) and stop dispatching here.
            # Tasks it already started will still report results.
            worker.draining = True
            for task_id in message.get("task_ids") or []:
                index = next((i for i, job in worker.assigned.items()
                              if job.job_id == task_id), None)
                if index is None:
                    continue           # finished while the frame flew
                job = worker.assigned.pop(index)
                worker.load -= worker.costs.pop(index, 0.0)
                self._requeue.append((index, job, None))
        else:
            raise ProtocolError(
                f"worker sent a coordinator-only message: {kind}")

    def _resume_session(self, worker: _RemoteWorker) -> None:
        """Merge a returning agent's history into its new connection.

        A live entry with the same session is a zombie: the process
        behind it reconnected, so its old socket will never speak again
        — kill it now (requeueing anything it still held, exactly the
        existing death path, just sooner than the liveness timeout).  A
        *departed* entry with the session is this agent's previous life:
        fold its lifetime stats into the new connection and remove it,
        so the fleet report shows one agent with ``reconnects`` N
        instead of N corpses — the death is not double-counted.
        """
        resumed = False
        for other in list(self._workers):
            if other is not worker and other.session == worker.session:
                self._kill(other, "superseded by reconnect")
                resumed = True
        for departed in list(self._departed):
            if departed.session != worker.session:
                continue
            resumed = True
            worker.reconnects += departed.reconnects + 1
            worker.tasks_done += departed.tasks_done
            worker.busy_s += departed.busy_s
            worker.compiles += departed.compiles
            worker.steals_granted += departed.steals_granted
            worker.connected_at = min(worker.connected_at,
                                      departed.connected_at)
            worker.rtt_samples += departed.rtt_samples
            worker.rtt_total += departed.rtt_total
            if departed.rtt_min is not None and \
                    (worker.rtt_min is None
                     or departed.rtt_min < worker.rtt_min):
                worker.rtt_min = departed.rtt_min
            if departed.rtt_max is not None and \
                    (worker.rtt_max is None
                     or departed.rtt_max > worker.rtt_max):
                worker.rtt_max = departed.rtt_max
            self._departed.remove(departed)
        if resumed:
            METRICS.counter("fabric.reconnects").inc()
            _LOG.info("worker session resumed", worker=worker.worker_id,
                      session=(worker.session or "")[:8],
                      reconnects=worker.reconnects)

    def _kill(self, worker: _RemoteWorker, reason: str) -> None:
        """A worker died: requeue its in-flight work, excluded from it."""
        _LOG.warn("worker death", worker=worker.worker_id,
                  reason=reason, requeued=len(worker.assigned))
        for index, job in worker.assigned.items():
            self._requeue.append((index, job, worker.worker_id))
        worker.assigned = {}
        worker.costs = {}
        worker.load = 0.0
        self._drop(worker, reason)

    def _drop(self, worker: _RemoteWorker,
              reason: str = "never completed handshake") -> None:
        try:
            worker.sock.close()
        except OSError:
            pass
        if worker in self._workers:
            self._workers.remove(worker)
        worker.departed = reason
        worker.departed_at = time.monotonic()
        self._departed.append(worker)

    def _check_starvation(self) -> None:
        """Fail loudly when the pool cannot dispatch for too long.

        "Starved" means dispatch is gated entirely: the startup quorum
        was never met, or every ready worker is gone (fleet died
        mid-campaign).  The timer restarts whenever dispatch becomes
        possible again, so a healthy pool is never at risk — and a
        campaign whose whole fleet is killed does not hang silently past
        ``worker_timeout_s``.
        """
        ready = len(self._ready_workers())
        starved = (not self._quorum_reached and ready < self.min_workers) \
            or ready == 0
        if not starved:
            self._starved_since = None
            return
        if self._starved_since is None:
            self._starved_since = time.monotonic()
        if self.worker_timeout_s is None:
            return
        if time.monotonic() - self._starved_since > self.worker_timeout_s:
            from ..core.language import AutoSVAError

            host, port = self.address
            detail = (f"no worker connected to {host}:{port}" if ready == 0
                      else f"only {ready} of the {self.min_workers} "
                           f"worker(s) required joined {host}:{port}")
            raise AutoSVAError(
                f"{detail} within {self.worker_timeout_s:.0f}s — start "
                f"agents with: autosva worker --connect {host}:{port}")
