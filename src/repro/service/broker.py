"""The campaign broker: many tenants' campaigns on ONE scheduler run.

The one-shot pipeline (PR 4/5) runs one ``Scheduler`` per campaign and
tears the transport down afterwards.  A service cannot: worker fleets
are expensive to attach and compile caches are only valuable warm.  The
broker therefore drives a **single long-lived** scheduler run over a
fair-share source and multiplexes every admitted campaign through it:

* Each campaign keeps its own :func:`~repro.campaign.sharding.stream_tasks`
  generator (FT generation + one parent-side compile per design, through
  the process-global ``COMPILE_CACHE`` — so two campaigns over the same
  design still cost one compile, and forked local workers inherit it).
* The :class:`_FairSource` the scheduler pulls implements **stride
  scheduling** over tenants: pick the runnable tenant with the smallest
  virtual time, advance its oldest campaign's stream by one item, charge
  ``cost / weight`` virtual time per issued task (the PR 4
  :class:`~repro.campaign.costmodel.CostModel` prices the task).  A
  weight-2 tenant gets twice the fabric of a weight-1 tenant under
  contention; an idle tenant's unused slice goes to whoever is runnable.
* When nothing is admissible the source yields the scheduler's ``None``
  sentinel ("temporarily dry") at once — the multiplex seam of
  :class:`~repro.campaign.scheduler.Scheduler` — and ``submit``,
  ``cancel`` and ``drain`` call its ``wake()`` so the run loop re-probes;
  only broker shutdown raises ``StopIteration`` and ends the run.
* Results route back to their campaign **by task object identity**, not
  task id: two campaigns running the same case produce identical
  ``task_id`` strings, and the verdict-equivalence contract
  (:func:`~repro.campaign.report.verdict_contract`) forbids prefixing
  them.  The broker holds the task references (via each campaign's
  ``ShardPlan``) while outstanding, so ids cannot be recycled under it.
* ``DELETE`` cancellation goes through
  :meth:`~repro.campaign.scheduler.Scheduler.cancel_where` with a
  predicate over the campaign's live task identities: queued tasks
  settle as ``cancelled`` events, transport-reclaimed prefetches are
  retracted at requeue time, and running work finishes without ever
  being interrupted mid-verdict.

Every settled campaign gets the full one-shot treatment: results merged
with :func:`~repro.campaign.sharding.merge_shard_results` (bit-identical
to ``autosva campaign`` by construction), a
:class:`~repro.campaign.report.CampaignReport` with the PR 6 phase
breakdown, and a digest-validated
:class:`~repro.obs.record.ExecutionRecord`.

Threading model: ONE broker thread drives the scheduler (and therefore
every stream advance, compile, cancellation and settle); HTTP handlers
only touch broker state under ``self._lock`` (reentrant) in short
critical sections and wake the scheduler; nothing waits on the lock for
work.  Compiles run *outside* the lock, so a status query never waits
on a frontend.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from collections import deque
from dataclasses import asdict, fields
from typing import Callable, Dict, Iterator, List, Optional, Set

from ..api.session import event_from_result
from ..api.task import PropertyTask, TaskEvent, execute_task
from ..campaign.cache import ArtifactCache
from ..campaign.costmodel import CostModel
from ..campaign.report import CampaignReport
from ..campaign.scheduler import RetryPolicy, Scheduler, SourceNotice
from ..campaign.sharding import ShardPlan, merge_shard_results, stream_tasks
from ..formal.engine import EngineConfig
from ..obs import METRICS, TRACER
from ..obs.log import get_logger, log_context
from ..obs.promexport import MetricsHistory
from ..obs.record import build_record, validate_record
from .journal import CampaignJournal, JournaledCampaign
from .tenancy import QuotaError, TenantRegistry

__all__ = ["Campaign", "CampaignBroker", "CampaignSpec"]

_LOG = get_logger("service.broker")

#: Admission-to-settle latency buckets (seconds): campaigns, not tasks.
SETTLE_BOUNDS = (1.0, 5.0, 15.0, 60.0, 300.0)

#: A tenant name: it keys quotas, the journal and metric labels, so it
#: is bounded in length and alphabet.
_TENANT_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}")


class CampaignSpec:
    """A validated campaign submission (the POST /campaigns body)."""

    def __init__(self, tenant: str, case_ids: List[str],
                 variants: List[str], depth: int = 8, frames: int = 30,
                 group_size: int = 1, schedule: str = "cost",
                 memory_limit_mb: Optional[int] = None) -> None:
        self.tenant = tenant
        self.case_ids = case_ids
        self.variants = variants
        self.depth = depth
        self.frames = frames
        self.group_size = group_size
        self.schedule = schedule
        self.memory_limit_mb = memory_limit_mb

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CampaignSpec":
        """Parse + validate a submission body; ValueError on bad input."""
        if not isinstance(data, dict):
            raise ValueError("submission must be a JSON object")
        tenant = data.get("tenant", "anonymous")
        if not isinstance(tenant, str) or not _TENANT_RE.fullmatch(tenant):
            raise ValueError(f"'tenant' must match {_TENANT_RE.pattern}")
        cases = data.get("cases")
        if not isinstance(cases, list) or not cases \
                or not all(isinstance(c, str) and c.strip() for c in cases):
            raise ValueError("'cases' must be a non-empty list of case ids")
        variants = data.get("variants", ["fixed", "buggy"])
        if not isinstance(variants, list) or not variants \
                or not all(v in ("fixed", "buggy") for v in variants):
            raise ValueError("'variants' must be a non-empty subset of "
                             "['fixed', 'buggy']")
        schedule = data.get("schedule", "cost")
        if schedule not in ("cost", "inventory"):
            raise ValueError("'schedule' must be 'cost' or 'inventory'")

        def integer(name, default, minimum):
            value = data.get(name, default)
            if value is None and default is None:
                return None
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < minimum:
                raise ValueError(f"'{name}' must be an integer "
                                 f">= {minimum}")
            return value

        return cls(tenant=tenant,
                   case_ids=[c.strip() for c in cases],
                   variants=list(variants),
                   depth=integer("depth", 8, 1),
                   frames=integer("frames", 30, 1),
                   group_size=integer("group_size", 1, 1),
                   schedule=schedule,
                   memory_limit_mb=integer("memory_limit_mb", None, 1))

    def as_dict(self) -> Dict[str, object]:
        return {"tenant": self.tenant, "cases": self.case_ids,
                "variants": self.variants, "depth": self.depth,
                "frames": self.frames, "group_size": self.group_size,
                "schedule": self.schedule,
                "memory_limit_mb": self.memory_limit_mb}


def _serialize_event(event: TaskEvent) -> Dict[str, object]:
    """The wire form of one task event (the SSE ``data:`` payload)."""
    return asdict(event)


class Campaign:
    """One admitted campaign's full lifecycle state (broker-internal)."""

    def __init__(self, campaign_id: str, spec: CampaignSpec, jobs,
                 stream: Iterator, plan: ShardPlan) -> None:
        self.id = campaign_id
        self.spec = spec
        self.tenant = spec.tenant
        self.jobs = jobs
        self.stream = stream
        self.plan = plan
        self.status = "running"       # running | completed | cancelled
        self.submitted_at = time.time()
        self.started = time.monotonic()
        self.wall_time_s = 0.0
        #: Result TaskEvents, in completion order (feeds the merge).
        self.events: List[TaskEvent] = []
        #: Serialized event feed for (re)players: every event incl.
        #: notices and the terminal marker, in publish order.
        self.feed: List[Dict[str, object]] = []
        self.subscribers: List[Callable[[Dict[str, object]], None]] = []
        #: id(task) of every task issued to the scheduler, not settled.
        self.live_ids: Set[int] = set()
        self.outstanding = 0
        self.stream_done = False
        self.settled = False
        self.cancel_requested = False
        self.cancel_applied = False
        self.cancel_reason: Optional[str] = None
        #: Parent-side frontend seconds (non-cached compile_done walls).
        self.frontend_time_s = 0.0
        self.wall_spent_s = 0.0
        #: Set at settle: merged job results / report / record dicts.
        self.results = None
        self.report_dict: Optional[Dict[str, object]] = None
        self.record_dict: Optional[Dict[str, object]] = None
        self.error: Optional[str] = None
        #: Monotonic settle time, for the retention policy's TTL check.
        self.settled_at: Optional[float] = None
        #: Journal sequence number (restored across restarts).
        self.seq = 0

    # -- event fan-out (call with the broker lock held) --------------------
    def publish(self, payload: Dict[str, object]) -> None:
        self.feed.append(payload)
        for callback in list(self.subscribers):
            try:
                callback(payload)
            except Exception:
                self.subscribers.remove(callback)

    @property
    def finished(self) -> bool:
        return self.settled

    def summary(self) -> Dict[str, object]:
        done = sum(1 for event in self.events if event.is_result)
        return {
            "id": self.id, "tenant": self.tenant, "status": self.status,
            "submitted_at": self.submitted_at,
            "cases": self.spec.case_ids, "variants": self.spec.variants,
            "jobs": len(self.jobs),
            "tasks_settled": done,
            "tasks_outstanding": self.outstanding,
            "stream_done": self.stream_done,
            "wall_time_s": round(
                self.wall_time_s if self.settled
                else time.monotonic() - self.started, 3),
            "wall_spent_s": round(self.wall_spent_s, 3),
            "cancel_reason": self.cancel_reason,
            "error": self.error,
        }


class CampaignBroker:
    """Admission-controlled multiplexer of campaigns onto one fabric.

    ``transport`` is the shared execution backend (a
    :class:`~repro.campaign.scheduler.LocalTransport` pool or a
    :class:`~repro.dist.coordinator.TcpTransport` fleet); ``workers`` is
    only used to build the default local pool.  ``start()`` launches the
    broker thread; ``close()`` drains admission, lets outstanding work
    finish (or cancels it with ``cancel_pending=True``) and ends the
    scheduler run, closing the transport.
    """

    def __init__(self, workers: int = 2,
                 transport=None,
                 cache: Optional[ArtifactCache] = None,
                 tenants: Optional[TenantRegistry] = None,
                 timeout_s: Optional[float] = None,
                 memory_limit_mb: Optional[int] = None,
                 model: Optional[CostModel] = None,
                 journal: Optional[CampaignJournal] = None,
                 retry: Optional[RetryPolicy] = None,
                 retain_settled: Optional[int] = 64,
                 retain_ttl_s: Optional[float] = None,
                 history_interval_s: float = 2.0,
                 history_window: int = 300) -> None:
        self.workers = workers
        self.transport = transport
        self.cache = cache
        self.tenants = tenants or TenantRegistry()
        self.timeout_s = timeout_s
        self.memory_limit_mb = memory_limit_mb
        self.model = model or CostModel()
        #: Write-ahead journal: every admission, result event,
        #: cancellation and terminal verdict is appended *before* it is
        #: published, so a restarted service can replay open campaigns
        #: (settled tasks come back from the shared ArtifactCache).
        self.journal = journal
        #: Task-level retry policy for transient worker deaths (None
        #: keeps the pre-PR-8 fail-fast behaviour).
        self.retry = retry
        #: Retention policy for *settled* campaigns: keep at most
        #: ``retain_settled`` (None = unbounded) and none older than
        #: ``retain_ttl_s`` seconds past settle.  Without this the
        #: ``_campaigns`` map grows forever in a long-lived service.
        self.retain_settled = retain_settled
        self.retain_ttl_s = retain_ttl_s
        self.transport_kind = "tcp" if getattr(transport, "remote", False) \
            else "local"

        self._lock = threading.RLock()
        self._campaigns: Dict[str, Campaign] = {}
        #: Admission order, for oldest-first picks within a tenant.
        self._order: List[str] = []
        self._owners: Dict[int, Campaign] = {}
        self._seq = 0
        self._closed = False
        self._scheduler: Optional[Scheduler] = None
        self._thread: Optional[threading.Thread] = None
        self._started = time.monotonic()
        self._fatal: Optional[str] = None
        self._evicted = 0
        #: The /metrics/history ring: the sampler thread snapshots the
        #: METRICS registry into it every ``history_interval_s`` so
        #: trends (throughput, queue depth) survive without an external
        #: scraper.  Near-zero cost: one snapshot dict per tick.
        self.history = MetricsHistory(window=history_window,
                                      interval_s=history_interval_s)
        self._sampler: Optional[threading.Thread] = None
        self._sampler_stop = threading.Event()

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "CampaignBroker":
        if self._thread is not None:
            raise RuntimeError("broker already started")
        transport = self.transport
        if transport is None:
            from ..campaign.scheduler import LocalTransport
            transport = self.transport = LocalTransport(self.workers)
        self._scheduler = Scheduler(
            self._source(), workers=self.workers, cache=self.cache,
            timeout_s=self.timeout_s,
            memory_limit_mb=self.memory_limit_mb,
            runner=execute_task, transport=transport, retry=self.retry)
        if self.journal is not None:
            self._recover()
        self._thread = threading.Thread(target=self._run,
                                        name="campaign-broker", daemon=True)
        self._thread.start()
        self._sampler = threading.Thread(target=self._sample_loop,
                                         name="metrics-sampler",
                                         daemon=True)
        self._sampler.start()
        _LOG.info("broker started", transport=self.transport_kind,
                  workers=self.workers)
        return self

    def drain(self, cancel_pending: bool = False) -> None:
        """Flip to draining: no new admissions, /readyz goes 503.

        Existing campaigns finish (or are cancelled); the broker thread
        ends once they settle.  Unlike :meth:`close` this does not join,
        so an HTTP handler can trigger it without deadlocking itself.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            if cancel_pending:
                for campaign in self._campaigns.values():
                    if not campaign.settled \
                            and not campaign.cancel_requested:
                        campaign.cancel_requested = True
                        campaign.cancel_reason = "service shutdown"
            self._wake()
        if not already:
            _LOG.info("broker draining", cancel_pending=cancel_pending)

    def close(self, cancel_pending: bool = False,
              timeout_s: Optional[float] = 30.0) -> None:
        """Stop admitting, finish (or cancel) open campaigns, shut down."""
        self.drain(cancel_pending=cancel_pending)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
        self._sampler_stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)

    def _wake(self) -> None:
        """New work or a state change: make the broker thread re-probe."""
        if self._scheduler is not None:
            self._scheduler.wake()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # -- health / readiness (HTTP threads) ---------------------------------
    def healthy(self) -> tuple:
        """Liveness: is the broker worth keeping alive?  (ok, checks)."""
        checks = {
            "broker_thread": self._thread is None or self._thread.is_alive()
            or all(c.settled for c in self._campaigns.values()),
            "no_fatal": self._fatal is None,
        }
        return all(checks.values()), checks

    def ready(self) -> tuple:
        """Readiness: should a client submit work here?  (ok, checks).

        Ready means: admission is open (not draining), the broker thread
        is actually running, the fleet has at least one execution slot
        (quorum), and the journal — if configured — can take an append.
        A drained or not-yet-started broker reports not ready while
        staying alive, which is exactly the 503-on-/readyz contract.
        """
        transport = self.transport
        quorum = True
        if transport is not None:
            try:
                quorum = transport.capacity() > 0
            except Exception:
                quorum = False
        checks = {
            "accepting": not self._closed,
            "broker_thread": self._thread is not None
            and self._thread.is_alive(),
            "fleet_quorum": quorum,
            "journal_writable": self.journal is None
            or self.journal.writable(),
        }
        return all(checks.values()), checks

    # -- the sampler thread ------------------------------------------------
    def _sample_loop(self) -> None:
        """Feed the history ring until close(); also refresh fleet gauges.

        Fleet capacity/in-flight live on the transport, not in METRICS —
        mirroring them into gauges here makes them scrapeable and gives
        the ring a utilization trail.
        """
        interval = self.history.interval_s
        while not self._sampler_stop.wait(interval):
            self._sample_once()
        self._sample_once()              # one last sample on shutdown

    def _sample_once(self) -> None:
        METRICS.gauge("service.uptime_s").set(
            round(time.monotonic() - self._started, 3))
        transport = self.transport
        if transport is not None:
            try:
                METRICS.gauge("fabric.capacity").set(transport.capacity())
                METRICS.gauge("fabric.in_flight").set(
                    transport.in_flight())
                METRICS.gauge("fabric.free_slots").set(
                    transport.free_slots())
            except Exception:
                pass                     # a closing transport mid-sample
        self.history.sample(METRICS.snapshot())

    # -- admission (HTTP threads) ------------------------------------------
    def submit(self, spec: CampaignSpec) -> Campaign:
        """Admit one campaign or raise :class:`QuotaError`/ValueError.

        Quota checks run before anything is allocated: a rejected
        submission builds no jobs, opens no stream and consumes zero
        fabric slots (the smoke gate asserts exactly this).
        """
        from ..campaign.jobs import expand_jobs
        from ..designs import case_by_id

        with self._lock:
            if self._closed:
                raise QuotaError("service_shutting_down", 503,
                                 "the service is draining; no new "
                                 "campaigns are admitted")
            self.tenants.admit_campaign(spec.tenant,
                                        memory_limit_mb=spec.memory_limit_mb)
            # Resolve cases before charging anything, so an unknown case
            # id is a clean 400-shaped ValueError, not a half-admitted
            # campaign (or a KeyError the HTTP layer would misread as an
            # unknown *campaign* 404).
            try:
                cases = [case_by_id(cid) for cid in spec.case_ids]
            except KeyError as exc:
                raise ValueError(str(exc.args[0])) from None
            config = EngineConfig(max_bound=spec.depth,
                                  max_frames=spec.frames)
            jobs = expand_jobs(cases=cases,
                               variants=tuple(spec.variants),
                               config=config)
            if not jobs:
                raise ValueError("submission selects no jobs")
            self._seq += 1
            campaign_id = f"c{self._seq:04d}-{uuid.uuid4().hex[:8]}"
            plan = ShardPlan()
            stream = stream_tasks(jobs, group_size=spec.group_size,
                                  cache=self.cache,
                                  schedule=spec.schedule,
                                  model=self.model, plan=plan)
            campaign = Campaign(campaign_id, spec, jobs, stream, plan)
            usage = self.tenants.usage(spec.tenant)
            usage.open_campaigns += 1
            usage.campaigns_total += 1
            # A tenant joining mid-flight starts at the current virtual
            # time frontier, not zero — otherwise it would monopolize
            # the fabric until its vtime caught up with everyone else's.
            floor = min((self.tenants.usage(c.tenant).vtime
                         for c in self._campaigns.values()
                         if not c.settled), default=0.0)
            usage.vtime = max(usage.vtime, floor)
            campaign.seq = self._seq
            self._campaigns[campaign_id] = campaign
            self._order.append(campaign_id)
            if self.journal is not None:
                # Write-ahead: durable before the caller learns the id.
                self.journal.admitted(campaign_id, self._seq, spec.tenant,
                                      campaign.submitted_at, spec.as_dict())
            self._gc_settled()
            METRICS.counter("service.campaigns_submitted").inc()
            METRICS.counter("service.campaigns_submitted",
                            labels={"tenant": spec.tenant}).inc()
            METRICS.gauge("service.campaigns_active").set(
                sum(1 for c in self._campaigns.values() if not c.settled))
            TRACER.instant("campaign_admitted", cat="service",
                           args={"campaign": campaign_id,
                                 "tenant": spec.tenant})
            _LOG.info("campaign admitted", tenant=spec.tenant,
                      campaign=campaign_id, jobs=len(jobs),
                      cases=len(spec.case_ids))
            self._wake()
            return campaign

    def cancel(self, campaign_id: str,
               reason: str = "cancelled by client") -> Campaign:
        """Request cancellation; the broker thread applies it."""
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise KeyError(campaign_id)
            if not campaign.settled and not campaign.cancel_requested:
                campaign.cancel_requested = True
                campaign.cancel_reason = reason
                if self.journal is not None:
                    self.journal.cancelled(campaign_id, reason)
                METRICS.counter("service.campaigns_cancelled").inc()
                _LOG.info("campaign cancel requested",
                          tenant=campaign.tenant, campaign=campaign_id,
                          reason=reason)
                self._wake()
            return campaign

    # -- queries (HTTP threads) --------------------------------------------
    def get(self, campaign_id: str) -> Campaign:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise KeyError(campaign_id)
            return campaign

    def list_campaigns(self) -> List[Dict[str, object]]:
        with self._lock:
            return [self._campaigns[cid].summary() for cid in self._order]

    def subscribe(self, campaign_id: str,
                  callback: Callable[[Dict[str, object]], None]
                  ) -> List[Dict[str, object]]:
        """Register a live-event callback; returns the replay backlog.

        The backlog and all later callback invocations together form
        exactly the campaign's feed, gap- and duplicate-free: both
        happen under the broker lock.
        """
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is None:
                raise KeyError(campaign_id)
            replay = list(campaign.feed)
            if not campaign.settled:
                campaign.subscribers.append(callback)
            return replay

    def unsubscribe(self, campaign_id: str, callback) -> None:
        with self._lock:
            campaign = self._campaigns.get(campaign_id)
            if campaign is not None and callback in campaign.subscribers:
                campaign.subscribers.remove(callback)

    def status(self) -> Dict[str, object]:
        """The ``GET /status`` document: fleet, queues, tenants, phases."""
        snapshot = METRICS.snapshot()
        gauges = snapshot.get("gauges", {})
        counters = snapshot.get("counters", {})
        histograms = snapshot.get("histograms", {})
        # The PR 8 durability/resilience signals, readable off a live
        # service: reconnects, retries, requeues, journal append latency.
        append_stats = None
        for name, data in histograms.items():
            if not name.startswith("journal.append_s"):
                continue
            count = int(data.get("count", 0))
            append_stats = {
                "count": count,
                "mean_s": round(float(data.get("sum", 0.0))
                                / count, 6) if count else 0.0,
                "max_s": data.get("max"),
            }
            break
        with self._lock:
            transport = self.transport
            fleet: Dict[str, object] = {"transport": self.transport_kind}
            if transport is not None:
                try:
                    fleet.update({
                        "capacity": transport.capacity(),
                        "in_flight": transport.in_flight(),
                        "free_slots": transport.free_slots(),
                    })
                    stats = transport.worker_stats()
                    if stats:
                        fleet["workers"] = stats
                except Exception:
                    pass
            open_campaigns = [c for c in self._campaigns.values()
                              if not c.settled]
            # Fleet-wide phase view: the settled campaigns' breakdowns
            # folded together — where the service's wall clock went.
            phases: Dict[str, float] = {}
            for campaign in self._campaigns.values():
                for name, value in ((campaign.report_dict or {})
                                    .get("phases") or {}).items():
                    phases[name] = round(phases.get(name, 0.0) + value, 3)
            return {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "accepting": not self._closed,
                "fleet": fleet,
                "queue": {
                    "campaigns_open": len(open_campaigns),
                    "campaigns_total": len(self._campaigns),
                    "queue_depth": gauges.get("scheduler.queue_depth", 0),
                    "in_flight": gauges.get("scheduler.in_flight", 0),
                },
                "retention": {
                    "retain_settled": self.retain_settled,
                    "retain_ttl_s": self.retain_ttl_s,
                    "evicted": self._evicted,
                },
                "fabric": {
                    "reconnects": counters.get("fabric.reconnects", 0),
                    "retries": counters.get("scheduler.retries", 0),
                    "requeues": counters.get("scheduler.requeues", 0),
                    "steals": counters.get("scheduler.steals", 0),
                },
                "durability": {
                    "journal": (str(self.journal.path)
                                if self.journal is not None else None),
                    "fsync": (self.journal.fsync
                              if self.journal is not None else False),
                    "append_latency": append_stats,
                },
                "service": {name: value for name, value in counters.items()
                            if name.startswith("service.")},
                "tenants": self.tenants.report(),
                "phases": phases,
            }

    # -- the broker thread -------------------------------------------------
    def _run(self) -> None:
        try:
            for event in self._scheduler.run():
                tag = event[0]
                if tag == "done":
                    _, _, task, result = event
                    self._on_done(task, result)
                elif tag == "requeue":
                    _, task, worker_id = event
                    self._on_requeue(task, worker_id)
                elif tag == "retry":
                    _, task, attempt, failed = event
                    self._on_retry(task, attempt, failed)
                # "steal" cannot happen (split=None); "notice" never
                # reaches the scheduler — the source converts notices
                # into per-campaign feed events directly.
        except Exception as exc:  # pragma: no cover - defensive
            _LOG.error("broker thread crashed",
                       error=f"{type(exc).__name__}: {exc}")
            with self._lock:
                self._fatal = f"{type(exc).__name__}: {exc}"
                for campaign in self._campaigns.values():
                    if not campaign.settled:
                        campaign.error = self._fatal
                        campaign.status = "cancelled"
                        campaign.cancel_reason = "broker crashed"
                        self._settle(campaign)
            raise

    def _source(self) -> Iterator[object]:
        """The scheduler's job source: fair-share across tenants."""
        while True:
            item = self._next_item()
            if item is StopIteration:
                return
            yield item

    def _next_item(self):
        """One fair-share pick: a task, ``None`` (dry), or StopIteration.

        Runs in the broker thread.  Stream advances (compiles!) happen
        outside the lock; all bookkeeping inside it.
        """
        while True:
            with self._lock:
                to_cancel = [c for c in self._campaigns.values()
                             if c.cancel_requested and not c.cancel_applied]
                for campaign in to_cancel:
                    campaign.cancel_applied = True
                    campaign.stream_done = True
            for campaign in to_cancel:
                self._apply_cancel(campaign)
            with self._lock:
                for campaign in to_cancel:
                    self._maybe_settle(campaign)
                if self._closed and all(c.settled for c
                                        in self._campaigns.values()):
                    return StopIteration
                campaign = self._pick()
                if campaign is None:
                    return None
            # Advance the chosen campaign's stream OUTSIDE the lock: this
            # is where FT generation + compile happen, and status/submit
            # handlers must not block behind them.
            try:
                item = next(campaign.stream)
            except StopIteration:
                with self._lock:
                    campaign.stream_done = True
                    self._maybe_settle(campaign)
                continue
            except Exception as exc:
                # stream_tasks isolates per-design failures itself; a
                # raise here is a broker bug — fail the one campaign,
                # never the service.
                with self._lock:
                    campaign.stream_done = True
                    campaign.error = f"{type(exc).__name__}: {exc}"
                    self._maybe_settle(campaign)
                continue
            if isinstance(item, SourceNotice):
                with self._lock:
                    self._on_notice(campaign, item)
                continue
            with self._lock:
                usage = self.tenants.usage(campaign.tenant)
                self._owners[id(item)] = campaign
                campaign.live_ids.add(id(item))
                campaign.outstanding += 1
                usage.in_flight += 1
                usage.tasks_total += 1
                quota = self.tenants.quota(campaign.tenant)
                usage.vtime += self.model.task_cost(item) \
                    / max(quota.weight, 1e-9)
                METRICS.counter("service.tasks_issued").inc()
                METRICS.counter("service.tasks_issued",
                                labels={"tenant": campaign.tenant}).inc()
            return item

    def _pick(self) -> Optional[Campaign]:
        """Stride scheduling: min-vtime runnable tenant, oldest campaign.

        Call with the lock held.  A campaign is runnable when its stream
        has more to give and its tenant is under the in-flight cap and
        budget; campaigns of one tenant advance in admission order so a
        tenant's own campaigns are FIFO among themselves.
        """
        best: Optional[Campaign] = None
        best_vtime = 0.0
        for campaign_id in self._order:
            campaign = self._campaigns[campaign_id]
            if campaign.settled or campaign.stream_done \
                    or campaign.cancel_requested:
                continue
            if not self.tenants.may_issue(campaign.tenant):
                continue
            vtime = self.tenants.usage(campaign.tenant).vtime
            if best is None or vtime < best_vtime:
                best = campaign
                best_vtime = vtime
        return best

    def _apply_cancel(self, campaign: Campaign) -> None:
        """Retract a campaign's queued work (broker thread, no lock)."""
        campaign.stream.close()
        live = campaign.live_ids
        self._scheduler.cancel_where(
            lambda job, _live=live: id(job) in _live)
        TRACER.instant("campaign_cancelled", cat="service",
                       args={"campaign": campaign.id,
                             "reason": campaign.cancel_reason})

    def _on_notice(self, campaign: Campaign, notice: SourceNotice) -> None:
        """Compile progress markers become campaign feed events directly.

        The one-shot session converts scheduler-forwarded notices to
        TaskEvents; here notices never enter the scheduler at all (it
        could not attribute them to a campaign), so the broker performs
        the identical conversion itself.
        """
        if notice.kind == "compile_done" and not notice.from_cache:
            campaign.frontend_time_s += notice.wall_time_s
        event = TaskEvent(task_id="", design=notice.design, variant="",
                          status="ok", kind=notice.kind,
                          wall_time_s=notice.wall_time_s,
                          from_cache=notice.from_cache)
        campaign.publish(_serialize_event(event))

    def _on_done(self, task: PropertyTask, result) -> None:
        with self._lock:
            campaign = self._owners.pop(id(task), None)
            if campaign is None:
                return
            campaign.live_ids.discard(id(task))
            campaign.outstanding -= 1
            usage = self.tenants.usage(campaign.tenant)
            usage.in_flight -= 1
            usage.wall_spent_s += result.wall_time_s
            campaign.wall_spent_s += result.wall_time_s
            METRICS.counter("service.tasks_settled").inc()
            METRICS.counter("service.tasks_settled",
                            labels={"tenant": campaign.tenant}).inc()
            event = event_from_result(task, result)
            campaign.events.append(event)
            payload = _serialize_event(event)
            if self.journal is not None:
                # Journal the verdict before any subscriber can see it:
                # a crash after publish but before the append could
                # otherwise double-report the task across a restart.
                self.journal.event(campaign.id, payload)
            campaign.publish(payload)
            # Containment: a tenant that just ran out of wall budget has
            # every open campaign cancelled — enforced, not just
            # reported, veronica-style.
            if self.tenants.over_budget(campaign.tenant):
                for other in self._campaigns.values():
                    if other.tenant == campaign.tenant \
                            and not other.settled \
                            and not other.cancel_requested:
                        other.cancel_requested = True
                        other.cancel_reason = "wall budget exhausted"
                        METRICS.counter(
                            "service.budget_cancellations").inc()
            self._maybe_settle(campaign)

    def _on_requeue(self, task: PropertyTask, worker_id) -> None:
        """A remote worker died holding this task; surface the event."""
        with self._lock:
            campaign = self._owners.get(id(task))
            if campaign is None:
                return
            event = TaskEvent(task_id=task.task_id, design=task.design,
                              variant=task.variant, status="ok",
                              kind="requeue", worker=worker_id)
            campaign.publish(_serialize_event(event))

    def _on_retry(self, task: PropertyTask, attempt: int, failed) -> None:
        """The scheduler re-queued a transiently-failed task; surface it.

        A retry is progress news, not a verdict: the task stays live and
        outstanding, so nothing is journaled — only subscribers see it.
        """
        with self._lock:
            campaign = self._owners.get(id(task))
            if campaign is None:
                return
            event = TaskEvent(task_id=task.task_id, design=task.design,
                              variant=task.variant, status="ok",
                              kind="retry", error=failed.error)
            campaign.publish(_serialize_event(event))

    # -- settle ------------------------------------------------------------
    def _maybe_settle(self, campaign: Campaign) -> None:
        if campaign.settled or not campaign.stream_done \
                or campaign.outstanding:
            return
        self._settle(campaign)

    def _settle(self, campaign: Campaign) -> None:
        """Finalize: merge, report, record, terminal feed event.

        Call with the lock held (broker thread).  The merge and record
        build are pure in-memory folds over this campaign's events —
        fast relative to any verification work, so holding the lock is
        fine.
        """
        campaign.settled = True
        campaign.wall_time_s = time.monotonic() - campaign.started
        usage = self.tenants.usage(campaign.tenant)
        usage.open_campaigns -= 1
        campaign.live_ids.clear()
        was_cancelled = campaign.cancel_requested \
            or campaign.error is not None
        if was_cancelled:
            campaign.status = "cancelled"
        else:
            campaign.status = "completed"
            try:
                self._build_outputs(campaign)
            except Exception as exc:  # pragma: no cover - defensive
                campaign.status = "cancelled"
                campaign.error = (f"report assembly failed: "
                                  f"{type(exc).__name__}: {exc}")
        campaign.settled_at = time.monotonic()
        if self.journal is not None:
            self.journal.settled(
                campaign.id, campaign.status, campaign.error,
                campaign.cancel_reason, round(campaign.wall_time_s, 3),
                campaign.report_dict, campaign.record_dict)
        METRICS.counter("service.campaigns_completed"
                        if campaign.status == "completed"
                        else "service.campaigns_failed").inc()
        METRICS.gauge("service.campaigns_active").set(
            sum(1 for c in self._campaigns.values() if not c.settled))
        # Admission-to-settle per tenant: the end-to-end latency a
        # tenant actually experiences, queueing and fair-share included.
        METRICS.histogram("service.settle_latency_s",
                          bounds=SETTLE_BOUNDS,
                          labels={"tenant": campaign.tenant}).observe(
                              campaign.wall_time_s)
        TRACER.instant("campaign_settled", cat="service",
                       args={"campaign": campaign.id,
                             "status": campaign.status})
        _LOG.info("campaign settled", tenant=campaign.tenant,
                  campaign=campaign.id, status=campaign.status,
                  wall_s=round(campaign.wall_time_s, 3),
                  tasks=sum(1 for e in campaign.events if e.is_result),
                  **({"error": campaign.error} if campaign.error else {}))
        campaign.publish({
            "kind": "campaign_done", "campaign": campaign.id,
            "status": campaign.status,
            "cancel_reason": campaign.cancel_reason,
            "error": campaign.error,
            "wall_time_s": round(campaign.wall_time_s, 3),
        })
        campaign.subscribers = []
        self._gc_settled()

    def _gc_settled(self) -> None:
        """Evict settled campaigns past the retention policy (lock held).

        Oldest-settled first; open campaigns are never touched.  Each
        eviction is journaled so a restart does not resurrect the
        campaign from its admission record.
        """
        settled = [c for c in self._campaigns.values()
                   if c.settled and c.settled_at is not None]
        settled.sort(key=lambda c: c.settled_at)
        evict: List[Campaign] = []
        if self.retain_ttl_s is not None:
            horizon = time.monotonic() - self.retain_ttl_s
            evict.extend(c for c in settled if c.settled_at < horizon)
        if self.retain_settled is not None:
            keep = [c for c in settled if c not in evict]
            if len(keep) > self.retain_settled:
                evict.extend(keep[:len(keep) - self.retain_settled])
        for campaign in evict:
            del self._campaigns[campaign.id]
            self._order.remove(campaign.id)
            if self.journal is not None:
                self.journal.evicted(campaign.id)
            self._evicted += 1
            METRICS.counter("service.campaigns_evicted").inc()

    def _build_outputs(self, campaign: Campaign) -> None:
        """Merged results -> CampaignReport -> validated ExecutionRecord."""
        results = merge_shard_results(campaign.plan, campaign.events)
        campaign.results = results
        report = CampaignReport(
            campaign.plan.jobs, results,
            workers=self.workers,
            wall_time_s=campaign.wall_time_s,
            cache_stats=self.cache.stats() if self.cache else None,
            schedule=campaign.spec.schedule,
            transport=self.transport_kind,
            worker_stats=(self.transport.worker_stats()
                          if self.transport is not None else None),
            frontend_time_s=campaign.frontend_time_s)
        campaign.report_dict = report.as_dict()
        campaign.report_dict["campaign"] = campaign.id
        campaign.report_dict["tenant"] = campaign.tenant
        quota = self.tenants.quota(campaign.tenant)
        usage = self.tenants.usage(campaign.tenant)
        campaign.report_dict["tenant_usage"] = {
            "wall_spent_s": round(usage.wall_spent_s, 3),
            "wall_budget_s": quota.wall_budget_s,
        }
        record = build_record(
            report,
            config={"service": True, "campaign": campaign.id,
                    "tenant": campaign.tenant,
                    "transport": self.transport_kind,
                    "workers": self.workers,
                    **campaign.spec.as_dict()},
            metrics=METRICS.snapshot())
        # The digest-validated contract: the record must survive a JSON
        # round trip and re-validate, or the campaign is not "completed".
        data = json.loads(record.to_json())
        validate_record(data)
        campaign.record_dict = data
        METRICS.counter("service.records_built").inc()

    # -- restart recovery --------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: restore settled campaigns, re-admit open.

        Runs in ``start()`` before the broker thread exists, so no lock
        is needed.  Re-admitted campaigns re-enter the fair source as
        ordinary work; their already-settled tasks are filtered out of
        the task stream (the events replay from the journal, the task
        *work* replays from the shared :class:`ArtifactCache`), so only
        genuinely unfinished tasks hit the fabric again.
        """
        restored = 0
        for state in self.journal.replay():
            try:
                spec = CampaignSpec.from_json(state.spec)
            except ValueError:
                continue  # journal from an incompatible build: skip
            self._seq = max(self._seq, state.seq)
            if state.settled is not None:
                campaign = self._restore_settled(state, spec)
            else:
                campaign = self._readmit(state, spec)
            if campaign is None:
                continue
            campaign.seq = state.seq
            self._campaigns[campaign.id] = campaign
            self._order.append(campaign.id)
            restored += 1
        if restored:
            METRICS.counter("service.campaigns_recovered").inc(restored)
            METRICS.gauge("service.campaigns_active").set(
                sum(1 for c in self._campaigns.values() if not c.settled))
            TRACER.instant("journal_replayed", cat="service",
                           args={"restored": restored})
            _LOG.info("journal replayed", restored=restored,
                      open=sum(1 for c in self._campaigns.values()
                               if not c.settled),
                      journal=str(self.journal.path))
        self._gc_settled()

    @staticmethod
    def _event_from_payload(payload: Dict[str, object]) -> TaskEvent:
        """A journaled event dict back into a TaskEvent.

        Unknown keys are dropped so journals written by a build with
        extra event fields still replay (missing fields take dataclass
        defaults).
        """
        names = {f.name for f in fields(TaskEvent)}
        return TaskEvent(**{k: v for k, v in payload.items()
                            if k in names})

    def _restore_settled(self, state: JournaledCampaign,
                         spec: CampaignSpec) -> Campaign:
        """A terminal campaign comes back queryable, never re-run."""
        settled = state.settled or {}
        campaign = Campaign(state.campaign_id, spec, jobs=[],
                            stream=iter(()), plan=ShardPlan())
        campaign.submitted_at = state.submitted_at
        campaign.settled = True
        campaign.stream_done = True
        campaign.settled_at = time.monotonic()
        campaign.status = str(settled.get("status", "cancelled"))
        campaign.error = settled.get("error")
        campaign.cancel_reason = settled.get("cancel_reason") \
            or state.cancel_reason
        campaign.wall_time_s = float(settled.get("wall_time_s") or 0.0)
        campaign.report_dict = settled.get("report")
        campaign.record_dict = settled.get("record")
        events = [self._event_from_payload(p) for p in state.events]
        campaign.events = events
        campaign.wall_spent_s = sum(e.wall_time_s for e in events
                                    if e.is_result)
        campaign.feed = list(state.events)
        campaign.feed.append({
            "kind": "campaign_done", "campaign": campaign.id,
            "status": campaign.status,
            "cancel_reason": campaign.cancel_reason,
            "error": campaign.error,
            "wall_time_s": round(campaign.wall_time_s, 3),
        })
        usage = self.tenants.usage(spec.tenant)
        usage.campaigns_total += 1
        usage.wall_spent_s += campaign.wall_spent_s
        return campaign

    def _readmit(self, state: JournaledCampaign,
                 spec: CampaignSpec) -> Optional[Campaign]:
        """An open campaign resumes: stream rebuilt, settled tasks cut."""
        from ..campaign.jobs import expand_jobs
        from ..designs import case_by_id

        try:
            cases = [case_by_id(cid) for cid in spec.case_ids]
            config = EngineConfig(max_bound=spec.depth,
                                  max_frames=spec.frames)
            jobs = expand_jobs(cases=cases, variants=tuple(spec.variants),
                               config=config)
        except Exception:
            return None  # corpus changed under the journal: drop it
        if not jobs:
            return None
        plan = ShardPlan()
        raw = stream_tasks(jobs, group_size=spec.group_size,
                           cache=self.cache, schedule=spec.schedule,
                           model=self.model, plan=plan)
        done_ids = state.settled_task_ids
        stream = self._skip_settled(raw, done_ids) if done_ids else raw
        campaign = Campaign(state.campaign_id, spec, jobs, stream, plan)
        campaign.submitted_at = state.submitted_at
        events = [self._event_from_payload(p) for p in state.events]
        campaign.events = events
        campaign.wall_spent_s = sum(e.wall_time_s for e in events
                                    if e.is_result)
        campaign.feed = list(state.events)
        if state.cancel_reason is not None:
            campaign.cancel_requested = True
            campaign.cancel_reason = state.cancel_reason
        usage = self.tenants.usage(spec.tenant)
        usage.open_campaigns += 1
        usage.campaigns_total += 1
        usage.wall_spent_s += campaign.wall_spent_s
        return campaign

    @staticmethod
    def _skip_settled(stream: Iterator, done_ids: Set[str]) -> Iterator:
        """Filter journaled-as-settled tasks out of a rebuilt stream.

        Notices pass through (compile progress is real again on this
        run); the plan still records every task, so the final merge sees
        the full shard map — replayed events fill the settled slots.
        """
        for item in stream:
            if isinstance(item, SourceNotice):
                yield item
            elif getattr(item, "task_id", None) not in done_ids:
                yield item
