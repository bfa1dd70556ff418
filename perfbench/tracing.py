"""Span recording from outside the program, for the traced run.

The ``install_*`` functions replace public entry points of each layer
with wrappers that record a span per call (name, start, end, parent,
request id) in a per-process list held in memory.  Nothing under
``src/`` knows about it.  Spans are written once: every forked task
child, server and worker agent writes ``spans-<pid>.json`` into the
trace directory when it finishes; the benchmark process loads those
with :func:`load_span_files`, adds its own and writes one Chrome trace
(:func:`chrome_trace`; Perfetto opens it).

Times are ``time.perf_counter()`` seconds, which on Linux is the
system-wide monotonic clock, so spans from different processes line up.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Span tuple layout: (name, start_s, end_s, parent_index, rid, tid).
NAME, START, END, PARENT, RID, TID = range(6)


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        #: campaign id -> admission / first published result time.
        self.admitted: Dict[str, float] = {}
        self.first_result: Dict[str, float] = {}
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # A forked child starts with an empty store: what the parent
        # recorded is the parent's to write.
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self.samples = {}
        self.admitted = {}
        self.first_result = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if rid is None and parent >= 0:
            rid = self.spans[parent][RID]
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, rid,
                           threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def closed_spans(self) -> List[tuple]:
        """Every span as a tuple; one still open (another thread's, at
        exit) reads as zero-length so parent indices stay valid."""
        return [tuple(s) if s[END] is not None else
                tuple(s[:END]) + (s[START],) + tuple(s[END + 1:])
                for s in self.spans]

    def flush(self) -> Path:
        """Write this process's spans, counters and samples once."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "pid": self.pid, "spans": self.closed_spans(),
            "counters": self.counters, "samples": self.samples}))
        os.replace(tmp, path)
        return path


def wrap(recorder: Recorder, owner, attr: str, name: str,
         rid_of: Optional[Callable] = None,
         after: Optional[Callable] = None,
         flush_in_child: bool = False) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``rid_of(args)`` names the request before the call; ``after(result)``
    reads values the call returned.  ``flush_in_child`` writes the span file when the call
    ends in a process other than the one that installed the wrapper —
    forked task children leave through ``os._exit`` and never reach an
    exit hook.
    """
    original = getattr(owner, attr)
    origin_pid = os.getpid()

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rid = rid_of(args) if rid_of is not None else None
        index = recorder.begin(name, rid)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
            if flush_in_child and os.getpid() != origin_pid:
                recorder.flush()
        if after is not None:
            after(result)
        return result

    setattr(owner, attr, wrapper)


# -- the layer map ------------------------------------------------------------

def install_engine_layers(recorder: Recorder) -> None:
    """core, rtl, formal and sat wrappers (every process that checks)."""
    import repro.core
    from repro.api import compile as api_compile
    from repro.formal import engine as formal_engine
    from repro.formal import engines as formal_engines
    from repro.formal.sat import Solver

    wrap(recorder, repro.core, "generate_ft", "core.generate",
         after=lambda ft: recorder.count("core.properties",
                                         ft.property_count))

    original_compile = api_compile.CompileCache.get_or_compile

    @functools.wraps(original_compile)
    def traced_compile(cache, *args, **kwargs):
        before = cache.compiles
        index = recorder.begin("rtl.compile")
        try:
            compiled = original_compile(cache, *args, **kwargs)
        finally:
            recorder.end(index)
        if cache.compiles != before:      # a frontend run, not a hit
            recorder.count("rtl.compiles")
            recorder.count("rtl.aig_ands", compiled.base.aig.num_ands)
            recorder.count("rtl.latches", len(compiled.base.latches))
        return compiled

    api_compile.CompileCache.get_or_compile = traced_compile
    wrap(recorder, formal_engine.FormalEngine, "check_properties",
         "formal.check")
    wrap(recorder, formal_engine, "bmc_sweep", "formal.bmc_sweep")
    wrap(recorder, formal_engine, "compile_liveness", "formal.l2s_compile")
    wrap(recorder, formal_engine, "compile_kliveness", "formal.l2s_compile")
    wrapped = set()
    for engine_name in formal_engines.available_engines():
        cls = type(formal_engines.get_engine(engine_name))
        if cls in wrapped or "prove_invariant" not in cls.__dict__:
            continue
        wrapped.add(cls)
        wrap(recorder, cls, "prove_invariant", "formal.prove")

    original_init = Solver.__init__

    @functools.wraps(original_init)
    def counting_init(self, *args, **kwargs):
        recorder.count("sat.solvers")
        original_init(self, *args, **kwargs)

    Solver.__init__ = counting_init
    original_solve = Solver.solve

    @functools.wraps(original_solve)
    def traced_solve(self, *args, **kwargs):
        stats = self.stats
        before = (stats.conflicts, stats.decisions, stats.propagations)
        index = recorder.begin("sat.solve")
        try:
            return original_solve(self, *args, **kwargs)
        finally:
            recorder.end(index)
            recorder.count("sat.calls")
            recorder.count("sat.conflicts", stats.conflicts - before[0])
            recorder.count("sat.decisions", stats.decisions - before[1])
            recorder.count("sat.propagations",
                           stats.propagations - before[2])

    Solver.solve = traced_solve


def install_task_boundary(recorder: Recorder) -> None:
    """The one-fork-per-task boundary: the child's whole life is one
    ``api.execute_task`` span, written out as the child ends."""
    from repro.campaign import scheduler
    from repro.dist import worker

    wrap(recorder, scheduler, "_child_main", "api.execute_task",
         rid_of=lambda a: a[2].job_id, flush_in_child=True)
    # The agent imported the entry point by name: point it at the wrapper.
    worker._child_main = scheduler._child_main


def install_campaign_layers(recorder: Recorder) -> None:
    """Parent-side campaign wrappers (``campaign-2w``)."""
    from repro.campaign import scheduler, sharding

    wrap(recorder, scheduler.LocalTransport, "dispatch", "campaign.dispatch",
         rid_of=lambda a: a[2].job_id)
    wrap(recorder, sharding, "merge_shard_results", "campaign.fold")


def install_service_layers(recorder: Recorder) -> None:
    """Server-side wrappers (``service-open``, inside ``autosva serve``)."""
    from repro.dist import coordinator
    from repro.service import broker as broker_mod
    from repro.service import journal as journal_mod

    def note_admit(campaign) -> None:
        recorder.admitted[campaign.id] = time.perf_counter()

    wrap(recorder, broker_mod.CampaignBroker, "submit", "service.submit",
         after=note_admit)
    wrap(recorder, journal_mod.CampaignJournal, "append",
         "service.journal_append")
    wrap(recorder, broker_mod.CampaignBroker, "_build_outputs",
         "service.settle_build", rid_of=lambda a: a[1].id)

    original_publish = broker_mod.Campaign.publish

    @functools.wraps(original_publish)
    def publish(self, payload):
        if payload.get("kind") == "result" \
                and self.id not in recorder.first_result:
            recorder.first_result[self.id] = time.perf_counter()
        return original_publish(self, payload)

    broker_mod.Campaign.publish = publish

    sent: Dict[int, float] = {}
    original_dispatch = coordinator.TcpTransport.dispatch

    @functools.wraps(original_dispatch)
    def dispatch(self, index, job, *args, **kwargs):
        ok = original_dispatch(self, index, job, *args, **kwargs)
        if ok:
            sent[index] = time.perf_counter()
        return ok

    original_step = coordinator.TcpTransport.step

    @functools.wraps(original_step)
    def step(self):
        finished, requeued = original_step(self)
        now = time.perf_counter()
        for index, _job, result in finished:
            begin = sent.pop(index, None)
            if begin is not None:
                recorder.sample("dist.roundtrip_overhead_ms",
                                (now - begin - result.wall_time_s) * 1e3)
        return finished, requeued

    coordinator.TcpTransport.dispatch = dispatch
    coordinator.TcpTransport.step = step


def issue_waits(recorder: Recorder) -> List[float]:
    """Admission to first published result, per campaign (seconds)."""
    return [recorder.first_result[cid] - t
            for cid, t in recorder.admitted.items()
            if cid in recorder.first_result]


# -- post-processing ---------------------------------------------------------

def load_span_files(trace_dir: Path) -> List[dict]:
    out = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        try:
            out.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            continue   # a child killed mid-write; its spans are lost
    return out


def chrome_trace(processes: List[dict], origin: float) -> Dict[str, object]:
    """Chrome trace-event JSON (complete events, microseconds)."""
    events = []
    for proc in processes:
        pid = proc["pid"]
        for name, start, end, _parent, rid, tid in proc["spans"]:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid, "tid": tid % 1_000_000,
                "args": {"rid": rid} if rid is not None else {}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def self_times(spans: List[tuple]) -> Dict[str, float]:
    """Self seconds per span name: duration minus the part that direct
    children cover (children of one thread never overlap their parent's
    other children, so their durations add)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if 0 <= parent < len(spans):
            child_time[parent] += span[END] - span[START]
    out: Dict[str, float] = {}
    for index, span in enumerate(spans):
        own = (span[END] - span[START]) - child_time[index]
        out[span[NAME]] = out.get(span[NAME], 0.0) + own
    return out


def total_time(spans: List[tuple], name: str) -> float:
    """Wall seconds inside outermost spans called ``name``."""
    total = 0.0
    for span in spans:
        if span[NAME] != name:
            continue
        parent = span[PARENT]
        nested = False
        while 0 <= parent < len(spans):
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            total += span[END] - span[START]
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(spans: List[tuple], wall_s: float,
                tolerance: float) -> Dict[str, object]:
    """Self time per layer plus the unattributed remainder of ``wall_s``.

    ``ok`` is False when the layers leave more than ``tolerance`` of the
    wall unexplained, or explain more than the wall (double counting).
    """
    layers: Dict[str, float] = {}
    for name, seconds in self_times(spans).items():
        layer = layer_of(name)
        if layer == "bench":
            continue
        layers[layer] = layers.get(layer, 0.0) + seconds
    attributed = sum(layers.values())
    remainder = wall_s - attributed
    ok = wall_s > 0 and -tolerance <= remainder / wall_s <= tolerance
    return {"layers": layers, "attributed_s": attributed,
            "unattributed_s": remainder, "wall_s": wall_s,
            "tolerance": tolerance, "ok": ok}


def format_layer_table(table: Dict[str, object]) -> str:
    wall = table["wall_s"] or 1.0
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>9}"]
    for layer, seconds in sorted(table["layers"].items(),
                                 key=lambda kv: -kv[1]):
        lines.append(f"{layer:<14}{seconds:>10.3f}{seconds / wall:>9.1%}")
    lines.append(f"{'unattributed':<14}{table['unattributed_s']:>10.3f}"
                 f"{table['unattributed_s'] / wall:>9.1%}")
    lines.append(f"{'wall':<14}{table['wall_s']:>10.3f}"
                 f"  (layers must explain it within "
                 f"{table['tolerance']:.0%}: "
                 f"{'ok' if table['ok'] else 'FAILED'})")
    return "\n".join(lines)
