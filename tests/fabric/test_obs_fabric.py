"""Observability over the TCP fabric: piggybacked obs + heartbeat RTT.

Worker agents ship their span buffers and metric snapshots as an
optional ``obs`` field on result frames; the coordinator folds them into
the scheduler-side TRACER/METRICS view and tracks heartbeat round-trip
latency per agent.  Old agents that never send ``obs`` stay compatible —
the field is optional on the wire.
"""

import os
import time

import pytest

from repro.campaign import expand_jobs, run_property_campaign
from repro.dist import TcpTransport
from repro.formal.engine import EngineConfig
from repro.obs import METRICS, TRACER

CONFIG = EngineConfig(max_bound=6, max_frames=25)


@pytest.fixture()
def clean_obs():
    TRACER.reset()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()


@pytest.fixture(scope="module")
def a2_jobs():
    return expand_jobs(case_ids=["A2"], config=CONFIG)


def _tcp_transport(workers, **kwargs):
    transport = TcpTransport(min_workers=workers, worker_timeout_s=60.0,
                             **kwargs)
    transport.spawn_local(workers)
    return transport


class TestRemoteObs:
    def test_remote_spans_and_metrics_fold_into_coordinator(self,
                                                            clean_obs,
                                                            a2_jobs):
        # Enable before the transport exists: the hello ack advertises
        # tracing to agents as they join.
        TRACER.enable()
        transport = _tcp_transport(2)
        try:
            results = run_property_campaign(a2_jobs, transport=transport)
        finally:
            transport.close()
        assert all(r.status == "ok" for r in results)
        spans = TRACER.drain()
        remote = [s for s in spans if s["pid"] != os.getpid()]
        # Agent processes shipped their task/compile/check spans home.
        assert {s["name"] for s in remote} >= {"task", "check"}
        # ...and their metric snapshots merged into the one registry.
        counters = METRICS.snapshot()["counters"]
        assert counters.get("task.executed", 0) > 0
        assert counters.get("solver.solve_calls", 0) > 0

    def test_untraced_fabric_ships_no_spans(self, clean_obs, a2_jobs):
        transport = _tcp_transport(1)
        try:
            results = run_property_campaign(a2_jobs, transport=transport)
        finally:
            transport.close()
        assert all(r.status == "ok" for r in results)
        assert TRACER.drain() == []
        # Metrics still flow (always-on, piggybacked the same way).
        assert METRICS.snapshot()["counters"]["task.executed"] > 0


class TestHeartbeatRtt:
    def test_worker_stats_report_rtt(self, clean_obs, a2_jobs):
        transport = _tcp_transport(1, heartbeat_s=0.2)
        try:
            transport.wait_for_workers(1, timeout_s=30.0)
            deadline = time.monotonic() + 30.0
            live = []
            while time.monotonic() < deadline:
                transport.step()    # the transport pumps I/O in step()
                live = [s for s in transport.worker_stats()
                        if s.get("slots")]
                if live and all(s.get("heartbeat_rtt_ms") for s in live):
                    break
            assert live
            for entry in live:
                rtt = entry["heartbeat_rtt_ms"]
                assert rtt is not None, "no heartbeat RTT sampled"
                assert rtt["samples"] >= 1
                assert 0.0 <= rtt["min"] <= rtt["mean"] <= rtt["max"]
            # The registry histogram saw the same pings.
            hist = METRICS.snapshot()["histograms"].get(
                "fabric.heartbeat_rtt_s")
            assert hist is not None and hist["count"] >= 1
        finally:
            transport.close()

    def test_rtt_absent_before_any_echo(self):
        transport = TcpTransport(min_workers=1, heartbeat_s=3600.0,
                                 liveness_timeout_s=7200.0)
        try:
            transport.spawn_local(1)
            transport.wait_for_workers(1, timeout_s=30.0)
            stats = [s for s in transport.worker_stats()
                     if s.get("slots")]
            assert stats and stats[0]["heartbeat_rtt_ms"] is None
        finally:
            transport.close()
