"""Scheduler contract tests: determinism, isolation, bounds, caching.

The runners used to provoke failures are module-level functions so forked
workers resolve them regardless of start method.
"""

import dataclasses
import os
import time

import pytest

from repro.campaign import (ArtifactCache, CampaignJob, expand_jobs,
                            run_campaign)
from repro.formal import EngineConfig

FAST_CONFIG = EngineConfig(max_bound=6, max_frames=25)


def _fast_jobs(case_ids=("A2", "E10")):
    return expand_jobs(case_ids=list(case_ids), config=FAST_CONFIG)


def _dummy_job(job_id="dummy", dut_file="ariane/tlb.sv"):
    return CampaignJob(
        job_id=job_id, case_id="X", case_name="dummy", dut_module="tlb",
        variant="fixed", dut_file=dut_file, extra_files=(),
        engine_config=FAST_CONFIG)


def _comparable(results):
    """Everything that must be identical across worker counts."""
    out = []
    for result in results:
        payload = dict(result.payload or {})
        payload.pop("engine_time_s", None)  # timing is not part of the contract
        payload.pop("solve_time_s", None)
        payload.pop("solver", None)   # counters vary with grouping/steals
        out.append((result.job_id, result.status, result.error, payload))
    return out


# -- runners for failure-injection tests (top-level: fork/spawn safe) -----
def _sleepy_runner(job):
    time.sleep(30)
    return {"never": "reached"}


def _crashy_runner(job):
    os._exit(3)


def _greedy_runner(job):
    block = bytearray(512 * 1024 * 1024)
    return {"bytes": len(block)}


def _echo_runner(job):
    return {"job_id": job.job_id}


def _stamping_runner(job):
    started = time.monotonic()
    time.sleep(0.05)
    return {"job_id": job.job_id, "started": started}


class TestDeterminism:
    def test_results_identical_across_worker_counts(self):
        jobs = _fast_jobs()
        serial = run_campaign(jobs, workers=1)
        parallel = run_campaign(jobs, workers=4)
        assert [r.job_id for r in serial] == [j.job_id for j in jobs]
        assert _comparable(serial) == _comparable(parallel)

    def test_order_is_job_order_not_completion_order(self):
        # A slow job first, fast ones after: completion order inverts, the
        # result list must not.
        jobs = _fast_jobs(("O1",)) + _fast_jobs(("A2",))
        results = run_campaign(jobs, workers=4)
        assert [r.job_id for r in results] == [j.job_id for j in jobs]


class TestFailureIsolation:
    def test_raising_job_yields_error_result(self):
        jobs = [_dummy_job("good"),
                _dummy_job("bad", dut_file="ariane/does_not_exist.sv"),
                _dummy_job("good2")]
        results = run_campaign(jobs, workers=2)
        assert [r.job_id for r in results] == ["good", "bad", "good2"]
        assert results[0].ok and results[2].ok
        assert results[1].status == "error"
        assert "does_not_exist" in results[1].error

    def test_timeout_yields_per_job_timeout(self):
        jobs = [_dummy_job("slow1"), _dummy_job("slow2")]
        begin = time.monotonic()
        results = run_campaign(jobs, workers=2, timeout_s=0.5,
                               runner=_sleepy_runner)
        assert time.monotonic() - begin < 10
        assert all(r.status == "timeout" for r in results)
        assert "wall-clock" in results[0].error

    def test_worker_crash_is_isolated(self):
        jobs = [_dummy_job("boom"), _dummy_job("fine")]
        results = run_campaign(jobs, workers=2,
                               runner=_crashy_runner)
        assert results[0].status == "error"
        assert "exit code" in results[0].error

    def test_memory_limit_enforced(self):
        jobs = [_dummy_job("hog")]
        results = run_campaign(jobs, workers=1, memory_limit_mb=128,
                               runner=_greedy_runner)
        assert results[0].status == "error"

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            run_campaign([_dummy_job()], workers=0)


class TestCache:
    def test_second_run_served_from_cache(self, tmp_path):
        jobs = _fast_jobs(("A2",))
        cache = ArtifactCache(tmp_path)
        first = run_campaign(jobs, workers=1, cache=cache)
        assert not any(r.from_cache for r in first)
        begin = time.monotonic()
        second = run_campaign(jobs, workers=1, cache=cache)
        assert all(r.from_cache for r in second)
        assert time.monotonic() - begin < 1.0
        assert _comparable(first) == _comparable(second)

    def test_config_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        job = _fast_jobs(("A2",))[0]
        other = dataclasses.replace(
            job, engine_config=EngineConfig(max_bound=4, max_frames=20))
        assert cache.key(job) != cache.key(other)

    def test_source_change_invalidates(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        tlb = _dummy_job("tlb")
        ptw = _dummy_job("ptw", dut_file="ariane/ptw.sv")
        assert cache.key(tlb) != cache.key(ptw)

    def test_failed_jobs_are_not_cached(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        jobs = [_dummy_job("bad", dut_file="ariane/does_not_exist.sv")]
        run_campaign(jobs, workers=1, cache=cache)
        assert cache.stats()["entries"] == 0

    def test_progress_callback_sees_every_job(self, tmp_path):
        jobs = [_dummy_job("a"), _dummy_job("b")]
        seen = []
        run_campaign(jobs, workers=2, runner=_echo_runner,
                     progress=lambda r: seen.append(r.job_id))
        assert sorted(seen) == ["a", "b"]


class TestStreamingSource:
    def test_queued_jobs_run_during_a_blocking_source_pull(self):
        """Regression: already-pulled jobs must be launched *before* the
        scheduler goes back to the source (a pull can block on the next
        design's frontend compile).  The workers' own start timestamps
        prove the jobs ran during the source's block, not after it."""
        from repro.campaign.scheduler import Scheduler

        def source():
            yield _dummy_job("a0")
            yield _dummy_job("a1")
            time.sleep(0.6)          # the next design's "compile"
            yield _dummy_job("b0")

        begin = time.monotonic()
        results = {}
        scheduler = Scheduler(source(), workers=4,
                              runner=_stamping_runner)
        for event in scheduler.run():
            if event[0] == "done":
                results[event[3].job_id] = event[3].payload
        assert set(results) == {"a0", "a1", "b0"}
        for job_id in ("a0", "a1"):
            launched_after = results[job_id]["started"] - begin
            assert launched_after < 0.3, (job_id, launched_after)
        assert results["b0"]["started"] - begin >= 0.6


class TestDeadlineLatency:
    """Per-job deadlines must fire promptly, not a poll period late.

    The scheduler blocks in ``connection.wait`` with a timeout bounded by
    the earliest running deadline, so timeout enforcement latency is
    bounded by wakeup cost, not by a fixed polling interval.
    """

    def test_wait_timeout_is_bounded_by_nearest_deadline(self):
        import time as time_mod

        from repro.campaign.scheduler import (_IDLE_WAIT_S, Scheduler,
                                              _Running)

        scheduler = Scheduler([], workers=2, timeout_s=30.0)
        now = time_mod.monotonic()

        def slot(deadline):
            return _Running(index=0, job=None, process=None, conn=None,
                            started=now, deadline=deadline)

        # No deadlines: bounded bookkeeping wait, not an unbounded block.
        scheduler._running = [slot(None)]
        assert scheduler._wait_timeout() == _IDLE_WAIT_S
        # The wait never sleeps past the earliest deadline...
        scheduler._running = [slot(now + 10.0), slot(now + 0.2), slot(None)]
        assert scheduler._wait_timeout() <= 0.2
        assert scheduler._wait_timeout() >= 0.0
        # ...and an already-expired deadline means an immediate pass.
        scheduler._running = [slot(now - 1.0)]
        assert scheduler._wait_timeout() == 0.0

    def test_timeout_fires_promptly(self):
        """Regression: a 0.4s deadline on a 30s job must be enforced
        within a small margin of expiry (generous for loaded CI hosts;
        the old fixed-interval poll behaved like a lower bound too —
        this pins the contract down)."""
        jobs = [_dummy_job("slow")]
        results = run_campaign(jobs, workers=1, timeout_s=0.4,
                               runner=_sleepy_runner)
        assert results[0].status == "timeout"
        # wall_time_s is measured from worker start to termination, so it
        # directly exposes enforcement latency past the 0.4s deadline.
        assert results[0].wall_time_s >= 0.4
        assert results[0].wall_time_s < 0.4 + 0.3, results[0].wall_time_s


class TestWake:
    """``Scheduler.wake()`` ends the run loop's one wait at once.

    The idle bound is patched to 30 s (the fleet's heartbeat too), so a
    late job could only be seen in time by being woken — a loop that
    instead waited out its bound, or spun on the dry source, fails."""

    @pytest.fixture(autouse=True)
    def _long_idle_wait(self, monkeypatch):
        from repro.campaign import scheduler
        from repro.dist import coordinator

        monkeypatch.setattr(scheduler, "_IDLE_WAIT_S", 30.0)
        monkeypatch.setattr(coordinator, "_IDLE_WAIT_S", 30.0)

    @staticmethod
    def _run_late_job(transport):
        """Run a source that is dry until a thread adds one job and
        wakes the scheduler; returns (done events, probes, seconds)."""
        import threading

        from repro.campaign.scheduler import Scheduler

        job = expand_jobs(case_ids=["E10"], variants=("fixed",),
                          config=FAST_CONFIG)[0]
        available = threading.Event()
        probes = []

        def source():
            while not available.is_set():
                probes.append(time.monotonic())
                yield None
            yield job

        scheduler = Scheduler(source(), runner=_echo_runner,
                              transport=transport)

        def submit_late():
            time.sleep(0.3)
            available.set()
            scheduler.wake()

        threading.Thread(target=submit_late, daemon=True).start()
        begin = time.monotonic()
        done = [event for event in scheduler.run() if event[0] == "done"]
        return done, probes, time.monotonic() - begin

    def test_local_pool_wakes_on_new_work(self):
        from repro.campaign.scheduler import LocalTransport

        done, probes, elapsed = self._run_late_job(LocalTransport(1))
        assert [event[3].job_id for event in done] == ["E10.fixed"]
        assert done[0][3].ok
        assert elapsed < 5.0, elapsed
        # One probe before the wait, at most one spurious one: an idle
        # local pool blocks on the wake channel instead of spinning.
        assert len(probes) <= 2, len(probes)

    def test_tcp_fleet_wakes_on_new_work(self):
        from repro.dist import TcpTransport

        transport = TcpTransport(heartbeat_s=30.0, liveness_timeout_s=120.0,
                                 worker_timeout_s=60.0)
        transport.spawn_local(1)
        transport.wait_for_workers(1)
        done, probes, elapsed = self._run_late_job(transport)
        assert [event[3].job_id for event in done] == ["E10.fixed"]
        assert done[0][3].ok, done[0][3].error
        assert elapsed < 5.0, elapsed
        assert len(probes) <= 2, len(probes)
