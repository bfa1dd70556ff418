"""Broker tests: concurrent campaigns multiplexed onto ONE shared fabric.

The acceptance contract of the service tentpole, asserted broker-level
(the HTTP layer adds nothing verdict-relevant):

* concurrent campaigns' verdicts are bit-identical to serial one-shot
  ``run_property_campaign`` runs of the same jobs;
* a design needed by several concurrent campaigns compiles at most once
  (the shared process-global compile cache);
* each campaign's event feed is isolated — no cross-campaign leakage;
* every completed campaign yields a digest-validated ExecutionRecord;
* quota rejections happen before any allocation and consume zero fabric
  slots; a tenant over wall budget has its open campaigns cancelled.
"""

import os
import time

import pytest
from hypothesis import given, settings, strategies as st

import repro.service.broker as broker_module
from repro.api.task import execute_task
from repro.campaign import (ArtifactCache, expand_jobs,
                            run_property_campaign, verdict_contract)
from repro.formal.engine import EngineConfig
from repro.service import (CampaignBroker, CampaignSpec, QuotaError,
                           TenantQuota, TenantRegistry)

_CONFIG = EngineConfig(max_bound=8, max_frames=30)
_VARIANTS = ["fixed", "buggy"]


def _spec(tenant, cases, **overrides):
    return CampaignSpec(tenant=tenant, case_ids=cases,
                        variants=list(_VARIANTS), depth=8, frames=30,
                        **overrides)


def _settle(broker, campaigns, timeout_s=180.0):
    deadline = time.monotonic() + timeout_s
    while any(not campaign.settled for campaign in campaigns):
        assert broker.running, f"broker died: {broker._fatal}"
        assert time.monotonic() < deadline, "campaigns never settled"
        time.sleep(0.02)


class TestConcurrentCampaigns:
    def test_three_campaigns_one_fabric_match_serial_runs(self):
        """Three overlapping campaigns from two tenants — two wanting
        the same design — on one 2-worker pool."""
        from repro.api.compile import COMPILE_CACHE

        before = COMPILE_CACHE.stats()
        broker = CampaignBroker(workers=2).start()
        try:
            alice_a1 = broker.submit(_spec("alice", ["A1"]))
            bob_a1 = broker.submit(_spec("bob", ["A1"]))
            alice_a2 = broker.submit(_spec("alice", ["A2"]))
            campaigns = [alice_a1, bob_a1, alice_a2]
            _settle(broker, campaigns)
        finally:
            broker.close()
        after = COMPILE_CACHE.stats()

        assert [c.status for c in campaigns] == ["completed"] * 3

        # Verdict equivalence: each service campaign is bit-identical
        # (under the verdict contract) to a one-shot serial run.
        for campaign, case_id in ((alice_a1, "A1"), (bob_a1, "A1"),
                                  (alice_a2, "A2")):
            serial = run_property_campaign(
                expand_jobs(case_ids=[case_id], config=_CONFIG), workers=2)
            assert verdict_contract(campaign.results) == \
                verdict_contract(serial), f"{campaign.id} diverged"

        # One compile per design ACROSS campaigns: the three campaigns
        # expanded 2*|A1| + |A2| designs, but the process-global compile
        # cache ran the frontend at most once per distinct design — the
        # duplicate A1 expansions were cache hits.
        distinct = len(alice_a1.jobs) + len(alice_a2.jobs)
        assert after["compiles"] - before["compiles"] <= distinct
        assert after["hits"] - before["hits"] >= len(bob_a1.jobs)

        # Event isolation: a campaign's feed never names another
        # campaign's designs, and its result set is complete.
        a1_designs = {event.get("design") for event in alice_a1.feed}
        a2_designs = {event.get("design")
                      for event in alice_a2.feed if event.get("design")}
        assert not (a1_designs & a2_designs)
        assert len(alice_a1.events) == len(bob_a1.events)
        assert {e.task_id for e in alice_a1.events} == \
            {e.task_id for e in bob_a1.events}

        # Every completed campaign carries a validated ExecutionRecord
        # stamped with its identity (validate_record already ran in the
        # broker; a None here would mean it failed).
        for campaign in campaigns:
            assert campaign.record_dict is not None
            assert campaign.record_dict["config"]["campaign"] == campaign.id
            assert campaign.record_dict["config"]["tenant"] == \
                campaign.tenant
            assert campaign.report_dict["campaign"] == campaign.id
            assert "phases" in campaign.report_dict
            assert "wall_spent_s" in campaign.report_dict["tenant_usage"]

    def test_cancellation_settles_without_report(self):
        broker = CampaignBroker(workers=2).start()
        try:
            campaign = broker.submit(_spec("alice", ["A1"]))
            broker.cancel(campaign.id, reason="client hung up")
            _settle(broker, [campaign])
        finally:
            broker.close()
        assert campaign.status == "cancelled"
        assert campaign.cancel_reason == "client hung up"
        assert campaign.report_dict is None
        terminal = campaign.feed[-1]
        assert terminal["kind"] == "campaign_done"
        assert terminal["status"] == "cancelled"


class TestQuotaEnforcement:
    def test_over_quota_rejection_consumes_nothing(self):
        registry = TenantRegistry(
            overrides={"carol": TenantQuota(max_open_campaigns=1)})
        broker = CampaignBroker(workers=2, tenants=registry).start()
        try:
            first = broker.submit(_spec("carol", ["A1"]))
            with pytest.raises(QuotaError) as info:
                broker.submit(_spec("carol", ["A2"]))
            assert info.value.code == "too_many_campaigns"
            assert info.value.http_status == 429
            # The rejection allocated nothing: one campaign exists, the
            # rejected one was counted, and the fabric only ever saw the
            # admitted campaign's tasks.
            assert len(broker.list_campaigns()) == 1
            assert registry.usage("carol").campaigns_rejected == 1
            _settle(broker, [first])
            assert first.status == "completed"
            assert registry.usage("carol").tasks_total == \
                len(first.events)
        finally:
            broker.close()

    def test_wall_budget_exhaustion_cancels_and_blocks(self):
        registry = TenantRegistry(
            overrides={"dave": TenantQuota(wall_budget_s=1e-6)})
        broker = CampaignBroker(workers=2, tenants=registry).start()
        try:
            campaign = broker.submit(_spec("dave", ["A1"]))
            _settle(broker, [campaign])
            assert campaign.status == "cancelled"
            assert campaign.cancel_reason == "wall budget exhausted"
            # Follow-up submissions are refused at admission.
            with pytest.raises(QuotaError) as info:
                broker.submit(_spec("dave", ["A1"]))
            assert info.value.code == "wall_budget_exhausted"
            assert info.value.http_status == 403
        finally:
            broker.close()

    def test_closed_broker_refuses_admission(self):
        broker = CampaignBroker(workers=1).start()
        broker.close()
        with pytest.raises(QuotaError) as info:
            broker.submit(_spec("alice", ["A1"]))
        assert info.value.code == "service_shutting_down"
        assert info.value.http_status == 503


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=80),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=12), inner, max_size=4),
    max_leaves=12)
#: Submission bodies: any JSON, or objects over the real field names.
_BODIES = st.one_of(_JSON, st.fixed_dictionaries({}, optional={
    name: _JSON for name in ("tenant", "cases", "variants", "depth",
                             "frames", "group_size", "schedule",
                             "memory_limit_mb")}))


class TestSubmissionParsing:
    @settings(max_examples=200, deadline=None)
    @given(_BODIES)
    def test_arbitrary_json_raises_only_value_error(self, body):
        try:
            CampaignSpec.from_json(body)
        except ValueError:
            pass

    @pytest.mark.parametrize("tenant", [
        "anonymous", "alice", "t", "warm-up", "team-0", "team-11",
        "new-3-7", "a.b_c-d", "x" * 64])
    def test_tenant_names_in_use_are_accepted(self, tenant):
        spec = CampaignSpec.from_json({"tenant": tenant, "cases": ["A1"]})
        assert spec.tenant == tenant

    @pytest.mark.parametrize("tenant", [
        "", " alice", "alice ", "-lead", ".hidden", "a b", "a/b",
        "t\n", "caf\u00e9", "x" * 65, 7, None])
    def test_other_tenant_names_are_rejected(self, tenant):
        with pytest.raises(ValueError, match="tenant"):
            CampaignSpec.from_json({"tenant": tenant, "cases": ["A1"]})


# -- wake: admission, cancellation and drain reach a waiting broker -------
#: Read end of the pipe the blocking runner waits on (inherited by fork).
_RELEASE_FD = None


def _blocking_execute(task):
    """Hold a worker slot on A2 until the test writes to the pipe."""
    if task.design.startswith("A2"):
        os.read(_RELEASE_FD, 1)
    return execute_task(task)


class TestWake:
    """The broker thread's one wait ends on submit/cancel/drain.

    The idle bound is patched to 30 s (the fleet's heartbeat too), so a
    broker that is not woken can only pass by waiting that out."""

    @pytest.fixture(autouse=True)
    def _long_idle_wait(self, monkeypatch):
        from repro.campaign import scheduler
        from repro.dist import coordinator

        monkeypatch.setattr(scheduler, "_IDLE_WAIT_S", 30.0)
        monkeypatch.setattr(coordinator, "_IDLE_WAIT_S", 30.0)

    def test_cached_campaign_settles_while_a_slot_is_busy(
            self, monkeypatch, tmp_path):
        global _RELEASE_FD
        monkeypatch.setattr(broker_module, "execute_task",
                            _blocking_execute)
        release_r, release_w = os.pipe()
        _RELEASE_FD = release_r
        broker = CampaignBroker(
            workers=2, cache=ArtifactCache(tmp_path / "cache")).start()
        try:
            warm = broker.submit(_spec("alice", ["E10"]))
            _settle(broker, [warm], timeout_s=60.0)
            blocker = broker.submit(CampaignSpec(
                "bob", ["A2"], ["fixed"], group_size=10_000))
            deadline = time.monotonic() + 30.0
            while broker.transport.in_flight() < 1:
                assert time.monotonic() < deadline, "blocker never ran"
                time.sleep(0.01)
            time.sleep(0.5)      # let the broker thread reach its wait
            begin = time.monotonic()
            cached = broker.submit(_spec("alice", ["E10"]))
            _settle(broker, [cached], timeout_s=10.0)
            elapsed = time.monotonic() - begin
            assert not blocker.settled
            assert cached.status == "completed"
            assert cached.events and all(
                event.from_cache for event in cached.events
                if event.is_result)
            assert elapsed < 5.0, elapsed
        finally:
            os.write(release_w, b"x")
            broker.close()
            os.close(release_r)
            os.close(release_w)
            _RELEASE_FD = None
        assert blocker.status == "completed"

    def test_close_on_idle_tcp_broker_returns_promptly(self):
        from repro.dist import TcpTransport

        transport = TcpTransport(heartbeat_s=30.0, liveness_timeout_s=120.0,
                                 worker_timeout_s=60.0)
        transport.spawn_local(1)
        transport.wait_for_workers(1)
        broker = CampaignBroker(transport=transport).start()
        time.sleep(0.3)          # let the broker thread reach its wait
        begin = time.monotonic()
        broker.close(timeout_s=30.0)
        elapsed = time.monotonic() - begin
        assert not broker.running
        assert elapsed < 5.0, elapsed
