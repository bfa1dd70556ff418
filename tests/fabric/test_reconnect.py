"""Worker reconnect: backoff shape, session resume, no double-counting.

``autosva worker --reconnect`` turns connection loss from a death into a
pause: the agent dials back with capped exponential backoff + jitter and
presents the same session id, and the coordinator folds its previous
life's stats into the new connection instead of keeping a corpse in the
departed list.  Deliberate endings (shutdown, drain, refusal) still exit.
"""

import random
import time

from repro.dist import TcpTransport
from repro.dist.worker import _backoff_delay


class TestBackoffShape:
    def test_ceiling_doubles_then_caps(self):

        class _Top:
            def random(self):
                return 1.0  # jitter at the top of the window

        delays = [_backoff_delay(attempt, cap=8.0, rng=_Top())
                  for attempt in range(1, 8)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_spans_upper_half_of_ceiling(self):
        rng = random.Random(42)
        for attempt in (1, 3, 6):
            ceiling = min(30.0, 0.5 * 2 ** (attempt - 1))
            for _ in range(100):
                delay = _backoff_delay(attempt, 30.0, rng)
                assert ceiling / 2 <= delay <= ceiling

    def test_seeded_rng_is_deterministic(self):
        first = [_backoff_delay(a, 30.0, random.Random("s"))
                 for a in range(1, 5)]
        second = [_backoff_delay(a, 30.0, random.Random("s"))
                  for a in range(1, 5)]
        assert first == second


class TestSessionResume:
    def test_killed_connection_resumes_as_same_agent(self):
        """Kill a --reconnect agent's connection coordinator-side; the
        agent dials back and the fleet report shows ONE agent with a
        reconnect count — not one live worker plus one corpse."""
        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0,
                                 heartbeat_s=0.5)
        try:
            transport.spawn_local(1, reconnect=True)
            transport.wait_for_workers(1, timeout_s=30.0)
            (worker,) = transport._workers
            session = worker.session
            assert session, "worker sent no session id"
            worker_id = worker.worker_id

            transport._kill(worker, "injected connection loss")
            assert not transport._ready_workers()

            # First-attempt backoff is ~0.25-0.5s; allow plenty.
            transport.wait_for_workers(1, timeout_s=30.0)
            (back,) = transport._workers
            assert back.session == session
            assert back.worker_id == worker_id  # same process, same pid
            assert back.reconnects >= 1
            # The previous life merged away: no corpse in the stats.
            assert not any(d.session == session
                           for d in transport._departed)
            stats = transport.worker_stats()
            assert len(stats) == 1
            assert stats[0]["reconnects"] >= 1
        finally:
            transport.close()

    def test_zombie_connection_superseded_by_reconnect(self):
        """A half-open TCP zombie: the old socket looks live to the
        coordinator when the same session dials back.  The new hello
        must supersede the zombie — one worker, reconnects counted,
        no double-counted death."""
        import socket

        from repro.dist.protocol import PROTOCOL_VERSION, encode_frame

        def hello(session, resume):
            sock = socket.create_connection(transport.address,
                                            timeout=10.0)
            sock.sendall(encode_frame({
                "type": "hello", "version": PROTOCOL_VERSION,
                "slots": 1, "host": "fake", "pid": 4242, "label": None,
                "units": [], "session": session, "resume": resume,
            }))
            return sock

        transport = TcpTransport(min_workers=1, worker_timeout_s=60.0,
                                 heartbeat_s=30.0,  # no timeout rescue
                                 liveness_timeout_s=120.0)
        try:
            first = hello("zombie-session", resume=False)
            deadline = time.monotonic() + 10.0
            while not transport._ready_workers():
                assert time.monotonic() < deadline
                transport.step()
            (old,) = transport._workers
            assert old.session == "zombie-session"

            # The agent "reconnects" while the first socket is still
            # open coordinator-side — the genuine half-open shape.
            second = hello("zombie-session", resume=True)
            deadline = time.monotonic() + 10.0
            while True:
                assert time.monotonic() < deadline, \
                    "hello never superseded the zombie"
                transport.step()
                workers = transport._workers
                if len(workers) == 1 and workers[0] is not old \
                        and workers[0].ready:
                    break
            (back,) = transport._workers
            assert back.session == "zombie-session"
            assert back.reconnects == 1
            assert "superseded" in (old.departed or "")
            # The zombie's corpse merged into the new life: the departed
            # list holds no entry for this session.
            assert not any(d.session == "zombie-session"
                           for d in transport._departed)
            assert len(transport.worker_stats()) == 1
            first.close()
            second.close()
        finally:
            transport.close()
