"""Supervisor restart/backoff/budget logic against fake processes.

Real spawns are slow and non-deterministic, so these tests monkeypatch
``BackendSupervisor._spawn`` to install in-memory fakes and replace the
module's ``time`` with a controllable clock; the real-process lifecycle
(spawn, SIGKILL, restart, drain) is covered end-to-end by
``tests/serve/fleet/test_router_e2e.py`` and the chaos suite.
"""

import json
import types

import pytest

from repro.serve.fleet.supervisor import BackendSpec, BackendSupervisor
from repro.serve.server import ServeConfig


class FakeProcess:
    def __init__(self):
        self._alive = True
        self.exitcode = None
        self.terminated = False
        self.killed = False

    def is_alive(self):
        return self._alive

    def join(self, timeout=None):
        return None

    def terminate(self):
        self.terminated = True
        self._alive = False
        self.exitcode = 0

    def kill(self):
        self.killed = True
        self._alive = False
        self.exitcode = -9

    def die(self, exitcode=-9):
        """Simulate a crash (e.g. the chaos harness's SIGKILL)."""
        self._alive = False
        self.exitcode = exitcode


class FakeTime:
    def __init__(self):
        self.now = 1000.0

    def monotonic(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def specs(n):
    return [BackendSpec(index=i,
                        serve=ServeConfig(socket_path=f"/tmp/b{i}.sock"))
            for i in range(n)]


@pytest.fixture
def clock(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr("repro.serve.fleet.supervisor.time",
                        types.SimpleNamespace(monotonic=fake.monotonic))
    return fake


@pytest.fixture
def fake_spawn(monkeypatch):
    spawned = []

    def _spawn(self, state):
        state.process = FakeProcess()
        spawned.append(state.spec.index)

    monkeypatch.setattr(BackendSupervisor, "_spawn", _spawn)
    return spawned


class TestValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            BackendSupervisor([])

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            BackendSupervisor(specs(1), restart_budget=-1)


class TestStart:
    def test_start_spawns_every_backend_once(self, fake_spawn):
        supervisor = BackendSupervisor(specs(3))
        supervisor.start()
        assert sorted(fake_spawn) == [0, 1, 2]
        supervisor.start()  # idempotent: nothing respawned
        assert len(fake_spawn) == 3
        assert all(supervisor.alive(i) for i in range(3))


class TestRestart:
    def test_crash_restarts_after_backoff(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(2), backoff_base_s=0.2)
        supervisor.start()
        supervisor.backends[0].process.die(-9)

        # First poll observes the death and arms the backoff — it must
        # NOT respawn immediately (a crash-looping backend would spin).
        assert supervisor.poll() == []
        assert not supervisor.alive(0)
        assert supervisor.alive(1)

        clock.advance(0.1)
        assert supervisor.poll() == []  # still inside the backoff

        clock.advance(0.2)
        events = supervisor.poll()
        assert [e["event"] for e in events] == ["restarted"]
        assert events[0]["backend"] == 0
        assert events[0]["exitcode"] == -9
        assert supervisor.alive(0)
        assert supervisor.restarts(0) == 1
        assert supervisor.restarts(1) == 0

    def test_backoff_doubles_per_restart(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(1), backoff_base_s=0.2,
                                       restart_budget=5)
        supervisor.start()
        for expected_delay in (0.2, 0.4, 0.8):
            supervisor.backends[0].process.die()
            supervisor.poll()  # observe + arm backoff
            clock.advance(expected_delay - 0.05)
            assert supervisor.poll() == []
            clock.advance(0.1)
            assert [e["event"] for e in supervisor.poll()] == ["restarted"]

    def test_backoff_is_capped(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(1), backoff_base_s=1.0,
                                       backoff_max_s=2.0, restart_budget=10)
        supervisor.start()
        for _ in range(4):
            supervisor.backends[0].process.die()
            supervisor.poll()
            clock.advance(2.5)  # > backoff_max_s always suffices
            assert [e["event"] for e in supervisor.poll()] == ["restarted"]


class TestChaosKillIsOneCrash:
    def test_restart_disarms_the_kill_fault(self, monkeypatch, clock):
        """The victim of a chaos kill is respawned with the kill
        disarmed and every other fault class kept."""
        from repro.guard.faults import ServeFaultPlan

        plan = ServeFaultPlan(seed=3, kill_backend=0, kill_after_requests=2,
                              slow_request_rate=0.5)
        spec = BackendSpec(index=0, serve=ServeConfig(
            socket_path="/tmp/b0.sock", fault_plan=plan))
        launched = []

        class FakeContext:
            def Process(self, target, args, **kwargs):
                launched.append(args[0])
                process = FakeProcess()
                process.start = lambda: None
                return process

        supervisor = BackendSupervisor([spec], backoff_base_s=0.1)
        monkeypatch.setattr(supervisor, "_ctx", FakeContext())
        supervisor.start()
        supervisor.backends[0].process.die(44)
        supervisor.poll()
        clock.advance(1.0)
        supervisor.poll()
        assert supervisor.restarts(0) == 1
        first, restarted = (s.serve.fault_plan for s in launched)
        assert first == plan
        assert restarted == plan.without_kill()
        assert restarted.slow_request_rate == 0.5
        assert supervisor.backends[0].spec is spec


class TestBudget:
    def test_budget_exhaustion_gives_up(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(1), restart_budget=2,
                                       backoff_base_s=0.1)
        supervisor.start()
        for _ in range(2):
            supervisor.backends[0].process.die()
            supervisor.poll()
            clock.advance(5.0)
            supervisor.poll()
        assert supervisor.restarts(0) == 2

        supervisor.backends[0].process.die(-6)
        events = supervisor.poll()
        assert [e["event"] for e in events] == ["gave_up"]
        assert events[0]["exitcode"] == -6
        assert supervisor.backends[0].given_up
        assert not supervisor.alive(0)

        # A given-up slot stays down: no events however long we wait.
        clock.advance(60.0)
        assert supervisor.poll() == []
        assert not supervisor.alive(0)

    def test_zero_budget_never_restarts(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(1), restart_budget=0)
        supervisor.start()
        supervisor.backends[0].process.die()
        assert [e["event"] for e in supervisor.poll()] == ["gave_up"]


class TestDrain:
    def test_drain_terminates_every_live_backend(self, fake_spawn):
        supervisor = BackendSupervisor(specs(3))
        supervisor.start()
        supervisor.backends[2].process.die()  # already dead: skip TERM
        supervisor.drain(timeout_s=0.5)
        assert supervisor.backends[0].process.terminated
        assert supervisor.backends[1].process.terminated
        assert not supervisor.backends[2].process.terminated
        assert not any(supervisor.alive(i) for i in range(3))


class TestStats:
    def test_stats_snapshot_is_json_able(self, fake_spawn, clock):
        supervisor = BackendSupervisor(specs(2), restart_budget=3)
        supervisor.start()
        supervisor.backends[1].process.die(-9)
        supervisor.poll()
        clock.advance(5.0)
        supervisor.poll()
        stats = supervisor.stats()
        assert json.loads(json.dumps(stats)) == stats
        assert stats["restart_budget"] == 3
        assert stats["backends"]["0"] == {
            "alive": True, "restarts": 0, "exits": [], "given_up": False}
        assert stats["backends"]["1"]["restarts"] == 1
        assert stats["backends"]["1"]["exits"] == [-9]
        assert [e["event"] for e in stats["events"]] == ["restarted"]

    def test_spec_endpoint_rendering(self):
        unix = BackendSpec(index=0,
                           serve=ServeConfig(socket_path="/tmp/b.sock"))
        tcp = BackendSpec(index=1,
                          serve=ServeConfig(host="127.0.0.1", port=901))
        assert unix.endpoint == "unix:/tmp/b.sock"
        assert tcp.endpoint == "tcp:127.0.0.1:901"
