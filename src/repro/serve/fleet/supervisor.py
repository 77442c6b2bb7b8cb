"""Backend process supervision: spawn, babysit, restart, drain.

The supervisor owns N backend :class:`~repro.serve.server.SimulationServer`
processes, each listening on its own Unix socket and built inside the
child (:func:`_backend_main`) from a picklable :class:`BackendSpec` —
the parent never pickles an engine or a live server.

Lifecycle guarantees:

* **restart-on-crash** — :meth:`BackendSupervisor.poll` notices a dead
  process (any nonzero exit: a chaos kill, an OOM, a bug) and respawns
  it (a chaos plan's kill fault disarmed, so one plan is one crash), but only after an exponential backoff (``backoff_base_s``
  doubling per restart, capped) and only while the per-backend
  ``restart_budget`` lasts — a crash-looping backend eventually stays
  down instead of burning the host, and the router's circuit breaker
  keeps routing around it;
* **graceful drain** — :meth:`BackendSupervisor.drain` SIGTERMs every
  child (the server's own signal handler finishes in-flight work and
  answers it before exiting), escalating to ``terminate``/``kill`` only
  on timeout; after drain no child of this process is left alive
  (``multiprocessing.active_children() == []`` — the chaos CI job's
  clean-exit assertion).

Backends are spawned (never forked): the engine's process pools and the
asyncio loop must not inherit a forked parent's state.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.runner import ExecutionEngine
from repro.serve.server import ServeConfig

#: Default cap on restarts per backend.
DEFAULT_RESTART_BUDGET = 3

#: Default base of the restart backoff (doubles per restart).
DEFAULT_BACKOFF_BASE_S = 0.2

#: Default cap on any single restart backoff.
DEFAULT_BACKOFF_MAX_S = 5.0


@dataclass(frozen=True)
class BackendSpec:
    """Picklable recipe for one backend process.

    Everything the child needs to build its engine and server; the
    ``serve`` config carries the backend's socket path, capacity knobs
    and (under chaos) its fault plan + ``backend_index``.
    """

    index: int
    serve: ServeConfig
    jobs: int = 1
    cache_dir: Optional[str] = None
    retries: int = 1
    backoff_s: float = 0.0

    @property
    def endpoint(self) -> str:
        """The backend's listener address."""
        if self.serve.socket_path:
            return f"unix:{self.serve.socket_path}"
        return f"tcp:{self.serve.host}:{self.serve.port}"


def _backend_main(spec: BackendSpec) -> None:  # pragma: no cover - child
    """Child entry point: build the engine, serve until SIGTERM."""
    import asyncio

    from repro.serve.server import run_server

    cache = ResultCache(spec.cache_dir) if spec.cache_dir else None
    engine = ExecutionEngine(jobs=spec.jobs, cache=cache,
                             retries=spec.retries, backoff_s=spec.backoff_s)
    asyncio.run(run_server(engine, spec.serve))


@dataclass
class BackendProcessState:
    """Supervisor-side bookkeeping for one backend slot."""

    spec: BackendSpec
    process: Optional[multiprocessing.process.BaseProcess] = None
    restarts: int = 0
    exits: List[int] = field(default_factory=list)
    #: Monotonic time before which a restart must not happen (backoff).
    not_before: float = 0.0
    #: True once the restart budget is exhausted and the slot is dead.
    given_up: bool = False


class BackendSupervisor:
    """Spawns and babysits the fleet's backend processes."""

    def __init__(self, specs: List[BackendSpec],
                 restart_budget: int = DEFAULT_RESTART_BUDGET,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
                 backoff_max_s: float = DEFAULT_BACKOFF_MAX_S):
        if not specs:
            raise ValueError("supervisor needs at least one backend spec")
        if restart_budget < 0:
            raise ValueError("restart_budget must be >= 0")
        self.restart_budget = restart_budget
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self._ctx = multiprocessing.get_context("spawn")
        self.backends: Dict[int, BackendProcessState] = {
            spec.index: BackendProcessState(spec) for spec in specs
        }
        #: Restart/give-up events (JSON-able, for logs and stats).
        self.events: List[Dict[str, Any]] = []

    # --------------------------------------------------------- lifecycle
    def _spawn(self, state: BackendProcessState) -> None:
        spec = state.spec
        plan = spec.serve.fault_plan
        if state.restarts and plan is not None:
            # A chaos kill is one crash: the restarted victim comes back
            # with the kill disarmed, else it would die again on its
            # next requests and the recovery would depend on timing.
            spec = replace(spec, serve=replace(
                spec.serve, fault_plan=plan.without_kill()))
        process = self._ctx.Process(
            target=_backend_main, args=(spec,),
            name=f"repro-backend-{state.spec.index}", daemon=False)
        process.start()
        state.process = process

    def start(self) -> None:
        """Spawn every backend (idempotent per slot)."""
        for state in self.backends.values():
            if state.process is None:
                self._spawn(state)

    def alive(self, index: int) -> bool:
        """Whether backend ``index`` currently has a live process."""
        process = self.backends[index].process
        return process is not None and process.is_alive()

    def poll(self) -> List[Dict[str, Any]]:
        """Reap dead backends and restart within budget/backoff.

        Non-blocking; call it periodically (the router's monitor task
        does).  Returns the events this call produced.
        """
        now = time.monotonic()
        produced: List[Dict[str, Any]] = []
        for state in self.backends.values():
            process = state.process
            if process is None or process.is_alive() or state.given_up:
                continue
            exitcode = process.exitcode
            if exitcode is None:  # still shutting down; look again later
                continue
            if not state.exits or state.not_before <= 0:
                # First observation of this death: record it and arm
                # the backoff clock.
                state.exits.append(exitcode)
                process.join()
                if state.restarts >= self.restart_budget:
                    state.given_up = True
                    event = {"event": "gave_up",
                             "backend": state.spec.index,
                             "exitcode": exitcode,
                             "restarts": state.restarts}
                    self.events.append(event)
                    produced.append(event)
                    continue
                delay = min(self.backoff_max_s,
                            self.backoff_base_s * (2 ** state.restarts))
                state.not_before = now + delay
            if state.not_before > 0 and now < state.not_before:
                continue
            state.not_before = 0.0
            state.restarts += 1
            self._spawn(state)
            event = {"event": "restarted", "backend": state.spec.index,
                     "exitcode": exitcode, "restarts": state.restarts}
            self.events.append(event)
            produced.append(event)
        return produced

    def drain(self, timeout_s: float = 10.0) -> None:
        """Gracefully stop every backend; escalate on timeout.

        SIGTERM first (the server drains in-flight work), then
        ``terminate``/``kill`` for stragglers.  On return every child
        has been joined.
        """
        for state in self.backends.values():
            process = state.process
            if process is not None and process.is_alive():
                process.terminate()  # SIGTERM: graceful server drain
        deadline = time.monotonic() + timeout_s
        for state in self.backends.values():
            process = state.process
            if process is None:
                continue
            process.join(max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - drain timed out
                process.kill()
                process.join(5.0)

    # ------------------------------------------------------------- stats
    def restarts(self, index: int) -> int:
        """Restarts consumed by backend ``index`` so far."""
        return self.backends[index].restarts

    def stats(self) -> Dict[str, Any]:
        """JSON-able supervision snapshot (router stats ``supervisor``)."""
        return {
            "restart_budget": self.restart_budget,
            "backends": {
                str(index): {
                    "alive": self.alive(index),
                    "restarts": state.restarts,
                    "exits": list(state.exits),
                    "given_up": state.given_up,
                }
                for index, state in self.backends.items()
            },
            "events": list(self.events),
        }
