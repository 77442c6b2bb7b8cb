"""Per-layer call counts and self time, recorded from outside the program.

:class:`Tracer` replaces the public methods of each simulator layer with
wrappers for the duration of a ``with`` block.  A wrapper counts the call
and charges the layer its *self time*: wall time inside the call minus the
wall time of wrapped calls nested in it.  Classes are patched, not
instances, so every object built inside the block is traced and nothing
in ``src/`` changes.

Only the traced run uses this; end-to-end metrics come from untraced runs.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Wraps methods; accumulates ``calls`` and ``self_s`` per layer name."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        # One entry per active wrapped call: [name, child wall seconds].
        self._stack: List[list] = []
        self._patched: List[Tuple[type, str, object]] = []

    def wrap(self, cls: type, attr: str, name: str,
             name_of: Optional[Callable[[object], str]] = None) -> None:
        """Trace ``cls.attr`` (defined on ``cls`` itself) as ``name``.

        ``name_of(self_arg)`` picks the layer name per call instead, to
        tell instances of one class apart (L1 vs L2 caches).  A call
        nested directly in a call of the same name (a subclass calling
        ``super()``) is folded into the outer one, so ``calls`` counts
        each invocation once.
        """
        original = cls.__dict__[attr]
        stack, calls, self_s = self._stack, self.calls, self.self_s
        perf = time.perf_counter
        if name_of is None:
            calls.setdefault(name, 0)
            self_s.setdefault(name, 0.0)

        def traced(*args, **kwargs):
            label = name if name_of is None else name_of(args[0])
            if stack and stack[-1][0] == label:
                return original(*args, **kwargs)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return original(*args, **kwargs)
            finally:
                wall = perf() - t0
                stack.pop()
                calls[label] = calls.get(label, 0) + 1
                self_s[label] = self_s.get(label, 0.0) + wall - frame[1]
                if stack:
                    stack[-1][1] += wall

        traced.__wrapped__ = original
        self._patched.append((cls, attr, original))
        setattr(cls, attr, traced)

    def wrap_all(self, base: type, attr: str, name: str) -> None:
        """Trace ``attr`` on ``base`` and on every subclass defining it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)
            todo.extend(cls.__subclasses__())

    def restore(self) -> None:
        """Put every original method back (reverse patch order)."""
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def total_self_s(self) -> float:
        """Sum of self time over every traced layer."""
        return sum(self.self_s.values())


def cache_level(cache) -> str:
    """``l1`` for an SM's L1D (named ``l1d.<sm>``), else ``l2``."""
    return "l1" if cache.name.startswith("l1") else "l2"


def install_sim_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every simulator layer.

    The names are the per-layer metric prefixes listed in
    ``BENCHMARK.json``: ``sim.*`` (main loop, SM, scheduler, instruction
    stream), ``prefetch.*``, ``mem.*`` (caches, MSHRs, interconnect,
    memory subsystem, DRAM) and ``guard.*``.
    """
    # Import every prefetcher module so wrap_all sees each subclass.
    import repro.core.caps  # noqa: F401
    import repro.prefetch.factory  # noqa: F401
    from repro.guard.invariants import InvariantChecker
    from repro.mem.cache import Cache, Mshr
    from repro.mem.dram import DramChannel
    from repro.mem.icnt import Pipe
    from repro.mem.subsystem import MemorySubsystem
    from repro.prefetch.base import Prefetcher
    from repro.sim.gpu import GPU
    from repro.sim.isa import WarpCursor
    from repro.sim.sched import Scheduler
    from repro.sim.sm import SM

    tracer.wrap(GPU, "run", "sim.gpu.run")
    tracer.wrap(SM, "cycle", "sim.sm.cycle")
    tracer.wrap(SM, "on_mem_response", "sim.sm.on_mem_response")
    tracer.wrap_all(Scheduler, "pick", "sim.sched.pick")
    for attr in ("next_instr", "peek", "consume_alu"):
        tracer.wrap(WarpCursor, attr, "sim.isa.next_instr")
    tracer.wrap_all(Prefetcher, "on_load_issue", "prefetch.on_load_issue")
    tracer.wrap_all(Prefetcher, "on_l1_miss", "prefetch.on_l1_miss")
    for attr in ("lookup", "fill"):
        for level in ("l1", "l2"):
            tracer.calls.setdefault(f"mem.cache.{level}.{attr}", 0)
            tracer.self_s.setdefault(f"mem.cache.{level}.{attr}", 0.0)
        tracer.wrap(Cache, attr, "", name_of=lambda c, a=attr:
                    f"mem.cache.{cache_level(c)}.{a}")
    tracer.wrap(Mshr, "allocate", "mem.mshr.allocate")
    tracer.wrap(Mshr, "merge", "mem.mshr.merge")
    tracer.wrap(Pipe, "push", "mem.icnt.push")
    tracer.wrap(MemorySubsystem, "cycle", "mem.subsystem.cycle")
    tracer.wrap(MemorySubsystem, "cycle_event", "mem.subsystem.cycle")
    tracer.wrap(DramChannel, "cycle", "mem.dram.cycle")
    tracer.wrap(InvariantChecker, "verify_end", "guard.verify_end")
