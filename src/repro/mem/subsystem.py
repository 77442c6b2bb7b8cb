"""Wiring of the shared memory system: icnt -> L2 partitions -> DRAM.

The per-SM L1D caches live inside the SMs (see :mod:`repro.sim.sm`); this
module owns everything behind them.  Requests are line-granular.  Each L2
partition serves one lookup per cycle from a bounded input queue; misses
allocate a partition-level MSHR and occupy a slot in the backing DRAM
channel's bounded FR-FCFS queue.  Stores are write-through/no-allocate
traffic.  Responses return through a bandwidth-limited pipe and are
dispatched to the owning SM via a callback.

Every queue is finite except the return path, whose drain is
bandwidth-limited; backpressure therefore propagates from DRAM up to the
SMs, reproducing the bursty-miss congestion of the paper's Section I.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List

from repro.config import GPUConfig
from repro.mem.cache import Cache, Mshr
from repro.mem.dram import DramChannel
from repro.mem.icnt import Pipe
from repro.mem.request import Access, MemoryRequest


class _L2Partition:
    """One L2 slice: input queue, tag store, MSHRs, DRAM port."""

    def __init__(self, config: GPUConfig, pid: int, channel: DramChannel):
        self.pid = pid
        self.cache = Cache(config.l2, name=f"l2.{pid}")
        self.mshr = Mshr(config.l2.mshr_entries)
        self.in_queue: Deque[MemoryRequest] = deque()
        self.in_capacity = config.icnt.queue_depth
        self.channel = channel
        self.hit_latency = config.l2.hit_latency
        self.stall_cycles = 0

    @property
    def full(self) -> bool:
        return len(self.in_queue) >= self.in_capacity

    def accept(self, req: MemoryRequest) -> bool:
        if self.full:
            return False
        self.in_queue.append(req)
        return True


class MemorySubsystem:
    """Everything behind the SMs' L1 caches."""

    def __init__(
        self,
        config: GPUConfig,
        num_sms: int,
        on_response: Callable[[MemoryRequest], None],
        faults=None,
    ):
        self.config = config
        self.num_sms = num_sms
        self.on_response = on_response
        #: Optional :class:`repro.guard.faults.MemoryFaultInjector`
        #: consulted on the response path (chaos testing).
        self.faults = faults
        self._line_shift = config.line_bytes.bit_length() - 1
        self.channels = [
            DramChannel(config.dram, c) for c in range(config.dram.channels)
        ]
        self.partitions = [
            _L2Partition(config, p, self.channels[p % config.dram.channels])
            for p in range(config.l2_partitions)
        ]
        self.request_pipe = Pipe(
            config.icnt.latency,
            config.icnt.requests_per_cycle,
            config.icnt.queue_depth * max(1, num_sms),
        )
        # Return path: latency + bandwidth bound but effectively unbounded
        # occupancy so DRAM completions are never blocked (no deadlock).
        self.response_pipe = Pipe(
            config.icnt.latency,
            config.icnt.requests_per_cycle,
            1 << 30,
        )
        self._l2_wait: List = []  # heap of (ready_cycle, seq, req) for L2 hits
        self._seq = 0
        self._complete_now = 0
        # stats
        self.core_requests = 0          # demand + prefetch + store entering icnt
        self.core_demand_requests = 0
        self.core_prefetch_requests = 0
        self.core_store_requests = 0
        self.responses_delivered = 0
        # Per-kernel traffic slices for concurrent-kernel runs: kernel id
        # -> [demand, prefetch, store, responses].  None (the default)
        # keeps the single-kernel hot path branch-cheap; MultiGPU
        # installs a dict at construction.
        self.per_kernel = None

    # ------------------------------------------------------------------ SM side
    def can_accept(self) -> bool:
        return self.request_pipe.can_accept()

    def submit(self, req: MemoryRequest, now: int) -> bool:
        """Called by an SM's LSU for each L1 miss / store.  Returns False
        when the network is saturated (SM must retry)."""
        if not self.request_pipe.can_accept():
            return False
        self.request_pipe.push(req, now)
        self.core_requests += 1
        if req.access is Access.DEMAND:
            self.core_demand_requests += 1
            slot = 0
        elif req.access is Access.PREFETCH:
            self.core_prefetch_requests += 1
            slot = 1
        else:
            self.core_store_requests += 1
            slot = 2
        pk = self.per_kernel
        if pk is not None:
            counts = pk.get(req.kernel_id)
            if counts is None:
                counts = pk[req.kernel_id] = [0, 0, 0, 0]
            counts[slot] += 1
        return True

    # ------------------------------------------------------------- address maps
    def partition_of(self, line_addr: int) -> _L2Partition:
        return self.partitions[
            (line_addr >> self._line_shift) % len(self.partitions)
        ]

    # ------------------------------------------------------------------- cycle
    def cycle(self, now: int) -> None:
        # 1. DRAM: completions fill L2 and release partition MSHRs.
        # (The completion callback is a prebound method — allocating a
        # closure per channel per cycle measurably slows the hot loop.)
        self._complete_now = now
        for ch in self.channels:
            ch.cycle(now, self._dram_complete_now)
        # 2. L2 hit completions that have waited out the L2 latency.
        # (Steps 2-5 skip the call when there is nothing ripe: most
        # cycles move no request, and the calls dominate the idle cost.)
        w = self._l2_wait
        if w and w[0][0] <= now:
            self._drain_l2_wait(now)
        # 3. L2 partitions process their input queues.
        for part in self.partitions:
            if part.in_queue:
                self._l2_cycle(part, now)
        # 4. Move requests from the icnt into partition input queues.
        q = self.request_pipe._q
        if q and q[0][0] <= now:
            self.request_pipe.drain(now, self._deliver_to_partition)
        # 5. Deliver ripe responses to SMs.
        q = self.response_pipe._q
        if q and q[0][0] <= now:
            self.response_pipe.drain(now, self._deliver_response)

    def _drain_l2_wait(self, now: int) -> None:
        """Move ripe entries off the L2 wait heap onto the return pipe.

        Every read response funnels through ``_l2_wait`` (both the hit
        path and the DRAM-fill path), so this is the single choke point
        where the fault injector can drop or delay responses."""
        while self._l2_wait and self._l2_wait[0][0] <= now:
            _, _, req = heapq.heappop(self._l2_wait)
            if self.faults is not None:
                fate = self.faults.on_response(req)
                if fate == "drop":
                    continue
                if fate == "delay":
                    self._seq += 1
                    heapq.heappush(
                        self._l2_wait,
                        (now + self.faults.plan.delay_cycles, self._seq, req),
                    )
                    continue
            self.response_pipe.push(req, now)

    def _deliver_to_partition(self, req: MemoryRequest) -> bool:
        return self.partition_of(req.line_addr).accept(req)

    def _deliver_response(self, req: MemoryRequest) -> bool:
        self.on_response(req)
        self.responses_delivered += 1
        pk = self.per_kernel
        if pk is not None:
            counts = pk.get(req.kernel_id)
            if counts is None:
                counts = pk[req.kernel_id] = [0, 0, 0, 0]
            counts[3] += 1
        return True

    def _dram_complete_now(self, req: MemoryRequest) -> None:
        """Completion callback bound to the cycle set in :meth:`cycle`."""
        self._dram_complete(req, self._complete_now)

    def _dram_complete(self, req: MemoryRequest, now: int) -> None:
        part = self.partition_of(req.line_addr)
        part.cache.fill(req.line_addr, cycle=now)
        # The returning line traverses the same L2 pipeline a hit does
        # (fill + forward), so misses pay the L2 latency on top of DRAM.
        for merged in part.mshr.release(req.line_addr):
            self._seq += 1
            heapq.heappush(
                self._l2_wait, (now + part.hit_latency, self._seq, merged)
            )

    def _l2_cycle(self, part: _L2Partition, now: int) -> None:
        """Serve the head of a non-empty partition input queue."""
        req = part.in_queue[0]
        if req.is_store:
            # Write-through, no-allocate: needs a write-buffer slot.
            if not part.channel.can_accept_write():
                part.stall_cycles += 1
                return
            part.in_queue.popleft()
            part.channel.push(req)
            return
        line = part.cache.lookup(req.line_addr)
        if line is not None:
            part.in_queue.popleft()
            req.l2_hit = True
            self._seq += 1
            heapq.heappush(self._l2_wait, (now + part.hit_latency, self._seq, req))
            return
        if part.mshr.pending(req.line_addr):
            if part.mshr.can_merge(req.line_addr):
                part.in_queue.popleft()
                part.mshr.merge(req)
            else:
                part.stall_cycles += 1
            return
        if part.mshr.full or not part.channel.can_accept():
            part.stall_cycles += 1
            return
        part.in_queue.popleft()
        part.mshr.allocate(req)
        part.channel.push(req)

    # perfbench/tracer.py wraps this name (``cls.__dict__["cycle_event"]``)
    # to trace the memory layer; keep it until that caller drops it.
    cycle_event = cycle

    # ------------------------------------------------------------ issue spans
    def earliest_delivery_cycle(self, now: int) -> int:
        """Conservative lower bound on the next ``on_response`` delivery
        (demand fill, merged demand, or prefetch fill) to *any* SM.

        An issue span (:mod:`repro.sim.fastcore`) may batch-execute SM
        cycles ``[now, bound+1)`` knowing no response can mutate SM
        state inside the span: a response delivered during the
        subsystem phase of cycle ``c`` is only visible to SM phases from
        ``c + 1`` on.  Every term
        understates the true delivery cycle (queueing, bandwidth limits
        and fault-injected delays only push it later; fault drops remove
        it entirely)."""
        icnt = self.request_pipe.latency
        hit = self.config.l2.hit_latency
        # Floor for traffic not yet submitted: an SM submits at `now`,
        # the request ripens after icnt, a partition serves it the cycle
        # after delivery, and the L2-hit response rides the return pipe.
        bound = now + 2 * icnt + hit + 1
        q = self.response_pipe._q
        if q:
            t = q[0][0]
            if t < now:
                t = now
            if t < bound:
                bound = t
        if self._l2_wait:
            t = self._l2_wait[0][0]
            if t < now:
                t = now
            t += icnt
            if t < bound:
                bound = t
        burst = self.config.dram.row_hit_cycles
        for ch in self.channels:
            if ch._completions:
                t = ch._completions[0][0]
                if t < now:
                    t = now
                t += hit + icnt
                if t < bound:
                    bound = t
            if ch.queue:
                t = now + burst + hit + icnt
                if t < bound:
                    bound = t
        for part in self.partitions:
            if part.in_queue:
                t = now + hit + icnt
                if t < bound:
                    bound = t
                break
        q = self.request_pipe._q
        if q:
            t = q[0][0]
            if t < now:
                t = now
            t += 1 + hit + icnt
            if t < bound:
                bound = t
        return bound

    # ------------------------------------------------------------------- stats
    @property
    def dram_reads(self) -> int:
        return sum(ch.reads for ch in self.channels)

    @property
    def dram_writes(self) -> int:
        return sum(ch.writes for ch in self.channels)

    @property
    def dram_row_hit_rate(self) -> float:
        hits = sum(ch.row_hits for ch in self.channels)
        total = hits + sum(ch.row_misses for ch in self.channels)
        return hits / total if total else 0.0

    def l2_hit_rate(self) -> float:
        acc = sum(p.cache.accesses for p in self.partitions)
        hits = sum(p.cache.hits for p in self.partitions)
        return hits / acc if acc else 0.0

    def l2_queue_depth(self) -> int:
        """Requests currently waiting in L2 partition input queues
        (instantaneous occupancy; sampled by :mod:`repro.obs`)."""
        return sum(len(p.in_queue) for p in self.partitions)

    def dram_queue_depth(self) -> int:
        """Read requests queued or in flight across all DRAM channels
        (instantaneous occupancy; sampled by :mod:`repro.obs`)."""
        return sum(len(ch) + ch.inflight for ch in self.channels)

    def drained(self) -> bool:
        """True when no request is in flight anywhere behind the SMs."""
        if self.request_pipe or self.response_pipe or self._l2_wait:
            return False
        for part in self.partitions:
            if part.in_queue or len(part.mshr):
                return False
        for ch in self.channels:
            if not ch.drained:
                return False
        return True
