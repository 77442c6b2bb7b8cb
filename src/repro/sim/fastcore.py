"""Issue spans: the ``engine="event"`` step of the simulator main loop.

:meth:`repro.sim.gpu.GPU.run` has one main loop for both engines.  Every
cycle it advances each SM whose last span has ended, then runs the
memory subsystem's reference ``cycle``.  Under ``engine="cycle"`` an SM
advances through ``SM.cycle``; under ``engine="event"`` it advances
through :func:`_dispatch`, which opens an *issue span* when it can: a
run of cycles whose ALU issues and stalls are executed in one batch,
with the SM skipped until the span's end (``sm._skip_until``).  Results
stay *bit-identical* to the reference — the differential suite
(``tests/sim/test_differential_engines.py``) pins every counter, series
and snapshot across both engines.

The span contract (docs/architecture.md has the full version):

* **Response bound.**  SM state can change under a span only via a
  memory response.  :meth:`MemorySubsystem.earliest_delivery_cycle`
  lower-bounds the next delivery to *any* SM; a response delivered in
  the subsystem phase of cycle ``c`` is visible to SM phases from
  ``c + 1``, so a span is capped at ``bound + 1``.  Spans accrue their
  counters up front; responses and CTA launches reset
  ``sm._skip_until``, and because spans never outrun the bound the
  accrued prefix never overlaps the re-dispatched suffix.

* **Hard spans.**  An issue span whose pre-executed picks provably
  cannot be altered by a memory response — no replay in flight, the
  two-level ready queue full (a response can only append to the
  eligible pool), eager wake-up off (``sm._hard_span_ok``), no queued
  prefetch work, single kernel — is marked ``_span_hard`` and may run
  to the hook boundary instead of the response bound; responses do not
  reset its ``_skip_until``.  Its stalls stay under the response bound.

* **Hook boundaries.**  Spans never cross the next monitor /
  obs-window / watchdog boundary (:func:`_next_hook`), so samples,
  window flushes and hang checks fire at exactly the reference cycles
  with exactly the reference counter state.  Spans also end at the
  SM's own future work: the L1 hit-heap head and
  ``Prefetcher.next_event_cycle``.

* **Issue automaton.**  For the two-level schedulers (``two_level``,
  ``pas``) runs of back-to-back ALU issues are replayed in local arrays
  mirroring the ready-queue rotation, with a closed-form jump over
  steady-state full rotations; cursors are advanced in bulk via
  :meth:`repro.sim.isa.WarpCursor.consume_alu`.  The span stops before
  the first cycle that would pick a load/store/EXIT, which then runs
  through the reference ``SM.cycle`` path.  A wedged load replay
  (:func:`_replay_wedged`) does not stop a span; its failed retries
  are charged in bulk.
"""

from __future__ import annotations

from repro.sim.isa import InstrKind
from repro.sim.sched import TwoLevel

#: Sentinel "never" cycle: no span end / no wake-up.
NEVER = 1 << 62


def _next_hook(t: int, limit: int, interval: int, obs_interval: int,
               wd_interval: int) -> int:
    """First cycle after ``t`` at which any periodic hook (monitor
    sample, obs window flush, watchdog check) fires, capped at
    ``limit``.  Spans never cross this boundary."""
    nh = limit
    if interval:
        b = t - t % interval + interval
        if b < nh:
            nh = b
    if obs_interval:
        b = t - t % obs_interval + obs_interval
        if b < nh:
            nh = b
    if wd_interval:
        b = t - t % wd_interval + wd_interval
        if b < nh:
            nh = b
    return nh


def _accrue_stall(sm, k: int) -> None:
    """Batch-accrue ``k`` pure stall cycles (issue returned nothing).

    Mirrors ``SM._account_stall`` + the per-cycle ``active_cycles``
    increment; the waiting/unfinished counts are constant over a span
    because blocks, finishes and launches all stop spans."""
    stats = sm.stats
    stats.active_cycles += k
    if sm.waiting_mem_warps >= sm.unfinished_warps:
        stats.stall_mem_all += k
    elif sm.waiting_mem_warps > 0:
        stats.stall_mem_partial += k
    else:
        stats.stall_other += k
    if sm._multi:
        sm._kernel_stall_cycles(k)


def _replay_wedged(sm, rp) -> bool:
    """True when the load replay head provably cannot make progress —
    and, since the blocking condition can only be lifted by a memory
    response, will not progress on any cycle before the response bound.

    Mirrors the replay-failure branches of ``SM._process_demand_lines``
    (the caller has already checked the miss queue is empty)."""
    head = rp.remaining[0]
    if sm.l1.probe(head) is not None:
        return False
    meta = sm._inflight_prefetch.get(head)
    mshr = sm.l1.mshr
    if meta is not None:
        return len(meta.waiters) >= mshr.merge_limit
    if mshr.pending(head):
        return not mshr.can_merge(head)
    return mshr.full or sm.miss_queue_depth == 0


def _issue_span(sm, now: int, end: int, stall_cap: int, lsu_busy: bool) -> int:
    """Batch-execute two-level issue cycles ``[now, t)``; returns ``t``.

    Replays the exact ready-queue rotation of ``TwoLevel.pick`` in local
    arrays, issuing ALU instructions and accruing stall cycles.  Stops
    (returning early) before the first cycle whose pick would be a
    load/store/EXIT — or, with ``lsu_busy`` (an active replay holds the
    LSU), before an EXIT pick, while load/store-next warps are skipped
    in the rotation exactly as ``Scheduler._can_issue`` does.  Returns
    ``now`` unchanged when nothing could be batched (the caller then
    runs the reference ``SM.cycle``).

    ``stall_cap`` is the response bound: *stall* cycles beyond it could
    be misclassified by a response that changes the warp counts, so a
    stall needed at ``t >= stall_cap`` ends the span.  Issue cycles are
    response-independent under the hard-span preconditions (see
    ``_dispatch``) and may run to ``end`` past the cap."""
    sched = sm.scheduler
    sched._refill()
    ready = sched.ready
    n = len(ready)
    if n == 0:
        _accrue_stall(sm, end - now)
        return end
    # Fast prelude: resolve the pick at `now` without building the slot
    # arrays.  Most calls bail here — either the pick is a load/store
    # (per-cycle path) or nothing is pickable (pure stall span).
    ptr0 = sched._ptr % n
    ALU = InstrKind.ALU
    LOAD = InstrKind.LOAD
    STORE = InstrKind.STORE
    first = -1
    for i in range(n):
        j = ptr0 + i
        if j >= n:
            j -= n
        w = ready[j]
        if w.ready_at > now:
            continue
        if lsu_busy:
            c = w.cursor
            ins = c._peeked
            if ins is None:
                ins = c.peek()
            k = ins.kind
            if k is LOAD or k is STORE:
                continue  # wants the busy LSU: rotation skips it
        first = j
        break
    if first < 0:
        # Pure stall at `now`: jump to the earliest pickable ripen time
        # and let the next dispatch re-resolve from there.
        nxt = end if end < stall_cap else stall_cap
        for w in ready:
            rw = w.ready_at
            if rw <= now or rw >= nxt:
                continue
            if lsu_busy:
                c = w.cursor
                ins = c._peeked
                if ins is None:
                    ins = c.peek()
                k = ins.kind
                if k is LOAD or k is STORE:
                    continue
            nxt = rw
        _accrue_stall(sm, nxt - now)
        return nxt
    c = ready[first].cursor
    ins = c._peeked
    if ins is None:
        ins = c.peek()
    if ins.kind is not ALU:
        return now  # load/store/EXIT pick: reference SM.cycle runs it
    ra = [0] * n
    alu = [0] * n
    lat = [0] * n
    kind = [0] * n  # 1 = ALU-next, 0 = load/store-next, 2 = EXIT-next
    cnt = [0] * n   # cursor consumes pending since the last flush
    tot = [0] * n   # total issues this span (stats writeback)
    for j in range(n):
        w = ready[j]
        if w.pending_pieces > 0:
            # A deferred warp (use_distance) charges its budget on every
            # issue and may block mid-run: per-cycle path only.
            return now
        ra[j] = w.ready_at
        c = w.cursor
        ins = c._peeked
        if ins is None:
            ins = c.peek()
        k = ins.kind
        if k is InstrKind.ALU:
            kind[j] = 1
            alu[j] = 1 + c._compute_left
            lat[j] = ins.latency
        elif k is InstrKind.EXIT:
            kind[j] = 2

    t = now
    issued = 0
    stalls = 0
    ptr = sched._ptr % n
    p0 = ptr
    while t < end:
        pick = -1
        for i in range(n):
            j = ptr + i
            if j >= n:
                j -= n
            if ra[j] > t:
                continue
            if kind[j] == 0 and lsu_busy:
                continue  # wants the busy LSU: rotation skips it
            pick = j
            break
        if pick < 0:
            # Stall: jump to the earliest cycle a pickable slot ripens.
            # Stalls are classification-safe only below the response
            # bound, so they never cross `stall_cap`.
            lim = end if end < stall_cap else stall_cap
            if t >= lim:
                break
            nxt = NEVER
            for j in range(n):
                if lsu_busy and kind[j] == 0:
                    continue
                rj = ra[j]
                if rj > t and rj < nxt:
                    nxt = rj
            if nxt >= lim:
                stalls += lim - t
                t = lim
                break
            stalls += nxt - t
            t = nxt
            continue
        if kind[pick] != 1:
            break  # load/store/EXIT pick: stop before this cycle
        alu[pick] -= 1
        cnt[pick] += 1
        tot[pick] += 1
        ra[pick] = t + lat[pick]
        issued += 1
        t += 1
        ptr = pick + 1
        if ptr >= n:
            ptr = 0
        if alu[pick] == 0:
            c = ready[pick].cursor
            c.consume_alu(cnt[pick])
            cnt[pick] = 0
            ins = c.peek()
            k = ins.kind
            if k is InstrKind.ALU:
                alu[pick] = 1 + c._compute_left
                lat[pick] = ins.latency
            elif k is InstrKind.EXIT:
                kind[pick] = 2
            else:
                kind[pick] = 0
        elif ptr == p0:
            # Steady state: ptr wrapped with ALU work left.  If every
            # slot is ALU-next, already ripe in rotation order, and its
            # result returns within one rotation (latency <= n), each
            # rotation issues one instruction per slot — jump whole
            # rotations in closed form.
            rot = (end - t) // n
            if rot >= 1:
                for i in range(n):
                    s = p0 + i
                    if s >= n:
                        s -= n
                    if kind[s] != 1 or lat[s] > n or ra[s] > t + i:
                        rot = 0
                        break
                    if alu[s] < rot:
                        rot = alu[s]
            if rot >= 1:
                for i in range(n):
                    s = p0 + i
                    if s >= n:
                        s -= n
                    alu[s] -= rot
                    cnt[s] += rot
                    tot[s] += rot
                    ra[s] = t + (rot - 1) * n + i + lat[s]
                issued += rot * n
                t += rot * n
                for s in range(n):
                    if alu[s] == 0:
                        c = ready[s].cursor
                        c.consume_alu(cnt[s])
                        cnt[s] = 0
                        ins = c.peek()
                        k = ins.kind
                        if k is InstrKind.ALU:
                            alu[s] = 1 + c._compute_left
                            lat[s] = ins.latency
                        elif k is InstrKind.EXIT:
                            kind[s] = 2
                        else:
                            kind[s] = 0

    if stalls:
        _accrue_stall(sm, stalls)
    if issued:
        sched._ptr = ptr
        total = 0
        per_kernel = {} if sm._multi else None
        for j in range(n):
            if cnt[j]:
                ready[j].cursor.consume_alu(cnt[j])
            tj = tot[j]
            if tj:
                w = ready[j]
                w.instructions_issued += tj
                w.ready_at = ra[j]
                total += tj
                if per_kernel is not None:
                    kid = w.kernel_id
                    per_kernel[kid] = per_kernel.get(kid, 0) + tj
        stats = sm.stats
        stats.instructions += total
        stats.issue_cycles += issued
        stats.active_cycles += issued
        if per_kernel is not None:
            # Each issue cycle belongs to exactly one kernel; from every
            # co-resident kernel's perspective the same cycle is a stall
            # (warp counts are constant over an ALU-only span, so the
            # per-kernel classification is too).
            for kid, unfin in sm.k_unfinished.items():
                if unfin <= 0:
                    continue
                ks = sm.kstats[kid]
                own = per_kernel.get(kid, 0)
                ks.active_cycles += issued
                ks.issue_cycles += own
                ks.instructions += own
                other = issued - own
                if other:
                    kw = sm.k_waiting.get(kid, 0)
                    if kw >= unfin:
                        ks.stall_mem_all += other
                    elif kw > 0:
                        ks.stall_mem_partial += other
                    else:
                        ks.stall_other += other
    return t


def _dispatch(sm, now: int, hook_at: int, sub, cap_box) -> None:
    """Advance one SM from cycle ``now``: run the reference ``cycle``
    when per-cycle work is pending, otherwise open the longest provably
    safe issue span and record its end in ``sm._skip_until``.

    ``cap_box`` is a one-slot cache of the cycle's response bound
    (``earliest_delivery_cycle + 1``), computed lazily so cycles whose
    SMs never need it don't pay for it."""
    sm._span_hard = False
    if sm.unfinished_warps == 0:
        if sm.miss_queue or sm.store_queue or sm.prefetch_miss_queue:
            sm.cycle(now)
        else:
            sm._skip_until = NEVER
        return
    hh = sm._hit_heap
    if (
        sm.miss_queue
        or sm.store_queue
        or sm.prefetch_miss_queue
        or (hh and hh[0][0] <= now)
        or (
            sm.prefetch_queue
            and sm.unused_prefetched_resident < sm._prefetch_resident_limit
        )
    ):
        sm.cycle(now)
        return
    rp = sm.replay
    if rp is not None and (rp.is_store or not _replay_wedged(sm, rp)):
        sm.cycle(now)
        return
    # Two-level schedulers batch ALU issue runs (and the stalls between
    # them); flat schedulers (lrr/gto variants) run every cycle through
    # the reference path.
    sched = sm.scheduler
    if not isinstance(sched, TwoLevel):
        sm.cycle(now)
        return
    # Span end: hooks and the SM's own future work (ripe hits,
    # prefetcher wake-ups); non-hard spans also stop at the response
    # bound below.
    end = hook_at
    if hh and hh[0][0] < end:
        end = hh[0][0]
    p = sm.prefetcher.next_event_cycle(now)
    if p < end:
        end = p
    cap = cap_box[0]
    if cap == 0:
        cap = cap_box[0] = sub.earliest_delivery_cycle(now) + 1
    # Hard (response-tolerant) span preconditions: with the ready queue
    # full, a response or launch can only append to the eligible pool
    # (_refill is a no-op), eager wake-up is off so nothing displaces a
    # ready warp, and no gated prefetch work can become serviceable.
    # In-span picks are then provably response-independent and may run
    # to the hook boundary; only stalls stay under the response bound.
    # Multi-kernel runs additionally classify each issue cycle from
    # every co-resident kernel's perspective using that kernel's live
    # waiting count — a response landing mid-span changes it — so they
    # keep all spans under the response bound.  The refill is the one
    # the reference pick would run first this cycle.
    sched._refill()
    hard = (
        rp is None
        and not sm._multi
        and sm._hard_span_ok
        and not sm.prefetch_queue
        and len(sched.ready) == sched.ready_size
    )
    if not hard and cap < end:
        end = cap
    if end <= now:
        sm.cycle(now)
        return
    t = _issue_span(sm, now, end, cap, rp is not None)
    if t == now:
        sm.cycle(now)
        return
    if rp is not None:
        # Wedged load replay: every skipped cycle retried the head,
        # failed, and charged the replay + L1 miss counters.
        k = t - now
        sm.stats.replay_cycles += k
        l1 = sm.l1
        l1._tick += k
        l1.accesses += k
        l1.misses += k
        if sm._multi:
            ks = sm.kstats[rp.warp.kernel_id]
            ks.l1_accesses += k
            ks.l1_misses += k
    sm._skip_until = t
    sm._span_hard = hard
