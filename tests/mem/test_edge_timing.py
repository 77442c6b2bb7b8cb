"""Edge-timing tests for the DRAM channel and interconnect pipe.

The event engine's issue spans are bounded by the earliest cycle a
memory response can reach an SM, so the exact cycle at which each
boundary condition fires is load-bearing: a row hit decided one cycle
early or a completion popped one cycle late would break the
bit-identity contract.  These tests pin the boundaries directly at the
component level (the differential suite pins them end-to-end).
"""

import pytest

from repro.config import DRAMConfig
from repro.mem.dram import DramChannel
from repro.mem.icnt import Pipe
from repro.mem.request import Access, MemoryRequest


def dcfg(**kw):
    base = dict(channels=1, queue_entries=4, banks_per_channel=4,
                row_bytes=1024, row_hit_cycles=4, row_miss_cycles=20)
    base.update(kw)
    return DRAMConfig(**base)


def req(line, access=Access.DEMAND):
    return MemoryRequest(line_addr=line, sm_id=0, access=access)


class TestRowHitBoundary:
    def test_last_line_of_row_still_hits(self):
        """Address row_bytes-128 shares the open row; row_bytes does not."""
        ch = DramChannel(dcfg(), 0)
        ch.push(req(0))
        ch.cycle(0, lambda r: None)  # opens (bank0, row0)
        same_row = req(1024 - 128)
        next_row = req(1024)  # first line of the next row (different bank)
        assert ch._bank_row(same_row.line_addr) == ch._bank_row(0)[0:1] + (0,)
        ch.push(same_row)
        ch.cycle(1, lambda r: None)
        assert ch.row_hits == 1 and ch.row_misses == 1
        ch.push(next_row)
        ch.cycle(2, lambda r: None)
        assert ch.row_hits == 1 and ch.row_misses == 2

    def test_row_hit_timing_vs_miss_timing(self):
        """A hit takes row_hit_cycles on the bus; a miss adds activate."""
        cfg = dcfg()
        ch = DramChannel(cfg, 0)
        done = []
        ch.push(req(0))
        ch.cycle(0, done.append)  # miss: done at 0 + 20
        ch.push(req(128))  # same bank, same row -> hit after the miss
        ch.cycle(1, done.append)
        # hit issues at cycle 1 but waits for the bus (free at 20), then
        # bursts for row_hit_cycles: completes at 24.
        for now in range(2, 25):
            ch.cycle(now, done.append)
        assert [r.line_addr for r in done] == [0, 128]
        assert ch.service_wait_sum == 20 + (24 - 1)

    def test_row_reopened_after_conflict(self):
        """bank0 row0 -> row1 -> row0 is three misses (row0 was closed)."""
        ch = DramChannel(dcfg(), 0)
        lines = [0, 4 * 1024, 0]  # rows 0, 1, 0 of bank 0
        for now, line in enumerate(lines):
            ch.push(req(line))
            # drain the queue one pick per cycle before pushing the next
            while ch.queue:
                ch.cycle(now, lambda r: None)
                now += 1
        assert ch.row_misses == 3 and ch.row_hits == 0


class TestFullQueues:
    def test_read_queue_overflow_raises(self):
        ch = DramChannel(dcfg(), 0)
        for i in range(4):
            ch.push(req(i * 128))
        with pytest.raises(OverflowError):
            ch.push(req(999 * 128))

    def test_write_drain_mode_at_three_quarters(self):
        """Writes jump ahead of reads once the buffer hits 3/4 full."""
        ch = DramChannel(dcfg(queue_entries=8), 0)
        ch.push(req(0))
        for i in range(6):  # 6 >= (3*8)//4: forced write drain
            ch.push(req((i + 1) * 1024, Access.STORE))
        ch.cycle(0, lambda r: None)
        assert ch.writes == 1 and ch.reads == 0

    def test_writes_wait_while_reads_pending_below_threshold(self):
        ch = DramChannel(dcfg(queue_entries=8), 0)
        ch.push(req(0))
        ch.push(req(1024, Access.STORE))
        ch.cycle(0, lambda r: None)
        assert ch.reads == 1 and ch.writes == 0

    def test_full_return_path_blocks_pipe_head(self):
        """A refusing destination (full return queue) holds the head and
        everything behind it — in-order head-of-line blocking."""
        p = Pipe(latency=0, requests_per_cycle=4, capacity=8)
        a, b = req(0), req(128)
        p.push(a, 0)
        p.push(b, 0)
        assert p.drain(0, lambda r: False) == 0
        assert len(p) == 2
        got = []
        assert p.drain(0, lambda r: got.append(r) or True) == 2
        assert got == [a, b]

    def test_pipe_overflow_raises(self):
        p = Pipe(latency=1, requests_per_cycle=1, capacity=2)
        p.push(req(0), 0)
        p.push(req(128), 0)
        assert p.full
        with pytest.raises(OverflowError):
            p.push(req(256), 0)


class TestSameCycleCompletions:
    def test_back_to_back_completions_pop_in_issue_order(self):
        """Two reads finished in the past both deliver on the next cycle
        call, oldest issue first (heap orders by (done, seq))."""
        ch = DramChannel(dcfg(), 0)
        a, b = req(0), req(128)  # same bank+row: miss then hit
        ch.push(a)
        ch.push(b)
        ch.cycle(0, lambda r: None)
        ch.cycle(1, lambda r: None)
        assert ch.inflight == 2
        done = []
        ch.cycle(500, done.append)  # far beyond both completion times
        assert done == [a, b]
        assert ch.drained

    def test_completion_not_early(self):
        """A read completing at cycle D is invisible at D-1, popped at D."""
        ch = DramChannel(dcfg(), 0)
        r = req(0)
        ch.push(r)
        ch.cycle(0, lambda x: None)  # miss: done at 20
        done = []
        for now in range(1, 20):
            ch.cycle(now, done.append)
        assert done == []
        ch.cycle(20, done.append)
        assert done == [r]


class TestNextEventContract:
    """Timing the issue spans' response bound
    (``MemorySubsystem.earliest_delivery_cycle``) relies on."""

    def test_pipe_boundary_delivery(self):
        """ready_at is exact: no delivery at latency-1, delivery at latency."""
        p = Pipe(latency=3, requests_per_cycle=1, capacity=4)
        r = req(0)
        p.push(r, 10)
        assert p.drain(12, lambda x: True) == 0
        got = []
        assert p.drain(13, lambda x: got.append(x) or True) == 1
        assert got == [r]
