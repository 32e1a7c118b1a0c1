"""Snapshot capture/restore round-trips on a real compiled program."""

from __future__ import annotations

import pytest

from repro.machine.cpu import CPU
from repro.snapshot import (
    PAGE_SIZE,
    base_pages,
    capture_snapshot,
    cpu_state_digest,
    restore_snapshot,
)
from repro.workloads import get_workload
from repro.fi.tools import PinfiTool, RefineTool

from tests.conftest import DEMO_SOURCE
from repro.backend import compile_minic
from repro.machine import load_binary

INTERVAL = 100


@pytest.fixture(scope="module")
def program():
    return load_binary(compile_minic(DEMO_SOURCE, "demo"))


def _record_run(program, interval=INTERVAL):
    """One full run that captures a snapshot chain plus per-snapshot
    state digests taken at capture time."""
    cpu = CPU(program)
    base = base_pages(program)
    snaps, digests = [], []

    def hook(cpu, pc):
        prev = snaps[-1] if snaps else None
        snaps.append(capture_snapshot(cpu, pc, prev=prev, base=base))
        digests.append(cpu_state_digest(cpu))

    cpu.record_snapshots(interval, hook)
    result = cpu.run()
    return snaps, digests, result


class TestRoundTrip:
    def test_restore_reproduces_digest(self, program):
        snaps, digests, _ = _record_run(program)
        assert len(snaps) >= 3
        for snap, digest in zip(snaps, digests):
            fresh = CPU(program)
            restore_snapshot(fresh, snap)
            assert cpu_state_digest(fresh) == digest

    def test_restored_fields(self, program):
        snaps, _, _ = _record_run(program)
        snap = snaps[len(snaps) // 2]
        fresh = CPU(program)
        restore_snapshot(fresh, snap)
        assert fresh.steps == snap.steps
        assert tuple(fresh.iregs) == snap.iregs
        assert tuple(fresh.fregs) == snap.fregs
        assert fresh.flags == snap.flags
        assert tuple(fresh.output) == snap.output
        assert tuple(fresh.counts) == snap.counts
        for idx, page in snap.pages.items():
            off = idx * PAGE_SIZE
            assert bytes(fresh.mem[off:off + len(page)]) == page

    def test_resume_equals_uninterrupted_run(self, program):
        snaps, _, full = _record_run(program)
        for snap in (snaps[0], snaps[len(snaps) // 2], snaps[-1]):
            fresh = CPU(program)
            restore_snapshot(fresh, snap)
            resumed = fresh.resume(snap.pc)
            assert resumed.output == full.output
            assert resumed.exit_code == full.exit_code
            assert resumed.trap == full.trap
            assert resumed.steps == full.steps
            assert list(resumed.counts) == list(full.counts)


class TestPageDeltas:
    def test_clean_pages_are_not_stored(self, program):
        snaps, _, _ = _record_run(program)
        total_pages = len(base_pages(program))
        assert all(s.dirty_pages < total_pages for s in snaps)

    def test_unchanged_pages_shared_with_previous_snapshot(self, program):
        snaps, _, _ = _record_run(program)
        shared = sum(
            1
            for a, b in zip(snaps, snaps[1:])
            for idx in b.pages
            if a.pages.get(idx) is b.pages[idx]
        )
        assert shared > 0

    def test_base_omitted_matches_base_passed(self, program):
        cpu = CPU(program)
        cpu.run()
        with_base = capture_snapshot(cpu, 0, base=base_pages(program))
        without = capture_snapshot(cpu, 0)
        assert with_base.pages == without.pages


def copy_and_slice_scan(cpu, prev, base):
    """The page scan ``capture_snapshot`` used to do (one copy of the whole
    image, one slice per page): the reference for the in-place scan."""
    mem = bytes(cpu.mem)
    pages = {} if prev is None else dict(prev.pages)
    for idx, clean in enumerate(base):
        current = mem[idx * PAGE_SIZE:(idx + 1) * PAGE_SIZE]
        if current != pages.get(idx, clean):
            pages[idx] = current
    return pages


class TestInPlaceScan:
    """``capture_snapshot`` compares pages against the live image without
    copying it; what it finds must be what the copying scan found."""

    def check_chain(self, program, writes_per_capture):
        base = base_pages(program)
        cpu = CPU(program)
        prev = None
        for writes in writes_per_capture:
            for addr, data in writes:
                cpu.mem[addr:addr + len(data)] = data
            expected = copy_and_slice_scan(cpu, prev, base)
            snap = capture_snapshot(cpu, 0, prev=prev, base=base)
            assert snap.pages == expected
            assert all(type(p) is bytes for p in snap.pages.values())
            if prev is not None:
                for idx, page in prev.pages.items():
                    same = page == expected[idx]
                    assert (snap.pages[idx] is page) == same
            fresh = CPU(program)
            restore_snapshot(fresh, snap)
            assert fresh.mem == cpu.mem
            prev = snap
        return prev

    def test_first_and_last_page(self, program):
        size = program.mem_size
        last = self.check_chain(program, [
            [(0, b"\x01")],
            [(size - 1, b"\x02")],
            [(PAGE_SIZE - 1, b"\x03\x04")],  # straddles pages 0 and 1
        ])
        assert set(last.pages) == {0, 1, (size - 1) // PAGE_SIZE}

    def test_page_dirtied_then_restored_to_the_base_image(self, program):
        addr = 7 * PAGE_SIZE + 123
        clean = bytes(program.fresh_memory()[addr:addr + 8])
        last = self.check_chain(program, [
            [(addr, b"\xff" * 8)],
            [(addr, clean)],   # equal to the base image again ...
            [],                # ... and unchanged since
        ])
        # it stays in the chain, holding the clean bytes (as it always has)
        assert last.pages[7] == base_pages(program)[7]

    def test_random_dirty_patterns(self, program):
        import random

        rng = random.Random(0xD1A7)
        size = program.mem_size
        for _ in range(5):
            chain = [
                [(rng.randrange(size - 16), rng.randbytes(rng.randint(1, 16)))
                 for _ in range(rng.randint(0, 6))]
                for _ in range(6)
            ]
            self.check_chain(program, chain)


class TestToolCounters:
    def test_refine_counter_recorded(self):
        spec = get_workload("EP")
        tool = RefineTool(spec.source, workload="EP")
        cpu = tool._make_cpu(None)
        snaps = []
        cpu.record_snapshots(5000, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        cpu.run(budget=200_000_000)
        counters = [s.refine_count for s in snaps]
        assert counters == sorted(counters)
        assert counters[-1] > 0

    def test_pinfi_attached_counts_realias(self):
        spec = get_workload("EP")
        tool = PinfiTool(spec.source, workload="EP")
        cpu = tool._make_cpu(None)
        snaps = []
        cpu.record_snapshots(5000, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        cpu.run(budget=200_000_000)
        snap = snaps[len(snaps) // 2]
        fresh = tool._make_cpu(tool.plan_from_seed(1))
        restore_snapshot(fresh, snap)
        # attach_pinfi aliases counts_attached to counts; the restore must
        # re-establish that after replacing the counts list.
        assert fresh.counts_attached is fresh.counts
        assert fresh._pin_count == snap.pin_count


class TestDetachThenSnapshot:
    """Snapshots taken *after* PINFI detaches must round-trip the split
    counter arrays: ``counts_attached`` holds the attached-phase counts as
    a distinct array, ``counts`` continues from zero, and the restore must
    not re-alias them (the old restore unconditionally set
    ``cpu.counts_attached = cpu.counts``, silently merging the phases)."""

    def _faulty_run(self, tool, seed):
        cpu = tool._make_cpu(tool.plan_from_seed(seed))
        snaps = []
        cpu.record_snapshots(2000, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        result = cpu.run(budget=200_000_000)
        return cpu, snaps, result

    def test_post_detach_snapshot_round_trip(self):
        spec = get_workload("EP")
        tool = PinfiTool(spec.source, workload="EP")
        cpu, snaps, result = None, [], None
        for seed in range(16):
            cpu, snaps, result = self._faulty_run(tool, seed)
            if result.fault is not None and any(not s.attached for s in snaps):
                break
        else:
            pytest.skip("no seed produced a post-detach snapshot")
        snap = next(s for s in snaps if not s.attached)
        assert snap.counts_attached is not None

        fresh = tool._make_cpu(None)  # _make_cpu re-attaches by default...
        restore_snapshot(fresh, snap)
        # ...but the snapshot says the run had already detached.
        assert fresh._attached is False
        assert fresh.counts_attached is not None
        assert fresh.counts_attached is not fresh.counts
        assert tuple(fresh.counts_attached) == snap.counts_attached
        assert tuple(fresh.counts) == snap.counts

    def test_attached_snapshot_keeps_alias(self):
        spec = get_workload("EP")
        tool = PinfiTool(spec.source, workload="EP")
        cpu = tool._make_cpu(None)
        snaps = []
        cpu.record_snapshots(5000, lambda c, pc: snaps.append(
            capture_snapshot(c, pc)))
        cpu.run(budget=200_000_000)
        snap = snaps[0]
        assert snap.attached and snap.attached_alias
        fresh = tool._make_cpu(None)
        restore_snapshot(fresh, snap)
        assert fresh._attached is True
        assert fresh.counts_attached is fresh.counts
