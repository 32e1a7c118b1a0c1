"""The cell ledger as a unit, and the same cell through every door.

``CampaignCell`` is what the inline runner, the pool runner and the
coordinator all keep their books in, so what used to be reachable only
through a socket — part validation, duplicate handling, what a checkpoint
may hold — is tested here directly, and resume is one table over the three
executors.
"""

import copy
import json
import math
import shutil
from dataclasses import replace

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    EventLog,
    Outcome,
    load_checkpoint,
    read_events,
    run_campaign,
    run_campaign_parallel,
    run_slice,
)
from repro.campaign.cell import shard_indices, trigger_order
from repro.campaign.io import result_to_dict
from repro.campaign.runner import matrix_checkpoint_path
from repro.dist import CoordinatorClient
from repro.errors import CampaignError, DistError
from repro.service import LocalService, ServiceCoordinator

from tests.conftest import (
    DEMO_SOURCE,
    lease_task,
    request_for,
    run_lease,
    serve,
)

N = 12
SEED = 7
EXECUTORS = ("inline", "pool", "lease")

#: the demo program with another answer: same cell name, another binary
OTHER_SOURCE = DEMO_SOURCE.replace("fact(6)", "fact(5)")


class _Kill(Exception):
    """Injected 'job killed' signal raised from a progress callback."""


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=N,
        base_seed=SEED, keep_records=True,
    )


@pytest.fixture(scope="module")
def tool(spec):
    return spec.make_tool()


@pytest.fixture(scope="module")
def parts(spec, tool):
    """The cell cut four ways, each shard run: ``[(indices, part)]``."""
    return [
        (shard, run_slice(spec, shard))
        for shard in shard_indices(trigger_order(tool, SEED, range(N)), 3)
    ]


@pytest.fixture(scope="module")
def uninterrupted(spec):
    return run_campaign(spec.make_tool(), N, SEED, keep_records=True)


def _recorder():
    """An ``emit`` that keeps what it is sent: ``(events, emit)``."""
    events = []
    return events, lambda event, **fields: events.append((event, fields))


class TestFoldValidation:
    @pytest.mark.parametrize("what, spoil", [
        ("cell", lambda p: setattr(p, "tool", "PINFI")),
        ("experiment count", lambda p: p.counts.update(
            {Outcome.BENIGN: p.frequency(Outcome.BENIGN) + 1})),
        ("indices", lambda p: p.records.reverse() or setattr(
            p.records[0], "index", N - 1)),
        ("golden output", lambda p: setattr(p, "golden_output", ("42",))),
        ("total_candidates", lambda p: setattr(
            p, "total_candidates", p.total_candidates + 1)),
        ("fault model", lambda p: setattr(p, "fault_model", "multi-bit")),
    ])
    def test_fold_rejects_a_part_that_is_not_the_cells(
        self, spec, tool, parts, what, spoil
    ):
        indices, part = copy.deepcopy(parts[0])
        spoil(part)
        events, emit = _recorder()
        cell = CampaignCell(spec, tool, emit=emit)
        with pytest.raises(CampaignError, match=f"its {what} is"):
            cell.fold(indices, part, task=3, worker="w1")
        assert not cell.completed and not events
        assert sum(cell.result.counts.values()) == 0

    def test_the_error_names_who_sent_the_part(self, spec, tool, parts):
        indices, part = copy.deepcopy(parts[0])
        part.total_candidates += 1
        with pytest.raises(CampaignError, match="task 3, worker 'w1'"):
            CampaignCell(spec, tool).fold(indices, part, task=3, worker="w1")


class TestArrivalOrder:
    def _spiked(self, parts):
        """The parts with cycle counts a naive running sum cannot add up
        the same way twice: huge, tiny and cancelling."""
        spikes = [1e16, 0.1, -1e16, 0.3, 1e-3, 7.7, 1e8 + 0.1, 3.0]
        parts = copy.deepcopy(parts)
        for _, part in parts:
            for rec in part.records:
                rec.cycles = spikes[rec.index % len(spikes)] * (1 + rec.index)
        return parts

    def test_any_arrival_order_gives_byte_identical_results(
        self, spec, tool, parts
    ):
        parts = self._spiked(parts)
        orders = ([0, 1, 2, 3], [3, 1, 0, 2], [2, 3, 1, 0])
        naive, finished = set(), []
        for order in orders:
            cell = CampaignCell(spec, tool)
            for i in order:
                assert cell.fold(*parts[i], chunk=i) is True
            naive.add(sum(
                rec.cycles for i in order for rec in parts[i][1].records
            ))
            finished.append(cell.finish())
        assert len(naive) > 1, "the spikes no longer make the order matter"
        exact = math.fsum(r.cycles for _, p in parts for r in p.records)
        for result in finished:
            assert result.total_cycles.hex() == exact.hex()
            assert [r.index for r in result.records] == list(range(N))
        assert len({json.dumps(result_to_dict(r)) for r in finished}) == 1

    def test_exact_duplicate_is_dropped_without_an_event(
        self, spec, tool, parts
    ):
        events, emit = _recorder()
        cell = CampaignCell(spec, tool, emit=emit)
        assert cell.fold(*parts[1], task=1, worker="a") is True
        before = (len(events), result_to_dict(cell.result))
        assert cell.fold(*parts[1], task=1, worker="b") is False
        assert (len(events), result_to_dict(cell.result)) == before
        assert [e for e, _ in events] == ["experiment"] * 3
        assert {f["worker"] for _, f in events} == {"a"}

    def test_partial_overlap_raises(self, spec, tool, parts):
        cell = CampaignCell(spec, tool)
        cell.fold(*parts[0], chunk=0)
        straddle = parts[0][0][1:] + parts[1][0][:1]
        with pytest.raises(CampaignError, match="partially overlap"):
            cell.fold(straddle, run_slice(spec, straddle), chunk=9)
        assert cell.completed == set(parts[0][0])


class TestCheckpoints:
    def test_unkept_records_never_reach_a_checkpoint(
        self, spec, tool, parts, tmp_path
    ):
        path = tmp_path / "c.json"
        cell = CampaignCell(
            replace(spec, keep_records=False), tool, checkpoint_path=path,
            checkpoint_every=1,
        )
        for i, (indices, part) in enumerate(parts):
            assert len(part.records) == len(indices)  # they do arrive
            cell.fold(indices, part, chunk=i)
            cell.save_if_due()
            assert json.loads(path.read_text())["partial"]["records"] == []
            assert len(load_checkpoint(path).completed) == 3 * (i + 1)
        assert cell.finish().records == []

    def test_before_save_runs_ahead_of_every_publication(
        self, spec, tool, parts, tmp_path
    ):
        path = tmp_path / "c.json"
        on_disk = []

        def durable_first():
            on_disk.append(
                len(load_checkpoint(path).completed) if path.exists() else 0
            )

        cell = CampaignCell(
            spec, tool, checkpoint_path=path, checkpoint_every=6,
            before_save=durable_first,
        )
        for i, (indices, part) in enumerate(parts):
            cell.fold(indices, part, chunk=i)
            cell.save_if_due()
        cell.save()  # nothing unsaved: no publication, no call
        # each call saw the file as the save before it left it
        assert on_disk == [0, 6]
        assert len(load_checkpoint(path).completed) == N

    def test_finishing_part_writes_one_checkpoint(self, tmp_path):
        """A last lease that also crosses ``checkpoint_every`` used to be
        checkpointed twice (on the service: two sink flushes + commits)."""
        spec = CampaignSpec(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=4
        )
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with LocalService(
                workers=1, chunk_size=2, checkpoint_every=2,
                checkpoint_root=tmp_path / "ckpt", events=events,
            ) as svc:
                serve(svc, request_for(spec), timeout=60)
        kinds = [e["event"] for e in read_events(log)]
        assert kinds.count("task_done") == 2
        assert kinds.count("checkpoint") == 2
        assert kinds.index("cell_finish") > max(
            i for i, k in enumerate(kinds) if k == "checkpoint"
        )


def _run(executor, spec, path, *, kill_after=None, events=None):
    """Run (or resume) ``spec``'s cell under one executor with its
    checkpoint at ``path``; ``kill_after`` interrupts it part-way."""
    def progress(done, n):
        if kill_after is not None and done >= kill_after:
            raise _Kill

    if executor == "inline":
        return run_campaign(
            spec.make_tool(), spec.n, spec.base_seed,
            keep_records=spec.keep_records, checkpoint_path=path,
            checkpoint_every=2, progress=progress, events=events,
        )
    if executor == "pool":
        return run_campaign_parallel(
            spec.tool_name, spec.source, spec.workload, spec.n, workers=2,
            base_seed=spec.base_seed, keep_records=spec.keep_records,
            checkpoint_path=path, checkpoint_every=2, chunk_size=2,
            progress=progress, events=events,
        )
    # leases: the cell goes in the way the queue's pump puts it there, and
    # is planned and leased by hand — to the end, or part-way and then
    # stopped
    assert matrix_checkpoint_path(path.parent, *spec.key) == path
    coordinator = ServiceCoordinator(chunk_size=2, events=events)
    try:
        coordinator.add_cells(spec, path.parent)
        coordinator.start()
        with CoordinatorClient(*coordinator.address, name="hand") as client:
            while coordinator.cell_progress()[spec.key][0] < (
                kill_after or spec.n
            ):
                lease = lease_task(client)
                client.complete(lease["task_id"], run_lease(lease))
        if kill_after is None:
            return coordinator.retire_cells([spec.key])[spec.key]
    finally:
        coordinator.stop()
    raise _Kill


class TestEveryDoor:
    """One cell, three executors: any of them resumes what any of them
    left, and none of them touches a checkpoint of another program."""

    @pytest.fixture(scope="class")
    def partway(self, spec, tmp_path_factory):
        """A checkpoint left part-way by each executor."""
        left = {}
        for executor in EXECUTORS:
            path = matrix_checkpoint_path(
                tmp_path_factory.mktemp(executor), *spec.key
            )
            with pytest.raises(_Kill):
                _run(executor, spec, path, kill_after=4)
            assert 0 < len(load_checkpoint(path).completed) < N
            left[executor] = path
        return left

    @pytest.mark.parametrize("resumer", EXECUTORS)
    @pytest.mark.parametrize("writer", EXECUTORS)
    def test_resume_across_executors(
        self, spec, uninterrupted, partway, tmp_path, writer, resumer
    ):
        path = matrix_checkpoint_path(tmp_path, *spec.key)
        shutil.copy(partway[writer], path)
        resumed = _run(resumer, spec, path)
        assert result_to_dict(resumed) == result_to_dict(uninterrupted)
        assert len(load_checkpoint(path).completed) == N

    @pytest.mark.parametrize("resumer", EXECUTORS)
    def test_resume_against_a_changed_program_fails_at_open(
        self, spec, partway, tmp_path, resumer
    ):
        """Inline, the cell is refused as it binds its own tool, right
        after open; on workers, when the cell's first plan arrives — a
        hand-driven lease executor reads it in the plan's error reply."""
        path = matrix_checkpoint_path(tmp_path, *spec.key)
        shutil.copy(partway["inline"], path)
        log = tmp_path / "events.jsonl"
        with EventLog(log) as events:
            with pytest.raises(
                DistError if resumer == "lease" else CampaignError,
                match="was the workload source changed",
            ):
                _run(
                    resumer, replace(spec, source=OTHER_SOURCE), path,
                    events=events,
                )
        assert not {e["event"] for e in read_events(log)} & {
            "experiment", "worker_start", "lease", "chunk_done", "checkpoint",
        }
        assert load_checkpoint(path).completed == load_checkpoint(
            partway["inline"]
        ).completed
