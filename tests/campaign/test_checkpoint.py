"""Checkpoint/resume tests: atomic persistence and bit-identical resume."""

import json

import pytest

from repro.campaign import (
    CampaignCheckpoint,
    load_checkpoint,
    make_tool,
    run_campaign,
    run_campaign_parallel,
    save_checkpoint,
    try_load_checkpoint,
)
from repro.errors import CampaignError

from tests.conftest import DEMO_SOURCE


class _Kill(Exception):
    """Injected 'job killed' signal raised from a progress callback."""


def _records_key(result):
    return [
        (r.index, r.seed, r.outcome, r.cycles, r.steps,
         None if r.fault is None else
         (r.fault.pc, r.fault.bit, r.fault.value_before, r.fault.value_after))
        for r in result.records
    ]


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "c.json"
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=50, base_seed=7,
            keep_records=False, completed={0, 1, 2, 5, 6, 9},
        )
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.workload == "demo"
        assert loaded.completed == {0, 1, 2, 5, 6, 9}
        assert loaded.remaining[:4] == [3, 4, 7, 8]
        assert loaded.partial is None

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "c.json"
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=10, base_seed=7,
            keep_records=False, completed=set(range(10)),
        )
        save_checkpoint(ckpt, path)
        save_checkpoint(ckpt, path)  # overwrite goes through rename too
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]
        json.loads(path.read_text())  # never a torn file

    def test_missing_file_is_fresh_campaign(self, tmp_path):
        assert try_load_checkpoint(tmp_path / "absent.json") is None
        assert try_load_checkpoint(None) is None

    def test_garbage_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(CampaignError):
            try_load_checkpoint(path)

    @pytest.mark.parametrize("ranges", [[[0, 10**12]], [[4, 2]], [[8, 11]]])
    def test_indices_outside_the_campaign_are_malformed(self, tmp_path, ranges):
        """The completed set is decoded against the checkpoint's own ``n``:
        a range that leaves it is refused, not materialised."""
        path = tmp_path / "c.json"
        save_checkpoint(
            CampaignCheckpoint(
                workload="demo", tool="REFINE", n=10, base_seed=7,
                keep_records=False, completed={0, 1},
            ),
            path,
        )
        data = json.loads(path.read_text())
        data["completed"] = ranges
        path.write_text(json.dumps(data))
        with pytest.raises(CampaignError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text('{"version": 99}')
        with pytest.raises(CampaignError, match="version"):
            load_checkpoint(path)

    def test_parameter_mismatch_raises(self):
        ckpt = CampaignCheckpoint(
            workload="demo", tool="REFINE", n=10, base_seed=7,
            keep_records=False,
        )
        ckpt.matches("demo", "REFINE", 10, 7, False)  # exact match is fine
        with pytest.raises(CampaignError, match="base_seed"):
            ckpt.matches("demo", "REFINE", 10, 8, False)
        with pytest.raises(CampaignError, match="tool"):
            ckpt.matches("demo", "PINFI", 10, 7, False)
        with pytest.raises(CampaignError, match="keep_records"):
            ckpt.matches("demo", "REFINE", 10, 7, True)


class TestSequentialResume:
    N = 14

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        return run_campaign(tool, n=self.N, base_seed=5, keep_records=True)

    def test_kill_and_resume_bit_identical(self, tmp_path, uninterrupted):
        ck = tmp_path / "seq.ckpt.json"

        def killer(i, n):
            if i == 8:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N,
                base_seed=5, keep_records=True, checkpoint_path=ck,
                checkpoint_every=3, progress=killer,
            )
        # the interrupt handler persisted every completed experiment
        assert len(load_checkpoint(ck).completed) == 8

        resumed = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N,
            base_seed=5, keep_records=True, checkpoint_path=ck,
            checkpoint_every=3,
        )
        assert resumed.counts == uninterrupted.counts
        assert resumed.total_cycles == uninterrupted.total_cycles
        assert resumed.total_steps == uninterrupted.total_steps
        assert _records_key(resumed) == _records_key(uninterrupted)

    def test_resume_of_finished_campaign_runs_nothing(
        self, tmp_path, uninterrupted
    ):
        ck = tmp_path / "done.ckpt.json"
        first = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N, base_seed=5,
            keep_records=True, checkpoint_path=ck,
        )
        ran = []
        again = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N, base_seed=5,
            keep_records=True, checkpoint_path=ck,
            progress=lambda i, n: ran.append(i),
        )
        assert ran == []  # every index was already completed
        assert again.counts == first.counts == uninterrupted.counts
        assert _records_key(again) == _records_key(first)

    def test_resume_rejects_changed_seed(self, tmp_path):
        ck = tmp_path / "c.ckpt.json"
        run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=4, base_seed=5,
            checkpoint_path=ck,
        )
        with pytest.raises(CampaignError, match="base_seed"):
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"), n=4, base_seed=6,
                checkpoint_path=ck,
            )


class TestParallelResume:
    N = 16

    def test_kill_and_resume_bit_identical(self, tmp_path):
        sequential = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N, base_seed=9,
            keep_records=True,
        )
        ck = tmp_path / "par.ckpt.json"

        def killer(done, n):
            if done >= 4:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign_parallel(
                "REFINE", DEMO_SOURCE, "demo", n=self.N, workers=2,
                base_seed=9, keep_records=True, checkpoint_path=ck,
                checkpoint_every=1, chunk_size=2, progress=killer,
            )
        killed = load_checkpoint(ck)
        assert 0 < len(killed.completed) < self.N

        resumed = run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", n=self.N, workers=2, base_seed=9,
            keep_records=True, checkpoint_path=ck, checkpoint_every=1,
            chunk_size=2,
        )
        assert resumed.n == self.N
        assert resumed.counts == sequential.counts
        assert resumed.total_steps == sequential.total_steps
        assert resumed.total_cycles == sequential.total_cycles
        # records come back sorted by global index, like the sequential run
        assert [r.index for r in resumed.records] == list(range(self.N))
        assert [r.seed for r in resumed.records] == [
            r.seed for r in sequential.records
        ]

    def test_parallel_checkpoint_resumable_by_sequential_runner(
        self, tmp_path
    ):
        """Checkpoints are execution-mode agnostic: a parallel run's
        checkpoint can be finished by the sequential runner."""
        ck = tmp_path / "cross.ckpt.json"

        def killer(done, n):
            if done >= 4:
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign_parallel(
                "REFINE", DEMO_SOURCE, "demo", n=self.N, workers=2,
                base_seed=9, checkpoint_path=ck, checkpoint_every=1,
                chunk_size=2, progress=killer,
            )
        finished = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N, base_seed=9,
            checkpoint_path=ck,
        )
        direct = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), n=self.N, base_seed=9
        )
        assert finished.counts == direct.counts
