"""Trigger-ordered scheduler tests.

The acceptance bar everywhere is *bit-identical to the oracle*: trigger
order, forked tails and golden rejoin only change how a campaign is
executed, so every record it produces — seed, outcome, cycles, steps, trap,
fault coordinates — must match the reference campaign (interpreter loop,
index order, every run from instruction 0) exactly.
"""

import functools
import random
import pytest

from repro.campaign import (
    DEFAULT_SEED,
    EventLog,
    make_tool,
    read_events,
    resolve_trigger_order,
    run_campaign,
    run_campaign_parallel,
    run_cell,
)
from repro.campaign.io import experiment_event_fields, result_to_dict
from repro.campaign.cell import CampaignSpec
from repro.campaign.parallel import SliceContexts, run_slice
from repro.campaign.schedule import (
    MIN_SYNC_INTERVAL,
    GoldenTimeline,
    TriggerScheduler,
)
from repro.fi.models import MODEL_ORDER
from repro.fi.tools import TOOL_CLASSES, TOOL_ORDER
from repro.testing import check_workload_equivalence, reference_campaign
from repro.workloads.registry import workload_sources

from tests.conftest import DEMO_SOURCE

N = 24
SEED = 0xC0FFEE


@functools.lru_cache(maxsize=None)
def _oracle(tool_name="REFINE", model=None):
    """The demo cell's reference campaign (read-only: shared by tests)."""
    return reference_campaign(
        tool_name, DEMO_SOURCE, "demo", N, SEED, fault_model=model
    )


def _assert_equivalent(result, baseline):
    """Bit-identity bar against the oracle: every serialized field exact,
    except the provenance pair ``engine``/``snapshot_hit`` (forked tails on
    the fast engine vs from-scratch runs on the interpreter loop) and
    ``total_cycles`` (accumulated in completion order, so reordering
    shifts the float summation — same bar as the parallel runner)."""
    a, b = result_to_dict(result), result_to_dict(baseline)
    for data in (a, b):
        for rec in data.get("records", ()):
            rec.pop("snapshot_hit", None)
            rec.pop("engine", None)
    assert a.pop("total_cycles") == pytest.approx(b.pop("total_cycles"))
    assert a == b


def _records_key(result):
    return [
        (r.index, r.seed, r.outcome, r.cycles, r.steps, r.trap, r.exit_code,
         None if r.fault is None else
         (r.fault.pc, r.fault.dynamic_index, r.fault.operand_desc, r.fault.bit,
          r.fault.value_before, r.fault.value_after))
        for r in result.records
    ]


class TestTriggerOrder:
    def test_order_is_sorted_by_trigger_and_deterministic(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        ordered = resolve_trigger_order(tool, SEED, list(range(N)))
        assert sorted(i for _, i in ordered) == list(range(N))
        triggers = [t for t, _ in ordered]
        assert triggers == sorted(triggers)
        assert ordered == resolve_trigger_order(tool, SEED, list(range(N)))

    def test_cursor_never_rewinds(self):
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        sched = TriggerScheduler(tool, N)
        seen = []
        for rec in sched.run_batch(SEED, list(range(N))):
            assert rec.fault is None or seen == sorted(seen)
            if rec.fault is not None:
                seen.append(rec.fault.dynamic_index)
        assert seen == sorted(seen)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("tool_name", sorted(TOOL_CLASSES))
    def test_demo_bit_identical(self, tool_name):
        oracle = _oracle(tool_name)
        production = run_campaign(
            make_tool(tool_name, DEMO_SOURCE, "demo"), N, SEED,
            keep_records=True,
        )
        assert _records_key(production) == _records_key(oracle)
        _assert_equivalent(production, oracle)

    # The tier-1 smoke slice of the equivalence matrix: two real
    # workloads, every tool, production vs oracle record for record.
    @pytest.mark.parametrize("workload", ["EP", "CG"])
    def test_workload_smoke(self, workload):
        divergence = check_workload_equivalence(workload, n=6)
        assert divergence is None, divergence.describe()


def _shards(tool, size):
    """The cell's indices cut into trigger-contiguous shards, the way the
    parallel runner and the dist coordinator cut leases."""
    order = [i for _, i in resolve_trigger_order(tool, SEED, range(N))]
    return [order[lo:lo + size] for lo in range(0, N, size)]


class TestTimelineReuse:
    """One scheduler serves every shard of a cell: the first batch records
    the golden timeline, later batches replay only their trigger window —
    and nothing about the records may depend on how the cell was cut or in
    which order the shards arrived."""

    @pytest.mark.parametrize("model", MODEL_ORDER)
    @pytest.mark.parametrize("tool_name", sorted(TOOL_CLASSES))
    def test_shards_in_any_order_equal_one_batch(self, tool_name, model):
        if model == "opcode" and not TOOL_CLASSES[tool_name].supports_opcode_faults:
            pytest.skip("IR-level tools cannot corrupt instruction encodings")
        tool = make_tool(tool_name, DEMO_SOURCE, "demo", fault_model=model)
        whole = {
            rec.index: experiment_event_fields(rec)
            for rec in TriggerScheduler(tool, N).run_batch(SEED, range(N))
        }
        assert sorted(whole) == list(range(N))
        # ... which is the reference campaign, field for field
        for want in _oracle(tool_name, model).records:
            expected = experiment_event_fields(want)
            got = dict(whole[want.index])
            for fields in (expected, got):
                fields.pop("engine")
                fields.pop("snapshot_hit")
            assert got == expected

        shards = _shards(tool, 4)
        shuffled = list(shards)
        random.Random(7).shuffle(shuffled)
        # a requeued lease lands behind windows already served
        requeued = shards[2:] + shards[:2]
        for order in (shards, shards[::-1], shuffled, requeued):
            sched = TriggerScheduler(tool, N)
            got = {}
            full_passes = 0
            for shard in order:
                for rec in sched.run_batch(SEED, shard):
                    got[rec.index] = experiment_event_fields(rec)
                assert sched.stats.experiments == len(shard)
                full_passes += sched.stats.cursor_steps == tool.profile.steps
            assert got == whole
            assert full_passes == 1, "only the first batch sweeps the whole run"

    def test_batch_stats_are_deltas_that_sum_to_the_single_batch(self):
        spec = CampaignSpec(
            workload="demo", source=DEMO_SOURCE, tool_name="REFINE", n=N,
            base_seed=SEED, keep_records=True,
        )
        single = run_slice(spec, range(N))
        contexts = SliceContexts()
        tool, _ = contexts.get(spec)
        parts = [run_slice(spec, shard, contexts) for shard in _shards(tool, 5)]
        assert len(contexts) == 1
        for key in ("experiments", "fork_hits", "rejoins", "tail_steps_saved",
                    "prefix_steps_saved", "scratch"):
            assert (
                sum(p.scheduler_stats[key] for p in parts)
                == single.scheduler_stats[key]
            ), key
        # one full pass, then windows: the golden run is not replayed per part
        steps = tool.profile.steps
        assert parts[0].scheduler_stats["cursor_steps"] == steps
        assert parts[0].scheduler_stats["sync_states"] > 0
        for part in parts[1:]:
            assert part.scheduler_stats["cursor_steps"] < steps
            assert part.scheduler_stats["sync_states"] == 0
        assert all(set(p.phase_times) == set(single.phase_times) for p in parts)
        assert sorted(
            (r.index, r.seed, r.outcome, r.steps) for p in parts for r in p.records
        ) == sorted((r.index, r.seed, r.outcome, r.steps) for r in single.records)


class TestTimelineSizedToTheCell:
    """Sync states are spaced for ``4 * isqrt(n)`` of them, n the *cell's*:
    the paper's n keeps the 128 it always had, a small campaign pays for a
    small timeline, and every executor of a cell records the same one."""

    def test_the_papers_n_is_untouched_on_every_cell(self):
        for program, source in workload_sources().items():
            for tool_name in TOOL_ORDER:
                steps = make_tool(tool_name, source, program).profile.steps
                assert GoldenTimeline.auto_interval(steps, 1068) == max(
                    MIN_SYNC_INTERVAL, steps // 128
                ), (program, tool_name)

    @pytest.mark.parametrize("tool_name", TOOL_ORDER)
    def test_a_small_cell_records_a_small_timeline(self, tool_name):
        tool = make_tool(tool_name, workload_sources()["lulesh"], "lulesh")
        sched = TriggerScheduler(tool, 24)
        assert sum(1 for _ in sched.run_batch(SEED, range(24))) == 24
        assert sched.stats.sync_states == len(sched._timeline.sync_states)
        assert 10 <= sched.stats.sync_states <= 17  # the entry + 4 * isqrt(24)

    @staticmethod
    def _intervals_of_two_executors(spec):
        """One cell, two executors that never see the same lease size or
        order: the spacing each one's timeline was recorded at."""
        tool = spec.make_tool()
        order = [
            i for _, i in
            resolve_trigger_order(tool, spec.base_seed, range(spec.n))
        ]
        mine, theirs = SliceContexts(), SliceContexts()
        for lo in (60, 20, 40):  # leases of four, out of order
            run_slice(spec, order[lo:lo + 4], mine)
        run_slice(spec, order[100:171], theirs)  # one lease of 71
        run_slice(spec, order[:3], theirs)
        return [
            contexts.get(spec)[1]._timeline.interval
            for contexts in (mine, theirs)
        ], tool.profile.steps

    def test_every_executor_of_a_cell_agrees_on_the_interval(self, tmp_path):
        spec = CampaignSpec(
            workload="EP", source=workload_sources()["EP"],
            tool_name="REFINE", n=320,
        )
        (mine, theirs), steps = self._intervals_of_two_executors(spec)
        assert mine == theirs == GoldenTimeline.auto_interval(steps, 320)
        assert mine > GoldenTimeline.auto_interval(steps, 1068)
        # ... and so does the inline executor, which sees the cell whole
        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as log:
            run_cell(spec, events=log)
        (finish,) = [
            e for e in read_events(log_path) if e["event"] == "campaign_finish"
        ]
        assert finish["scheduler"]["sync_states"] == len(range(0, steps, mine))

    def test_planted_interval_from_the_batch_size_is_caught(self, monkeypatch):
        """The fault this class exists for: a scheduler that sizes its
        timeline to whatever batch it happens to be handed first."""
        real = TriggerScheduler._record_timeline

        def sized_to_the_batch(self):
            cell_n, self.n = self.n, self.stats.experiments
            try:
                return real(self)
            finally:
                self.n = cell_n

        monkeypatch.setattr(
            TriggerScheduler, "_record_timeline", sized_to_the_batch
        )
        spec = CampaignSpec(
            workload="EP", source=workload_sources()["EP"],
            tool_name="REFINE", n=320,
        )
        (mine, theirs), _ = self._intervals_of_two_executors(spec)
        assert mine != theirs

    # Coarser timelines change where tails rejoin, never what they compute:
    # production (whole and sharded) vs the oracle, record for record, at
    # perfbench's cold n — with rejoins actually happening.
    @pytest.mark.parametrize("workload", ["EP", "DC", "lulesh"])
    def test_small_cells_equal_the_oracle(self, workload):
        self._equal_the_oracle_with_rejoins(workload, 24)

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", ["EP", "DC", "lulesh"])
    def test_mid_sized_cells_equal_the_oracle(self, workload):
        self._equal_the_oracle_with_rejoins(workload, 320)

    @staticmethod
    def _equal_the_oracle_with_rejoins(workload, n):
        divergence = check_workload_equivalence(workload, n=n)
        assert divergence is None, divergence.describe()
        source = workload_sources()[workload]
        for tool_name in TOOL_ORDER:
            sched = TriggerScheduler(make_tool(tool_name, source, workload), n)
            assert sum(1 for _ in sched.run_batch(DEFAULT_SEED, range(n))) == n
            assert sched.stats.rejoins > 0, tool_name


@pytest.mark.slow
class TestFullEquivalenceMatrix:
    """The paper-scale 14-workload x 3-tool matrix, production vs oracle
    (CI's one equivalence step)."""

    @pytest.mark.parametrize("workload", sorted(dict(workload_sources())))
    def test_workload(self, workload):
        divergence = check_workload_equivalence(workload, n=12)
        assert divergence is None, divergence.describe()


class TestTelemetry:
    def test_finish_event_carries_schedule_phases_and_stats(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log = EventLog(log_path)
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        run_campaign(tool, N, SEED, events=log)
        log.close()
        events = read_events(log_path)
        finish = [e for e in events if e["event"] == "campaign_finish"]
        assert len(finish) == 1
        assert finish[0]["schedule"] == "trigger"
        phases = finish[0]["phases"]
        assert set(phases) == {
            "translate_s", "prefix_s", "fork_s", "tail_s", "classify_s"
        }
        scheduler = finish[0]["scheduler"]
        assert scheduler["experiments"] == N
        assert scheduler["forks"] >= 1
        stats = [e for e in events if e["event"] == "scheduler_stats"]
        assert stats, "scheduler_stats events missing"
        # Sequential scheduler_stats are cumulative: the last one matches
        # the totals the finish event reports.
        assert all(
            stats[-1][k] == scheduler[k] for k in scheduler
        )


class _Kill(Exception):
    """Injected 'job killed' signal raised from a progress callback."""


class TestCheckpointResume:
    def test_kill_and_resume_trigger_order(self, tmp_path):
        """A campaign killed mid-flight resumes from the completed-index
        set — experiments complete in trigger order, so that set is no
        index prefix — and finishes bit-identical to the oracle."""
        path = tmp_path / "c.json"
        killed_after = N // 3
        done_at_kill = []

        def _bomb(done, total):
            if done >= killed_after:
                done_at_kill.append(done)
                raise _Kill

        with pytest.raises(_Kill):
            run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"),
                N, SEED, keep_records=True,
                checkpoint_path=path, checkpoint_every=4, progress=_bomb,
            )
        assert path.exists()

        log_path = tmp_path / "events.jsonl"
        with EventLog(log_path) as log:
            resumed = run_campaign(
                make_tool("REFINE", DEMO_SOURCE, "demo"),
                N, SEED, keep_records=True, checkpoint_path=path, events=log,
            )
        start = [
            e for e in read_events(log_path) if e["event"] == "campaign_start"
        ]
        assert start[0]["resumed"] == done_at_kill[0]
        assert _records_key(resumed) == _records_key(_oracle())
        _assert_equivalent(resumed, _oracle())

    def test_resume_across_schedules(self, tmp_path):
        """A checkpoint left by a version that ran in index order — its
        completed set an index prefix, its records from-scratch ones — is
        finished in trigger order and still adds up to the oracle."""
        from repro.campaign import CampaignCheckpoint, save_checkpoint
        from repro.campaign.cell import _fresh_result

        path = tmp_path / "c.json"
        tool = make_tool("REFINE", DEMO_SOURCE, "demo")
        partial = _fresh_result(tool, N)
        for record in _oracle().records[:N // 2]:
            partial.add(record, keep_record=True)
        save_checkpoint(
            CampaignCheckpoint(
                workload="demo", tool="REFINE", n=N, base_seed=SEED,
                keep_records=True, completed=set(range(N // 2)),
                partial=partial, fault_model="single-bit",
            ),
            path,
        )
        resumed = run_campaign(
            tool, N, SEED, keep_records=True, checkpoint_path=path
        )
        assert [r.engine for r in resumed.records] == (
            ["reference"] * (N // 2) + ["fast"] * (N // 2)
        )
        assert _records_key(resumed) == _records_key(_oracle())
        _assert_equivalent(resumed, _oracle())


class TestParallelEquivalence:
    def test_parallel_trigger_bit_identical(self):
        sequential = run_campaign(
            make_tool("REFINE", DEMO_SOURCE, "demo"), N, SEED,
            keep_records=True,
        )
        parallel = run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", N, workers=2, base_seed=SEED,
            keep_records=True,
        )
        assert _records_key(parallel) == _records_key(sequential)
        assert result_to_dict(parallel)["records"] == (
            result_to_dict(sequential)["records"]
        )
        _assert_equivalent(parallel, _oracle())

    def test_parallel_compiles_once_per_process(self, tmp_path, monkeypatch):
        """The tasks a worker leases of one campaign share its compiled tool
        (and golden timeline) instead of building a fresh one each."""
        import multiprocessing
        import os

        import repro.fi.tools as tools

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the counting patch reaches worker processes by fork")
        log = tmp_path / "compiles.log"
        real = tools.compile_minic

        def counting(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return real(*args, **kwargs)

        monkeypatch.setattr(tools, "compile_minic", counting)
        events = tmp_path / "events.jsonl"
        with EventLog(events) as sink:
            run_campaign_parallel(
                "REFINE", DEMO_SOURCE, "demo", N, workers=2, base_seed=SEED,
                chunk_size=2, events=sink,
            )
        pids = log.read_text().split()
        assert len(pids) == len(set(pids)) <= 3  # parent + two workers
        tasks = [
            e for e in read_events(events)
            if e["event"] == "scheduler_stats" and "task" in e
        ]
        assert len(tasks) == N // 2
        steps = make_tool("REFINE", DEMO_SOURCE, "demo").profile.steps
        # one full golden pass per worker, windows for the rest
        assert sum(e["cursor_steps"] == steps for e in tasks) <= 2

    def test_parallel_trigger_finish_event_aggregates(self, tmp_path):
        log_path = tmp_path / "events.jsonl"
        log = EventLog(log_path)
        run_campaign_parallel(
            "REFINE", DEMO_SOURCE, "demo", N, workers=2, base_seed=SEED,
            events=log,
        )
        log.close()
        events = read_events(log_path)
        finish = [e for e in events if e["event"] == "cell_finish"][0]
        assert finish["schedule"] == "trigger"
        assert finish["scheduler"]["experiments"] == N
        task_stats = [
            e for e in events
            if e["event"] == "scheduler_stats" and "task" in e
        ]
        # Per-task stats are each task's own; they sum to the totals.
        assert sum(e["experiments"] for e in task_stats) == N
