"""Tests for the fuzz campaign driver and the ``refine-fuzz`` CLI."""

from __future__ import annotations

import pytest

from repro.cli import fuzz_main
from repro.errors import ReproError
from repro.testing.fuzz import FuzzStats, run_fuzz
from repro.utils.rng import derive_seed


class TestDriver:
    def test_small_campaign_passes(self, tmp_path):
        stats = run_fuzz(
            base_seed=1, count=5, artifacts_dir=tmp_path / "artifacts"
        )
        assert stats.ok
        assert stats.programs == 5
        assert stats.checks == 15  # three oracles each
        assert not (tmp_path / "artifacts").exists()  # no failures, no dir

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ReproError, match="unknown oracle"):
            run_fuzz(count=1, oracles=("nope",))

    def test_program_seeds_are_index_derived(self):
        # --start replays exactly the same programs a full run would see, so
        # any failure's one-line repro command is exact.
        assert derive_seed(1, "refine-fuzz", 65) == derive_seed(
            1, "refine-fuzz", 65
        )
        a = run_fuzz(base_seed=1, count=1, start=3, oracles=("interp",))
        assert a.ok and a.programs == 1

    def test_failure_artifacts_written(self, tmp_path, monkeypatch):
        # Break the backend so every program diverges, then check the
        # artifact layout: module, reduced module, report, replay command.
        import repro.backend.compiler as compiler
        from repro.backend.mir import Imm

        real = compiler.run_peephole

        def broken(mf):
            n = real(mf)
            for block in mf.blocks:
                for instr in block.instructions:
                    if instr.opcode == "add":
                        for i, op in enumerate(instr.operands):
                            if isinstance(op, Imm) and op.value == 1:
                                instr.operands[i] = Imm(2)
            return n

        monkeypatch.setattr(compiler, "run_peephole", broken)
        artifacts = tmp_path / "artifacts"
        stats = run_fuzz(
            base_seed=1, count=1, oracles=("interp",),
            artifacts_dir=artifacts, reduce=False,
        )
        assert not stats.ok
        (failure,) = stats.failures
        assert failure.oracle == "interp"
        assert failure.repro == (
            "refine-fuzz --seed 1 --start 0 --count 1 --oracle interp"
        )
        assert (artifacts / "interp-seed1-0.ir").exists()
        assert (artifacts / "interp-seed1-0.txt").exists()

    def test_stats_summary_mentions_failures(self):
        stats = FuzzStats(base_seed=9, programs=2, checks=2)
        assert "OK" in stats.summary()


class TestCLI:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        rc = fuzz_main([
            "--seed", "1", "--count", "2",
            "--artifacts", str(tmp_path / "a"), "-q",
        ])
        assert rc == 0

    def test_usage_errors_exit_two(self):
        assert fuzz_main(["--count", "-4"]) == 2
        assert fuzz_main(["--max-insts", "0"]) == 2

    def test_unknown_oracle_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            fuzz_main(["--oracle", "bogus"])
        assert exc.value.code == 2

    def test_single_oracle_selection(self, tmp_path):
        rc = fuzz_main([
            "--seed", "2", "--count", "1", "--oracle", "interp",
            "--artifacts", str(tmp_path / "a"), "-q",
        ])
        assert rc == 0

    def test_failure_exit_one(self, tmp_path, monkeypatch, capsys):
        import repro.backend.compiler as compiler
        from repro.backend.mir import Imm

        real = compiler.run_peephole

        def broken(mf):
            n = real(mf)
            for block in mf.blocks:
                for instr in block.instructions:
                    if instr.opcode == "add":
                        for i, op in enumerate(instr.operands):
                            if isinstance(op, Imm) and op.value == 1:
                                instr.operands[i] = Imm(2)
            return n

        monkeypatch.setattr(compiler, "run_peephole", broken)
        rc = fuzz_main([
            "--seed", "1", "--count", "1", "--oracle", "interp",
            "--artifacts", str(tmp_path / "a"), "--no-reduce", "-q",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "FAILURE" in err
        assert "replay:" in err


@pytest.mark.slow
class TestFuzzSmoke:
    """The CI fuzz gate: a fixed-seed sweep over all oracles."""

    def test_fixed_seed_sweep_is_clean(self, tmp_path):
        stats = run_fuzz(
            base_seed=1, count=200, artifacts_dir=tmp_path / "artifacts"
        )
        assert stats.ok, "\n".join(f.detail for f in stats.failures)
        assert stats.programs == 200


class TestFaultModelPass:
    """The --check-fault-models sweep: tier-1 keeps it bounded (one
    workload, two models); the nightly deep-fuzz runs all of them."""

    def test_bounded_smoke_passes(self, capsys):
        from repro.testing import check_workload_fault_model_equivalence

        divergence = check_workload_fault_model_equivalence(
            "EP", models=["multi-bit", "opcode"], n=6
        )
        assert divergence is None

    def test_bad_model_spec_is_usage_error(self, capsys):
        rc = fuzz_main([
            "--check-fault-models", "--fault-models", "bogus-model",
            "--count", "0", "-q",
        ])
        assert rc == 2
        assert "unknown fault model" in capsys.readouterr().err

    def test_fault_models_flag_implies_check(self, capsys):
        # --fault-models alone turns the sweep on (restricted to the
        # named models); bad specs still fail fast.
        rc = fuzz_main([
            "--fault-models", "no-such-model", "--count", "0", "-q",
        ])
        assert rc == 2
        assert "unknown fault model" in capsys.readouterr().err


@pytest.mark.slow
class TestWorkloadZeroInterference:
    """REFINE's core claim, checked on every registered workload."""

    def test_all_workloads(self):
        from repro.testing.oracles import check_workload_zero_interference
        from repro.workloads import workload_names

        bad = {}
        for name in workload_names():
            divergence = check_workload_zero_interference(name)
            if divergence is not None:
                bad[name] = divergence.detail
        assert not bad
