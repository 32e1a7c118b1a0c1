"""Tests for the command-line entry points."""

from pathlib import Path

import pytest

from repro.cli import campaign_main, compile_main
from repro.resultsdb.cli import main as db_main


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(
        """
        double g[8];
        int main() {
          for (int i = 0; i < 8; i = i + 1) { g[i] = (double)i; }
          double s = 0.0;
          for (int i = 0; i < 8; i = i + 1) { s = s + g[i]; }
          print_double(s);
          return 0;
        }
        """
    )
    return str(path)


class TestCompileMain:
    def test_plain_compile(self, source_file, capsys):
        assert compile_main([source_file]) == 0
        out = capsys.readouterr().out
        assert "_main:" in out
        assert "push rbp" in out

    def test_opt_level_flag(self, source_file, capsys):
        assert compile_main([source_file, "-O", "O0"]) == 0
        out = capsys.readouterr().out
        # O0 keeps every local in memory: lots of frame traffic.
        assert "rbp -" in out or "rbp +" in out

    def test_refine_instrumentation(self, source_file, capsys):
        assert compile_main([source_file, "--fi", "true"]) == 0
        out = capsys.readouterr().out
        assert "fi_check" in out

    def test_expanded_fi_blocks(self, source_file, capsys):
        assert (
            compile_main([source_file, "--fi", "true", "--expand-fi"]) == 0
        )
        out = capsys.readouterr().out
        assert ".PreFI:" in out and ".SetupFI:" in out

    def test_llfi_instrumentation(self, source_file, capsys):
        assert (
            compile_main([source_file, "--fi", "true", "--fi-tool", "llfi"])
            == 0
        )
        out = capsys.readouterr().out
        assert "__fi_inject" in out


class TestCampaignMain:
    def test_csv_output(self, capsys):
        rc = campaign_main(
            ["-n", "8", "-w", "DC", "-t", "REFINE,PINFI", "-q"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert lines[0].startswith("workload,tool,")
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert int(fields[3]) + int(fields[4]) + int(fields[5]) == 8


    def test_workers_store_what_inline_stores(self, tmp_path, capsys):
        """``-j 2`` runs each cell on two service workers: its CSV and its
        results-store rows are ``-j 1``'s, and the live progress line counts
        every experiment once."""
        import sqlite3

        tables = {
            "campaigns": "workload, tool, n, base_seed, total_candidates, "
            "golden_output, total_cycles, total_steps, source, schedule, "
            "fault_model",
            "runs": "*", "faults": "*", "tallies": "*",
        }
        seen = {}
        for j in ("1", "2"):
            db = tmp_path / f"j{j}.sqlite"
            assert campaign_main([
                "-w", "EP", "-t", "REFINE,PINFI", "-n", "8", "-j", j,
                "--events", str(tmp_path / f"j{j}.jsonl"), "--db", str(db),
            ]) == 0
            out, err = capsys.readouterr()
            progress = [line for line in err.splitlines() if "/8 (" in line]
            assert [line.split(" (")[0] for line in progress] == [
                "# EP/REFINE: 8/8", "# EP/PINFI: 8/8",
            ]
            with sqlite3.connect(db) as conn:
                rows = {
                    table: sorted(conn.execute(
                        f"SELECT {columns} FROM {table}"
                    ))
                    for table, columns in tables.items()
                }
            assert len(rows["runs"]) == 16
            seen[j] = out, rows
        assert seen["2"] == seen["1"]

    def test_workers_below_one_is_usage_error(self, capsys):
        for j in ("0", "-3"):
            assert campaign_main(["-n", "2", "-w", "EP", "-j", j]) == 2
            assert "-j must be >= 1" in capsys.readouterr().err


class TestReportMain:
    """``refine-campaign --db``, then ``refine-db``: ``query`` shows the
    tables on the terminal, ``report`` writes all three serialisations."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("report") / "run.sqlite")
        assert campaign_main(["-n", "8", "-w", "DC", "-q", "--db", path]) == 0
        return path

    def test_table5_report(self, store, tmp_path, capsys):
        capsys.readouterr()
        assert db_main(["query", store]) == 0
        printed = capsys.readouterr().out
        assert "Chi-squared test results" in printed
        assert db_main(["report", store, str(tmp_path)]) == 0
        assert printed == (tmp_path / "report.md").read_text()

    def test_figure5_report(self, store, tmp_path):
        assert db_main(["report", store, str(tmp_path)]) == 0
        for name in ("report.md", "index.html"):
            assert "normalized to PINFI" in (tmp_path / name).read_text()
        assert (tmp_path / "report.json").exists()


class TestOptMain:
    def test_minic_to_optimized_ir(self, source_file, capsys):
        from repro.cli import opt_main

        assert opt_main([source_file, "--minic", "-O", "O2"]) == 0
        out = capsys.readouterr().out
        assert "define i64 @main()" in out
        assert "phi" in out  # mem2reg promoted the loop variables

    def test_ir_text_roundtrip_through_cli(self, tmp_path, capsys):
        from repro.cli import opt_main

        ir_file = tmp_path / "input.ll"
        ir_file.write_text(
            """
            define i64 @main() {
            entry:
              %x = add i64 20, 22
              ret i64 %x
            }
            """
        )
        assert opt_main([str(ir_file), "-O", "O1", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "ret i64 42" in out  # constant-folded

    def test_llfi_flag(self, source_file, capsys):
        from repro.cli import opt_main

        assert opt_main([source_file, "--minic", "--llfi"]) == 0
        out = capsys.readouterr().out
        assert "__fi_inject" in out


class TestVersionFlag:
    @pytest.mark.parametrize(
        "main,prog",
        [
            (campaign_main, "refine-campaign"),
            (compile_main, "refine-compile"),
            (db_main, "refine-db"),
        ],
    )
    def test_version_exits_zero_and_prints(self, main, prog, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"{prog} {__version__}"

    def test_opt_and_worker_report_versions_too(self, capsys):
        from repro import __version__
        from repro.cli import opt_main, worker_main

        for main, prog in (
            (opt_main, "refine-opt"), (worker_main, "refine-worker")
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(["--version"])
            assert excinfo.value.code == 0
            assert capsys.readouterr().out.strip() == f"{prog} {__version__}"


class TestExitCodes:
    """Usage problems exit 2; campaign/run failures exit 1."""

    def test_unknown_workload_is_usage_error(self, capsys):
        assert campaign_main(["-w", "nope", "-n", "2"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_bad_sample_count_is_usage_error(self, capsys):
        assert campaign_main(["-w", "CG", "-n", "0"]) == 2

    def test_checkpoint_mismatch_is_campaign_failure(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt")
        assert campaign_main(
            ["-w", "CG", "-t", "REFINE", "-n", "2", "-q",
             "--checkpoint-dir", ckpt]
        ) == 0
        capsys.readouterr()
        # Same checkpoint dir, different campaign size: refuses to resume.
        assert campaign_main(
            ["-w", "CG", "-t", "REFINE", "-n", "3", "-q",
             "--checkpoint-dir", ckpt]
        ) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("prog, flag", [
        ("refine-campaign", "--engine reference"),
        ("refine-campaign", "--schedule index"),
        ("refine-campaign", "--snapshot-interval 0"),
        ("refine-campaign", "--no-snapshot"),
        ("refine-campaign", "--dist 127.0.0.1:0"),
        ("refine-campaign", "--lease-timeout 60"),
        ("refine-worker", "--snapshot-dir snaps"),
        ("refine-worker", "--no-snapshot"),
        ("refine-fuzz", "--snapshot-interval 0"),
        ("refine-fuzz", "--check-engines"),
        ("refine-fuzz", "--check-schedules"),
    ])
    def test_removed_flags_are_usage_errors(self, prog, flag, capsys):
        """How a campaign executes stopped being a choice, and so did who
        coordinates a distributed one (``refine-service serve``); the flags
        that chose are gone without replacement, and say so the argparse
        way."""
        from repro.cli import fuzz_main, worker_main

        main, positional = {
            "refine-campaign": (campaign_main, []),
            "refine-worker": (worker_main, ["127.0.0.1:9100"]),
            "refine-fuzz": (fuzz_main, []),
        }[prog]
        with pytest.raises(SystemExit) as exit_info:
            main(positional + flag.split())
        assert exit_info.value.code == 2
        assert (
            f"{prog}: error: unrecognized arguments: {flag}"
            in capsys.readouterr().err
        )

    def test_repro_engine_in_the_environment_changes_nothing(
        self, monkeypatch, capsys
    ):
        argv = ["-n", "6", "-w", "DC", "-t", "REFINE", "-q"]
        assert campaign_main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_ENGINE", "reference")
        assert campaign_main(argv) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("flag", [
        "-j 2", "--checkpoint-dir ck", "--events ev.jsonl", "--db run.sqlite",
    ])
    def test_submit_refuses_what_only_a_local_run_reads(self, flag, capsys):
        """Refused before any connection is made (nothing listens on the
        address): a submitted campaign runs on the service's workers,
        checkpoints, events and database."""
        argv = ["-w", "CG", "-t", "REFINE", "-n", "2",
                "--submit", "127.0.0.1:1", *flag.split()]
        assert campaign_main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {flag.split()[0]} is not read with --submit" in err

    def test_watch_without_submit_is_usage_error(self, capsys):
        assert campaign_main(["-w", "CG", "-t", "REFINE", "-n", "2",
                              "--watch"]) == 2
        assert "--watch needs --submit" in capsys.readouterr().err

    def test_service_refuses_a_chunk_size_below_one(self, tmp_path, capsys):
        from repro.cli import service_main

        assert service_main(["serve", "--listen", "127.0.0.1:0", "-q",
                             "--queue", str(tmp_path / "q.sqlite"),
                             "--chunk-size", "0"]) == 1
        assert "chunk_size must be >= 1" in capsys.readouterr().err

    def test_worker_bad_address_is_usage_error(self, capsys):
        from repro.cli import worker_main

        assert worker_main(["not-an-address"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_worker_bad_procs_is_usage_error(self, capsys):
        """A worker is one process: ``-j`` is no option of it any more."""
        from repro.cli import worker_main

        with pytest.raises(SystemExit) as exc:
            worker_main(["127.0.0.1:9100", "-j", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -j" in capsys.readouterr().err

    def test_worker_unreachable_coordinator_fails(self, capsys):
        import socket

        from repro.cli import worker_main

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        # The CLI's default reconnect window would sit in backoff for five
        # minutes; a worker told not to wait fails on the first refusal.
        assert worker_main(
            [f"127.0.0.1:{port}", "--reconnect-window", "0"]
        ) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err


class TestDistCLI:
    def test_coordinator_and_worker_processes(self, tmp_path, capsys):
        """Serving a campaign to worker processes is four commands — serve,
        worker, submit --watch, drain — and its CSV is the inline run's,
        byte for byte."""
        import os
        import re
        import subprocess
        import sys

        import repro

        campaign = ["-w", "CG", "-t", "REFINE", "-n", "6", "-q"]
        assert campaign_main(campaign) == 0
        inline = capsys.readouterr().out
        assert re.search(r"^CG,REFINE,6,", inline, re.MULTILINE)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])

        def command(main, *argv):
            return [
                sys.executable, "-c",
                f"import sys; from repro.cli import {main}; "
                f"sys.exit({main}(sys.argv[1:]))", *argv,
            ]

        service = subprocess.Popen(
            command("service_main", "serve", "--listen", "127.0.0.1:0",
                    "--queue", str(tmp_path / "queue.sqlite")),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env,
        )
        worker = None
        try:
            address = None
            for line in service.stderr:
                match = re.search(r"listening on (127\.0\.0\.1:\d+)", line)
                if match:
                    address = match.group(1)
                    break
            assert address is not None, "service never announced its port"
            worker = subprocess.Popen(
                command("worker_main", address),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=env,
            )
            submit = subprocess.run(
                command("campaign_main", *campaign, "--submit", address,
                        "--watch"),
                capture_output=True, text=True, env=env, timeout=300,
            )
            drain = subprocess.run(
                command("service_main", "drain", address),
                capture_output=True, text=True, env=env, timeout=60,
            )
            _, worker_err = worker.communicate(timeout=60)
            service.communicate(timeout=60)
        finally:
            service.kill()
            if worker is not None:
                worker.kill()
        assert submit.returncode == 0, submit.stderr
        assert submit.stdout == inline
        assert drain.returncode == 0, drain.stderr
        assert worker.returncode == 0, worker_err
        assert "ran 6 experiments" in worker_err
        assert service.returncode == 0
