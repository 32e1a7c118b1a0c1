"""API integrity: every name in each package's ``__all__`` must resolve,
and the top-level convenience exports must exist.

Guards against refactors silently breaking the documented public surface
(docs/api.md).
"""

import dataclasses
import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.ir",
    "repro.irpasses",
    "repro.frontend",
    "repro.backend",
    "repro.machine",
    "repro.fi",
    "repro.campaign",
    "repro.snapshot",
    "repro.engine",
    "repro.testing",
    "repro.dist",
    "repro.service",
    "repro.resultsdb",
    "repro.stats",
    "repro.workloads",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_has_docstring(package):
    module = importlib.import_module(package)
    assert module.__doc__ and module.__doc__.strip()


def test_top_level_convenience_exports():
    import repro

    for name in ("RefineTool", "LLFITool", "PinfiTool", "run_campaign",
                 "run_matrix", "compile_minic", "execute", "load_binary",
                 "FIConfig", "Outcome", "classify"):
        assert hasattr(repro, name)


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_cli_entry_points_importable():
    from repro.cli import campaign_main, compile_main, opt_main
    from repro.resultsdb.cli import main as db_main

    for fn in (campaign_main, compile_main, opt_main, db_main):
        assert callable(fn)


def test_public_modules_have_docstrings_on_public_functions():
    """Spot-check: documented-API functions carry docstrings."""
    from repro import campaign, fi, stats

    for obj in (
        campaign.run_campaign,
        campaign.run_matrix,
        campaign.run_campaign_parallel,
        campaign.save_matrix,
        fi.refine_instrument,
        fi.llfi_instrument,
        fi.analyze_site,
        stats.leveugle_sample_size,
        stats.chi2_contingency,
        stats.compare_tools,
    ):
        assert obj.__doc__ and obj.__doc__.strip(), obj


#: Every name that used to select how a campaign executes.  The path is no
#: longer a choice, so none may survive as a parameter or field of anything
#: public ...
REMOVED_KNOBS = {
    "engine", "schedule", "snapshot_interval", "snapshot_dir", "store_dir",
    "coarse", "use_snapshots", "cache_dir",
    # a worker's own process pool: one worker is one process on one core
    "procs", "worker_procs",
}
#: ... except where one labels what a stored record or row came from (the
#: persisted formats keep their shape), which nothing can set to choose a path.
PROVENANCE_FIELDS = {
    ("ExperimentRecord", "engine"), ("RunOutcome", "engine"),
    ("CampaignInfo", "schedule"),
}
#: ``--dist`` / ``--lease-timeout`` were refine-campaign's one-shot
#: coordinator; ``refine-service serve --lease-timeout`` is the one place
#: that setting lives (service_main is not scanned below).
REMOVED_FLAGS = (
    "--engine", "--schedule", "--snapshot-interval", "--no-snapshot",
    "--snapshot-dir", "--check-engines", "--check-schedules",
    "--dist", "--lease-timeout", "--procs",
)
REMOVED_NAMES = (
    "SnapshotEngine", "SnapshotStore", "SnapshotStats", "ReferenceEngine",
    "get_engine", "ENGINE_NAMES", "SCHEDULES", "validate_schedule",
    "resolve_interval", "check_workload_snapshot_equivalence",
    "check_workload_engine_equivalence",
    "check_workload_scheduler_equivalence",
    "Coordinator", "LocalCluster",
    # the process-pool executor: ``-j N`` is N service workers
    "run_cell_parallel", "merge_slice_parts",
)


def _parameters(obj):
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


def _knobs_of(name, obj):
    """``(owner, parameter-or-field)`` pairs of one public object."""
    found = {(name, p) for p in _parameters(obj)}
    if inspect.isclass(obj):
        if dataclasses.is_dataclass(obj):
            found |= {(name, f.name) for f in dataclasses.fields(obj)}
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and callable(member):
                found |= {(f"{name}.{attr}", p) for p in _parameters(member)}
    return found


@pytest.mark.parametrize("package", PACKAGES)
def test_no_execution_path_knob_survives(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        survivors = {
            pair for pair in _knobs_of(name, getattr(module, name))
            if pair[1] in REMOVED_KNOBS and pair not in PROVENANCE_FIELDS
        }
        assert not survivors, f"{package}: {sorted(survivors)}"
    if package != "repro.testing":  # the oracle is reachable only there
        assert not set(REMOVED_NAMES) & set(module.__all__)


def test_slice_task_and_worker_lost_their_knobs():
    # what a slice is made of today: the spec, and the function it goes to
    from repro.campaign import CampaignSpec, run_slice
    from repro.dist import Worker
    from repro.service import LocalService

    for name, obj in (
        ("CampaignSpec", CampaignSpec), ("run_slice", run_slice),
        ("Worker", Worker), ("LocalService", LocalService),
    ):
        survivors = {p for _, p in _knobs_of(name, obj)} & REMOVED_KNOBS
        assert not survivors, f"{name}: {sorted(survivors)}"


def test_no_cli_offers_a_removed_flag(capsys):
    from repro import cli

    for main in (cli.campaign_main, cli.worker_main, cli.fuzz_main):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = capsys.readouterr().out
        assert not [flag for flag in REMOVED_FLAGS if flag in text]


def test_cell_bookkeeping_has_one_copy():
    """Open / fold / checkpoint / finish of a campaign cell are written
    once, in the ledger (``repro.campaign.cell``); the runners and the
    coordinator call it.  A second call site of any of these names is a
    second copy of the bookkeeping growing back."""
    import re
    from pathlib import Path

    import repro
    import repro.campaign.parallel

    root = Path(repro.__file__).parent
    sites: dict[str, dict[str, int]] = {}
    patterns = {
        name: re.compile(rf"(?<!def )\b{name}\(")
        for name in (
            "save_checkpoint", "CampaignCheckpoint", "try_load_checkpoint",
            "experiment_event_fields", "merge_results",
        )
    }
    # the start/finish pair is named by the executor, emitted by the cell
    patterns["start/finish emit"] = re.compile(
        r'emit\(\s*"(?:campaign|cell)_(?:start|finish)"'
    )
    for path in root.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for name, pattern in patterns.items():
            calls = len(pattern.findall(text))
            if calls:
                where = path.relative_to(root).as_posix()
                sites.setdefault(name, {})[where] = calls

    ledger = {"campaign/checkpoint.py", "campaign/cell.py"}
    for name in ("save_checkpoint", "CampaignCheckpoint",
                 "try_load_checkpoint"):
        assert set(sites[name]) <= ledger, (name, sites[name])
    # emitted by the ledger alone; a saved record and an imported one are
    # spelled by the same function
    assert sites["experiment_event_fields"] == {
        "campaign/cell.py": 1, "campaign/io.py": 1, "resultsdb/ingest.py": 1,
    }
    assert "start/finish emit" not in sites, sites["start/finish emit"]
    # merge_results stays public (batch aggregation); inside the package
    # only the oracle merges parts
    assert set(sites["merge_results"]) == {"testing/oracles.py"}
    for gone in ("SliceTask", "make_slice_context", "CHUNKS_PER_WORKER"):
        assert not hasattr(repro.campaign.parallel, gone)
    from repro.service import ServiceCoordinator

    assert not [
        name for name in vars(ServiceCoordinator) if "checkpoint" in name
        or name in ("_save_cell", "_finish_cell")
    ]


def test_there_is_one_coordinator():
    """A served campaign ends in the queue's state machine; nothing ends
    "the run".  The one-shot coordinator's template-method hooks, its fatal
    error, its ``wait`` and its start/finish events stay deleted, and no
    second class grows back to be un-finished by a subclass."""
    import ast
    import importlib.util
    from pathlib import Path

    import repro
    import repro.dist

    assert importlib.util.find_spec("repro.dist.local") is None
    assert importlib.util.find_spec("repro.dist.coordinator") is None
    for name in ("Coordinator", "LocalCluster"):
        assert not hasattr(repro.dist, name)

    root = Path(repro.__file__).parent
    coordinators, defs_on_a_coordinator = [], set()
    for path in root.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        for literal in ('"dist_start"', '"dist_finish"'):
            assert literal not in text, (path.name, literal)
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and node.name.endswith(
                "Coordinator"
            ):
                coordinators.append(node.name)
                defs_on_a_coordinator |= {
                    item.name for item in node.body
                    if isinstance(item, ast.FunctionDef)
                }
    assert coordinators == ["ServiceCoordinator"]
    assert not defs_on_a_coordinator & {
        "_campaign_done", "_maybe_finish_all", "_on_cell_complete",
        "_fatal", "wait", "run",
    }


def test_local_service_has_one_way_to_start_a_worker():
    """``LocalService`` workers are processes: the harness starts no thread
    (so none can take a turn on the coordinator's interpreter lock, and
    there is no second kind of worker to select) and creates processes at
    one call site, with no parameter that picks how."""
    import ast
    import inspect

    import repro.service.local as local

    tree = ast.parse(inspect.getsource(local))
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    assert not imported & {"threading", "concurrent", "_thread"}
    called = [
        getattr(node.func, "attr", getattr(node.func, "id", None))
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]
    assert called.count("Process") == 1 and "Thread" not in called
    assert set(inspect.signature(local.LocalService).parameters) == {
        "workers", "reconnect_window", "coordinator_kwargs",
    }
    assert set(inspect.signature(
        local.LocalService.start_worker
    ).parameters) == {"self", "name", "die_after"}


def test_one_way_onto_many_cores():
    """``-j N`` is N service workers.  No process pool grows back in the
    package, and a worker, having no children, leads no process group of
    its own for the harness to signal."""
    from pathlib import Path

    import repro
    import repro.service.local as local

    root = Path(repro.__file__).parent
    assert not [
        path.relative_to(root).as_posix() for path in root.rglob("*.py")
        if "ProcessPoolExecutor" in path.read_text(encoding="utf-8")
    ]
    source = Path(local.__file__).read_text(encoding="utf-8")
    assert "setpgid" not in source and "killpg" not in source


def test_engine_generates_code_in_one_place():
    """Translating a binary is the engine's only code generation: one
    ``compile(`` call site (``engine/cache.py``), none for mid-block
    entries — those are interpreted to the end of their block.  The only
    other site is the interpreter loop's (``machine/cpu.py``): the loop,
    generated once at import, and its access-logging rendering, on first
    use.  The guard that counts the calls at run time is
    ``tests/engine/test_fast_engine.py::TestOneCompilePerBinary``."""
    import re
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    call = re.compile(r"(?<![\w.])compile\(")
    sites = {
        f"{package}/{path.name}": len(call.findall(path.read_text(encoding="utf-8")))
        for package in ("machine", "engine")
        for path in (root / package).glob("*.py")
    }
    assert {name: n for name, n in sites.items() if n} == {
        "machine/cpu.py": 1, "engine/cache.py": 1,
    }


def test_the_interpreter_loop_has_source_lines():
    """Tracebacks through ``CPU._loop`` and profiles of it show its lines."""
    import linecache

    from repro.machine.cpu import CPU, LOOP_FILENAME

    code = CPU._loop.__code__
    assert code.co_filename == LOOP_FILENAME
    assert linecache.getline(LOOP_FILENAME, code.co_firstlineno).startswith("def _loop(")


def test_the_paper_tables_have_one_renderer():
    """Table 4/5/6 and Figure 4/5 are ``repro.resultsdb.report`` over a
    results store.  The second renderers PR 21 deleted — an ASCII one over
    a live matrix, a Markdown one over the summary JSON, a campaign-running
    command and script — stay deleted, and the p-value format and the
    PINFI normalisation stay written once."""
    import importlib.util
    from pathlib import Path

    import repro
    import repro.cli

    assert importlib.util.find_spec("repro.reporting") is None
    assert not hasattr(repro.cli, "report_main")
    src = Path(repro.__file__).parent
    repo = src.parent.parent
    for gone in ("scripts/render_results.py", "scripts/run_full_campaign.py"):
        assert not (repo / gone).exists(), gone
    pyproject = repo / "pyproject.toml"
    if pyproject.exists():
        assert "refine-report" not in pyproject.read_text()
    texts = {
        path.relative_to(src).as_posix(): path.read_text(encoding="utf-8")
        for path in src.rglob("*.py")
    }
    for name in ("render_table5", "render_figure5"):
        assert not [where for where, text in texts.items() if name in text], name
    for phrase in ("normalized to", "~0.00"):
        assert [where for where, text in texts.items() if phrase in text] == [
            "resultsdb/report.py"
        ], phrase


def test_run_accounting_is_scalar():
    """A run's cycles are counted as half-cycle totals, not per pc: the CPU,
    its results, its snapshots, a recorded ending and an interval's access
    sets hold no sequence with one count per instruction of the program."""
    from array import array

    import numpy as np

    from repro.campaign import make_tool
    from repro.campaign.schedule import Ending, IntervalAccess, TriggerScheduler

    from tests.conftest import DEMO_SOURCE

    tool = make_tool("PINFI", DEMO_SOURCE, "demo")
    scheduler = TriggerScheduler(tool, 24)
    list(scheduler.run_batch(1, range(24)))
    timeline = scheduler.timeline
    cpu = scheduler._cpu
    n_code = len(tool.program.code)
    gone = {"counts", "counts_attached", "attached_alias", "pcs", "executions"}
    for obj in (cpu, cpu.build_result(), timeline.ending,
                timeline.sync_states[timeline.sync_steps[-1]]):
        fields = vars(obj) if not dataclasses.is_dataclass(obj) else {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        assert not gone & set(fields), type(obj).__name__
        per_pc = [
            name for name, value in fields.items()
            if isinstance(value, (list, tuple, array, np.ndarray))
            and len(value) == n_code
        ]
        assert not per_pc, (type(obj).__name__, per_pc)
    assert isinstance(timeline.ending, Ending)
    assert IntervalAccess._fields == ("reads", "read_values", "writes", "write_values")
