"""Command-line entry points.

* ``refine-compile`` — compile a MiniC file (optionally with REFINE or LLFI
  instrumentation) and print the assembly, like invoking the paper's
  modified Clang driver with ``-mllvm -fi=true ...``.
* ``refine-campaign`` — run a fault-injection campaign matrix and dump CSV;
  ``--submit HOST:PORT`` hands it to a running ``refine-service`` (and its
  ``refine-worker`` processes) instead of running locally.
* ``refine-worker`` — connect to a ``refine-service`` and run leased
  campaign slices; ``--reconnect-window`` rides out service restarts.
* ``refine-service`` — run the persistent campaign service (durable queue,
  per-tenant quotas, auto-validation of every drained campaign), plus
  ``status``/``list``/``cancel``/``drain`` control verbs against one.
* ``refine-fuzz`` — differential fuzzing of the compiler and the
  zero-interference property (see :mod:`repro.testing`).

Exit codes: 0 success, 1 campaign/run failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro import __version__
from repro.backend import compile_minic, format_function
from repro.backend.compiler import CompileOptions
from repro.campaign import (
    DEFAULT_CHECKPOINT_EVERY,
    CampaignSpec,
    CampaignStats,
    EventLog,
    Outcome,
    matrix_to_csv,
    run_cells,
    save_matrix,
)
from repro.errors import CampaignError, DistError, ReproError
from repro.fi import FIConfig, TOOL_ORDER, llfi_instrument, refine_instrument
from repro.stats import margin_of_error
from repro.workloads import workload_sources


def _config_from_args(args) -> FIConfig:
    return FIConfig(enabled=True, funcs=args.fi_funcs, instrs=args.fi_instrs)


def _add_version(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )


class _LiveTelemetry(EventLog):
    """Event sink that optionally persists JSONL *and* renders live progress.

    Consumes the campaign event stream (see :mod:`repro.campaign.events`),
    inline (``campaign_*``) or from the service workers of ``-j N``
    (``cell_*``): one ``experiment`` event per experiment, whoever ran it.
    On a TTY the progress line updates in place; otherwise a summary line
    is printed periodically and at completion.
    """

    #: non-TTY fallback: print one line every this many experiments.
    PRINT_EVERY = 100

    def __init__(self, path=None, quiet=False, out=None, sink=None):
        super().__init__(path=path)
        self._quiet = quiet
        self._out = out if out is not None else sys.stderr
        self._tty = getattr(self._out, "isatty", lambda: False)()
        self._stats: CampaignStats | None = None
        self._label = ""
        self._printed = 0
        #: optional write-through consumer of the full event stream (e.g.
        #: a repro.resultsdb.DatabaseSink behind --db)
        self._sink = sink

    def emit(self, event, **fields) -> None:
        super().emit(event, **fields)
        if self._sink is not None:
            self._sink.emit(event, **fields)
        if self._quiet:
            return
        if event in ("campaign_start", "cell_start"):
            self._label = f"{fields['workload']}/{fields['tool']}"
            self._stats = CampaignStats(
                fields["n"],
                done=fields.get("resumed", 0),
                counts={
                    Outcome(o): k
                    for o, k in fields.get("resumed_counts", {}).items()
                },
            )
            self._printed = 0
            if fields.get("resumed"):
                print(
                    f"# {self._label}: resumed {fields['resumed']}/"
                    f"{fields['n']} experiments from checkpoint",
                    file=self._out,
                )
        elif event == "experiment" and self._stats is not None:
            self._stats.note(Outcome(fields["outcome"]))
            self._render()
        elif event == "scheduler_stats" and self._stats is not None:
            # The inline runner's events are cumulative for the campaign;
            # a worker's (tagged ``task``) are its task's own and accumulate.
            self._stats.note_scheduler(fields, accumulate="task" in fields)
        elif (
            event in ("campaign_finish", "cell_finish")
            and self._stats is not None
        ):
            self._render(final=True)
            self._print_phases(fields)
            self._stats = None

    def _print_phases(self, fields: dict) -> None:
        """One per-phase wall-clock line at campaign completion (the
        breakdown behind the ``phases`` event field)."""
        phases = fields.get("phases")
        if not phases or not any(phases.values()):
            return
        label = f"{fields.get('workload', '?')}/{fields.get('tool', '?')}"
        bits = " ".join(
            f"{name.removesuffix('_s')} {phases.get(name, 0.0):.2f}s"
            for name in (
                "translate_s", "prefix_s", "fork_s", "tail_s", "classify_s"
            )
        )
        print(f"# {label} phases: {bits}", file=self._out)

    def _render(self, final: bool = False) -> None:
        line = f"# {self._label}: {self._stats.render()}"
        if self._tty:
            end = "\n" if final else ""
            print(f"\r\x1b[2K{line}", end=end, file=self._out, flush=True)
        elif final or self._stats.done - self._printed >= self.PRINT_EVERY:
            self._printed = self._stats.done
            print(line, file=self._out, flush=True)


def _install_drain_handler(coordinator, grace_s: float) -> None:
    """SIGTERM/SIGINT -> graceful drain: refuse new leases, let in-flight
    tasks finish (up to ``grace_s``), checkpoint, then stop.  A second
    signal falls through to the default handler (immediate death)."""
    import signal

    def handler(signum, frame):
        print(
            f"# refine-service: caught {signal.Signals(signum).name}, "
            f"draining (grace {grace_s:.0f}s; checkpoints will be saved) — "
            f"signal again to abort",
            file=sys.stderr,
        )
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        coordinator.request_drain(grace_s)

    try:
        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)
    except ValueError:
        pass  # not the main thread (tests drive drain directly)


def compile_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-compile",
        description="Compile MiniC to sx64 assembly, optionally with FI "
        "instrumentation (paper Table 2 flags).",
    )
    _add_version(parser)
    parser.add_argument("file", help="MiniC source file ('-' for stdin)")
    parser.add_argument("-O", dest="opt", default="O2",
                        choices=["O0", "O1", "O2"])
    parser.add_argument("--fi", default="false", choices=["true", "false"])
    parser.add_argument("--fi-tool", default="refine",
                        choices=["refine", "llfi"])
    parser.add_argument("--fi-funcs", default="*")
    parser.add_argument("--fi-instrs", default="all",
                        choices=["stack", "arithm", "mem", "all"])
    parser.add_argument("--expand-fi", action="store_true",
                        help="expand REFINE fi_check sites into the "
                        "PreFI/SetupFI/FI/PostFI block form (Figure 2)")
    args = parser.parse_args(argv)

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    options = CompileOptions(opt_level=args.opt)
    if args.fi == "true":
        config = _config_from_args(args)
        if args.fi_tool == "refine":
            options.mir_pass = lambda b: refine_instrument(b, config)
        else:
            options.ir_pass = lambda m: llfi_instrument(m, config)
    binary = compile_minic(source, "cli", options)
    for mf in binary.functions.values():
        print(format_function(mf, expand_fi_checks=args.expand_fi))
        print()
    return 0


def campaign_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-campaign",
        description="Run a fault-injection campaign over the paper's "
        "workloads and tools; prints CSV results.  With --submit the "
        "campaign is handed to a running refine-service (and its "
        "refine-worker processes) instead of running locally.",
    )
    _add_version(parser)
    parser.add_argument("-n", "--samples", type=int, default=120,
                        help="experiments per (workload, tool); the paper "
                        "uses 1068 (<=3%% error at 95%% confidence)")
    parser.add_argument("-w", "--workloads", default="all",
                        help="comma-separated workload names or 'all'")
    parser.add_argument("-t", "--tools", default="all",
                        help="comma-separated tools (LLFI,REFINE,PINFI)")
    parser.add_argument("--seed", type=int, default=0x5EED0EF1)
    parser.add_argument("--fi-funcs", default="*")
    parser.add_argument("--fi-instrs", default="all",
                        choices=["stack", "arithm", "mem", "all"])
    parser.add_argument("-j", "--workers", type=int, default=1,
                        metavar="K",
                        help="run each cell on K service workers on this "
                        "host (1 = inline; results are identical)")
    parser.add_argument("--submit", metavar="HOST:PORT", default=None,
                        help="submit this campaign to a running "
                        "refine-service instead of executing it; prints the "
                        "campaign id (add --watch to wait for results)")
    parser.add_argument("--watch", action="store_true",
                        help="with --submit: poll until the campaign "
                        "finishes, then print its CSV like a local run")
    parser.add_argument("--tenant", default="default",
                        help="tenant to submit as (per-tenant quotas apply)")
    parser.add_argument("--priority", type=int, default=0,
                        help="queue priority (higher is admitted first; "
                        "never preempts a running campaign)")
    parser.add_argument("--keep-records", action="store_true",
                        help="keep per-experiment fault records "
                        "(persisted by --save)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="write per-cell checkpoints here; re-running "
                        "the same command resumes unfinished cells")
    parser.add_argument("--checkpoint-every", type=int,
                        default=DEFAULT_CHECKPOINT_EVERY,
                        help="experiments between checkpoint writes")
    parser.add_argument("--fault-model", default="single-bit",
                        metavar="NAME[:PARAMS]",
                        help="fault model to inject (see refine-db/docs): "
                        "single-bit (paper default), multi-bit[:k=K,"
                        "adjacent=1], memory-cell, cache-line, opcode, "
                        "stuck-at[:value=V,dwell=N]; append ',weighted=1' "
                        "for residency-weighted trigger sampling")
    parser.add_argument("--events", default=None,
                        help="append JSONL telemetry events to this file")
    parser.add_argument("--save", default=None,
                        help="also save the full campaign matrix (JSON)")
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="write results through to a SQLite store "
                        "(created if missing; see refine-db)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print("refine-campaign: error: -j must be >= 1", file=sys.stderr)
        return 2
    if args.submit is not None:
        # what only a local run reads: the service has its own
        local_only = [flag for flag, given in (
            ("-j", args.workers > 1), ("--checkpoint-dir", args.checkpoint_dir),
            ("--events", args.events), ("--db", args.db),
        ) if given]
        if local_only:
            print(f"refine-campaign: error: {local_only[0]} is not read with "
                  "--submit (the service keeps its own workers, "
                  "checkpoints, events and database)", file=sys.stderr)
            return 2
    elif args.watch:
        print("refine-campaign: error: --watch needs --submit", file=sys.stderr)
        return 2

    sources = workload_sources()
    if args.workloads != "all":
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in sources]
        if unknown:
            print(
                f"refine-campaign: error: unknown workload(s) "
                f"{', '.join(unknown)}; choose from "
                f"{', '.join(sorted(sources))}",
                file=sys.stderr,
            )
            return 2
        sources = {w: sources[w] for w in wanted}
    tools = list(TOOL_ORDER) if args.tools == "all" else args.tools.split(",")

    from repro.fi.models import parse_fault_model

    try:
        # Canonicalize early so checkpoints, events and the DB all carry
        # the same spec string regardless of how the user spelled it.
        args.fault_model = parse_fault_model(args.fault_model).spec
    except CampaignError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 2

    # The campaign, said once: what every cell's spec — and a submitted
    # request, which names its workloads instead of carrying them — shares.
    campaign = {
        "n": args.samples, "base_seed": args.seed,
        "keep_records": args.keep_records, "fi_funcs": args.fi_funcs,
        "fi_instrs": args.fi_instrs, "fault_model": args.fault_model,
    }
    if args.submit is not None:
        return _submit_to_service(
            args, {"workloads": list(sources), "tools": tools, **campaign}
        )

    try:
        moe = margin_of_error(args.samples)
    except ReproError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(
            f"# campaign: n={args.samples} per (workload, tool) — margin of "
            f"error {moe * 100:.1f}% at 95% confidence",
            file=sys.stderr,
        )

    db = sink = None
    if args.db is not None:
        from repro.resultsdb import DatabaseSink, ResultsDB

        db = ResultsDB(args.db)
        sink = DatabaseSink(db, source="refine-campaign")
    telemetry = _LiveTelemetry(path=args.events, quiet=args.quiet, sink=sink)
    try:
        specs = [
            CampaignSpec(
                workload=workload, source=source, tool_name=tool_name,
                **campaign,
            )
            for workload, source in sources.items()
            for tool_name in tools
        ]
        matrix = run_cells(
            specs, args.workers,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            events=telemetry,
        )
    except CampaignError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 1
    finally:
        telemetry.close()
        if sink is not None:
            sink.close()
        if db is not None:
            db.close()
    if args.save:
        save_matrix(matrix, args.save)
    print(matrix_to_csv(matrix))
    return 0


def _submit_to_service(args, request: dict) -> int:
    """``refine-campaign --submit HOST:PORT [--watch]``: enqueue the
    campaign on a running refine-service instead of executing it here."""
    from repro.campaign.io import result_from_dict
    from repro.dist import parse_address
    from repro.errors import ServiceError
    from repro.service import ServiceClient

    try:
        host, port = parse_address(args.submit)
    except DistError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 2
    client = ServiceClient(host, port)
    try:
        cid = client.submit(
            request, tenant=args.tenant, priority=args.priority
        )
    except DistError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(
            f"# submitted campaign {cid} to {host}:{port} "
            f"(tenant {args.tenant!r}, priority {args.priority})",
            file=sys.stderr,
        )
    if not args.watch:
        print(cid)
        return 0

    last_line = [""]

    def progress(status: dict) -> None:
        if args.quiet:
            return
        state = status["info"]["state"]
        bits = [f"# campaign {cid}: {state}"]
        done = total = 0
        for cell in status.get("progress", {}).values():
            if cell.get("completed", 0) >= 0 and "n" in cell:
                done += cell["completed"]
                total += cell["n"]
        if total:
            bits.append(f"{done}/{total} experiment(s)")
        line = " ".join(bits)
        if line != last_line[0]:
            last_line[0] = line
            print(line, file=sys.stderr)

    try:
        final = client.watch(cid, timeout=None, callback=progress)
    except DistError as exc:
        print(f"refine-campaign: error: {exc}", file=sys.stderr)
        return 1
    info = final["info"]
    if info["state"] != "done":
        detail = f": {info['error']}" if info.get("error") else ""
        print(
            f"refine-campaign: campaign {cid} {info['state']}{detail}",
            file=sys.stderr,
        )
        return 1
    if info.get("validation") and not args.quiet:
        print(f"# validation: {info['validation']}", file=sys.stderr)
    try:
        fetched = client.fetch(cid)
    except ServiceError as exc:
        # Finished but evicted from the result cache (service restarted or
        # many campaigns later): the verdict above still stands and the
        # data lives in the service's database.
        print(f"refine-campaign: note: {exc}", file=sys.stderr)
        return 0
    matrix = {}
    for key, cell in fetched["results"].items():
        workload, _, tool = key.partition("/")
        matrix[(workload, tool)] = result_from_dict(cell)
    if args.save:
        save_matrix(matrix, args.save)
    print(matrix_to_csv(matrix))
    return 0


def worker_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-worker",
        description="Join a refine-service, lease campaign slices and "
        "stream results back until the service drains.  A worker uses one "
        "core: start one per core.",
    )
    _add_version(parser)
    parser.add_argument("address", metavar="HOST:PORT",
                        help="service address (from refine-service "
                        "serve)")
    parser.add_argument("--name", default=None,
                        help="worker name for logs (default: assigned by "
                        "the coordinator)")
    parser.add_argument("--reconnect-window", type=float, default=300.0,
                        metavar="SECONDS",
                        help="keep redialing an unreachable coordinator "
                        "(capped exponential backoff with jitter) for this "
                        "long before giving up — rides out refine-service "
                        "restarts (0 = die on first connection loss)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)

    from repro.dist import Worker, parse_address

    try:
        host, port = parse_address(args.address)
    except DistError as exc:
        print(f"refine-worker: error: {exc}", file=sys.stderr)
        return 2
    if args.reconnect_window < 0:
        print("refine-worker: error: --reconnect-window must be >= 0",
              file=sys.stderr)
        return 2
    try:
        stats = Worker(
            host, port, name=args.name,
            reconnect_window=args.reconnect_window,
        ).run()
    except (DistError, ReproError) as exc:
        print(f"refine-worker: error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(
            f"# {stats.name}: ran {stats.experiments} experiments in "
            f"{stats.tasks} tasks and planned {stats.plans} cell(s) "
            f"({stats.duplicates} duplicate(s), "
            f"{stats.failures} failure(s)); pid {stats.pid}, "
            f"{stats.cpu_s:.2f} s CPU, peak RSS {stats.peak_rss_mb:.0f} MiB",
            file=sys.stderr,
        )
    return 0


class _ServiceTelemetry(EventLog):
    """Operator-facing event rendering for ``refine-service serve``.

    The progress model of :class:`_LiveTelemetry` does not fit a
    service (there is no fixed total), so this prints one line per
    campaign/worker lifecycle event and stays silent about the
    per-experiment stream (which still lands in ``--events`` and the
    database)."""

    def __init__(self, path=None, quiet=False, out=None):
        super().__init__(path=path)
        self._quiet = quiet
        self._out = out if out is not None else sys.stderr

    def emit(self, event, **fields) -> None:
        super().emit(event, **fields)
        if self._quiet:
            return
        line = None
        if event == "campaign_admitted":
            line = (
                f"campaign {fields['campaign']} admitted "
                f"(tenant {fields['tenant']!r}, priority "
                f"{fields['priority']}, {fields['cells']} cell(s), "
                f"{fields['experiments']} experiment(s))"
            )
        elif event == "campaign_done":
            line = (
                f"campaign {fields['campaign']} done — validation: "
                f"{fields['validation']}"
            )
        elif event == "campaign_failed":
            line = f"campaign {fields['campaign']} FAILED: {fields['error']}"
        elif event == "campaign_cancelled":
            line = f"campaign {fields['campaign']} cancelled"
        elif event == "worker_join":
            line = f"worker {fields['worker']} joined"
        elif event == "worker_leave":
            line = f"worker {fields['worker']} left"
        elif event == "service_recover":
            line = (
                f"recovered {len(fields['campaigns'])} interrupted "
                f"campaign(s): {fields['campaigns']}"
            )
        elif event == "service_error":
            line = f"service error: {fields['error']}"
        elif event == "dist_drain":
            line = f"draining (grace {fields.get('grace_s', 0):.0f}s)"
        elif event == "dist_drained":
            line = "drained"
        if line is not None:
            print(f"# {line}", file=self._out, flush=True)


def _cmd_service_serve(args) -> int:
    from repro.dist import parse_address
    from repro.service import ServiceCoordinator

    try:
        host, port = parse_address(args.listen)
    except DistError as exc:
        print(f"refine-service: error: {exc}", file=sys.stderr)
        return 2
    telemetry = _ServiceTelemetry(path=args.events, quiet=args.quiet)
    try:
        coordinator = ServiceCoordinator(
            host, port,
            queue_path=args.queue, db_path=args.db,
            checkpoint_root=args.checkpoint_dir,
            tenant_quota=args.tenant_quota,
            max_active=args.max_active,
            chunk_size=args.chunk_size,
            lease_timeout=args.lease_timeout,
            checkpoint_every=args.checkpoint_every,
            events=telemetry,
        )
    except ReproError as exc:
        print(f"refine-service: error: {exc}", file=sys.stderr)
        telemetry.close()
        return 1
    bound_host, bound_port = coordinator.start()
    # Always announce the bound address: with ``--listen HOST:0`` the
    # kernel-assigned port printed here is the only way to reach the
    # service, so ``-q`` must not swallow it.
    print(f"# service listening on {bound_host}:{bound_port}",
          file=sys.stderr)
    if not args.quiet:
        print(
            f"#   workers: refine-worker {bound_host}:{bound_port}\n"
            f"#   submit:  refine-campaign --submit "
            f"{bound_host}:{bound_port} -w ... -t ... -n ...\n"
            f"#   control: refine-service status|list|cancel|drain "
            f"{bound_host}:{bound_port} ...",
            file=sys.stderr,
        )
    _install_drain_handler(coordinator, grace_s=args.grace)
    try:
        coordinator.serve_until_stopped()
    finally:
        coordinator.stop()
        telemetry.close()
    return 0


def _service_client(args):
    from repro.dist import parse_address
    from repro.service import ServiceClient

    host, port = parse_address(args.address)
    return ServiceClient(host, port)


def _cmd_service_status(args) -> int:
    status = _service_client(args).status(args.campaign)
    info = status["info"]
    line = (
        f"campaign {info['id']}: {info['state']} "
        f"(tenant {info['tenant']!r}, priority {info['priority']})"
    )
    if info.get("validation"):
        line += f" — validation: {info['validation']}"
    if info.get("error"):
        line += f" — error: {info['error']}"
    print(line)
    for key, cell in sorted(status.get("progress", {}).items()):
        if "n" in cell:
            print(f"  {key}: {cell['completed']}/{cell['n']}")
    return 0


def _cmd_service_list(args) -> int:
    listing = _service_client(args).list(tenant=args.tenant)
    counts = listing.get("counts", {})
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"# queue: {summary or 'empty'}; "
          f"{len(listing.get('workers', {}))} worker(s) connected"
          + ("; DRAINING" if listing.get("draining") else ""))
    if listing.get("sink_error"):
        print(f"# WARNING results sink: {listing['sink_error']}")
    for row in listing.get("campaigns", []):
        flags = " [cancel requested]" if row["cancel_requested"] else ""
        validation = (
            f" validation={row['validation']}" if row.get("validation") else ""
        )
        print(
            f"{row['id']:>5d} {row['state']:>10s} prio={row['priority']:<3d} "
            f"tenant={row['tenant']}{validation}{flags}"
        )
    return 0


def _cmd_service_cancel(args) -> int:
    reply = _service_client(args).cancel(args.campaign)
    if reply.get("cancel_requested"):
        print(f"# campaign {args.campaign}: cancellation requested "
              f"(state: {reply['state']})")
    else:
        print(f"# campaign {args.campaign} is already terminal "
              f"(state: {reply['state']})")
    return 0


def _cmd_service_drain(args) -> int:
    _service_client(args).drain(grace_s=args.grace)
    print(f"# drain requested (grace {args.grace:.0f}s)")
    return 0


def service_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-service",
        description="Persistent multi-tenant campaign service: a durable "
        "queue served to refine-worker processes, with per-tenant quotas, "
        "priorities, checkpoint/restart recovery and chi-squared "
        "auto-validation of every drained campaign.",
    )
    _add_version(parser)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("serve", help="run the campaign service")
    p.add_argument("--listen", metavar="HOST:PORT", default="127.0.0.1:0",
                   help="bind address (port 0 picks a free port)")
    p.add_argument("--queue", required=True, metavar="PATH",
                   help="durable campaign queue (SQLite; created if "
                   "missing; reopening recovers interrupted campaigns)")
    p.add_argument("--db", default=None, metavar="PATH",
                   help="results database: experiments stream in live, "
                   "validation verdicts and baselines land here")
    p.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                   help="per-campaign checkpoint root (restart resumes "
                   "unfinished campaigns from here)")
    p.add_argument("--checkpoint-every", type=int,
                   default=DEFAULT_CHECKPOINT_EVERY)
    p.add_argument("--lease-timeout", type=float, default=60.0)
    p.add_argument("--chunk-size", type=int, default=None,
                   help="experiments per leased task (default: auto)")
    p.add_argument("--tenant-quota", type=int, default=None,
                   help="max live campaigns per tenant (default 8)")
    p.add_argument("--max-active", type=int, default=1,
                   help="campaigns served to the worker pool at once")
    p.add_argument("--grace", type=float, default=30.0,
                   help="drain grace period for SIGTERM/SIGINT and the "
                   "drain verb")
    p.add_argument("--events", default=None,
                   help="append JSONL telemetry events to this file")
    p.add_argument("-q", "--quiet", action="store_true")
    p.set_defaults(func=_cmd_service_serve)

    p = sub.add_parser("status", help="one campaign's state and progress")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("campaign", type=int)
    p.set_defaults(func=_cmd_service_status)

    p = sub.add_parser("list", help="queue snapshot")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("--tenant", default=None)
    p.set_defaults(func=_cmd_service_list)

    p = sub.add_parser("cancel", help="cancel a campaign")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("campaign", type=int)
    p.set_defaults(func=_cmd_service_cancel)

    p = sub.add_parser("drain", help="graceful service shutdown")
    p.add_argument("address", metavar="HOST:PORT")
    p.add_argument("--grace", type=float, default=30.0)
    p.set_defaults(func=_cmd_service_drain)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"refine-service: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (e.g. ``refine-service list ... | head``);
        # detach stdout so the interpreter's shutdown flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def opt_main(argv: list[str] | None = None) -> int:
    """``refine-opt``: run IR pass pipelines on textual IR (or MiniC)."""
    parser = argparse.ArgumentParser(
        prog="refine-opt",
        description="Parse IR text (or compile MiniC with --minic), run an "
        "optimization pipeline, and print the resulting IR.",
    )
    _add_version(parser)
    parser.add_argument("file", help="input file ('-' for stdin)")
    parser.add_argument("-O", dest="opt", default="O2",
                        choices=["O0", "O1", "O2"])
    parser.add_argument("--minic", action="store_true",
                        help="treat the input as MiniC source, not IR text")
    parser.add_argument("--llfi", action="store_true",
                        help="apply LLFI instrumentation after optimizing")
    parser.add_argument("--verify", action="store_true",
                        help="verify the module after every pass")
    args = parser.parse_args(argv)

    from repro.frontend import compile_source
    from repro.ir import format_module, parse_module, verify_module
    from repro.irpasses import optimize_module

    source = sys.stdin.read() if args.file == "-" else open(args.file).read()
    if args.minic:
        module = compile_source(source, "cli")
    else:
        module = parse_module(source)
    verify_module(module)
    optimize_module(module, args.opt, verify_each=args.verify)
    if args.llfi:
        llfi_instrument(module, FIConfig())
        verify_module(module)
    print(format_module(module), end="")
    return 0


def fuzz_main(argv: list[str] | None = None) -> int:
    """``refine-fuzz``: differential fuzzing of the compiler pipeline."""
    from repro.testing import GenConfig, ORACLES, run_fuzz
    from repro.testing.fuzz import DEFAULT_ARTIFACTS_DIR
    from repro.testing.oracles import (
        check_workload_equivalence,
        check_workload_fault_model_equivalence,
        check_workload_zero_interference,
    )
    from repro.workloads import workload_names

    parser = argparse.ArgumentParser(
        prog="refine-fuzz",
        description="Generate random IR programs and cross-check the "
        "reference interpreter, the O0/O2 pipelines, and REFINE's "
        "zero-interference property on each.  Failures are written to the "
        "artifacts directory with a delta-debugged minimal repro and a "
        "one-line replay command.",
    )
    _add_version(parser)
    parser.add_argument("--seed", type=int, default=1,
                        help="campaign base seed; program i is derived from "
                        "(seed, i), so any failure replays with --start i")
    parser.add_argument("--count", type=int, default=100,
                        help="number of programs to generate")
    parser.add_argument("--start", type=int, default=0,
                        help="first program index (for replaying a failure)")
    parser.add_argument("--max-insts", type=int,
                        default=GenConfig.max_insts,
                        help="approximate instruction budget per program")
    parser.add_argument("--oracle", action="append", default=None,
                        choices=sorted(ORACLES),
                        help="oracle(s) to run (repeatable; default: all)")
    parser.add_argument("--artifacts", default=DEFAULT_ARTIFACTS_DIR,
                        help="directory for failure artifacts")
    parser.add_argument("--no-reduce", action="store_true",
                        help="skip delta-debugging failing modules")
    parser.add_argument("--check-workloads", action="store_true",
                        help="also run, on every registered MiniC workload, "
                        "the zero-interference oracle and a campaign "
                        "against the reference campaign (interpreter loop, "
                        "index order, every run from instruction 0), "
                        "record for record, all tools")
    parser.add_argument("--check-fault-models", action="store_true",
                        help="also check campaigns against the reference "
                        "campaign under every registered fault model on "
                        "every registered MiniC workload")
    parser.add_argument("--fault-models", default=None,
                        metavar="SPEC[,SPEC...]",
                        help="restrict the fault-model pass to these specs "
                        "(implies --check-fault-models)")
    parser.add_argument("-q", "--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.count < 0 or args.start < 0:
        print("refine-fuzz: error: --count/--start must be >= 0",
              file=sys.stderr)
        return 2
    if args.max_insts < 1:
        print("refine-fuzz: error: --max-insts must be >= 1", file=sys.stderr)
        return 2

    oracles = tuple(args.oracle) if args.oracle else tuple(sorted(ORACLES))
    config = (
        None
        if args.max_insts == GenConfig.max_insts
        else GenConfig(max_insts=args.max_insts)
    )

    failed = False

    def report(label: str, name: str, divergence) -> None:
        nonlocal failed
        if divergence is None:
            if not args.quiet:
                print(f"# {label} {name}: OK", file=sys.stderr)
        else:
            failed = True
            print(f"refine-fuzz: {label} FAILED for {name}:", file=sys.stderr)
            print(divergence.describe(), file=sys.stderr)

    if args.check_workloads:
        for name in workload_names():
            report(
                "zero-interference", name,
                check_workload_zero_interference(name),
            )
            report(
                "campaign-equivalence", name, check_workload_equivalence(name)
            )
    if args.check_fault_models or args.fault_models is not None:
        from repro.fi.models import parse_fault_model

        models = None
        if args.fault_models is not None:
            try:
                models = tuple(
                    parse_fault_model(s).spec
                    for s in args.fault_models.split(",")
                )
            except CampaignError as exc:
                print(f"refine-fuzz: error: {exc}", file=sys.stderr)
                return 2
        for name in workload_names():
            report(
                "fault-model-equivalence", name,
                check_workload_fault_model_equivalence(name, models=models),
            )

    def progress(i, stats):
        if not args.quiet and (i + 1 - args.start) % 50 == 0:
            print(
                f"# {i + 1 - args.start}/{args.count} programs, "
                f"{len(stats.failures)} failure(s)",
                file=sys.stderr, flush=True,
            )

    try:
        stats = run_fuzz(
            base_seed=args.seed,
            count=args.count,
            start=args.start,
            oracles=oracles,
            config=config,
            artifacts_dir=args.artifacts,
            reduce=not args.no_reduce,
            progress=progress,
        )
    except ReproError as exc:
        print(f"refine-fuzz: error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(f"# {stats.summary()}", file=sys.stderr)
    for failure in stats.failures:
        print(f"refine-fuzz: FAILURE at index {failure.index} "
              f"[{failure.oracle}]: {failure.detail}", file=sys.stderr)
        if failure.reduced_path:
            print(f"  reduced repro ({failure.reduced_instructions} "
                  f"instructions): {failure.reduced_path}", file=sys.stderr)
        elif failure.module_path:
            print(f"  module: {failure.module_path}", file=sys.stderr)
        print(f"  replay: {failure.repro}", file=sys.stderr)
    return 0 if stats.ok and not failed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(campaign_main())
