"""``refine-db`` — ingest, query, report and maintain a results store.

Verbs::

    refine-db ingest   DB --events LOG... --results JSON... [--report DIR]
    refine-db query    DB [--workload W --tool T --by DIM] [--csv]
    refine-db baseline DB [--pin --workload W --tool T]
    refine-db report   DB OUT_DIR [--title T]
    refine-db vacuum   DB

``report`` writes Table 4/5/6 and Figure 4/5 over the store as
``index.html`` (+ per-campaign drill-downs), ``report.md`` (what ``query``
without a selector prints) and ``report.json`` (what
``results/full_campaign*.json`` are); ``ingest --report`` builds it in the
same invocation, so a matrix round-trips file -> store -> report at once.
"""

from __future__ import annotations

import argparse
import sys

from repro import __version__
from repro.campaign.analysis import render_sensitivity
from repro.campaign.classify import OUTCOME_ORDER
from repro.campaign.results import matrix_to_csv
from repro.errors import ReproError
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.ingest import ingest_events, ingest_results_file
from repro.resultsdb.queries import (
    DIMENSIONS,
    breakdown,
    find_campaign,
    matrix_from_db,
    rank_sites,
)
from repro.resultsdb.report import (
    DEFAULT_TITLE, build_report, fmt_pct, render_markdown, report_data,
)


def _cmd_ingest(args) -> int:
    with ResultsDB(args.db) as db:
        for path in args.events or ():
            summary = ingest_events(db, path)
            print(
                f"# {path}: {summary['experiments']} experiment event(s), "
                f"{summary['campaigns']} campaign(s)", file=sys.stderr,
            )
        for path in args.results or ():
            summary = ingest_results_file(db, path)
            print(
                f"# {path}: {summary['campaigns']} campaign(s), "
                f"{summary['experiments']} record(s)", file=sys.stderr,
            )
        if not args.events and not args.results:
            print("refine-db: nothing to ingest (pass --events/--results)",
                  file=sys.stderr)
            return 2
        if args.report is not None:
            index = build_report(db, args.report)
            print(f"# report: {index}", file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    with ResultsDB(args.db) as db:
        if args.csv:
            print(matrix_to_csv(matrix_from_db(db)))
            return 0
        if args.by is not None:
            if args.workload is None or args.tool is None:
                print("refine-db: --by needs --workload and --tool",
                      file=sys.stderr)
                return 2
            cid = find_campaign(db, args.workload, args.tool)
            if args.rank:
                print(f"{'site':24s} {'n':>6s} {'crash':>6s}  rate [wilson-95%]")
                for s in rank_sites(db, cid, by=args.by, limit=args.top):
                    share = fmt_pct(s.hits, s.total, [s.interval.low, s.interval.high])
                    print(f"{s.key:24s} {s.total:>6d} {s.hits:>6d}  {share}")
            else:
                kwargs = {"bit_buckets": 8} if args.by == "bit" else {}
                groups = breakdown(db, cid, by=args.by, **kwargs)
                print(render_sensitivity(
                    groups, f"{args.workload}/{args.tool} by {args.by}"
                ))
            return 0
        # no selector: the report itself, on the terminal only
        print(render_markdown(report_data(db)), end="")
    return 0


def _cmd_baseline(args) -> int:
    with ResultsDB(args.db) as db:
        if args.pin:
            if args.workload is None or args.tool is None:
                print("refine-db: baseline --pin needs --workload and --tool",
                      file=sys.stderr)
                return 2
            cid = find_campaign(db, args.workload, args.tool)
            from repro.resultsdb.queries import outcome_counts

            row = db.execute(
                "SELECT n, base_seed, fault_model FROM campaigns WHERE id=?",
                (cid,),
            ).fetchone()
            counts = {
                o.value: k for o, k in outcome_counts(db, cid).items()
            }
            db.pin_baseline(
                args.workload, args.tool,
                fault_model=row[2] or "single-bit", n=row[0],
                counts=counts, base_seed=row[1], source="refine-db pin",
            )
            db.commit()
            print(f"# pinned {args.workload}/{args.tool}: {counts}",
                  file=sys.stderr)
            return 0
        baselines = db.baselines()
        if not baselines:
            print("# no pinned baselines", file=sys.stderr)
            return 0
        print(f"{'workload':14s} {'tool':8s} {'model':12s} {'n':>6s}  counts")
        for b in baselines:
            counts = " ".join(
                f"{o.value}={b['counts'].get(o.value, 0)}"
                for o in OUTCOME_ORDER
            )
            print(
                f"{b['workload']:14s} {b['tool']:8s} "
                f"{b['fault_model']:12s} {b['n']:>6d}  {counts}"
            )
    return 0


def _cmd_report(args) -> int:
    with ResultsDB(args.db) as db:
        index = build_report(db, args.out_dir, title=args.title)
    print(f"# report: {index}", file=sys.stderr)
    return 0


def _cmd_vacuum(args) -> int:
    with ResultsDB(args.db) as db:
        db.vacuum()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refine-db",
        description="Campaign results store: ingest event logs and result "
        "files into SQLite, query outcome/sensitivity breakdowns, and "
        "render the paper's tables and figures (HTML, Markdown, JSON).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("ingest", help="import event logs / result JSON")
    p.add_argument("db", help="SQLite store path (created if missing)")
    p.add_argument("--events", action="append", metavar="JSONL",
                   help="telemetry event log (refine-campaign --events)")
    p.add_argument("--results", action="append", metavar="JSON",
                   help="campaign results file (--save matrix or "
                   "full_campaign summary)")
    p.add_argument("--report", metavar="DIR", default=None,
                   help="also build the HTML report here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("query", help="print the report, or a breakdown")
    p.add_argument("db")
    p.add_argument("--workload", default=None)
    p.add_argument("--tool", default=None)
    p.add_argument("--by", default=None, choices=sorted(DIMENSIONS),
                   help="fault-site breakdown dimension")
    p.add_argument("--rank", action="store_true",
                   help="rank sites by Wilson lower bound instead of "
                   "printing the full breakdown")
    p.add_argument("--top", type=int, default=10,
                   help="rows to show with --rank (default 10)")
    p.add_argument("--csv", action="store_true",
                   help="dump the whole store as campaign-matrix CSV")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "baseline",
        help="list pinned validation baselines, or pin one from the store",
    )
    p.add_argument("db")
    p.add_argument("--pin", action="store_true",
                   help="pin --workload/--tool's stored distribution as the "
                   "validation baseline")
    p.add_argument("--workload", default=None)
    p.add_argument("--tool", default=None)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser(
        "report",
        help="Table 4/5/6 + Figure 4/5 as index.html, report.md, report.json",
    )
    p.add_argument("db")
    p.add_argument("out_dir")
    p.add_argument("--title", default=DEFAULT_TITLE)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("vacuum", help="compact the store")
    p.add_argument("db")
    p.set_defaults(func=_cmd_vacuum)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"refine-db: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
