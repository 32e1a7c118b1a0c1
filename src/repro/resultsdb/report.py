"""The paper's five artifacts — Table 4/5/6, Figure 4/5 — over a results store.

:func:`report_data` reduces a store to plain data, one dict per campaign
*matrix* (the cells sharing fault model, base seed and n): per cell the
counts, Wilson intervals, cycles, candidates and record digests; per
program the contingency tables against PINFI with their chi-squared
verdicts, the cycle ratios to PINFI and the LLFI/PINFI candidate
populations.  What the repository publishes is a print of that structure:

* ``report.json`` — the matrix (``report-2.json``... for further ones);
  ``results/full_campaign*.json`` are this file, and
  :func:`repro.resultsdb.ingest_results_file` reads it back;
* ``report.md`` — what the terminal shows and EXPERIMENTS.md embeds between
  ``<!-- generated:NAME -->`` markers (:func:`generated_blocks`);
* ``index.html`` — HTML/CSS, no JavaScript, no external assets, plus a
  ``campaign-<id>.html`` drill-down per campaign with stored rows.

The rest of EXPERIMENTS.md — Listings 1–2, Tables 2–3, Appendix A, the
ablations — needs no store: :func:`paper_tables` renders it from the
compiler and the workloads, through the same Markdown printer.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
from dataclasses import replace
from html import escape
from pathlib import Path
from typing import NamedTuple

from repro.campaign.classify import OUTCOME_ORDER
from repro.campaign.runner import run_campaign
from repro.errors import StatsError
from repro.fi.config import INSTR_CLASSES, FIConfig
from repro.fi.tools import (
    TIMEOUT_FACTOR,
    TOOL_CLASSES,
    TOOL_ORDER,
    LLFITool,
    PinfiTool,
    RefineTool,
)
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.queries import (
    CampaignInfo,
    breakdown,
    list_campaigns,
    rank_sites,
)
from repro.stats.chisq import chi2_contingency
from repro.stats.intervals import wilson_interval
from repro.stats.samples import leveugle_sample_size, margin_of_error
from repro.workloads import all_workloads, workload_names

DEFAULT_TITLE = "Fault-injection campaign report"
#: The tool every other one is compared against (the paper's choice).
BASELINE = "PINFI"
#: A cell's records are digested whole and over their first ``PREFIX``
#: indices: index i's record is a pure function of (seed, program, tool,
#: i), so an n = ``PREFIX`` campaign *is* that prefix (tier-1 runs it).
PREFIX = 24
_OUTCOMES = [o.value for o in OUTCOME_ORDER]
_PHASES = ("translate_s", "prefix_s", "fork_s", "tail_s", "classify_s")

# ------------------------------------------------------------------- data


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _records_summary(db: ResultsDB, campaign_id: int, n: int) -> dict:
    """Counts, steps, exactly-rounded cycles and a digest over the first
    ``n`` stored records — ``perfbench/verify.py::summarize``'s form, so
    a published cell and a perfbench pin of the same cell are equal."""
    rows = [
        (idx, db.outcome_names[oid], cycles, steps, code, trap)
        for idx, oid, cycles, steps, code, trap in db.execute(
            "SELECT idx, outcome_id, cycles, steps, exit_code, trap FROM runs"
            " WHERE campaign_id=? ORDER BY idx LIMIT ?", (campaign_id, n),
        )
    ]
    return {
        "n": len(rows),
        "counts": [sum(r[1] == name for r in rows) for name in _OUTCOMES],
        "total_steps": sum(r[3] for r in rows),
        "total_cycles": math.fsum(r[2] for r in rows).hex(),
        "records_sha256": _sha(
            [(r[0], r[1], float(r[2]).hex(), *r[3:]) for r in rows]
        ),
    }


def _wilson(hits: int, total: int) -> list[float]:
    """``[low, high]`` of the 95 % Wilson interval; ``[]`` for no data."""
    if total <= 0:
        return []
    iv = wilson_interval(hits, total)
    return [iv.low, iv.high]


def _cell(db: ResultsDB, info: CampaignInfo) -> dict:
    counts = {o.value: info.counts.get(o, 0) for o in OUTCOME_ORDER}
    total = sum(counts.values())
    golden = db.execute(
        "SELECT golden_output FROM campaigns WHERE id=?", (info.id,)
    ).fetchone()[0]
    return {
        "n": info.n,
        **counts,
        "wilson": {name: _wilson(k, total) for name, k in counts.items()},
        "total_cycles": info.total_cycles,
        "total_candidates": info.total_candidates,
        "golden_sha256": None if golden is None else _sha(json.loads(golden)),
        # the whole cell's digest only when every record is stored
        "records": _records_summary(db, info.id, info.n) if info.runs == info.n else None,
        "prefix": _records_summary(db, info.id, PREFIX) if info.runs >= PREFIX else None,
    }


def _chi2(cell_a: dict, cell_b: dict) -> dict:
    observed = [[cell[name] for name in _OUTCOMES] for cell in (cell_a, cell_b)]
    try:
        test = chi2_contingency(observed)
    except StatsError as exc:
        return {"observed": observed, "error": str(exc)}
    return {
        "observed": observed, "statistic": test.statistic, "dof": test.dof,
        "p_value": test.p_value, "significant": test.significant,
    }


def _commit() -> str | None:
    """``git describe`` of the checkout this code runs from, if it is one."""
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            check=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def _matrix(db: ResultsDB, infos: list[CampaignInfo], commit) -> dict:
    by_program: dict[str, dict[str, dict]] = {}
    for info in infos:
        by_program.setdefault(info.workload, {})[info.tool] = _cell(db, info)

    chi2, ratios, candidates = {}, {}, {}
    sums: dict[str, list[float]] = {}  # tool -> [its cycles, PINFI's]
    for program, cells in by_program.items():
        tools = list(cells)
        # everything against PINFI when it ran (Table 5), else every pair
        pairs = (
            [(t, BASELINE) for t in tools if t != BASELINE]
            if BASELINE in cells else
            [(a, b) for i, a in enumerate(tools) for b in tools[i + 1:]]
        )
        for a, b in pairs:
            chi2[f"{program}/{a}-vs-{b}"] = _chi2(cells[a], cells[b])
        base = cells.get(BASELINE, {})
        for tool, cell in cells.items():
            own, ref = cell["total_cycles"], base.get("total_cycles")
            if tool != BASELINE and own is not None and ref:
                ratios.setdefault(program, {})[tool] = own / ref
                pair = sums.setdefault(tool, [0.0, 0.0])
                pair[0] += own
                pair[1] += ref
        llfi = cells.get("LLFI", {}).get("total_candidates")
        if llfi and base.get("total_candidates"):
            candidates[program] = {
                "LLFI": llfi, BASELINE: base["total_candidates"],
                "ratio": llfi / base["total_candidates"],
            }

    verdicts: dict[str, dict] = {}
    for key, test in chi2.items():
        tally = verdicts.setdefault(_pair(key)[1], {"significant": 0, "of": 0})
        if "error" not in test:
            tally["significant"] += test["significant"]
            tally["of"] += 1
    first, phases = infos[0], [i.phases for i in infos if i.phases]
    return {
        "n": first.n,
        "base_seed": first.base_seed,
        "fault_model": first.fault_model or "single-bit",
        "margin_of_error": margin_of_error(first.n) if first.n > 0 else None,
        "results": {
            f"{program}/{tool}": cell
            for program, cells in by_program.items()
            for tool, cell in cells.items()
        },
        "chi2": chi2,
        "verdicts": verdicts,
        "cycle_ratios": {
            "programs": ratios,
            "total": {t: own / base for t, (own, base) in sums.items()},
        },
        "candidates": candidates,
        # Where the numbers came from; no equality check reads it.
        "provenance": {
            "commit": commit,
            "store": db.path,
            "executor_seconds": sum(
                p.get(k, 0.0) for p in phases for k in _PHASES
            ) if phases else None,
            "campaigns": {
                f"{i.workload}/{i.tool}": {
                    "id": i.id, "runs": i.runs, "source": i.source,
                    "schedule": i.schedule, "phases": i.phases,
                    "validation": i.validation,
                    "validation_p": i.validation_p,
                }
                for i in infos
            },
        },
    }


def report_data(db: ResultsDB, base_seed: int | None = None) -> list[dict]:
    """The store (or its campaigns at one ``base_seed``) as report data:
    one dict per matrix — the campaigns sharing (fault model, base seed,
    n), so a matrix never holds two campaigns for one (program, tool) —
    programs and tools in the paper's order, matrices in store order."""
    programs = workload_names()

    def rank(name: str, order) -> int:
        return order.index(name) if name in order else len(order)

    infos = [i for i in list_campaigns(db) if base_seed in (None, i.base_seed)]
    infos.sort(
        key=lambda i: (rank(i.workload, programs), rank(i.tool, TOOL_ORDER), i.id)
    )
    groups: dict[tuple, list[CampaignInfo]] = {}
    for info in infos:
        key = (info.fault_model or "single-bit", info.base_seed, info.n)
        groups.setdefault(key, []).append(info)
    commit = _commit() if groups else None
    return [
        _matrix(db, group, commit)
        for group in sorted(groups.values(), key=lambda g: min(i.id for i in g))
    ]


# ----------------------------------------------------------------- tables
#
# The one place a p-value, a percentage and a ratio become text and the
# data becomes tables; the serialisers below only print them.


def _fmt_p(p: float) -> str:
    return "~0.00" if p < 0.005 else f"{p:.2f}"


def fmt_pct(hits: int, total: int, interval: list[float]) -> str:
    """``12.3% [10.1, 14.9]`` (Wilson 95 %); an em-dash for no data."""
    if not interval:
        return "—"
    low, high = interval
    return f"{100.0 * hits / total:.1f}% [{low * 100:.1f}, {high * 100:.1f}]"


def _bar(fraction: float, width: int = 40, char: str = "#") -> str:
    return char * round(max(0.0, min(1.0, fraction)) * width)


def _seed(seed: int) -> str:
    return "unknown" if seed < 0 else f"{seed:#x}"


class _Table(NamedTuple):
    name: str
    title: str
    header: list[str]
    rows: list[list[str]]
    note: str = ""


def _figure4_table(matrix: dict) -> _Table:
    rows = []
    for key, cell in matrix["results"].items():
        total = sum(cell[name] for name in _OUTCOMES)
        kept = matrix["provenance"]["campaigns"][key]
        verdict, p = kept["validation"], kept["validation_p"]
        rows.append([
            *key.split("/", 1),
            *(fmt_pct(cell[o], total, cell["wilson"][o]) for o in _OUTCOMES),
            "`" + "".join(
                _bar(cell[name] / total if total else 0.0, char=char)
                for name, char in zip(_OUTCOMES, "CS.")
            ) + "`",
            str(kept["runs"]),
            "—" if verdict is None else
            verdict + ("" if p is None else f" p={p:.3g}"),
        ])
    return _Table(
        "figure4", "Outcome distributions (Figure 4 view)",
        ["app", "tool", *_OUTCOMES, "PMF (C = crash, S = soc, . = benign)",
         "stored runs", "validation"],
        rows, "Percentages with Wilson 95% intervals.",
    )


def _pair(key: str) -> tuple[str, ...]:
    """``"W/A-vs-B"`` -> ``(W, "A-vs-B", A, B)``."""
    program, _, pair = key.partition("/")
    return (program, pair, *pair.split("-vs-"))


def _tables(matrix: dict) -> list[_Table]:
    """Everything after Figure 4, as tables of plain strings."""
    tables = []
    chi2 = {_pair(key): test for key, test in matrix["chi2"].items()}
    if chi2:
        (program, _, tool_a, tool_b), test = next(iter(chi2.items()))
        row_a, row_b = test["observed"]
        tables.append(_Table(
            "table4",
            f"Contingency table, {tool_a} vs {tool_b} on {program} (Table 4 view)",
            ["Tool", *(name.capitalize() for name in _OUTCOMES), "Total"],
            [
                [tool_a, *map(str, row_a), str(sum(row_a))],
                [tool_b, *map(str, row_b), str(sum(row_b))],
                ["Total", *(str(a + b) for a, b in zip(row_a, row_b)),
                 str(sum(row_a) + sum(row_b))],
            ],
            "" if "error" in test else
            f"chi-squared = {test['statistic']:.2f}, dof = {test['dof']}, "
            f"p-value {_fmt_p(test['p_value'])}.",
        ))
        tables.append(_Table(
            "table5", "Chi-squared test results, alpha = 0.05 (Table 5 view)",
            ["app", "pair", "chi-squared", "p-value", "significant difference?"],
            [  # the paper's halves: pair by pair, then app by app
                [program, f"{a} vs {b}"] + (
                    ["not testable", test["error"], "—"] if "error" in test else
                    [f"{test['statistic']:.2f}", _fmt_p(test["p_value"]),
                     "yes" if test["significant"] else "no"]
                )
                for pair in matrix["verdicts"]
                for (program, this, a, b), test in chi2.items() if this == pair
            ],
            "; ".join(
                f"{pair.replace('-vs-', ' vs ')}: {v['significant']}/{v['of']} "
                "significantly different"
                for pair, v in matrix["verdicts"].items()
            ) + ".",
        ))

    ratios = matrix["cycle_ratios"]
    if ratios["programs"]:
        tools = list(ratios["total"])
        tables.append(_Table(
            "figure5",
            "Campaign execution time, normalized to PINFI (Figure 5 view)",
            ["app", *tools],
            [
                [program, *(
                    f"{by_tool[t]:.2f}" if t in by_tool else "—" for t in tools
                )]
                for program, by_tool in
                [*ratios["programs"].items(), ("Total", ratios["total"])]
            ],
            "Simulated cycles summed over the campaign.",
        ))

    tables.append(_Table(
        "table6", "Complete outcome frequencies (Table 6 view)",
        ["app", "tool", "n", *_OUTCOMES],
        [
            [*key.split("/", 1), str(cell["n"]), *(str(cell[o]) for o in _OUTCOMES)]
            for key, cell in matrix["results"].items()
        ],
    ))

    if matrix["candidates"]:
        shares = [c["ratio"] for c in matrix["candidates"].values()]
        tables.append(_Table(
            "candidates", "Dynamic fault-candidate populations, LLFI / PINFI",
            ["app", "LLFI", "PINFI", "LLFI / PINFI"],
            [
                [program, str(c["LLFI"]), str(c[BASELINE]), f"{c['ratio'] * 100:.0f}%"]
                for program, c in matrix["candidates"].items()
            ],
            f"Range: {min(shares) * 100:.0f}%–{max(shares) * 100:.0f}%.",
        ))
    return tables


def _counts_line(matrices: list[dict]) -> str:
    cells = [c for m in matrices for c in m["results"].values()]
    kept = [c for m in matrices for c in m["provenance"]["campaigns"].values()]
    return (
        f"{len(cells)} campaign(s), "
        f"{sum(c[name] for c in cells for name in _OUTCOMES)} experiments "
        f"({sum(c['runs'] for c in kept)} with per-experiment records)"
    )


#: Listing 1's program and function (the paper's is HPCCG's ``ddot``).
_LISTING = ("HPCCG-1.0", "ddot")
#: The ablations' program, and the PINFI runs the detach ablation sums.
_ABLATION = "miniFE"
_DETACH_RUNS = 40
#: "Beyond the paper": one program's cells under a dwell-window model.
_STUCK_AT = ("EP", "stuck-at:dwell=32", 60)


def _candidates(tool: PinfiTool, seed: int, half_cycles: int) -> int:
    """The candidates PINFI's experiment ``seed`` executes, as if PIN stayed
    attached: a detached PIN counts none, so the run stops at every block
    and is attached again, plan-free, at the first stop after it detaches.
    It must still execute the ``half_cycles`` the production run did."""
    cpu = tool._make_cpu(tool.plan_from_seed(seed))

    def reattach(cpu, pc: int, reach: int) -> int | bool:
        if cpu._attached:
            return False
        cpu.attach_pinfi(None)
        return pc

    result = tool.engine.resume(cpu, cpu.prepare_entry(), tool.timeout_budget,
                                range(1, tool.timeout_budget), reattach)
    if result.half_cycles != half_cycles:
        raise StatsError(f"PINFI's experiment {seed} ran otherwise re-attached")
    return cpu.pinfi_dynamic_count


def paper_tables() -> list[_Table]:
    """Listings 1–2, Tables 2–3, Appendix A, the PINFI-detach and
    optimisation-level ablations and the stuck-at cells: what EXPERIMENTS.md
    shows beside the campaign tables, from the compiler and the workloads."""
    specs = all_workloads()
    llfi = {name: LLFITool(spec.source, name) for name, spec in specs.items()}
    pinfi = {name: PinfiTool(spec.source, name) for name, spec in specs.items()}
    tables = []

    program, function = _LISTING
    stats = pinfi[program].binary.meta["stats"]
    opcodes = [i.opcode for i in pinfi[program].binary.functions[function].instructions()]
    tables.append(_Table(
        "listing1", f"Machine instructions the IR does not have ({program})",
        [program, "count"],
        [
            ["IR instructions (O2)", str(stats.ir_instructions)],
            ["machine instructions", str(stats.machine_instructions)],
            *([f"{op} in @{function}", str(opcodes.count(op))] for op in ("push", "pop")),
            ["spilled virtual registers", str(stats.spilled_vregs)],
        ],
        "The IR has no `push` / `pop` (no `stack` class) and no spill code.",
    ))

    rows, growth = [], []
    for name in specs:
        clean, instrumented = pinfi[name], llfi[name]
        a, b = clean.binary.meta["stats"], instrumented.binary.meta["stats"]
        growth.append(instrumented.profile.steps / clean.profile.steps)
        rows.append([
            name, f"{a.machine_instructions} → {b.machine_instructions}",
            f"{a.spilled_vregs} → {b.spilled_vregs}",
            f"{clean.profile.steps} → {instrumented.profile.steps}",
            f"{growth[-1]:.2f}×",
        ])
    tables.append(_Table(
        "listing2", "Clean binary → LLFI-instrumented binary",
        ["app", "machine instructions", "spilled vregs", "dynamic instructions",
         "dynamic growth"],
        rows, f"Dynamic growth: {min(growth):.2f}×–{max(growth):.2f}×.",
    ))

    spec = specs[_ABLATION]
    population = {
        instrs: RefineTool(
            spec.source, spec.name, config=FIConfig(instrs=instrs)
        ).profile.total_candidates
        for instrs in INSTR_CLASSES
    }
    tables.append(_Table(
        "table2", f"REFINE's dynamic candidates per -fi-instrs class ({_ABLATION})",
        ["-fi-instrs", "candidates"],
        [[instrs, str(k)] for instrs, k in population.items()],
        "stack + mem + arithm = "
        f"{population['stack'] + population['mem'] + population['arithm']}.",
    ))

    tables.append(_Table(
        "table3", "Benchmark programs and their inputs",
        ["program", "paper input", "our input"],
        [[name, f"`{s.paper_input}`", s.input_desc] for name, s in specs.items()],
    ))

    n = leveugle_sample_size()
    tables.append(_Table(
        "appendix-a", "Statistical sizing", ["quantity", "value"],
        [
            ["samples per cell for a margin of error ≤ 3% at 95% confidence", str(n)],
            [f"experiments, {len(specs)} programs × {len(TOOL_ORDER)} tools",
             str(n * len(specs) * len(TOOL_ORDER))],
            [f"margin of error at n = {n}", f"{margin_of_error(n) * 100:.3f}%"],
            ["timeout, in profiled execution lengths", str(TIMEOUT_FACTOR)],
        ],
    ))

    tool = pinfi[_ABLATION]
    detached = attached = 0.0
    for seed in range(_DETACH_RUNS):
        run = tool.inject(seed)
        detached += run.cycles
        # the same run, costed by PINFI's model as if PIN never detached
        attached += tool._cycles(None, replace(
            run.result, half_cycles_attached=run.result.half_cycles,
            attached_candidates=_candidates(tool, seed, run.result.half_cycles),
        ))
    tables.append(_Table(
        "ablation-detach", f"PINFI's detach-after-injection ({_ABLATION})",
        ["PINFI", "simulated cycles"],
        [["detaches after injecting", f"{detached:.0f}"],
         ["stays attached", f"{attached:.0f}"]],
        f"Detaching is {attached / detached:.2f}× faster over {_DETACH_RUNS} "
        f"experiments (seeds 0–{_DETACH_RUNS - 1}).",
    ))

    levels = {"O0": PinfiTool(spec.source, spec.name, opt_level="O0"), "O2": tool}
    tables.append(_Table(
        "ablation-opt", f"Optimisation level and the candidate population ({_ABLATION})",
        ["opt level", "machine instructions", "dynamic instructions",
         "PINFI candidates"],
        [
            [level, str(t.binary.meta["stats"].machine_instructions),
             str(t.profile.steps), str(t.profile.total_candidates)]
            for level, t in levels.items()
        ],
    ))

    program, model, size = _STUCK_AT
    rows = []
    for name in TOOL_ORDER:
        result = run_campaign(
            TOOL_CLASSES[name](specs[program].source, program, fault_model=model), size
        )
        rows.append([name, *(
            f"{result.frequency(o)} ({100 * result.frequency(o) / size:.0f}%)"
            for o in OUTCOME_ORDER
        )])
    tables.append(_Table(
        "stuck-at", f"{program} under `{model}`, n = {size} per cell",
        ["tool", *_OUTCOMES], rows,
    ))
    return tables


# --------------------------------------------------------------- markdown

_BLOCK = re.compile(
    r"<!-- generated:(?P<name>\S+) -->\n(?P<body>.*?)<!-- /generated -->\n",
    re.DOTALL,
)


def markdown_table(table: _Table) -> str:
    """A table as Markdown: the body of its generated block."""
    out = ["| " + " | ".join(table.header) + " |", "|" + "---|" * len(table.header)]
    out += ["| " + " | ".join(row) + " |" for row in table.rows]
    if table.note:
        out += ["", table.note]
    return "\n".join(out) + "\n"


def render_markdown(matrices: list[dict], title: str = DEFAULT_TITLE) -> str:
    """The report as Markdown, every table between ``<!-- generated:NAME
    -->`` markers (``NAME#2``... for further matrices) for embedding."""
    out = [f"# {title}", "", _counts_line(matrices) + "."]
    for k, matrix in enumerate(matrices):
        moe = matrix["margin_of_error"]
        out += [
            "",
            f"## Matrix {k + 1}: fault model `{matrix['fault_model']}`, base "
            f"seed {_seed(matrix['base_seed'])}, n = {matrix['n']} per cell"
            + ("" if moe is None else f" (margin of error {moe * 100:.2f}% at 95%)"),
            "",
            f"Commit {matrix['provenance']['commit'] or 'unknown'}.",
        ]
        for table in (_figure4_table(matrix), *_tables(matrix)):
            name = table.name + ("" if k == 0 else f"#{k + 1}")
            out += [
                "", f"### {table.title}", "", f"<!-- generated:{name} -->",
                markdown_table(table) + "<!-- /generated -->",
            ]
    return "\n".join(out) + "\n"


def generated_blocks(text: str) -> dict[str, str]:
    """``NAME -> body`` of every generated block in a Markdown text."""
    return {m["name"]: m["body"] for m in _BLOCK.finditer(text)}


def splice_blocks(document: str, blocks: dict[str, str]) -> str:
    """``document`` with each generated block it holds replaced by the
    same-named one of ``blocks`` (``KeyError`` if the report lacks it)."""
    return _BLOCK.sub(
        lambda m: (
            f"<!-- generated:{m['name']} -->\n{blocks[m['name']]}"
            "<!-- /generated -->\n"
        ),
        document,
    )


# ------------------------------------------------------------------- html

#: Stacked-bar colors per outcome (crash / soc / benign).
_COLORS = dict(zip(_OUTCOMES, ("#c0392b", "#e67e22", "#27ae60")))

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #222; }
h1, h2, h3 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75rem 0 1.5rem; }
th, td { border: 1px solid #ccc; padding: 0.3rem 0.6rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f4f4f4; }
td.k, th.k { text-align: left; font-family: ui-monospace, monospace; }
.bar { display: flex; height: 1.1rem; width: 24rem;
       border: 1px solid #999; }
.bar span { display: block; height: 100%; }
.legend span { display: inline-block; width: 0.9rem; height: 0.9rem;
               margin: 0 0.3rem 0 1rem; vertical-align: middle; }
.muted { color: #777; font-size: 0.85rem; }
td.yes, td.failed { color: #c0392b; font-weight: 600; }
td.no, td.passed { color: #27ae60; }
td.pinned { color: #2c6cb0; }
td.skipped { color: #777; }
"""
_VERDICTS = ("yes", "no", "passed", "failed", "pinned", "skipped")

_LEGEND = "<p class=\"legend muted\">" + "".join(
    f"<span style=\"background:{color}\"></span>{name}"
    for name, color in _COLORS.items()
) + "</p>"


class _Html(str):
    """A table cell that is markup already (a bar, a badge, a link)."""


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )


def _html_table(header: list[str], rows: list[list[str]], title: str = "",
                note: str = "") -> str:
    """Columns that name things are left-aligned; a verdict (yes / no,
    passed / failed / pinned / skipped) is its cell's class."""
    keyed = [name in ("app", "tool", "pair", "Tool", "group", "site")
             for name in header]

    def line(tag: str, cells: list[str]) -> str:
        return "<tr>" + "".join(
            "<{0}{1}>{2}</{0}>".format(
                tag,
                " class=\"k\"" if key else
                f" class=\"{word}\"" if (word := cell.split(" ")[0]) in _VERDICTS
                else "",
                cell if isinstance(cell, _Html) else escape(cell),
            )
            for key, cell in zip(keyed, cells)
        ) + "</tr>"

    return (
        (f"<h3>{escape(title)}</h3>" if title else "")
        + f"<table>{line('th', header)}{''.join(line('td', r) for r in rows)}"
        "</table>" + (f"<p class=\"muted\">{escape(note)}</p>" if note else "")
    )


def _stacked_bar(counts: list[int]) -> _Html:
    total = sum(counts)
    return _Html("<div class=\"bar\">" + "".join(
        f"<span style=\"width:{100.0 * k / total:.2f}%;background:{color}\">"
        "</span>"
        for k, color in zip(counts, _COLORS.values()) if total
    ) + "</div>")


def _figure4_html(matrix: dict, only: str | None = None) -> str:
    """Figure 4 with a stacked bar for the text PMF and a link to each
    campaign's drill-down page."""
    table = _figure4_table(matrix)
    rows = []
    for row, (key, cell) in zip(table.rows, matrix["results"].items()):
        kept = matrix["provenance"]["campaigns"][key]
        if only in (None, key):
            rows.append([
                *row[:5], _stacked_bar([cell[name] for name in _OUTCOMES]),
                *row[6:],
                _Html(f"<a href=\"campaign-{kept['id']}.html\">details</a>")
                if kept["runs"] else "summary only",
            ])
    header = [*table.header[:5], "distribution", *table.header[6:], ""]
    return _html_table(header, rows, table.title, table.note) + _LEGEND


def render_html(matrices: list[dict], title: str = DEFAULT_TITLE, store: str = "") -> str:
    """The index page: every matrix's tables, Figure 4 with stacked bars."""
    body = (
        f"<h1>{escape(title)}</h1>"
        f"<p class=\"muted\">{_counts_line(matrices)}. "
        f"Store: <code>{escape(store)}</code></p>"
    )
    for matrix in matrices:
        body += (
            f"<h2>Fault model: <code>{escape(matrix['fault_model'])}</code> "
            f"<span class=\"muted\">base seed {_seed(matrix['base_seed'])}, "
            f"n = {matrix['n']}</span></h2>" + _figure4_html(matrix)
        ) + "".join(
            _html_table(t.header, t.rows, t.title, t.note)
            for t in _tables(matrix)
        )
    return _page(title, body)


def _campaign_page(db: ResultsDB, matrix: dict, label: str) -> str:
    cell = matrix["results"][label]
    kept = matrix["provenance"]["campaigns"][label]
    cid = kept["id"]

    def share(hits: int, total: int) -> str:
        return fmt_pct(hits, total, _wilson(hits, total))

    def sensitivity(by: str, title: str, **kwargs) -> str:
        groups = breakdown(db, cid, by=by, **kwargs)
        return _html_table(
            ["group", "n", *_OUTCOMES, "distribution"],
            [
                [g.key, str(g.total)]
                + [share(g.frequency(o), g.total) for o in OUTCOME_ORDER]
                + [_stacked_bar([g.frequency(o) for o in OUTCOME_ORDER])]
                for g in groups
            ],
            title,
        ) if groups else ""

    def ranking(by: str, title: str) -> str:
        ranked = rank_sites(db, cid, by=by, limit=10)
        return _html_table(
            ["site", "n", "crashes", "crash rate (Wilson 95%)"],
            [[s.key, str(s.total), str(s.hits), share(s.hits, s.total)]
             for s in ranked],
            title,
        ) if ranked else ""

    phases = kept["phases"] or {}
    phase_line = (
        f"<p class=\"muted\">schedule = {escape(kept['schedule'] or 'index')}; "
        "phases: " + ", ".join(
            f"{name.removesuffix('_s')} {phases.get(name, 0.0):.2f}s"
            for name in _PHASES
        ) + "</p>"
    ) if any(phases.values()) else ""
    body = (
        "<p><a href=\"index.html\">&larr; all campaigns</a></p>"
        f"<h1>{escape(label)}</h1>"
        f"<p class=\"muted\">n = {cell['n']}, base seed = {_seed(matrix['base_seed'])}, "
        f"fault model = {escape(matrix['fault_model'])}, "
        f"fault candidates = {cell['total_candidates'] or 'unknown'}</p>"
        + phase_line
        + _figure4_html(matrix, only=label)
        + "<h2>Fault-site sensitivity</h2>"
        + sensitivity("model", "By fault model")
        + sensitivity("func", "By source function")
        + sensitivity("opcode", "By instruction opcode")
        + sensitivity("kind", "By operand kind")
        + sensitivity("bit", "By flipped bit range", bit_buckets=8)
        + "<h2>Most vulnerable sites</h2>"
        + ranking("register", "Registers by crash rate")
        + ranking("bit", "Bit positions by crash rate")
    )
    return _page(f"{label} — campaign details", body)


def build_report(db: ResultsDB, out_dir: str | Path,
                 title: str = DEFAULT_TITLE) -> Path:
    """Write ``index.html`` (+ drill-downs), ``report.md`` and
    ``report.json`` (``report-2.json``... for further matrices) into
    ``out_dir`` and return the index page path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (out / name).write_text(text, encoding="utf-8")

    matrices = report_data(db)
    write("index.html", render_html(matrices, title, store=db.path))
    write("report.md", render_markdown(matrices, title))
    for k, matrix in enumerate(matrices):
        write(
            "report.json" if k == 0 else f"report-{k + 1}.json",
            json.dumps(matrix, indent=2) + "\n",
        )
        for label, kept in matrix["provenance"]["campaigns"].items():
            if kept["runs"]:
                write(
                    f"campaign-{kept['id']}.html", _campaign_page(db, matrix, label)
                )
    return out / "index.html"
