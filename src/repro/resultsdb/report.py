"""Static HTML report over a results store.

Renders the paper's decision-support views — Figure 4 outcome
distributions (stacked bars + Wilson whiskers) and Table 5 chi-squared
cross-tool comparisons — as plain HTML/CSS with no JavaScript and no
external assets, so a report directory can be archived next to the
campaign data and opened from a file:// URL forever.

Layout: ``index.html`` holds the store-wide views; every campaign with
stored per-experiment rows gets a ``campaign-<id>.html`` drill-down page
with fault-site breakdowns (function / opcode / operand kind / bit
range) and the top vulnerable registers and bits.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

from repro.campaign.classify import OUTCOME_ORDER, Outcome
from repro.errors import StatsError
from repro.resultsdb.db import ResultsDB
from repro.resultsdb.queries import (
    CampaignInfo,
    breakdown,
    contingency,
    list_campaigns,
    rank_sites,
)
from repro.stats.intervals import wilson_interval

#: Stacked-bar colors per outcome (crash / soc / benign).
_COLORS = {
    Outcome.CRASH: "#c0392b",
    Outcome.SOC: "#e67e22",
    Outcome.BENIGN: "#27ae60",
}

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
.sig-yes { color: #c0392b; font-weight: 600; }
.sig-no { color: #27ae60; }
.badge { display: inline-block; padding: 0.05rem 0.45rem;
         border-radius: 0.6rem; font-size: 0.8rem; font-weight: 600; }
.badge-passed { background: #e8f8ef; color: #27ae60; }
.badge-failed { background: #fdecea; color: #c0392b; }
.badge-pinned { background: #eaf2fd; color: #2c6cb0; }
.badge-skipped { background: #f4f4f4; color: #777; }
"""


def _validation_badge(verdict: str | None, p_value: float | None) -> str:
    """Auto-validation verdict as a colored badge (em-dash when never
    validated)."""
    if verdict is None:
        return "<span class=\"muted\">&mdash;</span>"
    p = "" if p_value is None else (
        f" <span class=\"muted\">p={p_value:.3g}</span>"
    )
    return (
        f"<span class=\"badge badge-{escape(verdict)}\">"
        f"{escape(verdict)}</span>{p}"
    )


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n<html lang=\"en\"><head>"
        "<meta charset=\"utf-8\">"
        f"<title>{escape(title)}</title>"
        f"<style>{_CSS}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )


def _stacked_bar(counts: dict[Outcome, int]) -> str:
    total = sum(counts.values())
    if total == 0:
        return "<div class=\"bar\"></div>"
    spans = "".join(
        f"<span style=\"width:{100.0 * counts.get(o, 0) / total:.2f}%;"
        f"background:{_COLORS[o]}\"></span>"
        for o in OUTCOME_ORDER
    )
    return f"<div class=\"bar\">{spans}</div>"


def _legend() -> str:
    bits = "".join(
        f"<span style=\"background:{_COLORS[o]}\"></span>{o.value}"
        for o in OUTCOME_ORDER
    )
    return f"<p class=\"legend muted\">{bits}</p>"


def _pct_ci(hits: int, total: int) -> str:
    """``12.3% [10.1, 14.9]`` with a Wilson interval (em-dash when n=0)."""
    if total <= 0:
        return "&mdash;"
    try:
        iv = wilson_interval(hits, total)
    except StatsError:
        return "&mdash;"
    return (
        f"{iv.p * 100:.1f}% <span class=\"muted\">"
        f"[{iv.low * 100:.1f}, {iv.high * 100:.1f}]</span>"
    )


def _overview_table(infos: list[CampaignInfo]) -> str:
    head = (
        "<tr><th class=\"k\">workload</th><th class=\"k\">tool</th>"
        "<th>n</th><th>stored runs</th>"
        + "".join(f"<th>{o.value}</th>" for o in OUTCOME_ORDER)
        + "<th>distribution</th><th>validation</th><th></th></tr>"
    )
    rows = []
    for info in infos:
        total = sum(info.counts.values())
        cells = "".join(
            f"<td>{info.counts.get(o, 0)}"
            f"<br><span class=\"muted\">{_pct_ci(info.counts.get(o, 0), total)}"
            "</span></td>"
            for o in OUTCOME_ORDER
        )
        link = (
            f"<a href=\"campaign-{info.id}.html\">details</a>"
            if info.runs else "<span class=\"muted\">summary only</span>"
        )
        rows.append(
            f"<tr><td class=\"k\">{escape(info.workload)}</td>"
            f"<td class=\"k\">{escape(info.tool)}</td>"
            f"<td>{info.n}</td><td>{info.runs}</td>{cells}"
            f"<td>{_stacked_bar(info.counts)}</td>"
            f"<td>{_validation_badge(info.validation, info.validation_p)}"
            f"</td><td>{link}</td></tr>"
        )
    return f"<table>{head}{''.join(rows)}</table>"


def _chisq_section(db: ResultsDB, infos: list[CampaignInfo]) -> str:
    """Table-5 view: per-workload cross-tool chi-squared tests.

    With a PINFI campaign present it is the baseline (the paper's
    choice); otherwise every tool pair for the workload is tested.
    """
    by_workload: dict[str, list[CampaignInfo]] = {}
    for info in infos:
        by_workload.setdefault(info.workload, []).append(info)
    rows = []
    for workload, cell_infos in by_workload.items():
        tools = [i.tool for i in cell_infos]
        if len(set(tools)) != len(tools) or len(tools) < 2:
            continue  # ambiguous (multiple seeds) or nothing to compare
        if "PINFI" in tools:
            pairs = [(t, "PINFI") for t in tools if t != "PINFI"]
        else:
            pairs = [
                (tools[i], tools[j])
                for i in range(len(tools)) for j in range(i + 1, len(tools))
            ]
        for tool_a, tool_b in pairs:
            try:
                test = contingency(db, workload, tool_a, tool_b).test()
            except StatsError as exc:
                rows.append(
                    f"<tr><td class=\"k\">{escape(workload)}</td>"
                    f"<td class=\"k\">{escape(tool_a)} vs {escape(tool_b)}"
                    f"</td><td colspan=\"3\" class=\"muted\">"
                    f"not testable: {escape(str(exc))}</td></tr>"
                )
                continue
            p_str = "~0.00" if test.p_value < 0.005 else f"{test.p_value:.2f}"
            verdict = (
                "<span class=\"sig-yes\">yes</span>" if test.significant
                else "<span class=\"sig-no\">no</span>"
            )
            rows.append(
                f"<tr><td class=\"k\">{escape(workload)}</td>"
                f"<td class=\"k\">{escape(tool_a)} vs {escape(tool_b)}</td>"
                f"<td>{test.statistic:.2f}</td><td>{p_str}</td>"
                f"<td>{verdict}</td></tr>"
            )
    if not rows:
        return ""
    head = (
        "<tr><th class=\"k\">workload</th><th class=\"k\">pair</th>"
        "<th>chi&sup2;</th><th>p-value</th>"
        "<th>significant difference?</th></tr>"
    )
    return (
        "<h2>Cross-tool comparison (Table 5 view)</h2>"
        "<p class=\"muted\">Pearson chi-squared homogeneity test on the "
        "outcome contingency table, alpha = 0.05.</p>"
        f"<table>{head}{''.join(rows)}</table>"
    )


def _breakdown_table(db: ResultsDB, campaign_id: int, by: str,
                     title: str, **kwargs) -> str:
    groups = breakdown(db, campaign_id, by=by, **kwargs)
    if not groups:
        return ""
    head = (
        "<tr><th class=\"k\">group</th><th>n</th>"
        + "".join(f"<th>{o.value}</th>" for o in OUTCOME_ORDER)
        + "<th>distribution</th></tr>"
    )
    rows = "".join(
        f"<tr><td class=\"k\">{escape(g.key)}</td><td>{g.total}</td>"
        + "".join(
            f"<td>{_pct_ci(g.frequency(o), g.total)}</td>"
            for o in OUTCOME_ORDER
        )
        + f"<td>{_stacked_bar(g.counts)}</td></tr>"
        for g in groups
    )
    return f"<h3>{escape(title)}</h3><table>{head}{rows}</table>"


def _rank_table(db: ResultsDB, campaign_id: int, by: str, title: str,
                limit: int = 10) -> str:
    ranked = rank_sites(db, campaign_id, by=by, limit=limit)
    if not ranked:
        return ""
    rows = "".join(
        f"<tr><td class=\"k\">{escape(s.key)}</td><td>{s.total}</td>"
        f"<td>{s.hits}</td><td>{_pct_ci(s.hits, s.total)}</td></tr>"
        for s in ranked
    )
    return (
        f"<h3>{escape(title)}</h3>"
        "<table><tr><th class=\"k\">site</th><th>n</th><th>crashes</th>"
        "<th>crash rate (Wilson 95%)</th></tr>"
        f"{rows}</table>"
    )


def _campaign_page(db: ResultsDB, info: CampaignInfo) -> str:
    label = f"{info.workload}/{info.tool}"
    engines = db.execute(
        "SELECT engine, COUNT(*), SUM(COALESCE(snapshot_hit, 0)) FROM runs"
        " WHERE campaign_id=? GROUP BY engine",
        (info.id,),
    ).fetchall()
    engine_bits = ", ".join(
        f"{eng or 'unknown'}: {k} runs ({hits} fork hits)"
        for eng, k, hits in engines
    )
    phase_line = ""
    if info.phases and any(info.phases.values()):
        bits = ", ".join(
            f"{name.removesuffix('_s')} {info.phases.get(name, 0.0):.2f}s"
            for name in
            ("translate_s", "prefix_s", "fork_s", "tail_s", "classify_s")
        )
        phase_line = (
            f"<p class=\"muted\">schedule = {escape(info.schedule or 'index')};"
            f" phases: {escape(bits)}</p>"
        )
    body = (
        f"<p><a href=\"index.html\">&larr; all campaigns</a></p>"
        f"<h1>{escape(label)}</h1>"
        f"<p class=\"muted\">n = {info.n}, base seed = {info.base_seed}, "
        f"fault model = {escape(info.fault_model or 'single-bit')}, "
        f"fault candidates = {info.total_candidates or 'unknown'}; "
        f"{escape(engine_bits)}</p>"
        + phase_line
        + _overview_table([info]) + _legend()
        + "<h2>Fault-site sensitivity</h2>"
        + _breakdown_table(db, info.id, "model", "By fault model")
        + _breakdown_table(db, info.id, "func", "By source function")
        + _breakdown_table(db, info.id, "opcode", "By instruction opcode")
        + _breakdown_table(db, info.id, "kind", "By operand kind")
        + _breakdown_table(
            db, info.id, "bit", "By flipped bit range", bit_buckets=8
        )
        + "<h2>Most vulnerable sites</h2>"
        + _rank_table(db, info.id, "register", "Registers by crash rate")
        + _rank_table(db, info.id, "bit", "Bit positions by crash rate")
    )
    return _page(f"{label} — campaign details", body)


def build_report(db: ResultsDB, out_dir: str | Path,
                 title: str = "Fault-injection campaign report") -> Path:
    """Write the report into ``out_dir`` and return the index page path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    infos = list_campaigns(db)
    total_runs = sum(i.runs for i in infos)
    # Mixed-model stores group the Figure-4 view per fault model, so each
    # model gets its own LLFI/REFINE/PINFI outcome comparison; a
    # single-model store keeps the historical single-table layout.
    models = {i.fault_model or "single-bit" for i in infos}
    if len(models) > 1:
        overview = ""
        for model in sorted(models):
            group = [i for i in infos if (i.fault_model or "single-bit") == model]
            overview += (
                f"<h3>Fault model: <code>{escape(model)}</code></h3>"
                + _overview_table(group)
            )
        overview += _legend()
    else:
        overview = _overview_table(infos) + _legend()
    body = (
        f"<h1>{escape(title)}</h1>"
        f"<p class=\"muted\">{len(infos)} campaign(s), "
        f"{sum(sum(i.counts.values()) for i in infos)} experiments "
        f"({total_runs} with per-experiment records). "
        f"Store: <code>{escape(db.path)}</code></p>"
        "<h2>Outcome distributions (Figure 4 view)</h2>"
        + overview
        + _chisq_section(db, infos)
    )
    (out / "index.html").write_text(_page(title, body), encoding="utf-8")
    for info in infos:
        if info.runs:
            (out / f"campaign-{info.id}.html").write_text(
                _campaign_page(db, info), encoding="utf-8"
            )
    return out / "index.html"
