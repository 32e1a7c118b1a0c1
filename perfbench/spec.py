"""What the benchmark measures: metric and workload definitions (data only).

``BENCHMARK.json`` at the repository root restates the end-to-end and
per-layer tables in the driver's format; ``test_smoke.py`` asserts the two
agree, so this module stays the single place a definition is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Campaign base seed of the default run, and the held-out seed a claim
#: must also hold on.  Both are pinned in ``expected.json``.
DEFAULT_SEED = 0x5EED0EF1
HELD_OUT_SEED = 0x5EED0EF2
PINNED_SEEDS = (DEFAULT_SEED, HELD_OUT_SEED)

#: Timed laps of one workload in a full ``python3 -m perfbench`` run (the
#: driver's form derives its own count from ``--seconds``, see ``lap_count``).
TIMED_LAPS = 3

#: ``--smoke`` caps every cell at this many experiments (and runs one lap).
SMOKE_N = 16

TOOLS = ("REFINE", "PINFI", "LLFI")

#: The paper's 14 programs (Table 3), in registry order.
PROGRAMS = (
    "AMG2013", "CoMD", "HPCCG-1.0", "lulesh", "miniFE", "BT", "CG", "DC",
    "EP", "FT", "LU", "SP", "UA", "XSBench",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the parent's median by which it may worsen (end-to-end only)
    bound: float | None = None
    #: absolute slack ``--compare`` grants on top (the driver's format has
    #: no field for it): a 0.2 s set-up wobbles by more than its share
    floor: float = 0.0
    #: simulated and deterministic: two runs must agree with ``==``
    exact: bool = False


#: Host-time numbers a user of the pipeline sees; every workload reports
#: all of them as the median over its timed laps.  ``failed_share`` and
#: ``paper_shape_violations`` (ISSUE 12) are 0 on a healthy commit, which
#: a relative bound cannot express: the former is the result line's
#: ``failed / attempted``, the latter an exact per-layer count.
#:
#: The driver accepts a bound only if ten runs at ten *different* seeds
#: spread (interquartile range / median) by less than it, and asks for a
#: third of it.  Raw host time on the reference box spreads 6-11 % whatever
#: the workload (README, "Measured on this commit"), so ``exps_per_s`` and
#: ``cpu_s_per_kexp`` carry the format's maximum; ``run_over_golden``
#: cancels machine speed (3-6 %) and is the tight gate: any slowdown of the
#: campaign path moves it exactly as much as it moves ``exps_per_s``.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, floor=0.15),
    Metric("exps_per_s", "1/s", "higher", 0.25),
    Metric("run_over_golden", "ratio", "lower", 0.15),
    Metric("cpu_s_per_kexp", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Traced-lap numbers, one layer (``src/repro`` package) per prefix.
#: 0 means "this workload does not exercise the layer" (``service.*`` and
#: ``dist.status_*`` off ``service_db``).
PER_LAYER = (
    Metric("frontend.lower_ms", "ms", "lower"),
    Metric("irpasses.opt_ms", "ms", "lower"),
    Metric("backend.codegen_ms", "ms", "lower"),
    Metric("fi.compile_ms", "ms", "lower"),
    Metric("machine.load_ms", "ms", "lower"),
    Metric("irpasses.ir_instrs_after", "count", "lower", exact=True),
    Metric("backend.code_instrs", "count", "lower", exact=True),
    Metric("backend.spills", "count", "lower", exact=True),
    Metric("engine.translate_ms", "ms", "lower"),
    Metric("engine.golden_ms", "ms", "lower"),
    Metric("engine.sim_steps_per_s", "1/s", "higher"),
    Metric("fi.plan_us", "us", "lower"),
    *(Metric(f"fi.{t}.exps_per_s", "1/s", "higher") for t in TOOLS),
    Metric("fi.sim_cycles_refine_over_pinfi", "ratio", "lower", exact=True),
    Metric("fi.sim_cycles_llfi_over_pinfi", "ratio", "lower", exact=True),
    Metric("stats.chisq_p_refine_pinfi", "p", "higher", exact=True),
    Metric("stats.chisq_p_llfi_pinfi", "p", "lower", exact=True),
    Metric("paper_shape_violations", "count", "lower", exact=True),
    Metric("campaign.translate_s", "s", "lower"),
    Metric("campaign.prefix_s", "s", "lower"),
    Metric("campaign.fork_s", "s", "lower"),
    Metric("campaign.tail_s", "s", "lower"),
    Metric("campaign.classify_s", "s", "lower"),
    Metric("campaign.unaccounted_s", "s", "lower"),
    Metric("campaign.tail_share", "ratio", "lower"),
    Metric("campaign.fork_share", "ratio", "lower"),
    Metric("campaign.fork_share_max_cell", "ratio", "lower"),
    Metric("campaign.forks", "count", "lower", exact=True),
    Metric("campaign.rejoins", "count", "higher", exact=True),
    Metric("campaign.cursor_steps", "count", "lower", exact=True),
    Metric("campaign.tail_steps", "count", "lower", exact=True),
    Metric("campaign.rejoin_ratio", "ratio", "higher", exact=True),
    Metric("campaign.tail_us_per_kstep", "us", "lower"),
    Metric("campaign.exp_ms_p50", "ms", "lower"),
    Metric("campaign.exp_ms_p99", "ms", "lower"),
    Metric("campaign.exp_ms_samples", "count", "higher"),
    Metric("campaign.events_emit_us", "us", "lower"),
    Metric("campaign.checkpoint_save_ms", "ms", "lower"),
    Metric("campaign.parallel_speedup_j2", "ratio", "higher"),
    Metric("resultsdb.sink_rows_per_s", "1/s", "higher"),
    Metric("resultsdb.flush_ms_p50", "ms", "lower"),
    Metric("resultsdb.db_bytes_per_exp", "B", "lower"),
    Metric("resultsdb.readback_ms", "ms", "lower"),
    Metric("resultsdb.report_ms", "ms", "lower"),
    Metric("dist.frame_rtt_us", "us", "lower"),
    Metric("dist.status_rtt_ms_p50", "ms", "lower"),
    Metric("dist.status_rtt_ms_p99", "ms", "lower"),
    Metric("service.start_s", "s", "lower"),
    Metric("service.submit_ms", "ms", "lower"),
    Metric("service.admit_wait_s", "s", "lower"),
    Metric("service.lease_wait_s", "s", "lower"),
    Metric("service.validate_s", "s", "lower"),
    Metric("service.stop_s", "s", "lower"),
    Metric("service.requeues", "count", "lower"),
    Metric("service.overhead_share", "ratio", "lower"),
    Metric("trace_overhead_share", "ratio", "lower"),
)


@dataclass(frozen=True)
class Cell:
    """One (program, tool, fault model) campaign of ``n`` experiments."""

    program: str
    tool: str
    n: int
    model: str = "single-bit"

    @property
    def key(self) -> str:
        return f"{self.program}/{self.tool}/{self.model}/{self.n}"


@dataclass(frozen=True)
class Campaign:
    """One service submission: ``program`` x ``tools`` x ``n``."""

    tenant: str
    priority: int
    program: str
    tools: tuple[str, ...]
    n: int
    model: str = "single-bit"

    @property
    def cells(self) -> list[Cell]:
        return [Cell(self.program, t, self.n, self.model) for t in self.tools]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "warm" builds the cells before the clock, "cold" inside it,
    #: "service" submits ``campaigns`` to a LocalService
    kind: str
    #: one lap on the 2-core reference box; ``--seconds`` buys
    #: ``round(seconds / lap_s)`` laps (at least one)
    lap_s: float


def _n(full: int, smoke: bool) -> int:
    return min(full, SMOKE_N) if smoke else full


def service_campaigns(smoke: bool = False) -> list[Campaign]:
    """4 campaigns, 2 tenants, 2 priorities, 7 cells (1 334 experiments).

    The memory-cell campaign runs one experiment fewer than the EP
    single-bit one: the results database keys a campaign by (workload,
    tool, seed, n) and refuses a second fault model under the same key.
    """
    ep = _n(178, smoke)
    return [
        Campaign("alice", 0, "HPCCG-1.0", ("REFINE", "PINFI"), _n(267, smoke)),
        Campaign("bob", 5, "EP", TOOLS, ep),
        Campaign("alice", 5, "EP", ("REFINE",), ep - 1, "memory-cell"),
        Campaign("bob", 0, "lulesh", ("LLFI",), _n(89, smoke)),
    ]


def cells(workload: str, smoke: bool = False) -> list[Cell]:
    """The campaigns one lap of ``workload`` runs, in order."""
    if workload == "paper_n1068":
        return [Cell("lulesh", t, _n(1068, smoke)) for t in TOOLS]
    if workload == "cold_small":
        programs = PROGRAMS[:4] if smoke else PROGRAMS
        return [Cell(p, t, _n(24, smoke)) for p in programs for t in TOOLS]
    if workload == "fault_models":
        n = _n(320, smoke)
        models = ("multi-bit:k=3", "memory-cell", "cache-line", "stuck-at:dwell=64")
        out = [Cell("EP", t, n, m) for m in models for t in TOOLS]
        # IR-level LLFI cannot corrupt instruction encodings.
        return out + [Cell("EP", t, n, "opcode") for t in ("REFINE", "PINFI")]
    if workload == "service_db":
        return [c for camp in service_campaigns(smoke) for c in camp.cells]
    raise KeyError(workload)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_n1068",
            "lulesh x 3 tools x n=1068 built before the clock: the paper's "
            "setting, >=85% faulty-tail execution in the engine",
            "warm", 11.0,
        ),
        Workload(
            "cold_small",
            "14 programs x 3 tools x n=24 compiled, loaded, profiled and run "
            "inside the clock: compile, translation, prefix and fork dominate",
            "cold", 11.0,
        ),
        Workload(
            "fault_models",
            "EP x 5 fault models x n=320: never-rejoining memory faults, "
            "dwell windows, instant opcode crashes on the same scheduler",
            "warm", 26.0,
        ),
        Workload(
            "service_db",
            "4 campaigns (1334 exps) via LocalService + queue + results DB + "
            "checkpoints, 2 workers: the infrastructure gap to inline runs",
            "service", 19.0,
        ),
    )
}


def lap_count(workload: str, seconds: float) -> int:
    """Timed laps a run of ``seconds`` holds: a pure function of its
    arguments, so a run's cost does not flap with the machine's speed."""
    return max(1, math.floor(seconds / WORKLOADS[workload].lap_s + 0.5))
