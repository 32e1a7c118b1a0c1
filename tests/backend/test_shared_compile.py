"""One front half per program, one clean backend per program.

``compile_minic`` runs frontend + verify + irpasses once per (source, name,
opt level) and the clean backend once; LLFI lowers its own copy of the
optimised module, PINFI takes a copy of the clean binary, REFINE instruments
another.  The bar: what a tool gets is what it would have got alone,
whichever tool of the program was built first.
"""

import itertools
import sys
import threading

import pytest

import repro.backend.compiler as compiler
from repro.backend import format_function
from repro.campaign import make_tool, run_cells
from repro.campaign.cell import CampaignSpec
from repro.fi import TOOL_ORDER
from repro.workloads import workload_names, workload_sources

from tests.conftest import DEMO_SOURCE


def _facts(binary) -> tuple:
    """Everything a loader, a campaign or a report reads off a binary (by
    value: a later edit of the binary does not reach into it)."""
    return (
        binary.name, binary.entry, sorted(binary.intrinsics),
        [format_function(mf) for mf in binary.functions.values()],
        [(g.name, g.kind, g.count, list(g.init)) for g in binary.globals.values()],
        [(k, dict(vars(v)) if k == "stats" else v) for k, v in binary.meta.items()],
    )


def _forget():
    compiler._front_half.cache_clear()
    compiler._clean_binary.cache_clear()


def _isolated(tool_name: str, source: str, name: str):
    """The tool built the way it was before anything was shared."""
    _forget()
    tool = make_tool(tool_name, source, name)
    tool.binary
    return tool


@pytest.mark.parametrize("program", workload_names())
def test_every_build_order_equals_isolated_compiles(program):
    source = workload_sources()[program]
    alone = {t: _isolated(t, source, program) for t in TOOL_ORDER}
    for order in itertools.permutations(TOOL_ORDER):
        _forget()
        shared = {t: make_tool(t, source, program) for t in order}
        for t in order:
            assert _facts(shared[t].binary) == _facts(alone[t].binary), (order, t)
        # instrumenting first leaves the later clean binary clean
        text = "\n".join(_facts(shared["PINFI"].binary)[3])
        assert "fi_check" not in text and "__fi_inject" not in text, order
        assert "fi_check" in "\n".join(_facts(shared["REFINE"].binary)[3])
        assert "__fi_inject" in "\n".join(_facts(shared["LLFI"].binary)[3])
    # ... and runs like it (``shared`` is the last order: PINFI built first)
    for t in TOOL_ORDER:
        mine, theirs = shared[t].profile, alone[t].profile
        assert mine.golden_output == theirs.golden_output
        assert mine.total_candidates == theirs.total_candidates
        assert (mine.steps, mine.cycles) == (theirs.steps, theirs.cycles)


def test_a_returned_binary_is_the_callers_to_edit():
    first = compiler.compile_minic(DEMO_SOURCE, "demo")
    pristine = _facts(first)
    main = first.functions["main"]
    main.blocks[0].instructions[0].operands.clear()
    del main.blocks[0].instructions[1:]
    first.globals["N"].init[0] = 99
    first.meta["stats"].machine_instructions = -1
    assert _facts(compiler.compile_minic(DEMO_SOURCE, "demo")) == pristine


def test_the_cache_is_bounded():
    _forget()
    kept = compiler._front_half.cache_info().maxsize
    assert kept == compiler._clean_binary.cache_info().maxsize <= 8
    for k in range(kept + 3):
        compiler.compile_minic(f"int main() {{ return {k}; }}", "t")
        assert compiler._front_half.cache_info().currsize <= kept
    assert compiler._front_half.cache_info().currsize == kept
    assert compiler._clean_binary.cache_info().currsize == kept


class TestOneFrontHalfPerProgram:
    """The sharing cannot silently regress: a three-tool matrix of one
    program lowers, verifies and optimises its source once."""

    def test_matrix_runs_the_front_half_once(self, monkeypatch):
        calls = {"compile_source": 0, "optimize_module": 0, "_lower": 0}
        for name in calls:
            real = getattr(compiler, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(compiler, name, counting)
        _forget()
        source = workload_sources()["EP"]
        results = run_cells(
            [CampaignSpec(workload="EP", source=source, tool_name=t, n=4)
             for t in TOOL_ORDER],
            1,
        )
        assert len(results) == 3
        assert calls == {
            "compile_source": 1, "optimize_module": 1,
            "_lower": 2,  # the clean backend and LLFI's
        }


def test_threads_building_one_programs_tools_get_isolated_binaries():
    """A caller's own threads (two ``Worker``s in one process, say) may
    build one program's tools at once; each gets binaries of its own."""
    source = workload_sources()["EP"]
    alone = {t: _facts(_isolated(t, source, "EP").binary) for t in TOOL_ORDER}
    _forget()
    built: list[tuple[str, tuple]] = []

    def build(tool_name):
        built.append((tool_name, _facts(make_tool(tool_name, source, "EP").binary)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=build, args=(t,)) for t in TOOL_ORDER * 2
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 6
    for tool_name, facts in built:
        assert facts == alone[tool_name], tool_name
