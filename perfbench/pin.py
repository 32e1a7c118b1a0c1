"""Regenerate ``expected.json`` from the oracle path.

``python3 -m perfbench.pin`` runs every cell of every workload (full and
``--smoke`` sizes) at both pinned seeds on the reference engine, in index
order, with snapshots off — never on the path under test — and writes the
simulated statistics the laps are checked against.  An experiment is a
pure function of (seed, program, tool, model, index), so one oracle run at
the largest n pins every smaller n of the same campaign by prefix.
Takes about six minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from perfbench import adapter, spec, verify


def _groups() -> dict[tuple[str, str, str], set[int]]:
    """(program, tool, model) -> every n some workload runs it at."""
    groups: dict[tuple[str, str, str], set[int]] = {}
    for workload in spec.WORKLOADS:
        for smoke in (False, True):
            for cell in spec.cells(workload, smoke):
                groups.setdefault((cell.program, cell.tool, cell.model), set()).add(cell.n)
    return groups


def _pin_group(task) -> tuple[int, dict, tuple[str, dict]]:
    seed, (program, tool_name, model), sizes = task
    cell = spec.Cell(program, tool_name, max(sizes), model)
    tool = adapter.build_tool(cell, oracle=True)
    result = adapter.run_cell(tool, cell, seed, oracle=True)
    pins = {
        spec.Cell(program, tool_name, n, model).key: verify.summarize(result, n)
        for n in sorted(sizes)
    }
    return seed, pins, (f"{program}/{tool_name}", verify.binary_summary(result))


def main(argv=None) -> int:
    argparse.ArgumentParser(prog="python -m perfbench.pin", description=__doc__,
                            formatter_class=argparse.RawTextHelpFormatter).parse_args(argv)

    tasks = [
        (seed, group, sizes)
        for seed in spec.PINNED_SEEDS
        for group, sizes in sorted(_groups().items())
    ]
    tasks.sort(key=lambda t: -max(t[2]))  # longest first
    seeds: dict[str, dict] = {verify.seed_key(s): {} for s in spec.PINNED_SEEDS}
    binaries: dict[str, dict] = {}
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count(), mp_context=context) as pool:
        for done, (seed, pins, (name, binary)) in enumerate(
            pool.map(_pin_group, tasks), 1
        ):
            seeds[verify.seed_key(seed)].update(pins)
            if binaries.setdefault(name, binary) != binary:
                raise RuntimeError(f"{name}: binary facts differ between seeds")
            print(f"\rpinned {done}/{len(tasks)} campaigns", end="", file=sys.stderr)
    print(file=sys.stderr)
    expected = {
        "oracle": adapter.ORACLE,
        "binaries": dict(sorted(binaries.items())),
        "seeds": {k: dict(sorted(v.items())) for k, v in seeds.items()},
    }
    verify.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
