"""``python3 -m perfbench``: the one command.

* no ``--workload``: every workload, ``spec.TIMED_LAPS`` timed laps plus one
  traced lap each; prints all end-to-end metrics and the per-layer table,
  exits 1 on any correctness failure.  ``--out F`` appends the run to ``F``.
* ``--workload W --seed N --seconds S --trace 0|1``: one workload the way
  the benchmark driver runs it; the last line of stdout is the result
  object (``--trace 0``: end-to-end metrics, ``--trace 1``: per-layer).
* ``--compare A.json B.json``: verdict table for two ``--out`` files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from perfbench import spec
from perfbench.compare import EXACT_E2E, compare
from perfbench.runner import LapError, precompile, run_workload

#: Seeds travel as SQLite INTEGERs (the results database's ``base_seed``).
SEED_MASK = (1 << 62) - 1


def _print_workload(run: dict) -> None:
    print(f"\n== {run['workload']}  seed {run['seed']:#x} ({run['check']})")
    units = {m.name: m.unit for m in spec.END_TO_END}
    for name, entry in run["e2e"].items():
        laps = ", ".join(f"{v:.4g}" for v in entry["laps"])
        print(f"  {name:<26}{entry['median']:>14.6g} {units.get(name, ''):<6} laps: {laps}")
    if run["layers"]:
        print("  -- per layer (traced lap)")
        units = {m.name: m.unit for m in spec.PER_LAYER}
        for name, value in run["layers"].items():
            print(f"  {name:<34}{value:>16.6g} {units[name]}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")


def _contract_result(run: dict, traced: bool) -> dict:
    if traced:
        units = {m.name: m.unit for m in spec.PER_LAYER}
        values = run["layers"]
    else:
        units = {m.name: m.unit for m in spec.END_TO_END}
        values = {name: run["e2e"][name]["median"] for name in units}
    return {
        "correct": not run["failures"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }


def _append_run(path: str, run: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    with open(path, "w") as fh:
        json.dump({"runs": runs + [run]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"cap every cell at n={spec.SMOKE_N}, one timed lap")
    parser.add_argument("--out", help="append this run's full report to a JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        lines, ok = compare(*args.compare)
        print("\n".join(lines))
        return 0 if ok else 1
    if importlib.util.find_spec("repro") is None:
        print("perfbench: the repro package (src/) is not in this checkout",
              file=sys.stderr)
        return 2
    seed = args.seed & SEED_MASK
    precompile()

    try:
        if args.workload:
            laps = 1 if args.smoke or args.trace or args.seconds is None else (
                spec.lap_count(args.workload, args.seconds)
            )
            run = run_workload(args.workload, seed, laps=laps,
                               traced=bool(args.trace), smoke=args.smoke)
            _print_workload(run)
            if args.out:
                _append_run(args.out, {"workloads": {args.workload: run}})
            print(json.dumps(_contract_result(run, bool(args.trace))))
            return 0
        runs = {}
        for workload in spec.WORKLOADS:
            runs[workload] = run_workload(
                workload, seed, laps=1 if args.smoke else spec.TIMED_LAPS,
                traced=True, smoke=args.smoke,
            )
            _print_workload(runs[workload])
    except LapError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if args.out:
        _append_run(args.out, {"workloads": runs})
    failed = [w for w, r in runs.items() if r["failures"]]
    shape = {w: r["e2e"][EXACT_E2E[1]]["median"] for w, r in runs.items()}
    print(f"\nfailed_share > 0 on: {failed or 'no workload'}; "
          f"paper_shape_violations: {shape}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
