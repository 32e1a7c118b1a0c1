"""Run a workload: sequential laps in fresh child processes, medians on top.

One run = ``laps`` timed laps with tracing off, then (optionally) one
traced lap.  Every end-to-end metric is the median over the timed laps;
the per-layer numbers come from the traced lap alone, and the gap between
the two kinds of lap is reported as ``trace_overhead_share``.
"""

from __future__ import annotations

import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from perfbench import ROOT, spec

#: All lap state (queue, databases, checkpoints, snapshot store, event
#: files) lives in a per-lap directory under here, removed when the lap ends.
TMP_ROOT = ROOT / ".perfbench_tmp"

LAP_TIMEOUT_S = 150.0

#: Experiments of the first lap re-run on the oracle path when the seed
#: has no pin in ``expected.json``.
ORACLE_SAMPLE = 12


class LapError(RuntimeError):
    """A lap process crashed, hung or printed no report."""


def precompile() -> None:
    """Byte-compile the program and the harness once, so the first lap of
    a fresh checkout does not pay for it inside ``setup_s``."""
    for tree in (ROOT / "src", ROOT / "perfbench"):
        compileall.compile_dir(str(tree), quiet=2)


def launch_lap(workload: str, seed: int, *, traced: bool = False,
               smoke: bool = False, oracle_sample: int = 0) -> dict:
    """Run one lap in a fresh process and return its report."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_ENGINE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-m", "perfbench.lap", workload, "--seed", str(seed),
        "--tmp", tmp, "--oracle-sample", str(oracle_sample),
        *(["--trace"] if traced else []), *(["--smoke"] if smoke else []),
        "--spawned-at", repr(time.time()),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=LAP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise LapError(f"{workload} lap exceeded {LAP_TIMEOUT_S:.0f} s") from None
    finally:
        # the lap's whole process group, whatever state it is in
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run's lap is still using it
    if proc.returncode != 0:
        raise LapError(f"{workload} lap exited with code {proc.returncode}")
    try:
        return json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        raise LapError(f"{workload} lap printed no report") from None


def run_workload(workload: str, seed: int, *, laps: int, traced: bool,
                 smoke: bool = False) -> dict:
    """``laps`` timed laps (+ one traced lap) of one workload, summarized."""
    reports = [
        launch_lap(workload, seed, smoke=smoke,
                   oracle_sample=ORACLE_SAMPLE if i == 0 else 0)
        for i in range(laps)
    ]
    timed = list(reports)
    layers = None
    if traced:
        reports.append(launch_lap(workload, seed, traced=True, smoke=smoke))
        layers = dict(reports[-1]["layers"])
        # over run_over_golden, not raw wall: the golden runs of each lap
        # cancel the machine's drift between the two laps
        cost = "run_over_golden"
        layers["trace_overhead_share"] = (
            reports[-1]["e2e"][cost] / statistics.median(r["e2e"][cost] for r in timed) - 1
        )
        # layers this workload does not exercise read 0
        layers = {m.name: layers.get(m.name, 0.0) for m in spec.PER_LAYER}

    failures = [f for r in reports for f in r["failures"]]
    if any(r["digests"] != reports[0]["digests"] for r in reports):
        failures.append("experiment records differ between laps of one seed")
    e2e = {
        name: {
            "median": statistics.median(r["e2e"][name] for r in timed),
            "laps": [r["e2e"][name] for r in timed],
        }
        for name in timed[0]["e2e"]
    }
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "check": reports[0]["check"],  # the first lap carries the oracle sample
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failures": failures,
        "e2e": e2e, "layers": layers,
        "spans": reports[-1]["spans"] if traced else None,
    }
