"""repro — reproduction of *REFINE: Realistic Fault Injection via
Compiler-based Instrumentation for Accuracy, Portability and Speed*
(Georgakoudis, Laguna, Nikolopoulos & Schulz, SC'17).

The package is a full vertical stack:

* :mod:`repro.frontend` — MiniC, the C-like language the 14 benchmark
  workloads are written in;
* :mod:`repro.ir` / :mod:`repro.irpasses` — an SSA IR with O0/O1/O2
  optimization pipelines;
* :mod:`repro.backend` — instruction selection, linear-scan register
  allocation, frame lowering and peephole optimization for ``sx64``;
* :mod:`repro.machine` — a bit-accurate interpreter with architectural
  state (registers, FLAGS, memory, traps);
* :mod:`repro.fi` — the REFINE backend pass plus the LLFI (IR-level) and
  PINFI (binary-level) comparison tools;
* :mod:`repro.campaign`, :mod:`repro.stats`, :mod:`repro.resultsdb` —
  experiment orchestration, Leveugle sampling / chi-squared analysis, the
  results store and the paper's figures/tables over it;
* :mod:`repro.workloads` — the 14 HPC benchmark programs of Table 3.

Quick start::

    from repro import RefineTool, run_campaign
    from repro.workloads import get_workload

    spec = get_workload("HPCCG-1.0")
    tool = RefineTool(spec.source, spec.name)
    result = run_campaign(tool, n=100)
    print(result.summary())
"""

from repro.backend import compile_minic
from repro.campaign import (
    Outcome,
    classify,
    run_campaign,
    run_matrix,
)
from repro.fi import FIConfig, LLFITool, PinfiTool, RefineTool
from repro.machine import execute, load_binary

__version__ = "1.0.0"

__all__ = [
    "compile_minic",
    "Outcome",
    "classify",
    "run_campaign",
    "run_matrix",
    "FIConfig",
    "LLFITool",
    "PinfiTool",
    "RefineTool",
    "execute",
    "load_binary",
    "__version__",
]
