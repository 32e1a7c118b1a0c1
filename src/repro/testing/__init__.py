"""Differential-testing harness for the compiler/FI stack.

REFINE's trustworthiness argument rests on the compiler pipeline and on the
claim that backend instrumentation does not perturb code generation
(paper Section 3).  This package checks both against independent semantics:

* :mod:`repro.testing.interp` — a reference interpreter that executes IR
  modules directly, with trap semantics matching :mod:`repro.machine.cpu`
  but sharing **no** backend code;
* :mod:`repro.testing.generator` — a seeded random generator of well-typed
  IR programs (loops, branches, memory traffic, int/float arithmetic);
* :mod:`repro.testing.oracles` — differential oracles: interpreter vs
  compiled binary, O0 vs the full pass pipeline, the zero-interference
  oracle (instrumented-but-no-fault must be bit-identical to golden), the
  fast engine and the scheduler's primitives vs the interpreter loop;
* :mod:`repro.testing.reference` — the reference campaign (interpreter
  loop, index order, every run from instruction 0) that
  :func:`check_workload_equivalence` holds production campaigns to;
* :mod:`repro.testing.reduce` — a delta-debugging reducer that shrinks any
  diverging module to a minimal repro;
* :mod:`repro.testing.fuzz` — the campaign driver behind ``refine-fuzz``.
"""

from repro.testing.fuzz import FuzzFailure, FuzzStats, run_fuzz
from repro.testing.generator import GenConfig, generate_module
from repro.testing.interp import InterpResult, interpret
from repro.testing.oracles import (
    ORACLES,
    Divergence,
    EngineOracle,
    InterpOracle,
    Oracle,
    PipelineOracle,
    RunOutcome,
    SchedulerOracle,
    ZeroInterferenceOracle,
    check_workload_equivalence,
    check_workload_fault_model_equivalence,
    check_workload_zero_interference,
    compiled_outcome,
    interp_outcome,
)
from repro.testing.reduce import count_instructions, reduce_ir
from repro.testing.reference import ReferenceEngine, reference_campaign

__all__ = [
    "FuzzFailure",
    "FuzzStats",
    "run_fuzz",
    "GenConfig",
    "generate_module",
    "InterpResult",
    "interpret",
    "ORACLES",
    "Divergence",
    "Oracle",
    "EngineOracle",
    "InterpOracle",
    "PipelineOracle",
    "SchedulerOracle",
    "ZeroInterferenceOracle",
    "check_workload_equivalence",
    "check_workload_fault_model_equivalence",
    "check_workload_zero_interference",
    "compiled_outcome",
    "interp_outcome",
    "RunOutcome",
    "count_instructions",
    "reduce_ir",
    "ReferenceEngine",
    "reference_campaign",
]
