"""The compilation driver: MiniC source (or IR) -> Binary.

Pipeline, mirroring the paper's Figure 1:

    frontend -> IR optimization (O0/O1/O2) -> [LLFI IR pass, if requested]
    -> pre-isel lowering -> instruction selection -> register allocation
    -> frame lowering -> peephole -> [REFINE MIR pass, if requested]
    -> Binary

FI instrumentation hooks are injected by the :mod:`repro.fi` layer through
the ``ir_pass`` / ``mir_pass`` callbacks so the backend itself stays
injection-agnostic, like upstream LLVM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.backend.binary import Binary
from repro.backend.frame import lower_frame
from repro.backend.isel import select_function
from repro.backend.peephole import run_peephole
from repro.backend.prepare import prepare_module
from repro.backend.regalloc import allocate, rewrite
from repro.frontend import compile_source
from repro.ir.clone import clone_module
from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.irpasses.base import optimize_module


@dataclass
class CompileOptions:
    """Knobs for one compilation."""

    opt_level: str = "O2"
    verify: bool = True
    #: IR-level instrumentation hook (LLFI runs here, *before* the backend)
    ir_pass: Callable[[Module], None] | None = None
    #: MIR-level instrumentation hook (REFINE runs here, after regalloc and
    #: peephole, right before "emission" — paper Section 4.2.2)
    mir_pass: Callable[[Binary], None] | None = None
    #: extra provenance recorded in the binary
    meta: dict[str, object] = field(default_factory=dict)


@dataclass
class CompileStats:
    """Statistics of interest for the evaluation."""

    ir_instructions: int = 0
    machine_instructions: int = 0
    spilled_vregs: int = 0
    intervals: int = 0


def compile_ir(module: Module, options: CompileOptions | None = None) -> Binary:
    """Compile an IR module (which this consumes) to a Binary."""
    options = options or CompileOptions()
    optimize_module(module, options.opt_level)
    return _finish(_lower(module, options), options)


def _lower(module: Module, options: CompileOptions) -> Binary:
    """Optimised IR -> machine code: the IR-level hook, then the backend."""
    stats = CompileStats()
    if options.ir_pass is not None:
        options.ir_pass(module)
        if options.verify:
            verify_module(module)
    stats.ir_instructions = sum(
        1 for fn in module.defined_functions() for _ in fn.instructions()
    )

    prepare_module(module)
    if options.verify:
        verify_module(module)

    binary = Binary(module.name, meta={"stats": stats})
    for gv in module.globals.values():
        binary.add_global(gv.name, gv.value_type, gv.initializer)
    for fn in module.functions.values():
        if fn.is_declaration:
            binary.intrinsics.add(fn.name)
            continue
        mf = select_function(fn)
        result = allocate(mf)
        rewrite(mf, result)
        lower_frame(mf)
        run_peephole(mf)
        stats.spilled_vregs += result.num_spilled
        stats.intervals += result.num_intervals
        binary.add_function(mf)
    return binary


def _finish(binary: Binary, options: CompileOptions) -> Binary:
    """The machine-level hook (REFINE), on a binary the caller owns."""
    stats = binary.meta["stats"]
    binary.meta = dict(options.meta)
    if options.mir_pass is not None:
        options.mir_pass(binary)
    stats.machine_instructions = binary.total_instructions()
    binary.meta["stats"] = stats
    binary.validate()
    return binary


@lru_cache(maxsize=2)
def _front_half(source: str, name: str, opt_level: str, verify: bool) -> Module:
    """A program's verified, optimised module: the half of a compile its tools
    share (a matrix builds them back to back).  Lower a copy, never this."""
    module = compile_source(source, name)
    if verify:
        verify_module(module)
    optimize_module(module, opt_level)
    return module


@lru_cache(maxsize=2)
def _clean_binary(source: str, name: str, opt_level: str, verify: bool) -> Binary:
    """The program's uninstrumented binary.  Hand out copies, never this."""
    module = clone_module(_front_half(source, name, opt_level, verify))
    return _lower(module, CompileOptions(opt_level, verify))


def compile_minic(
    source: str, name: str = "program", options: CompileOptions | None = None
) -> Binary:
    """Compile MiniC source text all the way to a Binary.

    Frontend, verifier and optimiser run once per program, not once per tool:
    LLFI instruments and lowers its own copy of the optimised module, PINFI's
    binary is a copy of the clean binary, and REFINE — which instruments after
    every optimisation and changes no application instruction (paper Section
    4.2.2) — is ``mir_pass`` on another.
    """
    options = options or CompileOptions()
    program = (source, name, options.opt_level, options.verify)
    if options.ir_pass is not None:
        binary = _lower(clone_module(_front_half(*program)), options)
    else:
        binary = _clean_binary(*program).clone()
    return _finish(binary, options)
