"""Target description for ``sx64``, the simulated x64-flavoured ISA.

The register file, calling convention and two-address instruction style
mirror x86-64/SysV closely enough to reproduce the machine-level phenomena
REFINE's accuracy argument depends on:

* finite registers => register allocation => spill/fill instructions,
* a callee-/caller-saved split => calls force values into callee-saved
  registers or onto the stack (the Listing 2(c) effect when LLFI inserts
  ``injectFault`` calls after every instrumented instruction),
* integer ALU instructions also write FLAGS => most instructions have
  *multiple output registers*, exactly the multi-operand fault targets the
  paper's ``setupFI(nOps, size[nOps])`` interface exists for,
* no callee-saved FP registers (SysV) => floating state never survives a
  call in registers.
"""

from __future__ import annotations


# -- register classes --------------------------------------------------------

GPR = "g"  #: 64-bit general-purpose registers
FPR = "f"  #: 64-bit IEEE-754 double registers (xmm)

#: Allocatable general-purpose registers, in allocation preference order
#: (caller-saved first so short-lived values avoid prologue spills).
GPR_ALLOC = ("rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "rbx", "r12", "r13")

#: Allocatable floating-point registers.
FPR_ALLOC = ("xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5", "xmm6", "xmm7")

#: Reserved scratch registers used by spill/reload code and the post-RA call
#: expansion.  Never handed out by the allocator.
GPR_SCRATCH = ("r10", "r11")
FPR_SCRATCH = ("xmm14", "xmm15")

#: Stack and frame pointers (reserved).
RSP = "rsp"
RBP = "rbp"

#: The flags register.  Integer ALU ops and comparisons write it; conditional
#: jumps/sets read it.  It is a first-class fault-injection target.
FLAGS = "flags"

#: All architectural registers, with their bit widths (for fault injection).
REGISTER_WIDTHS: dict[str, int] = {
    **{r: 64 for r in GPR_ALLOC},
    **{r: 64 for r in GPR_SCRATCH},
    RSP: 64,
    RBP: 64,
    **{r: 64 for r in FPR_ALLOC},
    **{r: 64 for r in FPR_SCRATCH},
    FLAGS: 16,
}

ALL_GPRS = tuple(GPR_ALLOC) + GPR_SCRATCH + (RSP, RBP)
ALL_FPRS = tuple(FPR_ALLOC) + FPR_SCRATCH


def reg_class(name: str) -> str:
    """Register class ('g' or 'f') of a physical register name."""
    if name in ALL_FPRS:
        return FPR
    return GPR


# -- calling convention (SysV-like) ------------------------------------------

INT_ARG_REGS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")
FLOAT_ARG_REGS = ("xmm0", "xmm1", "xmm2", "xmm3", "xmm4", "xmm5")
INT_RET_REG = "rax"
FLOAT_RET_REG = "xmm0"

CALLEE_SAVED_GPR = ("rbx", "r12", "r13")
#: SysV: *no* callee-saved xmm registers.
CALLEE_SAVED_FPR: tuple[str, ...] = ()

CALLER_SAVED_GPR = tuple(r for r in GPR_ALLOC if r not in CALLEE_SAVED_GPR)
CALLER_SAVED_FPR = tuple(FPR_ALLOC)

#: What a call clobbers besides the caller-saved registers: SysV leaves FLAGS
#: undefined across a call, so the backend treats every call as writing them.
CALL_CLOBBERS = (FLAGS,)


# -- flags bits (x86 layout) ------------------------------------------------

CF_BIT = 0
PF_BIT = 2
ZF_BIT = 6
SF_BIT = 7
OF_BIT = 11

CF = 1 << CF_BIT
PF = 1 << PF_BIT
ZF = 1 << ZF_BIT
SF = 1 << SF_BIT
OF = 1 << OF_BIT


# -- intrinsic costs -------------------------------------------------------------

#: Simulated cycle costs of the runtime intrinsics (libm-style), beyond the
#: ``call`` itself; an instruction's own cost is in its declaration
#: (:data:`repro.machine.semantics.ISA`).
INTRINSIC_COSTS: dict[str, float] = {
    "sqrt": 20.0,
    "fabs": 2.0,
    "exp": 40.0,
    "log": 40.0,
    "sin": 40.0,
    "cos": 40.0,
    "floor": 4.0,
    "pow": 60.0,
    "fmod": 25.0,
    "print_int": 50.0,
    "print_double": 80.0,
    # LLFI's injectFault library call body (beyond the call/ret/arg-setup
    # instructions, which are real instructions in the stream).
    "__fi_inject_i64": 22.0,
    "__fi_inject_f64": 22.0,
    "__fi_inject_i1": 22.0,
}
