"""Runtime intrinsics: the simulated libc/libm plus output channels.

Each intrinsic follows the sx64 ABI: integer args in rdi/rsi/..., float args
in xmm0/xmm1, results in rax/xmm0.  Math functions implement IEEE behaviour
(domain errors produce NaN/inf rather than Python exceptions) because fault
injection routinely feeds them garbage.

The numeric behaviour itself lives in :data:`PURE_MATH` /
:func:`call_math` so the reference IR interpreter
(:mod:`repro.testing.interp`) evaluates intrinsic calls through exactly the
same code path as the machine — the differential oracles rely on the two
execution engines sharing one libm.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.machine.registers import RAX_IDX, RDI_IDX, RSI_IDX, XMM0_IDX, XMM1_IDX


def call_math(name: str, *args: float) -> float:
    """Evaluate a math intrinsic by name with IEEE error behaviour."""
    fn = PURE_MATH[name]
    try:
        return fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan


def format_double(value: float) -> str:
    """The ``print_double`` output format (6-significant-digit scientific)."""
    return f"{value:.6e}"


def _unary_math(name: str):
    def impl(cpu) -> None:
        cpu.fregs[XMM0_IDX] = call_math(name, cpu.fregs[XMM0_IDX])

    return impl


def _binary_math(name: str):
    def impl(cpu) -> None:
        cpu.fregs[XMM0_IDX] = call_math(
            name, cpu.fregs[XMM0_IDX], cpu.fregs[XMM1_IDX]
        )

    return impl


def _safe_sqrt(x: float) -> float:
    if math.isnan(x) or x < 0.0:
        return math.nan
    return math.sqrt(x)


def _safe_exp(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x > 709.0:
        return math.inf
    if x < -745.0:
        return 0.0
    return math.exp(x)


def _safe_log(x: float) -> float:
    if math.isnan(x) or x < 0.0:
        return math.nan
    if x == 0.0:
        return -math.inf
    if math.isinf(x):
        return math.inf
    return math.log(x)


def _safe_trig(fn):
    def impl(x: float) -> float:
        if math.isnan(x) or math.isinf(x):
            return math.nan
        # Huge arguments lose all precision; IEEE still defines a value but
        # Python's libm handles it fine up to ~1e308.
        return fn(x)

    return impl


def _safe_floor(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return float(math.floor(x))


def _safe_pow(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):
        return math.nan
    try:
        result = math.pow(x, y)
    except (ValueError, OverflowError):
        # negative base with non-integer exponent, or overflow
        if abs(x) > 1.0 and y > 0:
            return math.inf
        return math.nan
    return result


def _safe_fmod(x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y) or y == 0.0 or math.isinf(x):
        return math.nan
    try:
        return math.fmod(x, y)
    except ValueError:
        return math.nan


#: Pure evaluation functions for the math intrinsics (shared with the
#: reference IR interpreter via :func:`call_math`).
PURE_MATH: dict[str, Callable[..., float]] = {
    "sqrt": _safe_sqrt,
    "fabs": abs,
    "exp": _safe_exp,
    "log": _safe_log,
    "sin": _safe_trig(math.sin),
    "cos": _safe_trig(math.cos),
    "floor": _safe_floor,
    "pow": _safe_pow,
    "fmod": _safe_fmod,
}


def _print_int(cpu) -> None:
    cpu.output.append(str(cpu.iregs[RDI_IDX]))


def _print_double(cpu) -> None:
    # Fixed 6-significant-digit scientific format, the way HPC mini-apps
    # print residuals/energies.  Perturbations below the printed precision
    # are therefore *benign* — an important real-world masking effect.
    cpu.output.append(format_double(cpu.fregs[XMM0_IDX]))


def _llfi_inject_i64(cpu) -> None:
    """LLFI ``injectFault`` stub for integer values.

    ABI: rdi = site id, rsi = value; returns (possibly corrupted) value in
    rax.  The actual decision logic lives in the CPU's FI controller.
    """
    value = cpu.iregs[RSI_IDX]
    cpu.iregs[RAX_IDX] = cpu.llfi_visit(value, 64, False)


def _llfi_inject_i1(cpu) -> None:
    """LLFI stub for i1 (compare-result) values: a 1-bit flip target."""
    value = cpu.iregs[RSI_IDX]
    cpu.iregs[RAX_IDX] = cpu.llfi_visit(value, 1, False)


def _llfi_inject_f64(cpu) -> None:
    """LLFI ``injectFault`` stub for float values (rdi = site id, xmm0 =
    value; result in xmm0)."""
    value = cpu.fregs[XMM0_IDX]
    cpu.fregs[XMM0_IDX] = cpu.llfi_visit(value, 64, True)


class IntrinsicTable:
    """Stable name -> (id, implementation) mapping used by the loader."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.impls: list[Callable] = []
        self._index: dict[str, int] = {}
        #: id -> what an LLFI visit does where its fault does not fire (see
        #: :meth:`register`)
        self.unfired: dict[int, str] = {}

    def register(self, name: str, impl: Callable, unfired: str | None = None) -> None:
        """Add ``name``; an LLFI stub also gives ``unfired``, its effect
        where its fault does not fire — the value passes through — as a
        template over register fields (``{rax}``; empty: none).  A
        translated block renders a visit as that line, over its register
        locals (:mod:`repro.engine.blocks`)."""
        self._index[name] = len(self.names)
        if unfired is not None:
            self.unfired[len(self.names)] = unfired
        self.names.append(name)
        self.impls.append(impl)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            from repro.errors import LinkError

            raise LinkError(f"unknown intrinsic @{name}") from None


#: Binary (two-argument) math intrinsics; the rest of PURE_MATH is unary.
BINARY_MATH = frozenset({"pow", "fmod"})

INTRINSIC_TABLE = IntrinsicTable()
INTRINSIC_TABLE.register("print_int", _print_int)
INTRINSIC_TABLE.register("print_double", _print_double)
for _name in PURE_MATH:
    INTRINSIC_TABLE.register(
        _name,
        _binary_math(_name) if _name in BINARY_MATH else _unary_math(_name),
    )
INTRINSIC_TABLE.register("__fi_inject_i64", _llfi_inject_i64, unfired="{rax} = {rsi}")
INTRINSIC_TABLE.register("__fi_inject_f64", _llfi_inject_f64, unfired="")
INTRINSIC_TABLE.register("__fi_inject_i1", _llfi_inject_i1, unfired="{rax} = {rsi}")
