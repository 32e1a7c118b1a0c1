"""Fault-injection configuration — the paper's Table 2 compiler interface.

::

    -fi true|false              enable/disable FI instrumentation
    -fi-funcs f1,f2,... | regex functions to instrument ('*' = all)
    -fi-instrs stack|arithm|mem|all   instruction classes to target

The same configuration object drives all three tools so campaigns are
steered identically (the paper uses ``-fi=true -fi-funcs=* -fi-instrs=all``
for its experiments).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.errors import CampaignError
from repro.machine.semantics import MNEMONICS

#: Valid -fi-instrs classes.
INSTR_CLASSES = ("stack", "arithm", "mem", "all")

#: IR-opcode classification used by LLFI filtering (IR has no stack class —
#: that is precisely the accuracy gap the paper identifies).
_IR_CLASS: dict[str, str] = {
    "load": "mem",
    "icmp": "arithm",
    "fcmp": "arithm",
    "sitofp": "arithm",
    "fptosi": "arithm",
    "zext": "arithm",
}
for _op in ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl",
            "ashr", "fadd", "fsub", "fmul", "fdiv"):
    _IR_CLASS[_op] = "arithm"


@dataclass
class FIConfig:
    """Parsed fault-injection flags (paper Table 2)."""

    enabled: bool = True
    #: comma-separated names or a regex; '*' matches everything
    funcs: str = "*"
    #: one of INSTR_CLASSES
    instrs: str = "all"
    _func_matcher: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.instrs not in INSTR_CLASSES:
            raise CampaignError(
                f"-fi-instrs must be one of {INSTR_CLASSES}, got {self.instrs!r}"
            )
        if self.funcs == "*":
            self._func_matcher = None
        elif re.fullmatch(r"[\w,]+", self.funcs):
            names = set(self.funcs.split(","))
            self._func_matcher = lambda f: f in names
        else:
            pattern = re.compile(self.funcs)
            self._func_matcher = lambda f: bool(pattern.fullmatch(f))

    @classmethod
    def from_flags(cls, flags: str) -> "FIConfig":
        """Parse a ``-mllvm``-style flag string, e.g.
        ``"-fi=true -fi-funcs=* -fi-instrs=all"``."""
        enabled = False
        funcs = "*"
        instrs = "all"
        for token in flags.split():
            token = token.removeprefix("-mllvm").strip()
            if not token:
                continue
            if "=" not in token:
                raise CampaignError(f"malformed FI flag {token!r}")
            key, _, value = token.partition("=")
            key = key.lstrip("-")
            if key == "fi":
                enabled = value.lower() == "true"
            elif key == "fi-funcs":
                funcs = value
            elif key == "fi-instrs":
                instrs = value
            else:
                raise CampaignError(f"unknown FI flag {key!r}")
        return cls(enabled=enabled, funcs=funcs, instrs=instrs)

    # -- filtering ----------------------------------------------------------

    def match_function(self, name: str) -> bool:
        if self._func_matcher is None:
            return True
        return self._func_matcher(name)  # type: ignore[operator]

    def match_machine_opcode(self, opcode: str) -> bool:
        """Whether ``opcode``'s Table 2 class, from its declaration
        (:data:`repro.machine.semantics.ISA`), is selected."""
        m = MNEMONICS.get(opcode)
        return m is not None and m.fi_class is not None and self.instrs in ("all", m.fi_class)

    def match_ir_opcode(self, opcode: str) -> bool:
        cls = _IR_CLASS.get(opcode)
        if cls is None:
            return False
        return self.instrs == "all" or self.instrs == cls
