"""The Binary container: the compiler's final output, the VM's input.

Holds post-register-allocation machine functions, global-variable
definitions and a little link-time metadata.  This is the artifact both
REFINE (at compile time) and PINFI (at run time, via the VM's DBI hook)
instrument.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field, replace

from repro.errors import LinkError
from repro.backend.mir import MachineFunction
from repro.ir.types import ArrayType, Type


@dataclass
class GlobalDef:
    """A linked global: element kind ('int'/'double'), count, initializer."""

    name: str
    kind: str
    count: int
    init: list[float] | list[int]

    @property
    def size_bytes(self) -> int:
        return 8 * self.count


@dataclass
class Binary:
    """A compiled, linkable program image."""

    name: str
    functions: dict[str, MachineFunction] = field(default_factory=dict)
    globals: dict[str, GlobalDef] = field(default_factory=dict)
    #: names of runtime intrinsics referenced (resolved by the VM)
    intrinsics: set[str] = field(default_factory=set)
    entry: str = "main"
    #: free-form provenance (tool that instrumented it, options, ...)
    meta: dict[str, object] = field(default_factory=dict)

    def add_function(self, mf: MachineFunction) -> None:
        if mf.name in self.functions:
            raise LinkError(f"duplicate function @{mf.name}")
        self.functions[mf.name] = mf

    def add_global(self, name: str, value_type: Type, init) -> None:
        if name in self.globals:
            raise LinkError(f"duplicate global @{name}")
        if isinstance(value_type, ArrayType):
            count = value_type.count
            kind = "double" if value_type.element.is_float() else "int"
            values = list(init) if init is not None else [0] * count
        else:
            count = 1
            kind = "double" if value_type.is_float() else "int"
            values = [init if init is not None else 0]
        self.globals[name] = GlobalDef(name, kind, count, values)

    def clone(self) -> Binary:
        """An independent copy, for a fraction of the backend run that made
        this one: REFINE instruments its own copy of the clean binary."""
        return Binary(
            self.name,
            {name: mf.clone() for name, mf in self.functions.items()},
            {name: replace(g, init=list(g.init)) for name, g in self.globals.items()},
            set(self.intrinsics), self.entry,
            {key: copy(value) for key, value in self.meta.items()},
        )

    def validate(self) -> None:
        """Check that every call target resolves."""
        from repro.backend.mir import FuncRef

        if self.entry not in self.functions:
            raise LinkError(f"entry point @{self.entry} is not defined")
        for mf in self.functions.values():
            for instr in mf.instructions():
                for op in instr.operands:
                    if isinstance(op, FuncRef):
                        if (
                            op.name not in self.functions
                            and op.name not in self.intrinsics
                        ):
                            raise LinkError(
                                f"@{mf.name} calls undefined @{op.name}"
                            )

    def total_instructions(self) -> int:
        return sum(mf.instr_count() for mf in self.functions.values())
