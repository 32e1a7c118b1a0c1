"""Functions: argument lists plus an ordered collection of basic blocks."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.types import FunctionType
from repro.ir.values import Argument, Value

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.module import Module


class Function(Value):
    """A function definition or declaration.

    Declarations (``is_declaration``) have no blocks; they model runtime
    intrinsics such as ``sqrt`` or the FI library's ``injectFault`` stubs.
    """

    __slots__ = ("args", "blocks", "module", "_name_counter", "attributes")

    def __init__(
        self,
        name: str,
        ftype: FunctionType,
        arg_names: list[str] | None = None,
        module: "Module | None" = None,
    ) -> None:
        super().__init__(ftype, name)
        if arg_names is None:
            arg_names = [f"arg{i}" for i in range(len(ftype.params))]
        if len(arg_names) != len(ftype.params):
            raise IRError(f"@{name}: {len(arg_names)} names for {len(ftype.params)} params")
        self.args = [
            Argument(t, n, i) for i, (t, n) in enumerate(zip(ftype.params, arg_names))
        ]
        self.blocks: list[BasicBlock] = []
        self.module = module
        self._name_counter = 0
        #: free-form attributes (e.g. ``{"intrinsic": True}``)
        self.attributes: dict[str, object] = {}

    # -- naming ------------------------------------------------------------

    def next_name(self, hint: str = "") -> str:
        """Allocate a fresh SSA value / block name within this function."""
        self._name_counter += 1
        base = hint or "t"
        return f"{base}.{self._name_counter}"

    # -- structure -----------------------------------------------------------

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def return_type(self):
        return self.type.ret  # type: ignore[attr-defined]

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise IRError(f"@{self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, name: str = "", before: BasicBlock | None = None) -> BasicBlock:
        block = BasicBlock(name or self.next_name("bb"), self)
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def remove_block(self, block: BasicBlock) -> None:
        self.blocks.remove(block)
        block.parent = None

    def get_block(self, name: str) -> BasicBlock:
        for block in self.blocks:
            if block.name == name:
                return block
        raise IRError(f"@{self.name} has no block named {name}")

    def predecessor_map(self) -> dict[BasicBlock, list[BasicBlock]]:
        """Every block's predecessors, from one pass over the function.

        ``predecessor_map()[b] == b.predecessors()`` for each block, order
        included, at one ``successors()`` call per block in total — an
        analysis that asks for every block's predecessors should ask here.
        A snapshot: CFG edits after the call are not reflected.
        """
        preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in self.blocks}
        for block in self.blocks:
            # (both arms of a conditional branch may name the same target)
            for succ in dict.fromkeys(block.successors()):
                preds.setdefault(succ, []).append(block)
        return preds

    def instructions(self) -> Iterator:
        """Iterate every instruction in block order."""
        for block in self.blocks:
            yield from block.instructions

    def ref(self) -> str:
        return f"@{self.name}"

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"<Function {kind} {self.ref()}: {self.type}>"
