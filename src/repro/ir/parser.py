"""Textual IR parser: the inverse of :mod:`repro.ir.printer`.

Accepts the exact syntax the printer emits, so modules round-trip::

    module == parse_module(format_module(module))   (structurally)

Useful for writing IR test cases directly, for `opt`-style tooling, and for
diffing IR between pipeline stages.  Forward references (e.g. a phi using a
value defined later in its block's textual order) resolve through typed
placeholders.
"""

from __future__ import annotations

import ast as python_ast
import re

from repro.errors import IRError
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinaryOp,
    Branch,
    Call,
    Cast,
    CondBranch,
    FCmp,
    FCMP_PREDS,
    FLOAT_BINOPS,
    GetElementPtr,
    ICmp,
    ICMP_PREDS,
    INT_BINOPS,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Module
from repro.ir.types import (
    ArrayType,
    F64,
    FunctionType,
    I1,
    I64,
    PointerType,
    Type,
    VOID,
)
from repro.ir.values import ConstantFloat, ConstantInt, Value

_CAST_OPS = ("sitofp", "fptosi", "zext")


class _Placeholder(Value):
    """Typed stand-in for a forward-referenced local value."""

    __slots__ = ()


def parse_type(text: str) -> Type:
    """Parse a type token: ``i1``/``i64``/``f64``/``void``/``T*``/[N x T]."""
    text = text.strip()
    if text.endswith("*"):
        return PointerType(parse_type(text[:-1]))
    if text == "i1":
        return I1
    if text == "i64":
        return I64
    if text == "f64":
        return F64
    if text == "void":
        return VOID
    match = re.fullmatch(r"\[\s*(\d+)\s*x\s*(.+)\s*\]", text)
    if match:
        return ArrayType(parse_type(match.group(2)), int(match.group(1)))
    raise IRError(f"cannot parse type {text!r}")


def _split_type_prefix(text: str) -> tuple[Type, str]:
    """Split ``"f64* %p"`` into (type, rest).  Types contain no spaces except
    inside array brackets."""
    text = text.strip()
    if text.startswith("["):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth == 0:
                    end = i + 1
                    while end < len(text) and text[end] == "*":
                        end += 1
                    return parse_type(text[:end]), text[end:].strip()
        raise IRError(f"unbalanced array type in {text!r}")
    parts = text.split(None, 1)
    rest = parts[1] if len(parts) > 1 else ""
    return parse_type(parts[0]), rest


def _split_args(text: str) -> list[str]:
    """Split a comma-separated list, respecting [..] and (..) nesting."""
    args = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        args.append(tail)
    return args


class ModuleParser:
    def __init__(self, text: str) -> None:
        self.lines = [
            line.strip()
            for line in text.splitlines()
        ]
        self.pos = 0
        self.module = Module()

    # -- line plumbing ----------------------------------------------------

    def _next_line(self) -> str | None:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if not line or line.startswith(";"):
                continue
            return line
        return None

    # -- top level ---------------------------------------------------------

    def parse(self) -> Module:
        while True:
            line = self._next_line()
            if line is None:
                return self.module
            if line.startswith("@"):
                self._parse_global(line)
            elif line.startswith("declare "):
                self._parse_declare(line)
            elif line.startswith("define "):
                self._parse_define(line)
            else:
                raise IRError(f"unexpected top-level line: {line!r}")

    def _parse_global(self, line: str) -> None:
        match = re.fullmatch(r"@([\w.\-]+) = global (.+)", line)
        if not match:
            raise IRError(f"malformed global: {line!r}")
        name, tail = match.groups()
        value_type, init_text = _split_type_prefix(tail)
        init = python_ast.literal_eval(init_text)
        self.module.add_global(name, value_type, init)

    @staticmethod
    def _parse_signature(text: str) -> tuple[str, Type, list[tuple[Type, str]]]:
        match = re.fullmatch(r"(.+?) @([\w.\-]+)\((.*)\)", text)
        if not match:
            raise IRError(f"malformed function signature: {text!r}")
        ret_text, name, params_text = match.groups()
        params: list[tuple[Type, str]] = []
        if params_text.strip():
            for param in _split_args(params_text):
                ptype, rest = _split_type_prefix(param)
                if not rest.startswith("%"):
                    raise IRError(f"malformed parameter: {param!r}")
                params.append((ptype, rest[1:]))
        return name, parse_type(ret_text), params

    def _parse_declare(self, line: str) -> None:
        name, ret, params = self._parse_signature(line[len("declare "):])
        self.module.declare_function(
            name, FunctionType(ret, [p for p, _ in params])
        )

    def _parse_define(self, line: str) -> None:
        body = line[len("define "):]
        if not body.endswith("{"):
            raise IRError(f"missing '{{' in define: {line!r}")
        name, ret, params = self._parse_signature(body[:-1].strip())
        fn = self.module.add_function(
            name, FunctionType(ret, [p for p, _ in params]),
            [n for _, n in params],
        )
        FunctionBodyParser(self, fn).parse()


class FunctionBodyParser:
    def __init__(self, outer: ModuleParser, fn: Function) -> None:
        self.outer = outer
        self.module = outer.module
        self.fn = fn
        self.values: dict[str, Value] = {a.name: a for a in fn.args}
        self.placeholders: dict[str, _Placeholder] = {}
        self.blocks: dict[str, BasicBlock] = {}

    # -- value resolution ---------------------------------------------------

    def _block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name, self.fn)
            self.blocks[name] = block
            self.fn.blocks.append(block)
        return block

    def _value(self, token: str, type_: Type) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            known = self.values.get(name)
            if known is not None:
                return known
            ph = self.placeholders.get(name)
            if ph is None:
                ph = _Placeholder(type_, name)
                self.placeholders[name] = ph
            return ph
        if token.startswith("@"):
            name = token[1:]
            if name in self.module.globals:
                return self.module.get_global(name)
            return self.module.get_function(name)
        if type_.is_float():
            return ConstantFloat(float(token))
        return ConstantInt(int(token), type_)  # type: ignore[arg-type]

    def _define(self, name: str, value: Value) -> None:
        if name in self.values:
            raise IRError(f"@{self.fn.name}: %{name} defined twice")
        value.name = name
        self.values[name] = value

    def _finish(self) -> None:
        for name, ph in self.placeholders.items():
            real = self.values.get(name)
            if real is None:
                raise IRError(
                    f"@{self.fn.name}: %{name} referenced but never defined"
                )
            ph.replace_all_uses_with(real)

    # -- parsing ----------------------------------------------------------

    def parse(self) -> None:
        # Pre-create blocks in label order so forward branch references do
        # not perturb the function's block layout (round-trip stability).
        start_pos = self.outer.pos
        while True:
            line = self.outer._next_line()
            if line is None:
                raise IRError(f"@{self.fn.name}: unterminated body")
            if line == "}":
                break
            label = re.fullmatch(r"([\w.\-]+):", line)
            if label:
                self._block(label.group(1))
        self.outer.pos = start_pos

        current: BasicBlock | None = None
        while True:
            line = self.outer._next_line()
            if line is None:
                raise IRError(f"@{self.fn.name}: unterminated body")
            if line == "}":
                break
            label = re.fullmatch(r"([\w.\-]+):", line)
            if label:
                current = self._block(label.group(1))
                continue
            if current is None:
                raise IRError(f"@{self.fn.name}: instruction before any label")
            instr = self._parse_instruction(line)
            instr.parent = current
            current.instructions.append(instr)
        self._finish()

    def _parse_instruction(self, line: str):
        # "%name = <rhs>" or a void instruction.
        match = re.fullmatch(r"%([\w.\-]+) = (.+)", line)
        if match:
            name, rhs = match.groups()
            instr = self._parse_rhs(rhs)
            self._define(name, instr)
            return instr
        return self._parse_void(line)

    def _parse_rhs(self, rhs: str):
        opcode, _, rest = rhs.partition(" ")
        if opcode in INT_BINOPS or opcode in FLOAT_BINOPS:
            type_, operands = _split_type_prefix(rest)
            a_text, b_text = _split_args(operands)
            return BinaryOp(
                opcode, self._value(a_text, type_), self._value(b_text, type_)
            )
        if opcode == "icmp":
            pred, _, tail = rest.partition(" ")
            if pred not in ICMP_PREDS:
                raise IRError(f"bad icmp predicate {pred!r}")
            type_, operands = _split_type_prefix(tail)
            a_text, b_text = _split_args(operands)
            return ICmp(pred, self._value(a_text, type_), self._value(b_text, type_))
        if opcode == "fcmp":
            pred, _, tail = rest.partition(" ")
            if pred not in FCMP_PREDS:
                raise IRError(f"bad fcmp predicate {pred!r}")
            type_, operands = _split_type_prefix(tail)
            a_text, b_text = _split_args(operands)
            return FCmp(pred, self._value(a_text, type_), self._value(b_text, type_))
        if opcode == "select":
            cond_part, a_part, b_part = _split_args(rest)
            cond_type, cond_text = _split_type_prefix(cond_part)
            a_type, a_text = _split_type_prefix(a_part)
            b_type, b_text = _split_type_prefix(b_part)
            return Select(
                self._value(cond_text, cond_type),
                self._value(a_text, a_type),
                self._value(b_text, b_type),
            )
        if opcode == "alloca":
            return Alloca(parse_type(rest))
        if opcode == "load":
            value_part, ptr_part = _split_args(rest)
            ptr_type, ptr_text = _split_type_prefix(ptr_part)
            return Load(self._value(ptr_text, ptr_type))
        if opcode == "getelementptr":
            ptr_part, idx_part = _split_args(rest)
            ptr_type, ptr_text = _split_type_prefix(ptr_part)
            idx_type, idx_text = _split_type_prefix(idx_part)
            return GetElementPtr(
                self._value(ptr_text, ptr_type), self._value(idx_text, idx_type)
            )
        if opcode in _CAST_OPS:
            match = re.fullmatch(r"(.+) to (.+)", rest)
            if not match:
                raise IRError(f"malformed cast: {rhs!r}")
            src_part = match.group(1)
            src_type, src_text = _split_type_prefix(src_part)
            return Cast(opcode, self._value(src_text, src_type))
        if opcode == "call":
            return self._parse_call(rest)
        if opcode == "phi":
            type_, tail = _split_type_prefix(rest)
            phi = Phi(type_)
            for pair in _split_args(tail):
                match = re.fullmatch(r"\[\s*(.+?)\s*,\s*%([\w.\-]+)\s*\]", pair)
                if not match:
                    raise IRError(f"malformed phi incoming: {pair!r}")
                value_text, block_name = match.groups()
                phi.add_incoming(
                    self._value(value_text, type_), self._block(block_name)
                )
            return phi
        raise IRError(f"cannot parse instruction rhs: {rhs!r}")

    def _parse_call(self, rest: str):
        match = re.fullmatch(r"(.+?) @([\w.\-]+)\((.*)\)", rest)
        if not match:
            raise IRError(f"malformed call: {rest!r}")
        _, callee_name, args_text = match.groups()
        callee = self.module.get_function(callee_name)
        args = []
        if args_text.strip():
            for arg in _split_args(args_text):
                arg_type, arg_text = _split_type_prefix(arg)
                args.append(self._value(arg_text, arg_type))
        return Call(callee, args)

    def _parse_void(self, line: str):
        opcode, _, rest = line.partition(" ")
        if opcode == "store":
            value_part, ptr_part = _split_args(rest)
            value_type, value_text = _split_type_prefix(value_part)
            ptr_type, ptr_text = _split_type_prefix(ptr_part)
            return Store(
                self._value(value_text, value_type),
                self._value(ptr_text, ptr_type),
            )
        if opcode == "call":
            return self._parse_call(rest)
        if opcode == "br":
            if rest.startswith("label "):
                return Branch(self._block(rest[len("label %"):]))
            match = re.fullmatch(
                r"i1 (.+?), label %([\w.\-]+), label %([\w.\-]+)", rest
            )
            if not match:
                raise IRError(f"malformed br: {line!r}")
            cond_text, true_name, false_name = match.groups()
            return CondBranch(
                self._value(cond_text, I1),
                self._block(true_name),
                self._block(false_name),
            )
        if opcode == "ret":
            if rest == "void":
                return Ret()
            type_, value_text = _split_type_prefix(rest)
            return Ret(self._value(value_text, type_))
        raise IRError(f"cannot parse instruction: {line!r}")


def parse_module(text: str) -> Module:
    """Parse printer-format IR text into a Module."""
    return ModuleParser(text).parse()
