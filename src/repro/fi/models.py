"""Pluggable fault models: what a "fault" does once its trigger fires.

The paper's model (Section 3.1) is one transient single-bit upset in an
output register, drawn uniformly over (dynamic instruction, operand, bit).
The related work goes further — DAVOS generates profile-weighted fault
loads, InjectV and CHAOS catalogue multi-bit, memory, opcode and stuck-at
faults — and ROADMAP open item 2 asks whether REFINE's accuracy claim
survives those richer models.  This module makes the model a pluggable
axis, orthogonal to every other campaign dimension:

=============  ==============================================================
model          behaviour at the trigger
=============  ==============================================================
single-bit     the paper's model: flip one uniform bit of one uniform
               output operand (bit-identical to the historical default)
multi-bit      flip ``k`` distinct bits of one output operand — adjacent
               (a burst) or independently drawn (an MCU)
memory-cell    flip one bit of one aligned 8-byte memory cell, uniform
               over the writable address space
cache-line     corrupt one aligned 64-byte line: the same bit position
               flips in each of its eight words (a column/burst failure)
opcode         the fault lands in the instruction encoding: the trigger
               instruction raises an illegal-instruction trap (binary /
               backend tools only — IR-level LLFI cannot observe encodings)
stuck-at       a bit sticks at 0 or 1 for a **dwell window**: the same
               physical bit is re-forced at every candidate the tool
               observes across ``dwell`` dynamic candidates
=============  ==============================================================

Every model is a pure function of the experiment seed: the trigger and
all picks are pre-drawn from :class:`~repro.utils.rng.SplitMix64`, so
snapshot resume, trigger scheduling, distributed dedup and replay work
unchanged (the trigger stays counter-based; a dwell window is the counter
*range* ``[target_index, last_index]``).

``weighted=1`` on any model switches trigger selection from uniform to
DAVOS-style **residency weighting**: each dynamic candidate is weighted by
the cycle cost of its instruction (one extra recorded run per tool,
cached), so long-latency sites absorb proportionally more faults — the
probability a real particle strike lands in an instruction's residency
window scales with how long the instruction occupies the pipeline.

Spec strings: ``NAME`` or ``NAME:key=value,key=value`` (e.g.
``multi-bit:k=3``, ``stuck-at:value=0,dwell=128``).  :func:`parse_fault_model`
parses them; a model's :attr:`~FaultModel.spec` property is the canonical
round-tripping form used in checkpoints, slice tasks, dist campaign specs,
telemetry and the results database.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CampaignError, IllegalInstruction
from repro.machine.cpu import FaultPlan, FaultRecord
from repro.machine.loader import NULL_GUARD
from repro.machine.registers import SPACE_FLOAT, SPACE_INT
from repro.utils.bits import MASK64, to_signed64
from repro.utils.ieee754 import bits_to_double, double_to_bits
from repro.utils.rng import SplitMix64

#: Memory-corruption granularities (bytes).
CELL_BYTES = 8
LINE_BYTES = 64

#: Budget for the residency-recording run (matches profiling).
_RESIDENCY_BUDGET = 200_000_000


def _set_bit(raw: int, bit: int, value: int) -> int:
    """Force one bit of a 64-bit image to 0 or 1."""
    return raw | (1 << bit) if value else raw & ~(1 << bit) & MASK64


def _corrupt_register(cpu, space: int, reg_idx: int, change) -> tuple:
    """Rewrite one output register through ``change``, a function of its
    unsigned 64-bit image (a float register's IEEE-754 encoding; the
    flags as they are).  Returns ``(before, after, operand_desc)``."""
    if space == SPACE_INT:
        before = cpu.iregs[reg_idx]
        after = cpu.iregs[reg_idx] = to_signed64(change(before & MASK64))
        return before, after, f"ireg:{reg_idx}"
    if space == SPACE_FLOAT:
        before = cpu.fregs[reg_idx]
        after = cpu.fregs[reg_idx] = bits_to_double(change(double_to_bits(before)))
        return before, after, f"freg:{reg_idx}"
    before = cpu.flags
    after = cpu.flags = change(before)
    return before, after, "flags"


def _corrupt_value(value, is_float: bool, change) -> tuple:
    """:func:`_corrupt_register` for an IR value LLFI intercepts: returns
    ``(after, operand_desc)``."""
    if is_float:
        return bits_to_double(change(double_to_bits(value))), "ir-value:f64"
    return to_signed64(change(value & MASK64)), "ir-value:i64"


def residency_weights(tool) -> np.ndarray:
    """Per-dynamic-candidate weights: the cycle cost of each candidate's
    instruction, in trigger order (DAVOS ``SBFI_Profiler`` analogue).

    Recorded by one fault-free reference-interpreter run with the site
    trace armed; cached on the tool, and verified against the profile's
    candidate count so a stale cache can never mis-weight a campaign.
    """
    cached = getattr(tool, "_residency_weights", None)
    if cached is not None:
        return cached
    total = tool.profile.total_candidates
    cpu = tool._make_cpu(None)
    trace: list[int] = []
    cpu._site_trace = trace
    result = cpu.run(budget=_RESIDENCY_BUDGET)
    if result.trap is not None or result.exit_status != 0:
        raise CampaignError(
            f"{tool.name}: residency-recording run of {tool.workload!r} "
            f"failed (trap={result.trap}, exit={result.exit_code})"
        )
    if len(trace) != total:
        raise CampaignError(
            f"{tool.name}: residency trace saw {len(trace)} candidates, "
            f"profile says {total}"
        )
    cost = tool.program.cost
    weights = np.asarray([cost[pc] for pc in trace], dtype=np.float64)
    # Zero-cost sites keep an epsilon so every candidate stays reachable.
    np.maximum(weights, 1e-9, out=weights)
    tool._residency_weights = weights
    return weights


class FaultModel:
    """Base class: seed -> :class:`FaultPlan` drawing plus fault application.

    Subclasses declare their parameters in :attr:`PARAMS` (name -> default,
    all integers), override :meth:`_draw` if their plans need more than a
    trigger window and two picks, and implement the two application hooks
    every plan's trigger calls: :meth:`apply` (register-level sites: REFINE
    ``fi_check``, PINFI candidates) and :meth:`apply_value` (LLFI's
    intercepted IR values).  Only the models write fault records.
    """

    name = "base"
    #: declared parameters and their defaults; ``weighted`` is universal.
    PARAMS: dict[str, int] = {}
    #: dynamic candidates covered per fault (1 = transient single-shot).
    dwell = 1

    def __init__(self, **params) -> None:
        allowed = {**self.PARAMS, "weighted": 0}
        unknown = sorted(set(params) - set(allowed))
        if unknown:
            raise CampaignError(
                f"fault model {self.name!r} does not take parameter(s) "
                f"{', '.join(unknown)}; valid: {sorted(allowed)}"
            )
        for key, default in allowed.items():
            raw = params.get(key, default)
            try:
                value = int(raw)
            except (TypeError, ValueError):
                raise CampaignError(
                    f"fault model parameter {key}={raw!r} is not an integer"
                ) from None
            setattr(self, key, value)
        self._validate()

    def _validate(self) -> None:
        if self.weighted not in (0, 1):
            raise CampaignError("weighted must be 0 or 1")

    @property
    def spec(self) -> str:
        """Canonical round-tripping spec string (``parse_fault_model``'s
        inverse): parameters appear only when they differ from defaults."""
        bits = [
            f"{key}={getattr(self, key)}"
            for key in (*self.PARAMS, "weighted")
            if getattr(self, key) != {**self.PARAMS, "weighted": 0}[key]
        ]
        return self.name if not bits else f"{self.name}:{','.join(bits)}"

    def check_tool(self, tool) -> None:
        """Raise :class:`CampaignError` when ``tool`` (an instance or an
        :class:`~repro.fi.tools.FITool` subclass) cannot express this model."""

    # -- plan drawing -------------------------------------------------------

    def plan_from_seed(self, tool, seed: int) -> FaultPlan:
        """Draw one experiment's full fault plan from its seed.

        The draw order is part of the reproducibility contract: trigger
        first, then the model's picks.
        """
        rng = SplitMix64(seed)
        return self._draw(tool, rng, self._pick_target(tool, rng))

    def _pick_target(self, tool, rng: SplitMix64) -> int:
        total = tool.profile.total_candidates
        if not self.weighted:
            return 1 + rng.randrange(total)
        cdf = getattr(tool, "_residency_cdf", None)
        if cdf is None:
            cdf = np.cumsum(residency_weights(tool))
            tool._residency_cdf = cdf
        u = rng.random() * float(cdf[-1])
        return 1 + min(int(np.searchsorted(cdf, u, side="right")), total - 1)

    def _draw(self, tool, rng: SplitMix64, target: int) -> FaultPlan:
        """The plan over ``dwell`` candidates from ``target``, with an
        operand pick and a bit pick (in that order)."""
        return FaultPlan(
            target_index=target,
            operand_pick=rng.random(),
            bit_pick=rng.random(),
            tool=tool.name,
            model=self,
            last_index=target + self.dwell - 1,
        )

    # -- application --------------------------------------------------------

    def apply(self, cpu, plan: FaultPlan, pc: int, outputs, dynamic_index: int) -> None:
        raise NotImplementedError

    def apply_value(self, cpu, plan: FaultPlan, value, width: int,
                    is_float: bool, dynamic_index: int):
        raise NotImplementedError

    def _record(
        self, cpu, plan: FaultPlan, pc: int, *, operand_index: int,
        operand_desc: str, bit: int | None, before, after,
        dynamic_index: int, bits: tuple[int, ...] | None = None,
        address: int | None = None,
    ) -> None:
        """Log the fault site — first application only (a dwell window's
        later re-applications belong to the same logical fault)."""
        if cpu.fault is not None:
            return
        info = cpu.program.info[pc]
        cpu.fault = FaultRecord(
            tool=plan.tool,
            dynamic_index=dynamic_index,
            pc=pc,
            func=info.func,
            block=info.block,
            instr_text=info.text,
            operand_index=operand_index,
            operand_desc=operand_desc,
            bit=bit,
            value_before=before,
            value_after=after,
            model=self.spec,
            bits=bits,
            address=address,
            dwell=self.dwell,
        )


class SingleBitModel(FaultModel):
    """The paper's model (Section 3.1): flip one bit, uniform over the
    operand's width, of one uniformly picked output operand."""

    name = "single-bit"

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        op_idx, space, reg_idx, _, bit = plan.choose(outputs)
        before, after, desc = _corrupt_register(
            cpu, space, reg_idx, lambda raw: raw ^ (1 << bit)
        )
        self._record(
            cpu, plan, pc, operand_index=op_idx, operand_desc=desc,
            bit=bit, before=before, after=after, dynamic_index=dynamic_index,
        )

    def apply_value(self, cpu, plan, value, width, is_float, dynamic_index):
        # LLFI flips a bit of the IR value, uniform over its bit width.
        bit = min(int(plan.bit_pick * width), width - 1)
        after, desc = _corrupt_value(value, is_float, lambda raw: raw ^ (1 << bit))
        self._record(
            cpu, plan, cpu._cur_pc, operand_index=0, operand_desc=desc,
            bit=bit, before=value, after=after, dynamic_index=dynamic_index,
        )
        return after


class OpcodeModel(FaultModel):
    """Instruction-fetch corruption: the bit lands in the OP-code encoding
    and the trigger instruction is undecodable (paper Section 4.5, made a
    first-class model).  The real REFINE's assembly-emitting stage rejects
    invalid OP codes, so the paper leaves this off; here it is opt-in
    with ``--fault-model opcode``."""

    name = "opcode"

    def check_tool(self, tool) -> None:
        if not tool.sees_encodings:
            raise CampaignError(
                f"{tool.name} operates above the instruction encoding and "
                "cannot model OP-code corruption"
            )

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        self._record(
            cpu, plan, pc, operand_index=-1, operand_desc="opcode",
            bit=min(int(plan.bit_pick * 8), 7),
            before=cpu.program.info[pc].text, after="<invalid opcode>",
            dynamic_index=dynamic_index,
        )
        raise IllegalInstruction("corrupted opcode", pc)


class MultiBitModel(FaultModel):
    """``k``-bit upset in one output operand: ``adjacent=1`` flips a burst
    of consecutive bits (wrapping at the operand width), ``adjacent=0``
    (default) draws ``k`` distinct positions without replacement."""

    name = "multi-bit"
    PARAMS = {"k": 2, "adjacent": 0}

    def _validate(self) -> None:
        super()._validate()
        if not 2 <= self.k <= 64:
            raise CampaignError("multi-bit k must be in [2, 64]")
        if self.adjacent not in (0, 1):
            raise CampaignError("multi-bit adjacent must be 0 or 1")

    def _draw(self, tool, rng, target):
        operand_pick = rng.random()
        bit_pick = rng.random()
        picks = ()
        if not self.adjacent:
            picks = tuple(rng.random() for _ in range(self.k - 1))
        return FaultPlan(
            target_index=target,
            operand_pick=operand_pick,
            bit_pick=bit_pick,
            tool=tool.name,
            model=self,
            picks=picks,
        )

    def flip_bits(self, plan: FaultPlan, width: int) -> tuple[int, ...]:
        """The distinct bit positions this plan flips in a ``width``-bit
        operand (``min(k, width)`` of them; flags are only 16 bits wide)."""
        k = min(self.k, width)
        first = min(int(plan.bit_pick * width), width - 1)
        if self.adjacent:
            return tuple((first + i) % width for i in range(k))
        bits = [first]
        avail = [b for b in range(width) if b != first]
        for pick in plan.picks[: k - 1]:
            j = min(int(pick * len(avail)), len(avail) - 1)
            bits.append(avail.pop(j))
        return tuple(bits)

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        op_idx, space, reg_idx, width, _ = plan.choose(outputs)
        bits = self.flip_bits(plan, width)
        mask = sum(1 << b for b in bits)
        before, after, desc = _corrupt_register(
            cpu, space, reg_idx, lambda raw: raw ^ mask
        )
        self._record(
            cpu, plan, pc, operand_index=op_idx, operand_desc=desc,
            bit=bits[0], before=before, after=after,
            dynamic_index=dynamic_index, bits=bits,
        )

    def apply_value(self, cpu, plan, value, width, is_float, dynamic_index):
        bits = self.flip_bits(plan, width)
        mask = sum(1 << b for b in bits)
        after, desc = _corrupt_value(value, is_float, lambda raw: raw ^ mask)
        self._record(
            cpu, plan, cpu._cur_pc, operand_index=0, operand_desc=desc,
            bit=bits[0], before=value, after=after,
            dynamic_index=dynamic_index, bits=bits,
        )
        return after


class _MemoryModel(FaultModel):
    """Shared machinery for address-space corruption at the trigger site.

    The corrupted address is a pure function of the plan (``operand_pick``
    re-used as the address draw), uniform over aligned units of the
    *occupied data segment* — the globals/arrays between the null guard
    and ``data_end`` where these workloads keep all their live state.
    Drawing over the whole address space instead would make nearly every
    fault land in unmapped memory and classify benign.  The trigger stays
    a candidate count, so every tool observes memory faults at the same
    kind of site it observes register faults — and snapshots/forks resume
    them unchanged.
    """

    unit = CELL_BYTES

    def _unit_base(self, cpu, plan: FaultPlan) -> int:
        prog = cpu.program
        lo = -(-NULL_GUARD // self.unit) * self.unit  # align up
        hi = min(-(-prog.data_end // self.unit) * self.unit, prog.mem_size)
        n_units = (hi - lo) // self.unit
        if n_units <= 0:
            # No globals laid out: fall back to the whole writable space.
            n_units = (prog.mem_size - lo) // self.unit
        if n_units <= 0:
            raise CampaignError(
                f"{self.name}: no writable memory to corrupt "
                f"(mem_size={prog.mem_size})"
            )
        return lo + self.unit * min(
            int(plan.operand_pick * n_units), n_units - 1
        )

    def apply_value(self, cpu, plan, value, width, is_float, dynamic_index):
        # LLFI observes the trigger at an IR value site; the corruption
        # itself still lands in memory — the visited value is untouched.
        self.apply(cpu, plan, cpu._cur_pc, (), dynamic_index)
        return value


class MemoryCellModel(_MemoryModel):
    """Single-bit upset in one aligned 8-byte memory cell."""

    name = "memory-cell"
    unit = CELL_BYTES

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        addr = self._unit_base(cpu, plan)
        bit = min(int(plan.bit_pick * 64), 63)
        before = int.from_bytes(cpu.mem[addr:addr + 8], "little", signed=True)
        after = to_signed64((before & MASK64) ^ (1 << bit))
        cpu.mem[addr:addr + 8] = (after & MASK64).to_bytes(8, "little")
        self._record(
            cpu, plan, pc, operand_index=-1, operand_desc=f"mem:{addr:#x}",
            bit=bit, before=before, after=after,
            dynamic_index=dynamic_index, address=addr,
        )


class CacheLineModel(_MemoryModel):
    """Burst corruption of one aligned 64-byte line: the same bit position
    flips in each of its eight 64-bit words (a column failure).  The fault
    log carries ``bit=None`` — a line burst has no single bit index — which
    is exactly the case per-bit breakdowns must degrade gracefully on."""

    name = "cache-line"
    unit = LINE_BYTES

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        base = self._unit_base(cpu, plan)
        word_bit = min(int(plan.bit_pick * 64), 63)
        mem = cpu.mem
        for word in range(8):
            addr = base + 8 * word
            raw = int.from_bytes(mem[addr:addr + 8], "little")
            mem[addr:addr + 8] = ((raw ^ (1 << word_bit)) & MASK64).to_bytes(
                8, "little"
            )
        self._record(
            cpu, plan, pc, operand_index=-1, operand_desc=f"line:{base:#x}",
            bit=None, before=None, after=None,
            dynamic_index=dynamic_index, address=base,
            bits=(word_bit,),
        )


class StuckAtModel(FaultModel):
    """A bit sticks at ``value`` (0 or 1) for a dwell window of ``dwell``
    dynamic candidates: the first application picks the physical location
    (operand, bit) exactly like the single-bit model, and every candidate
    the tool observes while the window is open re-forces the same bit —
    idempotently, so re-application converges instead of toggling.
    """

    name = "stuck-at"
    PARAMS = {"value": 1, "dwell": 32}

    def _validate(self) -> None:
        super()._validate()
        if self.value not in (0, 1):
            raise CampaignError("stuck-at value must be 0 or 1")
        if self.dwell < 1:
            raise CampaignError("stuck-at dwell must be >= 1")

    def apply(self, cpu, plan, pc, outputs, dynamic_index):
        site = plan.state
        if site is None:
            site = plan.state = plan.choose(outputs)
        op_idx, space, reg_idx, _, bit = site
        before, after, desc = _corrupt_register(
            cpu, space, reg_idx, lambda raw: _set_bit(raw, bit, self.value)
        )
        self._record(
            cpu, plan, pc, operand_index=op_idx, operand_desc=desc,
            bit=bit, before=before, after=after, dynamic_index=dynamic_index,
        )

    def apply_value(self, cpu, plan, value, width, is_float, dynamic_index):
        bit = plan.state
        if bit is None:
            bit = plan.state = min(int(plan.bit_pick * width), width - 1)
        after, desc = _corrupt_value(
            value, is_float, lambda raw: _set_bit(raw, bit, self.value)
        )
        self._record(
            cpu, plan, cpu._cur_pc, operand_index=0, operand_desc=desc,
            bit=bit, before=value, after=after, dynamic_index=dynamic_index,
        )
        return after


#: Registry used by tools, campaigns, the fuzz harness and the CLI.
FAULT_MODELS: dict[str, type[FaultModel]] = {
    cls.name: cls
    for cls in (
        SingleBitModel,
        MultiBitModel,
        MemoryCellModel,
        CacheLineModel,
        OpcodeModel,
        StuckAtModel,
    )
}

#: Stable presentation order (matrices, reports, ``--check-fault-models``).
MODEL_ORDER = (
    "single-bit", "multi-bit", "memory-cell", "cache-line", "opcode",
    "stuck-at",
)

DEFAULT_FAULT_MODEL = "single-bit"


def parse_fault_model(spec: str) -> FaultModel:
    """Parse ``NAME`` or ``NAME:key=value,...`` into a model instance."""
    name, _, param_text = spec.partition(":")
    name = name.strip()
    cls = FAULT_MODELS.get(name)
    if cls is None:
        raise CampaignError(
            f"unknown fault model {name!r}; choose from {sorted(FAULT_MODELS)}"
        )
    params: dict[str, str] = {}
    if param_text:
        for item in param_text.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key.strip():
                raise CampaignError(
                    f"malformed fault-model parameter {item!r} in {spec!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = value.strip()
    return cls(**params)


def resolve_fault_model(model: FaultModel | str | None) -> FaultModel:
    """Normalize a model argument: instance, spec string, or ``None``
    (the single-bit default)."""
    if model is None:
        return SingleBitModel()
    if isinstance(model, FaultModel):
        return model
    return parse_fault_model(model)
