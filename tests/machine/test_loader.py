"""Loader tests: memory layout, decoding, FI metadata."""

import pytest

from repro.backend import compile_minic
from repro.backend.compiler import CompileOptions
from repro.errors import LinkError
from repro.fi import FIConfig, refine_instrument
from repro.machine import load_binary
from repro.machine.loader import NULL_GUARD
from repro.machine.registers import SPACE_FLAGS, SPACE_FLOAT, SPACE_INT


SRC = """
double table[4];
int counter = 3;
int main() {
  table[0] = 1.5;
  counter = counter + 1;
  print_int(counter);
  return 0;
}
"""


@pytest.fixture(scope="module")
def prog():
    return load_binary(compile_minic(SRC, "t"))


class TestLayout:
    def test_globals_above_null_guard(self, prog):
        for addr in prog.globals_addr.values():
            assert addr >= NULL_GUARD

    def test_globals_do_not_overlap(self, prog):
        spans = []
        for name, addr in prog.globals_addr.items():
            g = prog.binary.globals[name]
            spans.append((addr, addr + g.size_bytes))
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_initializers_in_image(self, prog):
        mem = prog.fresh_memory()
        addr = prog.globals_addr["counter"]
        assert int.from_bytes(mem[addr : addr + 8], "little", signed=True) == 3

    def test_stack_region_sane(self, prog):
        assert prog.stack_limit > prog.data_end
        assert prog.stack_top < prog.mem_size
        assert prog.stack_top > prog.stack_limit

    def test_data_too_large_rejected(self):
        src = "double huge[200000]; int main() { return 0; }"
        binary = compile_minic(src, "t")
        with pytest.raises(LinkError):
            load_binary(binary, mem_size=1 << 20)


class TestDecoding:
    def test_code_arrays_parallel(self, prog):
        n = len(prog.code)
        assert len(prog.cost) == n
        assert len(prog.is_candidate) == n
        assert len(prog.outputs) == n
        assert len(prog.info) == n

    def test_every_function_has_entry(self, prog):
        assert "main" in prog.func_entry
        assert 0 <= prog.func_entry["main"] < len(prog.code)

    def test_candidates_have_outputs(self, prog):
        for pc, cand in enumerate(prog.is_candidate):
            if cand:
                assert prog.outputs[pc], f"candidate at {pc} lacks outputs"

    def test_output_spaces_valid(self, prog):
        for outs in prog.outputs:
            for space, idx, width in outs:
                assert space in (SPACE_INT, SPACE_FLOAT, SPACE_FLAGS)
                assert width in (16, 64)

    def test_costs_positive(self, prog):
        assert all(c > 0 for c in prog.cost)

    def test_info_text_nonempty(self, prog):
        assert all(i.text for i in prog.info)


class TestInstrumentedDecoding:
    def test_refine_fi_check_pcs(self):
        binary = compile_minic(SRC, "t", CompileOptions())
        refine_instrument(binary, FIConfig())
        prog = load_binary(binary)
        assert prog.fi_check_pcs
        for pc in prog.fi_check_pcs:
            decoded = prog.code[pc]
            outs = decoded[1]
            assert outs, "fi_check must carry the guarded outputs"
            # fi_check itself is never an FI candidate
            assert not prog.is_candidate[pc]

    def test_llfi_stub_pcs(self):
        from repro.fi import llfi_instrument

        options = CompileOptions(
            ir_pass=lambda m: llfi_instrument(m, FIConfig())
        )
        binary = compile_minic(SRC, "t", options)
        prog = load_binary(binary)
        assert prog.llfi_site_pcs


def test_every_cost_is_a_multiple_of_half_a_cycle(prog):
    """Runs count cycles in halves (``LoadedProgram.half_cost``): exact only
    while every instruction and intrinsic costs a multiple of 0.5 (10 is
    the loader's cost of an intrinsic the table does not name)."""
    from repro.backend.target import INTRINSIC_COSTS
    from repro.machine.semantics import MNEMONICS

    costs = [m.cost for m in MNEMONICS.values()] + [*INTRINSIC_COSTS.values(), 10.0]
    assert all(2 * c == int(2 * c) for c in costs)
    assert prog.half_cost == [2 * c for c in prog.cost]
