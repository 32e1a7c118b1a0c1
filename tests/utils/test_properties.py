"""Property-based tests for the bit-twiddling utilities.

These modules are the substrate of the fault model (every injected fault is
a bit flip computed here), so they get the strongest checks in the suite:
hypothesis explores the input space instead of a handful of examples.
"""

from __future__ import annotations

import math
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    INT64_MAX,
    INT64_MIN,
    MASK64,
    bit_width,
    flip_bit,
    sign_extend,
    to_signed64,
    to_unsigned64,
)
from repro.utils.ieee754 import bits_to_double, double_to_bits
from repro.utils.rng import SplitMix64, derive_seed

any_int = st.integers()
u64 = st.integers(min_value=0, max_value=MASK64)
i64 = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
bits63 = st.integers(min_value=0, max_value=63)

# Every bit pattern is a legal double — including NaNs with arbitrary
# payloads, infinities, subnormals, and both zeros.
doubles = st.floats(width=64, allow_nan=True, allow_infinity=True)


class TestSignedUnsignedViews:
    @given(any_int)
    def test_views_agree_modulo_2_64(self, v):
        assert to_unsigned64(v) == to_signed64(v) % (1 << 64)

    @given(any_int)
    def test_signed_range(self, v):
        assert INT64_MIN <= to_signed64(v) <= INT64_MAX

    @given(i64)
    def test_signed_roundtrip_is_identity_in_range(self, v):
        assert to_signed64(v) == v
        assert to_signed64(to_unsigned64(v)) == v

    @given(any_int, st.integers(min_value=1, max_value=64))
    def test_sign_extend_idempotent(self, v, bits):
        once = sign_extend(v, bits)
        assert sign_extend(once, bits) == once
        assert -(1 << (bits - 1)) <= once < (1 << (bits - 1))


class TestFlipBit:
    @given(i64, bits63)
    def test_involution(self, v, bit):
        assert flip_bit(flip_bit(v, bit), bit) == v

    @given(i64, bits63)
    def test_changes_exactly_one_bit(self, v, bit):
        diff = to_unsigned64(v) ^ to_unsigned64(flip_bit(v, bit))
        assert diff == 1 << bit

    @given(i64, bits63)
    def test_result_in_signed_range(self, v, bit):
        assert INT64_MIN <= flip_bit(v, bit) <= INT64_MAX

    @given(u64)
    def test_bit_width_matches_bit_length(self, v):
        assert bit_width(v) == v.bit_length()


class TestIEEE754RoundTrip:
    @given(u64)
    def test_bits_to_double_to_bits_preserves_payload(self, pattern):
        # Bit-exact round trip even for NaN payloads: a fault model that
        # canonicalized NaNs would silently alter injected register state.
        assert double_to_bits(bits_to_double(pattern)) == pattern

    @given(doubles)
    def test_double_to_bits_to_double_bitwise_identity(self, value):
        back = bits_to_double(double_to_bits(value))
        assert struct.pack("<d", back) == struct.pack("<d", value)

    def test_signed_zeros_are_distinct_encodings(self):
        assert double_to_bits(0.0) == 0
        assert double_to_bits(-0.0) == 1 << 63
        assert math.copysign(1.0, bits_to_double(1 << 63)) == -1.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_sign_bit_flip_negates(self, value):
        assert bits_to_double(double_to_bits(value) ^ (1 << 63)) == -value


class TestSplitMix64Properties:
    @given(u64)
    def test_stream_is_deterministic(self, seed):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert [a.next_u64() for _ in range(5)] == [
            b.next_u64() for _ in range(5)
        ]

    @given(u64, st.integers(min_value=1, max_value=1 << 64))
    def test_randrange_in_bounds(self, seed, n):
        assert 0 <= SplitMix64(seed).randrange(n) < n

    @given(u64)
    def test_random_unit_interval(self, seed):
        assert 0.0 <= SplitMix64(seed).random() < 1.0


class TestDeriveSeed:
    @given(u64)
    def test_deterministic(self, base):
        assert derive_seed(base, "a", 1) == derive_seed(base, "a", 1)

    @given(u64)
    def test_order_sensitive(self, base):
        # (workload, index) and (index, workload) must give independent
        # streams; a commutative mix would alias experiment seeds.
        assert derive_seed(base, "x", 7) != derive_seed(base, 7, "x")

    @given(u64, st.integers(min_value=0, max_value=1000))
    def test_component_sensitivity(self, base, i):
        assert derive_seed(base, "fuzz", i) != derive_seed(base, "fuzz", i + 1)

    @given(u64)
    def test_in_u64_range(self, base):
        assert 0 <= derive_seed(base, "w", 3) <= MASK64
