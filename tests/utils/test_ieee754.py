"""Tests for IEEE-754 bit views and float bit flips."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.fi.models import _corrupt_value
from repro.utils.ieee754 import bits_to_double, double_to_bits

finite = st.floats(allow_nan=False, allow_infinity=False)


class TestBitViews:
    def test_zero(self):
        assert double_to_bits(0.0) == 0

    def test_negative_zero(self):
        assert double_to_bits(-0.0) == 1 << 63

    def test_one(self):
        assert double_to_bits(1.0) == 0x3FF0000000000000

    def test_inf(self):
        assert double_to_bits(math.inf) == 0x7FF0000000000000

    def test_nan_decodes(self):
        assert math.isnan(bits_to_double(0x7FF8000000000000))

    @given(finite)
    def test_roundtrip(self, v):
        assert bits_to_double(double_to_bits(v)) == v

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_bits_roundtrip(self, bits):
        back = double_to_bits(bits_to_double(bits))
        # NaN payloads are preserved by struct round-trip on x86-64.
        assert back == bits


def flip_double_bit(value: float, bit: int) -> float:
    """A fault model's float bit flip: a change on the value's encoding,
    through the bit views (``repro.fi.models``)."""
    return _corrupt_value(value, True, lambda bits: bits ^ (1 << bit))[0]


class TestFlip:
    def test_sign_flip(self):
        assert flip_double_bit(1.0, 63) == -1.0

    def test_mantissa_lsb_is_tiny(self):
        v = flip_double_bit(1.0, 0)
        assert v != 1.0
        assert abs(v - 1.0) < 1e-15

    def test_high_exponent_flip_is_huge(self):
        v = flip_double_bit(1.0, 62)
        # Flipping the top exponent bit of 1.0 lands near 2^1024 -> inf
        # territory or a huge number; either way, enormous relative change.
        assert v > 1e300 or math.isinf(v)

    def test_can_produce_nan_or_inf(self):
        # All-ones exponent: flip the last zero exponent bit of inf-adjacent.
        huge = bits_to_double(0x7FE0000000000000)
        flipped = flip_double_bit(huge, 52)
        assert math.isinf(flipped) or math.isnan(flipped) or flipped != huge

    @given(finite, st.integers(min_value=0, max_value=63))
    def test_involution(self, v, bit):
        once = flip_double_bit(v, bit)
        twice = flip_double_bit(once, bit)
        assert double_to_bits(twice) == double_to_bits(v)

    @given(finite, st.integers(min_value=0, max_value=63))
    def test_changes_encoding(self, v, bit):
        assert double_to_bits(flip_double_bit(v, bit)) != double_to_bits(v)
