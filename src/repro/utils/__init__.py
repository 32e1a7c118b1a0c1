"""Shared low-level helpers: bit manipulation, IEEE-754 views, RNG streams."""

from repro.utils.bits import (
    MASK64,
    bit_width,
    flip_bit,
    sign_extend,
    to_signed64,
    to_unsigned64,
)
from repro.utils.ieee754 import bits_to_double, double_to_bits
from repro.utils.rng import SplitMix64, derive_seed

__all__ = [
    "MASK64",
    "bit_width",
    "flip_bit",
    "sign_extend",
    "to_signed64",
    "to_unsigned64",
    "bits_to_double",
    "double_to_bits",
    "SplitMix64",
    "derive_seed",
]
