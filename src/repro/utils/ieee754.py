"""IEEE-754 double-precision bit views.

The fault model flips bits in *architectural registers*.  For floating-point
registers that means flipping a bit of the IEEE-754 binary64 encoding, not a
numerical perturbation.  These helpers give a bit-accurate round trip between
Python floats and their 64-bit encodings using :mod:`struct`.
"""

from __future__ import annotations

import struct

_PACK_D = struct.Struct("<d")
_PACK_Q = struct.Struct("<Q")


def double_to_bits(value: float) -> int:
    """Return the 64-bit IEEE-754 encoding of ``value`` as an unsigned int."""
    return _PACK_Q.unpack(_PACK_D.pack(value))[0]


def bits_to_double(bits: int) -> float:
    """Decode an unsigned 64-bit integer as an IEEE-754 double."""
    return _PACK_D.unpack(_PACK_Q.pack(bits & ((1 << 64) - 1)))[0]
