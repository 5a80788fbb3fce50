"""An exact byte form of a heightfield, for bit-for-bit comparisons."""

import struct


def elevation_bytes(h):
    """h's heights as little-endian float64s, row by row.  Two forms are
    equal only when every height is equal bit for bit, signed zeros
    included."""
    pack = struct.Struct(f"<{h.ny}d").pack
    return b"".join([pack(*row) for row in h.elevation])
