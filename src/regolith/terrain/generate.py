"""Seeded generation of smooth initial elevation maps.

Reference scenarios start from a superposition of a few long-wavelength
cosine waves with seeded random phases, optionally with a ridge feature
separating two regions (used for the sloped haul variant).

The random draws are numpy's: `SeedRng(seed).uniform` gives the numbers
`np.random.default_rng(seed).uniform` gives, from a copy of its
SeedSequence, PCG64 and `uniform`.
"""

from __future__ import annotations

import math

from .heightfield import Heightfield

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
# SeedSequence hashing constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4
#: PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int, n_words: int) -> list:
    """`SeedSequence(seed).generate_state(n_words, np.uint32)`."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = []
    while True:                         # 32-bit words, least significant first
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    out = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ (value >> 16))
    return out


class SeedRng:
    """`np.random.default_rng(seed)`'s PCG64 stream and `uniform` draws."""

    def __init__(self, seed: int):
        w = _seed_words(seed, 8)
        # generate_state(4, np.uint64): little-endian pairs of words
        s_hi, s_lo, i_hi, i_lo = (w[k] | w[k + 1] << 32 for k in (0, 2, 4, 6))
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # from state 0: one step (which gives inc), add the seed, one step
        self._state = ((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                       + self._inc) & _M128

    def next_uint64(self) -> int:
        """One LCG step, then the XSL-RR output of the new state."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        value = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return (value >> rot | value << (-rot & 63)) & _M64

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * ((self.next_uint64() >> 11)
                                     * (1.0 / 9007199254740992.0))


def generate_heightfield(nx: int, ny: int, cell_size: float,
                         origin=(0.0, 0.0), amplitude: float = 0.05,
                         wavelength: float = 8.0, seed: int = 0,
                         base_height: float = 1.0,
                         ridge: dict | None = None) -> Heightfield:
    """Smooth seeded terrain.

    ridge, when given, is {"x": center, "height": h, "half_width": w} and
    adds a cosine-profile ridge running along y at the given x.
    """
    rng = SeedRng(seed)
    xs = [(i + 0.5) * cell_size + origin[0] for i in range(nx)]
    ys = [(j + 0.5) * cell_size + origin[1] for j in range(ny)]
    rows = [[float(base_height)] * ny for _ in range(nx)]
    for _ in range(4):
        kx = rng.uniform(0.5, 1.5) * 2 * math.pi / wavelength
        ky = rng.uniform(0.5, 1.5) * 2 * math.pi / wavelength
        phase_x = rng.uniform(0, 2 * math.pi)
        phase_y = rng.uniform(0, 2 * math.pi)
        # every cell of row i has x = xs[i], of column j y = ys[j]
        cos_y = [math.cos(y * ky + phase_y) for y in ys]
        for row, x in zip(rows, xs):
            wave_x = (amplitude / 4.0) * math.cos(x * kx + phase_x)
            row[:] = [z + wave_x * c for z, c in zip(row, cos_y)]
    if ridge:
        cx = float(ridge["x"])
        height = float(ridge["height"])
        half_width = float(ridge["half_width"])
        for row, x in zip(rows, xs):
            dist = abs(x - cx)
            profile = (0.5 * (1 + math.cos(math.pi * dist / half_width))
                       if dist < half_width else 0.0)
            lift = height * profile
            row[:] = [z + lift for z in row]
    return Heightfield(nx, ny, cell_size, origin, rows)
