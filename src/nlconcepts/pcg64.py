"""numpy's seeded permutation, without importing `numpy.random`.

`permutation(n, seed)` is numpy's `default_rng(seed).permutation(n)` as
a list, bit for bit. numpy's `SeedSequence` hashes the seed into
four 64-bit words, they seed a PCG64 generator (O'Neill 2014, the
XSL-RR 128/64 output), and the shuffle is Fisher-Yates from the last
position down, each bounded draw a masked 32-bit output (64-bit past
2**32) redrawn while it exceeds the bound. Importing `numpy.random`
loads `secrets`, `hmac` and OpenSSL, which one permutation does without.
"""

from __future__ import annotations

import operator
from typing import List

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> List[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer seed, got {seed}")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = 0x8B51F9DD
    out = []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        out.append(v ^ v >> 16)
    return [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]


def permutation(n: int, seed: int) -> List[int]:
    """0..n-1 in the order numpy's `default_rng(seed).permutation(n)`
    gives them; a negative seed is a ValueError, as in numpy."""
    s0, s1, s2, s3 = _seed_words(seed)
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    spare = None  # the kept high half of the last 64-bit output split in two
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if spare is not None and i <= _M32:
                j, spare = spare, None
            else:
                state = (state * _PCG_MULT + inc) & _M128
                x, rot = (state >> 64 ^ state) & _M64, state >> 122
                x = (x >> rot | x << (64 - rot)) & _M64
                if i <= _M32:
                    j, spare = x & _M32, x >> 32
                else:
                    j = x
            j &= mask
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return order
