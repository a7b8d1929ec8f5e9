"""numpy's ``Generator(PCG64(seed))``, bit for bit, for the draws sacmine makes.

The stream is PCG64 (O'Neill 2014): a 128-bit LCG whose output is the
XSL-RR permutation of each new state, seeded as numpy seeds it, through
``SeedSequence(seed).generate_state(4, uint64)``. Each draw is numpy 2.x's:
``random`` takes the top 53 bits of a 64-bit output; ``uniform`` is
``low + (high - low) * random()``; ``integers`` is Lemire's bounded method
(Lemire 2019), on 32-bit halves below a range of 2**32 and on 64-bit
outputs above it; ``permutation`` is a Fisher-Yates shuffle from the top,
each index drawn by masked rejection. A 32-bit draw uses the high half of a
64-bit output that the previous 32-bit draw left over, as numpy's PCG64
keeps it across calls. Pinning these here keeps fixtures byte-identical
whatever numpy is installed, or none.
"""

from __future__ import annotations

import math
import operator

_M32 = (1 << 32) - 1
_M53 = (1 << 53) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_TWICE = (1 << 64) + 1  # x * _TWICE is x beside itself, so a right shift of it rotates x
_TO_DOUBLE = 1.0 / (1 << 53)


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8)``: eight 32-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]  # little-endian 32-bit words; 0 is [0]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    words = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words


class Generator:
    """The draws of numpy's ``Generator(PCG64(seed))`` that sacmine uses.

    The state lives in a closure shared by the draw methods, so each draw
    reads and writes locals, not attributes.
    """

    __slots__ = ("random", "uniform", "integers", "permutation")

    def __init__(self, seed: int) -> None:
        w = _seed_words(seed)
        # generate_state(4, uint64) reads the words as little-endian pairs;
        # of the four 64-bit words, the first two are the initial state and
        # the last two the stream, high word first.
        u = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]
        inc = ((u[2] << 64 | u[3]) << 1 | 1) & _M128
        state = ((inc + (u[0] << 64 | u[1])) * _MULTIPLIER + inc) & _M128
        half = None  # the high half of the last 64-bit output a 32-bit draw split

        def next64() -> int:
            nonlocal state
            state = (state * _MULTIPLIER + inc) & _M128
            high = state >> 64
            return ((high ^ state) & _M64) * _TWICE >> (high >> 58) & _M64

        def next32() -> int:
            nonlocal half
            if half is not None:
                value, half = half, None
                return value
            value = next64()
            half = value >> 32
            return value & _M32

        def random() -> float:
            nonlocal state  # next64() >> 11, inlined: this is the hot draw
            state = (state * _MULTIPLIER + inc) & _M128
            high = state >> 64
            return (((high ^ state) & _M64) * _TWICE >> (11 + (high >> 58)) & _M53) * _TO_DOUBLE

        def uniform(low: float, high: float) -> float:
            low, high = float(low), float(high)
            span = high - low
            if not math.isfinite(span):
                raise OverflowError("high - low range exceeds valid bounds")
            if span < 0:
                raise ValueError("high - low < 0")
            return low + span * random()

        def integers(low: int, high: int) -> int:
            """An int64 in [low, high)."""
            low, top = int(low), int(high) - 1
            if low < -(1 << 63):
                raise ValueError("low is out of bounds for int64")
            if top > (1 << 63) - 1:
                raise ValueError("high is out of bounds for int64")
            if low > top:
                raise ValueError("low >= high")
            span = top - low
            if span == 0:
                return low
            # A span of 2**32 - 1 or 2**64 - 1 takes the draw whole, as numpy does.
            draw, bits = (next32, 32) if span <= _M32 else (next64, 64)
            excl, mask = span + 1, (1 << bits) - 1
            m = draw() * excl
            if (m & mask) < excl:  # only then can the draw be biased
                threshold = (mask + 1 - excl) % excl
                while (m & mask) < threshold:
                    m = draw() * excl
            return low + (m >> bits)

        def permutation(n: int) -> list[int]:
            """A shuffled ``list(range(n))``."""
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                mask = (1 << i.bit_length()) - 1
                draw = next32 if i <= _M32 else next64
                j = draw() & mask
                while j > i:
                    j = draw() & mask
                perm[i], perm[j] = perm[j], perm[i]
            return perm

        self.random = random
        self.uniform = uniform
        self.integers = integers
        self.permutation = permutation
