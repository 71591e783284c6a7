"""The random numbers of the turan command, without numpy.random.

cli imports this module only when turan runs.
"""

import numpy as np

# numpy.random.default_rng's constants: SeedSequence's hash and mix
# multipliers, and PCG64's 128-bit LCG multiplier
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class TuranRng:
    """np.random.default_rng(seed)'s integers(low, high) and uniform(low, high[, size]), bit for bit.

    turan draws a few numbers an instance, and importing numpy.random
    would cost its process about 6 MB of peak RSS, so this pure-Python
    copy of the three calls stands in (tests/test_cli.py checks it
    against numpy).  The seed's 32-bit words go through SeedSequence's
    hashmix into a pool of four, which gives 4 uint64 words: PCG64's
    state and increment.  Each draw steps the 128-bit LCG and takes its
    XSL-RR output.  integers takes Lemire's bounded draw, with
    rejection, from next32, the low then the high half of one draw;
    uniform is low + (high - low) d, with d = (x >> 11) 2^-53.
    """

    def __init__(self, seed):
        words = []
        while True:
            words.append(seed & _M32)
            seed >>= 32
            if not seed:
                break
        hash_a = _INIT_A

        def hashmix(value):
            nonlocal hash_a
            value ^= hash_a
            hash_a = hash_a * _MULT_A & _M32
            value = value * hash_a & _M32
            return value ^ value >> 16

        def mix(x, y):
            r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_b, state = _INIT_B, []
        for i in range(8):
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * _MULT_B & _M32
            value = value * hash_b & _M32
            state.append(value ^ value >> 16)
        seeds = [lo | hi << 32 for lo, hi in zip(state[0::2], state[1::2])]
        self._inc = ((seeds[2] << 64 | seeds[3]) << 1 | 1) & _M128
        # from state 0: one step, the seed added, and one more step
        self._state = ((self._inc + (seeds[0] << 64 | seeds[1])) * _PCG_MULT + self._inc) & _M128
        self._half = None  # the high half of a draw next32 split

    def _next64(self):
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def _double(self):
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low, high):
        """One int in [low, high), high - low at most 2^32 - 1."""
        span = high - low
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (_M32 - (span - 1)) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def uniform(self, low, high, size=None):
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * self._double()
        return np.array([low + span * self._double() for _ in range(size)])
