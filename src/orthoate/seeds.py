"""Child seeds derived from a master seed by fixed spawn keys.

Every random stream of the package is ``stream(seed, *key)`` or is
seeded by ``seed_int(seed, *key)``; with no key, ``stream(seed)`` is
the stream of ``SeedSequence(seed)``.

``spawn_words`` gives the PCG64 seed words of many spawn keys that
differ only in their last element, in one pass: numpy's SeedSequence
hash (mix_entropy, then generate_state) mixes the words before that
element once as Python ints and the last element as a uint32 array.
``pcg64_states`` turns those words, a block of keys at a time, into
the states numpy's PCG64 seeds itself with, so one reused bit
generator can replay each child stream without building a
SeedSequence or Generator per key.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidArgument

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence constants (bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of SeedSequence(seed, spawn_key=key)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def seed_int(seed: int, *key: int) -> int:
    """First 32-bit word of SeedSequence(seed, spawn_key=key)."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class _Hash:
    """SeedSequence's hashmix with its running hash constant."""

    def __init__(self, const: int, mult: int):
        self.const, self.mult = const, mult

    def __call__(self, value: int) -> int:
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16

    def columns(self, values: np.ndarray, k: int) -> np.ndarray:
        """The next k calls, call c on column c of uint32 ``values`` (broadcast)."""
        xor, mult = [], []
        for _ in range(k):
            xor.append(self.const)
            self.const = self.const * self.mult & _MASK32
            mult.append(self.const)
        out = (values ^ np.array(xor, dtype=np.uint32)) * np.array(mult, dtype=np.uint32)
        return out ^ out >> 16


def _mix(x, y):
    out = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return out ^ out >> 16


def _uint32_words(value: int) -> list:
    """Little-endian 32-bit words of a non-negative int; [0] for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def spawn_words(seed: int, prefix: tuple, lo: int, hi: int) -> np.ndarray:
    """Seed words of ``SeedSequence(seed, spawn_key=prefix + (u,))`` for u in [lo, hi).

    Row u - lo equals that sequence's ``generate_state(4, np.uint64)``.
    Each u must fit one 32-bit word (hi <= 2**32).
    """
    if not 0 <= lo <= hi <= 2**32:
        raise InvalidArgument(f"need 0 <= lo <= hi <= 2**32, got lo={lo}, hi={hi}")
    # A spawn key pads the run entropy to the pool size, so every spawn
    # word, u included, is mixed in after the pool is filled.
    entropy = _uint32_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    for key in prefix:
        entropy += _uint32_words(key)

    hash_a = _Hash(_INIT_A, _MULT_A)
    pool = [hash_a(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_a(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hash_a(word))

    # u, the last word, is mixed into each pool word in turn.
    u = np.arange(lo, hi, dtype=np.uint32)[:, None]
    pools = _mix(np.array(pool, dtype=np.uint32), hash_a.columns(u, _POOL_SIZE))
    # generate_state(4, np.uint64): 8 uint32 words cycling through the
    # pool, paired up little-endian.
    out = _Hash(_INIT_B, _MULT_B).columns(np.tile(pools, 2), 8)
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64)


# Spawn keys whose seed words are computed at once by pcg64_states.
_WORDS_BLOCK = 256


def pcg64_states(seed: int, prefix: tuple, stop: int):
    """Yield ``PCG64(SeedSequence(seed, spawn_key=prefix + (u,))).state`` for u in range(stop).

    Seed words are computed ``_WORDS_BLOCK`` keys at a time.  PCG64
    seeds its 128-bit LCG with words (w0, w1, w2, w3) as increment
    inc = (w2:w3 << 1) | 1 and state ((inc + w0:w1) * MULT + inc).
    """
    for lo in range(0, stop, _WORDS_BLOCK):
        for w0, w1, w2, w3 in spawn_words(seed, prefix, lo, min(stop, lo + _WORDS_BLOCK)).tolist():
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
            yield {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
