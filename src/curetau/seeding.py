"""Deterministic RNG stream derivation.

Every randomized routine derives an independent stream per work unit from
``(seed..., index)``, so results never depend on execution order or on how
work is split across processes.  The contract is the stream itself:
``stream(seed, r)`` is ``np.random.default_rng(seed_tuple(seed) + (r,))``.
``_pcg64_states`` reproduces its seeding (numpy's SeedSequence, NEP 19, then
PCG64's) for many ``r`` at once as array arithmetic, with no Generator each.
"""

from itertools import permutations, product

import numpy as np

_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
# and PCG64's multiplier (PCG_DEFAULT_MULTIPLIER_128).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _POOL_SIZE = 0xCA01F9DD, 0x4973F715, 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def seed_tuple(seed):
    """Normalize an int or a sequence of ints into a tuple of ints."""
    if isinstance(seed, (tuple, list)):
        out = tuple(int(s) for s in seed)
    else:
        out = (int(seed),)
    if any(s < 0 for s in out):
        raise ValueError("seed components must be non-negative")
    return out


def stream(seed, *indices):
    """A fresh Generator for the work unit addressed by ``indices``."""
    return np.random.default_rng(seed_tuple(seed) + tuple(int(i) for i in indices))


def _hasher(const, mult):
    """SeedSequence's hash of uint32 arrays: each call moves the constant on."""

    def hash_words(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash_words


def _pcg64_states(seed, count):
    """PCG64 ``(state, inc)`` of ``stream(seed, r)`` for each ``r`` in ``range(count)``.

    The entropy words are those of ``seed_tuple(seed)`` and then the one word
    of ``r`` (``count`` is at most 2**32).  The hash constants do not depend
    on the data, so every step of the pool mixing and of ``generate_state``
    is one elementwise uint32 operation over all ``r`` (wrapping, as in C).
    """
    zeros = np.zeros(count, np.uint32)
    # Each component as little-endian 32-bit words; 0 is one word.
    entropy = [zeros + (s >> shift & _MASK32) for s in seed_tuple(seed)
               for shift in range(0, max(s.bit_length(), 1), 32)]
    entropy.append(np.arange(count, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for src, dst in permutations(range(_POOL_SIZE), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(entropy[_POOL_SIZE:], range(_POOL_SIZE)):
        pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words from the pool, paired low-high.
    generate = _hasher(_INIT_B, _MULT_B)
    halves = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*(
            (halves[k] | halves[k + 1] << np.uint64(32)).tolist() for k in range(0, 8, 2))):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # pcg64_srandom_r: state 0, step, add the initial state, step.
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states
