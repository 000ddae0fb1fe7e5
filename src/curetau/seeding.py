"""Deterministic RNG stream derivation.

Every randomized routine derives an independent stream per work unit from
``(seed..., index)``, so results never depend on execution order or on how
work is split across processes.  The contract is the stream itself:
``stream(seed, r)`` is ``np.random.default_rng(seed_tuple(seed) + (r,))``.
``_pcg64_states`` reproduces its seeding (numpy's SeedSequence, NEP 19, then
PCG64's) for many ``r`` at once as array arithmetic, with no Generator each:
a (count x 4) uint64 array of PCG64 state words, ``[state_lo, state_hi,
inc_lo, inc_hi]`` per ``r``, for ``count`` up to 2**32.  ``_seated_pcg64``
gives one PCG64 that draws each such stream in turn, its state written
from a row of those words.
"""

import ctypes
import functools
from itertools import permutations, product

import numpy as np

_MASK32, _MASK64 = 0xFFFFFFFF, (1 << 64) - 1
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
    """PCG64 state words of ``stream(seed, r)`` for each ``r`` in ``range(count)``.

    A (count x 4) uint64 array whose row ``r`` is ``[state_lo, state_hi,
    inc_lo, inc_hi]``: the 128-bit state and increment, low 64-bit word
    first.  The entropy words are those of ``seed_tuple(seed)`` and then the
    one word of ``r`` (``count`` is at most 2**32).  The hash constants do not
    depend on the data, so every step of the pool mixing and of
    ``generate_state`` is one elementwise uint32 operation over all ``r``
    (wrapping, as in C), and PCG64's seeding step is uint64 arithmetic on
    the halves of its 128-bit values.
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
    # generate_state(4, uint64): eight words from the pool, paired low-high,
    # give the initial state and sequence, high word first.
    generate = _hasher(_INIT_B, _MULT_B)
    halves = [generate(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2))
    # pcg64_srandom_r: inc = sequence << 1 | 1, then state 0, step, add the
    # initial state, step: state = (inc + initial) * M + inc, mod 2**128.
    inc_lo, inc_hi = i_lo << 1 | 1, i_hi << 1 | i_lo >> 63
    lo = inc_lo + s_lo
    lo, hi = _times_multiplier(lo, inc_hi + s_hi + (lo < inc_lo))
    state_lo = lo + inc_lo
    return np.stack((state_lo, hi + inc_hi + (state_lo < lo), inc_lo, inc_hi), axis=1)


def _times_multiplier(lo, hi):
    """``(hi:lo) * _PCG64_MULT`` mod 2**128 on uint64 arrays.  The high word
    of ``lo`` times the multiplier's low word is summed from their four
    32-bit partial products, none of which overflows."""
    m_lo, m_hi = _PCG64_MULT & _MASK64, _PCG64_MULT >> 64
    a0, a1, b0, b1 = lo & _MASK32, lo >> 32, m_lo & _MASK32, m_lo >> 32
    middle = a1 * b0
    cross = (a0 * b0 >> 32) + (middle & _MASK32) + a0 * b1
    high = a1 * b1 + (middle >> 32) + (cross >> 32)
    return lo * m_lo, high + lo * m_hi + hi * m_lo


def _state_view(bitgen):
    """``bitgen``'s ``pcg64_random_t`` as a writable array of four uint64
    words, through the pointer its state struct starts with.

    This assumes numpy's ``pcg64_state`` begins with a ``pcg64_random_t *``,
    as it has since numpy 1.17; ``_words_are_the_state`` checks only the
    order of the words the pointer leads to, and a struct laid out otherwise
    would be read from a wrong address before that check could fail."""
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    words = (ctypes.c_uint64 * 4).from_address(address)
    words.owner = bitgen  # the view keeps the memory's owner alive
    return np.frombuffer(words, np.uint64)


def _setter_seat(bitgen):
    """Seats ``bitgen`` at one row of ``_pcg64_states`` through its ``state`` setter."""

    def seat(words):
        state_lo, state_hi, inc_lo, inc_hi = map(int, words)
        pcg = {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
        bitgen.state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    return seat


@functools.cache
def _words_are_the_state():
    """Whether a row of ``_pcg64_states`` written through ``_state_view``
    seats a PCG64 as its ``state`` setter does.  numpy lays ``pcg128_t`` out
    as ``__uint128_t``, low word first, on gcc/clang little-endian builds,
    and as a {high, low} struct elsewhere.  Checked once per process on a
    fixed seed: the view must read the words the setter wrote before one is
    written through it.  Only that word order is checked: ``_state_view``
    itself assumes where numpy keeps the ``pcg64_random_t``."""
    first, second = _pcg64_states((2 ** 64 + 3, 5), 2)
    direct, setter = np.random.PCG64(0), np.random.PCG64(0)
    _setter_seat(direct)(first)
    view = _state_view(direct)
    if not np.array_equal(view, first):
        return False
    view[...] = second
    _setter_seat(setter)(second)
    return direct.state == setter.state


def _seated_pcg64():
    """A PCG64 and a function that seats it at one row of ``_pcg64_states``.

    The seat writes the row's four words into the generator's state, or,
    where ``_words_are_the_state`` fails, goes through the ``state`` setter.
    Either way its next outputs are those of ``stream(seed, r)``.
    """
    bitgen = np.random.PCG64(0)
    if not _words_are_the_state():
        return bitgen, _setter_seat(bitgen)
    view = _state_view(bitgen)

    def seat(words):
        view[...] = words

    return bitgen, seat
