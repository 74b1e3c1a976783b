# Per-rollout seed streams as arrays: NumPy's SeedSequence entropy mixing
# and its PCG64 generator, run over many stream keys at once.
from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_XSHIFT = 16

# SeedSequence hash constants (pool size 4), as in numpy.random.bit_generator
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG multiplier as (high, low) 64-bit halves
_PCG_MULT_HI = 2549297995355413924
_PCG_MULT_LO = 4865540595714422341
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53


def uniform_block(prefix, suffixes, horizon: int) -> np.ndarray:
    """The first `horizon` uniforms of one stream per key, shape (n, horizon).

    Row k equals `np.random.default_rng([*prefix, *suffixes[k]]).random(horizon)`
    bit for bit. `prefix` is a sequence of non-negative ints shared by every
    key; like NumPy, an entry of 2**32 or more spans several 32-bit words.
    `suffixes` is an (n, m) array of non-negative ints below 2**32, so every
    key has the same number of words.
    """
    keys = np.asarray(suffixes)
    if keys.ndim != 2:
        raise ValueError("suffixes must be an (n, m) array")
    if keys.size and keys.dtype.kind not in "iu":
        raise TypeError("stream keys must be integers")
    if keys.size and keys.min() < 0:
        raise ValueError("expected non-negative integer")
    if keys.size and keys.max() > _MASK32:
        raise ValueError("suffix entries must be below 2**32")
    horizon = operator.index(horizon)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    hi, lo, inc_hi, inc_lo = _seed_pcg64(prefix, keys)
    out = np.empty((keys.shape[0], horizon), dtype=np.float64)
    for t in range(horizon):
        _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then the top 53 bits as a double in [0, 1)
        x = hi ^ lo
        rot = hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, t] = (x >> 11).astype(np.float64) * _DOUBLE_SCALE
    return out


def _seed_pcg64(prefix, keys: np.ndarray):
    """PCG64's seeded state and increment per key, as (state_hi, state_lo,
    inc_hi, inc_lo) uint64 arrays; the mixing's temporaries are freed on
    return, before the draws allocate theirs."""
    count = keys.shape[0]
    words = [np.full(count, w, dtype=np.uint32)
             for entry in prefix for w in _int_words(entry)]
    words.extend(keys.T.astype(np.uint32))
    state_hi, state_lo, inc_hi, inc_lo = _generate_state(
        _mix_entropy(words, count))

    # PCG64 seeding: inc = (inc << 1) | 1, state = (inc + seed) * M + inc
    inc_hi = (inc_hi << 1) | (inc_lo >> 63)
    inc_lo = (inc_lo << 1) | 1
    hi, lo = _add128(inc_hi, inc_lo, state_hi, state_lo)
    _lcg_step(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _int_words(value) -> list[int]:
    """The little-endian 32-bit words SeedSequence takes from one key entry."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Column of the hash constant before each of `calls` hashmix calls, plus
    the one after the last; the constants never depend on the data."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value, consts, first: int, calls: int):
    """`calls` successive hashmix calls, starting at call number `first`;
    row j of the result is call first + j applied to row j of `value`."""
    mixed = (value ^ consts[first:first + calls]) \
        * consts[first + 1:first + calls + 1]
    return mixed ^ (mixed >> _XSHIFT)


def _mix(x, y):
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> _XSHIFT)


def _mix_entropy(words: list, count: int) -> np.ndarray:
    """SeedSequence's pool (4, count) from per-word arrays of `count` keys.

    Inner loops of NumPy's version run over destination pool entries whose
    source stays fixed, so each runs here as one array operation.
    """
    size = _POOL_SIZE
    extra = max(len(words) - size, 0)
    consts = _hash_constants(_INIT_A, _MULT_A,
                             size + size * (size - 1) + size * extra)
    head = words[:size] + [np.zeros(count, dtype=np.uint32)] * (
        size - min(len(words), size))
    pool = _hashmix(np.stack(head), consts, 0, size)
    call = size
    for src in range(size):
        dst = [d for d in range(size) if d != src]
        pool[dst] = _mix(pool[dst],
                         _hashmix(pool[src], consts, call, size - 1))
        call += size - 1
    for word in words[size:]:
        pool = _mix(pool, _hashmix(word, consts, call, size))
        call += size
    return pool


def _generate_state(pool: np.ndarray):
    """`generate_state(4, uint64)`: the four 64-bit seed words per key."""
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], consts, 0,
                     2 * _POOL_SIZE).astype(np.uint64)
    return tuple(words[2 * j] | (words[2 * j + 1] << 32) for j in range(4))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _lcg_step(hi, lo, inc_hi, inc_lo) -> None:
    """state = state * multiplier + inc modulo 2**128, in place on the
    (high, low) uint64 arrays, with few temporaries.

    The high word of the 64x64-bit product lo * multiplier_lo is built from
    32-bit halves; the other partial products only matter modulo 2**64.
    """
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    mid, carry = lo & _MASK32, lo >> 32  # a0, a1: the halves of lo
    p01, p10 = mid * m1, carry * m0
    mid *= m0  # p00
    mid >>= 32
    mid += p01 & _MASK32
    mid += p10 & _MASK32
    carry *= m1  # p11
    carry += p01 >> 32
    carry += p10 >> 32
    carry += mid >> 32
    hi *= _PCG_MULT_LO
    hi += carry
    hi += lo * _PCG_MULT_HI
    lo *= _PCG_MULT_LO
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo  # the carry out of the low word
