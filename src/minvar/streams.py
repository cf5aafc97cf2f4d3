"""Counter-addressed uniform draws, identical to numpy's per-point streams.

``uniform_rows(seed, keys, first, n)`` returns, for each key k, draws
``first`` to ``first + n`` of the stream that
``default_rng(SeedSequence(seed, spawn_key=(k,))).random`` produces, bit
for bit, without building a generator per key.  A draw is a pure function
of (seed, key, draw index), as in counter-based generators (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).

The kernel is numpy on uint64 arrays, vectorized over keys and draws:

* Seeding.  SeedSequence pools the seed's words into four uint32 words;
  that pool does not depend on the key, so it is computed once with Python
  ints.  The key word is mixed in last, in four hash/mix steps, and
  ``generate_state(4, uint64)`` is eight more hash steps.  Every hash
  constant is fixed, so these steps vectorize over the keys.
* The draws.  PCG64 advances a 128-bit LCG, s -> M s + inc.  With
  ``inc = 2 initseq + 1`` and ``X = inc + initstate``, the state behind
  draw d is ``M^(d+2) X + (1 + M + ... + M^(d+1)) inc`` mod 2^128: two
  multiply-adds by per-draw constants (F. B. Brown, "Random number
  generation with arbitrary strides", Trans. Am. Nucl. Soc. 71, 1994).
  128-bit words are (hi, lo) pairs of uint64; ``_mul64``, the full 64x64
  product built from 32-bit partial products, is also the one that
  ``mesh`` uses for its decimal kernel.
* Output.  XSL-RR: ``hi ^ lo`` rotated right by ``hi >> 58``; the double is
  the top 53 bits times 2^-53, as ``Generator.random`` computes it.

``seed_words`` and ``rows_from_words`` are the two halves of
``uniform_rows``, so a caller that draws several rounds seeds each key
once.  Keys must be below 2^32, so that a key is one spawn-key word.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["uniform_rows", "seed_words", "rows_from_words"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# uint64 operands as 0-d arrays, which numpy combines faster than scalars
_U32, _S32, _S11, _S58, _S63, _ONE, _64 = (
    np.array(c, dtype=np.uint64) for c in (_MASK32, 32, 11, 58, 63, 1, 64))


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """(xor, multiplier) constants of SeedSequence's first hash steps."""
    out = [(init, init * mult & _MASK32)]
    while len(out) < count:
        out.append((out[-1][1], out[-1][1] * mult & _MASK32))
    return out


def _column(consts) -> tuple[np.ndarray, np.ndarray]:
    """Hash constants as two uint64 (steps, 1) columns: xor, multiplier."""
    xor, mult = np.array(consts, dtype=np.uint64).T
    return xor[:, None], mult[:, None]


# the seed words take 4 hash steps and the pool's cross-mix 12; the key's
# four hash steps come next, then the eight of generate_state
_POOL_HASH = _hash_consts(_INIT_A, _MULT_A, 20)
_KEY_HASH = _column(_POOL_HASH[16:])
_STATE_HASH = _column(_hash_consts(_INIT_B, _MULT_B, 8))
_STATE_POOL = np.arange(8) % _POOL_SIZE     # generate_state cycles the pool


# hashmix and mix take uint32 words as Python ints or as uint64 arrays
def _hashmix(value, consts):
    xor, mult = consts
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> np.ndarray:
    """SeedSequence's pool after the seed's words, a (4, 1) uint64 column.

    This is the pool before the key's word is mixed in.
    """
    words = [seed >> 32 * j & _MASK32 for j in range(_POOL_SIZE)]
    hashes = iter(_POOL_HASH)
    pool = [_hashmix(w, next(hashes)) for w in words]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(hashes)))
    col = np.array(pool, dtype=np.uint64)[:, None]
    col.flags.writeable = False
    return col


def _pcg_seeds(seed: int, keys: np.ndarray) -> np.ndarray:
    """uint64 words of shape (2, 2, k, 1): the (hi, lo) halves of X and inc."""
    pool = _mix(_seed_pool(seed), _hashmix(keys, _KEY_HASH))
    w = _hashmix(pool[_STATE_POOL], _STATE_HASH)
    # generate_state(4, uint64) words, little-endian pairs of uint32 words
    v0, v1, v2, v3 = w[0::2] | w[1::2] << _S32
    # pcg64_set_seed: initstate = (v0, v1), initseq = (v2, v3) as (hi, lo)
    inc_hi = v2 << _ONE | v3 >> _S63
    inc_lo = v3 << _ONE | _ONE
    x_lo = inc_lo + v1
    x_hi = inc_hi + v0 + (x_lo < v1)
    return np.array([[x_hi, inc_hi], [x_lo, inc_lo]])[..., None]


@lru_cache(maxsize=256)
def _jump_consts(first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 arrays of shape (2, 1, n): A and B per draw.

    The state behind draw d is A X + B inc, with A = M^(d+2) and
    B = 1 + M + ... + M^(d+1) = (M^(d+2) - 1) / (M - 1) mod 2^128; taking
    the power mod (M - 1) 2^128 makes that division exact.
    """
    m = _PCG_MULT
    a = pow(m, first + 2, 1 << 128)
    b = (pow(m, first + 2, (m - 1) << 128) - 1) // (m - 1)
    words = []
    for _ in range(n):
        words.append([[a >> 64, b >> 64], [a & _MASK64, b & _MASK64]])
        a, b = a * m & _MASK128, (b * m + 1) & _MASK128
    words = np.array(words, dtype=np.uint64).reshape(n, 2, 2)
    hi, lo = words.transpose(1, 2, 0)[:, :, None]
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def _mul64(a, b):
    """(hi, lo) of the full 128-bit product a b, built from 32-bit parts."""
    a0, a1 = a & _U32, a >> _S32
    b0, b1 = b & _U32, b >> _S32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _S32) + (p01 & _U32) + (p10 & _U32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), a * b


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """(hi, lo) of a b mod 2^128."""
    hi, lo = _mul64(a_lo, b_lo)
    return hi + a_hi * b_lo + a_lo * b_hi, lo


def uniform_rows(seed: int, keys, first: int, n: int) -> np.ndarray:
    """Draws ``first .. first + n`` of each key's stream, shape (len(keys), n).

    Row k equals ``default_rng(SeedSequence(seed, spawn_key=(k,)))
    .random(first + n)[first:]`` bit for bit.  ``seed`` is below 2^64 and
    every key below 2^32.
    """
    return rows_from_words(seed_words(seed, keys), first, n)


def seed_words(seed: int, keys) -> np.ndarray:
    """Each key's seeded stream state, for ``rows_from_words``.

    The keys sit on axis 2, so ``words[:, :, rows]`` are the words of the
    keys ``keys[rows]``; a caller drawing several rounds seeds once.
    """
    return _pcg_seeds(seed, np.asarray(keys, dtype=np.uint64))


def rows_from_words(words: np.ndarray, first: int, n: int) -> np.ndarray:
    """``uniform_rows`` of the keys whose ``seed_words`` are ``words``."""
    # [A X, B inc] in one pass, then their sum mod 2^128
    hi, lo = _mul128(*_jump_consts(first, n), *words)
    s_lo = lo[0] + lo[1]
    s_hi = hi[0] + hi[1] + (s_lo < lo[0])
    v = s_hi ^ s_lo
    rot = s_hi >> _S58
    out = v >> rot | v << (_64 - rot & _S63)
    return (out >> _S11) * (1.0 / 9007199254740992.0)
