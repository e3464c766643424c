"""Deterministic seed derivation for reproducible multi-stage pipelines.

Every source of randomness in the package flows from a single master seed
through named derivation, so per-station or per-replicate work can run in
any order and still reproduce bit-identical results.

``derive_seeds`` and ``stream_uniforms`` build many replicate streams in
one pass: the same seeds as ``derive_seed`` and the same draws as
``np.random.default_rng([seed]).random(n)``, with numpy's ``SeedSequence``
and PCG64 generator stepped as uint32/uint64 arrays, one element per
stream.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence

import numpy as np


SEED_LIMIT = 1 << 128  # a master seed is hashed as 16 bytes


def _label_entropy(label: object) -> bytes:
    return hashlib.blake2s(repr(label).encode("utf-8"), digest_size=8).digest()


def _prefix_hash(master: int, labels: Iterable[object]) -> hashlib.blake2s:
    if not 0 <= master < SEED_LIMIT:
        raise ValueError(f"master seed must lie in [0, 2**128), got {master}")
    h = hashlib.blake2s(digest_size=8)
    h.update(int(master).to_bytes(16, "big"))
    for label in labels:
        h.update(_label_entropy(label))
    return h


def _seed_of(h: hashlib.blake2s) -> int:
    return int.from_bytes(h.digest(), "big") >> 1


def derive_seed(master: int, *labels: object) -> int:
    """Derive a child seed from a master seed and a path of labels.

    Stable across runs and platforms; distinct label paths give
    independent streams.
    """
    return _seed_of(_prefix_hash(master, labels))


def derive_seeds(master: int, labels: Sequence[object], lasts: Iterable[object]) -> list[int]:
    """``[derive_seed(master, *labels, last) for last in lasts]``.

    The master and the shared labels are hashed once; each seed finishes
    from a copy of that hash.
    """
    prefix = _prefix_hash(master, labels)
    seeds = []
    for last in lasts:
        h = prefix.copy()
        h.update(_label_entropy(last))
        seeds.append(_seed_of(h))
    return seeds


def derive_rng(master: int, *labels: object) -> np.random.Generator:
    """A Generator seeded from ``derive_seed(master, *labels)``."""
    return np.random.default_rng(derive_seed(master, *labels))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): 32-bit words,
# a pool of four, hashmix/mix constants as there.
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier as 64-bit halves, and the low half's 32-bit halves
_LOW32 = np.uint64(_MASK32)
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_1, _MULT_LO_0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def _seed_sequence_state(lo: np.ndarray, hi: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence([lo, hi]).generate_state(4, np.uint64)`` for every
    element of two uint32 entropy-word arrays."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros_like(lo)
    pool = [hashmix(word) for word in (lo, hi, zero, zero)]  # zero-padded to the pool size
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # uint32 pairs read as little-endian uint64
    return [words[2 * k] | (words[2 * k + 1] << _U32) for k in range(4)]


def _mulhi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * _MULT_LO, from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _U32
    p00, p01 = a0 * _MULT_LO_0, a0 * _MULT_LO_1
    p10, p11 = a1 * _MULT_LO_0, a1 * _MULT_LO_1
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    return p11 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)


def _lcg_step(
    hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * multiplier + inc modulo 2**128."""
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    carry = (new_lo < prod_lo).astype(np.uint64)
    new_hi = _mulhi(lo) + lo * _MULT_HI + hi * _MULT_LO + inc_hi + carry
    return new_hi, new_lo


def stream_uniforms(seeds: Sequence[int], n: int) -> np.ndarray:
    """``np.stack([np.random.default_rng([s]).random(n) for s in seeds])``,
    bit for bit, with all streams stepped together.

    Each seed is two little-endian uint32 entropy words (a seed below 2**32
    hashes the same with or without its zero high word), mixed by
    ``SeedSequence`` into PCG64's state and increment. PCG64 seeds as
    ``state = (inc + initstate) * M + inc`` with ``inc = 2 * initseq + 1``,
    then each draw steps the 128-bit LCG and takes the XSL-RR output v as
    the double ``(v >> 11) * 2**-53``.
    """
    seeds = list(seeds)
    if seeds and (min(seeds) < 0 or max(seeds) >= 1 << 64):
        raise ValueError("stream seeds must lie in [0, 2**64)")
    s = np.array(seeds, dtype=np.uint64)
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(
        (s & _LOW32).astype(np.uint32), (s >> _U32).astype(np.uint32)
    )
    inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _U1) | _U1
    hi, lo = init_hi + inc_hi, init_lo + inc_lo  # 0 * M + inc, plus initstate
    hi = hi + (lo < inc_lo).astype(np.uint64)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)

    out = np.empty((n, s.size))
    for j in range(n):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> _U58
        v = (x >> rot) | (x << ((_U64 - rot) & _U63))
        out[j] = (v >> _U11) * 2.0**-53
    return np.ascontiguousarray(out.T)
