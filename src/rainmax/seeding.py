"""Deterministic seed derivation for reproducible multi-stage pipelines.

Every source of randomness in the package flows from a single master seed
through named derivation, so per-station and per-test work can run in any
order and still reproduce bit-identical results. A Monte Carlo test draws
all of its resamples from one ``derive_rng`` stream.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

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


def derive_seed(master: int, *labels: object) -> int:
    """Derive a child seed from a master seed and a path of labels.

    Stable across runs and platforms; distinct label paths give
    independent streams.
    """
    return int.from_bytes(_prefix_hash(master, labels).digest(), "big") >> 1


def derive_rng(master: int, *labels: object) -> np.random.Generator:
    """A Generator seeded from ``derive_seed(master, *labels)``."""
    return np.random.default_rng(derive_seed(master, *labels))
