"""Deterministic RNG stream derivation.

All randomness in the library flows from a single 64-bit master seed.
Independent streams are derived from (seed, purpose-tag, index) so that
concurrent workers consuming different units produce results that are
bit-identical to a sequential run, regardless of scheduling order.
"""

from __future__ import annotations

import hashlib

# Imported here, not on first use, so that loading it counts as start-up
# rather than as part of the first stream() of a run.
from numpy.random import Generator, default_rng


def derive_seed(master_seed: int, tag: str, index: int = 0) -> int:
    """Map (master seed, purpose tag, unit index) to a 64-bit child seed."""
    payload = f"{master_seed}:{tag}:{index}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little")


def stream(master_seed: int, tag: str, index: int = 0) -> Generator:
    """Return a Generator on an independent stream for the given unit."""
    return default_rng(derive_seed(master_seed, tag, index))
