"""Counter-based random number streams.

One Philox stream per trajectory keeps every Monte Carlo run reproducible
regardless of how trajectories are batched over workers: the stream is a pure
function of (seed, stream_id), never of scheduling order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream identified by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = np.array([self.seed & MASK64, self.stream_id & MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def as_stream(rng) -> RngStream:
    """Coerce an int seed or an RngStream to an RngStream."""
    if isinstance(rng, RngStream):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng), 0)
    raise TypeError(f"expected int seed or RngStream, got {type(rng).__name__}")


def effective_seed(rng) -> int:
    """The seed an estimator runs under: the int itself, or a stream's derived seed."""
    stream = as_stream(rng)
    if stream.stream_id == 0:
        return stream.seed
    return derive_seed(stream.seed, stream.stream_id)


def derive_seed(seed: int, *labels) -> int:
    """Stable 64-bit sub-seed for a labelled sub-computation.

    Hash based so that unrelated experiment stages never share streams by
    accidental arithmetic collision.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for lab in labels:
        h.update(b"/")
        h.update(str(lab).encode())
    return int.from_bytes(h.digest(), "little")
