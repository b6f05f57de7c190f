"""Seeded randomness with documented substream derivation.

Every randomized operation in the package draws from a generator built
here.  A substream is addressed by the pair (seed, path), where ``path``
is a tuple of small integers naming the consumer: ``substream(seed, 3)``
and ``substream(seed, 3, 7)`` are independent streams.  Concurrent use
of distinct substreams therefore never changes results.
"""

from __future__ import annotations

from numpy.random import PCG64, Generator, SeedSequence


def substream(seed: int, *path: int) -> Generator:
    """Return the generator for substream ``path`` of ``seed``."""
    ss = SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return Generator(PCG64(ss))
