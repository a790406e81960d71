"""Deterministic, mergeable random streams.

Sampling is chunked: sample indices [i*CHUNK, (i+1)*CHUNK) always draw from
the stream keyed by (seed, i), so a parallel chunk-per-worker run reproduces
the serial output bit for bit and ensembles merge associatively.
"""

from __future__ import annotations

import numpy as np

CHUNK = 4096


def chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk of a seeded sampling run."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.PCG64(ss))


def chunks(count: int, seed: int):
    """One (rows slice, chunk_stream(seed, i)) pair per chunk of a count-sample run."""
    for i, start in enumerate(range(0, count, CHUNK)):
        yield slice(start, min(start + CHUNK, count)), chunk_stream(seed, i)
