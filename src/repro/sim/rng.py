"""Deterministic random-number streams.

Every stochastic element of a simulation (per-link latency, workload
arrivals, fault timing) draws from a substream derived from one root
seed, so that a run is exactly reproducible from ``(seed, parameters)``
and changing one consumer does not perturb the draws of another.
:func:`random_columns` draws many such streams at once, as numpy columns
bit-equal to ``random.Random``, for the vector kernel.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, Union

Seedable = Union[int, str]


def derive_seed(root: Seedable, *path: Seedable) -> int:
    """Derive a child seed from a root seed and a path of labels.

    The derivation hashes ``root`` and the labels with SHA-256, so
    substreams for distinct paths are statistically independent and
    stable across Python versions (unlike ``hash()``, which is salted).
    """
    hasher = hashlib.sha256()
    for part in (root, *path):
        encoded = str(part).encode("utf8")
        # Length-prefix every component so ("a", "b") and ("a/b",)
        # hash differently.
        hasher.update(len(encoded).to_bytes(4, "big"))
        hasher.update(encoded)
    return int.from_bytes(hasher.digest()[:8], "big")


def substream(root: Seedable, *path: Seedable) -> random.Random:
    """Return an independent :class:`random.Random` for the given path."""
    return random.Random(derive_seed(root, *path))


#: Seeds per block of :func:`random_columns`: its ``(624 x block)``
#: uint32 state is 2.5 kB a seed, so this bounds its transient memory.
_BLOCK = 2048

#: A narrower block is seeded by ``random.Random`` itself: the column
#: steps cost 4-6 ms a block whatever its width, CPython about 7 us a seed.
_MIN_COLUMNS = 512

# CPython's init_genrand(19650218), where every init_by_array starts.
_INIT = [19650218]
for _i in range(1, 624):
    _INIT.append((1812433253 * (_INIT[-1] ^ (_INIT[-1] >> 30)) + _i) & 0xFFFFFFFF)


def random_columns(seeds: Sequence[int], n: int):
    """``(n x len(seeds))`` float64: row ``k`` holds, per seed in
    ``[0, 2**64)``, the ``k``-th ``random()`` of ``random.Random(seed)``,
    bit for bit.

    CPython's Mersenne Twister steps run as uint32 column operations over
    a block of seeds at once: ``init_by_array`` over the seed's
    little-endian 32-bit words (one word below ``2**32``, zero included),
    the in-place twist of only the state words the draws consume,
    tempering and ``genrand_res53``.  A block below :data:`_MIN_COLUMNS`
    seeds calls ``random.Random`` per seed instead.
    """
    import numpy as np

    u32, out = np.uint32, np.empty((n, len(seeds)))
    for at in range(0, len(seeds) if n else 0, _BLOCK):
        block = seeds[at : at + _BLOCK]
        if len(block) < _MIN_COLUMNS:
            streams = [random.Random(seed) for seed in block]
            out[:, at : at + len(block)] = [[s.random() for s in streams] for _ in range(n)]
            continue
        low = np.array([seed & 0xFFFFFFFF for seed in block], dtype=u32)
        high = np.array([seed >> 32 for seed in block], dtype=u32)
        # Pass 1 adds key word j plus j (a one-word key has only j = 0);
        # pass 2 subtracts the word's index.
        keys = (low, np.where(high > 0, high + u32(1), low))
        steps = [(i, u32(1664525), keys[k % 2]) for k, i in enumerate([*range(1, 624), 1])]
        steps += [(i, u32(1566083941), u32(2**32 - i)) for i in [*range(2, 624), 1]]
        mt = np.repeat(np.array(_INIT, dtype=u32)[:, None], len(block), axis=1)
        rows = list(mt)  # views: updating a row updates mt
        for i, factor, add in steps:
            rows[i] ^= (rows[i - 1] ^ (rows[i - 1] >> 30)) * factor
            rows[i] += add
            if i == 623:  # each pass wraps to word 1, first copying 623 to 0
                rows[0][:] = rows[623]
        mt[0] = 0x80000000
        y = np.empty((2 * n, len(block)), dtype=u32)
        for first in range(0, 2 * n, 624):
            # Word w's new value reads w + 1 and w + 397 (mod 624) as the
            # twist left them: slices of at most 227 words see the same.
            last = min(2 * n - first, 624)
            for lo in range(0, last, 227):
                w = np.arange(lo, min(lo + 227, last))
                mix = (mt[w] & 0x80000000) | (mt[(w + 1) % 624] & 0x7FFFFFFF)
                mt[w] = mt[(w + 397) % 624] ^ (mix >> 1) ^ (mix & 1) * u32(0x9908B0DF)
            y[first : first + last] = mt[:last]
        y ^= y >> 11
        y ^= (y << 7) & 0x9D2C5680
        y ^= (y << 15) & 0xEFC60000
        y ^= y >> 18
        out[:, at : at + len(block)] = (
            (y[0::2] >> 5) * 67108864.0 + (y[1::2] >> 6)
        ) * (1.0 / 9007199254740992.0)
    return out
