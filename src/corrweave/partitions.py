"""Set partitions of subsystem indices with a maximum block size.

Enumeration walks restricted-growth strings depth-first, which emits
partitions in canonical order: blocks sorted by smallest element, indices
ascending within each block, streams for smaller size caps embedded as
subsequences of larger ones.  The brute-force minimizer does not enumerate
(it runs a dynamic program over subset bitmasks); enumeration is its
reference, and its canonical order defines which minimizer is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ArgumentError, CapacityError

#: Largest N for the brute-force partition minimum and for enumeration.  The
#: minimizer's dynamic program costs O(3^N) per order (3^14 ~ 4.8e6);
#: enumerating the 1.9e8 partitions of 14 elements is not practical.
DEFAULT_ENUM_CAP = 14


@dataclass(frozen=True)
class SetPartition:
    """Partition of ``{0, .., n-1}`` into disjoint covering blocks.

    Blocks are normalized to canonical form at construction (sorted within
    blocks, blocks ordered by smallest element) and checked to be a
    disjoint cover.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks):
        norm = tuple(sorted(tuple(sorted(int(i) for i in b)) for b in blocks))
        if not norm or any(not b for b in norm):
            raise ArgumentError("blocks must be nonempty")
        flat = [i for b in norm for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ArgumentError(f"blocks {norm} are not a disjoint cover of 0..{n - 1}")
        object.__setattr__(self, "blocks", norm)
        object.__setattr__(self, "_max_block", max(len(b) for b in norm))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def max_block(self) -> int:
        return self._max_block

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        inner = "|".join(",".join(map(str, b)) for b in self.blocks)
        return f"SetPartition({inner})"


def enumerate_partitions(n: int, kmax: int, *,
                         max_n: int = DEFAULT_ENUM_CAP) -> Iterator[SetPartition]:
    """Yield every partition of ``{0..n-1}`` with all blocks of size <= kmax.

    Canonical order; lazily generated.  Raises a capacity error for
    ``n > max_n`` (default 14).
    """
    if not 1 <= kmax <= n:
        raise ArgumentError(f"kmax must satisfy 1 <= kmax <= n, got {kmax} for n={n}")
    if n > max_n:
        raise CapacityError(f"partition enumeration for n={n} exceeds the cap {max_n}")
    return _walk(n, kmax)


def _walk(n: int, kmax: int) -> Iterator[SetPartition]:
    blocks: list[list[int]] = []

    def rec(i: int) -> Iterator[SetPartition]:
        if i == n:
            yield SetPartition(blocks)
            return
        for b in blocks:
            if len(b) < kmax:
                b.append(i)
                yield from rec(i + 1)
                b.pop()
        blocks.append([i])
        yield from rec(i + 1)
        blocks.pop()

    yield from rec(0)


def compact_partition(n: int, k: int) -> SetPartition:
    """Contiguous blocks of size ``k``; one trailing remainder block of
    size ``n mod k`` when ``k`` does not divide ``n``."""
    if not 1 <= k <= n:
        raise ArgumentError(f"k must satisfy 1 <= k <= n, got {k} for n={n}")
    blocks = [tuple(range(s, min(s + k, n))) for s in range(0, n, k)]
    return SetPartition(blocks)


@lru_cache(maxsize=None)
def count_partitions(n: int, kmax: int) -> int:
    """Number of partitions of an ``n``-set with all blocks of size <= kmax.

    Recurrence on the block containing the largest element:
    ``f(n) = sum_{s=1}^{min(n, kmax)} C(n-1, s-1) * f(n-s)``, ``f(0) = 1``.
    """
    if n < 0 or kmax < 1:
        raise ArgumentError(f"need n >= 0 and kmax >= 1, got n={n}, kmax={kmax}")
    f = [1] + [0] * n
    for m in range(1, n + 1):
        f[m] = sum(math.comb(m - 1, s - 1) * f[m - s]
                   for s in range(1, min(m, kmax) + 1))
    return f[n]
