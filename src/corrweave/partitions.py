"""Set partitions of subsystem indices with a maximum block size.

Enumeration walks restricted-growth strings depth-first, which emits
partitions in canonical order: blocks sorted by smallest element, indices
ascending within each block, streams for smaller size caps embedded as
subsequences of larger ones.  The brute-force minimizer does not enumerate
(it runs a dynamic program over subset bitmasks); enumeration is its
reference, and its canonical order defines which minimizer is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        inner = "|".join(",".join(map(str, b)) for b in self.blocks)
        return f"SetPartition({inner})"


def enumerate_partitions(n: int, kmax: int) -> Iterator[SetPartition]:
    """Yield every partition of ``{0..n-1}`` with all blocks of size <= kmax.

    Canonical order; lazily generated.  Raises a capacity error for
    ``n > DEFAULT_ENUM_CAP`` (14).
    """
    if not 1 <= kmax <= n:
        raise ArgumentError(f"kmax must satisfy 1 <= kmax <= n, got {kmax} for n={n}")
    if n > DEFAULT_ENUM_CAP:
        raise CapacityError(
            f"partition enumeration for n={n} exceeds the cap {DEFAULT_ENUM_CAP}")
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
    return compact_partitions(n, (k,))[0]


def compact_partitions(n: int, ks: Iterable[int]) -> list[SetPartition]:
    """:func:`compact_partition` for each order in ``ks``.  Every block is
    a slice of one tuple of the indices, so the partitions share its ints
    (an int above 256 is an object of its own)."""
    parties = tuple(range(n))
    out = []
    for k in ks:
        if not 1 <= k <= n:
            raise ArgumentError(f"k must satisfy 1 <= k <= n, got {k} for n={n}")
        part = object.__new__(SetPartition)  # the blocks are already canonical
        object.__setattr__(part, "blocks",
                           tuple(parties[s:s + k] for s in range(0, n, k)))
        out.append(part)
    return out


def compact_sum(n: int, k, h):
    """``sum`` of ``h[len(block)]`` over :func:`compact_partition`'s blocks
    for each order in the array ``k``, as ``q h[k] + h[r]`` with
    ``n = q k + r``; ``h`` is an array over every size from 0 to ``n``, with
    ``h[0]`` = 0.0."""
    q, r = divmod(n, k)
    return q * h[k] + h[r]
