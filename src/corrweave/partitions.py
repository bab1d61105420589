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
from typing import Iterator

import numpy as np

from .errors import ArgumentError, CapacityError

#: Largest N for the brute-force partition minimum and for enumeration.  The
#: minimizer's dynamic program costs O(3^N) per order (3^14 ~ 4.8e6);
#: enumerating the 1.9e8 partitions of 14 elements is not practical.
DEFAULT_ENUM_CAP = 14


def integer(value, what: str) -> int:
    """``value`` as an int; an ArgumentError unless a Python or NumPy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SetPartition:
    """Partition of ``{0, .., n-1}`` into disjoint covering blocks, held as
    ``labels``, a read-only array of the narrowest unsigned dtype holding n:
    party i is in block ``labels[i]``, blocks numbered by smallest party.
    ``blocks`` (sorted, as tuples of ints), ``==``, ``hash`` and ``repr``
    read it.  ``SetPartition(blocks)`` checks for a disjoint integer cover."""

    labels: np.ndarray

    def __init__(self, blocks):
        norm = sorted(sorted(integer(i, "a party index") for i in b) for b in blocks)
        if not norm or not norm[0]:  # an empty block sorts first
            raise ArgumentError("blocks must be nonempty")
        flat = [i for b in norm for i in b]
        n = len(flat)
        if sorted(flat) != list(range(n)):
            raise ArgumentError(f"blocks {norm} are not a disjoint cover of 0..{n - 1}")
        labels = np.empty(n, np.min_scalar_type(n))
        labels[flat] = [j for j, b in enumerate(norm) for _ in b]
        object.__setattr__(self, "labels", labels)
        labels.flags.writeable = False

    @classmethod
    def _of(cls, labels: np.ndarray) -> SetPartition:
        """The partition of ``labels``, canonical and of the narrowest dtype."""
        part = cls.__new__(cls)
        object.__setattr__(part, "labels", labels)
        labels.flags.writeable = False
        return part

    def __reduce__(self):  # copies and pickles rebuild a read-only array
        return SetPartition._of, (self.labels,)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        order = np.argsort(self.labels, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.labels)).tolist()
        return tuple(tuple(order[a:b]) for a, b in zip([0, *ends], ends))

    @property
    def n(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return (np.array_equal(self.labels, other.labels)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self) -> int:
        return hash((self.blocks,))

    def __repr__(self) -> str:
        return f"SetPartition({'|'.join(','.join(map(str, b)) for b in self.blocks)})"


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
    labels = [0] * n  # a restricted-growth string: party i's block

    def rec(i: int, m: int) -> Iterator[SetPartition]:  # m blocks so far
        if i == n:
            yield SetPartition._of(np.array(labels, np.min_scalar_type(n)))
            return
        for j in range(m + 1):
            if labels[:i].count(j) < kmax:
                labels[i] = j
                yield from rec(i + 1, max(m, j + 1))

    return rec(0, 0)


def compact_partition(n: int, k: int) -> SetPartition:
    """Contiguous blocks of size ``k``; one trailing remainder block of
    size ``n mod k`` when ``k`` does not divide ``n``."""
    n, k = integer(n, "n"), integer(k, "k")
    if not 1 <= k <= n:
        raise ArgumentError(f"k must satisfy 1 <= k <= n, got {k} for n={n}")
    return SetPartition._of(np.arange(n, dtype=np.min_scalar_type(n)) // k)


def compact_sum(n: int, k, h):
    """``sum`` of ``h[len(block)]`` over :func:`compact_partition`'s blocks
    for each order in the array ``k``, as ``q h[k] + h[r]`` with
    ``n = q k + r``; ``h`` is an array over every size from 0 to ``n``, with
    ``h[0]`` = 0.0."""
    q, r = divmod(n, k)
    return q * h[k] + h[r]
