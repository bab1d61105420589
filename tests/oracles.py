"""Reference computations that tests check the library against."""

import math


def count_partitions(n: int, kmax: int) -> int:
    """Number of partitions of an ``n``-set with all blocks of size <= kmax.

    Recurrence on the block containing the largest element:
    ``f(n) = sum_{s=1}^{min(n, kmax)} C(n-1, s-1) * f(n-s)``, ``f(0) = 1``.
    """
    f = [1] + [0] * n
    for m in range(1, n + 1):
        f[m] = sum(math.comb(m - 1, s - 1) * f[m - s]
                   for s in range(1, min(m, kmax) + 1))
    return f[n]
