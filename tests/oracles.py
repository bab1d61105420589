"""Reference computations that tests check the library against."""

import math

import numpy as np

from corrweave import NumericError, SetPartition
from corrweave.cli import _round12
from corrweave.closed_forms import FAMILIES
from corrweave.correlations import TIE_TOL, PartitionMinimum
from corrweave.tensor import EIG_CLIP, _dense_partial_trace


def oracle_round_floats(obj):
    """``obj`` with every float rounded by ``_round12`` and every tuple a
    list, so that ``json.dumps(..., indent=2)`` of it is the text the
    CLI's JSON report must have."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: oracle_round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [oracle_round_floats(v) for v in obj]
    return obj


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


def subset_entropy(state, mask: int) -> float:
    """Entropy (bits) of the parties in bitmask ``mask``, each marginal
    taken from the whole state on its own: a dense marginal traced from
    the full matrix and diagonalized, a classical one summed by a walk
    over the table into a dict of digit strings, a pure one from the
    singular values of the amplitudes reshaped to (kept, traced), wide
    side second."""
    n = state.n_parties
    keep = [i for i in range(n) if mask >> i & 1]
    if state.is_pure:
        if len(keep) == n:
            return 0.0
        rest = [i for i in range(n) if i not in keep]
        t = np.transpose(state.amplitudes().reshape(state.dims), keep + rest)
        a = t.reshape(math.prod(state.dims[i] for i in keep), -1)
        s = np.linalg.svd(a if a.shape[0] <= a.shape[1] else a.T, compute_uv=False)
        return _shannon(s * s)
    if state.is_classical:
        return _shannon(np.array(list(marginal_table(state, keep).values())))
    m = state.to_matrix()
    if len(keep) < n:
        m = _dense_partial_trace(m, state.dims, keep)
    return _shannon(np.linalg.eigvalsh((m + m.conj().T) / 2.0))


def marginal_table(state, keep) -> dict:
    """The marginal on the parties ``keep`` of a classical state, by a walk
    over its table: each kept digit string in order of first appearance,
    with its rows' probabilities added in table order from 0.0."""
    table: dict = {}
    for key, p in state.probabilities().items():
        sub = tuple(key[i] for i in keep)
        table[sub] = table.get(sub, 0.0) + p
    return table


def _shannon(p: np.ndarray) -> float:
    p = p[p > EIG_CLIP]
    h = float(-(p * np.log2(p)).sum())
    return h if h > 0 else 0.0


def cut_ranks(adjacency) -> np.ndarray:
    """The GF(2) rank of the adjacency block ``Gamma[A, not A]`` for every
    subset ``A`` of a graph's vertices, indexed by bitmask: the entropy in
    bits of ``A`` in the graph state (Hein, Eisert & Briegel, PRA 69,
    062311, 2004).  ``adjacency[i]`` is the bitmask of vertex ``i``'s
    neighbours.  Each subset's rows, ``adjacency[i] & ~A`` for ``i`` in
    ``A``, are held as bitmasks and eliminated one column at a time, for
    all subsets at once: a row holding the column is the pivot, is XORed
    into every row holding it (itself included), and counts one."""
    n = len(adjacency)
    masks = np.arange(1 << n)
    rows = np.where(masks[:, None] >> np.arange(n) & 1,
                    np.asarray(adjacency) & ~masks[:, None], 0)
    rank = np.zeros(1 << n, int)
    for bit in range(n):
        has = rows >> bit & 1
        pivot = rows[masks, has.argmax(axis=1)]
        rows ^= has * pivot[:, None]
        rank += has.any(axis=1)
    return rank


def dicke_spectrum_per_k(n: int, m: int, k: int) -> np.ndarray:
    """The k-site Dicke spectrum ``C(k, i) C(n-k, m-i) / C(n, m)`` by the
    per-k recurrence: term ratios unrolled both ways from 1.0 at the mode
    by ``np.cumprod``, then divided by their ``sum``."""
    lo = max(0, m - (n - k))
    hi = min(k, m)
    i0 = min(hi, max(lo, (k + 1) * (m + 1) // (n + 2)))
    out = np.empty(hi - lo + 1)
    j0 = i0 - lo
    out[j0] = 1.0
    if i0 < hi:
        i = np.arange(i0, hi, dtype=float)
        up = (k - i) * (m - i) / ((i + 1) * (n - k - m + i + 1))
        out[j0 + 1:] = np.cumprod(up)
    if i0 > lo:
        i = np.arange(i0, lo, -1, dtype=float)
        down = i * (n - k - m + i) / ((k - i + 1) * (m - i + 1))
        out[j0 - 1::-1] = np.cumprod(down)
    return out / out.sum()


def dicke_entropy_per_k(n: int, m: int, k: int) -> float:
    """Entropy in bits of :func:`dicke_spectrum_per_k` (0 when k = n)."""
    p = dicke_spectrum_per_k(n, m, k)
    p = p[p > 0]
    h = float(-(p * np.log2(p)).sum())
    return h if h > 0 else 0.0  # the spectrum [1.0] gives -0.0


def cf_dist_per_k(fam, k: int) -> float:
    """Closed-form dist(k) in bits of a family instance, one order at a
    time: the scalar form of each family branch."""
    n = fam.n
    row = FAMILIES[fam.family]
    if k == n or row.pairs and k > 1:
        # blocks of size >= 2 can cover whole pairs; only k = 1 cuts them
        return 0.0
    h = row.h(fam)
    if row.pairs:
        return n / 2 * (2 * h - (h if row.mixed else 0.0))
    if row.uniform:
        blocks = -(-n // k)
        return (blocks - 1) * h if row.mixed else blocks * h
    q, r = divmod(n, k)
    return q * float(h[k]) + (float(h[r]) if r else 0.0)


def _blocks(s: int, k: int):
    """Submasks of ``s`` that hold its lowest bit and at most ``k`` bits."""
    low = s & -s
    rest = sub = s ^ low
    while True:
        b = sub | low
        if b.bit_count() <= k:
            yield b
        if not sub:
            return
        sub = (sub - 1) & rest


def partition_minimum(h, n: int, k: int) -> PartitionMinimum:
    """The brute minimum of order ``k`` one order at a time, by a scalar
    dynamic program: ``f[S] = min(h[B] + f[S - B])`` over the blocks ``B``
    of :func:`_blocks`, for the full set and the sets without party 0.
    Every partition whose sum can come within ``window`` of ``f[full]`` is
    then listed (``f`` bounding each partial sum) and valued with its
    blocks summed in canonical order; cut at the first gap wider than
    1e-12, the rule "keep a partition only when it beats the best so far
    by more than ``TIE_TOL``" is replayed over them in canonical order."""
    full = (1 << n) - 1
    f = [0.0] * (full + 1)
    for s in [*range(2, full, 2), full]:
        f[s] = min(h[b] + f[s ^ b] for b in _blocks(s, k))
    if not math.isfinite(f[full]):
        raise NumericError(f"partition minimum for k={k} is {f[full]}")
    # a partition's key is its restricted-growth string read in base n
    place = [n ** (n - 1 - i) for i in range(n)]
    digits = [0] * (full + 1)
    for b in range(1, full + 1):
        digits[b] = digits[b & (b - 1)] + place[(b & -b).bit_length() - 1]

    def walk(s, partial, key, index, limit, out):
        for b in _blocks(s, k):
            p, r = partial + h[b], s ^ b
            if p + f[r] <= limit:
                if r:
                    walk(r, p, key + index * digits[b], index + 1, limit, out)
                else:
                    out.append((key + index * digits[b], p - h[full]))

    window = 1e-9
    while True:
        candidates = []
        walk(full, 0.0, 0, 0, f[full] + window, candidates)
        values = sorted(v for _, v in candidates)
        cut = next((a for a, b in zip(values, values[1:]) if b - a > 1e-12), values[-1])
        if cut - values[0] < window / 2:
            break
        window *= 1e3
    best, best_key = math.inf, 0
    for key, value in sorted(c for c in candidates if c[1] <= cut):
        if value < best - TIE_TOL:
            best, best_key = value, key
    blocks = [[] for _ in range(n)]
    for i in range(n):
        blocks[best_key // place[i] % n].append(i)
    return PartitionMinimum(best, SetPartition(b for b in blocks if b))
