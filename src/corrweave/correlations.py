"""Correlation orders, weaving index, and neural complexity.

The distance of a state to the set of products over partitions with blocks
of at most ``k`` parties is, for the relative-entropy choice of distance,

    dist(k) = min over partitions P (max block <= k) of
              [ sum_blocks S(rho_block) - S(rho) ]        (bits),

because the closest product over a fixed partition is the product of the
marginals.  Genuine correlations of order ``k`` are consecutive
differences ``genuine(k) = dist(k-1) - dist(k)``, and the weaving index is
their weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, repeat
from operator import mul, sub
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import ArgumentError, CapacityError, ConsistencyError, NumericError
# enumerate_partitions is not called here; it stays importable for callers that patch it.
from .partitions import (DEFAULT_ENUM_CAP, SetPartition,  # noqa: F401
                         compact_partition, compact_sum, enumerate_partitions, integer)
from .tensor import (DensityState, _normalize_keep, entropy_passes, is_permutation_invariant,
                     marginal_entropy, partial_trace, permute_subsystems, tensor_product)

#: dist/genuine values may dip this far below zero (or above the previous
#: order) before a consistency error is raised instead of clamping.
CLAMP_TOL = 1e-9
#: Agreement required between the two weaving summation forms.
DUAL_FORM_TOL = 1e-9
#: Agreement required between sum of genuine orders and total correlations.
PROFILE_SUM_TOL = 1e-8
#: A partition replaces the best one found so far (in canonical order) only
#: when its value is lower by more than this.
TIE_TOL = 1e-15

#: Largest N that :func:`profile` takes: it holds one partition per
#: order, N^2 block labels in all.  :func:`dist_to_pk` and
#: :func:`neural_complexity` are not capped.
MAX_PROFILE_N = 4096

MODE_BRUTE = "brute"
MODE_FAST = "symmetric-fast"
MODE_CLOSED_FORM = "closed-form"
MODE_AUTO = "auto"


def subset_entropies(state: DensityState) -> list[float]:
    """The entropy of every subset of the state's parties, indexed by
    bitmask; entry 0, the empty set, is 0.0.  ``N`` is capped at
    ``DEFAULT_ENUM_CAP``.

    Every entropy has the bits of ``marginal_entropy(state, subset)``.
    The first call fills the state's memo, the empty set included, from
    the state's all-subsets pass (:func:`corrweave.tensor.entropy_passes`).
    """
    n = state.n_parties
    if n > DEFAULT_ENUM_CAP:
        raise CapacityError(
            f"the 2^{n} subset entropies for n={n} exceed the cap {DEFAULT_ENUM_CAP}")
    table = state._entropies
    masks = range(1 << n)
    if len(table) < len(masks):  # the memo holds the empty set once the pass ran
        table.update(enumerate(entropy_passes(state)[0](state).tolist()))
    return [table[mask] for mask in masks]


def _entropy(state: DensityState, mask: int, keep: Iterable[int]) -> float:
    """Entropy of the parties ``keep``, whose bitmask is ``mask``: read from
    the state's memo, or computed by :func:`marginal_entropy` and stored."""
    table = state._entropies
    if mask not in table:
        table[mask] = marginal_entropy(state, keep)
    return table[mask]


def _prefix_entropies(state: DensityState, sizes: Iterable[int]) -> np.ndarray:
    """``h[s]``, the entropy of parties ``0..s-1`` (of any ``s`` parties
    when the state is permutation invariant), for each ``s`` in ``sizes``;
    ``h`` runs over ``0..N`` and is 0.0 at every other ``s``; the memo takes
    every prefix from the state's prefix pass, if any (:func:`entropy_passes`)."""
    sizes = sorted(set(sizes) - {0})
    fill = entropy_passes(state)[1]
    if fill and any((1 << s) - 1 not in state._entropies for s in sizes):
        state._entropies.update(((1 << s) - 1, value)
                                for s, value in enumerate(fill(state).tolist()) if s)
    h = np.zeros(state.n_parties + 1)
    for s in sizes:
        h[s] = _entropy(state, (1 << s) - 1, range(s))
    return h


class PartitionMinimum(NamedTuple):
    """Minimizing value (bits) and an achieving partition."""

    value: float
    argmin: SetPartition


@dataclass(frozen=True)
class CorrelationProfile:
    """Distances and genuine correlations of every order for one state.

    ``dist[k-1]`` holds dist(k) for k = 1..N (non-increasing, ending at 0);
    ``genuine[k-2]`` holds genuine(k) for k = 2..N; ``total`` equals
    dist(1), the total correlations.  ``argmin`` carries one minimizing
    partition per order when available.
    """

    n: int
    dist: tuple[float, ...]
    genuine: tuple[float, ...]
    total: float
    argmin: Optional[tuple[SetPartition, ...]] = None
    mode: str = MODE_BRUTE

    @classmethod
    def from_dist(cls, dist: Sequence[float],
                  argmin: Optional[Sequence[SetPartition]] = None,
                  mode: str = MODE_BRUTE) -> "CorrelationProfile":
        """The profile of ``dist``, dist(k) for k = 1..N.  An ArgumentError
        if ``dist`` is empty, a NumericError if an entry is NaN or infinite,
        and a ConsistencyError unless no order rises above the one before by
        more than 1e-9 (a smaller rise gives genuine 0), dist(N) is 0 within
        1e-9, and the genuine orders sum back to the total within 1e-8."""
        dist = tuple(dist)
        if not dist:
            raise ArgumentError("a profile needs dist(k) for at least one order")
        if not all(map(math.isfinite, dist)):
            k = next(k for k, v in enumerate(dist, start=1) if not math.isfinite(v))
            raise NumericError(f"dist({k}) = {dist[k - 1]} is not finite")
        drops = tuple(map(sub, dist, dist[1:]))
        lowest = min(drops, default=0.0)
        if lowest < -CLAMP_TOL:
            k = next(k for k, drop in enumerate(drops, start=2) if drop < -CLAMP_TOL)
            raise ConsistencyError(f"dist({k}) = {dist[k - 1]} exceeds "
                                   f"dist({k - 1}) = {dist[k - 2]} beyond 1e-9")
        if dist[-1] > CLAMP_TOL:
            raise ConsistencyError(
                f"dist({len(dist)}) = {dist[-1]} but the trivial partition gives 0")
        # max(drop, 0.0) would keep a -0.0 drop too
        genuine = drops if lowest >= 0.0 else tuple(map(max, drops, repeat(0.0)))
        if abs(sum(genuine) + dist[-1] - dist[0]) > PROFILE_SUM_TOL:
            raise ConsistencyError("genuine orders do not sum back to the total within 1e-8")
        return cls(len(dist), dist, genuine, dist[0],
                   None if argmin is None else tuple(argmin), mode)

    def dist_at(self, k: int) -> float:
        k = integer(k, "order k")
        if not 1 <= k <= self.n:
            raise ArgumentError(f"order k={k} out of range 1..{self.n}")
        return self.dist[k - 1]

    def genuine_at(self, k: int) -> float:
        k = integer(k, "order k")
        if not 2 <= k <= self.n:
            raise ArgumentError(f"order k={k} out of range 2..{self.n}")
        return self.genuine[k - 2]


@dataclass(frozen=True)
class WeightScheme:
    """Order weights for the weaving index, stored in both dual forms.

    ``omega[k-2]`` weighs genuine correlations of order k = 2..N;
    ``big_omega[i-1]`` weighs dist(i) for i = 1..N-1.  The forms are
    related by ``omega_k = sum_{i<k} big_omega_i``; construction keeps that
    identity exact by canonicalizing ``omega`` as the running sum of
    ``big_omega`` (entries provided in the other form may therefore be
    re-rounded by one ulp).  Only the form given by the caller is required
    to be nonnegative.  The ``k-1`` and ``uniform`` schemes are written out
    whole: their running sums are exact integers.
    """

    n: int
    omega: tuple[float, ...]
    big_omega: tuple[float, ...]
    name: str = "custom"

    @classmethod
    def from_big_omega(cls, big_omega: Sequence[float],
                       name: str = "custom") -> "WeightScheme":
        big = tuple(map(float, big_omega))
        if not _finite_nonnegative(big):
            raise ArgumentError("big-omega weights must be finite and nonnegative")
        return cls(len(big) + 1, _running_sum(big), big, name)

    @classmethod
    def from_omega(cls, omega: Sequence[float], name: str = "custom") -> "WeightScheme":
        om = tuple(map(float, omega))
        if not _finite_nonnegative(om):
            raise ArgumentError("omega weights must be finite and nonnegative")
        big = tuple(map(sub, om, (0.0,) + om))
        return cls(len(om) + 1, _running_sum(big), big, name)

    @classmethod
    def order_weighted(cls, n: int) -> "WeightScheme":
        """The default scheme ``omega_k = k - 1`` (``big_omega_i = 1``)."""
        n = _check_scheme_n(n)
        return cls(n, tuple(map(float, range(1, n))), (1.0,) * (n - 1), "k-1")

    @classmethod
    def uniform(cls, n: int) -> "WeightScheme":
        """``omega_k = 1`` for every order (``big_omega = (1, 0, .., 0)``)."""
        n = _check_scheme_n(n)
        return cls(n, (1.0,) * (n - 1), ((1.0,) + (0.0,) * (n - 2))[:n - 1], "uniform")

    @classmethod
    def delta(cls, n: int, k: int) -> "WeightScheme":
        """Weight only genuine correlations of order ``k``."""
        _check_scheme_n(n)
        if not 2 <= integer(k, "delta order k") <= n:
            raise ArgumentError(f"delta order k={k} out of range 2..{n}")
        return cls.from_omega([0.0] * (k - 2) + [1.0] + [0.0] * (n - k),
                              name=f"delta:{k}")

    @classmethod
    def named(cls, spec: str, n: int) -> "WeightScheme":
        """The scheme called ``spec``: ``k-1``, ``uniform``, or ``delta:K``."""
        if spec == "k-1":
            return cls.order_weighted(n)
        if spec == "uniform":
            return cls.uniform(n)
        if spec.startswith("delta:"):
            try:
                k = int(spec.split(":", 1)[1])
            except ValueError:
                raise ArgumentError(f"bad delta weights {spec!r}; use delta:K") from None
            return cls.delta(n, k)
        raise ArgumentError(f"unknown weights {spec!r}; use k-1, uniform, or delta:K")


def _check_scheme_n(n: int) -> int:
    if integer(n, "party count n") < 1:
        raise ArgumentError(f"weight schemes need n >= 1, got {n}")
    return int(n)


def _finite_nonnegative(values: tuple[float, ...]) -> bool:
    """Whether every value lies in [0, inf).  A NaN can hide from ``min``
    and ``max``, but not from the sum."""
    return (not math.isnan(sum(values)) and min(values, default=0.0) >= 0.0
            and max(values, default=0.0) < math.inf)


def _running_sum(big: Sequence[float]) -> tuple[float, ...]:
    """The running sums of ``big`` from 0.0, as ``acc += x`` makes them."""
    return tuple(accumulate(big, initial=0.0))[1:]


def dist_to_pk(state: DensityState, k: int, mode: str = MODE_AUTO) -> PartitionMinimum:
    """Distance (bits) from ``state`` to products over partitions with
    blocks of at most ``k`` parties, with an achieving partition: the
    one-order call of :func:`_minima`, whose all-orders call is :func:`profile`.

    ``brute`` minimizes over every partition of the :func:`subset_entropies`
    table (N at most ``DEFAULT_ENUM_CAP``, 14) and keeps the partition a
    scan of :func:`enumerate_partitions` ends on: the earliest in canonical
    order unless a later one is lower by more than ``TIE_TOL``.  ``auto``
    goes brute unless :func:`is_permutation_invariant` measures the state
    invariant; then (route ``symmetric-fast``) the compact partition, q
    blocks of k and one of r, gives ``q h(k) + h(r) - h(N)``, h(s) the
    entropy of the first s parties.
    """
    n, k = state.n_parties, integer(k, "order k")
    if not 1 <= k <= n:
        raise ArgumentError(f"order k={k} out of range 1..{n}")
    return _minima(state, [k], mode)[1][0]


def _minima(state: DensityState, ks: Sequence[int],
            mode: str) -> tuple[str, list[PartitionMinimum]]:
    """The route (``symmetric-fast`` or ``brute``) that ``mode`` takes for
    ``state``, and the minimum of each order in ``ks`` on it, computed in
    one pass and clamped at 0 within the clamp window."""
    if mode not in (MODE_AUTO, MODE_BRUTE):
        raise ArgumentError(f"mode must be auto or brute, got {mode!r}")
    if mode == MODE_AUTO and is_permutation_invariant(state):
        route, raw = MODE_FAST, _compact_minima(state, ks)
    else:
        route, raw = MODE_BRUTE, _partition_minima(subset_entropies(state),
                                                   state.n_parties, ks)
    for k, (best, _) in zip(ks, raw):
        if best < -CLAMP_TOL:
            raise ConsistencyError(
                f"dist({k}) evaluated to {best}, below the -1e-9 clamp window")
    return route, [PartitionMinimum(max(best, 0.0), part) for best, part in raw]


def _compact_minima(state: DensityState,
                    ks: Sequence[int]) -> list[tuple[float, SetPartition]]:
    """The unclamped minimum and compact partition of each order in ``ks``
    for a state measured invariant, in one array pass over the prefix
    entropies it needs."""
    n = state.n_parties
    orders = np.asarray(ks)
    h = _prefix_entropies(state, {n, *orders.tolist(), *(n % orders).tolist()})
    values = (compact_sum(n, orders, h) - h[n]).tolist()
    return [(value, compact_partition(n, k)) for value, k in zip(values, ks)]


#: (block, rest) pairs the layered dynamic program gathers at a time, for
#: each order: a few MB at N = 14.
_DP_BLOCK = 1 << 15


@lru_cache(maxsize=None)
def _dp_layers(n: int) -> tuple[tuple, memoryview, tuple[int, ...], tuple[int, ...]]:
    """``(layers, row, place, digits)``, the tables of :func:`_partition_minima`,
    built once per ``n`` (at most ``DEFAULT_ENUM_CAP``) on first use: about
    2.2 MB at N = 14.  ``layers[c - 1]`` holds the sets of ``c`` parties
    whose minimum is needed -- those without party 0, and the full set --
    as ``(sets, blocks, sizes)``: row ``row[s]`` of ``blocks`` lists the
    blocks of set ``s`` (its submasks that hold its lowest party), and
    column ``j`` has ``sizes[j]`` parties, non-decreasing, so the blocks
    of at most ``k`` parties are a leading slice.  A partition's key is
    its restricted-growth string (party i -> index of its block) read as
    a base-n number, so keys sort in canonical order; block ``b`` at index
    ``j`` adds ``j * digits[b]``, ``digits[b]`` the sum of ``place[i]``
    over its parties."""
    full = (1 << n) - 1
    place = [n ** (n - 1 - i) for i in range(n)]
    digits = [0] * (full + 1)
    for b in range(1, full + 1):
        digits[b] = digits[b & (b - 1)] + place[(b & -b).bit_length() - 1]
    popcount = np.zeros(full + 1, np.uint8)
    for i in range(n):
        popcount[1 << i:2 << i] = popcount[:1 << i] + 1
    dtype = np.min_scalar_type(full)
    row = np.zeros(full + 1, dtype)

    def layer(sets, c):
        # the parties of each set, lowest first; a block holds the lowest
        # and any choice of the others, fewest first (grouped by count: a
        # stable argsort would map 0.2 MB more of numpy into the process)
        parties = np.nonzero(sets[:, None] >> np.arange(n) & 1)[1].reshape(len(sets), c)
        choice = np.arange(1 << (c - 1))[:, None] >> np.arange(c - 1) & 1
        choice = choice[np.concatenate([np.flatnonzero(choice.sum(axis=1) == j)
                                        for j in range(c)])]
        blocks = 1 << parties[:, :1] | (1 << parties[:, 1:]) @ choice.T
        arrays = sets.astype(dtype), blocks.astype(dtype), choice.sum(axis=1) + 1
        for a in arrays:  # shared by every call at this n
            a.setflags(write=False)
        row[sets] = np.arange(len(sets))
        return arrays

    even = np.arange(0, full + 1, 2)
    layers = (*(layer(even[popcount[::2] == c], c) for c in range(1, n)),
              layer(np.array([full]), n))
    row.setflags(write=False)
    return layers, memoryview(row), tuple(place), tuple(digits)


def _partition_minima(h: list[float], n: int, ks: Sequence[int]) -> list[PartitionMinimum]:
    """For each order ``k`` in ``ks``, the minimum of ``sum_blocks h[block]
    - h[full]`` over partitions of ``{0..n-1}`` into blocks of at most
    ``k`` parties (``h`` indexed by mask), with the partition that a scan
    of :func:`enumerate_partitions` keeps under the ``TIE_TOL`` rule.

    ``f[k, S]``, the minimum of ``h[B] + f[k, S - B]`` over the blocks
    ``B`` of ``S`` that hold its lowest party and at most ``k`` parties, is
    the minimum over partitions of ``S``; it is needed for the full set
    and the sets without party 0 (:func:`_dp_layers`).  It is computed
    for every order at once, one array pass per layer of equal-size sets.
    Then :func:`_minimum_of_order` finds each order's partition.
    """
    full = (1 << n) - 1
    orders = np.asarray(ks)
    hs = np.asarray(h)
    f = np.zeros((len(orders), full + 1))
    for sets, blocks, sizes in _dp_layers(n)[0]:
        allowed = sizes <= orders[:, None, None]
        step = max(1, _DP_BLOCK // blocks.shape[1])
        for i in range(0, len(sets), step):
            s, b = sets[i:i + step], blocks[i:i + step]
            values = f[:, b ^ s[:, None]]
            values += hs[b]
            f[:, s] = values.min(axis=2, initial=math.inf, where=allowed)
    return [_minimum_of_order(h, f_k.tolist(), n, k) for k, f_k in zip(ks, f)]


def _minimum_of_order(h: list[float], f: list[float], n: int, k: int) -> PartitionMinimum:
    """The value and tie-break partition of :func:`_partition_minima` for
    order ``k``, from its row ``f`` of set minima: every partition whose
    sum can come within ``window`` of ``f[full]`` is listed, ``f``
    bounding each partial sum and the :func:`_dp_layers` tables giving
    each set's blocks and keys, and valued as the scan values it (blocks
    summed in canonical order).  Cut at the first gap wider than 1e-12,
    the values below the cut beat all others by more than ``TIE_TOL``, so
    replaying the rule over them in canonical order ends where the scan
    of all partitions ends."""
    full = (1 << n) - 1
    if not math.isfinite(f[full]):
        raise NumericError(f"partition minimum for k={k} is {f[full]}")
    layers, row, place, digits = _dp_layers(n)
    # each layer's blocks of at most k parties, as views
    reach = [blocks[:, :np.count_nonzero(sizes <= k)] for _, blocks, sizes in layers]

    window = 1e-9
    while True:
        limit = f[full] + window
        candidates: list[tuple[int, float]] = []
        stack = [(full, 0.0, 0, 0)]  # (set left, partial sum, key so far, block index)
        while stack:
            s, partial, key, index = stack.pop()
            for b in reach[s.bit_count() - 1][row[s]].tolist():
                p, r = partial + h[b], s ^ b
                if p + f[r] <= limit:
                    if r:
                        stack.append((r, p, key + index * digits[b], index + 1))
                    else:
                        candidates.append((key + index * digits[b], p - h[full]))
        values = sorted(v for _, v in candidates)
        cut = next((a for a, b in zip(values, values[1:]) if b - a > 1e-12), values[-1])
        if cut - values[0] < window / 2:  # unlisted partitions lie about window above
            break
        window *= 1e3
    best, best_key = math.inf, 0
    for key, value in sorted(c for c in candidates if c[1] <= cut):
        if value < best - TIE_TOL:
            best, best_key = value, key
    labels = np.array([best_key // p % n for p in place], np.min_scalar_type(n))
    return PartitionMinimum(best, SetPartition._of(labels))


def profile(state: DensityState, mode: str = MODE_AUTO) -> CorrelationProfile:
    """Full correlation profile: the all-orders call of :func:`_minima`,
    whose one-order call is :func:`dist_to_pk`, checked and differenced
    by :meth:`CorrelationProfile.from_dist`.  A CapacityError, before any
    other work, when N exceeds ``MAX_PROFILE_N``."""
    n = state.n_parties
    if n > MAX_PROFILE_N:
        raise CapacityError(f"a profile of N={n} parties lists N^2 argmin indices; "
                            f"profiles are capped at N={MAX_PROFILE_N}")
    route, minima = _minima(state, range(1, n + 1), mode)
    return CorrelationProfile.from_dist([m.value for m in minima],
                                        [m.argmin for m in minima], route)


def weaving(prof: CorrelationProfile, weights: WeightScheme) -> float:
    """Weaving index: ``sum_k omega_k * genuine(k)`` (bits).

    Evaluates both dual summation forms (the other being
    ``sum_i big_omega_i * dist(i)``) and requires them to be finite and
    to agree within 1e-9; returns the omega form.
    """
    if weights.n != prof.n:
        raise ArgumentError(
            f"weight scheme is for n={weights.n}, profile has n={prof.n}")
    omega_form = float(sum(map(mul, weights.omega, prof.genuine)))
    big_form = float(sum(map(mul, weights.big_omega, prof.dist)))
    if not (math.isfinite(omega_form) and math.isfinite(big_form)):
        raise NumericError(
            f"weaving index is not finite: {omega_form} vs {big_form}")
    scale = max(abs(omega_form), abs(big_form), 1.0)
    if abs(omega_form - big_form) > DUAL_FORM_TOL * scale:
        raise ConsistencyError(
            f"weaving dual forms disagree: {omega_form} vs {big_form}")
    return omega_form


def closest_product(state: DensityState, partition: SetPartition) -> DensityState:
    """Product of the state's block marginals over ``partition`` -- the
    closest product state for that fixed partition, with subsystems
    permuted back into the original order."""
    if partition.n != state.n_parties:
        raise ArgumentError(
            f"partition covers {partition.n} parties, state has {state.n_parties}")
    out = reduce(tensor_product, (partial_trace(state, b) for b in partition.blocks))
    return permute_subsystems(out, np.argsort(np.argsort(partition.labels, kind="stable")))


def multi_information(state: DensityState,
                      cluster: Optional[Iterable[int]] = None) -> float:
    """Total correlations (bits) inside ``cluster`` (default: all parties):
    sum of single-site entropies minus the joint entropy."""
    n = state.n_parties
    sites = range(n) if cluster is None else _normalize_keep(cluster, n)
    value = (sum(_entropy(state, 1 << i, (i,)) for i in sites)
             - _entropy(state, sum(1 << i for i in sites), sites))
    if value < -CLAMP_TOL:
        raise ConsistencyError(f"multi-information evaluated to {value}")
    return max(value, 0.0)


def neural_complexity(state: DensityState) -> float:
    """Cluster-size-resolved integration measure (bits).

    ``C = sum_{k=1}^{N-1} [ (k/N) * total - <multi-information of size-k
    clusters> ]`` with the average over all size-k clusters; the
    single-site entropies cancel, leaving ``sum_{k=1}^{N-1} [ h(k) -
    (k/N) * h(N) ]`` with h(k) the mean entropy of size-k clusters.  If
    the state is measured invariant (whatever mode its profile used),
    that is the entropy of the first k parties, at any N; else all 2^N
    subsets are averaged (:func:`subset_entropies`, so ``N`` is capped).
    """
    n = state.n_parties
    if is_permutation_invariant(state):
        h = _prefix_entropies(state, range(n + 1)).tolist()
    else:
        by_size = [0.0] * (n + 1)
        for mask, value in enumerate(subset_entropies(state)):
            by_size[mask.bit_count()] += value
        h = [v / math.comb(n, s) for s, v in enumerate(by_size)]
    return sum((h[k] - k / n * h[n] for k in range(1, n)), 0.0)
