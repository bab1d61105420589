"""The registry of named state families, and their closed-form profiles.

Each family is declared once, as a row of :data:`FAMILIES`.  For a
permutation-invariant state the compact partition (``floor(N/k)`` blocks
of ``k`` plus a remainder) minimizes dist(k), so a closed form is just the
family's block entropies h(s); products of identical pairs are correlated
only within a pair.  Profiles cost polynomial time in N -- usable to N in
the thousands, far beyond the matrix pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .correlations import (MODE_CLOSED_FORM, CorrelationProfile, WeightScheme,
                           weaving)
from .errors import ArgumentError, CapacityError
from .partitions import compact_sum, integer
from .states import (make_a_family, make_bell_product, make_classical,
                     make_classical_pair_product, make_dicke, make_ghz)
from .tensor import _segment_sums

#: Largest N a closed form is evaluated at, the largest ``classical:N``
#: the classical table cap admits.  Weight schemes and profiles hold O(N)
#: values, and ``dicke-half`` takes O(N^2) time: its h(s) for s <= N/2
#: come from one batched pass per instance (:func:`dicke_block_entropies`)
#: and the rest are their bit-equal mirror h(N - s) (:func:`_dicke_h`), so
#: a ``scaling`` point takes about 0.9 s at N = 16384 on a 2-vCPU Xeon VM,
#: and about 6 s at the cap (12 s when the pass computed every s).
MAX_CLOSED_FORM_N = 1 << 16

#: Sweep normalizations: (name, divisor for system size n).
_BY_N = ("n", float)
_BY_N_LOG_N = ("n*log2(n)", lambda n: n * math.log2(n) if n > 1 else 1.0)
_BY_N_SQUARED = ("n^2", lambda n: float(n * n))


@dataclass(frozen=True)
class Family:
    """One named state family.  ``build`` makes the state of a
    :class:`~corrweave.states.StateFamily`; ``param`` names the spec's
    extra field (``d``, ``m``, ``a`` or None); ``aliases`` are more spec
    names, and ``spec`` says whether ``name`` is one; ``table`` is the row
    position in ``corrweave table``, whose ``qudit`` rows take ``--d``.
    The closed form is ``h(fam)``, the entropy of a block of sites: one
    float, the same for every size ``s < N`` if ``uniform``, or that of
    one site of a pair if ``pairs``; else an array of h(s) for every
    ``s`` from 0 to N, with h(0) = h(N) = 0.0 (a Dicke row, whose
    ``excitations(N)`` is its excitation count at N, computes h(s) for
    s <= N/2 and mirrors the rest, see :func:`_dicke_h`).  The whole
    state (or pair) is pure, or, if ``mixed``, has the entropy of its
    blocks, as a mixture of correlated strings does.
    """

    name: str
    build: Callable
    param: Optional[str] = "d"
    aliases: tuple[str, ...] = ()
    spec: bool = True
    even_only: bool = False
    table: Optional[int] = None
    qudit: bool = False
    normalization: tuple[str, Callable[[int], float]] = _BY_N
    h: Optional[Callable] = None
    mixed: bool = False
    uniform: bool = False
    pairs: bool = False
    excitations: Optional[Callable[[int], int]] = None


def _log2_d(fam) -> float:
    return math.log2(fam.d)


def _dicke_h(fam) -> np.ndarray:
    """h(fam) of a Dicke row, at the excitation count it reads from the
    row's ``excitations(N)``: the array of h(0..N).  The first call on an
    instance fills its ``_h`` memo from one :func:`dicke_block_entropies` pass.

    The state is pure, so complementary blocks share a spectrum and
    h(s) = h(N - s): the pass computes h(s) for s <= N/2 and mirrors the
    rest.  The mirror is bit-exact because the two Dicke rows hold one
    excitation or N/2, where rows s and N - s sum the same terms.
    """
    if fam._h is None:
        n, half = fam.n, fam.n // 2
        table = np.zeros(n + 1)
        table[1:half + 1] = dicke_block_entropies(
            n, FAMILIES[fam.family].excitations(n), range(1, half + 1))
        table[half + 1:n] = table[1:n - half][::-1]
        object.__setattr__(fam, "_h", table)
    return fam._h


def _dicke_state(fam):
    """The state of a Dicke row, at the excitation count of its
    ``excitations(N)``."""
    return make_dicke(fam.n, FAMILIES[fam.family].excitations(fam.n))


FAMILIES = {f.name: f for f in (
    Family("ghz", lambda f: make_ghz(f.n, f.d), table=3,
           normalization=_BY_N_LOG_N, h=lambda f: 1.0, uniform=True),
    Family("classical", lambda f: make_classical(f.n, f.d),
           aliases=("classical-correlated", "qudit-classical"), table=1,
           normalization=_BY_N_LOG_N, h=_log2_d, mixed=True, uniform=True),
    Family("dicke", lambda f: make_dicke(f.n, f.m), param="m"),
    Family("bell-product", lambda f: make_bell_product(f.n, f.d),
           aliases=("qudit-bell-product",), even_only=True, table=2,
           h=_log2_d, pairs=True),
    Family("classical-pair-product", lambda f: make_classical_pair_product(f.n),
           param=None, even_only=True, table=0, h=lambda f: 1.0,
           mixed=True, pairs=True),
    Family("dicke-1", _dicke_state, param=None, spec=False,
           table=4, h=_dicke_h, excitations=lambda n: 1),
    Family("dicke-half", _dicke_state, param=None,
           spec=False, even_only=True, table=5, normalization=_BY_N_SQUARED,
           h=_dicke_h, excitations=lambda n: n // 2),
    Family("qudit-classical", lambda f: make_classical(f.n, f.d), spec=False,
           table=6, qudit=True, normalization=_BY_N_LOG_N, h=_log2_d,
           mixed=True, uniform=True),
    Family("qudit-bell-product", lambda f: make_bell_product(f.n, f.d),
           spec=False, even_only=True, table=7, qudit=True, h=_log2_d,
           pairs=True),
    Family("a-family", lambda f: make_a_family(f.n, f.a), param="a",
           h=lambda f: binary_entropy(f.a * f.a), uniform=True),
)}

CF_FAMILIES = tuple(name for name, f in FAMILIES.items() if f.h is not None)


def _closed_form(family: str) -> Family:
    row = FAMILIES.get(family)
    if row is None or row.h is None:
        raise ArgumentError(
            f"unknown closed-form family {family!r}; "
            f"choose from {', '.join(CF_FAMILIES)}")
    return row


@dataclass(frozen=True)
class ClosedFormFamily:
    """A state family instance whose correlation profile has a closed form.

    A Dicke row keeps its block entropies h(s) on the instance, from one
    batched pass and its mirror (see :func:`_dicke_h`); they take no part
    in equality or hashing.
    """

    family: str
    n: int
    d: int = 2
    a: Optional[float] = None
    _h: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _closed_form(self.family)
        if integer(self.n, "party count n") < 1:
            raise ArgumentError(f"need n >= 1, got {self.n}")
        check_closed_form_n(self.n)
        if integer(self.d, "local dimension d") < 2:
            raise ArgumentError(f"need d >= 2, got {self.d}")
        if row.param != "d" and self.d != 2:
            raise ArgumentError(
                f"family {self.family} takes no local dimension, got d={self.d}")
        if row.even_only and self.n % 2:
            raise ArgumentError(f"family {self.family} needs even n, got {self.n}")
        if row.param == "a":
            if self.a is None or not 0.0 <= self.a <= 1.0:
                raise ArgumentError(
                    f"{self.family} needs an amplitude in [0, 1], got {self.a}")
        elif self.a is not None:
            raise ArgumentError(f"family {self.family} takes no amplitude")


def check_closed_form_n(n: int) -> None:
    """Raise a CapacityError when ``n`` exceeds ``MAX_CLOSED_FORM_N``."""
    if n > MAX_CLOSED_FORM_N:
        raise CapacityError(
            f"closed forms are capped at N={MAX_CLOSED_FORM_N}, got N={n}")


def binary_entropy(p: float) -> float:
    """Entropy in bits of a {p, 1-p} distribution."""
    if not 0.0 <= p <= 1.0:
        raise ArgumentError(f"need a probability, got {p}")
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


#: Terms a chunk of the batched Dicke pass computes at most: it holds as
#: many rows as fit at the costliest row's count (one row if that alone
#: is more).  Their zero-padded buffer is wider where the tails underflow
#: uncomputed.
_DICKE_CHUNK = 1 << 14


# perfbench/tracing.py wraps this name; the Dicke rows call dicke_block_entropies.
def dicke_marginal_entropy(n: int, m: int, k: int) -> float:
    """Entropy in bits of the k-site Dicke marginal (0 when k = n): one
    row of :func:`dicke_block_entropies`."""
    n, m = integer(n, "party count n"), integer(m, "excitation count m")
    return float(dicke_block_entropies(n, m, [integer(k, "block size k")])[0])


def dicke_block_entropies(n: int, m: int, ks) -> np.ndarray:
    """Entropies in bits of the k-site marginals of the N-qubit Dicke state
    with ``m`` excitations, one per k in ``ks`` (0 where k = n).

    Row k's spectrum is ``C(k, i) C(n-k, m-i) / C(n, m)``, ``i`` from
    ``max(0, m-(n-k))`` to ``min(k, m)``.  Rows go in chunks of at most
    ``_DICKE_CHUNK`` computed terms.  A row holds 1.0 at the mode, its
    largest term, and :func:`_beyond_mode` fills tiles of columns outward
    until every row has underflowed to 0, so nothing overflows and the zero
    tails are never computed.  Each row is divided by the ``np.add.reduce``
    of exactly its own terms; its entropy is one ``np.add.reduce`` of its
    positive ``p log2 p`` in order.  The bits are those of the per-k
    recurrence in ``tests/oracles.py``: each term ratio is one rounding of
    exact integers, and ``np.cumprod`` along a row is sequential.
    """
    n, m, ks = integer(n, "party count n"), integer(m, "excitation count m"), np.asarray(ks)
    if ks.size and ks.dtype.kind not in "iu":  # an empty ks is float64
        raise ArgumentError(f"block sizes k must be integers, got {ks.tolist()}")
    ks = ks.astype(np.int64)
    if not 0 <= m <= n or ks.size and not 1 <= ks.min() <= ks.max() <= n:
        k = ks.tolist()
        raise ArgumentError(f"need 0 <= m <= n and 1 <= k <= n, got n={n}, m={m}, "
                            f"k={k[0] if len(k) == 1 else k}")
    lo = np.maximum(0, m - (n - ks))
    hi = np.minimum(ks, m)
    mode = np.minimum(hi, np.maximum(lo, (ks + 1) * (m + 1) // (n + 2)))
    # Relative to the mode, the terms fall below 2^-1074, the least double,
    # about 39 standard deviations out (normal approximation), and the last
    # subnormal stops shrinking only where the term ratio drops below 1/2,
    # about 0.7 sd^2 out.  A first tile past both usually covers a row;
    # more tiles are added until every row has reached 0.
    sd = np.sqrt(ks * (n - ks) * (m * (n - m) / (n * n * max(n - 1, 1))))
    tiles = np.maximum(40 * sd, 0.7 * sd * sd).astype(np.int64) + 16
    below, above = mode - lo, hi - mode
    # the terms a row computes when its first tile reaches the tail
    cost = np.minimum(below, tiles) + np.minimum(above, tiles) + 1
    count = max(1, _DICKE_CHUNK // int(cost.max(initial=1)))
    out = np.empty(len(ks))
    for first in range(0, len(ks), count):
        stop = min(first + count, len(ks))
        rows = slice(first, stop)
        wd, wu = int(below[rows].max()), int(above[rows].max())
        width = wd + 1 + wu
        k, i0 = ks[rows, None].astype(float), mode[rows, None].astype(float)
        tile = int(tiles[rows].max())
        p = np.zeros((stop - first, width))
        p[:, wd] = 1.0
        # above the mode, then below it as the terms above the mode of
        # the mirror image i -> k - i, which has n - m excitations
        cu = _beyond_mode(p[:, wd + 1:], n, m, k, i0, tile)
        cd = _beyond_mode(p[:, :wd][:, ::-1], n, n - m, k, k - i0, tile)
        at = np.arange(stop - first) * width + wd  # each mode in p.ravel()
        sums = _segment_sums(p.ravel(), at - below[rows], at + 1 + above[rows])
        p = p[:, wd - cd:wd + 1 + cu]  # every positive term
        p /= sums[:, None]
        positive = p > 0
        counts = np.count_nonzero(positive, axis=1)
        ends = np.cumsum(counts)
        p = p[positive]
        terms = np.log2(p)
        terms *= p
        out[rows] = -_segment_sums(terms, ends - counts, ends)
    return np.where(out > 0, out, 0.0)  # the spectrum [1.0] gives -0.0


def _beyond_mode(out: np.ndarray, n: int, m: int, k: np.ndarray,
                 i0: np.ndarray, tile: int) -> int:
    """Fill the zeroed ``out[:, j]`` with the terms at ``i0 + j + 1``
    relative to the term at ``i0``: the products of the term ratios
    ``(k-i)(m-i) / ((i+1)(n-k-m+i+1))`` from ``i = i0``.  The ratio at
    the last term, ``i = min(k, m)``, is exactly 0 and the ones after it
    are finite, so past a row's end its products stay 0 (or -0.0).
    Columns are filled ``tile`` at a time until every row has reached 0;
    returns how many were filled (the rest stay 0)."""
    width = out.shape[1]
    # the factors k-i, m-i, i+1 and n-k-m+i+1 at i = i0; column j has i = i0 + j
    f1, f2, f3, f4 = k - i0, m - i0, i0 + 1, (n - m + 1) - k + i0
    for c in range(0, width, tile):
        r = out[:, c:c + tile]
        j = np.arange(c, c + r.shape[1], dtype=float)
        np.subtract(f1, j, out=r)
        r *= f2 - j
        d = f3 + j
        d *= f4 + j
        r /= d
        if c:
            r[:, 0] *= out[:, c - 1]
        np.cumprod(r, axis=1, out=r)
        if not r[:, -1].any():
            return c + r.shape[1]
    return width


def _dist_array(fam: ClosedFormFamily) -> np.ndarray:
    """Closed-form dist(k) in bits for every order k = 1..N of the family
    instance, from its row's h in one array pass."""
    n, row = fam.n, FAMILIES[fam.family]
    h = row.h(fam)
    ks = np.arange(1, n + 1)
    if row.pairs:
        # blocks of size >= 2 can cover whole pairs; only k = 1 cuts them
        dist = np.zeros(n)
        dist[0] = n / 2 * (2 * h - (h if row.mixed else 0.0))
    elif row.uniform:
        # One rounding, so orders with equal block counts get bit-equal
        # values and a genuine difference of exactly 0.
        blocks = -(-n // ks)
        dist = (blocks - 1 if row.mixed else blocks) * h
    else:
        dist = compact_sum(n, ks, h)
    dist[-1] = 0.0  # the whole state is one block
    return dist


def cf_dist(fam: ClosedFormFamily, k: int) -> float:
    """Closed-form dist(k) in bits for the family instance: one entry of
    the whole profile's array pass, so each call costs O(N)."""
    k = integer(k, "order k")
    if not 1 <= k <= fam.n:
        raise ArgumentError(f"order k={k} out of range 1..{fam.n}")
    return float(_dist_array(fam)[k - 1])


def cf_profile(fam: ClosedFormFamily) -> CorrelationProfile:
    """The family instance's profile: its closed-form dist(k) for every
    order, through the checks of :meth:`CorrelationProfile.from_dist`."""
    return CorrelationProfile.from_dist(_dist_array(fam).tolist(),
                                        mode=MODE_CLOSED_FORM)


def cf_genuine(fam: ClosedFormFamily, k: int) -> float:
    """Closed-form genuine correlations of order ``k``.

    Each call builds the whole profile, so looping over k costs O(N^2);
    take one :func:`cf_profile` instead.
    """
    return cf_profile(fam).genuine_at(k)


def cf_weaving(fam: ClosedFormFamily, weights: WeightScheme) -> float:
    """Closed-form weaving index, by :func:`~corrweave.correlations.weaving`.

    Each call builds the whole profile; a caller that needs more than one
    value should take one :func:`cf_profile`.
    """
    return weaving(cf_profile(fam), weights)


@dataclass(frozen=True)
class SweepPoint:
    """One N of a scaling sweep: weaving value and normalized coefficient."""

    n: int
    weaving: float
    normalization: str
    coefficient: float


def cf_scaling_sweep(family: str, n_values: Sequence[int], *, d: int = 2,
                     a: Optional[float] = None,
                     weights: str = "k-1") -> list[SweepPoint]:
    """Weaving index of one family across system sizes, with the
    family's natural normalization (n, n*log2(n), or n^2) divided out.

    ``weights`` names a scheme constructed per N: ``k-1`` (default),
    ``uniform``, or ``delta:K``; ``d`` and ``a`` are checked by
    :class:`ClosedFormFamily`, which refuses either where the family takes
    none.
    """
    row = _closed_form(family)
    norm_name, norm = row.normalization
    points = []
    for n in n_values:
        n = integer(n, "party count n")
        fam = ClosedFormFamily(family, n, d=d, a=a)
        scheme = WeightScheme.named(weights, n)  # a bad name fails fast
        w = weaving(cf_profile(fam), scheme)
        points.append(SweepPoint(n, w, norm_name, w / norm(n)))
    return points
