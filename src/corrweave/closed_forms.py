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
from .partitions import compact_sum
from .states import (make_a_family, make_bell_product, make_classical,
                     make_classical_pair_product, make_dicke, make_ghz)

#: Largest N a closed form is evaluated at, the largest ``classical:N``
#: the classical table cap admits.  Weight schemes and profiles hold O(N)
#: values, and ``dicke-half`` takes O(N^2) time: a ``scaling`` point takes
#: about 1.5 s at N = 16384 on a 2-vCPU Xeon VM, and about 19 s at the cap.
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
    The closed form is ``h(fam, s)``, the entropy of ``s`` sites: the same
    for every ``s < N`` if ``uniform``, or of sites within one pair if
    ``pairs``.  The whole state (or pair) is pure, or, if ``mixed``, has
    the entropy of its blocks, as a mixture of correlated strings does.
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


def _log2_d(fam, size: int) -> float:
    return math.log2(fam.d)


FAMILIES = {f.name: f for f in (
    Family("ghz", lambda f: make_ghz(f.n, f.d), table=3,
           normalization=_BY_N_LOG_N, h=lambda f, s: 1.0, uniform=True),
    Family("classical", lambda f: make_classical(f.n, f.d),
           aliases=("classical-correlated", "qudit-classical"), table=1,
           normalization=_BY_N_LOG_N, h=_log2_d, mixed=True, uniform=True),
    Family("dicke", lambda f: make_dicke(f.n, f.m), param="m"),
    Family("bell-product", lambda f: make_bell_product(f.n, f.d),
           aliases=("qudit-bell-product",), even_only=True, table=2,
           h=_log2_d, pairs=True),
    Family("classical-pair-product", lambda f: make_classical_pair_product(f.n),
           param=None, even_only=True, table=0, h=lambda f, s: 1.0,
           mixed=True, pairs=True),
    Family("dicke-1", lambda f: make_dicke(f.n, 1), param=None, spec=False,
           table=4, h=lambda f, s: dicke_marginal_entropy(f.n, 1, s)),
    Family("dicke-half", lambda f: make_dicke(f.n, f.n // 2), param=None,
           spec=False, even_only=True, table=5, normalization=_BY_N_SQUARED,
           h=lambda f, s: dicke_marginal_entropy(f.n, f.n // 2, s)),
    Family("qudit-classical", lambda f: make_classical(f.n, f.d), spec=False,
           table=6, qudit=True, normalization=_BY_N_LOG_N, h=_log2_d,
           mixed=True, uniform=True),
    Family("qudit-bell-product", lambda f: make_bell_product(f.n, f.d),
           spec=False, even_only=True, table=7, qudit=True, h=_log2_d,
           pairs=True),
    Family("a-family", lambda f: make_a_family(f.n, f.a), param="a",
           h=lambda f, s: binary_entropy(f.a * f.a), uniform=True),
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

    The block entropies h(s) computed so far are kept on the instance
    (see :meth:`_block_entropy`); they take no part in equality or hashing.
    """

    family: str
    n: int
    d: int = 2
    a: Optional[float] = None
    _h: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        row = _closed_form(self.family)
        if self.n < 1:
            raise ArgumentError(f"need n >= 1, got {self.n}")
        check_closed_form_n(self.n)
        if self.d < 2:
            raise ArgumentError(f"need d >= 2, got {self.d}")
        if row.even_only and self.n % 2:
            raise ArgumentError(f"family {self.family} needs even n, got {self.n}")
        if row.param == "a":
            if self.a is None or not 0.0 <= self.a <= 1.0:
                raise ArgumentError(
                    f"{self.family} needs an amplitude in [0, 1], got {self.a}")
        elif self.a is not None:
            raise ArgumentError(f"family {self.family} takes no amplitude")

    def _block_entropy(self, s: int) -> float:
        """The family's h(s), computed once per instance."""
        h = self._h.get(s)
        if h is None:
            h = self._h[s] = FAMILIES[self.family].h(self, s)
        return h


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


def hypergeometric_spectrum(n: int, m: int, k: int) -> np.ndarray:
    """Eigenvalues of the k-site marginal of the N-qubit Dicke state with
    ``m`` excitations: ``C(k, i) C(n-k, m-i) / C(n, m)``.

    The term-ratio recurrence is unrolled both ways from 1.0 at the
    distribution mode, and the terms are divided by their sum.  The mode
    is the largest term, so the sum is at least 1 and nothing overflows;
    the spectrum sums to 1 within ~1e-15 even for n in the thousands,
    where a log-gamma evaluation would drift at the 1e-11 level.
    """
    if not 0 <= m <= n or not 1 <= k <= n:
        raise ArgumentError(f"need 0 <= m <= n and 1 <= k <= n, got n={n}, m={m}, k={k}")
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


def dicke_marginal_entropy(n: int, m: int, k: int) -> float:
    """Entropy in bits of the k-site Dicke marginal (0 when k = n)."""
    p = hypergeometric_spectrum(n, m, k)
    p = p[p > 0]
    h = float(-(p * np.log2(p)).sum())
    return h if h > 0 else 0.0  # the spectrum [1.0] gives -0.0


def cf_dist(fam: ClosedFormFamily, k: int) -> float:
    """Closed-form dist(k) in bits for the family instance."""
    n = fam.n
    if not 1 <= k <= n:
        raise ArgumentError(f"order k={k} out of range 1..{n}")
    row = FAMILIES[fam.family]
    if k == n or row.pairs and k > 1:
        # blocks of size >= 2 can cover whole pairs; only k = 1 cuts them
        return 0.0
    if row.pairs:
        h = row.h(fam, 1)
        return n / 2 * (2 * h - (h if row.mixed else 0.0))
    if row.uniform:
        # One rounding, so orders with equal block counts get bit-equal
        # values and a genuine difference of exactly 0.
        h, blocks = row.h(fam, k), -(-n // k)
        return (blocks - 1) * h if row.mixed else blocks * h
    return compact_sum(n, k, fam._block_entropy)


def cf_profile(fam: ClosedFormFamily) -> CorrelationProfile:
    """The family instance's profile: its closed-form dist(k) for every
    order, through the checks of :meth:`CorrelationProfile.from_dist`."""
    return CorrelationProfile.from_dist(
        [cf_dist(fam, k) for k in range(1, fam.n + 1)], mode=MODE_CLOSED_FORM)


def cf_genuine(fam: ClosedFormFamily, k: int) -> float:
    """Closed-form genuine correlations of order ``k``.

    Each call builds the whole profile (N ``cf_dist`` calls), so looping
    over k costs O(N^2) of them; take one :func:`cf_profile` instead.
    """
    return cf_profile(fam).genuine_at(k)


def cf_weaving(fam: ClosedFormFamily, weights: WeightScheme) -> float:
    """Closed-form weaving index, by :func:`~corrweave.correlations.weaving`.

    Each call builds the whole profile (N ``cf_dist`` calls); a caller
    that needs more than one value should take one :func:`cf_profile`.
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
    ``uniform``, or ``delta:K``; ``a`` is used by families that take an
    amplitude and ignored by the others.
    """
    row = _closed_form(family)
    norm_name, norm = row.normalization
    points = []
    for n in n_values:
        n = int(n)
        fam = ClosedFormFamily(family, n, d=d, a=a if row.param == "a" else None)
        scheme = WeightScheme.named(weights, n)  # a bad name fails fast
        w = weaving(cf_profile(fam), scheme)
        points.append(SweepPoint(n, w, norm_name, w / norm(n)))
    return points
