"""Randomized self-checks of the correlation measures' defining properties.

Each property is a theorem about the distance-to-products family: being
zero exactly on products, monotonicity under uncorrelated extensions,
local channels and discarding, superadditivity of multi-information,
additivity on products, equality of the two weaving summation forms, and
contractivity of weaving under local channels.  The suite samples small
random states (up to 4 qubits) with a fixed seed and reports the worst
violation per property.  Each sampled state is valued once, in one pass
of the brute minimizer for all the orders a property compares.

A property is a row of ``_PROPERTIES``: a name, a function of ``(rng, t,
dists)`` that samples trial ``t`` and returns its margins, and the
tolerance each margin stays within when the theorem holds.

``perturb_dist`` injects a fault into every distance evaluation (used by
the tests to prove the suite actually detects violations); leave it None
for real runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .correlations import (DUAL_FORM_TOL, MODE_BRUTE, PartitionMinimum, WeightScheme,
                           _minima, closest_product, multi_information)
from .errors import ArgumentError
from .random_states import (haar_state, random_channel, random_density,
                            random_product_state)
from .tensor import apply_channel, max_entry_distance, partial_trace, tensor_product

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    worst_margin: float
    tolerance: float
    passed: bool


def _dists(state, orders, perturb):
    """dist(k) of one state, with its argmin, for each k in ``orders``."""
    return [PartitionMinimum(v if perturb is None else perturb(v), part)
            for v, part in _minima(state, orders, MODE_BRUTE)[1]]


def run_property_suite(seed: int = 1234, trials: int = 200, *,
                       perturb_dist: Optional[Callable[[float], float]] = None,
                       ) -> list[PropertyResult]:
    """Run every property with ``trials`` trials each, one shared seed.  A
    property's worst margin is the largest over all its trials' margins,
    so one NaN margin makes it NaN and fails the property."""
    if trials < 1:
        raise ArgumentError(f"need at least 1 trial, got {trials}")
    if seed < 0:
        raise ArgumentError(f"need a seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    dists = partial(_dists, perturb=perturb_dist)  # dists(state, orders)
    results = []
    for name, margins, tol in _PROPERTIES:
        worst = float(np.max([m for t in range(trials) for m in margins(rng, t, dists)]))
        results.append(PropertyResult(name, trials, worst, tol, worst <= tol))
    return results


def _rise(before, after, orders, dists):
    """How far dist(k) rises from ``before`` to ``after``, for each k in ``orders``."""
    return [a.value - b.value for a, b in zip(dists(after, orders), dists(before, orders))]


def _faithfulness(rng, t, dists):
    """dist(k) vanishes exactly on products with blocks of at most k."""
    if t % 2 == 0:
        k = int(rng.integers(1, 4))
        structures = {1: [(1, 1, 1, 1)], 2: [(2, 2), (2, 1, 1)], 3: [(3, 1)]}[k]
        blocks = structures[int(rng.integers(len(structures)))]
        s = random_product_state(blocks, rng, pure=bool(rng.integers(2)))
        [(value, part)] = dists(s, [k])
        return [abs(value), max_entry_distance(s, closest_product(s, part))]
    s = haar_state((2,) * 4, rng)
    [(value, part)] = dists(s, [int(rng.integers(1, 4))])
    err = max_entry_distance(s, closest_product(s, part))
    return [abs(value)] if err <= 1e-10 else []  # reconstruction matches => dist vanishes


def _extension_monotonicity(rng, t, dists):
    """Appending an uncorrelated party never increases dist(k)."""
    s = random_density((2,) * 3, rng)
    return _rise(s, tensor_product(s, random_density((2,), rng)), range(1, 4), dists)


def _channel_monotonicity(rng, t, dists):
    """A channel on one party never increases dist(k)."""
    s = random_density((2,) * 3, rng)
    ch = random_channel(2, int(rng.integers(2, 5)), rng,
                        targets=(int(rng.integers(3)),))
    return _rise(s, apply_channel(s, ch), range(1, 4), dists)


def _discard_monotonicity(rng, t, dists):
    """Discarding parties never increases dist(k)."""
    s = random_density((2,) * 4, rng, rank=int(rng.integers(2, 6)))
    keep = sorted(rng.choice(4, size=3, replace=False).tolist())
    return _rise(s, partial_trace(s, keep), range(1, 4), dists)


def _superadditivity(rng, t, dists):
    """Multi-information over all parties dominates any sum over disjoint
    clusters, with equality when the state is a product over them."""
    clusterings = [((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((0, 2), (1, 3))]
    clusters = clusterings[int(rng.integers(len(clusterings)))]
    if t % 2 == 0:
        s = random_density((2,) * 4, rng)
    else:
        sizes = tuple(map(len, clusters))
        s = random_product_state(sizes, rng)
        # products are built on contiguous blocks; use matching clusters
        clusters = [range(end - size, end) for size, end in zip(sizes, accumulate(sizes))]
    excess = sum(multi_information(s, c) for c in clusters) - multi_information(s)
    return [excess if t % 2 == 0 else abs(excess)]  # equality branch


def _product_additivity(rng, t, dists):
    """dist(k) adds over tensor factors (orders capped per factor)."""
    make = haar_state if t % 2 == 0 else random_density
    a, b = make((2, 2), rng), make((2, 2), rng)
    dist_a, dist_b = dists(a, (1, 2)), dists(b, (1, 2))
    return [abs(lhs.value - (dist_a[j].value + dist_b[j].value))
            for j, lhs in zip((0, 1, 1, 1), dists(tensor_product(a, b), range(1, 5)))]


def _dual_form(rng, t, dists):
    """Weighted genuine orders equal the dual weighting of the distances."""
    n = int(rng.integers(3, 5))
    s = random_density((2,) * n, rng)
    scheme = WeightScheme.from_big_omega(rng.uniform(0.0, 2.0, size=n - 1))
    dist = [m.value for m in dists(s, range(1, n + 1))]
    genuine = [max(dist[k - 2] - dist[k - 1], 0.0) for k in range(2, n + 1)]
    omega_form = sum(w * g for w, g in zip(scheme.omega, genuine))
    big_form = sum(w * v for w, v in zip(scheme.big_omega, dist[:-1]))
    scale = max(abs(omega_form), abs(big_form), 1.0)
    return [abs(omega_form - big_form) / scale]


def _contractivity(rng, t, dists):
    """The weaving index never grows under a channel on one party."""
    s = random_density((2,) * 3, rng)
    ch = random_channel(2, int(rng.integers(2, 4)), rng,
                        targets=(int(rng.integers(3)),))
    out = apply_channel(s, ch)
    big_omega = WeightScheme.from_big_omega(rng.uniform(0.0, 2.0, size=2)).big_omega
    w_in, w_out = (sum(w * v for w, (v, _) in zip(big_omega, dists(x, range(1, 3))))
                   for x in (s, out))
    return [w_out - w_in]


_PROPERTIES = (
    ("faithfulness-0S", _faithfulness, DEFAULT_TOL),
    ("monotonicity-1S", _extension_monotonicity, DEFAULT_TOL),
    ("monotonicity-2S", _channel_monotonicity, DEFAULT_TOL),
    ("monotonicity-3D", _discard_monotonicity, DEFAULT_TOL),
    ("superadditivity-5S", _superadditivity, DEFAULT_TOL),
    ("product-additivity", _product_additivity, DEFAULT_TOL),
    ("weaving-dual-form", _dual_form, DUAL_FORM_TOL),
    ("weaving-contractivity", _contractivity, DEFAULT_TOL),
)
