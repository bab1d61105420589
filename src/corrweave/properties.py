"""Randomized self-checks of the correlation measures' defining properties.

Each property is a theorem about the distance-to-products family: being
zero exactly on products, monotonicity under uncorrelated extensions,
local channels and discarding, superadditivity of multi-information,
additivity on products, equality of the two weaving summation forms, and
contractivity of weaving under local channels.  The suite samples small
random states (up to 4 qubits) with a fixed seed and reports the worst
violation per property.  Each sampled state is valued once, in one pass
of the brute minimizer for all the orders a property compares.

``perturb_dist`` injects a fault into every distance evaluation (used by
the tests to prove the suite actually detects violations); leave it None
for real runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Run every property with ``trials`` trials each, one shared seed."""
    if seed < 0:
        raise ArgumentError(f"need a seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    checks = (_faithfulness, _extension_monotonicity, _channel_monotonicity,
              _discard_monotonicity, _superadditivity, _product_additivity,
              _dual_form, _contractivity)
    return [check(rng, trials, perturb_dist) for check in checks]


def _result(name, trials, worst, tol=DEFAULT_TOL):
    return PropertyResult(name, trials, worst, tol, worst <= tol)


def _faithfulness(rng, trials, perturb):
    """dist(k) vanishes exactly on products with blocks of at most k."""
    structures = {1: [(1, 1, 1, 1)], 2: [(2, 2), (2, 1, 1)], 3: [(3, 1)]}
    worst = 0.0
    for t in range(trials):
        if t % 2 == 0:
            k = int(rng.integers(1, 4))
            blocks = structures[k][int(rng.integers(len(structures[k])))]
            s = random_product_state(blocks, rng, pure=bool(rng.integers(2)))
            [(value, part)] = _dists(s, [k], perturb)
            worst = max(worst, abs(value))
            recon = closest_product(s, part)
            worst = max(worst, max_entry_distance(s, recon))
        else:
            s = haar_state((2,) * 4, rng)
            k = int(rng.integers(1, 4))
            [(value, part)] = _dists(s, [k], perturb)
            err = max_entry_distance(s, closest_product(s, part))
            if err <= 1e-10:  # reconstruction matches => distance must vanish
                worst = max(worst, abs(value))
    return _result("faithfulness-0S", trials, worst)


def _extension_monotonicity(rng, trials, perturb):
    """Appending an uncorrelated party never increases dist(k)."""
    worst = -math.inf
    for _ in range(trials):
        s = random_density((2,) * 3, rng)
        joint = tensor_product(s, random_density((2,), rng))
        for after, before in zip(_dists(joint, range(1, 4), perturb),
                                 _dists(s, range(1, 4), perturb)):
            worst = max(worst, after.value - before.value)
    return _result("monotonicity-1S", trials, worst)


def _channel_monotonicity(rng, trials, perturb):
    """A channel on one party never increases dist(k)."""
    worst = -math.inf
    for _ in range(trials):
        s = random_density((2,) * 3, rng)
        ch = random_channel(2, int(rng.integers(2, 5)), rng,
                            targets=(int(rng.integers(3)),))
        out = apply_channel(s, ch)
        for after, before in zip(_dists(out, range(1, 4), perturb),
                                 _dists(s, range(1, 4), perturb)):
            worst = max(worst, after.value - before.value)
    return _result("monotonicity-2S", trials, worst)


def _discard_monotonicity(rng, trials, perturb):
    """Discarding parties never increases dist(k)."""
    worst = -math.inf
    for _ in range(trials):
        s = random_density((2,) * 4, rng, rank=int(rng.integers(2, 6)))
        keep = sorted(rng.choice(4, size=3, replace=False).tolist())
        marg = partial_trace(s, keep)
        for after, before in zip(_dists(marg, range(1, 4), perturb),
                                 _dists(s, range(1, 4), perturb)):
            worst = max(worst, after.value - before.value)
    return _result("monotonicity-3D", trials, worst)


def _superadditivity(rng, trials, perturb):
    """Multi-information over all parties dominates any sum over disjoint
    clusters, with equality when the state is a product over them."""
    clusterings = [((0, 1), (2, 3)), ((0,), (1, 2, 3)), ((0, 2), (1, 3))]
    worst = -math.inf
    for t in range(trials):
        clusters = clusterings[int(rng.integers(len(clusterings)))]
        if t % 2 == 0:
            s = random_density((2,) * 4, rng)
        else:
            sizes = tuple(len(c) for c in clusters)
            s = random_product_state(sizes, rng)
            # products are built on contiguous blocks; use matching clusters
            split = []
            start = 0
            for size in sizes:
                split.append(tuple(range(start, start + size)))
                start += size
            clusters = tuple(split)
        total = multi_information(s)
        parts = sum(multi_information(s, c) for c in clusters)
        excess = parts - total
        if t % 2 == 1:
            excess = abs(excess)  # equality branch
        worst = max(worst, excess)
    return _result("superadditivity-5S", trials, worst)


def _product_additivity(rng, trials, perturb):
    """dist(k) adds over tensor factors (orders capped per factor)."""
    worst = 0.0
    for t in range(trials):
        pure = t % 2 == 0
        a = haar_state((2, 2), rng) if pure else random_density((2, 2), rng)
        b = haar_state((2, 2), rng) if pure else random_density((2, 2), rng)
        joint = tensor_product(a, b)
        dist_a, dist_b = _dists(a, (1, 2), perturb), _dists(b, (1, 2), perturb)
        for k, lhs in enumerate(_dists(joint, range(1, 5), perturb), start=1):
            j = min(k, 2) - 1
            worst = max(worst, abs(lhs.value - (dist_a[j].value + dist_b[j].value)))
    return _result("product-additivity", trials, worst)


def _dual_form(rng, trials, perturb):
    """Weighted genuine orders equal the dual weighting of the distances."""
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 5))
        s = random_density((2,) * n, rng)
        scheme = WeightScheme.from_big_omega(rng.uniform(0.0, 2.0, size=n - 1))
        dist = [m.value for m in _dists(s, range(1, n + 1), perturb)]
        genuine = [max(dist[k - 2] - dist[k - 1], 0.0) for k in range(2, n + 1)]
        omega_form = sum(w * g for w, g in zip(scheme.omega, genuine))
        big_form = sum(w * v for w, v in zip(scheme.big_omega, dist[:-1]))
        scale = max(abs(omega_form), abs(big_form), 1.0)
        worst = max(worst, abs(omega_form - big_form) / scale)
    return _result("weaving-dual-form", trials, worst, DUAL_FORM_TOL)


def _contractivity(rng, trials, perturb):
    """The weaving index never grows under a channel on one party."""
    worst = -math.inf
    for _ in range(trials):
        n = 3
        s = random_density((2,) * n, rng)
        ch = random_channel(2, int(rng.integers(2, 4)), rng,
                            targets=(int(rng.integers(n)),))
        out = apply_channel(s, ch)
        scheme = WeightScheme.from_big_omega(rng.uniform(0.0, 2.0, size=n - 1))
        w_in = sum(w * v for w, (v, _) in zip(scheme.big_omega,
                                              _dists(s, range(1, n), perturb)))
        w_out = sum(w * v for w, (v, _) in zip(scheme.big_omega,
                                               _dists(out, range(1, n), perturb)))
        worst = max(worst, w_out - w_in)
    return _result("weaving-contractivity", trials, worst)
