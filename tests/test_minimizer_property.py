"""The brute minimizer's dynamic program against full partition enumeration.

The oracle scans :func:`enumerate_partitions` in canonical order, sums
each partition's block entropies in block order, and keeps a partition
only when it beats the best so far by more than 1e-15.  The program must
return the same value (``==``) and the same partition for every order k,
also on states where many partitions tie to within rounding.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corrweave import (dist_to_pk, enumerate_partitions, make_bell_product,
                       make_dicke, make_ghz, subset_entropies)
from corrweave.random_states import (haar_state, random_classical,
                                     random_density, random_product_state)

KINDS = ("dense", "pure", "classical", "product", "pure-product", "ghz",
         "dicke", "bell-product")


def _state(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_density((2,) * n, rng)
    if kind == "pure":
        return haar_state((2,) * n, rng)
    if kind == "classical":
        return random_classical((2,) * n, rng)
    if kind in ("product", "pure-product"):
        return random_product_state((1,) * n, rng, pure=kind == "pure-product")
    if kind == "ghz":
        return make_ghz(n)
    if kind == "dicke":
        return make_dicke(n, seed % (n + 1))
    return make_bell_product(n + n % 2)


def _enumeration_minimum(h, n, k):
    best, best_part = math.inf, None
    for part in enumerate_partitions(n, k):
        value = sum(h[sum(1 << i for i in b)] for b in part.blocks) - h[-1]
        if value < best - 1e-15:
            best, best_part = value, part
    return max(best, 0.0), best_part


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_dynamic_program_matches_enumeration(kind, n, seed):
    state = _state(kind, n, seed)
    n = state.n_parties
    for k in range(1, n + 1):
        value, part = dist_to_pk(state, k, mode="brute")
        expected_value, expected_part = _enumeration_minimum(subset_entropies(state), n, k)
        assert value == expected_value, (k, value, expected_value)
        assert part.blocks == expected_part.blocks, (k, part, expected_part)
