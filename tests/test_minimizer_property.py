"""The brute minimizer's dynamic program against full partition enumeration.

The oracle scans :func:`enumerate_partitions` in canonical order, sums
each partition's block entropies in block order, and keeps a partition
only when it beats the best so far by more than 1e-15.  The program must
return the same value (``==``) and the same partition for every order k,
also on states where many partitions tie to within rounding.  The
layered program that serves every order in one pass must match the
scalar one-order-at-a-time program of ``oracles.partition_minimum``.
"""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _blocks, partition_minimum

from corrweave import (dist_to_pk, enumerate_partitions, make_bell_product,
                       make_classical, make_dicke, make_ghz, profile,
                       subset_entropies)
from corrweave.correlations import _dp_layers, _partition_minima
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


def _scan(h, n, k):
    """Each partition's value, its blocks summed in block order, in canonical order."""
    return [(sum(h[sum(1 << i for i in b)] for b in part.blocks) - h[-1], part)
            for part in enumerate_partitions(n, k)]


def _enumeration_minimum(scan):
    best, best_part = math.inf, None
    for value, part in scan:
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
        expected_value, expected_part = _enumeration_minimum(_scan(subset_entropies(state), n, k))
        assert value == expected_value, (k, value, expected_value)
        assert part.blocks == expected_part.blocks, (k, part, expected_part)


def _sqrt_table(w):
    """``h[S] = sqrt(sum of w_i over S)``: strictly subadditive, so no two
    partitions tie and every order's minimum is positive but the last."""
    sums = np.zeros(1 << len(w))
    for i, wi in enumerate(w):
        sums[1 << i:2 << i] = sums[:1 << i] + wi
    return np.sqrt(sums).tolist()


def _table(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "sqrt":
        return _sqrt_table(rng.uniform(0.1, 2.0, n))
    if kind == "uniform":
        h = rng.uniform(0.0, n, 1 << n)
    else:  # quarter-bit steps: many exact ties
        h = rng.integers(0, 4 * n, 1 << n) / 4
    h[0] = 0.0
    return h.tolist()


def _assert_matches_the_scalar_program(h, n):
    ks = range(1, n + 1)
    for k, got in zip(ks, _partition_minima(h, n, ks)):
        want = partition_minimum(h, n, k)
        assert got.value == want.value, (k, got, want)
        assert got.argmin.blocks == want.argmin.blocks, (k, got, want)
        assert _partition_minima(h, n, [k]) == [got]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=st.sampled_from(("sqrt", "uniform", "quantized")), n=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_layered_program_matches_the_scalar_program(kind, n, seed):
    _assert_matches_the_scalar_program(_table(kind, n, seed), n)


@pytest.mark.parametrize("kind, n", [("ghz", 9), ("product", 8), ("pure-product", 8),
                                     ("bell-product", 8), ("dicke", 9), ("classical", 9)])
def test_layered_program_matches_the_scalar_program_on_states(kind, n):
    state = _state(kind, n, 9)
    _assert_matches_the_scalar_program(subset_entropies(state), state.n_parties)


def _slow_steps_table(n):
    """``h[B] = |B|`` for the blocks that hold party 0, ``|B| + 9.95e-13 *
    2^(min B - 1)`` for the others: a partition's value is the sum of its
    other blocks' excesses, in steps of about 1e-12."""
    return [0.0] + [b.bit_count() + (0.0 if b & 1 else 9.95e-13 * (b & -b) / 2)  # b & -b = 2^min B
                    for b in range(1, 1 << n)]


@pytest.mark.parametrize("k", [9, 10])
def test_walk_widens_its_window_when_the_near_ties_run_on(k):
    """At N = 10 the values within 1e-9 of the order's minimum have no gap
    wider than 1e-12 until 5e-10 above it, so the walk's first window
    cannot be cut and is widened; the result is still the scan's."""
    n = 10
    h = _slow_steps_table(n)
    scan = _scan(h, n, k)
    values = sorted(v for v, _ in scan)
    near = [v for v in values if v <= values[0] + 1e-9]
    cut = next((a for a, b in zip(near, near[1:]) if b - a > 1e-12), near[-1])
    assert cut - values[0] >= 5e-10, cut - values[0]  # else the window is never widened
    [got] = _partition_minima(h, n, [k])
    want_value, want_part = _enumeration_minimum(scan)
    assert got.value == want_value and got.argmin.blocks == want_part.blocks, (got, want_part)
    assert got == partition_minimum(h, n, k)


@pytest.mark.parametrize("n", range(1, 11))
def test_walk_reads_the_blocks_of_each_set_from_the_layer_tables(n):
    """For every set the tie walk can visit -- the full set and the sets
    without party 0 -- and every order k, the leading columns of its row
    that the walk reads are its blocks of at most k parties, each once."""
    layers, row, _, _ = _dp_layers(n)
    full = (1 << n) - 1
    for s in [*range(2, full, 2), full]:
        sets, blocks, sizes = layers[s.bit_count() - 1]
        assert sets[row[s]] == s
        for k in range(1, n + 1):
            got = blocks[row[s], :np.count_nonzero(sizes <= k)].tolist()
            assert len(got) == len(set(got)) and set(got) == set(_blocks(s, k)), (s, k)


def test_layered_program_stays_small_at_the_cap():
    n = 14
    h = _sqrt_table(np.random.default_rng(14).uniform(0.5, 1.5, n))
    tracemalloc.start()
    try:
        minima = _partition_minima(h, n, range(1, n + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
    for k, (value, part) in enumerate(minima, start=1):
        assert max(map(len, part.blocks)) <= k
        assert value == sum(h[sum(1 << i for i in b)] for b in part.blocks) - h[-1]
        assert value > 0.0 if k < n else value == 0.0


def test_layered_program_frees_each_order_at_return():
    """Nothing of a pass outlives it without the cyclic collector: every
    order's row of set minima (2^14 floats at the cap) is freed at return."""
    n = 14
    h = _sqrt_table(np.random.default_rng(14).uniform(0.5, 1.5, n))
    _dp_layers(n)  # cached once per n, so not part of what must be freed
    gc.disable()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        _partition_minima(h, n, range(1, n + 1))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 1e6, held


#: States measured invariant, which ``auto`` sends to the symmetric-fast route.
INVARIANT = {"ghz": make_ghz, "dicke-half": lambda n: make_dicke(n, n // 2),
             "classical-table": make_classical}


@pytest.mark.parametrize("kind, mode", [(kind, "auto") for kind in INVARIANT]
                         + [(kind, "brute") for kind in ("dense", "pure", "classical")])
@pytest.mark.parametrize("n", range(1, 7))
def test_one_order_call_is_the_all_orders_call_order_by_order(kind, mode, n):
    state = INVARIANT[kind](n) if mode == "auto" else _state(kind, n, n)
    prof = profile(state, mode)
    assert prof.mode == ("symmetric-fast" if mode == "auto" else "brute")
    for k in range(1, n + 1):
        value, part = dist_to_pk(state, k, mode)
        assert value == prof.dist[k - 1], k
        assert part.blocks == prof.argmin[k - 1].blocks, k
