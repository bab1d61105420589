import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from oracles import cut_ranks, subset_entropy

from corrweave import correlations, tensor
from corrweave import (ArgumentError, CapacityError, ConsistencyError,
                       CorrelationProfile, DensityState, NumericError,
                       WeightScheme,
                       closest_product, dist_to_pk, is_permutation_invariant,
                       make_a_family, make_bell_product, make_classical,
                       make_classical_pair_product, make_dicke, make_ghz,
                       marginal_entropy, max_entry_distance, multi_information,
                       neural_complexity, partial_trace, permute_subsystems,
                       profile, subset_entropies, tensor_product, vn_entropy,
                       weaving)
from corrweave.random_states import (haar_state, random_classical, random_density,
                                     random_product_state)

RNG = np.random.default_rng(417)


# -- subset entropies ------------------------------------------------------

def test_cache_full_set_matches_vn():
    for s in (make_ghz(4), make_classical(4), random_density((2, 2, 2), RNG)):
        assert abs(subset_entropies(s)[-1] - vn_entropy(s)) < 1e-10


def test_cache_symmetric_values_depend_on_size_only():
    h = subset_entropies(make_dicke(5, 2))
    assert abs(h[0b01001] - h[0b10010]) < 1e-12
    assert abs(h[0b00001] - h[0b10000]) < 1e-12


def test_cache_fill_policies_agree():
    # a few entropies memoized by multi_information, then the rest
    lazy, eager = (random_density((2, 2, 2), np.random.default_rng(0)) for _ in range(2))
    multi_information(lazy, (0, 2))
    assert sorted(lazy._entropies) == [0b001, 0b100, 0b101]
    assert _hex(subset_entropies(lazy)) == _hex(subset_entropies(eager))


def _shuffled_classical(dims, seed):
    """A classical table listed in random key order, with zero entries."""
    rng = np.random.default_rng(seed)
    keys = list(itertools.product(*(range(d) for d in dims)))
    p = rng.exponential(size=len(keys))
    p[rng.random(len(keys)) < 0.25] = 0.0
    p /= p.sum()
    return DensityState.from_probabilities(
        {keys[i]: float(p[i]) for i in rng.permutation(len(keys))}, dims)


ENGINE_STATES = {
    "dense-2^6": lambda: random_density((2,) * 6, np.random.default_rng(1)),
    "dense-2322": lambda: random_density((2, 3, 2, 2), np.random.default_rng(2)),
    "classical-random": lambda: random_classical((2,) * 6, np.random.default_rng(3)),
    "classical-shuffled-d3": lambda: _shuffled_classical((3,) * 4, 4),
    "classical-shuffled-2323": lambda: _shuffled_classical((2, 3, 2, 3), 5),
    "classical-digits-beyond-2^64": lambda: DensityState.from_probabilities(
        {(0, 2 ** 70, 1): 0.5, (1, 3, 1): 0.25, (0, 3, 0): 0.25}, (2, 2 ** 71, 2)),
    "pure-2^6": lambda: haar_state((2,) * 6, np.random.default_rng(6)),
    "pure-2323": lambda: haar_state((2, 3, 2, 3), np.random.default_rng(7)),
}


def _hex(values):
    return [v.hex() for v in values]


def _reference(state):
    return [0.0] + [subset_entropy(state, m) for m in range(1, 1 << state.n_parties)]


def _as_dense(state):
    """The state written as a validated dense matrix."""
    return DensityState.from_matrix(state.to_matrix(), state.dims)


#: Pure and dense states over local dimensions 2, 3 and 4, N = 1..8: Haar
#: and random mixed states, low-rank mixtures, products (whose marginal
#: spectra hold exact and ulp-noise zeros), GHZ and Dicke states as dense.
SPECTRAL_STATES = {
    "pure-2^8": lambda: haar_state((2,) * 8, np.random.default_rng(11)),
    "pure-4": lambda: haar_state((4,), np.random.default_rng(12)),
    "pure-3x2": lambda: haar_state((3, 2), np.random.default_rng(13)),
    "pure-243": lambda: haar_state((2, 4, 3), np.random.default_rng(27)),
    "pure-4324": lambda: haar_state((4, 3, 2, 4), np.random.default_rng(14)),
    "pure-3^6": lambda: haar_state((3,) * 6, np.random.default_rng(15)),
    "pure-2342232": lambda: haar_state((2, 3, 4, 2, 2, 3, 2), np.random.default_rng(16)),
    "pure-product": lambda: random_product_state((2, 1, 3), np.random.default_rng(17),
                                                 pure=True),
    "pure-product-d3": lambda: random_product_state((1, 2, 1), np.random.default_rng(18), 3,
                                                    pure=True),
    "dense-2^8": lambda: random_density((2,) * 8, np.random.default_rng(19)),
    "dense-3": lambda: random_density((3,), np.random.default_rng(20)),
    "dense-2x4": lambda: random_density((2, 4), np.random.default_rng(21)),
    "dense-423": lambda: random_density((4, 2, 3), np.random.default_rng(28)),
    "dense-33332": lambda: random_density((3, 3, 3, 3, 2), np.random.default_rng(22)),
    "dense-rank2-2^7": lambda: random_density((2,) * 7, np.random.default_rng(23), rank=2),
    "dense-rank3-4232": lambda: random_density((4, 2, 3, 2), np.random.default_rng(24), rank=3),
    "dense-product": lambda: random_product_state((2, 1, 2), np.random.default_rng(25)),
    "dense-ghz-8": lambda: _as_dense(make_ghz(8)),
    "dense-ghz-d3": lambda: _as_dense(make_ghz(4, 3)),
    "dense-dicke-6": lambda: _as_dense(make_dicke(6, 3)),
}


@pytest.mark.parametrize("name", ENGINE_STATES | SPECTRAL_STATES)
def test_all_entropies_match_the_per_subset_reference_bit_for_bit(name):
    state = (ENGINE_STATES | SPECTRAL_STATES)[name]()
    n = state.n_parties
    want = _hex(_reference(state))
    assert _hex(subset_entropies(state)) == want
    assert _hex(marginal_entropy(state, [i for i in range(n) if mask >> i & 1])
                for mask in range(1, 1 << n)) == want[1:]
    assert vn_entropy(state).hex() == want[-1]


@pytest.mark.parametrize("make", [lambda: _as_dense(make_ghz(6)), lambda: make_dicke(6, 2),
                                  lambda: _as_dense(make_dicke(5, 2))],
                         ids=["dense-ghz-6", "pure-dicke-6", "dense-dicke-5"])
def test_brute_profile_after_the_prefix_route_matches_a_fresh_one(make):
    state = make()
    assert profile(state, "auto").mode == "symmetric-fast"
    full = (1 << state.n_parties) - 1
    assert full in state._entropies and len(state._entropies) < full  # prefixes only
    after, fresh = profile(state, "brute"), profile(make(), "brute")
    assert _hex(after.dist) == _hex(fresh.dist) and after.argmin == fresh.argmin
    assert _hex(subset_entropies(state)) == _hex(subset_entropies(make()))


def test_dense_pass_holds_a_bounded_stack_and_reuses_the_stored_full_set(monkeypatch):
    state = _as_dense(random_density((2,) * 8, np.random.default_rng(26)))
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    tracemalloc.start()
    try:
        subset_entropies(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every marginal held at once would take 5.2 MB; the 256x256 matrix is not
    # diagonalized again
    assert peak < 2 * 2 ** 20, peak
    assert max(sizes) == 128


def test_pure_pass_holds_a_bounded_stack():
    state = haar_state((2,) * 12, np.random.default_rng(29))
    tracemalloc.start()
    try:
        subset_entropies(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every small-side matrix held at once would take about 160 MB
    assert peak < 8 * 2 ** 20, peak


def test_prefix_entropies_of_classical_256_match_the_reference():
    state = make_classical(256)
    assert (_hex(correlations._prefix_entropies(state, range(257)).tolist()[1:])
            == _hex(subset_entropy(state, (1 << s) - 1) for s in range(1, 257)))


def test_engine_traces_dense_marginals_from_parents_and_reuses_pure_complements(
        monkeypatch):
    traces, spectra, svds = [], [], []
    trace, eigvalsh, svd = np.trace, np.linalg.eigvalsh, np.linalg.svd

    def counting_trace(a, *args, **kwargs):
        out = trace(a, *args, **kwargs)
        traces.append((a.ndim // 2, out.ndim // 2))  # (parent, child) parties
        return out

    def counting_eigvalsh(a, *args, **kwargs):
        spectra.append(len(a) if a.ndim == 3 else 1)
        return eigvalsh(a, *args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svds.append(a.shape)
        return svd(a, *args, **kwargs)

    dense = ENGINE_STATES["dense-2^6"]()
    monkeypatch.setattr(np, "trace", counting_trace)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for k in range(1, 7):
        dist_to_pk(dense, k, mode="brute")
    # 63 subsets, each diagonalized once; 62 marginals, each traced from a
    # parent with one more party
    assert sum(spectra) == 63
    assert len(traces) == 62 and set(traces) == {(k, k - 1) for k in range(2, 7)}
    assert svds == []
    pure = subset_entropies(ENGINE_STATES["pure-2^6"]())
    # the 21 unbalanced pairs on their smaller side, the 20 balanced subsets
    # on both; the full set is 0.0 with no SVD
    rows = {}
    for count, kept, traced in svds:
        rows[kept, traced] = rows.get((kept, traced), 0) + count
    assert rows == {(2, 32): 6, (4, 16): 15, (8, 8): 20}
    assert pure[-1] == 0.0 and sum(spectra) == 63


@pytest.mark.parametrize("sites, message", [([0, 5], "out of range"),
                                             ([0, 0], "duplicates"),
                                             ([7], "out of range")],
                         ids=["out-of-range-pair", "duplicate", "out-of-range"])
def test_cache_rejects_bad_sites(sites, message):
    state = make_ghz(3)
    with pytest.raises(ArgumentError, match=message):
        multi_information(state, sites)
    assert state._entropies == {}


# -- dist_to_pk ------------------------------------------------------------

def test_dist_arguments():
    s = make_ghz(3)
    with pytest.raises(ArgumentError):
        dist_to_pk(s, 0)
    with pytest.raises(ArgumentError):
        dist_to_pk(s, 4)
    with pytest.raises(ArgumentError):
        dist_to_pk(s, 2, mode="bogus")
    with pytest.raises(CapacityError):
        dist_to_pk(make_classical(15), 2, mode="brute")


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None], ids=repr)
def test_profile_accessors_refuse_an_order_that_is_not_an_integer(k):
    # dist_at(True) was once dist(1); dist_at(2.5) and genuine_at(2.5) raised TypeError
    p = profile(make_ghz(4))
    for at in (p.dist_at, p.genuine_at):
        with pytest.raises(ArgumentError, match="order k must be an integer"):
            at(k)
        assert at(np.int64(2)) == at(2)


@pytest.mark.parametrize("cluster", [[0.5, 1.2], [0, 1.0], [True, 2]], ids=repr)
def test_multi_information_refuses_indices_that_are_not_integers(cluster):
    # [0.5, 1.2] was once the cluster {0, 1}
    state = make_ghz(3)
    with pytest.raises(ArgumentError, match="a party index must be an integer"):
        multi_information(state, cluster)
    assert multi_information(state, np.array([0, 1])) == multi_information(state, [0, 1])


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None], ids=repr)
@pytest.mark.parametrize("state", [make_classical(5), make_ghz(4)], ids=["classical", "pure"])
def test_dist_refuses_an_order_that_is_not_an_integer(state, k):
    # 2.5 once ran as k = 2 on a pure state; True was a party index
    with pytest.raises(ArgumentError, match="order k must be an integer"):
        dist_to_pk(state, k)
    for mode in ("auto", "brute"):
        assert dist_to_pk(state, np.int64(2), mode) == dist_to_pk(state, 2, mode)


def test_brute_cap_cannot_be_overridden():
    s = make_ghz(3)
    with pytest.raises(TypeError):
        dist_to_pk(s, 1, enum_cap=20)
    with pytest.raises(TypeError):
        profile(s, enum_cap=20)
    with pytest.raises(TypeError):
        neural_complexity(s, enum_cap=20)


def test_dist_fast_equals_brute_on_symmetric():
    for s in (make_ghz(5), make_dicke(6, 3), make_classical(6)):
        assert profile(s).mode == "symmetric-fast"
        for k in range(1, s.n_parties + 1):
            brute = dist_to_pk(s, k, mode="brute").value
            fast = dist_to_pk(s, k, mode="auto").value
            assert abs(brute - fast) < 1e-10


def test_dist_auto_mode_resolution():
    assert profile(make_ghz(4)).mode == "symmetric-fast"
    assert profile(tensor_product(haar_state((2,), RNG),
                                  haar_state((2,), RNG))).mode == "brute"
    # pairs {0, 2} and {1, 3}: the compact partition {0, 1}, {2, 3} is not optimal
    crossed = permute_subsystems(make_bell_product(4), (0, 2, 1, 3))
    prof = profile(crossed)
    assert prof.mode == "brute"
    assert prof.dist_at(2) < 1e-12
    assert prof.argmin[1].blocks == ((0, 2), (1, 3))
    # prefix entropies stand for every block only on an invariant state
    for forced in ("fast", "symmetric-fast"):
        with pytest.raises(ArgumentError, match="auto or brute"):
            profile(crossed, mode=forced)
        with pytest.raises(ArgumentError, match="auto or brute"):
            dist_to_pk(crossed, 2, mode=forced)


@pytest.mark.parametrize("mode, route", [("auto", "_compact_minima"),
                                         ("brute", "_partition_minima")])
def test_each_route_is_clamped_at_zero_within_the_window(monkeypatch, mode, route):
    real, shift = getattr(correlations, route), [-5e-10]
    monkeypatch.setattr(correlations, route,
                        lambda *args: [(shift[0], part) for _, part in real(*args)])
    state = make_ghz(3)
    assert profile(state, mode).dist == (0.0, 0.0, 0.0)
    assert dist_to_pk(state, 2, mode).value == 0.0
    shift[0] = -2e-9
    with pytest.raises(ConsistencyError, match=r"dist\(1\) evaluated to -2e-09, below"):
        profile(state, mode)
    with pytest.raises(ConsistencyError, match=r"dist\(3\) evaluated to -2e-09, below"):
        dist_to_pk(state, 3, mode)


def test_dist_argmin_canonical_tie_break():
    value, part = dist_to_pk(make_classical(5), 2, mode="brute")
    assert value == 2.0
    assert part.blocks == ((0, 1), (2, 3), (4,))  # first minimizer in order


def test_dist_equals_relative_entropy_to_argmin_product():
    from corrweave import relative_entropy
    s = haar_state((2, 2, 2), RNG)
    for k in (1, 2):
        value, part = dist_to_pk(s, k, mode="brute")
        prod = closest_product(s, part)
        assert abs(value - relative_entropy(s, prod)) < 1e-9


# -- profile -----------------------------------------------------------------

def test_profile_worked_classical_5():
    p = profile(make_classical(5), mode="brute")
    assert p.dist == (4.0, 2.0, 1.0, 1.0, 0.0)
    assert p.genuine == (2.0, 1.0, 0.0, 1.0)
    assert p.total == 4.0


def test_profile_ghz4():
    p = profile(make_ghz(4), mode="brute")
    assert p.dist == (4.0, 2.0, 2.0, 0.0)
    assert p.genuine == (2.0, 0.0, 2.0)


def test_profile_dicke42():
    p = profile(make_dicke(4, 2), mode="brute")
    assert abs(p.dist_at(2) - 2.503258334776) < 1e-11
    assert abs(p.genuine_at(4) - 2.0) < 1e-12


def test_profile_bell_product():
    p = profile(make_bell_product(4), mode="brute")
    assert abs(p.total - 4.0) < 1e-12
    assert all(v < 1e-12 for v in p.dist[1:])


def test_profile_shape_and_accessors():
    s = random_density((2, 2, 2), RNG)
    p = profile(s)
    assert len(p.dist) == 3 and len(p.genuine) == 2 and len(p.argmin) == 3
    assert all(later <= earlier + 1e-9
               for earlier, later in zip(p.dist, p.dist[1:]))  # non-increasing
    assert p.dist[-1] <= 1e-12
    assert abs(sum(p.genuine) - p.total) < 1e-8
    assert p.dist_at(1) == p.dist[0]
    with pytest.raises(ArgumentError):
        p.dist_at(4)
    with pytest.raises(ArgumentError):
        p.genuine_at(1)


def test_profile_single_party():
    p = profile(random_density((3,), RNG))
    assert p.dist == (0.0,) and p.genuine == () and p.total == 0.0


@pytest.mark.parametrize("state, mode", [
    (random_density((2, 3, 2), RNG), "brute"),
    (make_dicke(5, 2), "brute"),
    (make_dicke(5, 2), "auto"),
    (make_classical(6, 3), "auto"),
])
def test_profile_is_its_dist_through_from_dist(state, mode):
    p = profile(state, mode=mode)
    assert p.mode == ("symmetric-fast" if mode == "auto" else "brute")
    assert CorrelationProfile.from_dist(p.dist, p.argmin, p.mode) == p


def test_from_dist_clamps_a_rise_within_the_window():
    p = CorrelationProfile.from_dist([2.0, 2.0 + 5e-10, 0.0], mode="closed-form")
    assert p.genuine == (0.0, 2.0 + 5e-10)
    assert p.dist == (2.0, 2.0 + 5e-10, 0.0) and p.total == 2.0
    assert p.argmin is None and p.mode == "closed-form"


@pytest.mark.parametrize("dist, message", [
    ([2.0, 2.0 + 2e-9, 0.0], r"dist\(2\) = 2.000000002 exceeds dist\(1\)"),
    ([3.0, 1.0, 1.5, 0.0], r"dist\(3\) = 1.5 exceeds dist\(2\) = 1.0"),
    ([2.0, 1.0, 2e-9], r"dist\(3\) = 2e-09 but the trivial partition gives 0"),
])
def test_from_dist_raises_beyond_the_window(dist, message):
    with pytest.raises(ConsistencyError, match=message):
        CorrelationProfile.from_dist(dist)


def test_from_dist_refuses_an_empty_dist():
    with pytest.raises(ArgumentError, match="at least one order"):
        CorrelationProfile.from_dist([])


@pytest.mark.parametrize("dist, message", [
    ([1.0, math.nan, 0.0], r"dist\(2\) = nan is not finite"),
    ([math.inf, 1.0, 0.0], r"dist\(1\) = inf is not finite"),
    ([1.0, 0.0, -math.inf], r"dist\(3\) = -inf is not finite"),
])
def test_from_dist_refuses_a_non_finite_order(dist, message):
    with pytest.raises(NumericError, match=message) as caught:
        CorrelationProfile.from_dist(dist)
    assert type(caught.value) is NumericError  # not a consistency failure


def test_from_dist_genuine_is_each_drop_clamped_at_zero_bit_for_bit():
    for dist in ([1.0, 1.0, 0.0], [1.0, 1.0 + 1e-12, 1.0, 0.0], [3.0, 2.5, 0.5, 0.0]):
        expect = [max(a - b, 0.0).hex() for a, b in zip(dist, dist[1:])]
        assert [g.hex() for g in CorrelationProfile.from_dist(dist).genuine] == expect


# -- weights and weaving -------------------------------------------------------

def test_weight_scheme_named_forms():
    w = WeightScheme.order_weighted(4)
    assert w.omega == (1.0, 2.0, 3.0) and w.big_omega == (1.0, 1.0, 1.0)
    u = WeightScheme.uniform(4)
    assert u.omega == (1.0, 1.0, 1.0) and u.big_omega == (1.0, 0.0, 0.0)
    d = WeightScheme.delta(5, 3)
    assert d.omega == (0.0, 1.0, 0.0, 0.0)
    assert d.big_omega == (0.0, 1.0, -1.0, 0.0)


def test_weight_scheme_interconversion_exact():
    for _ in range(20):
        big = tuple(RNG.uniform(0, 3, size=5))
        w = WeightScheme.from_big_omega(big)
        acc = 0.0
        for i, om in enumerate(w.omega):
            acc += w.big_omega[i]
            assert om == acc  # bitwise
        w2 = WeightScheme.from_omega(RNG.uniform(0, 3, size=5))
        acc = 0.0
        for i, om in enumerate(w2.omega):
            acc += w2.big_omega[i]
            assert om == acc
    assert WeightScheme.from_omega([]) == WeightScheme.from_big_omega([])


def test_weight_scheme_validation():
    with pytest.raises(ArgumentError):
        WeightScheme.from_omega((1.0, -0.5))
    with pytest.raises(ArgumentError):
        WeightScheme.from_big_omega((-1.0,))
    with pytest.raises(ArgumentError):
        WeightScheme.order_weighted(0)
    assert WeightScheme.order_weighted(1).omega == ()
    with pytest.raises(ArgumentError):
        WeightScheme.delta(4, 5)


#: Weight schemes reading one size or order: (call, a value it accepts, a fraction)
_INTEGER_READS = {
    "order-weighted-n": (WeightScheme.order_weighted, 3, 3.0),
    "uniform-n": (WeightScheme.uniform, 3, 3.0),
    "delta-n": (lambda v: WeightScheme.delta(v, 2), 4, 4.0),
    "delta-k": (lambda v: WeightScheme.delta(4, v), 2, 2.5),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "None"])
@pytest.mark.parametrize("use", _INTEGER_READS)
def test_weight_schemes_refuse_values_that_are_not_integers(use, kind):
    call, good, fraction = _INTEGER_READS[use]
    value = {"float": fraction, "bool": True, "str": str(good), "None": None}[kind]
    with pytest.raises(ArgumentError, match=re.escape(f"must be an integer, got {value!r}")):
        call(value)
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weight_scheme_from_omega_rejects_non_finite(bad):
    for weights in ([bad, 1.0], [1.0, bad]):  # a NaN after a number hides from min and max
        with pytest.raises(ArgumentError, match="finite"):
            WeightScheme.from_omega(weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_weight_scheme_from_big_omega_rejects_non_finite(bad):
    for weights in ([bad, 1.0], [1.0, bad]):  # a NaN after a number hides from min and max
        with pytest.raises(ArgumentError, match="finite"):
            WeightScheme.from_big_omega(weights)


def test_weaving_values():
    p4 = profile(make_ghz(4), mode="brute")
    assert weaving(p4, WeightScheme.order_weighted(4)) == 8.0
    assert weaving(p4, WeightScheme.delta(4, 4)) == 2.0
    c5 = profile(make_classical(5), mode="brute")
    assert weaving(c5, WeightScheme.uniform(5)) == 4.0  # sums the genuine orders
    with pytest.raises(ArgumentError):
        weaving(p4, WeightScheme.order_weighted(5))


def test_weaving_that_overflows_is_a_numeric_error():
    # finite weights whose running sum, the omega form, is infinite
    p3 = profile(make_ghz(3))
    with pytest.raises(NumericError, match="not finite"):
        weaving(p3, WeightScheme.from_big_omega([1e308, 1e308]))
    assert weaving(p3, WeightScheme.from_big_omega([1e300, 1e300])) == pytest.approx(5e300)


# -- multi-information and neural complexity ------------------------------------

def test_multi_information_values():
    c = make_classical(2)
    assert abs(multi_information(c) - 1.0) < 1e-12
    assert abs(multi_information(make_classical(3), (0, 1)) - 1.0) < 1e-12
    prod = tensor_product(random_density((2,), RNG), random_density((2,), RNG))
    assert multi_information(prod) < 1e-10
    with pytest.raises(ArgumentError):
        multi_information(c, ())
    with pytest.raises(ArgumentError, match="duplicates"):
        multi_information(make_ghz(3), [0, 0])
    with pytest.raises(ArgumentError, match="out of range"):
        multi_information(make_ghz(3), [5])


def test_neural_complexity_values():
    assert abs(neural_complexity(make_ghz(3)) - 2.0) < 1e-10
    r2 = random_density((2, 2), RNG)
    r1 = random_density((2,), RNG)
    lhs = neural_complexity(tensor_product(r2, r1))
    assert abs(lhs - 4.0 / 3.0 * neural_complexity(r2)) < 1e-9
    assert neural_complexity(make_classical(15)) == 7.0
    with pytest.raises(CapacityError):
        neural_complexity(make_classical_pair_product(16))


def _depolarized_ghz(n, p):
    m = np.eye(2 ** n) * (p / 2 ** n)
    for i in (0, 2 ** n - 1):
        for j in (0, 2 ** n - 1):
            m[i, j] += (1 - p) / 2
    return DensityState.from_matrix(m, (2,) * n)


@pytest.mark.parametrize("state", [
    make_ghz(10), make_dicke(10, 4), make_classical(10), make_classical(6, 3),
    make_a_family(9, 0.6), _depolarized_ghz(6, 0.3),
], ids=["ghz", "dicke", "classical", "classical-d3", "a-family", "depolarized-ghz"])
def test_neural_complexity_invariant_formula_matches_subset_average(state):
    # the per-size average over all 2^N subsets, which every state may use
    n = state.n_parties
    assert is_permutation_invariant(state)
    h = subset_entropies(state)
    average = [sum(v for m, v in enumerate(h) if m.bit_count() == k) / math.comb(n, k)
               for k in range(n + 1)]
    expected = sum(average[k] - k / n * h[-1] for k in range(1, n))
    assert abs(neural_complexity(state) - expected) < 1e-12


def test_invariant_states_need_n_entropies():
    state = make_dicke(12, 6)
    profile(state)
    neural_complexity(state)
    assert len(state._entropies) <= 12
    # beyond the brute cap, and for any profile route
    assert neural_complexity(make_classical(20)) == 9.5
    ghz = make_ghz(4)
    profile(ghz, mode="brute")
    assert neural_complexity(ghz) == 3.0


@pytest.mark.parametrize("make", [lambda: make_classical(40), lambda: make_ghz(8),
                                  lambda: _depolarized_ghz(6, 0.3)],
                         ids=["classical-40", "ghz-8", "dense-depolarized-ghz-6"])
def test_invariant_route_computes_each_prefix_entropy_once(monkeypatch, make):
    state = make()
    n = state.n_parties
    stored = set(state._entropies)  # the full set of a validated dense state
    calls, passes = [], []
    real, real_pass = correlations.marginal_entropy, tensor._classical_prefix_entropies

    def counting(state, keep):
        calls.append(tuple(keep))
        return real(state, keep)

    def counting_pass(state):
        passes.append(state)
        return real_pass(state)

    monkeypatch.setattr(correlations, "marginal_entropy", counting)
    monkeypatch.setattr(tensor, "_classical_prefix_entropies", counting_pass)
    assert profile(state).mode == "symmetric-fast"
    neural_complexity(state)
    if state.is_classical:  # every prefix from one pass over the table
        assert calls == [] and passes == [state]
    else:
        assert passes == []
        assert sorted(calls) == [tuple(range(s)) for s in range(1, n + 1)
                                 if (1 << s) - 1 not in stored]


def test_subset_entropies_look_the_pure_pass_up_when_called(monkeypatch):
    state = haar_state((2, 3, 2), np.random.default_rng(30))
    passes = []
    real = tensor._pure_entropies

    def counting_pass(state):
        passes.append(state)
        return real(state)

    monkeypatch.setattr(tensor, "_pure_entropies", counting_pass)
    assert _hex(subset_entropies(state)) == _hex(_reference(state))
    subset_entropies(state)  # from the memo
    assert passes == [state]


def test_profile_beyond_its_cap_is_refused_before_any_work():
    state = make_classical(correlations.MAX_PROFILE_N + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"lists N\^2 argmin indices; "
                                                r"profiles are capped at N=4096"):
            profile(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert state.permutation_invariant is None and state._entropies == {}
    # a single order is not capped
    assert dist_to_pk(state, 2).value == 2048.0


def test_closest_product_reconstruction():
    from corrweave import SetPartition
    a = random_density((2, 2), RNG)
    b = random_density((2,), RNG)
    s = tensor_product(a, b)
    recon = closest_product(s, SetPartition([(0, 1), (2,)]))
    assert max_entry_distance(s, recon) < 1e-12
    # non-contiguous blocks: interleave the factors
    inter = permute_subsystems(s, (0, 2, 1))  # blocks now {0, 2} and {1}
    recon2 = closest_product(inter, SetPartition([(0, 2), (1,)]))
    assert max_entry_distance(inter, recon2) < 1e-12
    with pytest.raises(ArgumentError):
        closest_product(s, SetPartition([(0, 1)]))


def test_invariant_profile_partitions_hold_one_label_array_each():
    # classical:1000 holds 1000 compact partitions of 1000 parties; with an
    # index tuple each, its ints above 256 took 32.5 MB, and with tuples
    # sliced from one shared tuple of the ints 8.4 MB
    import tracemalloc

    state = make_classical(1000)
    tracemalloc.start()
    try:
        prof = profile(state)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert prof.mode == "symmetric-fast" and len(prof.argmin) == 1000
    assert held < 4e6, held
    assert [p.blocks for p in prof.argmin[:3]] == [
        tuple((i,) for i in range(1000)),
        tuple((i, i + 1) for i in range(0, 1000, 2)),
        tuple(tuple(range(i, min(i + 3, 1000))) for i in range(0, 1000, 3))]


# -- a source of entropies that is not a DensityState --------------------------

class _CutRankSource:
    """A graph state known only by its cut ranks, the entropy of each set of
    its vertices (Hein, Eisert & Briegel, PRA 69, 062311, 2004), reached
    through a representation row of its own.  Permuting a graph state's
    parties gives the state of the permuted graph, which is another state
    unless the graph is unchanged."""

    def __init__(self, adjacency):
        n = len(adjacency)
        self.n_parties, self.dims = n, (2,) * n
        self.permutation_invariant, self._entropies = None, {}
        self.table = cut_ranks(adjacency).astype(float)
        graph = np.array(adjacency)[:, None] >> np.arange(n) & 1
        self._rep_row = tensor._RepRow(
            lambda source: source.table.copy(), None,
            lambda source, keep: float(source.table[sum(1 << i for i in keep)]),
            lambda source, perm: float((graph[np.ix_(perm, perm)] != graph).any()))


def _graph_amplitudes(adjacency):
    """(-1)^(sum over edges of x_i x_j) / 2^(N/2), party 0 the most significant digit."""
    n = len(adjacency)
    x = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    upper = np.triu(np.array(adjacency)[:, None] >> np.arange(n) & 1, 1)
    return (-1.0) ** ((x @ upper) * x).sum(axis=1) / 2 ** (n / 2)


def _ring(n):
    return [1 << (i - 1) % n | 1 << (i + 1) % n for i in range(n)]


# the complete graph is invariant, so auto takes the prefixes through the row's entropy
@pytest.mark.parametrize("adjacency", [_ring(6), _ring(8), [0b111111 ^ 1 << i for i in range(6)]],
                         ids=["ring-6", "ring-8", "complete-6"])
def test_a_source_with_its_own_row_profiles_as_its_state(adjacency):
    n = len(adjacency)
    state = DensityState.from_amplitudes(_graph_amplitudes(adjacency), (2,) * n)
    for mode in ("brute", "auto"):
        source = _CutRankSource(adjacency)
        want, got = profile(state, mode), profile(source, mode)
        assert got.mode == want.mode
        for a, b in ((got.dist, want.dist), (got.genuine, want.genuine)):
            assert np.abs(np.subtract(a, b)).max() <= 1e-9, (mode, a, b)
        assert abs(neural_complexity(source) - neural_complexity(state)) <= 1e-9
        assert dist_to_pk(source, 2, mode).value == got.dist[1]
        cluster = (0, 1, 3)
        assert abs(multi_information(source, cluster) - multi_information(state, cluster)) <= 1e-9
    assert source.permutation_invariant == (adjacency != _ring(n))
    assert np.abs(np.subtract(subset_entropies(source), subset_entropies(state))).max() <= 1e-9
