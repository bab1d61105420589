import math

import pytest

import corrweave.correlations as correlations
import corrweave.properties as properties
from corrweave import ArgumentError, PartitionMinimum, dist_to_pk, run_property_suite

EXPECTED_NAMES = [
    "faithfulness-0S", "monotonicity-1S", "monotonicity-2S",
    "monotonicity-3D", "superadditivity-5S", "product-additivity",
    "weaving-dual-form", "weaving-contractivity",
]


def test_suite_passes_and_names():
    results = run_property_suite(1234, trials=25)
    assert [r.name for r in results] == EXPECTED_NAMES
    assert all(r.passed for r in results)
    assert all(r.trials == 25 for r in results)
    assert all(r.worst_margin <= r.tolerance for r in results)



def test_negative_seed_is_an_argument_error():
    with pytest.raises(ArgumentError, match=r"need a seed >= 0, got -1"):
        run_property_suite(-1, 1)
    assert issubclass(ArgumentError, ValueError)  # callers catching ValueError still work


def test_zero_trials_is_an_argument_error():
    with pytest.raises(ArgumentError, match=r"need at least 1 trial, got 0"):
        run_property_suite(1234, 0)


def test_suite_deterministic():
    a = run_property_suite(77, trials=10)
    b = run_property_suite(77, trials=10)
    assert [r.worst_margin for r in a] == [r.worst_margin for r in b]
    c = run_property_suite(78, trials=10)
    assert [r.worst_margin for r in a] != [r.worst_margin for r in c]


def test_injected_fault_is_detected():
    results = run_property_suite(1234, trials=6,
                                 perturb_dist=lambda v: v - 1e-3)
    failed = {r.name for r in results if not r.passed}
    assert "faithfulness-0S" in failed
    assert "product-additivity" in failed
    # an honest rerun still passes
    assert all(r.passed for r in run_property_suite(1234, trials=6))


def test_a_nan_distance_fails_every_property_that_reads_one():
    results = run_property_suite(1234, 5, perturb_dist=lambda v: math.nan)
    assert [r.name for r in results if r.passed] == ["superadditivity-5S"]
    assert all(math.isnan(r.worst_margin) for r in results if not r.passed)


def test_each_entropy_is_computed_once_per_state(monkeypatch):
    seen, states = set(), []
    real = correlations.marginal_entropy

    def counting(state, keep):
        states.append(state)  # keeps every id in use for the whole run
        key = (id(state), tuple(keep))
        assert key not in seen, f"entropy of {keep} computed twice"
        seen.add(key)
        return real(state, keep)

    monkeypatch.setattr(correlations, "marginal_entropy", counting)
    assert all(r.passed for r in run_property_suite(1234, trials=3))
    assert seen


@pytest.mark.parametrize("perturb", [None, lambda v: v - 1e-3], ids=["honest", "perturbed"])
@pytest.mark.parametrize("seed", [0, 1, 1234])
def test_one_pass_per_state_gives_the_per_order_results(monkeypatch, seed, perturb):
    got = run_property_suite(seed, 10, perturb_dist=perturb)

    def per_order(state, orders, perturb):
        minima = [dist_to_pk(state, k, "brute") for k in orders]
        return [PartitionMinimum(v if perturb is None else perturb(v), part)
                for v, part in minima]

    monkeypatch.setattr(properties, "_dists", per_order)
    assert got == run_property_suite(seed, 10, perturb_dist=perturb)
