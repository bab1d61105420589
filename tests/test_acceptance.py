"""Acceptance gate: the package's headline numeric guarantees, end to end.

Each test prints one ``CRITERION n: PASS`` / ``CRITERION n: FAIL`` line
(run ``pytest tests/test_acceptance.py -v -s`` to see them) and then
asserts, so a violated guarantee fails the suite loudly.  Tolerances are
part of the contract and are pinned inline.
"""

import math
import time

import numpy as np

from corrweave import (ClosedFormFamily, DensityState, KrausChannel,
                       StateFamily, WeightScheme, apply_channel,
                       binary_entropy, cf_dist, cf_genuine, cf_profile,
                       cf_scaling_sweep, cf_weaving, dist_to_pk,
                       enumerate_partitions, make_a_family, make_classical,
                       make_dicke, make_ghz, neural_complexity, partial_trace,
                       profile, random_density, random_product_state,
                       run_property_suite, tensor_product, weaving)
from oracles import count_partitions

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


def _report(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_family_table_closed_forms_match_matrix_pipeline():
    """CRITERION 1: every family-table entry (per-order genuine values,
    total, and weaving with omega_k = k-1) from the closed forms, read one
    by one and from the family's :func:`cf_profile`, matches a full
    matrix-pipeline recomputation within 1e-8 bits, for N in {2,4,6,8} at
    d=2 and N in {4,6} at d=3, in under 2 minutes."""
    qubit_families = ("classical-pair-product", "classical", "bell-product",
                      "ghz", "dicke-1", "dicke-half")
    qudit_families = ("qudit-classical", "qudit-bell-product")
    cases = [(f, n, 2) for n in (2, 4, 6, 8)
             for f in qubit_families + qudit_families]
    cases += [(f, n, 3) for n in (4, 6) for f in qudit_families]
    t0 = time.monotonic()
    worst = 0.0
    for family, n, d in cases:
        fam = ClosedFormFamily(family, n, d=d)
        scheme = WeightScheme.order_weighted(n)
        prof = profile(StateFamily(family, n, d=d).build(), mode="brute")
        devs = [abs(cf_dist(fam, k) - prof.dist[k - 1]) for k in range(1, n + 1)]
        devs += [abs(cf_genuine(fam, k) - prof.genuine[k - 2])
                 for k in range(2, n + 1)]
        devs.append(abs(cf_dist(fam, 1) - prof.total))
        devs.append(abs(cf_weaving(fam, scheme) - weaving(prof, scheme)))
        cf = cf_profile(fam)
        devs += [abs(a - b) for a, b in zip(cf.dist + cf.genuine, prof.dist + prof.genuine)]
        devs.append(abs(cf.total - prof.total))
        devs.append(abs(weaving(cf, scheme) - weaving(prof, scheme)))
        worst = max(worst, max(devs))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 120.0
    _report(1, ok, f"{len(cases)} rows, max dev {worst:.2e}, {elapsed:.1f}s")


def test_five_bit_worked_example_profile():
    """CRITERION 2: the 5-bit perfectly correlated state has genuine
    correlations (2, 1, 0, 1) to 1e-10, and discarding one bit leaves a
    4-bit state whose top-order genuine correlations equal 1."""
    state = make_classical(5)
    prof = profile(state)
    dev = max(abs(g - t) for g, t in zip(prof.genuine, (2.0, 1.0, 0.0, 1.0)))
    reduced = partial_trace(state, (0, 1, 2, 3))
    top = profile(reduced).genuine[-1]
    ok = dev <= 1e-10 and abs(top - 1.0) <= 1e-10
    _report(2, ok, f"genuine dev {dev:.2e}, reduced top-order "
                   f"genuine {top:.12f}")


def test_dicke_closed_forms_and_nonvanishing_orders():
    """CRITERION 3: single-excitation and half-filled Dicke closed forms
    match the matrix pipeline within 1e-8 for N in {4,6} at every order,
    and every genuine order of the half-filled family exceeds 1e-6."""
    worst = 0.0
    min_half = math.inf
    for n in (4, 6):
        for m in (1, n // 2):
            fam = ClosedFormFamily("dicke-1" if m == 1 else "dicke-half", n)
            prof = profile(make_dicke(n, m), mode="brute")
            devs = [abs(cf_dist(fam, k) - prof.dist[k - 1])
                    for k in range(1, n + 1)]
            devs += [abs(cf_genuine(fam, k) - prof.genuine[k - 2])
                     for k in range(2, n + 1)]
            worst = max(worst, max(devs))
            if m == n // 2:
                min_half = min(min_half, min(prof.genuine))
    ok = worst <= 1e-8 and min_half > 1e-6
    _report(3, ok, f"max dev {worst:.2e}, smallest half-filled "
                   f"genuine order {min_half:.3e}")


def test_ghz_genuine_orders_are_ceiling_differences():
    """CRITERION 4: for GHZ on N in {3..8}, top-order genuine correlations
    equal 2 bits to 1e-10, and every order 2 <= k < N matches the integer
    ceil(N/(k-1)) - ceil(N/k) exactly (to 1e-10 and as rounded integer)."""
    worst_top = 0.0
    worst_mid = 0.0
    integers_match = True
    for n in range(3, 9):
        prof = profile(make_ghz(n), mode="brute")
        worst_top = max(worst_top, abs(prof.genuine[-1] - 2.0))
        for k in range(2, n):
            value = prof.genuine[k - 2]
            formula = math.ceil(n / (k - 1)) - math.ceil(n / k)
            worst_mid = max(worst_mid, abs(value - formula))
            integers_match &= int(round(value)) == formula
    ok = worst_top <= 1e-10 and worst_mid <= 1e-10 and integers_match
    _report(4, ok, f"top dev {worst_top:.2e}, ceiling-formula dev "
                   f"{worst_mid:.2e}, integer match {integers_match}")


def test_cnot_extends_correlation_order_preserving_value():
    """CRITERION 5: appending a fresh |0> and applying CNOT from the last
    party turns the k-party two-branch state into its (k+1)-party
    analogue: top-order genuine correlations agree within 1e-9 and equal
    2*h2(a^2)."""
    zero = DensityState.from_amplitudes([1.0, 0.0], (2,))
    worst_step = 0.0
    worst_value = 0.0
    for k in (2, 3):
        for a in (0.3, 0.6, 1 / math.sqrt(2)):
            before = make_a_family(k, a)
            g_before = profile(before).genuine[-1]
            extended = tensor_product(before, zero)
            after = apply_channel(extended, KrausChannel([CNOT], (k - 1, k)))
            g_after = profile(after).genuine[-1]
            common = 2.0 * binary_entropy(a * a)
            worst_step = max(worst_step, abs(g_after - g_before))
            worst_value = max(worst_value, abs(g_before - common),
                              abs(g_after - common))
    ok = worst_step <= 1e-9 and worst_value <= 1e-9
    _report(5, ok, f"k->k+1 dev {worst_step:.2e}, "
                   f"2*h2(a^2) dev {worst_value:.2e}")


def test_large_n_weaving_scaling_bands():
    """CRITERION 6: closed-form sweeps at N=4096 land in the expected
    bands (dicke-1 weaving/N within 15% of 2.61; dicke-half weaving/N^2
    within 25% of 0.01) and the ghz weaving index grows super-linearly
    (weaving/N strictly increasing over N = 2^6..2^12), in under 1 min."""
    t0 = time.monotonic()
    c1 = cf_scaling_sweep("dicke-1", [4096])[0].coefficient
    ch = cf_scaling_sweep("dicke-half", [4096])[0].coefficient
    ghz_points = cf_scaling_sweep("ghz", [2 ** e for e in range(6, 13)])
    per_n = [p.weaving / p.n for p in ghz_points]
    increasing = all(b > a for a, b in zip(per_n, per_n[1:]))
    elapsed = time.monotonic() - t0
    ok = (abs(c1 - 2.61) <= 0.15 * 2.61
          and abs(ch - 0.01) <= 0.25 * 0.01
          and increasing and elapsed < 60.0)
    _report(6, ok, f"dicke-1 {c1:.4f} vs 2.61, dicke-half {ch:.5f} vs 0.01, "
                   f"ghz super-linear {increasing}, {elapsed:.1f}s")


def test_randomized_property_suite_has_no_violations():
    """CRITERION 7: the randomized property suite (faithfulness,
    extension/channel/discard monotonicity, superadditivity, product
    additivity, dual-form equality, contractivity) at a fixed seed with
    200 trials per property reports zero violations beyond 1e-8, in
    under 5 minutes."""
    t0 = time.monotonic()
    results = run_property_suite(seed=1234, trials=200)
    elapsed = time.monotonic() - t0
    all_pass = all(r.passed for r in results)
    trials_ok = all(r.trials >= 200 for r in results)
    worst = max(r.worst_margin for r in results)
    ok = all_pass and trials_ok and len(results) == 8 and elapsed < 300.0
    _report(7, ok, f"8 properties x 200 trials, worst margin {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_neural_complexity_padding_identity_and_products():
    """CRITERION 8: appending an uncorrelated qubit rescales neural
    complexity by exactly 4/3 (50 random two-qubit states, 1e-9), and
    products of single-party states carry zero complexity (1e-10)."""
    rng = np.random.default_rng(20240817)
    worst_pad = 0.0
    for _ in range(50):
        rho2 = random_density((2, 2), rng)
        rho1 = random_density((2,), rng)
        joint = tensor_product(rho2, rho1)
        dev = abs(neural_complexity(joint) - (4.0 / 3.0) * neural_complexity(rho2))
        worst_pad = max(worst_pad, dev)
    worst_prod = 0.0
    for parties in (3, 4):
        for _ in range(5):
            prod = random_product_state((1,) * parties, rng)
            worst_prod = max(worst_prod, abs(neural_complexity(prod)))
    ok = worst_pad <= 1e-9 and worst_prod <= 1e-10
    _report(8, ok, f"4/3-identity dev {worst_pad:.2e}, "
                   f"product dev {worst_prod:.2e}")


def _entropy_bits_direct(matrix):
    w = np.linalg.eigvalsh(0.5 * (matrix + matrix.conj().T))
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def test_partition_minimum_routes_agree_and_counts_are_exact():
    """CRITERION 9: for 20 random 4-partite states the library's
    cached-sum partition minimum equals an independent in-test
    recomputation (own eigendecomposition, no caching), and
    count_partitions equals the enumeration length for every N <= 10
    and every block-size cap."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(20):
        state = random_density((2, 2, 2, 2), rng)
        joint = _entropy_bits_direct(state.to_matrix())
        for k in range(1, 5):
            lib = dist_to_pk(state, k, mode="brute").value
            best = math.inf
            for part in enumerate_partitions(4, k):
                total = sum(
                    _entropy_bits_direct(partial_trace(state, block).to_matrix())
                    for block in part.blocks)
                best = min(best, total - joint)
            best = max(best, 0.0)
            worst = max(worst, abs(lib - best))
    counts_ok = all(
        count_partitions(n, kmax) == sum(1 for _ in enumerate_partitions(n, kmax))
        for n in range(1, 11) for kmax in range(1, n + 1))
    ok = worst <= 1e-12 and counts_ok
    _report(9, ok, f"route dev {worst:.2e}, partition counts exact {counts_ok}")
