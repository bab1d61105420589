import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from corrweave import (ArgumentError, CapacityError, ClosedFormFamily,
                       NumericError, WeightScheme, binary_entropy, cf_dist,
                       cf_genuine, cf_profile, cf_scaling_sweep, cf_weaving,
                       StateFamily, dicke_marginal_entropy, make_dicke,
                       partial_trace, profile, vn_entropy, weaving)
from corrweave.closed_forms import (CF_FAMILIES, FAMILIES, MAX_CLOSED_FORM_N,
                                    _beyond_mode, _dist_array,
                                    dicke_block_entropies)
from oracles import cf_dist_per_k, dicke_entropy_per_k, dicke_spectrum_per_k


def test_family_validation():
    with pytest.raises(ArgumentError):
        ClosedFormFamily("nosuch", 4)
    with pytest.raises(ArgumentError):
        ClosedFormFamily("bell-product", 5)  # needs even n
    with pytest.raises(ArgumentError):
        ClosedFormFamily("dicke-half", 3)
    with pytest.raises(ArgumentError):
        ClosedFormFamily("a-family", 3)  # amplitude missing
    with pytest.raises(ArgumentError):
        ClosedFormFamily("a-family", 3, a=1.5)
    with pytest.raises(ArgumentError):
        ClosedFormFamily("ghz", 4, a=0.5)  # amplitude not accepted
    with pytest.raises(ArgumentError):
        ClosedFormFamily("ghz", 0)
    for family, extra in (("dicke-1", {}), ("dicke-half", {}),
                          ("classical-pair-product", {}), ("a-family", {"a": 0.5})):
        with pytest.raises(ArgumentError, match=f"family {family} takes no local dimension"):
            ClosedFormFamily(family, 4, d=3, **extra)  # d not accepted
    ClosedFormFamily("ghz", MAX_CLOSED_FORM_N)
    with pytest.raises(CapacityError, match="capped at N=65536"):
        ClosedFormFamily("ghz", MAX_CLOSED_FORM_N + 1)
    with pytest.raises(CapacityError):
        cf_scaling_sweep("ghz", [8, 2 ** 40])


#: Closed forms reading one size or order: (call, a value it accepts, a
#: fraction it once took or truncated)
_INTEGER_READS = {
    "family-n": (lambda v: cf_profile(ClosedFormFamily("ghz", v)).dist, 4, 4.0),
    "family-d": (lambda v: cf_profile(ClosedFormFamily("classical", 4, d=v)).dist, 3, 3.0),
    "sweep-n": (lambda v: cf_scaling_sweep("ghz", [v]), 8, 8.5),
    "dicke-n": (lambda v: dicke_marginal_entropy(v, 1, 2), 4, 4.0),
    "dicke-m": (lambda v: dicke_marginal_entropy(4, v, 2), 1, 1.5),
    "dicke-k": (lambda v: dicke_marginal_entropy(4, 1, v), 2, 2.0),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "None"])
@pytest.mark.parametrize("use", _INTEGER_READS)
def test_closed_forms_refuse_values_that_are_not_integers(use, kind):
    call, good, fraction = _INTEGER_READS[use]
    value = {"float": fraction, "bool": True, "str": str(good), "None": None}[kind]
    with pytest.raises(ArgumentError, match=re.escape(f"must be an integer, got {value!r}")):
        call(value)
    assert call(np.int64(good)) == call(good)


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.36) - 0.9426831892554922) < 1e-14
    with pytest.raises(ArgumentError):
        binary_entropy(1.2)


# (n, m, k) rows: half-filled ones up to n = 4096, edge fillings, and short
# spectra whose terms are checked against exact combinatorics
_EXACT_ROWS = ((6, 3, 2), (9, 4, 5), (12, 6, 7), (30, 15, 11))
_SINGLE_ROWS = sorted({(n, n // 2, k) for n in (4, 16, 256, 4096)
                       for k in (1, 2, n // 3 or 1, n // 2, n - 1, n)}
                      | {(8, 1, 5), (4097, 2048, 17), (4096, 1, 2048)}
                      | set(_EXACT_ROWS))


def test_hypergeometric_spectrum_normalized():
    # the k-site Dicke spectrum whose entropies dicke_block_entropies must
    # reproduce stays normalized to 1e-12 at any k, n in the thousands too
    for n, m, k in _SINGLE_ROWS:
        p = dicke_spectrum_per_k(n, m, k)
        assert abs(p.sum() - 1.0) < 1e-12, (n, m, k)
        assert (p >= 0).all(), (n, m, k)
    assert dicke_spectrum_per_k(4, 2, 4).tolist() == [1.0]


def test_hypergeometric_spectrum_matches_exact_combinatorics():
    for n, m, k in _EXACT_ROWS:
        p = dicke_spectrum_per_k(n, m, k)
        lo, hi = max(0, m - (n - k)), min(k, m)
        exact = [math.comb(k, i) * math.comb(n - k, m - i) / math.comb(n, m)
                 for i in range(lo, hi + 1)]
        assert np.abs(p - np.asarray(exact)).max() < 1e-15
        assert (dicke_block_entropies(n, m, [k])[0].hex()
                == dicke_entropy_per_k(n, m, k).hex()), (n, m, k)


def test_dicke_rows_match_the_per_k_oracle_bit_for_bit():
    for n, m, k in _SINGLE_ROWS:
        want = dicke_entropy_per_k(n, m, k).hex()
        assert dicke_block_entropies(n, m, [k])[0].hex() == want, (n, m, k)
    # the same rows taken together, one call per (n, m)
    for n, m in sorted({(n, m) for n, m, _ in _SINGLE_ROWS}):
        ks = [k for n2, m2, k in _SINGLE_ROWS if (n2, m2) == (n, m)]
        assert [h.hex() for h in dicke_block_entropies(n, m, ks).tolist()] == [
            dicke_entropy_per_k(n, m, k).hex() for k in ks], (n, m)


@pytest.mark.parametrize("args", [(4, 1, [2.5]), (4.0, 1, [2]), (4, True, [2])], ids=repr)
def test_dicke_block_entropies_refuse_sizes_that_are_not_integers(args):
    # these once gave the k = 2 entropy, an IndexError, and m read as 1
    with pytest.raises(ArgumentError, match="must be (an )?integers?, got"):
        dicke_block_entropies(*args)
    assert dicke_block_entropies(4, 1, []).tolist() == []
    assert (dicke_block_entropies(np.int64(4), np.int64(1), np.array([2], np.uint8)).tolist()
            == dicke_block_entropies(4, 1, [2]).tolist() == [1.0])


def test_dicke_marginal_entropy_matches_matrix():
    for n, m, k in ((6, 2, 3), (5, 1, 2), (4, 2, 1)):
        marg = partial_trace(make_dicke(n, m), tuple(range(k)))
        assert abs(dicke_marginal_entropy(n, m, k) - vn_entropy(marg)) < 1e-12
    assert dicke_marginal_entropy(6, 3, 6) == 0.0


def test_dicke_marginal_entropy_of_the_whole_state_is_plus_zero():
    for n in range(1, 65):
        for m in range(n + 1):
            h = dicke_marginal_entropy(n, m, n)
            assert h == 0.0 and math.copysign(1.0, h) == 1.0, (n, m)


def _exact_dicke_entropy(n, m, k):
    """The k-site Dicke marginal entropy in bits, from exact probabilities
    and 40-digit logarithms."""
    with localcontext() as ctx:
        ctx.prec = 40
        h = Decimal(0)
        for i in range(max(0, m - (n - k)), min(k, m) + 1):
            p = Fraction(math.comb(k, i) * math.comb(n - k, m - i), math.comb(n, m))
            num, den = Decimal(p.numerator), Decimal(p.denominator)
            h += num / den * (den / num).ln()
        return h / Decimal(2).ln()


def test_dicke_marginal_entropy_matches_exact_oracle():
    for n in range(2, 65):
        for m in sorted({1, 2, n // 2} - {n}):
            for k in range(1, n):
                exact = _exact_dicke_entropy(n, m, k)
                got = Decimal(dicke_marginal_entropy(n, m, k))
                assert abs(got - exact) <= Decimal("1e-13") * exact, (n, m, k)


def test_batched_dicke_entropies_match_the_per_k_oracle_bit_for_bit():
    # every m for n <= 64, and the edge and middle fillings of larger n,
    # checked at every step-th k (the offset moving with m) and at k = n
    grid = [(n, m) for n in range(1, 65) for m in range(n + 1)]
    grid += [(n, m) for n in (100, 255, 256, 257, 1024, 1500, 2048)
             for m in sorted({0, 1, 2, n // 3, n // 2, n - 1, n})]
    # whole half-filled tables of n <= 64: odd and even rows in one chunk,
    # with the row k = n, whose terms below the mode are none
    for n in range(2, 65, 2):
        table = dicke_block_entropies(n, n // 2, range(1, n + 1))
        assert [h.hex() for h in table.tolist()] == [
            dicke_entropy_per_k(n, n // 2, k).hex() for k in range(1, n + 1)], n
    for n, m in grid:
        step = max(8, n // 32)
        ks = [*range(1 + m % step, n, step), n]
        # a table of n <= 64 rows is one chunk, so its sampled rows take the
        # path of the whole table; larger tables run whole, in several chunks
        table = dicke_block_entropies(n, m, range(1, n + 1) if n > 64 else ks)
        got = [table[k - 1] for k in ks] if n > 64 else table.tolist()
        assert [h.hex() for h in got] == [
            dicke_entropy_per_k(n, m, k).hex() for k in ks], (n, m)
        assert got[-1] == 0.0 and math.copysign(1.0, got[-1]) == 1.0  # h(n) = +0.0
    # half-filled rows whose tails underflow to 0 are on the grid
    for n in (1500, 2048):
        assert (dicke_spectrum_per_k(n, n // 2, n // 2) == 0).any(), n


def test_dicke_terms_past_the_first_tile_have_the_same_bits():
    # (n, m, k) = (2048, 1024, 1024) from its mode i0 = 512: the terms
    # above it underflow to 0 before the last one, i = 1024
    n, m, k, i0 = 2048, 1024, np.array([[1024.0]]), np.array([[512.0]])
    whole = np.zeros((1, 512))
    assert _beyond_mode(whole, n, m, k, i0, 512) == 512
    assert 0 < (whole > 0).sum() < 512
    for tile in (1, 7, 100):
        part = np.zeros((1, 512))
        filled = _beyond_mode(part, n, m, k, i0, tile)
        assert filled < 512 and part.tobytes() == whole.tobytes(), tile


@pytest.mark.parametrize("family", CF_FAMILIES)
def test_dist_array_matches_the_per_k_oracle_bit_for_bit(family):
    row = FAMILIES[family]
    params = {"d": [{"d": d} for d in (2, 3, 5)],
              "a": [{"a": a} for a in (0.0, 0.5, 0.6, 1.0)]}.get(row.param, [{}])
    for n in [*range(1, 65), 100, 255, 256, 257, 1000, 1024, 4096]:
        if row.even_only and n % 2:
            continue
        for extra in params:
            fam = ClosedFormFamily(family, n, **extra)
            want = [cf_dist_per_k(fam, k).hex() for k in range(1, n + 1)]
            assert [x.hex() for x in _dist_array(fam).tolist()] == want, (n, extra)
            ks = sorted({1, min(2, n), max(n // 2, 1), n})
            assert [cf_dist(fam, k).hex() for k in ks] == [want[k - 1] for k in ks]


def test_cf_dist_ghz_and_classical():
    ghz4 = ClosedFormFamily("ghz", 4)
    assert [cf_dist(ghz4, k) for k in range(1, 5)] == [4.0, 2.0, 2.0, 0.0]
    c5 = ClosedFormFamily("classical", 5)
    assert [cf_dist(c5, k) for k in range(1, 6)] == [4.0, 2.0, 1.0, 1.0, 0.0]
    q = ClosedFormFamily("qudit-classical", 4, d=3)
    assert abs(cf_dist(q, 1) - 3 * math.log2(3)) < 1e-14
    with pytest.raises(ArgumentError):
        cf_dist(ghz4, 5)


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2", None], ids=repr)
def test_cf_dist_refuses_an_order_that_is_not_an_integer(k):
    # 2.5 and 2.0 once raised IndexError, and True was dist(1)
    ghz4 = ClosedFormFamily("ghz", 4)
    with pytest.raises(ArgumentError, match="order k must be an integer"):
        cf_dist(ghz4, k)
    assert cf_dist(ghz4, np.int64(2)) == cf_dist(ghz4, 2) == 2.0


def test_cf_dist_products():
    bell = ClosedFormFamily("bell-product", 6)
    assert cf_dist(bell, 1) == 6.0
    assert all(cf_dist(bell, k) == 0.0 for k in range(2, 7))
    qbell = ClosedFormFamily("qudit-bell-product", 4, d=3)
    assert abs(cf_dist(qbell, 1) - 4 * math.log2(3)) < 1e-14
    pairs = ClosedFormFamily("classical-pair-product", 6)
    assert cf_dist(pairs, 1) == 3.0 and cf_dist(pairs, 2) == 0.0


def test_cf_genuine_ghz_ceiling_formula():
    for n in range(3, 9):
        fam = ClosedFormFamily("ghz", n)
        assert cf_genuine(fam, n) == 2.0
        for k in range(2, n):
            expect = math.ceil(n / (k - 1)) - math.ceil(n / k)
            assert cf_genuine(fam, k) == float(expect)


def test_cf_a_family_scales_with_binary_entropy():
    fam = ClosedFormFamily("a-family", 3, a=0.6)
    h = binary_entropy(0.36)
    assert abs(cf_dist(fam, 1) - 3 * h) < 1e-14
    assert abs(cf_genuine(fam, 3) - 2 * h) < 1e-14
    ghz_like = ClosedFormFamily("a-family", 4, a=1 / math.sqrt(2))
    for k in range(1, 5):
        assert abs(cf_dist(ghz_like, k)
                   - cf_dist(ClosedFormFamily("ghz", 4), k)) < 1e-12


def test_cf_matches_brute_profile_small_n():
    from corrweave import (make_bell_product, make_classical,
                           make_classical_pair_product, make_ghz)
    cases = [
        (ClosedFormFamily("dicke-1", 4), make_dicke(4, 1)),
        (ClosedFormFamily("dicke-half", 4), make_dicke(4, 2)),
        (ClosedFormFamily("ghz", 5), make_ghz(5)),
        (ClosedFormFamily("classical", 4, d=3), make_classical(4, 3)),
        (ClosedFormFamily("bell-product", 4), make_bell_product(4)),
        (ClosedFormFamily("classical-pair-product", 4),
         make_classical_pair_product(4)),
    ]
    for fam, state in cases:
        p = profile(state, mode="brute")
        for k in range(1, fam.n + 1):
            assert abs(cf_dist(fam, k) - p.dist_at(k)) < 1e-9


def test_cf_weaving():
    ghz4 = ClosedFormFamily("ghz", 4)
    assert cf_weaving(ghz4, WeightScheme.order_weighted(4)) == 8.0
    # uniform weights collapse to the total correlations
    c5 = ClosedFormFamily("classical", 5)
    assert cf_weaving(c5, WeightScheme.uniform(5)) == cf_dist(c5, 1)
    with pytest.raises(ArgumentError):
        cf_weaving(ghz4, WeightScheme.order_weighted(5))


def test_cf_weaving_classical_vs_ghz_identity():
    # classical differs from ghz only by log2(d)=1 at each of the N-1 orders
    for n in (4, 8, 16):
        w_ghz = cf_weaving(ClosedFormFamily("ghz", n), WeightScheme.order_weighted(n))
        w_cls = cf_weaving(ClosedFormFamily("classical", n),
                           WeightScheme.order_weighted(n))
        assert w_cls == w_ghz - (n - 1)


def test_cf_profile_is_the_closed_form_dist_through_from_dist():
    fam = ClosedFormFamily("dicke-half", 6)
    prof = cf_profile(fam)
    assert prof.dist == tuple(cf_dist(fam, k) for k in range(1, 7))
    assert prof.genuine == tuple(max(a - b, 0.0) for a, b in zip(prof.dist, prof.dist[1:]))
    assert prof.total == prof.dist[0] and prof.n == 6
    assert prof.argmin is None and prof.mode == "closed-form"
    assert cf_profile(ClosedFormFamily("ghz", 1)).dist == (0.0,)


@pytest.mark.parametrize("family, n", [
    *((f, MAX_CLOSED_FORM_N) for f in ("ghz", "classical", "qudit-classical", "a-family",
                                       "bell-product", "qudit-bell-product",
                                       "classical-pair-product")),
    ("dicke-1", 4096), ("dicke-half", 4096)])
def test_cf_profile_passes_every_check_at_large_n(family, n):
    fam = ClosedFormFamily(family, n, d=3 if family.startswith("qudit") else 2,
                           a=0.6 if family == "a-family" else None)
    prof = cf_profile(fam)  # monotone, ends at 0, sums back to the total
    for spec in ("k-1", "delta:2", f"delta:{n // 2}"):
        assert math.isfinite(weaving(prof, WeightScheme.named(spec, n)))  # dual forms agree
    assert weaving(prof, WeightScheme.uniform(n)) == pytest.approx(prof.total, rel=1e-12)


def test_cf_scaling_sweep():
    pts = cf_scaling_sweep("bell-product", (8, 16, 32))
    assert [p.n for p in pts] == [8, 16, 32]
    assert all(p.normalization == "n" and p.coefficient == 1.0 for p in pts)
    ghz = cf_scaling_sweep("ghz", (64,))
    assert ghz[0].normalization == "n*log2(n)"
    assert abs(ghz[0].coefficient - ghz[0].weaving / (64 * 6)) < 1e-15
    dh = cf_scaling_sweep("dicke-half", (64,))
    assert dh[0].normalization == "n^2"
    af = cf_scaling_sweep("a-family", (8,), a=0.6)
    assert af[0].weaving > 0
    with pytest.raises(ArgumentError):
        cf_scaling_sweep("ghz", (8,), weights="bogus")


@pytest.mark.parametrize("family", ["dicke-1", "dicke-half"])
@pytest.mark.parametrize("n", [7, 64, 257])
def test_memoized_block_entropies_match_a_fresh_instance_bit_for_bit(family, n):
    n += family == "dicke-half" and n % 2  # dicke-half needs even n
    fam = ClosedFormFamily(family, n)

    def fresh():
        return ClosedFormFamily(family, n)

    cf_dist(fam, 1)
    memo = fam._h
    for k in range(1, n + 1):
        assert cf_dist(fam, k).hex() == cf_dist(fresh(), k).hex()
    once = cf_profile(fresh())
    for k in range(2, n + 1):
        assert cf_genuine(fam, k).hex() == once.genuine_at(k).hex()
    for weights in (WeightScheme.order_weighted(n), WeightScheme.delta(n, 2)):
        assert cf_weaving(fam, weights).hex() == weaving(once, weights).hex()
    assert fam._h is memo and memo.shape == (n + 1,)  # each h(s), s < N, computed once


def test_memo_takes_no_part_in_equality_or_hashing():
    filled, empty = ClosedFormFamily("dicke-half", 16), ClosedFormFamily("dicke-half", 16)
    cf_weaving(filled, WeightScheme.order_weighted(16))
    assert filled._h is not None and empty._h is None
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert len({filled, empty}) == 1


@pytest.mark.parametrize("family, excitations, sizes", [
    ("dicke-1", lambda n: 1, [*range(2, 301), 1024, 4095, 4096]),
    ("dicke-half", lambda n: n // 2, [*range(2, 301, 2), 1024, 4096])])
def test_mirrored_block_entropies_match_the_full_pass_bit_for_bit(
        family, excitations, sizes):
    for n in sizes:
        table = FAMILIES[family].h(ClosedFormFamily(family, n))
        full = dicke_block_entropies(n, excitations(n), range(1, n))
        assert [h.hex() for h in table.tolist()] == [
            "0x0.0p+0", *(h.hex() for h in full.tolist()), "0x0.0p+0"], n


@pytest.mark.parametrize("family", [f.name for f in FAMILIES.values() if f.excitations])
def test_dicke_rows_build_the_state_of_their_excitation_count(family):
    row = FAMILIES[family]
    for n in (2, 4, 6, 10):
        state = StateFamily(family, n).build()
        assert np.array_equal(state.amplitudes(),
                              make_dicke(n, row.excitations(n)).amplitudes()), n


@pytest.mark.parametrize("family, n", [("ghz", 3), ("dicke-1", 3), ("dicke-half", 4)])
def test_cf_weaving_that_overflows_is_a_numeric_error(family, n):
    fam = ClosedFormFamily(family, n)
    with pytest.raises(NumericError, match="not finite"):
        cf_weaving(fam, WeightScheme.from_big_omega([1e308] * (n - 1)))
    assert math.isfinite(cf_weaving(fam, WeightScheme.from_big_omega([1e300] * (n - 1))))
