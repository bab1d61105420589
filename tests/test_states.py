import itertools
import math
import re

import numpy as np
import pytest

from corrweave import (ArgumentError, CapacityError, StateFamily,
                       is_permutation_invariant, make_a_family,
                       make_bell_product, make_classical,
                       make_classical_pair_product, make_dicke, make_ghz,
                       permute_subsystems, tensor_product, vn_entropy)


def test_ghz_amplitudes():
    g = make_ghz(3)
    amps = g.amplitudes()
    assert abs(amps[0] - 1 / math.sqrt(2)) < 1e-15
    assert abs(amps[7] - 1 / math.sqrt(2)) < 1e-15
    assert np.count_nonzero(amps) == 2
    assert is_permutation_invariant(g) is True

    g3 = make_ghz(3, 3)
    assert abs(g3.amplitudes()[13] - 1 / math.sqrt(2)) < 1e-15  # |111> base 3
    with pytest.raises(ArgumentError):
        make_ghz(0)


def test_classical_table():
    c = make_classical(5)
    assert c.probabilities() == {(0,) * 5: 0.5, (1,) * 5: 0.5}
    assert abs(vn_entropy(make_classical(3, 4)) - 2.0) < 1e-15
    assert is_permutation_invariant(c) is True
    # the table is capped at MAX_CLASSICAL_DIGITS = 2^17 digits, before it is built
    assert make_classical(65536).n_parties == 65536
    with pytest.raises(CapacityError, match="2 entries x 65537 digits"):
        make_classical(65537)
    # past 2^64 entries the count is shown as base^power, or as the base alone at power 1
    with pytest.raises(CapacityError, match=r"table of 100000000000000000000 entries x 4 d"):
        make_classical(4, 10 ** 20)
    with pytest.raises(CapacityError, match=r"table of 2\^500 entries x 1000 d"):
        make_classical_pair_product(1000)


def test_dicke_lexicographic_amplitudes():
    d = make_dicke(3, 1)
    amps = d.amplitudes()
    coef = 1 / math.sqrt(3)
    # weight-1 strings 001, 010, 100 -> indices 1, 2, 4
    for idx in (1, 2, 4):
        assert abs(amps[idx] - coef) < 1e-15
    assert np.count_nonzero(amps) == 3
    assert np.count_nonzero(make_dicke(6, 3).amplitudes()) == 20
    # edge excitation numbers give product strings
    assert make_dicke(4, 0).amplitudes()[0] == 1.0
    assert make_dicke(4, 4).amplitudes()[-1] == 1.0
    with pytest.raises(ArgumentError):
        make_dicke(4, 5)


@pytest.mark.parametrize("n", range(1, 13))
def test_dicke_amplitudes_match_the_combinations_construction(n):
    for m in range(n + 1):
        want = np.zeros(2 ** n, dtype=complex)
        coef = 1 / math.sqrt(math.comb(n, m))
        for ones in itertools.combinations(range(n), m):
            want[sum(1 << (n - 1 - i) for i in ones)] = coef
        got = make_dicke(n, m).amplitudes()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, m)


#: Builders reading one size: (call, a size it accepts, a fraction)
_INTEGER_READS = {
    "ghz-n": (lambda v: make_ghz(v).amplitudes().tobytes(), 3, 3.0),
    "ghz-d": (lambda v: make_ghz(3, v).amplitudes().tobytes(), 3, 3.0),
    "classical-n": (lambda v: make_classical(v).probabilities(), 3, 3.0),
    "classical-d": (lambda v: make_classical(3, v).probabilities(), 2, 2.0),
    "dicke-n": (lambda v: make_dicke(v, 1).amplitudes().tobytes(), 4, 4.0),
    "dicke-m": (lambda v: make_dicke(4, v).amplitudes().tobytes(), 1, 1.5),
    "bell-product-n": (lambda v: make_bell_product(v).amplitudes().tobytes(), 4, 4.0),
    "bell-product-d": (lambda v: make_bell_product(2, v).amplitudes().tobytes(), 3, 3.0),
    "classical-pair-product-n": (lambda v: make_classical_pair_product(v).probabilities(),
                                 4, 4.0),
    "a-family-k": (lambda v: make_a_family(v, 0.6).amplitudes().tobytes(), 3, 3.0),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "None"])
@pytest.mark.parametrize("use", _INTEGER_READS)
def test_builders_refuse_values_that_are_not_integers(use, kind):
    call, good, fraction = _INTEGER_READS[use]
    value = {"float": fraction, "bool": True, "str": str(good), "None": None}[kind]
    with pytest.raises(ArgumentError, match=re.escape(f"must be an integer, got {value!r}")):
        call(value)
    assert call(np.int64(good)) == call(good)


def test_symmetric_families_bit_exact_under_permutation():
    for s in (make_ghz(4), make_dicke(4, 2), make_dicke(5, 1)):
        n = s.n_parties
        for perm in itertools.permutations(range(n)):
            p = permute_subsystems(s, perm)
            assert np.array_equal(p.amplitudes(), s.amplitudes())


def test_bell_product_matches_fold():
    b6 = make_bell_product(6)
    pair = make_bell_product(2)
    fold = tensor_product(tensor_product(pair, pair), pair)
    assert np.array_equal(b6.amplitudes(), fold.amplitudes())
    assert is_permutation_invariant(make_bell_product(2)) is True
    assert is_permutation_invariant(make_bell_product(4)) is False
    with pytest.raises(ArgumentError):
        make_bell_product(3)
    qd = make_bell_product(2, 3)
    assert abs(np.linalg.norm(qd.amplitudes()) - 1) < 1e-12


def test_classical_pair_product():
    s = make_classical_pair_product(4)
    table = s.probabilities()
    assert len(table) == 4
    assert table[(0, 0, 1, 1)] == 0.25
    assert (0, 1, 0, 1) not in table
    with pytest.raises(ArgumentError):
        make_classical_pair_product(5)
    # one entry per pair-bit string, capped at MAX_CLASSICAL_DIGITS digits
    assert len(make_classical_pair_product(24).probabilities()) == 4096
    with pytest.raises(CapacityError, match="8192 entries x 26 digits"):
        make_classical_pair_product(26)


def test_a_family_endpoints():
    g = make_a_family(3, 1 / math.sqrt(2))
    assert np.abs(g.amplitudes() - make_ghz(3).amplitudes()).max() < 1e-15
    zero = make_a_family(3, 1.0)
    assert zero.amplitudes()[0] == 1.0
    one = make_a_family(3, 0.0)
    assert one.amplitudes()[-1] == 1.0
    with pytest.raises(ArgumentError):
        make_a_family(3, 1.2)
    with pytest.raises(ArgumentError):
        make_a_family(0, 0.5)


def test_state_family_parsing():
    f = StateFamily.parse("dicke:4:2")
    assert f.family == "dicke" and f.n == 4 and f.m == 2
    assert f.build().n_parties == 4
    assert StateFamily.parse("ghz:5:3").d == 3
    assert StateFamily.parse("qudit-classical:4:3").family == "classical"
    assert StateFamily.parse("a-family:3:0.6").a == 0.6
    assert StateFamily.parse("classical-correlated:4").family == "classical"
    assert StateFamily.parse("bell-product:4").label() == "bell-product:4"
    assert StateFamily.parse("ghz:4:3").label() == "ghz:4:3"
    # the label names the amplitude that was computed, to its last digit
    for a in (0.123456789, 1 / math.sqrt(2), 1e-7, 0.0, 1.0):
        f = StateFamily("a-family", 3, a=a)
        assert StateFamily.parse(f.label()) == f, f.label()

    for bad in ("nosuch:3", "ghz", "dicke:4", "a-family:3", "ghz:x",
                "ghz:4:2:9", "classical-pair-product:4:2", "dicke:4:x",
                "ghz:4:x", "a-family:3:abc"):
        with pytest.raises(ArgumentError):
            StateFamily.parse(bad)


def test_family_build_types():
    assert StateFamily.parse("classical:20").build().is_classical
    assert StateFamily.parse("ghz:4").build().is_pure
    assert StateFamily.parse("classical-pair-product:6").build().is_classical
