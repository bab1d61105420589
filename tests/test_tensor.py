import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import cut_ranks, marginal_table, subset_entropy

from corrweave import tensor
from corrweave import (ArgumentError, CapacityError, DensityState, KrausChannel,
                       StateFamily, apply_channel, is_permutation_invariant, make_bell_product,
                       make_classical, make_dicke, make_ghz, marginal_entropy,
                       max_entry_distance, partial_trace, permute_subsystems,
                       profile, relative_entropy, subset_entropies, tensor_product,
                       vn_entropy)
from corrweave.random_states import (haar_state, haar_unitary, random_channel,
                                     random_classical, random_density)
from corrweave.tensor import (EIG_CLIP, _classical_entropies, _classical_prefix_entropies,
                             _dense_dim, _segment_sums)

RNG = np.random.default_rng(90210)

CNOT = np.array([[1, 0, 0, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1],
                 [0, 0, 1, 0]], dtype=complex)


# -- construction and validation ----------------------------------------

def test_from_matrix_validation():
    good = np.eye(4) / 4
    s = DensityState.from_matrix(good, (2, 2))
    assert s.rep == "dense" and s.dims == (2, 2) and s.dim == 4

    with pytest.raises(ArgumentError):
        DensityState.from_matrix(good, (2, 3))
    bad = good + 1e-8 * np.array([[0, 1j], [0, 0]]).repeat(2, 0).repeat(2, 1)
    with pytest.raises(ArgumentError):
        DensityState.from_matrix(bad, (2, 2))  # not Hermitian
    with pytest.raises(ArgumentError):
        DensityState.from_matrix(np.eye(4), (2, 2))  # trace 4
    neg = np.diag([0.6, 0.5, -0.1, 0.0])
    with pytest.raises(ArgumentError):
        DensityState.from_matrix(neg, (2, 2))


@pytest.mark.parametrize("n", range(1, 9))
def test_validated_matrix_keeps_the_entropy_of_its_psd_check(n):
    rng = np.random.default_rng(4100 + n)
    dims = (2,) * n
    full = (1 << n) - 1
    for rank in (1, None):
        m = random_density(dims, rng, rank=rank).to_matrix()
        strided = np.zeros((2 * len(m), 2 * len(m)), dtype=complex)
        strided[::2, ::2] = m
        for matrix in (m, np.asfortranarray(m), strided[::2, ::2]):
            state = DensityState.from_matrix(matrix, dims)
            assert list(state._entropies) == [full]
            want = vn_entropy(DensityState.from_matrix(matrix, dims, validate=False))
            assert state._entropies[full].hex() == want.hex()


def test_from_amplitudes_validation():
    s = DensityState.from_amplitudes([1, 0, 0, 0], (2, 2))
    assert s.is_pure and vn_entropy(s) == 0.0
    with pytest.raises(ArgumentError):
        DensityState.from_amplitudes([1, 1, 0, 0], (2, 2))  # norm sqrt(2)
    with pytest.raises(ArgumentError):
        DensityState.from_amplitudes([1, 0], (2, 2))


def test_from_probabilities_validation():
    s = DensityState.from_probabilities({(0, 0): 0.5, (1, 1): 0.5}, (2, 2))
    assert s.is_classical
    with pytest.raises(ArgumentError):
        DensityState.from_probabilities({(0, 2): 1.0}, (2, 2))  # digit >= dim
    with pytest.raises(ArgumentError):
        DensityState.from_probabilities({(0,): 0.9}, (2,))  # sums to 0.9
    with pytest.raises(ArgumentError):
        DensityState.from_probabilities({(0, 0): 1.5, (1, 1): -0.5}, (2, 2))
    with pytest.raises(ArgumentError):
        DensityState.from_probabilities({(0,): 1.0}, (1,))  # dim < 2


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ArgumentError, match="NaN or infinite"):
        DensityState.from_matrix([[bad, 0], [0, 1]], (2,))
    DensityState.from_matrix([[bad, 0], [0, 1]], (2,), validate=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_amplitudes_rejects_non_finite_entries(bad):
    with pytest.raises(ArgumentError, match="NaN or infinite"):
        DensityState.from_amplitudes([bad, 0], (2,))
    DensityState.from_amplitudes([bad, 0], (2,), validate=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_from_probabilities_rejects_non_finite_entries(bad):
    with pytest.raises(ArgumentError, match="non-finite"):
        DensityState.from_probabilities({(0,): bad, (1,): 1.0}, (2,))


def test_capacity_limits():
    amps = np.zeros(2 ** 12)
    amps[0] = 1.0
    assert DensityState.from_amplitudes(amps, (2,) * 12).n_parties == 12
    # 2^13 = 8192 is past the fixed dense cap at every entry point
    half = DensityState.from_amplitudes(amps, (2,) * 12, validate=False)
    refusals = (
        lambda: DensityState.from_amplitudes(np.zeros(2 ** 13), (2,) * 13),
        lambda: DensityState.from_matrix(np.eye(2), (2,) * 13),
        lambda: make_classical(13).to_matrix(),
        lambda: tensor_product(half, make_ghz(1)),
        lambda: make_ghz(13))
    for refuse in refusals:
        with pytest.raises(CapacityError) as info:
            refuse()
        assert str(info.value) == "total dimension 2^13 exceeds the dense capacity limit 4096"
        assert "max_dim" not in str(info.value) and "; " not in str(info.value)
    # classical tables are exempt from the dense cap
    wide = make_classical(30)
    assert wide.dim == 2 ** 30
    with pytest.raises(CapacityError):
        wide.to_matrix()


def test_pure_tensor_product_past_the_cap_is_refused_before_it_allocates():
    ghz = make_ghz(12)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"total dimension 2\^24 exceeds"):
            tensor_product(ghz, ghz)  # a 2^24-entry complex vector is 256 MB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_capacity_errors_give_the_dimension_as_powers():
    # 2^15000 has more decimal digits than Python will print
    with pytest.raises(CapacityError, match=r"total dimension 2\^15000 exceeds"):
        DensityState.from_amplitudes([], (2,) * 15000)
    with pytest.raises(CapacityError, match=r"total dimension 2\^15000 exceeds"):
        make_classical(15000).to_matrix()
    with pytest.raises(CapacityError, match=r"total dimension 2\^6 x 3\^4 x 5 exceeds"):
        DensityState.from_matrix(np.eye(2), (2,) * 6 + (3,) * 4 + (5,))
    # family builders refuse at once, before any number near d^N is formed
    for refuse, d in ((lambda: make_ghz(10 ** 12), 2), (lambda: make_dicke(10 ** 12, 1), 2),
                      (lambda: make_bell_product(10 ** 12, 3), 3)):
        with pytest.raises(CapacityError, match=rf"total dimension {d}\^1000000000000 exceeds"):
            refuse()


@pytest.mark.parametrize("d", [2, 3, 4, 5, 64, 65, 4096, 4097])
def test_dense_dim_of_a_mapping_matches_the_sequence(d):
    for n in range(1, 14):
        outcomes = []
        for dims in ({d: n}, (d,) * n):
            try:
                outcomes.append(_dense_dim(dims))
            except CapacityError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], (d, n)
        assert outcomes[0] == (d ** n if d ** n <= 4096 else
                               f"total dimension {d if n == 1 else f'{d}^{n}'} "
                               "exceeds the dense capacity limit 4096"), (d, n)


def test_matrix_materialization_routes():
    pure = haar_state((2, 2), RNG)
    m = pure.to_matrix()
    assert abs(np.trace(m) - 1) < 1e-12
    cl = make_classical(2)
    expect = np.diag([0.5, 0, 0, 0.5])
    assert np.abs(cl.to_matrix() - expect).max() == 0.0


# -- tensor products ------------------------------------------------------

def test_tensor_product_rep_rules():
    bell = make_bell_product(2)
    both = tensor_product(bell, bell)
    assert both.is_pure and both.dims == (2, 2, 2, 2)
    assert np.array_equal(both.amplitudes(), make_bell_product(4).amplitudes())

    cc = tensor_product(make_classical(2), make_classical(3))
    assert cc.is_classical and cc.dims == (2,) * 5

    mixed = tensor_product(bell, random_density((2,), RNG))
    assert mixed.rep == "dense"

    kron = np.kron(bell.to_matrix(), make_classical(2).to_matrix())
    assert max_entry_distance(tensor_product(bell, make_classical(2)),
                              DensityState.from_matrix(kron, (2,) * 4)) < 1e-14


def test_tensor_product_classical_uncapped():
    a = make_classical(20)
    b = make_classical(15)
    ab = tensor_product(a, b)
    assert ab.dims == (2,) * 35 and ab.is_classical
    with pytest.raises(CapacityError):
        tensor_product(make_ghz(7), make_ghz(7))  # 2^14 dense


# -- partial trace ---------------------------------------------------------

def test_partial_trace_ghz():
    marg = partial_trace(make_ghz(3), (0, 1))
    assert max_entry_distance(marg, make_classical(2)) < 1e-15
    assert is_permutation_invariant(marg) is True


def test_partial_trace_args_and_reps():
    s = make_ghz(3)
    assert partial_trace(s, (0, 1, 2)) is s
    with pytest.raises(ArgumentError):
        partial_trace(s, ())
    with pytest.raises(ArgumentError):
        partial_trace(s, (0, 0))
    with pytest.raises(ArgumentError):
        partial_trace(s, (0, 3))
    cl = partial_trace(make_classical(4), (1, 3))
    assert cl.is_classical and cl.dims == (2, 2)


def test_partial_trace_trace_preserved():
    for s in (random_density((2, 3, 2), RNG), haar_state((2, 2, 2), RNG),
              random_classical((2, 2, 2), RNG)):
        for keep in ((0,), (0, 2), (1,)):
            m = partial_trace(s, keep)
            assert abs(np.trace(m.to_matrix()).real - 1.0) < 1e-12


def test_marginal_entropy_routes_agree():
    # pure SVD route vs dense eigendecomposition of the same marginal
    s = haar_state((2, 2, 3), RNG)
    for keep in ((0,), (1, 2), (0, 2)):
        via_svd = marginal_entropy(s, keep)
        via_dense = vn_entropy(partial_trace(s, keep))
        assert abs(via_svd - via_dense) < 1e-10
    # classical table route vs materialized diagonal
    c = random_classical((2, 2, 2), RNG)
    dense = DensityState.from_matrix(c.to_matrix(), c.dims)
    for keep in ((0,), (0, 1), (1, 2)):
        assert abs(marginal_entropy(c, keep) - marginal_entropy(dense, keep)) < 1e-10
    # every subset, through the three all-subsets passes: a classical table and
    # a pure state each against the same state as a dense matrix
    rng = np.random.default_rng(239)
    for n in range(2, 6):
        for _ in range(3):
            dims = tuple(rng.choice([2, 3], size=n).tolist())
            table, amps = random_classical(dims, rng), haar_state(dims, rng).amplitudes()
            for state, matrix in ((table, table.to_matrix()),
                                  (DensityState.from_amplitudes(amps, dims),
                                   np.outer(amps, amps.conj()))):
                want = subset_entropies(DensityState.from_matrix(matrix, dims))
                assert np.abs(np.subtract(subset_entropies(state), want)).max() <= 1e-12, dims


# -- entropies --------------------------------------------------------------

def test_vn_entropy_values():
    assert vn_entropy(make_ghz(5)) == 0.0
    mixed = DensityState.from_matrix(np.eye(4) / 4, (2, 2))
    assert abs(vn_entropy(mixed) - 2.0) < 1e-12  # bits, not nats
    assert abs(vn_entropy(make_classical(1, 2)) - 1.0) < 1e-15
    assert abs(vn_entropy(make_classical(3, 4)) - 2.0) < 1e-15


def test_zero_entropies_are_positive_zero():
    # -(1.0 * log2(1.0)) is -0.0, and a sum of -0.0 terms prints as -0.0
    for value in (marginal_entropy(make_dicke(3, 3), [0]),
                  vn_entropy(partial_trace(make_dicke(3, 3), [0, 1])),
                  vn_entropy(DensityState.from_matrix(np.diag([1.0, 0.0]), (2,)))):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_segment_sums_are_each_segments_own_add_reduce():
    # signed zeros, subnormals and normals near both ends of the range keep
    # numpy's bits, in segments of one or two terms as in longer ones
    rng = np.random.default_rng(508)
    specials = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    for _ in range(300):
        lengths = rng.integers(1, rng.choice([2, 3, 4, 20, 301]), size=rng.integers(1, 30))
        stops = np.cumsum(lengths)
        starts, size = stops - lengths, int(stops[-1])
        pool = rng.choice(specials, size=rng.integers(1, 7), replace=False)
        normals = rng.standard_normal(size) * 10.0 ** rng.choice([-300, 300], size)
        a = np.where(rng.random(size) < rng.choice([0.5, 1.0]), rng.choice(pool, size), normals)
        want = np.array([np.add.reduce(a[i:j]) for i, j in zip(starts, stops)])
        assert _segment_sums(a, starts, stops).tobytes() == want.tobytes(), (a, lengths)


def test_vn_entropy_unitary_invariance():
    for _ in range(20):
        s = random_density((2, 2), RNG)
        u = haar_unitary(4, RNG)
        rotated = DensityState.from_matrix(u @ s.to_matrix() @ u.conj().T, (2, 2))
        assert abs(vn_entropy(rotated) - vn_entropy(s)) < 1e-9


def test_relative_entropy_basics():
    r = random_density((2, 2), RNG)
    assert abs(relative_entropy(r, r)) < 1e-12
    for _ in range(20):
        a = random_density((2, 2), RNG)
        b = random_density((2, 2), RNG)
        v = relative_entropy(a, b)
        assert v > 1e-6  # distinct full-rank states keep a gap
    with pytest.raises(ArgumentError):
        relative_entropy(random_density((2, 2), RNG), random_density((4,), RNG))


def test_relative_entropy_support():
    mixed = random_density((2,), RNG)
    pure = haar_state((2,), RNG)
    assert relative_entropy(mixed, pure) == math.inf
    assert relative_entropy(pure, mixed) < math.inf
    # classical tables: disjoint support
    p = DensityState.from_probabilities({(0,): 1.0}, (2,))
    q = DensityState.from_probabilities({(1,): 1.0}, (2,))
    assert relative_entropy(p, q) == math.inf
    assert relative_entropy(p, p) == 0.0


def test_relative_entropy_classical_matches_dense():
    p = random_classical((2, 2), RNG)
    q = random_classical((2, 2), RNG)
    sparse = relative_entropy(p, q)
    dense = relative_entropy(DensityState.from_matrix(p.to_matrix(), p.dims),
                             DensityState.from_matrix(q.to_matrix(), q.dims))
    assert abs(sparse - dense) < 1e-10


def test_relative_entropy_contracts_under_channels():
    for _ in range(30):
        a = random_density((2, 2), RNG)
        b = random_density((2, 2), RNG)
        ch = random_channel(2, int(RNG.integers(2, 5)), RNG,
                            targets=(int(RNG.integers(2)),))
        before = relative_entropy(a, b)
        after = relative_entropy(apply_channel(a, ch), apply_channel(b, ch))
        assert after <= before + 1e-8


def test_entropy_subadditivity():
    for _ in range(20):
        s = random_density((2, 2), RNG)
        total = vn_entropy(s)
        assert total <= (marginal_entropy(s, (0,))
                         + marginal_entropy(s, (1,)) + 1e-10)


# -- channels ----------------------------------------------------------------

def test_kraus_validation():
    with pytest.raises(ArgumentError):
        KrausChannel([np.eye(2) * 0.5], (0,))  # incomplete
    with pytest.raises(ArgumentError):
        KrausChannel([], (0,))
    with pytest.raises(ArgumentError):
        KrausChannel([np.eye(2)], (0, 0))
    with pytest.raises(ArgumentError, match="Kraus operators must share one square shape"):
        KrausChannel([np.eye(2) / 2, np.eye(4) / 2], (0,))
    ch = KrausChannel([np.eye(4)], (0, 1))
    with pytest.raises(ArgumentError):
        apply_channel(make_ghz(3, 3), ch)  # 4 != 9
    with pytest.raises(ArgumentError):
        apply_channel(make_ghz(2), KrausChannel([np.eye(2)], (5,)))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):  # a NaN passes the completeness check
        with pytest.raises(ArgumentError, match="NaN or infinite entry"):
            KrausChannel([[[1.0, bad], [0.0, 1.0]]], (0,))


def test_identity_and_unitary_channels():
    s = haar_state((2, 2), RNG)
    out = apply_channel(s, KrausChannel([np.eye(4)], (0, 1)))
    assert out.is_pure and max_entry_distance(out, s) < 1e-12

    ten = DensityState.from_amplitudes([0, 0, 1, 0], (2, 2))  # |10>
    flipped = apply_channel(ten, KrausChannel([CNOT], (0, 1)))
    assert abs(flipped.amplitudes()[3] - 1.0) < 1e-12  # |11>
    # control on subsystem 1 instead: |01> -> |11>
    one = DensityState.from_amplitudes([0, 1, 0, 0], (2, 2))
    out = apply_channel(one, KrausChannel([CNOT], (1, 0)))
    assert abs(out.amplitudes()[3] - 1.0) < 1e-12


def test_depolarizing_channel():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
    depol = KrausChannel([p / 2 for p in paulis], (0,))
    bell = make_bell_product(2)
    out = apply_channel(bell, depol)
    assert max_entry_distance(
        out, DensityState.from_matrix(np.eye(4) / 4, (2, 2))) < 1e-12


def test_channel_on_nonadjacent_targets():
    # cross-check the tensor contraction against a permutation detour
    s = random_density((2, 2, 2), RNG)
    ch = random_channel(4, 3, RNG, targets=(0, 2))
    direct = apply_channel(s, ch)
    detour = permute_subsystems(s, (0, 2, 1))
    detour = apply_channel(detour, KrausChannel(ch.kraus, (0, 1)))
    detour = permute_subsystems(detour, (0, 2, 1))
    assert max_entry_distance(direct, detour) < 1e-12


def test_channel_on_classical_input():
    ch = random_channel(2, 2, RNG, targets=(1,))
    out = apply_channel(make_classical(3), ch)
    assert out.rep == "dense"
    assert abs(np.trace(out.to_matrix()).real - 1.0) < 1e-10


def test_permute_subsystems():
    s = random_density((2, 3, 2), RNG)
    p = permute_subsystems(s, (2, 0, 1))
    assert p.dims == (2, 2, 3)
    assert max_entry_distance(partial_trace(p, (0,)), partial_trace(s, (2,))) < 1e-14
    back = permute_subsystems(p, (1, 2, 0))
    assert max_entry_distance(back, s) < 1e-14
    with pytest.raises(ArgumentError):
        permute_subsystems(s, (0, 1))


# -- permutation invariance ---------------------------------------------------

def test_permutation_invariance_detection():
    assert is_permutation_invariant(make_ghz(4)) is True
    assert is_permutation_invariant(make_dicke(5, 2)) is True
    prod = tensor_product(haar_state((2,), RNG), haar_state((2,), RNG))
    assert prod.permutation_invariant is None
    assert is_permutation_invariant(prod) is False
    assert prod.permutation_invariant is False  # verdict cached

    # a symmetric state built from raw amplitudes is detected
    w = DensityState.from_amplitudes(
        np.array([0, 1, 1, 0, 1, 0, 0, 0]) / math.sqrt(3), (2, 2, 2))
    assert is_permutation_invariant(w) is True

    hetero = tensor_product(make_classical(1, 2), make_classical(1, 3))
    assert is_permutation_invariant(hetero) is False


def test_permutation_invariance_cannot_be_declared_or_loosened():
    amps = make_bell_product(4).amplitudes()
    with pytest.raises(TypeError):
        DensityState.from_amplitudes(amps, (2,) * 4, permutation_invariant=True)
    with pytest.raises(TypeError):
        DensityState.from_matrix(np.outer(amps, amps.conj()), (2,) * 4,
                                 permutation_invariant=True)
    with pytest.raises(TypeError):
        DensityState.from_probabilities({(0, 0): 1.0}, (2, 2), permutation_invariant=True)
    with pytest.raises(TypeError):
        DensityState((2,) * 4, "pure", _amps=amps, permutation_invariant=True)
    with pytest.raises(TypeError):
        is_permutation_invariant(make_bell_product(4), tol=1.0)


def test_range_keep_sets_give_the_bits_and_errors_of_lists():
    rng = np.random.default_rng(31)
    states = [haar_state((2, 3, 2, 2), rng), random_density((2, 2, 3), rng),
              random_classical((3, 2, 2, 2), rng), make_classical(300)]
    for state in states:
        n = state.n_parties
        keeps = [range(s) for s in range(1, n + 1)] + [
            range(1, n), range(0, n, 2), range(n - 1, -1, -1), range(n - 1, 0, -2)]
        for keep in keeps:
            assert (marginal_entropy(state, keep).hex()
                    == marginal_entropy(state, list(keep)).hex()), (state, keep)
            if n <= 4:
                assert (partial_trace(state, keep).to_matrix().tobytes()
                        == partial_trace(state, list(keep)).to_matrix().tobytes())
    state = make_ghz(3)
    for keep, message in [(range(0), "keep-set must be nonempty"),
                          (range(2, 2), "keep-set must be nonempty"),
                          (range(4), "keep-set (0, 1, 2, 3) out of range for 3 subsystems"),
                          (range(-1, 2), "keep-set (-1, 0, 1) out of range for 3 subsystems"),
                          (range(1, 6, 2), "keep-set (1, 3, 5) out of range for 3 subsystems")]:
        for form in (keep, list(keep)):
            with pytest.raises(ArgumentError) as exc:
                marginal_entropy(state, form)
            assert str(exc.value) == message, form


@pytest.mark.parametrize("keep", [[0.5], [1.7], [0, 2.0], ["1"], [True], [None]], ids=repr)
@pytest.mark.parametrize("call", [marginal_entropy,
                                  lambda s, keep: partial_trace(s, keep).to_matrix().tobytes()],
                         ids=["marginal_entropy", "partial_trace"])
def test_keep_sets_refuse_indices_that_are_not_integers(call, keep):
    # 0.5 was once read as party 0, 1.7 as party 1
    state = make_bell_product(4)
    with pytest.raises(ArgumentError, match="a party index must be an integer"):
        call(state, keep)
    want = call(state, [0, 2])
    assert call(state, np.array([2, 0])) == call(state, [np.uint8(0), 2]) == want


#: Reads of one integer in each constructor: (call, an integer it accepts,
#: a fraction it once truncated silently)
_INTEGER_READS = {
    "local-dimension": (lambda v: DensityState.from_amplitudes([1, 0, 0, 0], (v, 2)).dims,
                        2, 2.9),
    "digit": (lambda v: DensityState.from_probabilities({(v, 1): 1.0}, (2, 2)).probabilities(),
              1, 0.7),
    "permutation": (lambda v: permute_subsystems(make_ghz(2), [v, 0]).amplitudes().tobytes(),
                    1, 1.9),
    "kraus-target": (lambda v: KrausChannel([np.eye(2)], [v]).targets, 0, 0.5),
}


@pytest.mark.parametrize("kind", ["float", "bool", "str", "None"])
@pytest.mark.parametrize("use", _INTEGER_READS)
def test_constructors_refuse_values_that_are_not_integers(use, kind):
    call, good, fraction = _INTEGER_READS[use]
    value = {"float": fraction, "bool": True, "str": str(good), "None": None}[kind]
    with pytest.raises(ArgumentError, match=re.escape(f"must be an integer, got {value!r}")):
        call(value)
    assert call(np.int64(good)) == call(good)


# -- the classical subset-entropy table ------------------------------------

@st.composite
def _sparse_tables(draw):
    """A classical state with up to 9 parties of local dimension 2..10
    (one of them, at times, beyond 2^64), 1..300 rows, some parties fixed
    to one digit so that many rows share their kept digits, and some
    probabilities just above or below ``EIG_CLIP``."""
    n = draw(st.integers(1, 9))
    dims = draw(st.lists(st.integers(2, 10), min_size=n, max_size=n))
    rows = draw(st.integers(1, 300))
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    huge = draw(st.sampled_from([None, *range(n)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    digits = rng.integers(0, dims, size=(rows, n))
    digits[:, fixed] = 0
    keys = list(dict.fromkeys(map(tuple, digits.tolist())))
    p = rng.exponential(size=len(keys))
    tiny = rng.random(len(keys)) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    p[tiny] = EIG_CLIP * rng.uniform(0.3, 3.0, size=tiny.sum()) * p.sum()
    p /= p.sum()
    if huge is not None:  # digits 0..9 spread over a dimension beyond 2^64
        dims[huge] = 2 ** 70
        keys = [k[:huge] + (k[huge] * 2 ** 66 + 5,) + k[huge + 1:] for k in keys]
    return DensityState.from_probabilities(dict(zip(keys, p.tolist())), dims,
                                           validate=False)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=_sparse_tables())
def test_classical_table_matches_each_marginal_entropy_bit_for_bit(state):
    n = state.n_parties
    table = _classical_entropies(state).tolist()
    assert table[0] == 0.0
    for mask in range(1, 1 << n):
        keep = [i for i in range(n) if mask >> i & 1]
        want = subset_entropy(state, mask).hex()
        assert table[mask].hex() == marginal_entropy(state, keep).hex() == want, (mask, state)


def _assert_marginal_tables_are_the_oracle_walk(state, masks):
    # the same digit strings in the same order, with the same probability bits
    for mask in masks:
        keep = [i for i in range(state.n_parties) if mask >> i & 1]
        got = partial_trace(state, keep).probabilities()
        want = marginal_table(state, keep)
        assert [(k, p.hex()) for k, p in got.items()] == [
            (k, p.hex()) for k, p in want.items()], (mask, state)


@pytest.mark.parametrize("table, dims", [
    ({(1, 2, 3): 1.0}, (2, 3, 4)),
    ({(0, 2 ** 70, 1): 0.5, (1, 3, 1): 0.25, (0, 3, 0): 0.25}, (2, 2 ** 71, 2)),
    ({(0, 2 ** 64 - 1, 1): 0.5, (1, 2 ** 63, 1): 0.25, (0, 3, 0): 0.25}, (2, 2 ** 64, 2)),
    ({(i % 2, 0, 0, i % 3): 1 / 12 for i in range(12)} | {(0, 1, 1, 3): 0.0}, (2, 2, 2, 4)),
    ({}, (2, 2)),
], ids=["one-row", "beyond-2^64", "uint64-digits", "shared-digits", "empty"])
def test_classical_table_edge_cases(table, dims):
    state = DensityState.from_probabilities(table, dims, validate=False)
    n = len(dims)
    want = [0.0.hex()] + [subset_entropy(state, m).hex() for m in range(1, 1 << n)]
    assert [v.hex() for v in _classical_entropies(state).tolist()] == want
    assert [marginal_entropy(state, [i for i in range(n) if m >> i & 1]).hex()
            for m in range(1, 1 << n)] == want[1:]
    assert [v.hex() for v in _classical_prefix_entropies(state).tolist()] == [
        want[(1 << s) - 1] for s in range(n + 1)]
    _assert_marginal_tables_are_the_oracle_walk(state, range(1, 1 << n))
    # an empty table is invariant: every permutation of it is at distance 0.0
    assert is_permutation_invariant(state) is (len(set(dims)) == 1)


_DIGIT_USES = {"marginal_entropy": lambda s: marginal_entropy(s, [0]),
               "subset_entropies": subset_entropies, "vn_entropy": vn_entropy,
               "profile": profile, "to_matrix": DensityState.to_matrix}


@pytest.mark.parametrize("digit", [300, -1, 2 ** 70])
@pytest.mark.parametrize("entropy", _DIGIT_USES.values(), ids=_DIGIT_USES)
def test_unvalidated_digit_beyond_the_digit_array_is_an_argument_error(entropy, digit):
    # invariant under every permutation, so profile takes the prefix pass
    state = DensityState.from_probabilities({(digit, digit): 1.0}, (2, 2), validate=False)
    with pytest.raises(ArgumentError) as exc:
        entropy(state)
    assert str(exc.value) == f"digit {digit} of ({digit}, {digit}) out of range for dims (2, 2)"


@pytest.mark.parametrize("dims, table, bad", [
    ((2, 2), {(0, 1): 0.25, (5, 0): 0.5, (0, 7): 0.25}, (5, 0)),
    # a local dimension past 2**64 keeps the digits as Python ints
    ((2, 2 ** 64 + 1), {(0, 3): 0.5, (1, 2 ** 64 + 1): 0.5}, (1, 2 ** 64 + 1)),
    ((2, 2 ** 64 + 1), {(0, 3): 0.5, (0, -1): 0.5}, (0, -1)),
], ids=["5-in-uint8", "object-too-large", "object-negative"])
@pytest.mark.parametrize("use", _DIGIT_USES.values(), ids=_DIGIT_USES)
def test_unvalidated_digit_beyond_its_dimension_is_an_argument_error(use, dims, table, bad):
    state = DensityState.from_probabilities(table, dims, validate=False)
    error = CapacityError if use is DensityState.to_matrix and dims[1] > 4096 else ArgumentError
    with pytest.raises(error) as exc:
        use(state)
    if error is ArgumentError:
        x = next(x for x, d in zip(bad, dims) if not 0 <= x < d)
        assert str(exc.value) == f"digit {x} of {bad} out of range for dims {dims}"


# -- the classical prefix-entropy pass -------------------------------------

@st.composite
def _exchangeable_tables(draw):
    """A classical state whose probability depends only on the multiset of
    its digits: 1..7 parties of one local dimension 2..4, each multiset
    kept with a drawn chance, rows in a shuffled order."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(2, 4 if n < 6 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kept = draw(st.sampled_from([0.2, 0.6, 1.0]))
    keys = [tuple(k) for k in rng.permutation(list(itertools.product(range(d), repeat=n)))]
    weight = {}
    for key in keys:
        weight.setdefault(tuple(sorted(key)), rng.exponential() * (rng.random() < kept))
    p = np.array([weight[tuple(sorted(key))] for key in keys])
    if not p.any():
        p[:] = 1.0
    state = DensityState.from_probabilities(dict(zip(keys, (p / p.sum()).tolist())),
                                            (d,) * n, validate=False)
    assert is_permutation_invariant(state)
    return state


def _assert_prefixes_have_the_oracle_bits(state):
    n = state.n_parties
    h = _classical_prefix_entropies(state).tolist()
    assert len(h) == n + 1 and h[0].hex() == 0.0.hex()
    for s in range(1, n + 1):
        want = subset_entropy(state, (1 << s) - 1).hex()
        assert h[s].hex() == marginal_entropy(state, range(s)).hex() == want, (s, state)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=st.one_of(_exchangeable_tables(), _sparse_tables()))
def test_classical_prefixes_match_each_marginal_entropy_bit_for_bit(state):
    _assert_prefixes_have_the_oracle_bits(state)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=st.one_of(_exchangeable_tables(), _sparse_tables()))
def test_classical_marginal_tables_are_the_oracle_walk(state):
    n = state.n_parties
    _assert_marginal_tables_are_the_oracle_walk(state, range(1, 1 << n, 1 if n <= 6 else 5))


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("state", [
    DensityState.from_probabilities({}, (2, 3), validate=False),
    DensityState.from_probabilities({(0,): 0.25, (1,): 0.75}, (2,)),
    DensityState.from_probabilities({(4,): 1.0}, (7,)),
    StateFamily.parse("classical:9").build(),
    StateFamily.parse("classical:40").build(),
    StateFamily.parse("classical:6:3").build(),
    StateFamily.parse("classical:12:5").build(),
    DensityState.from_probabilities({(0, 2 ** 70, 1): 0.5, (1, 3, 1): 0.25, (0, 3, 0): 0.25},
                                    (2, 2 ** 71, 2), validate=False),
    random_classical((2, 3, 2, 4, 2, 3), np.random.default_rng(7)),
], ids=["empty", "one-party", "one-party-one-row", "classical:9", "classical:40",
        "classical:6:3", "classical:12:5", "beyond-2^64", "random-mixed-dims"])
def test_classical_prefix_edge_cases(monkeypatch, state, block):
    if block is not None:  # at most 5 labels per block: one or two prefixes at a time
        monkeypatch.setattr(tensor, "_LABEL_BLOCK", block)
    _assert_prefixes_have_the_oracle_bits(state)


# -- the pure and dense passes ----------------------------------------------

@pytest.mark.parametrize("dims", [(3, 2, 3, 2, 2), (2,) * 7], ids=["32322", "2^7"])
@pytest.mark.parametrize("make", [haar_state, lambda dims, rng: random_density(dims, rng, rank=3)],
                         ids=["pure", "dense-rank3"])
def test_spectral_passes_do_not_depend_on_their_stacks(monkeypatch, make, dims):
    state = make(dims, np.random.default_rng(619))
    fill = tensor.entropy_passes(state)[0]
    default = fill(state).tobytes()
    # 1: one matrix per stack.  2048 and 8192: stacks of several shapes wait
    # at once (at 8192 for the pure pass, whose matrices are all one size),
    # are flushed partway through the pass, and the last when it ends
    for budget in (1, 2048, 8192):
        monkeypatch.setattr(tensor, "_STACK_BYTES", budget)
        assert fill(state).tobytes() == default, budget


def _random_graph_state(n, rng):
    """The amplitudes (-1)^(sum_{i<j} G_ij x_i x_j) / 2^(n/2) of a random
    graph G on n qubits, party 0 the most significant digit, and G's rows
    as neighbour bitmasks."""
    upper = np.triu(rng.random((n, n)) < 0.5, 1).astype(int)
    x = np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1) & 1
    amps = (-1.0) ** ((x @ upper) * x).sum(axis=1) / 2 ** (n / 2)
    return amps, ((upper + upper.T) << np.arange(n)).sum(axis=1)


@pytest.mark.parametrize("n", range(2, 13))
def test_graph_state_entropies_are_the_cut_ranks(n):
    # a graph state's entropy of A is the GF(2) rank of the block G[A, not A]
    rng = np.random.default_rng(2004 + n)
    for _ in range(2 if n > 10 else 4):
        amps, adjacency = _random_graph_state(n, rng)
        want = cut_ranks(adjacency)
        states = [DensityState.from_amplitudes(amps, (2,) * n)]
        if n <= 7:
            states.append(DensityState.from_matrix(np.outer(amps, amps), (2,) * n))
        for state in states:
            assert np.abs(subset_entropies(state) - want).max() <= 1e-12, (state, adjacency)


def test_classical_subset_entropies_stay_small_at_the_cap():
    # 14 parties, 64 rows: 16383 entropies, labelled a block at a time
    rng = np.random.default_rng(14)
    keys = list(dict.fromkeys(map(tuple, rng.integers(0, 2, size=(64, 14)).tolist())))
    p = rng.exponential(size=len(keys))
    state = DensityState.from_probabilities(dict(zip(keys, (p / p.sum()).tolist())),
                                            (2,) * 14)
    state._digit_rows()
    tracemalloc.start()
    try:
        h = subset_entropies(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
    assert h[-1] == vn_entropy(state)
    assert h[0b10010000000001] == marginal_entropy(state, [0, 10, 13])
