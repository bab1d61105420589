import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrweave import (DEFAULT_ENUM_CAP, ArgumentError, CapacityError,
                       SetPartition, compact_partition, enumerate_partitions)
from oracles import count_partitions

BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_set_partition_canonical_form():
    p = SetPartition([(2, 0), (1,)])
    assert p.blocks == ((0, 2), (1,))
    assert p.n == 3
    assert "0,2" in repr(p)


def test_set_partition_validation():
    with pytest.raises(ArgumentError):
        SetPartition([(0, 1), (1, 2)])  # overlap
    with pytest.raises(ArgumentError):
        SetPartition([(0,), (2,)])  # gap
    with pytest.raises(ArgumentError):
        SetPartition([(0,), ()])
    with pytest.raises(ArgumentError):
        SetPartition([])
    # an index must be a Python or NumPy integer: 1.7 was once read as 1
    for bad in (1.7, 1.0, "1", True, None):
        with pytest.raises(ArgumentError, match="party index must be an integer"):
            SetPartition([[0], [bad]])
    assert SetPartition([np.array([1, 0]), [np.uint8(2)]]).blocks == ((0, 1), (2,))


@pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy,
                                     lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("part", [SetPartition([(0, 2), (1,)]), compact_partition(300, 7)],
                         ids=["uint8", "uint16"])
def test_set_partition_copies_are_read_only(copy_of, part):
    # deep copies and unpickled partitions once came back with writeable labels
    other = copy_of(part)
    assert not other.labels.flags.writeable
    assert other.labels.dtype == part.labels.dtype
    assert other == part and hash(other) == hash(part) and repr(other) == repr(part)
    with pytest.raises(ValueError):
        other.labels[0] = 1


def test_enumerate_small_cases():
    got = [p.blocks for p in enumerate_partitions(3, 3)]
    assert got == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]
    assert len(list(enumerate_partitions(4, 2))) == 10
    singletons = list(enumerate_partitions(5, 1))
    assert [p.blocks for p in singletons] == [((0,), (1,), (2,), (3,), (4,))]


def test_enumerate_respects_cap_and_args():
    with pytest.raises(ArgumentError):
        list(enumerate_partitions(4, 0))
    with pytest.raises(ArgumentError):
        list(enumerate_partitions(4, 5))
    with pytest.raises(CapacityError):
        list(enumerate_partitions(15, 2))
    # the cap itself is allowed
    assert sum(1 for _ in enumerate_partitions(DEFAULT_ENUM_CAP, 1)) == 1
    with pytest.raises(TypeError):
        enumerate_partitions(4, 2, max_n=20)


def test_enumerate_block_sizes_and_nesting():
    for kmax in range(1, 6):
        stream = list(enumerate_partitions(5, kmax))
        assert all(len(b) <= kmax for p in stream for b in p.blocks)
        if kmax > 1:
            wider = [p.blocks for p in enumerate_partitions(5, kmax)]
            narrower = [p.blocks for p in enumerate_partitions(5, kmax - 1)]
            it = iter(wider)
            assert all(b in it for b in narrower)  # order-preserving subsequence


def test_compact_partition():
    assert compact_partition(5, 2).blocks == ((0, 1), (2, 3), (4,))
    assert compact_partition(6, 3).blocks == ((0, 1, 2), (3, 4, 5))
    assert compact_partition(4, 4).blocks == ((0, 1, 2, 3),)
    assert compact_partition(3, 1).blocks == ((0,), (1,), (2,))
    with pytest.raises(ArgumentError):
        compact_partition(3, 4)
    for bad in (2.0, True, "2"):
        with pytest.raises(ArgumentError, match="k must be an integer"):
            compact_partition(5, bad)
    with pytest.raises(ArgumentError, match="n must be an integer"):
        compact_partition(5.0, 2)
    assert compact_partition(np.int64(5), np.int32(2)) == compact_partition(5, 2)


def test_compact_partition_is_canonical():
    for n in range(1, 41):
        for k in range(1, n + 1):
            part = compact_partition(n, k)
            assert part == SetPartition(part.blocks)


@st.composite
def _partitions(draw):
    """``(partition, normal form)``: random blocks of N <= 40 parties given
    as NumPy ints, in any order, or a compact partition of N <= 300."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 300))
        k = draw(st.integers(1, n))
        return compact_partition(n, k), tuple(tuple(range(s, min(s + k, n)))
                                              for s in range(0, n, k))
    n = draw(st.integers(1, 40))
    labels = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
    blocks = [np.flatnonzero(labels == v)[::draw(st.sampled_from([1, -1]))]
              for v in draw(st.permutations(sorted(set(labels.tolist()))))]
    return SetPartition(blocks), tuple(sorted(tuple(sorted(b.tolist())) for b in blocks))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_partitions())
def test_labels_are_canonical_and_give_the_tuple_form(case):
    part, norm = case
    assert part.blocks == norm and part.n == len(part.labels) == sum(map(len, norm))
    assert all(type(i) is int for b in part.blocks for i in b)
    assert part == SetPartition(norm) and hash(part) == hash(SetPartition(norm))
    assert hash(part) == hash((norm,))  # the hash of the frozen dataclass of the tuples
    assert repr(part) == f"SetPartition({'|'.join(','.join(map(str, b)) for b in norm)})"
    assert (part == SetPartition([range(part.n)])) == (len(norm) == 1)
    labels = part.labels
    assert labels.dtype == np.min_scalar_type(part.n) and not labels.flags.writeable
    assert labels[0] == 0
    assert all(labels[i] <= labels[:i].max() + 1 for i in range(1, part.n))
    assert [labels[list(b)].tolist() for b in norm] == [[j] * len(b) for j, b in enumerate(norm)]


def test_count_partitions_bell_numbers():
    for n, b in enumerate(BELL_NUMBERS):
        if n >= 1:
            assert count_partitions(n, n) == b


def test_count_matches_enumeration():
    for n in range(1, 8):
        for kmax in range(1, n + 1):
            count = count_partitions(n, kmax)
            assert count == sum(1 for _ in enumerate_partitions(n, kmax))
    assert count_partitions(4, 2) == 10
    assert count_partitions(3, 2) == 4
