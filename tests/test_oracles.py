import pytest

from fiberdt.formulas import hilbert_euler_direct, ideal_sheaf_euler_direct
from fiberdt.oracles import (
    Partition,
    addable_boxes,
    colored_partitions_count,
    nested_colored_count,
    partitions_of,
    weak_compositions,
)


def partitions_ascending(m: int) -> list[Partition]:
    """All partitions of m via ascending-composition iteration.

    Independent of :func:`partitions_of`; used to cross-check that the
    enumeration is duplicate-free and complete.
    """
    if m < 0:
        raise ValueError("cannot partition a negative integer")
    if m == 0:
        return [Partition(())]
    out: list[Partition] = []
    a = [0] * (m + 1)
    k = 1
    a[1] = m
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        out.append(Partition(tuple(sorted(a[: k + 1], reverse=True))))
    return out


def test_partition_validation():
    Partition((3, 2, 2, 1))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))


def test_partition_size():
    assert sum(Partition(()).parts) == 0
    assert sum(Partition((4, 2, 1)).parts) == 7


def test_partitions_of_counts():
    assert partitions_of(0) == [Partition(())]
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(6)) == 11


def test_partitions_of_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_generation_orders_agree():
    # Two independent algorithms, no duplicates, same set.
    for m in range(11):
        a = partitions_of(m)
        b = partitions_ascending(m)
        assert len(a) == len(set(a))
        assert len(b) == len(set(b))
        assert set(a) == set(b)


def test_weak_compositions():
    assert list(weak_compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert sum(1 for _ in weak_compositions(3, 3)) == 10


def test_addable_boxes():
    assert addable_boxes(Partition(())) == 1
    assert addable_boxes(Partition((2, 2, 1))) == 3
    assert addable_boxes(Partition((1, 1, 1))) == 2


def test_colored_counts_basic():
    for n in (1, 2, 3, 4):
        assert colored_partitions_count(n, 0) == 1
    assert colored_partitions_count(1, 4) == 5
    assert colored_partitions_count(3, 3) == 22


def test_colored_counts_match_product_series():
    for n in range(1, 5):
        series = hilbert_euler_direct(n, 8)
        for m in range(9):
            assert colored_partitions_count(n, m) == series[m], (n, m)


def test_nested_counts_basic():
    for n in (1, 2, 3, 4):
        assert nested_colored_count(n, 0) == n
    assert nested_colored_count(1, 1) == 2
    assert nested_colored_count(3, 2) == 39


def test_nested_counts_match_product_series():
    for n in range(1, 5):
        series = ideal_sheaf_euler_direct(n, n, 7)
        for m in range(7):
            assert nested_colored_count(n, m) == series[m + 1], (n, m)


def test_nested_dominates_colored():
    # Every tuple has at least one addable box per color, so the nested count
    # is at least the plain count.
    for n in (1, 2, 3):
        for m in range(6):
            assert nested_colored_count(n, m) >= colored_partitions_count(n, m)


def test_input_validation():
    with pytest.raises(ValueError):
        colored_partitions_count(0, 3)
    with pytest.raises(ValueError):
        nested_colored_count(2, -1)
