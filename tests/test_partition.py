import pytest

from odelump import GroundSetMismatch, Partition


def test_blocks_canonicalized():
    p = Partition([[2, 1], [0]])
    assert p.blocks == ((0,), (1, 2))
    assert p.block_count == 2
    assert p.size == 3
    assert p.labels == [0, 1, 1]
    assert p.representatives() == [0, 1]


def test_singletons_and_one_block():
    assert Partition.singletons(3).blocks == ((0,), (1,), (2,))
    assert Partition.one_block(3).blocks == ((0, 1, 2),)


def test_split_by_groups_by_string_label():
    labels = ["a", "b", "a", "c"]
    p = Partition.one_block(len(labels)).split_by(labels.__getitem__)
    assert p.blocks == ((0, 2), (1,), (3,))


def test_refines_examples():
    fine = Partition.singletons(3)
    coarse = Partition([[0], [1, 2]])
    assert fine.refines(coarse)
    assert not Partition([[0, 1], [2]]).refines(coarse)
    assert coarse.refines(coarse)


def test_refines_requires_same_ground_set():
    with pytest.raises(GroundSetMismatch):
        Partition.singletons(2).refines(Partition.singletons(3))


@pytest.mark.parametrize("blocks", [
    [],
    [[0], []],
    [[0], [0, 1]],
    [[0], [2]],
    [[1, 2]],
])
def test_invalid_partitions_rejected(blocks):
    with pytest.raises(ValueError):
        Partition(blocks)


def test_value_semantics():
    a = Partition([[1, 0], [2]])
    b = Partition([[2], [0, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Partition.singletons(3)


def test_format_with_names():
    p = Partition([[0], [1, 2]])
    assert p.format(("x1", "x2", "x3")) == "{x1}, {x2, x3}"


def test_split_by_splits_only_within_blocks():
    p = Partition([[0, 1], [2, 3]])
    # 0 and 2 share a key but lie in different blocks
    assert p.split_by(lambda v: v in (0, 2)).blocks == ((0,), (1,), (2,), (3,))
    # keys that differ only across blocks split nothing
    assert p.split_by(lambda v: v < 2) is p


def test_split_by_result_is_canonical():
    p = Partition([[3, 0, 4], [1, 2]])
    split = p.split_by(lambda v: -v if v in (3, 2) else 0)
    assert split.blocks == ((0, 4), (1,), (2,), (3,))
    assert split == Partition([[4, 0], [3], [2], [1]])


def test_split_by_returns_self_when_nothing_splits():
    p = Partition([[0, 1], [2]])
    assert p.split_by(lambda v: 0) is p
    one = Partition.one_block(4)
    assert one.split_by(lambda v: "same") is one
    singletons = Partition.singletons(3)
    assert singletons.split_by(lambda v: v) is singletons
