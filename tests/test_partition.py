import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odelump import GroundSetMismatch, Partition
from odelump.partition import _Refinable


def test_blocks_canonicalized():
    p = Partition([[2, 1], [0]])
    assert p.blocks == ((0,), (1, 2))
    assert p.block_count == 2
    assert p.size == 3
    assert p.labels == [0, 1, 1]
    assert [block[0] for block in p.blocks] == [0, 1]


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
    assert repr(Partition([[2, 1], [0]])) == "Partition({0}, {1, 2})"


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


def _reference_split(members, formed, elements, key):
    """Blocks after splitting, as label -> set: a block keeps its label for
    its members not in ``elements`` and its given members of the kept key,
    which is the key it was formed with, or, when every member is given, the
    key of the most given members, the earliest in ``elements`` of equals.
    Each other (label, key) group of given members becomes a new block."""
    blocks = {b: set(m) for b, m in enumerate(members)}
    given_of: dict = {}
    for v in elements:
        given_of.setdefault(next(b for b, m in blocks.items() if v in m), []).append(v)
    fresh = []
    for b, given_b in given_of.items():
        kept = formed[b]
        if len(given_b) == len(blocks[b]):
            keys = [key(v) for v in given_b]
            kept = max(keys, key=keys.count)
        groups: dict = {}
        for v in given_b:
            if key(v) != kept:
                groups.setdefault(key(v), set()).add(v)
        for part in groups.values():
            blocks[b] -= part
            fresh.append(part)
    return blocks, fresh


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_refinable_split_matches_reference(data):
    n = data.draw(st.integers(1, 12))
    start = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    refinable = _Refinable(Partition.one_block(n).split_by(start.__getitem__))
    for _ in range(data.draw(st.integers(1, 4))):
        keys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        elements = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        old_labels = list(refinable.labels)
        old_count = len(refinable.members)
        blocks, fresh = _reference_split(refinable.members, refinable.formed,
                                         elements, keys.__getitem__)

        moves = refinable.split(elements, keys.__getitem__)

        # One move per new block, carrying its members; only given elements
        # move, each once, from its old block to a new one.
        assert [new for _, new, _ in moves] == list(range(old_count, len(refinable.members)))
        moved = [v for _, _, part in moves for v in part]
        assert len(set(moved)) == len(moved) and set(moved) <= set(elements)
        for old, new, part in moves:
            assert set(part) == set(refinable.members[new])
            for v in part:
                assert old == old_labels[v] and new == refinable.labels[v]
        # Every unmoved element keeps its label: the untouched members and
        # the given members of the kept key stay with their block.
        for v in set(range(n)) - set(moved):
            assert refinable.labels[v] == old_labels[v]
        for b, members in blocks.items():
            assert set(refinable.members[b]) == members
        assert sorted(map(sorted, refinable.members[old_count:])) == sorted(map(sorted, fresh))
        # Labels and members agree, and ``wide`` counts the non-singletons.
        for b, members in enumerate(refinable.members):
            assert members and all(refinable.labels[v] == b for v in members)
        assert sum(map(len, refinable.members)) == n
        assert refinable.wide == sum(len(m) > 1 for m in refinable.members)
        for new in range(old_count, len(refinable.members)):
            assert refinable.formed[new] == keys[next(iter(refinable.members[new]))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_split_by_groups_by_block_and_key(data):
    n = data.draw(st.integers(1, 12))
    start = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    keys = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    part = Partition.one_block(n).split_by(start.__getitem__)
    groups: dict = {}
    for b, block in enumerate(part.blocks):
        for v in block:
            groups.setdefault((b, keys[v]), []).append(v)
    split = part.split_by(keys.__getitem__)
    assert split == Partition(groups.values())
    assert (split is part) == (len(groups) == part.block_count)
