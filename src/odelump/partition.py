"""Ordered partitions of variable indices.

A partition stores pairwise-disjoint non-empty blocks of sorted indices that
cover ``{0..n-1}``; blocks are ordered by their minimum element.  Partitions
are immutable and hashable, so they serve directly as dictionary keys in the
enumeration oracle.

A partition that :func:`odelump.lump.coarsest_with_trace` returned carries a
private proof of its stability, ``_stable``: the system object and the
signer type it is a refinement fixpoint for, so that the checks of that
system and mode pass it without signing or checking their input rules.  Every other partition has
``_stable`` None.  Equality, hashing and ``repr`` ignore it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import GroundSetMismatch


class Partition:
    __slots__ = ("blocks", "_labels", "_stable")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else -1)
        seen: set = set()
        count = 0
        for b in canon:
            if not b:
                raise ValueError("empty block")
            count += len(b)
            seen.update(b)
        if not canon:
            raise ValueError("partition must have at least one block")
        if len(seen) != count or min(seen) != 0 or max(seen) != count - 1:
            raise ValueError("blocks must be disjoint and cover 0..n-1")
        self.blocks: tuple = tuple(canon)
        self._labels = None
        self._stable = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def singletons(n: int) -> "Partition":
        return Partition([(i,) for i in range(n)])

    @staticmethod
    def one_block(n: int) -> "Partition":
        return Partition([range(n)])

    # -- basic queries --------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of elements in the ground set."""
        return sum(len(b) for b in self.blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def labels(self) -> list:
        """Element -> block ordinal (cached)."""
        if self._labels is None:
            lab = [0] * self.size
            for b, block in enumerate(self.blocks):
                for v in block:
                    lab[v] = b
            self._labels = lab
        return self._labels

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside some block of other."""
        if self.size != other.size:
            raise GroundSetMismatch(
                f"partitions cover {self.size} and {other.size} elements")
        lab = other.labels
        for block in self.blocks:
            target = lab[block[0]]
            if any(lab[v] != target for v in block[1:]):
                return False
        return True

    def split_by(self, key) -> "Partition":
        """Split every block by the value of ``key(v)`` on its members.

        Returns ``self`` itself when no block splits, so callers can tell a
        split from no progress by identity."""
        refinable = _Refinable(self)
        if not refinable.split(range(self.size), key):
            return self
        return Partition(refinable.members)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self.format()})"

    def format(self, names: Sequence[str] | None = None) -> str:
        def nm(i):
            return names[i] if names is not None else str(i)

        return ", ".join("{" + ", ".join(nm(i) for i in b) + "}" for b in self.blocks)


class _Refinable:
    """A partition split in place under stable labels: first the block
    ordinals of ``part``, then new labels counting on.  ``labels[v]`` is v's
    label, ``members[b]`` the members of block b (a set once a split removed
    some), ``formed[b]`` the key b was formed with (None at first) and
    ``wide`` the number of blocks with more than one member."""

    def __init__(self, part: Partition):
        self.labels = list(part.labels)
        self.members = list(part.blocks)
        self.formed = [None] * len(self.members)
        self.wide = sum(len(block) > 1 for block in part.blocks)

    def split(self, elements, key) -> list:
        """Split each block by ``key`` on its members among ``elements`` and
        return the moves, one ``(old label, new label, members)`` per new
        block; ``key`` sees the labels from before the call.  The label stays
        on the block's members not given, which must have the key the block
        was formed with, and on the given members of that key; when all are
        given, on the largest part, the earliest of equals in ``elements``."""
        labels, members, formed = self.labels, self.members, self.formed
        by_block: dict = {}
        for v in elements:
            b = labels[v]
            given = by_block.get(b)
            if given is None:
                by_block[b] = [v]
            else:
                given.append(v)
        moves = []
        for b, given in by_block.items():
            groups: dict = {}
            for v in given:
                groups.setdefault(key(v), []).append(v)
            block = members[b]
            if len(given) < len(block):
                groups.pop(formed[b], None)
                if groups and type(block) is not set:
                    block = members[b] = set(block)
                for part in groups.values():
                    block.difference_update(part)
            else:
                kept = formed[b] = max(groups, key=lambda k: len(groups[k]))
                block = members[b] = groups.pop(kept)
            if not groups:
                continue
            self.wide += (len(block) > 1) - 1 + sum(len(part) > 1 for part in groups.values())
            moves.extend((b, new, part)
                         for new, part in enumerate(groups.values(), len(members)))
            members.extend(groups.values())
            formed.extend(groups)
        for _, new, part in moves:
            for v in part:
                labels[v] = new
        return moves
