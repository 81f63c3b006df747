"""Set-associative writeback cache with LRU replacement."""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class CacheAccessResult:
    """Outcome of a cache access."""

    hit: bool
    #: Line-aligned address of a dirty victim that must be written back,
    #: or None if the access caused no writeback.
    writeback_address: Optional[int] = None


@dataclass(frozen=True)
class CacheSnapshot:
    """Compact, immutable copy of a cache's resident lines.

    ``lengths[i]`` lines of set ``i`` occupy the next slice of ``tags``
    (least recently used first) and of ``dirty`` (one byte per line).
    A 512 KB, 64 B-line cache snapshots into about 75 KB.
    """

    lengths: array
    tags: array
    dirty: bytes


class SetAssociativeCache:
    """A write-allocate, writeback, LRU set-associative cache.

    Stores misses allocate the line directly (no fill read is modelled for
    stores); load misses are reported to the caller, which is responsible
    for fetching the line from DRAM.  This matches the paper's observation
    that DRAM writes are exclusively dirty-line writebacks from the LLC.
    """

    def __init__(self, size_bytes: int, associativity: int, line_bytes: int):
        if size_bytes % (associativity * line_bytes):
            raise ValueError("cache size must be a multiple of way size")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (associativity * line_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("number of sets must be a power of two")
        # Each set is an OrderedDict mapping tag -> dirty flag, in LRU order
        # (least recently used first).
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- address helpers ----------------------------------------------------
    def _index_and_tag(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def line_address(self, address: int) -> int:
        """Line-aligned form of ``address``."""
        return (address // self.line_bytes) * self.line_bytes

    # -- access --------------------------------------------------------------
    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Perform a load or store; returns hit status and any writeback."""
        index, tag = self._index_and_tag(address)
        cache_set = self._sets[index]
        if tag in cache_set:
            dirty = cache_set.pop(tag)
            cache_set[tag] = dirty or is_write
            self.hits += 1
            return CacheAccessResult(hit=True)

        self.misses += 1
        writeback = None
        if len(cache_set) >= self.associativity:
            victim_tag, victim_dirty = cache_set.popitem(last=False)
            if victim_dirty:
                victim_line = victim_tag * self.num_sets + index
                writeback = victim_line * self.line_bytes
                self.writebacks += 1
        cache_set[tag] = is_write
        return CacheAccessResult(hit=False, writeback_address=writeback)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is resident (no LRU update)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets[index]

    # -- snapshots -------------------------------------------------------------
    def snapshot(self) -> CacheSnapshot:
        """Resident tags, LRU order and dirty bits (statistics excluded)."""
        sets = self._sets
        return CacheSnapshot(
            lengths=array("H", map(len, sets)),
            tags=array("q", [tag for cache_set in sets for tag in cache_set]),
            dirty=bytes(
                [dirty for cache_set in sets for dirty in cache_set.values()]
            ),
        )

    def restore(self, snapshot: CacheSnapshot, tag_delta: int) -> None:
        """Replace the resident lines with ``snapshot``'s, tags shifted.

        Adding ``tag_delta`` to every tag relocates the contents by
        ``tag_delta * num_sets * line_bytes`` bytes: set indices, LRU
        order and dirty bits are unchanged.  Statistics are left alone.
        """
        tags, dirty = snapshot.tags, snapshot.dirty
        sets = []
        start = 0
        for length in snapshot.lengths:
            end = start + length
            sets.append(
                OrderedDict(
                    zip(
                        [tag + tag_delta for tag in tags[start:end]],
                        map(bool, dirty[start:end]),
                    )
                )
            )
            start = end
        self._sets = sets

    def occupancy(self) -> int:
        """Number of resident lines."""
        return sum(len(s) for s in self._sets)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
