"""Unit and property tests for the last-level cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.llc import LastLevelCache
from repro.cache.set_assoc import SetAssociativeCache
from repro.config.cpu_config import CacheConfig
from repro.config.presets import paper_system
from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.jobs import SimulationJob
from repro.sim.simulator import Simulator
from repro.workloads.mixes import make_workload, make_workload_category


def small_cache(size=8 * 1024, assoc=4, line=64) -> SetAssociativeCache:
    return SetAssociativeCache(size_bytes=size, associativity=assoc, line_bytes=line)


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = small_cache()
        first = cache.access(0, is_write=False)
        second = cache.access(0, is_write=False)
        assert not first.hit
        assert second.hit
        assert cache.hits == 1
        assert cache.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = small_cache()
        cache.access(0, is_write=False)
        assert cache.access(63, is_write=False).hit
        assert not cache.access(64, is_write=False).hit

    def test_lru_eviction_order(self):
        cache = small_cache(size=4 * 64 * 1, assoc=4, line=64)  # 1 set, 4 ways
        for i in range(4):
            cache.access(i * 64, is_write=False)
        cache.access(0, is_write=False)  # touch line 0, making line 1 the LRU
        cache.access(4 * 64, is_write=False)  # evicts line 1
        assert cache.contains(0)
        assert not cache.contains(64)

    def test_dirty_eviction_produces_writeback(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        cache.access(0, is_write=True)
        for i in range(1, 4):
            cache.access(i * 64, is_write=False)
        result = cache.access(4 * 64, is_write=False)
        assert result.writeback_address == 0
        assert cache.writebacks == 1

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        for i in range(5):
            result = cache.access(i * 64, is_write=False)
        assert result.writeback_address is None
        assert cache.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        for i in range(1, 4):
            cache.access(i * 64, is_write=False)
        result = cache.access(4 * 64, is_write=False)
        assert result.writeback_address == 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=1000, associativity=3, line_bytes=64)

    def test_miss_rate_and_reset(self):
        cache = small_cache()
        cache.access(0, is_write=False)
        cache.access(0, is_write=False)
        assert cache.miss_rate == pytest.approx(0.5)
        cache.reset_stats()
        assert cache.hits == 0 and cache.misses == 0
        assert cache.miss_rate == 0.0

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 20), st.booleans()), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = small_cache(size=2 * 1024, assoc=2, line=64)
        capacity_lines = 2 * 1024 // 64
        for address, is_write in accesses:
            cache.access(address, is_write)
            assert cache.occupancy() <= capacity_lines

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_most_recent_line_always_resident(self, addresses):
        cache = small_cache(size=2 * 1024, assoc=2, line=64)
        for address in addresses:
            cache.access(address, is_write=False)
            assert cache.contains(address)


class TestLastLevelCache:
    def test_wraps_paper_geometry(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.miss_rate == 0.0
        result = llc.access(0, is_write=False)
        assert not result.hit
        assert llc.misses == 1
        assert llc.mpki(1000) == 1.0

    def test_line_address(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.line_address(130) == 128

    def test_contains_does_not_disturb_lru(self):
        llc = LastLevelCache(
            CacheConfig(size_bytes=4 * 64, associativity=4, line_bytes=64),
        )
        llc.access(0, is_write=False)
        assert llc.contains(0)
        assert not llc.contains(64)
        assert llc.hits == 0 and llc.misses == 1

    def test_mpki_zero_for_no_instructions(self):
        llc = LastLevelCache(CacheConfig())
        assert llc.mpki(0) == 0.0


class TestSnapshotRestore:
    def test_snapshot_round_trip_preserves_lines_and_not_stats(self):
        cache = small_cache(size=4 * 64, assoc=2, line=64)  # 2 sets
        for address, is_write in ((0, True), (128, False), (64, False), (0, False)):
            cache.access(address, is_write)
        snapshot = cache.snapshot()
        assert list(snapshot.lengths) == [2, 1]
        assert list(snapshot.tags) == [1, 0, 0]  # LRU first within each set
        assert snapshot.dirty == bytes([0, 1, 0])
        copy = small_cache(size=4 * 64, assoc=2, line=64)
        copy.restore(snapshot, 0)
        assert copy.snapshot() == snapshot
        assert copy.hits == copy.misses == 0

    @given(
        line=st.sampled_from([16, 64]),
        assoc=st.sampled_from([1, 2, 4]),
        num_sets=st.sampled_from([1, 2, 8, 32]),
        stream=st.lists(
            st.tuples(st.integers(min_value=0, max_value=1 << 16), st.booleans()),
            max_size=300,
        ),
        offset=st.integers(min_value=0, max_value=1 << 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_tag_shift_equals_warming_at_the_offset(
        self, line, assoc, num_sets, stream, offset
    ):
        """Warming at ``shift * span + base`` == warming at ``base``, tags + shift."""
        size = line * assoc * num_sets
        direct = small_cache(size=size, assoc=assoc, line=line)
        base_warmed = small_cache(size=size, assoc=assoc, line=line)
        shift, base = divmod(offset, num_sets * line)
        for address, is_write in stream:
            direct.access(offset + address, is_write)
            base_warmed.access(base + address, is_write)
        relocated = small_cache(size=size, assoc=assoc, line=line)
        relocated.restore(base_warmed.snapshot(), shift)
        assert relocated.snapshot() == direct.snapshot()
        # Same tags, LRU order and dirty bits mean the same future behaviour.
        for address, is_write in reversed(stream):
            assert relocated.access(offset + address, is_write) == direct.access(
                offset + address, is_write
            )
        assert relocated.snapshot() == direct.snapshot()


def _mixed_batch() -> list[SimulationJob]:
    mix = make_workload_category(50, 0)
    alone = make_workload([mix.benchmarks[0]])
    return [
        SimulationJob(
            paper_system(density_gb=density, mechanism=mechanism, num_cores=cores),
            workload,
            300,
            50,
            0,
        )
        for density in (8, 32)
        for mechanism in ("refab", "dsarp")
        for cores, workload in ((8, mix), (1, alone))
    ]


class TestWarmStateReuse:
    def test_batches_match_fresh_simulators(self):
        jobs = _mixed_batch()
        fresh = [
            Simulator(job.config, job.workload, seed=job.seed)
            .run(job.cycles, warmup=job.warmup)
            .to_dict()
            for job in jobs
        ]
        serial = SerialExecutor().run(jobs)
        parallel = ParallelExecutor(workers=2).run(jobs)
        assert [result.to_dict() for result in serial] == fresh
        assert [result.to_dict() for result in parallel] == fresh

    def test_states_shared_within_a_batch_only(self, monkeypatch):
        snapshots = []
        original = LastLevelCache.snapshot

        def counting(llc):
            snapshots.append(llc)
            return original(llc)

        monkeypatch.setattr(LastLevelCache, "snapshot", counting)
        mix = make_workload_category(100, 0)
        jobs = [
            SimulationJob(paper_system(mechanism=mechanism), mix, 200, 0, 0)
            for mechanism in ("refab", "dsarp")
        ]
        executor = SerialExecutor()
        first = executor.run(jobs)
        warmed = len(snapshots)
        # One warmup per distinct benchmark, shared by both mechanisms.
        assert warmed == len(set(mix.benchmarks)) < 2 * mix.num_cores
        second = executor.run(jobs)
        assert len(snapshots) == 2 * warmed
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]
