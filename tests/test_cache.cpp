// Tests for the table cache: free list, LRU, write-back behaviour and
// invariants under both index implementations.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "fidr/cache/indexes.h"
#include "fidr/cache/table_cache.h"
#include "fidr/common/rng.h"
#include "fidr/hash/sha256.h"

namespace fidr::cache {
namespace {

TEST(FreeList, FifoSemantics)
{
    FreeList list(4);
    list.push(1);
    list.push(2);
    list.push(3);
    EXPECT_EQ(list.size(), 3u);
    EXPECT_EQ(list.pop(), std::optional<std::size_t>(1));
    list.push(4);
    EXPECT_EQ(list.pop(), std::optional<std::size_t>(2));
    EXPECT_EQ(list.pop(), std::optional<std::size_t>(3));
    EXPECT_EQ(list.pop(), std::optional<std::size_t>(4));
    EXPECT_FALSE(list.pop().has_value());
}

TEST(LruList, VictimIsLeastRecentlyUsed)
{
    LruList lru(8);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    lru.touch(0);  // 0 becomes most recent; victim order: 1, 2, 0.
    EXPECT_EQ(lru.pop_victim(), std::optional<std::size_t>(1));
    EXPECT_EQ(lru.pop_victim(), std::optional<std::size_t>(2));
    EXPECT_EQ(lru.pop_victim(), std::optional<std::size_t>(0));
    EXPECT_FALSE(lru.pop_victim().has_value());
}

TEST(LruList, RemoveMidList)
{
    LruList lru(8);
    lru.touch(0);
    lru.touch(1);
    lru.touch(2);
    lru.remove(1);
    EXPECT_EQ(lru.size(), 2u);
    EXPECT_EQ(lru.pop_victim(), std::optional<std::size_t>(0));
    EXPECT_EQ(lru.pop_victim(), std::optional<std::size_t>(2));
}

/** Test rig: small on-SSD table + cache with a chosen index. */
struct CacheRig {
    ssd::Ssd ssd;
    tables::HashPbnTable table;
    std::unique_ptr<CacheIndex> index;
    std::unique_ptr<TableCache> cache;

    CacheRig(std::size_t lines, bool hw)
        : ssd([] {
              ssd::SsdConfig c;
              c.capacity_bytes = 64 * kMiB;
              return c;
          }()),
          table(ssd, 256)
    {
        if (hw)
            index = std::make_unique<HwTreeCacheIndex>();
        else
            index = std::make_unique<BTreeCacheIndex>();
        cache = std::make_unique<TableCache>(table, *index, lines);
    }
};

class TableCacheTest : public ::testing::TestWithParam<bool> {};

TEST_P(TableCacheTest, HitAfterMiss)
{
    CacheRig rig(4, GetParam());
    const auto first = rig.cache->access(7).take();
    EXPECT_TRUE(first.miss);
    const auto second = rig.cache->access(7).take();
    EXPECT_FALSE(second.miss);
    EXPECT_EQ(second.line, first.line);
    EXPECT_EQ(rig.cache->stats().hits, 1u);
    EXPECT_EQ(rig.cache->stats().misses, 1u);
    EXPECT_TRUE(rig.cache->validate().is_ok());
}

TEST_P(TableCacheTest, EvictsLruWhenFull)
{
    CacheRig rig(2, GetParam());
    (void)rig.cache->access(1);
    (void)rig.cache->access(2);
    (void)rig.cache->access(1);  // 1 most recent; victim should be 2.
    const auto third = rig.cache->access(3).take();
    EXPECT_TRUE(third.miss);
    EXPECT_TRUE(third.evicted);
    // Bucket 1 must still be resident (2 was the LRU victim).
    EXPECT_FALSE(rig.cache->access(1).take().miss);
    EXPECT_TRUE(rig.cache->access(2).take().miss);
    EXPECT_TRUE(rig.cache->validate().is_ok());
}

TEST_P(TableCacheTest, DirtyEvictionWritesBack)
{
    CacheRig rig(1, GetParam());
    const Digest d = Sha256::hash(Buffer{1, 2, 3});

    const auto a = rig.cache->access(5).take();
    ASSERT_TRUE(rig.cache->bucket(a.line).insert(d, 77).is_ok());
    rig.cache->mark_dirty(a.line);

    // Evict bucket 5 by touching another bucket in a 1-line cache.
    const auto b = rig.cache->access(6).take();
    EXPECT_TRUE(b.evicted_dirty);

    // Reload bucket 5: the insert must have been persisted.
    const auto c = rig.cache->access(5).take();
    EXPECT_TRUE(c.miss);
    EXPECT_EQ(rig.cache->bucket(c.line).lookup(d),
              std::optional<Pbn>(77));
}

TEST_P(TableCacheTest, CleanEvictionSkipsWriteback)
{
    CacheRig rig(1, GetParam());
    (void)rig.cache->access(5);
    const std::uint64_t written_before = rig.ssd.bytes_written();
    const auto b = rig.cache->access(6).take();
    EXPECT_TRUE(b.evicted);
    EXPECT_FALSE(b.evicted_dirty);
    EXPECT_EQ(rig.ssd.bytes_written(), written_before);
}

TEST_P(TableCacheTest, WritebackAllPersistsWithoutEvicting)
{
    CacheRig rig(4, GetParam());
    const Digest d = Sha256::hash(Buffer{9});
    const auto a = rig.cache->access(3).take();
    ASSERT_TRUE(rig.cache->bucket(a.line).insert(d, 11).is_ok());
    rig.cache->mark_dirty(a.line);
    ASSERT_TRUE(rig.cache->writeback_all().is_ok());

    // Persisted on SSD...
    tables::Bucket persisted;
    ASSERT_TRUE(rig.table.read_bucket(3, persisted).is_ok());
    EXPECT_EQ(persisted.lookup(d), std::optional<Pbn>(11));
    // ...and still resident.
    EXPECT_FALSE(rig.cache->access(3).take().miss);
}

TEST_P(TableCacheTest, InvariantsUnderRandomWorkload)
{
    CacheRig rig(8, GetParam());
    Rng rng(21);
    for (int i = 0; i < 2000; ++i) {
        const BucketIndex bucket = rng.next_below(64);
        const auto access = rig.cache->access(bucket).take();
        if (rng.next_bool(0.3)) {
            const Digest d = Sha256::hash(Buffer{
                static_cast<std::uint8_t>(i),
                static_cast<std::uint8_t>(i >> 8)});
            if (!rig.cache->bucket(access.line).full()) {
                ASSERT_TRUE(
                    rig.cache->bucket(access.line).insert(d, i).is_ok());
                rig.cache->mark_dirty(access.line);
            }
        }
        if (i % 250 == 0) {
            ASSERT_TRUE(rig.cache->validate().is_ok())
                << rig.cache->validate().to_string();
        }
    }
    EXPECT_EQ(rig.cache->stats().hits + rig.cache->stats().misses, 2000u);
    EXPECT_LE(rig.cache->resident(), 8u);
    ASSERT_TRUE(rig.cache->validate().is_ok());
}

TEST_P(TableCacheTest, HitRateTracksWorkingSet)
{
    // Working set <= cache => ~100% hits after warmup; working set
    // >> cache => mostly misses.  This is the Table 3 hit-rate knob.
    CacheRig small_ws(16, GetParam());
    Rng rng(3);
    for (int i = 0; i < 4000; ++i)
        (void)small_ws.cache->access(rng.next_below(8));
    EXPECT_GT(small_ws.cache->stats().hit_rate(), 0.99);

    CacheRig big_ws(16, GetParam());
    for (int i = 0; i < 4000; ++i)
        (void)big_ws.cache->access(rng.next_below(256));
    EXPECT_LT(big_ws.cache->stats().hit_rate(), 0.2);
}

INSTANTIATE_TEST_SUITE_P(SoftwareAndHwIndex, TableCacheTest,
                         ::testing::Values(false, true));

TEST(TableCachePolicy, PrioritizedLruProtectsHighClass)
{
    ssd::SsdConfig ssd_config;
    ssd_config.capacity_bytes = 64 * kMiB;
    ssd::Ssd ssd(ssd_config);
    tables::HashPbnTable table(ssd, 256);
    BTreeCacheIndex index;
    TableCache cache(table, index, 4, EvictionPolicy::kPrioritizedLru);

    // Two high-priority residents...
    (void)cache.access(1, true);
    (void)cache.access(2, true);
    // ...then a scan of many low-priority buckets.
    for (BucketIndex b = 10; b < 30; ++b)
        (void)cache.access(b, false);

    // The protected lines survived the scan.
    EXPECT_FALSE(cache.access(1, true).take().miss);
    EXPECT_FALSE(cache.access(2, true).take().miss);
    EXPECT_TRUE(cache.validate().is_ok());

    // A low-priority touch demotes: bucket 1 becomes evictable again.
    (void)cache.access(1, false);
    for (BucketIndex b = 30; b < 40; ++b)
        (void)cache.access(b, false);
    EXPECT_TRUE(cache.access(1, true).take().miss);
    // Bucket 2 is still protected.
    EXPECT_FALSE(cache.access(2, true).take().miss);
    EXPECT_TRUE(cache.validate().is_ok());
}

TEST(TableCachePolicy, AllHighPriorityStillEvicts)
{
    // When every line is protected, the high class must self-evict
    // rather than deadlock.
    ssd::SsdConfig ssd_config;
    ssd_config.capacity_bytes = 64 * kMiB;
    ssd::Ssd ssd(ssd_config);
    tables::HashPbnTable table(ssd, 256);
    BTreeCacheIndex index;
    TableCache cache(table, index, 2, EvictionPolicy::kPrioritizedLru);
    (void)cache.access(1, true);
    (void)cache.access(2, true);
    const auto third = cache.access(3, true).take();
    EXPECT_TRUE(third.miss);
    EXPECT_TRUE(third.evicted);
    EXPECT_TRUE(cache.validate().is_ok());
}

TEST(Indexes, CountersTrackOperations)
{
    BTreeCacheIndex sw;
    EXPECT_FALSE(sw.find(1).has_value());
    ASSERT_TRUE(sw.insert(1, 10).is_ok());
    EXPECT_EQ(sw.find(1), std::optional<std::size_t>(10));
    sw.erase(1);
    EXPECT_EQ(sw.stats().lookups, 2u);
    EXPECT_EQ(sw.stats().inserts, 1u);
    EXPECT_EQ(sw.stats().erases, 1u);

    HwTreeCacheIndex hw;
    ASSERT_TRUE(hw.insert(2, 20).is_ok());
    EXPECT_EQ(hw.find(2), std::optional<std::size_t>(20));
    // The HW index accounts engine cycles, not CPU.
    EXPECT_GT(hw.pipeline().stats().cycles, 0.0);
    EXPECT_EQ(hw.pipeline().stats().updates, 1u);
}

TEST(ShardedIndex, RoutesByBucketLowBits)
{
    std::vector<std::unique_ptr<CacheIndex>> subs;
    for (int i = 0; i < 4; ++i)
        subs.push_back(std::make_unique<BTreeCacheIndex>());
    ShardedCacheIndex index(std::move(subs));
    ASSERT_EQ(index.sub_count(), 4u);

    for (BucketIndex b = 0; b < 16; ++b)
        ASSERT_TRUE(index.insert(b, b * 10).is_ok());
    EXPECT_EQ(index.size(), 16u);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(index.sub(s).size(), 4u);

    // Bucket 6 lives in sub 6 & 3 == 2 and nowhere else; the facade
    // resolves it transparently.
    EXPECT_EQ(index.sub(2).find(6), std::optional<std::size_t>(60));
    EXPECT_FALSE(index.sub(0).find(6).has_value());
    EXPECT_EQ(index.find(6), std::optional<std::size_t>(60));

    // Erase routes the same way, and reinsert round-trips.
    index.erase(6);
    EXPECT_FALSE(index.find(6).has_value());
    EXPECT_EQ(index.sub(2).size(), 3u);
    EXPECT_EQ(index.size(), 15u);
    ASSERT_TRUE(index.insert(6, 66).is_ok());
    EXPECT_EQ(index.find(6), std::optional<std::size_t>(66));
}

/** Sharded rig: cache shard count matched by a ShardedCacheIndex. */
struct ShardedRig {
    ssd::Ssd ssd;
    tables::HashPbnTable table;
    std::unique_ptr<ShardedCacheIndex> index;
    std::unique_ptr<TableCache> cache;

    ShardedRig(std::size_t lines, std::size_t shards, bool hw)
        : ssd([] {
              ssd::SsdConfig c;
              c.capacity_bytes = 64 * kMiB;
              return c;
          }()),
          table(ssd, 256)
    {
        std::vector<std::unique_ptr<CacheIndex>> subs;
        for (std::size_t s = 0; s < shards; ++s) {
            if (hw)
                subs.push_back(std::make_unique<HwTreeCacheIndex>());
            else
                subs.push_back(std::make_unique<BTreeCacheIndex>());
        }
        index = std::make_unique<ShardedCacheIndex>(std::move(subs));
        cache = std::make_unique<TableCache>(
            table, *index, lines, EvictionPolicy::kLru, shards);
    }
};

class ShardedTableCacheTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedTableCacheTest, StatsAggregateOverShards)
{
    ShardedRig rig(8, 4, GetParam());
    ASSERT_EQ(rig.cache->shard_count(), 4u);
    // Buckets 0..3 route to shards 0..3; access each twice.
    for (BucketIndex b = 0; b < 4; ++b) {
        EXPECT_EQ(rig.cache->shard_of(b), static_cast<std::size_t>(b));
        (void)rig.cache->access(b);
        (void)rig.cache->access(b);
    }
    CacheStats total;
    for (std::size_t s = 0; s < 4; ++s) {
        const CacheStats shard = rig.cache->shard_stats(s);
        EXPECT_EQ(shard.hits, 1u) << "shard " << s;
        EXPECT_EQ(shard.misses, 1u) << "shard " << s;
        total.hits += shard.hits;
        total.misses += shard.misses;
        total.evictions += shard.evictions;
        total.dirty_evictions += shard.dirty_evictions;
    }
    const CacheStats aggregate = rig.cache->stats();
    EXPECT_EQ(aggregate.hits, total.hits);
    EXPECT_EQ(aggregate.misses, total.misses);
    EXPECT_EQ(aggregate.evictions, total.evictions);
    EXPECT_EQ(aggregate.dirty_evictions, total.dirty_evictions);
    EXPECT_TRUE(rig.cache->validate().is_ok());
}

TEST_P(ShardedTableCacheTest, EvictionIsConfinedToTheBucketShard)
{
    ShardedRig rig(8, 4, GetParam());  // Two lines per shard.
    for (BucketIndex b = 0; b < 8; ++b)
        (void)rig.cache->access(b);
    EXPECT_EQ(rig.cache->resident(), 8u);

    // A new bucket routing to shard 1 (9 & 3 == 1) must evict shard
    // 1's LRU line and nothing anywhere else.
    const auto access = rig.cache->access(9).take();
    EXPECT_TRUE(access.miss);
    EXPECT_TRUE(access.evicted);
    for (const std::size_t s : {0u, 2u, 3u})
        EXPECT_EQ(rig.cache->shard_stats(s).evictions, 0u);
    EXPECT_EQ(rig.cache->shard_stats(1).evictions, 1u);

    // Residents of the other shards were untouched...
    for (const BucketIndex b : {0u, 4u, 2u, 6u, 3u, 7u})
        EXPECT_FALSE(rig.cache->access(b).take().miss) << "bucket " << b;
    // ...and within shard 1 the victim was the LRU line (bucket 1),
    // not the younger bucket 5.
    EXPECT_FALSE(rig.cache->access(5).take().miss);
    EXPECT_TRUE(rig.cache->access(1).take().miss);
    EXPECT_TRUE(rig.cache->validate().is_ok());
}

TEST_P(ShardedTableCacheTest, NonDivisibleLineCountPartitions)
{
    // 7 lines over 4 shards: slice sizes 2, 2, 2, 1.  The invariants
    // must hold through evictions in every (differently sized) shard.
    ShardedRig rig(7, 4, GetParam());
    EXPECT_EQ(rig.cache->lines(), 7u);
    Rng rng(11);
    for (int i = 0; i < 1500; ++i) {
        const BucketIndex bucket = rng.next_below(64);
        const auto access = rig.cache->access(bucket).take();
        if (rng.next_bool(0.3)) {
            const Digest d = Sha256::hash(Buffer{
                static_cast<std::uint8_t>(i),
                static_cast<std::uint8_t>(i >> 8)});
            if (!rig.cache->bucket(access.line).full()) {
                ASSERT_TRUE(
                    rig.cache->bucket(access.line).insert(d, i).is_ok());
                rig.cache->mark_dirty(access.line);
            }
        }
        if (i % 250 == 0) {
            ASSERT_TRUE(rig.cache->validate().is_ok())
                << rig.cache->validate().to_string();
        }
    }
    EXPECT_LE(rig.cache->resident(), 7u);
    ASSERT_TRUE(rig.cache->validate().is_ok());
    ASSERT_TRUE(rig.cache->writeback_all().is_ok());
}

TEST_P(ShardedTableCacheTest, ShardsServeHitsConcurrently)
{
    // Warm the whole working set single-threaded (fills touch the
    // shared table-SSD model, which the commit sequencer serializes in
    // the real system), then hammer hits from one thread per shard —
    // the concurrency the per-shard mutexes exist for.
    ShardedRig rig(16, 4, GetParam());
    for (BucketIndex b = 0; b < 16; ++b)
        (void)rig.cache->access(b);
    ASSERT_EQ(rig.cache->resident(), 16u);

    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < 4; ++s) {
        threads.emplace_back([&rig, s] {
            Rng rng(100 + s);
            for (int i = 0; i < 2000; ++i) {
                // Low bits select the shard: this thread stays in s.
                const BucketIndex bucket = static_cast<BucketIndex>(
                    (rng.next_below(4) << 2) | s);
                const auto access = rig.cache->access(bucket).take();
                rig.cache->mark_dirty(access.line);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const CacheStats stats = rig.cache->stats();
    EXPECT_EQ(stats.hits, 8000u);
    EXPECT_EQ(stats.misses, 16u);
    EXPECT_EQ(stats.evictions, 0u);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(rig.cache->shard_stats(s).hits, 2000u);
    ASSERT_TRUE(rig.cache->validate().is_ok());
    ASSERT_TRUE(rig.cache->writeback_all().is_ok());
}

INSTANTIATE_TEST_SUITE_P(SoftwareAndHwIndex, ShardedTableCacheTest,
                         ::testing::Values(false, true));

}  // namespace
}  // namespace fidr::cache
