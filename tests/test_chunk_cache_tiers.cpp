// Two-tier chunk read cache (cache/chunk_cache): the hot->warm
// demotion / warm->hot promotion state machine, batched demotion, the
// asymmetric ghost-LRU auto-sizing, and the SSD spill ring — writes,
// hits, wrap-around overwrites, write failures, and key maintenance
// (rekey / invalidate / invalidate_container / clear) across every
// tier.  All through the public API with a fake in-memory spill
// backend; the wired-up system paths are covered by test_read_plane
// and test_gc.

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "fidr/cache/chunk_cache.h"

namespace fidr::cache {
namespace {

constexpr std::uint64_t kCap = 16384;   ///< One shard, 4 raw chunks.
constexpr std::size_t kRaw = 4096;
constexpr std::size_t kComp = 1024;     ///< 4:1 compressible payloads.

Buffer
bytes(std::size_t n, std::uint8_t seed)
{
    Buffer out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(seed + i * 31);
    return out;
}

ChunkKey
key(std::uint64_t container, std::uint16_t offset)
{
    return ChunkKey{container, offset};
}

/** In-memory SpillBackend: a flat byte region + failure injection. */
class FakeSpill final : public SpillBackend {
  public:
    explicit FakeSpill(std::uint64_t capacity) : store_(capacity, 0) {}

    std::uint64_t capacity_bytes() const override { return store_.size(); }

    Status
    write(std::uint64_t offset, std::span<const std::uint8_t> data) override
    {
        if (fail_writes)
            return Status::unavailable("injected spill write failure");
        EXPECT_LE(offset + data.size(), store_.size());
        std::copy(data.begin(), data.end(), store_.begin() + offset);
        ++writes;
        return Status::ok();
    }

    Result<Buffer>
    read(std::uint64_t offset, std::uint64_t size) const override
    {
        EXPECT_LE(offset + size, store_.size());
        ++reads;
        return Buffer(store_.begin() + static_cast<std::ptrdiff_t>(offset),
                      store_.begin() +
                          static_cast<std::ptrdiff_t>(offset + size));
    }

    bool fail_writes = false;
    std::uint64_t writes = 0;
    mutable std::uint64_t reads = 0;

  private:
    std::vector<std::uint8_t> store_;
};

TEST(ChunkCacheTiers, DemotionFreesRawAndKeepsCompressed)
{
    // The initial hot target is half of 16 KiB = 8192; a hot entry
    // bills raw + compressed = 5120, so two hot entries overflow the
    // target and the LRU one demotes.
    ChunkReadCache cache(kCap, 1);
    const Buffer raw_a = bytes(kRaw, 10), comp_a = bytes(kComp, 11);
    cache.insert(key(1, 0), raw_a, Buffer(comp_a));
    cache.insert(key(1, 1), bytes(kRaw, 12), bytes(kComp, 13));

    EXPECT_EQ(cache.hot_entries(), 1u);
    EXPECT_EQ(cache.warm_entries(), 1u);
    EXPECT_EQ(cache.used_bytes(), (kRaw + kComp) + kComp);
    EXPECT_EQ(cache.stats().demotions, 1u);
    EXPECT_EQ(cache.stats().evictions, 0u);  // Still DRAM-resident.

    // The demoted entry answers warm: the compressed image verbatim
    // plus the decompressed size, no raw payload.
    const TierLookup warm = cache.lookup(key(1, 0));
    EXPECT_EQ(warm.tier, CacheTier::kWarm);
    EXPECT_EQ(warm.compressed, comp_a);
    EXPECT_EQ(warm.raw_size, kRaw);
    EXPECT_TRUE(warm.raw.empty());
}

TEST(ChunkCacheTiers, PromoteRestoresHotAndDemotesTheOther)
{
    ChunkReadCache cache(kCap, 1);
    const Buffer raw_a = bytes(kRaw, 20), comp_a = bytes(kComp, 21);
    cache.insert(key(1, 0), raw_a, Buffer(comp_a));
    cache.insert(key(1, 1), bytes(kRaw, 22), bytes(kComp, 23));
    ASSERT_EQ(cache.lookup(key(1, 0)).tier, CacheTier::kWarm);

    // The caller decompressed the warm image and hands it back.
    cache.promote(key(1, 0), raw_a, Buffer(comp_a));
    EXPECT_GE(cache.stats().promotions, 1u);

    const TierLookup hot = cache.lookup(key(1, 0));
    EXPECT_EQ(hot.tier, CacheTier::kHot);
    EXPECT_EQ(hot.raw, raw_a);
    // The hot target fits one entry, so the previous hot entry took
    // the demoted slot — the tiers swapped, nothing left DRAM.
    EXPECT_EQ(cache.lookup(key(1, 1)).tier, CacheTier::kWarm);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ChunkCacheTiers, OverflowDemotesABatchInOnePass)
{
    // 64 KiB, one shard: the initial hot target is 32 KiB, and a hot
    // entry bills 512 raw + 128 compressed = 640 bytes, so 51 entries
    // fit under the target and the 52nd insert overflows it by one.
    constexpr std::uint64_t kBig = 64 * 1024;
    constexpr std::size_t kSmallRaw = 512;
    constexpr std::size_t kSmallComp = 128;
    constexpr std::uint16_t kFit = 51;
    ChunkReadCache cache(kBig, 1);
    ASSERT_EQ(cache.hot_target_bytes(), kBig / 2);
    ASSERT_EQ(ChunkReadCache::kDemoteBatch, 8u);
    const auto fill = [&](std::uint16_t i) {
        const auto seed = static_cast<std::uint8_t>(i);
        cache.insert(key(1, i), bytes(kSmallRaw, seed),
                     bytes(kSmallComp, seed));
    };
    for (std::uint16_t i = 0; i < kFit; ++i)
        fill(i);
    ASSERT_EQ(cache.stats().demote_passes, 0u);
    ASSERT_EQ(cache.hot_entries(), kFit);

    // One demotion would restore the target; the pass demotes the
    // eight LRU tail entries instead, and counts once.
    fill(kFit);
    ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.demote_passes, 1u);
    EXPECT_EQ(stats.demotions, ChunkReadCache::kDemoteBatch);
    EXPECT_EQ(cache.warm_entries(), ChunkReadCache::kDemoteBatch);
    EXPECT_EQ(cache.hot_entries(),
              kFit + 1 - ChunkReadCache::kDemoteBatch);
    for (std::uint16_t i = 0; i < ChunkReadCache::kDemoteBatch; ++i)
        EXPECT_EQ(cache.peek(key(1, i)), CacheTier::kWarm) << "key " << i;
    EXPECT_EQ(cache.peek(key(1, ChunkReadCache::kDemoteBatch)),
              CacheTier::kHot);
    EXPECT_EQ(cache.peek(key(1, kFit)), CacheTier::kHot);

    // The slack absorbs the next seven fills without another pass;
    // the eighth overflows the target again.
    for (std::uint16_t i = kFit + 1; i < kFit + 8; ++i)
        fill(i);
    EXPECT_EQ(cache.stats().demote_passes, 1u);
    fill(kFit + 8);
    EXPECT_EQ(cache.stats().demote_passes, 2u);
    EXPECT_EQ(cache.stats().demotions, 2 * ChunkReadCache::kDemoteBatch);
}

TEST(ChunkCacheTiers, DemotionBatchNeverTakesTheMruFill)
{
    // 16 KiB, target 8 KiB, 2048 + 512 = 2560 billed per hot entry:
    // the fourth fill overflows the target with only four hot
    // entries.  The pass demotes the three older ones and stops short
    // of the batch size rather than demote the fill that triggered it.
    ChunkReadCache cache(kCap, 1);
    for (std::uint16_t i = 0; i < 4; ++i) {
        const auto seed = static_cast<std::uint8_t>(i);
        cache.insert(key(1, i), bytes(2048, seed), bytes(512, seed));
    }
    const ChunkCacheStats stats = cache.stats();
    EXPECT_EQ(stats.demote_passes, 1u);
    EXPECT_EQ(stats.demotions, 3u);
    EXPECT_EQ(cache.hot_entries(), 1u);
    EXPECT_EQ(cache.peek(key(1, 3)), CacheTier::kHot);
    for (std::uint16_t i = 0; i < 3; ++i)
        EXPECT_EQ(cache.peek(key(1, i)), CacheTier::kWarm) << "key " << i;
}

TEST(ChunkCacheGhosts, AdaptationIsAsymmetric)
{
    ChunkReadCache cache(kCap, 1);
    const std::uint64_t initial = cache.hot_target_bytes();

    // Demote A (hot tail -> warm + hot ghost), then re-reference it
    // warm: a bigger hot tier would have skipped the decompress, so
    // the target grows — by the quarter step.
    cache.insert(key(1, 0), bytes(kRaw, 60), bytes(kComp, 61));
    cache.insert(key(1, 1), bytes(kRaw, 62), bytes(kComp, 63));
    ASSERT_EQ(cache.lookup(key(1, 0)).tier, CacheTier::kWarm);
    const std::uint64_t grown = cache.hot_target_bytes();
    const std::uint64_t grow_delta = grown - initial;
    EXPECT_GT(grow_delta, 0u);
    EXPECT_EQ(cache.stats().ghost_hot_hits, 1u);

    // Push A out of DRAM entirely (warm LRU tail -> warm ghost; no
    // spill backend, so the image is gone), then miss on it: a bigger
    // warm tier would have kept it, so the target shrinks — by the
    // full step, 4x the grow step.
    for (std::uint16_t i = 2; i < 18; ++i)
        cache.insert(key(1, i), bytes(kRaw, i), bytes(kComp, i));
    ASSERT_GT(cache.stats().evictions, 0u);
    const std::uint64_t before_shrink = cache.hot_target_bytes();
    ASSERT_EQ(before_shrink, grown);  // Inserts don't move the target.
    EXPECT_FALSE(cache.lookup(key(1, 0)).hit());
    const std::uint64_t shrink_delta =
        before_shrink - cache.hot_target_bytes();
    EXPECT_GT(shrink_delta, 0u);
    EXPECT_EQ(cache.stats().ghost_warm_hits, 1u);
    EXPECT_LT(grow_delta * 2, shrink_delta);
}

/** Rig: two-tier cache over a fake spill device, plus the content
 *  book-keeping to verify every byte that comes back. */
struct SpillRig {
    FakeSpill spill;
    ChunkReadCache cache;
    std::unordered_map<std::uint16_t, Buffer> raws;
    std::unordered_map<std::uint16_t, Buffer> comps;

    explicit SpillRig(std::uint64_t spill_capacity = 64 * 1024)
        : spill(spill_capacity),
          cache(kCap, 1, &spill)
    {
    }

    void
    fill(std::uint16_t from, std::uint16_t to)
    {
        for (std::uint16_t i = from; i < to; ++i) {
            raws[i] = bytes(kRaw, static_cast<std::uint8_t>(i));
            comps[i] = bytes(kComp, static_cast<std::uint8_t>(i + 100));
            cache.insert(key(1, i), raws[i], Buffer(comps[i]));
        }
    }
};

TEST(ChunkCacheSpill, WarmEvictionsSpillAndReadBack)
{
    SpillRig rig;
    ASSERT_TRUE(rig.cache.spill_enabled());
    // 18 entries through a cache that holds ~12 in DRAM: the warm
    // tail overflows into the ring instead of vanishing.
    rig.fill(0, 18);
    EXPECT_GT(rig.cache.stats().spill_writes, 0u);
    EXPECT_EQ(rig.cache.stats().spill_writes, rig.spill.writes);
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    // The oldest key must be in the ring; its SpillRef round-trips
    // the exact compressed image through the backend.
    const TierLookup spilled = rig.cache.lookup(key(1, 0));
    ASSERT_EQ(spilled.tier, CacheTier::kSpill);
    EXPECT_EQ(spilled.spill.size, kComp);
    EXPECT_EQ(spilled.raw_size, kRaw);
    Result<Buffer> image =
        rig.spill.read(spilled.spill.offset, spilled.spill.size);
    ASSERT_TRUE(image.is_ok());
    EXPECT_EQ(image.value(), rig.comps.at(0));

    // Promote completes the spill hit: back to hot, out of the ring.
    const std::uint64_t promotions = rig.cache.stats().promotions;
    rig.cache.promote(key(1, 0), rig.raws.at(0),
                      Buffer(rig.comps.at(0)));
    EXPECT_EQ(rig.cache.stats().promotions, promotions + 1);
    EXPECT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kHot);
}

TEST(ChunkCacheSpill, RingWrapsAndDropsLappedEntries)
{
    // A 4-entry ring under 40 evictions must wrap repeatedly: lapped
    // occupants leave the index, occupancy never exceeds capacity,
    // and every surviving ref still reads back its own image.
    SpillRig rig(4 * kComp);
    rig.fill(0, 40);
    const ChunkCacheStats stats = rig.cache.stats();
    EXPECT_GT(stats.spill_writes, 4u);
    EXPECT_GT(stats.spill_overwritten, 0u);
    EXPECT_LE(rig.cache.spill_used_bytes(), 4 * kComp);
    EXPECT_LE(rig.cache.spill_entries(), 4u);
    EXPECT_GT(rig.cache.spill_entries(), 0u);

    std::size_t spill_hits = 0;
    for (std::uint16_t i = 0; i < 40; ++i) {
        const TierLookup got = rig.cache.lookup(key(1, i));
        if (got.tier != CacheTier::kSpill)
            continue;
        ++spill_hits;
        Result<Buffer> image =
            rig.spill.read(got.spill.offset, got.spill.size);
        ASSERT_TRUE(image.is_ok());
        EXPECT_EQ(image.value(), rig.comps.at(i)) << "key " << i;
    }
    EXPECT_GT(spill_hits, 0u);
}

TEST(ChunkCacheSpill, WriteFailureDropsTheEntryAndCounts)
{
    SpillRig rig;
    rig.spill.fail_writes = true;
    rig.fill(0, 18);
    EXPECT_GT(rig.cache.stats().spill_write_failures, 0u);
    EXPECT_EQ(rig.cache.stats().spill_writes, 0u);
    EXPECT_EQ(rig.cache.spill_entries(), 0u);
    // The failed-out key is simply a miss — never a dangling ref.
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
}

TEST(ChunkCacheMaintenance, RekeyMovesEveryTier)
{
    SpillRig rig;
    rig.fill(0, 18);
    // Tier census: 17 is hot (MRU), 16 is warm, 0 spilled.
    ASSERT_EQ(rig.cache.lookup(key(1, 17)).tier, CacheTier::kHot);
    ASSERT_EQ(rig.cache.lookup(key(1, 16)).tier, CacheTier::kWarm);
    ASSERT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kSpill);

    // GC relocated all three chunks: each entry must follow its key
    // within its tier, and the old keys must be gone.
    EXPECT_TRUE(rig.cache.rekey(key(1, 17), key(2, 17)));
    EXPECT_TRUE(rig.cache.rekey(key(1, 16), key(2, 16)));
    EXPECT_TRUE(rig.cache.rekey(key(1, 0), key(2, 0)));
    EXPECT_EQ(rig.cache.stats().rekeys, 3u);

    EXPECT_EQ(rig.cache.lookup(key(2, 17)).tier, CacheTier::kHot);
    EXPECT_EQ(rig.cache.lookup(key(2, 16)).tier, CacheTier::kWarm);
    const TierLookup moved = rig.cache.lookup(key(2, 0));
    ASSERT_EQ(moved.tier, CacheTier::kSpill);
    Result<Buffer> image =
        rig.spill.read(moved.spill.offset, moved.spill.size);
    ASSERT_TRUE(image.is_ok());
    EXPECT_EQ(image.value(), rig.comps.at(0));

    EXPECT_FALSE(rig.cache.lookup(key(1, 17)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 16)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
    // Rekeying a key that is resident nowhere reports no move.
    EXPECT_FALSE(rig.cache.rekey(key(1, 500), key(2, 500)));
}

TEST(ChunkCacheMaintenance, InvalidateCoversEveryTier)
{
    SpillRig rig;
    rig.fill(0, 18);
    ASSERT_EQ(rig.cache.lookup(key(1, 0)).tier, CacheTier::kSpill);
    const std::size_t spill_before = rig.cache.spill_entries();

    const std::uint64_t invalidations =
        rig.cache.stats().invalidations;
    rig.cache.invalidate(key(1, 17));  // Hot.
    rig.cache.invalidate(key(1, 16));  // Warm.
    rig.cache.invalidate(key(1, 0));   // Spill.
    EXPECT_EQ(rig.cache.stats().invalidations, invalidations + 3);
    EXPECT_FALSE(rig.cache.lookup(key(1, 17)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 16)).hit());
    EXPECT_FALSE(rig.cache.lookup(key(1, 0)).hit());
    EXPECT_EQ(rig.cache.spill_entries(), spill_before - 1);
}

TEST(ChunkCacheMaintenance, DramFillsAndRekeysDropShadowedRingEntries)
{
    SpillRig rig;
    rig.fill(0, 18);
    // Keys whose image peek() finds in the ring (DRAM shadows it).
    const auto ring_census = [&] {
        std::size_t spilled = 0;
        for (std::uint16_t i = 0; i < 18; ++i)
            spilled += rig.cache.peek(key(1, i)) == CacheTier::kSpill;
        return spilled;
    };
    ASSERT_EQ(rig.cache.peek(key(1, 0)), CacheTier::kSpill);

    // A fill over a spilled key: the DRAM copy supersedes the ring.
    rig.cache.insert(key(1, 0), rig.raws.at(0), Buffer(rig.comps.at(0)));
    ASSERT_EQ(rig.cache.peek(key(1, 0)), CacheTier::kHot);
    EXPECT_EQ(rig.cache.spill_entries(), ring_census());

    // A DRAM entry rekeyed onto a key the ring indexes.
    std::uint16_t target = 0;
    for (std::uint16_t i = 1; i < 18 && target == 0; ++i) {
        if (rig.cache.peek(key(1, i)) == CacheTier::kSpill)
            target = i;
    }
    ASSERT_NE(target, 0u);
    EXPECT_TRUE(rig.cache.rekey(key(1, 0), key(1, target)));
    EXPECT_EQ(rig.cache.peek(key(1, target)), CacheTier::kHot);
    EXPECT_EQ(rig.cache.spill_entries(), ring_census());
    EXPECT_EQ(rig.cache.spill_used_bytes(),
              rig.cache.spill_entries() * kComp);
}

TEST(ChunkCacheMaintenance, RingRekeyOntoADramKeyDropsTheDramCopy)
{
    // A ring-only rekey onto a key DRAM holds: the relocated ring
    // image is authoritative, so the stale DRAM resident must go and
    // the key must live in exactly one tier.
    SpillRig rig;
    rig.fill(0, 18);
    const auto ring_census = [&] {
        std::size_t spilled = 0;
        for (std::uint16_t i = 0; i < 18; ++i)
            spilled += rig.cache.peek(key(1, i)) == CacheTier::kSpill;
        return spilled;
    };
    ASSERT_EQ(rig.cache.peek(key(1, 0)), CacheTier::kSpill);
    ASSERT_EQ(rig.cache.peek(key(1, 16)), CacheTier::kWarm);
    const std::size_t warm_before = rig.cache.warm_entries();
    const std::uint64_t invalidations = rig.cache.stats().invalidations;

    EXPECT_TRUE(rig.cache.rekey(key(1, 0), key(1, 16)));
    EXPECT_EQ(rig.cache.peek(key(1, 16)), CacheTier::kSpill);
    EXPECT_EQ(rig.cache.peek(key(1, 0)), CacheTier::kNone);
    EXPECT_EQ(rig.cache.spill_entries(), ring_census());
    EXPECT_EQ(rig.cache.warm_entries(), warm_before - 1);
    // One invalidation for the retired key, one for the displaced copy.
    EXPECT_EQ(rig.cache.stats().invalidations, invalidations + 2);

    // The surviving image is the relocated one.
    const TierLookup moved = rig.cache.lookup(key(1, 16));
    ASSERT_EQ(moved.tier, CacheTier::kSpill);
    Result<Buffer> image =
        rig.spill.read(moved.spill.offset, moved.spill.size);
    ASSERT_TRUE(image.is_ok());
    EXPECT_EQ(image.value(), rig.comps.at(0));
}

TEST(ChunkCacheMaintenance, InvalidateContainerSweepsSpill)
{
    SpillRig rig;
    // Interleave two containers so both tiers and the ring hold keys
    // of each.
    for (std::uint16_t i = 0; i < 18; ++i) {
        const std::uint64_t container = (i % 2 == 0) ? 1 : 2;
        rig.cache.insert(key(container, i),
                         bytes(kRaw, static_cast<std::uint8_t>(i)),
                         bytes(kComp, static_cast<std::uint8_t>(i)));
    }
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    rig.cache.invalidate_container(1);
    for (std::uint16_t i = 0; i < 18; i += 2)
        EXPECT_FALSE(rig.cache.lookup(key(1, i)).hit()) << "key " << i;
    // Container 2 survives somewhere (DRAM or ring).
    std::size_t survivors = 0;
    for (std::uint16_t i = 1; i < 18; i += 2)
        survivors += rig.cache.lookup(key(2, i)).hit() ? 1 : 0;
    EXPECT_GT(survivors, 0u);
}

TEST(ChunkCacheMaintenance, ClearDropsDramAndSpillIndex)
{
    SpillRig rig;
    rig.fill(0, 18);
    ASSERT_GT(rig.cache.entries(), 0u);
    ASSERT_GT(rig.cache.spill_entries(), 0u);

    rig.cache.clear();
    EXPECT_EQ(rig.cache.entries(), 0u);
    EXPECT_EQ(rig.cache.spill_entries(), 0u);
    EXPECT_EQ(rig.cache.used_bytes(), 0u);
    EXPECT_EQ(rig.cache.spill_used_bytes(), 0u);
    for (std::uint16_t i = 0; i < 18; ++i)
        EXPECT_FALSE(rig.cache.lookup(key(1, i)).hit()) << "key " << i;
}

TEST(ChunkCacheTiers, OversizePayloadIsNotCached)
{
    ChunkReadCache cache(kCap, 1);
    cache.insert(key(1, 0), bytes(kCap + 1, 70), bytes(kComp, 71));
    EXPECT_EQ(cache.entries(), 0u);
    EXPECT_EQ(cache.used_bytes(), 0u);
}

TEST(ChunkCacheTiers, StatsAggregateOverShards)
{
    ChunkReadCache cache(4 * kCap, 4);
    for (std::uint16_t i = 0; i < 32; ++i)
        cache.insert(key(i, i), bytes(kRaw, static_cast<std::uint8_t>(i)),
                     bytes(kComp, static_cast<std::uint8_t>(i)));
    for (std::uint16_t i = 0; i < 32; ++i)
        (void)cache.lookup(key(i, i));

    ChunkCacheStats total;
    for (std::size_t s = 0; s < cache.shard_count(); ++s) {
        const ChunkCacheStats shard = cache.shard_stats(s);
        total.hits += shard.hits;
        total.misses += shard.misses;
        total.insertions += shard.insertions;
        total.demotions += shard.demotions;
    }
    const ChunkCacheStats aggregate = cache.stats();
    EXPECT_EQ(aggregate.hits, total.hits);
    EXPECT_EQ(aggregate.misses, total.misses);
    EXPECT_EQ(aggregate.insertions, total.insertions);
    EXPECT_EQ(aggregate.demotions, total.demotions);
    EXPECT_EQ(aggregate.insertions, 32u);
}

/** FNV-1a step over one 64-bit word. */
std::uint64_t
fold(std::uint64_t digest, std::uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        digest ^= (word >> (8 * i)) & 0xFF;
        digest *= 0x100000001B3ull;
    }
    return digest;
}

std::uint64_t
fold_bytes(std::uint64_t digest, const Buffer &data)
{
    for (const std::uint8_t byte : data) {
        digest ^= byte;
        digest *= 0x100000001B3ull;
    }
    return fold(digest, data.size());
}

/** The test's stand-in for decompression: raw bytes are a pure
 *  function of the compressed image and the raw size. */
Buffer
expand(const Buffer &compressed, std::uint32_t raw_size)
{
    return bytes(raw_size,
                 static_cast<std::uint8_t>(fold_bytes(0, compressed)));
}

TEST(ChunkCacheTiers, ScriptedStreamPinsThePolicy)
{
    // A fixed-seed stream of lookups (each completed the way the read
    // plane completes it: warm and spill hits promote, misses insert),
    // direct inserts and promotes, invalidations, rekeys and container
    // sweeps over a 2-shard cache with the spill ring on.  The key
    // space (~2k keys per shard) overruns both ghost lists, the hot
    // set keeps all three tiers hitting, and the small ring laps.
    // Every expected value below pins the policy, including fills and
    // rekeys onto a spilled key dropping the ring image they shadow;
    // any storage rewrite must reproduce it exactly.
    FakeSpill spill(48 * 1024);
    ChunkReadCache cache(128 * 1024, 2, &spill);

    std::uint64_t rng = 0x5EED;
    const auto next = [&rng] {
        rng += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = rng;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    constexpr std::uint64_t kContainers = 64;
    constexpr std::uint64_t kOffsets = 64;
    const auto pick = [&] {
        const std::uint64_t r = next();
        if (r % 5 != 0)  // Hot set: 48 keys.
            return key((r >> 8) % 3, static_cast<std::uint16_t>(
                                         (r >> 16) % 16));
        return key((r >> 8) % kContainers,
                   static_cast<std::uint16_t>((r >> 24) % kOffsets));
    };
    const auto fresh_image = [&] {
        return bytes(256 + next() % 2048,
                     static_cast<std::uint8_t>(next()));
    };
    const auto fresh_raw_size = [&]() -> std::uint32_t {
        return next() % 8 == 0 ? 2048 : 4096;
    };

    std::uint64_t returned = 0xCBF29CE484222325ull;
    for (int op = 0; op < 30000; ++op) {
        const std::uint64_t roll = next() % 1000;
        const ChunkKey k = pick();
        if (roll < 700) {
            TierLookup got = cache.lookup(k);
            returned = fold(returned, static_cast<std::uint64_t>(got.tier));
            switch (got.tier) {
              case CacheTier::kHot:
                returned = fold_bytes(returned, got.raw);
                break;
              case CacheTier::kWarm: {
                returned = fold_bytes(returned, got.compressed);
                const Buffer raw = expand(got.compressed, got.raw_size);
                cache.promote(k, raw, std::move(got.compressed));
                break;
              }
              case CacheTier::kSpill: {
                Result<Buffer> image =
                    spill.read(got.spill.offset, got.spill.size);
                ASSERT_TRUE(image.is_ok());
                returned = fold_bytes(returned, image.value());
                const Buffer raw = expand(image.value(), got.raw_size);
                cache.promote(k, raw, image.take());
                break;
              }
              case CacheTier::kNone: {
                Buffer image = fresh_image();
                const Buffer raw = expand(image, fresh_raw_size());
                cache.insert(k, raw, std::move(image));
                break;
              }
            }
        } else if (roll < 800) {
            Buffer image = fresh_image();
            const Buffer raw = expand(image, fresh_raw_size());
            cache.insert(k, raw, std::move(image));
        } else if (roll < 820) {
            Buffer image = fresh_image();
            const Buffer raw = expand(image, fresh_raw_size());
            cache.promote(k, raw, std::move(image));
        } else if (roll < 900) {
            cache.invalidate(k);
        } else if (roll < 995) {
            returned = fold(returned, cache.rekey(k, pick()) ? 1 : 0);
        } else {
            cache.invalidate_container(k.container_id);
        }
    }

    const ChunkCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 13085u);
    EXPECT_EQ(s.misses, 7984u);
    EXPECT_EQ(s.insertions, 9450u);
    EXPECT_EQ(s.evictions, 6135u);
    EXPECT_EQ(s.invalidations, 5885u);
    EXPECT_EQ(s.rekeys, 1732u);
    EXPECT_EQ(s.hot.hits, 1859u);
    EXPECT_EQ(s.hot.insertions, 22415u);
    EXPECT_EQ(s.hot.evictions, 21809u);
    EXPECT_EQ(s.warm.hits, 10528u);
    EXPECT_EQ(s.warm.insertions, 21809u);
    EXPECT_EQ(s.warm.evictions, 6135u);
    EXPECT_EQ(s.spill.hits, 698u);
    EXPECT_EQ(s.spill.insertions, 6135u);
    EXPECT_EQ(s.spill.evictions, 5039u);
    EXPECT_EQ(s.demotions, 21809u);
    EXPECT_EQ(s.promotions, 12965u);
    EXPECT_EQ(s.demote_passes, 4684u);
    EXPECT_EQ(s.ghost_hot_hits, 10459u);
    EXPECT_EQ(s.ghost_warm_hits, 2579u);
    EXPECT_EQ(s.spill_writes, 6135u);
    EXPECT_EQ(s.spill_write_failures, 0u);
    EXPECT_EQ(s.spill_overwritten, 5039u);
    EXPECT_EQ(spill.writes, s.spill_writes);

    EXPECT_EQ(cache.hot_target_bytes(), 63850u);
    EXPECT_EQ(cache.hot_used_bytes(), 49475u);
    EXPECT_EQ(cache.warm_used_bytes(), 70934u);
    EXPECT_EQ(cache.spill_used_bytes(), 44515u);
    EXPECT_EQ(cache.hot_entries(), 10u);
    EXPECT_EQ(cache.warm_entries(), 59u);
    EXPECT_EQ(cache.spill_entries(), 39u);
    EXPECT_EQ(returned, 4426462080096039229ull);

    // Final residency of every key, without perturbing the policy.
    std::uint64_t residency = 0xCBF29CE484222325ull;
    std::size_t resident[4] = {};
    for (std::uint64_t c = 0; c < kContainers; ++c) {
        for (std::uint16_t o = 0; o < kOffsets; ++o) {
            const CacheTier tier = cache.peek(key(c, o));
            ++resident[static_cast<std::size_t>(tier)];
            residency = fold(residency, static_cast<std::uint64_t>(tier));
        }
    }
    EXPECT_EQ(resident[static_cast<std::size_t>(CacheTier::kHot)],
              cache.hot_entries());
    EXPECT_EQ(resident[static_cast<std::size_t>(CacheTier::kWarm)],
              cache.warm_entries());
    EXPECT_EQ(resident[static_cast<std::size_t>(CacheTier::kSpill)],
              cache.spill_entries());
    EXPECT_EQ(residency, 12939912024064823748ull);
}

}  // namespace
}  // namespace fidr::cache
