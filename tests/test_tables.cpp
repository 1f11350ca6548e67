// Tests for the metadata tables: Hash-PBN buckets, LBA-PBA mapping,
// container log.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "fidr/common/bytes.h"
#include "fidr/common/rng.h"
#include "fidr/core/gc.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"
#include "fidr/tables/container.h"
#include "fidr/tables/hash_pbn.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::tables {
namespace {

Digest
digest_of(std::uint64_t n)
{
    Buffer b(8);
    store_le(b.data(), n, 8);
    return Sha256::hash(b);
}

TEST(Bucket, InsertLookupRemove)
{
    Bucket bucket;
    const Digest d = digest_of(1);
    EXPECT_FALSE(bucket.lookup(d).has_value());
    ASSERT_TRUE(bucket.insert(d, 42).is_ok());
    EXPECT_EQ(bucket.lookup(d), std::optional<Pbn>(42));
    ASSERT_TRUE(bucket.insert(d, 43).is_ok());  // Overwrite in place.
    EXPECT_EQ(bucket.size(), 1u);
    EXPECT_EQ(bucket.lookup(d), std::optional<Pbn>(43));
    EXPECT_TRUE(bucket.remove(d));
    EXPECT_FALSE(bucket.remove(d));
}

TEST(Bucket, CapacityIs107)
{
    Bucket bucket;
    for (std::uint64_t i = 0; i < Bucket::kCapacity; ++i)
        ASSERT_TRUE(bucket.insert(digest_of(i), i).is_ok());
    EXPECT_TRUE(bucket.full());
    EXPECT_EQ(Bucket::kCapacity, 107u);
    EXPECT_EQ(bucket.insert(digest_of(9999), 1).code(),
              StatusCode::kOutOfSpace);
}

TEST(Bucket, ScanCountReported)
{
    Bucket bucket;
    for (std::uint64_t i = 0; i < 10; ++i)
        ASSERT_TRUE(bucket.insert(digest_of(i), i).is_ok());
    std::size_t scanned = 0;
    (void)bucket.lookup(digest_of(4), &scanned);
    EXPECT_EQ(scanned, 5u);  // Fifth entry matches.
    (void)bucket.lookup(digest_of(999), &scanned);
    EXPECT_EQ(scanned, 10u);  // Full scan on miss.
}

TEST(Bucket, SerializeDeserializeRoundTrip)
{
    Bucket bucket;
    for (std::uint64_t i = 0; i < 37; ++i)
        ASSERT_TRUE(bucket.insert(digest_of(i), i * 7).is_ok());
    const Buffer raw = bucket.serialize();
    ASSERT_EQ(raw.size(), kBucketSize);

    Result<Bucket> parsed = Bucket::deserialize(raw);
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value().size(), 37u);
    for (std::uint64_t i = 0; i < 37; ++i)
        EXPECT_EQ(parsed.value().lookup(digest_of(i)),
                  std::optional<Pbn>(i * 7));
}

TEST(Bucket, DeserializeRejectsGarbage)
{
    EXPECT_FALSE(Bucket::deserialize(Buffer(10, 0)).is_ok());
    Buffer bad(kBucketSize, 0);
    bad[0] = 0xFF;  // Entry count 255 > capacity.
    bad[1] = 0x00;
    EXPECT_FALSE(Bucket::deserialize(bad).is_ok());
}

TEST(Bucket, PbnSixByteBound)
{
    Bucket bucket;
    ASSERT_TRUE(bucket.insert(digest_of(1), kMaxPbn).is_ok());
    const Buffer raw = bucket.serialize();
    EXPECT_EQ(Bucket::deserialize(raw).value().lookup(digest_of(1)),
              std::optional<Pbn>(kMaxPbn));
}

TEST(HashPbnTable, BucketIoRoundTrip)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::Ssd ssd(config);
    HashPbnTable table(ssd, 512);

    Bucket bucket;
    ASSERT_TRUE(bucket.insert(digest_of(5), 55).is_ok());
    ASSERT_TRUE(table.write_bucket(17, bucket).is_ok());

    Bucket read;
    ASSERT_TRUE(table.read_bucket(17, read).is_ok());
    EXPECT_EQ(read.lookup(digest_of(5)), std::optional<Pbn>(55));

    // Never-written buckets parse as empty (zero-filled pages), also
    // into a bucket that held entries.
    ASSERT_TRUE(table.read_bucket(100, read).is_ok());
    EXPECT_EQ(read.size(), 0u);
}

bool
same_entries(const Bucket &a, const Bucket &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.entries()[i].digest != b.entries()[i].digest ||
            a.entries()[i].pbn != b.entries()[i].pbn)
            return false;
    }
    return true;
}

/**
 * Random insert/remove histories over a few buckets (growing to full,
 * shrinking to empty), written and read back through HashPbnTable on
 * one device and as whole Bucket::serialize() images through
 * Ssd::write / Ssd::read + Bucket::deserialize on another; reads also
 * hit never-written buckets.  With `faults`, a third of the bucket IOs
 * run with one fault armed — kSsdWrite error, torn write or bit flip,
 * kSsdRead error or bit flip — with the same decision on both sides.
 * Outcomes, decoded buckets, table-SSD page bytes and the byte and IO
 * counters must all agree.
 */
void
expect_bucket_io_matches_image_io(std::uint64_t seed, bool faults)
{
    constexpr BucketIndex kBuckets = 16;
    constexpr BucketIndex kWritten = 6;  // Buckets the history writes.
    ssd::SsdConfig config;
    config.capacity_bytes = 1 * kMiB;
    ssd::Ssd paged(config);
    ssd::Ssd whole(config);
    HashPbnTable table(paged, kBuckets);
    Rng rng(seed);
    std::vector<Bucket> content(kWritten);
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    // Arms one fault of `kind` at `site` when `inject`, else nothing.
    const auto arm = [&registry](bool inject, fault::FaultKind kind,
                                 fault::Site site,
                                 std::uint64_t fault_seed) {
        registry.disarm_all();
        if (!inject)
            return;
        registry.reset_counters();
        registry.set_seed(fault_seed);
        fault::FaultPolicy policy;
        policy.kind = kind;
        policy.fail_nth = 1;
        policy.max_fires = 1;
        registry.arm(site, policy);
    };

    Bucket got;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t op = rng.next_below(10);
        const std::uint64_t fault_seed = rng.next_u64();
        const bool inject = faults && rng.next_below(3) == 0;
        if (op < 4) {
            // Grow by a burst of inserts or shrink by a burst of
            // removes; now and then empty the bucket outright.
            Bucket &bucket = content[rng.next_below(kWritten)];
            const std::uint64_t burst = 1 + rng.next_below(40);
            const std::uint64_t mode = rng.next_below(8);
            for (std::uint64_t i = 0; i < burst; ++i) {
                if (mode < 4 && !bucket.full()) {
                    ASSERT_TRUE(bucket
                                    .insert(digest_of(rng.next_below(500)),
                                            rng.next_below(kMaxPbn))
                                    .is_ok());
                } else if (bucket.size() > 0) {
                    const std::size_t at = mode == 7
                                               ? 0
                                               : rng.next_below(bucket.size());
                    ASSERT_TRUE(
                        bucket.remove(bucket.entries()[at].digest));
                }
            }
        } else if (op < 7) {
            const BucketIndex index = rng.next_below(kWritten);
            static constexpr fault::FaultKind kWriteKinds[] = {
                fault::FaultKind::kError, fault::FaultKind::kTornWrite,
                fault::FaultKind::kBitFlip};
            const fault::FaultKind kind = kWriteKinds[rng.next_below(3)];
            arm(inject, kind, fault::Site::kSsdWrite, fault_seed);
            const Status a = table.write_bucket(index, content[index]);
            arm(inject, kind, fault::Site::kSsdWrite, fault_seed);
            const Status b =
                whole.write(index * kBucketSize, content[index].serialize());
            ASSERT_EQ(a.code(), b.code()) << "step " << step;
        } else {
            const BucketIndex index = rng.next_below(kBuckets);
            const fault::FaultKind kind = rng.next_below(2) == 0
                                              ? fault::FaultKind::kError
                                              : fault::FaultKind::kBitFlip;
            arm(inject, kind, fault::Site::kSsdRead, fault_seed);
            const Status a = table.read_bucket(index, got);
            arm(inject, kind, fault::Site::kSsdRead, fault_seed);
            Result<Buffer> raw = whole.read(index * kBucketSize, kBucketSize);
            const Result<Bucket> b =
                raw.is_ok() ? Bucket::deserialize(raw.value())
                            : Result<Bucket>(raw.status());
            ASSERT_EQ(a.code(), b.status().code()) << "step " << step;
            if (a.is_ok()) {
                ASSERT_TRUE(same_entries(got, b.value()))
                    << "step " << step;
            }
        }
    }
    registry.disarm_all();

    EXPECT_EQ(paged.bytes_written(), whole.bytes_written());
    EXPECT_EQ(paged.write_ios(), whole.write_ios());
    EXPECT_EQ(paged.write_errors(), whole.write_errors());
    EXPECT_EQ(paged.bytes_read(), whole.bytes_read());
    EXPECT_EQ(paged.read_ios(), whole.read_ios());
    EXPECT_EQ(paged.read_errors(), whole.read_errors());
    EXPECT_EQ(paged.bytes_stored(), whole.bytes_stored());
    for (BucketIndex i = 0; i < kBuckets; ++i) {
        EXPECT_EQ(paged.read(i * kBucketSize, kBucketSize).take(),
                  whole.read(i * kBucketSize, kBucketSize).take())
            << "bucket " << i;
    }
}

TEST(HashPbnTable, BucketIoMatchesWholeImageIo)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        expect_bucket_io_matches_image_io(seed, false);
}

#if FIDR_FAULT_ENABLED
TEST(HashPbnTable, BucketIoMatchesWholeImageIoUnderFaults)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
        expect_bucket_io_matches_image_io(seed, true);
}
#endif  // FIDR_FAULT_ENABLED

TEST(HashPbnTable, BucketForIsStableAndInRange)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::Ssd ssd(config);
    HashPbnTable table(ssd, 1000);
    for (std::uint64_t i = 0; i < 500; ++i) {
        const BucketIndex b = table.bucket_for(digest_of(i));
        EXPECT_LT(b, 1000u);
        EXPECT_EQ(b, table.bucket_for(digest_of(i)));
    }
}

TEST(HashPbnTable, SizingArithmetic)
{
    // 1 PB of unique 4 KB chunks => ~9.5 TB table (paper Sec 2.1.3).
    const std::uint64_t pb_chunks = kPB / kChunkSize;
    const std::uint64_t buckets =
        HashPbnTable::buckets_for_capacity(pb_chunks, 1.0);
    const double table_tb =
        static_cast<double>(buckets) * kBucketSize / 1e12;
    EXPECT_NEAR(table_tb, 9.5, 0.5);
}

TEST(LbaPba, MapAndLookup)
{
    LbaPbaTable table;
    EXPECT_FALSE(table.map_lba(10, 1).has_value());
    table.set_location(1, ChunkLocation{3, 5, 2048});
    const auto loc = table.lookup(10);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->container_id, 3u);
    EXPECT_EQ(loc->offset_bytes(), 5u * 64);
    EXPECT_EQ(loc->compressed_size, 2048u);
    EXPECT_TRUE(table.validate().is_ok());
}

TEST(LbaPba, RefcountsAcrossSharingAndOverwrite)
{
    LbaPbaTable table;
    table.map_lba(1, 100);
    table.map_lba(2, 100);  // Dedup: two LBAs share PBN 100.
    EXPECT_EQ(table.refcount(100), 2u);

    // Overwrite LBA 1 with new content.
    const auto prev = table.map_lba(1, 200);
    EXPECT_EQ(prev, std::optional<Pbn>(100));
    EXPECT_EQ(table.refcount(100), 1u);
    EXPECT_EQ(table.refcount(200), 1u);

    // Last reference dropped: PBN becomes reclaimable.
    table.map_lba(2, 200);
    EXPECT_EQ(table.refcount(100), 0u);
    EXPECT_TRUE(table.reclaim(100));
    EXPECT_FALSE(table.reclaim(200));  // Still referenced.
    EXPECT_TRUE(table.validate().is_ok());
}

TEST(LbaPba, LookupMissesAreNull)
{
    LbaPbaTable table;
    EXPECT_FALSE(table.pbn_of(1).has_value());
    EXPECT_FALSE(table.lookup(1).has_value());
    EXPECT_FALSE(table.location_of(5).has_value());
}

/** Reference LBA-PBA semantics over ordered std::maps. */
struct LbaPbaModel {
    struct Info {
        std::uint32_t refcount = 0;
        std::optional<ChunkLocation> location;
    };
    std::map<Lba, Pbn> lbas;
    std::map<Pbn, Info> pbns;

    std::optional<Pbn>
    map_lba(Lba lba, Pbn pbn)
    {
        const std::optional<Pbn> previous = unmap_lba(lba);
        lbas[lba] = pbn;
        ++pbns[pbn].refcount;
        return previous;
    }

    std::optional<Pbn>
    unmap_lba(Lba lba)
    {
        const auto it = lbas.find(lba);
        if (it == lbas.end())
            return std::nullopt;
        const Pbn pbn = it->second;
        --pbns.at(pbn).refcount;
        lbas.erase(it);
        return pbn;
    }

    bool
    reclaim(Pbn pbn)
    {
        const auto it = pbns.find(pbn);
        if (it == pbns.end() || it->second.refcount != 0)
            return false;
        pbns.erase(it);
        return true;
    }
};

/** Every observable of `table` against `model`. */
void
expect_matches(const LbaPbaTable &table, const LbaPbaModel &model)
{
    ASSERT_TRUE(table.validate().is_ok());
    EXPECT_EQ(table.mapped_lbas(), model.lbas.size());
    EXPECT_EQ(table.live_pbns(), model.pbns.size());
    for (const auto &[lba, pbn] : model.lbas) {
        EXPECT_EQ(table.pbn_of(lba), std::optional<Pbn>(pbn));
        EXPECT_EQ(table.lookup(lba), model.pbns.at(pbn).location);
    }
    std::size_t visited = 0;
    table.for_each_pbn([&](Pbn pbn, std::uint32_t refcount,
                           const std::optional<ChunkLocation> &location) {
        ++visited;
        const auto it = model.pbns.find(pbn);
        ASSERT_NE(it, model.pbns.end()) << pbn;
        EXPECT_EQ(refcount, it->second.refcount) << pbn;
        EXPECT_EQ(location, it->second.location) << pbn;
        EXPECT_EQ(table.refcount(pbn), refcount);
        EXPECT_EQ(table.location_of(pbn), location);
    });
    EXPECT_EQ(visited, model.pbns.size());

    // Live bytes: every located PBN counts in its container.
    std::map<std::uint64_t, std::uint64_t> live;
    std::uint64_t total = 0;
    for (const auto &[pbn, info] : model.pbns) {
        if (info.location) {
            live[info.location->container_id] +=
                info.location->compressed_size;
            total += info.location->compressed_size;
        }
    }
    EXPECT_EQ(table.live_bytes(), total);
    for (std::uint64_t container = 0; container < 1000; ++container) {
        const auto it = live.find(container);
        EXPECT_EQ(table.container_live_bytes(container),
                  it == live.end() ? 0 : it->second)
            << container;
    }
}

TEST(LbaPba, MatchesOrderedReferenceOverRandomOperations)
{
    // Random map / unmap / set_location / reclaim over a key space that
    // keeps dedup sharing, overwrites and reclaims frequent, against
    // std::map semantics; every checkpoint image must round-trip
    // byte-identically.
    LbaPbaTable table;
    LbaPbaModel model;
    Rng rng(0x1BA);
    for (int op = 0; op < 40000; ++op) {
        const Lba lba = rng.next_below(2048) * 8;
        const Pbn pbn = 1 + rng.next_below(600);
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 50) {
            ASSERT_EQ(table.map_lba(lba, pbn), model.map_lba(lba, pbn));
        } else if (roll < 65) {
            ASSERT_EQ(table.unmap_lba(lba), model.unmap_lba(lba));
        } else if (roll < 85) {
            const ChunkLocation location{
                rng.next_below(1000),
                static_cast<std::uint16_t>(rng.next_below(65536)),
                static_cast<std::uint16_t>(1 + rng.next_below(4096))};
            table.set_location(pbn, location);
            model.pbns[pbn].location = location;
        } else {
            ASSERT_EQ(table.reclaim(pbn), model.reclaim(pbn));
        }
        if (op % 5000 == 0)
            expect_matches(table, model);
    }
    expect_matches(table, model);

    const Buffer image = table.serialize();
    Result<LbaPbaTable> loaded = LbaPbaTable::deserialize(image);
    ASSERT_TRUE(loaded.is_ok());
    EXPECT_EQ(loaded.value().serialize(), image);
    // Loading keeps every mapping, every location and the refcounts;
    // only unlocated, unreferenced PBNs (nothing to record) are gone.
    for (auto it = model.pbns.begin(); it != model.pbns.end();) {
        if (it->second.refcount == 0 && !it->second.location)
            it = model.pbns.erase(it);
        else
            ++it;
    }
    expect_matches(loaded.value(), model);
}

TEST(LbaPba, LiveDeadAccounting)
{
    // Two chunks in container 0, whose log payload is their 3072 B.
    LbaPbaTable table;
    constexpr std::uint64_t kPayload = 3072;
    const ChunkLocation a{0, 0, 2048};
    const ChunkLocation b{0, 32, 1024};
    const Digest da = Sha256::hash(Buffer(kChunkSize, 1));
    const Digest db = Sha256::hash(Buffer(kChunkSize, 2));
    table.map_lba(1, 10);
    table.map_lba(2, 11);
    table.set_location(10, a);
    table.set_digest(10, da);
    table.set_location(11, b);
    table.set_digest(11, db);
    EXPECT_EQ(table.live_bytes(), 3072u);
    EXPECT_EQ(kPayload - table.container_live_bytes(0), 0u);

    // LBA 1 moves to PBN 11: PBN 10 dies, taking its digest along.
    table.map_lba(1, 11);
    EXPECT_EQ(table.digest_of(10), da);
    ASSERT_TRUE(table.reclaim(10));
    EXPECT_EQ(table.live_bytes(), 1024u);
    EXPECT_EQ(kPayload - table.container_live_bytes(0), 2048u);
    EXPECT_FALSE(table.digest_of(10).has_value());
    // Double-kill is a no-op.
    EXPECT_FALSE(table.reclaim(10));
    EXPECT_EQ(table.live_bytes(), 1024u);

    // Container 0 is now 2/3 dead.
    const core::ContainerFill fill[] = {
        {0, table.container_live_bytes(0), kPayload}};
    core::GcConfig config;
    config.dead_fraction = 0.5;
    EXPECT_EQ(core::GcScheduler(config).select_victim(fill, 0.9),
              std::optional<std::uint64_t>(0));
    config.dead_fraction = 0.7;
    EXPECT_FALSE(
        core::GcScheduler(config).select_victim(fill, 0.9).has_value());
    EXPECT_EQ(table.located_in(0), std::vector<Pbn>{11});

    // Relocation moves the bytes and keeps the digest; re-setting the
    // same location (a replayed record) changes nothing.
    const ChunkLocation moved{5, 0, 1024};
    table.set_location(11, moved);
    table.set_location(11, moved);
    EXPECT_EQ(table.container_live_bytes(0), 0u);
    EXPECT_EQ(table.container_live_bytes(5), 1024u);
    EXPECT_EQ(table.live_bytes(), 1024u);
    EXPECT_TRUE(table.located_in(0).empty());
    EXPECT_EQ(table.located_in(5), std::vector<Pbn>{11});
    EXPECT_EQ(table.digest_of(11), db);
    table.drop_container(0);
    EXPECT_TRUE(table.located_in(0).empty());
    EXPECT_EQ(table.located_in(5), std::vector<Pbn>{11});
}

TEST(LbaPba, SnapshotDependsOnlyOnContents)
{
    // The same contents built in opposite orders, one through a detour
    // of extra mappings that were later dropped, serialize to the same
    // bytes: records go out in key order.
    LbaPbaTable forward;
    LbaPbaTable backward;
    for (Lba lba = 0; lba < 500; ++lba) {
        forward.map_lba(lba * 3, 1000 + lba % 97);
        forward.set_location(1000 + lba % 97,
                             ChunkLocation{lba % 97, 2, 512});
    }
    for (Lba lba = 5000; lba < 6000; ++lba)
        backward.map_lba(lba, 50);
    for (Lba lba = 500; lba-- > 0;) {
        backward.map_lba(lba * 3, 1000 + lba % 97);
        backward.set_location(1000 + lba % 97,
                              ChunkLocation{lba % 97, 2, 512});
    }
    for (Lba lba = 5000; lba < 6000; ++lba)
        backward.unmap_lba(lba);
    ASSERT_TRUE(backward.reclaim(50));
    EXPECT_EQ(forward.serialize(), backward.serialize());
}

TEST(LbaPba, DeserializeRejectsTheNoContainerSentinel)
{
    LbaPbaTable table;
    table.map_lba(1, 2);
    table.set_location(2, ChunkLocation{7, 1, 100});
    Buffer image = table.serialize();
    store_le(image.data() + 24 + 8, ~std::uint64_t{0}, 8);
    EXPECT_EQ(LbaPbaTable::deserialize(image).status().code(),
              StatusCode::kCorruption);
}

TEST(ContainerLog, AppendReadRoundTrip)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(2, config);
    ContainerLog log(array, 64 * 1024);

    Rng rng(8);
    std::vector<std::pair<ChunkLocation, Buffer>> stored;
    for (int i = 0; i < 100; ++i) {
        Buffer data(500 + rng.next_below(3000));
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next_u64());
        Result<ChunkLocation> loc = log.append(data);
        ASSERT_TRUE(loc.is_ok());
        stored.emplace_back(loc.value(), std::move(data));
    }
    // Some containers sealed mid-way; read back both sealed and open.
    EXPECT_GT(log.sealed_containers(), 0u);
    for (const auto &[loc, data] : stored) {
        Result<Buffer> out = log.read(loc);
        ASSERT_TRUE(out.is_ok());
        EXPECT_EQ(out.value(), data);
    }
    ASSERT_TRUE(log.flush().is_ok());
    for (const auto &[loc, data] : stored)
        EXPECT_EQ(log.read(loc).value(), data);
}

TEST(ContainerLog, OffsetsAre64ByteAligned)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 4 * kMiB);
    const auto a = log.append(Buffer(100, 1)).take();
    const auto b = log.append(Buffer(100, 2)).take();
    EXPECT_EQ(a.offset_bytes() % 64, 0u);
    EXPECT_EQ(b.offset_bytes(), 128u);  // 100 rounded up to 128.
}

TEST(ContainerLog, RejectsOversizeAndEmpty)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 4 * kMiB);
    EXPECT_FALSE(log.append(Buffer{}).is_ok());
    EXPECT_FALSE(log.append(Buffer(70000, 0)).is_ok());
}

TEST(ContainerLog, ReadRejectsBadLocation)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 64 * 1024);
    ChunkLocation bogus{99, 0, 100};
    EXPECT_FALSE(log.read(bogus).is_ok());
}

TEST(ContainerLog, PayloadAccounting)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 64 * 1024);
    ASSERT_TRUE(log.append(Buffer(1000, 1)).is_ok());
    ASSERT_TRUE(log.append(Buffer(500, 2)).is_ok());
    EXPECT_EQ(log.payload_bytes(), 1500u);
}

// ---------------------------------------------------------------------
// Durable layout v2 (ISSUE: versioned recovery): superblock cadence,
// device-scan recovery, torn-seal and open-buffer semantics.

TEST(ContainerLogV2, RecoverRebuildsDirectoryFromDevice)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(2, config);

    // Fill a log, seal everything, discard one sealed container.
    ContainerLog log1(array, 64 * 1024, /*superblock_interval=*/2);
    Rng rng(99);
    std::vector<std::pair<ChunkLocation, Buffer>> sealed;
    for (int i = 0; i < 100; ++i) {
        Buffer data(500 + rng.next_below(3000));
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next_u64());
        const auto loc = log1.append(data).take();
        sealed.emplace_back(loc, std::move(data));
    }
    ASSERT_TRUE(log1.flush().is_ok());
    std::uint64_t discarded_id = 0;  // First sealed id.
    while (!log1.sealed(discarded_id))
        ++discarded_id;
    ASSERT_TRUE(log1.discard(discarded_id).is_ok());

    // A fresh object over the same devices: host DRAM is gone.
    ContainerLog log2(array, 64 * 1024, 2);
    ASSERT_TRUE(log2.recover().is_ok());
    EXPECT_GT(log2.stats().headers_scanned, 0u);
    EXPECT_GT(log2.stats().containers_recovered, 0u);
    EXPECT_GE(log2.superblock_seq(), 1u);

    for (const auto &[loc, data] : sealed) {
        if (loc.container_id == discarded_id) {
            EXPECT_FALSE(log2.read(loc).is_ok());
        } else {
            Result<Buffer> out = log2.read(loc);
            ASSERT_TRUE(out.is_ok())
                << "container " << loc.container_id;
            EXPECT_EQ(out.value(), data);
        }
    }
    EXPECT_FALSE(log2.sealed(discarded_id));

    // New ids continue past the high-water mark — the discarded id is
    // never reissued (the superblock written before the trim floors
    // the id space).
    const std::uint64_t high_water = log1.containers();
    const auto fresh = log2.append(Buffer(4096, 7)).take();
    ASSERT_TRUE(log2.flush().is_ok());
    EXPECT_GE(fresh.container_id, high_water - 1);
    EXPECT_NE(fresh.container_id, discarded_id);
    EXPECT_EQ(log2.read(fresh).value(), Buffer(4096, 7));
}

TEST(ContainerLogV2, TornSealHeaderIsInvisibleToRecovery)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 4 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 64 * 1024, 0);
    ASSERT_TRUE(log.append(Buffer(4096, 3)).is_ok());
    ASSERT_TRUE(log.flush().is_ok());  // Slot 0 sealed, superblock v1.
    const std::uint64_t used_before = log.used_slots();

    // Forge a torn seal in the next free slot: plausible magic and
    // version, garbage checksum — a power cut mid-header-write.
    const std::uint64_t stride = log.slot_stride();
    Buffer torn(kContainerHeaderBytes, 0);
    store_le(torn.data(), 0xF1D75EA1C047A14Eull, 8);         // Magic.
    store_le(torn.data() + 8, kContainerFormatVersion, 4);   // Version.
    store_le(torn.data() + 36, 0xDEADDEADDEADDEADull, 8);    // Bad fnv.
    const std::uint64_t torn_addr = kContainerReservedBytes +
                                    used_before * stride + stride -
                                    kContainerHeaderBytes;
    ASSERT_TRUE(array.at(0).write(torn_addr, torn).is_ok());

    ASSERT_TRUE(log.recover().is_ok());
    // The torn slot is not adopted; it stays free and the next seal
    // overwrites it.
    EXPECT_EQ(log.used_slots(), used_before);
    const auto loc = log.append(Buffer(4096, 4)).take();
    ASSERT_TRUE(log.flush().is_ok());
    EXPECT_EQ(log.used_slots(), used_before + 1);
    EXPECT_EQ(log.read(loc).value(), Buffer(4096, 4));
}

TEST(ContainerLogV2, SuperblockSeqAdvancesAndDiscardForcesOne)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 64 * 1024, /*superblock_interval=*/2);
    EXPECT_EQ(log.superblock_seq(), 0u);

    // Two seals reach the cadence: one superblock write.
    ASSERT_TRUE(log.append(Buffer(60000, 1)).is_ok());
    ASSERT_TRUE(log.flush().is_ok());
    EXPECT_EQ(log.superblock_seq(), 0u);  // One seal: below cadence.
    ASSERT_TRUE(log.append(Buffer(60000, 2)).is_ok());
    ASSERT_TRUE(log.flush().is_ok());
    EXPECT_EQ(log.superblock_seq(), 1u);
    EXPECT_EQ(log.stats().superblock_writes, 1u);

    // Discard writes a superblock unconditionally, before the trim.
    const auto released = log.discard(0);
    ASSERT_TRUE(released.is_ok());
    EXPECT_GT(released.value(), 0u);
    EXPECT_EQ(log.superblock_seq(), 2u);
    EXPECT_EQ(log.stats().discards, 1u);
    EXPECT_FALSE(log.sealed(0));
    EXPECT_FALSE(log.read(ChunkLocation{0, 0, 512}).is_ok());
}

TEST(ContainerLogV2, OpenBufferSurvivesInPlaceRecover)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    ssd::SsdArray array(1, config);
    ContainerLog log(array, 64 * 1024);

    // One sealed container plus an unsealed tail in the open buffer
    // (battery-backed engine memory: a restart keeps it).
    ASSERT_TRUE(log.append(Buffer(60000, 1)).is_ok());
    ASSERT_TRUE(log.flush().is_ok());
    const auto open_loc = log.append(Buffer(3000, 9)).take();

    ASSERT_TRUE(log.recover().is_ok());
    Result<Buffer> out = log.read(open_loc);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), Buffer(3000, 9));

    // The open container keeps accepting appends and seals normally.
    const auto next = log.append(Buffer(3000, 10)).take();
    EXPECT_EQ(next.container_id, open_loc.container_id);
    ASSERT_TRUE(log.flush().is_ok());
    EXPECT_EQ(log.read(open_loc).value(), Buffer(3000, 9));
    EXPECT_EQ(log.read(next).value(), Buffer(3000, 10));
}

}  // namespace
}  // namespace fidr::tables
