// Tests for the features beyond the paper's core evaluation: the wire
// protocol front end, space reclamation (GC/compaction), eviction
// policies, and the read-stack offload extension.

#include <gtest/gtest.h>

#include <unordered_map>

#include "fidr/core/baseline_system.h"
#include "fidr/core/fidr_system.h"
#include "fidr/core/protocol_server.h"
#include "fidr/core/space.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"

namespace fidr::core {
namespace {

PlatformConfig
small_platform()
{
    PlatformConfig config;
    config.expected_unique_chunks = 20000;
    config.cache_fraction = 0.1;
    config.data_ssd.capacity_bytes = 4ull * kGiB;
    config.table_ssd.capacity_bytes = 64 * kMiB;
    return config;
}

FidrConfig
small_fidr()
{
    FidrConfig config;
    config.platform = small_platform();
    config.nic.hash_batch = 64;
    // Small containers so compaction has several to work with.
    config.container_bytes = 64 * 1024;
    return config;
}

Buffer
chunk_of(std::uint64_t id)
{
    return workload::make_chunk_content(id);
}

TEST(ProtocolServer, WriteThenReadOverTheWire)
{
    FidrSystem system(small_fidr());
    ProtocolServer front(system);

    // Client sends two writes and a read in one stream.
    Buffer wire = nic::encode_write(5, chunk_of(1));
    const Buffer w2 = nic::encode_write(6, chunk_of(2));
    const Buffer rd = nic::encode_read(5, kChunkSize);
    wire.insert(wire.end(), w2.begin(), w2.end());
    wire.insert(wire.end(), rd.begin(), rd.end());

    Result<Buffer> response = front.handle(wire);
    ASSERT_TRUE(response.is_ok());

    // Three acknowledgment frames come back.
    std::size_t offset = 0;
    const auto ack1 = nic::decode(response.value(), offset).take();
    const auto ack2 = nic::decode(response.value(), offset).take();
    const auto ack3 = nic::decode(response.value(), offset).take();
    EXPECT_EQ(offset, response.value().size());

    EXPECT_EQ(ack1.op, nic::Op::kAck);
    EXPECT_EQ(ack1.payload, Buffer{0});  // Write OK status byte.
    EXPECT_EQ(ack2.payload, Buffer{0});
    EXPECT_EQ(ack3.lba, 5u);
    EXPECT_EQ(ack3.payload, chunk_of(1));  // Read data rides the ack.

    EXPECT_EQ(front.stats().writes, 2u);
    EXPECT_EQ(front.stats().reads, 1u);
    EXPECT_EQ(front.stats().errors, 0u);
}

TEST(ProtocolServer, ReadOfMissingLbaAcksEmpty)
{
    FidrSystem system(small_fidr());
    ProtocolServer front(system);
    Result<Buffer> response =
        front.handle(nic::encode_read(99, kChunkSize));
    ASSERT_TRUE(response.is_ok());
    std::size_t offset = 0;
    const auto ack = nic::decode(response.value(), offset).take();
    EXPECT_TRUE(ack.payload.empty());
    EXPECT_EQ(front.stats().errors, 1u);
}

TEST(ProtocolServer, RejectsMalformedStream)
{
    FidrSystem system(small_fidr());
    ProtocolServer front(system);
    EXPECT_FALSE(front.handle(Buffer{1, 2, 3}).is_ok());
    // A client must not send ack frames.
    nic::Frame bogus;
    bogus.op = nic::Op::kAck;
    EXPECT_FALSE(front.handle(nic::encode(bogus)).is_ok());
}

TEST(SpaceTracker, LiveDeadAccounting)
{
    SpaceTracker tracker;
    tables::ChunkLocation a{0, 0, 2048};
    tables::ChunkLocation b{0, 32, 1024};
    const Digest da = Sha256::hash(chunk_of(1));
    const Digest db = Sha256::hash(chunk_of(2));
    tracker.on_store(10, da, a);
    tracker.on_store(11, db, b);
    EXPECT_EQ(tracker.live_bytes(), 3072u);
    EXPECT_EQ(tracker.dead_bytes(), 0u);

    const auto dead = tracker.on_dead(10);
    ASSERT_TRUE(dead.has_value());
    EXPECT_EQ(*dead, da);
    EXPECT_EQ(tracker.live_bytes(), 1024u);
    EXPECT_EQ(tracker.dead_bytes(), 2048u);
    // Double-kill is a no-op.
    EXPECT_FALSE(tracker.on_dead(10).has_value());

    // Container 0 is now 2/3 dead.
    EXPECT_EQ(tracker.candidates(0.5).size(), 1u);
    EXPECT_TRUE(tracker.candidates(0.7).empty());
    EXPECT_EQ(tracker.live_pbns(0), std::vector<Pbn>{11});
}

TEST(Gc, OverwritesProduceDeadBytesAndRetireDigests)
{
    FidrSystem system(small_fidr());
    // Two LBAs share content 1; overwriting one keeps it live.
    ASSERT_TRUE(system.write(1, chunk_of(1)).is_ok());
    ASSERT_TRUE(system.write(2, chunk_of(1)).is_ok());
    ASSERT_TRUE(system.write(3, chunk_of(3)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.space().dead_bytes(), 0u);

    ASSERT_TRUE(system.write(1, chunk_of(4)).is_ok());  // 1 still live.
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.space().dead_bytes(), 0u);

    ASSERT_TRUE(system.write(2, chunk_of(5)).is_ok());  // 1 dies.
    ASSERT_TRUE(system.write(3, chunk_of(6)).is_ok());  // 3 dies.
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_GT(system.space().dead_bytes(), 0u);

    // The dead digest was removed: rewriting content 1 stores fresh.
    const auto unique_before = system.reduction().unique_chunks;
    ASSERT_TRUE(system.write(9, chunk_of(1)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.reduction().unique_chunks, unique_before + 1);
    EXPECT_EQ(system.read(9).value(), chunk_of(1));
}

TEST(Gc, CompactionReclaimsAndPreservesReads)
{
    FidrSystem system(small_fidr());
    std::unordered_map<Lba, std::uint64_t> content_of;

    // Fill several containers, then kill most of the early content by
    // overwriting those LBAs with fresh data.
    for (Lba lba = 0; lba < 400; ++lba) {
        content_of[lba] = lba;
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    for (Lba lba = 0; lba < 300; ++lba) {
        content_of[lba] = 1000 + lba;
        ASSERT_TRUE(system.write(lba, chunk_of(1000 + lba)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_GT(system.space().dead_bytes(), 0u);

    const std::uint64_t stored_before =
        system.platform().data_ssds().total_bytes_stored();
    Result<std::uint64_t> reclaimed = system.run_gc(0.5);
    ASSERT_TRUE(reclaimed.is_ok()) << reclaimed.status().to_string();
    EXPECT_GT(reclaimed.value(), 0u);

    // Physical occupancy dropped (trim released dead pages).
    EXPECT_LT(system.platform().data_ssds().total_bytes_stored(),
              stored_before);

    // Every logical block still reads back its newest content.
    for (const auto &[lba, id] : content_of)
        ASSERT_EQ(system.read(lba).value(), chunk_of(id)) << lba;
    EXPECT_TRUE(system.lba_table().validate().is_ok());

    // Compaction is idempotent at the same threshold.
    Result<std::uint64_t> again = system.run_gc(0.5);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value(), 0u);
}

TEST(Gc, BaselineTracksSpaceToo)
{
    BaselineConfig config;
    config.platform = small_platform();
    config.batch_chunks = 64;
    BaselineSystem system(config);
    ASSERT_TRUE(system.write(1, chunk_of(1)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_TRUE(system.write(1, chunk_of(2)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_GT(system.space().dead_bytes(), 0u);
    EXPECT_EQ(system.read(1).value(), chunk_of(2));
}

TEST(EvictionPolicy, AllPoliciesPreserveCorrectness)
{
    for (const auto policy :
         {cache::EvictionPolicy::kLru, cache::EvictionPolicy::kFifo,
          cache::EvictionPolicy::kRandom}) {
        FidrConfig config = small_fidr();
        config.eviction_policy = policy;
        FidrSystem system(config);

        workload::WorkloadSpec spec;
        spec.dedup_ratio = 0.6;
        spec.seed = 5;
        workload::WorkloadGenerator gen(spec);
        std::unordered_map<Lba, Buffer> model;
        for (int i = 0; i < 800; ++i) {
            const auto req = gen.next();
            model[req.lba] = req.data;
            ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        }
        ASSERT_TRUE(system.flush().is_ok());
        for (const auto &[lba, data] : model)
            ASSERT_EQ(system.read(lba).value(), data);
    }
}

TEST(Scrub, CleanStorePassesVerification)
{
    FidrSystem system(small_fidr());
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < 500; ++i) {
        const auto req = gen.next();
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    Result<FidrSystem::ScrubReport> report = system.scrub();
    ASSERT_TRUE(report.is_ok());
    EXPECT_TRUE(report.value().clean());
    EXPECT_EQ(report.value().chunks_verified,
              system.reduction().unique_chunks);
}

TEST(Scrub, DetectsFlashCorruption)
{
    FidrSystem system(small_fidr());
    for (Lba lba = 0; lba < 200; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    // Flip bytes in the middle of a sealed container on SSD 0.
    ssd::Ssd &flash = system.platform().data_ssds().at(0);
    ASSERT_TRUE(flash.write(8192, Buffer(64, 0xEE)).is_ok());

    Result<FidrSystem::ScrubReport> report = system.scrub();
    ASSERT_TRUE(report.is_ok());
    EXPECT_GT(report.value().digest_mismatches, 0u);
    EXPECT_FALSE(report.value().clean());
}

TEST(ReadOffload, ReducesReadPathCpu)
{
    const auto read_cpu = [](bool offload) {
        FidrConfig config;
        config.platform = small_platform();
        config.offload_read_stack = offload;
        FidrSystem system(config);
        for (Lba lba = 0; lba < 100; ++lba)
            EXPECT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
        EXPECT_TRUE(system.flush().is_ok());
        for (Lba lba = 0; lba < 100; ++lba)
            EXPECT_TRUE(system.read(lba).is_ok());
        return system.platform().cpu().ledger().seconds(
            cputag::kReadPath);
    };
    const double normal = read_cpu(false);
    const double offloaded = read_cpu(true);
    EXPECT_GT(normal, 3 * offloaded);
    EXPECT_GT(offloaded, 0.0);
}

}  // namespace
}  // namespace fidr::core
