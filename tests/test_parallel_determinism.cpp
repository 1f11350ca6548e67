// Determinism boundary of the parallel data plane: lane counts may
// only change wall-clock, never results.  Digests, reduction stats,
// stored bytes, per-device DMA ledgers and CPU billing must be
// bit-identical for hash_lanes/compress_lanes in {1, 2, 4, all
// hardware lanes} on the same trace, for every write-only Table 3
// workload, because billing and ledger mutation stay on the calling
// thread after the parallel regions join.

#include <vector>

#include <gtest/gtest.h>

#include "fidr/common/thread_pool.h"
#include "fidr/core/fidr_system.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

namespace fidr {
namespace {

core::PlatformConfig
small_platform()
{
    core::PlatformConfig config;
    config.expected_unique_chunks = 50'000;
    config.data_ssd.capacity_bytes = 2ull * kGiB;
    config.table_ssd.capacity_bytes = 1ull * kGiB;
    return config;
}

struct RunOutcome {
    core::ReductionStats stats;
    std::vector<sim::LedgerRow> mem_rows;
    std::vector<sim::LedgerRow> cpu_rows;
    std::uint64_t containers = 0;
    std::uint64_t hashes = 0;
};

RunOutcome
run_trace(std::size_t lanes,
          const std::vector<workload::IoRequest> &requests)
{
    core::FidrConfig config;
    config.platform = small_platform();
    config.nic.hash_lanes = lanes;
    config.compress_lanes = lanes;
    core::FidrSystem system(config);
    for (const workload::IoRequest &req : requests) {
        Buffer data = req.data;
        EXPECT_TRUE(system.write(req.lba, std::move(data)).is_ok());
    }
    EXPECT_TRUE(system.flush().is_ok());

    RunOutcome out;
    out.stats = system.reduction();
    out.mem_rows = system.platform().fabric().host_memory().report();
    out.cpu_rows = system.platform().cpu().ledger().report();
    out.hashes = system.nic_model().hashes_computed();
    return out;
}

TEST(ParallelDeterminism, NicDigestsIdenticalAcrossLaneCounts)
{
    workload::WorkloadSpec spec = workload::write_h_spec();
    workload::WorkloadGenerator gen(spec);
    const auto requests = gen.batch(1024);

    std::vector<Digest> per_lane[2];
    const std::size_t lane_counts[2] = {1, 4};
    for (int run = 0; run < 2; ++run) {
        nic::FidrNicConfig config;
        config.buffer_capacity = 2048ull * kChunkSize;
        config.hash_lanes = lane_counts[run];
        nic::FidrNic nic(config);
        for (const auto &req : requests)
            ASSERT_TRUE(nic.buffer_write(req.lba, req.data).is_ok());
        nic::SealedBatch *batch = nic.seal_batch();
        ASSERT_NE(batch, nullptr);
        nic.hash_sealed(*batch);
        for (const nic::BufferedChunk &chunk : batch->chunks)
            per_lane[run].push_back(chunk.digest);
        nic.drop_sealed(batch->epoch);
        EXPECT_EQ(nic.hashes_computed(), requests.size());
    }
    ASSERT_EQ(per_lane[0].size(), per_lane[1].size());
    for (std::size_t i = 0; i < per_lane[0].size(); ++i)
        ASSERT_EQ(per_lane[0][i], per_lane[1][i]) << "chunk " << i;
}

void
expect_same_outcome(const RunOutcome &serial, const RunOutcome &parallel)
{
    EXPECT_EQ(serial.stats.chunks_written,
              parallel.stats.chunks_written);
    EXPECT_EQ(serial.stats.unique_chunks, parallel.stats.unique_chunks);
    EXPECT_EQ(serial.stats.duplicates, parallel.stats.duplicates);
    EXPECT_EQ(serial.stats.raw_bytes, parallel.stats.raw_bytes);
    EXPECT_EQ(serial.stats.stored_bytes, parallel.stats.stored_bytes);
    EXPECT_EQ(serial.hashes, parallel.hashes);

    // Space accounting and every ledger row (host DRAM traffic per
    // tag, CPU microseconds per task) must match bit-for-bit: billing
    // happens on the orchestration thread only.
    ASSERT_EQ(serial.mem_rows.size(), parallel.mem_rows.size());
    for (std::size_t i = 0; i < serial.mem_rows.size(); ++i) {
        EXPECT_EQ(serial.mem_rows[i].tag, parallel.mem_rows[i].tag);
        EXPECT_DOUBLE_EQ(serial.mem_rows[i].value,
                         parallel.mem_rows[i].value)
            << serial.mem_rows[i].tag;
    }
    ASSERT_EQ(serial.cpu_rows.size(), parallel.cpu_rows.size());
    for (std::size_t i = 0; i < serial.cpu_rows.size(); ++i) {
        EXPECT_EQ(serial.cpu_rows[i].tag, parallel.cpu_rows[i].tag);
        EXPECT_DOUBLE_EQ(serial.cpu_rows[i].value,
                         parallel.cpu_rows[i].value)
            << serial.cpu_rows[i].tag;
    }
}

TEST(ParallelDeterminism, SystemResultsIdenticalAcrossLaneCounts)
{
    for (workload::WorkloadSpec spec : workload::table3_specs()) {
        if (spec.read_fraction > 0)
            continue;  // Read-Mixed adds no write-path work.
        SCOPED_TRACE(spec.name);
        spec.address_space_chunks = 1 << 14;
        workload::WorkloadGenerator gen(spec);
        const auto requests = gen.batch(4000);

        const RunOutcome serial = run_trace(1, requests);
        for (const std::size_t lanes :
             {std::size_t{2}, std::size_t{4}, ThreadPool::hardware_lanes()}) {
            SCOPED_TRACE(lanes);
            expect_same_outcome(serial, run_trace(lanes, requests));
        }
    }
}

TEST(ParallelDeterminism, AutoLaneDefaultMatchesSerialResults)
{
    // hash_lanes = 0 resolves to the hardware width; results must
    // still match the serial run on any machine.
    workload::WorkloadSpec spec = workload::write_m_spec();
    workload::WorkloadGenerator gen(spec);
    const auto requests = gen.batch(1500);

    core::FidrConfig serial_config;
    serial_config.platform = small_platform();
    serial_config.nic.hash_lanes = 1;
    serial_config.compress_lanes = 1;
    core::FidrSystem serial(serial_config);

    core::FidrConfig auto_config;
    auto_config.platform = small_platform();
    auto_config.nic.hash_lanes = 0;
    auto_config.compress_lanes = 0;
    core::FidrSystem automatic(auto_config);

    for (const auto &req : requests) {
        Buffer a = req.data;
        Buffer b = req.data;
        ASSERT_TRUE(serial.write(req.lba, std::move(a)).is_ok());
        ASSERT_TRUE(automatic.write(req.lba, std::move(b)).is_ok());
    }
    ASSERT_TRUE(serial.flush().is_ok());
    ASSERT_TRUE(automatic.flush().is_ok());

    EXPECT_EQ(serial.reduction().unique_chunks,
              automatic.reduction().unique_chunks);
    EXPECT_EQ(serial.reduction().duplicates,
              automatic.reduction().duplicates);
    EXPECT_EQ(serial.reduction().stored_bytes,
              automatic.reduction().stored_bytes);

    // Reads of the same LBA must return identical payloads.
    const Lba probe = requests.front().lba;
    Result<Buffer> from_serial = serial.read(probe);
    Result<Buffer> from_auto = automatic.read(probe);
    ASSERT_TRUE(from_serial.is_ok());
    ASSERT_TRUE(from_auto.is_ok());
    EXPECT_EQ(from_serial.value(), from_auto.value());
}

TEST(ParallelDeterminism, PerSsdReadBillingFollowsContainerPlacement)
{
    // Regression for the read()/GC billing bug: every read used
    // to bill data SSD 0 regardless of where the chunk lived.  With
    // two data SSDs and containers round-robining across them, reads
    // of chunks in odd containers must bill SSD 1's device ledger.
    core::FidrConfig config;
    config.platform = small_platform();
    config.container_bytes = 64 * 1024;  // Tiny containers: seal often.
    config.nic.hash_batch = 8;
    config.compress_lanes = 1;
    config.nic.hash_lanes = 1;
    core::FidrSystem system(config);

    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.0;  // All unique: every write stores a chunk.
    spec.comp_ratio = 0.25;
    workload::WorkloadGenerator gen(spec);
    const auto requests = gen.batch(256);
    for (const auto &req : requests) {
        Buffer data = req.data;
        ASSERT_TRUE(system.write(req.lba, std::move(data)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    const auto &fabric = system.platform().fabric();
    const std::uint64_t ssd0_before =
        fabric.link_bytes(system.platform().data_ssd_dev(0));
    const std::uint64_t ssd1_before =
        fabric.link_bytes(system.platform().data_ssd_dev(1));

    for (const auto &req : requests)
        ASSERT_TRUE(system.read(req.lba).is_ok());

    const std::uint64_t ssd0_delta =
        fabric.link_bytes(system.platform().data_ssd_dev(0)) -
        ssd0_before;
    const std::uint64_t ssd1_delta =
        fabric.link_bytes(system.platform().data_ssd_dev(1)) -
        ssd1_before;
    EXPECT_GT(ssd0_delta, 0u);
    EXPECT_GT(ssd1_delta, 0u);  // Was 0 before the fix.
}

}  // namespace
}  // namespace fidr
