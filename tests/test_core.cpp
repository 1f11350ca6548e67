// System tests for the baseline and FIDR storage servers: functional
// read-after-write, deduplication, and resource-ledger behaviour.

#include <gtest/gtest.h>

#include <cstdio>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "fidr/core/baseline_system.h"
#include "fidr/core/fidr_system.h"
#include "fidr/core/perf_model.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

namespace fidr::core {
namespace {

PlatformConfig
small_platform()
{
    PlatformConfig config;
    config.expected_unique_chunks = 20000;
    config.cache_fraction = 0.1;  // ~27 cache lines on ~270 buckets.
    config.data_ssd.capacity_bytes = 4ull * kGiB;
    config.table_ssd.capacity_bytes = 64 * kMiB;
    // Enough table-SSD bandwidth that metadata IO is not the binding
    // constraint (the paper budgets 2 GB/s per Table 5's "All" column;
    // the Fig 14 platform provisions table SSDs adequately).
    config.table_ssd.read_bandwidth = gb_per_s(16);
    config.table_ssd.write_bandwidth = gb_per_s(16);
    return config;
}

BaselineConfig
small_baseline()
{
    BaselineConfig config;
    config.platform = small_platform();
    config.batch_chunks = 64;
    return config;
}

FidrConfig
small_fidr(bool hw_cache = true, unsigned lanes = 4)
{
    FidrConfig config;
    config.platform = small_platform();
    config.nic.hash_batch = 64;
    config.hw_cache_engine = hw_cache;
    config.tree_update_lanes = lanes;
    return config;
}

Buffer
chunk_of(std::uint64_t id)
{
    return workload::make_chunk_content(id);
}

template <typename System>
void
run_read_after_write(System &system)
{
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.6;
    spec.address_space_chunks = 1 << 12;
    workload::WorkloadGenerator gen(spec);

    std::unordered_map<Lba, Buffer> model;
    for (int i = 0; i < 1000; ++i) {
        const workload::IoRequest req = gen.next();
        model[req.lba] = req.data;
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    for (const auto &[lba, data] : model) {
        Result<Buffer> out = system.read(lba);
        ASSERT_TRUE(out.is_ok()) << out.status().to_string();
        ASSERT_EQ(out.value(), data) << "lba " << lba;
    }
    EXPECT_TRUE(system.lba_table().validate().is_ok());
}

TEST(BaselineSystem, ReadAfterWrite)
{
    BaselineSystem system(small_baseline());
    run_read_after_write(system);
}

TEST(FidrSystem, ReadAfterWrite)
{
    FidrSystem system(small_fidr());
    run_read_after_write(system);
}

TEST(FidrSystem, ReadAfterWriteSoftwareCacheConfig)
{
    FidrSystem system(small_fidr(false));
    run_read_after_write(system);
}

TEST(FidrSystem, ReadAfterWriteSingleLaneConfig)
{
    FidrSystem system(small_fidr(true, 1));
    run_read_after_write(system);
}

template <typename System>
void
run_dedup_effectiveness(System &system)
{
    // 100 LBAs, all the same content: one unique chunk stored.
    const Buffer content = chunk_of(7);
    for (Lba lba = 0; lba < 100; ++lba)
        ASSERT_TRUE(system.write(lba, content).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    EXPECT_EQ(system.reduction().unique_chunks, 1u);
    EXPECT_EQ(system.reduction().duplicates, 99u);
    EXPECT_NEAR(system.reduction().dedup_rate(), 0.99, 1e-9);
    // Stored bytes: one compressed chunk.
    EXPECT_LT(system.reduction().stored_bytes, kChunkSize);
    // Physical store holds at most one container's worth.
    for (Lba lba = 0; lba < 100; ++lba)
        EXPECT_EQ(system.read(lba).value(), content);
}

TEST(BaselineSystem, DedupStoresOneCopy)
{
    BaselineSystem system(small_baseline());
    run_dedup_effectiveness(system);
}

TEST(FidrSystem, DedupStoresOneCopy)
{
    FidrSystem system(small_fidr());
    run_dedup_effectiveness(system);
}

template <typename System>
void
run_overwrite(System &system)
{
    ASSERT_TRUE(system.write(5, chunk_of(1)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.read(5).value(), chunk_of(1));

    ASSERT_TRUE(system.write(5, chunk_of(2)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.read(5).value(), chunk_of(2));
    EXPECT_TRUE(system.lba_table().validate().is_ok());
}

TEST(BaselineSystem, OverwriteReturnsNewest)
{
    BaselineSystem system(small_baseline());
    run_overwrite(system);
}

TEST(FidrSystem, OverwriteReturnsNewest)
{
    FidrSystem system(small_fidr());
    run_overwrite(system);
}

TEST(BaselineSystem, ReadOfUnwrittenLbaFails)
{
    BaselineSystem system(small_baseline());
    EXPECT_EQ(system.read(404).status().code(), StatusCode::kNotFound);
}

TEST(FidrSystem, ReadOfUnwrittenLbaFails)
{
    FidrSystem system(small_fidr());
    EXPECT_EQ(system.read(404).status().code(), StatusCode::kNotFound);
}

TEST(BaselineSystem, RejectsNonChunkWrites)
{
    BaselineSystem system(small_baseline());
    EXPECT_FALSE(system.write(1, Buffer(100, 0)).is_ok());
}

TEST(FidrSystem, BufferedReadServedByNic)
{
    FidrSystem system(small_fidr());
    // Written but not yet flushed: the NIC's LBA Lookup must serve it.
    ASSERT_TRUE(system.write(9, chunk_of(3)).is_ok());
    EXPECT_EQ(system.read(9).value(), chunk_of(3));
    EXPECT_EQ(system.reduction().nic_read_hits, 1u);
    // No host DRAM was touched for that read (write ledger may have
    // orchestration-free entries; check the read added nothing).
}

TEST(BaselineSystem, BufferedReadServedFromHostBuffer)
{
    BaselineSystem system(small_baseline());
    ASSERT_TRUE(system.write(9, chunk_of(3)).is_ok());
    EXPECT_EQ(system.read(9).value(), chunk_of(3));
    EXPECT_EQ(system.reduction().nic_read_hits, 1u);
}

TEST(BaselineSystem, LedgersCoverAllTable1Paths)
{
    BaselineSystem system(small_baseline());
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    spec.read_fraction = 0.3;
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < 600; ++i) {
        const auto req = gen.next();
        if (req.dir == IoDir::kWrite)
            ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        else
            ASSERT_TRUE(system.read(req.lba).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    const auto &mem = system.platform().fabric().host_memory();
    EXPECT_GT(mem.bytes(memtag::kNicHost), 0.0);
    EXPECT_GT(mem.bytes(memtag::kPrediction), 0.0);
    EXPECT_GT(mem.bytes(memtag::kFpga), 0.0);
    EXPECT_GT(mem.bytes(memtag::kTableCache), 0.0);
    EXPECT_GT(mem.bytes(memtag::kDataSsd), 0.0);

    // The baseline moves every client byte through DRAM several times.
    const double client_bytes =
        static_cast<double>(system.reduction().raw_bytes);
    EXPECT_GT(mem.total(), 3.0 * client_bytes);

    // CPU: predictor and tree indexing are the signature hotspots.
    const auto &cpu = system.platform().cpu().ledger();
    EXPECT_GT(cpu.seconds(cputag::kPredictor), 0.0);
    EXPECT_GT(cpu.seconds(cputag::kTreeIndex), 0.0);
    EXPECT_GT(cpu.seconds(cputag::kTableSsd), 0.0);
    EXPECT_GT(cpu.seconds(cputag::kReadPath), 0.0);
}

TEST(BaselineSystem, ReadsBillTheContainersDataSsd)
{
    // Containers stripe across both data SSDs, so reading every LBA
    // back must move bytes over each SSD's link, not only SSD 0's.
    BaselineConfig config = small_baseline();
    config.container_bytes = 64 * kKiB;
    ASSERT_EQ(config.platform.data_ssd_count, 2u);
    BaselineSystem system(config);
    constexpr Lba kChunks = 256;
    for (Lba lba = 0; lba < kChunks; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const pcie::Fabric &fabric = system.platform().fabric();
    const pcie::DeviceId ssd1 = system.platform().data_ssd_dev(1);
    const std::uint64_t before = fabric.link_bytes(ssd1);
    for (Lba lba = 0; lba < kChunks; ++lba)
        ASSERT_EQ(system.read(lba).value(), chunk_of(lba));
    EXPECT_GT(fabric.link_bytes(ssd1), before);
}

/** One pinned ledger row: tag and exact value. */
struct PinnedRow {
    const char *tag;
    double value;
};

/**
 * Every row of `actual` must equal `expected` exactly (same tags, same
 * doubles).  On a mismatch the actual rows are printed in the
 * initializer format, so a deliberate ledger change can re-pin them.
 */
void
expect_rows(const std::vector<sim::LedgerRow> &actual,
            std::initializer_list<PinnedRow> expected, const char *ledger)
{
    bool same = actual.size() == expected.size();
    for (const PinnedRow &row : expected) {
        bool found = false;
        for (const sim::LedgerRow &got : actual) {
            if (got.tag == row.tag) {
                found = true;
                same = same && got.value == row.value;
            }
        }
        same = same && found;
    }
    if (same)
        return;
    std::string dump;
    for (const sim::LedgerRow &got : actual) {
        char line[160];
        std::snprintf(line, sizeof(line), "    {\"%s\", %.17g},\n",
                      got.tag.c_str(), got.value);
        dump += line;
    }
    ADD_FAILURE() << ledger << " ledger differs from its pin; actual:\n"
                  << dump;
}

/**
 * Streams a fixed-seed Write-M load (4,096 writes with 30% reads
 * interleaved, then flush) through `system`.
 */
template <typename System>
void
run_pinned_write_m(System &system)
{
    workload::WorkloadSpec spec = workload::write_m_spec();
    spec.read_fraction = 0.3;
    spec.address_space_chunks = 1 << 14;
    workload::WorkloadGenerator gen(spec);
    for (int writes = 0; writes < 4096;) {
        const workload::IoRequest req = gen.next();
        if (req.dir == IoDir::kWrite) {
            ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
            ++writes;
        } else {
            ASSERT_TRUE(system.read(req.lba).is_ok());
        }
    }
    ASSERT_TRUE(system.flush().is_ok());
}

/** `expected` lists ReductionStats' counters in declaration order. */
void
expect_reduction(const ReductionStats &stats,
                 std::initializer_list<std::uint64_t> expected)
{
    const std::vector<std::uint64_t> actual{
        stats.chunks_written, stats.chunks_read,   stats.duplicates,
        stats.unique_chunks,  stats.raw_bytes,     stats.stored_bytes,
        stats.nic_read_hits};
    EXPECT_EQ(actual, std::vector<std::uint64_t>(expected));
}

// The dedup lookup's billing (CPU rows, table-cache DRAM, table-SSD
// DMAs) is shared by both systems; these pins hold every ledger row of
// a Write-M run to its exact value, so a change to the dedup probe or
// its billing that moves any figure fails here.
TEST(LedgerPin, BaselineWriteM)
{
    BaselineSystem system(small_baseline());
    run_pinned_write_m(system);
    const Platform &platform = system.platform();
    expect_rows(platform.cpu().ledger().report(), {
        {"table cache tree indexing", 0.0087821800000000647},
        {"table SSD access", 0.0076343399999998802},
        {"unique chunk predictor", 0.0048988159999999942},
        {"read path", 0.0040639200000001626},
        {"request/IO orchestration", 0.0022323199999999448},
        {"table cache misc", 0.0018923519999998232},
        {"table cache content access", 0.00049561600000001837},
        {"table cache replacement", 7.7824000000003069e-05},
    }, "cpu");
    expect_rows(platform.fabric().host_memory().report(), {
        {"Table cache management", 28593356.800001875},
        {"Host memory<->FPGAs", 28428084},
        {"NIC<->host memory", 23818240},
        {"Host memory (unique prediction)", 16777216},
        {"Host memory<->data SSD", 7608783},
    }, "host dram");
    EXPECT_EQ(platform.fabric().link_bytes(platform.table_ssd_dev()),
              15171584u);
    expect_reduction(system.reduction(),
                     {4096, 1719, 3453, 643, 16777216, 1338725, 79});
}

TEST(LedgerPin, FidrSoftwareIndexWriteM)
{
    FidrSystem system(small_fidr(false));
    run_pinned_write_m(system);
    const Platform &platform = system.platform();
    expect_rows(platform.cpu().ledger().report(), {
        {"table cache tree indexing", 0.0087821800000000647},
        {"table SSD access", 0.0076343399999998802},
        {"read path", 0.0040639200000001626},
        {"request/IO orchestration", 0.0022323199999999448},
        {"table cache misc", 0.0018923519999998232},
        {"table cache content access", 0.00049561600000001837},
        {"table cache replacement", 7.7824000000003069e-05},
    }, "cpu");
    expect_rows(platform.fabric().host_memory().report(), {
        {"Table cache management", 28626124.800001875},
        {"NIC<->host memory", 165504},
        {"Host memory<->FPGAs", 64},
    }, "host dram");
    EXPECT_EQ(platform.fabric().link_bytes(platform.table_ssd_dev()),
              15171584u);
    expect_reduction(system.reduction(),
                     {4096, 1719, 3453, 643, 16777216, 1338725, 79});
}

TEST(LedgerPin, FidrCacheEngineWriteM)
{
    FidrSystem system(small_fidr(true));
    run_pinned_write_m(system);
    const Platform &platform = system.platform();
    expect_rows(platform.cpu().ledger().report(), {
        {"read path", 0.0040639200000001626},
        {"request/IO orchestration", 0.0022323199999999448},
        {"table cache misc", 0.0018923519999998232},
        {"table cache content access", 0.00049561600000001837},
        {"table cache replacement", 7.7824000000003069e-05},
    }, "cpu");
    expect_rows(platform.fabric().host_memory().report(), {
        {"Table cache management", 28626124.800001875},
        {"NIC<->host memory", 165504},
        {"Host memory<->FPGAs", 64},
    }, "host dram");
    EXPECT_EQ(platform.fabric().link_bytes(platform.table_ssd_dev()),
              15171584u);
    expect_reduction(system.reduction(),
                     {4096, 1719, 3453, 643, 16777216, 1338725, 79});
}

TEST(FidrSystem, HostDramMostlyBypassed)
{
    FidrSystem system(small_fidr());
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    spec.dup_working_set = 16;  // Fits the small test cache.
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < 600; ++i) {
        const auto req = gen.next();
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    const auto &fabric = system.platform().fabric();
    const double client_bytes =
        static_cast<double>(system.reduction().raw_bytes);
    // Payloads moved peer-to-peer; DRAM sees mostly table-cache traffic.
    EXPECT_GT(fabric.p2p_bytes(), 0u);
    EXPECT_LT(fabric.host_memory().total(), 2.0 * client_bytes);
    EXPECT_GT(fabric.host_memory().bytes(memtag::kTableCache), 0.0);
    // The payload tags must be tiny (digests + verdicts only).
    EXPECT_LT(fabric.host_memory().bytes(memtag::kNicHost),
              0.05 * client_bytes);

    // No predictor, no CPU-side tree work in the full configuration.
    const auto &cpu = system.platform().cpu().ledger();
    EXPECT_DOUBLE_EQ(cpu.seconds(cputag::kPredictor), 0.0);
    EXPECT_DOUBLE_EQ(cpu.seconds(cputag::kTreeIndex), 0.0);
    EXPECT_DOUBLE_EQ(cpu.seconds(cputag::kTableSsd), 0.0);
    EXPECT_GT(cpu.seconds(cputag::kScan), 0.0);

    // The HW engine did the indexing instead.
    ASSERT_NE(system.hw_index(), nullptr);
    EXPECT_GT(system.hw_index()->pipeline().stats().cycles, 0.0);
}

TEST(FidrSystem, SoftwareCacheConfigBillsTreeToCpu)
{
    FidrSystem system(small_fidr(false));
    for (Lba lba = 0; lba < 200; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    const auto &cpu = system.platform().cpu().ledger();
    EXPECT_GT(cpu.seconds(cputag::kTreeIndex), 0.0);
    EXPECT_EQ(system.hw_index(), nullptr);
}

TEST(BaselineSystem, PredictorMispredictionsHandled)
{
    // A tiny predictor window plus narrow fingerprints force both
    // false-unique and false-duplicate predictions; functional results
    // must stay correct regardless.
    BaselineConfig config = small_baseline();
    config.predictor_window = 8;
    config.predictor_fingerprint_bits = 8;
    BaselineSystem system(config);

    std::unordered_map<Lba, Buffer> model;
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.7;
    spec.dup_working_set = 64;  // Far beyond the predictor window.
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < 500; ++i) {
        const auto req = gen.next();
        model[req.lba] = req.data;
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_GT(system.false_duplicate_predictions(), 0u);
    for (const auto &[lba, data] : model)
        ASSERT_EQ(system.read(lba).value(), data);
}

TEST(Projection, FidrBeatsBaseline)
{
    // Same write-heavy workload through both systems; FIDR must need
    // far less DRAM bandwidth and CPU, and project higher throughput.
    const auto drive = [](auto &system) {
        workload::WorkloadSpec spec;
        spec.dedup_ratio = 0.8;
        spec.dup_working_set = 20;  // Cache-friendly (Write-H-like).
        workload::WorkloadGenerator gen(spec);
        for (int i = 0; i < 2000; ++i) {
            const auto req = gen.next();
            ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        }
        ASSERT_TRUE(system.flush().is_ok());
    };

    BaselineSystem baseline(small_baseline());
    drive(baseline);
    FidrSystem fidr(small_fidr());
    drive(fidr);

    const Projection pb = project(baseline);
    const Projection pf = project(fidr);

    EXPECT_GT(pb.mem_required, 2.0 * pf.mem_required);
    EXPECT_GT(pb.cores_required, 2.0 * pf.cores_required);
    EXPECT_GT(pf.throughput(), 1.5 * pb.throughput());
    EXPECT_GT(pf.tree_cap, 0.0);
}

TEST(Projection, BottleneckNamed)
{
    BaselineSystem baseline(small_baseline());
    for (Lba lba = 0; lba < 200; ++lba)
        ASSERT_TRUE(baseline.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(baseline.flush().is_ok());
    const Projection p = project(baseline);
    EXPECT_STRNE(p.bottleneck(), "");
    EXPECT_LT(p.throughput(), p.pcie_target + 1.0);
}

}  // namespace
}  // namespace fidr::core
