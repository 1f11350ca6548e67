// The pipeline determinism contract: pipeline depth and cache shard
// count may only change wall-clock, never results.  Every Table 3
// workload must produce bit-identical reduction stats, ledgers,
// LBA-PBA images, journals and obs counters for in_flight_batches in
// {1, 2, 4, 8} x cache_shards in {1, 4}; a power cut with batches in
// flight must lose nothing acknowledged; and at every depth, depth 1
// included, a commit-stage error surfaces at the next barrier.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crash_harness.h"
#include "fidr/core/fidr_system.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

namespace fidr {
namespace {

/** Everything a run can legally be compared on (no wall-clock). */
struct Outcome {
    core::ReductionStats stats;
    std::vector<sim::LedgerRow> mem_rows;
    std::vector<sim::LedgerRow> cpu_rows;
    std::uint64_t hashes = 0;
    std::uint64_t journal_records = 0;
    Buffer lba_image;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
};

core::FidrConfig
pipeline_config(std::size_t depth, std::size_t shards)
{
    core::FidrConfig config;
    config.platform.expected_unique_chunks = 50'000;
    config.platform.cache_fraction = 0.05;
    config.platform.data_ssd.capacity_bytes = 2ull * kGiB;
    config.platform.table_ssd.capacity_bytes = 1ull * kGiB;
    config.journal_metadata = true;
    config.container_bytes = 256 * 1024;
    config.nic.hash_batch = 32;  // Frequent seals: many batches in flight.
    config.in_flight_batches = depth;
    config.cache_shards = shards;
    return config;
}

Outcome
run_trace(std::size_t depth, std::size_t shards,
          const std::vector<workload::IoRequest> &requests)
{
#if FIDR_FAULT_ENABLED
    // The failpoint hit counters are process-global and land in
    // obs_snapshot; zero them so each run's snapshot stands alone.
    fault::FailpointRegistry::instance().reset_counters();
#endif
    core::FidrSystem system(pipeline_config(depth, shards));
    for (const workload::IoRequest &req : requests) {
        if (req.dir == IoDir::kWrite) {
            Buffer data = req.data;
            EXPECT_TRUE(system.write(req.lba, std::move(data)).is_ok());
        } else {
            // Misses (never-written LBAs) are part of the trace too.
            (void)system.read(req.lba);
        }
    }
    EXPECT_TRUE(system.flush().is_ok());
    EXPECT_TRUE(system.validate().is_ok());

    Outcome out;
    out.stats = system.reduction();
    out.mem_rows = system.platform().fabric().host_memory().report();
    out.cpu_rows = system.platform().cpu().ledger().report();
    out.hashes = system.nic_model().hashes_computed();
    out.journal_records = system.journal_records();
    out.lba_image = system.lba_table().serialize();
    const obs::ObsSnapshot snap = system.obs_snapshot();
    for (const auto &[name, value] : snap.counters) {
        // Pipeline bookkeeping (submits, stalls) legitimately depends
        // on depth; everything else may not.
        if (name.rfind("pipeline.", 0) == 0 ||
            name.rfind("cache.shard", 0) == 0) {
            continue;
        }
        out.counters[name] = value;
    }
    for (const auto &[name, value] : snap.gauges) {
        if (name.rfind("pipeline.", 0) != 0)
            out.gauges[name] = value;
    }
    return out;
}

void
expect_identical(const Outcome &base, const Outcome &probe,
                 const std::string &label)
{
    EXPECT_EQ(base.stats.chunks_written, probe.stats.chunks_written)
        << label;
    EXPECT_EQ(base.stats.unique_chunks, probe.stats.unique_chunks)
        << label;
    EXPECT_EQ(base.stats.duplicates, probe.stats.duplicates) << label;
    EXPECT_EQ(base.stats.raw_bytes, probe.stats.raw_bytes) << label;
    EXPECT_EQ(base.stats.stored_bytes, probe.stats.stored_bytes)
        << label;
    EXPECT_EQ(base.stats.chunks_read, probe.stats.chunks_read) << label;
    EXPECT_EQ(base.stats.nic_read_hits, probe.stats.nic_read_hits)
        << label;
    EXPECT_EQ(base.hashes, probe.hashes) << label;
    EXPECT_EQ(base.journal_records, probe.journal_records) << label;
    EXPECT_EQ(base.lba_image, probe.lba_image)
        << label << ": LBA-PBA table images differ";

    // Billing is bit-identical, not approximately equal: the commit
    // sequencer issues every ledger mutation in epoch order, so the
    // float addition sequences match exactly.
    ASSERT_EQ(base.mem_rows.size(), probe.mem_rows.size()) << label;
    for (std::size_t i = 0; i < base.mem_rows.size(); ++i) {
        EXPECT_EQ(base.mem_rows[i].tag, probe.mem_rows[i].tag) << label;
        EXPECT_DOUBLE_EQ(base.mem_rows[i].value, probe.mem_rows[i].value)
            << label << " mem tag " << base.mem_rows[i].tag;
    }
    ASSERT_EQ(base.cpu_rows.size(), probe.cpu_rows.size()) << label;
    for (std::size_t i = 0; i < base.cpu_rows.size(); ++i) {
        EXPECT_EQ(base.cpu_rows[i].tag, probe.cpu_rows[i].tag) << label;
        EXPECT_DOUBLE_EQ(base.cpu_rows[i].value, probe.cpu_rows[i].value)
            << label << " cpu tag " << base.cpu_rows[i].tag;
    }

    EXPECT_EQ(base.counters, probe.counters) << label;
    ASSERT_EQ(base.gauges.size(), probe.gauges.size()) << label;
    for (const auto &[name, value] : base.gauges) {
        const auto found = probe.gauges.find(name);
        ASSERT_NE(found, probe.gauges.end()) << label << " " << name;
        EXPECT_DOUBLE_EQ(value, found->second) << label << " " << name;
    }
}

TEST(PipelineDeterminism, BitIdenticalAcrossDepthsAndShards)
{
    for (const workload::WorkloadSpec &spec : workload::table3_specs()) {
        workload::WorkloadSpec scaled = spec;
        scaled.address_space_chunks = 1 << 14;
        workload::WorkloadGenerator gen(scaled);
        const auto requests = gen.batch(1200);

        for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
            const Outcome base = run_trace(1, shards, requests);
            for (const std::size_t depth :
                 {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
                const Outcome probe = run_trace(depth, shards, requests);
                expect_identical(base, probe,
                                 spec.name + " depth " +
                                     std::to_string(depth) + " shards " +
                                     std::to_string(shards));
            }
        }
    }
}

TEST(PipelineDeterminism, ShardedCacheMatchesUnshardedResults)
{
    // Orthogonal axis: at fixed depth, shard count must not change
    // reduction or mapping results either (per-shard eviction order
    // differs from global order, so cache hit/miss counters are the
    // one thing allowed to move — they are still compared per depth
    // by the sweep above).
    workload::WorkloadSpec spec = workload::write_m_spec();
    spec.address_space_chunks = 1 << 14;
    workload::WorkloadGenerator gen(spec);
    const auto requests = gen.batch(1500);

    const Outcome one = run_trace(4, 1, requests);
    const Outcome four = run_trace(4, 4, requests);
    EXPECT_EQ(one.stats.unique_chunks, four.stats.unique_chunks);
    EXPECT_EQ(one.stats.duplicates, four.stats.duplicates);
    EXPECT_EQ(one.stats.stored_bytes, four.stats.stored_bytes);
    EXPECT_EQ(one.lba_image, four.lba_image);
    EXPECT_EQ(one.journal_records, four.journal_records);
}

#if FIDR_FAULT_ENABLED

TEST(PipelineCrash, PowerCutWithBatchesInFlightLosesNothingAcked)
{
    using fault::FailpointRegistry;
    using fault::FaultPolicy;
    using fault::Site;

    core::FidrConfig config = pipeline_config(4, 1);
    config.nic.hash_batch = 8;
    core::FidrSystem system(config);
    auto &registry = FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();

    // Phase 1: committed history (all-unique content), checkpointed.
    workload::WorkloadSpec spec;
    spec.name = "pipeline-crash";
    spec.dedup_ratio = 0.0;
    spec.comp_ratio = 0.5;
    spec.seed = 0xF1D7;
    workload::WorkloadGenerator gen(spec);
    std::map<Lba, Buffer> acked;
    for (int i = 0; i < 64; ++i) {
        const workload::IoRequest req = gen.next();
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        acked[req.lba] = req.data;
    }
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_TRUE(system.checkpoint().is_ok());

    // Phase 2: the first container append of the next batch fails, so
    // batch 1 fails on the commit sequencer and batches 2-3 abort.
    // None of the three sealed batches can drop, which pins >= 2
    // batches in flight at the cut, deterministically.
    FaultPolicy policy;
    policy.fail_nth = 1;
    policy.max_fires = 1;
    registry.arm(Site::kContainerAppend, policy);
    for (int i = 0; i < 24; ++i) {
        const workload::IoRequest req = gen.next();
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        acked[req.lba] = req.data;
    }
    EXPECT_GE(system.nic_model().sealed_batches(), 2u);

    // Power cut + restart with the fault still armed: recovery's own
    // quiesce forces the executor through batch 1 (the armed append
    // fails it if it had not already), so the fire is deterministic.
    // The journal replays the committed history and the NIC's NVRAM
    // returns the in-flight batches to the open buffer.
    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    registry.disarm_all();  // The fault schedule died with the power.
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_TRUE(system.validate().is_ok());
    EXPECT_GE(registry.fires(Site::kContainerAppend), 1u);

    for (const auto &[lba, expected] : acked) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "acked LBA " << lba << " lost";
        EXPECT_EQ(got.value(), expected) << "acked LBA " << lba;
    }
}

TEST(PipelineCrash, DepthOneSurfacesSequencerErrorsAtTheNextBarrier)
{
    using fault::FailpointRegistry;
    using fault::FaultPolicy;
    using fault::Site;

    // Depth 1 commits through the same pipeline as every other depth:
    // a commit-stage failure never fails the write that sealed the
    // batch, only the next barrier.
    core::FidrConfig config = pipeline_config(1, 1);
    config.nic.hash_batch = 8;
    core::FidrSystem system(config);
    auto &registry = FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    const obs::Counter &batches =
        system.metrics().counter("pipeline.batches");

    FaultPolicy policy;
    policy.fail_nth = 1;
    policy.max_fires = 1;
    registry.arm(Site::kJournalAppend, policy);

    workload::WorkloadSpec spec;
    spec.name = "depth-one-contract";
    spec.dedup_ratio = 0.0;
    spec.comp_ratio = 0.5;
    spec.seed = 0xD1;
    workload::WorkloadGenerator gen(spec);
    std::map<Lba, Buffer> acked;
    for (int i = 0; i < 8; ++i) {
        const workload::IoRequest req = gen.next();
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
        acked[req.lba] = req.data;
    }
    // The eighth write sealed and submitted the batch, and returned ok
    // whether or not the sequencer had reached the armed append yet.
    EXPECT_EQ(batches.get(), 1u);

    const Status flushed = system.flush();
    EXPECT_FALSE(flushed.is_ok());
    EXPECT_EQ(registry.fires(Site::kJournalAppend), 1u);

    // Disarmed, the retry commits the batch; nothing acked is lost.
    registry.disarm_all();
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.nic_model().sealed_batches(), 0u);
    EXPECT_EQ(system.nic_model().pending_bytes(), 0u);
    ASSERT_TRUE(system.validate().is_ok());
    for (const auto &[lba, expected] : acked) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "acked LBA " << lba << " lost";
        EXPECT_EQ(got.value(), expected) << "acked LBA " << lba;
    }
    EXPECT_EQ(system.reduction().chunks_written, 8u);
}

/** The full crash-consistency sweep of test_crash_sweep, re-run with
 *  four batches in flight: per-site fault sequences are depth-
 *  invariant (all fallible write-path stages run on the commit
 *  sequencer), so the same mid-run fail_nth placement applies. */
class PipelineCrashSweep
    : public ::testing::TestWithParam<fault::Site> {};

TEST_P(PipelineCrashSweep, AckedWritesSurviveCutAtDepthFour)
{
    const fault::Site site = GetParam();
    const auto &profile = crashtest::default_hit_profile();
    const std::uint64_t hits = profile[static_cast<std::size_t>(site)];
    ASSERT_GT(hits, 0u) << fault::site_name(site)
                        << " is never evaluated by the harness workload";

    crashtest::CrashHarnessConfig cfg;
    cfg.system.in_flight_batches = 4;
    crashtest::CrashHarness harness(cfg);
    fault::FaultPolicy policy;
    policy.fail_nth = hits / 2 + 1;
    policy.max_fires = 1;
    fault::FailpointRegistry::instance().arm(site, policy);
    harness.run_until_fire(site);
    ASSERT_GE(fault::FailpointRegistry::instance().fires(site), 1u)
        << fault::site_name(site) << " never fired";

    ASSERT_TRUE(harness.recover());
    ASSERT_TRUE(harness.verify_acked());
    EXPECT_FALSE(harness.acked().empty());
}

INSTANTIATE_TEST_SUITE_P(
    WritePathDepth4, PipelineCrashSweep,
    ::testing::ValuesIn(crashtest::kWritePathSites),
    [](const ::testing::TestParamInfo<fault::Site> &info) {
        std::string name = fault::site_name(info.param);
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

#endif  // FIDR_FAULT_ENABLED

}  // namespace
}  // namespace fidr
