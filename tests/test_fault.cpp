// Tests for the deterministic failpoint registry (src/fidr/fault) and
// the degraded-mode behavior it drives in FidrSystem: transparent
// retry of transient device errors, clean failure of journaled writes,
// correct-SSD billing on injected read errors, and silent-corruption
// surfacing through scrub().

#include <gtest/gtest.h>

#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/ssd/ssd.h"
#include "fidr/workload/content.h"

#if FIDR_FAULT_ENABLED

namespace fidr::fault {
namespace {

/** Registry fixture: every test starts disarmed with fresh counters. */
class Failpoint : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        auto &registry = FailpointRegistry::instance();
        registry.disarm_all();
        registry.reset_counters();
        registry.set_seed(0xF1D7);
    }

    void TearDown() override
    { FailpointRegistry::instance().disarm_all(); }

    FailpointRegistry &registry() { return FailpointRegistry::instance(); }
};

TEST_F(Failpoint, FailNthFiresExactlyOnceAtTheNthHit)
{
    FaultPolicy policy;
    policy.fail_nth = 3;
    registry().arm(Site::kSsdRead, policy);

    for (int hit = 1; hit <= 10; ++hit) {
        const FaultDecision decision =
            registry().evaluate(Site::kSsdRead);
        EXPECT_EQ(decision.fire, hit == 3) << "hit " << hit;
    }
    EXPECT_EQ(registry().hits(Site::kSsdRead), 10u);
    EXPECT_EQ(registry().fires(Site::kSsdRead), 1u);
}

TEST_F(Failpoint, ReArmingReplaysTheSameProbabilitySchedule)
{
    FaultPolicy policy;
    policy.probability = 0.5;

    const auto draw_pattern = [&] {
        registry().arm(Site::kPcieDma, policy);
        std::vector<bool> fired;
        for (int i = 0; i < 64; ++i)
            fired.push_back(registry().evaluate(Site::kPcieDma).fire);
        return fired;
    };

    const std::vector<bool> first = draw_pattern();
    const std::vector<bool> second = draw_pattern();
    EXPECT_EQ(first, second);  // arm() reseeds from (seed, site).
    EXPECT_GT(registry().fires(Site::kPcieDma), 0u);
    EXPECT_LT(registry().fires(Site::kPcieDma), 128u);

    // A different registry seed produces a different schedule.
    registry().set_seed(0xBADC0FFE);
    EXPECT_NE(draw_pattern(), first);
}

TEST_F(Failpoint, MaxFiresCapsInjections)
{
    FaultPolicy policy;
    policy.probability = 1.0;
    policy.max_fires = 2;
    registry().arm(Site::kJournalAppend, policy);

    int fired = 0;
    for (int i = 0; i < 10; ++i)
        fired += registry().evaluate(Site::kJournalAppend).fire;
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(registry().fires(Site::kJournalAppend), 2u);
}

TEST_F(Failpoint, ArmByNameAcceptsKnownSitesOnly)
{
    FaultPolicy policy;
    policy.fail_nth = 1;
    ASSERT_TRUE(registry().arm("ssd.read", policy).is_ok());
    EXPECT_TRUE(registry().armed(Site::kSsdRead));

    const Status unknown = registry().arm("bogus.site", policy);
    ASSERT_FALSE(unknown.is_ok());
    EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
}

TEST_F(Failpoint, CountersTrackUnarmedHitsAndReset)
{
    // Hits count even when nothing is armed (the profile run relies
    // on this), and reset_counters() zeroes them without disarming.
    (void)registry().evaluate(Site::kCacheFetch);
    (void)registry().evaluate(Site::kCacheFetch);
    EXPECT_EQ(registry().hits(Site::kCacheFetch), 2u);
    EXPECT_EQ(registry().fires(Site::kCacheFetch), 0u);

    FaultPolicy policy;
    policy.fail_nth = 1;
    registry().arm(Site::kCacheFetch, policy);
    registry().reset_counters();
    EXPECT_EQ(registry().hits(Site::kCacheFetch), 0u);
    EXPECT_TRUE(registry().armed(Site::kCacheFetch));
    EXPECT_TRUE(registry().evaluate(Site::kCacheFetch).fire);
}

TEST_F(Failpoint, InjectedStatusNamesTheSiteAndCarriesTheCode)
{
    FaultPolicy policy;
    policy.fail_nth = 1;
    policy.code = StatusCode::kCorruption;
    registry().arm(Site::kContainerSeal, policy);

    const FaultDecision decision =
        registry().evaluate(Site::kContainerSeal);
    ASSERT_TRUE(decision.fire);
    const Status injected = to_status(decision, Site::kContainerSeal);
    EXPECT_EQ(injected.code(), StatusCode::kCorruption);
    EXPECT_NE(injected.message().find("container.seal"),
              std::string::npos);

    // as_status folds a no-fire (or non-error) decision to Ok.
    EXPECT_TRUE(as_status(FaultDecision{}, Site::kContainerSeal).is_ok());
}

TEST_F(Failpoint, LatencySpikeSucceedsButAccountsThePenalty)
{
    FaultPolicy policy;
    policy.kind = FaultKind::kLatencySpike;
    policy.probability = 1.0;
    policy.latency_ns = 5'000;
    policy.max_fires = 4;
    registry().arm(Site::kSsdRead, policy);

    ssd::SsdConfig ssd_config;
    ssd_config.capacity_bytes = 1 * kMiB;
    ssd::Ssd ssd(ssd_config);
    ASSERT_TRUE(ssd.write(0, Buffer(512, 0xAB)).is_ok());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ssd.read(0, 512).is_ok());  // Slow, not failed.
    EXPECT_EQ(registry().spike_ns(Site::kSsdRead), 4u * 5'000u);
    EXPECT_EQ(ssd.read_errors(), 0u);
}

}  // namespace
}  // namespace fidr::fault

namespace fidr::core {
namespace {

using fault::FailpointRegistry;
using fault::FaultKind;
using fault::FaultPolicy;
using fault::Site;

FidrConfig
small_fidr(bool journaled)
{
    FidrConfig config;
    config.platform.expected_unique_chunks = 20000;
    config.platform.cache_fraction = 0.1;
    config.platform.data_ssd.capacity_bytes = 4ull * kGiB;
    config.platform.table_ssd.capacity_bytes = 1ull * kGiB;
    config.journal_metadata = journaled;
    config.container_bytes = 64 * 1024;
    config.nic.hash_batch = 64;
    config.nic.hash_lanes = 1;
    config.compress_lanes = 1;
    return config;
}

/** System fixture: clean registry around every test. */
class DegradedMode : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        auto &registry = FailpointRegistry::instance();
        registry.disarm_all();
        registry.reset_counters();
        registry.set_seed(0xF1D7);
    }

    void TearDown() override
    { FailpointRegistry::instance().disarm_all(); }
};

TEST_F(DegradedMode, TransientDmaErrorIsRetriedTransparently)
{
    FidrSystem system(small_fidr(false));
    for (Lba lba = 0; lba < 16; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }

    FaultPolicy policy;
    policy.fail_nth = 1;  // One transient descriptor failure.
    policy.max_fires = 1;
    FailpointRegistry::instance().arm(Site::kPcieDma, policy);

    ASSERT_TRUE(system.flush().is_ok());  // Retry absorbed the error.
    EXPECT_GE(system.fault_stats().transient_retries, 1u);
    EXPECT_EQ(system.fault_stats().retry_exhausted, 0u);
    EXPECT_GT(system.fault_stats().backoff_ns, 0u);
    EXPECT_EQ(system.read(3).value(), workload::make_chunk_content(3));
}

TEST_F(DegradedMode, ExhaustedRetriesSurfaceTheErrorCleanly)
{
    FidrSystem system(small_fidr(false));
    for (Lba lba = 0; lba < 16; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }

    FaultPolicy policy;
    policy.probability = 1.0;  // Hard failure: retries fail too.
    FailpointRegistry::instance().arm(Site::kPcieDma, policy);

    const Status failed = system.flush();
    ASSERT_FALSE(failed.is_ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    EXPECT_GE(system.fault_stats().retry_exhausted, 1u);

    // The NIC buffer kept the batch: after the device recovers the
    // same flush succeeds and every write is readable.
    FailpointRegistry::instance().disarm_all();
    ASSERT_TRUE(system.flush().is_ok());
    for (Lba lba = 0; lba < 16; ++lba) {
        EXPECT_EQ(system.read(lba).value(),
                  workload::make_chunk_content(lba));
    }
}

TEST_F(DegradedMode, JournalAppendFailureFailsTheBatchWithoutDamage)
{
    FidrSystem system(small_fidr(true));
    for (Lba lba = 0; lba < 16; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }

    FaultPolicy policy;
    policy.fail_nth = 1;
    policy.max_fires = 1;
    FailpointRegistry::instance().arm(Site::kJournalAppend, policy);

    ASSERT_FALSE(system.flush().is_ok());  // Write fails cleanly...
    ASSERT_TRUE(system.validate().is_ok());  // ...tables undamaged.

    FailpointRegistry::instance().disarm_all();
    ASSERT_TRUE(system.flush().is_ok());  // Retained batch retries.
    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    for (Lba lba = 0; lba < 16; ++lba) {
        EXPECT_EQ(system.read(lba).value(),
                  workload::make_chunk_content(lba));
    }
}

TEST_F(DegradedMode, InjectedReadErrorStillBillsTheSourceSsd)
{
    // The satellite fix: a failed container read must account its
    // flash traffic to the data SSD that served it, not to nothing
    // (and not to SSD 0 unconditionally).
    FidrSystem system(small_fidr(false));
    for (Lba lba = 0; lba < 200; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    const auto &fabric = system.platform().fabric();
    const std::size_t ssds = system.platform().data_ssd_dev_count();
    ASSERT_GE(ssds, 2u);

    const auto link_snapshot = [&] {
        std::vector<std::uint64_t> bytes;
        for (std::size_t i = 0; i < ssds; ++i)
            bytes.push_back(
                fabric.link_bytes(system.platform().data_ssd_dev(i)));
        return bytes;
    };

    // Identify LBA 0's source SSD with a fault-free read.
    const std::vector<std::uint64_t> before = link_snapshot();
    ASSERT_TRUE(system.read(0).is_ok());
    const std::vector<std::uint64_t> after = link_snapshot();
    std::size_t source = ssds;
    for (std::size_t i = 0; i < ssds; ++i) {
        if (after[i] > before[i]) {
            ASSERT_EQ(source, ssds) << "read billed two data SSDs";
            source = i;
        }
    }
    ASSERT_LT(source, ssds);

    FaultPolicy policy;
    policy.probability = 1.0;  // Retries fail too: error surfaces.
    FailpointRegistry::instance().arm(Site::kSsdRead, policy);
    const std::vector<std::uint64_t> pre_fail = link_snapshot();
    ASSERT_FALSE(system.read(0).is_ok());
    const std::vector<std::uint64_t> post_fail = link_snapshot();

    EXPECT_GT(post_fail[source], pre_fail[source]);
    for (std::size_t i = 0; i < ssds; ++i) {
        if (i != source) {
            EXPECT_EQ(post_fail[i], pre_fail[i]) << "ssd " << i;
        }
    }
    EXPECT_GE(system.fault_stats().retry_exhausted, 1u);
}

TEST_F(DegradedMode, BitFlipOnFlashReadsSurfacesInScrub)
{
    FidrSystem system(small_fidr(false));
    for (Lba lba = 0; lba < 40; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    Result<FidrSystem::ScrubReport> clean = system.scrub();
    ASSERT_TRUE(clean.is_ok());
    EXPECT_TRUE(clean.value().clean());

    // Flip one deterministic bit of every flash read: the scrubber's
    // recomputed SHA-256 digests expose the silent corruption.
    FaultPolicy policy;
    policy.kind = FaultKind::kBitFlip;
    policy.probability = 1.0;
    FailpointRegistry::instance().arm(Site::kSsdRead, policy);

    Result<FidrSystem::ScrubReport> dirty = system.scrub();
    ASSERT_TRUE(dirty.is_ok());
    EXPECT_GT(dirty.value().digest_mismatches, 0u);
    EXPECT_GT(dirty.value().chunks_verified, 0u);
}

TEST_F(DegradedMode, ObsSnapshotExportsPerSiteFaultCounters)
{
    FidrSystem system(small_fidr(true));
    for (Lba lba = 0; lba < 16; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }

    FaultPolicy policy;
    policy.fail_nth = 1;
    policy.max_fires = 1;
    FailpointRegistry::instance().arm(Site::kPcieDma, policy);
    ASSERT_TRUE(system.flush().is_ok());

    const obs::ObsSnapshot snap = system.obs_snapshot();
    ASSERT_TRUE(snap.counters.count("fault.pcie.dma.hits"));
    EXPECT_GT(snap.counters.at("fault.pcie.dma.hits"), 0u);
    ASSERT_TRUE(snap.counters.count("fault.pcie.dma.fires"));
    EXPECT_EQ(snap.counters.at("fault.pcie.dma.fires"), 1u);
    ASSERT_TRUE(snap.counters.count("fault.transient_retries"));
    EXPECT_GE(snap.counters.at("fault.transient_retries"), 1u);
}

}  // namespace
}  // namespace fidr::core

#else  // !FIDR_FAULT_ENABLED

TEST(Failpoint, DisabledBuildFoldsSitesToConstants)
{
    // -DFIDR_FAULT=OFF: evaluation macros are compile-time no-ops.
    EXPECT_FALSE(FIDR_FAULT_EVAL(::fidr::fault::Site::kPcieDma).fire);
}

#endif  // FIDR_FAULT_ENABLED
