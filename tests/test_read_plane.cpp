// Batched read plane (core/fidr_system + cache/chunk_cache): batch
// results must match serial reads byte-for-byte, ledgers must be
// deterministic for every cache tier configuration, the chunk cache
// must be a pure optimization (same payloads, fewer SSD fetches), GC
// must invalidate stale cache entries, an injected device error inside
// a batch must fail only its own slot, transient retries must charge
// exact fault counters, and a scripted batch sequence over every read
// source and failure mode pins the ledger it bills.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/workload/generator.h"

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

core::FidrConfig
read_plane_config(std::uint64_t cache_bytes)
{
    core::FidrConfig config;
    config.platform = small_platform();
    config.nic.hash_lanes = 1;
    config.compress_lanes = 1;
    config.chunk_cache_bytes = cache_bytes;
    return config;
}

/** Deterministic 4 KB chunk content keyed by (lba, salt). */
Buffer
chunk(Lba lba, std::uint64_t salt)
{
    Buffer data(kChunkSize);
    std::uint64_t x = lba * 0x9E3779B97F4A7C15ull + salt + 1;
    for (std::size_t i = 0; i < data.size(); ++i) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        data[i] = static_cast<std::uint8_t>((x * 0x2545F4914F6CDD1Dull) >>
                                            56);
    }
    return data;
}

/** Dedup-heavy write trace + the per-LBA expected read-back bytes. */
struct Trace {
    std::vector<workload::IoRequest> requests;
    std::vector<Lba> lbas;  ///< Request order, duplicates kept.
    std::unordered_map<Lba, Buffer> expected;
};

Trace
make_trace(std::size_t writes)
{
    workload::WorkloadSpec spec;
    spec.name = "read-plane";
    spec.dedup_ratio = 0.5;  // Shared PBNs: batches must coalesce.
    spec.comp_ratio = 0.5;
    spec.dup_working_set = 64;
    spec.address_space_chunks = 2048;
    spec.read_fraction = 0.0;
    spec.seed = 0x5EED;
    workload::WorkloadGenerator gen(spec);

    Trace trace;
    trace.requests = gen.batch(writes);
    for (const workload::IoRequest &req : trace.requests) {
        trace.lbas.push_back(req.lba);
        trace.expected[req.lba] = req.data;
    }
    return trace;
}

void
write_trace(core::FidrSystem &system, const Trace &trace)
{
    for (const workload::IoRequest &req : trace.requests) {
        Buffer data = req.data;
        ASSERT_TRUE(system.write(req.lba, std::move(data)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
}

TEST(ReadPlane, BatchMatchesSerialReadsByteForByte)
{
    const Trace trace = make_trace(600);
    core::FidrSystem system(read_plane_config(2ull * kMiB));
    write_trace(system, trace);

    // Serial reads first, then one batch over the same list (repeat
    // LBAs included): every slot must return the last-written bytes,
    // whether served by a fetch, the coalescer, or the chunk cache.
    for (const Lba lba : trace.lbas) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        ASSERT_EQ(got.value(), trace.expected.at(lba)) << "lba " << lba;
    }
    const std::vector<Result<Buffer>> batch =
        system.read_batch(trace.lbas);
    ASSERT_EQ(batch.size(), trace.lbas.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "slot " << i;
        ASSERT_EQ(batch[i].value(), trace.expected.at(trace.lbas[i]))
            << "slot " << i;
    }
}

struct ReadOutcome {
    std::vector<Buffer> payloads;
    std::vector<sim::LedgerRow> mem_rows;
    std::vector<sim::LedgerRow> cpu_rows;
    std::vector<std::uint64_t> ssd_link_bytes;
    std::uint64_t ssd_fetches = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t spill_hits = 0;
    core::FidrSystem::FaultStats faults;
};

ReadOutcome
run_read_config(core::FidrConfig config, const Trace &trace)
{
    core::FidrSystem system(std::move(config));
    write_trace(system, trace);

    ReadOutcome out;
    // Two passes so a cache-enabled run exercises hits as well.
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<Result<Buffer>> batch = system.read_batch(trace.lbas);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_TRUE(batch[i].is_ok()) << "slot " << i;
            out.payloads.push_back(batch[i].take());
        }
    }
    out.mem_rows = system.platform().fabric().host_memory().report();
    out.cpu_rows = system.platform().cpu().ledger().report();
    for (std::size_t s = 0;
         s < system.platform().data_ssd_dev_count(); ++s) {
        out.ssd_link_bytes.push_back(system.platform().fabric().link_bytes(
            system.platform().data_ssd_dev(s)));
    }
    const obs::ObsSnapshot snap = system.obs_snapshot();
    out.ssd_fetches = snap.counters.at("read.ssd_fetches");
    out.cache_hits = snap.counters.at("read.cache.hits");
    out.warm_hits = snap.counters.at("read.cache.warm.hits");
    out.spill_hits = snap.counters.at("read.cache.spill.hits");
    out.faults = system.fault_stats();
    return out;
}

ReadOutcome
run_read_trace(std::uint64_t cache_bytes, const Trace &trace)
{
    return run_read_config(read_plane_config(cache_bytes), trace);
}

void
expect_same_outcome(const ReadOutcome &a, const ReadOutcome &b)
{
    ASSERT_EQ(a.payloads.size(), b.payloads.size());
    for (std::size_t i = 0; i < a.payloads.size(); ++i)
        ASSERT_EQ(a.payloads[i], b.payloads[i]) << "slot " << i;

    ASSERT_EQ(a.mem_rows.size(), b.mem_rows.size());
    for (std::size_t i = 0; i < a.mem_rows.size(); ++i) {
        EXPECT_EQ(a.mem_rows[i].tag, b.mem_rows[i].tag);
        EXPECT_DOUBLE_EQ(a.mem_rows[i].value, b.mem_rows[i].value)
            << a.mem_rows[i].tag;
    }
    ASSERT_EQ(a.cpu_rows.size(), b.cpu_rows.size());
    for (std::size_t i = 0; i < a.cpu_rows.size(); ++i) {
        EXPECT_EQ(a.cpu_rows[i].tag, b.cpu_rows[i].tag);
        EXPECT_DOUBLE_EQ(a.cpu_rows[i].value, b.cpu_rows[i].value)
            << a.cpu_rows[i].tag;
    }
    ASSERT_EQ(a.ssd_link_bytes, b.ssd_link_bytes);
    EXPECT_EQ(a.ssd_fetches, b.ssd_fetches);
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.warm_hits, b.warm_hits);
    EXPECT_EQ(a.spill_hits, b.spill_hits);
    EXPECT_EQ(a.faults.transient_retries, b.faults.transient_retries);
    EXPECT_EQ(a.faults.retry_exhausted, b.faults.retry_exhausted);
    EXPECT_EQ(a.faults.backoff_ns, b.faults.backoff_ns);
}

TEST(ReadPlane, BillingIdenticalAcrossLanesAndTierConfigs)
{
    // The two-tier cache keeps the determinism contract: for every
    // tier configuration (two-tier, two-tier + spill) a second system
    // fed the same trace reproduces payloads and ledgers bit for bit,
    // and payloads are identical across the configurations too
    // (tiering is a pure optimization).  The small budget forces
    // demotions, warm hits and (in the spill config) ring traffic, so
    // the invariance is non-vacuous.
    const Trace trace = make_trace(500);
    struct TierCase {
        const char *name;
        std::uint64_t spill_bytes;
    };
    const TierCase cases[] = {
        {"two-tier", 0},
        {"two-tier+spill", 4ull * kMiB},
    };
    std::vector<Buffer> reference;
    for (const TierCase &tier : cases) {
        SCOPED_TRACE(tier.name);
        core::FidrConfig config = read_plane_config(256ull * 1024);
        config.chunk_cache_spill_bytes = tier.spill_bytes;
        const ReadOutcome outcome = run_read_config(config, trace);
        expect_same_outcome(outcome, run_read_config(config, trace));
        // Non-vacuity, per configuration.
        EXPECT_GT(outcome.warm_hits, 0u);
        if (tier.spill_bytes > 0)
            EXPECT_GT(outcome.spill_hits, 0u);
        else
            EXPECT_EQ(outcome.spill_hits, 0u);

        if (reference.empty()) {
            reference = outcome.payloads;
        } else {
            ASSERT_EQ(outcome.payloads.size(), reference.size());
            for (std::size_t i = 0; i < reference.size(); ++i)
                ASSERT_EQ(outcome.payloads[i], reference[i])
                    << "slot " << i;
        }
    }
}

TEST(ReadPlane, CacheIsAPureOptimization)
{
    // Same trace with the cache off and on: byte-identical payloads,
    // strictly fewer data-SSD fetches, nonzero hits on the repeat
    // pass, and hits recorded in obs.
    const Trace trace = make_trace(500);
    const ReadOutcome off = run_read_trace(0, trace);
    const ReadOutcome on = run_read_trace(8ull * kMiB, trace);

    ASSERT_EQ(off.payloads.size(), on.payloads.size());
    for (std::size_t i = 0; i < off.payloads.size(); ++i)
        ASSERT_EQ(off.payloads[i], on.payloads[i]) << "slot " << i;
    EXPECT_EQ(off.cache_hits, 0u);
    EXPECT_GT(on.cache_hits, 0u);
    EXPECT_LT(on.ssd_fetches, off.ssd_fetches);
}

TEST(ReadPlane, DuplicateSlotsCoalesceIntoOneFetch)
{
    core::FidrSystem system(read_plane_config(0));
    // Two LBAs with identical content share a PBN; a third is unique.
    ASSERT_TRUE(system.write(10, chunk(1, 0)).is_ok());
    ASSERT_TRUE(system.write(20, chunk(1, 0)).is_ok());
    ASSERT_TRUE(system.write(30, chunk(3, 0)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::uint64_t before =
        system.obs_snapshot().counters.at("read.ssd_fetches");
    // Six slots, two distinct physical chunks: repeats of LBA 10 and
    // the deduped LBA 20 all ride the same job.
    const std::vector<Lba> lbas = {10, 10, 20, 30, 10, 20};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    for (std::size_t i = 0; i < lbas.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "slot " << i;
        EXPECT_EQ(batch[i].value(),
                  chunk(lbas[i] == 30 ? 3 : 1, 0)) << "slot " << i;
    }
    const std::uint64_t fetches =
        system.obs_snapshot().counters.at("read.ssd_fetches") - before;
    EXPECT_EQ(fetches, 2u);
}

TEST(ReadPlane, NicBufferedWritesHitInBatch)
{
    core::FidrSystem system(read_plane_config(0));
    ASSERT_TRUE(system.write(7, chunk(7, 1)).is_ok());
    ASSERT_TRUE(system.write(8, chunk(8, 1)).is_ok());
    // No flush: both chunks still live in NIC NVRAM.
    const std::uint64_t hits_before = system.reduction().nic_read_hits;
    const std::vector<Lba> lbas = {7, 8};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    ASSERT_TRUE(batch[0].is_ok());
    ASSERT_TRUE(batch[1].is_ok());
    EXPECT_EQ(batch[0].value(), chunk(7, 1));
    EXPECT_EQ(batch[1].value(), chunk(8, 1));
    EXPECT_EQ(system.reduction().nic_read_hits, hits_before + 2);
}

TEST(ReadPlane, BatchStagesRecordOncePerCall)
{
    // read.barrier, read.cache_probe and read.cache_fill take one
    // sample per read_batch call whatever the batch holds — resolved
    // chunks, repeats, an unknown LBA, NIC-buffered writes or nothing
    // — with the chunk cache on and with it off.
    const Trace trace = make_trace(64);
    for (const std::uint64_t cache_bytes : {0ull, 256ull * 1024}) {
        core::FidrSystem system(read_plane_config(cache_bytes));
        write_trace(system, trace);
        ASSERT_TRUE(system.write(5000, chunk(5000, 9)).is_ok());
        const std::vector<Lba> resolved(trace.lbas.begin(),
                                        trace.lbas.begin() + 16);
        const std::vector<std::vector<Lba>> calls = {
            resolved, resolved, {trace.lbas[20], 999'999}, {5000}, {}};
        for (const std::vector<Lba> &lbas : calls)
            (void)system.read_batch(lbas);

        const obs::ObsSnapshot snap = system.obs_snapshot();
        for (const char *name :
             {"read.barrier", "read.cache_probe", "read.cache_fill"}) {
            EXPECT_EQ(snap.histograms.at(name).count, calls.size())
                << name << " cache_bytes " << cache_bytes;
        }
        const obs::Histogram *probe =
            system.metrics().find_histogram("read.cache_probe");
        if (cache_bytes == 0)
            EXPECT_EQ(probe->max_ns(), 0u);  // Nothing was probed.
        else
            EXPECT_GT(probe->max_ns(), 0u);
    }
}

TEST(ReadPlane, UnknownLbaFailsOnlyItsSlot)
{
    core::FidrSystem system(read_plane_config(0));
    ASSERT_TRUE(system.write(1, chunk(1, 2)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::vector<Lba> lbas = {1, 999'999, 1};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    ASSERT_TRUE(batch[0].is_ok());
    EXPECT_EQ(batch[1].status().code(), StatusCode::kNotFound);
    ASSERT_TRUE(batch[2].is_ok());
    EXPECT_EQ(batch[2].value(), chunk(1, 2));
}

TEST(ReadPlane, CompactionInvalidatesStaleCacheEntries)
{
    // Fill the cache, kill half the chunks, compact, and read back:
    // the discarded containers' cached images must be gone (stale
    // physical slots) and every surviving LBA must still read its
    // current bytes through the moved locations.
    core::FidrConfig config = read_plane_config(8ull * kMiB);
    config.container_bytes = 64 * 1024;  // Small: many containers.
    core::FidrSystem system(config);

    constexpr std::size_t kLbas = 128;
    for (Lba lba = 0; lba < kLbas; ++lba)
        ASSERT_TRUE(system.write(lba, chunk(lba, 10)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    std::vector<Lba> all(kLbas);
    for (Lba lba = 0; lba < kLbas; ++lba)
        all[lba] = lba;
    for (const Result<Buffer> &r : system.read_batch(all))
        ASSERT_TRUE(r.is_ok());
    ASSERT_GT(system.chunk_cache()->entries(), 0u);

    // Overwrite every even LBA: the old PBNs die and their cache
    // entries are invalidated at retirement.
    for (Lba lba = 0; lba < kLbas; lba += 2)
        ASSERT_TRUE(system.write(lba, chunk(lba, 11)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const std::uint64_t invalidations_before =
        system.chunk_cache()->stats().invalidations;
    Result<std::uint64_t> reclaimed = system.run_gc(0.25);
    ASSERT_TRUE(reclaimed.is_ok());
    EXPECT_GT(reclaimed.value(), 0u);
    // Survivors moved out of discarded containers: their old-location
    // entries must have been dropped.
    EXPECT_GT(system.chunk_cache()->stats().invalidations,
              invalidations_before);

    const std::vector<Result<Buffer>> after = system.read_batch(all);
    for (Lba lba = 0; lba < kLbas; ++lba) {
        ASSERT_TRUE(after[lba].is_ok()) << "lba " << lba;
        EXPECT_EQ(after[lba].value(),
                  chunk(lba, lba % 2 == 0 ? 11 : 10)) << "lba " << lba;
    }
}

TEST(ReadPlane, FillsNeverLapASpillImageTheBatchStillReads)
{
    // A miss fill can evict a warm tail into the spill ring, whose
    // write cursor sits on its oldest image.  Read that image in the
    // same batch, after the miss: it must still be served from the
    // ring, intact, because a batch fills the cache only after every
    // job read its image.  (Incompressible chunks give every image the
    // same size, so a lapped slot would decode to another chunk.)
    core::FidrConfig config = read_plane_config(64 * 1024);
    // The ring takes whole container slots: small containers keep it
    // to a few dozen images, so it laps within the warm-up reads.
    config.container_bytes = 32 * 1024;
    config.chunk_cache_spill_bytes = 32 * 1024;
    core::FidrSystem system(config);
    constexpr Lba kMiss = 127;  // Not read until the final batch.
    for (Lba lba = 0; lba <= kMiss; ++lba)
        ASSERT_TRUE(system.write(lba, chunk(lba, 50)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const auto tier_of = [&](Lba lba) {
        const auto location = system.lba_table().lookup(lba);
        return system.chunk_cache()->peek(
            {location->container_id, location->offset_units});
    };
    const auto counter = [&](const char *name) {
        return system.obs_snapshot().counters.at(name);
    };
    // One LBA per batch, in order, until the ring has lapped: its
    // oldest live image is then the lowest spilled LBA.
    for (Lba lba = 0; lba < kMiss; ++lba) {
        const Lba one[1] = {lba};
        ASSERT_TRUE(system.read_batch(one).front().is_ok());
    }
    ASSERT_GT(system.chunk_cache()->stats().spill_overwritten, 0u);
    Lba oldest = 0;
    while (oldest < kMiss && tier_of(oldest) != cache::CacheTier::kSpill)
        ++oldest;
    ASSERT_LT(oldest, kMiss);

    const std::uint64_t fetches = counter("read.ssd_fetches");
    const std::uint64_t spill_reads = counter("read.cache.spill.reads");
    const std::uint64_t spill_writes = counter("read.cache.spill.writes");
    const std::vector<Lba> lbas = {kMiss, oldest};
    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    for (std::size_t i = 0; i < lbas.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "slot " << i;
        EXPECT_EQ(batch[i].value(), chunk(lbas[i], 50)) << "slot " << i;
    }
    EXPECT_EQ(counter("read.ssd_fetches"), fetches + 1);
    EXPECT_EQ(counter("read.cache.spill.reads"), spill_reads + 1);
    EXPECT_GT(counter("read.cache.spill.writes"), spill_writes);
}

#if FIDR_FAULT_ENABLED
TEST(ReadPlane, InjectedReadErrorFailsOnlyItsSlot)
{
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    registry.set_seed(0xF1D7);

    // Jobs fetch in order, so fail_nth lands on a known job; zero
    // retries make the single transient error surface.
    core::FidrConfig config = read_plane_config(0);
    config.transient_retries = 0;
    core::FidrSystem system(config);

    constexpr std::size_t kLbas = 8;
    std::vector<Lba> lbas;
    for (Lba lba = 0; lba < kLbas; ++lba) {
        ASSERT_TRUE(system.write(lba, chunk(lba, 20)).is_ok());
        lbas.push_back(lba);
    }
    ASSERT_TRUE(system.flush().is_ok());

    fault::FaultPolicy policy;
    policy.kind = fault::FaultKind::kError;
    policy.code = StatusCode::kUnavailable;
    policy.fail_nth = 3;
    registry.arm(fault::Site::kSsdRead, policy);

    const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
    registry.disarm_all();

    std::size_t failed = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].is_ok()) {
            EXPECT_EQ(batch[i].value(), chunk(lbas[i], 20))
                << "slot " << i;
        } else {
            EXPECT_EQ(batch[i].status().code(), StatusCode::kUnavailable)
                << "slot " << i;
            ++failed;
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(system.fault_stats().retry_exhausted, 1u);

    // Degraded mode is per-request: the same batch succeeds once the
    // fault clears.
    for (const Result<Buffer> &r : system.read_batch(lbas))
        EXPECT_TRUE(r.is_ok());
}
#endif  // FIDR_FAULT_ENABLED

#if FIDR_FAULT_ENABLED
TEST(ReadPlane, TransientReadRetriesChargeExactFaultStats)
{
    // Pins the exact degraded-mode charge of read_batch's flash
    // retries: every retry counts one transient_retries and
    // kRetryBackoffNs << attempt of backoff, a job that runs out of
    // retries counts one retry_exhausted, and spill-ring attempts that
    // end in the container fallback are not charged at all.
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();

    core::FidrConfig config;
    config.platform = small_platform();
    config.nic.hash_lanes = 1;
    config.compress_lanes = 1;
    config.chunk_cache_bytes = 64 * 1024;  // Spills after ~16 reads.
    config.chunk_cache_spill_bytes = 4ull * kMiB;
    ASSERT_EQ(config.transient_retries, 2u);
    ASSERT_EQ(core::FidrSystem::kRetryBackoffNs, 20'000u);
    core::FidrSystem system(config);

    // LBA kCold is written but never read until the last step, so it
    // is the one guaranteed container fetch.
    constexpr Lba kCold = 64;
    for (Lba lba = 0; lba <= kCold; ++lba)
        ASSERT_TRUE(system.write(lba, chunk(lba, 30)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const auto counter = [&](const char *name) {
        return system.obs_snapshot().counters.at(name);
    };
    const auto read_one = [&](Lba lba, const fault::FaultPolicy *policy) {
        registry.reset_counters();  // max_fires counts from here.
        if (policy != nullptr)
            registry.arm(fault::Site::kSsdRead, *policy);
        const Lba one[1] = {lba};
        std::vector<Result<Buffer>> out = system.read_batch(one);
        registry.disarm_all();
        return std::move(out.front());
    };
    const auto expect_faults = [&](std::uint64_t retries,
                                   std::uint64_t exhausted,
                                   std::uint64_t backoff_ns) {
        EXPECT_EQ(system.fault_stats().transient_retries, retries);
        EXPECT_EQ(system.fault_stats().retry_exhausted, exhausted);
        EXPECT_EQ(system.fault_stats().backoff_ns, backoff_ns);
    };

    fault::FaultPolicy fail_once;
    fail_once.kind = fault::FaultKind::kError;
    fail_once.code = StatusCode::kUnavailable;
    fail_once.fail_nth = 1;
    // Three straight failures: the first attempt plus both retries.
    fault::FaultPolicy fail_thrice;
    fail_thrice.kind = fault::FaultKind::kError;
    fail_thrice.code = StatusCode::kUnavailable;
    fail_thrice.probability = 1.0;
    fail_thrice.max_fires = 3;

    // 1. Container fetch: the first flash read fails, the retry works.
    std::uint64_t fetches = counter("read.ssd_fetches");
    Result<Buffer> got = read_one(0, &fail_once);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), chunk(0, 30));
    EXPECT_EQ(counter("read.ssd_fetches"), fetches + 1);
    expect_faults(1, 0, 20'000);

    // Read the other LBAs one batch at a time: LBAs 0 and 1 cascade
    // hot -> warm -> spill ring.
    for (Lba lba = 1; lba < kCold; ++lba)
        ASSERT_TRUE(read_one(lba, nullptr).is_ok()) << "lba " << lba;
    expect_faults(1, 0, 20'000);

    // 2. Spill hit: the ring read fails once, the retry works, and no
    //    container fetch happens.
    std::uint64_t spill_hits = counter("read.cache.spill.hits");
    fetches = counter("read.ssd_fetches");
    got = read_one(0, &fail_once);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), chunk(0, 30));
    EXPECT_EQ(counter("read.cache.spill.hits"), spill_hits + 1);
    EXPECT_EQ(counter("read.ssd_fetches"), fetches);
    expect_faults(2, 0, 40'000);

    // 3. Spill hit whose ring read exhausts its retries: the job falls
    //    back to the container fetch, and the discarded ring attempts
    //    charge nothing.
    spill_hits = counter("read.cache.spill.hits");
    fetches = counter("read.ssd_fetches");
    got = read_one(1, &fail_thrice);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), chunk(1, 30));
    EXPECT_EQ(counter("read.cache.spill.hits"), spill_hits + 1);
    EXPECT_EQ(counter("read.ssd_fetches"), fetches + 1);
    expect_faults(2, 0, 40'000);

    // 4. Exhausted container fetch: two retries (20 us + 40 us of
    //    backoff), then the slot fails and counts retry_exhausted.
    got = read_one(kCold, &fail_thrice);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
    expect_faults(4, 1, 100'000);
}
#endif  // FIDR_FAULT_ENABLED

#if FIDR_FAULT_ENABLED
/** FNV-1a over each slot's status code and, when ok, its payload. */
std::uint64_t
batch_digest(const std::vector<Result<Buffer>> &batch)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    const auto mix = [&h](std::uint8_t byte) {
        h = (h ^ byte) * 0x100000001B3ull;
    };
    for (const Result<Buffer> &slot : batch) {
        mix(static_cast<std::uint8_t>(slot.status().code()));
        if (slot.is_ok()) {
            for (const std::uint8_t byte : slot.value())
                mix(byte);
        }
    }
    return h;
}

TEST(ReadPlane, ScriptedBatchesPinTheReadLedger)
{
    // Frozen ledger of a scripted batch sequence that walks every read
    // source and failure mode: container misses, hot / warm / spill
    // hits, a spill hit whose ring read fails over to the container, a
    // persistent flash-read failure, a failed engine DMA from each of
    // the three sources, and a repeated plus a dedup-shared LBA in one
    // batch.  Every number below was captured before the read plane
    // went from two passes (fetch, then billing) to one step per job;
    // any change to what a job bills, to which device or memtag, or to
    // its retry charges moves one of them.
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    registry.set_seed(0x1ED6);

    core::FidrConfig config = read_plane_config(64 * 1024);
    config.chunk_cache_spill_bytes = 4ull * kMiB;
    core::FidrSystem system(config);

    constexpr Lba kShared = 100;  // Same content as LBA 5.
    for (Lba lba = 0; lba < 40; ++lba)
        ASSERT_TRUE(system.write(lba, chunk(lba, 40)).is_ok());
    ASSERT_TRUE(system.write(kShared, chunk(5, 40)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    const auto expected = [&](Lba lba) {
        return chunk(lba == kShared ? 5 : lba, 40);
    };
    std::vector<std::vector<int>> codes;
    std::vector<std::uint64_t> digests;
    const auto run = [&](std::vector<Lba> lbas, fault::Site site,
                         const fault::FaultPolicy *policy) {
        registry.reset_counters();  // max_fires counts from here.
        if (policy != nullptr)
            registry.arm(site, *policy);
        const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
        registry.disarm_all();
        std::vector<int> batch_codes;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            batch_codes.push_back(
                static_cast<int>(batch[i].status().code()));
            if (batch[i].is_ok()) {
                EXPECT_EQ(batch[i].value(), expected(lbas[i]))
                    << "batch " << codes.size() << " slot " << i;
            }
        }
        codes.push_back(batch_codes);
        digests.push_back(batch_digest(batch));
    };

    fault::FaultPolicy exhaust_one;  // First op: attempt + 2 retries.
    exhaust_one.probability = 1.0;
    exhaust_one.max_fires = 3;
    fault::FaultPolicy always;  // Persistent device failure.
    always.probability = 1.0;

    // Cold reads, four per batch: container misses that cascade the
    // earliest chunks hot -> warm -> spill ring.
    for (Lba lba = 0; lba < 24; lba += 4)
        run({lba, lba + 1, lba + 2, lba + 3}, fault::Site::kSsdRead,
            nullptr);
    // Every source in one batch, plus a repeated and a shared LBA.
    run({23, 16, 0, 30, 5, kShared, 30, 23}, fault::Site::kSsdRead,
        nullptr);
    // The spill hit's ring read exhausts its retries and falls back to
    // the container; the warm hit and the miss after it read normally.
    run({1, 17, 31}, fault::Site::kSsdRead, &exhaust_one);
    // Persistent flash failure: the miss and the spill hit (ring, then
    // container) fail; the hot and warm hits never touch flash.
    run({31, 32, 2, 18}, fault::Site::kSsdRead, &always);
    // Failed engine DMA after a container fetch, a spill read and a
    // warm hit.
    run({33, 19}, fault::Site::kPcieDma, &exhaust_one);
    run({20, 34}, fault::Site::kPcieDma, &exhaust_one);
    run({22, 35}, fault::Site::kPcieDma, &exhaust_one);

    const std::vector<std::vector<int>> kCodes = {
        {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0},
        {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0},
        {0, 0, 0}, {0, 5, 5, 0}, {5, 0}, {5, 0}, {5, 0},
    };
    EXPECT_EQ(codes, kCodes);
    const std::vector<std::uint64_t> kDigests = {
        0x8C3AA0192E315905ull, 0xA1814899E6F08941ull,
        0x5E4368FA1E3685CFull, 0xA246F1059A83526Full,
        0xE68922FD04285989ull, 0x52442E9DB981B332ull,
        0xBB2E80136F55672Cull, 0xF2DCB2D4E649B22Cull,
        0x8E944FF7C9CE9903ull, 0x2418F1B53B28C3EBull,
        0x73AD1769359B3CB6ull, 0xA3FB7B0ABCF2A140ull,
    };
    EXPECT_EQ(digests, kDigests);

    // Fabric ledger: host-DRAM bytes per memtag (a warm or spill DMA
    // billed as kDataSsd would move bytes between rows) and bytes per
    // data-SSD link (spill reads and container fetches, attempted
    // ones included).
    const pcie::Fabric &fabric = system.platform().fabric();
    const sim::BandwidthLedger &memory = fabric.host_memory();
    EXPECT_EQ(memory.bytes(core::memtag::kChunkCache), 102'510.0);
    EXPECT_EQ(memory.bytes(core::memtag::kDataSsd), 0.0);
    EXPECT_EQ(memory.bytes(core::memtag::kNicHost), 2'114.0);
    EXPECT_EQ(memory.bytes(core::memtag::kFpga), 64.0);
    // Table-cache traffic is fractional (write path, per-line shares).
    EXPECT_NEAR(memory.bytes(core::memtag::kTableCache), 392'724.8, 1e-3);
    const core::Platform &platform = system.platform();
    ASSERT_EQ(platform.data_ssd_dev_count(), 2u);
    EXPECT_EQ(fabric.link_bytes(platform.data_ssd_dev(0)), 4'321'435u);
    EXPECT_EQ(fabric.link_bytes(platform.data_ssd_dev(1)), 82'020u);
    EXPECT_EQ(fabric.link_bytes(platform.decompression_engine()),
              303'289u);
    EXPECT_EQ(fabric.p2p_bytes(), 4'645'029u);
    EXPECT_EQ(fabric.root_complex_bytes(), 363'064u);
    EXPECT_EQ(fabric.dma_errors(), 9u);

    const obs::ObsSnapshot snap = system.obs_snapshot();
    EXPECT_EQ(snap.counters.at("read.ssd_fetches"), 30u);
    EXPECT_EQ(snap.counters.at("read.cache.spill.reads"), 3u);
    EXPECT_EQ(snap.counters.at("read.cache.hot.hits"), 2u);
    EXPECT_EQ(snap.counters.at("read.cache.warm.hits"), 5u);
    EXPECT_EQ(snap.counters.at("read.cache.spill.hits"), 5u);
    EXPECT_EQ(snap.counters.at("read.cache.misses"), 30u);
    EXPECT_EQ(system.decompression_engine().chunks_decompressed(), 35u);
    EXPECT_EQ(system.metrics().find_histogram("read.ssd_fetch")->count(),
              35u);
    EXPECT_EQ(system.metrics().find_histogram("read.decompress")->count(),
              35u);

    const core::FidrSystem::FaultStats &faults = system.fault_stats();
    EXPECT_EQ(faults.transient_retries, 10u);
    EXPECT_EQ(faults.retry_exhausted, 5u);
    EXPECT_EQ(faults.backoff_ns, 300'000u);
    EXPECT_EQ(faults.dangling_repairs, 0u);
}
#endif  // FIDR_FAULT_ENABLED

}  // namespace
}  // namespace fidr
