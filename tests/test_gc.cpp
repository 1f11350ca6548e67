// GC tier (ISSUE: incremental concurrent GC): scheduler policy units,
// incremental budgeted steps, cache-hit-across-relocation regression,
// steady-state soak against the reserve watermark, a TSan-raced
// concurrent read/write/GC run, and superblock monotonicity across
// crash/recover cycles — each scenario ends in a clean fsck.

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "fidr/common/rng.h"
#include "fidr/core/fidr_system.h"
#include "fidr/core/gc.h"
#include "fidr/core/space.h"
#include "fidr/workload/content.h"

namespace fidr::core {
namespace {

Buffer
chunk_of(std::uint64_t id)
{
    return workload::make_chunk_content(id);
}

/** Small containers + small tables so GC has real victims fast. */
FidrConfig
gc_fidr()
{
    FidrConfig config;
    config.platform.expected_unique_chunks = 20000;
    config.platform.cache_fraction = 0.1;
    config.platform.data_ssd.capacity_bytes = 4ull * kGiB;
    config.platform.table_ssd.capacity_bytes = 64 * kMiB;
    config.nic.hash_batch = 64;
    config.container_bytes = 64 * 1024;
    return config;
}

/** fsck must be clean and non-vacuous. */
void
expect_clean_fsck(FidrSystem &system)
{
    Result<FidrSystem::FsckReport> report = system.fsck();
    ASSERT_TRUE(report.is_ok());
    EXPECT_TRUE(report.value().clean())
        << "missing_locations=" << report.value().missing_locations
        << " unreachable_chunks=" << report.value().unreachable_chunks
        << " space_mismatches=" << report.value().space_mismatches
        << " refcount_errors=" << report.value().refcount_errors
        << " superblock_regressions="
        << report.value().superblock_regressions;
    EXPECT_GT(report.value().live_pbns_checked, 0u);
}

// ---------------------------------------------------------------------
// GcScheduler policy units (pure, no system).

TEST(GcScheduler, PressureBoundaryIsInclusive)
{
    GcConfig config;
    config.reserve_free_fraction = 0.25;
    const GcScheduler scheduler(config);
    EXPECT_TRUE(scheduler.under_pressure(0.25));
    EXPECT_TRUE(scheduler.under_pressure(0.10));
    EXPECT_FALSE(scheduler.under_pressure(0.26));
}

TEST(GcScheduler, PicksHighestDeadFractionAboveThreshold)
{
    SpaceTracker space;
    // Container 1: 75% dead; container 2: 25% dead; container 3: all
    // live.  Threshold 0.5 admits only container 1.
    space.on_store(1, std::nullopt, tables::ChunkLocation{1, 0, 1024});
    space.on_store(2, std::nullopt, tables::ChunkLocation{1, 16, 3072});
    space.on_store(3, std::nullopt, tables::ChunkLocation{2, 0, 3072});
    space.on_store(4, std::nullopt, tables::ChunkLocation{2, 48, 1024});
    space.on_store(5, std::nullopt, tables::ChunkLocation{3, 0, 2048});
    space.on_dead(2);
    space.on_dead(4);

    GcConfig config;
    config.dead_fraction = 0.5;
    const GcScheduler scheduler(config);
    const auto eligible = [](std::uint64_t) { return true; };

    const auto victim = scheduler.select_victim(space, 0.9, eligible);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 1u);
}

TEST(GcScheduler, PressureWaivesTheThreshold)
{
    SpaceTracker space;
    // Only 25% dead: below the steady-state threshold...
    space.on_store(1, std::nullopt, tables::ChunkLocation{7, 0, 3072});
    space.on_store(2, std::nullopt, tables::ChunkLocation{7, 48, 1024});
    space.on_dead(2);

    GcConfig config;
    config.dead_fraction = 0.5;
    config.reserve_free_fraction = 0.10;
    const GcScheduler scheduler(config);
    const auto eligible = [](std::uint64_t) { return true; };

    EXPECT_FALSE(
        scheduler.select_victim(space, 0.5, eligible).has_value());
    // ...but under pressure anything with dead bytes is fair game.
    const auto victim = scheduler.select_victim(space, 0.05, eligible);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 7u);
}

TEST(GcScheduler, TiesBreakToLowestIdAndEligibilityFilters)
{
    SpaceTracker space;
    // Containers 4 and 9: identical 50% dead fractions.
    space.on_store(1, std::nullopt, tables::ChunkLocation{4, 0, 2048});
    space.on_store(2, std::nullopt, tables::ChunkLocation{4, 32, 2048});
    space.on_store(3, std::nullopt, tables::ChunkLocation{9, 0, 2048});
    space.on_store(4, std::nullopt, tables::ChunkLocation{9, 32, 2048});
    space.on_dead(1);
    space.on_dead(3);

    GcConfig config;
    config.dead_fraction = 0.5;
    const GcScheduler scheduler(config);

    const auto any = scheduler.select_victim(
        space, 0.9, [](std::uint64_t) { return true; });
    ASSERT_TRUE(any.has_value());
    EXPECT_EQ(*any, 4u);

    // The open / already-discarded filter redirects to the runner-up.
    const auto filtered = scheduler.select_victim(
        space, 0.9, [](std::uint64_t id) { return id != 4; });
    ASSERT_TRUE(filtered.has_value());
    EXPECT_EQ(*filtered, 9u);
}

// ---------------------------------------------------------------------
// Incremental steps against a live system.

TEST(GcIncremental, BudgetedStepsEvacuateAcrossCalls)
{
    FidrConfig config = gc_fidr();
    config.gc.step_budget_bytes = 8 * 1024;
    config.gc.dead_fraction = 0.5;
    FidrSystem system(config);

    // Unique content across several containers, then kill 3 of every
    // 4 chunks so survivors stay interleaved with dead bytes.
    for (Lba lba = 0; lba < 120; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    for (Lba lba = 0; lba < 120; ++lba) {
        if (lba % 4 != 0) {
            ASSERT_TRUE(
                system.write(lba, chunk_of(1000 + lba)).is_ok());
        }
    }
    ASSERT_TRUE(system.flush().is_ok());

    // Drive single steps until the scheduler reports idle.
    bool idled = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t idle_before = system.gc_stats().idle_steps;
        ASSERT_TRUE(system.gc_step().is_ok());
        if (system.gc_stats().idle_steps > idle_before) {
            idled = true;
            break;
        }
    }
    ASSERT_TRUE(idled) << "gc_step never ran out of victims";

    const GcStats &gc = system.gc_stats();
    EXPECT_GT(gc.relocated_chunks, 0u);
    EXPECT_GT(gc.relocated_bytes, 0u);
    EXPECT_GT(gc.containers_reclaimed, 0u);
    // The 8 KiB budget forces multiple steps per victim container.
    EXPECT_GT(gc.steps, gc.containers_reclaimed);

    for (Lba lba = 0; lba < 120; ++lba) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        const Buffer want =
            lba % 4 == 0 ? chunk_of(lba) : chunk_of(1000 + lba);
        EXPECT_EQ(got.value(), want) << "lba " << lba;
    }
    expect_clean_fsck(system);

    // Steady state: one more step finds nothing.
    const std::uint64_t idle_before = system.gc_stats().idle_steps;
    ASSERT_TRUE(system.gc_step().is_ok());
    EXPECT_EQ(system.gc_stats().idle_steps, idle_before + 1);
}

// Dropping the whole victim container from the read cache would turn
// every GC pass into a read-latency cliff; relocation must move
// entries so a hot chunk stays a cache hit across GC.
TEST(GcCache, RelocationKeepsHotChunkCached)
{
    FidrConfig config = gc_fidr();
    config.chunk_cache_bytes = 512 * 1024;
    FidrSystem system(config);

    for (Lba lba = 0; lba < 90; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    // Warm the cache on LBA 5: miss+insert, then a hit.
    ASSERT_TRUE(system.read(5).is_ok());
    ASSERT_TRUE(system.read(5).is_ok());
    const auto warm = system.chunk_cache()->stats();
    EXPECT_GT(warm.hits, 0u);

    const auto before = system.lba_table().lookup(5);
    ASSERT_TRUE(before.has_value());

    // Kill every other chunk sharing LBA 5's container so GC must
    // relocate the survivor.
    for (Lba lba = 0; lba < 90; ++lba) {
        if (lba == 5)
            continue;
        const auto loc = system.lba_table().lookup(lba);
        ASSERT_TRUE(loc.has_value());
        if (loc->container_id == before->container_id) {
            ASSERT_TRUE(
                system.write(lba, chunk_of(2000 + lba)).is_ok());
        }
    }
    ASSERT_TRUE(system.flush().is_ok());

    Result<std::uint64_t> reclaimed = system.run_gc(0.3);
    ASSERT_TRUE(reclaimed.is_ok());
    EXPECT_GT(reclaimed.value(), 0u);
    EXPECT_GE(system.gc_stats().cache_rekeys, 1u);
    EXPECT_GE(system.chunk_cache()->stats().rekeys, 1u);

    const auto after = system.lba_table().lookup(5);
    ASSERT_TRUE(after.has_value());
    EXPECT_NE(after->container_id, before->container_id);

    // The relocated chunk serves from DRAM: hits +1, misses flat.
    const auto pre_read = system.chunk_cache()->stats();
    Result<Buffer> got = system.read(5);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), chunk_of(5));
    const auto post_read = system.chunk_cache()->stats();
    EXPECT_EQ(post_read.hits, pre_read.hits + 1);
    EXPECT_EQ(post_read.misses, pre_read.misses);
    expect_clean_fsck(system);
}

// Satellite: steady-state soak.  A 2 MiB array (60 container slots)
// with ~2x capacity of churn: auto GC must keep the log above the
// reserve watermark and no write may ever fail or block on space.
TEST(GcSoak, SteadyStateChurnHoldsTheReserveWatermark)
{
    FidrConfig config = gc_fidr();
    config.platform.data_ssd.capacity_bytes = 2 * kMiB;
    config.nic.hash_batch = 16;
    config.gc.auto_run = true;
    config.gc.dead_fraction = 0.6;
    config.gc.reserve_free_fraction = 0.25;
    config.gc.step_budget_bytes = 32 * 1024;
    config.gc.superblock_interval = 4;
    FidrSystem system(config);

    constexpr Lba kWorkingSet = 120;
    std::unordered_map<Lba, std::uint64_t> model;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        const Lba lba = i % kWorkingSet;
        const std::uint64_t content = 100000 + i;  // Never dedups.
        ASSERT_TRUE(system.write(lba, chunk_of(content)).is_ok())
            << "write " << i << " failed: GC fell behind churn";
        model[lba] = content;
        if (i % 400 == 399) {
            ASSERT_TRUE(system.flush().is_ok());
            EXPECT_GT(system.container_log().free_slots(), 0u)
                << "log filled up at write " << i;
        }
    }
    ASSERT_TRUE(system.flush().is_ok());

    const GcStats &gc = system.gc_stats();
    EXPECT_GT(gc.steps, 0u);
    EXPECT_GT(gc.containers_reclaimed, 10u);
    EXPECT_GT(gc.relocated_bytes, 0u);
    // Post-commit pressure GC loops until the log climbs back over
    // the watermark, so steady state ends above the reserve.
    EXPECT_GT(system.container_log().free_slot_fraction(),
              config.gc.reserve_free_fraction);

    for (const auto &[lba, content] : model) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        EXPECT_EQ(got.value(), chunk_of(content)) << "lba " << lba;
    }
    expect_clean_fsck(system);
}

// Satellite (TSan target): GC steps on the commit sequencer while the
// client thread keeps the pipeline loaded — relocation reads, journal
// appends and cache rekeys race real reads/writes under TSan.
TEST(GcConcurrent, StepsOverlapInFlightBatches)
{
    FidrConfig config = gc_fidr();
    config.in_flight_batches = 4;
    config.chunk_cache_bytes = 256 * 1024;
    config.platform.data_ssd.capacity_bytes = 64 * kMiB;
    config.nic.hash_batch = 16;
    config.gc.auto_run = true;
    config.gc.dead_fraction = 0.4;
    config.gc.step_budget_bytes = 16 * 1024;
    FidrSystem system(config);

    constexpr Lba kWorkingSet = 160;
    Rng rng(0xF1D8);
    std::unordered_map<Lba, std::uint64_t> model;
    std::uint64_t next_content = 1;
    bool witnessed = false;
    for (int round = 0; round < 40; ++round) {
        // Burst of overwrites: the client outpaces the executor, so
        // commits (and their GC steps) run with batches queued behind.
        for (int i = 0; i < 256; ++i) {
            const Lba lba = rng.next_below(kWorkingSet);
            const std::uint64_t content = next_content++;
            ASSERT_TRUE(system.write(lba, chunk_of(content)).is_ok());
            model[lba] = content;
        }
        // A read batch quiesces the pipeline (reads drain in-flight
        // writes), making the stats below race-free to read.
        std::vector<Lba> lbas;
        for (int i = 0; i < 32 && !model.empty(); ++i)
            lbas.push_back(rng.next_below(kWorkingSet));
        const auto results = system.read_batch(lbas);
        for (std::size_t i = 0; i < lbas.size(); ++i) {
            const auto it = model.find(lbas[i]);
            if (it == model.end()) {
                EXPECT_FALSE(results[i].is_ok());
            } else {
                ASSERT_TRUE(results[i].is_ok());
                EXPECT_EQ(results[i].value(), chunk_of(it->second));
            }
        }
        if (round >= 5 && system.gc_stats().concurrent_steps > 0) {
            witnessed = true;
            break;
        }
    }
    ASSERT_TRUE(system.flush().is_ok());

    EXPECT_GT(system.gc_stats().steps, 0u);
    EXPECT_TRUE(witnessed || system.gc_stats().concurrent_steps > 0)
        << "no GC step ever overlapped an in-flight batch";
    for (const auto &[lba, content] : model) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        EXPECT_EQ(got.value(), chunk_of(content)) << "lba " << lba;
    }
    expect_clean_fsck(system);
}

// Satellite: the spill tier must stay consistent with GC.  A spilled
// entry follows its chunk across relocation (rekey covers the ring
// index) and dies with its PBN at retirement — no stale ring ref may
// ever serve bytes for a retired or moved location.
TEST(GcCache, SpillEntriesFollowRelocationAndRetirement)
{
    FidrConfig config = gc_fidr();
    config.chunk_cache_bytes = 64 * 1024;
    config.chunk_cache_spill_bytes = 256 * 1024;
    FidrSystem system(config);
    ASSERT_TRUE(system.chunk_cache()->spill_enabled());

    constexpr Lba kLbas = 90;
    for (Lba lba = 0; lba < kLbas; ++lba)
        ASSERT_TRUE(system.write(lba, chunk_of(lba)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());

    // Read everything: the 64 KiB DRAM budget overflows and the LRU
    // end of the warm tier lands in the ring.
    std::vector<Lba> all(kLbas);
    for (Lba lba = 0; lba < kLbas; ++lba)
        all[lba] = lba;
    for (const Result<Buffer> &r : system.read_batch(all))
        ASSERT_TRUE(r.is_ok());
    ASSERT_GT(system.chunk_cache()->spill_entries(), 0u);

    const auto key_of = [&](Lba lba) {
        const auto loc = system.lba_table().lookup(lba);
        EXPECT_TRUE(loc.has_value());
        return cache::ChunkKey{loc->container_id, loc->offset_units};
    };
    // Find a chunk whose cached image lives in the spill tier.
    Lba spilled = kLbas;
    for (Lba lba = 0; lba < kLbas; ++lba) {
        if (system.chunk_cache()->peek(key_of(lba)) ==
            cache::CacheTier::kSpill) {
            spilled = lba;
            break;
        }
    }
    ASSERT_LT(spilled, kLbas) << "no read landed in the spill tier";
    const auto before = system.lba_table().lookup(spilled);
    ASSERT_TRUE(before.has_value());

    // Kill the rest of its container so GC must relocate it.
    for (Lba lba = 0; lba < kLbas; ++lba) {
        if (lba == spilled)
            continue;
        const auto loc = system.lba_table().lookup(lba);
        ASSERT_TRUE(loc.has_value());
        if (loc->container_id == before->container_id) {
            ASSERT_TRUE(
                system.write(lba, chunk_of(3000 + lba)).is_ok());
        }
    }
    ASSERT_TRUE(system.flush().is_ok());
    Result<std::uint64_t> reclaimed = system.run_gc(0.3);
    ASSERT_TRUE(reclaimed.is_ok());
    EXPECT_GT(reclaimed.value(), 0u);

    const auto after = system.lba_table().lookup(spilled);
    ASSERT_TRUE(after.has_value());
    ASSERT_NE(after->container_id, before->container_id);
    // The ring entry moved with the chunk: new key hits the spill
    // tier, the retired key hits nothing.
    EXPECT_EQ(system.chunk_cache()->peek(key_of(spilled)),
              cache::CacheTier::kSpill);
    EXPECT_EQ(system.chunk_cache()->peek(
                  cache::ChunkKey{before->container_id,
                                  before->offset_units}),
              cache::CacheTier::kNone);

    // Retirement: overwriting the LBA kills the relocated PBN, and
    // the spill entry must die with it.
    const cache::ChunkKey relocated_key{after->container_id,
                                        after->offset_units};
    ASSERT_TRUE(system.write(spilled, chunk_of(5000)).is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_EQ(system.chunk_cache()->peek(relocated_key),
              cache::CacheTier::kNone);

    Result<Buffer> got = system.read(spilled);
    ASSERT_TRUE(got.is_ok());
    EXPECT_EQ(got.value(), chunk_of(5000));
    expect_clean_fsck(system);
}

// Satellite (TSan target): the GcConcurrent mix with the tier cascade
// on — demotions, ring writes and spill-hit fetches race real reads,
// writes, retirement invalidations and GC rekeys.  Admission stays
// off: overwrites rotate PBNs so the doorkeeper would never see a
// repeat key and the cascade would sit idle.
TEST(GcConcurrent, SpillTierRacesReadsWritesAndGc)
{
    FidrConfig config = gc_fidr();
    config.in_flight_batches = 4;
    // Small enough that each round's reads overflow the warm tier
    // into the ring (retirements keep draining DRAM, so a roomy warm
    // tier would never evict and the ring would sit idle).
    config.chunk_cache_bytes = 64 * 1024;
    config.chunk_cache_spill_bytes = 512 * 1024;
    config.platform.data_ssd.capacity_bytes = 64 * kMiB;
    config.nic.hash_batch = 16;
    config.gc.auto_run = true;
    config.gc.dead_fraction = 0.4;
    config.gc.step_budget_bytes = 16 * 1024;
    FidrSystem system(config);
    ASSERT_TRUE(system.chunk_cache()->spill_enabled());

    constexpr Lba kWorkingSet = 160;
    Rng rng(0xF1D9);
    std::unordered_map<Lba, std::uint64_t> model;
    std::uint64_t next_content = 1;
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 256; ++i) {
            const Lba lba = rng.next_below(kWorkingSet);
            const std::uint64_t content = next_content++;
            ASSERT_TRUE(system.write(lba, chunk_of(content)).is_ok());
            model[lba] = content;
        }
        std::vector<Lba> lbas;
        for (int i = 0; i < 96 && !model.empty(); ++i)
            lbas.push_back(rng.next_below(kWorkingSet));
        const auto results = system.read_batch(lbas);
        for (std::size_t i = 0; i < lbas.size(); ++i) {
            const auto it = model.find(lbas[i]);
            if (it == model.end()) {
                EXPECT_FALSE(results[i].is_ok());
            } else {
                ASSERT_TRUE(results[i].is_ok());
                EXPECT_EQ(results[i].value(), chunk_of(it->second));
            }
        }
    }
    ASSERT_TRUE(system.flush().is_ok());

    EXPECT_GT(system.gc_stats().steps, 0u);
    // The cascade actually engaged: entries left DRAM into the ring.
    EXPECT_GT(system.chunk_cache()->stats().demotions, 0u);
    EXPECT_GT(system.chunk_cache()->stats().spill_writes, 0u);
    for (const auto &[lba, content] : model) {
        Result<Buffer> got = system.read(lba);
        ASSERT_TRUE(got.is_ok()) << "lba " << lba;
        EXPECT_EQ(got.value(), chunk_of(content)) << "lba " << lba;
    }
    expect_clean_fsck(system);
}

// Superblock versioning: the sequence only climbs — across churn, GC,
// and two full crash/recover cycles — and fsck tracks it.
TEST(GcRecovery, SuperblockSeqIsMonotonicAcrossCrashCycles)
{
    FidrConfig config = gc_fidr();
    config.platform.table_ssd.capacity_bytes = 1ull * kGiB;
    config.journal_metadata = true;
    config.gc.superblock_interval = 2;
    FidrSystem system(config);

    std::unordered_map<Lba, std::uint64_t> model;
    auto churn = [&](std::uint64_t tag) {
        for (Lba lba = 0; lba < 150; ++lba) {
            if (model.count(lba) == 0 || lba % 4 != 0) {
                const std::uint64_t content = tag + lba;
                ASSERT_TRUE(
                    system.write(lba, chunk_of(content)).is_ok());
                model[lba] = content;
            }
        }
        ASSERT_TRUE(system.flush().is_ok());
    };
    auto verify_all = [&] {
        for (const auto &[lba, content] : model) {
            Result<Buffer> got = system.read(lba);
            ASSERT_TRUE(got.is_ok()) << "lba " << lba;
            EXPECT_EQ(got.value(), chunk_of(content)) << "lba " << lba;
        }
    };

    churn(0);
    Result<FidrSystem::FsckReport> r1 = system.fsck();
    ASSERT_TRUE(r1.is_ok());
    ASSERT_TRUE(r1.value().clean());
    const std::uint64_t seq1 = r1.value().superblock_seq;
    EXPECT_GT(seq1, 0u);

    churn(10000);
    Result<std::uint64_t> reclaimed = system.run_gc(0.3);
    ASSERT_TRUE(reclaimed.is_ok());
    EXPECT_GT(reclaimed.value(), 0u);
    Result<FidrSystem::FsckReport> r2 = system.fsck();
    ASSERT_TRUE(r2.is_ok());
    ASSERT_TRUE(r2.value().clean());
    // Discards force superblock writes, so GC advanced the version.
    EXPECT_GT(r2.value().superblock_seq, seq1);

    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    Result<FidrSystem::FsckReport> r3 = system.fsck();
    ASSERT_TRUE(r3.is_ok());
    EXPECT_TRUE(r3.value().clean());
    EXPECT_GE(r3.value().superblock_seq, r2.value().superblock_seq);
    verify_all();

    churn(20000);
    ASSERT_TRUE(system.run_gc(0.3).is_ok());
    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    ASSERT_TRUE(system.flush().is_ok());
    Result<FidrSystem::FsckReport> r4 = system.fsck();
    ASSERT_TRUE(r4.is_ok());
    EXPECT_TRUE(r4.value().clean());
    EXPECT_GE(r4.value().superblock_seq, r3.value().superblock_seq);
    verify_all();
}

}  // namespace
}  // namespace fidr::core
