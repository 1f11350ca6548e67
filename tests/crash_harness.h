/**
 * @file
 * Crash-consistency test harness.
 *
 * Drives a journaled FidrSystem through a deterministic mixed
 * workload while a failpoint is armed, "power-cuts" the host right
 * after the first injected failure, restarts (journal replay + cache
 * rebuild), and verifies the durability contract: every write the NIC's
 * battery-backed buffer acknowledged reads back byte-identically, and
 * the mapping structures pass their invariants.
 *
 * "Acknowledged" is defined exactly as the paper defines it
 * (Sec 7.6.1): the chunk entered NIC NVRAM.  The harness detects that
 * per write via the NIC's buffered-total counter, so a write rejected
 * before admission — e.g. by an injected nic.buffer fault — correctly
 * stays out of the expected state.
 */
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/workload/generator.h"

namespace fidr::crashtest {

/** One harness run: workload shape, crash placement, system sizing. */
struct CrashHarnessConfig {
    std::uint64_t seed = 0xF1D7;
    std::size_t operations = 1200;
    /** Op index of a mid-run flush+checkpoint; 0 disables. */
    std::size_t checkpoint_at = 600;
    /** Workload override; nullopt = default_workload(seed). */
    std::optional<workload::WorkloadSpec> workload;

    /** Table-3-style mixed workload (Read-Mixed shape, small scale). */
    static workload::WorkloadSpec
    default_workload(std::uint64_t seed)
    {
        workload::WorkloadSpec spec;
        spec.name = "crash-mixed";
        spec.dedup_ratio = 0.5;
        spec.comp_ratio = 0.5;
        spec.dup_working_set = 256;
        spec.address_space_chunks = 4096;
        spec.read_fraction = 0.3;
        spec.seed = seed;
        return spec;
    }

    /**
     * Small journaled system: containers seal mid-run, the table cache
     * misses often (dirty writebacks happen), and every engine runs
     * serial so the fault schedule is reproducible from the seed.
     */
    static core::FidrConfig
    default_system()
    {
        core::FidrConfig config;
        config.platform.expected_unique_chunks = 20000;
        config.platform.cache_fraction = 0.05;
        config.platform.data_ssd.capacity_bytes = 4ull * kGiB;
        config.platform.table_ssd.capacity_bytes = 1ull * kGiB;
        config.journal_metadata = true;
        config.container_bytes = 256 * 1024;
        config.nic.hash_batch = 64;
        config.nic.hash_lanes = 1;
        config.compress_lanes = 1;
        // One batch in flight by default.  A write-path fault fires on
        // the commit sequencer, concurrently with the caller, so
        // run_until_fire cuts power after the op during which the
        // sequencer fired, not at exactly the failing op.  Sweeps that
        // want more batches in flight at the cut override
        // `system.in_flight_batches` (per-site fault sequences are
        // depth-invariant — every fallible write-path stage runs on
        // the commit sequencer in epoch order).
        config.in_flight_batches = 1;
        return config;
    }

    /** System under test; replace fields to sweep configurations. */
    core::FidrConfig system = default_system();

    /**
     * GC-enabled variant: auto_run GC rides every batch commit over a
     * high-churn overwrite workload (small address space, write-heavy)
     * so relocation, discard and superblock writes all happen
     * mid-workload — the power-cut sweep then cuts inside them.
     */
    static CrashHarnessConfig
    gc_config(std::uint64_t seed = 0xF1D7)
    {
        CrashHarnessConfig cfg;
        cfg.seed = seed;
        cfg.system.gc.auto_run = true;
        cfg.system.gc.dead_fraction = 0.3;
        cfg.system.gc.step_budget_bytes = 32 * 1024;
        cfg.system.gc.superblock_interval = 2;
        workload::WorkloadSpec spec = default_workload(seed);
        spec.name = "crash-gc-churn";
        spec.address_space_chunks = 384;  // Heavy overwrite churn.
        spec.read_fraction = 0.2;
        cfg.workload = spec;
        return cfg;
    }
};

/** Sweepable write-path failpoint sites (recovery sites are driven
 *  separately: they fire during the restart itself). */
inline constexpr std::array<fault::Site, 14> kWritePathSites = {
    fault::Site::kSsdRead,        fault::Site::kSsdWrite,
    fault::Site::kPcieDma,        fault::Site::kCacheFetch,
    fault::Site::kCacheWriteback, fault::Site::kJournalAppend,
    fault::Site::kJournalFence,   fault::Site::kNicBuffer,
    fault::Site::kNicSchedule,    fault::Site::kContainerAppend,
    fault::Site::kContainerSeal,  fault::Site::kHwTreeUpdate,
    fault::Site::kHwTreeForceCrash, fault::Site::kSnapshotWrite,
};

/**
 * Sites swept with GC active (CrashHarnessConfig::gc_config): the new
 * gc.* sites cut at the entry of a relocation / discard / superblock
 * write, and the underlying append/journal/SSD sites cut *inside* a
 * relocation already in progress (GC shares the normal write path, so
 * the same mid-operation placements now land mid-GC too).
 */
inline constexpr std::array<fault::Site, 6> kGcSites = {
    fault::Site::kGcRelocate,      fault::Site::kGcDiscard,
    fault::Site::kGcSuperblock,    fault::Site::kContainerAppend,
    fault::Site::kJournalAppend,   fault::Site::kSsdWrite,
};

class CrashHarness {
  public:
    explicit CrashHarness(const CrashHarnessConfig &cfg = {})
        : cfg_(cfg), system_(cfg.system),
          gen_(cfg.workload
                   ? *cfg.workload
                   : CrashHarnessConfig::default_workload(cfg.seed))
    {
        // The registry is process-global; every harness starts from a
        // clean, reseeded slate.
        auto &registry = fault::FailpointRegistry::instance();
        registry.disarm_all();
        registry.reset_counters();
        registry.set_seed(cfg.seed);
    }

    ~CrashHarness() { fault::FailpointRegistry::instance().disarm_all(); }

    core::FidrSystem &system() { return system_; }

    /** Writes the client believes durable: last acked value per LBA. */
    const std::unordered_map<Lba, Buffer> &acked() const { return acked_; }

    std::size_t ops_issued() const { return ops_issued_; }

    /**
     * Issues workload ops, tolerating per-op failures (an armed fault
     * may fail any request — degraded mode, not a test bug).  Stops
     * after the first op by whose end `watch` has fired (a sequencer
     * fire lands during some later op than the one that sealed its
     * batch), modelling a power cut there; pass Site::kMaxSite to run
     * to completion.
     */
    void
    run_until_fire(fault::Site watch)
    {
        const auto &registry = fault::FailpointRegistry::instance();
        while (ops_issued_ < cfg_.operations) {
            if (cfg_.checkpoint_at != 0 &&
                ops_issued_ == cfg_.checkpoint_at) {
                (void)system_.flush();
                (void)system_.checkpoint();
            }
            const workload::IoRequest req = gen_.next();
            ++ops_issued_;
            if (req.dir == IoDir::kWrite) {
                const std::uint64_t before =
                    system_.nic_model().chunks_buffered_total();
                (void)system_.write(req.lba, req.data);
                if (system_.nic_model().chunks_buffered_total() > before)
                    acked_[req.lba] = req.data;
            } else {
                (void)system_.read(req.lba);
            }
            if (watch != fault::Site::kMaxSite &&
                registry.fires(watch) > 0) {
                return;
            }
        }
    }

    void run_all() { run_until_fire(fault::Site::kMaxSite); }

    /**
     * Power cut + restart: disarms everything (the fault schedule died
     * with the power), rebuilds DRAM state from snapshot + journal,
     * and drains the NIC's surviving NVRAM contents.
     */
    ::testing::AssertionResult
    recover()
    {
        fault::FailpointRegistry::instance().disarm_all();
        const Status recovered = system_.simulate_crash_and_recover();
        if (!recovered.is_ok()) {
            return ::testing::AssertionFailure()
                   << "recovery failed: " << recovered.message();
        }
        const Status drained = system_.flush();
        if (!drained.is_ok()) {
            return ::testing::AssertionFailure()
                   << "post-recovery flush failed: " << drained.message();
        }
        return ::testing::AssertionSuccess();
    }

    /**
     * The durability contract: every acknowledged write reads back
     * byte-identically, and the mapping structures validate.  (A
     * post-crash scrub may legitimately report dangling Hash-PBN
     * entries — dirty cache lines died with the host — so the check
     * goes through the client read path, not the scrubber.)
     */
    ::testing::AssertionResult
    verify_acked()
    {
        for (const auto &[lba, expected] : acked_) {
            Result<Buffer> got = system_.read(lba);
            if (!got.is_ok()) {
                return ::testing::AssertionFailure()
                       << "acked LBA " << lba
                       << " unreadable: " << got.status().message();
            }
            if (got.value() != expected) {
                return ::testing::AssertionFailure()
                       << "acked LBA " << lba << " read back different "
                          "bytes";
            }
        }
        // Same contract through the batched read plane: one
        // read_batch over every acked LBA (coalescing kicks in — the
        // workload dedups — and each slot must still return the exact
        // acked bytes).
        std::vector<Lba> lbas;
        lbas.reserve(acked_.size());
        for (const auto &[lba, expected] : acked_)
            lbas.push_back(lba);
        const std::vector<Result<Buffer>> batch =
            system_.read_batch(lbas);
        for (std::size_t i = 0; i < lbas.size(); ++i) {
            if (!batch[i].is_ok()) {
                return ::testing::AssertionFailure()
                       << "acked LBA " << lbas[i] << " unreadable via "
                          "read_batch: " << batch[i].status().message();
            }
            if (batch[i].value() != acked_.at(lbas[i])) {
                return ::testing::AssertionFailure()
                       << "acked LBA " << lbas[i] << " read back "
                          "different bytes via read_batch";
            }
        }
        const Status valid = system_.validate();
        if (!valid.is_ok()) {
            return ::testing::AssertionFailure()
                   << "invariant violation: " << valid.message();
        }
        return ::testing::AssertionSuccess();
    }

    /**
     * fsck after the scenario: every referenced PBN reachable in the
     * container log, no refcount leaks, ledger consistent with the
     * mapping table, superblock version monotonic.
     */
    ::testing::AssertionResult
    verify_fsck()
    {
        Result<core::FidrSystem::FsckReport> checked = system_.fsck();
        if (!checked.is_ok()) {
            return ::testing::AssertionFailure()
                   << "fsck failed to run: " << checked.status().message();
        }
        const core::FidrSystem::FsckReport &r = checked.value();
        if (!r.clean()) {
            return ::testing::AssertionFailure()
                   << "fsck dirty: missing_locations=" << r.missing_locations
                   << " unreachable_chunks=" << r.unreachable_chunks
                   << " space_mismatches=" << r.space_mismatches
                   << " refcount_errors=" << r.refcount_errors
                   << " superblock_regressions=" << r.superblock_regressions
                   << " (checked " << r.live_pbns_checked << " live PBNs)";
        }
        if (r.live_pbns_checked == 0) {
            return ::testing::AssertionFailure()
                   << "fsck checked no live PBNs — vacuous pass";
        }
        return ::testing::AssertionSuccess();
    }

  private:
    CrashHarnessConfig cfg_;
    core::FidrSystem system_;
    workload::WorkloadGenerator gen_;
    std::unordered_map<Lba, Buffer> acked_;
    std::size_t ops_issued_ = 0;
};

/**
 * Fault-free per-site hit profile of the default harness run, used to
 * place fail_nth mid-workload.  Deterministic, so it is computed once
 * per process: until the first injection, an armed run's hit
 * trajectory is identical to this profile.
 */
inline const std::array<std::uint64_t, fault::kSiteCount> &
default_hit_profile()
{
    static const std::array<std::uint64_t, fault::kSiteCount> counts =
        [] {
            CrashHarness harness;
            harness.run_all();
            (void)harness.system().flush();
            auto &registry = fault::FailpointRegistry::instance();
            std::array<std::uint64_t, fault::kSiteCount> out{};
            for (std::size_t s = 0; s < fault::kSiteCount; ++s)
                out[s] = registry.hits(static_cast<fault::Site>(s));
            registry.reset_counters();
            return out;
        }();
    return counts;
}

/** Fault-free hit profile of the GC-enabled harness run (gc_config),
 *  used to place fail_nth mid-relocation / mid-discard. */
inline const std::array<std::uint64_t, fault::kSiteCount> &
gc_hit_profile()
{
    static const std::array<std::uint64_t, fault::kSiteCount> counts =
        [] {
            CrashHarness harness(CrashHarnessConfig::gc_config());
            harness.run_all();
            (void)harness.system().flush();
            auto &registry = fault::FailpointRegistry::instance();
            std::array<std::uint64_t, fault::kSiteCount> out{};
            for (std::size_t s = 0; s < fault::kSiteCount; ++s)
                out[s] = registry.hits(static_cast<fault::Site>(s));
            registry.reset_counters();
            return out;
        }();
    return counts;
}

}  // namespace fidr::crashtest
