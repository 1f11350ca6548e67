/**
 * @file
 * Incremental, rate-limited garbage collection over the append-only
 * container log.
 *
 * Draining the write pipeline and rewriting whole containers in one
 * pass (what run_gc() does on request) turns every capacity stall
 * into a latency cliff at steady state (write-until-churn).  This
 * module splits reclamation into *steps*: each step relocates at most
 * `step_budget_bytes` of live payload out of one victim container,
 * and the FidrSystem runs one step on the commit sequencer after each
 * batch commit — GC interleaves with the write plane at batch
 * granularity instead of blocking it, and with the read plane
 * trivially (relocation preserves PBN identity; only the physical
 * location moves, and the chunk read cache is re-keyed per moved
 * chunk).
 *
 * Victim selection is a greedy highest-dead-fraction policy over the
 * SpaceTracker ledger (ties break to the lowest container id so every
 * run of the same history picks the same victims).  Under free-space
 * pressure — the log's free-slot fraction at or below the reserve
 * watermark — the dead-fraction threshold is waived: any container
 * with dead bytes is fair game, because reclaiming *something* beats
 * preserving write-amp.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "fidr/core/space.h"

namespace fidr::core {

/** GC knobs (FidrConfig::gc). */
struct GcConfig {
    /**
     * Run one budgeted GC step on the commit sequencer after every
     * batch commit.  Off by default: the explicit run_gc() entry
     * point works either way.
     */
    bool auto_run = false;

    /**
     * Max live payload bytes relocated per step; 0 = a whole victim
     * container per step.  The knob trades reclamation latency for
     * per-batch pause (gc.pause_ns tracks the cost).
     */
    std::uint64_t step_budget_bytes = 256 * 1024;

    /** Steady-state victim threshold: collect containers whose dead
     *  share reaches this fraction. */
    double dead_fraction = 0.5;

    /**
     * Reserve watermark: when the container log's free-slot fraction
     * drops to (or below) this, GC ignores dead_fraction and collects
     * whatever has dead bytes until the log climbs back above it.
     */
    double reserve_free_fraction = 0.10;

    /** Seals between best-effort superblock writes (container log). */
    std::uint64_t superblock_interval = 8;
};

/** Monotonic GC counters (exported via obs_snapshot as gc.*). */
struct GcStats {
    std::uint64_t steps = 0;            ///< Steps that found a victim.
    std::uint64_t idle_steps = 0;       ///< Steps with nothing to do.
    std::uint64_t failed_steps = 0;     ///< Steps aborted by an error.
    std::uint64_t relocated_chunks = 0;
    std::uint64_t relocated_bytes = 0;  ///< Compressed payload moved.
    std::uint64_t containers_reclaimed = 0;
    std::uint64_t reclaimed_bytes = 0;
    std::uint64_t cache_rekeys = 0;     ///< Read-cache entries moved.
    /** Steps that ran while other write batches were in flight — the
     *  concurrency witness (nonzero = GC overlapped the write plane),
     *  meaningful even on one-core hosts where wall-clock overlap of
     *  two runnable threads can round to zero. */
    std::uint64_t concurrent_steps = 0;
};

/** Deterministic victim selection over the space ledger. */
class GcScheduler {
  public:
    explicit GcScheduler(const GcConfig &config) : config_(config) {}

    /** True when free space is at or below the reserve watermark. */
    bool
    under_pressure(double free_fraction) const
    {
        return free_fraction <= config_.reserve_free_fraction;
    }

    /**
     * The container GC should collect next: highest dead fraction
     * among eligible containers meeting the threshold (waived under
     * pressure), ties to the lowest id.  `eligible` filters out
     * containers the log cannot discard (open / already discarded).
     */
    std::optional<std::uint64_t>
    select_victim(const SpaceTracker &space, double free_fraction,
                  const std::function<bool(std::uint64_t)> &eligible) const
    {
        const bool pressure = under_pressure(free_fraction);
        std::optional<std::uint64_t> best;
        std::uint64_t best_dead = 0;
        std::uint64_t best_total = 1;
        for (const auto &[container, usage] : space.containers()) {
            if (usage.dead_bytes == 0 || !eligible(container))
                continue;
            if (!pressure &&
                usage.dead_fraction() < config_.dead_fraction)
                continue;
            const std::uint64_t total =
                usage.live_bytes + usage.dead_bytes;
            // Cross-multiplied fraction compare: container payloads
            // are < 2^23 bytes, so the products fit comfortably.
            const bool better =
                !best ||
                usage.dead_bytes * best_total > best_dead * total ||
                (usage.dead_bytes * best_total == best_dead * total &&
                 container < *best);
            if (better) {
                best = container;
                best_dead = usage.dead_bytes;
                best_total = total;
            }
        }
        return best;
    }

    const GcConfig &config() const { return config_; }

  private:
    GcConfig config_;
};

}  // namespace fidr::core
