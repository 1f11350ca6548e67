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
 * Victim selection is a greedy highest-dead-fraction policy over each
 * sealed container's fill: its live bytes from the LBA-PBA table and
 * its payload from the container log, whose difference is the dead
 * bytes (ties break to the lowest container id so every run of the
 * same history picks the same victims).  Under free-space
 * pressure — the log's free-slot fraction at or below the reserve
 * watermark — the dead-fraction threshold is waived: any container
 * with dead bytes is fair game, because reclaiming *something* beats
 * preserving write-amp.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>

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

/** What victim selection reads about one GC-eligible container. */
struct ContainerFill {
    std::uint64_t container = 0;
    std::uint64_t live_bytes = 0;     ///< Located there (LBA-PBA table).
    std::uint64_t payload_bytes = 0;  ///< Appended there (container log).
};

/** Deterministic victim selection over container fills. */
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
     * among `fills` meeting the threshold (waived under pressure),
     * ties to the lowest id.  The caller passes only containers the
     * log can discard (sealed, not yet discarded).
     */
    std::optional<std::uint64_t>
    select_victim(std::span<const ContainerFill> fills,
                  double free_fraction) const
    {
        const bool pressure = under_pressure(free_fraction);
        std::optional<std::uint64_t> best;
        std::uint64_t best_dead = 0;
        std::uint64_t best_total = 1;
        for (const ContainerFill &fill : fills) {
            if (fill.live_bytes >= fill.payload_bytes)
                continue;  // No dead bytes.
            const std::uint64_t total = fill.payload_bytes;
            const std::uint64_t dead = total - fill.live_bytes;
            if (!pressure && static_cast<double>(dead) /
                                     static_cast<double>(total) <
                                 config_.dead_fraction)
                continue;
            // Cross-multiplied fraction compare: container payloads
            // are < 2^23 bytes, so the products fit comfortably.
            const bool better =
                !best || dead * best_total > best_dead * total ||
                (dead * best_total == best_dead * total &&
                 fill.container < *best);
            if (better) {
                best = fill.container;
                best_dead = dead;
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
