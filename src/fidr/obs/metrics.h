/**
 * @file
 * Unified metrics for the whole stack: counters, gauges, and
 * log-bucket latency histograms behind one thread-safe registry and
 * one snapshot API.
 *
 * It is the one measurement layer: hash/compress lanes bump counters
 * concurrently, device models and benches record latencies into
 * `Histogram` directly, and every consumer (benches,
 * `FidrSystem::obs_snapshot`, `fidr_obs_report`) reads the same
 * `ObsSnapshot`.
 *
 * Hot-path cost: a counter add is one relaxed atomic fetch_add; a
 * histogram record is a handful of relaxed atomics (count, sum, CAS
 * min/max, one bucket).  Registry lookups by name take a mutex — hold
 * a `Counter&`/`Histogram&` handle instead on hot paths (handles stay
 * valid for the registry's lifetime).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fidr/common/units.h"

namespace fidr::obs {

/** Monotonic counter (thread-safe). */
class Counter {
  public:
    void
    add(std::uint64_t by = 1)
    {
        value_.fetch_add(by, std::memory_order_relaxed);
    }

    std::uint64_t get() const
    { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value gauge (thread-safe). */
class Gauge {
  public:
    void set(double value)
    { value_.store(value, std::memory_order_relaxed); }

    double get() const
    { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0};
};

/**
 * Tail exemplar: one concrete request behind a high latency sample.
 * `trace_id` names a captured trace (obs/request.h), so a p99 bucket
 * is no longer anonymous — `fidr_obs_report attribute` can pull that
 * exact request's span tree out of the trace dump.
 */
struct Exemplar {
    SimTime latency_ns = 0;
    std::uint64_t trace_id = 0;
};

/** One nonzero log bucket: (bucket index, sample count). */
struct BucketCount {
    std::uint32_t index = 0;
    std::uint64_t count = 0;
};

/** Summary of a histogram at snapshot time. */
struct HistogramSummary {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    double mean_ns = 0;
    SimTime min_ns = 0;
    SimTime max_ns = 0;
    SimTime p50_ns = 0;
    SimTime p95_ns = 0;
    SimTime p99_ns = 0;
    /**
     * Sparse nonzero buckets, ascending by index.  Lets consumers diff
     * two cumulative snapshots into a *windowed* distribution and
     * recompute true per-window percentiles (obs/slo.h) — cumulative
     * p99s cannot be subtracted.
     */
    std::vector<BucketCount> buckets;
    /** Slowest retained samples, descending; empty unless enabled. */
    std::vector<Exemplar> exemplars;
};

/**
 * Streaming latency histogram: count, mean, min/max, percentiles via
 * log-spaced buckets (64 per power of two => ~1.1% relative error,
 * enough for the 700 us vs 490 us comparison of Sec 7.6).
 *
 * record() is thread-safe (relaxed atomics); percentile reads are
 * consistent when no writer is concurrent — snapshot after joining.
 */
class Histogram {
  public:
    Histogram();

    /**
     * Records one sample.  `trace_id` (0 = none) feeds the tail
     * exemplar reservoir when one is configured; with no reservoir or
     * no id the cost is one extra non-atomic pointer test.
     */
    void record(SimTime latency_ns, std::uint64_t trace_id = 0);

    /**
     * Retains the `capacity` slowest (latency, trace_id) samples seen
     * since the last reset (0 = off, the default).  Offers are cheap:
     * a relaxed floor load rejects everything below the current top-K
     * threshold; only genuine tail samples take the reservoir mutex.
     * Quiescent callers only (configure before recording starts).
     */
    void set_exemplar_capacity(std::size_t capacity);

    std::uint64_t count() const
    { return count_.load(std::memory_order_relaxed); }
    double mean_ns() const;
    SimTime min_ns() const
    { return count() ? min_.load(std::memory_order_relaxed) : 0; }
    SimTime max_ns() const
    { return count() ? max_.load(std::memory_order_relaxed) : 0; }

    /**
     * Latency below which fraction `q` in [0, 1] of samples fall.
     * Edge cases: empty => 0; q = 0 => min; q = 1 => max; results are
     * clamped to [min, max], so a single sample reports itself exactly.
     */
    SimTime percentile_ns(double q) const;

    HistogramSummary summary() const;

    void reset();

    /** Log-bucket geometry, shared with windowed consumers (slo.h). */
    static std::size_t bucket_index(SimTime ns);
    static SimTime bucket_upper_edge_ns(std::size_t index);
    static std::size_t num_buckets();

  private:
    /** Mutex-guarded top-K reservoir behind a relaxed floor gate. */
    struct ExemplarReservoir {
        explicit ExemplarReservoir(std::size_t capacity)
            : capacity(capacity)
        {
        }
        std::size_t capacity;
        std::atomic<SimTime> floor{0};  ///< Admission gate once full.
        mutable std::mutex mutex;
        std::vector<Exemplar> slots;    ///< Sorted slowest-first.
    };

    void offer_exemplar(SimTime latency_ns, std::uint64_t trace_id);

    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_ns_{0};
    std::atomic<SimTime> min_{0};
    std::atomic<SimTime> max_{0};
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::unique_ptr<ExemplarReservoir> exemplars_;
};

/** One labelled row of a snapshot section (ledger report, ...). */
struct SnapshotRow {
    std::string label;
    double value = 0;
    double share = 0;  ///< Fraction of section total, in [0, 1].
};

/** Point-in-time view of every metric plus attached report sections. */
struct ObsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSummary> histograms;
    /** Named report tables: host-DRAM ledger, CPU ledger, ... */
    std::map<std::string, std::vector<SnapshotRow>> sections;

    /** Serializes the whole snapshot as a JSON document. */
    std::string to_json() const;

    /** Human-readable multi-table rendering (fidr_obs_report). */
    std::string pretty() const;
};

/**
 * Thread-safe registry of named metrics.  Handles returned by
 * counter()/gauge()/histogram() are stable for the registry lifetime.
 */
class MetricRegistry {
  public:
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Lookup without creating; null when the name is unknown. */
    const Counter *find_counter(const std::string &name) const;
    const Histogram *find_histogram(const std::string &name) const;

    /** Copies every metric into a snapshot (no sections attached). */
    ObsSnapshot snapshot() const;

    /** Zeroes counters and histograms (gauges keep their value). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Wall-clock stage timer for per-stage histograms.  lap_ns() lets
 * back-to-back stages share their boundary: one clock read ends a
 * stage and starts the next.
 */
class StageTimer {
  public:
    StageTimer();

    /** Nanoseconds elapsed since the start (one clock read). */
    std::uint64_t elapsed_ns() const;

    /** Nanoseconds elapsed since the start; the reading taken here
     *  becomes the new start (one clock read). */
    std::uint64_t lap_ns();

    /** The start reading, in steady-clock nanoseconds. */
    std::uint64_t start_ns() const { return start_ns_; }

  private:
    std::uint64_t start_ns_ = 0;
};

}  // namespace fidr::obs
