/**
 * @file
 * Multi-batch in-flight write pipeline (paper Fig 6a as a *pipeline*).
 *
 * The hardware FIDR write path overlaps batches: while the Compression
 * Engine and the P2P DMAs finish batch E, the NIC's SHA engines are
 * already hashing batch E+1.  This class is the software stand-in and
 * FidrSystem's only write path: up to `depth` (>= 1) sealed batches
 * are in flight at once (depth 1 holds one: ingest overlaps its
 * commit, the next batch's hash does not), a pool of hash workers runs
 * the (stateless, order-insensitive) SHA stage per batch, and a single
 * **commit sequencer** thread applies every stateful stage —
 * dedup/tree resolve, compression, container DMA, journal append,
 * metadata apply — in strict batch-epoch order.
 *
 * Why only the hash stage fans out: resolve(E+1) reads state that
 * commit(E) mutates (dedup verdicts change when an earlier batch
 * retires a dead PBN, the table cache's LRU/stats move on every probe,
 * the journal is an ordered log).  Running any of that speculatively
 * would change results across depths; the determinism contract here is
 * **bit-identical end state for every depth**, so everything after
 * hashing stays serial, in epoch order, on one thread.  That is also
 * the right performance split: software SHA-256 dominates the write
 * path, and it is the one stage with no cross-batch data dependence.
 *
 * Failure/crash semantics: a batch whose execute stage fails stays
 * sealed in NIC NVRAM, the pipeline goes sticky-failed and aborts
 * queued epochs (their batches also stay sealed).  At every depth the
 * owner learns of it only at its next barrier: it quiesces, unseals
 * everything back into the open buffer and surfaces the error; a later
 * flush retries the work.  A power cut mid-pipeline loses nothing
 * acknowledged: acked chunks are either committed
 * (journal-before-apply) or still in NIC NVRAM.
 */
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "fidr/common/status.h"
#include "fidr/common/thread_pool.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/obs/metrics.h"

namespace fidr::core {

/** Pipeline sizing. */
struct WritePipelineConfig {
    /** Max batches in flight (admission blocks beyond this). */
    std::size_t depth = 4;
};

/** Optional instrumentation sinks (null = not recorded). */
struct WritePipelineMetrics {
    obs::Histogram *submit_stall_ns = nullptr;  ///< Per stalled submit.
    obs::Histogram *queue_depth = nullptr;      ///< Sampled at submit.
    obs::Counter *batches = nullptr;
    obs::Counter *stalls = nullptr;
    /**
     * Wall-clock time during which a hash task and the commit
     * sequencer were active *simultaneously* — the direct measurement
     * of stage overlap.  Unlike comparing summed stage-busy spans
     * against wall time (which on a one-core host drowns in scheduler
     * noise), this is exact: any nonzero value proves batches
     * genuinely pipelined.
     */
    obs::Counter *overlap_ns = nullptr;
};

/** See file comment.  One instance per FidrSystem; single submitter. */
class WritePipeline {
  public:
    /** Hash stage: pure per-batch work, safe off the commit thread. */
    using HashFn = std::function<void(nic::SealedBatch &)>;
    /** Serial stages; on success must end with nic.drop_sealed(). */
    using ExecuteFn = std::function<Status(nic::SealedBatch &)>;

    WritePipeline(const WritePipelineConfig &config, nic::FidrNic &nic,
                  HashFn hash, ExecuteFn execute,
                  WritePipelineMetrics metrics);

    /** Quiesces and joins; sealed batches are left to the owner. */
    ~WritePipeline();

    WritePipeline(const WritePipeline &) = delete;
    WritePipeline &operator=(const WritePipeline &) = delete;

    /**
     * Admits sealed batch `epoch`: blocks while `depth` batches are in
     * flight (admission-control back-pressure), then queues the hash
     * stage and returns.  After a failure, returns the sticky error
     * without admitting; the batch stays sealed for unseal_all().
     */
    Status submit(std::uint64_t epoch);

    /** Blocks until no batch is in flight (committed or aborted). */
    void quiesce();

    /** True once any execute stage failed (sticky until take_error). */
    bool failed() const;

    /**
     * Consumes the sticky error (call quiesce() first).  The owner
     * then unseals the NIC and surfaces the status; the pipeline is
     * clean and reusable afterwards.
     */
    Status take_error();

    /** Batches submitted but not yet committed/aborted. */
    std::size_t in_flight() const;

    std::size_t depth() const { return config_.depth; }

  private:
    struct Flight {
        std::uint64_t epoch = 0;
        bool hashed = false;
    };

    void executor_loop();
    void hash_task(std::uint64_t epoch);

    std::size_t in_flight_locked() const
    { return flights_.size() + (executor_busy_ ? 1 : 0); }

    /**
     * Overlap bookkeeping (all under mutex_): the hash stage's
     * activity is the union of its tasks' run intervals; whichever
     * side (hash union or executor) *ends* first credits the
     * intersection with the still-open peer interval, so every
     * overlapped wall segment is counted exactly once.
     */
    void begin_hash_activity_locked();
    void end_hash_activity_locked();
    void credit_overlap_locked(std::chrono::steady_clock::time_point a,
                               std::chrono::steady_clock::time_point b);

    WritePipelineConfig config_;
    nic::FidrNic &nic_;
    HashFn hash_;
    ExecuteFn execute_;
    WritePipelineMetrics metrics_;

    mutable std::mutex mutex_;
    std::condition_variable caller_cv_;    ///< Admission/quiesce waits.
    std::condition_variable executor_cv_;  ///< Work-ready signal.
    std::deque<Flight> flights_;           ///< Epoch order.
    std::size_t hash_outstanding_ = 0;
    std::size_t hash_active_ = 0;  ///< Hash tasks currently running.
    std::chrono::steady_clock::time_point hash_union_start_{};
    std::chrono::steady_clock::time_point exec_start_{};
    bool executor_busy_ = false;
    bool stop_ = false;
    bool failed_ = false;
    Status error_ = Status::ok();

    std::unique_ptr<ThreadPool> hash_pool_;
    std::thread executor_;
};

}  // namespace fidr::core
