/**
 * @file
 * The FIDR storage system (paper Sec 5, Fig 6).
 *
 * Write flow (10 steps, Fig 6a): client chunks buffer *in the NIC*
 * and are acknowledged immediately; the NIC's SHA-256 engines hash the
 * batch and send only the 32-byte digests to the host; the host maps
 * digests to bucket indexes and hands them to the Cache HW-Engine,
 * whose pipelined tree resolves cache lines (fetching missed buckets
 * from the table SSD straight into the host-DRAM cache); host software
 * scans the cached buckets to decide unique/duplicate; the verdicts
 * return to the NIC, whose compression scheduler ships *only unique
 * chunks* peer-to-peer to the Compression Engine; sealed ~4 MB
 * containers move Compression Engine -> data SSD peer-to-peer.  Client
 * payloads never touch host DRAM.
 *
 * Read flow (8 steps, Fig 6b): the NIC's LBA-lookup serves reads that
 * hit its write buffer; otherwise the host resolves LBA->PBA and
 * orchestrates data SSD -> Decompression Engine -> NIC peer-to-peer
 * transfers.
 *
 * Three configurations reproduce Fig 14's ablation:
 *  - hw_cache_engine=false: NIC offload + P2P only (software B+-tree
 *    cache index stays on the CPU);
 *  - hw_cache_engine=true, tree_update_lanes=1: single-update HW tree;
 *  - hw_cache_engine=true, tree_update_lanes=4: the full system with
 *    speculative concurrent updates.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fidr/accel/engines.h"
#include "fidr/common/thread_pool.h"
#include "fidr/cache/chunk_cache.h"
#include "fidr/cache/indexes.h"
#include "fidr/cache/table_cache.h"
#include "fidr/core/dedup_index.h"
#include "fidr/core/gc.h"
#include "fidr/core/platform.h"
#include "fidr/core/read_pipeline.h"
#include "fidr/core/server.h"
#include "fidr/core/space.h"
#include "fidr/core/write_pipeline.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/obs/metrics.h"
#include "fidr/tables/container.h"
#include "fidr/tables/journal.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::core {

/** FIDR system parameters. */
struct FidrConfig {
    PlatformConfig platform;
    nic::FidrNicConfig nic;
    std::uint64_t container_bytes = 4 * kMiB;
    bool hw_cache_engine = true;  ///< false => software cache index.
    unsigned tree_update_lanes = 4;
    /**
     * LZ cores in the Compression Engine working concurrently on
     * disjoint unique chunks of a batch.  0 = one lane per hardware
     * thread; 1 = serial compression on the calling thread.  Output
     * and accounting are bit-identical across lane counts.
     */
    std::size_t compress_lanes = 0;
    cache::EvictionPolicy eviction_policy = cache::EvictionPolicy::kLru;

    /**
     * Multi-batch write pipeline depth: sealed batches in flight at
     * once (hash stage overlaps the serial commit stages and client
     * ingest; see write_pipeline.h).  1 = fully synchronous, the
     * pre-pipeline behaviour.  Every depth produces bit-identical end
     * state; errors surface at the next write/flush barrier instead
     * of from the admitting write().
     */
    std::size_t in_flight_batches = 4;

    /** Hash-stage workers; 0 = min(depth, hardware lanes). */
    std::size_t pipeline_hash_workers = 0;

    /**
     * Accepted and ignored: read_batch() fetches and decompresses on
     * the calling thread, because fanning that stage out across lanes
     * won at no measured batch size (DESIGN.md §11).  Results and
     * ledgers are the same for every value.
     */
    std::size_t read_lanes = 0;

    /**
     * Chunk read cache capacity in bytes (decompressed chunk content
     * keyed by physical location; cache/chunk_cache.h).  0 disables
     * the cache entirely — the default, so the read path's DMA and
     * device accounting is unchanged unless the knob is set.  The
     * capacity is claimed from host DRAM at construction.
     */
    std::uint64_t chunk_cache_bytes = 0;

    /** Chunk-cache shards (power of two; the cache_shards pattern). */
    std::size_t chunk_cache_shards = 1;

    /**
     * Two-tier chunk cache (cache/chunk_cache.h): hot decompressed
     * entries above a warm tier of compressed images under the same
     * chunk_cache_bytes budget, with demotion/promotion and ghost-LRU
     * auto-sizing of the split.  false = the PR 5 one-tier LRU, the
     * equal-budget baseline the read bench compares against.
     */
    bool chunk_cache_two_tier = true;

    /**
     * Chunk-cache admission filters (incompressible rejection + the
     * frequency-sketch doorkeeper).  Off by default: with admission on
     * the cache is no longer a pure always-admit optimization (a chunk
     * only enters on its second miss), which benchmarks want but the
     * cache-equivalence tests do not.
     */
    bool chunk_cache_admission = false;

    /**
     * Spill-tier bytes reserved off the tail of the last data SSD for
     * evicted compressed chunks (sequential ring writes; see
     * chunk_cache.h).  0 disables the tier.  Only meaningful with
     * chunk_cache_bytes > 0 and two-tier mode; the reservation is
     * carved out of the container log's slot space at construction.
     */
    std::uint64_t chunk_cache_spill_bytes = 0;

    /**
     * Hot-tier demotion batch for the two-tier chunk cache: demote up
     * to this many tail entries per rebalance pass once the hot byte
     * target forces one (cache/chunk_cache.h).  1 = legacy
     * demote-exactly-to-target, bit-for-bit.
     */
    std::size_t chunk_cache_demote_batch = 1;

    /**
     * This system's node index inside a cluster (cluster::ClusterRouter).
     * Embedded in every minted trace id (obs/request.h) so merged
     * multi-node obs dumps attribute spans to the right node.  0 — the
     * default — leaves ids numerically identical to a standalone
     * system.
     */
    std::uint32_t node_index = 0;

    /**
     * Hash-PBN table cache shards (power of two, Sec 5.5).  Shard
     * routing is bucket & (N-1) with per-shard free/LRU lists, stats
     * and mutexes; 1 keeps the unsharded layout (and its exact
     * eviction order).
     */
    std::size_t cache_shards = 1;
    /**
     * Extension (the paper's stated future work, Sec 7.5): offload the
     * read-path NVMe software stack to the FPGA as well, leaving only
     * the LBA-PBA lookup on the host.  Lifts Read-Mixed's CPU bound.
     */
    bool offload_read_stack = false;

    /**
     * Extension: journal LBA-PBA mutations to a reserved table-SSD
     * region so the mapping survives a host crash (the paper's NVRAM
     * buffer covers the *data*; this covers the metadata).
     */
    bool journal_metadata = false;
    std::uint64_t journal_bytes = 64 * kMiB;
    std::uint64_t snapshot_bytes = 64 * kMiB;

    /**
     * Degraded mode: PCIe/SSD operations that fail with kUnavailable
     * (transient device errors) are retried transparently up to this
     * many extra attempts before the error surfaces; each retry
     * accounts exponential backoff to the fault counters.
     */
    unsigned transient_retries = 2;
    std::uint64_t retry_backoff_ns = 20'000;

    /**
     * Tail exemplars retained per stage histogram: each keeps the N
     * slowest (latency, trace_id) pairs seen, so a p99 bucket points
     * at concrete captured request traces (`fidr_obs_report
     * attribute` resolves them).  0 disables the reservoirs.  With
     * FIDR_TRACE=OFF no trace ids exist, so reservoirs stay empty and
     * the record path is unchanged.
     */
    std::size_t tail_exemplars = 4;

    /**
     * Incremental container-log GC (core/gc.h): budgeted relocation
     * steps on the commit sequencer, victim selection thresholds, the
     * free-space reserve watermark and the superblock write cadence.
     */
    GcConfig gc;
};

/** The FIDR server. */
class FidrSystem : public StorageServer {
  public:
    explicit FidrSystem(const FidrConfig &config);

    Status write(Lba lba, Buffer data) override;
    Result<Buffer> read(Lba lba) override;

    /**
     * Batched Fig 6b reads: one pipeline barrier for the whole batch,
     * slots resolving to the same physical chunk coalesce into a
     * single fetch+decompress on the calling thread, with all billing
     * serialized after it (read_pipeline.h).  read() is the size-1 case.
     * Per-slot errors (unknown LBA, degraded-mode device failures)
     * fail only their own slot.
     */
    std::vector<Result<Buffer>> read_batch(
        std::span<const Lba> lbas) override;

    Status flush() override;
    const ReductionStats &reduction() const override { return stats_; }

    // ------------------------------------------------------------------
    // Cluster surface (cluster::ClusterRouter).  These are the node
    // side of the router's remote-fingerprint protocol; a standalone
    // system never calls them, so the single-node flows are unchanged.
    // All three serialize against the write pipeline (drain/flush)
    // before touching shared metadata — the router calls them under
    // the node's serial lock, like every other entry point.
    // ------------------------------------------------------------------

    /**
     * Remote-fingerprint lookup: is `digest` a committed, readable
     * chunk on this node?  Billed like a duplicate dedup resolve (the
     * CPU scan + bucket traffic the Cache HW-Engine would do for a
     * write of this content).  Flushes buffered writes first: only
     * committed state answers, so a yes is stable until the caller
     * drops the node lock.
     */
    Result<bool> probe_digest(const Digest &digest);

    /**
     * Duplicate-suppressed remote write: maps `lba` to the committed
     * chunk holding `digest` without shipping or re-hashing the 4 KiB
     * payload.  Counts exactly like a full write of duplicate content
     * (chunks_written, raw_bytes, duplicates) and journals the map
     * like stage_apply.  Deliberately does NOT flush (that would
     * defeat the node's write batching); it drains in-flight batches,
     * then returns kNotFound when the digest is not a committed
     * readable chunk here or the LBA has a NIC-buffered write pending
     * — the caller falls back to a full write either way.
     */
    Status write_ref(Lba lba, const Digest &digest);

    /**
     * Drops `lba`'s mapping (fingerprint routing moved the LBA's
     * ownership to another node on overwrite).  Flushes first so a
     * NIC-buffered write for the LBA cannot resurrect the mapping
     * after the unmap.  Idempotent: unmapping an unknown LBA is ok.
     */
    Status unmap(Lba lba);

    Platform &platform() { return platform_; }
    const Platform &platform() const { return platform_; }
    nic::FidrNic &nic_model() { return nic_; }
    /** Aggregate cache counters over all shards (by value). */
    cache::CacheStats cache_stats() const { return table_cache_->stats(); }
    const cache::TableCache &table_cache() const { return *table_cache_; }
    tables::LbaPbaTable &lba_table() { return lba_table_; }

    /**
     * Null when running with the software cache index; with
     * cache_shards > 1 this is shard 0's tree (obs_snapshot aggregates
     * all shards).
     */
    const cache::HwTreeCacheIndex *hw_index() const
    { return hw_shards_.empty() ? nullptr : hw_shards_.front(); }

    /** Live/dead space accounting (GC extension). */
    const SpaceTracker &space() const { return space_; }

    /** Append-only container log (slot occupancy, superblock seq). */
    const tables::ContainerLog &container_log() const
    { return containers_; }

    /** Null when chunk_cache_bytes == 0 (cache disabled). */
    const cache::ChunkReadCache *chunk_cache() const
    { return chunk_cache_.get(); }

    /**
     * Runs GC to completion at an explicit dead-fraction threshold:
     * drains the pipeline, then evacuates and discards every eligible
     * victim in full-container steps until none remain.  Returns the
     * container bytes reclaimed.  Mappings are preserved (PBNs keep
     * their identity; only their physical locations move), so
     * concurrent readers are unaffected.
     */
    Result<std::uint64_t> run_gc(double min_dead_fraction);

    /** Historical name for run_gc() (stop-the-world compaction). */
    Result<std::uint64_t> compact(double min_dead_fraction = 0.5)
    { return run_gc(min_dead_fraction); }

    /**
     * One incremental GC step at the configured budget: picks (or
     * continues with) a victim container, relocates up to
     * `gc.step_budget_bytes` of its live payload through the normal
     * write path, and discards it once empty.  Runs automatically on
     * the commit sequencer after each batch when `gc.auto_run` is set;
     * callers invoking it directly must not have batches in flight.
     */
    Status gc_step();

    const GcStats &gc_stats() const { return gc_stats_; }

    /**
     * Checkpoint (journaling extension): snapshots the LBA-PBA table
     * to the table SSD and truncates the journal.  Requires
     * journal_metadata; call after flush().
     */
    Status checkpoint();

    /**
     * Crash test hook (journaling extension): discards the in-DRAM
     * LBA-PBA table and rebuilds it from the snapshot plus the
     * journal tail, exactly as a restart would.  Buffered-but-unflushed
     * writes survive in the NIC's non-volatile buffer and re-enter the
     * pipeline on the next flush, matching Sec 7.6.1's durability
     * story.
     */
    Status simulate_crash_and_recover();

    /**
     * Multi-tenant hint (Sec 8 extension): subsequent writes touch
     * the table cache as a high- or low-priority tenant; only
     * meaningful under EvictionPolicy::kPrioritizedLru.
     */
    void set_priority_hint(bool high) { high_priority_ = high; }

    /**
     * Stream/tenant tag stamped into the request context of subsequent
     * write batches and read batches (0 = untagged).  The tag rides
     * the same channel as the trace id (nic::SealedBatch for writes)
     * — the plumbing ROADMAP item 1's per-tenant QoS dimension will
     * use.
     */
    void set_stream_tag(std::uint64_t tag) { stream_tag_ = tag; }
    std::uint64_t stream_tag() const { return stream_tag_; }

    /** Outcome of an integrity scrub pass. */
    struct ScrubReport {
        std::uint64_t chunks_verified = 0;
        std::uint64_t digest_mismatches = 0;  ///< Payload corruption.
        std::uint64_t mapping_errors = 0;     ///< Hash-PBN disagreement.

        bool clean() const
        { return digest_mismatches == 0 && mapping_errors == 0; }
    };

    /**
     * Integrity scrub (extension): re-reads every live chunk,
     * decompresses it, recomputes its SHA-256 and cross-checks both
     * the recorded digest and the Hash-PBN table's verdict.  A clean
     * store returns a report with zero errors; flipped bits in the
     * simulated flash show up as digest mismatches.
     */
    Result<ScrubReport> scrub();

    /** Outcome of an fsck pass over the mapping/log invariants. */
    struct FsckReport {
        std::uint64_t live_pbns_checked = 0;
        std::uint64_t missing_locations = 0;  ///< Referenced, unlocated.
        std::uint64_t unreachable_chunks = 0; ///< Location unreadable in
                                              ///< the container log.
        std::uint64_t space_mismatches = 0;   ///< Ledger vs table.
        std::uint64_t refcount_errors = 0;    ///< validate() failed.
        std::uint64_t superblock_regressions = 0;  ///< Version moved
                                                   ///< backwards.
        std::uint64_t superblock_seq = 0;     ///< Current version.

        bool
        clean() const
        {
            return missing_locations == 0 && unreachable_chunks == 0 &&
                   space_mismatches == 0 && refcount_errors == 0 &&
                   superblock_regressions == 0;
        }
    };

    /**
     * fsck-style invariant checker (GC extension): every PBN any LBA
     * references resolves to a readable chunk in a live container,
     * refcounts are consistent, the space ledger agrees with the
     * mapping table per container (and never exceeds the sealed
     * payload), and the superblock version never moves backwards
     * across calls — including across simulate_crash_and_recover().
     * The soak and crash tests run it after every scenario.
     */
    Result<FsckReport> fsck();

    /** Journal occupancy (0 when journaling is disabled). */
    std::uint64_t journal_records() const
    { return journal_ ? journal_->records() : 0; }

    /** Degraded-mode / crash-repair counters (also in obs_snapshot). */
    struct FaultStats {
        std::uint64_t transient_retries = 0;  ///< Retry attempts issued.
        std::uint64_t retry_exhausted = 0;    ///< Ops dead after retries.
        std::uint64_t backoff_ns = 0;         ///< Accounted retry backoff.
        std::uint64_t retire_deferred = 0;    ///< Reclaims skipped on a
                                              ///< journal-append failure.
        std::uint64_t dangling_repairs = 0;   ///< Hash-PBN entries whose
                                              ///< data a crash lost,
                                              ///< re-pointed on re-write.
    };
    const FaultStats &fault_stats() const { return fault_stats_; }

    /**
     * Structural self-check: LBA-PBA refcount consistency plus the
     * table-cache invariants.  The crash harness runs it after every
     * recovery.
     */
    Status validate() const;

    /** Live metric registry (per-stage histograms, flow counters). */
    obs::MetricRegistry &metrics() { return metrics_; }
    const obs::MetricRegistry &metrics() const { return metrics_; }

    /**
     * Unified observability snapshot: every stage histogram and
     * counter from the registry, plus reduction/cache/tree/journal
     * counters, derived gauges (hit rate, crash rate, reduction
     * ratio) and the host DRAM-bandwidth / CPU-core / DRAM-capacity
     * ledgers as report sections.  Quiescent read: snapshot after
     * flush(), not while lanes are running.
     */
    obs::ObsSnapshot obs_snapshot() const;

  private:
    /**
     * Cached histogram handles for the Fig 6 flow stages, resolved
     * once in the constructor so the hot path never does a name
     * lookup.  Write stages mirror the step numbering of Fig 6a;
     * read stages mirror Fig 6b.
     */
    struct StageHistograms {
        obs::Histogram *nic_buffer = nullptr;       ///< 6a step 1.
        obs::Histogram *batch = nullptr;            ///< Whole batch.
        obs::Histogram *hash = nullptr;             ///< 6a step 2.
        obs::Histogram *digest_xfer = nullptr;      ///< 6a step 2b.
        obs::Histogram *bucket_index = nullptr;     ///< 6a step 3.
        obs::Histogram *dedup_resolve = nullptr;    ///< 6a steps 4-5.
        obs::Histogram *verdict_xfer = nullptr;     ///< 6a step 6.
        obs::Histogram *map_update = nullptr;       ///< LBA-PBA maps.
        obs::Histogram *compress = nullptr;         ///< 6a steps 7-8.
        obs::Histogram *container_append = nullptr; ///< 6a steps 9-10.
        obs::Histogram *journal = nullptr;          ///< Metadata log.
        obs::Histogram *read_total = nullptr;       ///< Whole read.
        obs::Histogram *read_resolve = nullptr;     ///< 6b steps 3-4.
        obs::Histogram *read_fetch = nullptr;       ///< 6b step 5.
        obs::Histogram *read_decompress = nullptr;  ///< 6b step 6.
        obs::Histogram *read_return = nullptr;      ///< 6b step 7.
    };

    /**
     * Per-batch working state threaded through the serial stages.
     * Everything in here is private to one batch's execution.
     */
    struct BatchPlan {
        std::vector<ChunkVerdict> verdicts;
        std::vector<Pbn> pbns;
        std::vector<Pbn> unique_pbns;
        std::vector<Digest> unique_digests;
        std::vector<const nic::BufferedChunk *> unique;
        std::vector<accel::CompressedChunk> compressed;
        std::vector<Pbn> retire_candidates;
    };

    /** Seals the open batch and runs/submits it (depth-dependent). */
    Status process_batch();

    // The Fig 6a write path as explicit stages.  stage_hash runs on
    // hash-stage workers at depth > 1 (pure per-batch work); every
    // other stage runs inside execute_batch on the commit sequencer,
    // in batch-epoch order, because each one reads state an earlier
    // batch's commit mutates (dedup verdicts, cache recency, journal
    // order, PBN allocation).
    void stage_hash(nic::SealedBatch &batch);             ///< Step 2.
    Status stage_digest_transfer(const nic::SealedBatch &batch);
    Status stage_resolve(const nic::SealedBatch &batch,
                         BatchPlan &plan);                ///< Steps 4-5.
    Status stage_schedule(const nic::SealedBatch &batch,
                          BatchPlan &plan);               ///< Steps 6-7.
    Status stage_compress(const nic::SealedBatch &batch,
                          BatchPlan &plan);               ///< Step 8.
    Status stage_store(const nic::SealedBatch &batch,
                       BatchPlan &plan);                  ///< Steps 9-10.
    Status stage_apply(const nic::SealedBatch &batch,
                       BatchPlan &plan);                  ///< Map LBAs.
    void stage_commit(nic::SealedBatch &batch,
                      const BatchPlan &plan);             ///< Drop+retire.

    /** All serial stages for one batch (commit-sequencer body). */
    Status execute_batch(nic::SealedBatch &batch);

    /** Builds the (possibly sharded) cache index + table cache. */
    void build_cache_structures();

    /** Barrier: waits for in-flight batches; ok at depth 1 / no work. */
    Status drain_pipeline();

    /** Consumes a sticky pipeline error, unsealing retained batches. */
    Status surface_pipeline_error();

    Status bill_container_seals();

    /**
     * Fallible DMA with degraded-mode retry: transient (kUnavailable)
     * failures re-issue the descriptor up to config.transient_retries
     * times with accounted exponential backoff.
     */
    Status dma_checked(pcie::DeviceId src, pcie::DeviceId dst,
                       std::uint64_t bytes, const std::string &tag);

    /**
     * Degraded-mode retry loop shared by every transient-fallible
     * operation (DMA descriptors, flash reads, snapshot writes):
     * re-runs `op` while it fails kUnavailable, up to
     * config.transient_retries extra attempts, accounting each retry
     * and its backoff into FaultStats; an exhausted op counts
     * retry_exhausted.  Non-transient errors surface immediately.
     * A template over the callable, so a capturing lambda is called
     * directly instead of through a heap-allocated std::function.
     */
    template <typename Op>
    Status retry_transient(Op &&op);

    /**
     * Backoff accounted for retry attempt `attempt` (0-based):
     * retry_backoff_ns << attempt, with the shift capped and the
     * product saturated so large transient_retries configurations
     * cannot overflow the 64-bit accumulator.
     */
    std::uint64_t backoff_for(unsigned attempt) const;

    /** Fetch + decompress, then serial billing, of one resolved and
     *  coalesced read batch; see read_pipeline.h for the stages. */
    void run_read_jobs(std::vector<ReadJob> &jobs);

    FidrConfig config_;
    Platform platform_;
    nic::FidrNic nic_;
    std::unique_ptr<cache::CacheIndex> index_;
    /** Per-shard HW trees (owned by index_); empty under B+ tree. */
    std::vector<cache::HwTreeCacheIndex *> hw_shards_;
    std::unique_ptr<cache::TableCache> table_cache_;
    std::unique_ptr<DedupIndex> dedup_;
    tables::LbaPbaTable lba_table_;
    tables::ContainerLog containers_;
    accel::CompressionEngine compressor_;
    accel::DecompressionEngine decomp_;
    /** Compression lanes; null when compress_lanes resolves to 1. */
    std::unique_ptr<ThreadPool> compress_pool_;

    /**
     * Spill backend over the container log's reserved tail region of
     * the last data SSD: writes bill host DRAM -> data SSD through the
     * fabric (the "cheap sequential write" of the spill tier); reads
     * are raw flash reads, billed serially by the read plane after the
     * lane join.  Declared before chunk_cache_ so the cache (which
     * holds a raw pointer to it) is destroyed first.
     */
    class SpillDevice final : public cache::SpillBackend {
      public:
        SpillDevice(FidrSystem &system, std::size_t ssd_index,
                    std::uint64_t base, std::uint64_t capacity)
            : system_(system), ssd_(ssd_index), base_(base),
              capacity_(capacity)
        {}

        std::uint64_t capacity_bytes() const override
        { return capacity_; }
        Status write(std::uint64_t offset,
                     std::span<const std::uint8_t> data) override;
        Result<Buffer> read(std::uint64_t offset,
                            std::uint64_t size) const override;
        std::size_t ssd_index() const { return ssd_; }

      private:
        FidrSystem &system_;
        std::size_t ssd_;
        std::uint64_t base_;
        std::uint64_t capacity_;
    };
    std::unique_ptr<SpillDevice> spill_device_;
    /** Null when chunk_cache_bytes == 0. */
    std::unique_ptr<cache::ChunkReadCache> chunk_cache_;

    void retire_if_dead(Pbn pbn);
    Status journal_append(const tables::JournalRecord &record);

    /** Debits CPU + DRAM + table-SSD traffic for one dedup lookup
     *  (shared by stage_resolve and the cluster probe surface). */
    void bill_dedup_lookup(const DedupLookup &lookup);

    /** Committed, readable chunk behind `digest`?  Shared probe core
     *  of probe_digest / write_ref (caller drained the pipeline). */
    Result<std::optional<Pbn>> resolve_committed_digest(
        const Digest &digest);

    /**
     * Relocates one live chunk out of its container through the
     * normal write billing path: read, DMA to the engine, re-append,
     * journal + apply the new location, re-key the chunk read cache.
     * The PBN keeps its identity; only the location changes.
     */
    Status gc_relocate(Pbn pbn);

    /**
     * One GC step under `sched`'s policy with `budget` bytes of
     * relocation allowance (0 = unbounded).  Shared by the
     * incremental gc_step() and the run-to-completion run_gc().
     */
    Status gc_step_impl(const GcScheduler &sched, std::uint64_t budget);

    /** Post-commit hook: budgeted steps, errors swallowed into
     *  gc.failed_steps (the batch itself already committed). */
    void run_auto_gc();

    std::unique_ptr<tables::MetadataJournal> journal_;
    std::uint64_t snapshot_base_ = 0;
    SpaceTracker space_;
    GcScheduler gc_scheduler_;
    GcStats gc_stats_;
    /** Victim being evacuated across incremental steps. */
    std::optional<std::uint64_t> gc_victim_;
    obs::Histogram *gc_pause_ = nullptr;
    /** fsck monotonicity cursor over the container-log superblock. */
    std::uint64_t last_fsck_superblock_seq_ = 0;
    FaultStats fault_stats_;
    bool high_priority_ = false;
    std::uint64_t stream_tag_ = 0;
    Pbn next_pbn_ = 0;
    std::uint64_t sealed_billed_ = 0;
    ReductionStats stats_;
    obs::MetricRegistry metrics_;
    StageHistograms hist_;
    /** Pipeline stage-occupancy histograms (recorded at every depth
     *  so depth sweeps compare like for like). */
    obs::Histogram *pipe_hash_busy_ = nullptr;
    obs::Histogram *pipe_execute_busy_ = nullptr;
    /** Physical chunk fetches issued to data SSDs (cache misses);
     *  the read-bench's cache-effectiveness signal. */
    obs::Counter *read_ssd_fetches_ = nullptr;
    /** Compressed images served from the spill ring (they touch the
     *  spill SSD but are *not* chunk fetches: they never count toward
     *  read.ssd_fetches, which the bench gates on). */
    obs::Counter *read_spill_reads_ = nullptr;
    /** Null at depth 1 (synchronous).  Declared last: it must be
     *  destroyed (quiesced/joined) before any state its stages use. */
    std::unique_ptr<WritePipeline> pipeline_;
};

}  // namespace fidr::core
