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
#include <unordered_map>
#include <vector>

#include "fidr/accel/engines.h"
#include "fidr/common/thread_pool.h"
#include "fidr/cache/chunk_cache.h"
#include "fidr/cache/indexes.h"
#include "fidr/cache/table_cache.h"
#include "fidr/core/dedup_index.h"
#include "fidr/core/gc.h"
#include "fidr/core/platform.h"
#include "fidr/core/server.h"
#include "fidr/core/write_pipeline.h"
#include "fidr/fault/retry.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/obs/metrics.h"
#include "fidr/tables/container.h"
#include "fidr/tables/journal.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::obs {
enum class Tpoint : std::uint16_t;  // fidr/obs/trace.h
}  // namespace fidr::obs

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
     * Write pipeline depth: sealed batches in flight at once (the hash
     * stage overlaps the serial commit stages and client ingest; see
     * write_pipeline.h).  Every sealed batch commits through the
     * pipeline; 1 keeps one batch in flight, 0 is rejected.  Every
     * depth produces bit-identical end state.  At every depth a
     * commit-stage error surfaces at the next barrier (flush, a
     * back-pressure drain, unmap, write_ref, GC, fsck, scrub), never
     * from the write() that sealed the batch.
     */
    std::size_t in_flight_batches = 4;

    /**
     * Chunk read cache capacity in bytes: the two-tier cache of
     * cache/chunk_cache.h, hot decompressed entries above a warm tier
     * of compressed images, keyed by physical location, with batched
     * demotion and ghost-LRU auto-sizing of the split.  0 disables
     * the cache entirely — the default, so the read path's DMA and
     * device accounting is unchanged unless the knob is set.  The
     * capacity is claimed from host DRAM at construction.
     */
    std::uint64_t chunk_cache_bytes = 0;

    /** Chunk-cache shards (power of two; the cache_shards pattern). */
    std::size_t chunk_cache_shards = 1;

    /**
     * Spill-tier bytes reserved off the tail of the last data SSD for
     * evicted compressed chunks (sequential ring writes; see
     * chunk_cache.h).  0 disables the tier.  Only meaningful with
     * chunk_cache_bytes > 0; the reservation is carved out of the
     * container log's slot space at construction.
     */
    std::uint64_t chunk_cache_spill_bytes = 0;

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

    /**
     * Degraded mode: PCIe/SSD operations that fail with kUnavailable
     * (transient device errors) are retried transparently up to this
     * many extra attempts before the error surfaces; each retry
     * accounts exponential backoff (FidrSystem::kRetryBackoffNs << the
     * retry's index) to the fault counters.
     */
    unsigned transient_retries = 2;

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
    /** Checkpoint snapshot region reserved on the table SSD. */
    static constexpr std::uint64_t kSnapshotBytes = 64 * kMiB;
    /** Backoff accounted for the first retry of a transient error. */
    static constexpr std::uint64_t kRetryBackoffNs = 20'000;

    explicit FidrSystem(const FidrConfig &config);

    Status write(Lba lba, Buffer data) override;

    /**
     * Batched Fig 6b reads on the calling thread: one pipeline barrier
     * for the whole batch, a serial resolve in input order, slots
     * resolving to the same physical chunk coalesced into one read job
     * (fetched and decompressed once), one step per job in job order
     * (run_read_job), then the return in input order.  read() is the
     * size-1 case.  Per-slot errors (unknown LBA, degraded-mode device
     * failures) fail only their own slot.
     */
    std::vector<Result<Buffer>> read_batch(
        std::span<const Lba> lbas) override;

    Status flush() override;
    const ReductionStats &reduction() const override { return stats_; }

    // ------------------------------------------------------------------
    // Cluster surface (cluster::ClusterRouter).  These are the node
    // side of the router's remote-fingerprint protocol; a standalone
    // system never calls them, so the single-node flows are unchanged.
    // The router calls them under the node's serial lock, like every
    // other entry point.
    // ------------------------------------------------------------------

    /**
     * Full write whose SHA-256 the router already computed for
     * fingerprint routing.  Identical to write(lba, data) — the NIC
     * still hashes the chunk when its batch seals — except that the
     * digest indexes the chunk while it sits in the open NIC buffer,
     * so a later write_ref of the same content is served from there.
     */
    Status write(Lba lba, Buffer data, const Digest &digest);

    /**
     * Duplicate-suppressed remote write: writes `lba` with the content
     * behind `digest` without shipping the 4 KiB payload.  Counts
     * exactly like a full write of duplicate content (chunks_written,
     * raw_bytes, duplicates).  Two sources, tried in order:
     *
     *  - the open NIC buffer: a chunk indexed by write(lba, data,
     *    digest) becomes a NIC-local copy write for `lba`, which goes
     *    through the batch path like any full write.  No pipeline
     *    barrier: only the calling thread touches the open buffer;
     *  - committed state: drains in-flight batches, then maps `lba` to
     *    the committed chunk and journals the map like stage_apply.
     *    Returns kNotFound when the digest is not a committed readable
     *    chunk here or the LBA has a NIC-buffered write pending — the
     *    caller falls back to a full write.
     *
     * Never flushes: that would defeat the node's write batching.
     */
    Status write_ref(Lba lba, const Digest &digest);

    /**
     * Drops `lba`'s mapping (fingerprint routing moved the LBA's
     * ownership to another node on overwrite).  Drains in-flight
     * batches, and seals and commits the open batch only when it holds
     * a write of `lba`, so no acknowledged write can resurrect the
     * mapping after the unmap.  Idempotent: unmapping an unknown LBA
     * is ok.
     */
    Status unmap(Lba lba);

    /** Where write_ref found its content, and unmaps that committed. */
    struct ClusterStats {
        std::uint64_t refs_from_nic = 0;        ///< Open NIC buffer.
        std::uint64_t refs_from_committed = 0;  ///< Committed chunk.
        std::uint64_t unmap_commits = 0;  ///< Unmaps of a buffered LBA.
    };
    const ClusterStats &cluster_stats() const { return cluster_stats_; }

    Platform &platform() { return platform_; }
    const Platform &platform() const { return platform_; }
    nic::FidrNic &nic_model() { return nic_; }
    /** Aggregate cache counters over all shards (by value). */
    cache::CacheStats cache_stats() const { return table_cache_->stats(); }
    const cache::TableCache &table_cache() const { return *table_cache_; }
    /** The per-chunk record: mappings, locations, digests and each
     *  container's live bytes. */
    tables::LbaPbaTable &lba_table() { return lba_table_; }
    const tables::LbaPbaTable &lba_table() const { return lba_table_; }

    /**
     * Null when running with the software cache index; with
     * cache_shards > 1 this is shard 0's tree (obs_snapshot aggregates
     * all shards).
     */
    const cache::HwTreeCacheIndex *hw_index() const
    { return hw_shards_.empty() ? nullptr : hw_shards_.front(); }

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
        std::uint64_t space_mismatches = 0;   ///< Live bytes vs recount.
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
     * refcounts are consistent, each container's maintained live
     * bytes equal a recount of the PBNs located there (and never
     * exceed its payload), and the superblock version never moves
     * backwards across calls — including across
     * simulate_crash_and_recover().
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
        std::uint64_t dangling_repairs = 0;   ///< Hash-PBN entries whose
                                              ///< data a crash lost,
                                              ///< re-pointed on re-write.
    };
    const FaultStats &fault_stats() const { return fault_stats_; }

    /** The Decompression Engine (chunks it decompressed for reads). */
    const accel::DecompressionEngine &decompression_engine() const
    { return decomp_; }

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
        /** write_ref / unmap: the pipeline barrier before the mapping
         *  change (the cluster client's wait on this node). */
        obs::Histogram *ref_barrier = nullptr;
        obs::Histogram *read_total = nullptr;       ///< Whole read.
        obs::Histogram *read_resolve = nullptr;     ///< 6b steps 3-4.
        obs::Histogram *read_fetch = nullptr;       ///< 6b step 5.
        obs::Histogram *read_decompress = nullptr;  ///< 6b step 6.
        obs::Histogram *read_return = nullptr;      ///< 6b step 7.
        /** Per read_batch call: the pipeline barrier, the chunk-cache
         *  probes summed over the batch, and the cache fills. */
        obs::Histogram *read_barrier = nullptr;
        obs::Histogram *read_cache_probe = nullptr;
        obs::Histogram *read_cache_fill = nullptr;
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
        std::uint64_t unique_bytes = 0;
        std::vector<accel::CompressedChunk> compressed;
        std::vector<Pbn> retire_candidates;
    };

    /** Both write() overloads: `digest` is null unless the router
     *  supplied one (see index_open_chunk). */
    Status admit_write(Lba lba, Buffer &&data, const Digest *digest);

    /**
     * Keeps the open-buffer digest index exact after `lba` was
     * buffered: drops the entry of any earlier write of `lba`, then
     * indexes `digest` (when given and not indexed yet).
     */
    void index_open_chunk(Lba lba, const Digest *digest);

    /** Drops the whole open-buffer digest index (seal, unseal, crash). */
    void forget_open_chunks();

    /** Returns sealed batches to the open buffer (nic unseal_all). */
    void unseal_nic();

    /**
     * Seals the open batch (if any) and submits it to the pipeline.
     * Never fails the sealing write: after a sequencer failure the
     * batch stays sealed and the next barrier surfaces the error.
     */
    void process_batch();

    /** Barrier + seal + barrier: commits every acknowledged write. */
    Status commit_open_batch();

    // The Fig 6a write path as explicit stages.  stage_hash runs on
    // hash-stage workers (pure per-batch work); every other stage runs
    // inside execute_batch on the commit sequencer, in batch-epoch
    // order, because each one reads state an earlier batch's commit
    // mutates (dedup verdicts, cache recency, journal order, PBN
    // allocation).
    void stage_hash(nic::SealedBatch &batch);             ///< Step 2.
    Status stage_digest_transfer(const nic::SealedBatch &batch);
    /** One timed, traced Fig 6a transfer (steps 2b, 3 and 6). */
    Status stage_dma(obs::Tpoint tpoint, obs::Histogram *hist,
                     std::uint64_t epoch, pcie::DeviceId src,
                     pcie::DeviceId dst, std::uint64_t bytes,
                     const std::string &tag);
    Status stage_resolve(const nic::SealedBatch &batch,
                         BatchPlan &plan);                ///< Steps 4-5.
    Status stage_schedule(const nic::SealedBatch &batch,
                          BatchPlan &plan);               ///< Steps 6-7.
    Status stage_compress(const nic::SealedBatch &batch,
                          BatchPlan &plan);               ///< Step 8.
    Status stage_store(const nic::SealedBatch &batch,
                       BatchPlan &plan);                  ///< Steps 9-10.
    void stage_apply(const nic::SealedBatch &batch,
                     BatchPlan &plan);                    ///< Map LBAs.
    Status stage_commit(nic::SealedBatch &batch,
                        const BatchPlan &plan);           ///< Retire+drop.

    /** All serial stages for one batch (commit-sequencer body). */
    Status execute_batch(nic::SealedBatch &batch);

    /** Builds the (possibly sharded) cache index + table cache. */
    void build_cache_structures();

    /** Barrier: waits for in-flight batches, then consumes a sticky
     *  pipeline error, unsealing the retained batches. */
    Status drain_pipeline();

    Status bill_container_seals();

    /**
     * A chunk just appended at `location`: stages the location record,
     * sets it and bills any container it sealed (stage_store and
     * gc_relocate).
     */
    Status place_chunk(Pbn pbn, const tables::ChunkLocation &location);

    /**
     * Fallible DMA with degraded-mode retry: transient (kUnavailable)
     * failures re-issue the descriptor up to config.transient_retries
     * times with accounted exponential backoff.
     */
    Status dma_checked(pcie::DeviceId src, pcie::DeviceId dst,
                       std::uint64_t bytes, const std::string &tag);

    /**
     * Degraded-mode retry for serial transient-fallible operations
     * (DMA descriptors, snapshot writes): fault::retry_counted over
     * `op` with config.transient_retries extra attempts, charged at
     * once.  Non-transient errors surface immediately.  A template
     * over the callable, so a capturing lambda is called directly
     * instead of through a heap-allocated std::function.
     */
    template <typename Op>
    Status retry_transient(Op &&op);

    /**
     * Charges one retried operation to FaultStats: each retry counts
     * transient_retries and backoff_for(its index); an exhausted op
     * counts retry_exhausted.  retry_transient and the read plane's
     * image reads both charge through here.
     */
    void charge_retries(const fault::RetryTally &tally);

    /**
     * Backoff accounted for retry attempt `attempt` (0-based):
     * kRetryBackoffNs << attempt, with the shift capped so large
     * transient_retries configurations cannot overflow the 64-bit
     * accumulator.
     */
    static std::uint64_t backoff_for(unsigned attempt);

    /** One coalesced physical-chunk read serving >= 1 batch slots. */
    struct ReadJob {
        tables::ChunkLocation location;
        /** The last batch slot it serves: that slot takes the payload,
         *  earlier coalesced slots get copies. */
        std::size_t last_slot = 0;
        /** The chunk-cache tier that answered the probe (kNone: miss). */
        cache::CacheTier tier = cache::CacheTier::kNone;
        Buffer payload;     ///< kHot: from the cache; else decompressed.
        Buffer compressed;  ///< kWarm: from the cache; else read.
        cache::SpillRef spill;  ///< kSpill: where the ring image lives.
        Status status;      ///< First error; ok = payload ready.
    };

    /** Where a job's compressed image crosses to the Decompression
     *  Engine from (Fig 6b step 5). */
    struct ReadSource {
        pcie::DeviceId device;
        const std::string *memtag;
        obs::Counter *reads;  ///< Device reads; null for a DRAM image.
    };

    /** The source table, keyed by the tier that serves the image:
     *  kWarm (host DRAM), kSpill (the ring) or kNone (the container). */
    ReadSource read_source(cache::CacheTier from,
                           const tables::ChunkLocation &location) const;

    /** Steps 5-6 for every job in job order, then the chunk-cache
     *  fills in job order, timed as read.cache_fill by `clock`'s next
     *  two laps: the fills' end reading is left in `clock`, where the
     *  return stage picks it up as its first boundary. */
    void run_read_jobs(std::vector<ReadJob> &jobs, obs::StageTimer &clock);

    /** One job: pick its image source, bill the one DMA to the
     *  Decompression Engine, then decompress. */
    void run_read_job(ReadJob &job);

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
     * are raw flash reads, billed by the read job that issued them.
     * Declared before chunk_cache_ so the cache (which holds a raw
     * pointer to it) is destroyed first.
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
    /** Stages one record in the open journal extent; nothing when
     *  journaling is off (with journal_commit, the only
     *  journal_metadata checks of the write plane). */
    void journal_stage(const tables::JournalRecord &record);
    /**
     * Writes the open extent before a step that needs its records
     * durable: a batch's NIC release, an out-of-batch reply, a GC
     * discard.  A full journal checkpoints, which makes the staged
     * records redundant.
     */
    Status journal_commit();

    /** Committed, readable chunk behind `digest`?  Billed like a
     *  dedup resolve; write_ref's committed path (caller drained the
     *  pipeline). */
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
    GcScheduler gc_scheduler_;
    GcStats gc_stats_;
    /** Victim being evacuated across incremental steps. */
    std::optional<std::uint64_t> gc_victim_;
    obs::Histogram *gc_pause_ = nullptr;
    /** fsck monotonicity cursor over the container-log superblock. */
    std::uint64_t last_fsck_superblock_seq_ = 0;
    FaultStats fault_stats_;
    ClusterStats cluster_stats_;
    /**
     * Open-buffer digest index for write_ref: router-supplied digest
     * -> LBA whose newest buffered write has that content, and its
     * exact inverse.  Covers only chunks buffered since the last seal,
     * unseal or crash; empty on a standalone system.
     */
    std::unordered_map<Digest, Lba> open_lba_of_;
    std::unordered_map<Lba, Digest> open_digest_of_;
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
    /** Declared last: it must be destroyed (quiesced/joined) before
     *  any state its stages use. */
    std::unique_ptr<WritePipeline> pipeline_;
};

template <typename Op>
Status
FidrSystem::retry_transient(Op &&op)
{
    fault::RetryTally tally;
    Status status =
        fault::retry_counted(config_.transient_retries, tally, op);
    charge_retries(tally);
    return status;
}

}  // namespace fidr::core
