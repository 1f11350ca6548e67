/**
 * @file
 * FIDR NIC model (paper Sec 5.4, Fig 7).
 *
 * A FIDR NIC is a storage NIC with three data-reduction additions:
 *
 *  - in-NIC buffering: write payloads and their LBAs stay in NIC DRAM
 *    instead of host memory, and the write is acknowledged to the
 *    client immediately (non-volatile / battery-backed buffer,
 *    Sec 7.6.1);
 *  - in-NIC hashing: SHA-256 engines hash buffered chunks so unique
 *    chunks are detected *before* any PCIe transfer, replacing the
 *    baseline's host-side unique-chunk predictor;
 *  - compression scheduling: once the host returns per-chunk
 *    unique/duplicate flags, the NIC assembles a batch of only the
 *    unique chunks for peer-to-peer transfer to a Compression Engine.
 *
 * The model performs the real buffering and hashing; PCIe/DRAM ledger
 * debits for its transfers are accounted by the system flows in
 * fidr/core, which orchestrate the device like the FIDR software's
 * device manager does.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "fidr/common/flat_map.h"
#include "fidr/common/status.h"
#include "fidr/common/thread_pool.h"
#include "fidr/common/types.h"
#include "fidr/hash/digest.h"
#include "fidr/hash/sha256.h"

namespace fidr::nic {

/** NIC sizing parameters. */
struct FidrNicConfig {
    std::uint64_t buffer_capacity = 64 * 1024 * 1024;  ///< NIC DRAM bytes.
    std::size_t hash_batch = 256;  ///< Chunks hashed per batch.
    /**
     * SHA-256 lanes, mirroring the multiple hash cores the paper
     * instantiates per NIC (Table 4).  0 = one lane per hardware
     * thread; 1 = serial hashing on the calling thread.  Digests are
     * bit-identical for every lane count; only wall-clock changes.
     */
    std::size_t hash_lanes = 0;
};

/** One buffered write chunk awaiting the reduction pipeline. */
struct BufferedChunk {
    Lba lba = 0;
    Buffer data;
    Digest digest;
    bool hashed = false;
};

/**
 * A batch sealed out of the open buffer for the multi-batch write
 * pipeline.  Sealed batches model NIC DRAM regions whose chunks are
 * frozen (no newer write for the same LBA coalesces into them) while
 * the SHA engines and the host pipeline work on them; the chunks stay
 * in (battery-backed) NIC memory until drop_sealed() after the host's
 * metadata commit.
 *
 * Ownership handoff: after seal_batch() exactly one pipeline stage at
 * a time may touch `chunks` (hash stage, then the serial commit
 * stages); the stage-to-stage edges are synchronized by the caller's
 * pipeline, not by the NIC.
 */
struct SealedBatch {
    std::uint64_t epoch = 0;  ///< 1-based monotonic seal order.
    std::vector<BufferedChunk> chunks;
    /** Chunks the hash stage freshly hashed (set by hash_sealed). */
    std::uint64_t fresh_hashes = 0;
    /**
     * Request-scoped causal id (obs/request.h), assigned at seal by
     * the orchestrator.  The batch *is* the cross-thread handoff, so
     * the id rides in it: hash workers and the commit sequencer
     * restore a ScopedRequest from here before running their stage.
     * 0 = untraced (e.g. FIDR_TRACE=OFF builds).
     */
    std::uint64_t trace_id = 0;
    /** Stream/tenant tag for the future QoS dimension (0 = none). */
    std::uint64_t stream_tag = 0;
};

/** Functional FIDR NIC. */
class FidrNic {
  public:
    explicit FidrNic(FidrNicConfig config = {});

    /**
     * Buffers a client write chunk (exactly kChunkSize bytes) and
     * "acknowledges" it: returns kUnavailable only when NIC DRAM is
     * exhausted, which callers treat as back-pressure.
     */
    Status buffer_write(Lba lba, Buffer data);

    /** Chunks currently buffered. */
    std::size_t buffered_chunks() const { return chunks_.size(); }
    bool batch_ready() const
    { return chunks_.size() >= config_.hash_batch; }

    /**
     * LBA Lookup module (read path, Fig 7): newest buffered write for
     * `lba`, if any — served to the client without touching the host.
     */
    std::optional<Buffer> lookup_buffered(Lba lba) const;

    /** Whether the open buffer holds a write of `lba` (no copy). */
    bool has_buffered(Lba lba) const { return newest_.find(lba) != nullptr; }

    // ------------------------------------------------------------------
    // Sealed-batch protocol (multi-batch write pipeline).  seal/unseal
    // run on the ingest thread; hash_sealed on hash-stage workers;
    // peek_unique_sealed/drop_sealed on the commit sequencer.  The
    // sealed list itself is mutex-guarded; a batch's chunks belong to
    // one stage at a time (see SealedBatch).
    // ------------------------------------------------------------------

    /**
     * Freezes every open chunk into a new sealed batch and returns a
     * pointer to it (stable until drop_sealed/unseal_all), or nullptr
     * when nothing is buffered.  The open buffer and its LBA-lookup
     * map restart empty.
     */
    SealedBatch *seal_batch();

    /** The sealed batch with `epoch`, or nullptr (e.g. already dropped). */
    SealedBatch *find_sealed(std::uint64_t epoch);

    /** Sealed batches currently retained. */
    std::size_t sealed_batches() const;

    /** Chunks across all sealed batches. */
    std::size_t sealed_chunks() const
    { return sealed_chunk_count_.load(std::memory_order_relaxed); }

    /** NIC DRAM in use: open + sealed chunks (capacity back-pressure). */
    std::uint64_t pending_bytes() const
    { return (chunks_.size() + sealed_chunks()) * kChunkSize; }

    /**
     * Runs the SHA-256 engines over the batch's unhashed chunks and
     * records the fresh-hash count in the batch.  The lifetime hash
     * counter is only advanced at drop_sealed(), on the commit
     * sequencer, so it stays in epoch order.
     */
    void hash_sealed(SealedBatch &batch);

    /**
     * Compression scheduler: splits the sealed batch by the
     * host-provided verdicts (one per chunk, in order) and returns
     * pointers to the unique chunks, in batch order, for the
     * Compression Engine.  Duplicates need no transfer (their LBA
     * mapping is the host's job).  The batch is *not* released: the
     * (battery-backed) NIC DRAM keeps every acknowledged write until
     * the host calls drop_sealed() after its metadata commit, so a
     * crash in between replays from the retained batch instead of
     * losing acknowledged data.  Pointers stay valid until
     * drop_sealed() or unseal_all().  kInvalidArgument when the
     * verdict count does not match the batch.
     */
    Result<std::vector<const BufferedChunk *>> peek_unique_sealed(
        const SealedBatch &batch,
        std::span<const ChunkVerdict> verdicts) const;

    /**
     * Commit point for a sealed batch: must be the oldest sealed epoch
     * (the commit sequencer applies batches in order).  Folds the
     * batch's fresh-hash count into the lifetime counter and releases
     * the NIC DRAM.
     */
    void drop_sealed(std::uint64_t epoch);

    /**
     * Failure/power-cut path: returns every sealed batch, oldest
     * first, to the front of the open buffer (ahead of any chunks
     * buffered since), rebuilds the LBA lookup, and keeps the already
     * computed digests.  Caller must have quiesced the pipeline.
     */
    void unseal_all();

    /** Lifetime counters. */
    std::uint64_t hashes_computed() const { return hashes_computed_; }
    std::uint64_t chunks_buffered_total() const { return total_buffered_; }

    const FidrNicConfig &config() const { return config_; }

    /** Resolved lane count (config.hash_lanes with 0 = hardware). */
    std::size_t hash_lanes() const { return lanes_; }

  private:
    /** Hashes every unhashed chunk of `chunks` on the lanes. */
    void hash_chunks(std::vector<BufferedChunk> &chunks);

    FidrNicConfig config_;
    std::size_t lanes_ = 1;
    /** Hash lanes; null when lanes_ == 1 (serial path). */
    std::unique_ptr<ThreadPool> pool_;
    std::deque<BufferedChunk> chunks_;
    /** lba -> index of newest buffered write, for the LBA Lookup. */
    FlatMap<Lba, std::size_t, Mix64Hash> newest_;
    /** Sealed batches, oldest first.  unique_ptr keeps the batches at
     *  stable addresses while the deque grows under the mutex. */
    std::deque<std::unique_ptr<SealedBatch>> sealed_;
    mutable std::mutex seal_mutex_;
    std::atomic<std::size_t> sealed_chunk_count_{0};
    std::uint64_t next_epoch_ = 0;
    std::uint64_t hashes_computed_ = 0;
    std::uint64_t total_buffered_ = 0;
};

}  // namespace fidr::nic
