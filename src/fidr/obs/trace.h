/**
 * @file
 * Low-overhead tracepoints for the FIDR data plane (SPDK-style).
 *
 * Design (mirrors spdk_trace): every thread that hits a tracepoint
 * lazily registers a fixed-size ring of binary records with the global
 * Tracer; recording is a relaxed-atomic enabled check, a thread_local
 * ring pointer load, and one 48-byte store — no locks, no allocation,
 * no formatting on the hot path.  The ring overwrites its oldest
 * records on wrap, so a trace always holds the *tail* of activity.
 *
 * Record layout (fixed size, ISSUE taxonomy):
 *   {tpoint_id, flags(begin/end/instant), lane, object_id, sim_ts,
 *    wall_ts, arg, trace_id}
 *
 * `object_id` threads one request through layers: write-flow spans
 * carry the batch sequence number, chunk-scoped points carry the first
 * 8 bytes of the chunk digest, read-flow spans carry the LBA.
 * `trace_id` is the request-scoped causal id (obs/request.h): record()
 * stamps the calling thread's current ScopedRequest, so every record a
 * worker emits while serving a batch or a read carries that request's
 * id — the Chrome export turns same-id records on different rings into
 * flow arrows, and `fidr_obs_report attribute` groups spans by it.
 *
 * Compile-time kill switch: configure with -DFIDR_TRACE=OFF and every
 * FIDR_TPOINT / FIDR_TRACE_SPAN site compiles to nothing — the binary
 * cannot emit a record.  With tracing compiled in, recording is still
 * OFF until Tracer::instance().enable(); disabled cost is one relaxed
 * atomic load per site.
 *
 * Export: binary dump (read back by tools/fidr_obs_report) and Chrome
 * trace-event JSON ("B"/"E"/"i" phases, one tid per ring) that loads
 * directly in Perfetto / chrome://tracing.
 *
 * Threading contract: record() is safe from any thread concurrently;
 * enable/disable/reset/configure_ring_capacity/export must run while
 * no thread is recording (quiescent), e.g. after joining the lanes.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/obs/request.h"

namespace fidr::obs {

class JsonWriter;

/** Tracepoint taxonomy: Fig 6a write flow, Fig 6b read flow, devices. */
enum class Tpoint : std::uint16_t {
    kNone = 0,

    // Write flow (Fig 6a), one span per pipeline stage.
    kWriteBatch,           ///< Whole process_batch() span (object=batch).
    kWriteNicBuffer,       ///< Step 1: client chunk into NIC DRAM.
    kWriteHash,            ///< Step 2: SHA-256 over the buffered batch.
    kWriteHashLane,        ///< One SHA lane's shard (worker thread).
    kWriteDigestXfer,      ///< Step 2b: digests NIC -> host.
    kWriteBucketIndex,     ///< Step 3: bucket indexes -> Cache HW-Engine.
    kWriteDedupResolve,    ///< Steps 4-5: tree resolve + fetch + scan.
    kWriteTableFetch,      ///< Bucket fetched from table SSD (miss).
    kWriteBucketScan,      ///< Host scan verdict for one chunk.
    kWriteVerdictXfer,     ///< Step 6: verdicts host -> NIC.
    kWriteMapUpdate,       ///< LBA-PBA mapping + journal for the batch.
    kWriteCompress,        ///< Steps 7-8: unique chunks -> LZ lanes.
    kWriteCompressLane,    ///< One LZ lane's shard (worker thread).
    kWriteContainerAppend, ///< Step 9: container packing + seal DMA.
    kWriteJournal,         ///< Metadata journal append.

    // Read flow (Fig 6b).
    kReadRequest,          ///< Whole read() span (object=LBA).
    kReadNicLookup,        ///< Step 2: LBA Lookup in the NIC buffer.
    kReadLbaResolve,       ///< Steps 3-4: host LBA->PBA resolve.
    kReadSsdFetch,         ///< Steps 5: data SSD -> Decompression Engine.
    kReadDecompress,       ///< Step 6: decompression.
    kReadNicReturn,        ///< Step 7: engine -> NIC, out to client.

    // Cross-cutting device/fabric points.
    kDma,                  ///< One routed fabric DMA (arg=bytes).
    kCacheFetch,           ///< Table cache miss fill (object=bucket).
    kCacheWriteback,       ///< Dirty line flushed (object=bucket).
    kTreeCrash,            ///< HW-tree misspeculation (object=key).
    kFaultInjected,        ///< Failpoint fired (object=site, arg=kind).

    // Multi-batch write pipeline (cross-batch overlap of Fig 6a).
    kPipelineSubmit,       ///< Batch admitted (object=epoch, arg=depth).
    kPipelineStall,        ///< Admission stalled on a full pipeline.
    kPipelineHashStage,    ///< Hash-stage occupancy span (object=epoch).
    kPipelineExecute,      ///< Commit-sequencer span (object=epoch).
    kPipelineDrain,        ///< Barrier waiting for in-flight batches.

    // Batched read plane (coalesced Fig 6b).
    kReadBatch,            ///< Whole read_batch() span (object=slots).
    kReadCoalesce,         ///< Slot->job collapse (object=slots, arg=jobs).
    kReadCacheHit,         ///< Hot-tier chunk-cache hit (object=container).
    kReadCacheInsert,      ///< Decompressed chunk cached (object=container).
    kReadCacheWarmHit,     ///< Warm-tier hit: decompress, no SSD DMA.
    kReadCacheSpillHit,    ///< Spill-tier hit: ring read, no chunk fetch.
    kReadCacheSpillWrite,  ///< Evicted image written to the spill ring.
    kReadFetchLane,        ///< A read batch's fetch+decompress stage.

    // Incremental container-log GC (concurrent with both planes).
    kGcStep,               ///< One budgeted GC step (object=victim).
    kGcRelocate,           ///< One live chunk moved (object=pbn, arg=bytes).
    kGcDiscard,            ///< Victim container released (object=id).
    kGcSuperblock,         ///< Superblock version written (object=seq).

    kMaxTpoint,
};

/** Stable display name of a tracepoint ("write.hash", ...). */
const char *tpoint_name(Tpoint tpoint);

/** Record kind. */
enum class TraceFlag : std::uint16_t {
    kInstant = 0,
    kBegin = 1,
    kEnd = 2,
};

/** One fixed-size binary trace record. */
struct TraceRecord {
    std::uint16_t tpoint = 0;   ///< Tpoint enum value.
    std::uint16_t flags = 0;    ///< TraceFlag enum value.
    std::uint32_t lane = 0;     ///< Lane/shard id where meaningful.
    std::uint64_t object_id = 0;
    std::uint64_t sim_ts = 0;   ///< Simulated ns (0 where untracked).
    std::uint64_t wall_ts = 0;  ///< Wall ns since tracer epoch.
    std::uint64_t arg = 0;      ///< Bytes, counts, verdicts, ...
    std::uint64_t trace_id = 0; ///< Request causal id (0 = unscoped).
};
static_assert(sizeof(TraceRecord) == 48, "keep trace records compact");

/** Per-thread ring of trace records (single writer, wrap-on-full). */
class TraceRing {
  public:
    explicit TraceRing(std::size_t capacity) : slots_(capacity) {}

    void
    push(const TraceRecord &record)
    {
        // Single-writer ring, and the threading contract (see file
        // header) says readers only run while the writer is quiescent —
        // there is no concurrent reader for a release store to pair
        // with.  Cross-thread visibility rides on whatever join /
        // mutex the caller used to reach quiescence, so plain relaxed
        // stores are enough; the atomic only keeps enabled-racing
        // pushes from being UB.
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        slots_[head % slots_.size()] = record;
        head_.store(head + 1, std::memory_order_relaxed);
    }

    std::size_t capacity() const { return slots_.size(); }

    /** Records ever pushed (>= capacity() means the ring wrapped). */
    std::uint64_t pushed() const
    { return head_.load(std::memory_order_relaxed); }

    /** Records currently held (min(pushed, capacity)). */
    std::uint64_t
    held() const
    {
        const std::uint64_t n = pushed();
        return n < slots_.size() ? n : slots_.size();
    }

    /** Held records, oldest first.  Caller must be quiescent. */
    std::vector<TraceRecord> drain_ordered() const;

    void
    clear()
    {
        head_.store(0, std::memory_order_relaxed);
    }

    /** Drops all records and changes capacity.  Quiescent only. */
    void
    resize_capacity(std::size_t capacity)
    {
        slots_.assign(capacity, TraceRecord{});
        clear();
    }

  private:
    std::vector<TraceRecord> slots_;
    std::atomic<std::uint64_t> head_{0};
};

/** Process-wide trace recorder: registry of per-thread rings. */
class Tracer {
  public:
    /** The global tracer every FIDR_TPOINT site records into. */
    static Tracer &instance();

    Tracer();

    /** Turns recording on/off (sites early-out when disabled). */
    void enable(bool on = true);
    bool enabled() const
    { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Ring capacity (records per thread) for rings created afterwards;
     * existing rings are resized.  Quiescent callers only.
     */
    void configure_ring_capacity(std::size_t records);
    std::size_t ring_capacity() const { return ring_capacity_; }

    /** Drops every record (rings stay registered).  Quiescent only. */
    void reset();

    /** Hot path: one record into the calling thread's ring. */
    void
    record(Tpoint tpoint, TraceFlag flag, std::uint64_t object_id,
           std::uint64_t arg = 0, std::uint32_t lane = 0,
           std::uint64_t sim_ts = 0)
    {
        if (!enabled_.load(std::memory_order_relaxed))
            return;
        TraceRing *ring = my_ring();
        TraceRecord rec;
        rec.tpoint = static_cast<std::uint16_t>(tpoint);
        rec.flags = static_cast<std::uint16_t>(flag);
        rec.lane = lane;
        rec.object_id = object_id;
        rec.sim_ts = sim_ts;
        rec.wall_ts = wall_now_ns();
        rec.arg = arg;
        rec.trace_id = ScopedRequest::current_trace();
        ring->push(rec);
    }

    /** Records ever pushed across all rings (includes overwritten). */
    std::uint64_t total_recorded() const;

    /** Records currently held across all rings. */
    std::uint64_t total_held() const;

    std::size_t ring_count() const;

    /**
     * All held records as (ring_index, record), ordered by wall_ts
     * within each ring.  Quiescent callers only.
     */
    std::vector<std::pair<std::size_t, TraceRecord>> collect() const;

    /** Chrome trace-event JSON (loads in Perfetto).  Quiescent only. */
    std::string export_chrome_json() const;

    /** Binary dump: header + (ring, record) rows.  Quiescent only. */
    Status dump_binary(const std::string &path) const;

    /** Reads a dump_binary() file back (same shape as collect()). */
    static Result<std::vector<std::pair<std::size_t, TraceRecord>>>
    load_binary(const std::string &path);

    /** Renders records as Chrome trace-event JSON (shared by tools). */
    static std::string chrome_json_from(
        const std::vector<std::pair<std::size_t, TraceRecord>> &records);

    /** Wall-clock ns since the tracer epoch (steady clock). */
    std::uint64_t wall_now_ns() const;

  private:
    TraceRing *my_ring();

    std::atomic<bool> enabled_{false};
    std::uint64_t epoch_ns_ = 0;
    std::size_t ring_capacity_ = 64 * 1024;

    mutable std::mutex rings_mutex_;  ///< Guards ring registration only.
    std::vector<std::unique_ptr<TraceRing>> rings_;
};

/** RAII begin/end span around a scope. */
class TraceSpan {
  public:
    TraceSpan(Tpoint tpoint, std::uint64_t object_id,
              std::uint64_t arg = 0, std::uint32_t lane = 0)
        : tpoint_(tpoint), object_(object_id), lane_(lane)
    {
        Tracer::instance().record(tpoint_, TraceFlag::kBegin, object_,
                                  arg, lane_);
    }

    ~TraceSpan()
    {
        Tracer::instance().record(tpoint_, TraceFlag::kEnd, object_,
                                  end_arg_, lane_);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Value attached to the end record (e.g. bytes produced). */
    void set_end_arg(std::uint64_t arg) { end_arg_ = arg; }

  private:
    Tpoint tpoint_;
    std::uint64_t object_;
    std::uint32_t lane_;
    std::uint64_t end_arg_ = 0;
};

}  // namespace fidr::obs

/**
 * Instrumentation macros.  With -DFIDR_TRACE=OFF these expand to
 * nothing: the hot path contains no trace code at all.
 */
#if FIDR_TRACE_ENABLED
#define FIDR_TPOINT(tpoint, object, arg)                                   \
    ::fidr::obs::Tracer::instance().record(                                \
        (tpoint), ::fidr::obs::TraceFlag::kInstant,                        \
        static_cast<std::uint64_t>(object), static_cast<std::uint64_t>(arg))
#define FIDR_TPOINT_LANE(tpoint, object, arg, lane)                        \
    ::fidr::obs::Tracer::instance().record(                                \
        (tpoint), ::fidr::obs::TraceFlag::kInstant,                        \
        static_cast<std::uint64_t>(object),                                \
        static_cast<std::uint64_t>(arg), static_cast<std::uint32_t>(lane))
#define FIDR_TRACE_SPAN(var, tpoint, object, arg)                          \
    ::fidr::obs::TraceSpan var{(tpoint),                                   \
                               static_cast<std::uint64_t>(object),         \
                               static_cast<std::uint64_t>(arg)}
#define FIDR_TRACE_SPAN_LANE(var, tpoint, object, arg, lane)               \
    ::fidr::obs::TraceSpan var{                                            \
        (tpoint), static_cast<std::uint64_t>(object),                      \
        static_cast<std::uint64_t>(arg), static_cast<std::uint32_t>(lane)}
#else
#define FIDR_TPOINT(tpoint, object, arg) ((void)0)
#define FIDR_TPOINT_LANE(tpoint, object, arg, lane) ((void)0)
#define FIDR_TRACE_SPAN(var, tpoint, object, arg) ((void)0)
#define FIDR_TRACE_SPAN_LANE(var, tpoint, object, arg, lane) ((void)0)
#endif
