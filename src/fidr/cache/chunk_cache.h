/**
 * @file
 * Two-tier read-side chunk cache keyed by physical location, with an
 * optional SSD spill tier.
 *
 * Dedup concentrates read traffic: many hot LBAs resolve to the same
 * PBN, so a modest host-DRAM cache keyed by `{container_id, offset}`
 * turns repeat hits into DRAM serves.  A cache of decompressed chunks
 * only would buy one chunk byte per DRAM byte; following ZipCache,
 * the cache holds two DRAM tiers under one byte budget:
 *
 *  - *Hot*: decompressed chunks (plus their compressed image, so
 *    demotion never recompresses).  A hot hit is a pure DRAM serve —
 *    host DRAM -> NIC, no device touched.
 *  - *Warm*: compressed images only.  A warm hit pays one
 *    `decompress_stateless` pass but no data-SSD DMA; at typical 2-3x
 *    compression a warm byte holds 2-3x the chunks a hot byte does.
 *
 * Eviction cascades downward: hot LRU tails *demote* to warm (drop the
 * decompressed buffer, keep the compressed one) in batches of up to
 * kDemoteBatch entries per pass, warm LRU tails leave
 * DRAM — into the optional *spill* tier when a SpillBackend is
 * attached (a reserved data-SSD region written as a sequential ring of
 * compressed images), otherwise they are gone.  A warm or spill
 * re-reference *promotes* back to hot: the caller decompresses (that
 * is read-path work with read-path billing) and hands the raw bytes
 * back via promote().
 *
 * The hot/warm split self-tunes instead of being a knob: each shard
 * keeps two bounded ghost-LRU lists of recently demoted / recently
 * evicted keys (ARC-style).  A warm hit whose key is still in the
 * hot-ghost means a larger hot tier would have served it without the
 * decompress — grow the hot target one step.  A miss or spill hit
 * whose key is in the warm-ghost means a larger warm tier would have
 * kept it in DRAM — shrink the hot target.  Targets are clamped to
 * [10%, 90%] of the shard budget.
 *
 * Every fill is admitted: the cache is a pure optimization, so a
 * cache-off run and a cache-on run return the same bytes.
 *
 * Sharding follows the TableCache pattern: N = 2^k shards, each with
 * its own tier lists, byte budget, ghost lists, stats and mutex.  The
 * spill ring (index, write cursor, occupancy map) is global under its
 * own mutex; every acquisition orders shard mutex(es) before the spill
 * mutex, and multi-shard operations (rekey) take both shard locks via
 * std::scoped_lock, so a warm/spill entry can never be observed under
 * a key whose physical location is already gone.
 *
 * Coherence: chunk images are immutable; owners invalidate by key
 * (PBN retirement), by container (GC discard), re-key on GC
 * relocation — each of these covers *all* tiers including the spill
 * index atomically — and clear() on crash recovery (the spill index
 * lives in host DRAM, so spilled bytes die with the power even though
 * the region itself is flash).
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "fidr/common/flat_map.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"

namespace fidr::cache {

/** Physical identity of one stored chunk (container + offset). */
struct ChunkKey {
    std::uint64_t container_id = 0;
    std::uint16_t offset_units = 0;

    bool operator==(const ChunkKey &) const = default;
};

/** Hash for ChunkKey maps (shard routing, coalescing maps). */
struct ChunkKeyHash {
    std::size_t
    operator()(const ChunkKey &key) const
    {
        // splitmix64 over the packed identity: container ids are
        // sequential, so low bits alone would stripe shards.
        return Mix64Hash{}(key.container_id * 0x9E3779B97F4A7C15ull +
                           key.offset_units);
    }
};

/** Which tier satisfied a lookup. */
enum class CacheTier : std::uint8_t { kNone, kHot, kWarm, kSpill };

/** Handle to one compressed image in the spill ring. */
struct SpillRef {
    std::uint64_t offset = 0;   ///< Byte offset inside the spill region.
    std::uint32_t size = 0;     ///< Compressed bytes.
    std::uint32_t raw_size = 0; ///< Decompressed bytes (sanity check).
};

/**
 * Device hook the spill tier writes through.  FidrSystem implements it
 * over a reserved region of a data SSD and bills the transfers; the
 * cache only decides *what* lives *where* in the region.  write() is
 * called from serial contexts (the read plane's cache fills, the GC
 * sequencer); read() is called by the read job that bills its DMA.
 */
class SpillBackend {
  public:
    virtual ~SpillBackend() = default;

    /** Usable bytes in the spill region (0 disables the tier). */
    virtual std::uint64_t capacity_bytes() const = 0;

    /** Writes `data` at region offset `offset` (billed by the impl). */
    virtual Status write(std::uint64_t offset,
                         std::span<const std::uint8_t> data) = 0;

    /** Reads `size` bytes back (unbilled; the read job bills the
     *  transfer). */
    virtual Result<Buffer> read(std::uint64_t offset,
                                std::uint64_t size) const = 0;
};

/** Per-tier counters (all maintained per shard, summed by stats()). */
struct TierStats {
    std::uint64_t hits = 0;
    std::uint64_t insertions = 0;  ///< Entries that entered this tier.
    std::uint64_t evictions = 0;   ///< Entries that left it downward.
};

/** Hit/miss/eviction counters (aggregated or per shard). */
struct ChunkCacheStats {
    std::uint64_t hits = 0;    ///< All tiers (hot + warm + spill).
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;  ///< Admitted miss fills.
    std::uint64_t evictions = 0;   ///< Entries that left DRAM entirely.
    std::uint64_t invalidations = 0;
    /** Entries moved to a new key by GC relocation (each also counts
     *  one invalidation of the old key). */
    std::uint64_t rekeys = 0;

    TierStats hot;
    TierStats warm;
    TierStats spill;
    std::uint64_t demotions = 0;   ///< hot -> warm (raw buffer dropped).
    std::uint64_t promotions = 0;  ///< warm/spill -> hot.
    /** Rebalance passes that demoted at least one entry.  Each pass
     *  demotes up to kDemoteBatch tail entries, so passes / demotions
     *  measures how well the per-pass bookkeeping amortizes
     *  (DESIGN.md §16 near-fit churn). */
    std::uint64_t demote_passes = 0;

    std::uint64_t spill_writes = 0;
    std::uint64_t spill_write_failures = 0;
    /** Live spill entries lapped by the ring's write cursor. */
    std::uint64_t spill_overwritten = 0;

    /** Warm/spill hits whose key was still in the hot ghost (a bigger
     *  hot tier would have skipped the decompress). */
    std::uint64_t ghost_hot_hits = 0;
    /** Misses/spill hits whose key was still in the warm ghost (a
     *  bigger warm tier would have kept the image in DRAM). */
    std::uint64_t ghost_warm_hits = 0;

    double
    hit_rate() const
    {
        const std::uint64_t total = hits + misses;
        return total > 0
                   ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
};

/** Outcome of one tiered lookup. */
struct TierLookup {
    CacheTier tier = CacheTier::kNone;
    Buffer raw;         ///< kHot: the decompressed payload (a copy).
    Buffer compressed;  ///< kWarm: the compressed image (a copy).
    SpillRef spill;     ///< kSpill: where to read the image from.
    std::uint32_t raw_size = 0;  ///< Decompressed size (warm/spill).

    bool hit() const { return tier != CacheTier::kNone; }
};

/**
 * Sharded, capacity-bounded two-tier chunk cache.  All entry points
 * are thread-safe (per-shard + spill locking); the FIDR read plane
 * probes and fills it serially, in job order, so hit/miss order, ghost
 * adaptation and ring placement are deterministic.
 */
class ChunkReadCache {
  public:
    /**
     * @param capacity_bytes total DRAM budget (hot raw+compressed and
     *        warm compressed bytes), split evenly across shards.
     * @param shards power-of-two shard count; 1 = one global LRU.
     * @param spill optional spill device; nullptr (or a zero-capacity
     *        backend) disables the spill tier.  Not owned; must
     *        outlive the cache.
     */
    ChunkReadCache(std::uint64_t capacity_bytes, std::size_t shards = 1,
                   SpillBackend *spill = nullptr);

    /** Hot-tier demotion batch: once an insert pushes the hot tier
     *  over its byte target, one rebalance pass demotes up to this
     *  many tail entries (never the MRU fill).  The slack it leaves
     *  below the target means a near-fit working set does not demote
     *  and re-promote the same tail entry on every insert (DESIGN.md
     *  §16). */
    static constexpr std::size_t kDemoteBatch = 8;

    /**
     * Tiered probe, refreshing recency and feeding the ghost
     * estimators.  A hot hit returns the payload; a warm hit returns
     * the compressed image (the caller decompresses and calls
     * promote()); a spill hit returns the ring location (the caller
     * reads + decompresses + promote()s).  The entry itself
     * stays put until promote(), so a caller that fails mid-way leaves
     * the cache consistent.
     */
    TierLookup lookup(const ChunkKey &key);

    /**
     * Side-effect-free residency probe: which tier holds `key` right
     * now, or kNone.  Touches no recency order, stats or ghost state —
     * safe for tests and debug tooling to call without perturbing
     * adaptation.
     */
    CacheTier peek(const ChunkKey &key) const;

    /**
     * Miss fill: caches the chunk in the hot tier (evicting down the
     * cascade until everything fits).  A hot entry bills its raw and
     * compressed bytes.  Payloads larger than a shard's budget are not
     * cached.  Re-inserting a resident key refreshes content and
     * recency.  The cache copies `raw` (into a buffer recycled from an
     * earlier demotion when one is spare) and takes `compressed` over
     * without copying it.
     */
    void insert(const ChunkKey &key, const Buffer &raw,
                Buffer &&compressed);

    /**
     * Completes a warm or spill hit: re-attaches the decompressed
     * payload and moves the entry to the hot tier's MRU position (a
     * spill entry re-enters DRAM and leaves the spill index).  A key
     * no longer resident anywhere falls back to a plain insert.
     * `raw` is copied as for insert(); `compressed` is taken over when
     * the image re-enters DRAM (spill or fallback) and dropped when a
     * warm entry already holds it.
     */
    void promote(const ChunkKey &key, const Buffer &raw,
                 Buffer &&compressed);

    /** Drops one entry from every tier it is resident in. */
    void invalidate(const ChunkKey &key);

    /**
     * Moves a resident entry from `from` to `to` (GC relocated the
     * chunk; its image is unchanged).  Covers every tier atomically:
     * both shard locks and the spill lock are held together, so no
     * window exists where the warm/spill image is reachable under the
     * retired key or unreachable under the new one.  The old key is
     * invalidated either way; a resident entry re-enters under the new
     * key with fresh recency in its current tier.  Returns true when
     * an entry actually moved (in any tier).
     */
    bool rekey(const ChunkKey &from, const ChunkKey &to);

    /** Drops every entry of `container_id` (GC discard), all tiers. */
    void invalidate_container(std::uint64_t container_id);

    /** Drops everything (crash recovery: host DRAM — including the
     *  spill index — is gone). */
    void clear();

    /** Aggregate counters over all shards (by value). */
    ChunkCacheStats stats() const;

    /** One shard's counters (shard < shard_count()). */
    ChunkCacheStats shard_stats(std::size_t shard) const;

    std::size_t shard_count() const { return shards_.size(); }
    std::uint64_t capacity_bytes() const { return capacity_bytes_; }
    bool spill_enabled() const { return spill_capacity_ > 0; }
    std::uint64_t spill_capacity_bytes() const { return spill_capacity_; }

    /** DRAM bytes currently billed (hot raw+compressed + warm). */
    std::uint64_t used_bytes() const;
    std::uint64_t hot_used_bytes() const;
    std::uint64_t warm_used_bytes() const;
    /** Sum of per-shard adaptive hot-tier byte targets. */
    std::uint64_t hot_target_bytes() const;

    /** Resident DRAM entry count (hot + warm, sum over shards). */
    std::size_t entries() const;
    std::size_t hot_entries() const;
    std::size_t warm_entries() const;
    /** Live entries in the spill index / bytes they occupy. */
    std::size_t spill_entries() const;
    std::uint64_t spill_used_bytes() const;

    /** The shard that owns `key`. */
    std::size_t shard_of(const ChunkKey &key) const;

  private:
    static constexpr std::uint32_t kNil = UINT32_MAX;

    /** One cached chunk in its shard's slot table.  `prev`/`next` link
     *  it into the hot or warm LRU list (or, via `next`, the free
     *  list). */
    struct Entry {
        ChunkKey key;
        Buffer raw;         ///< Non-empty iff the entry is hot.
        Buffer compressed;  ///< Kept in both tiers.
        std::uint32_t raw_size = 0;  ///< Survives demotion.
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
        bool hot = false;
    };

    /** Intrusive LRU list over slot numbers (head = most recent). */
    struct Lru {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::size_t size = 0;
    };

    /**
     * Bounded recency list of keys only: the ghost estimators.  A ring
     * of at most `cap` nodes with intrusive circular links and a flat
     * key index; once full, a push overwrites the LRU node and rotates
     * the ring one step, so no push allocates.
     */
    class GhostRing {
      public:
        explicit GhostRing(std::size_t cap);

        void push(const ChunkKey &key);
        bool take(const ChunkKey &key);  ///< Removes on hit.
        void clear();

      private:
        struct Node {
            ChunkKey key;
            std::uint32_t prev = kNil;
            std::uint32_t next = kNil;
        };

        void unlink(std::uint32_t node);
        void link_front(std::uint32_t node);

        std::size_t cap_ = 0;
        std::vector<Node> nodes_;  ///< Never grows past cap_.
        std::uint32_t head_ = kNil;  ///< MRU; its prev is the LRU.
        std::uint32_t free_ = kNil;  ///< Taken nodes, linked by next.
        std::size_t size_ = 0;
        FlatMap<ChunkKey, std::uint32_t, ChunkKeyHash> index_;
    };

    /**
     * One shard: a slot table of entries with intrusive hot and warm
     * LRU lists and a free list, a flat key index over both tiers,
     * byte accounting, the adaptive hot target, ghost rings, and the
     * raw buffers recycled from demotions.  unique_ptr because
     * std::mutex is immovable.
     */
    struct Shard {
        Shard();

        std::vector<Entry> slots;
        std::uint32_t free_slot = kNil;
        Lru hot;
        Lru warm;
        FlatMap<ChunkKey, std::uint32_t, ChunkKeyHash> index;
        /** Raw buffers freed by demotion, reused by the next fills
         *  (at most kDemoteBatch). */
        std::vector<Buffer> spare_raw;
        std::uint64_t hot_bytes = 0;   ///< Billed (raw + compressed).
        std::uint64_t warm_bytes = 0;  ///< Billed (compressed).
        std::uint64_t hot_target = 0;  ///< Adaptive, clamped.
        GhostRing ghost_hot;
        GhostRing ghost_warm;
        ChunkCacheStats stats;
        mutable std::mutex mutex;

        Lru &list_of(const Entry &entry) { return entry.hot ? hot : warm; }
        void unlink(std::uint32_t slot);
        void link_front(std::uint32_t slot);
        /** Unlinks `slot` and relinks it at the front of `to`'s tier. */
        void move_front(std::uint32_t slot, bool to_hot);
        /** Takes a slot for `entry`, bills it to its tier, links it
         *  at that tier's front and indexes it. */
        void push_front(Entry &&entry);
        /** Unbills, unlinks and unindexes `slot`, frees it, and hands
         *  its entry back. */
        Entry remove(std::uint32_t slot);
        /** A copy of `raw` in a recycled buffer when one is spare. */
        Buffer copy_raw(const Buffer &raw);
        void recycle_raw(Buffer &&raw);
    };

    /** The spill ring: index + occupancy ordered by region offset.
     *  Guarded by `mutex`, always acquired after any shard mutex. */
    struct SpillRing {
        FlatMap<ChunkKey, SpillRef, ChunkKeyHash> index;
        struct Occupant {
            ChunkKey key;
            std::uint32_t size = 0;
        };
        std::map<std::uint64_t, Occupant> by_offset;
        std::uint64_t cursor = 0;
        std::uint64_t used_bytes = 0;
        mutable std::mutex mutex;
    };

    Shard &shard_for(const ChunkKey &key)
    { return *shards_[shard_of(key)]; }

    /** Caller holds `shard.mutex`.  Demotes (up to kDemoteBatch per
     *  pass) until hot_bytes <= hot_target, then evicts warm tails
     *  until hot+warm <= shard budget. */
    void rebalance(Shard &shard);
    /** Caller holds `shard.mutex`.  Hot LRU tail -> warm MRU. */
    void demote_tail(Shard &shard);
    /** Caller holds `shard.mutex`.  Warm LRU tail leaves DRAM (into
     *  the spill ring when enabled; locks spill nested). */
    void evict_warm_tail(Shard &shard);
    /** Caller holds `shard.mutex`; locks spill nested. */
    void spill_out(Shard &shard, const Entry &entry);
    /** Caller holds spill_.mutex: drops the index entry of `key` and
     *  its occupancy, if spilled. */
    void spill_forget(const ChunkKey &key);
    /** Caller holds spill_.mutex: drops live entries overlapping
     *  [offset, offset+size) ahead of the write cursor. */
    void spill_drop_overlaps(Shard &shard, std::uint64_t offset,
                             std::uint64_t size);
    /** Caller holds `shard.mutex`: a new hot MRU entry. */
    void fill_hot(Shard &shard, const ChunkKey &key, const Buffer &raw,
                  Buffer &&compressed);
    /** Caller holds `shard.mutex`: warm `slot` gets its raw payload
     *  back and becomes the hot MRU (counted as a promotion). */
    void warm_to_hot(Shard &shard, std::uint32_t slot, const Buffer &raw);
    void bump_hot_target(Shard &shard, bool grow);

    std::uint64_t capacity_bytes_ = 0;
    std::uint64_t shard_capacity_ = 0;
    std::size_t shard_mask_ = 0;
    SpillBackend *spill_backend_ = nullptr;
    std::uint64_t spill_capacity_ = 0;
    std::uint64_t adapt_step_ = 0;
    std::vector<std::unique_ptr<Shard>> shards_;
    SpillRing spill_;
};

}  // namespace fidr::cache
