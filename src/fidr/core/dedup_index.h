/**
 * @file
 * Deduplication lookup over the cached Hash-PBN table, shared by both
 * systems (they differ only in *which index* backs the TableCache and
 * which resources the work is billed to).
 *
 * A lookup resolves a digest to duplicate-with-PBN or unique (in which
 * case the entry is inserted with the freshly assigned PBN).  Bucket
 * overflow spills to the next bucket with bounded linear probing, so
 * one chunk may touch several cache lines; every access, scan length
 * and miss/flush event is reported so callers can debit the right
 * ledgers.
 */
#pragma once

#include <cstdint>

#include "fidr/cache/table_cache.h"
#include "fidr/core/platform.h"
#include "fidr/hash/digest.h"

namespace fidr::core {

/** Everything one dedup lookup did, for resource billing. */
struct DedupLookup {
    ChunkVerdict verdict = ChunkVerdict::kUnique;
    Pbn pbn = kInvalidPbn;           ///< Matched or newly assigned.
    unsigned buckets_probed = 0;     ///< Cache accesses performed.
    unsigned cache_misses = 0;       ///< Bucket fetches from table SSD.
    unsigned dirty_evictions = 0;    ///< Bucket flushes to table SSD.
    std::size_t entries_scanned = 0; ///< Hash comparisons executed.
    bool inserted = false;           ///< New entry written (unique).
};

/**
 * Debits one dedup lookup to `platform`: CPU for the content scan, LRU
 * and bookkeeping, host DRAM for the bucket scans, and one table-SSD
 * DMA per bucket miss and per dirty flush.  `software_index`: the
 * cache index is a software B+ tree (the baseline, and FIDR without
 * the Cache HW-Engine, Fig 14 config b), so the tree lookups/updates
 * and the table-SSD I/O stack also run on the host CPU.
 */
void bill_dedup_lookup(Platform &platform, const DedupLookup &lookup,
                       bool software_index);

/** Dedup front-end over a TableCache. */
class DedupIndex {
  public:
    explicit DedupIndex(cache::TableCache &table_cache)
        : cache_(table_cache) {}

    /**
     * Looks `digest` up; when absent, inserts it mapped to `new_pbn`
     * and reports kUnique.  kOutOfSpace when every probe target is
     * full (table sized too small).
     */
    Result<DedupLookup> lookup_or_insert(const Digest &digest, Pbn new_pbn,
                                         bool high_priority = false);

    /** Lookup without insertion (used by verification paths). */
    Result<DedupLookup> lookup(const Digest &digest);

    /**
     * Removes the entry for `digest` (space reclamation: the last LBA
     * referencing its chunk is gone).  Reports kDuplicate when an
     * entry was found and removed, kUnique when it was absent.
     */
    Result<DedupLookup> remove(const Digest &digest);

    cache::TableCache &table_cache() { return cache_; }

  private:
    /** What walk() does at the end of the probe chain. */
    enum class WalkMode {
        kLookup,  ///< Report only.
        kInsert,  ///< Insert `new_pbn` when absent.
        kRemove,  ///< Remove the entry when present.
    };

    /** The one probe loop behind lookup, insert and remove. */
    Result<DedupLookup> walk(const Digest &digest, Pbn new_pbn,
                             WalkMode mode, bool high_priority);

    cache::TableCache &cache_;
};

}  // namespace fidr::core
