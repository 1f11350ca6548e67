/**
 * @file
 * Hash-PBN table: the deduplication metadata key-value store
 * (paper Sec 2.1.3).
 *
 * Maps a chunk's SHA-256 digest to the physical block number of the
 * stored unique chunk.  The table is bucket-based: a digest's bucket
 * index is digest mod num_buckets; each 4 KB bucket serializes up to
 * 107 entries of 38 bytes (32 B hash + 6 B PBN) behind a 2-byte count.
 * The full table lives on dedicated *table SSDs* and only a slice is
 * cached in DRAM (fidr/cache); this class owns the on-SSD layout and
 * the bucket codec.
 *
 * Bucket overflow is handled by bounded linear probing across
 * neighbouring buckets (open addressing at bucket granularity): a
 * lookup may stop early at any non-full bucket that misses, because an
 * insert only spills to bucket i+1 when bucket i is full.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/hash/digest.h"
#include "fidr/ssd/ssd.h"

namespace fidr::tables {

/** One Hash-PBN entry. */
struct HashPbnEntry {
    Digest digest;
    Pbn pbn = kInvalidPbn;
};

/** In-memory form of one 4 KB table bucket. */
class Bucket {
  public:
    static constexpr std::size_t kCapacity =
        (kBucketSize - 2) / kTableEntrySize;  // 107 entries.

    /** Entries scanned is reported so callers can bill scan work. */
    std::optional<Pbn> lookup(const Digest &digest,
                              std::size_t *entries_scanned = nullptr) const;

    /** Inserts; kOutOfSpace when the bucket is full. */
    Status insert(const Digest &digest, Pbn pbn);

    /** Removes the entry for `digest`; false when absent. */
    bool remove(const Digest &digest);

    bool full() const { return entries_.size() >= kCapacity; }
    std::size_t size() const { return entries_.size(); }
    const std::vector<HashPbnEntry> &entries() const { return entries_; }

    /** Bytes of the image that carry data: the count, then entries. */
    std::size_t used_bytes() const
    { return 2 + entries_.size() * kTableEntrySize; }

    /** Writes the image's first used_bytes() into `out`; the rest of
     *  the kBucketSize image is zero. */
    void encode_used(std::uint8_t *out) const;

    /** Serializes to exactly kBucketSize bytes. */
    Buffer serialize() const;

    /**
     * Replaces the contents with a parsed kBucketSize image, reading
     * only its count and that many entries and reusing this bucket's
     * storage; kCorruption on malformed input (contents then empty).
     */
    Status assign(std::span<const std::uint8_t> raw);

    /** Parses a bucket image; kCorruption on malformed input. */
    static Result<Bucket> deserialize(std::span<const std::uint8_t> raw);

  private:
    std::vector<HashPbnEntry> entries_;
};

/** On-SSD Hash-PBN table with bucket IO and probing policy. */
class HashPbnTable {
  public:
    /** Probing bound: an insert may spill at most this many buckets. */
    static constexpr std::size_t kMaxProbes = 4;

    /**
     * @param ssd      table SSD holding the bucket array at offset 0.
     * @param num_buckets table size; sized from expected unique chunks
     *                 via buckets_for_capacity().
     */
    HashPbnTable(ssd::Ssd &ssd, std::uint64_t num_buckets);

    /** Bucket an entry for `digest` would hash to (before probing). */
    BucketIndex bucket_for(const Digest &digest) const;

    /**
     * Reads bucket `index` from the table SSD into `into`, decoding
     * straight from the device's page (a never-written page is an
     * empty bucket).  `into` is left as it was on a device error.
     */
    Status read_bucket(BucketIndex index, Bucket &into) const;

    /** Writes bucket `index` back to the table SSD: its used bytes,
     *  and zeros where a longer earlier image left entries. */
    Status write_bucket(BucketIndex index, const Bucket &bucket);

    std::uint64_t num_buckets() const { return num_buckets_; }

    /** Table SSD bytes occupied by the bucket array. */
    std::uint64_t table_bytes() const { return num_buckets_ * kBucketSize; }

    /**
     * Buckets needed for `unique_chunks` entries at `load_factor`
     * average occupancy (Sec 2.1.3's 9.5 TB / PB sizing arithmetic).
     */
    static std::uint64_t buckets_for_capacity(std::uint64_t unique_chunks,
                                              double load_factor = 0.7);

  private:
    ssd::Ssd &ssd_;
    std::uint64_t num_buckets_;
};

}  // namespace fidr::tables
