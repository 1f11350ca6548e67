/**
 * @file
 * LBA-PBA table: the logical-to-physical mapping (paper Sec 2.1.4).
 *
 * Because chunks have variable size after compression, the mapping is
 * two-level:
 *   LBA -> PBN            (which unique chunk backs this logical block)
 *   PBN -> (container id, offset, compressed size)
 * The physical byte address is container base + offset.  Offsets are
 * stored in 64-byte units so a 2-byte field spans a 4 MB container,
 * matching the paper's 2-byte offset encoding.
 *
 * The table also keeps per-PBN reference counts: deduplication makes
 * several LBAs share one PBN, and an overwrite must only free the
 * physical chunk when the last reference drops.
 *
 * The PBN level is the one per-chunk record of the system.  Besides
 * the location and refcount it holds the chunk's content digest (when
 * the writer supplied one; chunks rebuilt from a checkpoint or the
 * journal have none), and it maintains, inside set_location() and
 * reclaim(), each container's live bytes and placement list: the PBNs
 * placed there, in placement order.  A chunk is live iff the table
 * locates it, so a container's dead bytes are its container-log
 * payload minus its live bytes, and GC victim selection, relocation,
 * scrub and fsck all read this one record.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fidr/common/flat_map.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/hash/digest.h"

namespace fidr::tables {

/** Granularity of the 2-byte container offset field. */
inline constexpr std::uint64_t kOffsetUnit = 64;

/** Physical location of one compressed chunk. */
struct ChunkLocation {
    std::uint64_t container_id = 0;
    std::uint16_t offset_units = 0;    ///< In kOffsetUnit steps.
    std::uint16_t compressed_size = 0; ///< Bytes.

    std::uint64_t offset_bytes() const
    { return std::uint64_t{offset_units} * kOffsetUnit; }

    bool operator==(const ChunkLocation &) const = default;
};

/**
 * Two-level LBA-PBA mapping with PBN reference counting.  Both levels
 * are open-addressing FlatMaps: a lookup is two probe runs over flat
 * cell arrays, and mapping or unmapping allocates nothing once the
 * arrays have grown to the working set.
 */
class LbaPbaTable {
  public:
    /**
     * Points `lba` at `pbn`, adjusting reference counts.  Returns the
     * PBN the LBA previously referenced (so the caller can reclaim the
     * physical chunk if its refcount hit zero), or nullopt.
     */
    std::optional<Pbn> map_lba(Lba lba, Pbn pbn);

    /** PBN currently backing `lba`. */
    std::optional<Pbn> pbn_of(Lba lba) const;

    /**
     * Drops the mapping for `lba`, decrementing the backing PBN's
     * refcount, and returns that PBN (so the caller can reclaim the
     * physical chunk when the last reference dropped).  Nullopt when
     * the LBA was not mapped (idempotent — the cluster router replays
     * unmaps after retried RPCs).
     */
    std::optional<Pbn> unmap_lba(Lba lba);

    /**
     * Registers the physical location of a stored PBN, new or moved by
     * GC relocation: the bytes move from the old container's live
     * count to the new one's, and the PBN joins the new container's
     * placement list.  Re-registering the current location changes
     * nothing (journal replay is idempotent).
     */
    void set_location(Pbn pbn, const ChunkLocation &location);

    /** Physical location of `pbn`. */
    std::optional<ChunkLocation> location_of(Pbn pbn) const;

    /** Records the content digest of a located PBN. */
    void set_digest(Pbn pbn, const Digest &digest);

    /** Digest of `pbn`; nullopt when none was recorded. */
    std::optional<Digest> digest_of(Pbn pbn) const;

    /** Full logical lookup: LBA -> location (nullopt if unmapped). */
    std::optional<ChunkLocation> lookup(Lba lba) const;

    /** Number of LBAs referencing `pbn` (0 when unknown). */
    std::uint32_t refcount(Pbn pbn) const;

    /**
     * Drops a PBN whose refcount reached zero, with its digest and its
     * bytes in its container's live count; false otherwise.
     */
    bool reclaim(Pbn pbn);

    std::size_t mapped_lbas() const { return lba_to_pbn_.size(); }
    std::size_t live_pbns() const { return pbn_info_.size(); }

    /** Compressed bytes of every located PBN. */
    std::uint64_t live_bytes() const { return live_bytes_; }

    /** Compressed bytes of the PBNs located in `container`. */
    std::uint64_t container_live_bytes(std::uint64_t container) const;

    /** PBNs located in `container`, in placement order. */
    std::vector<Pbn> located_in(std::uint64_t container) const;

    /**
     * Forgets a container GC discarded: drops its placement list.  No
     * PBN may still be located there.
     */
    void drop_container(std::uint64_t container);

    /**
     * Visits every known PBN with its refcount and (if registered)
     * physical location, in table order (not PBN order).  Recovery
     * walks it to reclaim the PBNs no LBA references; fsck walks it to
     * prove every live PBN is still reachable in the container log and
     * to recount each container's live bytes.
     */
    void for_each_pbn(
        const std::function<void(Pbn, std::uint32_t,
                                 const std::optional<ChunkLocation> &)>
            &visit) const;

    /**
     * Consistency check: every mapped LBA points at a known PBN, and
     * every PBN's refcount equals the number of LBAs referencing it.
     */
    Status validate() const;

    /**
     * Serializes the table for checkpointing: a header, every
     * PBN -> location record in PBN order, then every LBA -> PBN
     * mapping in LBA order (refcounts are reconstructed on load).  The
     * image depends only on the table's contents, not on the order of
     * the updates that built it.
     */
    Buffer serialize() const;

    /** Parses a serialize() image; kCorruption on malformed input. */
    static Result<LbaPbaTable> deserialize(const Buffer &raw);

  private:
    /** Container id of a PBN that has references but no location. */
    static constexpr std::uint64_t kNoContainer = UINT64_MAX;

    /** A ChunkLocation's fields with the refcount packed into what
     *  would be its padding: 16 bytes per PBN. */
    struct PbnInfo {
        std::uint64_t container_id = kNoContainer;
        std::uint16_t offset_units = 0;
        std::uint16_t compressed_size = 0;
        std::uint32_t refcount = 0;

        bool has_location() const { return container_id != kNoContainer; }
        ChunkLocation location() const
        { return {container_id, offset_units, compressed_size}; }
    };
    static_assert(sizeof(PbnInfo) == 16);

    /** One container's share of the table. */
    struct Placements {
        std::uint64_t live_bytes = 0;
        /** Every PBN placed here, including ones since moved away or
         *  reclaimed (located_in() filters them). */
        std::vector<Pbn> pbns;
    };

    /** Drops one reference from `pbn`, which must hold one. */
    void drop_ref(Pbn pbn);

    /** Takes a located PBN's bytes off its container's live count. */
    void unplace(const PbnInfo &info);

    FlatMap<Lba, Pbn, Mix64Hash> lba_to_pbn_;
    FlatMap<Pbn, PbnInfo, Mix64Hash> pbn_info_;
    /** Kept apart so PbnInfo stays 16 bytes. */
    FlatMap<Pbn, Digest, Mix64Hash> digests_;
    std::unordered_map<std::uint64_t, Placements> containers_;
    std::uint64_t live_bytes_ = 0;
};

}  // namespace fidr::tables
