/**
 * @file
 * Append-only container log: packs variable-size compressed chunks
 * into large fixed-size containers written sequentially to the data
 * SSDs, with an on-"disk" layout recovery can replay.
 *
 * The paper's server "makes a large container of compressed chunks
 * and stores them as a single large block" (Sec 2.1.4); the FIDR
 * Compression Engine seals a container once ~4 MB of compressed data
 * accumulates (Sec 5.3 step 8).  Chunks are 64-byte aligned inside a
 * container so their offsets fit the 2-byte offset field of the
 * LBA-PBA table.
 *
 * On-device layout (SPDK libreduce style, SNIPPETS.md Snippet 1):
 * each data SSD is carved into fixed, page-aligned *slots* after an
 * 8 KiB reserved region.  A sealed container occupies exactly one
 * slot: its compressed payload first, then a 64-byte commit header
 * (magic, format version, container id, sizes, checksum) — written
 * strictly *after* the payload, so a torn seal leaves an invalid
 * header and the container simply does not exist.  Containers are
 * never overwritten in place; GC discard trims the whole slot (the
 * header page dies with it) and returns the slot to a free list, so
 * the device never holds a stale-but-valid header.
 *
 * A dual-slot (A/B) *superblock* in SSD 0's reserved region carries a
 * monotonically increasing sequence number, the format version, the
 * container-id high-water mark and per-SSD slot high-water marks.  It
 * is rewritten every `superblock_interval` seals (best effort — the
 * headers are the source of truth) and mandatorily *before* every
 * discard trim, so a recovered log can never re-issue a discarded
 * container id.  recover() reads the freshest valid superblock, scans
 * every slot's header, and rebuilds the sealed/discarded directory
 * and free lists from the device — nothing in host DRAM is trusted.
 *
 * The still-open container lives in `open_buffer_`, modelling the
 * Compression Engine's battery-backed staging memory (the same
 * durability domain as the NIC's NVRAM write buffer): recover()
 * preserves it in place rather than reconstructing it from flash.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/ssd/ssd.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::tables {

/** Commit-header bytes at the end of every sealed slot. */
inline constexpr std::uint64_t kContainerHeaderBytes = 64;

/** Reserved bytes at the front of every data SSD (superblock A/B on
 *  SSD 0; kept symmetric so slot addressing is uniform). */
inline constexpr std::uint64_t kContainerReservedBytes = 8192;

/** Layout format written into superblock and container headers. */
inline constexpr std::uint32_t kContainerFormatVersion = 2;

/** Where a container lives (sealed) or will live (open). */
struct ContainerInfo {
    std::size_t ssd_index = 0;
    std::uint64_t slot = 0;          ///< Slot index on that SSD.
    std::uint64_t base_addr = 0;     ///< Slot base (payload starts here).
    std::uint64_t bytes = 0;         ///< Sealed bytes incl. padding.
    std::uint64_t payload_bytes = 0; ///< Compressed bytes, no padding.
    bool sealed = false;
    bool discarded = false;  ///< Slot reclaimed by GC.
};

/** Durable-layout counters (superblock cadence, recovery work). */
struct ContainerLogStats {
    std::uint64_t superblock_writes = 0;
    /** Best-effort seal-time superblock writes that failed (the next
     *  cadence or discard retries; headers stay authoritative). */
    std::uint64_t superblock_write_failures = 0;
    std::uint64_t discards = 0;
    /** Last recover(): slot headers read, valid containers adopted,
     *  and how many of those the superblock did not yet know about. */
    std::uint64_t headers_scanned = 0;
    std::uint64_t containers_recovered = 0;
    std::uint64_t tail_adopted = 0;
};

/** Append-only packer of compressed chunks into SSD container slots. */
class ContainerLog {
  public:
    /**
     * @param data_ssds array the sealed containers are written to.
     * @param container_bytes container capacity; must be addressable
     *        by the 2-byte/64-B offset encoding (<= 4 MiB).
     * @param superblock_interval seals between best-effort superblock
     *        writes (discard always writes one); 0 = every seal.
     * @param spill_reserve_bytes bytes carved off the *tail* of the
     *        last data SSD for the chunk cache's spill ring (rounded
     *        up to whole container slots so the two regions never
     *        share a slot).  0 = no reservation.  The region is raw
     *        device space: the log never writes, scans or trims it.
     */
    explicit ContainerLog(ssd::SsdArray &data_ssds,
                          std::uint64_t container_bytes = 4 * kMiB,
                          std::uint64_t superblock_interval = 8,
                          std::uint64_t spill_reserve_bytes = 0);

    /**
     * Appends one compressed chunk (64-B aligned) and returns its
     * location.  Seals the open container to a data SSD first when the
     * chunk would not fit.
     */
    Result<ChunkLocation> append(std::span<const std::uint8_t> compressed);

    /** Reads a chunk back, from the open buffer or from the SSDs. */
    Result<Buffer> read(const ChunkLocation &location) const;

    /** Seals the open container (no-op when empty): payload, then the
     *  commit header, then (on cadence) the superblock. */
    Status flush();

    /** True once `container_id` has been written out to an SSD. */
    bool sealed(std::uint64_t container_id) const;

    /**
     * Data SSD a container lives on (or will land on): container ids
     * stripe round-robin (id % ssd count), and sealing preserves the
     * stripe, so the answer is stable before and after the seal.
     * Lets callers bill per-device transfers to the right ledger.
     */
    std::size_t ssd_index_of(std::uint64_t container_id) const;

    /**
     * Releases a sealed container's slot after GC moved its live
     * chunks elsewhere; subsequent reads of locations inside it fail
     * with kNotFound.  Writes the superblock *before* trimming so a
     * recovered log never resurrects (or re-issues the id of) the
     * discarded container.  Returns the bytes released.
     */
    Result<std::uint64_t> discard(std::uint64_t container_id);

    /**
     * Rebuilds the sealed/discarded directory, free-slot lists and id
     * high-water mark from the device (superblock + slot-header scan),
     * discarding the in-memory maps.  The open container's buffer is
     * battery-backed engine memory and is preserved in place; a
     * recovered-from-scratch log (fresh object) starts with an empty
     * open container, exactly like a restart that lost nothing sealed.
     */
    Status recover();

    /** Number of containers ever opened (sealed + the open one). */
    std::uint64_t containers() const { return infos_.size(); }
    std::uint64_t sealed_containers() const { return sealed_; }

    std::uint64_t container_bytes() const { return container_bytes_; }

    /** Directory entry for one container id. */
    std::optional<ContainerInfo> info_of(std::uint64_t container_id) const;

    /** Monotonic version of the last durable superblock (0 = none). */
    std::uint64_t superblock_seq() const { return superblock_seq_; }

    /** Slot capacity across the array and how much of it is free. */
    std::uint64_t total_slots() const;
    std::uint64_t used_slots() const { return used_slots_; }
    std::uint64_t free_slots() const
    { return total_slots() - used_slots_; }
    double free_slot_fraction() const;

    /** Bytes one container occupies on-device (payload + header,
     *  page aligned). */
    std::uint64_t slot_stride() const { return slot_stride_; }

    /** Spill reservation (see the constructor): which SSD hosts it,
     *  where it starts, and how many raw bytes it spans.  Capacity is
     *  0 when nothing was reserved. */
    std::size_t spill_ssd_index() const { return spill_ssd_; }
    std::uint64_t spill_base() const
    { return slot_addr(slot_cap(spill_ssd_)); }
    std::uint64_t spill_capacity_bytes() const;

    const ContainerLogStats &stats() const { return stats_; }

  private:
    std::uint64_t open_id() const { return infos_.size() - 1; }
    void open_new();

    /** Container slots available on `ssd` (the spill reservation
     *  shortens the hosting SSD's range). */
    std::uint64_t slot_cap(std::size_t ssd) const
    { return slots_per_ssd_ - (ssd == spill_ssd_ ? spill_slots_ : 0); }

    /** Smallest free slot on `ssd` (free list, then high water). */
    Result<std::uint64_t> take_slot(std::size_t ssd);
    void return_slot(std::size_t ssd, std::uint64_t slot);
    std::uint64_t slot_addr(std::uint64_t slot) const
    { return kContainerReservedBytes + slot * slot_stride_; }

    Buffer encode_header(const ContainerInfo &info,
                         std::uint64_t container_id) const;
    Buffer encode_superblock(std::uint64_t seq) const;
    /** Writes the next superblock version to its A/B slot. */
    Status write_superblock();
    /** Freshest valid superblock, or nullopt on a virgin device. */
    struct SuperblockImage {
        std::uint64_t seq = 0;
        std::uint64_t next_seal_id = 0;
        std::vector<std::uint64_t> next_slot;  ///< Per SSD.
    };
    Result<std::optional<SuperblockImage>> read_superblocks() const;

    ssd::SsdArray &data_ssds_;
    std::uint64_t container_bytes_;
    std::uint64_t slot_stride_ = 0;
    std::uint64_t slots_per_ssd_ = 0;
    std::uint64_t superblock_interval_;
    std::size_t spill_ssd_ = 0;       ///< Last SSD hosts the spill.
    std::uint64_t spill_slots_ = 0;   ///< Slots the reservation covers.

    std::vector<ContainerInfo> infos_;
    Buffer open_buffer_;
    std::uint64_t sealed_ = 0;
    std::uint64_t used_slots_ = 0;

    /** Per-SSD allocation state: sorted free slots below the
     *  high-water mark, which itself only grows. */
    std::vector<std::vector<std::uint64_t>> free_slots_;
    std::vector<std::uint64_t> next_slot_;

    std::uint64_t superblock_seq_ = 0;
    std::uint64_t seals_since_superblock_ = 0;
    ContainerLogStats stats_;
};

}  // namespace fidr::tables
