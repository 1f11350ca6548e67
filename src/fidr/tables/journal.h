/**
 * @file
 * Metadata write-ahead journal and crash recovery.
 *
 * The paper hides *data* durability behind the NIC's battery-backed
 * buffer (Sec 7.6.1) but a deployable server also needs its mapping
 * metadata to survive a host crash: the LBA-PBA table lives in DRAM.
 * This module provides the standard solution — an append-only journal
 * of mapping mutations, written (in the model) to a reserved region of
 * a table SSD, plus a replayer that rebuilds the LBA-PBA table after a
 * crash.  The Hash-PBN table itself is already write-back persisted
 * through the table cache, so recovery only needs the journal and a
 * final cache writeback barrier.
 *
 * Record format (little endian, 38 bytes fixed):
 *   type:u8  epoch:u32  seq:u32  lba:u64  pbn:u64  container:u64
 *   offset_units:u16  csize:u16  check:u8 (FNV-derived check byte).
 * The type byte carries the JournalOp in its low six bits, the extent
 * format mark (0x40) and the end-of-extent mark (0x80).
 *
 * Group commit: records are staged in host DRAM and written in
 * *extents* — one device write of every staged record, the last one
 * end-marked, then one zero fence slot.  An extent is all-or-nothing:
 * replay applies records only through the last end mark of the intact
 * prefix, so a torn extent applies none of its records.  That makes
 * the end mark the one slot whose damage replay cannot tell from a
 * tear, so commit() reads it back before it reports success.  A record
 * without the format mark (the per-record format that predates
 * extents) closes its own one-record extent, so such a journal still
 * replays.
 *
 * The epoch counts journal truncations (reset() bumps it) and the
 * sequence numbers records within an epoch, so replay can tell a
 * crash-truncated tail from stale pre-reset content that survived a
 * page-granular trim — even when the zero fence that normally bounds
 * the live region was lost to an injected fault.
 *
 * Replay semantics (exercised by the tests/test_journal.cpp corpus):
 *  - the intact prefix is the longest run of slots that decode with a
 *    valid check byte, a consistent epoch, and seq == slot; the
 *    replayed journal is that prefix cut after its last end mark;
 *  - a torn/blank/stale slot ends the intact prefix.  If a valid
 *    same-epoch in-sequence *end-marked* record exists past that
 *    point, the journal lost part of a committed extent and replay
 *    fails with kCorruption instead of silently dropping the tail.
 *    The look-ahead skips in-sequence records without an end mark (a
 *    torn extent's complete records) and gives up after a bounded
 *    number of other slots;
 *  - a duplicate/out-of-order sequence number also ends the prefix
 *    (the record is not applied twice); valid records beyond it
 *    surface as kCorruption, same as above;
 *  - an all-blank region replays to zero records (no corruption scan:
 *    with nothing committed there is nothing to lose).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/ssd/ssd.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::tables {

/** Journal record types. */
enum class JournalOp : std::uint8_t {
    kMapLba = 1,       ///< lba -> pbn mapping (re)assigned.
    kSetLocation = 2,  ///< pbn's physical location (re)assigned.
    kRetirePbn = 3,    ///< pbn reclaimed (refcount reached zero).
    kCheckpoint = 4,   ///< All prior records are reflected on-SSD.
    kUnmapLba = 5,     ///< lba mapping dropped (cluster ownership move).
};

/** One journal record (payload; epoch/seq are framing). */
struct JournalRecord {
    JournalOp op = JournalOp::kMapLba;
    Lba lba = 0;
    Pbn pbn = 0;
    ChunkLocation location;

    bool operator==(const JournalRecord &) const = default;

    /** The one place each record type is built. */
    static JournalRecord map(Lba lba, Pbn pbn)
    { return {JournalOp::kMapLba, lba, pbn, {}}; }
    static JournalRecord set_location(Pbn pbn, const ChunkLocation &at)
    { return {JournalOp::kSetLocation, 0, pbn, at}; }
    static JournalRecord retire(Pbn pbn)
    { return {JournalOp::kRetirePbn, 0, pbn, {}}; }
    static JournalRecord unmap(Lba lba)
    { return {JournalOp::kUnmapLba, lba, 0, {}}; }
    static JournalRecord checkpoint()
    { return {JournalOp::kCheckpoint, 0, 0, {}}; }
};

/** Size of one serialized record (incl. framing and check byte). */
inline constexpr std::size_t kJournalRecordSize =
    1 + 4 + 4 + 8 + 8 + 8 + 2 + 2 + 1;

/** Framing of one journal slot. */
struct JournalFrame {
    std::uint32_t epoch = 0;
    std::uint32_t seq = 0;
    bool closes_extent = false;  ///< Last record of its extent.

    bool operator==(const JournalFrame &) const = default;
};

/** Append-only metadata journal on a reserved SSD region. */
class MetadataJournal {
  public:
    /**
     * @param ssd      device holding the journal.
     * @param base     byte offset of the reserved region.
     * @param capacity region size; commits fail with kOutOfSpace when
     *                 the extent does not fit (callers checkpoint +
     *                 reset to truncate).
     */
    MetadataJournal(ssd::Ssd &ssd, std::uint64_t base,
                    std::uint64_t capacity);

    /** Adds `record` to the open extent (host DRAM: nothing is
     *  durable until commit()). */
    void stage(const JournalRecord &record);

    /**
     * Writes the staged records as one extent: one device write, a
     * read-back of its end-marked last slot, then the zero fence slot.
     * Nothing staged: ok, no IO.  On failure — a write error, or a
     * last slot that does not read back as written — the records stay
     * staged and the next commit rewrites them, with any staged since,
     * at the same place.
     */
    Status commit();

    /** Bytes currently used / available. */
    std::uint64_t used_bytes() const { return head_; }
    std::uint64_t capacity() const { return capacity_; }
    /** Records on the device (staged ones not yet counted). */
    std::uint64_t records() const { return records_; }
    std::uint64_t staged_records() const
    { return staged_.size() / kJournalRecordSize; }

    /** Current journal epoch (bumped by every reset()). */
    std::uint32_t epoch() const { return epoch_; }

    /** Truncates the journal and drops the staged records (after a
     *  checkpoint snapshot made all of them redundant). */
    void reset();

    /**
     * Reads the committed records back from the device (see the file
     * comment for the exact stop/corruption semantics).
     */
    Result<std::vector<JournalRecord>> replay() const;

    /**
     * Replays and *adopts* the on-device tail: head/records/epoch are
     * reset to what the device holds and the staged records (host
     * DRAM) are dropped, so subsequent commits continue the recovered
     * journal instead of the pre-crash in-memory state.  This is what
     * a restart calls.
     */
    Result<std::vector<JournalRecord>> recover();

    /**
     * Rebuilds an LBA-PBA table from a replayed record stream: maps,
     * locations, and retirements are applied in order.
     */
    static LbaPbaTable rebuild(const std::vector<JournalRecord> &records);

    /** Applies a replayed record stream on top of `table` (recovery
     *  from a checkpoint snapshot plus the journal tail).  Idempotent:
     *  re-applying a stream yields the same table. */
    static void apply(const std::vector<JournalRecord> &records,
                      LbaPbaTable &table);

    /** Serializes one framed record into `out` (kJournalRecordSize
     *  bytes; exposed for corpus tests). */
    static void encode(const JournalRecord &record,
                       const JournalFrame &frame, std::uint8_t *out);

    /**
     * Decodes one framed record; false on a bad check byte or type.
     * `raw` must hold kJournalRecordSize bytes.  A record in the
     * per-record format closes its own extent.
     */
    static bool decode(const std::uint8_t *raw, JournalRecord *record,
                       JournalFrame *frame);

  private:
    struct ScanResult {
        std::vector<JournalRecord> records;  ///< Committed extents.
        std::uint32_t epoch = 0;  ///< Epoch of the intact prefix.
    };

    /** Intact-prefix scan + bounded corrupt-middle look-ahead. */
    Result<ScanResult> scan() const;

    /** Reads and decodes slot `slot`; false when it does not decode. */
    Result<bool> read_slot(std::uint64_t slot, JournalRecord *record,
                           JournalFrame *frame) const;

    ssd::Ssd &ssd_;
    std::uint64_t base_;
    std::uint64_t capacity_;
    std::uint64_t head_ = 0;
    std::uint64_t records_ = 0;
    std::uint32_t epoch_ = 0;
    /** The open extent: encoded records, reused across commits. */
    Buffer staged_;
};

}  // namespace fidr::tables
