#include "fidr/tables/journal.h"

#include <algorithm>

#include "fidr/common/bytes.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"

namespace fidr::tables {
namespace {

/**
 * Non-record slots probed past the intact prefix before concluding the
 * journal simply ends there.  A valid same-epoch in-sequence end mark
 * inside this window proves a lost committed extent; corruption bursts
 * longer than the window are indistinguishable from a torn tail (best
 * effort).
 */
constexpr std::uint64_t kCorruptionLookaheadSlots = 64;

/** Type-byte marks above the JournalOp bits. */
constexpr std::uint8_t kOpMask = 0x3F;
constexpr std::uint8_t kExtentFormat = 0x40;
constexpr std::uint8_t kClosesExtent = 0x80;

/** The zero fence slot written after every extent. */
constexpr std::uint8_t kFence[kJournalRecordSize] = {};

/** FNV-based check byte: position-sensitive, so multi-byte corruption
 *  cannot cancel out the way XOR parity can.  The 0xA5 offset keeps an
 *  all-zero slot recognizably torn. */
std::uint8_t
check_byte(const std::uint8_t *slot)
{
    return static_cast<std::uint8_t>(fnv1a64(std::span<const std::uint8_t>(
               slot, kJournalRecordSize - 1))) ^
           0xA5;
}

/** Sets or clears the end mark of an encoded slot, re-sealing it. */
void
mark_closing(std::uint8_t *slot, bool closes)
{
    slot[0] = closes ? (slot[0] | kClosesExtent)
                     : (slot[0] & ~kClosesExtent);
    slot[kJournalRecordSize - 1] = check_byte(slot);
}

}  // namespace

void
MetadataJournal::encode(const JournalRecord &r, const JournalFrame &frame,
                        std::uint8_t *out)
{
    out[0] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(r.op) | kExtentFormat |
        (frame.closes_extent ? kClosesExtent : 0));
    store_le(out + 1, frame.epoch, 4);
    store_le(out + 5, frame.seq, 4);
    store_le(out + 9, r.lba, 8);
    store_le(out + 17, r.pbn, 8);
    store_le(out + 25, r.location.container_id, 8);
    store_le(out + 33, r.location.offset_units, 2);
    store_le(out + 35, r.location.compressed_size, 2);
    out[kJournalRecordSize - 1] = check_byte(out);
}

bool
MetadataJournal::decode(const std::uint8_t *raw, JournalRecord *record,
                        JournalFrame *frame)
{
    if (check_byte(raw) != raw[kJournalRecordSize - 1])
        return false;
    const std::uint8_t op = raw[0] & kOpMask;
    const std::uint8_t marks = raw[0] & ~kOpMask;
    if (op < 1 || op > 5 || marks == kClosesExtent)
        return false;
    record->op = static_cast<JournalOp>(op);
    frame->epoch = static_cast<std::uint32_t>(load_le(raw + 1, 4));
    frame->seq = static_cast<std::uint32_t>(load_le(raw + 5, 4));
    // No format mark: the per-record format, one record per commit.
    frame->closes_extent = marks != kExtentFormat;
    record->lba = load_le(raw + 9, 8);
    record->pbn = load_le(raw + 17, 8);
    record->location.container_id = load_le(raw + 25, 8);
    record->location.offset_units =
        static_cast<std::uint16_t>(load_le(raw + 33, 2));
    record->location.compressed_size =
        static_cast<std::uint16_t>(load_le(raw + 35, 2));
    return true;
}

MetadataJournal::MetadataJournal(ssd::Ssd &ssd, std::uint64_t base,
                                 std::uint64_t capacity)
    : ssd_(ssd), base_(base), capacity_(capacity)
{
    FIDR_CHECK(capacity_ >= kJournalRecordSize);
    FIDR_CHECK(base_ + capacity_ <= ssd.config().capacity_bytes);
}

void
MetadataJournal::stage(const JournalRecord &record)
{
    const std::size_t at = staged_.size();
    staged_.resize(at + kJournalRecordSize);
    const JournalFrame frame{
        epoch_, static_cast<std::uint32_t>(records_ + staged_records() - 1),
        false};
    encode(record, frame, staged_.data() + at);
}

Status
MetadataJournal::commit()
{
    if (staged_.empty())
        return Status::ok();
    if (head_ + staged_.size() > capacity_)
        return Status::out_of_space("journal full; checkpoint required");

    std::uint8_t *last = staged_.data() + staged_.size() - kJournalRecordSize;
    mark_closing(last, true);
    Status written = Status::ok();
    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kJournalAppend);
    if (fd.fire && fd.kind == fault::FaultKind::kError) {
        written = fault::to_status(fd, fault::Site::kJournalAppend);
    } else if (fd.fire && fd.kind == fault::FaultKind::kTornWrite) {
        // Power cut mid-extent: a prefix of it reaches the device
        // without its end mark, head_ stays put, so replay applies
        // none of it and a retry overwrites it.
        const std::size_t keep = fd.entropy % staged_.size();
        (void)ssd_.write(base_ + head_,
                         std::span<const std::uint8_t>(staged_.data(), keep));
        written = fault::to_status(fd, fault::Site::kJournalAppend);
    } else {
        written = ssd_.write(base_ + head_, staged_);
    }
    if (!written.is_ok()) {
        mark_closing(last, false);  // More records may join the retry.
        return written;
    }
    head_ += staged_.size();
    records_ += staged_records();
    staged_.clear();

    // Fence tombstone on the next slot, so replay stops cleanly even
    // when stale bytes survived a page-granular trim.  Best effort:
    // the epoch/seq framing already rejects stale records, so a lost
    // fence (injected fault) cannot resurrect old state.
    if (head_ + kJournalRecordSize <= capacity_) {
        const fault::FaultDecision fence_fd =
            FIDR_FAULT_EVAL(fault::Site::kJournalFence);
        if (!fence_fd.fire)
            (void)ssd_.write(base_ + head_, kFence);
    }
    return Status::ok();
}

void
MetadataJournal::reset()
{
    // Invalidate the on-SSD region so stale records cannot replay.
    ssd_.trim(base_, head_ + kJournalRecordSize);
    (void)ssd_.write(base_, kFence);
    head_ = 0;
    records_ = 0;
    staged_.clear();
    ++epoch_;  // Survivors of the trim are now provably stale.
}

Result<bool>
MetadataJournal::read_slot(std::uint64_t slot, JournalRecord *record,
                           JournalFrame *frame) const
{
    Result<Buffer> raw =
        ssd_.read(base_ + slot * kJournalRecordSize, kJournalRecordSize);
    if (!raw.is_ok())
        return raw.status();
    return decode(raw.value().data(), record, frame);
}

Result<MetadataJournal::ScanResult>
MetadataJournal::scan() const
{
    ScanResult out;
    const std::uint64_t slots = capacity_ / kJournalRecordSize;
    // Intact prefix: consecutive slots that decode with a consistent
    // epoch and seq == slot; records count once their extent closes.
    std::uint64_t slot = 0;
    std::size_t committed = 0;
    for (; slot < slots; ++slot) {
        FIDR_FAULT_RETURN_IF(fault::Site::kJournalReplay);
        JournalRecord record;
        JournalFrame frame;
        Result<bool> decoded = read_slot(slot, &record, &frame);
        if (!decoded.is_ok())
            return decoded.status();
        if (!decoded.value())
            break;  // Torn/blank slot: end of intact prefix.
        if (slot == 0)
            out.epoch = frame.epoch;
        else if (frame.epoch != out.epoch)
            break;  // Stale pre-reset record: end of intact prefix.
        if (frame.seq != slot)
            break;  // Duplicate/out-of-order seq: not applied again.
        out.records.push_back(record);
        if (frame.closes_extent)
            committed = out.records.size();
    }
    const std::uint64_t stop_slot = slot;
    out.records.resize(committed);  // A torn extent applies nothing.

    // Corrupt-middle detection: a valid same-epoch in-sequence end mark
    // past the stop proves the prefix lost part of a committed extent —
    // that must be an explicit error, never a silently shortened
    // journal.  An empty prefix skips the scan (nothing was committed,
    // and after reset() the stale-epoch remainder would be unjudgeable
    // anyway).
    if (stop_slot > 0) {
        std::uint64_t misses = 0;
        for (std::uint64_t p = stop_slot + 1;
             p < slots && misses < kCorruptionLookaheadSlots; ++p) {
            JournalRecord record;
            JournalFrame frame;
            Result<bool> decoded = read_slot(p, &record, &frame);
            if (!decoded.is_ok())
                return decoded.status();
            if (!decoded.value() || frame.epoch != out.epoch ||
                frame.seq != p) {
                ++misses;
                continue;
            }
            if (frame.closes_extent) {
                return Status::corruption(
                    "journal record " + std::to_string(stop_slot) +
                    " is corrupt but a committed extent follows");
            }
        }
    }
    return out;
}

Result<std::vector<JournalRecord>>
MetadataJournal::replay() const
{
    Result<ScanResult> scanned = scan();
    if (!scanned.is_ok())
        return scanned.status();
    return scanned.take().records;
}

Result<std::vector<JournalRecord>>
MetadataJournal::recover()
{
    Result<ScanResult> scanned = scan();
    if (!scanned.is_ok())
        return scanned.status();
    ScanResult result = scanned.take();

    staged_.clear();
    records_ = result.records.size();
    head_ = records_ * kJournalRecordSize;
    if (records_ > 0) {
        epoch_ = result.epoch;
    } else {
        // Empty journal: continue past any parseable stale epoch in
        // the nearby region so new appends are never mistakable for
        // pre-crash leftovers (covers a lost fence + fresh restart).
        std::uint32_t max_epoch = epoch_ > 0 ? epoch_ - 1 : 0;
        bool saw_stale = epoch_ > 0;
        const std::uint64_t slots = capacity_ / kJournalRecordSize;
        const std::uint64_t probe_end =
            std::min(slots, kCorruptionLookaheadSlots);
        for (std::uint64_t p = 0; p < probe_end; ++p) {
            JournalRecord record;
            JournalFrame frame;
            Result<bool> decoded = read_slot(p, &record, &frame);
            if (!decoded.is_ok())
                return decoded.status();
            if (decoded.value()) {
                saw_stale = true;
                max_epoch = std::max(max_epoch, frame.epoch);
            }
        }
        epoch_ = saw_stale ? max_epoch + 1 : epoch_;
    }
    return result.records;
}

void
MetadataJournal::apply(const std::vector<JournalRecord> &records,
                       LbaPbaTable &table)
{
    for (const JournalRecord &r : records) {
        switch (r.op) {
          case JournalOp::kMapLba:
            table.map_lba(r.lba, r.pbn);
            break;
          case JournalOp::kSetLocation:
            table.set_location(r.pbn, r.location);
            break;
          case JournalOp::kRetirePbn:
            table.reclaim(r.pbn);
            break;
          case JournalOp::kUnmapLba:
            table.unmap_lba(r.lba);
            break;
          case JournalOp::kCheckpoint:
            break;
        }
    }
}

LbaPbaTable
MetadataJournal::rebuild(const std::vector<JournalRecord> &records)
{
    LbaPbaTable table;
    apply(records, table);
    return table;
}

}  // namespace fidr::tables
