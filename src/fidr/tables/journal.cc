#include "fidr/tables/journal.h"

#include <algorithm>

#include "fidr/common/bytes.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"

namespace fidr::tables {
namespace {

/**
 * Slots probed past the intact prefix before concluding the journal
 * simply ends there.  A valid same-epoch in-sequence record inside
 * this window proves a corrupt middle; corruption bursts longer than
 * the window are indistinguishable from a torn tail (best effort).
 */
constexpr std::uint64_t kCorruptionLookaheadSlots = 64;

}  // namespace

Buffer
MetadataJournal::encode(const JournalRecord &r, std::uint32_t epoch,
                        std::uint32_t seq)
{
    Buffer out(kJournalRecordSize, 0);
    out[0] = static_cast<std::uint8_t>(r.op);
    store_le(out.data() + 1, epoch, 4);
    store_le(out.data() + 5, seq, 4);
    store_le(out.data() + 9, r.lba, 8);
    store_le(out.data() + 17, r.pbn, 8);
    store_le(out.data() + 25, r.location.container_id, 8);
    store_le(out.data() + 33, r.location.offset_units, 2);
    store_le(out.data() + 35, r.location.compressed_size, 2);
    // FNV-based check byte: position-sensitive, so multi-byte
    // corruption cannot cancel out the way XOR parity can.  The 0xA5
    // offset keeps an all-zero slot recognizably torn.
    const std::uint64_t h = fnv1a64(
        std::span<const std::uint8_t>(out.data(), out.size() - 1));
    out.back() = static_cast<std::uint8_t>(h) ^ 0xA5;
    return out;
}

bool
MetadataJournal::decode(const std::uint8_t *raw, JournalRecord *record,
                        std::uint32_t *epoch, std::uint32_t *seq)
{
    const std::uint64_t h = fnv1a64(
        std::span<const std::uint8_t>(raw, kJournalRecordSize - 1));
    if ((static_cast<std::uint8_t>(h) ^ 0xA5) !=
        raw[kJournalRecordSize - 1])
        return false;
    const std::uint8_t op = raw[0];
    if (op < 1 || op > 5)
        return false;
    record->op = static_cast<JournalOp>(op);
    *epoch = static_cast<std::uint32_t>(load_le(raw + 1, 4));
    *seq = static_cast<std::uint32_t>(load_le(raw + 5, 4));
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

Status
MetadataJournal::append(const JournalRecord &record)
{
    if (head_ + kJournalRecordSize > capacity_)
        return Status::out_of_space("journal full; checkpoint required");

    const Buffer framed =
        encode(record, epoch_, static_cast<std::uint32_t>(records_));

    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kJournalAppend);
    if (fd.fire) {
        if (fd.kind == fault::FaultKind::kError)
            return fault::to_status(fd, fault::Site::kJournalAppend);
        if (fd.kind == fault::FaultKind::kTornWrite) {
            // Power cut mid-append: a prefix of the record reaches the
            // device, head_ stays put, so a retry overwrites the torn
            // slot and replay truncates at it.
            const std::size_t keep = fd.entropy % framed.size();
            (void)ssd_.write(
                base_ + head_,
                std::span<const std::uint8_t>(framed.data(), keep));
            return fault::to_status(fd, fault::Site::kJournalAppend);
        }
    }

    const Status written = ssd_.write(base_ + head_, framed);
    if (!written.is_ok())
        return written;
    head_ += kJournalRecordSize;
    ++records_;

    // Fence tombstone on the next slot, so replay stops cleanly even
    // when stale bytes survived a page-granular trim.  Best effort:
    // the epoch/seq framing already rejects stale records, so a lost
    // fence (injected fault) cannot resurrect old state.
    if (head_ + kJournalRecordSize <= capacity_) {
        const fault::FaultDecision fence_fd =
            FIDR_FAULT_EVAL(fault::Site::kJournalFence);
        if (!fence_fd.fire) {
            const Buffer zero(kJournalRecordSize, 0);
            (void)ssd_.write(base_ + head_, zero);
        }
    }
    return Status::ok();
}

void
MetadataJournal::reset()
{
    // Invalidate the on-SSD region so stale records cannot replay.
    ssd_.trim(base_, head_ + kJournalRecordSize);
    Buffer zero(kJournalRecordSize, 0);
    (void)ssd_.write(base_, zero);
    head_ = 0;
    records_ = 0;
    ++epoch_;  // Survivors of the trim are now provably stale.
}

Result<MetadataJournal::ScanResult>
MetadataJournal::scan() const
{
    ScanResult out;
    const std::uint64_t slots = capacity_ / kJournalRecordSize;

    // Intact prefix: consecutive slots that decode with a consistent
    // epoch and seq == slot.
    std::uint64_t slot = 0;
    for (; slot < slots; ++slot) {
        FIDR_FAULT_RETURN_IF(fault::Site::kJournalReplay);
        Result<Buffer> raw = ssd_.read(
            base_ + slot * kJournalRecordSize, kJournalRecordSize);
        if (!raw.is_ok())
            return raw.status();
        JournalRecord record;
        std::uint32_t epoch = 0;
        std::uint32_t seq = 0;
        if (!decode(raw.value().data(), &record, &epoch, &seq))
            break;  // Torn/blank slot: end of intact prefix.
        if (slot == 0)
            out.epoch = epoch;
        else if (epoch != out.epoch)
            break;  // Stale pre-reset record: end of intact prefix.
        if (seq != slot)
            break;  // Duplicate/out-of-order seq: not applied again.
        out.records.push_back(record);
    }
    out.stop_slot = slot;

    // Corrupt-middle detection: a valid same-epoch in-sequence record
    // past the stop proves the prefix lost a record — that must be an
    // explicit error, never a silently shortened journal.  An empty
    // prefix skips the scan (nothing was committed, and after reset()
    // the stale-epoch remainder would be unjudgeable anyway).
    if (!out.records.empty()) {
        const std::uint64_t probe_end = std::min(
            slots, out.stop_slot + 1 + kCorruptionLookaheadSlots);
        for (std::uint64_t p = out.stop_slot + 1; p < probe_end; ++p) {
            Result<Buffer> raw = ssd_.read(
                base_ + p * kJournalRecordSize, kJournalRecordSize);
            if (!raw.is_ok())
                return raw.status();
            JournalRecord record;
            std::uint32_t epoch = 0;
            std::uint32_t seq = 0;
            if (decode(raw.value().data(), &record, &epoch, &seq) &&
                epoch == out.epoch && seq == p) {
                return Status::corruption(
                    "journal record " + std::to_string(out.stop_slot) +
                    " is corrupt but an intact tail follows");
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
            Result<Buffer> raw = ssd_.read(
                base_ + p * kJournalRecordSize, kJournalRecordSize);
            if (!raw.is_ok())
                return raw.status();
            JournalRecord record;
            std::uint32_t epoch = 0;
            std::uint32_t seq = 0;
            if (decode(raw.value().data(), &record, &epoch, &seq)) {
                saw_stale = true;
                max_epoch = std::max(max_epoch, epoch);
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
