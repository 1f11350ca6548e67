#include "fidr/tables/container.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "fidr/common/bytes.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"
#include "fidr/obs/trace.h"

namespace fidr::tables {

namespace {

constexpr std::uint64_t kHeaderMagic = 0xF1D75EA1C047A14Eull;
constexpr std::uint64_t kSuperblockMagic = 0xF1D75B10C25E0001ull;
constexpr std::uint64_t kSuperblockSlotBytes = 4096;
constexpr std::uint64_t kPageBytes = 4096;

/** Encoded header prefix covered by the checksum. */
constexpr std::size_t kHeaderChecked = 36;

std::uint64_t
round_up_pages(std::uint64_t bytes)
{
    return (bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
}

}  // namespace

ContainerLog::ContainerLog(ssd::SsdArray &data_ssds,
                           std::uint64_t container_bytes,
                           std::uint64_t superblock_interval,
                           std::uint64_t spill_reserve_bytes)
    : data_ssds_(data_ssds), container_bytes_(container_bytes),
      superblock_interval_(superblock_interval)
{
    FIDR_CHECK(container_bytes_ >= kChunkSize);
    // The 2-byte offset in kOffsetUnit steps must span the container.
    FIDR_CHECK(container_bytes_ <= 65536ull * kOffsetUnit);

    slot_stride_ = round_up_pages(container_bytes_ + kContainerHeaderBytes);
    const std::uint64_t capacity = data_ssds_.at(0).config().capacity_bytes;
    FIDR_CHECK(capacity > kContainerReservedBytes + slot_stride_);
    slots_per_ssd_ = (capacity - kContainerReservedBytes) / slot_stride_;
    // The spill ring takes whole slots off the tail of the last SSD,
    // so container addressing stays uniform and the two regions can
    // never alias (a trimmed slot cannot eat spilled bytes and vice
    // versa).
    spill_ssd_ = data_ssds_.size() - 1;
    if (spill_reserve_bytes > 0) {
        spill_slots_ =
            (spill_reserve_bytes + slot_stride_ - 1) / slot_stride_;
        FIDR_CHECK(spill_slots_ < slots_per_ssd_);
    }
    free_slots_.resize(data_ssds_.size());
    next_slot_.resize(data_ssds_.size(), 0);
    open_new();
}

void
ContainerLog::open_new()
{
    infos_.push_back(ContainerInfo{});
    open_buffer_.clear();
    open_buffer_.reserve(container_bytes_);
}

Result<std::uint64_t>
ContainerLog::take_slot(std::size_t ssd)
{
    std::vector<std::uint64_t> &free = free_slots_[ssd];
    if (!free.empty()) {
        // Lowest-numbered free slot first (the libreduce allocation
        // order), so placement is deterministic under churn.
        const std::uint64_t slot = free.front();
        free.erase(free.begin());
        return slot;
    }
    if (next_slot_[ssd] < slot_cap(ssd))
        return next_slot_[ssd]++;
    return Status::out_of_space("data SSD has no free container slot");
}

void
ContainerLog::return_slot(std::size_t ssd, std::uint64_t slot)
{
    std::vector<std::uint64_t> &free = free_slots_[ssd];
    free.insert(std::lower_bound(free.begin(), free.end(), slot), slot);
}

Result<ChunkLocation>
ContainerLog::append(std::span<const std::uint8_t> compressed)
{
    if (compressed.empty() || compressed.size() > 0xFFFF)
        return Status::invalid_argument("compressed chunk size out of range");

    // Injected engine-memory fault before any mutation: a failed
    // append leaves the open container exactly as it was.
    FIDR_FAULT_RETURN_IF(fault::Site::kContainerAppend);

    // 64-byte alignment keeps offsets representable in 2 bytes.
    const std::uint64_t padded =
        (compressed.size() + kOffsetUnit - 1) / kOffsetUnit * kOffsetUnit;
    if (open_buffer_.size() + padded > container_bytes_) {
        const Status sealed = flush();
        if (!sealed.is_ok())
            return sealed;
    }

    ChunkLocation location;
    location.container_id = open_id();
    location.offset_units =
        static_cast<std::uint16_t>(open_buffer_.size() / kOffsetUnit);
    location.compressed_size = static_cast<std::uint16_t>(compressed.size());

    open_buffer_.insert(open_buffer_.end(), compressed.begin(),
                        compressed.end());
    open_buffer_.resize(open_buffer_.size() + (padded - compressed.size()),
                        0);
    infos_.back().payload_bytes += compressed.size();
    return location;
}

Buffer
ContainerLog::encode_header(const ContainerInfo &info,
                            std::uint64_t container_id) const
{
    Buffer out(kContainerHeaderBytes, 0);
    store_le(out.data(), kHeaderMagic, 8);
    store_le(out.data() + 8, kContainerFormatVersion, 4);
    store_le(out.data() + 12, container_id, 8);
    store_le(out.data() + 20, info.bytes, 8);
    store_le(out.data() + 28, info.payload_bytes, 8);
    store_le(out.data() + kHeaderChecked,
             fnv1a64({out.data(), kHeaderChecked}), 8);
    return out;
}

Status
ContainerLog::flush()
{
    if (open_buffer_.empty())
        return Status::ok();

    // Injected seal fault before allocation: the open buffer survives
    // in engine memory, so a retried flush() seals the same content.
    FIDR_FAULT_RETURN_IF(fault::Site::kContainerSeal);

    // Container ids stripe round-robin across the array; the slot is
    // the lowest free one on that stripe member.
    const std::size_t ssd =
        static_cast<std::size_t>(open_id() % data_ssds_.size());
    Result<std::uint64_t> slot = take_slot(ssd);
    if (!slot.is_ok())
        return slot.status();
    const std::uint64_t base = slot_addr(slot.value());

    ContainerInfo &info = infos_.back();
    info.ssd_index = ssd;
    info.slot = slot.value();
    info.base_addr = base;
    info.bytes = open_buffer_.size();

    // Data before metadata: payload first, the commit header last.  A
    // power cut (or injected torn write) between the two leaves an
    // invalid header, and the container simply never existed — its
    // chunks are still acked-and-buffered in engine NVRAM.
    const Status payload = data_ssds_.at(ssd).write(base, open_buffer_);
    if (!payload.is_ok()) {
        return_slot(ssd, slot.value());
        return payload;
    }
    const Buffer header = encode_header(info, open_id());
    const Status committed = data_ssds_.at(ssd).write(
        base + slot_stride_ - kContainerHeaderBytes, header);
    if (!committed.is_ok()) {
        return_slot(ssd, slot.value());
        return committed;
    }

    info.sealed = true;
    ++sealed_;
    ++used_slots_;
    open_new();

    // Superblock cadence is best effort: headers are the source of
    // truth, so a failed write only delays the high-water checkpoint
    // (recovery scans past it; discard writes one mandatorily).
    if (++seals_since_superblock_ >= superblock_interval_ ||
        superblock_interval_ == 0) {
        seals_since_superblock_ = 0;
        if (!write_superblock().is_ok())
            ++stats_.superblock_write_failures;
    }
    return Status::ok();
}

Buffer
ContainerLog::encode_superblock(std::uint64_t seq) const
{
    // magic | version | seq | next_seal_id | ssd count | per-SSD slot
    // high-water | fnv64.  Fixed-size state only: the directory itself
    // is the slot headers, so the superblock never grows with churn.
    Buffer out(32 + 8 * data_ssds_.size() + 8, 0);
    FIDR_CHECK(out.size() <= kSuperblockSlotBytes);
    store_le(out.data(), kSuperblockMagic, 8);
    store_le(out.data() + 8, kContainerFormatVersion, 4);
    store_le(out.data() + 12, seq, 8);
    store_le(out.data() + 20, open_id(), 8);  // Ids below are spoken for.
    store_le(out.data() + 28, data_ssds_.size(), 4);
    for (std::size_t i = 0; i < data_ssds_.size(); ++i)
        store_le(out.data() + 32 + 8 * i, next_slot_[i], 8);
    const std::size_t checked = out.size() - 8;
    store_le(out.data() + checked, fnv1a64({out.data(), checked}), 8);
    return out;
}

Status
ContainerLog::write_superblock()
{
    FIDR_FAULT_RETURN_IF(fault::Site::kGcSuperblock);
    const std::uint64_t seq = superblock_seq_ + 1;
    // A/B slots: a torn write of version N+1 leaves version N intact.
    const std::uint64_t addr = (seq % 2) * kSuperblockSlotBytes;
    const Status written =
        data_ssds_.at(0).write(addr, encode_superblock(seq));
    if (!written.is_ok())
        return written;
    superblock_seq_ = seq;
    ++stats_.superblock_writes;
    FIDR_TPOINT(obs::Tpoint::kGcSuperblock, seq, 0);
    return Status::ok();
}

Result<std::optional<ContainerLog::SuperblockImage>>
ContainerLog::read_superblocks() const
{
    std::optional<SuperblockImage> best;
    for (std::uint64_t slot = 0; slot < 2; ++slot) {
        FIDR_FAULT_RETURN_IF(fault::Site::kGcReplay);
        Result<Buffer> raw = data_ssds_.at(0).read(
            slot * kSuperblockSlotBytes, kSuperblockSlotBytes);
        if (!raw.is_ok())
            return raw.status();
        const std::uint8_t *p = raw.value().data();
        if (load_le(p, 8) != kSuperblockMagic)
            continue;  // Never written (virgin device) or torn.
        if (load_le(p + 8, 4) != kContainerFormatVersion)
            return Status::corruption("unsupported container-log format");
        const std::size_t ssds = load_le(p + 28, 4);
        if (ssds != data_ssds_.size())
            return Status::corruption("superblock SSD count mismatch");
        const std::size_t checked = 32 + 8 * ssds;
        if (checked + 8 > kSuperblockSlotBytes ||
            load_le(p + checked, 8) != fnv1a64({p, checked}))
            continue;  // Torn superblock write: fall back to the twin.
        SuperblockImage image;
        image.seq = load_le(p + 12, 8);
        image.next_seal_id = load_le(p + 20, 8);
        for (std::size_t i = 0; i < ssds; ++i) {
            const std::uint64_t hw = load_le(p + 32 + 8 * i, 8);
            if (hw > slot_cap(i))
                return Status::corruption("superblock slot high-water "
                                          "exceeds device");
            image.next_slot.push_back(hw);
        }
        if (!best || image.seq > best->seq)
            best = std::move(image);
    }
    return best;
}

Status
ContainerLog::recover()
{
    Result<std::optional<SuperblockImage>> sb = read_superblocks();
    if (!sb.is_ok())
        return sb.status();

    // Scan every slot's commit header.  The superblock's high-water
    // marks may lag the tail (seal-time writes are best effort), so
    // the scan covers the whole slot range and *adopts* any valid
    // header — the log replay that makes recovery independent of the
    // in-memory maps.
    struct Adopted {
        std::size_t ssd = 0;
        std::uint64_t slot = 0;
        std::uint64_t bytes = 0;
        std::uint64_t payload = 0;
    };
    std::unordered_map<std::uint64_t, Adopted> adopted;
    stats_.headers_scanned = 0;
    for (std::size_t ssd = 0; ssd < data_ssds_.size(); ++ssd) {
        for (std::uint64_t slot = 0; slot < slot_cap(ssd); ++slot) {
            FIDR_FAULT_RETURN_IF(fault::Site::kGcReplay);
            Result<Buffer> raw = data_ssds_.at(ssd).read(
                slot_addr(slot) + slot_stride_ - kContainerHeaderBytes,
                kContainerHeaderBytes);
            if (!raw.is_ok())
                return raw.status();
            ++stats_.headers_scanned;
            const std::uint8_t *p = raw.value().data();
            if (load_le(p, 8) != kHeaderMagic)
                continue;  // Unwritten or trimmed slot.
            if (load_le(p + 8, 4) != kContainerFormatVersion)
                return Status::corruption("unsupported container format");
            if (load_le(p + kHeaderChecked, 8) !=
                fnv1a64({p, kHeaderChecked}))
                continue;  // Torn seal: the container never existed.
            Adopted entry{ssd, slot, load_le(p + 20, 8),
                          load_le(p + 28, 8)};
            const std::uint64_t id = load_le(p + 12, 8);
            if (entry.bytes == 0 ||
                entry.bytes > slot_stride_ - kContainerHeaderBytes ||
                id % data_ssds_.size() != ssd ||
                !adopted.emplace(id, entry).second) {
                return Status::corruption(
                    "container header inconsistent with slot layout");
            }
        }
    }

    // Container ids never recycle: the floor is the superblock's
    // high-water mark, so a crash after "discard the newest N
    // containers" cannot re-issue their ids (the discard wrote the
    // superblock before trimming).
    std::uint64_t next_id = sb.value() ? sb.value()->next_seal_id : 0;
    for (const auto &[id, entry] : adopted)
        next_id = std::max(next_id, id + 1);

    // The open container is battery-backed engine memory: it survives
    // the crash with its id and content (the NIC-NVRAM durability
    // model).  Everything sealed is rebuilt from the device.
    const std::uint64_t open_payload =
        infos_.empty() ? 0 : infos_.back().payload_bytes;
    infos_.assign(next_id, ContainerInfo{.sealed = true, .discarded = true});
    sealed_ = 0;
    used_slots_ = 0;
    std::fill(next_slot_.begin(), next_slot_.end(), 0);
    if (sb.value()) {
        for (std::size_t i = 0; i < data_ssds_.size(); ++i)
            next_slot_[i] = sb.value()->next_slot[i];
    }
    std::vector<std::vector<bool>> occupied(
        data_ssds_.size(), std::vector<bool>(slots_per_ssd_, false));
    std::uint64_t tail = 0;
    for (const auto &[id, entry] : adopted) {
        ContainerInfo &info = infos_[id];
        info.ssd_index = entry.ssd;
        info.slot = entry.slot;
        info.base_addr = slot_addr(entry.slot);
        info.bytes = entry.bytes;
        info.payload_bytes = entry.payload;
        info.sealed = true;
        info.discarded = false;
        ++sealed_;
        ++used_slots_;
        occupied[entry.ssd][entry.slot] = true;
        next_slot_[entry.ssd] =
            std::max(next_slot_[entry.ssd], entry.slot + 1);
        if (!sb.value() || id >= sb.value()->next_seal_id)
            ++tail;
    }
    for (std::size_t ssd = 0; ssd < data_ssds_.size(); ++ssd) {
        free_slots_[ssd].clear();
        for (std::uint64_t slot = 0; slot < next_slot_[ssd]; ++slot) {
            if (!occupied[ssd][slot])
                free_slots_[ssd].push_back(slot);
        }
    }

    // Re-open the surviving open container under the recovered id.
    infos_.push_back(ContainerInfo{.payload_bytes = open_payload});
    superblock_seq_ = sb.value() ? sb.value()->seq : 0;
    seals_since_superblock_ = 0;
    stats_.containers_recovered = sealed_;
    stats_.tail_adopted = tail;
    return Status::ok();
}

std::size_t
ContainerLog::ssd_index_of(std::uint64_t container_id) const
{
    if (container_id < infos_.size() && infos_[container_id].sealed)
        return infos_[container_id].ssd_index;
    return static_cast<std::size_t>(container_id % data_ssds_.size());
}

bool
ContainerLog::sealed(std::uint64_t container_id) const
{
    return container_id < infos_.size() &&
           infos_[container_id].sealed &&
           !infos_[container_id].discarded;
}

std::optional<ContainerInfo>
ContainerLog::info_of(std::uint64_t container_id) const
{
    if (container_id >= infos_.size())
        return std::nullopt;
    return infos_[container_id];
}

std::uint64_t
ContainerLog::total_slots() const
{
    std::uint64_t total = 0;
    for (std::size_t ssd = 0; ssd < data_ssds_.size(); ++ssd)
        total += slot_cap(ssd);
    return total;
}

std::uint64_t
ContainerLog::spill_capacity_bytes() const
{
    if (spill_slots_ == 0)
        return 0;
    // The reserved slots plus whatever tail slack sits past the last
    // full slot: all raw device bytes behind spill_base() are ours.
    return data_ssds_.at(spill_ssd_).config().capacity_bytes -
           spill_base();
}

double
ContainerLog::free_slot_fraction() const
{
    const std::uint64_t total = total_slots();
    return total > 0 ? static_cast<double>(free_slots()) /
                           static_cast<double>(total)
                     : 0.0;
}

Result<std::uint64_t>
ContainerLog::discard(std::uint64_t container_id)
{
    if (!sealed(container_id))
        return Status::invalid_argument(
            "only sealed, undiscarded containers can be released");
    FIDR_FAULT_RETURN_IF(fault::Site::kGcDiscard);

    // The superblock (with the current id high-water) must be durable
    // *before* the trim: after the trim this container's header is
    // gone, and only the superblock floor stops a recovered log from
    // re-issuing its id.  A failed write aborts the discard — the
    // container stays live and GC retries later.
    const Status sb = write_superblock();
    if (!sb.is_ok())
        return sb;

    ContainerInfo &info = infos_[container_id];
    data_ssds_.at(info.ssd_index).trim(info.base_addr, slot_stride_);
    info.discarded = true;
    return_slot(info.ssd_index, info.slot);
    --used_slots_;
    ++stats_.discards;
    FIDR_TPOINT(obs::Tpoint::kGcDiscard, container_id, info.bytes);
    return info.bytes;
}

Result<Buffer>
ContainerLog::read(const ChunkLocation &location) const
{
    if (location.container_id >= infos_.size())
        return Status::not_found("unknown container");
    const ContainerInfo &info = infos_[location.container_id];
    if (info.discarded)
        return Status::not_found("container was reclaimed");
    const std::uint64_t offset = location.offset_bytes();
    const std::uint64_t len = location.compressed_size;

    if (!info.sealed) {
        // Still buffered: only the open (last) container can be unsealed.
        if (location.container_id != open_id() ||
            offset + len > open_buffer_.size()) {
            return Status::not_found("chunk not in open container");
        }
        return Buffer(open_buffer_.begin() + static_cast<long>(offset),
                      open_buffer_.begin() + static_cast<long>(offset + len));
    }
    if (offset + len > info.bytes)
        return Status::corruption("chunk location past container end");
    return data_ssds_.at(info.ssd_index).read(info.base_addr + offset, len);
}

}  // namespace fidr::tables
