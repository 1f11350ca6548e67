#include "fidr/tables/lba_pba.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "fidr/common/bytes.h"

namespace fidr::tables {
namespace {

/** Checkpoint image magic ("FLPB" + version 1). */
constexpr std::uint64_t kSnapshotMagic = 0x01425045'4C444946ull;

}  // namespace

void
LbaPbaTable::drop_ref(Pbn pbn)
{
    PbnInfo *info = pbn_info_.find(pbn);
    FIDR_CHECK(info != nullptr && info->refcount > 0);
    --info->refcount;
}

std::optional<Pbn>
LbaPbaTable::map_lba(Lba lba, Pbn pbn)
{
    FIDR_CHECK(pbn <= kMaxPbn);
    std::optional<Pbn> previous;
    if (Pbn *mapped = lba_to_pbn_.find(lba)) {
        previous = std::exchange(*mapped, pbn);
        drop_ref(*previous);
    } else {
        lba_to_pbn_.put(lba, pbn);
    }
    ++pbn_info_[pbn].refcount;
    return previous;
}

std::optional<Pbn>
LbaPbaTable::unmap_lba(Lba lba)
{
    const Pbn *mapped = lba_to_pbn_.find(lba);
    if (mapped == nullptr)
        return std::nullopt;
    const Pbn pbn = *mapped;
    drop_ref(pbn);
    lba_to_pbn_.erase(lba);
    return pbn;
}

std::optional<Pbn>
LbaPbaTable::pbn_of(Lba lba) const
{
    const Pbn *mapped = lba_to_pbn_.find(lba);
    if (mapped == nullptr)
        return std::nullopt;
    return *mapped;
}

void
LbaPbaTable::set_location(Pbn pbn, const ChunkLocation &location)
{
    FIDR_CHECK(location.container_id != kNoContainer);
    PbnInfo &info = pbn_info_[pbn];
    info.container_id = location.container_id;
    info.offset_units = location.offset_units;
    info.compressed_size = location.compressed_size;
}

std::optional<ChunkLocation>
LbaPbaTable::location_of(Pbn pbn) const
{
    const PbnInfo *info = pbn_info_.find(pbn);
    if (info == nullptr || !info->has_location())
        return std::nullopt;
    return info->location();
}

std::optional<ChunkLocation>
LbaPbaTable::lookup(Lba lba) const
{
    const Pbn *mapped = lba_to_pbn_.find(lba);
    if (mapped == nullptr)
        return std::nullopt;
    return location_of(*mapped);
}

std::uint32_t
LbaPbaTable::refcount(Pbn pbn) const
{
    const PbnInfo *info = pbn_info_.find(pbn);
    return info == nullptr ? 0 : info->refcount;
}

bool
LbaPbaTable::reclaim(Pbn pbn)
{
    const PbnInfo *info = pbn_info_.find(pbn);
    if (info == nullptr || info->refcount != 0)
        return false;
    pbn_info_.erase(pbn);
    return true;
}

Buffer
LbaPbaTable::serialize() const
{
    // Records go out in key order, so the image names the contents and
    // not the table's probe layout.
    std::vector<std::pair<Pbn, ChunkLocation>> located;
    located.reserve(pbn_info_.size());
    pbn_info_.for_each([&](Pbn pbn, const PbnInfo &info) {
        if (info.has_location())
            located.emplace_back(pbn, info.location());
    });
    std::vector<std::pair<Lba, Pbn>> mapped;
    mapped.reserve(lba_to_pbn_.size());
    lba_to_pbn_.for_each(
        [&](Lba lba, Pbn pbn) { mapped.emplace_back(lba, pbn); });
    const auto by_key = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(located.begin(), located.end(), by_key);
    std::sort(mapped.begin(), mapped.end(), by_key);

    // Header: magic, #locations, #mappings.
    Buffer out(24 + located.size() * 20 + mapped.size() * 16);
    store_le(out.data(), kSnapshotMagic, 8);
    store_le(out.data() + 8, located.size(), 8);
    store_le(out.data() + 16, mapped.size(), 8);
    std::uint8_t *at = out.data() + 24;
    // PBN location records: pbn:8 container:8 offset:2 csize:2.
    for (const auto &[pbn, location] : located) {
        store_le(at, pbn, 8);
        store_le(at + 8, location.container_id, 8);
        store_le(at + 16, location.offset_units, 2);
        store_le(at + 18, location.compressed_size, 2);
        at += 20;
    }
    // LBA mappings: lba:8 pbn:8.
    for (const auto &[lba, pbn] : mapped) {
        store_le(at, lba, 8);
        store_le(at + 8, pbn, 8);
        at += 16;
    }
    return out;
}

Result<LbaPbaTable>
LbaPbaTable::deserialize(const Buffer &raw)
{
    if (raw.size() < 24 || load_le(raw.data(), 8) != kSnapshotMagic)
        return Status::corruption("bad LBA-PBA snapshot header");
    const std::uint64_t locations = load_le(raw.data() + 8, 8);
    const std::uint64_t mappings = load_le(raw.data() + 16, 8);
    if (raw.size() != 24 + locations * 20 + mappings * 16)
        return Status::corruption("LBA-PBA snapshot size mismatch");

    LbaPbaTable table;
    std::size_t off = 24;
    for (std::uint64_t i = 0; i < locations; ++i, off += 20) {
        ChunkLocation loc;
        const Pbn pbn = load_le(raw.data() + off, 8);
        if (pbn > kMaxPbn)
            return Status::corruption("snapshot PBN out of range");
        loc.container_id = load_le(raw.data() + off + 8, 8);
        if (loc.container_id == kNoContainer)
            return Status::corruption("snapshot container id out of range");
        loc.offset_units =
            static_cast<std::uint16_t>(load_le(raw.data() + off + 16, 2));
        loc.compressed_size =
            static_cast<std::uint16_t>(load_le(raw.data() + off + 18, 2));
        table.set_location(pbn, loc);
    }
    for (std::uint64_t i = 0; i < mappings; ++i, off += 16) {
        const Lba lba = load_le(raw.data() + off, 8);
        const Pbn pbn = load_le(raw.data() + off + 8, 8);
        if (pbn > kMaxPbn)
            return Status::corruption("snapshot PBN out of range");
        table.map_lba(lba, pbn);
    }
    return table;
}

void
LbaPbaTable::for_each_pbn(
    const std::function<void(Pbn, std::uint32_t,
                             const std::optional<ChunkLocation> &)>
        &visit) const
{
    pbn_info_.for_each([&](Pbn pbn, const PbnInfo &info) {
        std::optional<ChunkLocation> location;
        if (info.has_location())
            location = info.location();
        visit(pbn, info.refcount, location);
    });
}

Status
LbaPbaTable::validate() const
{
    FlatMap<Pbn, std::uint32_t, Mix64Hash> counted;
    bool dangling = false;
    lba_to_pbn_.for_each([&](Lba, Pbn pbn) {
        dangling |= pbn_info_.find(pbn) == nullptr;
        ++counted[pbn];
    });
    if (dangling)
        return Status::internal("LBA points at unknown PBN");
    bool mismatch = false;
    pbn_info_.for_each([&](Pbn pbn, const PbnInfo &info) {
        const std::uint32_t *count = counted.find(pbn);
        mismatch |= info.refcount != (count == nullptr ? 0 : *count);
    });
    if (mismatch)
        return Status::internal("PBN refcount mismatch");
    return Status::ok();
}

}  // namespace fidr::tables
