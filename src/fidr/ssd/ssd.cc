#include "fidr/ssd/ssd.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "fidr/fault/failpoint.h"

namespace fidr::ssd {
namespace {

/** What read_page returns for a page that was never written. */
alignas(64) constexpr std::uint8_t kZeroPage[Ssd::kPageSize] = {};

/** Slabs of destroyed devices, and how many were ever mapped.  Never
 *  destroyed, so a device that outlives static destruction can still
 *  return its slabs. */
struct SlabPool {
    std::mutex mutex;
    std::vector<std::uint8_t *> free;
    std::size_t mapped = 0;
};

SlabPool &
slab_pool()
{
    static SlabPool *const pool = new SlabPool;
    return *pool;
}

}  // namespace

Ssd::Ssd(SsdConfig config)
    : config_(std::move(config)),
      read_pipe_(config_.read_bandwidth),
      write_pipe_(config_.write_bandwidth)
{
}

Ssd::~Ssd()
{
    SlabPool &pool = slab_pool();
    const std::lock_guard lock(pool.mutex);
    pool.free.insert(pool.free.end(), slabs_.begin(), slabs_.end());
}

std::size_t
Ssd::mapped_slabs()
{
    SlabPool &pool = slab_pool();
    const std::lock_guard lock(pool.mutex);
    return pool.mapped;
}

Ssd::Frame &
Ssd::page_for_write(std::uint64_t page_no)
{
    Frame &frame = pages_[page_no];
    if (frame.bytes != nullptr)
        return frame;
    if (!free_frames_.empty()) {
        // A recycled frame is zero past the extent it was trimmed with.
        frame = free_frames_.back();
        free_frames_.pop_back();
        std::memset(frame.bytes, 0, frame.extent);
        frame.extent = 0;
        return frame;
    }
    if (slab_next_ == kSlabPages) {
        // A dead device's slab first: the frames it wrote stay
        // resident, so writing them again takes no page fault.
        SlabPool &pool = slab_pool();
        std::unique_lock lock(pool.mutex);
        if (!pool.free.empty()) {
            slabs_.push_back(pool.free.back());
            pool.free.pop_back();
        } else {
            ++pool.mapped;
            lock.unlock();
            void *slab = ::mmap(nullptr, kSlabPages * kPageSize,
                                PROT_READ | PROT_WRITE,
                                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            FIDR_CHECK(slab != MAP_FAILED);
            slabs_.push_back(static_cast<std::uint8_t *>(slab));
        }
        slab_next_ = 0;
    }
    // A recycled slab holds its last owner's bytes.
    frame.bytes = slabs_.back() + slab_next_++ * kPageSize;
    std::memset(frame.bytes, 0, kPageSize);
    return frame;
}

void
Ssd::store_bytes(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    std::uint64_t off = 0;
    while (off < data.size()) {
        const std::uint64_t page_no = (addr + off) / kPageSize;
        const std::uint64_t in_page = (addr + off) % kPageSize;
        const std::uint64_t take =
            std::min<std::uint64_t>(kPageSize - in_page, data.size() - off);
        Frame &frame = page_for_write(page_no);
        std::memcpy(frame.bytes + in_page, data.data() + off, take);
        frame.extent = std::max<std::uint32_t>(
            frame.extent, static_cast<std::uint32_t>(in_page + take));
        off += take;
    }
}

Status
Ssd::write(std::uint64_t addr, std::span<const std::uint8_t> data)
{
    if (addr + data.size() > config_.capacity_bytes)
        return Status::out_of_space(config_.name + ": write past capacity");

    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kSsdWrite);
    if (fd.fire) {
        if (fd.kind == fault::FaultKind::kError) {
            ++write_errors_;
            return fault::to_status(fd, fault::Site::kSsdWrite);
        }
        if (fd.kind == fault::FaultKind::kTornWrite) {
            // Power-cut model: a deterministic prefix reaches flash,
            // the rest is lost, and the command reports failure.
            ++write_errors_;
            const std::uint64_t keep =
                data.empty() ? 0 : fd.entropy % data.size();
            store_bytes(addr, data.first(keep));
            bytes_written_ += keep;
            ++write_ios_;
            return fault::to_status(fd, fault::Site::kSsdWrite);
        }
        if (fd.kind == fault::FaultKind::kBitFlip && !data.empty()) {
            // Silent media corruption: the payload lands with one
            // deterministically chosen bit flipped.
            Buffer damaged(data.begin(), data.end());
            damaged[(fd.entropy >> 3) % damaged.size()] ^=
                static_cast<std::uint8_t>(1u << (fd.entropy & 7));
            store_bytes(addr, damaged);
            bytes_written_ += data.size();
            ++write_ios_;
            return Status::ok();
        }
        // Latency spike: accounted by the registry; completes normally.
    }

    store_bytes(addr, data);
    bytes_written_ += data.size();
    ++write_ios_;
    return Status::ok();
}

Result<Buffer>
Ssd::read(std::uint64_t addr, std::uint64_t len) const
{
    if (addr + len > config_.capacity_bytes)
        return Status::invalid_argument(config_.name + ": read past capacity");
    // Mutable statistics on a logically-const read: stats are not part
    // of the observable storage state.
    auto *self = const_cast<Ssd *>(this);

    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kSsdRead);
    if (fd.fire && fd.kind == fault::FaultKind::kError) {
        self->read_errors_.fetch_add(1, std::memory_order_relaxed);
        return fault::to_status(fd, fault::Site::kSsdRead);
    }

    // One pass over the page frames: each byte is written once,
    // copied from its frame or zeroed where no page was ever written.
    Buffer out;
    out.reserve(len);
    while (out.size() < len) {
        const std::uint64_t off = out.size();
        const std::uint64_t page_no = (addr + off) / kPageSize;
        const std::uint64_t in_page = (addr + off) % kPageSize;
        const std::uint64_t take =
            std::min<std::uint64_t>(kPageSize - in_page, len - off);
        if (const Frame *page = pages_.find(page_no)) {
            const std::uint8_t *frame = page->bytes + in_page;
            out.insert(out.end(), frame, frame + take);
        } else {
            out.resize(off + take);
        }
    }
    if (fd.fire && fd.kind == fault::FaultKind::kBitFlip && len > 0) {
        // Transient read corruption: the flash content is intact but
        // one bit of the returned buffer flips (scrub catches this).
        out[(fd.entropy >> 3) % out.size()] ^=
            static_cast<std::uint8_t>(1u << (fd.entropy & 7));
    }
    self->bytes_read_.fetch_add(len, std::memory_order_relaxed);
    self->read_ios_.fetch_add(1, std::memory_order_relaxed);
    return out;
}

Result<const std::uint8_t *>
Ssd::read_page(std::uint64_t addr,
               std::span<std::uint8_t, kPageSize> scratch) const
{
    FIDR_CHECK(addr % kPageSize == 0);
    if (addr + kPageSize > config_.capacity_bytes)
        return Status::invalid_argument(config_.name + ": read past capacity");
    auto *self = const_cast<Ssd *>(this);

    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kSsdRead);
    if (fd.fire && fd.kind == fault::FaultKind::kError) {
        self->read_errors_.fetch_add(1, std::memory_order_relaxed);
        return fault::to_status(fd, fault::Site::kSsdRead);
    }

    const Frame *page = pages_.find(addr / kPageSize);
    const std::uint8_t *bytes = page != nullptr ? page->bytes : kZeroPage;
    if (fd.fire && fd.kind == fault::FaultKind::kBitFlip) {
        // Same damage read() would return, on a copy: flash stays intact.
        std::memcpy(scratch.data(), bytes, kPageSize);
        scratch[(fd.entropy >> 3) % kPageSize] ^=
            static_cast<std::uint8_t>(1u << (fd.entropy & 7));
        bytes = scratch.data();
    }
    self->bytes_read_.fetch_add(kPageSize, std::memory_order_relaxed);
    self->read_ios_.fetch_add(1, std::memory_order_relaxed);
    return bytes;
}

Status
Ssd::write_page(std::uint64_t addr, std::span<const std::uint8_t> head)
{
    FIDR_CHECK(addr % kPageSize == 0 && head.size() <= kPageSize);
    if (addr + kPageSize > config_.capacity_bytes)
        return Status::out_of_space(config_.name + ": write past capacity");

    // The whole-page image is `head` then zeros; a torn write lands its
    // first `keep` bytes, exactly as write() of that image would.
    std::size_t keep = kPageSize;
    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kSsdWrite);
    if (fd.fire) {
        if (fd.kind == fault::FaultKind::kError) {
            ++write_errors_;
            return fault::to_status(fd, fault::Site::kSsdWrite);
        }
        if (fd.kind == fault::FaultKind::kTornWrite) {
            ++write_errors_;
            keep = fd.entropy % kPageSize;
        }
    }

    if (keep > 0) {
        Frame &frame = page_for_write(addr / kPageSize);
        const std::size_t copied = std::min(keep, head.size());
        std::memcpy(frame.bytes, head.data(), copied);
        const std::size_t stale_end = std::min<std::size_t>(keep, frame.extent);
        if (stale_end > copied)
            std::memset(frame.bytes + copied, 0, stale_end - copied);
        // Bytes past `keep` are the old image's (torn write only).
        if (keep >= frame.extent)
            frame.extent = static_cast<std::uint32_t>(copied);
        if (fd.fire && fd.kind == fault::FaultKind::kBitFlip) {
            const std::size_t at = (fd.entropy >> 3) % kPageSize;
            frame.bytes[at] ^=
                static_cast<std::uint8_t>(1u << (fd.entropy & 7));
            frame.extent = std::max<std::uint32_t>(
                frame.extent, static_cast<std::uint32_t>(at + 1));
        }
    }
    bytes_written_ += keep;
    ++write_ios_;
    if (keep < kPageSize)
        return fault::to_status(fd, fault::Site::kSsdWrite);
    return Status::ok();
}

void
Ssd::trim(std::uint64_t addr, std::uint64_t len)
{
    const std::uint64_t first_page = (addr + kPageSize - 1) / kPageSize;
    const std::uint64_t end_page = (addr + len) / kPageSize;
    for (std::uint64_t p = first_page; p < end_page; ++p) {
        const Frame *page = pages_.find(p);
        if (page == nullptr)
            continue;
        free_frames_.push_back(*page);
        pages_.erase(p);
    }
}

SimTime
Ssd::io_complete_time(SimTime now, IoDir dir, std::uint64_t bytes)
{
    if (dir == IoDir::kRead)
        return config_.read_latency + read_pipe_.transfer(now, bytes);
    return config_.write_latency + write_pipe_.transfer(now, bytes);
}

std::uint64_t
Ssd::bytes_stored() const
{
    return pages_.size() * kPageSize;
}

SsdArray::SsdArray(std::size_t count, const SsdConfig &config)
{
    FIDR_CHECK(count > 0);
    ssds_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        SsdConfig member = config;
        member.name = config.name + "[" + std::to_string(i) + "]";
        ssds_.push_back(std::make_unique<Ssd>(std::move(member)));
    }
}

std::uint64_t
SsdArray::total_bytes_written() const
{
    std::uint64_t total = 0;
    for (const auto &ssd : ssds_)
        total += ssd->bytes_written();
    return total;
}

std::uint64_t
SsdArray::total_bytes_stored() const
{
    std::uint64_t total = 0;
    for (const auto &ssd : ssds_)
        total += ssd->bytes_stored();
    return total;
}

}  // namespace fidr::ssd
