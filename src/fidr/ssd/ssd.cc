#include "fidr/ssd/ssd.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "fidr/fault/failpoint.h"

namespace fidr::ssd {

Ssd::Ssd(SsdConfig config)
    : config_(std::move(config)),
      read_pipe_(config_.read_bandwidth),
      write_pipe_(config_.write_bandwidth)
{
}

void
Ssd::SlabUnmap::operator()(std::uint8_t *slab) const
{
    ::munmap(slab, kSlabPages * kPageSize);
}

std::uint8_t *
Ssd::page_for_write(std::uint64_t page_no)
{
    std::uint8_t *&frame = pages_[page_no];
    if (frame != nullptr)
        return frame;
    if (!free_frames_.empty()) {
        frame = free_frames_.back();
        free_frames_.pop_back();
        std::memset(frame, 0, kPageSize);
        return frame;
    }
    if (slab_next_ == kSlabPages) {
        // Fresh anonymous memory reads as zero and becomes resident
        // only when a frame is first written.
        void *slab = ::mmap(nullptr, kSlabPages * kPageSize,
                            PROT_READ | PROT_WRITE,
                            MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        FIDR_CHECK(slab != MAP_FAILED);
        slabs_.emplace_back(static_cast<std::uint8_t *>(slab));
        slab_next_ = 0;
    }
    frame = slabs_.back().get() + slab_next_++ * kPageSize;
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
        std::memcpy(page_for_write(page_no) + in_page, data.data() + off,
                    take);
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
        if (std::uint8_t *const *page = pages_.find(page_no)) {
            const std::uint8_t *frame = *page + in_page;
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

void
Ssd::trim(std::uint64_t addr, std::uint64_t len)
{
    const std::uint64_t first_page = (addr + kPageSize - 1) / kPageSize;
    const std::uint64_t end_page = (addr + len) / kPageSize;
    for (std::uint64_t p = first_page; p < end_page; ++p) {
        std::uint8_t *const *page = pages_.find(p);
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
