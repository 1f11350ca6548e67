/**
 * @file
 * NVMe SSD model: a functional in-memory flash store plus a timing
 * model (base latency + bandwidth pipe) and wear accounting.
 *
 * The paper's prototype uses Samsung 970 Pro 1 TB drives, two as *data
 * SSDs* (compressed containers, large sequential writes) and two as
 * *table SSDs* (4 KB Hash-PBN buckets, small random IO) — Sec 6.1, 7.1.
 * This model backs both roles: byte-addressable sparse page storage for
 * correctness, and io_complete_time() for the latency experiment.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fidr/common/flat_map.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/common/units.h"
#include "fidr/sim/queueing.h"

namespace fidr::ssd {

/** Static parameters of one SSD. */
struct SsdConfig {
    std::string name = "ssd";
    std::uint64_t capacity_bytes = 1 * kTB;
    Bandwidth read_bandwidth = gb_per_s(3.5);   ///< 970 Pro seq read.
    Bandwidth write_bandwidth = gb_per_s(2.7);  ///< 970 Pro seq write.
    SimTime read_latency = 90 * kMicrosecond;   ///< 4 KB random read.
    SimTime write_latency = 30 * kMicrosecond;  ///< 4 KB write (cache).
};

/**
 * One simulated NVMe SSD.
 *
 * Functional API (read/write/trim) operates immediately on the sparse
 * page store and records byte/IO statistics; the timing API
 * (io_complete_time) adds queueing through a per-direction bandwidth
 * pipe, used by the Sec 7.6 latency bench.
 */
class Ssd {
  public:
    /** Page size of the store; read_page/write_page move whole pages. */
    static constexpr std::size_t kPageSize = 4096;

    explicit Ssd(SsdConfig config);
    /** Hands the device's slabs to the process-wide slab pool. */
    ~Ssd();

    const SsdConfig &config() const { return config_; }

    /** Writes `data` at byte address `addr` (may span pages). */
    Status write(std::uint64_t addr, std::span<const std::uint8_t> data);

    /** Reads `len` bytes at `addr`; unwritten bytes read as zero. */
    Result<Buffer> read(std::uint64_t addr, std::uint64_t len) const;

    /**
     * Reads the page at page-aligned `addr` without copying it: the
     * result points at the page's frame (at a shared zero page when the
     * page was never written) and stays valid until the next write or
     * trim of this device.  Faults, byte and IO counts are exactly
     * read(addr, kPageSize)'s; a bit-flip fault damages a copy made in
     * `scratch`, which is returned instead.
     */
    Result<const std::uint8_t *> read_page(
        std::uint64_t addr, std::span<std::uint8_t, kPageSize> scratch) const;

    /**
     * Writes the page at page-aligned `addr`: `head`, then zeros to the
     * page end.  Faults, byte and IO counts and the stored image are
     * exactly write()'s of that whole page, but only the changed bytes
     * are touched: each frame records how far earlier writes reached,
     * so the zero tail is cleared only up to there.
     */
    Status write_page(std::uint64_t addr, std::span<const std::uint8_t> head);

    /** Discards `len` bytes at `addr` (page-granular best effort). */
    void trim(std::uint64_t addr, std::uint64_t len);

    /**
     * Timing model: completion time of an IO issued at `now`.
     * latency = base(dir) + queueing + size/bandwidth(dir).
     */
    SimTime io_complete_time(SimTime now, IoDir dir, std::uint64_t bytes);

    /** Lifetime bytes written to flash (wear proxy, Sec 1). */
    std::uint64_t bytes_written() const { return bytes_written_; }
    std::uint64_t bytes_read() const
    { return bytes_read_.load(std::memory_order_relaxed); }
    std::uint64_t read_ios() const
    { return read_ios_.load(std::memory_order_relaxed); }
    std::uint64_t write_ios() const { return write_ios_; }

    /** IOs that failed (injected media/command errors). */
    std::uint64_t read_errors() const
    { return read_errors_.load(std::memory_order_relaxed); }
    std::uint64_t write_errors() const { return write_errors_; }

    /** Bytes currently occupied in the page store. */
    std::uint64_t bytes_stored() const;

    /** Slabs mapped by this process so far, across every device (the
     *  slab pool's high-water mark; slabs are never unmapped). */
    static std::size_t mapped_slabs();

  private:
    /** Page frames per anonymous mapping of the page store. */
    static constexpr std::size_t kSlabPages = 64;

    /** One stored page: its 4 KiB frame, and the written extent —
     *  every byte at or past `extent` is zero. */
    struct Frame {
        std::uint8_t *bytes = nullptr;
        std::uint32_t extent = 0;
    };

    /** The frame backing `page_no`; a frame it allocates reads as
     *  zeros. */
    Frame &page_for_write(std::uint64_t page_no);

    /** Copies `data` into the page store at `addr` (no accounting). */
    void store_bytes(std::uint64_t addr,
                     std::span<const std::uint8_t> data);

    SsdConfig config_;
    /**
     * Page store: page number -> 4 KiB frame.  Frames come from
     * anonymous mappings of kSlabPages frames, not from malloc: as heap
     * blocks they would pin the allocator arena of whichever thread
     * wrote them first, holding their memory after the device is gone.
     * A destroyed device hands its slabs to a process-wide pool and
     * the next device takes them from there before it maps new ones,
     * so a page a dead device faulted in is not faulted in again, and
     * the mapped total stays at the high-water mark of slabs held by
     * live devices.  A frame leaving a slab is zeroed; trimmed frames
     * are reused.  The index is a FlatMap, so a page lookup is one
     * probe run and a new page allocates no map node.
     */
    FlatMap<std::uint64_t, Frame, Mix64Hash> pages_;
    std::vector<std::uint8_t *> slabs_;
    std::size_t slab_next_ = kSlabPages;  ///< Next frame in slabs_.back().
    std::vector<Frame> free_frames_;  ///< Trimmed, with their extents.
    sim::BandwidthPipe read_pipe_;
    sim::BandwidthPipe write_pipe_;
    std::uint64_t bytes_written_ = 0;
    /** Read-side counters are atomic (relaxed): the batched read
     *  plane's lanes fetch from disjoint containers of the same SSD
     *  concurrently.  Writes stay single-threaded (commit sequencer)
     *  so the write-side counters remain plain. */
    std::atomic<std::uint64_t> bytes_read_{0};
    std::atomic<std::uint64_t> read_ios_{0};
    std::uint64_t write_ios_ = 0;
    std::atomic<std::uint64_t> read_errors_{0};
    std::uint64_t write_errors_ = 0;
};

/**
 * A fixed array of identical SSDs: the "array of data SSDs" the server
 * writes containers to.  Placement is the container log's job
 * (tables::ContainerLog stripes container ids across members).
 */
class SsdArray {
  public:
    SsdArray(std::size_t count, const SsdConfig &config);

    std::size_t size() const { return ssds_.size(); }
    Ssd &at(std::size_t i) { return *ssds_.at(i); }
    const Ssd &at(std::size_t i) const { return *ssds_.at(i); }

    std::uint64_t total_bytes_written() const;
    std::uint64_t total_bytes_stored() const;

  private:
    std::vector<std::unique_ptr<Ssd>> ssds_;
};

}  // namespace fidr::ssd
