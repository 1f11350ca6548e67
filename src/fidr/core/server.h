/**
 * @file
 * Public storage-server interface shared by the baseline and FIDR
 * systems, plus the data-reduction statistics both report.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"

namespace fidr::core {

/** End-to-end data-reduction counters. */
struct ReductionStats {
    std::uint64_t chunks_written = 0;   ///< Client 4 KB write chunks.
    std::uint64_t chunks_read = 0;      ///< Client 4 KB read chunks.
    std::uint64_t duplicates = 0;       ///< Writes removed by dedup.
    std::uint64_t unique_chunks = 0;    ///< Writes stored.
    std::uint64_t raw_bytes = 0;        ///< Client bytes written.
    std::uint64_t stored_bytes = 0;     ///< Compressed bytes stored.
    std::uint64_t nic_read_hits = 0;    ///< Reads served from buffers.

    /** Fraction of writes removed by deduplication. */
    double
    dedup_rate() const
    {
        return chunks_written > 0
                   ? static_cast<double>(duplicates) /
                         static_cast<double>(chunks_written)
                   : 0.0;
    }

    /** Fraction of client bytes removed end to end (dedup x comp). */
    double
    overall_reduction() const
    {
        return raw_bytes > 0
                   ? 1.0 - static_cast<double>(stored_bytes) /
                               static_cast<double>(raw_bytes)
                   : 0.0;
    }
};

/**
 * A deduplicating, compressing block store at 4 KB granularity.
 *
 * write() may buffer; flush() forces every buffered chunk through the
 * reduction pipeline and seals open containers, after which reads of
 * all previously written LBAs must succeed with the exact bytes last
 * written.
 */
class StorageServer {
  public:
    virtual ~StorageServer() = default;

    /** Writes one 4 KB chunk at `lba`. */
    virtual Status write(Lba lba, Buffer data) = 0;

    /**
     * Reads a batch of LBAs; result i corresponds to lbas[i], and
     * per-LBA failures (unknown LBA, degraded-mode device errors) fail
     * only their own slot.  The one read entry point of a server.
     */
    virtual std::vector<Result<Buffer>>
    read_batch(std::span<const Lba> lbas) = 0;

    /** Reads back the 4 KB chunk at `lba`: a batch of one. */
    Result<Buffer>
    read(Lba lba)
    {
        std::vector<Result<Buffer>> out = read_batch({&lba, 1});
        return std::move(out.front());
    }

    /** Drains buffered writes and seals open containers. */
    virtual Status flush() = 0;

    virtual const ReductionStats &reduction() const = 0;
};

}  // namespace fidr::core
