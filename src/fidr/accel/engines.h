/**
 * @file
 * Accelerator models: compression/decompression engines and the
 * baseline's integrated hash+compression accelerator.
 *
 * In the baseline (CIDR, Sec 2.3) hashing and compression cores share
 * one accelerator, which forces the host to predict unique chunks in
 * advance so a single batch transfer can feed both.  FIDR removes the
 * hashing cores (moved to the NIC) and turns the accelerator into a
 * dedicated Compression Engine that keeps compressed containers in
 * its on-board memory for direct P2P transfer to the data SSDs
 * (Sec 6.1).
 *
 * Compression itself is the real LZ codec from fidr/compress, run at
 * the "fast" effort level that matches FPGA match-finder behaviour.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/compress/lz.h"
#include "fidr/hash/digest.h"
#include "fidr/hash/sha256.h"

namespace fidr::accel {

/** Output of compressing one chunk. */
struct CompressedChunk {
    Buffer data;
    std::size_t raw_size = 0;
};

/** FIDR Compression Engine (also the baseline's compression cores). */
class CompressionEngine {
  public:
    explicit CompressionEngine(LzLevel level = LzLevel::kFast)
        : level_(level) {}

    /** Compresses one chunk. */
    CompressedChunk compress(std::span<const std::uint8_t> chunk);

    /**
     * Pure compression kernel: no engine counters touched, so
     * concurrent lanes may call it on disjoint chunks.  Pair each
     * result with one record() call on the orchestrating thread.
     */
    CompressedChunk compress_stateless(
        std::span<const std::uint8_t> chunk) const;

    /** Accounts one compress_stateless() result in the counters. */
    void record(const CompressedChunk &chunk);

    std::uint64_t chunks_compressed() const { return chunks_; }
    std::uint64_t bytes_in() const { return bytes_in_; }
    std::uint64_t bytes_out() const { return bytes_out_; }

    /** Measured reduction across all compressed chunks so far. */
    double
    reduction_ratio() const
    {
        return bytes_in_ > 0
                   ? 1.0 - static_cast<double>(bytes_out_) /
                               static_cast<double>(bytes_in_)
                   : 0.0;
    }

  private:
    LzLevel level_;
    std::uint64_t chunks_ = 0;
    std::uint64_t bytes_in_ = 0;
    std::uint64_t bytes_out_ = 0;
};

/** FIDR Decompression Engine. */
class DecompressionEngine {
  public:
    /** Decompresses one stored chunk image. */
    Result<Buffer> decompress(std::span<const std::uint8_t> compressed);

    /**
     * Pure decompression kernel: no engine counters touched, so the
     * read plane can decode a spill-ring image to validate it before
     * the image's DMA is billed.  Pair each successful result that
     * reaches the engine with one record() call (mirrors
     * CompressionEngine::compress_stateless).
     */
    Result<Buffer> decompress_stateless(
        std::span<const std::uint8_t> compressed) const;

    /** Accounts one successful decompress_stateless() result. */
    void record() { ++chunks_; }

    std::uint64_t chunks_decompressed() const { return chunks_; }

  private:
    std::uint64_t chunks_ = 0;
};

/** Result of the baseline accelerator's single-pass batch. */
struct BaselineBatchResult {
    std::vector<Digest> digests;  ///< One per input chunk.
    /** Compressed output for chunks flagged predicted-unique;
     *  entries for predicted-duplicate chunks are empty. */
    std::vector<CompressedChunk> compressed;
};

/**
 * The baseline's integrated accelerator: hashes every chunk of the
 * batch and compresses those the host predicted unique (Sec 2.3).
 */
class BaselineReductionAccelerator {
  public:
    explicit BaselineReductionAccelerator(LzLevel level = LzLevel::kFast)
        : compressor_(level) {}

    BaselineBatchResult process_batch(
        std::span<const Buffer> chunks,
        const std::vector<bool> &predicted_unique);

    const CompressionEngine &compressor() const { return compressor_; }
    std::uint64_t hashes_computed() const { return hashes_; }

  private:
    CompressionEngine compressor_;
    std::uint64_t hashes_ = 0;
};

}  // namespace fidr::accel
