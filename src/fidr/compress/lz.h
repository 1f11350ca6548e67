/**
 * @file
 * From-scratch LZ-family block compressor.
 *
 * This is the software counterpart of the FPGA gzip-class compression
 * cores the paper places in the Compression Engine (Sec 2.3, 6.1).  The
 * format is a byte-aligned LZ77 token stream (LZ4-like) chosen because
 * it is what high-throughput FPGA compressors implement in practice:
 *
 *   block   := header payload
 *   header  := method:u8 raw_size:u32le
 *   method  := 0 (stored, incompressible escape) | 1 (LZ tokens)
 *   payload := raw bytes (stored) | sequence* (LZ)
 *   sequence:= token:u8 [lit_ext*] literal* [offset:u16le [match_ext*]]
 *
 * The token's high nibble is the literal count (15 => extension bytes
 * follow, 255-run coded) and the low nibble is match_length - 4.  The
 * final sequence of a block carries literals only; the decoder stops
 * when raw_size bytes have been produced.  Matches reference a 64 KiB
 * sliding window.
 *
 * Both levels parse greedily.  kFast probes one hash-table slot per
 * position; each slot holds the newest position with that hash plus its
 * 4-byte key, so a collision is rejected without touching the window.
 * kDefault walks hash chains up to 32 candidates deep.  The output bytes
 * of each level are pinned by a golden digest (tests/test_compress.cpp):
 * they are on-device state, so a faster parse must produce the same
 * bytes.  A valid block never decodes to more than 255x its size, which
 * lz_decompress checks before sizing its output.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fidr/common/status.h"
#include "fidr/common/types.h"

namespace fidr {

/** Effort knob for the match finder. */
enum class LzLevel {
    kFast,     ///< Newest same-hash position only (depth 1), FPGA-like.
    kDefault,  ///< Hash-chain search, 32 candidates deep.
};

/** Upper bound on compress() output size for a given input size. */
std::size_t lz_max_compressed_size(std::size_t raw_size);

/**
 * Compresses `input` into a self-describing block.  Falls back to a
 * stored block when compression would expand the data, so output size
 * never exceeds lz_max_compressed_size(input.size()).
 */
Buffer lz_compress(std::span<const std::uint8_t> input,
                   LzLevel level = LzLevel::kDefault);

/**
 * Decompresses a block produced by lz_compress.  Returns kCorruption
 * for truncated or malformed input rather than reading out of bounds.
 */
Result<Buffer> lz_decompress(std::span<const std::uint8_t> block);

/** Raw (uncompressed) size recorded in a block header, 0 if malformed. */
std::size_t lz_raw_size(std::span<const std::uint8_t> block);

/**
 * Fraction of input bytes removed by compression, in [0, 1).  A 4 KB
 * chunk that compresses to 2 KB has ratio 0.5, matching the paper's
 * "50% compression ratio" convention.
 */
double lz_reduction_ratio(std::size_t raw_size, std::size_t compressed_size);

}  // namespace fidr
