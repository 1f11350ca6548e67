#include "fidr/accel/engines.h"

#include "fidr/hash/sha256_mb.h"

namespace fidr::accel {

CompressedChunk
CompressionEngine::compress(std::span<const std::uint8_t> chunk)
{
    CompressedChunk out = compress_stateless(chunk);
    record(out);
    return out;
}

CompressedChunk
CompressionEngine::compress_stateless(
    std::span<const std::uint8_t> chunk) const
{
    CompressedChunk out;
    out.raw_size = chunk.size();
    out.data = lz_compress(chunk, level_);
    return out;
}

void
CompressionEngine::record(const CompressedChunk &chunk)
{
    ++chunks_;
    bytes_in_ += chunk.raw_size;
    bytes_out_ += chunk.data.size();
}

Result<Buffer>
DecompressionEngine::decompress(std::span<const std::uint8_t> compressed)
{
    Result<Buffer> out = decompress_stateless(compressed);
    if (out.is_ok())
        record();
    return out;
}

Result<Buffer>
DecompressionEngine::decompress_stateless(
    std::span<const std::uint8_t> compressed) const
{
    return lz_decompress(compressed);
}

BaselineBatchResult
BaselineReductionAccelerator::process_batch(
    std::span<const Buffer> chunks, const std::vector<bool> &predicted_unique)
{
    FIDR_CHECK(chunks.size() == predicted_unique.size());
    BaselineBatchResult result;
    result.digests.resize(chunks.size());
    result.compressed.resize(chunks.size());
    // The hash cores see the whole batch at once, so the multi-buffer
    // engine interleaves them (digests and the hashes_ count are
    // identical to the per-chunk scalar path).
    std::vector<std::span<const std::uint8_t>> views(chunks.begin(),
                                                     chunks.end());
    sha256_mb_hash(views, result.digests.data());
    hashes_ += chunks.size();
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        // Compression cores run concurrently with the hash cores but
        // only on the chunks the host predicted unique.
        if (predicted_unique[i])
            result.compressed[i] = compressor_.compress(chunks[i]);
    }
    return result;
}

}  // namespace fidr::accel
