// Tests for the accelerator models: compression engines, the baseline
// integrated accelerator, and the unique-chunk predictor.

#include <gtest/gtest.h>

#include "fidr/accel/engines.h"
#include "fidr/accel/predictor.h"
#include "fidr/workload/content.h"

namespace fidr::accel {
namespace {

Buffer
chunk_of(std::uint64_t id, double comp = 0.5)
{
    return workload::make_chunk_content(id, comp);
}

TEST(CompressionEngine, CompressesAndCounts)
{
    CompressionEngine engine;
    const Buffer chunk = chunk_of(1);
    const CompressedChunk out = engine.compress(chunk);
    EXPECT_LT(out.data.size(), chunk.size());
    EXPECT_EQ(out.raw_size, chunk.size());
    EXPECT_EQ(engine.chunks_compressed(), 1u);
    EXPECT_EQ(engine.bytes_in(), chunk.size());
    EXPECT_EQ(engine.bytes_out(), out.data.size());
    EXPECT_NEAR(engine.reduction_ratio(), 0.5, 0.1);
}

TEST(Engines, CompressDecompressRoundTrip)
{
    CompressionEngine comp;
    DecompressionEngine decomp;
    for (std::uint64_t id = 0; id < 20; ++id) {
        const Buffer chunk = chunk_of(id, 0.5);
        const CompressedChunk c = comp.compress(chunk);
        Result<Buffer> raw = decomp.decompress(c.data);
        ASSERT_TRUE(raw.is_ok());
        EXPECT_EQ(raw.value(), chunk);
    }
    EXPECT_EQ(decomp.chunks_decompressed(), 20u);
}

TEST(DecompressionEngine, RejectsGarbage)
{
    DecompressionEngine decomp;
    EXPECT_FALSE(decomp.decompress(Buffer{1, 2, 3}).is_ok());
    EXPECT_EQ(decomp.chunks_decompressed(), 0u);
}

TEST(BaselineAccelerator, HashesAllCompressesPredicted)
{
    BaselineReductionAccelerator accel;
    std::vector<Buffer> chunks{chunk_of(1), chunk_of(2), chunk_of(3)};
    const std::vector<bool> predicted{true, false, true};
    const BaselineBatchResult out = accel.process_batch(chunks, predicted);

    ASSERT_EQ(out.digests.size(), 3u);
    ASSERT_EQ(out.compressed.size(), 3u);
    EXPECT_FALSE(out.compressed[0].data.empty());
    EXPECT_TRUE(out.compressed[1].data.empty());  // Skipped.
    EXPECT_FALSE(out.compressed[2].data.empty());
    EXPECT_EQ(accel.hashes_computed(), 3u);
}

TEST(Predictor, LearnsSeenContent)
{
    UniqueChunkPredictor predictor;
    const Buffer chunk = chunk_of(42);
    EXPECT_TRUE(predictor.predict_unique(chunk));   // Never seen.
    EXPECT_FALSE(predictor.predict_unique(chunk));  // Seen.
    EXPECT_EQ(predictor.predictions(), 2u);
}

TEST(Predictor, WindowEvictionCausesFalseUniques)
{
    UniqueChunkPredictor predictor(4);
    for (std::uint64_t id = 0; id < 8; ++id)
        (void)predictor.predict_unique(chunk_of(id));
    // id 0 fell out of the 4-entry window: predicted unique again
    // although it is a duplicate — the misprediction the baseline
    // must validate against the real table.
    EXPECT_TRUE(predictor.predict_unique(chunk_of(0)));
    EXPECT_LE(predictor.fingerprints(), 5u);
}

TEST(Predictor, BatchForm)
{
    UniqueChunkPredictor predictor;
    std::vector<Buffer> chunks{chunk_of(1), chunk_of(1), chunk_of(2)};
    const std::vector<bool> out = predictor.predict_batch(chunks);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0]);
    EXPECT_FALSE(out[1]);
    EXPECT_TRUE(out[2]);
}

}  // namespace
}  // namespace fidr::accel
