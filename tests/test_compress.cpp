// Unit and property tests for the LZ block codec.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fidr/common/rng.h"
#include "fidr/compress/lz.h"
#include "fidr/hash/sha256.h"
#include "fidr/workload/content.h"

namespace fidr {
namespace {

/**
 * Alternating random and constant-fill segments of random lengths (up
 * to 12,000 bytes in total): the adversarial shape for LZ token edges.
 */
Buffer
make_mixture(Rng &rng)
{
    const std::size_t size = rng.next_below(12000);
    Buffer data(size);
    std::size_t pos = 0;
    while (pos < size) {
        const std::size_t seg =
            std::min<std::size_t>(1 + rng.next_below(700), size - pos);
        if (rng.next_bool(0.5)) {
            const auto fill = static_cast<std::uint8_t>(rng.next_u64());
            for (std::size_t i = 0; i < seg; ++i)
                data[pos + i] = fill;
        } else {
            for (std::size_t i = 0; i < seg; ++i)
                data[pos + i] = static_cast<std::uint8_t>(rng.next_u64());
        }
        pos += seg;
    }
    return data;
}

Buffer
roundtrip(const Buffer &input, LzLevel level = LzLevel::kDefault)
{
    const Buffer block = lz_compress(input, level);
    EXPECT_LE(block.size(), lz_max_compressed_size(input.size()));
    EXPECT_EQ(lz_raw_size(block), input.size());
    Result<Buffer> out = lz_decompress(block);
    EXPECT_TRUE(out.is_ok()) << out.status().to_string();
    return out.is_ok() ? out.take() : Buffer{};
}

TEST(Lz, EmptyInput)
{
    EXPECT_EQ(roundtrip(Buffer{}), Buffer{});
}

TEST(Lz, TinyInputsStored)
{
    for (std::size_t n = 1; n <= 8; ++n) {
        Buffer data(n, 'q');
        EXPECT_EQ(roundtrip(data), data) << "n " << n;
    }
}

TEST(Lz, AllZerosCompressesHard)
{
    const Buffer data(4096, 0);
    const Buffer block = lz_compress(data);
    EXPECT_LT(block.size(), 128u);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, RepeatedPhraseCompresses)
{
    Buffer data;
    const std::string phrase = "deduplication and compression! ";
    while (data.size() < 4096)
        data.insert(data.end(), phrase.begin(), phrase.end());
    data.resize(4096);
    const Buffer block = lz_compress(data);
    EXPECT_LT(block.size(), data.size() / 4);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, RandomDataFallsBackToStored)
{
    Rng rng(1);
    Buffer data(4096);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    const Buffer block = lz_compress(data);
    // Incompressible escape: never expands beyond header.
    EXPECT_EQ(block.size(), lz_max_compressed_size(data.size()));
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, OverlappingMatchRle)
{
    // "abcabcabc..." forces matches with offset < length.
    Buffer data;
    for (int i = 0; data.size() < 3000; ++i)
        data.push_back(static_cast<std::uint8_t>('a' + (i % 3)));
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, LongLiteralRunsUseExtensionBytes)
{
    // >15 literals before a match exercises the 255-run coding.
    Rng rng(2);
    Buffer data(600);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    // Append a compressible tail so the block is not stored verbatim.
    data.insert(data.end(), 3000, 0x55);
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, LongMatchesUseExtensionBytes)
{
    Buffer data(70000, 0x77);  // Match length >> 19 (15+4).
    data[0] = 1;
    EXPECT_EQ(roundtrip(data), data);
}

TEST(Lz, FastLevelRoundTrips)
{
    const Buffer data = workload::make_chunk_content(1234, 0.5);
    EXPECT_EQ(roundtrip(data, LzLevel::kFast), data);
}

TEST(Lz, TargetCompressibilityHonored)
{
    // The workload synthesizer promises ~comp_ratio reduction; the
    // codec must deliver it within tolerance (paper sets 50%).
    for (double ratio : {0.25, 0.5, 0.75}) {
        double total_in = 0, total_out = 0;
        for (std::uint64_t id = 0; id < 50; ++id) {
            const Buffer chunk =
                workload::make_chunk_content(id, ratio);
            total_in += static_cast<double>(chunk.size());
            total_out +=
                static_cast<double>(lz_compress(chunk,
                                                LzLevel::kFast).size());
        }
        const double measured = 1.0 - total_out / total_in;
        EXPECT_NEAR(measured, ratio, 0.08) << "target " << ratio;
    }
}

TEST(LzDecode, RejectsTruncatedHeader)
{
    EXPECT_FALSE(lz_decompress(Buffer{1, 2}).is_ok());
    EXPECT_EQ(lz_raw_size(Buffer{1, 2}), 0u);
}

TEST(LzDecode, RejectsUnknownMethod)
{
    Buffer block{9, 0, 0, 0, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsStoredSizeMismatch)
{
    Buffer block{0, 10, 0, 0, 0, 'x'};  // Claims 10 raw, carries 1.
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsTruncatedTokenStream)
{
    Buffer data(4096, 0);
    Buffer block = lz_compress(data);
    block.resize(block.size() / 2);
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsBadMatchOffset)
{
    // method=1, raw=8, token: 0 literals + match len 4, offset 9 (> window).
    Buffer block{1, 8, 0, 0, 0, 0x00, 9, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(LzDecode, RejectsZeroOffset)
{
    Buffer block{1, 8, 0, 0, 0, 0x10, 'a', 0, 0};
    EXPECT_FALSE(lz_decompress(block).is_ok());
}

TEST(Lz, RepeatedCallsIgnoreEarlierCalls)
{
    // kFast keeps its hash table across calls and invalidates it by a
    // 32-bit epoch; 70,000 calls wrap that epoch at least once.  An entry
    // leaking from the previous (identical) call would turn the first
    // positions into matches and change the bytes.
    Rng rng(9);
    Buffer data(64);
    for (std::size_t i = 0; i < 32; ++i)
        data[i] = data[i + 32] = static_cast<std::uint8_t>(rng.next_u64());
    const Buffer first = lz_compress(data, LzLevel::kFast);
    EXPECT_LT(first.size(), data.size());
    for (int call = 0; call < 70000; ++call)
        ASSERT_EQ(lz_compress(data, LzLevel::kFast), first) << call;
    EXPECT_EQ(roundtrip(data, LzLevel::kFast), data);
}

TEST(Lz, ReductionRatioHelper)
{
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 2048), 0.5);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 4096), 0.0);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(4096, 5000), 0.0);
    EXPECT_DOUBLE_EQ(lz_reduction_ratio(0, 0), 0.0);
}

TEST(LzDecode, RejectsOversizedRawSize)
{
    // A 6-byte block claiming ~4 GiB of output: no valid stream expands
    // more than 255x, so the header alone condemns it (before the
    // decoder sizes an output buffer from it).
    Buffer block{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x00};
    Result<Buffer> out = lz_decompress(block);
    ASSERT_FALSE(out.is_ok());
    EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

/** Sizes 1..256 one by one, then ~3% steps and the window edges. */
std::vector<std::size_t>
golden_sizes()
{
    std::vector<std::size_t> sizes;
    for (std::size_t n = 1; n <= 256; ++n)
        sizes.push_back(n);
    for (std::size_t n = 257; n < 70000; n += n / 32 + 1)
        sizes.push_back(n);
    for (std::size_t n : {65535u, 65536u, 65537u, 65540u, 70000u})
        sizes.push_back(n);
    return sizes;
}

/**
 * Folds every compressed block of the golden corpus into one FNV-1a
 * chain, so a single 64-bit constant pins the exact output bytes of a
 * level: any parse, hash or emit change moves it.
 */
std::uint64_t
golden_corpus_digest(LzLevel level)
{
    std::uint64_t digest = 0xCBF29CE484222325ull;
    const auto add = [&](const Buffer &input) {
        digest = (digest ^ fnv1a64(lz_compress(input, level))) *
                 0x100000001B3ull;
    };
    // Table-3 style chunks across the compressibility range.
    for (std::uint64_t id = 0; id < 512; ++id) {
        for (double ratio : {0.0, 0.25, 0.5, 0.75, 0.95})
            add(workload::make_chunk_content(id, ratio));
    }
    // Degenerate alphabets: all-zero (offset-1 runs) and random
    // two-symbol text (short, overlapping, collision-heavy matches),
    // across the 64 KiB window edge.
    for (const std::size_t n : golden_sizes()) {
        add(Buffer(n, 0));
        Rng rng(n);
        Buffer two(n);
        for (auto &b : two)
            b = rng.next_bool(0.5) ? 'a' : 'b';
        add(two);
    }
    // Short-period text (periods 2..24) with sparse noise: overlapping
    // matches at every small offset.
    for (std::size_t period = 2; period <= 24; ++period) {
        Rng rng(100 + period);
        Buffer data(9000);
        for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = i < period ? static_cast<std::uint8_t>(rng.next_u64())
                                 : data[i - period];
            if (rng.next_bool(0.01))
                data[i] = static_cast<std::uint8_t>(rng.next_u64());
        }
        add(data);
    }
    // The property-sweep mixtures.
    for (int seed = 0; seed < 8; ++seed) {
        Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 17);
        for (int trial = 0; trial < 25; ++trial)
            add(make_mixture(rng));
    }
    return digest;
}

TEST(Lz, GoldenBytesPinned)
{
    // Digests of the codec's output on the corpus above, recorded
    // before the match finder was rewritten for speed.  The format is
    // on-device state and `stored_bytes` depends on the exact parse:
    // a mismatch means the compressed bytes changed, not a flaky test.
    const std::uint64_t fast = golden_corpus_digest(LzLevel::kFast);
    const std::uint64_t dflt = golden_corpus_digest(LzLevel::kDefault);
    EXPECT_EQ(fast, 0x20BDB35F0B2E1571ull) << std::hex << fast;
    EXPECT_EQ(dflt, 0x9279256B3A2C3C13ull) << std::hex << dflt;
}

// Property sweep: random content mixes round-trip at both levels.
class LzPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, LzLevel>> {};

TEST_P(LzPropertyTest, RoundTripsRandomMixtures)
{
    const auto [seed, level] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + 17);
    for (int trial = 0; trial < 25; ++trial) {
        const Buffer data = make_mixture(rng);
        const Buffer block = lz_compress(data, level);
        Result<Buffer> out = lz_decompress(block);
        ASSERT_TRUE(out.is_ok()) << out.status().to_string();
        ASSERT_EQ(out.value(), data) << "seed " << seed << " trial "
                                     << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LzPropertyTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(LzLevel::kFast,
                                         LzLevel::kDefault)));

}  // namespace
}  // namespace fidr
