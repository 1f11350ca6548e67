// Robustness fuzzing: every decoder that parses untrusted bytes must
// reject garbage with a Status — never crash, hang, or read out of
// bounds.  Inputs are random buffers plus mutated valid encodings
// (the harder case: mostly-right bytes).

#include <gtest/gtest.h>

#include <optional>

#include "fidr/common/bytes.h"
#include "fidr/common/rng.h"
#include "fidr/compress/lz.h"
#include "fidr/nic/protocol.h"
#include "fidr/tables/hash_pbn.h"
#include "fidr/tables/lba_pba.h"
#include "fidr/workload/content.h"

namespace fidr {
namespace {

Buffer
random_buffer(Rng &rng, std::size_t max_len)
{
    Buffer out(rng.next_below(max_len + 1));
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

void
mutate(Rng &rng, Buffer &data)
{
    if (data.empty())
        return;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits; ++e) {
        const std::size_t pos = rng.next_below(data.size());
        data[pos] = static_cast<std::uint8_t>(rng.next_u64());
    }
    if (rng.next_bool(0.3))
        data.resize(rng.next_below(data.size() + 1));
}

class FuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzTest, LzDecompressNeverMisbehaves)
{
    Rng rng(1000 + GetParam());
    for (int i = 0; i < 300; ++i) {
        // Random garbage.
        const Buffer garbage = random_buffer(rng, 6000);
        Result<Buffer> out = lz_decompress(garbage);
        if (out.is_ok()) {
            // Rarely random bytes do parse; the output must then obey
            // the declared raw size.
            EXPECT_EQ(out.value().size(), lz_raw_size(garbage));
        }

        // Mutated valid block: either decodes consistently or fails.
        Buffer block = lz_compress(
            workload::make_chunk_content(i, 0.5), LzLevel::kFast);
        mutate(rng, block);
        Result<Buffer> out2 = lz_decompress(block);
        if (out2.is_ok()) {
            EXPECT_EQ(out2.value().size(), lz_raw_size(block));
        }
    }
}

/**
 * Byte-at-a-time LZ block decoder written straight from the format in
 * lz.h: the differential oracle for lz_decompress's word-wide copies.
 * nullopt = the block is malformed.
 */
std::optional<Buffer>
reference_lz_decode(const Buffer &block)
{
    if (block.size() < 5)
        return std::nullopt;
    const std::size_t raw_size = load_le(block.data() + 1, 4);
    if (block[0] == 0) {
        if (block.size() != 5 + raw_size)
            return std::nullopt;
        return Buffer(block.begin() + 5, block.end());
    }
    if (block[0] != 1)
        return std::nullopt;
    std::size_t pos = 5;
    const auto next = [&](std::size_t &byte) {
        if (pos >= block.size())
            return false;
        byte = block[pos++];
        return true;
    };
    const auto extend = [&](std::size_t &len) {
        std::size_t byte = 255;
        while (byte == 255) {
            if (!next(byte))
                return false;
            len += byte;
        }
        return true;
    };
    Buffer out;
    while (out.size() < raw_size) {
        std::size_t token = 0;
        if (!next(token))
            return std::nullopt;
        std::size_t lit_len = token >> 4;
        if (lit_len == 15 && !extend(lit_len))
            return std::nullopt;
        for (std::size_t i = 0; i < lit_len; ++i) {
            std::size_t byte = 0;
            if (!next(byte))
                return std::nullopt;
            out.push_back(static_cast<std::uint8_t>(byte));
        }
        if (out.size() >= raw_size)
            break;
        std::size_t lo = 0, hi = 0;
        if (!next(lo) || !next(hi))
            return std::nullopt;
        const std::size_t offset = lo | (hi << 8);
        std::size_t match_len = (token & 0xF) + 4;
        if ((token & 0xF) == 15 && !extend(match_len))
            return std::nullopt;
        if (offset == 0 || offset > out.size() ||
            out.size() + match_len > raw_size)
            return std::nullopt;
        for (std::size_t i = 0; i < match_len; ++i)
            out.push_back(out[out.size() - offset]);
    }
    if (out.size() != raw_size)
        return std::nullopt;
    return out;
}

/** 255-run length extension, as the encoder writes it. */
void
put_extension(Buffer &block, std::size_t extra)
{
    for (; extra >= 255; extra -= 255)
        block.push_back(255);
    block.push_back(static_cast<std::uint8_t>(extra));
}

/**
 * A valid LZ block built sequence by sequence (not by lz_compress, so
 * offsets and lengths are chosen, not found): the first 16 matches use
 * offsets 1..16 in turn (overlapping copies on both sides of the 8-byte
 * step), later ones mix short offsets with offsets >= the match length.
 * Literal runs and match lengths both cross the 15/255 extension edges.
 * `expected` receives the decoded bytes.
 */
Buffer
make_lz_block(Rng &rng, Buffer &expected)
{
    Buffer block{1, 0, 0, 0, 0};
    expected.clear();
    const int sequences = 1 + static_cast<int>(rng.next_below(40));
    for (int seq = 0; seq <= sequences; ++seq) {
        std::size_t lit_len = rng.next_below(rng.next_bool(0.2) ? 600 : 20);
        if (seq == 0)
            lit_len += 16;  // every offset <= 16 is then in the window
        const bool last = seq == sequences;
        std::size_t match_len = 0;
        std::size_t offset = 0;
        if (!last) {
            match_len = 4 + rng.next_below(rng.next_bool(0.2) ? 700 : 24);
            const std::size_t window = expected.size() + lit_len;
            if (seq < 16)
                offset = static_cast<std::size_t>(seq) + 1;
            else if (rng.next_bool(0.5))
                offset = 1 + rng.next_below(16);
            else
                offset = std::min<std::size_t>(
                    window, match_len + rng.next_below(window));
            offset = std::min<std::size_t>(offset, 65535);
        }
        const std::size_t lit_code = std::min<std::size_t>(lit_len, 15);
        const std::size_t match_code =
            last ? 0 : std::min<std::size_t>(match_len - 4, 15);
        block.push_back(static_cast<std::uint8_t>(lit_code << 4 | match_code));
        if (lit_code == 15)
            put_extension(block, lit_len - 15);
        for (std::size_t i = 0; i < lit_len; ++i) {
            const auto byte = static_cast<std::uint8_t>(rng.next_below(4));
            block.push_back(byte);
            expected.push_back(byte);
        }
        if (last)
            break;
        block.push_back(static_cast<std::uint8_t>(offset & 0xFF));
        block.push_back(static_cast<std::uint8_t>(offset >> 8));
        if (match_code == 15)
            put_extension(block, match_len - 19);
        for (std::size_t i = 0; i < match_len; ++i)
            expected.push_back(expected[expected.size() - offset]);
    }
    store_le(block.data() + 1, expected.size(), 4);
    return block;
}

/** Both decoders agree on accept/reject, and on the bytes when ok. */
void
expect_decoders_agree(const Buffer &block)
{
    const std::optional<Buffer> ref = reference_lz_decode(block);
    Result<Buffer> out = lz_decompress(block);
    ASSERT_EQ(out.is_ok(), ref.has_value());
    if (ref) {
        ASSERT_EQ(out.value(), *ref);
    } else {
        ASSERT_EQ(out.status().code(), StatusCode::kCorruption);
    }
}

TEST_P(FuzzTest, LzDecoderMatchesByteReference)
{
    Rng rng(5000 + GetParam());
    for (int i = 0; i < 150; ++i) {
        // Hand-built streams: every short offset, long runs.
        Buffer expected;
        const Buffer block = make_lz_block(rng, expected);
        const std::optional<Buffer> ref = reference_lz_decode(block);
        ASSERT_TRUE(ref.has_value());
        ASSERT_EQ(*ref, expected);
        expect_decoders_agree(block);
        // Encoder output on periodic and mixed chunks.
        const Buffer chunk =
            workload::make_chunk_content(i, 0.25 * (i % 4));
        const Buffer packed = lz_compress(
            chunk, i % 2 ? LzLevel::kFast : LzLevel::kDefault);
        ASSERT_EQ(reference_lz_decode(packed), chunk);
        expect_decoders_agree(packed);
        // Mutations of both: mostly-right bytes.
        for (int m = 0; m < 20; ++m) {
            Buffer bad = m % 2 ? block : packed;
            mutate(rng, bad);
            expect_decoders_agree(bad);
        }
    }
}

TEST_P(FuzzTest, ProtocolDecodeNeverMisbehaves)
{
    Rng rng(2000 + GetParam());
    for (int i = 0; i < 500; ++i) {
        Buffer wire;
        if (rng.next_bool(0.5)) {
            wire = random_buffer(rng, 3000);
        } else {
            wire = nic::encode_write(
                rng.next_u64(),
                random_buffer(rng, 2000));
            mutate(rng, wire);
        }
        // Decode as many frames as parse; offset must always advance
        // within bounds.
        std::size_t offset = 0;
        int frames = 0;
        while (offset < wire.size() && frames < 100) {
            const std::size_t before = offset;
            Result<nic::Frame> frame = nic::decode(wire, offset);
            if (!frame.is_ok())
                break;
            ASSERT_GT(offset, before);
            ASSERT_LE(offset, wire.size());
            ++frames;
        }
    }
}

TEST_P(FuzzTest, BucketDeserializeNeverMisbehaves)
{
    Rng rng(3000 + GetParam());
    for (int i = 0; i < 300; ++i) {
        // Wrong sizes reject outright.
        const Buffer garbage = random_buffer(rng, 5000);
        Result<tables::Bucket> parsed =
            tables::Bucket::deserialize(garbage);
        if (garbage.size() != kBucketSize) {
            EXPECT_FALSE(parsed.is_ok());
            continue;
        }
        // Exact-size random images either reject (count out of
        // range) or produce a bucket within capacity.
        if (parsed.is_ok()) {
            EXPECT_LE(parsed.value().size(), tables::Bucket::kCapacity);
        }
    }

    // Exact-size fuzzing with plausible counts.
    for (int i = 0; i < 100; ++i) {
        Buffer image(kBucketSize);
        for (auto &b : image)
            b = static_cast<std::uint8_t>(rng.next_u64());
        image[0] = static_cast<std::uint8_t>(rng.next_below(120));
        image[1] = 0;
        Result<tables::Bucket> parsed =
            tables::Bucket::deserialize(image);
        if (parsed.is_ok()) {
            // Round-trip stability on accepted images.
            const Buffer again = parsed.value().serialize();
            Result<tables::Bucket> reparsed =
                tables::Bucket::deserialize(again);
            ASSERT_TRUE(reparsed.is_ok());
            EXPECT_EQ(reparsed.value().size(), parsed.value().size());
        }
    }
}

TEST_P(FuzzTest, SnapshotDeserializeNeverMisbehaves)
{
    Rng rng(4000 + GetParam());
    for (int i = 0; i < 200; ++i) {
        Buffer image;
        if (rng.next_bool(0.5)) {
            image = random_buffer(rng, 4000);
        } else {
            tables::LbaPbaTable table;
            for (int k = 0; k < 20; ++k)
                table.map_lba(rng.next_below(100), rng.next_below(50));
            image = table.serialize();
            mutate(rng, image);
        }
        Result<tables::LbaPbaTable> parsed =
            tables::LbaPbaTable::deserialize(image);
        if (parsed.is_ok()) {
            EXPECT_TRUE(parsed.value().validate().is_ok());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace fidr
