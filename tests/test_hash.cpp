// Unit tests for fidr/hash: SHA-256 against FIPS 180-4 test vectors
// on every engine the host supports, the SHA-NI kernel fuzzed against
// the portable reference (ctest label: simd, so the sanitizer stage
// runs it), incremental hashing, digest semantics, FNV-1a.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fidr/common/rng.h"
#include "fidr/common/simd.h"
#include "fidr/common/types.h"
#include "fidr/hash/digest.h"
#include "fidr/hash/sha256.h"
#include "fidr/hash/sha256_mb_kernels.h"

namespace fidr {
namespace {

using hash_detail::Sha256Engine;

/** RAII: force a dispatch target, restore auto-detected on exit. */
class ScopedTarget {
  public:
    explicit ScopedTarget(simd::Target target) { simd::set_target(target); }
    ~ScopedTarget() { simd::set_target(simd::detected()); }
};

std::vector<Sha256Engine>
engines_to_test()
{
    std::vector<Sha256Engine> out;
    for (const Sha256Engine engine : hash_detail::kSha256Engines) {
        if (hash_detail::supported(engine))
            out.push_back(engine);
    }
    return out;
}

Buffer
bytes_of(const std::string &s)
{
    return Buffer(s.begin(), s.end());
}

std::string
sha256_hex(const std::string &s)
{
    return Sha256::hash(bytes_of(s)).to_hex();
}

// NIST / well-known SHA-256 vectors.
TEST(Sha256, EmptyString)
{
    EXPECT_EQ(sha256_hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc)
{
    EXPECT_EQ(sha256_hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage)
{
    EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijk"
                         "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs)
{
    Sha256 ctx;
    const Buffer block(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        ctx.update(block);
    EXPECT_EQ(ctx.finish().to_hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary)
{
    // 55/56/64-byte messages exercise the padding corner cases.
    for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 128u}) {
        const std::string msg(len, 'x');
        Sha256 whole;
        whole.update(bytes_of(msg));
        Sha256 split;
        split.update(bytes_of(msg.substr(0, len / 2)));
        split.update(bytes_of(msg.substr(len / 2)));
        EXPECT_EQ(whole.finish().to_hex(), split.finish().to_hex())
            << "len " << len;
    }
}

TEST(Sha256, IncrementalMatchesOneShotOnRandomSplits)
{
    Rng rng(77);
    Buffer data(5000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    const Digest expect = [&] {
        ScopedTarget portable(simd::Target::kScalar);
        return Sha256::hash(data);
    }();

    for (int trial = 0; trial < 20; ++trial) {
        Sha256 ctx;
        std::size_t pos = 0;
        while (pos < data.size()) {
            const std::size_t take = std::min<std::size_t>(
                1 + rng.next_below(257), data.size() - pos);
            ctx.update(std::span<const std::uint8_t>(data.data() + pos,
                                                     take));
            pos += take;
        }
        EXPECT_EQ(ctx.finish(), expect);
    }
}

TEST(Sha256, ContextReusableAfterReset)
{
    Sha256 ctx;
    ctx.update(bytes_of("abc"));
    (void)ctx.finish();
    ctx.reset();
    ctx.update(bytes_of("abc"));
    EXPECT_EQ(ctx.finish().to_hex(),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, DistinctInputsDistinctDigests)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i) {
        Buffer data(64);
        data[0] = static_cast<std::uint8_t>(i);
        data[1] = static_cast<std::uint8_t>(i >> 8);
        seen.insert(Sha256::hash(data).to_hex());
    }
    EXPECT_EQ(seen.size(), 1000u);
}

struct NistVector {
    std::string message;
    std::size_t repeat;  ///< The message is `message` repeated this often.
    const char *hex;
};

/** FIPS 180-4 / NIST CSRC example vectors. */
std::vector<NistVector>
nist_vectors()
{
    return {
        {"", 1,
         "e3b0c44298fc1c149afbf4c8996fb924"
         "27ae41e4649b934ca495991b7852b855"},
        {"abc", 1,
         "ba7816bf8f01cfea414140de5dae2223"
         "b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", 1,
         "248d6a61d20638b8e5c026930c3e6039"
         "a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
         "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         1,
         "cf5b16a778af8380036ce59e7b049237"
         "0b249b11e8f07a51afac45037afee9d1"},
        {"a", 1000000,
         "cdc76e5c9914fb9281a1c7e284d73e67"
         "f1809a48a497200e046d39ccc7112cd0"},
    };
}

Buffer
expand(const NistVector &v)
{
    Buffer out;
    out.reserve(v.message.size() * v.repeat);
    for (std::size_t i = 0; i < v.repeat; ++i)
        out.insert(out.end(), v.message.begin(), v.message.end());
    return out;
}

TEST(Sha256, NistVectorsOnEveryTarget)
{
    // The single-message context: portable under kScalar, SHA-NI (where
    // the host has it) on every vector target.
    for (const simd::Target target :
         {simd::Target::kScalar, simd::detected()}) {
        ScopedTarget scope(target);
        for (const NistVector &v : nist_vectors()) {
            EXPECT_EQ(Sha256::hash(expand(v)).to_hex(), v.hex)
                << "target=" << simd::name(target)
                << " len=" << v.message.size() * v.repeat;
        }
    }
}

TEST(Sha256, NistVectorsOnEveryMultiBufferEngine)
{
    // Two copies of each vector per batch, so the interleaved engines
    // run their lanes instead of the small-batch portable fallback.
    std::vector<Buffer> buffers;
    std::vector<const char *> expect;
    for (int copy = 0; copy < 2; ++copy) {
        for (const NistVector &v : nist_vectors()) {
            buffers.push_back(expand(v));
            expect.push_back(v.hex);
        }
    }
    const std::vector<std::span<const std::uint8_t>> views(buffers.begin(),
                                                           buffers.end());
    for (const Sha256Engine engine : engines_to_test()) {
        std::vector<Digest> digests(buffers.size());
        hash_detail::sha256_mb_hash_on(engine, views, digests.data());
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            EXPECT_EQ(digests[i].to_hex(), expect[i])
                << "engine=" << hash_detail::name(engine) << " input " << i;
        }
    }
}

/** Hashes data[0..len) at `offset` into a copy, split at `cuts`. */
Digest
hash_split(const Buffer &backing, std::size_t offset, std::size_t len,
           const std::vector<std::size_t> &cuts)
{
    Sha256 ctx;
    std::size_t pos = 0;
    for (const std::size_t cut : cuts) {
        ctx.update(std::span<const std::uint8_t>(
            backing.data() + offset + pos, cut - pos));
        pos = cut;
    }
    ctx.update(std::span<const std::uint8_t>(backing.data() + offset + pos,
                                             len - pos));
    return ctx.finish();
}

TEST(Sha256, ShaNiMatchesPortableOnEveryLengthOffsetAndSplit)
{
    // Every length 0..9,000 at a rotating start offset 0..15 (so the
    // kernel's unaligned loads see every alignment), once whole and
    // once through update() split at random points, which drives the
    // buffered partial-block path.
    if (!hash_detail::supported(Sha256Engine::kShaNi))
        GTEST_SKIP() << "no SHA extensions on this host";
    Rng rng(1804);
    Buffer backing(9'000 + 16);
    for (auto &b : backing)
        b = static_cast<std::uint8_t>(rng.next_u64());
    for (std::size_t len = 0; len <= 9'000; ++len) {
        const std::size_t offset = (len * 7) % 16;
        std::vector<std::size_t> cuts;
        for (std::size_t k = rng.next_below(4); k > 0 && len > 0; --k)
            cuts.push_back(rng.next_below(len + 1));
        std::sort(cuts.begin(), cuts.end());
        Digest portable_whole, portable_split;
        {
            ScopedTarget portable(simd::Target::kScalar);
            portable_whole = hash_split(backing, offset, len, {});
            portable_split = hash_split(backing, offset, len, cuts);
        }
        ASSERT_EQ(portable_whole, portable_split) << "len " << len;
        ASSERT_EQ(hash_split(backing, offset, len, {}), portable_whole)
            << "len " << len << " offset " << offset;
        ASSERT_EQ(hash_split(backing, offset, len, cuts), portable_whole)
            << "len " << len << " offset " << offset << " split at "
            << cuts.size() << " points";
    }
}

TEST(Digest, DefaultIsZero)
{
    Digest d;
    EXPECT_EQ(d.prefix64(), 0u);
    EXPECT_EQ(d.to_hex(), std::string(64, '0'));
}

TEST(Digest, ComparisonAndHash)
{
    const Digest a = Sha256::hash(bytes_of("a"));
    const Digest b = Sha256::hash(bytes_of("b"));
    EXPECT_EQ(a, a);
    EXPECT_NE(a, b);
    EXPECT_NE(std::hash<Digest>{}(a), std::hash<Digest>{}(b));
}

TEST(Digest, Prefix64IsLittleEndianOfFirstBytes)
{
    Digest d;
    for (std::size_t i = 0; i < 8; ++i)
        d.bytes()[i] = static_cast<std::uint8_t>(i + 1);
    EXPECT_EQ(d.prefix64(), 0x0807060504030201ull);
}

TEST(Fnv1a64, KnownValues)
{
    EXPECT_EQ(fnv1a64(Buffer{}), 0xcbf29ce484222325ull);
    const Buffer a{'a'};
    EXPECT_EQ(fnv1a64(a), 0xaf63dc4c8601ec8cull);
}

TEST(Fnv1a64, SensitiveToEveryByte)
{
    Buffer data(32, 0);
    const std::uint64_t base = fnv1a64(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = 1;
        EXPECT_NE(fnv1a64(data), base) << "byte " << i;
        data[i] = 0;
    }
}

}  // namespace
}  // namespace fidr
