// Cross-target determinism of the SIMD data-reduction kernels
// (ctest label: simd).  The dispatch contract extends PR 1's rule —
// lane counts may only change wall-clock, never results — to dispatch
// targets: chunk boundaries and digests must be bit-identical across
// FIDR_SIMD=scalar|sse4|avx2, on random and structured inputs, at
// every buffer size and CDC parameterization.  The scalar kernels are
// the reference; targets the host lacks are skipped (the probe clamps
// them away), so this suite passes everywhere while exercising every
// kernel the machine can run.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fidr/chunking/cdc.h"
#include "fidr/common/rng.h"
#include "fidr/common/simd.h"
#include "fidr/hash/sha256.h"
#include "fidr/hash/sha256_mb.h"
#include "fidr/hash/sha256_mb_kernels.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/workload/content.h"

namespace fidr {
namespace {

using hash_detail::Sha256Engine;
using simd::Target;

std::vector<Target>
targets_to_test()
{
    std::vector<Target> out{Target::kScalar};
    if (simd::supported(Target::kSse4))
        out.push_back(Target::kSse4);
    if (simd::supported(Target::kAvx2))
        out.push_back(Target::kAvx2);
    if (simd::supported(Target::kAvx512))
        out.push_back(Target::kAvx512);
    return out;
}

/** RAII: force a dispatch target, restore auto-detected on exit. */
class ScopedTarget {
  public:
    explicit ScopedTarget(Target target) { simd::set_target(target); }
    ~ScopedTarget() { simd::set_target(simd::detected()); }
};

Buffer
random_bytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Buffer out(n);
    for (auto &b : out)
        b = static_cast<std::uint8_t>(rng.next_u64());
    return out;
}

/** Low-entropy data: long runs force max_size cuts in the chunker. */
Buffer
runny_bytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Buffer out(n);
    std::size_t i = 0;
    while (i < n) {
        const auto run = 64 + rng.next_below(4096);
        const auto byte = static_cast<std::uint8_t>(rng.next_u64());
        for (std::size_t j = 0; j < run && i < n; ++j)
            out[i++] = byte;
    }
    return out;
}

TEST(SimdDispatch, ProbeAndParse)
{
    EXPECT_TRUE(simd::supported(Target::kScalar));
    EXPECT_TRUE(simd::supported(simd::detected()));
    EXPECT_EQ(simd::parse("scalar"), Target::kScalar);
    EXPECT_EQ(simd::parse("sse4"), Target::kSse4);
    EXPECT_EQ(simd::parse("avx2"), Target::kAvx2);
    EXPECT_EQ(simd::parse("avx512"), Target::kAvx512);
    EXPECT_EQ(simd::parse("auto"), simd::detected());
    EXPECT_FALSE(simd::parse("avx512vbmi").has_value());
    EXPECT_STREQ(simd::name(Target::kScalar), "scalar");
    EXPECT_STREQ(simd::name(Target::kSse4), "sse4");
    EXPECT_STREQ(simd::name(Target::kAvx2), "avx2");
    EXPECT_STREQ(simd::name(Target::kAvx512), "avx512");
}

TEST(SimdDispatch, SetTargetClampsToDetected)
{
    const Target installed = simd::set_target(Target::kAvx512);
    EXPECT_TRUE(simd::supported(installed));
    EXPECT_EQ(installed, simd::active());
    simd::set_target(simd::detected());
    EXPECT_EQ(simd::active(), simd::detected());
}

void
expect_same_chunks(const chunking::GearCdc &cdc, const Buffer &data,
                   const std::string &what)
{
    std::vector<chunking::ChunkSpan> reference;
    std::uint64_t reference_hashed = 0;
    for (const Target target : targets_to_test()) {
        ScopedTarget scope(target);
        const std::uint64_t before = cdc.hashed_bytes();
        const auto spans = cdc.split(data);
        const std::uint64_t hashed = cdc.hashed_bytes() - before;
        if (target == Target::kScalar) {
            reference = spans;
            reference_hashed = hashed;
            continue;
        }
        ASSERT_EQ(spans.size(), reference.size())
            << what << " target=" << simd::name(target);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            EXPECT_EQ(spans[i].offset, reference[i].offset)
                << what << " chunk " << i << " target="
                << simd::name(target);
            EXPECT_EQ(spans[i].length, reference[i].length)
                << what << " chunk " << i << " target="
                << simd::name(target);
        }
        EXPECT_EQ(hashed, reference_hashed)
            << what << " target=" << simd::name(target);
    }
}

TEST(SimdDispatch, GearBoundariesIdenticalOnRandomBuffers)
{
    chunking::GearCdc cdc;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 7919);
        const std::size_t size = rng.next_below(200'000);
        expect_same_chunks(cdc, random_bytes(size, seed),
                           "random size=" + std::to_string(size));
    }
}

TEST(SimdDispatch, GearBoundariesIdenticalOnLowEntropyBuffers)
{
    // Runs of equal bytes rarely hit boundaries, so these force the
    // max_size path and long SIMD scans with late (or no) cuts.
    chunking::GearCdc cdc;
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expect_same_chunks(cdc, runny_bytes(150'000, seed), "runny");
}

TEST(SimdDispatch, GearBoundariesIdenticalOnStructuredContent)
{
    chunking::GearCdc cdc;
    Buffer data;
    for (std::uint64_t i = 0; i < 48; ++i) {
        const Buffer chunk =
            workload::make_chunk_content(i, 0.02 * (i % 40));
        data.insert(data.end(), chunk.begin(), chunk.end());
    }
    expect_same_chunks(cdc, data, "structured");
}

TEST(SimdDispatch, GearBoundariesIdenticalAcrossCdcParams)
{
    const chunking::CdcParams configs[] = {
        {512, 1024, 4096},     // small window
        {64, 128, 512},        // minimum legal min_size
        {2048, 4096, 16384},   // default
        {4096, 32768, 131072}, // 15-bit mask: SIMD upper edge
    };
    for (const auto &params : configs) {
        chunking::GearCdc cdc(params);
        for (std::uint64_t seed = 100; seed < 104; ++seed) {
            expect_same_chunks(
                cdc, random_bytes(100'000 + seed, seed),
                "params avg=" + std::to_string(params.avg_size));
        }
    }
}

TEST(SimdDispatch, WideMaskFallsBackToScalarEverywhere)
{
    // avg - min > 64 KiB makes the mask wider than the SIMD kernels'
    // 16-bit lanes; dispatch must route every target to the scalar
    // reference (identity is then trivial, but must not crash).
    chunking::GearCdc cdc({2048, 262144, 1048576});
    expect_same_chunks(cdc, random_bytes(600'000, 42), "wide mask");
}

void
expect_same_digests(const std::vector<Buffer> &buffers,
                    const std::string &what)
{
    std::vector<std::span<const std::uint8_t>> views(buffers.begin(),
                                                     buffers.end());
    // Reference: the incremental context pinned to the portable
    // kernel, not sha256_mb_hash under forced-scalar, so the
    // multi-buffer scheduler itself is checked against FIPS 180-4 and
    // not just against itself.
    std::vector<Digest> reference(buffers.size());
    {
        ScopedTarget portable(Target::kScalar);
        for (std::size_t i = 0; i < buffers.size(); ++i)
            reference[i] = Sha256::hash(buffers[i]);
    }

    for (const Target target : targets_to_test()) {
        ScopedTarget scope(target);
        std::vector<Digest> digests(buffers.size());
        sha256_mb_hash(views, digests.data());
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            EXPECT_EQ(digests[i], reference[i])
                << what << " buffer " << i << " target="
                << simd::name(target);
        }
    }
    // Every engine the host runs, including the interleaved ones that
    // SHA-NI replaces in sha256_mb_hash.
    for (const Sha256Engine engine : hash_detail::kSha256Engines) {
        if (!hash_detail::supported(engine))
            continue;
        std::vector<Digest> digests(buffers.size());
        hash_detail::sha256_mb_hash_on(engine, views, digests.data());
        for (std::size_t i = 0; i < buffers.size(); ++i) {
            EXPECT_EQ(digests[i], reference[i])
                << what << " buffer " << i
                << " engine=" << hash_detail::name(engine);
        }
    }
}

TEST(SimdDispatch, Sha256MbIdenticalOnRandomLengths)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed * 104729);
        std::vector<Buffer> buffers(rng.next_below(40));
        for (std::size_t i = 0; i < buffers.size(); ++i)
            buffers[i] = random_bytes(rng.next_below(10'000), seed + i);
        expect_same_digests(buffers,
                            "batch n=" + std::to_string(buffers.size()));
    }
}

TEST(SimdDispatch, Sha256MbPaddingEdgeLengths)
{
    // Every interesting position of the 0x80 marker / length field:
    // empty, < 1 block, the 55/56 one-vs-two-pad-block threshold,
    // exact block multiples, and the 4 KB chunk size the NIC hashes.
    std::vector<Buffer> buffers;
    for (const std::size_t len :
         {0u, 1u, 55u, 56u, 63u, 64u, 65u, 119u, 120u, 127u, 128u,
          4095u, 4096u, 4097u}) {
        buffers.push_back(random_bytes(len, 1000 + len));
    }
    expect_same_digests(buffers, "padding edges");
}

TEST(SimdDispatch, Sha256MbLanesMatchesTarget)
{
    for (const Target target : targets_to_test()) {
        ScopedTarget scope(target);
        const std::size_t lanes = sha256_mb_lanes();
        if (target == Target::kScalar) {
            EXPECT_EQ(lanes, 1u);
        } else if (target == Target::kSse4) {
            EXPECT_EQ(lanes, 4u);
        } else if (target == Target::kAvx2 ||
                   target == Target::kAvx512) {
            EXPECT_EQ(lanes, 8u);
        }
    }
}

TEST(SimdDispatch, Sha256EngineSelectionRule)
{
    // SHA-NI serves every target from SSE4 up when cpuid reports it;
    // scalar always runs the portable reference.
    const bool ni = simd::sha_ni();
    EXPECT_EQ(hash_detail::engine_for(Target::kScalar),
              Sha256Engine::kPortable);
    EXPECT_EQ(hash_detail::engine_for(Target::kSse4),
              ni ? Sha256Engine::kShaNi : Sha256Engine::kX4Sse4);
    for (const Target target : {Target::kAvx2, Target::kAvx512}) {
        EXPECT_EQ(hash_detail::engine_for(target),
                  ni ? Sha256Engine::kShaNi : Sha256Engine::kX8Avx2);
    }
}

TEST(SimdDispatch, NicHashSealedIdenticalAcrossTargetsAndLanes)
{
    // The full NIC hash stage: per-worker sharding x multi-buffer
    // scheduling x dispatch target must all leave digests untouched.
    std::vector<Digest> reference;
    for (const Target target : targets_to_test()) {
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
            ScopedTarget scope(target);
            nic::FidrNicConfig config;
            config.hash_lanes = lanes;
            nic::FidrNic nic(config);
            for (Lba lba = 0; lba < 37; ++lba) {
                Buffer chunk = workload::make_chunk_content(
                    lba % 11, 0.05 * static_cast<double>(lba % 9));
                ASSERT_TRUE(
                    nic.buffer_write(lba, std::move(chunk)).is_ok());
            }
            nic::SealedBatch *batch = nic.seal_batch();
            ASSERT_NE(batch, nullptr);
            nic.hash_sealed(*batch);
            std::vector<Digest> digests;
            for (const nic::BufferedChunk &chunk : batch->chunks)
                digests.push_back(chunk.digest);
            nic.drop_sealed(batch->epoch);
            if (reference.empty()) {
                reference = digests;
                continue;
            }
            ASSERT_EQ(digests.size(), reference.size());
            for (std::size_t i = 0; i < digests.size(); ++i) {
                EXPECT_EQ(digests[i], reference[i])
                    << "chunk " << i << " target=" << simd::name(target)
                    << " lanes=" << lanes;
            }
        }
    }
}

}  // namespace
}  // namespace fidr
