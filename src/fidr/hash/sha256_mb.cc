#include "fidr/hash/sha256_mb.h"

#include <cstring>

#include "fidr/common/simd.h"
#include "fidr/common/status.h"
#include "fidr/hash/sha256_mb_kernels.h"

namespace fidr {
namespace {

/**
 * One engine lane's message stream: the payload's whole 64-byte
 * blocks, then 1-2 materialized padding blocks (0x80 marker + zero
 * fill + big-endian bit length, FIPS 180-4 Sec 5.1.1), so every lane
 * advances one block per transform with no mid-stream branching.
 */
struct LaneStream {
    const std::uint8_t *data = nullptr;
    std::size_t full_blocks = 0;
    std::uint8_t tail[128];
    std::size_t tail_blocks = 0;
    std::size_t tail_next = 0;
    std::size_t out = 0;  ///< Digest slot this lane is producing.
    bool active = false;
};

void
prepare(std::span<const std::uint8_t> input, LaneStream &lane,
        std::size_t out_index)
{
    lane.data = input.data();
    lane.full_blocks = input.size() / 64;
    const std::size_t rem = input.size() % 64;
    std::memset(lane.tail, 0, sizeof(lane.tail));
    if (rem > 0)
        std::memcpy(lane.tail, input.data() + input.size() - rem, rem);
    lane.tail[rem] = 0x80;
    const std::size_t padded = rem + 9 <= 64 ? 64 : 128;
    const std::uint64_t bit_len =
        static_cast<std::uint64_t>(input.size()) * 8;
    for (int i = 0; i < 8; ++i) {
        lane.tail[padded - 8 + i] =
            static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    lane.tail_blocks = padded / 64;
    lane.tail_next = 0;
    lane.out = out_index;
    lane.active = true;
}

void
store_digest(const std::uint32_t state[8], Digest &digest)
{
    for (int w = 0; w < 8; ++w) {
        digest.bytes()[4 * w] = static_cast<std::uint8_t>(state[w] >> 24);
        digest.bytes()[4 * w + 1] = static_cast<std::uint8_t>(state[w] >> 16);
        digest.bytes()[4 * w + 2] = static_cast<std::uint8_t>(state[w] >> 8);
        digest.bytes()[4 * w + 3] = static_cast<std::uint8_t>(state[w]);
    }
}

/**
 * One message at a time through a single-message block function: the
 * payload's whole blocks in place, then its padding blocks.
 */
void
run_single(std::span<const std::span<const std::uint8_t>> inputs,
           Digest *out, hash_detail::Sha256BlocksFn blocks)
{
    LaneStream lane;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        prepare(inputs[i], lane, i);
        std::uint32_t state[8];
        std::memcpy(state, hash_detail::kSha256Init, sizeof(state));
        blocks(state, lane.data, lane.full_blocks);
        blocks(state, lane.tail, lane.tail_blocks);
        store_digest(state, out[i]);
    }
}

#if defined(FIDR_SIMD_X86)
/**
 * Lane-refill scheduler: run L interleaved compressions; whenever a
 * lane drains its stream, emit the digest and hand the lane the next
 * pending buffer.  Idle lanes (fewer pending buffers than lanes at
 * the tail of a batch) chew a dummy block; their state columns are
 * never read.
 */
template <std::size_t L, typename TransformFn>
void
run_mb(std::span<const std::span<const std::uint8_t>> inputs, Digest *out,
       TransformFn transform)
{
    static constexpr std::uint8_t kDummyBlock[64] = {};
    std::uint32_t st[8][L];
    LaneStream lanes[L];
    const std::size_t n = inputs.size();
    std::size_t next = 0;
    std::size_t done = 0;

    const auto refill = [&](std::size_t l) {
        if (next >= n) {
            lanes[l].active = false;
            return;
        }
        prepare(inputs[next], lanes[l], next);
        for (int w = 0; w < 8; ++w)
            st[w][l] = hash_detail::kSha256Init[w];
        ++next;
    };
    for (std::size_t l = 0; l < L; ++l)
        refill(l);

    while (done < n) {
        const std::uint8_t *blk[L];
        for (std::size_t l = 0; l < L; ++l) {
            LaneStream &lane = lanes[l];
            if (!lane.active) {
                blk[l] = kDummyBlock;
            } else if (lane.full_blocks > 0) {
                blk[l] = lane.data;
                lane.data += 64;
                --lane.full_blocks;
            } else {
                blk[l] = lane.tail + 64 * lane.tail_next;
                ++lane.tail_next;
            }
        }
        transform(st, blk);
        for (std::size_t l = 0; l < L; ++l) {
            LaneStream &lane = lanes[l];
            if (!lane.active || lane.full_blocks > 0 ||
                lane.tail_next < lane.tail_blocks) {
                continue;
            }
            std::uint32_t words[8];
            for (int w = 0; w < 8; ++w)
                words[w] = st[w][l];
            store_digest(words, out[lane.out]);
            ++done;
            refill(l);
        }
    }
}
#endif  // FIDR_SIMD_X86

}  // namespace

namespace hash_detail {

const char *
name(Sha256Engine engine)
{
    switch (engine) {
      case Sha256Engine::kPortable: return "portable";
      case Sha256Engine::kX4Sse4: return "x4_sse4";
      case Sha256Engine::kX8Avx2: return "x8_avx2";
      case Sha256Engine::kShaNi: return "shani";
    }
    return "?";
}

bool
supported(Sha256Engine engine)
{
    switch (engine) {
      case Sha256Engine::kPortable: return true;
      case Sha256Engine::kX4Sse4:
        return simd::supported(simd::Target::kSse4);
      case Sha256Engine::kX8Avx2:
        return simd::supported(simd::Target::kAvx2);
      case Sha256Engine::kShaNi:
        return simd::sha_ni() && simd::supported(simd::Target::kSse4);
    }
    return false;
}

Sha256Engine
engine_for(simd::Target target)
{
    if (target == simd::Target::kScalar)
        return Sha256Engine::kPortable;
    if (simd::sha_ni())
        return Sha256Engine::kShaNi;
    // No dedicated AVX-512 hash kernel: 16-lane interleaving would
    // need batches the write plane rarely fills.
    return target == simd::Target::kSse4 ? Sha256Engine::kX4Sse4
                                         : Sha256Engine::kX8Avx2;
}

void
sha256_mb_hash_on(Sha256Engine engine,
                  std::span<const std::span<const std::uint8_t>> inputs,
                  Digest *out)
{
    FIDR_CHECK(supported(engine));
#if defined(FIDR_SIMD_X86)
    // Batches below half an interleaved engine's width waste more on
    // idle lanes than interleaving saves; they fall through to the
    // portable kernel.
    switch (engine) {
      case Sha256Engine::kX8Avx2:
        if (inputs.size() >= 4) {
            run_mb<8>(inputs, out, sha256_transform_x8_avx2);
            return;
        }
        break;
      case Sha256Engine::kX4Sse4:
        if (inputs.size() >= 2) {
            run_mb<4>(inputs, out, sha256_transform_x4_sse4);
            return;
        }
        break;
      case Sha256Engine::kShaNi:
        run_single(inputs, out, sha256_blocks_shani);
        return;
      case Sha256Engine::kPortable:
        break;
    }
#endif
    run_single(inputs, out, sha256_blocks_portable);
}

}  // namespace hash_detail

std::size_t
sha256_mb_lanes()
{
    // The interleaved width of the target's vector engine, even where
    // SHA-NI (one message at a time) runs instead.
    switch (simd::active()) {
      case simd::Target::kAvx512: return 8;
      case simd::Target::kAvx2: return 8;
      case simd::Target::kSse4: return 4;
      case simd::Target::kScalar: return 1;
    }
    return 1;
}

void
sha256_mb_hash(std::span<const std::span<const std::uint8_t>> inputs,
               Digest *out)
{
    hash_detail::sha256_mb_hash_on(hash_detail::engine_for(simd::active()),
                                   inputs, out);
}

}  // namespace fidr
