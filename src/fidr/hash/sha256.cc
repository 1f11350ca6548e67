#include "fidr/hash/sha256.h"

#include <algorithm>
#include <cstring>

#include "fidr/common/status.h"
#include "fidr/hash/sha256_mb_kernels.h"

namespace fidr {
namespace {

constexpr const std::uint32_t (&kRound)[64] = hash_detail::kSha256K;

std::uint32_t
rotr(std::uint32_t x, int k)
{
    return (x >> k) | (x << (32 - k));
}

std::uint32_t
load_be32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

// Message-schedule sigmas (FIPS 180-4 Sec 4.1.2).
std::uint32_t
sig0(std::uint32_t x)
{
    return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}

std::uint32_t
sig1(std::uint32_t x)
{
    return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}

}  // namespace

void
Sha256::reset()
{
    std::memcpy(state_, hash_detail::kSha256Init, sizeof(state_));
    block_len_ = 0;
    total_len_ = 0;
}

// One round with rotated register assignment: callers permute the
// a..h arguments instead of the loop shuffling eight registers, and
// the schedule is a rolling 16-word window instead of a 64-word
// expansion pass (the same structure hand-tuned scalar SHA cores and
// the FPGA pipeline use).
#define FIDR_SHA_ROUND(a, b, c, d, e, f, g, h, k, wv)                       \
    do {                                                                    \
        const std::uint32_t t1 = (h) +                                      \
            (rotr((e), 6) ^ rotr((e), 11) ^ rotr((e), 25)) +                \
            (((e) & (f)) ^ (~(e) & (g))) + (k) + (wv);                      \
        const std::uint32_t t2 =                                            \
            (rotr((a), 2) ^ rotr((a), 13) ^ rotr((a), 22)) +                \
            (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));                      \
        (d) += t1;                                                          \
        (h) = t1 + t2;                                                      \
    } while (0)

// w[j] (mod-16 ring) advanced 16 rounds: w[i] = w[i-16] + s0(w[i-15])
// + w[i-7] + s1(w[i-2]), with i-16 == j, i-15 == j+1, i-7 == j+9 and
// i-2 == j+14 modulo 16.
#define FIDR_SHA_SCHED(j)                                                   \
    (w[(j) & 15] += sig0(w[((j) + 1) & 15]) + w[((j) + 9) & 15] +           \
                    sig1(w[((j) + 14) & 15]))

namespace {

void
compress_block(std::uint32_t state[8], const std::uint8_t *block)
{
    std::uint32_t w[16];
    for (int i = 0; i < 16; ++i)
        w[i] = load_be32(block + 4 * i);

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    FIDR_SHA_ROUND(a, b, c, d, e, f, g, h, kRound[0], w[0]);
    FIDR_SHA_ROUND(h, a, b, c, d, e, f, g, kRound[1], w[1]);
    FIDR_SHA_ROUND(g, h, a, b, c, d, e, f, kRound[2], w[2]);
    FIDR_SHA_ROUND(f, g, h, a, b, c, d, e, kRound[3], w[3]);
    FIDR_SHA_ROUND(e, f, g, h, a, b, c, d, kRound[4], w[4]);
    FIDR_SHA_ROUND(d, e, f, g, h, a, b, c, kRound[5], w[5]);
    FIDR_SHA_ROUND(c, d, e, f, g, h, a, b, kRound[6], w[6]);
    FIDR_SHA_ROUND(b, c, d, e, f, g, h, a, kRound[7], w[7]);
    FIDR_SHA_ROUND(a, b, c, d, e, f, g, h, kRound[8], w[8]);
    FIDR_SHA_ROUND(h, a, b, c, d, e, f, g, kRound[9], w[9]);
    FIDR_SHA_ROUND(g, h, a, b, c, d, e, f, kRound[10], w[10]);
    FIDR_SHA_ROUND(f, g, h, a, b, c, d, e, kRound[11], w[11]);
    FIDR_SHA_ROUND(e, f, g, h, a, b, c, d, kRound[12], w[12]);
    FIDR_SHA_ROUND(d, e, f, g, h, a, b, c, kRound[13], w[13]);
    FIDR_SHA_ROUND(c, d, e, f, g, h, a, b, kRound[14], w[14]);
    FIDR_SHA_ROUND(b, c, d, e, f, g, h, a, kRound[15], w[15]);

    // 16 rounds per iteration keeps every w[] index a compile-time
    // constant ((i + k) & 15 == k when i is a multiple of 16), so the
    // whole 16-word window stays in registers.
    for (int i = 16; i < 64; i += 16) {
        FIDR_SHA_ROUND(a, b, c, d, e, f, g, h, kRound[i + 0],
                       FIDR_SHA_SCHED(0));
        FIDR_SHA_ROUND(h, a, b, c, d, e, f, g, kRound[i + 1],
                       FIDR_SHA_SCHED(1));
        FIDR_SHA_ROUND(g, h, a, b, c, d, e, f, kRound[i + 2],
                       FIDR_SHA_SCHED(2));
        FIDR_SHA_ROUND(f, g, h, a, b, c, d, e, kRound[i + 3],
                       FIDR_SHA_SCHED(3));
        FIDR_SHA_ROUND(e, f, g, h, a, b, c, d, kRound[i + 4],
                       FIDR_SHA_SCHED(4));
        FIDR_SHA_ROUND(d, e, f, g, h, a, b, c, kRound[i + 5],
                       FIDR_SHA_SCHED(5));
        FIDR_SHA_ROUND(c, d, e, f, g, h, a, b, kRound[i + 6],
                       FIDR_SHA_SCHED(6));
        FIDR_SHA_ROUND(b, c, d, e, f, g, h, a, kRound[i + 7],
                       FIDR_SHA_SCHED(7));
        FIDR_SHA_ROUND(a, b, c, d, e, f, g, h, kRound[i + 8],
                       FIDR_SHA_SCHED(8));
        FIDR_SHA_ROUND(h, a, b, c, d, e, f, g, kRound[i + 9],
                       FIDR_SHA_SCHED(9));
        FIDR_SHA_ROUND(g, h, a, b, c, d, e, f, kRound[i + 10],
                       FIDR_SHA_SCHED(10));
        FIDR_SHA_ROUND(f, g, h, a, b, c, d, e, kRound[i + 11],
                       FIDR_SHA_SCHED(11));
        FIDR_SHA_ROUND(e, f, g, h, a, b, c, d, kRound[i + 12],
                       FIDR_SHA_SCHED(12));
        FIDR_SHA_ROUND(d, e, f, g, h, a, b, c, kRound[i + 13],
                       FIDR_SHA_SCHED(13));
        FIDR_SHA_ROUND(c, d, e, f, g, h, a, b, kRound[i + 14],
                       FIDR_SHA_SCHED(14));
        FIDR_SHA_ROUND(b, c, d, e, f, g, h, a, kRound[i + 15],
                       FIDR_SHA_SCHED(15));
    }

    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
}

#undef FIDR_SHA_ROUND
#undef FIDR_SHA_SCHED

}  // namespace

namespace hash_detail {

void
sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t *data,
                       std::size_t nblocks)
{
    for (std::size_t i = 0; i < nblocks; ++i)
        compress_block(state, data + 64 * i);
}

Sha256BlocksFn
sha256_blocks_for(simd::Target target)
{
#if defined(FIDR_SIMD_X86)
    if (engine_for(target) == Sha256Engine::kShaNi)
        return sha256_blocks_shani;
#else
    (void)target;
#endif
    return sha256_blocks_portable;
}

}  // namespace hash_detail

void
Sha256::update(std::span<const std::uint8_t> data)
{
    // One dispatch per call: the completed buffered block and the whole
    // blocks of `data` go through the same kernel.
    const hash_detail::Sha256BlocksFn blocks =
        hash_detail::sha256_blocks_for(simd::active());
    total_len_ += data.size();
    std::size_t offset = 0;

    if (block_len_ > 0) {
        const std::size_t take = std::min(data.size(), 64 - block_len_);
        std::memcpy(block_ + block_len_, data.data(), take);
        block_len_ += take;
        offset += take;
        if (block_len_ == 64) {
            blocks(state_, block_, 1);
            block_len_ = 0;
        }
    }
    const std::size_t whole = (data.size() - offset) / 64;
    if (whole > 0) {
        blocks(state_, data.data() + offset, whole);
        offset += 64 * whole;
    }
    if (offset < data.size()) {
        std::memcpy(block_, data.data() + offset, data.size() - offset);
        block_len_ = data.size() - offset;
    }
}

Digest
Sha256::finish()
{
    const std::uint64_t bit_len = total_len_ * 8;

    std::uint8_t pad[72];
    std::size_t pad_len = 0;
    pad[pad_len++] = 0x80;
    while ((block_len_ + pad_len) % 64 != 56)
        pad[pad_len++] = 0x00;
    for (int i = 7; i >= 0; --i)
        pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
    update(std::span<const std::uint8_t>(pad, pad_len));
    // Padding runs the length up to a block boundary, so update() must
    // have consumed everything.
    FIDR_CHECK(block_len_ == 0);

    Digest out;
    for (int i = 0; i < 8; ++i) {
        out.bytes()[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        out.bytes()[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out.bytes()[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out.bytes()[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

Digest
Sha256::hash(std::span<const std::uint8_t> data)
{
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
}

std::uint64_t
fnv1a64(std::span<const std::uint8_t> data)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : data) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

}  // namespace fidr
