/**
 * @file
 * Internal SHA-256 kernel interface: the per-ISA block transforms, the
 * FIPS 180-4 constants they share, and the engine seam that lets tests
 * and benches run every engine the host supports.  Not part of the
 * public hash API.
 *
 * The multi-buffer transforms use a word-major state layout:
 * `state[w][lane]` is word `w` of lane `lane`'s running hash, so each
 * of the eight working variables loads as one contiguous vector.  A
 * transform consumes exactly one 64-byte block per lane and updates
 * all lanes in lockstep.  The single-message block functions take one
 * plain `state[8]` and any number of consecutive blocks.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fidr/common/simd.h"
#include "fidr/hash/digest.h"

namespace fidr::hash_detail {

/** FIPS 180-4 Sec 5.3.3 initial hash value. */
inline constexpr std::uint32_t kSha256Init[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

/** FIPS 180-4 Sec 4.2.2 round constants. */
inline constexpr std::uint32_t kSha256K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5,
    0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3,
    0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5,
    0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

/** Portable FIPS 180-4 compression of `nblocks` 64-byte blocks. */
void sha256_blocks_portable(std::uint32_t state[8], const std::uint8_t *data,
                            std::size_t nblocks);

#if defined(FIDR_SIMD_X86)
/**
 * The same on the SHA extensions (sha256rnds2/msg1/msg2; needs
 * SSE4.1 + SHA, see simd::sha_ni()).  `data` may be unaligned.
 */
void sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t *data,
                         std::size_t nblocks);

/** One 64-byte block per lane, 4 lanes in XMM registers (SSE4). */
void sha256_transform_x4_sse4(std::uint32_t state[8][4],
                              const std::uint8_t *const blocks[4]);

/** One 64-byte block per lane, 8 lanes in YMM registers (AVX2). */
void sha256_transform_x8_avx2(std::uint32_t state[8][8],
                              const std::uint8_t *const blocks[8]);
#endif

/** The SHA-256 engines `sha256_mb_hash_on` can run. */
enum class Sha256Engine {
    kPortable,  ///< One message at a time, portable C++ (the reference).
    kX4Sse4,    ///< 4 interleaved messages per SSE4 transform.
    kX8Avx2,    ///< 8 interleaved messages per AVX2 transform.
    kShaNi,     ///< One message at a time on the SHA extensions.
};

/** Every engine, for sweeps; filter with supported(). */
inline constexpr Sha256Engine kSha256Engines[] = {
    Sha256Engine::kPortable, Sha256Engine::kX4Sse4,
    Sha256Engine::kX8Avx2, Sha256Engine::kShaNi};

/** `"portable"`, `"x4_sse4"`, `"x8_avx2"` or `"shani"`. */
const char *name(Sha256Engine engine);

/** True if this binary has `engine` and the CPU runs it. */
bool supported(Sha256Engine engine);

/**
 * The engine `sha256_mb_hash` runs under `target`: portable for
 * kScalar; from kSse4 up SHA-NI if simd::sha_ni(), else the target's
 * interleaved engine (avx512 reuses x8_avx2).
 */
Sha256Engine engine_for(simd::Target target);

using Sha256BlocksFn = void (*)(std::uint32_t state[8],
                                const std::uint8_t *data,
                                std::size_t nblocks);

/**
 * The block function `Sha256::update` runs under `target`: SHA-NI
 * where engine_for(target) picks it, else portable.
 */
Sha256BlocksFn sha256_blocks_for(simd::Target target);

/**
 * `sha256_mb_hash` on a fixed engine, which must be supported().  The
 * interleaved engines still hand batches below half their width to
 * the portable kernel.
 */
void sha256_mb_hash_on(Sha256Engine engine,
                       std::span<const std::span<const std::uint8_t>> inputs,
                       Digest *out);

}  // namespace fidr::hash_detail
