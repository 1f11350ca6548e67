/**
 * @file
 * Multi-buffer SHA-256: hashes N independent buffers per call.
 *
 * Single-message SIMD SHA-256 gains little — the 64-round compression
 * is a serial dependency chain.  Multi-buffer turns the problem
 * sideways (the ISA-L / OpenSSL "SHA-mb" idea): one 32-bit vector
 * lane per *message*, so an AVX2 register runs eight independent
 * compressions in lockstep and an SSE4 register four.  Each lane
 * executes exactly the FIPS 180-4 math of the scalar `Sha256`, so
 * digests are byte-identical to `Sha256::hash` on every dispatch
 * target (fuzzed by tests/test_simd_dispatch.cpp).
 *
 * The driver is a lane-refill scheduler: when a lane's message (plus
 * its padding blocks) completes, the digest is emitted and the lane
 * immediately picks up the next pending buffer, so unequal lengths
 * don't serialize the batch.
 *
 * On a host with the SHA extensions every vector target hashes one
 * message at a time on SHA-NI instead, which beats the 8-lane AVX2
 * transform on 4 KiB chunks; the interleaved engines remain for
 * hosts without them (hash_detail::sha256_mb_hash_on runs any
 * engine, for tests and benches).  This is the engine behind the
 * FIDR NIC's hash stage (FidrNic::hash_sealed feeds each hash
 * worker's shard of a sealed batch through it) and the baseline
 * accelerator's batch hashing.
 */
#pragma once

#include <cstddef>
#include <span>

#include "fidr/hash/digest.h"

namespace fidr {

/**
 * Interleaved lanes of the active dispatch target's vector engine: 8
 * (AVX2, AVX-512), 4 (SSE4) or 1 (scalar), also where SHA-NI runs in
 * its place.  Callers batching work should aim for multiples of this.
 */
std::size_t sha256_mb_lanes();

/**
 * Hashes `inputs.size()` independent buffers into `out[0..n)`;
 * `out[i]` equals `Sha256::hash(inputs[i])` bit-for-bit.  Dispatches
 * on `fidr::simd::active()` and `simd::sha_ni()`; on the interleaved
 * engines, small batches (below half the engine width) take the
 * portable path, which is faster than padding idle lanes with dummy
 * blocks.
 */
void sha256_mb_hash(std::span<const std::span<const std::uint8_t>> inputs,
                    Digest *out);

}  // namespace fidr
