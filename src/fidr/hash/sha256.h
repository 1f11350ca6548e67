/**
 * @file
 * From-scratch SHA-256 (FIPS 180-4).
 *
 * This is the software counterpart of the open-source SHA-256 FPGA core
 * the paper instantiates in the FIDR NIC (Sec 6.2).  The incremental API
 * mirrors the usual init/update/final flow so callers can hash streamed
 * request payloads without copying.
 *
 * Each update() compresses its blocks on the SHA-NI kernel when the
 * host has the SHA extensions and `simd::active()` is at least kSse4,
 * and on the portable FIPS 180-4 code otherwise (`FIDR_SIMD=scalar`
 * pins the portable path).  Digests are identical either way.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "fidr/hash/digest.h"

namespace fidr {

/** Incremental SHA-256 context. */
class Sha256 {
  public:
    Sha256() { reset(); }

    /** Resets to the initial hash state; the context is reusable. */
    void reset();

    /** Absorbs `data` into the running hash. */
    void update(std::span<const std::uint8_t> data);

    /**
     * Applies padding and returns the digest.  The context must be
     * reset() before reuse after finishing.
     */
    Digest finish();

    /** One-shot convenience over a byte span. */
    static Digest hash(std::span<const std::uint8_t> data);

  private:
    std::uint32_t state_[8];
    std::uint8_t block_[64];
    std::size_t block_len_;
    std::uint64_t total_len_;
};

/**
 * FNV-1a 64-bit: a fast non-cryptographic hash used for internal index
 * structures where collision resistance against adversaries is not
 * needed (e.g. simulation-side sampling).  Never used as a chunk
 * signature.
 */
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

}  // namespace fidr
