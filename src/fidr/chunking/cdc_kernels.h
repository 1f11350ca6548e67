/**
 * @file
 * Internal Gear boundary-scan kernels behind GearCdc (one per
 * fidr::simd::Target).  Not part of the public chunking API.
 *
 * All kernels answer the same question: starting the rolling hash at
 * zero, scan bytes `p[from..limit)` and return the cut position (index
 * one past the first byte where `(h & mask) == 0`), or `limit` when no
 * boundary fires.  The SIMD kernels are *exact*, not prefilters: the
 * boundary test only reads `h & mask`, and because `mask` fits in the
 * low 16 bits, `h mod 2^16` — which obeys the same affine recurrence
 * `h' = 2h + gear[byte] (mod 2^16)` — carries the full truth.  A
 * 16-bit-lane weighted prefix scan therefore reproduces every masked
 * hash value, and every boundary, bit-identically (DESIGN.md §12).
 *
 * The SSE4/AVX2 declarations exist only on x86-64 builds
 * (FIDR_SIMD_X86 set by src/fidr/common/CMakeLists.txt); the scalar
 * kernel is always compiled and is the reference the cross-target
 * fuzz suite compares against.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace fidr::chunking::detail {

/**
 * Shared, immutable gear tables, built once per process from the
 * fixed seed, so per-buffer chunker instances do not pay the 2 KB
 * table fill.
 */
struct GearTables {
    /** Full 64-bit gear values: the scalar rolling hash. */
    alignas(64) std::uint64_t gear[256];
    /**
     * Low 16 bits zero-extended to 32: scalar loads of these never
     * need masking before the SIMD kernels shift them into packed
     * 16-bit lane registers, and the whole table is 1 KB of L1.
     */
    alignas(64) std::uint32_t g16[256];
    /**
     * The same low 16 bits packed contiguously: the AVX-512 kernel
     * loads all 512 bytes into eight zmm registers up front and then
     * never touches memory for lookups (vpermi2w).  Kept in the shared
     * tables so kernels pay zero per-call conversion.
     */
    alignas(64) std::uint16_t g16w[256];
};

/** The process-wide tables (thread-safe lazy init, fixed seed). */
const GearTables &gear_tables();

/**
 * Portable reference scan (8-byte unrolled).  `mask` may be any
 * width; the SIMD kernels additionally require `mask <= 0xffff`
 * (GearCdc dispatch enforces this).
 */
std::size_t gear_scan_scalar(const std::uint8_t *p, std::size_t from,
                             std::size_t limit, std::uint64_t mask,
                             const GearTables &tables);

#if defined(FIDR_SIMD_X86)
/** 8 positions per iteration, 16-bit lanes in one XMM register. */
std::size_t gear_scan_sse4(const std::uint8_t *p, std::size_t from,
                           std::size_t limit, std::uint64_t mask,
                           const GearTables &tables);

/** 16 positions per iteration, 16-bit lanes in one YMM register. */
std::size_t gear_scan_avx2(const std::uint8_t *p, std::size_t from,
                           std::size_t limit, std::uint64_t mask,
                           const GearTables &tables);

/**
 * 32 positions per iteration with the gear table held in registers
 * (AVX-512 F+BW+VBMI; vpermi2w lookups, no gathers).
 */
std::size_t gear_scan_avx512(const std::uint8_t *p, std::size_t from,
                             std::size_t limit, std::uint64_t mask,
                             const GearTables &tables);
#endif

}  // namespace fidr::chunking::detail
