/**
 * @file
 * CPU-feature dispatch for the data-reduction kernels.
 *
 * The two dominant write-plane primitives — GearCdc boundary scanning
 * and SHA-256 fingerprinting — ship in multiple implementations:
 * portable scalar (always compiled, always the reference), SSE4, AVX2,
 * (for the chunker) AVX-512VBMI with the gear table held entirely in
 * zmm registers, and (for SHA-256) the SHA-NI instructions, which
 * serve every vector target once cpuid reports them.  This module
 * owns the choice: a one-time cpuid
 * probe picks the best target the host supports, the `FIDR_SIMD`
 * environment variable (`auto|avx512|avx2|sse4|scalar`) or
 * `set_target()` can force a lower one, and every kernel call site
 * reads `active()` so tests can flip targets at runtime and prove
 * bit-identical results.
 *
 * The contract mirrors the lane-count determinism rule: dispatch
 * targets may only change wall-clock, never results.  Chunk boundaries
 * and digests are bit-identical across all targets by construction
 * (see DESIGN.md §12), and tests/test_simd_dispatch.cpp fuzzes that
 * equivalence.
 */
#pragma once

#include <optional>
#include <string_view>

namespace fidr::simd {

/** Kernel dispatch targets, ordered weakest to strongest. */
enum class Target {
    kScalar = 0,  ///< Portable C++; the reference implementation.
    kSse4 = 1,    ///< 128-bit SSE4.1 kernels (x86-64 only).
    kAvx2 = 2,    ///< 256-bit AVX2 kernels (x86-64 only).
    /**
     * 512-bit kernels needing AVX-512 F+BW+VBMI (vpermi2w).  Only the
     * chunker has a dedicated AVX-512 kernel; hashing has none (see
     * sha_ni()).
     */
    kAvx512 = 3,
};

/** True if this binary has kernels for `target` and the CPU runs them. */
bool supported(Target target);

/** Strongest target this host supports (cpuid probe, cached). */
Target detected();

/**
 * The target kernels dispatch on right now.  Initialized on first use
 * from `FIDR_SIMD` (unset or `auto` means detected()); unknown values
 * or targets the host lacks fall back to detected() with a warning on
 * stderr rather than aborting, so a config written on an AVX2 host
 * still runs on an older one.
 */
Target active();

/**
 * True if the CPU has the SHA extensions and this binary has the
 * SHA-NI SHA-256 kernel (cpuid probe, cached).  Not a target of its
 * own: SHA-256 runs on SHA-NI whenever this holds and active() is at
 * least kSse4, whose pshufb/pblendw the kernel also needs, so
 * `FIDR_SIMD=scalar` still selects the portable reference.
 */
bool sha_ni();

/**
 * Forces the dispatch target (tests/benches).  Requests above what the
 * host supports clamp to detected().  Returns the target actually
 * installed.
 */
Target set_target(Target target);

/** `"scalar"`, `"sse4"`, `"avx2"` or `"avx512"`. */
const char *name(Target target);

/** Parses a FIDR_SIMD value; `"auto"` maps to detected(); nullopt on
 *  unknown input. */
std::optional<Target> parse(std::string_view text);

}  // namespace fidr::simd
