#include "fidr/chunking/cdc.h"

#include <bit>

#include "fidr/chunking/cdc_kernels.h"
#include "fidr/common/rng.h"
#include "fidr/common/simd.h"
#include "fidr/common/status.h"

namespace fidr::chunking {

namespace detail {

const GearTables &
gear_tables()
{
    // Built once per process (thread-safe magic static) from the fixed
    // seed: chunking must be deterministic across runs and machines or
    // dedup against old data breaks.  Shared rather than built per
    // GearCdc, so per-buffer chunker instances (the ablation benches
    // build one per configuration) do not re-fill 2 KB of table state.
    static const GearTables tables = [] {
        GearTables t;
        Rng rng(0xC0FFEE);
        for (int i = 0; i < 256; ++i) {
            t.gear[i] = rng.next_u64();
            t.g16[i] = static_cast<std::uint32_t>(t.gear[i] & 0xffff);
            t.g16w[i] = static_cast<std::uint16_t>(t.gear[i] & 0xffff);
        }
        return t;
    }();
    return tables;
}

std::size_t
gear_scan_scalar(const std::uint8_t *p, std::size_t from, std::size_t limit,
                 std::uint64_t mask, const GearTables &tables)
{
    const std::uint64_t *const gear = tables.gear;
    std::uint64_t h = 0;
    std::size_t i = from;
    // Unrolled 8 bytes per iteration: one boundary test per
    // byte is still required for identical cuts, but the loop bound
    // check amortizes over 8 bytes and the single-exit structure
    // keeps it branch-light.
    const std::size_t unroll_end = from + (limit - from) / 8 * 8;
    for (; i < unroll_end; i += 8) {
#define FIDR_CDC_STEP(off)                                              \
        h = (h << 1) + gear[p[i + (off)]];                              \
        if ((h & mask) == 0)                                            \
            return i + (off) + 1;
        FIDR_CDC_STEP(0)
        FIDR_CDC_STEP(1)
        FIDR_CDC_STEP(2)
        FIDR_CDC_STEP(3)
        FIDR_CDC_STEP(4)
        FIDR_CDC_STEP(5)
        FIDR_CDC_STEP(6)
        FIDR_CDC_STEP(7)
#undef FIDR_CDC_STEP
    }
    for (; i < limit; ++i) {
        h = (h << 1) + gear[p[i]];
        if ((h & mask) == 0)
            return i + 1;
    }
    return limit;
}

}  // namespace detail

GearCdc::GearCdc(CdcParams params)
    : params_(params), tables_(&detail::gear_tables())
{
    FIDR_CHECK(params_.min_size >= 64);
    FIDR_CHECK(params_.min_size < params_.avg_size);
    FIDR_CHECK(params_.avg_size < params_.max_size);
    FIDR_CHECK(std::has_single_bit(params_.avg_size));
    // Boundary probability per byte ~ 1/(avg - min): low (avg - min)
    // rounded to a power of two bits of the hash must be zero.
    const std::size_t window = params_.avg_size - params_.min_size;
    mask_ = std::bit_ceil(window) - 1;
}

std::vector<ChunkSpan>
GearCdc::split(std::span<const std::uint8_t> data) const
{
    // Pick the scan kernel once per call: the SIMD kernels compute the
    // masked hash in 16-bit lanes, so they are exact only while the
    // mask fits 16 bits (avg - min <= 64 KiB; every configuration the
    // benches sweep).  Wider masks fall back to the scalar reference.
    using ScanFn = std::size_t (*)(const std::uint8_t *, std::size_t,
                                   std::size_t, std::uint64_t,
                                   const detail::GearTables &);
    ScanFn scan = detail::gear_scan_scalar;
#if defined(FIDR_SIMD_X86)
    if (mask_ <= 0xffff) {
        switch (simd::active()) {
          case simd::Target::kAvx512:
            scan = detail::gear_scan_avx512;
            break;
          case simd::Target::kAvx2: scan = detail::gear_scan_avx2; break;
          case simd::Target::kSse4: scan = detail::gear_scan_sse4; break;
          case simd::Target::kScalar: break;
        }
    }
#endif

    const std::uint8_t *const base = data.data();
    std::vector<ChunkSpan> out;
    std::size_t start = 0;
    while (start < data.size()) {
        const std::size_t remaining = data.size() - start;
        if (remaining <= params_.min_size) {
            out.push_back({start, remaining});
            break;
        }
        // Skip the minimum region (FastCDC's min-skip optimization),
        // then roll the gear hash until the low bits hit zero, with a
        // forced cut at max_size.
        const std::size_t limit = std::min(remaining, params_.max_size);
        const std::size_t cut =
            scan(base + start, params_.min_size, limit, mask_, *tables_);
        // Every byte from min_size up to (and including) the boundary
        // byte was hashed exactly once — also when no boundary fired
        // and cut == limit.
        hashed_bytes_ += cut - params_.min_size;
        out.push_back({start, cut});
        start += cut;
    }
    return out;
}

std::vector<ChunkSpan>
split_fixed(std::span<const std::uint8_t> data, std::size_t chunk_size)
{
    FIDR_CHECK(chunk_size > 0);
    std::vector<ChunkSpan> out;
    for (std::size_t start = 0; start < data.size();
         start += chunk_size) {
        out.push_back({start, std::min(chunk_size, data.size() - start)});
    }
    return out;
}

}  // namespace fidr::chunking
