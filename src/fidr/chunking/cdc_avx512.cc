// AVX-512VBMI Gear boundary scan: 32 positions per iteration with the
// gear table held entirely in registers.
//
// Compiled with -mavx512f -mavx512bw -mavx512vbmi
// (src/fidr/chunking/CMakeLists.txt); only reached after the runtime
// cpuid probe admits all three.
//
// The SSE4/AVX2 kernels are capped by lookup bandwidth: 8/16 scalar
// L1 loads per iteration against the 1 KB table (x86 gathers are no
// faster — vpgatherdd on a zmm measured *below* the scalar loop).
// This kernel removes the loads entirely: the 512-byte 16-bit gear
// table fits in eight zmm registers, and vpermi2w performs 32
// lane-parallel 7-bit lookups in one instruction.  Four vpermi2w
// cover table rows 0-63/64-127/128-191/192-255; bits 6 and 7 of each
// byte select among them with three blends.
//
// Exactness is the same mod-2^16 argument as the narrower kernels
// (DESIGN.md §12) at width 32: lane k needs weight 2^(k-j) on gear
// byte j and 2^(k+1) on the incoming hash, and every weight >= 2^16
// is 0 mod 2^16.  So the weighted Kogge-Stone scan still needs only
// 4 doubling steps (window 16), the carry multiplier vector is zero
// from lane 15 up, and — since lane 31's carry weight is 2^32 ≡ 0 —
// the next iteration's carry can be taken from the scan vector `s`
// itself, broadcast in-register without a GPR round-trip.

#if defined(FIDR_SIMD_X86)

#include <bit>
#include <immintrin.h>

#include "fidr/chunking/cdc_kernels.h"

namespace fidr::chunking::detail {

std::size_t
gear_scan_avx512(const std::uint8_t *p, std::size_t from, std::size_t limit,
                 std::uint64_t mask, const GearTables &tables)
{
    // Whole gear table (low 16 bits) in eight zmm registers.
    __m512i t[8];
    for (int r = 0; r < 8; ++r)
        t[r] = _mm512_load_si512(tables.g16w + r * 32);
    const __m512i vmask = _mm512_set1_epi16(static_cast<short>(mask));
    const __m512i vzero = _mm512_setzero_si512();
    // Carry multipliers 2^(k+1); zero from lane 15 up (2^16 ≡ 0).
    alignas(64) short pw[32] = {};
    for (int k = 0; k < 15; ++k)
        pw[k] = static_cast<short>(1u << (k + 1));
    const __m512i pow2 = _mm512_load_si512(pw);
    // Word permutation [0,0,1,...,30]: with lane 0 masked to zero this
    // is a 1-lane left shift (vpermw crosses 128-bit boundaries, which
    // vpalignr cannot).
    alignas(64) short sh1[32];
    for (int k = 0; k < 32; ++k)
        sh1[k] = static_cast<short>(k ? k - 1 : 0);
    const __m512i shift1_idx = _mm512_load_si512(sh1);
    const __m512i idx31 = _mm512_set1_epi16(31);
    const __m512i bit6 = _mm512_set1_epi16(0x40);
    const __m512i bit7 = _mm512_set1_epi16(0x80);
    __m512i vcarry = vzero;
    std::size_t i = from;
    for (; i + 32 <= limit; i += 32) {
        const __m512i idx = _mm512_cvtepu8_epi16(_mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p + i)));
        // In-register table lookup: vpermi2w reads the low 7 index
        // bits across a register pair; bits 6-7 pick the pair.
        const __m512i lo01 = _mm512_permutex2var_epi16(t[0], idx, t[1]);
        const __m512i lo23 = _mm512_permutex2var_epi16(t[2], idx, t[3]);
        const __m512i hi45 = _mm512_permutex2var_epi16(t[4], idx, t[5]);
        const __m512i hi67 = _mm512_permutex2var_epi16(t[6], idx, t[7]);
        const __mmask32 b6 = _mm512_test_epi16_mask(idx, bit6);
        const __mmask32 b7 = _mm512_test_epi16_mask(idx, bit7);
        const __m512i lo = _mm512_mask_blend_epi16(b6, lo01, lo23);
        const __m512i hi = _mm512_mask_blend_epi16(b6, hi45, hi67);
        __m512i s = _mm512_mask_blend_epi16(b7, lo, hi);
        // Weighted Kogge-Stone scan: 4 doubling steps reach the full
        // 16-lane window; shifts of 4/8/16 lanes are whole dwords, so
        // valignd (with a zero source) does the lane shift cheaply.  The
        // zero-masking form with a full mask is the same instruction;
        // the unmasked intrinsic's undefined pass-through operand trips
        // GCC 12's -Wmaybe-uninitialized.
        s = _mm512_add_epi16(
            s, _mm512_slli_epi16(_mm512_maskz_permutexvar_epi16(
                                     0xFFFFFFFEu, shift1_idx, s), 1));
        s = _mm512_add_epi16(
            s, _mm512_slli_epi16(
                   _mm512_maskz_alignr_epi32(0xFFFF, s, vzero, 15), 2));
        s = _mm512_add_epi16(
            s, _mm512_slli_epi16(
                   _mm512_maskz_alignr_epi32(0xFFFF, s, vzero, 14), 4));
        s = _mm512_add_epi16(
            s, _mm512_slli_epi16(
                   _mm512_maskz_alignr_epi32(0xFFFF, s, vzero, 12), 8));
        const __m512i h =
            _mm512_add_epi16(s, _mm512_mullo_epi16(vcarry, pow2));
        const auto m = static_cast<std::uint32_t>(
            _cvtmask32_u32(_mm512_testn_epi16_mask(h, vmask)));
        if (m != 0)
            return i + std::countr_zero(m) + 1;
        // h[31] == s[31] (carry weight 2^32 ≡ 0): broadcast the next
        // carry straight from s, keeping the loop-carried chain at
        // one in-register shuffle.
        vcarry = _mm512_permutexvar_epi16(idx31, s);
    }
    // Lane 0 via vmovd: _mm512_castsi512_si128 trips the same GCC 12
    // warning through its undefined pass-through operand.
    auto v = static_cast<std::uint16_t>(_mm512_cvtsi512_si32(vcarry));
    for (; i < limit; ++i) {
        v = static_cast<std::uint16_t>(
            (v << 1) + static_cast<std::uint16_t>(tables.g16[p[i]]));
        if ((v & mask) == 0)
            return i + 1;
    }
    return limit;
}

}  // namespace fidr::chunking::detail

#endif  // FIDR_SIMD_X86
