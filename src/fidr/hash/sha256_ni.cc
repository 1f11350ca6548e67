// SHA-NI single-message SHA-256 block function.
//
// Compiled with -msha -msse4.1 (src/fidr/hash/CMakeLists.txt); only
// reached after the runtime probe admits the SHA extensions
// (simd::sha_ni()).  The state lives in two XMM registers in the
// order sha256rnds2 wants, ABEF and CDGH; each sha256rnds2 runs two
// rounds, and sha256msg1/msg2 expand the message schedule four words
// at a time, so one block is 32 round instructions and 12 schedule
// steps.  Loads are unaligned, so any byte offset works.

#if defined(FIDR_SIMD_X86)

#include <immintrin.h>

#include "fidr/hash/sha256_mb_kernels.h"

namespace fidr::hash_detail {
namespace {

/** Four rounds with message words `msg` and constants K[4g..4g+3]. */
inline void
rounds4(__m128i &abef, __m128i &cdgh, __m128i msg, int g)
{
    const __m128i wk = _mm_add_epi32(
        msg, _mm_loadu_si128(
                 reinterpret_cast<const __m128i *>(kSha256K + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/** W[t..t+3] from W[t-16..t-1], held four words each in m0..m3. */
inline __m128i
schedule(__m128i m0, __m128i m1, __m128i m2, __m128i m3)
{
    const __m128i w = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                                    _mm_alignr_epi8(m3, m2, 4));
    return _mm_sha256msg2_epu32(w, m3);
}

}  // namespace

void
sha256_blocks_shani(std::uint32_t state[8], const std::uint8_t *data,
                    std::size_t nblocks)
{
    // Big-endian message words: byte-reverse each dword.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

    // state[0..7] = A..H  ->  abef = {F,E,B,A}, cdgh = {H,G,D,C}
    // (lane 0 first).
    __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; nblocks > 0; --nblocks, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        const auto load = [&](int i) {
            return _mm_shuffle_epi8(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(data + 16 * i)),
                bswap);
        };
        __m128i m0 = load(0);
        __m128i m1 = load(1);
        __m128i m2 = load(2);
        __m128i m3 = load(3);
        rounds4(abef, cdgh, m0, 0);
        rounds4(abef, cdgh, m1, 1);
        rounds4(abef, cdgh, m2, 2);
        rounds4(abef, cdgh, m3, 3);
        for (int g = 4; g < 16; g += 4) {
            m0 = schedule(m0, m1, m2, m3);
            rounds4(abef, cdgh, m0, g);
            m1 = schedule(m1, m2, m3, m0);
            rounds4(abef, cdgh, m1, g + 1);
            m2 = schedule(m2, m3, m0, m1);
            rounds4(abef, cdgh, m2, g + 2);
            m3 = schedule(m3, m0, m1, m2);
            rounds4(abef, cdgh, m3, g + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back to A..H order.
    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), hgfe);
}

}  // namespace fidr::hash_detail

#endif  // FIDR_SIMD_X86
