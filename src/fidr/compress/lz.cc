#include "fidr/compress/lz.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <vector>

#include "fidr/common/bytes.h"

namespace fidr {
namespace {

constexpr std::uint8_t kMethodStored = 0;
constexpr std::uint8_t kMethodLz = 1;
constexpr std::size_t kHeaderSize = 5;

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
constexpr unsigned kMaxHashBits = 14;
constexpr unsigned kMinHashBits = 10;
constexpr int kChainDepth = 32;  ///< LzLevel::kDefault search depth.
constexpr std::uint32_t kNone = 0xFFFFFFFFu;

/**
 * Most raw bytes one block byte can decode to.  The densest sequence is
 * token + offset + k extension bytes for a match of at most 255k + 18
 * bytes, which stays below 255 bytes per block byte for every k.
 */
constexpr std::size_t kMaxExpansion = 255;

/**
 * Hash-table bits sized to the input (~1 slot per position, clamped):
 * a 4 KB chunk gets a 4 K-slot table.  Depends on size only, and the
 * bits decide which positions collide, so they are part of the pinned
 * output, not a tuning knob.
 */
unsigned
hash_bits_for(std::size_t size)
{
    unsigned bits = kMinHashBits;
    while (bits < kMaxHashBits && (std::size_t{1} << bits) < size)
        ++bits;
    return bits;
}

std::uint32_t
load32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t
load64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

template <unsigned kBits>
std::uint32_t
hash_key(std::uint32_t key)
{
    // 64-bit golden-ratio mix of the 4-byte key: the table index comes
    // from the top bits of a full 64-bit product, which spreads low-
    // entropy keys (runs, text) far better than a 32-bit Knuth
    // multiply — fewer collisions means the depth-1 "FPGA" search
    // level lands on real candidates more often.
    return static_cast<std::uint32_t>(
        (key * 0x9E3779B185EBCA87ull) >> (64 - kBits));
}

/**
 * Calls fn(std::integral_constant<unsigned, hash_bits_for(size)>): the
 * table size becomes a compile-time shift, which is ~30% of the kFast
 * literal loop when it is a variable one.
 */
template <typename Fn>
auto
with_hash_bits(std::size_t size, Fn &&fn)
{
    static_assert(kMinHashBits == 10 && kMaxHashBits == 14);
    switch (hash_bits_for(size)) {
    case 10:
        return fn(std::integral_constant<unsigned, 10>{});
    case 11:
        return fn(std::integral_constant<unsigned, 11>{});
    case 12:
        return fn(std::integral_constant<unsigned, 12>{});
    case 13:
        return fn(std::integral_constant<unsigned, 13>{});
    default:
        return fn(std::integral_constant<unsigned, 14>{});
    }
}

/** Common prefix length of `a` and `b` (a < b), stopping at `limit`. */
std::size_t
match_length(const std::uint8_t *a, const std::uint8_t *b,
             const std::uint8_t *limit)
{
    // Eight bytes per step: the first differing byte is the lowest set
    // byte of the XOR in memory order.
    const std::uint8_t *start = b;
    while (b + 8 <= limit) {
        const std::uint64_t diff = load64(a) ^ load64(b);
        if (diff != 0) {
            const int bit = std::endian::native == std::endian::little
                                ? std::countr_zero(diff)
                                : std::countl_zero(diff);
            return static_cast<std::size_t>(b - start) + bit / 8;
        }
        a += 8;
        b += 8;
    }
    while (b < limit && *a == *b) {
        ++a;
        ++b;
    }
    return static_cast<std::size_t>(b - start);
}

std::uint8_t *
emit_length(std::uint8_t *op, std::size_t extra)
{
    // 255-run extension coding shared by literal and match lengths.
    for (; extra >= 255; extra -= 255)
        *op++ = 255;
    *op++ = static_cast<std::uint8_t>(extra);
    return op;
}

std::uint8_t *
emit_sequence(std::uint8_t *op, const std::uint8_t *lit, std::size_t lit_len,
              std::size_t offset, std::size_t match_len)
{
    const std::size_t lit_code = std::min<std::size_t>(lit_len, 15);
    std::size_t match_code = 0;
    if (match_len > 0) {
        FIDR_CHECK(match_len >= kMinMatch);
        match_code = std::min<std::size_t>(match_len - kMinMatch, 15);
    }
    *op++ = static_cast<std::uint8_t>((lit_code << 4) | match_code);
    if (lit_code == 15)
        op = emit_length(op, lit_len - 15);
    std::memcpy(op, lit, lit_len);
    op += lit_len;
    if (match_len > 0) {
        *op++ = static_cast<std::uint8_t>(offset & 0xFF);
        *op++ = static_cast<std::uint8_t>(offset >> 8);
        if (match_code == 15)
            op = emit_length(op, match_len - kMinMatch - 15);
    }
    return op;
}

/**
 * Reusable per-thread storage: lz_compress runs per 4 KB chunk, and
 * reallocating the tables and output for every chunk would dominate.
 * Output depends only on the input: the chain heads are re-cleared per
 * call, and the kFast slots are invalidated by epoch instead.
 */
struct CompressScratch {
    struct Slot {
        std::uint32_t pos;  ///< epoch + position; 0 = never written.
        std::uint32_t key;
    };
    std::vector<std::uint8_t> out;
    std::vector<Slot> slots;          ///< kFast: newest position + key.
    std::uint32_t epoch_end = 0;      ///< kFast: last call's epoch + size.
    std::vector<std::uint32_t> head;  ///< kDefault: chain heads.
    std::vector<std::uint32_t> prev;  ///< kDefault: chain links.
};

/**
 * LzLevel::kFast: depth-1 search of a head table whose slots carry the
 * newest position *and* its 4-byte key, so a hash collision is
 * rejected by one compare instead of a load from the candidate.
 *
 * Slots store positions biased by a per-call epoch that advances past
 * the previous call's positions plus a full window, so every slot left
 * by an earlier call (or never written) is out of window: the table is
 * never cleared, only re-zeroed when the 32-bit epoch would wrap.
 */
template <unsigned kBits>
class FastFinder {
  public:
    FastFinder(const std::uint8_t *src, std::size_t size,
               CompressScratch &scratch)
        : src_(src), limit_(src + size), last_(size - kMinMatch)
    {
        // Slots added by a resize are zero, i.e. never written.
        if (scratch.slots.size() < (std::size_t{1} << kBits))
            scratch.slots.resize(std::size_t{1} << kBits);
        std::uint64_t epoch =
            scratch.epoch_end + std::uint64_t{kMaxOffset} + 1;
        if (epoch + size > kNone) {
            scratch.slots.assign(scratch.slots.size(), {});
            epoch = kMaxOffset + 1;
        }
        epoch_ = static_cast<std::uint32_t>(epoch);
        scratch.epoch_end = static_cast<std::uint32_t>(epoch + size);
        slots_ = scratch.slots.data();
    }

    /** Match at `pos` (0 if none, else length + `offset`); indexes pos. */
    std::size_t
    probe(std::size_t pos, std::size_t &offset)
    {
        const std::uint32_t key = load32(src_ + pos);
        const std::uint32_t here = epoch_ + static_cast<std::uint32_t>(pos);
        CompressScratch::Slot &slot = slots_[hash_key<kBits>(key)];
        const CompressScratch::Slot cand = slot;
        slot = {here, key};
        if (cand.key != key || here - cand.pos > kMaxOffset)
            return 0;
        offset = here - cand.pos;
        return kMinMatch + match_length(src_ + pos - offset + kMinMatch,
                                        src_ + pos + kMinMatch, limit_);
    }

    /**
     * Indexes the positions after `pos` that a match [pos, end) covers.
     * With offset + 3 < length the covered bytes repeat with period
     * `offset`, so position p < end - 3 - offset has the same key as
     * p + offset, which is inserted later into the same slot; only the
     * last period and the three tail positions (keys running past the
     * match) survive, so skipping the rest leaves the table exactly as
     * a full insert would.
     */
    void
    cover(std::size_t pos, std::size_t end, std::size_t offset)
    {
        std::size_t p = pos + 1;
        if (offset + 3 < end - pos)
            p = end - 3 - offset;
        const std::size_t stop = std::min(end, last_ + 1);
        for (; p < stop; ++p) {
            const std::uint32_t key = load32(src_ + p);
            slots_[hash_key<kBits>(key)] = {
                epoch_ + static_cast<std::uint32_t>(p), key};
        }
    }

  private:
    const std::uint8_t *src_;
    const std::uint8_t *limit_;
    std::size_t last_;  ///< Last position with a full 4-byte key.
    std::uint32_t epoch_;
    CompressScratch::Slot *slots_;
};

/** LzLevel::kDefault: hash chains searched kChainDepth deep. */
template <unsigned kBits>
class ChainFinder {
  public:
    ChainFinder(const std::uint8_t *src, std::size_t size,
                CompressScratch &scratch)
        : src_(src), size_(size), last_(size - kMinMatch)
    {
        scratch.head.assign(std::size_t{1} << kBits, kNone);
        // prev entries are only read for positions inserted in this
        // call (chains start at the cleared head table), so stale
        // values from a previous chunk are unreachable.
        if (scratch.prev.size() < size)
            scratch.prev.resize(size);
        head_ = scratch.head.data();
        prev_ = scratch.prev.data();
    }

    std::size_t
    probe(std::size_t pos, std::size_t &offset)
    {
        const std::uint32_t h = hash_key<kBits>(load32(src_ + pos));
        const std::size_t max_len = size_ - pos;
        std::size_t best_len = 0;
        std::size_t best_off = 0;
        std::uint32_t cand = head_[h];
        for (int depth = kChainDepth; cand != kNone && depth > 0; --depth) {
            if (pos - cand > kMaxOffset)
                break;
            // Only a candidate that also matches at best_len can beat
            // the best so far (the first, i.e. nearest, longest wins).
            if (src_[cand + best_len] == src_[pos + best_len]) {
                const std::size_t len = match_length(
                    src_ + cand, src_ + pos, src_ + size_);
                if (len > best_len) {
                    best_len = len;
                    best_off = pos - cand;
                    if (len == max_len)
                        break;
                }
            }
            cand = prev_[cand];
        }
        prev_[pos] = head_[h];
        head_[h] = static_cast<std::uint32_t>(pos);
        if (best_len < kMinMatch)
            return 0;
        offset = best_off;
        return best_len;
    }

    void
    cover(std::size_t pos, std::size_t end, std::size_t /*offset*/)
    {
        for (std::size_t p = pos + 1, stop = std::min(end, last_ + 1);
             p < stop; ++p) {
            const std::uint32_t h = hash_key<kBits>(load32(src_ + p));
            prev_[p] = head_[h];
            head_[h] = static_cast<std::uint32_t>(p);
        }
    }

  private:
    const std::uint8_t *src_;
    std::size_t size_;
    std::size_t last_;
    std::uint32_t *head_;
    std::uint32_t *prev_;
};

/**
 * Greedy parse shared by both levels: take the finder's match at each
 * position, else extend the literal run.  Writes the token stream after
 * the header at `obase` and returns its end, or nullptr once the output
 * is no smaller than storing the rest would be.
 */
template <typename Finder>
std::uint8_t *
parse(const std::uint8_t *src, std::size_t size, std::uint8_t *obase,
      Finder &finder)
{
    std::uint8_t *op = obase + kHeaderSize;
    std::size_t pos = 0;
    std::size_t lit_start = 0;
    while (pos + kMinMatch <= size) {
        std::size_t offset = 0;
        const std::size_t len = finder.probe(pos, offset);
        if (len == 0) {
            ++pos;
            continue;
        }
        op = emit_sequence(op, src + lit_start, pos - lit_start, offset,
                           len);
        finder.cover(pos, pos + len, offset);
        pos += len;
        lit_start = pos;
        if (static_cast<std::size_t>(op - obase) + (size - pos) >= size)
            return nullptr;
    }
    return emit_sequence(op, src + lit_start, size - lit_start, 0, 0);
}

Buffer
make_stored(std::span<const std::uint8_t> input)
{
    Buffer out(kHeaderSize + input.size());
    out[0] = kMethodStored;
    store_le(out.data() + 1, input.size(), 4);
    if (!input.empty())  // an empty span's data() may be null
        std::memcpy(out.data() + kHeaderSize, input.data(), input.size());
    return out;
}

/** Copies a match; overlapping (offset < length) copies replicate. */
void
copy_match(std::uint8_t *dst, std::size_t offset, std::size_t len)
{
    const std::uint8_t *src = dst - offset;
    if (offset >= 8) {
        // Each 8-byte step reads only bytes written before it.
        for (; len >= 8; len -= 8, src += 8, dst += 8)
            std::memcpy(dst, src, 8);
    }
    for (; len > 0; --len)
        *dst++ = *src++;
}

}  // namespace

std::size_t
lz_max_compressed_size(std::size_t raw_size)
{
    return kHeaderSize + raw_size;
}

Buffer
lz_compress(std::span<const std::uint8_t> input, LzLevel level)
{
    const std::size_t size = input.size();
    if (size < kMinMatch + 1 || size > 0xFFFFFFFFull)
        return make_stored(input);

    thread_local CompressScratch scratch;
    // Until the parse bails, output stays below the input consumed plus
    // one sequence's overhead (token, offset, 255-run extensions).
    const std::size_t bound = kHeaderSize + size + size / 255 + 32;
    if (scratch.out.size() < bound)
        scratch.out.resize(bound);
    std::uint8_t *const obase = scratch.out.data();
    obase[0] = kMethodLz;
    store_le(obase + 1, size, 4);

    std::uint8_t *const end = with_hash_bits(size, [&](auto bits) {
        if (level == LzLevel::kFast) {
            FastFinder<bits> finder(input.data(), size, scratch);
            return parse(input.data(), size, obase, finder);
        }
        ChainFinder<bits> finder(input.data(), size, scratch);
        return parse(input.data(), size, obase, finder);
    });
    if (end == nullptr ||
        static_cast<std::size_t>(end - obase) >= kHeaderSize + size)
        return make_stored(input);
    return Buffer(obase, end);
}

Result<Buffer>
lz_decompress(std::span<const std::uint8_t> block)
{
    if (block.size() < kHeaderSize)
        return Status::corruption("block shorter than header");
    const std::uint8_t method = block[0];
    const std::size_t raw_size = load_le(block.data() + 1, 4);
    // Checked before anything is sized from the header: a corrupted
    // raw_size must not allocate (let alone touch) up to 4 GiB.
    if (raw_size > kMaxExpansion * block.size())
        return Status::corruption("raw size exceeds 255x block size");

    if (method == kMethodStored) {
        if (block.size() != kHeaderSize + raw_size)
            return Status::corruption("stored block size mismatch");
        return Buffer(block.begin() + kHeaderSize, block.end());
    }
    if (method != kMethodLz)
        return Status::corruption("unknown method byte");

    Buffer out(raw_size);
    std::uint8_t *const obase = out.data();
    std::size_t op = 0;
    std::size_t pos = kHeaderSize;

    auto read_ext = [&](std::size_t &len) -> bool {
        std::uint8_t b;
        do {
            if (pos >= block.size())
                return false;
            b = block[pos++];
            len += b;
        } while (b == 255);
        return true;
    };

    while (op < raw_size) {
        if (pos >= block.size())
            return Status::corruption("truncated token stream");
        const std::uint8_t token = block[pos++];
        std::size_t lit_len = token >> 4;
        if (lit_len == 15 && !read_ext(lit_len))
            return Status::corruption("truncated literal length");
        if (pos + lit_len > block.size())
            return Status::corruption("truncated literals");
        if (op + lit_len > raw_size)
            return Status::corruption("literals overrun raw size");
        std::memcpy(obase + op, block.data() + pos, lit_len);
        op += lit_len;
        pos += lit_len;
        if (op == raw_size)
            break;

        if (pos + 2 > block.size())
            return Status::corruption("truncated match offset");
        const std::size_t offset = load_le(block.data() + pos, 2);
        pos += 2;
        std::size_t match_len = (token & 0xF) + kMinMatch;
        if ((token & 0xF) == 15) {
            std::size_t extra = 0;
            if (!read_ext(extra))
                return Status::corruption("truncated match length");
            match_len += extra;
        }
        if (offset == 0 || offset > op)
            return Status::corruption("match offset out of window");
        if (op + match_len > raw_size)
            return Status::corruption("match overruns raw size");
        copy_match(obase + op, offset, match_len);
        op += match_len;
    }
    return out;
}

std::size_t
lz_raw_size(std::span<const std::uint8_t> block)
{
    if (block.size() < kHeaderSize)
        return 0;
    return load_le(block.data() + 1, 4);
}

double
lz_reduction_ratio(std::size_t raw_size, std::size_t compressed_size)
{
    if (raw_size == 0 || compressed_size >= raw_size)
        return 0.0;
    return 1.0 - static_cast<double>(compressed_size) /
                     static_cast<double>(raw_size);
}

}  // namespace fidr
