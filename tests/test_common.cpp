// Unit tests for fidr/common: status, results, RNG, byte utilities,
// and the open-addressing FlatMap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_map>

#include "fidr/common/bytes.h"
#include "fidr/common/flat_map.h"
#include "fidr/common/rng.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/common/units.h"

namespace fidr {
namespace {

TEST(Status, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.is_ok());
    EXPECT_EQ(s.code(), StatusCode::kOk);
    EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage)
{
    Status s = Status::not_found("missing lba");
    EXPECT_FALSE(s.is_ok());
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
    EXPECT_EQ(s.to_string(), "NOT_FOUND: missing lba");
}

TEST(Status, AllCodesHaveNames)
{
    for (StatusCode code :
         {StatusCode::kOk, StatusCode::kInvalidArgument,
          StatusCode::kNotFound, StatusCode::kOutOfSpace,
          StatusCode::kCorruption, StatusCode::kUnavailable,
          StatusCode::kInternal}) {
        EXPECT_STRNE(status_code_name(code), "UNKNOWN");
    }
}

TEST(Result, HoldsValue)
{
    // status() is checked first: after the early-return ASSERT, GCC 12
    // at -O2 reports ~Result()'s Status member "maybe uninitialized".
    const Result<int> r(42);
    EXPECT_TRUE(r.status().is_ok());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError)
{
    Result<int> r(Status::corruption("bad block"));
    ASSERT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(Result, TakeMovesValue)
{
    Result<Buffer> r(Buffer{1, 2, 3});
    Buffer b = r.take();
    EXPECT_EQ(b, (Buffer{1, 2, 3}));
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next_u64() == b.next_u64();
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.next_below(bound), bound);
    }
}

TEST(Rng, NextBelowRoughlyUniform)
{
    Rng rng(11);
    constexpr int kBuckets = 16;
    constexpr int kSamples = 160000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kSamples; ++i)
        ++counts[rng.next_below(kBuckets)];
    for (int c : counts) {
        EXPECT_NEAR(c, kSamples / kBuckets,
                    5 * std::sqrt(kSamples / kBuckets));
    }
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.next_double();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.next_bool(0.3);
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, SkewedStaysInRange)
{
    Rng rng(13);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.next_skewed(100, 0.5), 100u);
}

TEST(Bytes, HexRoundTrip)
{
    const Buffer data{0x00, 0x01, 0xAB, 0xFF, 0x7E};
    const std::string hex = to_hex(data);
    EXPECT_EQ(hex, "0001abff7e");
    EXPECT_EQ(from_hex(hex), data);
}

TEST(Bytes, FromHexRejectsBadInput)
{
    EXPECT_TRUE(from_hex("abc").empty());   // Odd length.
    EXPECT_TRUE(from_hex("zz").empty());    // Non-hex digit.
    EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, LittleEndianRoundTrip)
{
    std::uint8_t buf[8];
    for (std::size_t width = 1; width <= 8; ++width) {
        const std::uint64_t value =
            0x1122334455667788ull & ((width == 8)
                                         ? ~0ull
                                         : ((1ull << (8 * width)) - 1));
        store_le(buf, value, width);
        EXPECT_EQ(load_le(buf, width), value) << "width " << width;
    }
}

TEST(Bytes, StoreLeTruncatesHighBytes)
{
    std::uint8_t buf[2];
    store_le(buf, 0x123456, 2);
    EXPECT_EQ(load_le(buf, 2), 0x3456u);
}

TEST(Bytes, SpansEqual)
{
    const Buffer a{1, 2, 3};
    const Buffer b{1, 2, 3};
    const Buffer c{1, 2, 4};
    const Buffer d{1, 2};
    EXPECT_TRUE(spans_equal(a, b));
    EXPECT_FALSE(spans_equal(a, c));
    EXPECT_FALSE(spans_equal(a, d));
}

TEST(Units, Conversions)
{
    EXPECT_DOUBLE_EQ(gb_per_s(75), 75e9);
    EXPECT_DOUBLE_EQ(to_gb_per_s(gb_per_s(170)), 170.0);
    EXPECT_EQ(kChunkSize, 4096u);
    EXPECT_EQ(kEntriesPerBucket, 107u);  // (4096-2)/38 entries fit.
}

TEST(Types, PbnBounds)
{
    EXPECT_EQ(kMaxPbn, (1ull << 48) - 1);
    EXPECT_GT(kInvalidPbn, kMaxPbn);
}

/** Places key k at home slot k mod capacity, so a test can lay out
 *  probe runs cell by cell. */
struct IdentityHash {
    std::size_t operator()(std::uint64_t x) const { return x; }
};

using U64Map = FlatMap<std::uint64_t, std::uint64_t, Mix64Hash>;

/** The map's contents through for_each, checked against size(). */
template <typename Map>
std::unordered_map<std::uint64_t, std::uint64_t>
contents(const Map &map)
{
    std::unordered_map<std::uint64_t, std::uint64_t> out;
    map.for_each([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_TRUE(out.emplace(key, value).second) << "key " << key;
    });
    EXPECT_EQ(out.size(), map.size());
    return out;
}

TEST(FlatMap, PutFindEraseAcrossTheWraparound)
{
    // 16 cells.  Keys 15, 31 and 47 all hash home to the last cell,
    // so their probe run wraps to cells 0 and 1; key 16 (home 0) lands
    // behind them in cell 2.
    FlatMap<std::uint64_t, std::uint64_t, IdentityHash> map(8);
    for (const std::uint64_t key : {15, 31, 47, 16})
        map.put(key, key * 10);
    EXPECT_EQ(map.size(), 4u);
    EXPECT_EQ(map.find(63), nullptr);  // Probes the whole run.

    // Erasing the run's head shifts every later cell back across the
    // wrap; each key stays reachable from its home.
    EXPECT_TRUE(map.erase(15));
    EXPECT_FALSE(map.erase(15));
    EXPECT_EQ(map.find(15), nullptr);
    for (const std::uint64_t key : {31, 47, 16}) {
        ASSERT_NE(map.find(key), nullptr) << key;
        EXPECT_EQ(*map.find(key), key * 10);
    }

    // A hole in the wrapped part of the run: 47 (in cell 0 after the
    // shift) goes, and 16 moves back into its home cell.
    EXPECT_TRUE(map.erase(47));
    ASSERT_NE(map.find(31), nullptr);
    ASSERT_NE(map.find(16), nullptr);
    EXPECT_EQ(*map.find(16), 160u);
    map.put(16, 7);  // Overwrite in place.
    EXPECT_EQ(*map.find(16), 7u);
    EXPECT_EQ(map.size(), 2u);

    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(31), nullptr);
    map.put(31, 1);
    EXPECT_EQ(*map.find(31), 1u);
}

TEST(FlatMap, GrowsAcrossTheMappedAllocationBoundary)
{
    // 17 bytes per cell (a 16-byte cell and its flag): 2048 cells fit
    // in a heap block below the 64 KiB boundary, 4096 and 8192 are
    // anonymous mappings.  Every entry survives each rehash and both
    // moves.
    static_assert(2048 * 17 < detail::kMappedCellBytes);
    static_assert(4096 * 17 >= detail::kMappedCellBytes);
    U64Map map;
    constexpr std::uint64_t kKeys = 3000;
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        map[key * 7] = key;
        ASSERT_EQ(map.size(), key + 1);
    }
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        const std::uint64_t *value = map.find(key * 7);
        ASSERT_NE(value, nullptr) << key;
        EXPECT_EQ(*value, key);
    }

    const auto before = contents(map);
    U64Map moved = std::move(map);
    EXPECT_EQ(contents(moved), before);
    U64Map assigned;
    assigned.put(1, 1);
    assigned = std::move(moved);
    EXPECT_EQ(contents(assigned), before);

    for (std::uint64_t key = 0; key < kKeys; key += 2)
        ASSERT_TRUE(assigned.erase(key * 7));
    EXPECT_EQ(assigned.size(), kKeys / 2);
    EXPECT_EQ(assigned.find(0), nullptr);
    EXPECT_EQ(*assigned.find(7), 1u);
}

TEST(FlatMap, ForEachVisitsEveryEntryOnce)
{
    U64Map map;
    map.for_each([](std::uint64_t, std::uint64_t) { FAIL(); });
    std::uint64_t key_sum = 0;
    for (std::uint64_t key = 1; key <= 100; ++key) {
        map.put(key << 20, key);
        key_sum += key;
    }
    map.erase(5 << 20);
    std::uint64_t visited = 0;
    std::uint64_t value_sum = 0;
    map.for_each([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_EQ(key, value << 20);
        ++visited;
        value_sum += value;
    });
    EXPECT_EQ(visited, 99u);
    EXPECT_EQ(value_sum, key_sum - 5);
}

TEST(FlatMap, MatchesUnorderedMapOverRandomOperations)
{
    // 100k mixed operations over a key space small enough that puts,
    // erases and lookups keep hitting live keys and long probe runs.
    U64Map map;
    std::unordered_map<std::uint64_t, std::uint64_t> reference;
    Rng rng(0xF1A7);
    for (int op = 0; op < 100000; ++op) {
        const std::uint64_t key = rng.next_below(3000) * 4096;
        const std::uint64_t roll = rng.next_below(100);
        if (roll < 40) {
            const std::uint64_t value = rng.next_u64();
            map.put(key, value);
            reference[key] = value;
        } else if (roll < 50) {
            ++map[key];
            ++reference[key];
        } else if (roll < 80) {
            ASSERT_EQ(map.erase(key), reference.erase(key) == 1) << op;
        } else if (roll < 99) {
            const std::uint64_t *found = map.find(key);
            const auto it = reference.find(key);
            ASSERT_EQ(found != nullptr, it != reference.end()) << op;
            if (found != nullptr) {
                ASSERT_EQ(*found, it->second) << op;
            }
        } else if (op % 97 == 0) {
            map.clear();
            reference.clear();
        }
        ASSERT_EQ(map.size(), reference.size()) << op;
        if (op % 10000 == 0) {
            ASSERT_EQ(contents(map), reference) << op;
        }
    }
    EXPECT_EQ(contents(map), reference);
}

}  // namespace
}  // namespace fidr
