// Unit tests for the NVMe SSD model.

#include <gtest/gtest.h>

#include <algorithm>

#include "fidr/common/rng.h"
#include "fidr/ssd/ssd.h"

namespace fidr::ssd {
namespace {

SsdConfig
small_ssd()
{
    SsdConfig config;
    config.name = "test-ssd";
    config.capacity_bytes = 16 * kMiB;
    return config;
}

TEST(Ssd, ReadBackWrittenBytes)
{
    Ssd ssd(small_ssd());
    const Buffer data{1, 2, 3, 4, 5};
    ASSERT_TRUE(ssd.write(100, data).is_ok());
    Result<Buffer> out = ssd.read(100, data.size());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), data);
}

TEST(Ssd, UnwrittenReadsAsZero)
{
    Ssd ssd(small_ssd());
    Result<Buffer> out = ssd.read(4096, 16);
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), Buffer(16, 0));
}

TEST(Ssd, CrossPageExtents)
{
    Ssd ssd(small_ssd());
    Rng rng(4);
    Buffer data(10000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    // Deliberately unaligned start spanning three pages.
    ASSERT_TRUE(ssd.write(4000, data).is_ok());
    Result<Buffer> out = ssd.read(4000, data.size());
    ASSERT_TRUE(out.is_ok());
    EXPECT_EQ(out.value(), data);

    // Partial overlapping read.
    Result<Buffer> mid = ssd.read(4100, 50);
    ASSERT_TRUE(mid.is_ok());
    EXPECT_EQ(mid.value(), Buffer(data.begin() + 100,
                                  data.begin() + 150));
}

TEST(Ssd, OverwriteReplaces)
{
    Ssd ssd(small_ssd());
    ASSERT_TRUE(ssd.write(0, Buffer(100, 0xAA)).is_ok());
    ASSERT_TRUE(ssd.write(50, Buffer(10, 0xBB)).is_ok());
    const Buffer out = ssd.read(45, 20).take();
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], 0xAA);
    for (int i = 5; i < 15; ++i)
        EXPECT_EQ(out[i], 0xBB);
}

TEST(Ssd, CapacityEnforced)
{
    Ssd ssd(small_ssd());
    EXPECT_FALSE(ssd.write(16 * kMiB - 2, Buffer(4, 0)).is_ok());
    EXPECT_FALSE(ssd.read(16 * kMiB, 1).is_ok());
}

TEST(Ssd, WearAndIoCounters)
{
    Ssd ssd(small_ssd());
    ASSERT_TRUE(ssd.write(0, Buffer(4096, 1)).is_ok());
    ASSERT_TRUE(ssd.write(4096, Buffer(4096, 2)).is_ok());
    (void)ssd.read(0, 4096);
    EXPECT_EQ(ssd.bytes_written(), 8192u);
    EXPECT_EQ(ssd.bytes_read(), 4096u);
    EXPECT_EQ(ssd.write_ios(), 2u);
    EXPECT_EQ(ssd.read_ios(), 1u);
}

TEST(Ssd, TrimDropsWholePages)
{
    Ssd ssd(small_ssd());
    ASSERT_TRUE(ssd.write(0, Buffer(8192, 0xCC)).is_ok());
    EXPECT_EQ(ssd.bytes_stored(), 8192u);
    ssd.trim(0, 4096);
    EXPECT_EQ(ssd.bytes_stored(), 4096u);
    // Trimmed range reads back as zeros.
    EXPECT_EQ(ssd.read(0, 1).take()[0], 0);
    EXPECT_EQ(ssd.read(4096, 1).take()[0], 0xCC);

    // A later partial write reuses the trimmed page's storage; the
    // bytes it does not cover still read as zeros.
    ASSERT_TRUE(ssd.write(8192 + 100, Buffer(16, 0x5A)).is_ok());
    Buffer expected(4096, 0);
    std::fill(expected.begin() + 100, expected.begin() + 116, 0x5A);
    EXPECT_EQ(ssd.read(8192, 4096).take(), expected);
    EXPECT_EQ(ssd.bytes_stored(), 8192u);
}

TEST(Ssd, TrimmedFramesAreReusedAndRewritesReadBack)
{
    // Enough pages to grow the page index past its first mapped cell
    // array.  Trimming every third page frees its frame; the rewrites
    // after it land in reused frames, which must read as zeros except
    // where written, next to never-written pages that read as zeros.
    constexpr std::uint64_t kPage = 4096;
    constexpr std::uint64_t kPages = 3000;
    Ssd ssd(small_ssd());
    for (std::uint64_t p = 0; p < kPages; p += 2)
        ASSERT_TRUE(ssd.write(p * kPage, Buffer(kPage, 0xA0)).is_ok());
    const std::uint64_t written = (kPages / 2) * kPage;
    ASSERT_EQ(ssd.bytes_stored(), written);

    std::uint64_t trimmed = 0;
    for (std::uint64_t p = 0; p < kPages; p += 6, ++trimmed)
        ssd.trim(p * kPage, kPage);
    EXPECT_EQ(ssd.bytes_stored(), written - trimmed * kPage);

    // Rewrite half the trimmed pages with a short extent, and fresh
    // odd pages (never written before) likewise: the stored page count
    // shows trimmed frames going back into service.
    std::uint64_t rewritten = 0;
    for (std::uint64_t p = 0; p < kPages; p += 12, ++rewritten) {
        ASSERT_TRUE(
            ssd.write(p * kPage + 64, Buffer(32, 0x5B)).is_ok());
    }
    EXPECT_EQ(ssd.bytes_stored(),
              written - (trimmed - rewritten) * kPage);

    Buffer expect_rewritten(kPage, 0);
    std::fill(expect_rewritten.begin() + 64, expect_rewritten.begin() + 96,
              0x5B);
    const Buffer zeros(kPage, 0);
    const Buffer full(kPage, 0xA0);
    for (std::uint64_t p = 0; p < kPages; ++p) {
        const Buffer got = ssd.read(p * kPage, kPage).take();
        const Buffer &expect = p % 12 == 0                  ? expect_rewritten
                               : p % 6 == 0 || p % 2 == 1 ? zeros
                                                           : full;
        ASSERT_EQ(got, expect) << "page " << p;
    }

    // A full overwrite replaces every byte of a live page in place.
    ASSERT_TRUE(ssd.write(2 * kPage, Buffer(kPage, 0x3C)).is_ok());
    EXPECT_EQ(ssd.read(2 * kPage, kPage).take(), Buffer(kPage, 0x3C));
    EXPECT_EQ(ssd.read(kPage, kPage).take(), zeros);
    EXPECT_EQ(ssd.read(3 * kPage, kPage).take(), zeros);
}

TEST(Ssd, TimingModelAddsLatencyAndBandwidth)
{
    SsdConfig config = small_ssd();
    config.read_latency = 90 * kMicrosecond;
    config.read_bandwidth = gb_per_s(1);  // 1 byte/ns.
    Ssd ssd(config);
    // 4 KB read at t=0: 90 us + ~4.1 us transfer.
    const SimTime done = ssd.io_complete_time(0, IoDir::kRead, 4096);
    EXPECT_EQ(done, 90 * kMicrosecond + 4096);
    // Back-to-back read queues behind the first transfer.
    const SimTime done2 = ssd.io_complete_time(0, IoDir::kRead, 4096);
    EXPECT_EQ(done2, 90 * kMicrosecond + 8192);
}

TEST(SsdArray, AggregateCounters)
{
    SsdArray array(2, small_ssd());
    ASSERT_TRUE(array.at(0).write(0, Buffer(4096, 1)).is_ok());
    ASSERT_TRUE(array.at(1).write(0, Buffer(4096, 2)).is_ok());
    EXPECT_EQ(array.total_bytes_written(), 8192u);
    EXPECT_EQ(array.total_bytes_stored(), 8192u);
}

}  // namespace
}  // namespace fidr::ssd
