// Unit tests for the NVMe SSD model.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <thread>
#include <vector>

#include "fidr/common/rng.h"
#include "fidr/fault/failpoint.h"
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

/**
 * Drives two devices through one random history: `paged` moves pages
 * with read_page/write_page, `whole` with read/write of the equivalent
 * whole-page image (the head, then zeros).  Plain writes of arbitrary
 * bytes, which leave data past any later head, and trims (whose frames
 * are reused) go to both.  With `faults`, a third of the page IOs run
 * with one kSsdRead/kSsdWrite fault armed: the same decision, seed and
 * damage on both sides.  Stored bytes and every counter must agree.
 */
void
expect_page_io_matches_whole_page_io(std::uint64_t seed, bool faults)
{
    constexpr std::uint64_t kPages = 8;
    constexpr std::size_t kPage = Ssd::kPageSize;
    Ssd paged(small_ssd());
    Ssd whole(small_ssd());
    Rng rng(seed);
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    // Arms one fault of `kind` at `site` when `inject`, else nothing.
    const auto arm = [&registry](bool inject, fault::FaultKind kind,
                                 fault::Site site,
                                 std::uint64_t fault_seed) {
        registry.disarm_all();
        if (!inject)
            return;
        registry.reset_counters();
        registry.set_seed(fault_seed);
        fault::FaultPolicy policy;
        policy.kind = kind;
        policy.fail_nth = 1;
        policy.max_fires = 1;
        registry.arm(site, policy);
    };
    const auto random_bytes = [&rng](std::size_t n) {
        Buffer out(n);
        for (std::uint8_t &b : out)
            b = static_cast<std::uint8_t>(rng.next_u64());
        return out;
    };

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t addr = rng.next_below(kPages) * kPage;
        const std::uint64_t op = rng.next_below(10);
        const std::uint64_t fault_seed = rng.next_u64();
        const bool inject = faults && rng.next_below(3) == 0;
        if (op < 4) {
            // Short heads dominate, as for table buckets.
            const std::size_t len = rng.next_below(4) == 0
                                        ? rng.next_below(kPage + 1)
                                        : rng.next_below(200);
            const Buffer head = random_bytes(len);
            Buffer image = head;
            image.resize(kPage, 0);
            static constexpr fault::FaultKind kWriteKinds[] = {
                fault::FaultKind::kError, fault::FaultKind::kTornWrite,
                fault::FaultKind::kBitFlip, fault::FaultKind::kLatencySpike};
            const fault::FaultKind kind = kWriteKinds[rng.next_below(4)];
            arm(inject, kind, fault::Site::kSsdWrite, fault_seed);
            const Status a = paged.write_page(addr, head);
            arm(inject, kind, fault::Site::kSsdWrite, fault_seed);
            const Status b = whole.write(addr, image);
            ASSERT_EQ(a.code(), b.code()) << "step " << step;
        } else if (op < 7) {
            const fault::FaultKind kind = rng.next_below(2) == 0
                                              ? fault::FaultKind::kError
                                              : fault::FaultKind::kBitFlip;
            std::array<std::uint8_t, kPage> scratch;
            arm(inject, kind, fault::Site::kSsdRead, fault_seed);
            const Result<const std::uint8_t *> a =
                paged.read_page(addr, scratch);
            arm(inject, kind, fault::Site::kSsdRead, fault_seed);
            const Result<Buffer> b = whole.read(addr, kPage);
            ASSERT_EQ(a.is_ok(), b.is_ok()) << "step " << step;
            if (a.is_ok()) {
                ASSERT_TRUE(std::equal(a.value(), a.value() + kPage,
                                       b.value().begin()))
                    << "step " << step;
            }
        } else if (op < 9) {
            registry.disarm_all();
            const std::uint64_t at = addr + rng.next_below(kPage);
            const Buffer data = random_bytes(1 + rng.next_below(kPage));
            if (at + data.size() <= kPages * kPage) {
                ASSERT_TRUE(paged.write(at, data).is_ok());
                ASSERT_TRUE(whole.write(at, data).is_ok());
            }
        } else {
            paged.trim(addr, kPage);
            whole.trim(addr, kPage);
        }
    }
    registry.disarm_all();

    EXPECT_EQ(paged.bytes_written(), whole.bytes_written());
    EXPECT_EQ(paged.write_ios(), whole.write_ios());
    EXPECT_EQ(paged.write_errors(), whole.write_errors());
    EXPECT_EQ(paged.bytes_read(), whole.bytes_read());
    EXPECT_EQ(paged.read_ios(), whole.read_ios());
    EXPECT_EQ(paged.read_errors(), whole.read_errors());
    EXPECT_EQ(paged.bytes_stored(), whole.bytes_stored());
    for (std::uint64_t p = 0; p < kPages; ++p) {
        EXPECT_EQ(paged.read(p * kPage, kPage).take(),
                  whole.read(p * kPage, kPage).take())
            << "page " << p;
    }
}

TEST(Ssd, PageAccessMatchesWholePageIo)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expect_page_io_matches_whole_page_io(seed, false);
}

#if FIDR_FAULT_ENABLED
TEST(Ssd, PageAccessMatchesWholePageIoUnderFaults)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        expect_page_io_matches_whole_page_io(seed, true);
}
#endif  // FIDR_FAULT_ENABLED

TEST(Ssd, ReadPageOfAnUnwrittenPageIsZeros)
{
    Ssd ssd(small_ssd());
    std::array<std::uint8_t, Ssd::kPageSize> scratch;
    const Result<const std::uint8_t *> page = ssd.read_page(8192, scratch);
    ASSERT_TRUE(page.is_ok());
    EXPECT_TRUE(std::all_of(page.value(), page.value() + Ssd::kPageSize,
                            [](std::uint8_t b) { return b == 0; }));
    EXPECT_EQ(ssd.bytes_read(), Ssd::kPageSize);
    EXPECT_EQ(ssd.read_ios(), 1u);
    EXPECT_EQ(ssd.bytes_stored(), 0u);  // Reading allocates nothing.
}

// ---------------------------------------------------------------------
// Slab pool: destroyed devices hand their frame slabs to the next ones.

constexpr std::size_t kPage = Ssd::kPageSize;

/** Writes `pages` full pages of `fill`, one device page per frame. */
void
fill_pages(Ssd &ssd, std::uint64_t pages, std::uint8_t fill)
{
    for (std::uint64_t p = 0; p < pages; ++p)
        ASSERT_TRUE(ssd.write(p * kPage, Buffer(kPage, fill)).is_ok());
}

/**
 * One fixed history over 160 pages: write_page heads of 0..4096 bytes,
 * unaligned partial writes, full writes, trims and rewrites into the
 * trimmed frames.  Every third page is never written.
 */
void
run_history(Ssd &ssd)
{
    constexpr std::uint64_t kPages = 160;
    Rng rng(28);
    for (std::uint64_t p = 0; p < kPages; ++p) {
        const std::uint64_t addr = p * kPage;
        switch (p % 3) {
          case 0: {
            const Buffer head(rng.next_below(kPage + 1), 0x11);
            ASSERT_TRUE(ssd.write_page(addr, head).is_ok());
            break;
          }
          case 1: {
            const std::uint64_t at = rng.next_below(kPage);
            const Buffer data(1 + rng.next_below(kPage - at), 0x22);
            ASSERT_TRUE(ssd.write(addr + at, data).is_ok());
            break;
          }
          default:
            break;  // Never written.
        }
    }
    for (std::uint64_t p = 0; p < kPages; p += 12)
        ssd.trim(p * kPage, kPage);
    for (std::uint64_t p = 0; p < kPages; p += 24)
        ASSERT_TRUE(ssd.write(p * kPage + 300, Buffer(50, 0x33)).is_ok());
    for (std::uint64_t p = 3; p < kPages; p += 9)
        ASSERT_TRUE(ssd.write_page(p * kPage, Buffer(20, 0x44)).is_ok());
}

/** Maps fresh slabs until the pool is empty: a write that maps a slab
 *  proves the pool had none left. */
void
drain_slab_pool(Ssd &hog)
{
    const std::size_t mapped = Ssd::mapped_slabs();
    for (std::uint64_t p = 0; Ssd::mapped_slabs() == mapped; ++p)
        ASSERT_TRUE(hog.write(p * kPage, Buffer(1, 0x7F)).is_ok());
}

TEST(Ssd, RecycledSlabsReadLikeFreshMemory)
{
    Ssd hog(small_ssd());
    drain_slab_pool(hog);

    // The reference device maps fresh memory only.
    Ssd fresh(small_ssd());
    run_history(fresh);

    // A donor fills every frame of its slabs with non-zero bytes (256
    // pages is a whole number of slabs), trims some, and dies.
    const std::size_t before_donor = Ssd::mapped_slabs();
    {
        Ssd donor(small_ssd());
        fill_pages(donor, 256, 0xEE);
        donor.trim(0, 64 * kPage);
    }
    const std::size_t donor_slabs = Ssd::mapped_slabs() - before_donor;
    ASSERT_GT(donor_slabs, 0u);

    // The recycled device runs the same history on the donor's slabs
    // and maps nothing.
    Ssd recycled(small_ssd());
    run_history(recycled);
    EXPECT_EQ(Ssd::mapped_slabs(), before_donor + donor_slabs);

    EXPECT_EQ(recycled.bytes_stored(), fresh.bytes_stored());
    EXPECT_EQ(recycled.bytes_written(), fresh.bytes_written());
    EXPECT_EQ(recycled.write_ios(), fresh.write_ios());
    EXPECT_EQ(recycled.read(2 * kPage, kPage).take(), Buffer(kPage, 0));
    EXPECT_EQ(fresh.read(2 * kPage, kPage).take(), Buffer(kPage, 0));

    // Never-written bytes, tails past a write_page head and bytes
    // around a partial write read as zeros, through both read paths.
    constexpr std::uint64_t kPages = 168;  // Past the history's last page.
    for (std::uint64_t p = 0; p < kPages; ++p) {
        const Buffer expect = fresh.read(p * kPage, kPage).take();
        ASSERT_EQ(recycled.read(p * kPage, kPage).take(), expect)
            << "page " << p;
        std::array<std::uint8_t, kPage> scratch;
        const Result<const std::uint8_t *> page =
            recycled.read_page(p * kPage, scratch);
        ASSERT_TRUE(page.is_ok());
        ASSERT_TRUE(std::equal(expect.begin(), expect.end(), page.value()))
            << "page " << p;
        ASSERT_TRUE(std::none_of(expect.begin(), expect.end(),
                                 [](std::uint8_t b) { return b == 0xEE; }));
    }
    EXPECT_EQ(recycled.bytes_read(), fresh.bytes_read() + kPages * kPage);
    EXPECT_EQ(recycled.read_ios(), fresh.read_ios() + kPages);
}

TEST(Ssd, RepeatedDeviceLifetimesMapNoNewSlabs)
{
    std::size_t after_first = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
        {
            Ssd ssd(small_ssd());
            fill_pages(ssd, 1000, static_cast<std::uint8_t>(cycle + 1));
            ssd.trim(0, 100 * kPage);
            ASSERT_TRUE(ssd.write(10 * kPage, Buffer(kPage, 9)).is_ok());
        }
        if (cycle == 0)
            after_first = Ssd::mapped_slabs();
    }
    EXPECT_EQ(Ssd::mapped_slabs(), after_first);
}

TEST(Ssd, ConcurrentDevicesShareTheSlabPool)
{
    // Cluster nodes' sequencers create, fill and destroy devices at
    // once: no frame may land in two live devices, and the pool never
    // maps more than the live devices can hold at one time.
    constexpr int kThreads = 4;
    constexpr int kRounds = 12;
    constexpr std::uint64_t kPages = 300;  // 5 slabs of 64 frames.
    const std::size_t before = Ssd::mapped_slabs();
    std::vector<std::thread> threads;
    std::vector<int> bad(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &bad] {
            for (int round = 0; round < kRounds; ++round) {
                Ssd ssd(small_ssd());
                const auto fill =
                    static_cast<std::uint8_t>(1 + t * kRounds + round);
                for (std::uint64_t p = 0; p < kPages; ++p) {
                    if (!ssd.write(p * kPage, Buffer(kPage, fill)).is_ok())
                        ++bad[t];
                }
                ssd.trim(0, kPages / 2 * kPage);
                for (std::uint64_t p = 0; p < kPages / 2; p += 7) {
                    if (!ssd.write_page(p * kPage, Buffer(10, fill)).is_ok())
                        ++bad[t];
                }
                for (std::uint64_t p = 0; p < kPages; ++p) {
                    Buffer expect(kPage, 0);
                    if (p >= kPages / 2)
                        std::fill(expect.begin(), expect.end(), fill);
                    else if (p % 7 == 0)
                        std::fill(expect.begin(), expect.begin() + 10, fill);
                    if (ssd.read(p * kPage, kPage).take() != expect)
                        ++bad[t];
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_LE(Ssd::mapped_slabs() - before,
              kThreads * ((kPages + 63) / 64));
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
