// Unit tests for the simulation core: event queue, bandwidth pipes,
// ledgers.  (Latency histograms are obs::Histogram; see test_obs.)

#include <gtest/gtest.h>

#include <vector>

#include "fidr/sim/event_queue.h"
#include "fidr/sim/ledger.h"

namespace fidr::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 30u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongSameTick)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbacksCanSchedule)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] { ++fired; });
    });
    q.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 2u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(100, [&] { ++fired; });
    EXPECT_EQ(q.run_until(50), 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.pending(), 1u);
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(BandwidthPipe, SerializesTransfers)
{
    BandwidthPipe pipe(1e9);  // 1 GB/s => 1 byte per ns.
    EXPECT_EQ(pipe.transfer(0, 1000), 1000u);
    // Second transfer queues behind the first.
    EXPECT_EQ(pipe.transfer(0, 500), 1500u);
    // A transfer issued after the pipe idles starts immediately.
    EXPECT_EQ(pipe.transfer(10000, 100), 10100u);
    EXPECT_EQ(pipe.bytes_transferred(), 1600u);
}

TEST(BandwidthLedger, TracksSharesAndTotals)
{
    BandwidthLedger ledger;
    ledger.add("a", 300);
    ledger.add("b", 100);
    ledger.add("a", 100);
    EXPECT_DOUBLE_EQ(ledger.total(), 500);
    EXPECT_DOUBLE_EQ(ledger.bytes("a"), 400);
    EXPECT_DOUBLE_EQ(ledger.share("a"), 0.8);
    EXPECT_DOUBLE_EQ(ledger.share("missing"), 0.0);
}

TEST(BandwidthLedger, RequiredBandwidthProjection)
{
    // 2 bytes of DRAM traffic per client byte at 75 GB/s needs
    // 150 GB/s of DRAM bandwidth — the Fig 4 projection method.
    BandwidthLedger ledger;
    ledger.add("traffic", 2000);
    EXPECT_DOUBLE_EQ(ledger.required_bandwidth(1000, gb_per_s(75)),
                     gb_per_s(150));
}

TEST(BandwidthLedger, ReportSortedByValue)
{
    BandwidthLedger ledger;
    ledger.add("small", 1);
    ledger.add("large", 10);
    const auto rows = ledger.report();
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].tag, "large");
    EXPECT_NEAR(rows[0].share, 10.0 / 11.0, 1e-12);
}

TEST(WorkLedger, RequiredCores)
{
    WorkLedger ledger;
    // 1 core-second per GB of client data.
    ledger.add("task", 1.0);
    EXPECT_NEAR(ledger.required_cores(1e9, gb_per_s(75)), 75.0, 1e-9);
}

TEST(WorkLedger, ResetClears)
{
    WorkLedger ledger;
    ledger.add("x", 5);
    ledger.reset();
    EXPECT_DOUBLE_EQ(ledger.total(), 0);
    EXPECT_TRUE(ledger.report().empty());
}

}  // namespace
}  // namespace fidr::sim
