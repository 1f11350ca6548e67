// Unit tests for the simulation core: bandwidth pipes and ledgers.
// (Latency histograms are obs::Histogram; see test_obs.)

#include <gtest/gtest.h>

#include "fidr/sim/ledger.h"
#include "fidr/sim/queueing.h"

namespace fidr::sim {
namespace {

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
