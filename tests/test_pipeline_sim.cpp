// Tests for the discrete-event write-pipeline simulator and the
// multi-server queue primitive beneath it.

#include <gtest/gtest.h>

#include "fidr/core/pipeline_sim.h"
#include "fidr/sim/queueing.h"

namespace fidr {
namespace {

TEST(MultiServerQueue, SingleServerSerializes)
{
    sim::MultiServerQueue q(1);
    EXPECT_EQ(q.serve(0, 100), 100u);
    EXPECT_EQ(q.serve(0, 100), 200u);
    EXPECT_EQ(q.serve(500, 100), 600u);  // Idle gap respected.
    EXPECT_DOUBLE_EQ(q.busy_seconds(), 300e-9);
}

TEST(MultiServerQueue, ParallelServersOverlap)
{
    sim::MultiServerQueue q(3);
    EXPECT_EQ(q.serve(0, 100), 100u);
    EXPECT_EQ(q.serve(0, 100), 100u);
    EXPECT_EQ(q.serve(0, 100), 100u);
    EXPECT_EQ(q.serve(0, 100), 200u);  // Fourth job waits.
}

TEST(MultiServerQueue, UtilizationBounded)
{
    sim::MultiServerQueue q(2);
    for (int i = 0; i < 100; ++i)
        (void)q.serve(0, 50);
    const double horizon = 100 * 50e-9 / 2;
    EXPECT_NEAR(q.utilization(horizon), 1.0, 1e-9);
}

TEST(PipelineSim, ThroughputMatchesBottleneckCapacity)
{
    // Write-M sizing: the 4-lane tree caps near 63.8 GB/s (Fig 13).
    core::PipelineSimConfig config;
    const core::PipelineSimResult r =
        core::simulate_write_pipeline(config, 100'000);
    EXPECT_NEAR(to_gb_per_s(r.throughput), 63.8, 4.0);
    EXPECT_STREQ(r.bottleneck(), "Cache HW-Engine");
    EXPECT_GT(r.tree_utilization, 0.97);
    EXPECT_LT(r.comp_utilization, 0.5);
}

TEST(PipelineSim, SingleLaneTreeHalvesMore)
{
    core::PipelineSimConfig config;
    config.tree_update_lanes = 1;
    const core::PipelineSimResult r =
        core::simulate_write_pipeline(config, 100'000);
    EXPECT_NEAR(to_gb_per_s(r.throughput), 27.1, 3.0);  // Fig 13.
}

TEST(PipelineSim, HighMissRateShiftsBottleneckToTableSsd)
{
    core::PipelineSimConfig config;
    config.miss_rate = 0.55;
    config.dedup_ratio = 0.431;  // Write-L.
    const core::PipelineSimResult r =
        core::simulate_write_pipeline(config, 100'000);
    EXPECT_STREQ(r.bottleneck(), "table SSDs");
    EXPECT_LT(to_gb_per_s(r.throughput), 35.0);
}

TEST(PipelineSim, RemovingBottleneckRaisesThroughput)
{
    core::PipelineSimConfig slow;
    slow.tree_update_lanes = 1;
    core::PipelineSimConfig fast = slow;
    fast.tree_update_lanes = 4;
    const auto a = core::simulate_write_pipeline(slow, 50'000);
    const auto b = core::simulate_write_pipeline(fast, 50'000);
    EXPECT_GT(b.throughput, 1.8 * a.throughput);
}

TEST(PipelineSim, UnderProvisionedHostBindsOnCpu)
{
    core::PipelineSimConfig config;
    config.host_cores = 4;
    const core::PipelineSimResult r =
        core::simulate_write_pipeline(config, 50'000);
    EXPECT_STREQ(r.bottleneck(), "host CPU");
    EXPECT_GT(r.host_utilization, 0.97);
}

TEST(PipelineSim, MixedWorkloadBindsOnHostReadStack)
{
    core::PipelineSimConfig config;
    config.miss_rate = 0.10;
    config.dedup_ratio = 0.88;
    config.read_fraction = 0.5;
    const core::PipelineSimResult r =
        core::simulate_write_pipeline(config, 100'000);
    // Fig 14's Read-Mixed: ~50 GB/s, CPU-bound on the read NVMe stack.
    EXPECT_STREQ(r.bottleneck(), "host CPU");
    EXPECT_NEAR(to_gb_per_s(r.throughput), 50.0, 5.0);

    // The Sec 7.5 read-offload extension lifts it.
    config.read_us_per_chunk = calib::kCpuReadOffloadResidual;
    const core::PipelineSimResult off =
        core::simulate_write_pipeline(config, 100'000);
    EXPECT_GT(off.throughput, 1.3 * r.throughput);
}

TEST(PipelineSim, DeterministicForSeed)
{
    core::PipelineSimConfig config;
    const auto a = core::simulate_write_pipeline(config, 20'000, 9);
    const auto b = core::simulate_write_pipeline(config, 20'000, 9);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    const auto c = core::simulate_write_pipeline(config, 20'000, 10);
    EXPECT_NE(a.throughput, c.throughput);
}

}  // namespace
}  // namespace fidr
