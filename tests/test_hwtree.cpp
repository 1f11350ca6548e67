// Tests for the Cache HW-Engine tree: functional correctness against
// std::map, geometry arithmetic (Table 5), and the speculative update
// pipeline (Algorithms 1-2, Fig 13).

#include <gtest/gtest.h>

#include <map>

#include "fidr/common/rng.h"
#include "fidr/common/units.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hwtree/hw_tree.h"
#include "fidr/hwtree/tree_pipeline.h"

namespace fidr::hwtree {
namespace {

TEST(HwTree, EmptyTree)
{
    HwTree tree;
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.levels(), 1u);
    EXPECT_FALSE(tree.search(1).has_value());
    EXPECT_TRUE(tree.validate().is_ok());
}

TEST(HwTree, InsertSearchEraseBasics)
{
    HwTree tree;
    ASSERT_TRUE(tree.insert(5, 50).is_ok());
    ASSERT_TRUE(tree.insert(5, 51).is_ok());  // Overwrite.
    EXPECT_EQ(tree.size(), 1u);
    EXPECT_EQ(tree.search(5), std::optional<std::uint64_t>(51));
    EXPECT_TRUE(tree.erase(5));
    EXPECT_FALSE(tree.erase(5));
    EXPECT_EQ(tree.size(), 0u);
}

TEST(HwTree, ReportsTouchedNodes)
{
    HwTree tree;
    std::vector<NodeId> touched;
    ASSERT_TRUE(tree.insert(1, 1, &touched).is_ok());
    EXPECT_FALSE(touched.empty());

    // Filling a leaf forces a split, touching multiple nodes.
    touched.clear();
    for (std::uint64_t k = 2; k <= 17; ++k)
        ASSERT_TRUE(tree.insert(k, k, &touched).is_ok());
    EXPECT_GE(touched.size(), 17u);
    EXPECT_EQ(tree.levels(), 2u);
}

TEST(HwTree, SearchRecordsPath)
{
    HwTree tree;
    for (std::uint64_t k = 0; k < 200; ++k)
        ASSERT_TRUE(tree.insert(k, k).is_ok());
    std::vector<NodeId> path;
    (void)tree.search(100, &path);
    EXPECT_EQ(path.size(), tree.levels());
}

TEST(HwTree, LevelsForEntriesReproducesTable5)
{
    // 410 MB cache = ~105K 4 KB lines -> 9 total levels (8 on-chip +
    // 1 leaf); ~100 GB cache -> 14 levels (Table 5, Sec 6.3).
    const std::uint64_t medium_lines = 410ull * 1000 * 1000 / 4096;
    const std::uint64_t large_lines = 99'645ull * 1000 * 1000 / 4096;
    EXPECT_EQ(HwTree::levels_for_entries(medium_lines), 9u);
    EXPECT_EQ(HwTree::levels_for_entries(large_lines), 14u);
}

TEST(HwTree, LevelsForEntriesEdges)
{
    EXPECT_EQ(HwTree::levels_for_entries(0), 1u);
    EXPECT_EQ(HwTree::levels_for_entries(16), 1u);
    EXPECT_EQ(HwTree::levels_for_entries(17), 2u);
    EXPECT_EQ(HwTree::levels_for_entries(16 * 3), 2u);
    EXPECT_EQ(HwTree::levels_for_entries(16 * 3 + 1), 3u);
}

TEST(HwTree, DepthGuardRejectsUnboundedGrowth)
{
    HwTreeConfig config;
    config.leaf_capacity = 4;
    config.internal_fanout = 3;
    config.max_levels = 3;
    HwTree tree(config);
    bool rejected = false;
    for (std::uint64_t k = 0; k < 200 && !rejected; ++k) {
        Result<bool> r = tree.insert(k, k);
        if (!r.is_ok()) {
            EXPECT_EQ(r.status().code(), StatusCode::kOutOfSpace);
            rejected = true;
        }
    }
    EXPECT_TRUE(rejected);
    EXPECT_LE(tree.levels(), 3u + 1);  // Guard is conservative by one.
    EXPECT_TRUE(tree.validate().is_ok());
}

class HwTreeProperty : public ::testing::TestWithParam<int> {};

TEST_P(HwTreeProperty, MatchesStdMap)
{
    HwTree tree;
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t key = rng.next_below(400);
        const int op = static_cast<int>(rng.next_below(3));
        if (op == 0) {
            const std::uint64_t value = rng.next_u64();
            Result<bool> r = tree.insert(key, value);
            ASSERT_TRUE(r.is_ok());
            EXPECT_EQ(r.value(), model.find(key) == model.end());
            model[key] = value;
        } else if (op == 1) {
            EXPECT_EQ(tree.erase(key), model.erase(key) == 1);
        } else {
            const auto got = tree.search(key);
            const auto it = model.find(key);
            EXPECT_EQ(got.has_value(), it != model.end());
            if (got && it != model.end()) {
                EXPECT_EQ(*got, it->second);
            }
        }
        if (step % 400 == 0) {
            ASSERT_TRUE(tree.validate().is_ok())
                << tree.validate().to_string();
        }
        ASSERT_EQ(tree.size(), model.size());
    }
    ASSERT_TRUE(tree.validate().is_ok());

    const auto items = tree.items();
    ASSERT_EQ(items.size(), model.size());
    auto mit = model.begin();
    for (const auto &[k, v] : items) {
        EXPECT_EQ(k, mit->first);
        EXPECT_EQ(v, mit->second);
        ++mit;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HwTreeProperty, ::testing::Range(0, 6));

TEST(TreePipeline, FunctionalResultsUnaffectedBySpeculation)
{
    // Whatever the lane count, the committed tree state must be
    // identical — Algorithm 2's correctness guarantee.
    for (unsigned lanes : {1u, 2u, 4u}) {
        HwTree tree;
        PipelineConfig config;
        config.update_lanes = lanes;
        TreePipeline pipe(tree, config);
        Rng rng(99);
        std::map<std::uint64_t, std::uint64_t> model;
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t key = rng.next_below(500);
            if (rng.next_bool(0.6)) {
                ASSERT_TRUE(pipe.insert(key, key + lanes).is_ok());
                model[key] = key + lanes;
            } else {
                EXPECT_EQ(pipe.erase(key), model.erase(key) == 1);
            }
        }
        for (const auto &[k, v] : model)
            EXPECT_EQ(pipe.search(k), std::optional<std::uint64_t>(v));
        EXPECT_TRUE(tree.validate().is_ok());
    }
}

TEST(TreePipeline, CrashRateLowOnRandomKeys)
{
    // Sec 5.5.1: random (hash-derived) keys make same-node conflicts
    // rare; the paper reports < 0.1% for its workloads.  Use a large
    // key space like a real bucket index space.
    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 4;
    TreePipeline pipe(tree, config);
    Rng rng(7);
    // Preload a realistically sized tree.
    for (int i = 0; i < 20000; ++i)
        ASSERT_TRUE(pipe.insert(rng.next_below(1u << 22), i).is_ok());
    pipe.reset_stats();

    for (int i = 0; i < 20000; ++i) {
        if (rng.next_bool(0.5))
            ASSERT_TRUE(pipe.insert(rng.next_below(1u << 22), i).is_ok());
        else
            pipe.erase(rng.next_below(1u << 22));
    }
    EXPECT_LT(pipe.stats().crash_rate(), 0.02);
    EXPECT_GT(pipe.stats().updates, 0u);
}

TEST(TreePipeline, SingleLaneNeverCrashes)
{
    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 1;
    TreePipeline pipe(tree, config);
    for (std::uint64_t k = 0; k < 2000; ++k)
        ASSERT_TRUE(pipe.insert(k, k).is_ok());
    EXPECT_EQ(pipe.stats().crashes, 0u);
}

TEST(TreePipeline, MoreLanesMoreThroughput)
{
    // The Fig 13 claim: near-linear scaling with update lanes.  Drive
    // the pipeline exactly as the cache does per chunk: one lookup,
    // plus insert-fetched + delete-victim on a Write-M-like 19% miss
    // rate, and measure client throughput (chunks / engine busy time).
    constexpr int kChunks = 30000;
    constexpr std::size_t kResident = 50000;  // ~9-level tree.
    std::vector<double> gbps;
    for (unsigned lanes : {1u, 2u, 4u}) {
        HwTree tree;
        PipelineConfig config;
        config.update_lanes = lanes;
        TreePipeline pipe(tree, config);
        Rng rng(5);
        // Preload a realistically sized index (one entry per cached
        // bucket) without charging the pipeline.
        std::vector<std::uint64_t> resident;
        resident.reserve(kResident);
        while (resident.size() < kResident) {
            const std::uint64_t key = rng.next_u64() >> 16;
            if (tree.insert(key, 1).value())
                resident.push_back(key);
        }

        for (int i = 0; i < kChunks; ++i) {
            if (rng.next_bool(0.19)) {
                // Miss: lookup, insert fetched bucket, evict a victim.
                const std::uint64_t key = rng.next_u64() >> 16;
                (void)pipe.search(key);
                ASSERT_TRUE(pipe.insert(key, i).is_ok());
                const std::size_t v = rng.next_below(resident.size());
                pipe.erase(resident[v]);
                resident[v] = key;
            } else {
                // Hit: lookup of a resident bucket index.
                (void)pipe.search(
                    resident[rng.next_below(resident.size())]);
            }
        }
        EXPECT_LT(pipe.stats().crash_rate(), 0.01) << lanes;
        gbps.push_back(to_gb_per_s(kChunks * 4096.0 /
                                   pipe.busy_seconds()));
    }
    EXPECT_GT(gbps[1], gbps[0] * 1.3);
    EXPECT_GT(gbps[2], gbps[1] * 1.2);

    // Absolute anchors from Fig 13 (Write-M): 27.1 GB/s single-update,
    // 63.8 GB/s at 4 lanes.
    EXPECT_NEAR(gbps[0], 27.1, 4.0);
    EXPECT_NEAR(gbps[2], 63.8, 9.0);
}

TEST(TreePipeline, EraseMissStillCostsCycles)
{
    HwTree tree;
    TreePipeline pipe(tree, PipelineConfig{});
    const double before = pipe.stats().cycles;
    EXPECT_FALSE(pipe.erase(42));
    EXPECT_GT(pipe.stats().cycles, before);
}

TEST(TreePipeline, BusySecondsCoversDramCeiling)
{
    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 4;
    TreePipeline pipe(tree, config);
    for (std::uint64_t k = 0; k < 1000; ++k)
        ASSERT_TRUE(pipe.insert(k, k).is_ok());
    const double pipe_time = pipe.stats().cycles / config.clock_hz;
    const double dram_time =
        pipe.stats().dram_bytes / config.dram_bandwidth;
    EXPECT_DOUBLE_EQ(pipe.busy_seconds(), std::max(pipe_time, dram_time));
}

// --- Crash storm: adversarial batches drive the misspeculation /
// --- replay machinery hard; correctness must be untouched.

TEST(CrashStorm, AdversarialKeyBatchesCrashOftenYetCommitCorrectly)
{
    // Consecutive keys share leaf nodes, so with 4 in-flight updates
    // nearly every commit finds its write-set in the speculation
    // window — the worst case for Algorithm 2.
    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 4;
    TreePipeline pipe(tree, config);
    for (std::uint64_t k = 0; k < 4096; ++k)
        ASSERT_TRUE(pipe.insert(k, k).is_ok());
    pipe.reset_stats();

    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(31);
    for (int batch = 0; batch < 200; ++batch) {
        // Each batch hammers one narrow key range.
        const std::uint64_t base = rng.next_below(4000);
        for (std::uint64_t k = base; k < base + 16; ++k) {
            ASSERT_TRUE(pipe.insert(k, k + batch).is_ok());
            model[k] = k + batch;
        }
    }

    const PipelineStats &stats = pipe.stats();
    EXPECT_EQ(stats.updates, 3200u);
    EXPECT_GT(stats.crash_rate(), 0.25);  // Adversarial: crashes common.
    EXPECT_LE(stats.crash_rate(), 1.0);
    EXPECT_EQ(stats.replays, stats.crashes);  // Every crash re-runs.

    for (const auto &[k, v] : model)
        EXPECT_EQ(pipe.search(k), std::optional<std::uint64_t>(v)) << k;
    EXPECT_TRUE(tree.validate().is_ok());
}

TEST(CrashStorm, HashSpreadKeysKeepCrashesRareUnderTheSameLoad)
{
    // The same 3200-update load with hash-spread keys (the production
    // shape: bucket indexes of SHA-256 digests) barely conflicts —
    // the paper's < 0.1% claim, with slack for this small tree.
    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 4;
    TreePipeline pipe(tree, config);
    Rng preload(31);
    for (int i = 0; i < 4096; ++i)
        ASSERT_TRUE(pipe.insert(preload.next_below(1u << 22), i).is_ok());
    pipe.reset_stats();

    Rng rng(32);
    for (int i = 0; i < 3200; ++i)
        ASSERT_TRUE(pipe.insert(rng.next_below(1u << 22), i).is_ok());
    EXPECT_LT(pipe.stats().crash_rate(), 0.02);
    EXPECT_EQ(pipe.stats().replays, pipe.stats().crashes);
}

TEST(CrashStorm, StormIsOrderEquivalentToSerialExecution)
{
    // The speculative 4-lane pipeline must commit the exact state a
    // serial (1-lane) pipeline reaches on the same request stream.
    const auto drive = [](unsigned lanes, HwTree &tree) {
        PipelineConfig config;
        config.update_lanes = lanes;
        TreePipeline pipe(tree, config);
        Rng rng(77);
        for (int i = 0; i < 5000; ++i) {
            const std::uint64_t base = rng.next_below(300);
            if (rng.next_bool(0.7))
                EXPECT_TRUE(pipe.insert(base, i).is_ok());
            else
                (void)pipe.erase(base);
        }
        return pipe.stats().crashes;
    };

    HwTree serial_tree;
    HwTree storm_tree;
    (void)drive(1, serial_tree);
    (void)drive(4, storm_tree);
    EXPECT_EQ(storm_tree.items(), serial_tree.items());
    EXPECT_TRUE(storm_tree.validate().is_ok());
}

#if FIDR_FAULT_ENABLED
TEST(CrashStorm, ForcedMisspeculationReplaysEveryUpdate)
{
    // The hwtree.force_crash failpoint marks every commit as a
    // misspeculation regardless of real write-set overlap: the replay
    // path runs for 100% of updates and must still be invisible to
    // clients.
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    fault::FaultPolicy policy;
    policy.probability = 1.0;
    registry.arm(fault::Site::kHwTreeForceCrash, policy);

    HwTree tree;
    PipelineConfig config;
    config.update_lanes = 4;
    TreePipeline pipe(tree, config);
    std::map<std::uint64_t, std::uint64_t> model;
    Rng rng(13);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t key = rng.next_below(1u << 20);
        ASSERT_TRUE(pipe.insert(key, i).is_ok());
        model[key] = i;
    }
    registry.disarm_all();

    const PipelineStats &stats = pipe.stats();
    EXPECT_EQ(stats.crashes, stats.updates);
    EXPECT_EQ(stats.replays, stats.crashes);
    EXPECT_DOUBLE_EQ(stats.crash_rate(), 1.0);
    for (const auto &[k, v] : model)
        EXPECT_EQ(pipe.search(k), std::optional<std::uint64_t>(v)) << k;
    EXPECT_TRUE(tree.validate().is_ok());
}
#endif  // FIDR_FAULT_ENABLED

}  // namespace
}  // namespace fidr::hwtree
