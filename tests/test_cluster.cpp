// Cluster-layer tests: the N-node router + simulated fabric built on
// cluster::ClusterNode.  Covers the cluster-of-1 bit-identity contract,
// cross-shard read correctness under both routing policies, the
// fingerprint dedup-parity property, the remote-fingerprint protocol
// (write_ref suppression from the NIC buffer or committed state /
// unmap-on-ownership-move and reads racing it), injected
// net.* faults with transparent retry, fabric framing arithmetic, and
// a concurrent multi-node write/read/GC soak (the TSan target).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>
#include <unordered_map>

#include "fidr/cluster/router.h"
#include "fidr/common/bytes.h"
#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256.h"
#include "fidr/obs/request.h"
#include "fidr/workload/generator.h"

namespace fidr::cluster {
namespace {

core::PlatformConfig
cluster_platform()
{
    core::PlatformConfig config;
    config.expected_unique_chunks = 30000;
    config.cache_fraction = 0.08;
    config.data_ssd.capacity_bytes = 4ull * kGiB;
    config.table_ssd.capacity_bytes = 1ull * kGiB;  // Tables + journal.
    return config;
}

core::FidrConfig
node_config()
{
    core::FidrConfig config;
    config.platform = cluster_platform();
    config.journal_metadata = true;
    return config;
}

/** A 4 KiB buffer unique to `tag` whose digest lands on `owner` in an
 *  N-node cluster. */
Buffer
buffer_owned_by(const ClusterRouter &router, std::size_t owner,
                std::uint64_t tag)
{
    Buffer data(kChunkSize, 0x3C);
    store_le(data.data(), tag, 8);
    for (std::uint32_t attempt = 0; attempt < 4096; ++attempt) {
        store_le(data.data() + 8, attempt, 4);
        if (router.digest_owner(Sha256::hash(data)) == owner)
            return data;
    }
    ADD_FAILURE() << "no buffer found for owner " << owner;
    return data;
}

/**
 * Every LBA in `lbas` is mapped — committed, or the newest write in
 * the open NIC buffer — on its directory owner and on no other node.
 * Call with no sealed batch in flight (after a flush, or when every
 * write since is still in an open buffer).
 */
void
expect_single_owner(ClusterRouter &router, const std::vector<Lba> &lbas)
{
    for (const Lba lba : lbas) {
        const auto owner = router.read_owner(lba);
        ASSERT_TRUE(owner.has_value()) << "lba " << lba;
        for (std::size_t n = 0; n < router.nodes(); ++n) {
            core::FidrSystem &node = router.node(n).system();
            const bool mapped = node.lba_table().pbn_of(lba).has_value() ||
                                node.nic_model().lookup_buffered(lba);
            EXPECT_EQ(mapped, n == *owner) << "lba " << lba << " node " << n;
        }
    }
}

std::uint64_t
batches_sealed(core::FidrSystem &node)
{
    return node.metrics().counter("pipeline.batches").get();
}

/** Drops process-global metrics (failpoint hit counts) that a second
 *  system running in the same process perturbs. */
std::map<std::string, std::uint64_t>
instance_counters(const obs::ObsSnapshot &snap)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[key, value] : snap.counters) {
        if (key.rfind("fault.", 0) != 0)
            out[key] = value;
    }
    return out;
}

class Cluster : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
#if FIDR_FAULT_ENABLED
        auto &registry = fault::FailpointRegistry::instance();
        registry.disarm_all();
        registry.reset_counters();
        registry.set_seed(0xF1D7);
#endif
    }

    void
    TearDown() override
    {
#if FIDR_FAULT_ENABLED
        fault::FailpointRegistry::instance().disarm_all();
#endif
    }
};

// ---------------------------------------------------------------------
// Cluster-of-1 contract: node 0 is bit-identical to a bare FidrSystem.
// ---------------------------------------------------------------------

TEST_F(Cluster, ClusterOfOneBitIdenticalToBareSystem)
{
    for (const Routing routing :
         {Routing::kLbaHash, Routing::kFingerprint}) {
        core::FidrSystem bare(node_config());
        ClusterConfig cconfig;
        cconfig.nodes = 1;
        cconfig.routing = routing;
        ClusterRouter router(cconfig, node_config());

        workload::WorkloadSpec spec;
        spec.seed = 7;
        spec.dedup_ratio = 0.4;
        spec.read_fraction = 0.2;
        spec.dup_working_set = 256;
        spec.address_space_chunks = 1 << 11;
        workload::WorkloadGenerator gen(spec);

        std::unordered_map<Lba, Buffer> model;
        for (int i = 0; i < 2000; ++i) {
            const workload::IoRequest req = gen.next();
            if (req.dir == IoDir::kWrite) {
                model[req.lba] = req.data;
                ASSERT_TRUE(bare.write(req.lba, req.data).is_ok());
                ASSERT_TRUE(router.write(req.lba, req.data).is_ok());
            } else {
                const auto it = model.find(req.lba);
                if (it == model.end())
                    continue;
                ASSERT_EQ(bare.read(req.lba).value(), it->second);
                ASSERT_EQ(router.read(req.lba).value(), it->second);
            }
        }
        ASSERT_TRUE(bare.flush().is_ok());
        ASSERT_TRUE(router.flush().is_ok());

        core::FidrSystem &node0 = router.node(0).system();

        // Identical payloads...
        for (const auto &[lba, data] : model) {
            ASSERT_EQ(bare.read(lba).value(), data);
            ASSERT_EQ(router.read(lba).value(), data);
        }
        // ...identical reduction outcomes and journal...
        const core::ReductionStats &a = bare.reduction();
        const core::ReductionStats &b = node0.reduction();
        EXPECT_EQ(a.unique_chunks, b.unique_chunks);
        EXPECT_EQ(a.duplicates, b.duplicates);
        EXPECT_EQ(a.stored_bytes, b.stored_bytes);
        EXPECT_EQ(bare.journal_records(), node0.journal_records());
        // ...and identical node-local ledgers/counters.  The reads the
        // router served go through node 0 itself, so even read-path
        // counters line up; only process-global fault-site hit counts
        // (the cluster fabric evaluates net.*) are excluded.
        EXPECT_EQ(instance_counters(bare.obs_snapshot()),
                  instance_counters(node0.obs_snapshot()));

        // No cluster-protocol side effects leaked into the node.
        EXPECT_EQ(router.stats().writes_suppressed, 0u);
        EXPECT_EQ(router.stats().suppression_misses, 0u);
        EXPECT_EQ(router.stats().unmaps_sent, 0u);
    }
}

// ---------------------------------------------------------------------
// Cross-shard correctness: every byte comes back under both routings.
// ---------------------------------------------------------------------

class ClusterRoutingModes : public Cluster,
                            public ::testing::WithParamInterface<Routing> {
};

TEST_P(ClusterRoutingModes, CrossShardReadsReturnNewestData)
{
    ClusterConfig cconfig;
    cconfig.nodes = 3;
    cconfig.routing = GetParam();
    ClusterRouter router(cconfig, node_config());

    workload::WorkloadSpec spec;
    spec.seed = 21;
    spec.dedup_ratio = 0.5;
    spec.read_fraction = 0.25;
    spec.dup_working_set = 200;
    spec.address_space_chunks = 1 << 10;  // Dense: overwrites + moves.
    workload::WorkloadGenerator gen(spec);

    std::unordered_map<Lba, Buffer> model;
    for (int i = 0; i < 3000; ++i) {
        const workload::IoRequest req = gen.next();
        if (req.dir == IoDir::kWrite) {
            model[req.lba] = req.data;
            ASSERT_TRUE(router.write(req.lba, req.data).is_ok());
        } else {
            const auto it = model.find(req.lba);
            if (it == model.end()) {
                ASSERT_FALSE(router.read(req.lba).is_ok());
                continue;
            }
            ASSERT_EQ(router.read(req.lba).value(), it->second)
                << "mid-stream lba " << req.lba;
        }
    }
    ASSERT_TRUE(router.flush().is_ok());

    // Full sweep via the batched read path (owner fan-out + join).
    std::vector<Lba> lbas;
    lbas.reserve(model.size() + 1);
    for (const auto &[lba, data] : model)
        lbas.push_back(lba);
    const Lba never_written = spec.address_space_chunks + 999;
    lbas.push_back(never_written);
    const std::vector<Result<Buffer>> batch = router.read_batch(lbas);
    ASSERT_EQ(batch.size(), lbas.size());
    for (std::size_t i = 0; i + 1 < lbas.size(); ++i) {
        ASSERT_TRUE(batch[i].is_ok()) << "lba " << lbas[i];
        ASSERT_EQ(batch[i].value(), model.at(lbas[i]));
    }
    EXPECT_FALSE(batch.back().is_ok());
    EXPECT_EQ(batch.back().status().code(), StatusCode::kNotFound);

    // The workload actually spread across shards, and metadata on
    // every node is intact.
    std::size_t active_nodes = 0;
    for (std::size_t n = 0; n < router.nodes(); ++n) {
        if (router.node(n).system().reduction().chunks_written > 0)
            ++active_nodes;
    }
    EXPECT_GE(active_nodes, 2u);
    EXPECT_TRUE(router.validate().is_ok());
    EXPECT_GT(router.fabric().total_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Routings, ClusterRoutingModes,
                         ::testing::Values(Routing::kLbaHash,
                                           Routing::kFingerprint),
                         [](const auto &info) {
                             return info.param == Routing::kLbaHash
                                        ? "LbaHash"
                                        : "Fingerprint";
                         });

// ---------------------------------------------------------------------
// Fingerprint routing preserves global dedup across shards.
// ---------------------------------------------------------------------

TEST_F(Cluster, FingerprintRoutingMatchesSingleNodeDedup)
{
    core::FidrSystem single(node_config());
    ClusterConfig cconfig;
    cconfig.nodes = 4;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());

    workload::WorkloadSpec spec;
    spec.seed = 33;
    spec.dedup_ratio = 0.6;
    spec.dup_working_set = 128;
    spec.address_space_chunks = 1 << 14;
    workload::WorkloadGenerator gen(spec);

    for (int i = 0; i < 4000; ++i) {
        const workload::IoRequest req = gen.next();
        ASSERT_TRUE(single.write(req.lba, req.data).is_ok());
        ASSERT_TRUE(router.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(single.flush().is_ok());
    ASSERT_TRUE(router.flush().is_ok());

    // Content-hash ownership means identical content always meets on
    // one node, so cluster dedup tracks single-node global dedup; the
    // ISSUE gate allows 2% for batch-boundary timing differences.
    const double single_rate = single.reduction().dedup_rate();
    const double cluster_rate = router.reduction().dedup_rate();
    EXPECT_NEAR(cluster_rate, single_rate, 0.02)
        << "single " << single_rate << " cluster " << cluster_rate;
    EXPECT_GT(cluster_rate, 0.3);

    // The duplicate-suppression fast path actually engaged, and every
    // node holds a share of the fingerprint space.
    EXPECT_GT(router.stats().writes_suppressed, 0u);
    for (std::size_t n = 0; n < router.nodes(); ++n)
        EXPECT_GT(router.node(n).system().reduction().chunks_written, 0u)
            << "node " << n;
}

// ---------------------------------------------------------------------
// Remote-fingerprint protocol: unmap-on-ownership-move.
// ---------------------------------------------------------------------

TEST_F(Cluster, OverwriteMovingOwnersUnmapsTheOldOwner)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());

    const Lba lba = 42;
    const Buffer first = buffer_owned_by(router, 0, 0x11);
    const Buffer second = buffer_owned_by(router, 1, 0x77);
    ASSERT_TRUE(router.write(lba, first).is_ok());
    ASSERT_TRUE(router.flush().is_ok());
    ASSERT_EQ(router.read_owner(lba), std::size_t{0});

    ASSERT_TRUE(router.write(lba, second).is_ok());
    ASSERT_TRUE(router.flush().is_ok());

    // Ownership followed the content; the old owner dropped the LBA
    // (no LBA is ever mapped on two nodes) and the router serves the
    // newest bytes from the new owner.
    EXPECT_EQ(router.read_owner(lba), std::size_t{1});
    EXPECT_EQ(router.stats().unmaps_sent, 1u);
    EXPECT_EQ(router.read(lba).value(), second);
    EXPECT_FALSE(router.node(0).system().read(lba).is_ok());
    EXPECT_TRUE(router.validate().is_ok());
}

TEST_F(Cluster, RefToContentInTheOpenNicBufferIsServedThere)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());
    core::FidrSystem &owner = router.node(1).system();

    const Buffer data = buffer_owned_by(router, 1, 0x21);
    ASSERT_TRUE(router.write(10, data).is_ok());
    const std::uint64_t batches = batches_sealed(owner);
    const std::uint64_t request_bytes = router.fabric().link(1).request_bytes;

    // The duplicate travels as a 48 B ref and becomes a NIC-local copy
    // on the owner: the open batch keeps collecting, nothing commits.
    ASSERT_TRUE(router.write(11, data).is_ok());
    EXPECT_EQ(router.stats().writes_suppressed, 1u);
    EXPECT_EQ(router.stats().suppression_misses, 0u);
    EXPECT_EQ(router.fabric().link(1).request_bytes - request_bytes,
              cconfig.fabric.ref_descriptor_bytes);
    EXPECT_EQ(batches_sealed(owner), batches);
    EXPECT_EQ(owner.nic_model().buffered_chunks(), 2u);
    EXPECT_EQ(owner.cluster_stats().refs_from_nic, 1u);
    EXPECT_EQ(owner.cluster_stats().refs_from_committed, 0u);

    // Both LBAs read back before a flush, after it, and after the
    // owner crashes and recovers.
    const auto read_both = [&](const char *when) {
        EXPECT_EQ(router.read(10).value(), data) << when;
        EXPECT_EQ(router.read(11).value(), data) << when;
        expect_single_owner(router, {10, 11});
    };
    read_both("buffered");
    ASSERT_TRUE(router.flush().is_ok());
    read_both("flushed");
    EXPECT_EQ(owner.reduction().unique_chunks, 1u);
    EXPECT_EQ(owner.reduction().duplicates, 1u);
    ASSERT_TRUE(owner.simulate_crash_and_recover().is_ok());
    read_both("recovered");
    EXPECT_TRUE(router.validate().is_ok());

    // Where refs were served shows per node and summed.
    obs::ObsSnapshot snap = router.obs_snapshot();
    EXPECT_EQ(snap.counters.at("node1.cluster.refs_from_nic"), 1u);
    EXPECT_EQ(snap.counters.at("node0.cluster.refs_from_nic"), 0u);
    EXPECT_EQ(snap.counters.at("cluster.refs_from_nic"), 1u);
    EXPECT_EQ(snap.counters.at("cluster.refs_from_committed"), 0u);
    EXPECT_EQ(snap.counters.at("cluster.unmap_commits"), 0u);
}

TEST_F(Cluster, RefNeverServesBytesOverwrittenBeforeIt)
{
    for (const bool move : {false, true}) {
        SCOPED_TRACE(move ? "overwrite moves the source" : "same owner");
        ClusterConfig cconfig;
        cconfig.nodes = 2;
        cconfig.routing = Routing::kFingerprint;
        ClusterRouter router(cconfig, node_config());

        const Buffer first = buffer_owned_by(router, 1, 10);
        const Buffer second = buffer_owned_by(router, move ? 0 : 1, 11);
        ASSERT_TRUE(router.write(20, first).is_ok());
        ASSERT_TRUE(router.write(20, second).is_ok());
        // The router still remembers `first`, so this goes out as a
        // ref; the buffered chunk it would copy now holds `second`.
        ASSERT_TRUE(router.write(21, first).is_ok());
        EXPECT_EQ(router.node(1).system().cluster_stats().refs_from_nic, 0u);

        const auto read_both = [&](const char *when) {
            EXPECT_EQ(router.read(20).value(), second) << when;
            EXPECT_EQ(router.read(21).value(), first) << when;
        };
        read_both("buffered");
        ASSERT_TRUE(router.flush().is_ok());
        read_both("flushed");
        expect_single_owner(router, {20, 21});
        ASSERT_TRUE(
            router.node(1).system().simulate_crash_and_recover().is_ok());
        read_both("recovered");
        EXPECT_TRUE(router.validate().is_ok());
    }
}

TEST_F(Cluster, MovingACommittedLbaLeavesTheOldOwnersBatchAlone)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());
    core::FidrSystem &old_owner = router.node(0).system();

    const Lba lba = 42;
    const Buffer second = buffer_owned_by(router, 1, 2);
    ASSERT_TRUE(router.write(lba, buffer_owned_by(router, 0, 1)).is_ok());
    ASSERT_TRUE(router.flush().is_ok());
    // An open batch on the old owner that a flush would seal and commit.
    std::vector<Lba> lbas = {lba};
    for (Lba other = 100; other < 108; ++other) {
        ASSERT_TRUE(
            router.write(other, buffer_owned_by(router, 0, other))
                .is_ok());
        lbas.push_back(other);
    }

    const std::uint64_t batches = batches_sealed(old_owner);
    const std::uint64_t journal = old_owner.journal_records();
    const std::uint64_t table_bytes =
        old_owner.platform().table_ssd().bytes_written();
    const std::uint64_t data_bytes =
        old_owner.platform().data_ssds().total_bytes_written();
    ASSERT_TRUE(router.write(lba, second).is_ok());

    EXPECT_EQ(router.stats().unmaps_sent, 1u);
    EXPECT_EQ(batches_sealed(old_owner), batches);
    EXPECT_EQ(old_owner.nic_model().buffered_chunks(), 8u);
    EXPECT_EQ(old_owner.cluster_stats().unmap_commits, 0u);
    // The table SSD took one two-record journal extent — the unmap and
    // the retirement of the chunk it left unreferenced — and its fence
    // tombstone, and nothing else; no container was sealed.
    EXPECT_EQ(old_owner.journal_records(), journal + 2);
    EXPECT_EQ(old_owner.platform().table_ssd().bytes_written() - table_bytes,
              3 * tables::kJournalRecordSize);
    EXPECT_EQ(old_owner.platform().data_ssds().total_bytes_written(),
              data_bytes);
    EXPECT_FALSE(old_owner.lba_table().pbn_of(lba).has_value());
    EXPECT_EQ(router.read(lba).value(), second);
    expect_single_owner(router, lbas);
}

TEST_F(Cluster, MovingABufferedLbaCommitsItBeforeTheUnmap)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());
    core::FidrSystem &old_owner = router.node(0).system();

    const Lba lba = 43;
    const Lba bystander = 44;
    const Buffer kept = buffer_owned_by(router, 0, 3);
    const Buffer second = buffer_owned_by(router, 1, 2);
    ASSERT_TRUE(router.write(lba, buffer_owned_by(router, 0, 1)).is_ok());
    ASSERT_TRUE(router.write(bystander, kept).is_ok());
    ASSERT_TRUE(old_owner.nic_model().lookup_buffered(lba).has_value());

    const std::uint64_t batches = batches_sealed(old_owner);
    ASSERT_TRUE(router.write(lba, second).is_ok());
    EXPECT_EQ(batches_sealed(old_owner), batches + 1);
    EXPECT_EQ(old_owner.cluster_stats().unmap_commits, 1u);
    EXPECT_FALSE(old_owner.nic_model().lookup_buffered(lba).has_value());
    EXPECT_FALSE(old_owner.lba_table().pbn_of(lba).has_value());
    expect_single_owner(router, {lba, bystander});

    // A crash right after the move replays the commit, then the unmap.
    ASSERT_TRUE(old_owner.simulate_crash_and_recover().is_ok());
    EXPECT_FALSE(old_owner.lba_table().pbn_of(lba).has_value());
    EXPECT_EQ(router.read(lba).value(), second);
    EXPECT_EQ(router.read(bystander).value(), kept);
    expect_single_owner(router, {lba, bystander});
    EXPECT_TRUE(router.validate().is_ok());
}

TEST_F(Cluster, ReadsRacingOwnershipMovesSeeOldOrNewBytes)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kFingerprint;
    ClusterRouter router(cconfig, node_config());

    // Every overwrite moves its LBA to the other node.
    constexpr Lba kLbas = 32;
    constexpr int kRounds = 32;
    std::vector<Lba> lbas(kLbas);
    std::vector<Buffer> even, odd;
    for (Lba lba = 0; lba < kLbas; ++lba) {
        lbas[lba] = lba;
        even.push_back(buffer_owned_by(router, 0, 2 * lba));
        odd.push_back(buffer_owned_by(router, 1, 2 * lba + 1));
        ASSERT_TRUE(router.write(lba, even[lba]).is_ok());
    }
    ASSERT_TRUE(router.flush().is_ok());

    std::atomic<bool> done{false};
    std::atomic<int> write_failures{0};
    std::thread writer([&] {
        for (int round = 1; round <= kRounds; ++round) {
            for (Lba lba = 0; lba < kLbas; ++lba) {
                const Buffer &data = round % 2 == 1 ? odd[lba] : even[lba];
                if (!router.write(lba, data).is_ok())
                    ++write_failures;
            }
        }
        done.store(true);
    });
    int bad_slots = 0;
    int batches = 0;
    while (!done.load()) {
        const std::vector<Result<Buffer>> got = router.read_batch(lbas);
        for (Lba lba = 0; lba < kLbas; ++lba) {
            if (!got[lba].is_ok() ||
                (got[lba].value() != even[lba] &&
                 got[lba].value() != odd[lba]))
                ++bad_slots;
        }
        ++batches;
    }
    writer.join();
    EXPECT_EQ(write_failures.load(), 0);
    EXPECT_EQ(bad_slots, 0) << "over " << batches << " read batches";
    EXPECT_EQ(router.stats().unmaps_sent,
              static_cast<std::uint64_t>(kRounds) * kLbas);

    ASSERT_TRUE(router.flush().is_ok());
    expect_single_owner(router, lbas);
    for (Lba lba = 0; lba < kLbas; ++lba)
        EXPECT_EQ(router.read(lba).value(), even[lba]) << "lba " << lba;
}

// ---------------------------------------------------------------------
// Fabric framing arithmetic and injected net.* faults.
// ---------------------------------------------------------------------

TEST_F(Cluster, FabricFramesAmortizeHeadersAndCoalesceAcks)
{
    FabricConfig fconfig;
    Fabric fabric(1, fconfig);
    // 32 same-kind writes = 2 frames of frame_ops descriptors.
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(fabric.send(0, Rpc::kWrite, kChunkSize).is_ok());
        fabric.respond(0, 0);
    }
    const LinkCounters &link = fabric.link(0);
    EXPECT_EQ(link.frames, 2u);
    EXPECT_EQ(link.operations, 32u);
    EXPECT_EQ(link.request_bytes,
              2 * fconfig.frame_header_bytes +
                  32 * (fconfig.write_descriptor_bytes + kChunkSize));
    // 32 empty acks coalesce into ceil(32/frame_ops) = 2 messages.
    EXPECT_EQ(link.messages, 4u);
    EXPECT_EQ(link.response_bytes, 32 * fconfig.ack_bytes);

    // A control RPC closes the open frame: the next write reopens one.
    ASSERT_TRUE(fabric.send(0, Rpc::kWrite, kChunkSize).is_ok());
    ASSERT_TRUE(fabric.send(0, Rpc::kUnmap, 0).is_ok());
    ASSERT_TRUE(fabric.send(0, Rpc::kWrite, kChunkSize).is_ok());
    EXPECT_EQ(fabric.link(0).frames, 4u);
    EXPECT_GT(fabric.link_seconds(0), 0.0);
}

#if FIDR_FAULT_ENABLED

TEST_F(Cluster, DroppedFramesRetryTransparently)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kLbaHash;
    ClusterRouter router(cconfig, node_config());

    fault::FaultPolicy policy;
    policy.probability = 0.1;
    policy.max_fires = 8;
    fault::FailpointRegistry::instance().arm(fault::Site::kNetDrop,
                                             policy);

    std::unordered_map<Lba, Buffer> model;
    for (Lba lba = 0; lba < 200; ++lba) {
        Buffer data(kChunkSize, static_cast<std::uint8_t>(lba * 7 + 1));
        model[lba] = data;
        ASSERT_TRUE(router.write(lba, std::move(data)).is_ok())
            << "lba " << lba;
    }
    ASSERT_TRUE(router.flush().is_ok());
    for (const auto &[lba, data] : model)
        ASSERT_EQ(router.read(lba).value(), data);

    // Drops happened, every one was re-sent, and the lost frames were
    // billed (retry re-bills, like a real lost frame).
    EXPECT_GT(router.fabric().total_drops(), 0u);
    EXPECT_EQ(router.fabric().total_retries(),
              router.fabric().total_drops());
}

TEST_F(Cluster, PersistentLinkErrorSurfacesWithoutNodeSideEffects)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kLbaHash;
    ClusterRouter router(cconfig, node_config());

    fault::FaultPolicy policy;
    policy.probability = 1.0;
    fault::FailpointRegistry::instance().arm(fault::Site::kNetSend,
                                             policy);

    const Status failed = router.write(5, Buffer(kChunkSize, 0xAB));
    ASSERT_FALSE(failed.is_ok());
    EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
    // One initial send + transient_retries re-sends, nothing billed.
    EXPECT_EQ(router.fabric().total_send_errors(),
              1u + cconfig.transient_retries);
    EXPECT_EQ(router.fabric().total_bytes(), 0u);

    fault::FailpointRegistry::instance().disarm_all();
    EXPECT_FALSE(router.read(5).is_ok());  // Write never reached a node.
    ASSERT_TRUE(router.write(5, Buffer(kChunkSize, 0xAB)).is_ok());
    EXPECT_EQ(router.read(5).value(), Buffer(kChunkSize, 0xAB));
}

TEST_F(Cluster, DelaySpikesSucceedButChargeTheLink)
{
    ClusterConfig cconfig;
    cconfig.nodes = 1;
    ClusterRouter router(cconfig, node_config());

    const double before = router.fabric().link_seconds(0);
    fault::FaultPolicy policy;
    policy.kind = fault::FaultKind::kLatencySpike;
    policy.probability = 1.0;
    policy.latency_ns = 2'000'000;
    policy.max_fires = 4;
    fault::FailpointRegistry::instance().arm(fault::Site::kNetDelay,
                                             policy);

    for (Lba lba = 0; lba < 4; ++lba)
        ASSERT_TRUE(
            router.write(lba, Buffer(kChunkSize, 0x33)).is_ok());
    EXPECT_EQ(router.fabric().total_delay_spikes(), 4u);
    EXPECT_GE(router.fabric().link_seconds(0) - before, 4 * 2e-3);
}

#endif  // FIDR_FAULT_ENABLED

// ---------------------------------------------------------------------
// Merged observability: node dimension + fabric + router counters.
// ---------------------------------------------------------------------

TEST_F(Cluster, ObsSnapshotCarriesTheNodeDimension)
{
    ClusterConfig cconfig;
    cconfig.nodes = 2;
    cconfig.routing = Routing::kLbaHash;
    ClusterRouter router(cconfig, node_config());

    for (Lba lba = 0; lba < 64; ++lba)
        ASSERT_TRUE(router.write(
            lba, Buffer(kChunkSize, static_cast<std::uint8_t>(lba)))
                        .is_ok());
    ASSERT_TRUE(router.flush().is_ok());

    obs::ObsSnapshot snap = router.obs_snapshot();
    const auto counter = [&](const std::string &name) {
        const auto it = snap.counters.find(name);
        return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    // Per-node values exist and fold into the plain cluster-wide name.
    EXPECT_EQ(counter("node0.write.chunks") +
                  counter("node1.write.chunks"),
              counter("write.chunks"));
    EXPECT_EQ(counter("write.chunks"), 64u);
    EXPECT_EQ(counter("cluster.writes_forwarded"), 64u);
    EXPECT_GT(counter("net.bytes"), 64u * kChunkSize);
    EXPECT_EQ(counter("net.node0.request_bytes") +
                  counter("net.node0.response_bytes") +
                  counter("net.node1.request_bytes") +
                  counter("net.node1.response_bytes"),
              counter("net.bytes"));
    EXPECT_EQ(snap.gauges.at("cluster.nodes"), 2.0);
}

TEST_F(Cluster, TraceIdsEmbedTheNodeIndex)
{
#if FIDR_TRACE_ENABLED
    EXPECT_EQ(obs::trace_node(obs::RequestContext::next_id_for_node(0)),
              0u);
    const std::uint64_t id = obs::RequestContext::next_id_for_node(3);
    EXPECT_EQ(obs::trace_node(id), 3u);
    EXPECT_EQ(id & ~obs::kTraceSeqMask,
              std::uint64_t{3} << obs::kTraceNodeShift);
    EXPECT_LT(obs::trace_seq(id), std::uint64_t{1} << 32);
#else
    // FIDR_TRACE=OFF: id minting compiles to a no-op returning 0, so
    // there are no node bits to embed (same idiom as test_obs's
    // OFF-build zero-records tests).
    EXPECT_EQ(obs::RequestContext::next_id_for_node(3), 0u);
    EXPECT_EQ(obs::trace_node(0), 0u);
#endif
}

// ---------------------------------------------------------------------
// Concurrent soak: parallel writers + reader + GC through the router.
// This is the tier-1 TSan target (scripts/tier1.sh).
// ---------------------------------------------------------------------

TEST_P(ClusterRoutingModes, ConcurrentWritersReaderAndGcStayConsistent)
{
    ClusterConfig cconfig;
    cconfig.nodes = 3;
    cconfig.routing = GetParam();
    ClusterRouter router(cconfig, node_config());

    // A stable prefix the reader thread can verify while writers run.
    constexpr Lba kStableLbas = 64;
    const auto stable_payload = [](Lba lba) {
        return Buffer(kChunkSize,
                      static_cast<std::uint8_t>(0xC0 ^ (lba * 31)));
    };
    for (Lba lba = 0; lba < kStableLbas; ++lba)
        ASSERT_TRUE(router.write(lba, stable_payload(lba)).is_ok());
    ASSERT_TRUE(router.flush().is_ok());

    constexpr int kWriters = 4;
    constexpr Lba kPerWriter = 256;
    std::atomic<bool> stop{false};
    std::atomic<int> failures{0};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            const Lba base = kStableLbas + static_cast<Lba>(w) *
                                               kPerWriter;
            for (Lba i = 0; i < kPerWriter; ++i) {
                // ~50% duplicate content so GC and dedup both engage.
                const std::uint8_t fill = static_cast<std::uint8_t>(
                    (i % 2 == 0) ? (w * 16 + 3) : (i * 7 + w));
                if (!router.write(base + i, Buffer(kChunkSize, fill))
                         .is_ok())
                    ++failures;
                // Overwrite half the range once more (retire + move).
                if (i % 2 == 1 &&
                    !router.write(base + i,
                                  Buffer(kChunkSize,
                                         static_cast<std::uint8_t>(
                                             fill + 1)))
                         .is_ok())
                    ++failures;
            }
        });
    }
    std::thread reader([&] {
        Lba lba = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const Result<Buffer> got = router.read(lba % kStableLbas);
            if (!got.is_ok() ||
                got.value() != stable_payload(lba % kStableLbas))
                ++failures;
            ++lba;
        }
    });
    std::thread gc([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            if (!router.run_gc(0.3).is_ok())
                ++failures;
        }
    });
    for (std::thread &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    gc.join();
    ASSERT_EQ(failures.load(), 0);

    ASSERT_TRUE(router.flush().is_ok());
    ASSERT_TRUE(router.validate().is_ok());
    std::vector<Lba> all_lbas;
    for (Lba lba = 0; lba < kStableLbas + kWriters * kPerWriter; ++lba)
        all_lbas.push_back(lba);
    expect_single_owner(router, all_lbas);
    for (int w = 0; w < kWriters; ++w) {
        const Lba base = kStableLbas + static_cast<Lba>(w) * kPerWriter;
        for (Lba i = 0; i < kPerWriter; ++i) {
            const std::uint8_t fill = static_cast<std::uint8_t>(
                (i % 2 == 0) ? (w * 16 + 3) : (i * 7 + w));
            const std::uint8_t expect = static_cast<std::uint8_t>(
                i % 2 == 1 ? fill + 1 : fill);
            ASSERT_EQ(router.read(base + i).value(),
                      Buffer(kChunkSize, expect))
                << "writer " << w << " slot " << i;
        }
    }
}

}  // namespace
}  // namespace fidr::cluster
