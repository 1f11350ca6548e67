/**
 * @file
 * Cluster router: N in-process FIDR nodes behind one StorageServer.
 *
 * The paper scales to PB by adding FIDR servers (Sec 1, Sec 8); this
 * models that scale-out.  The router partitions two spaces across N
 * ClusterNode instances and forwards every client op over a simulated
 * cluster::Fabric:
 *
 *  - LBA space: which node owns a logical block.  Routing::kLbaHash
 *    stripes LBAs by a mixing hash (static ownership, node-local
 *    dedup); Routing::kFingerprint assigns each *write* to the node
 *    owning its content hash and keeps an LBA -> node directory for
 *    reads, so ownership follows content.
 *  - Fingerprint space (kFingerprint): a chunk's digest prefix names
 *    exactly one owner node, so identical content always lands on the
 *    same node and dedups there — cluster-wide dedup equals
 *    single-node global dedup (bench_cluster_scaling gates the ratio
 *    within 2%).  An overwrite that moves an LBA's content to a
 *    different owner writes the new owner first, then points the
 *    directory at it, then unmaps the old owner.  A read racing the
 *    move returns the old or the new bytes (a NOT_FOUND from the old
 *    owner retries on the new one), and once write() returns exactly
 *    one node maps the LBA.
 *
 * Remote duplicate suppression (kFingerprint, N > 1): the router
 * remembers recently forwarded digests; a recurrence sends a 48-byte
 * write_ref descriptor instead of the 4 KiB payload.  Full writes
 * carry the router's digest, so the owner serves a ref from content
 * still in its open NIC buffer (a NIC-local copy) or else from a
 * committed chunk, and counts it exactly like a full duplicate write;
 * kNotFound (content overwritten before it committed, reclaimed, or
 * a prefix collision in the bounded memory) falls back to the full
 * write.  The node outcome is identical either way — only wire bytes
 * differ.
 *
 * Parallelism and determinism: each node runs its own pipelines on its
 * own lanes.  read_batch() runs per-node sub-batches one after the
 * other on the calling thread (each under its node's serial lock):
 * spawning a thread per node per call cost more than the overlap
 * saved.  ALL fabric billing is serial, in node-index order, so
 * ledgers are bit-identical run to run.  Writes forward synchronously
 * (the node acks at NIC admission, so a forwarded write returns as
 * fast as a local one); cross-node overlap for writes comes from
 * different client threads hitting different owners concurrently.
 *
 * Cluster-of-1 contract: with N=1 every op forwards to node 0 with no
 * suppression, no unmaps and no node-visible side effects,
 * so node 0's ledgers, journal and payloads are bit-identical to a
 * bare FidrSystem fed the same ops; the cluster fabric bills one link
 * as a separate layer.  bench_cluster_scaling and test_cluster gate
 * this.
 *
 * Transient faults: every request-direction send runs a bounded
 * retry loop (net.drop injections re-send and re-bill, like a real
 * lost frame); persistent failures surface to the caller with the
 * op unapplied on the node.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fidr/cluster/fabric.h"
#include "fidr/core/fidr_system.h"
#include "fidr/core/perf_model.h"
#include "fidr/core/server.h"
#include "fidr/hash/digest.h"
#include "fidr/obs/metrics.h"

namespace fidr::cluster {

/** LBA-ownership policy. */
enum class Routing : std::uint8_t {
    kLbaHash = 0,   ///< Static hash-striped LBAs, node-local dedup.
    kFingerprint,   ///< Content-hash ownership, cluster-global dedup.
};

const char *routing_name(Routing routing);

/** Cluster shape and policies. */
struct ClusterConfig {
    std::size_t nodes = 1;
    Routing routing = Routing::kLbaHash;
    FabricConfig fabric;
    /** Digests remembered for duplicate suppression (kFingerprint,
     *  N > 1); 0 disables suppression entirely. */
    std::size_t suppression_entries = 64 * 1024;
    /** Re-sends after a transient (kUnavailable) RPC failure. */
    unsigned transient_retries = 2;
};

/** Router-side counters (node stats live in each node's system). */
struct ClusterStats {
    std::uint64_t writes_forwarded = 0;
    std::uint64_t writes_suppressed = 0;  ///< write_ref replaced payload.
    std::uint64_t suppression_misses = 0; ///< write_ref -> full fallback.
    std::uint64_t reads_forwarded = 0;
    std::uint64_t unmaps_sent = 0;        ///< Ownership moves.
};

/** Scaling model: per-node projections + fabric busy time. */
struct ClusterProjection {
    struct Node {
        core::Projection projection;
        double seconds = 0;       ///< client_bytes / throughput().
        double link_seconds = 0;  ///< Fabric busy time of this link.
    };
    std::vector<Node> nodes;
    double total_client_bytes = 0;
    std::uint64_t total_chunks_written = 0;
    /** Makespan: slowest node or busiest link (they overlap). */
    double cluster_seconds = 0;
    Bandwidth aggregate_bytes_per_s = 0;
    double aggregate_writes_per_s = 0;
};

/**
 * One FIDR server in the cluster: the unit the paper's scale-out adds
 * (Sec 1, Sec 8).  Its system is built with FidrConfig::node_index =
 * index, so every trace id it mints carries the node (obs/request.h).
 * FidrSystem expects one caller at a time: the router holds
 * serial_lock() across every call into system(), and cross-node
 * parallelism comes from different nodes' locks being held at once.
 */
class ClusterNode {
  public:
    ClusterNode(std::uint32_t index, core::FidrConfig config)
        : name_("node" + std::to_string(index)),
          system_((config.node_index = index, config))
    {
    }

    /** "nodeI": the node's prefix in the merged obs snapshot. */
    const std::string &name() const { return name_; }
    core::FidrSystem &system() { return system_; }
    const core::FidrSystem &system() const { return system_; }
    std::mutex &serial_lock() { return mutex_; }

  private:
    std::string name_;
    core::FidrSystem system_;
    std::mutex mutex_;
};

/** N FIDR nodes behind one block-store front door. */
class ClusterRouter final : public core::StorageServer {
  public:
    /** Every node is built from `node_config` (node_index stamped). */
    ClusterRouter(const ClusterConfig &config,
                  const core::FidrConfig &node_config);

    Status write(Lba lba, Buffer data) override;
    Result<Buffer> read(Lba lba) override;
    std::vector<Result<Buffer>> read_batch(
        std::span<const Lba> lbas) override;
    Status flush() override;

    /** Merged reduction stats across nodes (recomputed per call). */
    const core::ReductionStats &reduction() const override;

    /** Runs run-to-completion GC on every node (serial). */
    Status run_gc(double min_dead_fraction);

    /** Validates every node's metadata (serial). */
    Status validate();

    std::size_t nodes() const { return nodes_.size(); }
    ClusterNode &node(std::size_t i) { return *nodes_[i]; }
    const ClusterNode &node(std::size_t i) const { return *nodes_[i]; }
    Fabric &fabric() { return fabric_; }
    const Fabric &fabric() const { return fabric_; }
    const ClusterConfig &config() const { return config_; }
    const ClusterStats &stats() const { return stats_; }

    /** Owner node of `lba` for writes (directory-aware in kFingerprint
     *  mode: nullopt when the LBA was never written). */
    std::optional<std::size_t> read_owner(Lba lba) const;

    /** Static owners (kLbaHash stripe / digest-prefix ownership). */
    std::size_t lba_owner(Lba lba) const;
    std::size_t digest_owner(const Digest &digest) const;

    /**
     * Merged observability snapshot with a node dimension: every node
     * counter/gauge/histogram/section appears under "nodeI.", counters
     * are additionally summed under their plain name, and the fabric
     * contributes "net.*" counters plus a per-link section.
     */
    obs::ObsSnapshot obs_snapshot();

    /** Ledger-model scaling projection (see ClusterProjection). */
    ClusterProjection project(
        Bandwidth target = calib::kTargetThroughput) const;

  private:
    /** send() with the bounded transient-retry loop. */
    Status send_with_retry(std::size_t node, Rpc rpc,
                           std::uint64_t payload_bytes);

    /** Forwards one full-payload write to `owner`, with the router's
     *  digest of it when fingerprint routing computed one. */
    Status forward_write(std::size_t owner, Lba lba, Buffer data,
                         const Digest *digest);

    /** Fingerprint write to the content's owner: a 48 B write_ref when
     *  suppression expects the content there, else the full write. */
    Status write_to_owner(std::size_t owner, Lba lba, Buffer data,
                          const Digest &digest);

    /** Points the directory at `owner`; on a move, then unmaps the old
     *  owner (the write already reached the new one). */
    Status publish_owner(Lba lba, std::size_t owner);

    /** One forwarded read of `lba` on `node` (request + response). */
    Result<Buffer> read_on(std::size_t node, Lba lba);

    /** Where `lba` lives: its owner plus, under kFingerprint, how many
     *  times it has moved (nullopt: never written). */
    struct Placement {
        std::size_t node = 0;
        std::uint32_t moves = 0;
    };
    std::optional<Placement> placement(Lba lba) const;

    /** After `asked` answered NOT_FOUND, re-reads `lba` from its
     *  current owner once for every move made since that lookup. */
    void retry_moved(Lba lba, Placement asked, Result<Buffer> &result);

    bool suppression_lookup(const Digest &digest);
    void suppression_insert(const Digest &digest);

    ClusterConfig config_;
    std::vector<std::unique_ptr<ClusterNode>> nodes_;
    Fabric fabric_;

    /** kFingerprint: LBA -> owning node (written LBAs only). */
    mutable std::mutex directory_mutex_;
    std::unordered_map<Lba, Placement> directory_;

    /** kFingerprint, N > 1: serializes writes of one LBA (striped). */
    std::array<std::mutex, 64> lba_locks_;

    /** Bounded FIFO-evicted digest memory for suppression. */
    std::mutex suppression_mutex_;
    std::unordered_set<std::uint64_t> suppression_;
    std::vector<std::uint64_t> suppression_fifo_;
    std::size_t suppression_next_ = 0;

    mutable std::mutex stats_mutex_;
    ClusterStats stats_;
    mutable core::ReductionStats merged_;
};

}  // namespace fidr::cluster
