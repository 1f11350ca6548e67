/**
 * @file
 * One FIDR server inside a scale-out cluster.
 *
 * The paper's scalability story is horizontal (Sec 1, Sec 8): capacity
 * and throughput grow to PB scale by adding FIDR servers.  A FidrNode
 * is the unit that gets added — the full single-server orchestration
 * (FidrSystem: NIC, pipelines, tables, container log, GC) plus the two
 * things cluster membership needs:
 *
 *  - identity: a node index, stamped into FidrConfig::node_index so
 *    every trace id the node mints carries it (obs/request.h) and
 *    merged cluster obs dumps attribute spans correctly;
 *  - serialization: FidrSystem's entry points expect one orchestrating
 *    caller at a time (the single-server contract).  The node exposes
 *    a serial lock; cluster callers (cluster::ClusterRouter) hold it
 *    across each forwarded operation, and cross-node parallelism comes
 *    from different nodes' locks being held concurrently.
 *
 * A FidrNode is also the node side of the router's remote-fingerprint
 * protocol: the digest-carrying write, probe_digest, write_ref and
 * unmap forward to the system's cluster surface.  A standalone
 * deployment simply never calls them, so node 0 of a cluster-of-1
 * behaves bit-identically to a bare FidrSystem (the gate
 * bench_cluster_scaling enforces).
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "fidr/core/fidr_system.h"

namespace fidr::core {

/** One FIDR server: a FidrSystem plus cluster identity + serial lock. */
class FidrNode {
  public:
    /** Builds the node's system with `config.node_index` = `index`. */
    FidrNode(std::uint32_t index, FidrConfig config)
        : index_(index),
          name_("node" + std::to_string(index)),
          system_((config.node_index = index, config))
    {
    }

    FidrNode(const FidrNode &) = delete;
    FidrNode &operator=(const FidrNode &) = delete;

    std::uint32_t index() const { return index_; }
    const std::string &name() const { return name_; }

    FidrSystem &system() { return system_; }
    const FidrSystem &system() const { return system_; }

    /**
     * Per-node serialization lock.  Callers hold it across every
     * forwarded operation (write, read_batch, flush, GC, the remote
     * fingerprint surface); FidrSystem itself stays single-caller.
     */
    std::mutex &serial_lock() { return mutex_; }

    // Node side of the router's RPCs (see fidr_system.h for contracts;
    // call under serial_lock()).
    Status write(Lba lba, Buffer data)
    { return system_.write(lba, std::move(data)); }
    Status write(Lba lba, Buffer data, const Digest &digest)
    { return system_.write(lba, std::move(data), digest); }
    Result<Buffer> read(Lba lba) { return system_.read(lba); }
    std::vector<Result<Buffer>> read_batch(std::span<const Lba> lbas)
    { return system_.read_batch(lbas); }
    Status flush() { return system_.flush(); }
    Result<bool> probe_digest(const Digest &digest)
    { return system_.probe_digest(digest); }
    Status write_ref(Lba lba, const Digest &digest)
    { return system_.write_ref(lba, digest); }
    Status unmap(Lba lba) { return system_.unmap(lba); }

  private:
    std::uint32_t index_;
    std::string name_;
    FidrSystem system_;
    std::mutex mutex_;
};

}  // namespace fidr::core
