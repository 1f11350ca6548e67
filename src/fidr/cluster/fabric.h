/**
 * @file
 * Simulated cluster network fabric: the cross-node analogue of
 * fidr::pcie::Fabric.
 *
 * The router and its N nodes form a star: one bidirectional link per
 * node.  Like the PCIe model, the fabric is a latency/bandwidth
 * *ledger*, not a packet simulator — every RPC debits per-link byte
 * and message counters, and link_seconds() converts them into the
 * busy time the scaling model charges the network:
 *
 *   seconds = bytes / link_bandwidth
 *           + messages * rpc_latency
 *           + injected delay spikes.
 *
 * RPC framing is batched (Sec 5.4's batching discipline applied to the
 * wire): consecutive data-plane ops (writes, write-refs, reads — the
 * descriptors are self-describing, so kinds mix in one frame the way
 * NVMe-oF capsules share a queue) share one frame header for up to
 * `frame_ops` descriptors, so a 256-chunk write batch costs one header
 * + 256 descriptors + the payloads, not 256 headers.  The control
 * RPC (unmap) closes the open frame and travels as its own message.
 *
 * Fault injection rides the process-wide FailpointRegistry with three
 * sites evaluated on every request-direction send:
 *   net.send  — link error before transmit: nothing billed, the armed
 *               Status surfaces to the router;
 *   net.drop  — the frame transmitted, then vanished: bytes ARE billed
 *               (they crossed the wire) but the op reports
 *               kUnavailable, so the router's transient-retry loop
 *               re-sends and re-bills, exactly like a real lost frame;
 *   net.delay — latency spike: the op succeeds and the armed
 *               latency_ns is added to the link's busy time.
 *
 * Thread safety: all counters live behind one mutex, so concurrent
 * router fan-out threads may bill safely; totals are commutative sums.
 * The determinism contract (bit-identical ledgers) additionally needs
 * the caller to bill in a fixed order, which the router does by
 * serial-billing fan-out joins in node-index order.
 */
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/units.h"

namespace fidr::cluster {

/** Fabric sizing and framing parameters. */
struct FabricConfig {
    /** Per-link bandwidth, each direction (a 25 GbE NIC would be ~3
     *  GB/s; the default models a 400 Gb fabric so the *nodes*, not
     *  the wires, bound the scaling bench — the paper's premise when
     *  it adds servers for throughput). */
    Bandwidth link_bandwidth = gb_per_s(50);

    /** Per-message one-way latency (doorbell + switch traversal). */
    SimTime rpc_latency = 1 * kMicrosecond;

    std::uint64_t frame_header_bytes = 64;   ///< One per frame/message.
    std::uint64_t write_descriptor_bytes = 32;  ///< LBA + lengths + crc.
    /** Digest-reference descriptor: 32-byte digest + LBA + check. */
    std::uint64_t ref_descriptor_bytes = 48;
    std::uint64_t read_descriptor_bytes = 16;   ///< LBA + flags.
    std::uint64_t ack_bytes = 16;               ///< Response status.
    /** Max same-kind descriptors sharing one frame header. */
    std::size_t frame_ops = 16;
};

/** RPC kinds the router issues. */
enum class Rpc : std::uint8_t {
    kWrite = 0,  ///< Full 4 KiB chunk write (framed).
    kWriteRef,   ///< Duplicate-suppressed write: digest only (framed).
    kRead,       ///< Read request descriptor (framed).
    kUnmap,      ///< LBA ownership-move unmap (standalone message).
};

/** Per-link counters (request + response directions). */
struct LinkCounters {
    std::uint64_t request_bytes = 0;
    std::uint64_t response_bytes = 0;
    std::uint64_t messages = 0;    ///< Frames + standalone RPCs + responses.
    std::uint64_t operations = 0;  ///< RPC ops carried (all kinds).
    std::uint64_t frames = 0;      ///< Data-plane frame headers billed.
    std::uint64_t send_errors = 0; ///< net.send fires (nothing billed).
    std::uint64_t drops = 0;       ///< net.drop fires (billed, then lost).
    std::uint64_t delay_spikes = 0;///< net.delay fires.
    std::uint64_t delay_ns = 0;    ///< Injected spike time accumulated.
    std::uint64_t retries = 0;     ///< Router re-sends after a drop.
};

/** Star-topology cluster fabric ledger. */
class Fabric {
  public:
    explicit Fabric(std::size_t nodes, FabricConfig config = {});

    std::size_t nodes() const { return links_.size(); }
    const FabricConfig &config() const { return config_; }

    /**
     * Bills one request-direction RPC op to `node`'s link, evaluating
     * the net.* failpoints (see file comment for each site's billing
     * semantics).  `payload_bytes` is the data carried beyond the
     * descriptor (4 KiB for kWrite, 0 otherwise).
     */
    Status send(std::size_t node, Rpc rpc, std::uint64_t payload_bytes);

    /**
     * Bills one response on `node`'s link: an ack plus `payload_bytes`
     * (read data travels in responses).  Empty acks are cumulative —
     * one response *message* (latency) covers frame_ops acks, the way
     * a storage target coalesces completions; payload-carrying
     * responses are each their own message.  Responses are infallible
     * — loss is modeled at send time, where the retry actually
     * happens.
     */
    void respond(std::size_t node, std::uint64_t payload_bytes);

    /** Counts router retries after transient send failures. */
    void count_retry(std::size_t node, std::uint64_t retries);

    const LinkCounters &link(std::size_t node) const;

    /** Busy seconds of `node`'s link under the ledger model. */
    double link_seconds(std::size_t node) const;

    /** Aggregates across links. */
    std::uint64_t total_bytes() const;
    std::uint64_t total_messages() const;
    std::uint64_t total_operations() const;
    std::uint64_t total_drops() const;
    std::uint64_t total_retries() const;
    std::uint64_t total_send_errors() const;
    std::uint64_t total_delay_spikes() const;

  private:
    struct LinkState {
        LinkCounters counters;
        /** Open data-plane frame: descriptor slots left. */
        std::size_t frame_left = 0;
        /** Empty acks coalesced into the current response message. */
        std::size_t acks_pending = 0;
    };

    std::uint64_t descriptor_bytes(Rpc rpc) const;

    FabricConfig config_;
    mutable std::mutex mutex_;
    std::vector<LinkState> links_;
};

}  // namespace fidr::cluster
