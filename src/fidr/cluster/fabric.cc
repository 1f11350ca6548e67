#include "fidr/cluster/fabric.h"

#include "fidr/common/status.h"
#include "fidr/fault/failpoint.h"

namespace fidr::cluster {

Fabric::Fabric(std::size_t nodes, FabricConfig config)
    : config_(config), links_(nodes)
{
    FIDR_CHECK(nodes > 0);
    FIDR_CHECK(config_.link_bandwidth > 0);
    FIDR_CHECK(config_.frame_ops > 0);
}

std::uint64_t
Fabric::descriptor_bytes(Rpc rpc) const
{
    switch (rpc) {
      case Rpc::kWrite: return config_.write_descriptor_bytes;
      case Rpc::kWriteRef: return config_.ref_descriptor_bytes;
      case Rpc::kRead: return config_.read_descriptor_bytes;
      case Rpc::kUnmap: return config_.read_descriptor_bytes;
    }
    return config_.write_descriptor_bytes;
}

Status
Fabric::send(std::size_t node, Rpc rpc, std::uint64_t payload_bytes)
{
    FIDR_CHECK(node < links_.size());
    const std::lock_guard<std::mutex> lock(mutex_);
    LinkState &link = links_[node];

    // Link error before anything reaches the wire: nothing billed.
    const fault::FaultDecision send_fd =
        FIDR_FAULT_EVAL(fault::Site::kNetSend);
    if (send_fd.fire && send_fd.kind != fault::FaultKind::kLatencySpike) {
        ++link.counters.send_errors;
        return fault::to_status(send_fd, fault::Site::kNetSend);
    }

    // Injected latency spike: the op succeeds, the link loses time.
    const fault::FaultDecision delay_fd =
        FIDR_FAULT_EVAL(fault::Site::kNetDelay);
    if (delay_fd.fire) {
        ++link.counters.delay_spikes;
        link.counters.delay_ns += delay_fd.latency_ns;
    }

    // Frame accounting: data-plane ops (writes, write-refs, reads —
    // descriptors are self-describing, so kinds mix freely in one
    // frame, NVMe-oF-capsule style); control RPCs close the frame and
    // go alone.
    const bool framed =
        rpc == Rpc::kWrite || rpc == Rpc::kWriteRef || rpc == Rpc::kRead;
    std::uint64_t bytes = descriptor_bytes(rpc) + payload_bytes;
    if (framed) {
        if (link.frame_left == 0) {
            bytes += config_.frame_header_bytes;
            link.frame_left = config_.frame_ops;
            ++link.counters.frames;
            ++link.counters.messages;
        }
        --link.frame_left;
    } else {
        link.frame_left = 0;  // Control RPC closes the open frame.
        bytes += config_.frame_header_bytes;
        ++link.counters.messages;
    }
    link.counters.request_bytes += bytes;
    ++link.counters.operations;

    // Lost after transmit: billed (it crossed the wire), then gone.
    const fault::FaultDecision drop_fd =
        FIDR_FAULT_EVAL(fault::Site::kNetDrop);
    if (drop_fd.fire) {
        ++link.counters.drops;
        return fault::to_status(drop_fd, fault::Site::kNetDrop);
    }
    return Status::ok();
}

void
Fabric::respond(std::size_t node, std::uint64_t payload_bytes)
{
    FIDR_CHECK(node < links_.size());
    const std::lock_guard<std::mutex> lock(mutex_);
    LinkState &link = links_[node];
    link.counters.response_bytes += config_.ack_bytes + payload_bytes;
    if (payload_bytes > 0) {
        // Data-carrying response: its own message.
        link.acks_pending = 0;
        ++link.counters.messages;
    } else if (link.acks_pending++ % config_.frame_ops == 0) {
        // Cumulative ack window: one message per frame_ops acks.
        ++link.counters.messages;
    }
}

void
Fabric::count_retry(std::size_t node, std::uint64_t retries)
{
    FIDR_CHECK(node < links_.size());
    const std::lock_guard<std::mutex> lock(mutex_);
    links_[node].counters.retries += retries;
}

const LinkCounters &
Fabric::link(std::size_t node) const
{
    FIDR_CHECK(node < links_.size());
    return links_[node].counters;
}

double
Fabric::link_seconds(std::size_t node) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const LinkCounters &c = links_[node].counters;
    const double bytes = static_cast<double>(c.request_bytes) +
                         static_cast<double>(c.response_bytes);
    return bytes / config_.link_bandwidth +
           static_cast<double>(c.messages) *
               (static_cast<double>(config_.rpc_latency) / 1e9) +
           static_cast<double>(c.delay_ns) / 1e9;
}

std::uint64_t
Fabric::total_bytes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.request_bytes + l.counters.response_bytes;
    return total;
}

std::uint64_t
Fabric::total_messages() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.messages;
    return total;
}

std::uint64_t
Fabric::total_operations() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.operations;
    return total;
}

std::uint64_t
Fabric::total_drops() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.drops;
    return total;
}

std::uint64_t
Fabric::total_retries() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.retries;
    return total;
}

std::uint64_t
Fabric::total_send_errors() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.send_errors;
    return total;
}

std::uint64_t
Fabric::total_delay_spikes() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const LinkState &l : links_)
        total += l.counters.delay_spikes;
    return total;
}

}  // namespace fidr::cluster
