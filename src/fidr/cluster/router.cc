#include "fidr/cluster/router.h"

#include <algorithm>

#include "fidr/fault/retry.h"
#include "fidr/hash/sha256.h"

namespace fidr::cluster {
namespace {

/** splitmix64 finalizer: LBA stripe mixing (sequential LBAs spread). */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace

const char *
routing_name(Routing routing)
{
    switch (routing) {
      case Routing::kLbaHash: return "lba-hash";
      case Routing::kFingerprint: return "fingerprint";
    }
    return "unknown";
}

ClusterRouter::ClusterRouter(const ClusterConfig &config,
                             const core::FidrConfig &node_config)
    : config_(config), fabric_(config.nodes, config.fabric)
{
    FIDR_CHECK(config_.nodes > 0);
    nodes_.reserve(config_.nodes);
    for (std::size_t i = 0; i < config_.nodes; ++i) {
        nodes_.push_back(std::make_unique<ClusterNode>(
            static_cast<std::uint32_t>(i), node_config));
    }
}

std::size_t
ClusterRouter::lba_owner(Lba lba) const
{
    return static_cast<std::size_t>(mix64(lba) % nodes_.size());
}

std::size_t
ClusterRouter::digest_owner(const Digest &digest) const
{
    // Hash-prefix ownership (paper Sec 8 scale-out + HPDedup-style
    // fingerprint partitioning): the digest's leading 64 bits name
    // exactly one owner, so identical content always co-locates.
    return static_cast<std::size_t>(digest.prefix64() % nodes_.size());
}

std::optional<ClusterRouter::Placement>
ClusterRouter::placement(Lba lba) const
{
    if (config_.routing == Routing::kLbaHash)
        return Placement{lba_owner(lba), 0};
    const std::lock_guard<std::mutex> lock(directory_mutex_);
    const auto it = directory_.find(lba);
    if (it == directory_.end())
        return std::nullopt;
    return Placement{it->second.node, it->second.moves};
}

std::optional<std::size_t>
ClusterRouter::read_owner(Lba lba) const
{
    const auto placed = placement(lba);
    if (!placed)
        return std::nullopt;
    return placed->node;
}

Status
ClusterRouter::send_with_retry(std::size_t node, Rpc rpc,
                               std::uint64_t payload_bytes)
{
    // A dropped frame re-sends (and re-bills: the lost copy did cross
    // the wire).  Non-transient errors surface immediately.
    fault::RetryTally tally;
    const Status status =
        fault::retry_counted(config_.transient_retries, tally, [&] {
            return fabric_.send(node, rpc, payload_bytes);
        });
    if (tally.retries > 0)
        fabric_.count_retry(node, tally.retries);
    return status;
}

bool
ClusterRouter::suppression_lookup(const Digest &digest)
{
    const std::lock_guard<std::mutex> lock(suppression_mutex_);
    return suppression_.count(digest.prefix64()) > 0;
}

void
ClusterRouter::suppression_insert(const Digest &digest)
{
    if (config_.suppression_entries == 0)
        return;
    const std::uint64_t key = digest.prefix64();
    const std::lock_guard<std::mutex> lock(suppression_mutex_);
    if (!suppression_.insert(key).second)
        return;
    if (suppression_fifo_.size() < config_.suppression_entries) {
        suppression_fifo_.push_back(key);
        return;
    }
    // Bounded memory: FIFO-displace the oldest remembered digest.
    std::uint64_t &slot = suppression_fifo_[suppression_next_];
    suppression_.erase(slot);
    slot = key;
    suppression_next_ =
        (suppression_next_ + 1) % config_.suppression_entries;
}

Status
ClusterRouter::publish_owner(Lba lba, std::size_t owner)
{
    std::optional<std::size_t> prev;
    {
        const std::lock_guard<std::mutex> lock(directory_mutex_);
        const auto [it, inserted] =
            directory_.try_emplace(lba, Placement{owner, 0});
        if (!inserted && it->second.node != owner) {
            prev = it->second.node;
            it->second.node = owner;
            ++it->second.moves;
        }
    }
    if (!prev)
        return Status::ok();
    // The new owner already holds the write and readers are pointed at
    // it, so dropping the old mapping now never leaves a window in
    // which no node serves the LBA: a reader that still reached the
    // old owner gets NOT_FOUND and retries on the new one.
    const Status sent = send_with_retry(*prev, Rpc::kUnmap, 0);
    if (!sent.is_ok())
        return sent;
    Status unmapped;
    {
        const std::lock_guard<std::mutex> node_lock(
            nodes_[*prev]->serial_lock());
        unmapped = nodes_[*prev]->system().unmap(lba);
    }
    fabric_.respond(*prev, 0);
    if (!unmapped.is_ok())
        return unmapped;
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.unmaps_sent;
    return Status::ok();
}

Status
ClusterRouter::forward_write(std::size_t owner, Lba lba, Buffer data,
                             const Digest *digest)
{
    const Status sent =
        send_with_retry(owner, Rpc::kWrite, data.size());
    if (!sent.is_ok())
        return sent;
    Status written;
    {
        const std::lock_guard<std::mutex> node_lock(
            nodes_[owner]->serial_lock());
        core::FidrSystem &system = nodes_[owner]->system();
        written = digest != nullptr
                      ? system.write(lba, std::move(data), *digest)
                      : system.write(lba, std::move(data));
    }
    fabric_.respond(owner, 0);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.writes_forwarded;
    return written;
}

Status
ClusterRouter::write_to_owner(std::size_t owner, Lba lba, Buffer data,
                              const Digest &digest)
{
    if (config_.suppression_entries > 0 && suppression_lookup(digest)) {
        // Remote duplicate suppression: the owner has (very likely)
        // this content buffered or stored already — ship the 48-byte
        // digest reference instead of the 4 KiB payload.
        const Status sent = send_with_retry(owner, Rpc::kWriteRef, 0);
        if (!sent.is_ok())
            return sent;
        Status applied;
        {
            const std::lock_guard<std::mutex> node_lock(
                nodes_[owner]->serial_lock());
            applied = nodes_[owner]->system().write_ref(lba, digest);
        }
        fabric_.respond(owner, 0);
        if (applied.is_ok()) {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.writes_suppressed;
            return applied;
        }
        if (applied.code() != StatusCode::kNotFound)
            return applied;
        // Neither buffered nor committed there after all (overwritten
        // before it committed, reclaimed, or a prefix collision in the
        // suppression memory): the full write repairs.
        {
            const std::lock_guard<std::mutex> lock(stats_mutex_);
            ++stats_.suppression_misses;
        }
    }

    const Status written =
        forward_write(owner, lba, std::move(data), &digest);
    if (written.is_ok())
        suppression_insert(digest);
    return written;
}

Status
ClusterRouter::write(Lba lba, Buffer data)
{
    if (config_.routing == Routing::kLbaHash)
        return forward_write(lba_owner(lba), lba, std::move(data), nullptr);
    if (nodes_.size() == 1) {
        // One node owns every digest and suppression needs two, so the
        // fingerprint would go unused: skip hashing it.
        const Status written =
            forward_write(0, lba, std::move(data), nullptr);
        if (!written.is_ok())
            return written;
        return publish_owner(lba, 0);
    }

    // An ownership move writes the new owner first, then points the
    // directory at it, then unmaps the old owner: a concurrent reader
    // always finds the old or the new bytes, and once write() returns
    // exactly one node maps the LBA.  Writes of one LBA take its
    // stripe lock, so two moves of it never interleave.
    const std::lock_guard<std::mutex> lba_lock(
        lba_locks_[mix64(lba) % lba_locks_.size()]);
    const Digest digest = Sha256::hash(data);
    const std::size_t owner = digest_owner(digest);
    const Status written =
        write_to_owner(owner, lba, std::move(data), digest);
    if (!written.is_ok())
        return written;
    return publish_owner(lba, owner);
}

Result<Buffer>
ClusterRouter::read_on(std::size_t node, Lba lba)
{
    const Status sent = send_with_retry(node, Rpc::kRead, 0);
    if (!sent.is_ok())
        return sent;
    Result<Buffer> result = [&] {
        const std::lock_guard<std::mutex> node_lock(
            nodes_[node]->serial_lock());
        return nodes_[node]->system().read(lba);
    }();
    fabric_.respond(node, result.is_ok() ? result.value().size() : 0);
    return result;
}

void
ClusterRouter::retry_moved(Lba lba, Placement asked, Result<Buffer> &result)
{
    // NOT_FOUND from the node the directory named: an overwrite may
    // have moved the LBA and unmapped it there after the lookup.  A
    // move publishes the new owner before it unmaps the old one, so a
    // directory entry that moved since names a node holding the LBA —
    // unless it moved again meanwhile, so retry once per move seen.
    while (!result.is_ok() &&
           result.status().code() == StatusCode::kNotFound) {
        const auto now = placement(lba);
        if (!now || now->moves == asked.moves)
            return;
        asked = *now;
        result = read_on(asked.node, lba);
    }
}

Result<Buffer>
ClusterRouter::read(Lba lba)
{
    const auto placed = placement(lba);
    if (!placed)
        return Status::not_found("LBA never written");
    Result<Buffer> result = read_on(placed->node, lba);
    retry_moved(lba, *placed, result);
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.reads_forwarded;
    return result;
}

std::vector<Result<Buffer>>
ClusterRouter::read_batch(std::span<const Lba> lbas)
{
    const std::size_t n = lbas.size();
    std::vector<Result<Buffer>> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        results.emplace_back(Status::internal("unresolved cluster read"));

    // Partition by owner.  Never-written LBAs fail their slot here.
    std::vector<std::vector<std::size_t>> groups(nodes_.size());
    std::vector<Placement> placed(n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto owner = placement(lbas[i]);
        if (!owner) {
            results[i] = Status::not_found("LBA never written");
            continue;
        }
        placed[i] = *owner;
        groups[owner->node].push_back(i);
    }

    // Serial request billing in node-index order (determinism
    // contract); a persistently dropped sub-batch fails its slots and
    // skips that node's fan-out.
    std::vector<char> send_ok(nodes_.size(), 1);
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
        for (std::size_t k = 0; k < groups[node].size(); ++k) {
            const Status sent = send_with_retry(node, Rpc::kRead, 0);
            if (!sent.is_ok()) {
                for (const std::size_t idx : groups[node])
                    results[idx] = sent;
                send_ok[node] = 0;
                break;
            }
        }
    }

    // Per-node execution on the calling thread, one node after the
    // other, each under its node's serial lock.  A thread per node per
    // call cost more than the overlap saved on the 16-slot batches
    // clients send (DESIGN.md §17).
    std::vector<std::vector<Result<Buffer>>> sub(nodes_.size());
    std::vector<std::size_t> involved;
    for (std::size_t node = 0; node < nodes_.size(); ++node) {
        if (!send_ok[node] || groups[node].empty())
            continue;
        involved.push_back(node);
        std::vector<Lba> node_lbas;
        node_lbas.reserve(groups[node].size());
        for (const std::size_t idx : groups[node])
            node_lbas.push_back(lbas[idx]);
        const std::lock_guard<std::mutex> node_lock(
            nodes_[node]->serial_lock());
        sub[node] = nodes_[node]->system().read_batch(node_lbas);
    }

    // Serial response billing + scatter, again in node-index order so
    // fabric totals are run-to-run identical.  A slot that raced an
    // ownership move retries on the new owner.
    for (const std::size_t node : involved) {
        for (std::size_t k = 0; k < groups[node].size(); ++k) {
            Result<Buffer> &r = sub[node][k];
            fabric_.respond(node, r.is_ok() ? r.value().size() : 0);
            const std::size_t idx = groups[node][k];
            results[idx] = std::move(r);
            retry_moved(lbas[idx], placed[idx], results[idx]);
        }
    }
    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.reads_forwarded += n;
    }
    return results;
}

Status
ClusterRouter::flush()
{
    Status first = Status::ok();
    for (const auto &node : nodes_) {
        const std::lock_guard<std::mutex> node_lock(node->serial_lock());
        const Status flushed = node->system().flush();
        if (!flushed.is_ok() && first.is_ok())
            first = flushed;
    }
    return first;
}

const core::ReductionStats &
ClusterRouter::reduction() const
{
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    core::ReductionStats merged;
    for (const auto &node : nodes_) {
        const core::ReductionStats &s = node->system().reduction();
        merged.chunks_written += s.chunks_written;
        merged.chunks_read += s.chunks_read;
        merged.duplicates += s.duplicates;
        merged.unique_chunks += s.unique_chunks;
        merged.raw_bytes += s.raw_bytes;
        merged.stored_bytes += s.stored_bytes;
        merged.nic_read_hits += s.nic_read_hits;
    }
    merged_ = merged;
    return merged_;
}

Status
ClusterRouter::run_gc(double min_dead_fraction)
{
    for (const auto &node : nodes_) {
        const std::lock_guard<std::mutex> node_lock(node->serial_lock());
        const Result<std::uint64_t> reclaimed =
            node->system().run_gc(min_dead_fraction);
        if (!reclaimed.is_ok())
            return reclaimed.status();
    }
    return Status::ok();
}

Status
ClusterRouter::validate()
{
    for (const auto &node : nodes_) {
        const std::lock_guard<std::mutex> node_lock(node->serial_lock());
        const Status valid = node->system().validate();
        if (!valid.is_ok())
            return valid;
    }
    return Status::ok();
}

obs::ObsSnapshot
ClusterRouter::obs_snapshot()
{
    obs::ObsSnapshot snap;
    for (const auto &node : nodes_) {
        obs::ObsSnapshot s = [&] {
            const std::lock_guard<std::mutex> node_lock(
                node->serial_lock());
            return node->system().obs_snapshot();
        }();
        const std::string prefix = node->name() + ".";
        // Node dimension: per-node values keep their identity under a
        // "nodeI." prefix; counters additionally fold into the plain
        // cluster-wide name, so existing dashboards keep working.
        for (const auto &[key, value] : s.counters) {
            snap.counters[prefix + key] = value;
            snap.counters[key] += value;
        }
        for (const auto &[key, value] : s.gauges)
            snap.gauges[prefix + key] = value;
        for (auto &[key, value] : s.histograms)
            snap.histograms[prefix + key] = std::move(value);
        for (auto &[key, value] : s.sections)
            snap.sections[prefix + key] = std::move(value);
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const LinkCounters &link = fabric_.link(i);
        const std::string prefix = "net." + nodes_[i]->name() + ".";
        snap.counters[prefix + "request_bytes"] = link.request_bytes;
        snap.counters[prefix + "response_bytes"] = link.response_bytes;
        snap.counters[prefix + "messages"] = link.messages;
        snap.counters[prefix + "operations"] = link.operations;
        snap.counters[prefix + "drops"] = link.drops;
        snap.counters[prefix + "retries"] = link.retries;
        snap.counters[prefix + "send_errors"] = link.send_errors;
        snap.counters[prefix + "delay_spikes"] = link.delay_spikes;
        snap.gauges[prefix + "link_seconds"] = fabric_.link_seconds(i);
    }
    snap.counters["net.bytes"] = fabric_.total_bytes();
    snap.counters["net.messages"] = fabric_.total_messages();
    snap.counters["net.operations"] = fabric_.total_operations();
    snap.counters["net.drops"] = fabric_.total_drops();
    snap.counters["net.retries"] = fabric_.total_retries();
    snap.counters["net.send_errors"] = fabric_.total_send_errors();
    snap.counters["net.delay_spikes"] = fabric_.total_delay_spikes();

    {
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        snap.counters["cluster.writes_forwarded"] =
            stats_.writes_forwarded;
        snap.counters["cluster.writes_suppressed"] =
            stats_.writes_suppressed;
        snap.counters["cluster.suppression_misses"] =
            stats_.suppression_misses;
        snap.counters["cluster.reads_forwarded"] = stats_.reads_forwarded;
        snap.counters["cluster.unmaps_sent"] = stats_.unmaps_sent;
    }
    snap.gauges["cluster.nodes"] = static_cast<double>(nodes_.size());
    snap.gauges["cluster.dedup_rate"] = reduction().dedup_rate();
    return snap;
}

ClusterProjection
ClusterRouter::project(Bandwidth target) const
{
    ClusterProjection out;
    out.nodes.reserve(nodes_.size());
    double makespan = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        ClusterProjection::Node entry;
        entry.link_seconds = fabric_.link_seconds(i);
        const core::ReductionStats &s = nodes_[i]->system().reduction();
        if (s.chunks_written + s.chunks_read > 0) {
            entry.projection = core::project(nodes_[i]->system(), target);
            const Bandwidth throughput = entry.projection.throughput();
            if (throughput > 0)
                entry.seconds =
                    entry.projection.client_bytes / throughput;
        }
        makespan = std::max(makespan,
                            std::max(entry.seconds, entry.link_seconds));
        out.total_client_bytes += entry.projection.client_bytes;
        out.total_chunks_written += s.chunks_written;
        out.nodes.push_back(entry);
    }
    out.cluster_seconds = makespan;
    if (makespan > 0) {
        out.aggregate_bytes_per_s = out.total_client_bytes / makespan;
        out.aggregate_writes_per_s =
            static_cast<double>(out.total_chunks_written) / makespan;
    }
    return out;
}

}  // namespace fidr::cluster
