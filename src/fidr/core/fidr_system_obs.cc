#include "fidr/core/fidr_system.h"

#include "fidr/fault/failpoint.h"

namespace fidr::core {

obs::ObsSnapshot
FidrSystem::obs_snapshot() const
{
    obs::ObsSnapshot snap = metrics_.snapshot();

    // Flow counters: reduction accounting plus cache and tree state.
    snap.counters["write.chunks"] = stats_.chunks_written;
    snap.counters["write.unique_chunks"] = stats_.unique_chunks;
    snap.counters["write.duplicate_chunks"] = stats_.duplicates;
    snap.counters["write.raw_bytes"] = stats_.raw_bytes;
    snap.counters["write.stored_bytes"] = stats_.stored_bytes;
    snap.counters["read.chunks"] = stats_.chunks_read;
    snap.counters["read.nic_buffer_hits"] = stats_.nic_read_hits;
    snap.counters["journal.records"] = journal_records();

    // Degraded-mode and crash-repair accounting.
    snap.counters["fault.transient_retries"] =
        fault_stats_.transient_retries;
    snap.counters["fault.retry_exhausted"] = fault_stats_.retry_exhausted;
    snap.counters["fault.backoff_ns"] = fault_stats_.backoff_ns;
    snap.counters["write.dangling_repairs"] =
        fault_stats_.dangling_repairs;

    // Cluster protocol (zeros on a standalone system): where each
    // duplicate-suppressed write found its content, and ownership-move
    // unmaps that had to commit a buffered write first.
    snap.counters["cluster.refs_from_nic"] = cluster_stats_.refs_from_nic;
    snap.counters["cluster.refs_from_committed"] =
        cluster_stats_.refs_from_committed;
    snap.counters["cluster.unmap_commits"] = cluster_stats_.unmap_commits;
#if FIDR_FAULT_ENABLED
    // Per-site failpoint counters (quiet sites stay out of the report).
    const fault::FailpointRegistry &failpoints =
        fault::FailpointRegistry::instance();
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
        const auto site = static_cast<fault::Site>(s);
        const std::uint64_t hits = failpoints.hits(site);
        const std::uint64_t fires = failpoints.fires(site);
        if (hits == 0 && fires == 0)
            continue;
        const std::string prefix =
            std::string("fault.") + fault::site_name(site);
        snap.counters[prefix + ".hits"] = hits;
        snap.counters[prefix + ".fires"] = fires;
        if (failpoints.spike_ns(site) > 0)
            snap.counters[prefix + ".spike_ns"] = failpoints.spike_ns(site);
    }
#endif

    const cache::CacheStats cache = table_cache_->stats();
    snap.counters["cache.hits"] = cache.hits;
    snap.counters["cache.misses"] = cache.misses;
    snap.counters["cache.evictions"] = cache.evictions;
    snap.counters["cache.dirty_evictions"] = cache.dirty_evictions;
    snap.gauges["cache.hit_rate"] = cache.hit_rate();
    if (table_cache_->shard_count() > 1) {
        // Per-shard breakdown (Sec 5.5): imbalance shows up as skewed
        // hit/miss distributions across shards.
        for (std::size_t s = 0; s < table_cache_->shard_count(); ++s) {
            const cache::CacheStats shard = table_cache_->shard_stats(s);
            const std::string prefix =
                "cache.shard" + std::to_string(s);
            snap.counters[prefix + ".hits"] = shard.hits;
            snap.counters[prefix + ".misses"] = shard.misses;
            snap.counters[prefix + ".evictions"] = shard.evictions;
            snap.counters[prefix + ".dirty_evictions"] =
                shard.dirty_evictions;
        }
    }

    // Chunk read cache (zeros when disabled, so dashboards diffing a
    // cache-on run against cache-off see the keys either way).
    const cache::ChunkCacheStats read_cache =
        chunk_cache_ ? chunk_cache_->stats() : cache::ChunkCacheStats{};
    snap.counters["read.cache.hits"] = read_cache.hits;
    snap.counters["read.cache.misses"] = read_cache.misses;
    snap.counters["read.cache.insertions"] = read_cache.insertions;
    snap.counters["read.cache.evictions"] = read_cache.evictions;
    snap.counters["read.cache.invalidations"] = read_cache.invalidations;
    snap.counters["read.cache.rekeys"] = read_cache.rekeys;
    snap.counters["read.cache.bytes"] =
        chunk_cache_ ? chunk_cache_->used_bytes() : 0;
    snap.gauges["read.cache.hit_rate"] = read_cache.hit_rate();

    // Per-tier breakdown: where the hits came from, the
    // demotion/promotion flux between tiers, and the ghost-LRU signals
    // steering the hot/warm split.  Zeros with the cache off.
    snap.counters["read.cache.hot.hits"] = read_cache.hot.hits;
    snap.counters["read.cache.warm.hits"] = read_cache.warm.hits;
    snap.counters["read.cache.spill.hits"] = read_cache.spill.hits;
    snap.counters["read.cache.demotions"] = read_cache.demotions;
    snap.counters["read.cache.demote_passes"] =
        read_cache.demote_passes;
    snap.counters["read.cache.promotions"] = read_cache.promotions;
    snap.counters["read.cache.spill.writes"] = read_cache.spill_writes;
    snap.counters["read.cache.spill.write_failures"] =
        read_cache.spill_write_failures;
    snap.counters["read.cache.spill.overwritten"] =
        read_cache.spill_overwritten;
    snap.counters["read.cache.ghost.hot_hits"] =
        read_cache.ghost_hot_hits;
    snap.counters["read.cache.ghost.warm_hits"] =
        read_cache.ghost_warm_hits;
    snap.counters["read.cache.hot.bytes"] =
        chunk_cache_ ? chunk_cache_->hot_used_bytes() : 0;
    snap.counters["read.cache.warm.bytes"] =
        chunk_cache_ ? chunk_cache_->warm_used_bytes() : 0;
    snap.counters["read.cache.spill.bytes"] =
        chunk_cache_ ? chunk_cache_->spill_used_bytes() : 0;
    // Where the adaptive split currently sits, and the ghost-estimated
    // marginal gain per tier: the fraction of all probes a bigger
    // hot/warm tier would have upgraded (warm hit -> hot hit, miss ->
    // DRAM hit respectively).  These are the auto-sizing inputs.
    snap.gauges["read.cache.hot_target_fraction"] =
        chunk_cache_ && chunk_cache_->capacity_bytes() > 0
            ? static_cast<double>(chunk_cache_->hot_target_bytes()) /
                  static_cast<double>(chunk_cache_->capacity_bytes())
            : 0.0;
    const std::uint64_t probes = read_cache.hits + read_cache.misses;
    const auto share = [probes](std::uint64_t n) {
        return probes > 0 ? static_cast<double>(n) /
                                static_cast<double>(probes)
                          : 0.0;
    };
    snap.gauges["read.cache.ghost.hot_gain"] =
        share(read_cache.ghost_hot_hits);
    snap.gauges["read.cache.ghost.warm_gain"] =
        share(read_cache.ghost_warm_hits);
    if (chunk_cache_) {
        // Per-tier section: hit share of each tier plus the ghost
        // gains, rendered by `fidr_obs_report snapshot`.
        std::vector<obs::SnapshotRow> tiers;
        tiers.push_back({"hot hits (DRAM, decompressed)",
                         static_cast<double>(read_cache.hot.hits),
                         share(read_cache.hot.hits)});
        tiers.push_back({"warm hits (DRAM, compressed)",
                         static_cast<double>(read_cache.warm.hits),
                         share(read_cache.warm.hits)});
        tiers.push_back({"spill hits (SSD ring)",
                         static_cast<double>(read_cache.spill.hits),
                         share(read_cache.spill.hits)});
        tiers.push_back({"misses",
                         static_cast<double>(read_cache.misses),
                         share(read_cache.misses)});
        tiers.push_back({"ghost: marginal hot gain",
                         static_cast<double>(read_cache.ghost_hot_hits),
                         share(read_cache.ghost_hot_hits)});
        tiers.push_back({"ghost: marginal warm gain",
                         static_cast<double>(read_cache.ghost_warm_hits),
                         share(read_cache.ghost_warm_hits)});
        snap.sections["read_cache_tiers"] = std::move(tiers);
    }

    // Incremental GC and container-log durability accounting.
    snap.counters["gc.steps"] = gc_stats_.steps;
    snap.counters["gc.idle_steps"] = gc_stats_.idle_steps;
    snap.counters["gc.failed_steps"] = gc_stats_.failed_steps;
    snap.counters["gc.relocated_chunks"] = gc_stats_.relocated_chunks;
    snap.counters["gc.relocated_bytes"] = gc_stats_.relocated_bytes;
    snap.counters["gc.containers_reclaimed"] =
        gc_stats_.containers_reclaimed;
    snap.counters["gc.reclaimed_bytes"] = gc_stats_.reclaimed_bytes;
    snap.counters["gc.cache_rekeys"] = gc_stats_.cache_rekeys;
    snap.counters["gc.concurrent_steps"] = gc_stats_.concurrent_steps;
    // Relocation overhead relative to user payload: the write-amp GC
    // adds on top of the unique-chunk stores.
    snap.gauges["gc.write_amp"] =
        stats_.stored_bytes > 0
            ? static_cast<double>(gc_stats_.relocated_bytes) /
                  static_cast<double>(stats_.stored_bytes)
            : 0.0;
    const tables::ContainerLogStats &log_stats = containers_.stats();
    snap.counters["container.superblock_writes"] =
        log_stats.superblock_writes;
    snap.counters["container.superblock_write_failures"] =
        log_stats.superblock_write_failures;
    snap.counters["container.superblock_seq"] =
        containers_.superblock_seq();
    snap.counters["container.discards"] = log_stats.discards;
    snap.counters["container.headers_scanned"] =
        log_stats.headers_scanned;
    snap.counters["container.recovered"] = log_stats.containers_recovered;
    snap.counters["container.tail_adopted"] = log_stats.tail_adopted;
    snap.counters["container.used_slots"] = containers_.used_slots();
    snap.counters["container.total_slots"] = containers_.total_slots();
    snap.gauges["container.free_slot_fraction"] =
        containers_.free_slot_fraction();

    snap.gauges["write.dedup_rate"] = stats_.dedup_rate();
    snap.gauges["write.reduction_ratio"] =
        stats_.stored_bytes > 0
            ? static_cast<double>(stats_.raw_bytes) /
                  static_cast<double>(stats_.stored_bytes)
            : 0.0;

    if (!hw_shards_.empty()) {
        // Aggregate over the per-shard trees (one tree per cache shard
        // when cache_shards > 1, a single tree otherwise).
        hwtree::PipelineStats tree;
        for (const cache::HwTreeCacheIndex *hw : hw_shards_) {
            const hwtree::PipelineStats &s = hw->pipeline().stats();
            tree.searches += s.searches;
            tree.updates += s.updates;
            tree.crashes += s.crashes;
            tree.replays += s.replays;
        }
        snap.counters["tree.searches"] = tree.searches;
        snap.counters["tree.updates"] = tree.updates;
        snap.counters["tree.crashes"] = tree.crashes;
        snap.counters["tree.replays"] = tree.replays;
        snap.gauges["tree.crash_rate"] = tree.crash_rate();
    }

    const auto ledger_rows = [](const std::vector<sim::LedgerRow> &rows) {
        std::vector<obs::SnapshotRow> out;
        out.reserve(rows.size());
        for (const sim::LedgerRow &row : rows)
            out.push_back({row.tag, row.value, row.share});
        return out;
    };
    snap.sections["host_dram_bandwidth_bytes"] =
        ledger_rows(platform_.fabric().host_memory().report());
    snap.sections["cpu_core_seconds"] =
        ledger_rows(platform_.cpu().ledger().report());

    std::vector<obs::SnapshotRow> capacity;
    const host::HostMemory &memory = platform_.memory();
    for (const auto &[component, bytes] : memory.breakdown()) {
        capacity.push_back(
            {component, static_cast<double>(bytes),
             memory.used() > 0 ? static_cast<double>(bytes) /
                                     static_cast<double>(memory.used())
                               : 0.0});
    }
    snap.sections["host_dram_capacity_bytes"] = std::move(capacity);
    return snap;
}

}  // namespace fidr::core
