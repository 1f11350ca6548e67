#include "fidr/core/pipeline_sim.h"

#include <algorithm>

#include "fidr/common/rng.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/sim/queueing.h"

namespace fidr::core {

const char *
PipelineSimResult::bottleneck() const
{
    const struct {
        const char *name;
        double utilization;
    } stages[] = {
        {"NIC SHA array", sha_utilization},
        {"host CPU", host_utilization},
        {"Cache HW-Engine", tree_utilization},
        {"Compression Engines", comp_utilization},
        {"data SSDs", ssd_utilization},
        {"table SSDs", table_ssd_utilization},
        {"Decompression Engines", decomp_utilization},
    };
    const char *best = stages[0].name;
    double most = stages[0].utilization;
    for (const auto &stage : stages) {
        if (stage.utilization > most) {
            most = stage.utilization;
            best = stage.name;
        }
    }
    return best;
}

PipelineSimResult
simulate_write_pipeline(const PipelineSimConfig &config,
                        std::uint64_t chunks, std::uint64_t seed)
{
    FIDR_CHECK(chunks > 0);
    Rng rng(seed);

    sim::MultiServerQueue sha(config.sha_cores);
    sim::MultiServerQueue host(config.host_cores);
    // One engine: each chunk occupies the pipeline for its search
    // cycles plus, on a miss, two lane-amortized update slots (the
    // calibrated Fig 13 model).
    sim::MultiServerQueue tree(1);
    sim::MultiServerQueue comp(config.comp_engines);
    sim::MultiServerQueue ssd(config.data_ssds);
    sim::MultiServerQueue table_ssd(config.table_ssds);
    sim::MultiServerQueue decomp(config.decomp_engines);

    const auto ns_of = [](double seconds) {
        return static_cast<SimTime>(seconds * 1e9);
    };
    const SimTime sha_service =
        ns_of(kChunkSize / config.sha_core_rate);
    const SimTime host_service =
        ns_of(config.host_us_per_chunk * 1e-6);
    const SimTime search_service =
        ns_of(calib::kHwTreeSearchCycles / config.tree_clock_hz);
    const SimTime update_service = ns_of(
        calib::kHwTreeUpdateCyclesPerLevel * config.tree_levels /
        (config.tree_clock_hz *
         static_cast<double>(config.tree_update_lanes)));
    const SimTime comp_service =
        ns_of(kChunkSize / config.comp_engine_rate);
    const SimTime ssd_service = ns_of(
        kChunkSize * (1.0 - config.comp_ratio) / config.ssd_write_rate);
    const SimTime table_fetch_service =
        ns_of(kBucketSize / config.table_ssd_rate);
    const SimTime read_host_service =
        ns_of(config.read_us_per_chunk * 1e-6);
    const SimTime ssd_read_service = ns_of(
        kChunkSize * (1.0 - config.comp_ratio) / config.ssd_read_rate);
    const SimTime decomp_service =
        ns_of(kChunkSize / config.decomp_engine_rate);

    SimTime makespan = 0;
    for (std::uint64_t i = 0; i < chunks; ++i) {
        // Open-loop offered load: everything is available at t=0; the
        // pipeline's own service rates pace the stream.
        if (rng.next_bool(config.read_fraction)) {
            // Read path: host LBA-PBA + NVMe stack, data SSD read of
            // the compressed chunk, decompression, NIC egress (P2P).
            SimTime t = host.serve(0, read_host_service);
            t = ssd.serve(t, ssd_read_service);
            t = decomp.serve(t, decomp_service);
            makespan = std::max(makespan, t);
            continue;
        }
        SimTime t = sha.serve(0, sha_service);
        t = host.serve(t, host_service);
        SimTime tree_service = search_service;
        if (rng.next_bool(config.miss_rate)) {
            // Miss: fetch the bucket from a table SSD, then insert it
            // and delete the victim in the tree.
            t = table_ssd.serve(t, table_fetch_service);
            tree_service += 2 * update_service;
        }
        t = tree.serve(t, tree_service);
        if (rng.next_bool(1.0 - config.dedup_ratio)) {
            // Unique chunk: compress and (in its container) hit flash.
            t = comp.serve(t, comp_service);
            t = ssd.serve(t, ssd_service);
        }
        makespan = std::max(makespan, t);
    }

    PipelineSimResult out;
    out.seconds = static_cast<double>(makespan) * 1e-9;
    out.throughput =
        static_cast<double>(chunks) * kChunkSize / out.seconds;
    out.sha_utilization = sha.utilization(out.seconds);
    out.host_utilization = host.utilization(out.seconds);
    out.tree_utilization = tree.utilization(out.seconds);
    out.comp_utilization = comp.utilization(out.seconds);
    out.ssd_utilization = ssd.utilization(out.seconds);
    out.table_ssd_utilization = table_ssd.utilization(out.seconds);
    out.decomp_utilization = decomp.utilization(out.seconds);
    return out;
}

}  // namespace fidr::core
