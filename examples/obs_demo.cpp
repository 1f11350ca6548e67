// End-to-end tour of the fidr/obs subsystem: runs a dedup-heavy
// write/read mix through FidrSystem with tracing enabled, then emits
// the observability artifacts:
//
//   obs_snapshot.json  unified metric snapshot (per-stage latency
//                      histograms with tail exemplars, flow counters,
//                      ledger sections); view with
//                      `fidr_obs_report snapshot`.
//   obs_trace.json     Chrome trace-event JSON -- open directly in
//                      Perfetto (ui.perfetto.dev) or chrome://tracing.
//                      Request-tagged spans carry flow arrows, so one
//                      write batch renders as a connected tree from
//                      submit through the hash workers to commit.
//   obs_trace.bin      compact binary dump; convert or inspect with
//                      `fidr_obs_report trace|timeline|attribute`.
//   obs_windows.json   windowed rate view: the cumulative snapshot
//                      stream diffed into fixed intervals (slo.h).
//   obs_slo.json       burn-rate SLO evaluation over those windows.
//
// Built with -DFIDR_TRACE=OFF the same program still runs and still
// produces the snapshot and window/SLO artifacts (histograms are
// always live); the trace files are simply empty, and the demo prints
// the record count to prove it.

#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "fidr/core/fidr_system.h"
#include "fidr/obs/slo.h"
#include "fidr/obs/trace.h"

using namespace fidr;

namespace {

/** 4 KB chunk whose content is determined by `seed`. */
Buffer
make_chunk(std::uint64_t seed)
{
    Buffer data(kChunkSize);
    for (std::size_t i = 0; i < data.size(); i += 8) {
        const std::uint64_t v = seed * 0x9E3779B97F4A7C15ull + i;
        std::memcpy(&data[i], &v, 8);
    }
    return data;
}

void
write_file(const char *path, const std::string &body)
{
    std::FILE *f = std::fopen(path, "w");
    FIDR_CHECK(f != nullptr);
    std::fputs(body.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
}

}  // namespace

int
main()
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();

    core::FidrConfig config;
    config.nic.hash_lanes = 2;  // Lane spans on worker trace rings.
    config.compress_lanes = 2;
    config.journal_metadata = true;
    // Two-tier read cache sized below the read working set, with a
    // spill ring behind it, so the snapshot's read_cache_tiers section
    // shows real traffic in every tier.
    config.chunk_cache_bytes = 512 * 1024;
    config.chunk_cache_spill_bytes = 2ull * 1024 * 1024;
    core::FidrSystem system(config);
    system.set_stream_tag(7);  // Tag this workload's requests.

    // The windowed view: snapshot the cumulative metrics after each
    // phase on a synthetic 1 ms timeline, so each phase lands in its
    // own window and the SLO evaluator sees rates, not totals.
    obs::WindowedAggregator aggregator(/*window_count=*/8,
                                       /*interval_ns=*/1'000'000);
    std::uint64_t clock_ns = 0;
    aggregator.observe(system.obs_snapshot(), clock_ns);  // Baseline.

    // Dedup-heavy write phase: every seed repeats four times across
    // distinct LBAs, so ~75% of chunks are duplicates.
    constexpr int kWrites = 2048;
    for (int i = 0; i < kWrites; ++i) {
        const Status written = system.write(
            static_cast<Lba>(i), make_chunk(static_cast<std::uint64_t>(
                                     i % (kWrites / 4))));
        FIDR_CHECK(written.is_ok());
    }
    FIDR_CHECK(system.flush().is_ok());
    clock_ns += 1'000'000;
    aggregator.observe(system.obs_snapshot(), clock_ns);

    // Read phase after the flush so reads traverse the full Fig 6b
    // path (SSD -> Decompression Engine -> NIC) instead of the NIC
    // write buffer.  Batched: one pipeline barrier and one coalescing
    // pass per 256 LBAs.
    std::vector<Lba> lbas;
    for (int i = 0; i < 256; ++i)
        lbas.push_back(static_cast<Lba>(i * 7));
    const std::vector<Result<Buffer>> results =
        system.read_batch(std::span<const Lba>(lbas));
    for (const Result<Buffer> &data : results)
        FIDR_CHECK(data.is_ok());
    clock_ns += 1'000'000;
    aggregator.observe(system.obs_snapshot(), clock_ns);

    // Re-read pass: the working set overflows the 512 KiB DRAM budget,
    // so repeats hit the warm/spill tiers and the tier section in the
    // snapshot carries real counts.
    for (const Result<Buffer> &data :
         system.read_batch(std::span<const Lba>(lbas)))
        FIDR_CHECK(data.is_ok());
    clock_ns += 1'000'000;
    aggregator.observe(system.obs_snapshot(), clock_ns);

    const obs::ObsSnapshot snap = system.obs_snapshot();
    FIDR_CHECK(snap.counters.at("read.cache.hits") > 0);
    FIDR_CHECK(snap.sections.count("read_cache_tiers") == 1);
    std::size_t write_stages = 0;
    for (const auto &[name, h] : snap.histograms) {
        if (name.rfind("write.", 0) == 0 && h.count > 0)
            ++write_stages;
    }
    // The acceptance bar for the snapshot: every Fig 6a stage shows
    // real samples.
    FIDR_CHECK(write_stages >= 8);

    // SLO pass over the closed windows: latency objectives on the
    // end-to-end read path and a stall-rate objective on the write
    // pipeline.  Deliberately one loose and one tight latency target
    // so the report shows both verdicts.
    obs::SloEvaluator evaluator;
    {
        obs::SloTarget read_latency;
        // Wide headroom: a batched read of 256 LBAs takes ~1 ms on an
        // idle 1-core container but several ms under load, and the p99
        // of 8 batches is just the max — 50 ms keeps this target "ok"
        // regardless of host noise.
        read_latency.name = "read-p99-under-50ms";
        read_latency.histogram = "read.total";
        read_latency.quantile = 0.99;
        read_latency.latency_ns = 50'000'000;
        read_latency.eval_windows = 2;
        evaluator.add_target(read_latency);

        obs::SloTarget read_tight;
        read_tight.name = "read-p50-under-1us";
        read_tight.histogram = "read.total";
        read_tight.quantile = 0.50;
        read_tight.latency_ns = 1'000;
        read_tight.eval_windows = 2;
        evaluator.add_target(read_tight);

        obs::SloTarget stalls;
        stalls.name = "pipeline-stall-rate";
        stalls.error_counter = "pipeline.stalls";
        stalls.total_counter = "pipeline.batches";
        stalls.max_error_rate = 0.75;
        stalls.eval_windows = 2;
        evaluator.add_target(stalls);
    }
    const std::vector<obs::SloResult> slo =
        evaluator.evaluate(aggregator);

    write_file("obs_snapshot.json", snap.to_json());
    write_file("obs_trace.json", tracer.export_chrome_json());
    FIDR_CHECK(tracer.dump_binary("obs_trace.bin").is_ok());
    write_file("obs_windows.json", aggregator.to_json());
    write_file("obs_slo.json", obs::SloEvaluator::report_json(slo));

    std::fputs(snap.pretty().c_str(), stdout);
    std::printf("\nslo targets:\n");
    for (const obs::SloResult &r : slo)
        std::printf("  %-24s %s  (latency_burn=%.2f error_burn=%.2f "
                    "over %zu windows)\n",
                    r.name.c_str(), r.breached ? "BREACH" : "ok",
                    r.latency_burn, r.error_burn, r.windows_evaluated);
    std::printf("\ntrace: %llu records across %zu thread rings "
                "(%s build)\n",
                static_cast<unsigned long long>(tracer.total_held()),
                tracer.ring_count(),
                FIDR_TRACE_ENABLED ? "FIDR_TRACE=ON" : "FIDR_TRACE=OFF");
    std::printf("wrote obs_snapshot.json, obs_trace.json, "
                "obs_trace.bin, obs_windows.json, obs_slo.json\n");
    std::printf("next: fidr_obs_report snapshot obs_snapshot.json\n"
                "      fidr_obs_report timeline obs_trace.bin\n"
                "      fidr_obs_report attribute obs_trace.bin "
                "--top 3\n"
                "      open obs_trace.json in ui.perfetto.dev\n");
    return 0;
}
