// fidr_perfbench: runs one workload for a fixed wall-clock budget and
// prints every metric by name with its unit; the last stdout line is a
// single JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   fidr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics from untraced trials.
// --trace 1 runs the same untraced trials, then one traced trial and
// the kernel replays, and reports the per-layer metrics; spans go to
// DIR/trace-<workload>-seed<N>.json.  Each run also writes its full
// result (host stamp, workload config, clock and sample count of every
// metric) to DIR/<workload>-seed<N>-trace<T>.json.

#include <cpuid.h>
#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "fidr/common/simd.h"
#include "fidr/compress/lz.h"
#include "fidr/hash/sha256.h"
#include "fidr/hash/sha256_mb.h"
#include "fidr/obs/json.h"
#include "stats.h"

using namespace fidr;
using namespace perfbench;

namespace {

/** Trials per run: at least this many, whatever the time budget. */
constexpr std::size_t kMinTrials = 3;
constexpr std::size_t kMaxTrials = 200;
/** Timed trials stop after this long even if a tail is still short, so
 *  a run ends well within three minutes. */
constexpr double kMaxTrialSeconds = 100.0;
constexpr double kWarmUpSeconds = 1.5;
/** Chunks replayed through the kernels, and seconds per kernel. */
constexpr std::size_t kReplayChunks = 4096;
constexpr double kReplaySeconds = 0.15;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string out_dir = ".bench_build/perfbench-results";
};

bool
parse(int argc, char **argv, Options &opt)
{
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value, &end, 10);
            have_seed = end != value && *end == '\0';
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value, &end);
            have_seconds = end != value && *end == '\0' && opt.seconds > 0;
        } else if (key == "--trace") {
            opt.trace = std::strcmp(value, "1") == 0;
        } else if (key == "--out-dir") {
            opt.out_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

/** A reported metric: value, unit, clock domain, sample count. */
struct Metric {
    std::string name;
    double value = 0;
    const char *unit = "";
    const char *clock = "wall";  ///< wall, model or count.
    std::size_t samples = 0;     ///< Trials or latency samples behind it.
};

/** Host identity; results from different hosts are not comparable. */
struct Host {
    unsigned nproc = std::thread::hardware_concurrency();
    std::string cpu;
    bool sha_ni = false;
    bool avx2 = false;
    bool avx512f = false;

    Host()
    {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) {
            avx2 = (b >> 5) & 1;
            avx512f = (b >> 16) & 1;
            sha_ni = (b >> 29) & 1;
        }
        char brand[49] = {};
        for (unsigned leaf = 0; leaf < 3; ++leaf) {
            unsigned regs[4] = {};
            if (!__get_cpuid(0x80000002 + leaf, &regs[0], &regs[1],
                             &regs[2], &regs[3]))
                break;
            std::memcpy(brand + 16 * leaf, regs, sizeof(regs));
        }
        cpu = brand;
        while (!cpu.empty() && cpu.back() == ' ')
            cpu.pop_back();
    }
};

double
peak_rss_mib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** Median over trials of a field or a function of one trial. */
template <typename Of>
double
median_over(const std::vector<TrialOutput> &trials, Of of)
{
    std::vector<double> values;
    for (const TrialOutput &t : trials)
        values.push_back(static_cast<double>(std::invoke(of, t)));
    return median(std::move(values));
}

/** Quantile `q` of `ns` in microseconds, or an error when unsupported. */
Metric
latency_us(const std::string &name, std::vector<std::uint64_t> &ns, double q,
           std::vector<std::string> &errors)
{
    const std::optional<std::uint64_t> v = percentile(ns, q);
    if (!v) {
        errors.push_back(name + ": only " + std::to_string(ns.size()) +
                         " samples");
    }
    return {name, v ? static_cast<double>(*v) / 1e3 : 0.0, "us", "wall",
            ns.size()};
}

std::vector<Metric>
end_to_end(const std::vector<TrialOutput> &trials, Samples &samples,
           std::vector<std::string> &errors)
{
    const std::size_t n = trials.size();
    const auto per_load_s = [](std::uint64_t TrialOutput::*amount,
                               double scale) {
        return [=](const TrialOutput &t) {
            return static_cast<double>(t.*amount) / t.load_s / scale;
        };
    };
    std::vector<Metric> m;
    m.push_back({"setup_s", median_over(trials, &TrialOutput::setup_s), "s",
                 "wall", n});
    m.push_back({"write_mb_per_s",
                 median_over(trials,
                             per_load_s(&TrialOutput::write_bytes, 1e6)),
                 "MB/s", "wall", n});
    m.push_back({"ops_per_s",
                 median_over(trials, per_load_s(&TrialOutput::ops, 1.0)),
                 "1/s", "wall", n});
    m.push_back(latency_us("write_p50_us", samples.write_ns, 0.5, errors));
    m.push_back(
        latency_us("read_batch_p50_us", samples.read_batch_ns, 0.5, errors));
    m.push_back({"stored_bytes_per_user_byte",
                 median_over(trials, &TrialOutput::stored_per_user), "B/B",
                 "count", n});
    m.push_back({"flash_bytes_per_user_byte",
                 median_over(trials, &TrialOutput::flash_per_user), "B/B",
                 "count", n});
    m.push_back({"model_gb_per_s",
                 median_over(trials, &TrialOutput::model_gb_per_s), "GB/s",
                 "model", n});
    m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", "count", 1});
    return m;
}

/** Unit and clock of each per-layer metric, in report order. */
struct LayerSpec {
    const char *name;
    const char *unit;
    const char *clock;
};

constexpr LayerSpec kLayers[] = {
    {"write_pipeline.execute_busy_frac", "ratio", "wall"},
    {"write_pipeline.idle_s", "s", "wall"},
    {"write_pipeline.overlap_s", "s", "wall"},
    {"write_pipeline.hash_busy_s", "s", "wall"},
    {"write_pipeline.submit_stall_s", "s", "wall"},
    {"write_pipeline.stalls", "count", "count"},
    {"write_pipeline.queue_depth_p95", "count", "count"},
    {"write.sequencer_stages_s", "s", "wall"},
    {"write.sequencer_other_s", "s", "wall"},
    {"write.sequencer_stage_frac", "ratio", "wall"},
    {"write.dedup_resolve_s", "s", "wall"},
    {"write.compress_s", "s", "wall"},
    {"write.container_append_s", "s", "wall"},
    {"write.journal_s", "s", "wall"},
    {"write.map_update_s", "s", "wall"},
    {"write.bucket_index_s", "s", "wall"},
    {"write.digest_xfer_s", "s", "wall"},
    {"write.verdict_xfer_s", "s", "wall"},
    {"write.hash_s", "s", "wall"},
    {"write.nic_buffer_s", "s", "wall"},
    {"table_cache.hit_rate", "ratio", "count"},
    {"table_cache.misses_per_write", "count", "count"},
    {"table_cache.dirty_evictions", "count", "count"},
    {"ssd.data_bytes_written_per_user_byte", "B/B", "count"},
    {"ssd.table_bytes_written_per_user_byte", "B/B", "count"},
    {"ssd.table_bytes_read_per_write", "B", "count"},
    {"read.resolve_s", "s", "wall"},
    {"read.fetch_s", "s", "wall"},
    {"read.decompress_s", "s", "wall"},
    {"read.return_s", "s", "wall"},
    {"read.ssd_fetches_per_slot", "count", "count"},
    {"write.ack_p999_us", "us", "wall"},
    {"read_batch.p99_us", "us", "wall"},
    {"read_batch.p999_us", "us", "wall"},
    {"chunk_cache.hit_rate", "ratio", "count"},
    {"chunk_cache.hot_hits", "count", "count"},
    {"chunk_cache.warm_hits", "count", "count"},
    {"chunk_cache.demote_passes", "count", "count"},
    {"chunk_cache.evictions", "count", "count"},
    {"chunk_cache.rekeys", "count", "count"},
    {"gc.steps", "count", "count"},
    {"gc.relocated_bytes_per_user_byte", "B/B", "count"},
    {"gc.pause_p99_us", "us", "wall"},
    {"gc.concurrent_steps", "count", "count"},
    {"container.free_slot_fraction", "ratio", "count"},
    {"journal.records", "count", "count"},
    {"recovery.replay_s", "s", "wall"},
    {"recovery.records", "count", "count"},
    {"hash.mb_mb_per_s", "MB/s", "wall"},
    {"hash.single_mb_per_s", "MB/s", "wall"},
    {"lz.compress_mb_per_s", "MB/s", "wall"},
    {"lz.decompress_mb_per_s", "MB/s", "wall"},
    {"lz.ratio", "B/B", "count"},
    {"router.write_s", "s", "wall"},
    {"router.self_s", "s", "wall"},
    {"router.suppressed_fraction", "ratio", "count"},
    {"fabric.wire_bytes_per_user_byte", "B/B", "count"},
    {"fabric.messages_per_write", "count", "count"},
    {"host.dram_bytes_per_user_byte", "B/B", "model"},
    {"host.cpu_core_s_per_gb", "s/GB", "model"},
    {"hwtree.crash_rate", "ratio", "model"},
    {"span.flush_s", "s", "wall"},
    {"span.read_batch_s", "s", "wall"},
    {"span.fsck_s", "s", "wall"},
    {"span.obs_snapshot_s", "s", "wall"},
    {"span.client_self_s", "s", "wall"},
    {"trace.overhead_frac", "ratio", "wall"},
};

/** Runs `fn` repeatedly for kReplaySeconds; returns MB/s of `bytes`. */
template <typename Fn>
double
replay_rate(Spans &spans, const char *name, double bytes, Fn fn)
{
    const std::uint64_t start = now_ns();
    std::uint64_t rounds = 0;
    do {
        const Spans::Scope span(spans, name);
        fn();
        ++rounds;
    } while (static_cast<double>(now_ns() - start) / 1e9 < kReplaySeconds);
    return bytes * static_cast<double>(rounds) /
           (static_cast<double>(now_ns() - start) / 1e9) / 1e6;
}

/**
 * The workload's own unique chunks through the hash and LZ kernels,
 * outside the system: kernel throughput next to end-to-end throughput.
 * Also cross-checks multi-buffer against single-message digests and
 * the LZ round trip.
 */
void
replay_kernels(const Workload &workload, Spans &spans,
               std::map<std::string, double> &layers,
               std::vector<std::string> &errors)
{
    std::vector<const Buffer *> chunks = workload.unique_chunks();
    if (chunks.size() > kReplayChunks)
        chunks.resize(kReplayChunks);
    std::vector<std::span<const std::uint8_t>> inputs;
    double bytes = 0;
    for (const Buffer *chunk : chunks) {
        inputs.emplace_back(*chunk);
        bytes += static_cast<double>(chunk->size());
    }
    std::vector<Digest> mb(inputs.size());
    std::vector<Digest> single(inputs.size());
    std::vector<Buffer> packed(inputs.size());

    layers["hash.mb_mb_per_s"] =
        replay_rate(spans, "kernel.sha256_mb", bytes,
                    [&] { sha256_mb_hash(inputs, mb.data()); });
    layers["hash.single_mb_per_s"] =
        replay_rate(spans, "kernel.sha256", bytes, [&] {
            for (std::size_t i = 0; i < inputs.size(); ++i)
                single[i] = Sha256::hash(inputs[i]);
        });
    layers["lz.compress_mb_per_s"] =
        replay_rate(spans, "kernel.lz_compress", bytes, [&] {
            for (std::size_t i = 0; i < inputs.size(); ++i)
                packed[i] = lz_compress(inputs[i], LzLevel::kFast);
        });
    bool round_trip = true;
    layers["lz.decompress_mb_per_s"] =
        replay_rate(spans, "kernel.lz_decompress", bytes, [&] {
            for (std::size_t i = 0; i < inputs.size(); ++i) {
                Result<Buffer> raw = lz_decompress(packed[i]);
                round_trip = round_trip && raw.is_ok() &&
                             raw.value() == *chunks[i];
            }
        });
    double packed_bytes = 0;
    for (const Buffer &p : packed)
        packed_bytes += static_cast<double>(p.size());
    layers["lz.ratio"] = packed_bytes / bytes;
    if (mb != single)
        errors.push_back("multi-buffer and single SHA-256 digests differ");
    if (!round_trip)
        errors.push_back("LZ round trip changed a chunk");
}

std::vector<Metric>
per_layer(const TrialOutput &traced, const Spans &spans,
          double untraced_trial_s)
{
    std::map<std::string, double> layers = traced.layers;
    const std::map<std::string, Spans::Totals> totals = spans.totals();
    const auto total = [&](const char *name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total_s;
    };
    layers["span.flush_s"] = total("flush");
    layers["span.read_batch_s"] = total("read_batch");
    layers["span.fsck_s"] = total("fsck");
    layers["span.obs_snapshot_s"] = total("obs_snapshot");
    const auto load = totals.find("load");
    layers["span.client_self_s"] =
        load == totals.end() ? 0.0 : load->second.self_s;
    layers["router.write_s"] = total("router.write");
    layers["router.self_s"] =
        total("router.write") > 0
            ? total("router.write") - layers["write.nic_buffer_s"]
            : 0.0;
    layers["trace.overhead_frac"] =
        (traced.trial_s - untraced_trial_s) / untraced_trial_s;

    std::vector<Metric> out;
    for (const LayerSpec &spec : kLayers) {
        const auto it = layers.find(spec.name);
        out.push_back({spec.name, it == layers.end() ? 0.0 : it->second,
                       spec.unit, spec.clock, 1});
    }
    return out;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
write_result_file(const std::string &path, const Options &opt,
                  const Host &host, const Workload &workload,
                  std::size_t trials, bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<std::string> &errors,
                  const std::vector<Metric> &metrics)
{
    std::string s = "{\"stamp\": {";
    s += "\"nproc\": " + std::to_string(host.nproc);
    s += ", \"cpu\": \"" + obs::JsonWriter::escape(host.cpu) + "\"";
    s += std::string(", \"sha_ni\": ") + (host.sha_ni ? "true" : "false");
    s += std::string(", \"avx2\": ") + (host.avx2 ? "true" : "false");
    s += std::string(", \"avx512f\": ") + (host.avx512f ? "true" : "false");
    s += std::string(", \"simd_dispatch\": \"") +
         simd::name(simd::active()) + "\"";
    s += ", \"sha256_mb_lanes\": " + std::to_string(sha256_mb_lanes());
    s += ", \"workload\": \"" + opt.workload + "\"";
    s += ", \"seed\": " + std::to_string(opt.seed);
    s += ", \"seconds\": " + number(opt.seconds);
    s += std::string(", \"trace\": ") + (opt.trace ? "1" : "0");
    s += ", \"config\": " + workload.config_json() + "}";
    s += ", \"trials\": " + std::to_string(trials);
    s += std::string(", \"correct\": ") + (correct ? "true" : "false");
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        s += (i ? ", \"" : "\"") + obs::JsonWriter::escape(errors[i]) + "\"";
    }
    s += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        s += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
             number(m.value) + ", \"unit\": \"" + m.unit +
             "\", \"clock\": \"" + m.clock +
             "\", \"samples\": " + std::to_string(m.samples) + "}";
    }
    s += "}}\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr || std::fputs(s.c_str(), f) < 0 ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--out-dir DIR]\n",
                     argv[0]);
        return 2;
    }
    const std::uint64_t inputs_start = now_ns();
    std::unique_ptr<Workload> workload = make_workload(opt.workload, opt.seed);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    const Host host;
    std::printf("workload %s seed %llu: inputs built in %.2f s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<double>(now_ns() - inputs_start) / 1e9);
    std::printf("host: %s, %u cpus, sha_ni %d, avx2 %d, avx512f %d, "
                "dispatch %s\n",
                host.cpu.c_str(), host.nproc, host.sha_ni, host.avx2,
                host.avx512f, simd::name(simd::active()));
    std::printf("config: %s\n", workload->config_json().c_str());

    std::vector<std::string> errors;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::uint64_t> fingerprint;
    const auto absorb = [&](const TrialOutput &t, const char *what) {
        attempted += t.attempted;
        failed += t.failed;
        for (const std::string &e : t.errors)
            errors.push_back(std::string(what) + ": " + e);
        if (fingerprint.empty())
            fingerprint = t.fingerprint;
        else if (t.fingerprint != fingerprint)
            errors.push_back(std::string(what) +
                             ": reduction counters differ from the "
                             "first trial of this seed");
    };

    // Warm-up: caches, allocator arenas and CPU clocks settle before any
    // timed trial.  An idle host runs its first second of work slowly,
    // so warm up for a fixed time, not a fixed number of trials.
    Spans untraced(false);
    const std::uint64_t warm_start = now_ns();
    do {
        absorb(workload->run_trial(untraced, nullptr), "warm-up");
        malloc_trim(0);
    } while (static_cast<double>(now_ns() - warm_start) / 1e9 < kWarmUpSeconds);

    // Timed trials: at least kMinTrials, for the time budget, and until
    // both latency tails are supported by ten samples beyond p99.9.
    Samples samples;
    std::vector<TrialOutput> trials;
    const std::uint64_t start = now_ns();
    const auto more = [&] {
        const double spent = static_cast<double>(now_ns() - start) / 1e9;
        if (trials.size() < kMinTrials)
            return true;
        if (trials.size() >= kMaxTrials || spent >= kMaxTrialSeconds)
            return false;
        return spent < opt.seconds ||
               !percentile_supported(samples.write_ns.size(), 0.999) ||
               !percentile_supported(samples.read_batch_ns.size(), 0.999);
    };
    while (more()) {
        trials.push_back(workload->run_trial(untraced, &samples));
        // Hand freed trial memory back so peak RSS is one trial's peak,
        // not an artefact of which allocator arena each thread used.
        malloc_trim(0);
        const TrialOutput &t = trials.back();
        absorb(t, "trial");
        std::printf("trial %zu: setup %.4f s, load %.4f s, %.1f MB/s, "
                    "%.0f ops/s, trial %.3f s\n",
                    trials.size(), t.setup_s, t.load_s,
                    static_cast<double>(t.write_bytes) / t.load_s / 1e6,
                    static_cast<double>(t.ops) / t.load_s, t.trial_s);
    }
    std::printf("%zu timed trials in %.2f s\n", trials.size(),
                static_cast<double>(now_ns() - start) / 1e9);

    std::filesystem::create_directories(opt.out_dir);
    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = end_to_end(trials, samples, errors);
    } else {
        Spans spans(true);
        TrialOutput traced = workload->run_trial(spans, nullptr);
        absorb(traced, "traced trial");
        replay_kernels(*workload, spans, traced.layers, errors);
        // Latency tails of the untraced trials.  Their p99 and p99.9 are
        // set by host scheduling delay as much as by the system (they
        // moved 1.3-2.7x between runs on a 4-vCPU VM), so they are
        // reported here, unbounded, rather than as end-to-end metrics.
        for (const auto &[name, ns, q] :
             {std::tuple{"write.ack_p999_us", &samples.write_ns, 0.999},
              std::tuple{"read_batch.p99_us", &samples.read_batch_ns, 0.99},
              std::tuple{"read_batch.p999_us", &samples.read_batch_ns,
                         0.999}}) {
            traced.layers[name] = latency_us(name, *ns, q, errors).value;
        }
        metrics = per_layer(traced, spans,
                            median_over(trials, &TrialOutput::trial_s));
        const std::string trace_path = opt.out_dir + "/trace-" +
                                       opt.workload + "-seed" +
                                       std::to_string(opt.seed) + ".json";
        if (!spans.write_chrome_trace(trace_path))
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
    const bool correct = errors.empty();

    std::printf("%-40s %16s %-6s %-6s %s\n", "metric", "value", "unit",
                "clock", "samples");
    for (const Metric &m : metrics) {
        std::printf("%-40s %16.6g %-6s %-6s %zu\n", m.name.c_str(), m.value,
                    m.unit, m.clock, m.samples);
    }
    std::printf("failed_op_fraction %.6g (%llu of %llu)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const std::string &e : errors)
        std::printf("ERROR %s\n", e.c_str());

    write_result_file(opt.out_dir + "/" + opt.workload + "-seed" +
                          std::to_string(opt.seed) + "-trace" +
                          (opt.trace ? "1" : "0") + ".json",
                      opt, host, *workload, trials.size(), correct,
                      attempted, failed, errors, metrics);

    std::string line = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += (i ? ", \"" : "\"") + metrics[i].name +
                "\": {\"value\": " + number(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
