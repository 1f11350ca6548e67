/**
 * @file
 * Shared driver for the experiment-reproduction benches: builds the
 * evaluation platform (Sec 7.1), streams a workload through a system,
 * and collects the ledgers/projections every figure is printed from.
 */
#pragma once

#include <cstdio>
#include <ctime>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fidr/common/simd.h"
#include "fidr/core/baseline_system.h"
#include "fidr/core/fidr_system.h"
#include "fidr/core/perf_model.h"
#include "fidr/obs/json.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"

/** Stamped at build time by bench/git_sha.cmake; builds that do not
 *  generate the stamp report "unknown". */
#if __has_include("fidr_git_sha.h")
#include "fidr_git_sha.h"
#endif
#ifndef FIDR_GIT_SHA
#define FIDR_GIT_SHA "unknown"
#endif

namespace fidr::bench {

/**
 * Uniform bench JSON emission: every bench that persists numbers
 * writes the same document shape,
 *
 *   {"bench": ..., "config": {...}, "series": [...],
 *    "meta": {"git_sha": ..., "date": ...}}
 *
 * The writer streams, so add config scalars before the first series
 * entry.  Each series entry is an object opened by begin_entry()
 * (which presets "name"), filled through the returned JsonWriter, and
 * closed by end_entry().
 */
class JsonReport {
  public:
    explicit JsonReport(std::string_view bench)
    {
        json_.begin_object();
        json_.kv("bench", bench);
        json_.key("config").begin_object();
    }

    /** Flat config scalar; only valid before the first entry. */
    template <typename T>
    JsonReport &
    config(std::string_view key, T &&value)
    {
        FIDR_CHECK(!in_series_);
        json_.kv(key, std::forward<T>(value));
        return *this;
    }

    obs::JsonWriter &
    begin_entry(std::string_view name)
    {
        if (!in_series_) {
            json_.end_object();  // config
            json_.key("series").begin_array();
            in_series_ = true;
        }
        json_.begin_object();
        json_.kv("name", name);
        return json_;
    }

    void end_entry() { json_.end_object(); }

    /** Closes the document (stamping meta) and writes it to `path`. */
    Status
    write_file(const std::string &path)
    {
        if (!in_series_) {
            json_.end_object();
            json_.key("series").begin_array();
            in_series_ = true;
        }
        json_.end_array();
        json_.key("meta").begin_object();
        json_.kv("git_sha", FIDR_GIT_SHA);
        json_.kv("date", today());
        // Numbers from hosts with different vector ISAs are not
        // directly comparable, so stamp what this run dispatched to.
        json_.key("cpu").begin_object();
        json_.kv("sse4", simd::supported(simd::Target::kSse4));
        json_.kv("avx2", simd::supported(simd::Target::kAvx2));
        json_.kv("avx512", simd::supported(simd::Target::kAvx512));
        json_.kv("sha_ni", simd::sha_ni());
        json_.kv("dispatch", simd::name(simd::active()));
        json_.end_object();
        json_.end_object();
        json_.end_object();
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return Status::unavailable("cannot write " + path);
        std::fputs(json_.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
        return Status::ok();
    }

  private:
    static std::string
    today()
    {
        const std::time_t now = std::time(nullptr);
        std::tm tm_utc{};
        gmtime_r(&now, &tm_utc);
        char buffer[32];
        std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &tm_utc);
        return buffer;
    }

    obs::JsonWriter json_;
    bool in_series_ = false;
};

/** Requests per experiment run (scaled-down from the paper's 176M). */
inline constexpr int kRunRequests = 60'000;

/** The evaluation platform of Sec 7.1 at bench scale. */
inline core::PlatformConfig
eval_platform()
{
    core::PlatformConfig config;
    config.expected_unique_chunks = workload::kTable3UniqueChunks;
    config.cache_fraction = workload::kTable3CacheFraction;
    config.data_ssd.capacity_bytes = 64ull * kGiB;
    config.table_ssd.capacity_bytes = 4ull * kGiB;
    // The Fig 11/12/14 platform provisions table SSDs so metadata IO
    // is not the binding constraint; the Table 5 bench separately
    // evaluates the paper's 2 GB/s budget.
    config.table_ssd.read_bandwidth = gb_per_s(16);
    config.table_ssd.write_bandwidth = gb_per_s(16);
    return config;
}

/** Everything a bench prints about one (system, workload) run. */
struct RunResult {
    std::string workload;
    core::Projection projection;
    core::ReductionStats reduction;
    cache::CacheStats cache;
    std::vector<sim::LedgerRow> mem_rows;
    std::vector<sim::LedgerRow> cpu_rows;
    double mem_total = 0;        ///< Host DRAM bytes moved.
    double cpu_core_seconds = 0;
    double client_bytes = 0;
    double mem_per_byte = 0;     ///< DRAM traffic per client byte.
    double tree_crash_rate = 0;  ///< FIDR HW-tree misspeculation rate.
};

template <typename System>
RunResult
drive(System &system, const workload::WorkloadSpec &spec,
      int requests = kRunRequests)
{
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < requests; ++i) {
        const workload::IoRequest req = gen.next();
        Status status;
        if (req.dir == IoDir::kWrite) {
            status = system.write(req.lba, req.data);
        } else {
            Result<Buffer> out = system.read(req.lba);
            status = out.status();
        }
        if (!status.is_ok()) {
            std::fprintf(stderr, "drive failed: %s\n",
                         status.to_string().c_str());
            std::abort();
        }
    }
    const Status flushed = system.flush();
    if (!flushed.is_ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     flushed.to_string().c_str());
        std::abort();
    }

    RunResult out;
    out.workload = spec.name;
    out.projection = core::project(system);
    out.reduction = system.reduction();
    out.cache = system.cache_stats();
    const auto &fabric = system.platform().fabric();
    out.mem_rows = fabric.host_memory().report();
    out.cpu_rows = system.platform().cpu().ledger().report();
    out.mem_total = fabric.host_memory().total();
    out.cpu_core_seconds = system.platform().cpu().ledger().total();
    out.client_bytes = out.projection.client_bytes;
    out.mem_per_byte = out.mem_total / out.client_bytes;
    if constexpr (std::is_same_v<System, core::FidrSystem>) {
        if (system.hw_index()) {
            out.tree_crash_rate =
                system.hw_index()->pipeline().stats().crash_rate();
        }
    }
    return out;
}

/** Runs the baseline on a workload spec over the eval platform. */
inline RunResult
run_baseline(const workload::WorkloadSpec &spec,
             int requests = kRunRequests)
{
    core::BaselineConfig config;
    config.platform = eval_platform();
    core::BaselineSystem system(config);
    return drive(system, spec, requests);
}

/** FIDR configurations of Fig 14's ablation. */
enum class FidrMode {
    kNicP2pOnly,      ///< Software cache index, NIC offload + P2P.
    kHwCacheSingle,   ///< + Cache HW-Engine, single-update tree.
    kHwCacheMulti,    ///< + speculative concurrent updates (4 lanes).
};

inline const char *
fidr_mode_name(FidrMode mode)
{
    switch (mode) {
      case FidrMode::kNicP2pOnly: return "FIDR (NIC+P2P)";
      case FidrMode::kHwCacheSingle: return "FIDR (+HW cache, 1 lane)";
      case FidrMode::kHwCacheMulti: return "FIDR (full, 4 lanes)";
    }
    return "?";
}

inline RunResult
run_fidr(const workload::WorkloadSpec &spec,
         FidrMode mode = FidrMode::kHwCacheMulti,
         int requests = kRunRequests)
{
    core::FidrConfig config;
    config.platform = eval_platform();
    config.hw_cache_engine = mode != FidrMode::kNicP2pOnly;
    config.tree_update_lanes =
        mode == FidrMode::kHwCacheMulti ? 4 : 1;
    core::FidrSystem system(config);
    return drive(system, spec, requests);
}

/** Header line for a bench report. */
inline void
print_header(const char *title, const char *paper_ref)
{
    std::printf("==============================================="
                "=====================\n");
    std::printf("%s\n  (reproduces %s)\n", title, paper_ref);
    std::printf("==============================================="
                "=====================\n");
}

}  // namespace fidr::bench
