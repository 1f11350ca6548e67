/**
 * @file
 * Interface between the benchmark main program (main.cc) and the workloads
 * (workloads.cc).  A workload builds its inputs from the seed once,
 * then runs any number of identical trials; each trial builds a fresh
 * system, drives it from one closed-loop client thread, checks every
 * payload against the benchmark's own model, crashes and recovers the
 * system, and reads everything back.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fidr/common/types.h"
#include "spans.h"

namespace perfbench {

/** Latency samples pooled across the timed trials of one run. */
struct Samples {
    std::vector<std::uint64_t> write_ns;
    std::vector<std::uint64_t> read_batch_ns;
};

/** Everything one trial measured. */
struct TrialOutput {
    double setup_s = 0;       ///< Building the system (+ preload).
    double load_s = 0;        ///< First client op until flush() returns.
    double trial_s = 0;       ///< Whole trial, setup through read-back.
    std::uint64_t write_bytes = 0;  ///< Client bytes written in load.
    std::uint64_t ops = 0;          ///< Client ops issued in load.

    std::uint64_t attempted = 0;  ///< Every call made into the system.
    std::uint64_t failed = 0;     ///< Calls that returned an error.
    std::vector<std::string> errors;  ///< Wrong payloads, unclean fsck.

    /** Reduction counters; identical across trials of one seed. */
    std::vector<std::uint64_t> fingerprint;

    double stored_per_user = 0;   ///< Stored bytes / client bytes.
    double flash_per_user = 0;    ///< Data + table SSD writes / client.
    double model_gb_per_s = 0;    ///< Ledger projection.

    /** Per-layer values (see BENCHMARK.json "per_layer"). */
    std::map<std::string, double> layers;
};

class Workload {
  public:
    virtual ~Workload() = default;

    /** One trial; latencies go to `samples` when it is non-null. */
    virtual TrialOutput run_trial(Spans &spans, Samples *samples) = 0;

    /** The workload's configuration as a flat JSON object. */
    virtual std::string config_json() const = 0;

    /** Distinct chunk payloads the workload writes (kernel replay). */
    virtual std::vector<const fidr::Buffer *> unique_chunks() const = 0;
};

/** Null for an unknown name. */
std::unique_ptr<Workload> make_workload(const std::string &name,
                                        std::uint64_t seed);

}  // namespace perfbench
