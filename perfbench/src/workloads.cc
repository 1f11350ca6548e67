// The four benchmark workloads.  Each trial builds a fresh system with
// the durable configuration (eval_platform(), journal_metadata = true),
// drives it from one closed-loop client thread, snapshots its
// observability state around every phase, crashes and recovers it, runs
// fsck, and reads every acknowledged LBA back against the benchmark's
// own model of acknowledged content.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <span>
#include <unordered_map>

#include "bench.h"
#include "bench/harness.h"
#include "fidr/cluster/router.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"
#include "fidr/workload/table3.h"
#include "stats.h"

using namespace fidr;

namespace perfbench {
namespace {

constexpr std::size_t kReadBatch = 16;

double
elapsed_s(std::uint64_t start_ns)
{
    return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

core::FidrConfig
durable_config()
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.journal_metadata = true;
    return config;
}

/** Chunk payloads by index; content ids are unique to the seed. */
class ContentStore {
  public:
    explicit ContentStore(std::uint64_t seed)
        : base_(Rng(seed ^ 0xC0FFEEull).next_u64())
    {
    }

    std::uint32_t
    add(double comp_ratio)
    {
        chunks_.push_back(
            workload::make_chunk_content(base_ + chunks_.size(), comp_ratio));
        return static_cast<std::uint32_t>(chunks_.size() - 1);
    }

    std::size_t size() const { return chunks_.size(); }
    const Buffer &at(std::uint32_t index) const { return chunks_[index]; }

    std::vector<const Buffer *>
    all() const
    {
        std::vector<const Buffer *> out;
        out.reserve(chunks_.size());
        for (const Buffer &chunk : chunks_)
            out.push_back(&chunk);
        return out;
    }

  private:
    std::uint64_t base_;
    std::vector<Buffer> chunks_;
};

struct WriteOp {
    Lba lba = 0;
    std::uint32_t content = 0;
};

/** `count` writes of a Table 3 spec, payloads deduplicated by content. */
std::vector<WriteOp>
generate_writes(workload::WorkloadSpec spec, std::size_t count,
                ContentStore &store)
{
    spec.materialize_data = false;
    workload::WorkloadGenerator gen(spec);
    std::vector<WriteOp> ops;
    ops.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const workload::IoRequest req = gen.next();
        FIDR_CHECK(req.dir == IoDir::kWrite);
        // Generator content ids are dense and first-use ordered.
        while (store.size() <= req.content_id)
            store.add(spec.comp_ratio);
        ops.push_back({req.lba, static_cast<std::uint32_t>(req.content_id)});
    }
    return ops;
}

/** The system under test: one node, or a router over several. */
struct Target {
    core::StorageServer *server = nullptr;
    std::vector<core::FidrSystem *> nodes;
    cluster::ClusterRouter *router = nullptr;

    obs::ObsSnapshot
    snapshot() const
    {
        return router != nullptr ? router->obs_snapshot()
                                 : nodes.front()->obs_snapshot();
    }
};

/**
 * Metric lookups that work on both a node snapshot and a router's
 * merged one (node histograms and gauges appear as "nodeI.<name>";
 * counters are also summed under the plain name).
 */
bool
names_metric(const std::string &key, const std::string &name)
{
    if (key == name)
        return true;
    if (key.rfind("node", 0) != 0)
        return false;
    const std::size_t dot = key.find('.');
    return dot != std::string::npos && key.compare(dot + 1, std::string::npos,
                                                   name) == 0;
}

double
hist_sum_s(const obs::ObsSnapshot &snap, const std::string &name)
{
    double total = 0;
    for (const auto &[key, summary] : snap.histograms) {
        if (names_metric(key, name))
            total += static_cast<double>(summary.sum_ns) / 1e9;
    }
    return total;
}

/** Worst node's percentile of a histogram (nanoseconds or counts). */
double
hist_max(const obs::ObsSnapshot &snap, const std::string &name,
         std::uint64_t obs::HistogramSummary::*field)
{
    double worst = 0;
    for (const auto &[key, summary] : snap.histograms) {
        if (names_metric(key, name))
            worst = std::max(worst, static_cast<double>(summary.*field));
    }
    return worst;
}

double
gauge_mean(const obs::ObsSnapshot &snap, const std::string &name)
{
    double total = 0;
    int n = 0;
    for (const auto &[key, value] : snap.gauges) {
        if (names_metric(key, name)) {
            total += value;
            ++n;
        }
    }
    return n > 0 ? total / n : 0.0;
}

double
counter(const obs::ObsSnapshot &snap, const std::string &name)
{
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
}

/** Counter and histogram-sum deltas between two snapshots. */
struct Window {
    const obs::ObsSnapshot &begin;
    const obs::ObsSnapshot &end;

    double count(const std::string &name) const
    { return counter(end, name) - counter(begin, name); }
    double seconds(const std::string &name) const
    { return hist_sum_s(end, name) - hist_sum_s(begin, name); }
};

/** State shared by the phases of one trial. */
class Trial {
  public:
    Trial(Spans &spans, Samples *samples) : spans_(spans), samples_(samples)
    {
    }

    TrialOutput out;

    bool
    ok(const Status &status)
    {
        ++out.attempted;
        if (status.is_ok())
            return true;
        ++out.failed;
        return false;
    }

    void
    error(const std::string &what)
    {
        if (out.errors.size() < 8)
            out.errors.push_back(what);
        else if (out.errors.size() == 8)
            out.errors.push_back("...");
    }

    /** One acknowledged write; the model learns the payload on ack. */
    void
    write(core::StorageServer &server, Lba lba, const Buffer &payload,
          const char *span_name, bool record)
    {
        Buffer copy = payload;
        const std::uint64_t start = now_ns();
        Status status;
        {
            const Spans::Scope span(spans_, span_name);
            status = server.write(lba, std::move(copy));
        }
        if (record && samples_ != nullptr)
            samples_->write_ns.push_back(now_ns() - start);
        if (ok(status))
            model_[lba] = &payload;
    }

    /** One read_batch; every returned slot must match the model. */
    void
    read_batch(core::StorageServer &server, std::span<const Lba> lbas,
               bool record)
    {
        const std::uint64_t start = now_ns();
        std::vector<Result<Buffer>> slots;
        {
            const Spans::Scope span(spans_, "read_batch");
            slots = server.read_batch(lbas);
        }
        if (record && samples_ != nullptr)
            samples_->read_batch_ns.push_back(now_ns() - start);
        bool all_ok = slots.size() == lbas.size();
        for (std::size_t i = 0; all_ok && i < slots.size(); ++i) {
            if (!slots[i].is_ok()) {
                all_ok = false;
                break;
            }
            const auto expected = model_.find(lbas[i]);
            if (expected == model_.end() ||
                slots[i].value() != *expected->second) {
                error("payload mismatch at lba " + std::to_string(lbas[i]));
            }
        }
        ok(all_ok ? Status::ok() : Status::internal("read_batch slot"));
    }

    void
    flush(core::StorageServer &server)
    {
        const Spans::Scope span(spans_, "flush");
        ok(server.flush());
    }

    obs::ObsSnapshot
    snapshot(const Target &target)
    {
        const Spans::Scope span(spans_, "obs_snapshot");
        return target.snapshot();
    }

    /** Crash and recover every node (timed), then fsck each. */
    void
    crash_and_recover(const Target &target)
    {
        double replay_s = 0;
        double before = 0;
        double after = 0;
        for (core::FidrSystem *node : target.nodes) {
            before += static_cast<double>(node->journal_records());
            const std::uint64_t start = now_ns();
            {
                const Spans::Scope span(spans_, "crash_recover");
                ok(node->simulate_crash_and_recover());
            }
            replay_s += elapsed_s(start);
            after += static_cast<double>(node->journal_records());
        }
        out.layers["journal.records"] = before;
        out.layers["recovery.records"] = after;
        out.layers["recovery.replay_s"] = replay_s;
        for (core::FidrSystem *node : target.nodes) {
            Result<core::FidrSystem::FsckReport> report = [&] {
                const Spans::Scope span(spans_, "fsck");
                return node->fsck();
            }();
            if (ok(report.status()) && !report.value().clean())
                error("fsck not clean after recovery");
        }
    }

    /** Reads every acknowledged LBA back in batches of 16. */
    void
    read_back(core::StorageServer &server, bool record)
    {
        std::vector<Lba> lbas;
        lbas.reserve(model_.size());
        for (const auto &[lba, payload] : model_)
            lbas.push_back(lba);
        std::sort(lbas.begin(), lbas.end());
        const Spans::Scope span(spans_, "read_back");
        for (std::size_t base = 0; base < lbas.size(); base += kReadBatch) {
            const std::size_t n = std::min(kReadBatch, lbas.size() - base);
            read_batch(server, std::span<const Lba>(&lbas[base], n),
                       record);
        }
    }

  private:
    Spans &spans_;
    Samples *samples_;
    std::unordered_map<Lba, const Buffer *> model_;
};

/**
 * Write-side layers over the load window, the reduction fingerprint,
 * and the whole-lifetime device ratios (data and table SSD bytes, host
 * DRAM and CPU ledgers, both model clock) at the end of the load.
 */
void
record_load(Trial &trial, const Target &target, const Window &load,
            double load_s)
{
    TrialOutput &out = trial.out;
    auto &layers = out.layers;
    const core::ReductionStats &reduction = target.server->reduction();
    out.fingerprint = {reduction.chunks_written, reduction.unique_chunks,
                       reduction.duplicates, reduction.raw_bytes,
                       reduction.stored_bytes};

    double data_written = 0, table_written = 0, table_read = 0;
    double dram = 0, cpu_s = 0;
    for (const core::FidrSystem *node : target.nodes) {
        const core::Platform &platform = node->platform();
        data_written +=
            static_cast<double>(platform.data_ssds().total_bytes_written());
        table_written +=
            static_cast<double>(platform.table_ssd().bytes_written());
        table_read += static_cast<double>(platform.table_ssd().bytes_read());
        dram += platform.fabric().host_memory().total();
        cpu_s += platform.cpu().ledger().total();
    }
    const double raw = static_cast<double>(reduction.raw_bytes);
    const double chunks = static_cast<double>(reduction.chunks_written);
    out.stored_per_user =
        ratio(static_cast<double>(reduction.stored_bytes), raw);
    out.flash_per_user = ratio(data_written + table_written, raw);
    out.model_gb_per_s =
        (target.router != nullptr
             ? target.router->project().aggregate_bytes_per_s
             : core::project(*target.nodes.front()).throughput()) /
        1e9;
    layers["ssd.data_bytes_written_per_user_byte"] = ratio(data_written, raw);
    layers["ssd.table_bytes_written_per_user_byte"] =
        ratio(table_written, raw);
    layers["ssd.table_bytes_read_per_write"] = ratio(table_read, chunks);
    layers["host.dram_bytes_per_user_byte"] = ratio(dram, raw);
    layers["host.cpu_core_s_per_gb"] = ratio(cpu_s, raw / 1e9);

    // Commit-sequencer accounting: the disjoint named stages (journal
    // appends are nested inside container_append and map_update, so
    // write.journal_s is reported but not summed), the unnamed rest,
    // and idle wall time, summed over nodes.
    const double execute_s = load.seconds("pipeline.stage.execute.busy_ns");
    static const char *const kStages[] = {
        "write.digest_xfer", "write.bucket_index", "write.dedup_resolve",
        "write.verdict_xfer", "write.compress", "write.container_append",
        "write.map_update", "gc.pause_ns"};
    std::vector<double> stage_s;
    for (const char *stage : kStages)
        stage_s.push_back(load.seconds(stage));
    const LayerAccount account = account_layers(
        stage_s, execute_s,
        load_s * static_cast<double>(target.nodes.size()));
    layers["write_pipeline.execute_busy_frac"] = account.busy_frac;
    layers["write_pipeline.idle_s"] = account.idle_s;
    layers["write_pipeline.overlap_s"] =
        load.count("pipeline.overlap_ns") / 1e9;
    layers["write_pipeline.hash_busy_s"] =
        load.seconds("pipeline.stage.hash.busy_ns");
    layers["write_pipeline.submit_stall_s"] =
        load.seconds("pipeline.submit_stall_ns");
    layers["write_pipeline.stalls"] = load.count("pipeline.stalls");
    layers["write_pipeline.queue_depth_p95"] = hist_max(
        load.end, "pipeline.queue_depth", &obs::HistogramSummary::p95_ns);
    layers["write.sequencer_stages_s"] = account.stages_s;
    layers["write.sequencer_other_s"] = account.other_s;
    layers["write.sequencer_stage_frac"] = account.stage_frac;
    for (const char *stage :
         {"dedup_resolve", "compress", "container_append", "journal",
          "map_update", "bucket_index", "digest_xfer", "verdict_xfer",
          "hash", "nic_buffer"}) {
        const std::string name = std::string("write.") + stage;
        layers[name + "_s"] = load.seconds(name);
    }

    const double writes = load.count("write.chunks");
    const double hits = load.count("cache.hits");
    const double misses = load.count("cache.misses");
    layers["table_cache.hit_rate"] = ratio(hits, hits + misses);
    layers["table_cache.misses_per_write"] = ratio(misses, writes);
    layers["table_cache.dirty_evictions"] = load.count("cache.dirty_evictions");

    layers["gc.steps"] = load.count("gc.steps");
    layers["gc.concurrent_steps"] = load.count("gc.concurrent_steps");
    layers["gc.relocated_bytes_per_user_byte"] =
        ratio(load.count("gc.relocated_bytes"), load.count("write.raw_bytes"));
    layers["gc.pause_p99_us"] =
        hist_max(load.end, "gc.pause_ns", &obs::HistogramSummary::p99_ns) /
        1e3;
    layers["container.free_slot_fraction"] =
        gauge_mean(load.end, "container.free_slot_fraction");
    layers["hwtree.crash_rate"] =
        ratio(load.count("tree.crashes"), load.count("tree.updates"));

    // Cluster layers (zero on a single node).
    const double client_writes = static_cast<double>(out.ops);
    layers["router.suppressed_fraction"] =
        ratio(load.count("cluster.writes_suppressed"), client_writes);
    layers["fabric.wire_bytes_per_user_byte"] = ratio(
        load.count("net.bytes"), static_cast<double>(out.write_bytes));
    layers["fabric.messages_per_write"] =
        ratio(load.count("net.messages"), client_writes);
}

/** Read-side layers over the window the read_batch samples cover. */
void
record_reads(Trial &trial, const Window &reads)
{
    auto &layers = trial.out.layers;
    layers["read.resolve_s"] = reads.seconds("read.lba_resolve");
    layers["read.fetch_s"] = reads.seconds("read.ssd_fetch");
    layers["read.decompress_s"] = reads.seconds("read.decompress");
    layers["read.return_s"] = reads.seconds("read.nic_return");
    layers["read.ssd_fetches_per_slot"] =
        ratio(reads.count("read.ssd_fetches"), reads.count("read.chunks"));
    const double hits = reads.count("read.cache.hits");
    layers["chunk_cache.hit_rate"] =
        ratio(hits, hits + reads.count("read.cache.misses"));
    layers["chunk_cache.hot_hits"] = reads.count("read.cache.hot.hits");
    layers["chunk_cache.warm_hits"] = reads.count("read.cache.warm.hits");
    layers["chunk_cache.demote_passes"] =
        reads.count("read.cache.demote_passes");
    layers["chunk_cache.evictions"] = reads.count("read.cache.evictions");
    layers["chunk_cache.rekeys"] = reads.count("read.cache.rekeys");
}

/**
 * Write-only ingest: a Table 3 write stream into one node, or through a
 * fingerprint-routed cluster.  Read latency comes from the read-back.
 */
class IngestWorkload final : public Workload {
  public:
    IngestWorkload(workload::WorkloadSpec spec, std::size_t writes,
                   std::size_t nodes, std::uint64_t seed)
        : spec_(std::move(spec)), nodes_(nodes), store_(seed)
    {
        spec_.seed = seed;
        ops_ = generate_writes(spec_, writes, store_);
    }

    TrialOutput
    run_trial(Spans &spans, Samples *samples) override
    {
        Trial trial(spans, samples);
        TrialOutput &out = trial.out;
        std::unique_ptr<core::FidrSystem> system;
        std::unique_ptr<cluster::ClusterRouter> router;
        Target target;
        const std::uint64_t trial_start = now_ns();
        {
            const Spans::Scope trial_span(spans, "trial");
            {
                const Spans::Scope span(spans, "setup");
                const std::uint64_t start = now_ns();
                if (nodes_ == 1) {
                    system = std::make_unique<core::FidrSystem>(
                        durable_config());
                    target.server = system.get();
                    target.nodes = {system.get()};
                } else {
                    cluster::ClusterConfig config;
                    config.nodes = nodes_;
                    config.routing = cluster::Routing::kFingerprint;
                    router = std::make_unique<cluster::ClusterRouter>(
                        config, durable_config());
                    target.server = router.get();
                    target.router = router.get();
                    for (std::size_t i = 0; i < nodes_; ++i)
                        target.nodes.push_back(&router->node(i).system());
                }
                out.setup_s = elapsed_s(start);
            }
            const obs::ObsSnapshot before = trial.snapshot(target);
            const char *write_span =
                router != nullptr ? "router.write" : "write";
            const std::uint64_t load_start = now_ns();
            {
                const Spans::Scope span(spans, "load");
                for (const WriteOp &op : ops_) {
                    trial.write(*target.server, op.lba,
                                store_.at(op.content), write_span, true);
                }
                trial.flush(*target.server);
            }
            out.load_s = elapsed_s(load_start);
            out.ops = ops_.size();
            out.write_bytes = ops_.size() * kChunkSize;
            const obs::ObsSnapshot loaded = trial.snapshot(target);
            record_load(trial, target, Window{before, loaded}, out.load_s);

            trial.crash_and_recover(target);
            const obs::ObsSnapshot recovered = trial.snapshot(target);
            trial.read_back(*target.server, true);
            record_reads(trial, Window{recovered, trial.snapshot(target)});
        }
        out.trial_s = elapsed_s(trial_start);
        return out;
    }

    std::string
    config_json() const override
    {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"content\": \"%s\", \"writes\": %zu, \"nodes\": %zu, "
            "\"routing\": \"%s\", \"dedup_ratio\": %.3f, "
            "\"dup_working_set\": %llu, \"address_space_chunks\": %llu, "
            "\"pattern\": \"%s\", \"unique_contents\": %zu, "
            "\"journal_metadata\": true, \"read_batch\": %zu}",
            spec_.name.c_str(), ops_.size(), nodes_,
            nodes_ > 1 ? "fingerprint" : "none", spec_.dedup_ratio,
            static_cast<unsigned long long>(spec_.dup_working_set),
            static_cast<unsigned long long>(spec_.address_space_chunks),
            spec_.pattern == workload::AddressPattern::kUniform
                ? "uniform"
                : "sequential-runs",
            store_.size(), kReadBatch);
        return buf;
    }

    std::vector<const Buffer *>
    unique_chunks() const override
    {
        return store_.all();
    }

  private:
    workload::WorkloadSpec spec_;
    std::size_t nodes_;
    ContentStore store_;
    std::vector<WriteOp> ops_;
};

/**
 * Reads beside writes on a log small enough that GC must run: a unique
 * preload, then Zipf-skewed read_batch calls mixed with unique
 * overwrites of the same skewed LBAs, with the two-tier chunk cache and
 * auto GC on.
 */
class ServeMixedWorkload final : public Workload {
  public:
    static constexpr std::size_t kPreloadLbas = 32'768;
    static constexpr double kReadShare = 0.70;
    static constexpr double kZipfExponent = 0.99;

    ServeMixedWorkload(std::size_t ops, std::uint64_t seed) : store_(seed)
    {
        for (std::size_t i = 0; i < kPreloadLbas; ++i)
            store_.add(kCompRatio);
        // Popularity is independent of preload order: rank r is LBA
        // perm[r], so hot chunks are scattered over the preload log.
        Rng rng(seed);
        std::vector<Lba> perm(kPreloadLbas);
        std::iota(perm.begin(), perm.end(), Lba{0});
        std::shuffle(perm.begin(), perm.end(), rng);
        const ZipfSampler zipf(kPreloadLbas, kZipfExponent);
        ops_.reserve(ops);
        for (std::size_t i = 0; i < ops; ++i) {
            Op op;
            op.read = rng.next_bool(kReadShare);
            if (op.read) {
                op.first = read_lbas_.size();
                for (std::size_t j = 0; j < kReadBatch; ++j)
                    read_lbas_.push_back(perm[zipf.sample(rng)]);
            } else {
                op.lba = perm[zipf.sample(rng)];
                op.content = store_.add(kCompRatio);
            }
            ops_.push_back(op);
        }
    }

    static core::FidrConfig
    config()
    {
        core::FidrConfig config = durable_config();
        config.platform.data_ssd_count = 2;
        config.platform.data_ssd.capacity_bytes = 48 * kMiB;
        config.container_bytes = 256 * 1024;
        config.chunk_cache_bytes = 4 * kMiB;
        config.gc.auto_run = true;
        return config;
    }

    TrialOutput
    run_trial(Spans &spans, Samples *samples) override
    {
        Trial trial(spans, samples);
        TrialOutput &out = trial.out;
        std::unique_ptr<core::FidrSystem> system;
        Target target;
        const std::uint64_t trial_start = now_ns();
        {
            const Spans::Scope trial_span(spans, "trial");
            {
                const Spans::Scope span(spans, "setup");
                const std::uint64_t start = now_ns();
                system = std::make_unique<core::FidrSystem>(config());
                target.server = system.get();
                target.nodes = {system.get()};
                for (std::size_t i = 0; i < kPreloadLbas; ++i) {
                    trial.write(*system, i,
                                store_.at(static_cast<std::uint32_t>(i)),
                                "write", false);
                }
                trial.flush(*system);
                out.setup_s = elapsed_s(start);
            }
            const obs::ObsSnapshot before = trial.snapshot(target);
            std::uint64_t overwrites = 0;
            const std::uint64_t load_start = now_ns();
            {
                const Spans::Scope span(spans, "load");
                for (const Op &op : ops_) {
                    if (op.read) {
                        trial.read_batch(
                            *system,
                            std::span<const Lba>(&read_lbas_[op.first],
                                                 kReadBatch),
                            true);
                    } else {
                        trial.write(*system, op.lba, store_.at(op.content),
                                    "write", true);
                        ++overwrites;
                    }
                }
                trial.flush(*system);
            }
            out.load_s = elapsed_s(load_start);
            out.ops = ops_.size();
            out.write_bytes = overwrites * kChunkSize;
            const obs::ObsSnapshot loaded = trial.snapshot(target);
            const Window load{before, loaded};
            record_load(trial, target, load, out.load_s);
            record_reads(trial, load);
            if (out.layers["gc.steps"] <= 0)
                trial.error("GC never ran");

            trial.crash_and_recover(target);
            trial.read_back(*system, false);
        }
        out.trial_s = elapsed_s(trial_start);
        return out;
    }

    std::string
    config_json() const override
    {
        const core::FidrConfig c = config();
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"preload_lbas\": %zu, \"ops\": %zu, \"read_share\": %.2f, "
            "\"read_batch\": %zu, \"zipf_exponent\": %.2f, "
            "\"data_ssds\": %zu, \"data_ssd_bytes\": %llu, "
            "\"container_bytes\": %llu, \"chunk_cache_bytes\": %llu, "
            "\"gc_auto_run\": true, \"journal_metadata\": true}",
            kPreloadLbas, ops_.size(), kReadShare, kReadBatch, kZipfExponent,
            c.platform.data_ssd_count,
            static_cast<unsigned long long>(c.platform.data_ssd.capacity_bytes),
            static_cast<unsigned long long>(c.container_bytes),
            static_cast<unsigned long long>(c.chunk_cache_bytes));
        return buf;
    }

    std::vector<const Buffer *>
    unique_chunks() const override
    {
        return store_.all();
    }

  private:
    static constexpr double kCompRatio = 0.5;

    struct Op {
        bool read = false;
        std::size_t first = 0;  ///< Into read_lbas_ (reads).
        Lba lba = 0;            ///< Overwrite target (writes).
        std::uint32_t content = 0;
    };

    ContentStore store_;
    std::vector<Op> ops_;
    std::vector<Lba> read_lbas_;
};

}  // namespace

std::unique_ptr<Workload>
make_workload(const std::string &name, std::uint64_t seed)
{
    if (name == "ingest_dedup") {
        return std::make_unique<IngestWorkload>(
            workload::write_h_spec(), 65'536, 1, seed);
    }
    if (name == "ingest_unique") {
        return std::make_unique<IngestWorkload>(
            workload::write_l_spec(), 32'768, 1, seed);
    }
    if (name == "serve_mixed")
        return std::make_unique<ServeMixedWorkload>(12'000, seed);
    if (name == "cluster_ingest") {
        return std::make_unique<IngestWorkload>(
            workload::write_m_spec(), 24'576, 4, seed);
    }
    return nullptr;
}

}  // namespace perfbench
