// Google-benchmark microbenchmarks of the core primitives: SHA-256,
// the LZ codec, both tree indexes, the table cache, and the end-to-end
// write paths of the two systems.  These measure this host's software
// throughput (the figure benches use the calibrated hardware model
// instead).
//
// `--json[=path]` switches to the persisted scalar-vs-SIMD comparison:
// the GearCdc scan and the bulk SHA-256 path are timed once per
// dispatch target the host supports, every SHA-256 engine the host
// runs is timed on its own (batch and single-message), results are
// checked bit-identical against the portable reference, the LZ codec
// is timed at both levels
// with its output checked against pinned golden digests, and the
// series is written in the uniform JsonReport schema (default path
// BENCH_primitives.json).
// Without the flag the usual google-benchmark CLI runs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.h"

#include "fidr/btree/bplus_tree.h"
#include "fidr/cache/indexes.h"
#include "fidr/chunking/cdc.h"
#include "fidr/common/rng.h"
#include "fidr/compress/lz.h"
#include "fidr/core/baseline_system.h"
#include "fidr/core/fidr_system.h"
#include "fidr/hash/sha256.h"
#include "fidr/hash/sha256_mb.h"
#include "fidr/hash/sha256_mb_kernels.h"
#include "fidr/hwtree/tree_pipeline.h"
#include "fidr/nic/protocol.h"
#include "fidr/obs/metrics.h"
#include "fidr/obs/slo.h"
#include "fidr/obs/trace.h"
#include "fidr/tables/journal.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"

namespace {

using namespace fidr;

void
BM_Sha256_4K(benchmark::State &state)
{
    const Buffer chunk = workload::make_chunk_content(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(Sha256::hash(chunk));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_Sha256_4K);

void
BM_LzCompress_4K(benchmark::State &state)
{
    const auto level = static_cast<LzLevel>(state.range(0));
    const Buffer chunk = workload::make_chunk_content(2, 0.5);
    for (auto _ : state)
        benchmark::DoNotOptimize(lz_compress(chunk, level));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_LzCompress_4K)
    ->Arg(static_cast<int>(LzLevel::kFast))
    ->Arg(static_cast<int>(LzLevel::kDefault));

void
BM_LzDecompress_4K(benchmark::State &state)
{
    const Buffer chunk = workload::make_chunk_content(3, 0.5);
    const Buffer block = lz_compress(chunk, LzLevel::kFast);
    for (auto _ : state)
        benchmark::DoNotOptimize(lz_decompress(block));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_LzDecompress_4K);

void
BM_BPlusTreeLookup(benchmark::State &state)
{
    btree::BPlusTree tree;
    Rng rng(5);
    for (int i = 0; i < state.range(0); ++i)
        tree.insert(rng.next_u64() >> 32, i);
    Rng probe(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.find(probe.next_u64() >> 32));
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void
BM_BPlusTreeInsertErase(benchmark::State &state)
{
    btree::BPlusTree tree;
    Rng rng(7);
    for (int i = 0; i < (1 << 16); ++i)
        tree.insert(rng.next_u64() >> 32, i);
    Rng op(8);
    for (auto _ : state) {
        const std::uint64_t key = op.next_u64() >> 32;
        tree.insert(key, 1);
        tree.erase(key);
    }
}
BENCHMARK(BM_BPlusTreeInsertErase);

void
BM_HwTreeSearch(benchmark::State &state)
{
    hwtree::HwTree tree;
    Rng rng(9);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < (1 << 16); ++i) {
        const std::uint64_t key = rng.next_u64() >> 32;
        if (tree.insert(key, i).value())
            keys.push_back(key);
    }
    Rng probe(10);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tree.search(keys[probe.next_below(keys.size())]));
    }
}
BENCHMARK(BM_HwTreeSearch);

void
BM_CdcSplit(benchmark::State &state)
{
    chunking::GearCdc cdc;
    Rng rng(11);
    Buffer data(1 << 20);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto _ : state)
        benchmark::DoNotOptimize(cdc.split(data));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_CdcSplit);

Buffer
random_buffer(std::size_t size, std::uint64_t seed)
{
    Rng rng(seed);
    Buffer data(size);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.next_u64());
    return data;
}

/** RAII: force a dispatch target, restore auto-detected on exit. */
class ScopedTarget {
  public:
    explicit ScopedTarget(simd::Target target) { simd::set_target(target); }
    ~ScopedTarget() { simd::set_target(simd::detected()); }
};

void
BM_CdcSplitDispatch(benchmark::State &state)
{
    const auto target = static_cast<simd::Target>(state.range(0));
    if (!simd::supported(target)) {
        state.SkipWithError("target not supported on this host");
        return;
    }
    ScopedTarget scope(target);
    chunking::GearCdc cdc;
    const Buffer data = random_buffer(1 << 20, 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(cdc.split(data));
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(data.size()));
    state.SetLabel(simd::name(target));
}
BENCHMARK(BM_CdcSplitDispatch)
    ->Arg(static_cast<int>(simd::Target::kScalar))
    ->Arg(static_cast<int>(simd::Target::kSse4))
    ->Arg(static_cast<int>(simd::Target::kAvx2))
    ->Arg(static_cast<int>(simd::Target::kAvx512));

void
BM_Sha256MbBulk(benchmark::State &state)
{
    // A NIC-sized hash batch (256 x 4 KB) through the multi-buffer
    // engine; contrast with BM_Sha256_4K's one-message context.
    const auto target = static_cast<simd::Target>(state.range(0));
    if (!simd::supported(target)) {
        state.SkipWithError("target not supported on this host");
        return;
    }
    ScopedTarget scope(target);
    std::vector<Buffer> chunks;
    for (std::uint64_t i = 0; i < 256; ++i)
        chunks.push_back(workload::make_chunk_content(i, 0.5));
    const std::vector<std::span<const std::uint8_t>> views(chunks.begin(),
                                                           chunks.end());
    std::vector<Digest> digests(chunks.size());
    for (auto _ : state) {
        sha256_mb_hash(views, digests.data());
        benchmark::DoNotOptimize(digests.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(chunks.size()) *
                            static_cast<int64_t>(kChunkSize));
    state.SetLabel(simd::name(target));
}
BENCHMARK(BM_Sha256MbBulk)
    ->Arg(static_cast<int>(simd::Target::kScalar))
    ->Arg(static_cast<int>(simd::Target::kSse4))
    ->Arg(static_cast<int>(simd::Target::kAvx2))
    ->Arg(static_cast<int>(simd::Target::kAvx512));

void
BM_ProtocolEncodeDecode(benchmark::State &state)
{
    const Buffer payload = workload::make_chunk_content(4);
    for (auto _ : state) {
        const Buffer wire = nic::encode_write(7, payload);
        std::size_t offset = 0;
        benchmark::DoNotOptimize(nic::decode(wire, offset));
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_ProtocolEncodeDecode);

void
BM_JournalAppend(benchmark::State &state)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 1ull * kGiB;
    ssd::Ssd ssd(config);
    tables::MetadataJournal journal(ssd, 0, 512 * kMiB);
    std::uint64_t lba = 0;
    for (auto _ : state) {
        // One record per iteration, committed in 64-record extents.
        journal.stage(tables::JournalRecord::map(lba, lba));
        ++lba;
        if (journal.staged_records() == 64 && !journal.commit().is_ok())
            journal.reset();
    }
}
BENCHMARK(BM_JournalAppend);

void
BM_TableCacheAccess(benchmark::State &state)
{
    ssd::SsdConfig config;
    config.capacity_bytes = 1ull * kGiB;
    ssd::Ssd ssd(config);
    tables::HashPbnTable table(ssd, 1 << 15);
    cache::BTreeCacheIndex index;
    cache::TableCache tc(table, index, 1024);
    Rng rng(12);
    for (auto _ : state) {
        // ~80% hot / 20% cold mix, like Write-M.
        const BucketIndex bucket =
            rng.next_bool(0.8) ? rng.next_below(900)
                               : rng.next_below(1 << 15);
        benchmark::DoNotOptimize(tc.access(bucket));
    }
}
BENCHMARK(BM_TableCacheAccess);

void
BM_LruTouch(benchmark::State &state)
{
    // touch() is O(1) (intrusive doubly linked list over line slots):
    // ns/op must stay flat as the list grows.
    const auto lines = static_cast<std::size_t>(state.range(0));
    cache::LruList lru(lines);
    for (std::size_t i = 0; i < lines; ++i)
        lru.touch(i);
    Rng rng(13);
    for (auto _ : state)
        lru.touch(rng.next_below(lines));
}
BENCHMARK(BM_LruTouch)->Arg(1 << 6)->Arg(1 << 12)->Arg(1 << 18);

void
BM_LruVictimCycle(benchmark::State &state)
{
    // The miss-path pair: pop the LRU victim, re-link the filled line.
    const auto lines = static_cast<std::size_t>(state.range(0));
    cache::LruList lru(lines);
    for (std::size_t i = 0; i < lines; ++i)
        lru.touch(i);
    for (auto _ : state) {
        const auto victim = lru.pop_victim();
        lru.touch(*victim);
    }
}
BENCHMARK(BM_LruVictimCycle)->Arg(1 << 6)->Arg(1 << 12)->Arg(1 << 18);

void
BM_FreeListPushPop(benchmark::State &state)
{
    // Circular-buffer free list: O(1) regardless of capacity.
    const auto lines = static_cast<std::size_t>(state.range(0));
    cache::FreeList free_list(lines);
    for (std::size_t i = 0; i < lines; ++i)
        free_list.push(i);
    for (auto _ : state) {
        const auto line = free_list.pop();
        free_list.push(*line);
    }
}
BENCHMARK(BM_FreeListPushPop)->Arg(1 << 6)->Arg(1 << 12)->Arg(1 << 18);

void
BM_TableCacheAccessSharded(benchmark::State &state)
{
    // Same mix as BM_TableCacheAccess, cache split into N shards
    // (arg); measures the single-caller overhead of the per-shard
    // locking that buys the multi-caller concurrency headroom.
    const auto shards = static_cast<std::size_t>(state.range(0));
    ssd::SsdConfig config;
    config.capacity_bytes = 1ull * kGiB;
    ssd::Ssd ssd(config);
    tables::HashPbnTable table(ssd, 1 << 15);
    std::vector<std::unique_ptr<cache::CacheIndex>> subs;
    for (std::size_t s = 0; s < shards; ++s)
        subs.push_back(std::make_unique<cache::BTreeCacheIndex>());
    cache::ShardedCacheIndex index(std::move(subs));
    cache::TableCache tc(table, index, 1024,
                         cache::EvictionPolicy::kLru, shards);
    Rng rng(12);
    for (auto _ : state) {
        const BucketIndex bucket =
            rng.next_bool(0.8) ? rng.next_below(900)
                               : rng.next_below(1 << 15);
        benchmark::DoNotOptimize(tc.access(bucket));
    }
}
BENCHMARK(BM_TableCacheAccessSharded)->Arg(1)->Arg(4)->Arg(16);

void
BM_TracerRecord(benchmark::State &state)
{
    // The obs hot path: one tracepoint into the per-thread ring.
    // This is the series the PR 7 memory-ordering audit watches —
    // ring cursors moved from seq_cst to relaxed (the quiescence
    // contract in trace.h makes collect()-side ordering the reader's
    // problem), so a record is now plain stores plus one relaxed
    // counter bump.  Run with FIDR_TRACE=OFF the same loop measures
    // the compiled-out macro (should be ~0 ns).
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable();
    std::uint64_t i = 0;
    for (auto _ : state) {
        FIDR_TPOINT(obs::Tpoint::kDma, i, i);
        ++i;
    }
    tracer.enable(false);
    tracer.reset();
}
BENCHMARK(BM_TracerRecord);

void
BM_TracerRecordTagged(benchmark::State &state)
{
    // Same tracepoint inside a request scope: adds one thread_local
    // read to stamp the trace id into the record.
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable();
    obs::ScopedRequest request(42, 7);
    std::uint64_t i = 0;
    for (auto _ : state) {
        FIDR_TPOINT(obs::Tpoint::kDma, i, i);
        ++i;
    }
    tracer.enable(false);
    tracer.reset();
}
BENCHMARK(BM_TracerRecordTagged);

void
BM_HistogramRecord(benchmark::State &state)
{
    // Relaxed-atomic histogram record; with Arg(1) an exemplar
    // reservoir is attached and every sample carries a trace id, so
    // the delta prices the relaxed floor-gate rejection (steady state:
    // load + compare, no mutex).
    obs::Histogram hist;
    if (state.range(0) != 0)
        hist.set_exemplar_capacity(4);
    std::uint64_t i = 0;
    for (auto _ : state) {
        // Latencies cycle well below any retained tail, so offers are
        // rejected at the floor gate after warm-up.
        hist.record(1000 + (i & 1023), state.range(0) ? i + 1 : 0);
        ++i;
    }
}
BENCHMARK(BM_HistogramRecord)->Arg(0)->Arg(1);

void
BM_WindowedObserve(benchmark::State &state)
{
    // One control-plane polling tick: snapshot a realistic registry
    // (16 stage histograms + a few counters, roughly FidrSystem's) and
    // feed it to the windowed aggregator.  Arg(1) arms exemplar
    // reservoirs on every histogram, pricing the exemplar copy that
    // rides in each summary; this is off the data hot path either way,
    // but the overhead smoke keeps the armed mode within the same
    // 1.15x envelope so "turn on exemplars" stays a free decision.
    obs::MetricRegistry registry;
    std::vector<obs::Histogram *> hists;
    for (int h = 0; h < 16; ++h) {
        obs::Histogram &hist =
            registry.histogram("stage." + std::to_string(h));
        if (state.range(0) != 0)
            hist.set_exemplar_capacity(4);
        hists.push_back(&hist);
    }
    registry.counter("ops").add(1);
    registry.counter("errors").add(1);
    obs::WindowedAggregator agg(/*window_count=*/8,
                                /*interval_ns=*/1'000'000);
    std::uint64_t now_ns = 0;
    std::uint64_t i = 0;
    agg.observe(registry.snapshot(), now_ns);
    for (auto _ : state) {
        for (obs::Histogram *hist : hists)
            hist->record(1000 + (i & 4095),
                         state.range(0) ? i + 1 : 0);
        now_ns += 1'000'000;
        ++i;
        agg.observe(registry.snapshot(), now_ns);
    }
}
BENCHMARK(BM_WindowedObserve)->Arg(0)->Arg(1);

void
BM_BaselineWritePath(benchmark::State &state)
{
    core::BaselineConfig config;
    config.platform.expected_unique_chunks = 200'000;
    config.platform.cache_fraction = 0.028;
    config.platform.data_ssd.capacity_bytes = 32ull * kGiB;
    core::BaselineSystem system(config);

    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    workload::WorkloadGenerator gen(spec);
    for (auto _ : state) {
        const auto req = gen.next();
        if (!system.write(req.lba, req.data).is_ok())
            state.SkipWithError("write failed");
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_BaselineWritePath);

void
BM_FidrWritePath(benchmark::State &state)
{
    core::FidrConfig config;
    config.platform.expected_unique_chunks = 200'000;
    config.platform.cache_fraction = 0.028;
    config.platform.data_ssd.capacity_bytes = 32ull * kGiB;
    core::FidrSystem system(config);

    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    workload::WorkloadGenerator gen(spec);
    for (auto _ : state) {
        const auto req = gen.next();
        if (!system.write(req.lba, req.data).is_ok())
            state.SkipWithError("write failed");
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            kChunkSize);
}
BENCHMARK(BM_FidrWritePath);

// ---------------------------------------------------------------------
// --json mode: the persisted scalar-vs-SIMD series.

/** Wall-clock seconds per pass of `fn` (runs >= 4 passes, >= 0.25 s). */
template <typename Fn>
double
seconds_per_pass(Fn &&fn)
{
    using clock = std::chrono::steady_clock;
    fn();  // warm up: tables, caches, page faults
    int passes = 0;
    const auto begin = clock::now();
    std::chrono::duration<double> elapsed{};
    do {
        fn();
        ++passes;
        elapsed = clock::now() - begin;
    } while (passes < 4 || elapsed.count() < 0.25);
    return elapsed.count() / passes;
}

std::vector<simd::Target>
supported_targets()
{
    std::vector<simd::Target> out{simd::Target::kScalar};
    if (simd::supported(simd::Target::kSse4))
        out.push_back(simd::Target::kSse4);
    if (simd::supported(simd::Target::kAvx2))
        out.push_back(simd::Target::kAvx2);
    if (simd::supported(simd::Target::kAvx512))
        out.push_back(simd::Target::kAvx512);
    return out;
}

int
run_json_report(const std::string &path)
{
    constexpr std::size_t kCdcBytes = 16u << 20;
    constexpr std::size_t kShaBatch = 1024;
    bench::JsonReport report("micro_primitives");
    report.config("cdc_bytes", std::uint64_t{kCdcBytes})
        .config("sha_batch", std::uint64_t{kShaBatch})
        .config("sha_chunk_bytes", std::uint64_t{kChunkSize});

    // GearCdc boundary scan: one buffer, every target, cuts must match
    // the scalar reference exactly (the dispatch identity contract).
    const Buffer data = random_buffer(kCdcBytes, 11);
    chunking::GearCdc cdc;
    std::vector<chunking::ChunkSpan> reference_spans;
    double cdc_scalar_mb_s = 0;
    for (const simd::Target target : supported_targets()) {
        ScopedTarget scope(target);
        const auto spans = cdc.split(data);
        bool identical = true;
        if (target == simd::Target::kScalar) {
            reference_spans = spans;
        } else {
            identical = spans.size() == reference_spans.size();
            for (std::size_t i = 0; identical && i < spans.size(); ++i) {
                identical = spans[i].offset == reference_spans[i].offset &&
                            spans[i].length == reference_spans[i].length;
            }
        }
        const double s = seconds_per_pass([&] {
            benchmark::DoNotOptimize(cdc.split(data));
        });
        const double mb_s =
            static_cast<double>(kCdcBytes) / s / (1 << 20);
        if (target == simd::Target::kScalar)
            cdc_scalar_mb_s = mb_s;
        auto &json = report.begin_entry(
            std::string("cdc/") + simd::name(target));
        json.kv("kernel", "gear_cdc");
        json.kv("target", simd::name(target));
        json.kv("mb_per_s", mb_s);
        json.kv("speedup_vs_scalar", mb_s / cdc_scalar_mb_s);
        json.kv("identical_to_scalar", identical);
        report.end_entry();
        std::printf("  cdc/%-6s  %9.1f MB/s  (%.2fx)%s\n",
                    simd::name(target), mb_s, mb_s / cdc_scalar_mb_s,
                    identical ? "" : "  MISMATCH");
        if (!identical)
            return 1;
    }

    // Bulk SHA-256: a large hash batch through sha256_mb_hash, digests
    // checked against the scalar incremental context per target.
    std::vector<Buffer> chunks;
    for (std::uint64_t i = 0; i < kShaBatch; ++i)
        chunks.push_back(workload::make_chunk_content(i, 0.5));
    const std::vector<std::span<const std::uint8_t>> views(chunks.begin(),
                                                           chunks.end());
    std::vector<Digest> reference_digests(chunks.size());
    {
        ScopedTarget portable(simd::Target::kScalar);
        for (std::size_t i = 0; i < chunks.size(); ++i)
            reference_digests[i] = Sha256::hash(chunks[i]);
    }
    std::vector<Digest> digests(chunks.size());
    double sha_scalar_mb_s = 0;
    for (const simd::Target target : supported_targets()) {
        ScopedTarget scope(target);
        sha256_mb_hash(views, digests.data());
        const bool identical = digests == reference_digests;
        const double s = seconds_per_pass([&] {
            sha256_mb_hash(views, digests.data());
            benchmark::DoNotOptimize(digests.data());
        });
        const double mb_s =
            static_cast<double>(kShaBatch * kChunkSize) / s / (1 << 20);
        if (target == simd::Target::kScalar)
            sha_scalar_mb_s = mb_s;
        auto &json = report.begin_entry(
            std::string("sha256_mb/") + simd::name(target));
        json.kv("kernel", "sha256_mb");
        json.kv("target", simd::name(target));
        json.kv("lanes", std::uint64_t{sha256_mb_lanes()});
        json.kv("engine",
                hash_detail::name(hash_detail::engine_for(target)));
        json.kv("mb_per_s", mb_s);
        json.kv("speedup_vs_scalar", mb_s / sha_scalar_mb_s);
        json.kv("identical_to_scalar", identical);
        report.end_entry();
        std::printf("  sha/%-6s  %9.1f MB/s  (%.2fx)%s\n",
                    simd::name(target), mb_s, mb_s / sha_scalar_mb_s,
                    identical ? "" : "  MISMATCH");
        if (!identical)
            return 1;
    }

    // Every SHA-256 engine on the same chunks, whichever one dispatch
    // would pick: the batch entry point per engine, and the
    // single-message context on its portable and SHA-NI kernels (the
    // path the cluster router and scrub() hash through).
    const auto engine_row = [&](const std::string &name, const char *api,
                                double seconds) {
        const double mb_s =
            static_cast<double>(kShaBatch * kChunkSize) / seconds / (1 << 20);
        const bool identical = digests == reference_digests;
        auto &json = report.begin_entry("sha256_engine/" + name);
        json.kv("kernel", "sha256");
        json.kv("api", api);
        json.kv("mb_per_s", mb_s);
        json.kv("identical_to_reference", identical);
        report.end_entry();
        std::printf("  sha256_engine/%-16s  %9.1f MB/s%s\n", name.c_str(),
                    mb_s, identical ? "" : "  MISMATCH");
        return identical;
    };
    for (const hash_detail::Sha256Engine engine :
         hash_detail::kSha256Engines) {
        if (!hash_detail::supported(engine))
            continue;
        const auto hash_all = [&] {
            hash_detail::sha256_mb_hash_on(engine, views, digests.data());
            benchmark::DoNotOptimize(digests.data());
        };
        digests.assign(digests.size(), Digest{});
        const double s = seconds_per_pass(hash_all);
        if (!engine_row(hash_detail::name(engine), "sha256_mb_hash_on", s))
            return 1;
    }
    std::vector<std::pair<const char *, simd::Target>> single{
        {"portable_single", simd::Target::kScalar}};
    if (hash_detail::supported(hash_detail::Sha256Engine::kShaNi))
        single.emplace_back("shani_single", simd::detected());
    for (const auto &[name, target] : single) {
        ScopedTarget scope(target);
        const auto hash_all = [&] {
            for (std::size_t i = 0; i < chunks.size(); ++i)
                digests[i] = Sha256::hash(chunks[i]);
            benchmark::DoNotOptimize(digests.data());
        };
        digests.assign(digests.size(), Digest{});
        const double s = seconds_per_pass(hash_all);
        if (!engine_row(name, "Sha256::hash", s))
            return 1;
    }

    // LZ codec over the same chunks.  Compressed bytes must match the
    // digests the codec produced before its match finder was rewritten
    // for speed (tests/test_compress.cpp pins a larger corpus), and
    // decompression must return every chunk.
    std::vector<Buffer> blocks(chunks.size());
    const auto compress_all = [&](LzLevel level) {
        for (std::size_t i = 0; i < chunks.size(); ++i)
            blocks[i] = lz_compress(chunks[i], level);
    };
    const auto blocks_digest = [&] {
        std::uint64_t digest = 0xCBF29CE484222325ull;
        for (const Buffer &block : blocks)
            digest = (digest ^ fnv1a64(block)) * 0x100000001B3ull;
        return digest;
    };
    const auto lz_row = [&](const char *name, double seconds,
                            bool identical) {
        const double mb_s =
            static_cast<double>(kShaBatch * kChunkSize) / seconds / (1 << 20);
        auto &json = report.begin_entry(std::string("lz/") + name);
        json.kv("kernel", "lz");
        json.kv("mb_per_s", mb_s);
        json.kv("identical_to_reference", identical);
        report.end_entry();
        std::printf("  lz/%-16s  %9.1f MB/s%s\n", name, mb_s,
                    identical ? "" : "  MISMATCH");
        return identical;
    };
    struct LzLevelRow {
        const char *name;
        LzLevel level;
        std::uint64_t golden;  ///< Digest of the 1,024 blocks.
    };
    for (const LzLevelRow &row :
         {LzLevelRow{"compress_fast", LzLevel::kFast,
                     0x942DCA810287BB2Bull},
          LzLevelRow{"compress_default", LzLevel::kDefault,
                     0x924CDF903C73982Cull}}) {
        compress_all(row.level);
        const bool identical = blocks_digest() == row.golden;
        const double s = seconds_per_pass([&] { compress_all(row.level); });
        if (!lz_row(row.name, s, identical))
            return 1;
    }
    compress_all(LzLevel::kFast);  // the level the write path stores
    bool round_trips = true;
    for (std::size_t i = 0; round_trips && i < blocks.size(); ++i) {
        Result<Buffer> raw = lz_decompress(blocks[i]);
        round_trips = raw.is_ok() && raw.value() == chunks[i];
    }
    const double s = seconds_per_pass([&] {
        for (const Buffer &block : blocks)
            benchmark::DoNotOptimize(lz_decompress(block));
    });
    if (!lz_row("decompress", s, round_trips))
        return 1;

    return report.write_file(path).is_ok() ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--json" || arg.rfind("--json=", 0) == 0) {
            std::string path = "BENCH_primitives.json";
            if (const auto eq = arg.find('='); eq != std::string_view::npos)
                path = std::string(arg.substr(eq + 1));
            return run_json_report(path);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
