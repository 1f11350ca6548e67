// Wall-clock throughput of the batched read plane: sweeps chunk-cache
// capacity x cache tier mode (two-tier hot/warm vs two-tier + SSD
// spill ring, at the same DRAM budget) over the Table 3 Read-Mixed
// workload and a Zipfian hot-set read workload, timing read_batch()
// over the full read sequence.  The cache-off rows also sweep the
// read_batch size: 16 slots (the size perfbench's serve_mixed clients
// send) and 256, so the per-call cost of small batches shows next to
// the amortized one.  The cache columns show the Fig 6b
// fetch+decompress work a host-DRAM chunk cache removes under skew —
// and how much further a spill ring stretches the same budget.  Every
// cell must return byte-identical payloads; each cell's payload
// checksum is printed and written to BENCH_read.json, so
// scripts/bench_diff.py can check that two commits return the same
// bytes.
//
// Emits BENCH_read.json via the harness's uniform JsonReport schema.
// `--smoke` shrinks the request count and sweep for CI.  Every run
// gates the cache-off/on and 16/256-slot payload equivalence, the
// spill ring's improvement over plain two-tier, and the two-tier cache
// against the frozen counts of the cache modes it replaced.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "fidr/common/rng.h"
#include "fidr/common/thread_pool.h"

using namespace fidr;

namespace {

/** Slots per read_batch() call in every cell but the cache-off
 *  16-slot rows. */
constexpr std::size_t kBatchSlots = 256;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One prepared read workload: write set + read LBA sequence. */
struct ReadWorkload {
    std::string name;
    std::vector<workload::IoRequest> writes;
    std::vector<Lba> reads;
};

/**
 * Table 3 Read-Mixed: the generator's own 30% read mix, with the
 * read requests lifted out into the post-flush read sequence.
 */
ReadWorkload
read_mixed_workload(std::size_t requests)
{
    workload::WorkloadSpec spec = workload::read_mixed_spec();
    workload::WorkloadGenerator gen(spec);
    ReadWorkload out;
    out.name = "Read-Mixed";
    for (std::size_t i = 0; i < requests; ++i) {
        const workload::IoRequest req = gen.next();
        if (req.dir == IoDir::kWrite) {
            out.writes.push_back(req);
        } else {
            out.reads.push_back(req.lba);
        }
    }
    return out;
}

/**
 * Zipfian hot set: unique chunks written once, then reads drawn
 * rank-skewed (exponent ~0.99) over the written LBAs via an exact
 * harmonic-CDF inversion — the small hot set dominates, which is the
 * regime a PBN-keyed chunk cache exists for.
 */
ReadWorkload
zipfian_workload(std::size_t unique_chunks, std::size_t reads)
{
    workload::WorkloadSpec spec;
    spec.name = "zipf-writes";
    spec.dedup_ratio = 0.0;
    spec.comp_ratio = 0.5;
    spec.address_space_chunks = unique_chunks * 4;
    spec.read_fraction = 0.0;
    spec.seed = 0x21Fu;
    workload::WorkloadGenerator gen(spec);

    ReadWorkload out;
    out.name = "Zipfian hot set";
    out.writes = gen.batch(unique_chunks);

    // CDF of the zipf(0.99) rank distribution over the write order.
    std::vector<double> cdf(unique_chunks);
    double total = 0;
    for (std::size_t rank = 0; rank < unique_chunks; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), 0.99);
        cdf[rank] = total;
    }
    Rng rng(0x21F2ull);
    for (std::size_t i = 0; i < reads; ++i) {
        const double u = rng.next_double() * total;
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        const std::size_t rank =
            static_cast<std::size_t>(it - cdf.begin());
        out.reads.push_back(out.writes[rank].lba);
    }
    return out;
}

/**
 * Cache configuration of one sweep column: "two" is the two-tier
 * hot/warm cache with ghost auto-sizing and batched demotion;
 * "two+spill" additionally spills evicted compressed chunks to a
 * reserved data-SSD ring.
 */
struct TierMode {
    const char *name = "off";
    std::uint64_t spill_bytes = 0;
};

/**
 * One cell of a cache mode this sweep no longer runs, with the counts
 * it produced when it was retired (DESIGN.md §16): "one" is the
 * one-tier decompressed LRU, "two K=1" the two-tier cache demoting
 * exactly to its hot target.  The counts are integers and
 * deterministic (the read plane bills serially; repeated runs match
 * exactly), so the gates that once compared against these columns
 * compare against the frozen values with the same strictness.
 */
struct RetiredCell {
    const char *workload;
    std::uint64_t cache_bytes;
    const char *mode;
    std::uint64_t ssd_fetches;
    std::uint64_t cache_hits;
    std::uint64_t demote_passes;
};

constexpr RetiredCell kRetiredCells[] = {
    // --smoke (1 MiB is the only budget).
    {"Zipfian hot set", 1ull << 20,  "one",      981,   992,     0},
    {"Zipfian hot set", 1ull << 20,  "two K=1",  847,  1126,  1452},
    {"Read-Mixed",      1ull << 20,  "two K=1",  129,   275,    70},
    // Full run.
    {"Zipfian hot set", 4ull << 20,  "one",     9664, 13032,     0},
    {"Zipfian hot set", 32ull << 20, "one",     4133, 18563,     0},
    {"Zipfian hot set", 4ull << 20,  "two K=1", 7323, 15373, 16235},
    {"Read-Mixed",      4ull << 20,  "two K=1", 1439,  7039,  1964},
};

const RetiredCell &
retired(const std::string &workload, std::uint64_t cache_bytes,
        const std::string &mode)
{
    for (const RetiredCell &cell : kRetiredCells) {
        if (workload == cell.workload && cache_bytes == cell.cache_bytes &&
            mode == cell.mode)
            return cell;
    }
    FIDR_CHECK(false);
    return kRetiredCells[0];
}

struct CellRun {
    std::uint64_t cache_bytes = 0;
    std::string tier = "off";
    std::size_t read_batch = 0;  ///< Slots per read_batch() call.
    double seconds = 0;
    double chunks_per_s = 0;
    double gb_per_s = 0;
    std::uint64_t ssd_fetches = 0;
    std::uint64_t cache_hits = 0;
    double cache_hit_rate = 0;
    std::uint64_t warm_hits = 0;
    std::uint64_t spill_hits = 0;
    std::uint64_t spill_writes = 0;
    std::uint64_t demotions = 0;
    std::uint64_t demote_passes = 0;
    std::uint64_t payload_checksum = 0;  ///< FNV over every slot.
};

CellRun
run_cell(const ReadWorkload &workload, std::uint64_t cache_bytes,
         const TierMode &mode, std::size_t batch_size)
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.nic.hash_lanes = 1;
    config.compress_lanes = 1;
    config.chunk_cache_bytes = cache_bytes;
    config.chunk_cache_shards = cache_bytes > 0 ? 4 : 1;
    config.chunk_cache_spill_bytes = mode.spill_bytes;
    core::FidrSystem system(config);

    for (const workload::IoRequest &req : workload.writes) {
        Buffer data = req.data;
        FIDR_CHECK(system.write(req.lba, std::move(data)).is_ok());
    }
    FIDR_CHECK(system.flush().is_ok());

    CellRun cell;
    cell.cache_bytes = cache_bytes;
    cell.read_batch = batch_size;
    std::uint64_t checksum = 0xCBF29CE484222325ull;
    const double t0 = now_s();
    for (std::size_t base = 0; base < workload.reads.size();
         base += batch_size) {
        const std::size_t n =
            std::min(batch_size, workload.reads.size() - base);
        const std::span<const Lba> lbas(&workload.reads[base], n);
        const std::vector<Result<Buffer>> batch = system.read_batch(lbas);
        for (const Result<Buffer> &slot : batch) {
            FIDR_CHECK(slot.is_ok());
            for (const std::uint8_t byte : slot.value()) {
                checksum ^= byte;
                checksum *= 0x100000001B3ull;
            }
        }
    }
    cell.seconds = now_s() - t0;
    cell.payload_checksum = checksum;
    cell.chunks_per_s =
        static_cast<double>(workload.reads.size()) / cell.seconds;
    cell.gb_per_s = static_cast<double>(workload.reads.size()) *
                    kChunkSize / cell.seconds / 1e9;

    const obs::ObsSnapshot snap = system.obs_snapshot();
    cell.tier = mode.name;
    cell.ssd_fetches = snap.counters.at("read.ssd_fetches");
    cell.cache_hits = snap.counters.at("read.cache.hits");
    cell.cache_hit_rate = snap.gauges.at("read.cache.hit_rate");
    cell.warm_hits = snap.counters.at("read.cache.warm.hits");
    cell.spill_hits = snap.counters.at("read.cache.spill.hits");
    cell.spill_writes = snap.counters.at("read.cache.spill.writes");
    cell.demotions = snap.counters.at("read.cache.demotions");
    cell.demote_passes = snap.counters.at("read.cache.demote_passes");
    return cell;
}

void
print_cells(const ReadWorkload &workload,
            const std::vector<CellRun> &cells)
{
    std::printf("%s: %zu writes, %zu reads\n", workload.name.c_str(),
                workload.writes.size(), workload.reads.size());
    std::printf("  %10s | %9s | %5s | %9s | %12s |"
                " %11s | %8s | %9s | %10s | %9s | %9s | %16s\n",
                "cache", "tier", "slots", "seconds", "chunks/s",
                "ssd fetches", "hit rate", "warm hits", "spill hits",
                "demotions", "dem pass", "payload checksum");
    for (const CellRun &cell : cells) {
        std::printf("  %7.0f MB | %9s | %5zu | %9.3f |"
                    " %12.0f | %11llu | %7.1f%% | %9llu | %10llu |"
                    " %9llu | %9llu | %016llx\n",
                    static_cast<double>(cell.cache_bytes) / (1 << 20),
                    cell.tier.c_str(), cell.read_batch, cell.seconds,
                    cell.chunks_per_s,
                    static_cast<unsigned long long>(cell.ssd_fetches),
                    cell.cache_hit_rate * 100.0,
                    static_cast<unsigned long long>(cell.warm_hits),
                    static_cast<unsigned long long>(cell.spill_hits),
                    static_cast<unsigned long long>(cell.demotions),
                    static_cast<unsigned long long>(
                        cell.demote_passes),
                    static_cast<unsigned long long>(
                        cell.payload_checksum));
    }
    std::printf("\n");
}

}  // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
    }

    const std::size_t requests = smoke ? 3'000 : 24'000;
    const std::size_t zipf_uniques = smoke ? 1'000 : 6'000;
    const std::size_t zipf_reads = smoke ? 4'000 : 36'000;
    // The cache columns run 256-slot batches; cache-off also runs
    // 16-slot batches (the perfbench read_batch size).
    const std::vector<std::size_t> cache_off_batches = {16, kBatchSlots};
    // The smoke budget is 1 MiB (not 4): the smoke working set is
    // 1000 x 4 KiB = 4 MiB, so a 4 MiB cache holds everything and the
    // comparison against the one-tier counts degenerates.  The
    // full-run 4 MiB budget is the constrained cell (working set
    // 24 MiB raw); 32 MiB holds the whole decompressed set, so every
    // mode sits at the compulsory-miss floor there and only the
    // no-regression gate applies.
    const std::vector<std::uint64_t> cache_sweep =
        smoke ? std::vector<std::uint64_t>{0, 1ull << 20}
              : std::vector<std::uint64_t>{0, 4ull << 20, 32ull << 20};
    const std::uint64_t spill_bytes = smoke ? 8ull << 20 : 64ull << 20;
    const TierMode kOff{"off", 0};
    const TierMode kTwo{"two", 0};
    const TierMode kTwoSpill{"two+spill", spill_bytes};

    // One sweep column per (cache budget, tier mode); cache-off runs
    // a single "off" column, every budget > 0 runs both modes at the
    // SAME DRAM budget.
    struct SweepConfig {
        std::uint64_t cache_bytes;
        TierMode mode;
    };
    std::vector<SweepConfig> configs;
    for (const std::uint64_t cache_bytes : cache_sweep) {
        if (cache_bytes == 0) {
            configs.push_back({cache_bytes, kOff});
        } else {
            configs.push_back({cache_bytes, kTwo});
            configs.push_back({cache_bytes, kTwoSpill});
        }
    }

    bench::print_header("Batched read plane wall-clock throughput",
                        "Fig 6b read flow; coalescing + chunk cache");
    std::printf("hardware lanes: %zu, batch size: %zu (cache off: 16 "
                "and %zu)%s\n\n",
                ThreadPool::hardware_lanes(), kBatchSlots, kBatchSlots,
                smoke ? " (smoke)" : "");

    bench::JsonReport report("read_throughput");
    report.config("hardware_lanes", ThreadPool::hardware_lanes())
        .config("smoke", smoke)
        .config("chunk_bytes", static_cast<std::uint64_t>(kChunkSize));

    const ReadWorkload workloads[2] = {
        read_mixed_workload(requests),
        zipfian_workload(zipf_uniques, zipf_reads),
    };
    for (const ReadWorkload &workload : workloads) {
        std::vector<CellRun> cells;
        for (const SweepConfig &config : configs) {
            const std::vector<std::size_t> batches =
                config.cache_bytes == 0
                    ? cache_off_batches
                    : std::vector<std::size_t>{kBatchSlots};
            for (const std::size_t batch : batches)
                cells.push_back(run_cell(workload, config.cache_bytes,
                                         config.mode, batch));
        }
        print_cells(workload, cells);

        // The cell of one (cache budget, tier mode, read_batch size)
        // column.
        const auto cell_at = [&](std::uint64_t cache_bytes,
                                 const char *tier,
                                 std::size_t read_batch =
                                     kBatchSlots) -> const CellRun & {
            for (const CellRun &cell : cells) {
                if (cell.cache_bytes == cache_bytes &&
                    cell.tier == tier && cell.read_batch == read_batch)
                    return cell;
            }
            FIDR_CHECK(false);
            return cells[0];
        };

        // Determinism gate, every run: payloads are invariant across
        // the whole sweep (the cache, its tiers and the read_batch
        // size are pure optimizations).
        for (const CellRun &cell : cells) {
            FIDR_CHECK(cell.payload_checksum ==
                       cells[0].payload_checksum);
        }
        // Cache efficacy gates on the skewed workload.  The equal-
        // budget comparison runs at the smallest nonzero budget, where
        // the one-tier cache was capacity-constrained: keeping the
        // warm tier compressed must strictly raise the hits and
        // strictly cut data-SSD fetches below the frozen one-tier
        // counts, and the spill ring must absorb capacity misses on
        // top of that.  At budgets that hold the whole working set
        // every mode sits at the compulsory-miss floor, so larger
        // budgets only gate no-regression.  Coalescing probes each
        // batch's unique chunks once whatever the mode, so comparing
        // hit counts compares hit rates.
        if (workload.name == "Zipfian hot set") {
            const CellRun &cache_off = cell_at(0, "off");
            FIDR_CHECK(cache_off.cache_hits == 0);
            const std::uint64_t tight = cache_sweep[1];
            for (std::size_t c = 1; c < cache_sweep.size(); ++c) {
                const std::uint64_t budget = cache_sweep[c];
                const RetiredCell &one =
                    retired(workload.name, budget, "one");
                const CellRun &two = cell_at(budget, "two");
                const CellRun &spill = cell_at(budget, "two+spill");
                FIDR_CHECK(two.cache_hits > 0);
                FIDR_CHECK(two.ssd_fetches < cache_off.ssd_fetches);
                FIDR_CHECK(two.warm_hits > 0);
                FIDR_CHECK(two.ssd_fetches <= one.ssd_fetches);
                FIDR_CHECK(spill.ssd_fetches <= two.ssd_fetches);
                if (budget == tight) {
                    FIDR_CHECK(two.cache_hits > one.cache_hits);
                    FIDR_CHECK(two.ssd_fetches < one.ssd_fetches);
                    FIDR_CHECK(spill.spill_hits > 0);
                    FIDR_CHECK(spill.cache_hit_rate >
                               two.cache_hit_rate);
                    FIDR_CHECK(spill.ssd_fetches < two.ssd_fetches);
                }
            }
        }

        // Batched-demotion gate at the tight budget: demoting up to
        // 8 tail entries per rebalance pass leaves slack below the hot
        // target, so a working set that barely overflows the hot tier
        // pays the demotion bookkeeping once per ~8 inserts instead of
        // on every one (the DESIGN.md §16 Read-Mixed near-fit churn).
        // Gates: the cell actually demotes, it runs strictly fewer
        // demotion passes than the frozen demote-to-target (K=1)
        // count, and fetches never regress on Read-Mixed — the
        // near-fit workload the batching exists for (a demoted entry
        // drops its raw buffer, so the slack only adds compressed
        // residents).  On the deep-churn Zipfian sweep the LRU-order
        // perturbation may move a handful of tail fetches either way,
        // bounded at 1%.
        {
            const std::uint64_t tight = cache_sweep[1];
            const RetiredCell &unbatched =
                retired(workload.name, tight, "two K=1");
            const CellRun &batched = cell_at(tight, "two");
            FIDR_CHECK(batched.demote_passes > 0);
            FIDR_CHECK(batched.demote_passes < unbatched.demote_passes);
            if (workload.name == "Read-Mixed") {
                FIDR_CHECK(batched.ssd_fetches <= unbatched.ssd_fetches);
            } else {
                FIDR_CHECK(static_cast<double>(batched.ssd_fetches) <=
                           1.01 * static_cast<double>(
                                      unbatched.ssd_fetches));
            }
        }

        obs::JsonWriter &json = report.begin_entry("read_sweep");
        json.kv("workload", workload.name);
        json.kv("writes",
                static_cast<std::uint64_t>(workload.writes.size()));
        json.kv("reads",
                static_cast<std::uint64_t>(workload.reads.size()));
        json.key("runs").begin_array();
        for (const CellRun &cell : cells) {
            json.begin_object();
            json.kv("cache_bytes", cell.cache_bytes);
            json.kv("tier", cell.tier);
            json.kv("read_batch",
                    static_cast<std::uint64_t>(cell.read_batch));
            json.kv("seconds", cell.seconds);
            json.kv("chunks_per_s", cell.chunks_per_s);
            json.kv("gb_per_s", cell.gb_per_s);
            json.kv("ssd_fetches", cell.ssd_fetches);
            json.kv("cache_hits", cell.cache_hits);
            json.kv("cache_hit_rate", cell.cache_hit_rate);
            json.kv("warm_hits", cell.warm_hits);
            json.kv("spill_hits", cell.spill_hits);
            json.kv("spill_writes", cell.spill_writes);
            json.kv("demotions", cell.demotions);
            json.kv("demote_passes", cell.demote_passes);
            json.kv("payload_checksum", cell.payload_checksum);
            json.end_object();
        }
        json.end_array();
        report.end_entry();
    }
    FIDR_CHECK(report.write_file("BENCH_read.json").is_ok());
    return 0;
}
