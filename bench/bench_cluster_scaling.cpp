// Cluster scale-out: aggregate throughput of N FIDR nodes behind the
// cluster router, nodes {1,2,4} x routing {lba-hash, fingerprint} over
// the Table 3 workloads (the paper's horizontal-scaling story: capacity
// and throughput grow by adding FIDR servers, Sec 1/Sec 8).
//
// Emits BENCH_cluster.json and enforces these gates:
//   1. cluster-of-1 is bit-identical to a bare FidrSystem — reduction
//      stats, ledgers, journal occupancy, and every payload byte;
//   2. 4-node aggregate writes/s >= 3x the 1-node cell (near-linear);
//   3. fingerprint-routed cluster dedup within 2% of single-node
//      global dedup (content-hash ownership co-locates duplicates);
//   4. (--smoke) the fingerprint 4-node cell suppresses at least
//      kSmokeSuppressedFloor writes and moves at most
//      kSmokeNetBytesCeiling fabric bytes — frozen counts of the
//      deterministic model, so losing duplicate suppression (e.g. refs
//      no longer served from the owner's NIC buffer) fails here.
//
// `--smoke` shrinks the sweep to one workload for CI; the gates still
// run (scripts/tier1.sh).  Throughput is the ledger-model projection
// (core::project per node + fabric busy time), not wall clock, so the
// numbers are host-independent like every other figure bench.

#include <cstring>
#include <set>

#include "fidr/cluster/router.h"
#include "fidr/workload/table3.h"
#include "harness.h"

using namespace fidr;

namespace {

core::FidrConfig
cluster_node_config()
{
    core::FidrConfig config;
    config.platform = bench::eval_platform();
    config.journal_metadata = true;  // The identity gate covers it.
    return config;
}

/** Everything the gates compare about one driven system. */
struct DriveResult {
    core::ReductionStats reduction;
    std::uint64_t journal_records = 0;
    double mem_total = 0;   ///< Host-DRAM ledger bytes.
    double cpu_seconds = 0; ///< CPU ledger core-seconds.
};

DriveResult
drive_server(core::StorageServer &server, const core::FidrSystem &node0,
             const workload::WorkloadSpec &spec, int requests,
             std::set<Lba> *written)
{
    workload::WorkloadGenerator gen(spec);
    for (int i = 0; i < requests; ++i) {
        const workload::IoRequest req = gen.next();
        Status status;
        if (req.dir == IoDir::kWrite) {
            if (written != nullptr)
                written->insert(req.lba);
            status = server.write(req.lba, req.data);
        } else {
            status = server.read(req.lba).status();
        }
        if (!status.is_ok()) {
            std::fprintf(stderr, "drive failed: %s\n",
                         status.to_string().c_str());
            std::abort();
        }
    }
    const Status flushed = server.flush();
    if (!flushed.is_ok()) {
        std::fprintf(stderr, "flush failed: %s\n",
                     flushed.to_string().c_str());
        std::abort();
    }
    DriveResult out;
    out.reduction = server.reduction();
    out.journal_records = node0.journal_records();
    out.mem_total = node0.platform().fabric().host_memory().total();
    out.cpu_seconds = node0.platform().cpu().ledger().total();
    return out;
}

// Gate 4 bounds: the Write-H fingerprint 4-node cell of --smoke.
constexpr std::uint64_t kSmokeSuppressedFloor = 7023;
constexpr std::uint64_t kSmokeNetBytesCeiling = 4'532'336;

bool
near(double a, double b, double tolerance)
{
    return std::abs(a - b) <= tolerance;
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
    const int requests = smoke ? 8'000 : 40'000;

    bench::print_header("Cluster scale-out: aggregate throughput",
                        "Sec 1/Sec 8 scale-out premise, Table 3 "
                        "workloads");

    std::vector<workload::WorkloadSpec> specs = workload::table3_specs();
    if (smoke)
        specs.resize(1);

    const std::size_t node_counts[] = {1, 2, 4};
    const cluster::Routing routings[] = {cluster::Routing::kLbaHash,
                                         cluster::Routing::kFingerprint};

    bench::JsonReport report("cluster_scaling");
    report.config("requests", static_cast<std::uint64_t>(requests));
    report.config("smoke", smoke);
    report.config("link_gbps",
                  cluster::FabricConfig{}.link_bandwidth / 1e9);

    int gate_failures = 0;
    std::printf("%-12s %-12s %5s | %10s %9s | %7s %7s | %s\n",
                "workload", "routing", "nodes", "writes/s", "speedup",
                "dedup", "net GB", "bound by");

    for (const workload::WorkloadSpec &spec : specs) {
        // Bare single-system reference: the identity + dedup yardstick.
        core::FidrSystem bare(cluster_node_config());
        std::set<Lba> written;
        const DriveResult bare_result =
            drive_server(bare, bare, spec, requests, &written);

        for (const cluster::Routing routing : routings) {
            double one_node_writes_per_s = 0;
            for (const std::size_t nodes : node_counts) {
                cluster::ClusterConfig cconfig;
                cconfig.nodes = nodes;
                cconfig.routing = routing;
                cluster::ClusterRouter router(cconfig,
                                              cluster_node_config());
                const DriveResult result = drive_server(
                    router, router.node(0).system(), spec, requests,
                    nullptr);
                const cluster::ClusterProjection proj = router.project();
                if (nodes == 1)
                    one_node_writes_per_s = proj.aggregate_writes_per_s;
                const double speedup =
                    one_node_writes_per_s > 0
                        ? proj.aggregate_writes_per_s /
                              one_node_writes_per_s
                        : 0;

                // Gate 1: the cluster-of-1 IS the bare system.
                bool identical = true;
                if (nodes == 1) {
                    const core::ReductionStats &a = bare_result.reduction;
                    const core::ReductionStats &b = result.reduction;
                    identical =
                        a.unique_chunks == b.unique_chunks &&
                        a.duplicates == b.duplicates &&
                        a.raw_bytes == b.raw_bytes &&
                        a.stored_bytes == b.stored_bytes &&
                        bare_result.journal_records ==
                            result.journal_records &&
                        bare_result.mem_total == result.mem_total &&
                        bare_result.cpu_seconds == result.cpu_seconds;
                    // Every payload byte (after the ledger snapshot:
                    // these reads bill both systems, gates don't care).
                    for (const Lba lba : written) {
                        if (bare.read(lba).value() !=
                            router.read(lba).value()) {
                            identical = false;
                            break;
                        }
                    }
                    if (!identical) {
                        std::fprintf(stderr,
                                     "GATE FAIL: cluster-of-1 (%s, %s) "
                                     "differs from bare FidrSystem\n",
                                     spec.name.c_str(),
                                     routing_name(routing));
                        ++gate_failures;
                    }
                }

                // Gate 2: near-linear scaling at 4 nodes.
                if (nodes == 4 && speedup < 3.0) {
                    std::fprintf(stderr,
                                 "GATE FAIL: %s/%s 4-node speedup "
                                 "%.2fx < 3x\n",
                                 spec.name.c_str(),
                                 routing_name(routing), speedup);
                    ++gate_failures;
                }

                // Gate 3: fingerprint routing preserves global dedup.
                const double dedup = result.reduction.dedup_rate();
                if (routing == cluster::Routing::kFingerprint &&
                    nodes == 4 &&
                    !near(dedup, bare_result.reduction.dedup_rate(),
                          0.02)) {
                    std::fprintf(
                        stderr,
                        "GATE FAIL: %s fingerprint dedup %.4f vs "
                        "single-node %.4f (>2%%)\n",
                        spec.name.c_str(), dedup,
                        bare_result.reduction.dedup_rate());
                    ++gate_failures;
                }

                // Gate 4: duplicate suppression and wire bytes hold.
                if (smoke && routing == cluster::Routing::kFingerprint &&
                    nodes == 4) {
                    const std::uint64_t suppressed =
                        router.stats().writes_suppressed;
                    const std::uint64_t net = router.fabric().total_bytes();
                    if (suppressed < kSmokeSuppressedFloor) {
                        std::fprintf(stderr,
                                     "GATE FAIL: %s fingerprint 4-node "
                                     "suppressed %llu writes < %llu\n",
                                     spec.name.c_str(),
                                     static_cast<unsigned long long>(
                                         suppressed),
                                     static_cast<unsigned long long>(
                                         kSmokeSuppressedFloor));
                        ++gate_failures;
                    }
                    if (net > kSmokeNetBytesCeiling) {
                        std::fprintf(stderr,
                                     "GATE FAIL: %s fingerprint 4-node "
                                     "net bytes %llu > %llu\n",
                                     spec.name.c_str(),
                                     static_cast<unsigned long long>(net),
                                     static_cast<unsigned long long>(
                                         kSmokeNetBytesCeiling));
                        ++gate_failures;
                    }
                }

                double node_seconds_max = 0;
                double link_seconds_max = 0;
                for (const auto &entry : proj.nodes) {
                    node_seconds_max =
                        std::max(node_seconds_max, entry.seconds);
                    link_seconds_max =
                        std::max(link_seconds_max, entry.link_seconds);
                }
                const bool link_bound =
                    link_seconds_max > node_seconds_max;

                std::printf(
                    "%-12s %-12s %5zu | %10.0f %8.2fx | %6.1f%% %7.2f "
                    "| %s\n",
                    spec.name.c_str(), routing_name(routing), nodes,
                    proj.aggregate_writes_per_s, speedup, 100 * dedup,
                    static_cast<double>(router.fabric().total_bytes()) /
                        1e9,
                    link_bound ? "fabric" : "nodes");

                auto &entry = report.begin_entry(
                    spec.name + "/n" + std::to_string(nodes) + "/" +
                    routing_name(routing));
                entry.kv("workload", spec.name);
                entry.kv("nodes", static_cast<std::uint64_t>(nodes));
                entry.kv("routing", routing_name(routing));
                entry.kv("writes_per_s", proj.aggregate_writes_per_s);
                entry.kv("client_bytes_per_s",
                         proj.aggregate_bytes_per_s);
                entry.kv("speedup_vs_1node", speedup);
                entry.kv("dedup_rate", dedup);
                entry.kv("single_node_dedup_rate",
                         bare_result.reduction.dedup_rate());
                entry.kv("cluster_seconds", proj.cluster_seconds);
                entry.kv("node_seconds_max", node_seconds_max);
                entry.kv("link_seconds_max", link_seconds_max);
                entry.kv("net_bytes", router.fabric().total_bytes());
                entry.kv("net_messages",
                         router.fabric().total_messages());
                entry.kv("writes_suppressed",
                         router.stats().writes_suppressed);
                entry.kv("unmaps_sent", router.stats().unmaps_sent);
                if (nodes == 1)
                    entry.kv("identical_to_bare", identical);
                report.end_entry();
            }
        }
    }

    const Status wrote = report.write_file("BENCH_cluster.json");
    if (!wrote.is_ok()) {
        std::fprintf(stderr, "%s\n", wrote.to_string().c_str());
        return 1;
    }
    if (gate_failures > 0) {
        std::fprintf(stderr, "\n%d gate failure(s)\n", gate_failures);
        return 1;
    }
    std::printf("\nAll gates passed: cluster-of-1 bit-identical, "
                "4-node >= 3x, fingerprint dedup within 2%%%s.\n",
                smoke ? ", suppression floor and wire-byte ceiling" : "");
    return 0;
}
