#!/usr/bin/env bash
# Tier-1 verification:
#   1. full build + ctest with tracepoints + failpoints compiled in;
#   2. the same with -DFIDR_TRACE=OFF -DFIDR_FAULT=OFF, proving both
#      no-op builds (failpoint sites fold to constants), compiled with
#      -DFIDR_WERROR=ON so no warning lands unnoticed;
#   3. the parallel data plane and obs registries under TSan;
#   4. fault stage: the crash-consistency sweep, the failpoint /
#      degraded-mode tests, the journal corpus, the cluster router, the
#      read plane and chunk cache, and the LZ codec's golden-bytes,
#      property and differential decoder fuzz suites under ASan+UBSan
#      (ctest labels: fault = failpoint/journal/hwtree/cluster suites,
#      crash = the power-cut sweep, codec = test_compress + test_fuzz,
#      whose word-wide loads and 8-byte match copies are exactly what
#      the sanitizers must see, read = test_read_plane +
#      test_chunk_cache_tiers, tables = test_common + test_tables +
#      test_ssd, whose open-addressing FlatMap indexes — backward-shift
#      erase over hand-mapped cell arrays — back the LBA-PBA table and
#      the SSD page table, core = test_nic + test_core + test_accel +
#      test_extensions: the NIC's sealed-batch handoff, the dedup probe
#      loop, the shared dedup billing, the baseline/FIDR systems and
#      their space accounting, GC and scrub over the LBA-PBA table);
#   5. overhead smoke check: the traced+faultable build (both disabled
#      at runtime, the production default) stays within 15% of the
#      fully stripped build on the FIDR write-path micro bench; the
#      same 1.15x envelope gates the request-tracing observability
#      paths (each
#      check compares medians of 5 interleaved runs per side) —
#      request-tagged tracepoints vs plain ones, exemplar-armed
#      histogram records vs plain ones, and exemplar-armed windowed
#      aggregation vs plain — so none of the new machinery taxes a
#      deployment that leaves it on;
#   6. write-path pipelining smoke: bench_pipeline_depth --smoke gates
#      on depth-invariant reduction results and pipeline occupancy
#      (plus, on multi-lane hosts, a median wall-clock speedup over 5
#      alternating depth-1 / depth-4 runs);
#   7. read-plane smoke: bench_read_throughput --smoke gates on
#      lane/cache-invariant payloads (capacity 0 = cache off is the
#      equivalence baseline), a nonzero Zipfian chunk-cache hit rate,
#      and fewer data-SSD fetch DMAs with the cache on;
#   8. GC steady-state smoke: bench_gc_steadystate --smoke gates on
#      churn never failing a write, GC overlapping in-flight batches,
#      the reserve watermark holding, and a clean fsck;
#   9. SIMD dispatch: the full suite re-run with FIDR_SIMD=scalar
#      (every result must survive on hosts without vector kernels),
#      and the cross-target boundary/digest fuzz suite plus the
#      SHA-256 engine tests (NIST vectors on every engine, SHA-NI vs
#      portable differential fuzz) under ASan+UBSan, so lane
#      arithmetic and the SHA-NI kernel's unaligned loads are checked
#      for UB, not just for identical output;
#  10. cluster scale-out smoke: bench_cluster_scaling --smoke gates on
#      cluster-of-1 bit-identity with a bare FidrSystem, >= 3x 4-node
#      aggregate write throughput, and fingerprint-routed dedup within
#      2% of single-node global dedup;
#  11. bench regression diff (FATAL): the BENCH_*.json reports the
#      smoke stages above leave in the build tree are compared against
#      the committed smoke baselines in bench/baselines/smoke (the
#      full-run BENCH_*.json at the repo root never pair with smoke
#      cells).  >15% throughput drops and any differing read payload
#      checksum fail tier-1.  Known-noisy wall-clock metrics are waived
#      per bench via scripts/bench_allowlist.txt; model-based reports
#      (the cluster projection) always gate.
# Run from the repo root:
#
#   scripts/tier1.sh [build-dir] [notrace-build-dir] [tsan-build-dir] \
#                    [asan-build-dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
NOTRACE_DIR="${2:-build-notrace}"
TSAN_DIR="${3:-build-tsan}"
ASAN_DIR="${4:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== tier-1: build (FIDR_TRACE=ON FIDR_FAULT=ON) + full test suite =="
cmake -B "$BUILD_DIR" -S . -DFIDR_TRACE=ON -DFIDR_FAULT=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== tier-1: full test suite with SIMD kernels forced off =="
# Everything must pass on the portable scalar path: that is what a
# host without SSE4/AVX2/AVX-512 (or a non-x86 build) runs, and the
# reference the SIMD identity proofs lean on.
FIDR_SIMD=scalar ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$JOBS"

echo "== tier-1: build (FIDR_TRACE=OFF FIDR_FAULT=OFF FIDR_WERROR=ON) + full test suite =="
cmake -B "$NOTRACE_DIR" -S . -DFIDR_TRACE=OFF -DFIDR_FAULT=OFF \
    -DFIDR_WERROR=ON
cmake --build "$NOTRACE_DIR" -j "$JOBS"
ctest --test-dir "$NOTRACE_DIR" --output-on-failure -j "$JOBS"

echo "== tier-1: thread-pool/determinism/obs/pipeline tests under TSan =="
cmake -B "$TSAN_DIR" -S . -DFIDR_SANITIZE=thread \
    -DFIDR_BUILD_BENCHES=OFF -DFIDR_BUILD_EXAMPLES=OFF \
    -DFIDR_BUILD_TOOLS=OFF
cmake --build "$TSAN_DIR" -j "$JOBS" \
    --target test_thread_pool test_parallel_determinism test_obs \
    test_pipeline_determinism test_read_plane test_gc test_cluster
"$TSAN_DIR"/tests/test_thread_pool
"$TSAN_DIR"/tests/test_parallel_determinism
"$TSAN_DIR"/tests/test_obs
# Write-path pipelining at depth 4: bit-identity across depths/shards
# and the power-cut-with-batches-in-flight crash sweep, raced by TSan.
"$TSAN_DIR"/tests/test_pipeline_determinism
# Read plane: batched reads against the sharded two-tier chunk cache
# (hot/warm/spill lookups, fills) and atomic SSD read counters, raced
# by TSan.
"$TSAN_DIR"/tests/test_read_plane
# Incremental GC on the commit sequencer raced against in-flight write
# batches and reads (relocation, cache rekey across
# all tiers incl. the spill ring, fsck).
"$TSAN_DIR"/tests/test_gc
# Multi-node cluster: concurrent client writers, a reader, and a GC
# thread racing on the router's per-node locks across 3 nodes (the
# router runs each call's node sub-batches in turn on the caller),
# plus the serial-billing locks on the simulated fabric.
"$TSAN_DIR"/tests/test_cluster

echo "== tier-1: fault injection + crash sweep + read plane + cluster + LZ codec + tables + NIC/core/accel under ASan/UBSan =="
cmake -B "$ASAN_DIR" -S . -DFIDR_SANITIZE=address \
    -DFIDR_BUILD_BENCHES=OFF -DFIDR_BUILD_EXAMPLES=OFF \
    -DFIDR_BUILD_TOOLS=OFF
cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_fault test_crash_sweep test_journal test_hwtree \
    test_pipeline_determinism test_gc test_compress test_fuzz \
    test_read_plane test_chunk_cache_tiers test_cluster \
    test_common test_tables test_ssd test_nic test_core test_accel \
    test_extensions
ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" \
    -L 'fault|crash|codec|read|tables|core'

echo "== tier-1: SIMD kernels under ASan/UBSan (cross-target fuzz) =="
# The dispatch fuzz suite runs every kernel (scalar/sse4/avx2/avx512,
# whatever the host admits) over the same inputs, and test_hash runs
# every SHA-256 engine (portable, x4_sse4, x8_avx2, shani), so one
# sanitized run covers all the vector code paths plus the
# forced-scalar determinism re-check.
cmake --build "$ASAN_DIR" -j "$JOBS" \
    --target test_simd_dispatch test_parallel_determinism test_hash
ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" -L simd

echo "== tier-1: trace+fault overhead smoke (armed-off <= 1.15x stripped) =="
run_bench() {  # run_bench <build-dir> <filter-regex> -> real_time
    "$1"/bench/bench_micro_primitives \
        --benchmark_filter="$2" \
        --benchmark_min_time=0.2 \
        --benchmark_format=json 2>/dev/null |
        python3 -c 'import json, sys
print([b["real_time"] for b in json.load(sys.stdin)["benchmarks"]][0])'
}
# compare_medians <label> <base-build> <base-filter> <test-build>
#                 <test-filter>: OVERHEAD_REPEATS interleaved runs of
# each side (the order flips every repeat, so host drift lands on
# both) and the 1.15x bound on median(test) / median(base).  One noisy
# run cannot move a median of five.
OVERHEAD_REPEATS=5
compare_medians() {
    local base=() test=()
    for ((i = 0; i < OVERHEAD_REPEATS; ++i)); do
        if ((i % 2 == 0)); then
            base+=("$(run_bench "$2" "$3")")
            test+=("$(run_bench "$4" "$5")")
        else
            test+=("$(run_bench "$4" "$5")")
            base+=("$(run_bench "$2" "$3")")
        fi
    done
    python3 - "$1" "${base[*]}" "${test[*]}" <<'EOF'
import statistics, sys
label = sys.argv[1]
base = [float(x) for x in sys.argv[2].split()]
test = [float(x) for x in sys.argv[3].split()]
ratio = statistics.median(test) / statistics.median(base)
print(f"{label}: base median {statistics.median(base):.1f} ns, "
      f"test median {statistics.median(test):.1f} ns -> {ratio:.3f}x "
      f"(base {' '.join(f'{x:.1f}' for x in base)}; "
      f"test {' '.join(f'{x:.1f}' for x in test)})")
if ratio > 1.15:
    sys.exit(f"FAIL: {label} overhead exceeds 15%")
EOF
}
compare_medians "trace+fault vs stripped" \
    "$NOTRACE_DIR" 'BM_FidrWritePath$' "$BUILD_DIR" 'BM_FidrWritePath$'

echo "== tier-1: obs-path overhead smoke (tagged/exemplar/window <= 1.15x) =="
# Each new observability path vs its plain counterpart in the traced
# build, medians of interleaved repeats: request-tagged tracepoint vs
# untagged, exemplar-armed histogram record vs plain, exemplar-armed
# windowed observe vs plain.  Keeps "turn the request-tracing
# machinery on" inside the same envelope the trace compile-out gate
# uses.
check_pair() {  # check_pair <label> <plain-filter> <armed-filter>
    compare_medians "$1" "$BUILD_DIR" "$2" "$BUILD_DIR" "$3"
}
check_pair "request-tagged tracepoint" \
    'BM_TracerRecord$' 'BM_TracerRecordTagged$'
check_pair "exemplar-armed histogram" \
    'BM_HistogramRecord/0$' 'BM_HistogramRecord/1$'
check_pair "exemplar-armed windowed observe" \
    'BM_WindowedObserve/0$' 'BM_WindowedObserve/1$'

echo "== tier-1: write-path pipelining smoke (depth sweep) =="
# bench_pipeline_depth asserts its own gates: reduction results
# bit-identical across depth x shards; at depth 4 the pipeline
# genuinely held >=2 batches in flight (queue-depth occupancy — the
# right check on a 1-core host, where stages timeshare); on
# multi-lane hosts additionally measured hash||execute overlap > 0
# and a depth-4 median wall-clock strictly below the one-slot
# pipeline's (depth 1).
(cd "$BUILD_DIR"/bench && ./bench_pipeline_depth --smoke)

echo "== tier-1: read-plane smoke (cache x tier x batch-size sweep) =="
# bench_read_throughput asserts its own gates: payload checksums
# identical across every (cache capacity, tier config, read_batch
# size) cell — the capacity-0 cells prove the chunk cache is a pure
# optimization — and on the Zipfian hot set, at the same DRAM
# budget: two-tier strictly beats cache-off and the frozen counts of
# the retired one-tier cache on hits and data-SSD fetches, and the
# spill ring strictly beats plain two-tier; batched demotion runs
# strictly fewer passes than the frozen demote-to-target counts.
(cd "$BUILD_DIR"/bench && ./bench_read_throughput --smoke)

echo "== tier-1: GC steady-state smoke (churn vs reserve watermark) =="
# bench_gc_steadystate asserts its own gates: every write succeeds
# under ~3x capacity of churn (GC never lets the log fill), GC steps
# overlap in-flight batches (nonzero concurrent_steps), the log ends
# above the reserve watermark, every surviving LBA reads back its last
# acknowledged content, and fsck is clean in every cell.
(cd "$BUILD_DIR"/bench && ./bench_gc_steadystate --smoke)

echo "== tier-1: cluster scale-out smoke (nodes x routing sweep) =="
# bench_cluster_scaling asserts its own gates: the cluster-of-1 cell
# is bit-identical to a bare FidrSystem (reduction stats, ledgers,
# journal occupancy, every payload byte), 4-node aggregate writes/s
# reaches >= 3x the 1-node cell under both routing modes, and the
# fingerprint-routed cluster deduplicates within 2% of single-node
# global dedup.
(cd "$BUILD_DIR"/bench && ./bench_cluster_scaling --smoke)

echo "== tier-1: bench regression diff vs committed smoke baselines (fatal) =="
# Compares the BENCH_*.json the --smoke benches dropped in the build
# tree against the committed smoke baselines; >15% throughput drops
# and differing payload checksums FAIL tier-1 unless waived per bench
# in scripts/bench_allowlist.txt (wall-clock metrics on shared hosts —
# see bench_diff.py).  Regenerate the baselines with the three --smoke
# benches when a change moves their model results on purpose.
python3 scripts/bench_diff.py --baseline-dir bench/baselines/smoke \
    --fresh-dir "$BUILD_DIR"/bench

echo "tier-1 OK"
