#!/usr/bin/env python3
"""Compare fresh bench reports against committed BENCH_*.json baselines.

Every bench binary in this repo can persist a uniform JsonReport:

    {"bench": ..., "config": {...}, "series": [...], "meta": {...}}

where each series entry carries identity fields (name, workload,
target, lanes, ...) and either flat throughput metrics or a "runs"
array of per-cell metric dicts.  This script pairs series/runs between
a baseline report and a fresh one by their identity fields and flags
every throughput metric (keys ending in "_per_s" — higher is better)
that regressed by more than the threshold.  A paired cell whose
"payload_checksum" differs is a failure too, whatever the threshold
or allowlist: the two commits returned different bytes.

Usage:
    scripts/bench_diff.py BASELINE FRESH [--threshold 0.15]
    scripts/bench_diff.py --baseline-dir . --fresh-dir build/bench

Directory mode pairs files by BENCH_*.json name and skips baselines
with no fresh counterpart (a bench that did not run is not a
regression).  Exit status: 0 = no regressions, 1 = at least one
regression, 2 = usage or unreadable input.  scripts/tier1.sh runs this
as a FATAL stage: a >15% drop in any non-allowlisted throughput
metric fails tier-1.

Wall-clock benches on shared CI hosts are noisy, so known-noisy
metrics live in a per-bench allowlist file (--allowlist, default
scripts/bench_allowlist.txt next to this script).  Each non-comment
line is two fnmatch globs, "REPORT_GLOB METRIC_GLOB"; a regression
whose report basename and metric both match a line is reported as
"allow" and does not fail the run.  Model-based reports (the cluster
projection bench) have no allowlist entries — their numbers are
host-independent, so a drop there is a real regression.
"""

import argparse
import fnmatch
import glob
import json
import os
import sys

THRESHOLD_DEFAULT = 0.15
ALLOWLIST_DEFAULT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "bench_allowlist.txt")


def is_metric(key, value):
    return key.endswith("_per_s") and isinstance(value, (int, float))


def identity(entry):
    """Stable identity of a series/run: every non-metric scalar field."""
    parts = []
    for key in sorted(entry):
        value = entry[key]
        if key == "runs" or is_metric(key, value):
            continue
        # Measured scalars that vary run to run are not identity.
        if key in ("seconds", "speedup_vs_scalar", "speedup_vs_depth1",
                   "speedup_vs_1_lane", "identical_to_scalar",
                   "cache_hits", "cache_hit_rate", "ssd_fetches",
                   "hash_busy_s", "execute_busy_s", "submit_stall_s",
                   "overlap_s", "overlap_ratio", "batches", "stalls",
                   "queue_depth_p95", "writes", "reads",
                   "write_p50_ns", "write_p99_ns", "write_amp",
                   "gc_steps", "concurrent_steps", "relocated_bytes",
                   "containers_reclaimed", "reclaimed_bytes",
                   "cache_rekeys", "free_slot_fraction",
                   "gc_pause_p99_ns",
                   # Two-tier cache counters ("tier" itself stays an
                   # identity field: off/two/two+spill are distinct
                   # series, their counters are measurements; so is
                   # "read_batch", the slots per read_batch() call: a
                   # 16-slot cell never pairs with a 256-slot one).
                   "warm_hits", "spill_hits", "spill_writes",
                   "demotions", "demote_passes",
                   # Cluster bench measurements ("nodes" and "routing"
                   # stay identity: each (workload, nodes, routing)
                   # cell is its own series).
                   "speedup_vs_1node", "dedup_rate",
                   "single_node_dedup_rate", "cluster_seconds",
                   "node_seconds_max", "link_seconds_max",
                   "net_bytes", "net_messages", "writes_suppressed",
                   "unmaps_sent", "identical_to_bare",
                   # Checked for equality separately (checksum_rows).
                   "payload_checksum"):
            continue
        if isinstance(value, (str, int, float, bool)):
            parts.append((key, value))
    return tuple(parts)


def label(ident):
    return " ".join(f"{k}={v}" for k, v in ident) or "(unnamed)"


def config_identity(report):
    """Report-level config scalars, folded into every series identity.

    A smoke run (fewer requests, shrunk sweeps) is not comparable to a
    committed full-run baseline — same cell names, systematically
    different numbers — so differing configs must pair nothing rather
    than flag phantom regressions.
    """
    parts = []
    for key in sorted(report.get("config", {})):
        value = report["config"][key]
        if isinstance(value, (str, int, float, bool)):
            parts.append(("cfg." + key, value))
    return tuple(parts)


def metric_rows(report):
    """Yields (series_label, run_identity, metric, value)."""
    config_id = config_identity(report)
    for series in report.get("series", []):
        series_id = config_id + identity(series)
        runs = series.get("runs")
        if runs:
            for run in runs:
                run_id = identity(run)
                for key, value in run.items():
                    if is_metric(key, value):
                        yield series_id, run_id, key, float(value)
        else:
            for key, value in series.items():
                if is_metric(key, value):
                    yield series_id, (), key, float(value)


def checksum_rows(report):
    """Yields ((series_identity, run_identity), payload_checksum)."""
    config_id = config_identity(report)
    for series in report.get("series", []):
        series_id = config_id + identity(series)
        for run in series.get("runs") or [series]:
            if "payload_checksum" in run:
                run_id = identity(run) if run is not series else ()
                yield (series_id, run_id), run["payload_checksum"]


def load_allowlist(path):
    """Parses (report_glob, metric_glob) lines; missing file = empty."""
    rules = []
    if not path or not os.path.exists(path):
        return rules
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                sys.exit(f"error: {path}: malformed line {raw!r} "
                         "(want 'REPORT_GLOB METRIC_GLOB')")
            rules.append((fields[0], fields[1]))
    return rules


def allowlisted(rules, report_name, metric):
    return any(fnmatch.fnmatch(report_name, report_glob) and
               fnmatch.fnmatch(metric, metric_glob)
               for report_glob, metric_glob in rules)


def diff_reports(base, fresh, threshold, path_label, allow_rules):
    """Returns (regressions, allowed, compared) for one report pair."""
    fresh_values = {(s, r, m): v for s, r, m, v in metric_rows(fresh)}
    regressions = []
    allowed = []
    compared = 0
    for series_id, run_id, metric, base_value in metric_rows(base):
        key = (series_id, run_id, metric)
        if key not in fresh_values or base_value <= 0:
            continue
        compared += 1
        fresh_value = fresh_values[key]
        change = fresh_value / base_value - 1.0
        name = label(series_id)
        if run_id:
            name += " [" + label(run_id) + "]"
        line = (f"  {path_label}: {name} {metric} "
                f"{base_value:.1f} -> {fresh_value:.1f} "
                f"({change:+.1%})")
        if change < -threshold:
            if allowlisted(allow_rules, path_label, metric):
                allowed.append(line)
            else:
                regressions.append(line)
        else:
            print("ok " + line.strip())
    fresh_sums = dict(checksum_rows(fresh))
    for key, base_sum in checksum_rows(base):
        if key not in fresh_sums:
            continue
        compared += 1
        name = label(key[0])
        if key[1]:
            name += " [" + label(key[1]) + "]"
        if fresh_sums[key] != base_sum:
            regressions.append(f"  {path_label}: {name} payload_checksum "
                               f"{base_sum} -> {fresh_sums[key]} "
                               "(different bytes returned)")
    return regressions, allowed, compared


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot read {path}: {err}")


def main():
    parser = argparse.ArgumentParser(
        description="Flag bench throughput regressions vs baselines.")
    parser.add_argument("files", nargs="*",
                        help="BASELINE FRESH report pair")
    parser.add_argument("--baseline-dir",
                        help="directory of committed BENCH_*.json")
    parser.add_argument("--fresh-dir",
                        help="directory of freshly produced reports")
    parser.add_argument("--threshold", type=float,
                        default=THRESHOLD_DEFAULT,
                        help="regression fraction (default 0.15)")
    parser.add_argument("--allowlist", default=ALLOWLIST_DEFAULT,
                        help="per-bench allowlist file of "
                             "'REPORT_GLOB METRIC_GLOB' lines "
                             "(default scripts/bench_allowlist.txt; "
                             "pass /dev/null to disable)")
    args = parser.parse_args()
    allow_rules = load_allowlist(args.allowlist)

    pairs = []
    if args.baseline_dir or args.fresh_dir:
        if not (args.baseline_dir and args.fresh_dir):
            parser.error("--baseline-dir and --fresh-dir go together")
        pattern = os.path.join(args.baseline_dir, "BENCH_*.json")
        for base_path in sorted(glob.glob(pattern)):
            fresh_path = os.path.join(args.fresh_dir,
                                      os.path.basename(base_path))
            if os.path.exists(fresh_path):
                pairs.append((base_path, fresh_path))
            else:
                print(f"skip {os.path.basename(base_path)}: "
                      "no fresh report")
    elif len(args.files) == 2:
        pairs.append((args.files[0], args.files[1]))
    else:
        parser.error("pass BASELINE FRESH or --baseline-dir/--fresh-dir")

    regressions = []
    allowed = []
    compared = 0
    for base_path, fresh_path in pairs:
        base, fresh = load(base_path), load(fresh_path)
        found, waived, n = diff_reports(base, fresh, args.threshold,
                                        os.path.basename(base_path),
                                        allow_rules)
        regressions.extend(found)
        allowed.extend(waived)
        compared += n

    print(f"\ncompared {compared} metric(s) across {len(pairs)} "
          f"report pair(s), threshold {args.threshold:.0%}")
    if allowed:
        print(f"ALLOWLISTED ({len(allowed)} — noisy wall-clock "
              "metrics, not gating):")
        for line in allowed:
            print(line)
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):")
        for line in regressions:
            print(line)
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
