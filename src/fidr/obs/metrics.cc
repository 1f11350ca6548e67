#include "fidr/obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "fidr/common/status.h"
#include "fidr/obs/json.h"

namespace fidr::obs {

namespace {

// Log-spaced buckets: 64 per power of two covers 1 ns .. ~5 s with
// ~1.1% spacing.
constexpr double kBucketsPerOctave = 64.0;
constexpr std::size_t kNumBuckets = 64 * 33;

void
atomic_min(std::atomic<SimTime> &slot, SimTime value)
{
    SimTime cur = slot.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

void
atomic_max(std::atomic<SimTime> &slot, SimTime value)
{
    SimTime cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
}

}  // namespace

Histogram::Histogram()
    : min_(~SimTime{0}), buckets_(kNumBuckets)
{
}

std::size_t
Histogram::bucket_index(SimTime ns)
{
    if (ns <= 1)
        return 0;
    const double idx =
        std::log2(static_cast<double>(ns)) * kBucketsPerOctave;
    return std::min(kNumBuckets - 1, static_cast<std::size_t>(idx));
}

SimTime
Histogram::bucket_upper_edge_ns(std::size_t index)
{
    return static_cast<SimTime>(std::pow(
        2.0, (static_cast<double>(index) + 1.0) / kBucketsPerOctave));
}

std::size_t
Histogram::num_buckets()
{
    return kNumBuckets;
}

void
Histogram::record(SimTime latency_ns, std::uint64_t trace_id)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(latency_ns, std::memory_order_relaxed);
    atomic_min(min_, latency_ns);
    atomic_max(max_, latency_ns);
    buckets_[bucket_index(latency_ns)].fetch_add(
        1, std::memory_order_relaxed);
    if (exemplars_ && trace_id != 0)
        offer_exemplar(latency_ns, trace_id);
}

void
Histogram::set_exemplar_capacity(std::size_t capacity)
{
    if (capacity == 0)
        exemplars_.reset();
    else
        exemplars_ = std::make_unique<ExemplarReservoir>(capacity);
}

void
Histogram::offer_exemplar(SimTime latency_ns, std::uint64_t trace_id)
{
    ExemplarReservoir &res = *exemplars_;
    // Fast reject: once the reservoir is full, `floor` holds the
    // slowest-K threshold; anything at or below it cannot displace a
    // retained sample.  Racing offers may both pass the gate — the
    // mutex below resolves them; the gate only has to be conservative.
    if (latency_ns <= res.floor.load(std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(res.mutex);
    if (res.slots.size() < res.capacity) {
        res.slots.push_back({latency_ns, trace_id});
    } else {
        // slots is sorted slowest-first; the back is the current floor.
        if (latency_ns <= res.slots.back().latency_ns)
            return;
        res.slots.back() = {latency_ns, trace_id};
    }
    std::sort(res.slots.begin(), res.slots.end(),
              [](const Exemplar &a, const Exemplar &b) {
                  return a.latency_ns > b.latency_ns;
              });
    if (res.slots.size() == res.capacity)
        res.floor.store(res.slots.back().latency_ns,
                        std::memory_order_relaxed);
}

double
Histogram::mean_ns() const
{
    const std::uint64_t n = count();
    if (n == 0)
        return 0.0;
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

SimTime
Histogram::percentile_ns(double q) const
{
    FIDR_CHECK(q >= 0.0 && q <= 1.0);
    const std::uint64_t n = count();
    if (n == 0)
        return 0;
    const SimTime lo = min_ns();
    const SimTime hi = max_ns();
    if (q <= 0.0)
        return lo;
    if (q >= 1.0)
        return hi;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t in_bucket =
            buckets_[i].load(std::memory_order_relaxed);
        seen += in_bucket;
        if (seen >= target && in_bucket > 0) {
            // Bucket upper edge, clamped into the observed range so a
            // single-sample histogram reports the sample exactly.
            return std::clamp(bucket_upper_edge_ns(i), lo, hi);
        }
    }
    return hi;
}

HistogramSummary
Histogram::summary() const
{
    HistogramSummary out;
    out.count = count();
    out.sum_ns = sum_ns_.load(std::memory_order_relaxed);
    out.mean_ns = mean_ns();
    out.min_ns = min_ns();
    out.max_ns = max_ns();
    out.p50_ns = percentile_ns(0.50);
    out.p95_ns = percentile_ns(0.95);
    out.p99_ns = percentile_ns(0.99);
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        const std::uint64_t n =
            buckets_[i].load(std::memory_order_relaxed);
        if (n != 0)
            out.buckets.push_back({static_cast<std::uint32_t>(i), n});
    }
    if (exemplars_) {
        std::lock_guard<std::mutex> lock(exemplars_->mutex);
        out.exemplars = exemplars_->slots;
    }
    return out;
}

void
Histogram::reset()
{
    count_.store(0, std::memory_order_relaxed);
    sum_ns_.store(0, std::memory_order_relaxed);
    min_.store(~SimTime{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    for (auto &bucket : buckets_)
        bucket.store(0, std::memory_order_relaxed);
    if (exemplars_) {
        std::lock_guard<std::mutex> lock(exemplars_->mutex);
        exemplars_->slots.clear();
        exemplars_->floor.store(0, std::memory_order_relaxed);
    }
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

const Counter *
MetricRegistry::find_counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

const Histogram *
MetricRegistry::find_histogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : it->second.get();
}

ObsSnapshot
MetricRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ObsSnapshot out;
    for (const auto &[name, counter] : counters_)
        out.counters[name] = counter->get();
    for (const auto &[name, gauge] : gauges_)
        out.gauges[name] = gauge->get();
    for (const auto &[name, histogram] : histograms_)
        out.histograms[name] = histogram->summary();
    return out;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, counter] : counters_)
        counter->reset();
    for (const auto &[name, histogram] : histograms_)
        histogram->reset();
}

namespace {

std::uint64_t
steady_now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

}  // namespace

StageTimer::StageTimer() : start_ns_(steady_now_ns()) {}

std::uint64_t
StageTimer::elapsed_ns() const
{
    return steady_now_ns() - start_ns_;
}

std::uint64_t
StageTimer::lap_ns()
{
    const std::uint64_t now = steady_now_ns();
    return now - std::exchange(start_ns_, now);
}

// ------------------------------------------------------------ snapshot

std::string
ObsSnapshot::to_json() const
{
    JsonWriter json;
    json.begin_object();

    json.key("counters").begin_object();
    for (const auto &[name, value] : counters)
        json.kv(name, value);
    json.end_object();

    json.key("gauges").begin_object();
    for (const auto &[name, value] : gauges)
        json.kv(name, value);
    json.end_object();

    json.key("histograms").begin_object();
    for (const auto &[name, h] : histograms) {
        json.key(name).begin_object();
        json.kv("count", h.count);
        json.kv("sum_ns", h.sum_ns);
        json.kv("mean_ns", h.mean_ns);
        json.kv("min_ns", h.min_ns);
        json.kv("max_ns", h.max_ns);
        json.kv("p50_ns", h.p50_ns);
        json.kv("p95_ns", h.p95_ns);
        json.kv("p99_ns", h.p99_ns);
        if (!h.buckets.empty()) {
            json.key("buckets").begin_array();
            for (const BucketCount &bucket : h.buckets) {
                json.begin_object();
                json.kv("index",
                        static_cast<std::uint64_t>(bucket.index));
                json.kv("count", bucket.count);
                json.end_object();
            }
            json.end_array();
        }
        if (!h.exemplars.empty()) {
            json.key("exemplars").begin_array();
            for (const Exemplar &ex : h.exemplars) {
                json.begin_object();
                json.kv("latency_ns", ex.latency_ns);
                json.kv("trace_id", ex.trace_id);
                json.end_object();
            }
            json.end_array();
        }
        json.end_object();
    }
    json.end_object();

    json.key("sections").begin_object();
    for (const auto &[name, rows] : sections) {
        json.key(name).begin_array();
        for (const SnapshotRow &row : rows) {
            json.begin_object();
            json.kv("label", row.label);
            json.kv("value", row.value);
            json.kv("share", row.share);
            json.end_object();
        }
        json.end_array();
    }
    json.end_object();

    json.end_object();
    return json.str();
}

std::string
ObsSnapshot::pretty() const
{
    std::string out;
    char line[256];

    const auto append = [&out, &line] { out += line; };

    if (!counters.empty()) {
        out += "counters\n";
        for (const auto &[name, value] : counters) {
            std::snprintf(line, sizeof(line), "  %-40s %20llu\n",
                          name.c_str(),
                          static_cast<unsigned long long>(value));
            append();
        }
    }
    if (!gauges.empty()) {
        out += "gauges\n";
        for (const auto &[name, value] : gauges) {
            std::snprintf(line, sizeof(line), "  %-40s %20.6g\n",
                          name.c_str(), value);
            append();
        }
    }
    if (!histograms.empty()) {
        out += "histograms (us)\n";
        std::snprintf(line, sizeof(line),
                      "  %-28s %10s %10s %10s %10s %10s %10s\n", "stage",
                      "count", "mean", "p50", "p95", "p99", "max");
        append();
        for (const auto &[name, h] : histograms) {
            std::snprintf(
                line, sizeof(line),
                "  %-28s %10llu %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                name.c_str(), static_cast<unsigned long long>(h.count),
                h.mean_ns / 1e3, static_cast<double>(h.p50_ns) / 1e3,
                static_cast<double>(h.p95_ns) / 1e3,
                static_cast<double>(h.p99_ns) / 1e3,
                static_cast<double>(h.max_ns) / 1e3);
            append();
        }
    }
    for (const auto &[name, rows] : sections) {
        out += name + "\n";
        for (const SnapshotRow &row : rows) {
            std::snprintf(line, sizeof(line), "  %-40s %18.6g %6.1f%%\n",
                          row.label.c_str(), row.value,
                          row.share * 100.0);
            append();
        }
    }
    return out;
}

}  // namespace fidr::obs
