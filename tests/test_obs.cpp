// fidr/obs: tracepoints, metric registry, JSON machinery, and the
// export pipeline end to end through FidrSystem.
//
// The Tracer is a process-global singleton; each TEST runs in its own
// process (gtest_discover_tests), and tests that touch the tracer
// reset it explicitly so they also pass when the binary runs whole.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fidr/core/fidr_system.h"
#include "fidr/obs/json.h"
#include "fidr/obs/metrics.h"
#include "fidr/obs/trace.h"

using namespace fidr;

namespace {

/** Disables + clears the global tracer around a test body. */
class TracerTest : public ::testing::Test {
  protected:
    void
    SetUp() override
    {
        obs::Tracer::instance().enable(false);
        obs::Tracer::instance().reset();
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().enable(false);
        obs::Tracer::instance().reset();
        obs::Tracer::instance().configure_ring_capacity(64 * 1024);
    }
};

Buffer
chunk_of(std::uint64_t seed)
{
    Buffer data(kChunkSize);
    for (std::size_t i = 0; i < data.size(); i += 8) {
        const std::uint64_t v = seed * 0x9E3779B97F4A7C15ull + i;
        std::memcpy(&data[i], &v, 8);
    }
    return data;
}

}  // namespace

// ---------------------------------------------------------------------
// Trace ring + tracer.

TEST_F(TracerTest, DisabledTracerRecordsNothing)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    ASSERT_FALSE(tracer.enabled());
    for (int i = 0; i < 100; ++i) {
        FIDR_TPOINT(obs::Tpoint::kWriteHash, i, i);
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteBatch, i, 0);
    }
    EXPECT_EQ(tracer.total_held(), 0u);
    EXPECT_EQ(tracer.total_recorded(), 0u);
}

TEST_F(TracerTest, MacrosCompiledPerBuildMode)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    FIDR_TPOINT(obs::Tpoint::kWriteHash, 7, 42);
#if FIDR_TRACE_ENABLED
    // Tracepoints are compiled in: the enabled tracer records.
    ASSERT_EQ(tracer.total_held(), 1u);
    const auto records = tracer.collect();
    EXPECT_EQ(records[0].second.object_id, 7u);
    EXPECT_EQ(records[0].second.arg, 42u);
#else
    // FIDR_TRACE=OFF: the same binary cannot emit a record even with
    // the tracer enabled -- the sites expand to nothing.
    EXPECT_EQ(tracer.total_held(), 0u);
    EXPECT_EQ(tracer.total_recorded(), 0u);
#endif
}

#if FIDR_TRACE_ENABLED

TEST_F(TracerTest, RingWrapKeepsNewestRecords)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.configure_ring_capacity(16);
    tracer.enable();

    constexpr std::uint64_t kPushes = 100;
    for (std::uint64_t i = 0; i < kPushes; ++i)
        FIDR_TPOINT(obs::Tpoint::kWriteHash, i, i);

    EXPECT_EQ(tracer.total_recorded(), kPushes);
    EXPECT_EQ(tracer.total_held(), 16u);

    // The survivors are the newest 16, oldest first.
    const auto records = tracer.collect();
    ASSERT_EQ(records.size(), 16u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].second.arg, kPushes - 16 + i);
    }
}

TEST_F(TracerTest, SpanEmitsMatchedBeginEndWithEndArg)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    {
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteCompress, 5, 4096);
        span.set_end_arg(2048);
    }
    const auto records = tracer.collect();
    ASSERT_EQ(records.size(), 2u);
    const obs::TraceRecord &begin = records[0].second;
    const obs::TraceRecord &end = records[1].second;
    EXPECT_EQ(begin.flags,
              static_cast<std::uint16_t>(obs::TraceFlag::kBegin));
    EXPECT_EQ(end.flags,
              static_cast<std::uint16_t>(obs::TraceFlag::kEnd));
    EXPECT_EQ(begin.object_id, 5u);
    EXPECT_EQ(end.object_id, 5u);
    EXPECT_EQ(begin.arg, 4096u);
    EXPECT_EQ(end.arg, 2048u);
    EXPECT_LE(begin.wall_ts, end.wall_ts);
}

TEST_F(TracerTest, BinaryDumpRoundTripsExactly)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    for (int i = 0; i < 37; ++i) {
        FIDR_TPOINT(obs::Tpoint::kDma, i, i * 3);
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteBatch, i, i);
    }
    const auto original = tracer.collect();

    const std::string path =
        ::testing::TempDir() + "/obs_roundtrip.bin";
    ASSERT_TRUE(tracer.dump_binary(path).is_ok());
    auto loaded = obs::Tracer::load_binary(path);
    ASSERT_TRUE(loaded.is_ok());
    const auto restored = loaded.take();

    ASSERT_EQ(restored.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(restored[i].first, original[i].first);
        EXPECT_EQ(0, std::memcmp(&restored[i].second,
                                 &original[i].second,
                                 sizeof(obs::TraceRecord)));
    }
}

TEST_F(TracerTest, LoadBinaryRejectsBadDumpsWithDistinctErrors)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    FIDR_TPOINT(obs::Tpoint::kDma, 1, 1);
    const std::string path = ::testing::TempDir() + "/obs_bad.bin";

    // Truncated mid-record.
    ASSERT_TRUE(tracer.dump_binary(path).is_ok());
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(path.c_str(), size - 7), 0);
    }
    auto short_load = obs::Tracer::load_binary(path);
    EXPECT_FALSE(short_load.is_ok());
    EXPECT_NE(short_load.status().to_string().find("truncated"),
              std::string::npos);

    // Wrong magic: not a FIDR dump at all.
    ASSERT_TRUE(tracer.dump_binary(path).is_ok());
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);
        std::fclose(f);
    }
    auto magic_load = obs::Tracer::load_binary(path);
    EXPECT_FALSE(magic_load.is_ok());
    EXPECT_NE(magic_load.status().to_string().find("not a FIDR"),
              std::string::npos);

    // Wrong version: a v1 capture (40-byte records, no trace_id)
    // must name the mismatch instead of misparsing records.
    ASSERT_TRUE(tracer.dump_binary(path).is_ok());
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 8, SEEK_SET);  // Version follows 8-byte magic.
        const std::uint32_t old_version = 1;
        ASSERT_EQ(std::fwrite(&old_version, sizeof(old_version), 1, f),
                  1u);
        std::fclose(f);
    }
    auto version_load = obs::Tracer::load_binary(path);
    EXPECT_FALSE(version_load.is_ok());
    EXPECT_NE(version_load.status().to_string().find("version 1"),
              std::string::npos);

    std::remove(path.c_str());
}

TEST_F(TracerTest, ChromeExportParsesAndNests)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    {
        FIDR_TRACE_SPAN(outer, obs::Tpoint::kWriteBatch, 1, 64);
        {
            FIDR_TRACE_SPAN(inner, obs::Tpoint::kWriteHash, 1, 64);
        }
        FIDR_TPOINT(obs::Tpoint::kWriteJournal, 1, 0);
    }

    Result<obs::JsonValue> doc =
        obs::JsonValue::parse(tracer.export_chrome_json());
    ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();

    const obs::JsonValue *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());
    ASSERT_EQ(events->array.size(), 5u);

    // B/E pairs nest by ordering within a tid: batch B, hash B,
    // hash E, journal instant, batch E.
    std::vector<std::string> shape;
    for (const obs::JsonValue &event : events->array) {
        ASSERT_NE(event.find("name"), nullptr);
        ASSERT_NE(event.find("ph"), nullptr);
        ASSERT_NE(event.find("ts"), nullptr);
        const obs::JsonValue *args = event.find("args");
        ASSERT_NE(args, nullptr);
        EXPECT_NE(args->find("object_id"), nullptr);
        shape.push_back(event.find("ph")->string + ":" +
                        event.find("name")->string);
    }
    const std::vector<std::string> expected = {
        "B:write.batch", "B:write.hash", "E:write.hash",
        "i:write.journal", "E:write.batch"};
    EXPECT_EQ(shape, expected);

    // Timestamps are non-decreasing microseconds.
    double last = -1;
    for (const obs::JsonValue &event : events->array) {
        EXPECT_GE(event.find("ts")->number, last);
        last = event.find("ts")->number;
    }
}

TEST_F(TracerTest, WorkerThreadsGetTheirOwnRings)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    FIDR_TPOINT(obs::Tpoint::kWriteHash, 0, 0);
    std::thread worker(
        [] { FIDR_TPOINT(obs::Tpoint::kWriteHashLane, 1, 1); });
    worker.join();

    const auto records = tracer.collect();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_NE(records[0].first, records[1].first);
}

// ---------------------------------------------------------------------
// Request context + flow events (PR 7).

TEST_F(TracerTest, ScopedRequestPropagatesAndRestoresOnUnwind)
{
    EXPECT_EQ(obs::ScopedRequest::current_trace(), 0u);
    {
        obs::ScopedRequest outer(41, 7);
        EXPECT_EQ(obs::ScopedRequest::current_trace(), 41u);
        EXPECT_EQ(obs::ScopedRequest::current_stream(), 7u);
        {
            obs::ScopedRequest inner(42);
            EXPECT_EQ(obs::ScopedRequest::current_trace(), 42u);
            EXPECT_EQ(obs::ScopedRequest::current_stream(), 0u);
        }
        // Nested scope restored the outer request, not zero.
        EXPECT_EQ(obs::ScopedRequest::current_trace(), 41u);
        EXPECT_EQ(obs::ScopedRequest::current_stream(), 7u);
    }
    EXPECT_EQ(obs::ScopedRequest::current_trace(), 0u);
}

TEST_F(TracerTest, RequestContextIsPerThread)
{
    obs::ScopedRequest main_request(100);
    std::uint64_t seen_on_worker = ~0ull;
    std::thread worker([&] {
        seen_on_worker = obs::ScopedRequest::current_trace();
    });
    worker.join();
    EXPECT_EQ(seen_on_worker, 0u);  // Context never leaks threads.
    EXPECT_EQ(obs::ScopedRequest::current_trace(), 100u);
}

TEST_F(TracerTest, RecordsCarryCurrentTraceId)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    FIDR_TPOINT(obs::Tpoint::kWriteHash, 1, 0);  // Untagged.
    {
        obs::ScopedRequest request(77);
        FIDR_TPOINT(obs::Tpoint::kWriteHash, 2, 0);
    }
    const auto records = tracer.collect();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].second.trace_id, 0u);
    EXPECT_EQ(records[1].second.trace_id, 77u);
}

TEST_F(TracerTest, FlowEventsLinkRequestAcrossThreads)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    const std::uint64_t id = obs::RequestContext::next_id();
    {
        obs::ScopedRequest request(id);
        FIDR_TRACE_SPAN(submit, obs::Tpoint::kWriteBatch, 1, 64);
        std::thread worker([&] {
            obs::ScopedRequest lane(id);
            FIDR_TRACE_SPAN(hash, obs::Tpoint::kWriteHashLane, 0, 32);
        });
        worker.join();
    }

    Result<obs::JsonValue> doc =
        obs::JsonValue::parse(tracer.export_chrome_json());
    ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
    const obs::JsonValue *events = doc.value().find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Collect the flow chain for this id and the tagged B slices.
    struct Hop { std::string ph; double ts; double tid; };
    std::vector<Hop> hops;
    std::vector<std::pair<double, double>> tagged;  // (ts, tid)
    for (const obs::JsonValue &event : events->array) {
        const obs::JsonValue *cat = event.find("cat");
        if (cat != nullptr && cat->string == "fidr.flow") {
            EXPECT_EQ(
                static_cast<std::uint64_t>(event.find("id")->number),
                id);
            hops.push_back({event.find("ph")->string,
                            event.find("ts")->number,
                            event.find("tid")->number});
            continue;
        }
        const obs::JsonValue *args = event.find("args");
        if (event.find("ph")->string == "B" && args != nullptr &&
            args->find("trace_id") != nullptr) {
            EXPECT_EQ(static_cast<std::uint64_t>(
                          args->find("trace_id")->number),
                      id);
            tagged.emplace_back(event.find("ts")->number,
                                event.find("tid")->number);
        }
    }

    // One hop per tagged B slice; phases run s, t..., f in time order;
    // the chain visits both threads.
    ASSERT_EQ(hops.size(), 2u);
    ASSERT_EQ(tagged.size(), 2u);
    EXPECT_EQ(hops.front().ph, "s");
    EXPECT_EQ(hops.back().ph, "f");
    EXPECT_NE(hops[0].tid, hops[1].tid);
    // Flow events bind to their slices by matching (tid, ts).
    for (std::size_t i = 0; i < hops.size(); ++i) {
        EXPECT_EQ(hops[i].ts, tagged[i].first);
        EXPECT_EQ(hops[i].tid, tagged[i].second);
    }
}

TEST_F(TracerTest, SingleHopRequestEmitsNoFlow)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.enable();
    {
        obs::ScopedRequest request(obs::RequestContext::next_id());
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteBatch, 1, 64);
    }
    Result<obs::JsonValue> doc =
        obs::JsonValue::parse(tracer.export_chrome_json());
    ASSERT_TRUE(doc.is_ok());
    for (const obs::JsonValue &event :
         doc.value().find("traceEvents")->array) {
        const obs::JsonValue *cat = event.find("cat");
        EXPECT_TRUE(cat == nullptr || cat->string != "fidr.flow")
            << "a one-slice request needs no flow arrow";
    }
}

#endif  // FIDR_TRACE_ENABLED

// ---------------------------------------------------------------------
// Metrics.

TEST(MetricRegistry, ConcurrentIncrementsAreExact)
{
    obs::MetricRegistry registry;
    obs::Counter &counter = registry.counter("hits");
    obs::Histogram &hist = registry.histogram("lat");

    constexpr int kThreads = 4;
    constexpr int kPerThread = 50'000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&counter, &hist] {
            for (int i = 0; i < kPerThread; ++i) {
                counter.add();
                hist.record(1000 + i % 64);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(counter.get(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(hist.count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricRegistry, CounterIncrementsAndSnapshotList)
{
    obs::MetricRegistry registry;
    registry.counter("reads").add();
    registry.counter("reads").add(4);
    registry.counter("writes").add(2);
    EXPECT_EQ(registry.counter("reads").get(), 5u);
    EXPECT_EQ(registry.snapshot().counters.size(), 2u);
}

TEST(MetricRegistry, ResetZeroesWithoutForgettingNames)
{
    obs::MetricRegistry registry;
    registry.counter("reads").add(7);
    registry.reset();
    ASSERT_NE(registry.find_counter("reads"), nullptr);
    EXPECT_EQ(registry.find_counter("reads")->get(), 0u);
}

TEST(MetricRegistry, FindDoesNotCreate)
{
    obs::MetricRegistry registry;
    registry.counter("exists").add(3);
    EXPECT_EQ(registry.find_counter("absent"), nullptr);
    EXPECT_EQ(registry.find_histogram("absent"), nullptr);
    ASSERT_NE(registry.find_counter("exists"), nullptr);
    EXPECT_EQ(registry.find_counter("exists")->get(), 3u);
    EXPECT_EQ(registry.snapshot().counters.size(), 1u);
}

TEST(MetricRegistry, HistogramLogBucketsBoundRelativeError)
{
    obs::Histogram hist;
    for (SimTime v = 1000; v <= 2'000'000; v += 997)
        hist.record(v);
    // 64 buckets per octave => the bucket upper edge overestimates by
    // at most 2^(1/64)-1 ~ 1.1%.
    for (const double q : {0.1, 0.5, 0.9, 0.99}) {
        const auto p = static_cast<double>(hist.percentile_ns(q));
        const double exact = 1000 + q * (2'000'000 - 1000);
        EXPECT_GT(p, exact * 0.97);
        EXPECT_LT(p, exact * 1.03);
    }
}

// obs::Histogram as a latency statistic (the Sec 7.6 latency bench
// records into it): moments, quantile edges, summary, reset.

TEST(LatencyStats, BasicMoments)
{
    obs::Histogram hist;
    hist.record(100);
    hist.record(200);
    hist.record(300);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_DOUBLE_EQ(hist.mean_ns(), 200);
    EXPECT_EQ(hist.min_ns(), 100u);
    EXPECT_EQ(hist.max_ns(), 300u);
}

TEST(LatencyStats, PercentilesApproximate)
{
    obs::Histogram hist;
    for (SimTime v = 1; v <= 1000; ++v)
        hist.record(v * 1000);
    // 2% log-bucket error allowed.
    EXPECT_NEAR(static_cast<double>(hist.percentile_ns(0.5)), 500e3,
                0.05 * 500e3);
    EXPECT_NEAR(static_cast<double>(hist.percentile_ns(0.99)), 990e3,
                0.05 * 990e3);
}

TEST(LatencyStats, ResetClears)
{
    obs::Histogram hist;
    hist.record(5);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.percentile_ns(0.5), 0u);
}

TEST(LatencyStats, EmptyStatsReportZeroEverywhere)
{
    const obs::Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.mean_ns(), 0.0);
    EXPECT_EQ(hist.min_ns(), 0u);
    EXPECT_EQ(hist.max_ns(), 0u);
    for (const double q : {0.0, 0.5, 0.99, 1.0})
        EXPECT_EQ(hist.percentile_ns(q), 0u) << "q=" << q;
}

TEST(LatencyStats, SingleSampleIsExactAtEveryQuantile)
{
    // A lone sample must be reported exactly — the log-bucket upper
    // edge may not leak out of the observed [min, max] range.
    obs::Histogram hist;
    hist.record(700'000);  // The Sec 7.6 700 us read.
    for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(hist.percentile_ns(q), 700'000u) << "q=" << q;
}

TEST(LatencyStats, QuantileZeroIsMinAndOneIsMax)
{
    obs::Histogram hist;
    hist.record(100);
    hist.record(1'000'000);
    hist.record(3'000);
    EXPECT_EQ(hist.percentile_ns(0.0), 100u);
    EXPECT_EQ(hist.percentile_ns(1.0), 1'000'000u);
    // Interior quantiles stay inside the observed range.
    for (const double q : {0.01, 0.5, 0.999}) {
        const SimTime p = hist.percentile_ns(q);
        EXPECT_GE(p, 100u) << "q=" << q;
        EXPECT_LE(p, 1'000'000u) << "q=" << q;
    }
}

TEST(LatencyStats, SummaryMatchesDirectQueries)
{
    obs::Histogram hist;
    for (SimTime v = 1; v <= 100; ++v)
        hist.record(v * 1000);
    const obs::HistogramSummary s = hist.summary();
    EXPECT_EQ(s.count, hist.count());
    EXPECT_DOUBLE_EQ(s.mean_ns, hist.mean_ns());
    EXPECT_EQ(s.p50_ns, hist.percentile_ns(0.5));
    EXPECT_EQ(s.p95_ns, hist.percentile_ns(0.95));
    EXPECT_EQ(s.p99_ns, hist.percentile_ns(0.99));
}

TEST(MetricRegistry, ExemplarReservoirKeepsSlowestTaggedSamples)
{
    obs::Histogram hist;
    hist.set_exemplar_capacity(3);
    hist.record(5000, 1);
    hist.record(9000, 2);
    hist.record(1000, 3);
    hist.record(7000, 4);
    hist.record(8000, 5);
    hist.record(100'000, 0);  // Untagged: counted, never an exemplar.

    const obs::HistogramSummary s = hist.summary();
    EXPECT_EQ(s.count, 6u);
    ASSERT_EQ(s.exemplars.size(), 3u);
    // Slowest-first, and the untagged 100 us sample is absent.
    EXPECT_EQ(s.exemplars[0].latency_ns, 9000u);
    EXPECT_EQ(s.exemplars[0].trace_id, 2u);
    EXPECT_EQ(s.exemplars[1].latency_ns, 8000u);
    EXPECT_EQ(s.exemplars[1].trace_id, 5u);
    EXPECT_EQ(s.exemplars[2].latency_ns, 7000u);
    EXPECT_EQ(s.exemplars[2].trace_id, 4u);
}

TEST(MetricRegistry, ExemplarsDisabledByDefaultAndClearedByReset)
{
    obs::Histogram plain;
    plain.record(5000, 1);
    EXPECT_TRUE(plain.summary().exemplars.empty());

    obs::Histogram hist;
    hist.set_exemplar_capacity(2);
    hist.record(5000, 1);
    ASSERT_EQ(hist.summary().exemplars.size(), 1u);
    hist.reset();
    EXPECT_TRUE(hist.summary().exemplars.empty());
    // The admission floor reset too: a slower-than-nothing sample
    // re-enters an empty reservoir.
    hist.record(10, 9);
    ASSERT_EQ(hist.summary().exemplars.size(), 1u);
    EXPECT_EQ(hist.summary().exemplars[0].trace_id, 9u);
}

TEST(MetricRegistry, SnapshotJsonCarriesBucketsAndExemplars)
{
    obs::MetricRegistry registry;
    obs::Histogram &hist = registry.histogram("lat");
    hist.set_exemplar_capacity(2);
    hist.record(1000, 11);
    hist.record(2'000'000, 12);

    Result<obs::JsonValue> doc =
        obs::JsonValue::parse(registry.snapshot().to_json());
    ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
    const obs::JsonValue *lat =
        doc.value().find("histograms")->find("lat");
    ASSERT_NE(lat, nullptr);
    const obs::JsonValue *buckets = lat->find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->array.size(), 2u);  // Two distinct buckets.
    EXPECT_EQ(buckets->array[0].find("count")->as_u64(), 1u);
    const obs::JsonValue *exemplars = lat->find("exemplars");
    ASSERT_NE(exemplars, nullptr);
    ASSERT_EQ(exemplars->array.size(), 2u);
    EXPECT_EQ(exemplars->array[0].find("trace_id")->as_u64(), 12u);
    EXPECT_EQ(exemplars->array[0].find("latency_ns")->as_u64(),
              2'000'000u);
}

TEST(MetricRegistry, SnapshotJsonRoundTrips)
{
    obs::MetricRegistry registry;
    registry.counter("requests").add(12);
    registry.gauge("hit_rate").set(0.75);
    registry.histogram("stage \"a\"\n").record(5000);

    obs::ObsSnapshot snap = registry.snapshot();
    snap.sections["ledger"] = {{"tag", 1.5, 1.0}};

    Result<obs::JsonValue> doc = obs::JsonValue::parse(snap.to_json());
    ASSERT_TRUE(doc.is_ok()) << doc.status().to_string();
    const obs::JsonValue &root = doc.value();
    EXPECT_EQ(root.find("counters")->find("requests")->as_u64(), 12u);
    EXPECT_DOUBLE_EQ(root.find("gauges")->find("hit_rate")->number,
                     0.75);
    // Escaped histogram name survives the round trip.
    const obs::JsonValue *hist =
        root.find("histograms")->find("stage \"a\"\n");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->find("count")->as_u64(), 1u);
    EXPECT_EQ(root.find("sections")
                  ->find("ledger")
                  ->array[0]
                  .find("label")
                  ->string,
              "tag");
}

// ---------------------------------------------------------------------
// FidrSystem end to end.

TEST(ObsEndToEnd, WriteFlowPopulatesStageHistograms)
{
    core::FidrConfig config;
    config.journal_metadata = true;
    core::FidrSystem system(config);

    for (int i = 0; i < 512; ++i) {
        ASSERT_TRUE(system
                        .write(static_cast<Lba>(i),
                               chunk_of(static_cast<std::uint64_t>(
                                   i % 128)))
                        .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    for (int i = 0; i < 64; ++i) {
        ASSERT_TRUE(system.read(static_cast<Lba>(i * 3)).is_ok());
    }

    const obs::ObsSnapshot snap = system.obs_snapshot();

    // The acceptance bar: >= 8 distinct write-flow stages with real
    // samples and percentile data.
    std::size_t write_stages = 0;
    for (const auto &[name, h] : snap.histograms) {
        if (name.rfind("write.", 0) == 0 && h.count > 0) {
            ++write_stages;
            EXPECT_LE(h.p50_ns, h.p95_ns) << name;
            EXPECT_LE(h.p95_ns, h.p99_ns) << name;
            EXPECT_LE(h.p99_ns, h.max_ns) << name;
        }
    }
    EXPECT_GE(write_stages, 8u);

    // Read path too.
    EXPECT_EQ(snap.histograms.at("read.total").count, 64u);
    EXPECT_GT(snap.histograms.at("read.ssd_fetch").count, 0u);

    // Flow counters and ledger sections came along.
    EXPECT_EQ(snap.counters.at("write.chunks"), 512u);
    EXPECT_EQ(snap.counters.at("write.unique_chunks"), 128u);
    EXPECT_GT(snap.counters.at("journal.records"), 0u);
    EXPECT_GT(snap.gauges.at("write.reduction_ratio"), 1.0);
    EXPECT_FALSE(snap.sections.at("cpu_core_seconds").empty());
    EXPECT_FALSE(
        snap.sections.at("host_dram_bandwidth_bytes").empty());

    // And the whole snapshot serializes to valid JSON.
    EXPECT_TRUE(obs::JsonValue::parse(snap.to_json()).is_ok());
}

#if FIDR_TRACE_ENABLED
TEST(ObsEndToEnd, TracedBatchExportsBalancedSpans)
{
    obs::Tracer &tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.enable();

    core::FidrConfig config;
    core::FidrSystem system(config);
    for (int i = 0; i < 256; ++i) {
        ASSERT_TRUE(system
                        .write(static_cast<Lba>(i),
                               chunk_of(static_cast<std::uint64_t>(i)))
                        .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    tracer.enable(false);

    EXPECT_GT(tracer.total_held(), 0u);
    Result<obs::JsonValue> doc =
        obs::JsonValue::parse(tracer.export_chrome_json());
    ASSERT_TRUE(doc.is_ok());

    // Every B has a matching E on its tid, stack-ordered.
    std::map<std::uint64_t, std::vector<std::string>> stacks;
    for (const obs::JsonValue &event :
         doc.value().find("traceEvents")->array) {
        const std::string &ph = event.find("ph")->string;
        const std::uint64_t tid = event.find("tid")->as_u64();
        if (ph == "B") {
            stacks[tid].push_back(event.find("name")->string);
        } else if (ph == "E") {
            ASSERT_FALSE(stacks[tid].empty());
            EXPECT_EQ(stacks[tid].back(), event.find("name")->string);
            stacks[tid].pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;

    tracer.reset();
}
#endif  // FIDR_TRACE_ENABLED
