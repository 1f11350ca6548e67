// Tests for binary trace save/load.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fidr/workload/generator.h"
#include "fidr/workload/trace_io.h"

namespace fidr::workload {
namespace {

std::string
temp_trace_path(const char *name)
{
    return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceIo, SaveLoadRoundTrip)
{
    WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    spec.read_fraction = 0.3;
    WorkloadGenerator gen(spec);
    const std::vector<IoRequest> requests = gen.batch(500);

    const std::string path = temp_trace_path("roundtrip.fidtrace");
    ASSERT_TRUE(save_trace(path, requests, 0.5).is_ok());

    Result<std::vector<IoRequest>> loaded = load_trace(path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    ASSERT_EQ(loaded.value().size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(loaded.value()[i].dir, requests[i].dir);
        EXPECT_EQ(loaded.value()[i].lba, requests[i].lba);
        EXPECT_EQ(loaded.value()[i].content_id,
                  requests[i].content_id);
        // Payloads re-synthesize to the exact original bytes.
        if (requests[i].dir == IoDir::kWrite) {
            EXPECT_EQ(loaded.value()[i].data, requests[i].data);
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, LoadWithoutMaterialization)
{
    WorkloadGenerator gen(WorkloadSpec{});
    const auto requests = gen.batch(50);
    const std::string path = temp_trace_path("lean.fidtrace");
    ASSERT_TRUE(save_trace(path, requests).is_ok());

    Result<std::vector<IoRequest>> loaded = load_trace(path, false);
    ASSERT_TRUE(loaded.is_ok());
    for (const IoRequest &req : loaded.value())
        EXPECT_TRUE(req.data.empty());
    std::remove(path.c_str());
}

TEST(TraceIo, MissingFile)
{
    EXPECT_EQ(load_trace("/nonexistent/nowhere.fidtrace").status().code(),
              StatusCode::kNotFound);
}

TEST(TraceIo, RejectsCorruptHeaderAndTruncation)
{
    const std::string path = temp_trace_path("bad.fidtrace");
    WorkloadGenerator gen(WorkloadSpec{});
    ASSERT_TRUE(save_trace(path, gen.batch(20)).is_ok());

    // Flip the magic.
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        std::fputc(0x00, f);
        std::fclose(f);
    }
    EXPECT_EQ(load_trace(path).status().code(), StatusCode::kCorruption);

    // Re-save, then truncate mid-record.
    ASSERT_TRUE(save_trace(path, gen.batch(20)).is_ok());
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        std::fclose(f);
        ASSERT_EQ(truncate(path.c_str(), size - 5), 0);
    }
    EXPECT_EQ(load_trace(path).status().code(), StatusCode::kCorruption);
    std::remove(path.c_str());
}

TEST(TraceIo, TraceIsCompact)
{
    // 17 B per record + 24 B header: a million-IO trace is ~17 MB,
    // not 4 GB of payloads.
    WorkloadGenerator gen(WorkloadSpec{});
    const auto requests = gen.batch(1000);
    const std::string path = temp_trace_path("compact.fidtrace");
    ASSERT_TRUE(save_trace(path, requests).is_ok());
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_EQ(std::ftell(f), 24 + 1000 * 17);
    std::fclose(f);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace fidr::workload
