/**
 * @file
 * In-memory span recorder for the traced run.  Spans are opened and
 * closed by the benchmark's own code around each call it makes into the
 * system (one closed-loop client thread, so a stack gives each span its
 * parent).  Nothing is written until the run ends.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

class Spans {
  public:
    /** Aggregate of every span with one name. */
    struct Totals {
        double total_s = 0;
        double self_s = 0;  ///< total minus time covered by children.
    };

    explicit Spans(bool enabled) : enabled_(enabled) {}

    /** RAII span; a no-op when the recorder is disabled. */
    class Scope {
      public:
        Scope(Spans &spans, const char *name)
            : spans_(spans),
              index_(spans.enabled_ ? spans.open(name) : kNone)
        {
        }
        ~Scope()
        {
            if (index_ != kNone)
                spans_.close(index_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        std::size_t index_;
    };

    /** Per-name totals with self time (children subtracted). */
    std::map<std::string, Totals>
    totals() const
    {
        std::vector<double> child_s(records_.size(), 0.0);
        for (const Record &r : records_) {
            if (r.parent != kNone)
                child_s[r.parent] += seconds(r);
        }
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < records_.size(); ++i) {
            Totals &t = out[records_[i].name];
            t.total_s += seconds(records_[i]);
            t.self_s += seconds(records_[i]) - child_s[i];
        }
        return out;
    }

    /** Writes every span as Chrome trace-event JSON; false on IO error. */
    bool
    write_chrome_trace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const std::uint64_t base =
            records_.empty() ? 0 : records_.front().start_ns;
        std::fputs("{\"traceEvents\":[\n", f);
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%lld}}\n",
                         i == 0 ? "" : ",", r.name,
                         static_cast<double>(r.start_ns - base) / 1e3,
                         static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                         i,
                         r.parent == kNone
                             ? -1LL
                             : static_cast<long long>(r.parent));
        }
        std::fputs("]}\n", f);
        return std::fclose(f) == 0;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Record {
        const char *name = "";
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
        std::size_t parent = kNone;
    };

    static double
    seconds(const Record &r)
    {
        return static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    }

    std::size_t
    open(const char *name)
    {
        Record r;
        r.name = name;
        r.parent = stack_.empty() ? kNone : stack_.back();
        records_.push_back(r);
        stack_.push_back(records_.size() - 1);
        records_.back().start_ns = now_ns();
        return records_.size() - 1;
    }

    void
    close(std::size_t index)
    {
        records_[index].end_ns = now_ns();
        stack_.pop_back();
    }

    bool enabled_;
    std::vector<Record> records_;
    std::vector<std::size_t> stack_;
};

}  // namespace perfbench
