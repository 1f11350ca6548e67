// Self-tests of the benchmark's own arithmetic: tail-percentile
// selection under the ten-samples-beyond rule, the Zipf sampler, and
// the sequencer layer-residual accounting.  Exits non-zero on failure.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol;
}

void
test_percentile_rule()
{
    // 1..n shuffled: nearest-rank quantile q is ceil(q * n).
    std::vector<int> values;
    for (int i = 1; i <= 1000; ++i)
        values.push_back((i * 7919) % 1000 + 1);  // a permutation of 1..1000

    check(percentile(values, 0.5) == std::optional<int>(500),
          "median of 1..1000 is 500");
    check(percentile(values, 0.99) == std::optional<int>(990),
          "p99 of 1..1000 is 990 (10 samples beyond)");
    check(!percentile(values, 0.999).has_value(),
          "p99.9 of 1000 samples has only 1 beyond: unsupported");

    check(percentile_supported(10'000, 0.999),
          "p99.9 of 10,000 samples has exactly 10 beyond");
    check(!percentile_supported(9'999, 0.999),
          "p99.9 of 9,999 samples has 9 beyond");
    check(!percentile_supported(10, 0.5), "median of 10 has 4 beyond");
    check(percentile_supported(21, 0.5), "median of 21 has 10 beyond");
    check(!percentile_supported(0, 0.5), "empty sample supports nothing");

    std::vector<int> big;
    for (int i = 0; i < 10'000; ++i)
        big.push_back(10'000 - i);
    check(percentile(big, 0.999) == std::optional<int>(9'990),
          "p99.9 of 1..10000 is 9990");
}

void
test_median()
{
    check(median({3, 1, 2}) == 2, "odd median");
    check(median({4, 1, 3, 2}) == 2.5, "even median averages the middle");
    check(median({}) == 0, "empty median is 0");
}

void
test_zipf()
{
    const std::size_t n = 1000;
    const ZipfSampler zipf(n, 0.99);
    double mass = 0;
    for (std::size_t r = 0; r < n; ++r)
        mass += zipf.probability(r);
    check(near(mass, 1.0, 1e-9), "Zipf probabilities sum to 1");
    check(near(zipf.probability(0) / zipf.probability(1),
               std::pow(2.0, 0.99), 1e-9),
          "rank 0 is 2^s times as likely as rank 1");

    fidr::Rng rng(7);
    std::vector<std::size_t> hits(n, 0);
    const std::size_t draws = 200'000;
    for (std::size_t i = 0; i < draws; ++i) {
        const std::size_t r = zipf.sample(rng);
        check(r < n, "sample in range");
        ++hits[r];
    }
    for (const std::size_t r : {0ul, 1ul, 9ul, 99ul}) {
        const double expected = zipf.probability(r) * draws;
        // Five standard deviations of a binomial count.
        check(std::fabs(static_cast<double>(hits[r]) - expected) <=
                  5 * std::sqrt(expected),
              "empirical rank frequency matches the Zipf mass");
    }
    fidr::Rng a(11), b(11);
    bool same = true;
    for (int i = 0; i < 100; ++i)
        same = same && zipf.sample(a) == zipf.sample(b);
    check(same, "the same seed gives the same ranks");
}

void
test_layer_account()
{
    const LayerAccount a = account_layers({0.5, 0.25, 0.125}, 1.0, 2.0);
    check(a.stages_s == 0.875, "stages add up");
    check(a.other_s == 0.125, "other = execute - stages");
    check(a.idle_s == 1.0, "idle = wall - execute");
    check(a.stage_frac == 0.875, "stage share of execute");
    check(a.busy_frac == 0.5, "execute share of wall");
    check(a.stages_s + a.other_s + a.idle_s == 2.0,
          "stages + other + idle = wall");

    const LayerAccount empty = account_layers({}, 0.0, 0.0);
    check(empty.stage_frac == 0 && empty.busy_frac == 0,
          "zero denominators give zero shares");
}

}  // namespace

int
main()
{
    test_percentile_rule();
    test_median();
    test_zipf();
    test_layer_account();
    if (failures == 0)
        std::printf("perfbench selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
