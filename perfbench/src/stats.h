/**
 * @file
 * Small statistics used by the benchmark: tail percentiles under
 * the ten-samples-beyond rule, medians, a Zipf sampler, and the
 * sequencer layer-residual arithmetic.  Header-only so the self-test
 * binary links nothing but these definitions.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "fidr/common/rng.h"

namespace perfbench {

/** A tail percentile is reported only with this many samples above it. */
inline constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * Nearest-rank index of quantile `q` in a sorted sample of size `n`:
 * the smallest rank r with (r + 1) / n >= q.
 */
inline std::size_t
rank_of(std::size_t n, double q)
{
    const double exact = std::ceil(q * static_cast<double>(n));
    const std::size_t rank =
        exact < 1.0 ? 0 : static_cast<std::size_t>(exact) - 1;
    return std::min(rank, n - 1);
}

/** True when quantile `q` of `n` samples has >= 10 samples above it. */
inline bool
percentile_supported(std::size_t n, double q)
{
    if (n == 0)
        return false;
    return n - 1 - rank_of(n, q) >= kMinSamplesBeyond;
}

/**
 * Nearest-rank quantile `q` of `samples` (reordered in place), or
 * nullopt when fewer than ten samples lie beyond it — a p99.9 of 5,000
 * samples is the maximum of five, not a percentile.  The median (q =
 * 0.5) of any non-empty sample of >= 21 values is supported.
 */
template <typename T>
std::optional<T>
percentile(std::vector<T> &samples, double q)
{
    if (!percentile_supported(samples.size(), q))
        return std::nullopt;
    const std::size_t rank = rank_of(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + rank,
                     samples.end());
    return samples[rank];
}

/** Median of `values` (mean of the middle pair for even sizes). */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : 0.5 * (values[mid - 1] + values[mid]);
}

/**
 * Zipf(s) ranks over [0, n) by inversion of the exact harmonic CDF:
 * rank r is drawn with probability (r + 1)^-s / H(n, s).
 */
class ZipfSampler {
  public:
    ZipfSampler(std::size_t n, double s) : cdf_(n)
    {
        double total = 0.0;
        for (std::size_t r = 0; r < n; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), s);
            cdf_[r] = total;
        }
    }

    /** Probability mass of rank `r`. */
    double
    probability(std::size_t r) const
    {
        const double below = r == 0 ? 0.0 : cdf_[r - 1];
        return (cdf_[r] - below) / cdf_.back();
    }

    std::size_t
    sample(fidr::Rng &rng) const
    {
        const double u = rng.next_double() * cdf_.back();
        const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        return std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
    }

  private:
    std::vector<double> cdf_;
};

/**
 * Where the commit sequencer's busy time went: the named stages, the
 * unnamed rest (ledger billing, obs recording, commit bookkeeping), and
 * the wall time the sequencer sat idle.  All in seconds.
 */
struct LayerAccount {
    double stages_s = 0;     ///< Sum of the disjoint named stages.
    double other_s = 0;      ///< execute busy - stages (>= 0 expected).
    double idle_s = 0;       ///< wall - execute busy.
    double stage_frac = 0;   ///< stages / execute busy.
    double busy_frac = 0;    ///< execute busy / wall.
};

inline LayerAccount
account_layers(const std::vector<double> &stage_seconds,
               double execute_busy_s, double wall_s)
{
    LayerAccount out;
    for (const double s : stage_seconds)
        out.stages_s += s;
    out.other_s = execute_busy_s - out.stages_s;
    out.idle_s = wall_s - execute_busy_s;
    out.stage_frac = execute_busy_s > 0 ? out.stages_s / execute_busy_s : 0;
    out.busy_frac = wall_s > 0 ? execute_busy_s / wall_s : 0;
    return out;
}

}  // namespace perfbench
