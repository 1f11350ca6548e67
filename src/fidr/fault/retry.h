/**
 * @file
 * The degraded-mode retry loop, with the counting split from the
 * charging.
 *
 * A transient device error (kUnavailable) is retried up to a budget of
 * extra attempts.  retry_counted() only counts what happened into a
 * RetryTally; the owner charges the tally to its fault counters and
 * backoff (FidrSystem::charge_retries).  Keeping the loop pure lets
 * the read plane discard the tally of a spill-ring read that falls
 * back to the container, and charge every other tally through the
 * same accounting any retried operation uses.
 */
#pragma once

#include "fidr/common/status.h"

namespace fidr::fault {

/** What one retried operation did. */
struct RetryTally {
    unsigned retries = 0;    ///< Re-issues after a kUnavailable failure.
    bool exhausted = false;  ///< Still kUnavailable after the last one.
};

inline const Status &
status_of(const Status &status)
{
    return status;
}

template <typename T>
const Status &
status_of(const Result<T> &result)
{
    return result.status();
}

/**
 * Runs `op`, re-running it while it fails kUnavailable, up to `budget`
 * extra attempts; adds the re-runs (and whether the last attempt was
 * still transient) to `tally`.  Non-transient errors return at once.
 * `op` returns a Status or a Result<T>; the last outcome is returned.
 */
template <typename Op>
auto
retry_counted(unsigned budget, RetryTally &tally, Op &&op)
{
    auto outcome = op();
    for (unsigned attempt = 0;
         status_of(outcome).code() == StatusCode::kUnavailable &&
         attempt < budget;
         ++attempt) {
        ++tally.retries;
        outcome = op();
    }
    tally.exhausted =
        status_of(outcome).code() == StatusCode::kUnavailable;
    return outcome;
}

}  // namespace fidr::fault
