/**
 * @file
 * Queueing primitives for the request-timing models: a serializing
 * bandwidth pipe (Ssd::io_complete_time, the Sec 7.6 latency bench)
 * and a bank of FIFO servers (core/pipeline_sim).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "fidr/common/units.h"

namespace fidr::sim {

/**
 * A shared link/port that serializes transfers at a fixed bandwidth.
 * busy_until() models head-of-line occupancy: a transfer issued at time
 * t completes at max(t, busy_until) + size/bandwidth, which is the
 * standard store-and-forward pipe model.
 */
class BandwidthPipe {
  public:
    /** @param bandwidth bytes per second; must be positive. */
    explicit BandwidthPipe(Bandwidth bandwidth);

    /**
     * Reserves the pipe for `bytes` starting no earlier than `start`;
     * returns the completion time.
     */
    SimTime transfer(SimTime start, std::uint64_t bytes);

    SimTime busy_until() const { return busy_until_; }
    Bandwidth bandwidth() const { return bandwidth_; }

    /** Total bytes ever pushed through the pipe. */
    std::uint64_t bytes_transferred() const { return bytes_; }

  private:
    Bandwidth bandwidth_;
    SimTime busy_until_ = 0;
    std::uint64_t bytes_ = 0;
};

/**
 * A bank of identical servers with a shared FIFO discipline: each
 * job grabs the earliest-available server no sooner than its arrival.
 * Models multi-core host stages, SHA-core arrays, and compression
 * engine pools in the pipeline simulator.
 */
class MultiServerQueue {
  public:
    explicit MultiServerQueue(unsigned servers);

    /**
     * Serves a job arriving at `arrival` for `service` ns; returns its
     * completion time.
     */
    SimTime serve(SimTime arrival, SimTime service);

    unsigned servers() const { return static_cast<unsigned>(free_.size()); }

    /** Total service time delivered (for utilization reports). */
    double busy_seconds() const { return busy_ns_ * 1e-9; }

    /** Utilization over a horizon of `seconds`. */
    double
    utilization(double seconds) const
    {
        return seconds > 0
                   ? busy_seconds() /
                         (seconds * static_cast<double>(free_.size()))
                   : 0.0;
    }

  private:
    std::vector<SimTime> free_;  ///< Min-heap of server-free times.
    double busy_ns_ = 0;
};

}  // namespace fidr::sim
