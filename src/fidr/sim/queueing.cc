#include "fidr/sim/queueing.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "fidr/common/status.h"

namespace fidr::sim {

BandwidthPipe::BandwidthPipe(Bandwidth bandwidth) : bandwidth_(bandwidth)
{
    FIDR_CHECK(bandwidth > 0);
}

MultiServerQueue::MultiServerQueue(unsigned servers)
{
    FIDR_CHECK(servers >= 1);
    free_.assign(servers, 0);
    std::make_heap(free_.begin(), free_.end(), std::greater<>());
}

SimTime
MultiServerQueue::serve(SimTime arrival, SimTime service)
{
    std::pop_heap(free_.begin(), free_.end(), std::greater<>());
    const SimTime start = std::max(arrival, free_.back());
    const SimTime done = start + service;
    free_.back() = done;
    std::push_heap(free_.begin(), free_.end(), std::greater<>());
    busy_ns_ += static_cast<double>(service);
    return done;
}

SimTime
BandwidthPipe::transfer(SimTime start, std::uint64_t bytes)
{
    const SimTime begin = std::max(start, busy_until_);
    const auto duration = static_cast<SimTime>(
        std::llround(static_cast<double>(bytes) / bandwidth_ * 1e9));
    busy_until_ = begin + duration;
    bytes_ += bytes;
    return busy_until_;
}

}  // namespace fidr::sim
