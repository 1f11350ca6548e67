#include "fidr/core/write_pipeline.h"

#include <algorithm>

#include "fidr/obs/trace.h"

namespace fidr::core {

WritePipeline::WritePipeline(const WritePipelineConfig &config,
                             nic::FidrNic &nic, HashFn hash,
                             ExecuteFn execute,
                             WritePipelineMetrics metrics)
    : config_(config), nic_(nic), hash_(std::move(hash)),
      execute_(std::move(execute)), metrics_(metrics)
{
    FIDR_CHECK(config_.depth >= 1);
    FIDR_CHECK(hash_ && execute_);
    // Hash-stage workers: one per batch that can be in flight, capped
    // at the hardware lanes.
    hash_pool_ = std::make_unique<ThreadPool>(
        std::min(config_.depth, ThreadPool::hardware_lanes()));
    executor_ = std::thread([this] { executor_loop(); });
}

WritePipeline::~WritePipeline()
{
    // Nothing may be running when the executor stops: committed work
    // already drained, failed work was aborted by the executor itself.
    quiesce();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    executor_cv_.notify_all();
    executor_.join();
    hash_pool_.reset();
}

Status
WritePipeline::submit(std::uint64_t epoch)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (in_flight_locked() >= config_.depth && !failed_) {
            if (metrics_.stalls)
                metrics_.stalls->add();
            FIDR_TRACE_SPAN(stall_span, obs::Tpoint::kPipelineStall,
                            epoch, flights_.size());
            obs::StageTimer stall;
            caller_cv_.wait(lock, [this] {
                return in_flight_locked() < config_.depth || failed_;
            });
            if (metrics_.submit_stall_ns)
                metrics_.submit_stall_ns->record(stall.elapsed_ns());
        }
        if (failed_)
            return error_;  // Batch stays sealed; owner unseals.
        flights_.push_back(Flight{epoch, false});
        ++hash_outstanding_;
        if (metrics_.batches)
            metrics_.batches->add();
        if (metrics_.queue_depth)
            metrics_.queue_depth->record(in_flight_locked());
    }
    FIDR_TPOINT(obs::Tpoint::kPipelineSubmit, epoch, config_.depth);
    hash_pool_->submit([this, epoch] { hash_task(epoch); });
    return Status::ok();
}

void
WritePipeline::credit_overlap_locked(
    std::chrono::steady_clock::time_point a,
    std::chrono::steady_clock::time_point b)
{
    if (!metrics_.overlap_ns)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto from = std::max(a, b);
    if (now > from) {
        metrics_.overlap_ns->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                 from)
                .count()));
    }
}

void
WritePipeline::begin_hash_activity_locked()
{
    if (hash_active_++ == 0)
        hash_union_start_ = std::chrono::steady_clock::now();
}

void
WritePipeline::end_hash_activity_locked()
{
    FIDR_CHECK(hash_active_ > 0);
    if (--hash_active_ == 0 && executor_busy_)
        credit_overlap_locked(hash_union_start_, exec_start_);
}

void
WritePipeline::hash_task(std::uint64_t epoch)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        begin_hash_activity_locked();
    }
    // The batch cannot disappear underneath us: the commit sequencer
    // only drops an epoch after its hash completed, and unseal_all
    // requires a quiesced pipeline (hash_outstanding_ == 0).
    nic::SealedBatch *batch = nic_.find_sealed(epoch);
    if (batch != nullptr) {
        // Re-establish the batch's request context on this worker so
        // every record the hash stage emits carries its trace id.
        obs::ScopedRequest request(batch->trace_id, batch->stream_tag);
        FIDR_TRACE_SPAN(span, obs::Tpoint::kPipelineHashStage, epoch,
                        batch->chunks.size());
        hash_(*batch);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        end_hash_activity_locked();
        --hash_outstanding_;
        for (Flight &flight : flights_) {
            if (flight.epoch == epoch) {
                flight.hashed = true;
                break;
            }
        }
    }
    executor_cv_.notify_all();
    caller_cv_.notify_all();  // quiesce() also waits on hash work.
}

void
WritePipeline::executor_loop()
{
    for (;;) {
        std::uint64_t epoch = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            executor_cv_.wait(lock, [this] {
                return stop_ ||
                       (!flights_.empty() &&
                        (flights_.front().hashed || failed_));
            });
            if (stop_)
                return;
            if (failed_) {
                // Abort queued epochs: their batches stay sealed in
                // NIC NVRAM for the owner's unseal_all().
                flights_.clear();
                caller_cv_.notify_all();
                continue;
            }
            epoch = flights_.front().epoch;
            flights_.pop_front();
            executor_busy_ = true;
            exec_start_ = std::chrono::steady_clock::now();
        }

        nic::SealedBatch *batch = nic_.find_sealed(epoch);
        FIDR_CHECK(batch != nullptr);
        Status status;
        {
            // The sequencer serves one request at a time; scope its
            // context so the serial commit stages trace under it.
            obs::ScopedRequest request(batch->trace_id,
                                       batch->stream_tag);
            status = execute_(*batch);
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (hash_active_ > 0)
                credit_overlap_locked(exec_start_, hash_union_start_);
            executor_busy_ = false;
            if (!status.is_ok()) {
                if (!failed_) {
                    failed_ = true;
                    error_ = status;
                }
                flights_.clear();
            }
        }
        caller_cv_.notify_all();
        executor_cv_.notify_all();
    }
}

void
WritePipeline::quiesce()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (flights_.empty() && hash_outstanding_ == 0 && !executor_busy_)
        return;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kPipelineDrain, 0,
                    in_flight_locked());
    caller_cv_.wait(lock, [this] {
        return flights_.empty() && hash_outstanding_ == 0 &&
               !executor_busy_;
    });
}

bool
WritePipeline::failed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

Status
WritePipeline::take_error()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_)
        return Status::ok();
    Status error = error_;
    failed_ = false;
    error_ = Status::ok();
    return error;
}

std::size_t
WritePipeline::in_flight() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return in_flight_locked();
}

}  // namespace fidr::core
