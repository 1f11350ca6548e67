#include "fidr/nic/fidr_nic.h"

#include "fidr/fault/failpoint.h"
#include "fidr/hash/sha256_mb.h"
#include "fidr/obs/trace.h"

namespace fidr::nic {
namespace {

/**
 * Feeds one hash worker's shard of the chunk queue through the batch
 * SHA-256 engine: unhashed chunks go to one sha256_mb_hash call (SHA-NI
 * where the host has it, else 8 interleaved messages per AVX2
 * transform) instead of one-at-a-time Sha256 calls.  Digests are
 * bit-identical to the portable path, so the lane-count and
 * dispatch-target determinism contracts both hold.
 */
void
hash_shard_mb(std::vector<BufferedChunk> &chunks, std::size_t begin,
              std::size_t end)
{
    std::vector<std::span<const std::uint8_t>> pending;
    std::vector<std::size_t> slots;
    pending.reserve(end - begin);
    slots.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
        if (!chunks[i].hashed) {
            pending.push_back(chunks[i].data);
            slots.push_back(i);
        }
    }
    if (pending.empty())
        return;
    std::vector<Digest> digests(pending.size());
    sha256_mb_hash(pending, digests.data());
    for (std::size_t j = 0; j < slots.size(); ++j) {
        chunks[slots[j]].digest = digests[j];
        chunks[slots[j]].hashed = true;
    }
}

}  // namespace

FidrNic::FidrNic(FidrNicConfig config) : config_(config)
{
    FIDR_CHECK(config_.buffer_capacity >= kChunkSize);
    FIDR_CHECK(config_.hash_batch >= 1);
    lanes_ = config_.hash_lanes == 0 ? ThreadPool::hardware_lanes()
                                     : config_.hash_lanes;
    if (lanes_ > 1)
        pool_ = std::make_unique<ThreadPool>(lanes_);
}

Status
FidrNic::buffer_write(Lba lba, Buffer data)
{
    if (data.size() != kChunkSize)
        return Status::invalid_argument("write chunk must be 4 KB");
    // Sealed batches still occupy NIC DRAM until their commit point.
    if (pending_bytes() + kChunkSize > config_.buffer_capacity)
        return Status::unavailable("NIC buffer full");
    // Injected admission fault before any mutation: a rejected write
    // is never acknowledged, so it owes the client nothing.
    FIDR_FAULT_RETURN_IF(fault::Site::kNicBuffer);
    newest_.put(lba, chunks_.size());
    chunks_.push_back(BufferedChunk{lba, std::move(data), Digest{}, false});
    ++total_buffered_;
    return Status::ok();
}

std::optional<Buffer>
FidrNic::lookup_buffered(Lba lba) const
{
    const std::size_t *newest = newest_.find(lba);
    if (newest == nullptr)
        return std::nullopt;
    return chunks_[*newest].data;
}

SealedBatch *
FidrNic::seal_batch()
{
    if (chunks_.empty())
        return nullptr;
    auto batch = std::make_unique<SealedBatch>();
    batch->chunks.reserve(chunks_.size());
    for (BufferedChunk &chunk : chunks_)
        batch->chunks.push_back(std::move(chunk));
    chunks_.clear();
    newest_.clear();

    std::lock_guard<std::mutex> lock(seal_mutex_);
    batch->epoch = ++next_epoch_;
    sealed_chunk_count_.fetch_add(batch->chunks.size(),
                                  std::memory_order_relaxed);
    sealed_.push_back(std::move(batch));
    return sealed_.back().get();
}

SealedBatch *
FidrNic::find_sealed(std::uint64_t epoch)
{
    std::lock_guard<std::mutex> lock(seal_mutex_);
    for (const auto &batch : sealed_) {
        if (batch->epoch == epoch)
            return batch.get();
    }
    return nullptr;
}

std::size_t
FidrNic::sealed_batches() const
{
    std::lock_guard<std::mutex> lock(seal_mutex_);
    return sealed_.size();
}

void
FidrNic::hash_chunks(std::vector<BufferedChunk> &chunks)
{
    const auto hash_range = [&chunks](std::size_t begin, std::size_t end) {
        // One span per SHA lane shard; worker threads record into
        // their own trace rings, so lanes show as separate Perfetto
        // tracks.  Object id = first chunk index of the shard.
        FIDR_TRACE_SPAN(lane_span, obs::Tpoint::kWriteHashLane, begin,
                        end - begin);
        hash_shard_mb(chunks, begin, end);
    };
    // Each lane owns a contiguous shard of the batch, like the paper's
    // independent SHA cores draining disjoint slices of NIC DRAM.
    if (pool_)
        pool_->parallel_for(chunks.size(), hash_range);
    else
        hash_range(0, chunks.size());
}

void
FidrNic::hash_sealed(SealedBatch &batch)
{
    std::uint64_t fresh = 0;
    for (const BufferedChunk &chunk : batch.chunks)
        fresh += chunk.hashed ? 0 : 1;
    hash_chunks(batch.chunks);
    batch.fresh_hashes = fresh;
}

Result<std::vector<const BufferedChunk *>>
FidrNic::peek_unique_sealed(const SealedBatch &batch,
                            std::span<const ChunkVerdict> verdicts) const
{
    if (verdicts.size() != batch.chunks.size()) {
        return Status::invalid_argument(
            "verdict count does not match sealed batch");
    }
    FIDR_FAULT_RETURN_IF(fault::Site::kNicSchedule);
    std::vector<const BufferedChunk *> unique;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
        if (verdicts[i] == ChunkVerdict::kUnique)
            unique.push_back(&batch.chunks[i]);
    }
    return unique;
}

void
FidrNic::drop_sealed(std::uint64_t epoch)
{
    std::lock_guard<std::mutex> lock(seal_mutex_);
    FIDR_CHECK(!sealed_.empty() && sealed_.front()->epoch == epoch);
    sealed_chunk_count_.fetch_sub(sealed_.front()->chunks.size(),
                                  std::memory_order_relaxed);
    hashes_computed_ += sealed_.front()->fresh_hashes;
    sealed_.pop_front();
}

void
FidrNic::unseal_all()
{
    std::lock_guard<std::mutex> lock(seal_mutex_);
    if (sealed_.empty())
        return;
    // Sealed chunks predate anything buffered since, so they return to
    // the *front* of the open buffer, oldest epoch first; the rebuilt
    // LBA lookup then resolves to the newest write again.  Digests
    // already computed stay (hashed flags survive), so a retried batch
    // never re-counts them as fresh hashes.
    std::deque<BufferedChunk> merged;
    for (auto &batch : sealed_) {
        // SHA work already done on a failed batch is still work done:
        // credit it now, since the batch never reaches drop_sealed.
        hashes_computed_ += batch->fresh_hashes;
        for (BufferedChunk &chunk : batch->chunks)
            merged.push_back(std::move(chunk));
    }
    for (BufferedChunk &chunk : chunks_)
        merged.push_back(std::move(chunk));
    chunks_ = std::move(merged);
    sealed_.clear();
    sealed_chunk_count_.store(0, std::memory_order_relaxed);
    newest_.clear();
    for (std::size_t i = 0; i < chunks_.size(); ++i)
        newest_.put(chunks_[i].lba, i);
}

}  // namespace fidr::nic
