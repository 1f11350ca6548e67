#include "fidr/cache/table_cache.h"

#include "fidr/fault/failpoint.h"
#include "fidr/obs/trace.h"

namespace fidr::cache {

FreeList::FreeList(std::size_t capacity) : ring_(capacity + 1, 0) {}

void
FreeList::push(std::size_t line)
{
    FIDR_CHECK(count_ < ring_.size());
    ring_[tail_] = line;
    tail_ = (tail_ + 1) % ring_.size();
    ++count_;
}

std::optional<std::size_t>
FreeList::pop()
{
    if (count_ == 0)
        return std::nullopt;
    const std::size_t line = ring_[head_];
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return line;
}

LruList::LruList(std::size_t lines) : links_(lines) {}

void
LruList::unlink(std::size_t line)
{
    Links &l = links_[line];
    FIDR_CHECK(l.linked);
    if (l.prev != kNil)
        links_[l.prev].next = l.next;
    else
        head_ = l.next;
    if (l.next != kNil)
        links_[l.next].prev = l.prev;
    else
        tail_ = l.prev;
    l = Links{};
    --count_;
}

void
LruList::touch(std::size_t line)
{
    FIDR_CHECK(line < links_.size());
    if (links_[line].linked)
        unlink(line);
    Links &l = links_[line];
    l.linked = true;
    l.prev = kNil;
    l.next = head_;
    if (head_ != kNil)
        links_[head_].prev = line;
    head_ = line;
    if (tail_ == kNil)
        tail_ = line;
    ++count_;
}

std::optional<std::size_t>
LruList::pop_victim()
{
    if (tail_ == kNil)
        return std::nullopt;
    const std::size_t line = tail_;
    unlink(line);
    return line;
}

void
LruList::remove(std::size_t line)
{
    FIDR_CHECK(line < links_.size());
    if (links_[line].linked)
        unlink(line);
}

ShardedCacheIndex::ShardedCacheIndex(
    std::vector<std::unique_ptr<CacheIndex>> subs)
    : subs_(std::move(subs))
{
    FIDR_CHECK(!subs_.empty() &&
               (subs_.size() & (subs_.size() - 1)) == 0);
    mask_ = subs_.size() - 1;
    for (const auto &sub : subs_)
        FIDR_CHECK(sub != nullptr);
}

std::optional<std::size_t>
ShardedCacheIndex::find(BucketIndex bucket)
{
    return subs_[static_cast<std::size_t>(bucket) & mask_]->find(bucket);
}

Status
ShardedCacheIndex::insert(BucketIndex bucket, std::size_t line)
{
    return subs_[static_cast<std::size_t>(bucket) & mask_]->insert(bucket,
                                                                   line);
}

void
ShardedCacheIndex::erase(BucketIndex bucket)
{
    subs_[static_cast<std::size_t>(bucket) & mask_]->erase(bucket);
}

std::size_t
ShardedCacheIndex::size() const
{
    std::size_t total = 0;
    for (const auto &sub : subs_)
        total += sub->size();
    return total;
}

TableCache::TableCache(tables::HashPbnTable &table, CacheIndex &index,
                       std::size_t lines, EvictionPolicy policy,
                       std::size_t shards)
    : table_(table), index_(index), policy_(policy), lines_(lines)
{
    FIDR_CHECK(lines > 0);
    FIDR_CHECK(shards > 0 && (shards & (shards - 1)) == 0);
    FIDR_CHECK(lines >= shards);
    shard_mask_ = shards - 1;
    lines_quot_ = lines / shards;
    lines_rem_ = lines % shards;

    // Contiguous slices, first `rem` shards one line larger — a pure
    // function of (lines, shards), like ThreadPool's shard split.
    shards_.reserve(shards);
    std::size_t base = 0;
    for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t count = lines_quot_ + (s < lines_rem_ ? 1 : 0);
        shards_.push_back(std::make_unique<Shard>(base, count));
        for (std::size_t i = 0; i < count; ++i)
            shards_.back()->free.push(i);
        base += count;
    }
    FIDR_CHECK(base == lines);
}

std::size_t
TableCache::shard_of_line(std::size_t line) const
{
    FIDR_CHECK(line < lines_.size());
    // First `rem` shards hold quot+1 lines, the rest quot.
    const std::size_t big = lines_rem_ * (lines_quot_ + 1);
    if (line < big)
        return line / (lines_quot_ + 1);
    return lines_rem_ + (line - big) / lines_quot_;
}

std::optional<std::size_t>
TableCache::pick_victim(Shard &shard)
{
    if (policy_ == EvictionPolicy::kPrioritizedLru) {
        // Low-priority lines first; the protected class is touched
        // only when nothing else remains.
        if (const auto victim = shard.lru.pop_victim())
            return victim;
        return shard.lru_high.pop_victim();
    }
    if (policy_ != EvictionPolicy::kRandom)
        return shard.lru.pop_victim();  // LRU and FIFO share the list.

    // Random: splitmix64 step over the shard's resident set.
    shard.victim_seed += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = shard.victim_seed;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    std::size_t candidate = z % shard.count;
    for (std::size_t step = 0; step < shard.count; ++step) {
        const std::size_t slot = (candidate + step) % shard.count;
        if (lines_[shard.base + slot].valid) {
            shard.lru.remove(slot);
            return slot;
        }
    }
    return std::nullopt;
}

tables::Bucket &
TableCache::bucket(std::size_t line)
{
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    return lines_[line].bucket;
}

const tables::Bucket &
TableCache::bucket(std::size_t line) const
{
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    return lines_[line].bucket;
}

void
TableCache::mark_dirty(std::size_t line)
{
    FIDR_CHECK(line < lines_.size() && lines_[line].valid);
    Shard &shard = *shards_[shard_of_line(line)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    lines_[line].dirty = true;
}

Status
TableCache::evict_one(Shard &shard)
{
    const auto victim = pick_victim(shard);
    if (!victim)
        return Status::internal("no evictable cache line");
    Line &line = lines_[shard.base + *victim];
    FIDR_CHECK(line.valid);
    if (line.dirty) {
        FIDR_TPOINT(obs::Tpoint::kCacheWriteback, line.owner,
                    kBucketSize);
        Status flushed =
            fault::as_status(FIDR_FAULT_EVAL(fault::Site::kCacheWriteback),
                             fault::Site::kCacheWriteback);
        if (flushed.is_ok())
            flushed = table_.write_bucket(line.owner, line.bucket);
        if (!flushed.is_ok()) {
            // Failed flush: the line stays resident (and dirty), so no
            // update is lost; re-link it so the LRU still covers every
            // resident line.  It lands at MRU, which also keeps a
            // persistently failing victim from being retried on every
            // miss.
            shard.lru.touch(*victim);
            return flushed;
        }
        ++shard.stats.dirty_evictions;
    }
    ++shard.stats.evictions;
    index_.erase(line.owner);
    // The bucket keeps its entry storage for the line's next fill.
    line.owner = 0;
    line.valid = false;
    line.dirty = false;
    shard.free.push(*victim);
    return Status::ok();
}

Result<CacheAccess>
TableCache::access(BucketIndex bucket_index, bool high_priority)
{
    CacheAccess out;
    Shard &shard = shard_for(bucket_index);
    std::lock_guard<std::mutex> lock(shard.mutex);

    // Recency and the index speak different units: the index maps to
    // global line ids, the shard's LRU/free lists to local slots.
    const auto touch = [this, &shard, high_priority](std::size_t slot) {
        if (policy_ == EvictionPolicy::kPrioritizedLru) {
            // The line follows the class of its latest toucher.
            shard.lru.remove(slot);
            shard.lru_high.remove(slot);
            (high_priority ? shard.lru_high : shard.lru).touch(slot);
        } else {
            shard.lru.touch(slot);
        }
    };

    if (const auto line = index_.find(bucket_index)) {
        ++shard.stats.hits;
        // FIFO deliberately does not refresh recency on a hit.
        if (policy_ != EvictionPolicy::kFifo &&
            policy_ != EvictionPolicy::kRandom) {
            touch(*line - shard.base);
        }
        out.line = *line;
        return out;
    }

    ++shard.stats.misses;
    out.miss = true;

    // Injected fetch fault before any structural mutation, so a failed
    // access leaves the cache exactly as it was.
    FIDR_FAULT_RETURN_IF(fault::Site::kCacheFetch);

    if (shard.free.empty()) {
        const std::uint64_t dirty_before = shard.stats.dirty_evictions;
        const Status evicted = evict_one(shard);
        if (!evicted.is_ok())
            return evicted;
        out.evicted = true;
        out.evicted_dirty = shard.stats.dirty_evictions > dirty_before;
    }
    const auto slot = shard.free.pop();
    FIDR_CHECK(slot.has_value());
    const std::size_t global = shard.base + *slot;

    FIDR_TPOINT(obs::Tpoint::kCacheFetch, bucket_index, kBucketSize);
    Line &line = lines_[global];
    const Status fetched = table_.read_bucket(bucket_index, line.bucket);
    if (!fetched.is_ok()) {
        // A failed fill (e.g. injected table-SSD read error) must not
        // leak the slot: return it so free+resident still partition
        // the cache.
        shard.free.push(*slot);
        return fetched;
    }

    line.owner = bucket_index;
    line.valid = true;
    line.dirty = false;

    const Status indexed = index_.insert(bucket_index, global);
    if (!indexed.is_ok())
        return indexed;
    touch(*slot);
    out.line = global;
    return out;
}

Status
TableCache::writeback_all()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (std::size_t i = 0; i < shard->count; ++i) {
            Line &line = lines_[shard->base + i];
            if (!line.valid || !line.dirty)
                continue;
            Status flushed = fault::as_status(
                FIDR_FAULT_EVAL(fault::Site::kCacheWriteback),
                fault::Site::kCacheWriteback);
            if (flushed.is_ok())
                flushed = table_.write_bucket(line.owner, line.bucket);
            if (!flushed.is_ok())
                return flushed;  // Line stays dirty; retry resumes here.
            line.dirty = false;
        }
    }
    return Status::ok();
}

CacheStats
TableCache::stats() const
{
    CacheStats total;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total.hits += shard->stats.hits;
        total.misses += shard->stats.misses;
        total.evictions += shard->stats.evictions;
        total.dirty_evictions += shard->stats.dirty_evictions;
    }
    return total;
}

CacheStats
TableCache::shard_stats(std::size_t shard) const
{
    FIDR_CHECK(shard < shards_.size());
    std::lock_guard<std::mutex> lock(shards_[shard]->mutex);
    return shards_[shard]->stats;
}

std::size_t
TableCache::resident() const
{
    std::size_t count = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        for (std::size_t i = 0; i < shard->count; ++i) {
            if (lines_[shard->base + i].valid)
                ++count;
        }
    }
    return count;
}

std::size_t
TableCache::free_lines() const
{
    std::size_t count = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        count += shard->free.size();
    }
    return count;
}

Status
TableCache::validate() const
{
    std::size_t valid_lines = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        std::size_t shard_valid = 0;
        for (std::size_t i = 0; i < shard->count; ++i) {
            const std::size_t global = shard->base + i;
            const Line &line = lines_[global];
            if (!line.valid)
                continue;
            ++shard_valid;
            // Each resident line must be indexed at its owner key, and
            // the owner must route back to the shard holding it.
            const auto found = index_.find(line.owner);
            if (!found || *found != global)
                return Status::internal(
                    "resident line not indexed correctly");
            if (shard_of(line.owner) != shard_of_line(global))
                return Status::internal("resident line in wrong shard");
        }
        if (shard->free.size() + shard_valid != shard->count)
            return Status::internal("free list + resident != capacity");
        if (shard->lru.size() + shard->lru_high.size() != shard_valid)
            return Status::internal(
                "LRU lists do not cover resident lines");
        valid_lines += shard_valid;
    }
    if (index_.size() != valid_lines)
        return Status::internal("index size != resident lines");
    return Status::ok();
}

}  // namespace fidr::cache
