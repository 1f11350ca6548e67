#include "fidr/cache/chunk_cache.h"

#include <algorithm>

namespace fidr::cache {

namespace {

/** Clamp band and starting point for the adaptive hot-tier byte
 *  target, as fractions of each shard's budget. */
constexpr double kHotFractionMin = 0.10;
constexpr double kHotFractionMax = 0.90;
constexpr double kHotFractionInitial = 0.50;

/** Ghost-hit adaptation step, as a fraction of the shard budget.  The
 *  step is asymmetric: shrink signals (ghost-warm hits — a bigger warm
 *  tier would have kept the image in DRAM) move the target by the full
 *  step, grow signals (ghost-hot hits — a bigger hot tier would have
 *  skipped a decompress) by a quarter of it.  A hot entry bills raw +
 *  compressed bytes, ~3-4x a warm entry, and a demoted key is almost
 *  always still warm-resident when it re-hits, so an unweighted grow
 *  signal saturates and drags the split toward the low-density hot
 *  tier. */
constexpr double kAdaptStepFraction = 0.02;

/** Bounded ghost-list length (keys) per shard per list. */
constexpr std::size_t kGhostEntries = 1024;

/** Hot entries keep their compressed image so demotion never
 *  recompresses; both buffers are billed. */
std::uint64_t
billed_hot(const auto &entry)
{
    return entry.raw.size() + entry.compressed.size();
}

std::uint64_t
billed_warm(const auto &entry)
{
    return entry.compressed.size();
}

}  // namespace

void
ChunkReadCache::GhostList::push(const ChunkKey &key)
{
    if (cap == 0)
        return;
    const auto it = index.find(key);
    if (it != index.end()) {
        order.splice(order.begin(), order, it->second);
        return;
    }
    while (order.size() >= cap) {
        index.erase(order.back());
        order.pop_back();
    }
    order.push_front(key);
    index.emplace(key, order.begin());
}

bool
ChunkReadCache::GhostList::take(const ChunkKey &key)
{
    const auto it = index.find(key);
    if (it == index.end())
        return false;
    order.erase(it->second);
    index.erase(it);
    return true;
}

void
ChunkReadCache::GhostList::clear()
{
    order.clear();
    index.clear();
}

ChunkReadCache::ChunkReadCache(std::uint64_t capacity_bytes,
                               std::size_t shards, SpillBackend *spill)
    : capacity_bytes_(capacity_bytes), spill_backend_(spill)
{
    FIDR_CHECK(shards > 0 && (shards & (shards - 1)) == 0);
    shard_mask_ = shards - 1;
    shard_capacity_ = capacity_bytes / shards;
    if (spill_backend_)
        spill_capacity_ = spill_backend_->capacity_bytes();
    adapt_step_ = static_cast<std::uint64_t>(
        static_cast<double>(shard_capacity_) * kAdaptStepFraction);
    const auto initial_target = static_cast<std::uint64_t>(
        static_cast<double>(shard_capacity_) * kHotFractionInitial);
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        auto shard = std::make_unique<Shard>();
        shard->hot_target = initial_target;
        shard->ghost_hot.cap = kGhostEntries;
        shard->ghost_warm.cap = kGhostEntries;
        shards_.push_back(std::move(shard));
    }
}

std::size_t
ChunkReadCache::shard_of(const ChunkKey &key) const
{
    return ChunkKeyHash{}(key) & shard_mask_;
}

void
ChunkReadCache::bump_hot_target(Shard &shard, bool grow)
{
    const auto lo = static_cast<std::uint64_t>(
        static_cast<double>(shard_capacity_) * kHotFractionMin);
    const auto hi = static_cast<std::uint64_t>(
        static_cast<double>(shard_capacity_) * kHotFractionMax);
    if (grow)
        // Quarter step: hot bytes are ~3-4x as expensive per resident
        // entry as warm bytes (see kAdaptStepFraction).
        shard.hot_target =
            std::min(hi, shard.hot_target + adapt_step_ / 4);
    else
        shard.hot_target = std::max(
            lo, shard.hot_target > adapt_step_
                    ? shard.hot_target - adapt_step_
                    : 0);
}

TierLookup
ChunkReadCache::lookup(const ChunkKey &key)
{
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        Entry &entry = *it->second.it;
        if (it->second.hot) {
            ++shard.stats.hits;
            ++shard.stats.hot.hits;
            shard.hot.splice(shard.hot.begin(), shard.hot, it->second.it);
            TierLookup out;
            out.tier = CacheTier::kHot;
            out.raw = entry.raw;
            out.raw_size = entry.raw_size;
            return out;
        }
        ++shard.stats.hits;
        ++shard.stats.warm.hits;
        shard.warm.splice(shard.warm.begin(), shard.warm, it->second.it);
        // A warm hit still inside the hot ghost: a bigger hot tier
        // would have skipped this decompress.  Grow the hot target.
        if (shard.ghost_hot.take(key)) {
            ++shard.stats.ghost_hot_hits;
            bump_hot_target(shard, /*grow=*/true);
        }
        TierLookup out;
        out.tier = CacheTier::kWarm;
        out.compressed = entry.compressed;
        out.raw_size = entry.raw_size;
        return out;
    }

    // Not in DRAM: probe the spill index (shard -> spill lock order).
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        const auto spilled = spill_.index.find(key);
        if (spilled != spill_.index.end()) {
            ++shard.stats.hits;
            ++shard.stats.spill.hits;
            // The image fell out of DRAM entirely: a bigger warm tier
            // would have held it.  Shrink the hot target.
            if (shard.ghost_warm.take(key))
                ++shard.stats.ghost_warm_hits;
            bump_hot_target(shard, /*grow=*/false);
            TierLookup out;
            out.tier = CacheTier::kSpill;
            out.spill = spilled->second;
            out.raw_size = spilled->second.raw_size;
            return out;
        }
    }

    ++shard.stats.misses;
    if (shard.ghost_warm.take(key)) {
        ++shard.stats.ghost_warm_hits;
        bump_hot_target(shard, /*grow=*/false);
    }
    return {};
}

CacheTier
ChunkReadCache::peek(const ChunkKey &key) const
{
    const Shard &shard = *shards_[shard_of(key)];
    {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it != shard.index.end())
            return it->second.hot ? CacheTier::kHot : CacheTier::kWarm;
    }
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        if (spill_.index.contains(key))
            return CacheTier::kSpill;
    }
    return CacheTier::kNone;
}

void
ChunkReadCache::demote_tail(Shard &shard)
{
    Entry &victim = shard.hot.back();
    shard.hot_bytes -= billed_hot(victim);
    if (victim.compressed.empty()) {
        // Nothing to demote to: an entry without a compressed image
        // drops straight out of DRAM.
        shard.index.erase(victim.key);
        shard.hot.pop_back();
        ++shard.stats.evictions;
        ++shard.stats.hot.evictions;
        return;
    }
    victim.raw = Buffer();  // Free the decompressed bytes.
    shard.ghost_hot.push(victim.key);
    ++shard.stats.demotions;
    ++shard.stats.hot.evictions;
    ++shard.stats.warm.insertions;
    shard.warm_bytes += billed_warm(victim);
    auto slot = shard.index.find(victim.key);
    // Demoted entry becomes the warm tier's MRU (ARC-style).
    shard.warm.splice(shard.warm.begin(), shard.hot,
                      std::prev(shard.hot.end()));
    slot->second.hot = false;
    slot->second.it = shard.warm.begin();
}

void
ChunkReadCache::spill_drop_overlaps(Shard &shard, std::uint64_t offset,
                                    std::uint64_t size)
{
    // Entries whose bytes the ring is about to overwrite leave the
    // index.  by_offset is ordered, so scan from the first occupant
    // that could overlap.  (Counted into the evicting shard's stats;
    // aggregate totals are exact, per-shard attribution approximate.)
    auto it = spill_.by_offset.lower_bound(offset);
    if (it != spill_.by_offset.begin()) {
        const auto prev = std::prev(it);
        if (prev->first + prev->second.size > offset)
            it = prev;
    }
    while (it != spill_.by_offset.end() && it->first < offset + size) {
        spill_.used_bytes -= it->second.size;
        spill_.index.erase(it->second.key);
        it = spill_.by_offset.erase(it);
        ++shard.stats.spill_overwritten;
        ++shard.stats.spill.evictions;
    }
}

void
ChunkReadCache::spill_out(Shard &shard, Entry &&entry)
{
    const std::uint64_t size = entry.compressed.size();
    if (size == 0 || size > spill_capacity_)
        return;
    const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
    // Sequential ring: wrap when the image won't fit before the end.
    // The tail gap left by a wrap keeps its occupants readable until
    // a later lap actually overwrites them.
    if (spill_.cursor + size > spill_capacity_)
        spill_.cursor = 0;
    const std::uint64_t offset = spill_.cursor;
    spill_drop_overlaps(shard, offset, size);
    // A re-spilled key must not leave a stale occupant elsewhere.
    const auto existing = spill_.index.find(entry.key);
    if (existing != spill_.index.end()) {
        spill_.used_bytes -= existing->second.size;
        spill_.by_offset.erase(existing->second.offset);
        spill_.index.erase(existing);
    }
    const Status written = spill_backend_->write(offset, entry.compressed);
    if (!written.is_ok()) {
        ++shard.stats.spill_write_failures;
        return;
    }
    spill_.cursor = offset + size;
    SpillRef ref;
    ref.offset = offset;
    ref.size = static_cast<std::uint32_t>(size);
    ref.raw_size = entry.raw_size;
    spill_.index.emplace(entry.key, ref);
    spill_.by_offset[offset] =
        SpillRing::Occupant{entry.key, ref.size};
    spill_.used_bytes += size;
    ++shard.stats.spill_writes;
    ++shard.stats.spill.insertions;
}

void
ChunkReadCache::evict_warm_tail(Shard &shard)
{
    Entry victim = std::move(shard.warm.back());
    shard.warm_bytes -= victim.compressed.size();
    shard.index.erase(victim.key);
    shard.warm.pop_back();
    ++shard.stats.evictions;
    ++shard.stats.warm.evictions;
    shard.ghost_warm.push(victim.key);
    if (spill_enabled())
        spill_out(shard, std::move(victim));
}

void
ChunkReadCache::rebalance(Shard &shard)
{
    std::size_t demoted = 0;
    while (shard.hot_bytes > shard.hot_target && !shard.hot.empty()) {
        demote_tail(shard);
        ++demoted;
    }
    // Batched demotion: once the target forced a demotion, demote up
    // to kDemoteBatch tail entries in the same pass.  The slack below
    // hot_target means a near-fit working set amortizes the
    // demote/re-promote churn over the next kDemoteBatch inserts
    // instead of paying it on every one.  Never demotes the MRU entry
    // (the fill that triggered the pass).
    if (demoted > 0) {
        while (demoted < kDemoteBatch && shard.hot.size() > 1) {
            demote_tail(shard);
            ++demoted;
        }
        ++shard.stats.demote_passes;
    }
    // hot_bytes <= hot_target < shard budget now, so the warm tier
    // always holds the overflow.
    while (shard.hot_bytes + shard.warm_bytes > shard_capacity_ &&
           !shard.warm.empty())
        evict_warm_tail(shard);
}

void
ChunkReadCache::insert(const ChunkKey &key, const Buffer &raw,
                       const Buffer &compressed)
{
    if (raw.size() > shard_capacity_)
        return;  // Would evict the whole shard for one entry.
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        // Resident re-insert: refresh content and recency in place.
        Entry &entry = *it->second.it;
        if (it->second.hot) {
            shard.hot_bytes -= billed_hot(entry);
            entry.raw = raw;
            entry.compressed = compressed;
            entry.raw_size = static_cast<std::uint32_t>(raw.size());
            shard.hot_bytes += billed_hot(entry);
            shard.hot.splice(shard.hot.begin(), shard.hot, it->second.it);
        } else {
            // Warm entry getting a fresh fill: promote it.
            shard.warm_bytes -= billed_warm(entry);
            entry.raw = raw;
            entry.raw_size = static_cast<std::uint32_t>(raw.size());
            shard.hot.splice(shard.hot.begin(), shard.warm,
                             it->second.it);
            it->second.hot = true;
            it->second.it = shard.hot.begin();
            shard.hot_bytes += billed_hot(*shard.hot.begin());
            ++shard.stats.promotions;
            ++shard.stats.hot.insertions;
        }
        rebalance(shard);
        return;
    }
    Entry entry;
    entry.key = key;
    entry.raw = raw;
    entry.compressed = compressed;
    entry.raw_size = static_cast<std::uint32_t>(raw.size());
    shard.hot_bytes += billed_hot(entry);
    shard.hot.push_front(std::move(entry));
    shard.index.emplace(key, Shard::Slot{true, shard.hot.begin()});
    ++shard.stats.insertions;
    ++shard.stats.hot.insertions;
    rebalance(shard);
}

void
ChunkReadCache::promote(const ChunkKey &key, const Buffer &raw,
                        const Buffer &compressed)
{
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        if (it->second.hot) {
            shard.hot.splice(shard.hot.begin(), shard.hot, it->second.it);
            return;  // Already hot (promoted earlier in the batch).
        }
        Entry &entry = *it->second.it;
        shard.warm_bytes -= billed_warm(entry);
        entry.raw = raw;
        entry.raw_size = static_cast<std::uint32_t>(raw.size());
        shard.hot.splice(shard.hot.begin(), shard.warm, it->second.it);
        it->second.hot = true;
        it->second.it = shard.hot.begin();
        shard.hot_bytes += billed_hot(*shard.hot.begin());
        ++shard.stats.promotions;
        ++shard.stats.hot.insertions;
        rebalance(shard);
        return;
    }
    // Spill promotion: the image re-enters DRAM and leaves the ring's
    // index (its flash bytes are simply forgotten; the ring reclaims
    // space by lapping, not by holes).
    bool from_spill = false;
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        const auto spilled = spill_.index.find(key);
        if (spilled != spill_.index.end()) {
            spill_.used_bytes -= spilled->second.size;
            spill_.by_offset.erase(spilled->second.offset);
            spill_.index.erase(spilled);
            from_spill = true;
        }
    }
    Entry entry;
    entry.key = key;
    entry.raw = raw;
    entry.compressed = compressed;
    entry.raw_size = static_cast<std::uint32_t>(raw.size());
    shard.hot_bytes += billed_hot(entry);
    shard.hot.push_front(std::move(entry));
    shard.index.emplace(key, Shard::Slot{true, shard.hot.begin()});
    if (from_spill) {
        ++shard.stats.promotions;
        ++shard.stats.hot.insertions;
    } else {
        // Raced an invalidation (or spill disabled): plain fill.
        ++shard.stats.insertions;
        ++shard.stats.hot.insertions;
    }
    rebalance(shard);
}

void
ChunkReadCache::invalidate(const ChunkKey &key)
{
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    bool dropped = false;
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        Entry &entry = *it->second.it;
        if (it->second.hot) {
            shard.hot_bytes -= billed_hot(entry);
            shard.hot.erase(it->second.it);
        } else {
            shard.warm_bytes -= billed_warm(entry);
            shard.warm.erase(it->second.it);
        }
        shard.index.erase(it);
        dropped = true;
    }
    if (spill_enabled()) {
        // Still under the shard lock: the DRAM and spill copies leave
        // together, so no probe can see the spilled image outlive an
        // invalidation of its PBN.
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        const auto spilled = spill_.index.find(key);
        if (spilled != spill_.index.end()) {
            spill_.used_bytes -= spilled->second.size;
            spill_.by_offset.erase(spilled->second.offset);
            spill_.index.erase(spilled);
            dropped = true;
        }
    }
    if (dropped)
        ++shard.stats.invalidations;
}

bool
ChunkReadCache::rekey(const ChunkKey &from, const ChunkKey &to)
{
    if (from == to)
        return false;
    Shard &src = shard_for(from);
    Shard &dst = shard_for(to);
    // Both shard locks (one when the keys co-shard) held together for
    // the whole move: no interleaved probe can miss the entry under
    // both keys or find it under the retired one.
    std::unique_lock<std::mutex> src_lock(src.mutex, std::defer_lock);
    std::unique_lock<std::mutex> dst_lock(dst.mutex, std::defer_lock);
    if (&src == &dst)
        src_lock.lock();
    else
        std::lock(src_lock, dst_lock);

    bool moved = false;
    const auto it = src.index.find(from);
    if (it != src.index.end()) {
        const bool was_hot = it->second.hot;
        Entry entry = std::move(*it->second.it);
        if (was_hot) {
            src.hot_bytes -= billed_hot(entry);
            src.hot.erase(it->second.it);
        } else {
            src.warm_bytes -= billed_warm(entry);
            src.warm.erase(it->second.it);
        }
        src.index.erase(it);
        // The old physical location is gone whatever happens next, so
        // this is an invalidation first and a move second.
        ++src.stats.invalidations;
        ++src.stats.rekeys;

        entry.key = to;
        // Displace any stale resident under the destination key (the
        // relocated chunk's image is the authoritative one).
        const auto existing = dst.index.find(to);
        if (existing != dst.index.end()) {
            Entry &old = *existing->second.it;
            if (existing->second.hot) {
                dst.hot_bytes -= billed_hot(old);
                dst.hot.erase(existing->second.it);
            } else {
                dst.warm_bytes -= billed_warm(old);
                dst.warm.erase(existing->second.it);
            }
            dst.index.erase(existing);
            ++dst.stats.invalidations;
        }
        if (was_hot) {
            dst.hot_bytes += billed_hot(entry);
            dst.hot.push_front(std::move(entry));
            dst.index.emplace(to, Shard::Slot{true, dst.hot.begin()});
        } else {
            dst.warm_bytes += billed_warm(entry);
            dst.warm.push_front(std::move(entry));
            dst.index.emplace(to, Shard::Slot{false, dst.warm.begin()});
        }
        rebalance(dst);
        moved = true;
    }

    if (spill_enabled()) {
        // Shard locks still held: the spill index renames in the same
        // critical section, so the spilled image is never reachable
        // under the retired key once rekey returns — and never
        // unreachable while it is.
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        const auto spilled = spill_.index.find(from);
        if (spilled != spill_.index.end()) {
            const SpillRef ref = spilled->second;
            spill_.index.erase(spilled);
            const auto target = spill_.index.find(to);
            if (target != spill_.index.end()) {
                // Destination already spilled: keep it, drop ours.
                spill_.used_bytes -= ref.size;
                spill_.by_offset.erase(ref.offset);
            } else {
                spill_.index.emplace(to, ref);
                spill_.by_offset[ref.offset] =
                    SpillRing::Occupant{to, ref.size};
            }
            if (!moved) {
                ++src.stats.invalidations;
                ++src.stats.rekeys;
            }
            moved = true;
        }
    }
    return moved;
}

void
ChunkReadCache::invalidate_container(std::uint64_t container_id)
{
    // A container's chunks hash across shards, so every shard scans.
    // Invalidation happens at GC-discard rate, not request rate.
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        for (auto it = shard->hot.begin(); it != shard->hot.end();) {
            if (it->key.container_id != container_id) {
                ++it;
                continue;
            }
            shard->hot_bytes -= billed_hot(*it);
            shard->index.erase(it->key);
            it = shard->hot.erase(it);
            ++shard->stats.invalidations;
        }
        for (auto it = shard->warm.begin(); it != shard->warm.end();) {
            if (it->key.container_id != container_id) {
                ++it;
                continue;
            }
            shard->warm_bytes -= billed_warm(*it);
            shard->index.erase(it->key);
            it = shard->warm.erase(it);
            ++shard->stats.invalidations;
        }
    }
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        for (auto it = spill_.by_offset.begin();
             it != spill_.by_offset.end();) {
            if (it->second.key.container_id != container_id) {
                ++it;
                continue;
            }
            spill_.used_bytes -= it->second.size;
            spill_.index.erase(it->second.key);
            const std::size_t shard = shard_of(it->second.key);
            it = spill_.by_offset.erase(it);
            const std::lock_guard<std::mutex> lock(
                shards_[shard]->mutex);
            ++shards_[shard]->stats.invalidations;
        }
    }
}

void
ChunkReadCache::clear()
{
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        shard->stats.invalidations +=
            shard->hot.size() + shard->warm.size();
        shard->hot.clear();
        shard->warm.clear();
        shard->index.clear();
        shard->hot_bytes = 0;
        shard->warm_bytes = 0;
        shard->ghost_hot.clear();
        shard->ghost_warm.clear();
    }
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        // The index is host DRAM: spilled bytes are unreachable after
        // a crash even though the flash region survives.
        spill_.index.clear();
        spill_.by_offset.clear();
        spill_.cursor = 0;
        spill_.used_bytes = 0;
    }
}

namespace {

void
merge_stats(ChunkCacheStats &out, const ChunkCacheStats &in)
{
    out.hits += in.hits;
    out.misses += in.misses;
    out.insertions += in.insertions;
    out.evictions += in.evictions;
    out.invalidations += in.invalidations;
    out.rekeys += in.rekeys;
    out.hot.hits += in.hot.hits;
    out.hot.insertions += in.hot.insertions;
    out.hot.evictions += in.hot.evictions;
    out.warm.hits += in.warm.hits;
    out.warm.insertions += in.warm.insertions;
    out.warm.evictions += in.warm.evictions;
    out.spill.hits += in.spill.hits;
    out.spill.insertions += in.spill.insertions;
    out.spill.evictions += in.spill.evictions;
    out.demotions += in.demotions;
    out.promotions += in.promotions;
    out.demote_passes += in.demote_passes;
    out.spill_writes += in.spill_writes;
    out.spill_write_failures += in.spill_write_failures;
    out.spill_overwritten += in.spill_overwritten;
    out.ghost_hot_hits += in.ghost_hot_hits;
    out.ghost_warm_hits += in.ghost_warm_hits;
}

}  // namespace

ChunkCacheStats
ChunkReadCache::stats() const
{
    ChunkCacheStats out;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        merge_stats(out, shard->stats);
    }
    return out;
}

ChunkCacheStats
ChunkReadCache::shard_stats(std::size_t shard) const
{
    const std::lock_guard<std::mutex> lock(shards_.at(shard)->mutex);
    return shards_.at(shard)->stats;
}

std::uint64_t
ChunkReadCache::used_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot_bytes + shard->warm_bytes;
    }
    return total;
}

std::uint64_t
ChunkReadCache::hot_used_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot_bytes;
    }
    return total;
}

std::uint64_t
ChunkReadCache::warm_used_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->warm_bytes;
    }
    return total;
}

std::uint64_t
ChunkReadCache::hot_target_bytes() const
{
    std::uint64_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot_target;
    }
    return total;
}

std::size_t
ChunkReadCache::entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot.size() + shard->warm.size();
    }
    return total;
}

std::size_t
ChunkReadCache::hot_entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot.size();
    }
    return total;
}

std::size_t
ChunkReadCache::warm_entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->warm.size();
    }
    return total;
}

std::size_t
ChunkReadCache::spill_entries() const
{
    if (!spill_enabled())
        return 0;
    const std::lock_guard<std::mutex> lock(spill_.mutex);
    return spill_.index.size();
}

std::uint64_t
ChunkReadCache::spill_used_bytes() const
{
    if (!spill_enabled())
        return 0;
    const std::lock_guard<std::mutex> lock(spill_.mutex);
    return spill_.used_bytes;
}

}  // namespace fidr::cache
