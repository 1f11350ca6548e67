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

ChunkReadCache::GhostRing::GhostRing(std::size_t cap) : cap_(cap)
{
    nodes_.reserve(cap);
}

void
ChunkReadCache::GhostRing::unlink(std::uint32_t node)
{
    Node &n = nodes_[node];
    if (n.next == node) {
        head_ = kNil;
        return;
    }
    nodes_[n.prev].next = n.next;
    nodes_[n.next].prev = n.prev;
    if (head_ == node)
        head_ = n.next;
}

void
ChunkReadCache::GhostRing::link_front(std::uint32_t node)
{
    Node &n = nodes_[node];
    if (head_ == kNil) {
        n.prev = n.next = node;
    } else {
        const std::uint32_t tail = nodes_[head_].prev;
        n.next = head_;
        n.prev = tail;
        nodes_[tail].next = node;
        nodes_[head_].prev = node;
    }
    head_ = node;
}

void
ChunkReadCache::GhostRing::push(const ChunkKey &key)
{
    if (cap_ == 0)
        return;
    if (const std::uint32_t *found = index_.find(key)) {
        unlink(*found);
        link_front(*found);
        return;
    }
    std::uint32_t node;
    if (size_ == cap_) {
        // Full: the LRU key leaves, its node takes the new key, and
        // the ring turns one step so that node is the new MRU.
        node = nodes_[head_].prev;
        index_.erase(nodes_[node].key);
        nodes_[node].key = key;
        head_ = node;
        index_.put(key, node);
        return;
    }
    if (free_ != kNil) {
        node = free_;
        free_ = nodes_[node].next;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[node].key = key;
    link_front(node);
    index_.put(key, node);
    ++size_;
}

bool
ChunkReadCache::GhostRing::take(const ChunkKey &key)
{
    const std::uint32_t *found = index_.find(key);
    if (found == nullptr)
        return false;
    const std::uint32_t node = *found;
    unlink(node);
    nodes_[node].next = free_;
    free_ = node;
    index_.erase(key);
    --size_;
    return true;
}

void
ChunkReadCache::GhostRing::clear()
{
    nodes_.clear();
    head_ = kNil;
    free_ = kNil;
    size_ = 0;
    index_.clear();
}

ChunkReadCache::Shard::Shard()
    : ghost_hot(kGhostEntries), ghost_warm(kGhostEntries)
{
    spare_raw.reserve(kDemoteBatch);
}

void
ChunkReadCache::Shard::unlink(std::uint32_t slot)
{
    Entry &entry = slots[slot];
    Lru &list = list_of(entry);
    if (entry.prev != kNil)
        slots[entry.prev].next = entry.next;
    else
        list.head = entry.next;
    if (entry.next != kNil)
        slots[entry.next].prev = entry.prev;
    else
        list.tail = entry.prev;
    entry.prev = entry.next = kNil;
    --list.size;
}

void
ChunkReadCache::Shard::link_front(std::uint32_t slot)
{
    Entry &entry = slots[slot];
    Lru &list = list_of(entry);
    entry.prev = kNil;
    entry.next = list.head;
    if (list.head != kNil)
        slots[list.head].prev = slot;
    else
        list.tail = slot;
    list.head = slot;
    ++list.size;
}

void
ChunkReadCache::Shard::move_front(std::uint32_t slot, bool to_hot)
{
    unlink(slot);
    slots[slot].hot = to_hot;
    link_front(slot);
}

void
ChunkReadCache::Shard::push_front(Entry &&entry)
{
    std::uint32_t slot;
    if (free_slot != kNil) {
        slot = free_slot;
        free_slot = slots[slot].next;
        slots[slot] = std::move(entry);
    } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.push_back(std::move(entry));
    }
    const Entry &placed = slots[slot];
    if (placed.hot)
        hot_bytes += billed_hot(placed);
    else
        warm_bytes += billed_warm(placed);
    link_front(slot);
    index.put(placed.key, slot);
}

ChunkReadCache::Entry
ChunkReadCache::Shard::remove(std::uint32_t slot)
{
    Entry &entry = slots[slot];
    if (entry.hot)
        hot_bytes -= billed_hot(entry);
    else
        warm_bytes -= billed_warm(entry);
    unlink(slot);
    index.erase(entry.key);
    Entry out = std::move(entry);
    entry.next = free_slot;
    free_slot = slot;
    return out;
}

Buffer
ChunkReadCache::Shard::copy_raw(const Buffer &raw)
{
    if (spare_raw.empty())
        return raw;
    Buffer out = std::move(spare_raw.back());
    spare_raw.pop_back();
    out.assign(raw.begin(), raw.end());
    return out;
}

void
ChunkReadCache::Shard::recycle_raw(Buffer &&raw)
{
    if (spare_raw.size() < kDemoteBatch)
        spare_raw.push_back(std::move(raw));
    raw = Buffer();
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
    if (const std::uint32_t *found = shard.index.find(key)) {
        const std::uint32_t slot = *found;
        Entry &entry = shard.slots[slot];
        ++shard.stats.hits;
        TierLookup out;
        out.raw_size = entry.raw_size;
        if (entry.hot) {
            ++shard.stats.hot.hits;
            shard.move_front(slot, true);
            out.tier = CacheTier::kHot;
            out.raw = entry.raw;
            return out;
        }
        ++shard.stats.warm.hits;
        shard.move_front(slot, false);
        // A warm hit still inside the hot ghost: a bigger hot tier
        // would have skipped this decompress.  Grow the hot target.
        if (shard.ghost_hot.take(key)) {
            ++shard.stats.ghost_hot_hits;
            bump_hot_target(shard, /*grow=*/true);
        }
        out.tier = CacheTier::kWarm;
        out.compressed = entry.compressed;
        return out;
    }

    // Not in DRAM: probe the spill index (shard -> spill lock order).
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        if (const SpillRef *spilled = spill_.index.find(key)) {
            ++shard.stats.hits;
            ++shard.stats.spill.hits;
            // The image fell out of DRAM entirely: a bigger warm tier
            // would have held it.  Shrink the hot target.
            if (shard.ghost_warm.take(key))
                ++shard.stats.ghost_warm_hits;
            bump_hot_target(shard, /*grow=*/false);
            TierLookup out;
            out.tier = CacheTier::kSpill;
            out.spill = *spilled;
            out.raw_size = spilled->raw_size;
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
        if (const std::uint32_t *found = shard.index.find(key))
            return shard.slots[*found].hot ? CacheTier::kHot
                                           : CacheTier::kWarm;
    }
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        if (spill_.index.find(key) != nullptr)
            return CacheTier::kSpill;
    }
    return CacheTier::kNone;
}

void
ChunkReadCache::demote_tail(Shard &shard)
{
    const std::uint32_t slot = shard.hot.tail;
    Entry &victim = shard.slots[slot];
    if (victim.compressed.empty()) {
        // Nothing to demote to: an entry without a compressed image
        // drops straight out of DRAM.
        shard.remove(slot);
        ++shard.stats.evictions;
        ++shard.stats.hot.evictions;
        return;
    }
    shard.hot_bytes -= billed_hot(victim);
    shard.recycle_raw(std::move(victim.raw));  // Free the raw bytes.
    shard.ghost_hot.push(victim.key);
    ++shard.stats.demotions;
    ++shard.stats.hot.evictions;
    ++shard.stats.warm.insertions;
    shard.warm_bytes += billed_warm(victim);
    // Demoted entry becomes the warm tier's MRU (ARC-style).
    shard.move_front(slot, false);
}

void
ChunkReadCache::spill_forget(const ChunkKey &key)
{
    const SpillRef *spilled = spill_.index.find(key);
    if (spilled == nullptr)
        return;
    spill_.used_bytes -= spilled->size;
    spill_.by_offset.erase(spilled->offset);
    spill_.index.erase(key);
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
ChunkReadCache::spill_out(Shard &shard, const Entry &entry)
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
    spill_forget(entry.key);
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
    spill_.index.put(entry.key, ref);
    spill_.by_offset[offset] =
        SpillRing::Occupant{entry.key, ref.size};
    spill_.used_bytes += size;
    ++shard.stats.spill_writes;
    ++shard.stats.spill.insertions;
}

void
ChunkReadCache::evict_warm_tail(Shard &shard)
{
    const Entry victim = shard.remove(shard.warm.tail);
    ++shard.stats.evictions;
    ++shard.stats.warm.evictions;
    shard.ghost_warm.push(victim.key);
    if (spill_enabled())
        spill_out(shard, victim);
}

void
ChunkReadCache::rebalance(Shard &shard)
{
    std::size_t demoted = 0;
    while (shard.hot_bytes > shard.hot_target && shard.hot.size > 0) {
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
        while (demoted < kDemoteBatch && shard.hot.size > 1) {
            demote_tail(shard);
            ++demoted;
        }
        ++shard.stats.demote_passes;
    }
    // hot_bytes <= hot_target < shard budget now, so the warm tier
    // always holds the overflow.
    while (shard.hot_bytes + shard.warm_bytes > shard_capacity_ &&
           shard.warm.size > 0)
        evict_warm_tail(shard);
}

void
ChunkReadCache::fill_hot(Shard &shard, const ChunkKey &key,
                         const Buffer &raw, Buffer &&compressed)
{
    Entry entry;
    entry.key = key;
    entry.raw = shard.copy_raw(raw);
    entry.compressed = std::move(compressed);
    entry.raw_size = static_cast<std::uint32_t>(raw.size());
    entry.hot = true;
    shard.push_front(std::move(entry));
}

void
ChunkReadCache::warm_to_hot(Shard &shard, std::uint32_t slot,
                            const Buffer &raw)
{
    Entry &entry = shard.slots[slot];
    shard.warm_bytes -= billed_warm(entry);
    entry.raw = shard.copy_raw(raw);
    entry.raw_size = static_cast<std::uint32_t>(raw.size());
    shard.move_front(slot, true);
    shard.hot_bytes += billed_hot(entry);
    ++shard.stats.promotions;
    ++shard.stats.hot.insertions;
}

void
ChunkReadCache::insert(const ChunkKey &key, const Buffer &raw,
                       Buffer &&compressed)
{
    if (raw.size() > shard_capacity_)
        return;  // Would evict the whole shard for one entry.
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const std::uint32_t *found = shard.index.find(key)) {
        // Resident re-insert: refresh content and recency in place.
        const std::uint32_t slot = *found;
        Entry &entry = shard.slots[slot];
        if (entry.hot) {
            shard.hot_bytes -= billed_hot(entry);
            entry.raw.assign(raw.begin(), raw.end());
            entry.compressed = std::move(compressed);
            entry.raw_size = static_cast<std::uint32_t>(raw.size());
            shard.hot_bytes += billed_hot(entry);
            shard.move_front(slot, true);
        } else {
            // Warm entry getting a fresh fill: promote it.
            warm_to_hot(shard, slot, raw);
        }
        rebalance(shard);
        return;
    }
    if (spill_enabled()) {
        // The fresh fill supersedes a ring image under the same key
        // (a GC spill can land between a read's probe and its fill).
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        spill_forget(key);
    }
    fill_hot(shard, key, raw, std::move(compressed));
    ++shard.stats.insertions;
    ++shard.stats.hot.insertions;
    rebalance(shard);
}

void
ChunkReadCache::promote(const ChunkKey &key, const Buffer &raw,
                        Buffer &&compressed)
{
    Shard &shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const std::uint32_t *found = shard.index.find(key)) {
        const std::uint32_t slot = *found;
        if (shard.slots[slot].hot) {
            shard.move_front(slot, true);
            return;  // Already hot (promoted earlier in the batch).
        }
        warm_to_hot(shard, slot, raw);
        rebalance(shard);
        return;
    }
    // Spill promotion: the image re-enters DRAM and leaves the ring's
    // index (its flash bytes are simply forgotten; the ring reclaims
    // space by lapping, not by holes).
    bool from_spill = false;
    if (spill_enabled()) {
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        from_spill = spill_.index.find(key) != nullptr;
        spill_forget(key);
    }
    fill_hot(shard, key, raw, std::move(compressed));
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
    if (const std::uint32_t *found = shard.index.find(key)) {
        shard.remove(*found);
        dropped = true;
    }
    if (spill_enabled()) {
        // Still under the shard lock: the DRAM and spill copies leave
        // together, so no probe can see the spilled image outlive an
        // invalidation of its PBN.
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        if (spill_.index.find(key) != nullptr) {
            spill_forget(key);
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
    if (const std::uint32_t *found = src.index.find(from)) {
        Entry entry = src.remove(*found);
        // The old physical location is gone whatever happens next, so
        // this is an invalidation first and a move second.
        ++src.stats.invalidations;
        ++src.stats.rekeys;

        // Displace any stale resident under the destination key (the
        // relocated chunk's image is the authoritative one).
        if (const std::uint32_t *existing = dst.index.find(to)) {
            dst.remove(*existing);
            ++dst.stats.invalidations;
        }
        entry.key = to;
        dst.push_front(std::move(entry));
        rebalance(dst);
        moved = true;
    }

    if (spill_enabled()) {
        // Shard locks still held: the spill index renames in the same
        // critical section, so the spilled image is never reachable
        // under the retired key once rekey returns — and never
        // unreachable while it is.
        const std::lock_guard<std::mutex> spill_lock(spill_.mutex);
        if (moved) {
            // The DRAM image now under `to` is authoritative: a ring
            // image under either key would only shadow it.
            spill_forget(from);
            spill_forget(to);
        } else if (const SpillRef *spilled = spill_.index.find(from)) {
            const SpillRef ref = *spilled;
            spill_.index.erase(from);
            // The relocated image is authoritative here too: a stale
            // DRAM resident under `to` goes, as on the DRAM path.
            if (const std::uint32_t *existing = dst.index.find(to)) {
                dst.remove(*existing);
                ++dst.stats.invalidations;
            }
            if (spill_.index.find(to) != nullptr) {
                // Destination already spilled: keep it, drop ours.
                spill_.used_bytes -= ref.size;
                spill_.by_offset.erase(ref.offset);
            } else {
                spill_.index.put(to, ref);
                spill_.by_offset[ref.offset] =
                    SpillRing::Occupant{to, ref.size};
            }
            ++src.stats.invalidations;
            ++src.stats.rekeys;
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
        for (const Lru *list : {&shard->hot, &shard->warm}) {
            for (std::uint32_t slot = list->head; slot != kNil;) {
                const std::uint32_t next = shard->slots[slot].next;
                if (shard->slots[slot].key.container_id == container_id) {
                    shard->remove(slot);
                    ++shard->stats.invalidations;
                }
                slot = next;
            }
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
        shard->stats.invalidations += shard->hot.size + shard->warm.size;
        shard->slots.clear();
        shard->free_slot = kNil;
        shard->hot = Lru{};
        shard->warm = Lru{};
        shard->index.clear();
        shard->spare_raw.clear();
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
        total += shard->hot.size + shard->warm.size;
    }
    return total;
}

std::size_t
ChunkReadCache::hot_entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->hot.size;
    }
    return total;
}

std::size_t
ChunkReadCache::warm_entries() const
{
    std::size_t total = 0;
    for (const auto &shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->warm.size;
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
