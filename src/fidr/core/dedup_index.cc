#include "fidr/core/dedup_index.h"

#include "fidr/host/calibration.h"

namespace fidr::core {

void
bill_dedup_lookup(Platform &platform, const DedupLookup &lookup,
                  bool software_index)
{
    pcie::Fabric &fabric = platform.fabric();
    host::HostCpu &cpu = platform.cpu();
    if (software_index) {
        cpu.bill_us(cputag::kTreeIndex,
                    lookup.buckets_probed * calib::kCpuTreeLookupPerChunk +
                        lookup.cache_misses * calib::kCpuTreeUpdatePerMiss);
        cpu.bill_us(cputag::kTableSsd,
                    lookup.cache_misses * calib::kCpuTableSsdPerMiss);
    }
    cpu.bill_us(cputag::kScan, calib::kCpuBucketScanPerChunk);
    cpu.bill_us(cputag::kLru, calib::kCpuLruPerChunk);
    cpu.bill_us(cputag::kTableMisc, calib::kCpuTableMiscPerChunk);

    fabric.host_memory().add(
        memtag::kTableCache,
        lookup.buckets_probed * calib::kBucketScanFraction *
            static_cast<double>(kBucketSize));
    for (unsigned m = 0; m < lookup.cache_misses; ++m) {
        fabric.dma(platform.table_ssd_dev(), pcie::kHostMemory,
                   kBucketSize, memtag::kTableCache);
    }
    for (unsigned f = 0; f < lookup.dirty_evictions; ++f) {
        fabric.dma(pcie::kHostMemory, platform.table_ssd_dev(),
                   kBucketSize, memtag::kTableCache);
    }
}

Result<DedupLookup>
DedupIndex::lookup_or_insert(const Digest &digest, Pbn new_pbn,
                             bool high_priority)
{
    return walk(digest, new_pbn, WalkMode::kInsert, high_priority);
}

Result<DedupLookup>
DedupIndex::lookup(const Digest &digest)
{
    return walk(digest, kInvalidPbn, WalkMode::kLookup, false);
}

// Removal can strand entries that spilled past the emptied bucket
// (open-addressing deletion): stranded *live* entries stay readable
// through the LBA-PBA table and at worst cost a duplicate re-insert if
// their content recurs — a bounded space leak, never a correctness
// problem; stranded *dead* entries are invisible to lookups, which is
// exactly what removal wants.
Result<DedupLookup>
DedupIndex::remove(const Digest &digest)
{
    return walk(digest, kInvalidPbn, WalkMode::kRemove, false);
}

Result<DedupLookup>
DedupIndex::walk(const Digest &digest, Pbn new_pbn, WalkMode mode,
                 bool high_priority)
{
    tables::HashPbnTable &table = cache_.table();
    const BucketIndex base = table.bucket_for(digest);

    DedupLookup out;
    for (unsigned probe = 0; probe < tables::HashPbnTable::kMaxProbes;
         ++probe) {
        const BucketIndex index = (base + probe) % table.num_buckets();
        Result<cache::CacheAccess> accessed =
            cache_.access(index, high_priority);
        if (!accessed.is_ok())
            return accessed.status();
        const cache::CacheAccess &access = accessed.value();
        ++out.buckets_probed;
        if (access.miss)
            ++out.cache_misses;
        if (access.evicted_dirty)
            ++out.dirty_evictions;

        tables::Bucket &bucket = cache_.bucket(access.line);
        std::size_t scanned = 0;
        const auto hit = bucket.lookup(digest, &scanned);
        out.entries_scanned += scanned;
        if (hit) {
            if (mode == WalkMode::kRemove) {
                bucket.remove(digest);
                cache_.mark_dirty(access.line);
            }
            out.verdict = ChunkVerdict::kDuplicate;
            out.pbn = *hit;
            return out;
        }

        // Inserts stop at the first non-full bucket, so a miss there
        // proves the digest is absent from the whole probe chain.
        if (!bucket.full()) {
            out.verdict = ChunkVerdict::kUnique;
            if (mode == WalkMode::kInsert) {
                const Status inserted = bucket.insert(digest, new_pbn);
                if (!inserted.is_ok())
                    return inserted;
                cache_.mark_dirty(access.line);
                out.pbn = new_pbn;
                out.inserted = true;
            }
            return out;
        }
    }

    if (mode == WalkMode::kInsert) {
        return Status::out_of_space(
            "Hash-PBN probe chain exhausted; table undersized");
    }
    out.verdict = ChunkVerdict::kUnique;
    return out;
}

}  // namespace fidr::core
