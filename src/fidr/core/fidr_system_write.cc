#include "fidr/core/fidr_system.h"

#include "fidr/host/calibration.h"
#include "fidr/obs/trace.h"

namespace fidr::core {

Status
FidrSystem::bill_container_seals()
{
    // Sealed containers move Compression Engine -> data SSD under the
    // shared switch: peer-to-peer, no host DRAM.  Only the metadata
    // (sizes, PCIe address, destination) touches the host (step 8-9).
    while (sealed_billed_ < containers_.sealed_containers()) {
        const std::size_t ssd =
            sealed_billed_ % platform_.data_ssd_dev_count();
        const Status payload = dma_checked(
            platform_.compression_engine(), platform_.data_ssd_dev(ssd),
            config_.container_bytes, memtag::kDataSsd);
        if (!payload.is_ok())
            return payload;
        const Status meta = dma_checked(platform_.compression_engine(),
                                        pcie::kHostMemory, 64,
                                        memtag::kFpga);
        if (!meta.is_ok())
            return meta;
        ++sealed_billed_;
    }
    return Status::ok();
}

Status
FidrSystem::place_chunk(Pbn pbn, const std::optional<Digest> &digest,
                        const tables::ChunkLocation &location)
{
    // The record joins the open journal extent, which is durable
    // before anything relies on it: the batch's NIC release, or the
    // discard of the GC victim that held the old copy.
    journal_stage(tables::JournalRecord::set_location(pbn, location));
    lba_table_.set_location(pbn, location);
    space_.on_store(pbn, digest, location);
    return bill_container_seals();
}

void
FidrSystem::stage_hash(nic::SealedBatch &batch)
{
    // Step 2: in-NIC hashing; only digests cross to the host.  The one
    // stage safe off the commit sequencer: pure per-batch data, no
    // shared-state reads.
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteHash, batch.epoch,
                    batch.chunks.size());
    nic_.hash_sealed(batch);
    const std::uint64_t elapsed = timer.elapsed_ns();
    hist_.hash->record(elapsed, obs::ScopedRequest::current_trace());
    pipe_hash_busy_->record(elapsed);
}

Status
FidrSystem::stage_digest_transfer(const nic::SealedBatch &batch)
{
    const std::size_t n = batch.chunks.size();
    const Status moved = stage_dma(
        obs::Tpoint::kWriteDigestXfer, hist_.digest_xfer, batch.epoch,
        platform_.nic(), pcie::kHostMemory, n * Digest::kSize,
        memtag::kNicHost);
    if (!moved.is_ok())
        return moved;

    // Step 3: bucket indexes to the Cache HW-Engine (8 B per chunk —
    // the "negligible PCIe bandwidth" of Sec 5.6).
    return stage_dma(obs::Tpoint::kWriteBucketIndex, hist_.bucket_index,
                     batch.epoch, pcie::kHostMemory,
                     platform_.cache_engine(), n * 8, memtag::kTableCache);
}

Status
FidrSystem::stage_dma([[maybe_unused]] obs::Tpoint tpoint,
                      obs::Histogram *hist,
                      [[maybe_unused]] std::uint64_t epoch,
                      pcie::DeviceId src, pcie::DeviceId dst,
                      std::uint64_t bytes, const std::string &tag)
{
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, tpoint, epoch, bytes);
    const Status moved = dma_checked(src, dst, bytes, tag);
    hist->record(timer.elapsed_ns(), obs::ScopedRequest::current_trace());
    return moved;
}

Status
FidrSystem::stage_resolve(const nic::SealedBatch &batch, BatchPlan &plan)
{
    // Steps 4-5: resolve cache lines and scan bucket content on host.
    const std::size_t n = batch.chunks.size();
    plan.verdicts.assign(n, ChunkVerdict::kUnique);
    plan.pbns.assign(n, kInvalidPbn);
    const Pbn batch_first_pbn = next_pbn_;
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteDedupResolve, batch.epoch,
                    n);
    for (std::size_t i = 0; i < n; ++i) {
        const Digest &digest = batch.chunks[i].digest;
        Result<DedupLookup> looked = dedup_->lookup_or_insert(
            digest, next_pbn_, high_priority_);
        if (!looked.is_ok())
            return looked.status();
        DedupLookup lookup = looked.value();

        if (lookup.verdict == ChunkVerdict::kDuplicate &&
            lookup.pbn < batch_first_pbn &&
            (lba_table_.refcount(lookup.pbn) == 0 ||
             !lba_table_.location_of(lookup.pbn))) {
            // Dangling Hash-PBN entry: its bucket reached the table
            // SSD before a crash, but the chunk's data never made
            // it into a container (or the PBN was since reclaimed
            // and the removal failed).  A refcount-0 PBN that still
            // has a location was stored by a batch that failed
            // before mapping it: mapping new LBAs to it would revive
            // a chunk the space ledger (and, post-recovery, GC)
            // already counts dead, so retire it instead.  Either
            // way, re-point the digest at a fresh PBN and store the
            // chunk as unique.
            if (lba_table_.refcount(lookup.pbn) == 0 &&
                lba_table_.location_of(lookup.pbn))
                retire_if_dead(lookup.pbn);
            Result<DedupLookup> removed = dedup_->remove(digest);
            if (!removed.is_ok())
                return removed.status();
            Result<DedupLookup> reinserted = dedup_->lookup_or_insert(
                digest, next_pbn_, high_priority_);
            if (!reinserted.is_ok())
                return reinserted.status();
            lookup = reinserted.value();
            ++fault_stats_.dangling_repairs;
        }

        bill_dedup_lookup(platform_, lookup, !config_.hw_cache_engine);

        plan.verdicts[i] = lookup.verdict;
        plan.pbns[i] = lookup.pbn;
        if (lookup.verdict == ChunkVerdict::kUnique) {
            plan.unique_pbns.push_back(lookup.pbn);
            plan.unique_digests.push_back(digest);
            ++next_pbn_;
        }
    }
    hist_.dedup_resolve->record(timer.elapsed_ns(),
                                obs::ScopedRequest::current_trace());
    return Status::ok();
}

Status
FidrSystem::stage_schedule(const nic::SealedBatch &batch, BatchPlan &plan)
{
    // Step 6: verdicts (and destination metadata) back to the NIC.
    const Status verdicts = stage_dma(
        obs::Tpoint::kWriteVerdictXfer, hist_.verdict_xfer, batch.epoch,
        pcie::kHostMemory, platform_.nic(), batch.chunks.size() * 2,
        memtag::kNicHost);
    if (!verdicts.is_ok())
        return verdicts;

    // Step 7 (crash-consistent handoff): the compression scheduler
    // exposes the unique chunks while the battery-backed NIC buffer
    // keeps the whole batch; it is released only at the commit point,
    // after the batch's journal extent is durable, so a failure
    // anywhere in between leaves the acknowledged data replayable
    // instead of lost.
    Result<std::vector<const nic::BufferedChunk *>> scheduled =
        nic_.peek_unique_sealed(batch, plan.verdicts);
    if (!scheduled.is_ok())
        return scheduled.status();
    plan.unique = scheduled.take();
    FIDR_CHECK(plan.unique.size() == plan.unique_pbns.size());

    for (const nic::BufferedChunk *chunk : plan.unique)
        plan.unique_bytes += chunk->data.size();
    if (plan.unique_bytes > 0) {
        const Status moved =
            dma_checked(platform_.nic(), platform_.compression_engine(),
                        plan.unique_bytes, memtag::kNicHost);
        if (!moved.is_ok())
            return moved;
    }
    return Status::ok();
}

Status
FidrSystem::stage_compress([[maybe_unused]] const nic::SealedBatch &batch,
                           BatchPlan &plan)
{
    // Step 8: compression in engine memory.  The engine's LZ cores
    // compress disjoint chunks concurrently; engine counters, ledgers
    // and journal staging stay on the commit sequencer after the join so
    // accounting is lane-count-invariant.
    plan.compressed.resize(plan.unique.size());
    const auto compress_range = [this, &plan](std::size_t begin,
                                              std::size_t end) {
        // One span per LZ lane shard (worker-thread trace ring).
        FIDR_TRACE_SPAN(lane_span, obs::Tpoint::kWriteCompressLane,
                        begin, end - begin);
        for (std::size_t j = begin; j < end; ++j) {
            plan.compressed[j] =
                compressor_.compress_stateless(plan.unique[j]->data);
        }
    };
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteCompress, batch.epoch,
                    plan.unique_bytes);
    if (compress_pool_)
        compress_pool_->parallel_for(plan.unique.size(), compress_range);
    else
        compress_range(0, plan.unique.size());
    hist_.compress->record(timer.elapsed_ns(),
                           obs::ScopedRequest::current_trace());
    return Status::ok();
}

Status
FidrSystem::stage_store([[maybe_unused]] const nic::SealedBatch &batch,
                        BatchPlan &plan)
{
    // Steps 9-10: container packing; sealed containers DMA straight to
    // the data SSDs.
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteContainerAppend,
                    batch.epoch, plan.unique.size());
    for (std::size_t j = 0; j < plan.unique.size(); ++j) {
        const accel::CompressedChunk &compressed = plan.compressed[j];
        compressor_.record(compressed);
        Result<tables::ChunkLocation> placed =
            containers_.append(compressed.data);
        if (!placed.is_ok())
            return placed.status();
        stats_.stored_bytes += compressed.data.size();
        const Status placed_ok = place_chunk(
            plan.unique_pbns[j], plan.unique_digests[j], placed.value());
        if (!placed_ok.is_ok())
            return placed_ok;
    }
    hist_.container_append->record(timer.elapsed_ns(),
                                   obs::ScopedRequest::current_trace());
    return Status::ok();
}

void
FidrSystem::stage_apply(const nic::SealedBatch &batch, BatchPlan &plan)
{
    // LBA-PBA mappings are applied only after every unique chunk of
    // the batch is physically stored (data-before-metadata): a crash
    // can leave stored-but-unmapped chunks (dead space), never mapped
    // LBAs whose data is gone.  Duplicates map to the matched PBN,
    // uniques to their freshly assigned PBN.  Overwritten chunks are
    // retired only at commit: a later duplicate in the same batch may
    // re-reference a PBN whose refcount transiently hit zero.
    const std::size_t n = batch.chunks.size();
    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteMapUpdate, batch.epoch, n);
    for (std::size_t i = 0; i < n; ++i) {
        const Lba lba = batch.chunks[i].lba;
        journal_stage(tables::JournalRecord::map(lba, plan.pbns[i]));
        const auto prev = lba_table_.map_lba(lba, plan.pbns[i]);
        if (prev && *prev != plan.pbns[i])
            plan.retire_candidates.push_back(*prev);
    }
    hist_.map_update->record(timer.elapsed_ns(),
                             obs::ScopedRequest::current_trace());
}

Status
FidrSystem::stage_commit(nic::SealedBatch &batch, const BatchPlan &plan)
{
    for (const Pbn pbn : plan.retire_candidates)
        retire_if_dead(pbn);

    // Commit point: every record the batch staged goes out as one
    // journal extent, and only once it is durable may the NIC release
    // the acknowledged payloads.  A failed extent stays staged for the
    // next commit, and the retained batch retries.
    const Status logged = journal_commit();
    if (!logged.is_ok())
        return logged;
    nic_.drop_sealed(batch.epoch);

    // Verdict statistics are deferred to the commit so an aborted and
    // retried batch is not counted twice.
    for (const ChunkVerdict verdict : plan.verdicts) {
        if (verdict == ChunkVerdict::kUnique)
            ++stats_.unique_chunks;
        else
            ++stats_.duplicates;
    }
    return Status::ok();
}

Status
FidrSystem::execute_batch(nic::SealedBatch &batch)
{
    const std::size_t n = batch.chunks.size();
    const obs::StageTimer batch_timer;
    FIDR_TRACE_SPAN(exec_span, obs::Tpoint::kPipelineExecute, batch.epoch,
                    n);
    FIDR_TRACE_SPAN(batch_span, obs::Tpoint::kWriteBatch, batch.epoch, n);

    // Fig 6a step 1 accounting: the device manager's per-request CPU
    // work, billed here (one add per chunk, in chunk order) instead of
    // in write() so the ledgers have a single writer at any depth and
    // totals stay bit-identical to the per-write billing they replace.
    for (std::size_t i = 0; i < n; ++i) {
        platform_.cpu().bill_us(cputag::kOrchestration,
                                calib::kCpuOrchestrationPerChunk);
    }

    BatchPlan plan;
    Status status = stage_digest_transfer(batch);
    if (status.is_ok())
        status = stage_resolve(batch, plan);
    if (status.is_ok())
        status = stage_schedule(batch, plan);
    if (status.is_ok())
        status = stage_compress(batch, plan);
    if (status.is_ok())
        status = stage_store(batch, plan);
    if (status.is_ok()) {
        stage_apply(batch, plan);
        status = stage_commit(batch, plan);
    }
    if (status.is_ok()) {
        hist_.batch->record(batch_timer.elapsed_ns(),
                            obs::ScopedRequest::current_trace());
        // Incremental GC rides the commit sequencer: one budgeted step
        // after each committed batch, so reclamation interleaves with
        // the write plane at batch granularity instead of stopping the
        // world.  Step errors never fail the (already committed) batch.
        if (config_.gc.auto_run)
            run_auto_gc();
    }
    pipe_execute_busy_->record(batch_timer.elapsed_ns());
    return status;
}

void
FidrSystem::retire_if_dead(Pbn pbn)
{
    if (lba_table_.refcount(pbn) != 0)
        return;
    // Durable with the remap that killed the chunk (same extent), and
    // before a GC discard can free its space.
    journal_stage(tables::JournalRecord::retire(pbn));
    // The physical chunk is dead: its decompressed image must leave
    // the read cache before the location mapping disappears, or a new
    // chunk written into the reclaimed slot would read stale bytes.
    if (chunk_cache_) {
        if (const auto location = lba_table_.location_of(pbn)) {
            chunk_cache_->invalidate(
                {location->container_id, location->offset_units});
        }
    }
    lba_table_.reclaim(pbn);
    if (const auto digest = space_.on_dead(pbn)) {
        // Drop the Hash-PBN entry so the content, if it recurs, is
        // stored fresh rather than mapped to a reclaimed chunk.  A
        // failed removal (injected cache fault) leaves a dangling
        // entry, which the dedup-resolve repair re-points on the next
        // occurrence of this digest.
        (void)dedup_->remove(*digest);
    }
}

}  // namespace fidr::core
