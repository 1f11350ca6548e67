#include "fidr/core/fidr_system.h"

#include "fidr/common/bytes.h"
#include "fidr/fault/failpoint.h"
#include "fidr/host/calibration.h"
#include "fidr/obs/trace.h"

namespace fidr::core {

FidrSystem::FidrSystem(const FidrConfig &config)
    : config_(config),
      platform_(config.platform),
      nic_(config.nic),
      containers_(platform_.data_ssds(), config.container_bytes,
                  config.gc.superblock_interval,
                  config.chunk_cache_bytes > 0
                      ? config.chunk_cache_spill_bytes
                      : 0),
      compressor_(LzLevel::kFast),
      gc_scheduler_(config.gc)
{
    const std::size_t compress_lanes =
        config_.compress_lanes == 0 ? ThreadPool::hardware_lanes()
                                    : config_.compress_lanes;
    if (compress_lanes > 1)
        compress_pool_ = std::make_unique<ThreadPool>(compress_lanes);
    if (config_.chunk_cache_bytes > 0) {
        if (containers_.spill_capacity_bytes() > 0) {
            spill_device_ = std::make_unique<SpillDevice>(
                *this, containers_.spill_ssd_index(),
                containers_.spill_base(),
                containers_.spill_capacity_bytes());
        }
        chunk_cache_ = std::make_unique<cache::ChunkReadCache>(
            config_.chunk_cache_bytes, config_.chunk_cache_shards,
            spill_device_.get());
    }
    build_cache_structures();

    // Host DRAM holds only the table cache content; payload buffering
    // moved to NIC DRAM and containers to the Compression Engine.
    FIDR_CHECK(platform_.memory()
                   .claim("table cache", table_cache_->capacity_bytes())
                   .is_ok());
    if (chunk_cache_) {
        FIDR_CHECK(platform_.memory()
                       .claim("chunk read cache",
                              chunk_cache_->capacity_bytes())
                       .is_ok());
    }

    if (config.journal_metadata) {
        // Reserve [buckets | snapshot | journal] on the table SSD.
        snapshot_base_ =
            (platform_.hash_table().table_bytes() + 4095) / 4096 * 4096;
        const std::uint64_t journal_base =
            snapshot_base_ + config.snapshot_bytes;
        journal_ = std::make_unique<tables::MetadataJournal>(
            platform_.table_ssd(), journal_base, config.journal_bytes);
    }

    // Resolve stage-histogram handles once; eager creation also makes
    // every Fig 6 stage show up in obs_snapshot() from the start.
    hist_.nic_buffer = &metrics_.histogram("write.nic_buffer");
    hist_.batch = &metrics_.histogram("write.batch");
    hist_.hash = &metrics_.histogram("write.hash");
    hist_.digest_xfer = &metrics_.histogram("write.digest_xfer");
    hist_.bucket_index = &metrics_.histogram("write.bucket_index");
    hist_.dedup_resolve = &metrics_.histogram("write.dedup_resolve");
    hist_.verdict_xfer = &metrics_.histogram("write.verdict_xfer");
    hist_.map_update = &metrics_.histogram("write.map_update");
    hist_.compress = &metrics_.histogram("write.compress");
    hist_.container_append = &metrics_.histogram("write.container_append");
    hist_.journal = &metrics_.histogram("write.journal");
    hist_.read_total = &metrics_.histogram("read.total");
    hist_.read_resolve = &metrics_.histogram("read.lba_resolve");
    hist_.read_fetch = &metrics_.histogram("read.ssd_fetch");
    hist_.read_decompress = &metrics_.histogram("read.decompress");
    hist_.read_return = &metrics_.histogram("read.nic_return");
    hist_.read_barrier = &metrics_.histogram("read.barrier");
    hist_.read_cache_probe = &metrics_.histogram("read.cache_probe");
    hist_.read_cache_fill = &metrics_.histogram("read.cache_fill");
    read_ssd_fetches_ = &metrics_.counter("read.ssd_fetches");
    read_spill_reads_ = &metrics_.counter("read.cache.spill.reads");
    // GC pause cost per step, visible from the first snapshot even
    // before any step runs (eager creation, like the stage set).
    gc_pause_ = &metrics_.histogram("gc.pause_ns");

    // Stage-occupancy histograms exist at every depth so a depth sweep
    // compares like for like (aggregate busy > wall-clock shows real
    // overlap; at depth 1 busy == wall by construction).
    pipe_hash_busy_ = &metrics_.histogram("pipeline.stage.hash.busy_ns");
    pipe_execute_busy_ =
        &metrics_.histogram("pipeline.stage.execute.busy_ns");

    // Tail exemplars on every Fig 6 stage histogram: the slowest
    // kTailExemplars recorded samples keep their request trace id, so
    // a fat p99 names concrete traces (`fidr_obs_report attribute`
    // resolves them).  Configured here, before any record, per the
    // quiescence contract.  With FIDR_TRACE=OFF no trace ids exist,
    // so the reservoirs stay empty.
    constexpr std::size_t kTailExemplars = 4;
    for (obs::Histogram *h :
         {hist_.nic_buffer, hist_.batch, hist_.hash, hist_.digest_xfer,
          hist_.bucket_index, hist_.dedup_resolve, hist_.verdict_xfer,
          hist_.map_update, hist_.compress, hist_.container_append,
          hist_.journal, hist_.read_total, hist_.read_resolve,
          hist_.read_fetch, hist_.read_decompress, hist_.read_return,
          hist_.read_barrier, hist_.read_cache_probe,
          hist_.read_cache_fill})
        h->set_exemplar_capacity(kTailExemplars);
    if (config_.in_flight_batches > 1) {
        WritePipelineConfig pipeline;
        pipeline.depth = config_.in_flight_batches;
        WritePipelineMetrics sinks;
        sinks.submit_stall_ns =
            &metrics_.histogram("pipeline.submit_stall_ns");
        sinks.queue_depth = &metrics_.histogram("pipeline.queue_depth");
        sinks.batches = &metrics_.counter("pipeline.batches");
        sinks.stalls = &metrics_.counter("pipeline.stalls");
        sinks.overlap_ns = &metrics_.counter("pipeline.overlap_ns");
        pipeline_ = std::make_unique<WritePipeline>(
            pipeline, nic_,
            [this](nic::SealedBatch &batch) { stage_hash(batch); },
            [this](nic::SealedBatch &batch) {
                return execute_batch(batch);
            },
            sinks);
    }
}

Status
FidrSystem::SpillDevice::write(std::uint64_t offset,
                               std::span<const std::uint8_t> data)
{
    // Called from serial contexts only (the read plane's cache fills,
    // the commit sequencer), so the ledger writes below are
    // deterministic.  Flash first; an error means nothing was billed
    // and the cache drops the entry (spill is best-effort).
    const Status written = system_.platform_.data_ssds()
                               .at(ssd_)
                               .write(base_ + offset, data);
    if (!written.is_ok())
        return written;
    // The evicted image leaves host DRAM for the spill SSD — the
    // "cheap sequential write" the tier is built on, billed like the
    // rest of the chunk-cache traffic.
    system_.platform_.fabric().dma(
        pcie::kHostMemory, system_.platform_.data_ssd_dev(ssd_),
        data.size(), memtag::kChunkCache);
    FIDR_TPOINT(obs::Tpoint::kReadCacheSpillWrite, offset, data.size());
    return Status::ok();
}

Result<Buffer>
FidrSystem::SpillDevice::read(std::uint64_t offset,
                              std::uint64_t size) const
{
    // Raw flash read; the read job that issued it bills the transfer.
    return system_.platform_.data_ssds().at(ssd_).read(base_ + offset,
                                                       size);
}

void
FidrSystem::build_cache_structures()
{
    // (Re)build index + cache + dedup view; shared by the constructor
    // and crash recovery so both produce the same sharded layout.
    hw_shards_.clear();
    const std::size_t shards = config_.cache_shards;
    const auto make_index = [this]() -> std::unique_ptr<cache::CacheIndex> {
        if (config_.hw_cache_engine) {
            hwtree::PipelineConfig pipeline;
            pipeline.update_lanes = config_.tree_update_lanes;
            auto hw = std::make_unique<cache::HwTreeCacheIndex>(pipeline);
            hw_shards_.push_back(hw.get());
            return hw;
        }
        return std::make_unique<cache::BTreeCacheIndex>();
    };
    if (shards > 1) {
        // One sub-index per cache shard: sub s is only ever touched
        // under shard s's mutex, so single-threaded backends (the HW
        // tree, the B+ tree) stay safe without their own locking.
        std::vector<std::unique_ptr<cache::CacheIndex>> subs;
        subs.reserve(shards);
        for (std::size_t s = 0; s < shards; ++s)
            subs.push_back(make_index());
        index_ =
            std::make_unique<cache::ShardedCacheIndex>(std::move(subs));
    } else {
        index_ = make_index();
    }
    table_cache_ = std::make_unique<cache::TableCache>(
        platform_.hash_table(), *index_, platform_.cache_lines(),
        config_.eviction_policy, shards);
    dedup_ = std::make_unique<DedupIndex>(*table_cache_);
}

std::uint64_t
FidrSystem::backoff_for(unsigned attempt) const
{
    // Exponential backoff, saturated: `retry_backoff_ns << attempt`
    // is UB past 63 and silently wraps long before that for large
    // base values, so the shift is capped and the product clamps to
    // the accumulator's ceiling instead of wrapping to ~0.
    constexpr unsigned kMaxBackoffShift = 20;
    const unsigned shift =
        attempt < kMaxBackoffShift ? attempt : kMaxBackoffShift;
    if (config_.retry_backoff_ns > (UINT64_MAX >> shift))
        return UINT64_MAX;
    return config_.retry_backoff_ns << shift;
}

void
FidrSystem::charge_retries(const fault::RetryTally &tally)
{
    // Each retry backed off before re-issuing: accounted, not slept.
    fault_stats_.transient_retries += tally.retries;
    for (unsigned attempt = 0; attempt < tally.retries; ++attempt)
        fault_stats_.backoff_ns += backoff_for(attempt);
    if (tally.exhausted)
        ++fault_stats_.retry_exhausted;
}

template <typename Op>
Status
FidrSystem::retry_transient(Op &&op)
{
    fault::RetryTally tally;
    Status status =
        fault::retry_counted(config_.transient_retries, tally, op);
    charge_retries(tally);
    return status;
}

Status
FidrSystem::dma_checked(pcie::DeviceId src, pcie::DeviceId dst,
                        std::uint64_t bytes, const std::string &tag)
{
    return retry_transient([&] {
        const Result<pcie::DmaPath> moved =
            platform_.fabric().try_dma(src, dst, bytes, tag);
        return moved.is_ok() ? Status::ok() : moved.status();
    });
}

Status
FidrSystem::journal_append(const tables::JournalRecord &record)
{
    if (!journal_)
        return Status::ok();
    const obs::StageTimer timer;
    FIDR_TPOINT(obs::Tpoint::kWriteJournal, record.pbn, record.lba);
    Status appended = journal_->append(record);
    if (appended.code() == StatusCode::kOutOfSpace) {
        // Journal full: checkpoint truncates it, then retry.
        const Status checkpointed = checkpoint();
        if (!checkpointed.is_ok())
            return checkpointed;
        appended = journal_->append(record);
    }
    hist_.journal->record(timer.elapsed_ns(),
                          obs::ScopedRequest::current_trace());
    return appended;
}

Status
FidrSystem::write(Lba lba, Buffer data)
{
    return admit_write(lba, std::move(data), nullptr);
}

Status
FidrSystem::write(Lba lba, Buffer data, const Digest &digest)
{
    return admit_write(lba, std::move(data), &digest);
}

Status
FidrSystem::admit_write(Lba lba, Buffer &&data, const Digest *digest)
{
    if (data.size() != kChunkSize)
        return Status::invalid_argument("writes must be 4 KB chunks");

    // Fig 6a step 1: buffer in the NIC and ack immediately.  The FIDR
    // device manager's per-request CPU work is billed per chunk on the
    // commit sequencer (execute_batch) so the work ledgers have exactly
    // one writer at any pipeline depth.
    if (nic_.pending_bytes() + kChunkSize > nic_.config().buffer_capacity) {
        // Back-pressure: the NVRAM budget covers open *and* in-flight
        // sealed batches — commit everything before accepting more.
        const Status committed = drain_pipeline();
        if (!committed.is_ok())
            return committed;
        const Status sealed = process_batch();
        if (!sealed.is_ok())
            return sealed;
        const Status drained = drain_pipeline();
        if (!drained.is_ok())
            return drained;
    }
    Status buffered = Status::ok();
    {
        const obs::StageTimer timer;
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteNicBuffer, lba,
                        kChunkSize);
        buffered = nic_.buffer_write(lba, std::move(data));
        hist_.nic_buffer->record(timer.elapsed_ns());
    }
    if (!buffered.is_ok())
        return buffered;
    ++stats_.chunks_written;
    stats_.raw_bytes += kChunkSize;
    if (digest != nullptr || !open_digest_of_.empty())
        index_open_chunk(lba, digest);

    if (nic_.batch_ready())
        return process_batch();
    return Status::ok();
}

void
FidrSystem::index_open_chunk(Lba lba, const Digest *digest)
{
    if (const auto it = open_digest_of_.find(lba);
        it != open_digest_of_.end()) {
        // The buffered chunk the entry named is no longer the newest
        // write of `lba`.
        open_lba_of_.erase(it->second);
        open_digest_of_.erase(it);
    }
    if (digest != nullptr && open_lba_of_.try_emplace(*digest, lba).second)
        open_digest_of_.emplace(lba, *digest);
}

void
FidrSystem::forget_open_chunks()
{
    open_lba_of_.clear();
    open_digest_of_.clear();
}

void
FidrSystem::unseal_nic()
{
    nic_.unseal_all();
    forget_open_chunks();
}

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
FidrSystem::process_batch()
{
    nic::SealedBatch *batch = nic_.seal_batch();
    if (batch == nullptr)
        return Status::ok();
    forget_open_chunks();

    // The sealed batch is one client-visible request: give it a causal
    // id here, at the seal, and let it ride in the batch — hash
    // workers and the commit sequencer restore the context from there.
    if (batch->trace_id == 0)
        batch->trace_id =
            obs::RequestContext::next_id_for_node(config_.node_index);
    batch->stream_tag = stream_tag_;
    obs::ScopedRequest request(batch->trace_id, batch->stream_tag);

    if (!pipeline_) {
        // Depth 1: the whole Fig 6a flow runs synchronously on the
        // caller, exactly the pre-pipeline behaviour.
        stage_hash(*batch);
        const Status done = execute_batch(*batch);
        if (!done.is_ok()) {
            // A failed batch stays buffered (NVRAM) and retries at the
            // next flush, after the fault clears.
            unseal_nic();
        }
        return done;
    }
    if (pipeline_->failed()) {
        // An earlier batch already failed asynchronously on the commit
        // sequencer.  This write was acked at NVRAM admission exactly
        // like every non-sealing write, so don't fail it on the
        // sequencer's behalf: the batch stays sealed next to the
        // aborted ones (a power cut replays all of them from NVRAM)
        // and the next flush surfaces the sticky error and retries.
        // Surfacing here would make the ack contract depend on a race
        // between the caller's seal points and the executor.
        return Status::ok();
    }
    // Submit under the batch's context: admission stalls trace as this
    // request's queueing time.
    const Status submitted = pipeline_->submit(batch->epoch);
    if (!submitted.is_ok() && pipeline_->failed()) {
        // Same race, lost inside submit's admission wait: the executor
        // went sticky-failed while this batch queued.  It stays sealed
        // for the flush-time retry; the ack stands.
        return Status::ok();
    }
    return submitted;
}

Status
FidrSystem::drain_pipeline()
{
    if (!pipeline_)
        return Status::ok();
    pipeline_->quiesce();
    if (pipeline_->failed())
        return surface_pipeline_error();
    return Status::ok();
}

Status
FidrSystem::surface_pipeline_error()
{
    pipeline_->quiesce();
    const Status error = pipeline_->take_error();
    // Failed/aborted batches return to the open buffer (their chunks
    // keep computed digests) and retry at the next flush.
    unseal_nic();
    return error;
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
    {
        const obs::StageTimer timer;
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteDigestXfer, batch.epoch,
                        n * Digest::kSize);
        const Status moved = dma_checked(platform_.nic(), pcie::kHostMemory,
                                         n * Digest::kSize,
                                         memtag::kNicHost);
        hist_.digest_xfer->record(timer.elapsed_ns(),
                                  obs::ScopedRequest::current_trace());
        if (!moved.is_ok())
            return moved;
    }

    // Step 3: bucket indexes to the Cache HW-Engine (8 B per chunk —
    // the "negligible PCIe bandwidth" of Sec 5.6).
    {
        const obs::StageTimer timer;
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteBucketIndex, batch.epoch,
                        n * 8);
        const Status moved =
            dma_checked(pcie::kHostMemory, platform_.cache_engine(), n * 8,
                        memtag::kTableCache);
        hist_.bucket_index->record(timer.elapsed_ns(),
                                   obs::ScopedRequest::current_trace());
        if (!moved.is_ok())
            return moved;
    }
    return Status::ok();
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
            // has a location is a retirement a journal fault
            // deferred: mapping new LBAs to it would revive a chunk
            // the space ledger (and, post-recovery, GC) already
            // counts dead, so finish the retirement instead — this
            // is the retry the degraded path promises.  Either way,
            // re-point the digest at a fresh PBN and store the
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

        bill_dedup_lookup(lookup);

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
    const std::size_t n = batch.chunks.size();

    // Step 6: verdicts (and destination metadata) back to the NIC.
    {
        const obs::StageTimer timer;
        FIDR_TRACE_SPAN(span, obs::Tpoint::kWriteVerdictXfer, batch.epoch,
                        n * 2);
        const Status moved = dma_checked(pcie::kHostMemory,
                                         platform_.nic(), n * 2,
                                         memtag::kNicHost);
        hist_.verdict_xfer->record(timer.elapsed_ns(),
                                   obs::ScopedRequest::current_trace());
        if (!moved.is_ok())
            return moved;
    }

    // Step 7 (crash-consistent handoff): the compression scheduler
    // exposes the unique chunks while the battery-backed NIC buffer
    // keeps the whole batch; it is released only at the commit point,
    // after every chunk's metadata is applied and journaled, so a
    // failure anywhere in between leaves the acknowledged data
    // replayable instead of lost.
    Result<std::vector<const nic::BufferedChunk *>> scheduled =
        nic_.peek_unique_sealed(batch, plan.verdicts);
    if (!scheduled.is_ok())
        return scheduled.status();
    plan.unique = scheduled.take();
    FIDR_CHECK(plan.unique.size() == plan.unique_pbns.size());

    std::uint64_t unique_bytes = 0;
    for (const nic::BufferedChunk *chunk : plan.unique)
        unique_bytes += chunk->data.size();
    if (unique_bytes > 0) {
        const Status moved =
            dma_checked(platform_.nic(), platform_.compression_engine(),
                        unique_bytes, memtag::kNicHost);
        if (!moved.is_ok())
            return moved;
    }
    return Status::ok();
}

Status
FidrSystem::stage_compress(const nic::SealedBatch &batch, BatchPlan &plan)
{
    // Step 8: compression in engine memory.  The engine's LZ cores
    // compress disjoint chunks concurrently; engine counters, ledgers
    // and journaling stay on the commit sequencer after the join so
    // accounting is lane-count-invariant.
    std::uint64_t unique_bytes = 0;
    for (const nic::BufferedChunk *chunk : plan.unique)
        unique_bytes += chunk->data.size();
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
                    unique_bytes);
    if (compress_pool_)
        compress_pool_->parallel_for(plan.unique.size(), compress_range);
    else
        compress_range(0, plan.unique.size());
    hist_.compress->record(timer.elapsed_ns(),
                           obs::ScopedRequest::current_trace());
    return Status::ok();
}

Status
FidrSystem::stage_store(const nic::SealedBatch &batch, BatchPlan &plan)
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
        // Journal the chunk's location *before* the in-DRAM update, so
        // the durable log is never behind the table it protects.  If
        // the append fails here the stored bytes leak as dead container
        // space, but the mapping stays consistent and a retried batch
        // re-stores the chunk through the dangling-entry repair in
        // stage_resolve.
        if (journal_) {
            tables::JournalRecord rec;
            rec.op = tables::JournalOp::kSetLocation;
            rec.pbn = plan.unique_pbns[j];
            rec.location = placed.value();
            const Status logged = journal_append(rec);
            if (!logged.is_ok())
                return logged;
        }
        lba_table_.set_location(plan.unique_pbns[j], placed.value());
        space_.on_store(plan.unique_pbns[j], plan.unique_digests[j],
                        placed.value());
        const Status billed = bill_container_seals();
        if (!billed.is_ok())
            return billed;
    }
    hist_.container_append->record(timer.elapsed_ns(),
                                   obs::ScopedRequest::current_trace());
    return Status::ok();
}

Status
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
        if (journal_) {
            tables::JournalRecord rec;
            rec.op = tables::JournalOp::kMapLba;
            rec.lba = lba;
            rec.pbn = plan.pbns[i];
            const Status logged = journal_append(rec);
            if (!logged.is_ok())
                return logged;
        }
        const auto prev = lba_table_.map_lba(lba, plan.pbns[i]);
        if (prev && *prev != plan.pbns[i])
            plan.retire_candidates.push_back(*prev);
    }
    hist_.map_update->record(timer.elapsed_ns(),
                             obs::ScopedRequest::current_trace());
    return Status::ok();
}

void
FidrSystem::stage_commit(nic::SealedBatch &batch, const BatchPlan &plan)
{
    // Commit point: every chunk of the batch is stored, journaled and
    // mapped — the NIC may finally release the acknowledged payloads.
    nic_.drop_sealed(batch.epoch);

    // Verdict statistics are deferred to the commit so an aborted and
    // retried batch is not counted twice.
    for (const ChunkVerdict verdict : plan.verdicts) {
        if (verdict == ChunkVerdict::kUnique)
            ++stats_.unique_chunks;
        else
            ++stats_.duplicates;
    }

    for (const Pbn pbn : plan.retire_candidates)
        retire_if_dead(pbn);
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
    if (status.is_ok())
        status = stage_apply(batch, plan);
    if (status.is_ok()) {
        stage_commit(batch, plan);
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
    if (journal_) {
        tables::JournalRecord rec;
        rec.op = tables::JournalOp::kRetirePbn;
        rec.pbn = pbn;
        if (!journal_append(rec).is_ok()) {
            // Degraded mode: without the durable record the reclaim
            // must not happen — a replay would resurrect the mapping
            // to space we freed.  Keeping the dead PBN around is only
            // a space leak; a later overwrite retries the retirement.
            ++fault_stats_.retire_deferred;
            return;
        }
    }
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

void
FidrSystem::bill_dedup_lookup(const DedupLookup &lookup)
{
    pcie::Fabric &fabric = platform_.fabric();
    host::HostCpu &cpu = platform_.cpu();
    if (!config_.hw_cache_engine) {
        // NIC+P2P-only configuration: the index stays a
        // software B+ tree, so its CPU cost remains (Fig 14
        // config b).
        cpu.bill_us(cputag::kTreeIndex,
                    lookup.buckets_probed *
                            calib::kCpuTreeLookupPerChunk +
                        lookup.cache_misses *
                            calib::kCpuTreeUpdatePerMiss);
        cpu.bill_us(cputag::kTableSsd,
                    lookup.cache_misses *
                        calib::kCpuTableSsdPerMiss);
    }
    cpu.bill_us(cputag::kScan, calib::kCpuBucketScanPerChunk);
    cpu.bill_us(cputag::kLru, calib::kCpuLruPerChunk);
    cpu.bill_us(cputag::kTableMisc, calib::kCpuTableMiscPerChunk);

    fabric.host_memory().add(
        memtag::kTableCache,
        lookup.buckets_probed * calib::kBucketScanFraction *
            static_cast<double>(kBucketSize));
    for (unsigned m = 0; m < lookup.cache_misses; ++m) {
        fabric.dma(platform_.table_ssd_dev(), pcie::kHostMemory,
                   kBucketSize, memtag::kTableCache);
    }
    for (unsigned f = 0; f < lookup.dirty_evictions; ++f) {
        fabric.dma(pcie::kHostMemory, platform_.table_ssd_dev(),
                   kBucketSize, memtag::kTableCache);
    }
}

Result<std::optional<Pbn>>
FidrSystem::resolve_committed_digest(const Digest &digest)
{
    Result<DedupLookup> looked = dedup_->lookup(digest);
    if (!looked.is_ok())
        return looked.status();
    const DedupLookup lookup = looked.value();
    bill_dedup_lookup(lookup);
    if (lookup.verdict != ChunkVerdict::kDuplicate)
        return std::optional<Pbn>{};
    // A dangling or retirement-deferred entry is not a committed
    // readable chunk; the caller falls back to a full write, whose
    // resolve stage repairs the entry.
    if (lba_table_.refcount(lookup.pbn) == 0 ||
        !lba_table_.location_of(lookup.pbn))
        return std::optional<Pbn>{};
    return std::optional<Pbn>{lookup.pbn};
}

Result<bool>
FidrSystem::probe_digest(const Digest &digest)
{
    // Commit NIC-buffered writes first: the probe answers for durable
    // state only, so a just-acknowledged duplicate is still a hit.
    const Status flushed = flush();
    if (!flushed.is_ok())
        return flushed;
    Result<std::optional<Pbn>> resolved = resolve_committed_digest(digest);
    if (!resolved.is_ok())
        return resolved.status();
    return resolved.value().has_value();
}

Status
FidrSystem::write_ref(Lba lba, const Digest &digest)
{
    // Content still in the open NIC buffer: copy the chunk inside the
    // NIC for `lba` and let it ride the batch path like a full write.
    // Only this thread touches the open buffer, so no barrier.
    if (const auto it = open_lba_of_.find(digest); it != open_lba_of_.end()) {
        std::optional<Buffer> data = nic_.lookup_buffered(it->second);
        FIDR_CHECK(data.has_value());
        const Status written = admit_write(lba, std::move(*data), &digest);
        if (written.is_ok())
            ++cluster_stats_.refs_from_nic;
        return written;
    }

    // An in-flight batch may hold an older write of this LBA whose
    // commit would override the mapping made below; barrier first.
    // This is cheap when the pipeline is idle and leaves the open NIC
    // batch intact, so cluster duplicate suppression does not break
    // the node's write batching.
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    // A NIC-buffered write of this LBA would commit after (and undo)
    // the reference; bounce so the router's full-write fallback
    // replaces the buffered chunk instead (newest-write-wins).
    if (nic_.lookup_buffered(lba))
        return Status::not_found("LBA has a buffered write pending");
    Result<std::optional<Pbn>> resolved = resolve_committed_digest(digest);
    if (!resolved.is_ok())
        return resolved.status();
    if (!resolved.value())
        return Status::not_found("digest is not a committed chunk here");
    const Pbn pbn = *resolved.value();

    // Mirror stage_apply/stage_commit for one duplicate chunk: journal
    // before the in-memory map, count at commit, retire a displaced
    // previous mapping.
    if (journal_) {
        tables::JournalRecord rec;
        rec.op = tables::JournalOp::kMapLba;
        rec.lba = lba;
        rec.pbn = pbn;
        const Status logged = journal_append(rec);
        if (!logged.is_ok())
            return logged;
    }
    const auto prev = lba_table_.map_lba(lba, pbn);
    ++stats_.chunks_written;
    stats_.raw_bytes += kChunkSize;
    ++stats_.duplicates;
    ++cluster_stats_.refs_from_committed;
    if (prev && *prev != pbn)
        retire_if_dead(*prev);
    return Status::ok();
}

Status
FidrSystem::unmap(Lba lba)
{
    // An acknowledged write of this LBA must commit before the mapping
    // is dropped, or committing (or replaying) it later would
    // resurrect the mapping the router just moved to another node.
    // In-flight batches commit at the drain; the open batch is sealed
    // only when it holds such a write.  Containers and the table
    // cache stay as they are: neither affects the mapping.
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    if (nic_.lookup_buffered(lba)) {
        const Status sealed = process_batch();
        if (!sealed.is_ok())
            return sealed;
        const Status committed = drain_pipeline();
        if (!committed.is_ok())
            return committed;
        ++cluster_stats_.unmap_commits;
    }
    if (!lba_table_.pbn_of(lba))
        return Status::ok();
    if (journal_) {
        tables::JournalRecord rec;
        rec.op = tables::JournalOp::kUnmapLba;
        rec.lba = lba;
        const Status logged = journal_append(rec);
        if (!logged.is_ok())
            return logged;
    }
    const auto prev = lba_table_.unmap_lba(lba);
    if (prev)
        retire_if_dead(*prev);
    return Status::ok();
}

Result<FidrSystem::ScrubReport>
FidrSystem::scrub()
{
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    ScrubReport report;
    for (const auto &[container, space] : space_.containers()) {
        for (const Pbn pbn : space_.live_pbns(container)) {
            // Chunks adopted by crash recovery carry no recorded
            // digest (the ledger is rebuilt from the LBA-PBA table);
            // scrub then recomputes and checks only self-consistency.
            const auto digest = space_.digest_of(pbn);
            const auto location = lba_table_.location_of(pbn);
            if (!location) {
                ++report.mapping_errors;
                continue;
            }
            Result<Buffer> compressed = containers_.read(*location);
            if (!compressed.is_ok()) {
                ++report.mapping_errors;
                continue;
            }
            Result<Buffer> raw = decomp_.decompress(compressed.value());
            ++report.chunks_verified;
            if (!raw.is_ok()) {
                ++report.digest_mismatches;
                continue;
            }
            const Digest computed = Sha256::hash(raw.value());
            if (digest && computed != *digest) {
                ++report.digest_mismatches;
                continue;
            }
            // The Hash-PBN table must still resolve this content to
            // this physical block.
            Result<DedupLookup> looked = dedup_->lookup(computed);
            if (!looked.is_ok())
                return looked.status();
            if (looked.value().verdict != ChunkVerdict::kDuplicate ||
                looked.value().pbn != pbn) {
                ++report.mapping_errors;
            }
        }
    }
    return report;
}

Status
FidrSystem::checkpoint()
{
    if (!journal_)
        return Status::invalid_argument("journaling is not enabled");
    const Buffer image = lba_table_.serialize();
    if (image.size() + 8 > config_.snapshot_bytes)
        return Status::out_of_space("snapshot region too small");
    Buffer framed(8);
    store_le(framed.data(), image.size(), 8);
    framed.insert(framed.end(), image.begin(), image.end());
    const Status written = retry_transient([&] {
        const Status injected = fault::as_status(
            FIDR_FAULT_EVAL(fault::Site::kSnapshotWrite),
            fault::Site::kSnapshotWrite);
        if (!injected.is_ok())
            return injected;
        return platform_.table_ssd().write(snapshot_base_, framed);
    });
    if (!written.is_ok()) {
        // The journal is only truncated after the snapshot is durable,
        // so a failed checkpoint loses nothing.
        return written;
    }
    journal_->reset();
    return journal_->log_checkpoint();
}

Status
FidrSystem::simulate_crash_and_recover()
{
    if (!journal_)
        return Status::invalid_argument("journaling is not enabled");

    // A power cut stops the pipeline wherever it is: quiesce so no
    // stage touches the structures mid-rebuild, discard any sticky
    // error (the crash supersedes it) and return in-flight sealed
    // batches to the open NVRAM buffer — unacked work is lost, but
    // every acknowledged chunk is either journaled or still buffered
    // and re-enters the pipeline on the next flush.  The open-buffer
    // digest index lived in host DRAM and is gone with it.
    if (pipeline_) {
        pipeline_->quiesce();
        (void)pipeline_->take_error();
    }
    unseal_nic();

    // Crash: everything in host DRAM is gone — the LBA-PBA table and
    // the table cache, including dirty Hash-PBN lines that never made
    // it back to the table SSD.  Entries whose data the crash orphaned
    // are repaired lazily at dedup-resolve time (dangling_repairs).
    lba_table_ = tables::LbaPbaTable();
    build_cache_structures();
    if (chunk_cache_)
        chunk_cache_->clear();
    // The host-DRAM capacity claim is unchanged: the rebuilt caches
    // have exactly the footprint the constructor already accounted.

    // Restart: load the snapshot (if one was taken)...
    FIDR_FAULT_RETURN_IF(fault::Site::kSnapshotRead);
    Result<Buffer> header = platform_.table_ssd().read(snapshot_base_, 8);
    if (!header.is_ok())
        return header.status();
    const std::uint64_t image_len = load_le(header.value().data(), 8);
    if (image_len > 0) {
        Result<Buffer> image = platform_.table_ssd().read(
            snapshot_base_ + 8, image_len);
        if (!image.is_ok())
            return image.status();
        Result<tables::LbaPbaTable> loaded =
            tables::LbaPbaTable::deserialize(image.value());
        if (!loaded.is_ok())
            return loaded.status();
        lba_table_ = loaded.take();
    }

    // ...then replay the journal tail on top, adopting the on-device
    // head/epoch so post-recovery appends continue the recovered log.
    Result<std::vector<tables::JournalRecord>> records =
        journal_->recover();
    if (!records.is_ok())
        return records.status();
    tables::MetadataJournal::apply(records.value(), lba_table_);

    // Container log: rebuild the directory from the on-device layout
    // (superblock + slot-header scan) instead of trusting the
    // pre-crash in-memory maps.  The open container's buffer is
    // battery-backed engine memory and survives in place.
    const Status log = containers_.recover();
    if (!log.is_ok())
        return log;

    // Rebuild the live/dead space ledger from the recovered mapping
    // table.  Digests did not survive (they live in Hash-PBN cache
    // lines that died with the host), so records are adopted
    // digest-less; on_dead then skips the dedup removal and the
    // dangling entry is repaired lazily at dedup-resolve time.
    space_ = SpaceTracker();
    std::vector<Pbn> dead;
    lba_table_.for_each_pbn(
        [&](Pbn pbn, std::uint32_t refcount,
            const std::optional<tables::ChunkLocation> &location) {
            if (!location)
                return;
            space_.on_store(pbn, std::nullopt, *location);
            if (refcount == 0)
                dead.push_back(pbn);  // Stored, no longer referenced.
        });
    for (const Pbn pbn : dead)
        (void)space_.on_dead(pbn);
    // Payload whose PBNs were fully retired before the crash (their
    // kRetirePbn records replayed) is dead weight the table no longer
    // names: seed the gap between each container's sealed payload and
    // the bytes the rebuilt ledger accounts, so GC still sees it.
    for (std::uint64_t id = 0; id < containers_.containers(); ++id) {
        const auto info = containers_.info_of(id);
        if (!info || info->discarded)
            continue;
        const auto &ledger = space_.containers();
        const auto it = ledger.find(id);
        const std::uint64_t accounted =
            it == ledger.end()
                ? 0
                : it->second.live_bytes + it->second.dead_bytes;
        if (info->payload_bytes > accounted)
            space_.seed_dead(id, info->payload_bytes - accounted);
    }
    // Any in-progress evacuation restarts from scratch.
    gc_victim_.reset();
    return Status::ok();
}

Status
FidrSystem::validate() const
{
    const Status mapping = lba_table_.validate();
    if (!mapping.is_ok())
        return mapping;
    return table_cache_->validate();
}

Status
FidrSystem::gc_relocate(Pbn pbn)
{
    FIDR_FAULT_RETURN_IF(fault::Site::kGcRelocate);
    const auto location = lba_table_.location_of(pbn);
    if (!location)
        return Status::internal("GC: live PBN without a location");
    const tables::ChunkLocation old_loc = *location;
    Result<Buffer> data = containers_.read(old_loc);
    if (!data.is_ok())
        return data.status();

    // Relocation rides the normal write billing path: the Compression
    // Engine pulls the survivor from the old container's SSD (with
    // degraded-mode retry) before repacking it into the open one, and
    // the eventual seal is billed by bill_container_seals below.
    const Status pulled = dma_checked(
        platform_.data_ssd_dev(
            containers_.ssd_index_of(old_loc.container_id)),
        platform_.compression_engine(), data.value().size(),
        memtag::kDataSsd);
    if (!pulled.is_ok())
        return pulled;
    Result<tables::ChunkLocation> placed = containers_.append(data.value());
    if (!placed.is_ok())
        return placed.status();

    // Journal before the DRAM update, exactly like stage_store: a
    // crash between the two replays the new location (or never saw
    // it), and either copy is durable — the new one in battery-backed
    // open-buffer memory, the old one in a slot not yet trimmed.
    if (journal_) {
        tables::JournalRecord rec;
        rec.op = tables::JournalOp::kSetLocation;
        rec.pbn = pbn;
        rec.location = placed.value();
        const Status logged = journal_append(rec);
        if (!logged.is_ok())
            return logged;
    }
    const std::optional<Digest> digest = space_.digest_of(pbn);
    lba_table_.set_location(pbn, placed.value());
    space_.on_store(pbn, digest, placed.value());

    // The PBN kept its identity but the physical key moved: re-key the
    // cached image, in whatever tier holds it, instead of dropping the
    // whole container's worth of cache (which made every GC pass a
    // read-latency cliff).
    if (chunk_cache_ &&
        chunk_cache_->rekey(
            {old_loc.container_id, old_loc.offset_units},
            {placed.value().container_id, placed.value().offset_units})) {
        ++gc_stats_.cache_rekeys;
    }
    const Status billed = bill_container_seals();
    if (!billed.is_ok())
        return billed;
    ++gc_stats_.relocated_chunks;
    gc_stats_.relocated_bytes += data.value().size();
    FIDR_TPOINT(obs::Tpoint::kGcRelocate, pbn, data.value().size());
    return Status::ok();
}

Status
FidrSystem::gc_step_impl(const GcScheduler &sched, std::uint64_t budget)
{
    // Keep evacuating the current victim across steps; forget it if a
    // crash/recovery or a completed discard invalidated it.
    if (gc_victim_) {
        const auto info = containers_.info_of(*gc_victim_);
        if (!info || info->discarded || !info->sealed)
            gc_victim_.reset();
    }
    if (!gc_victim_) {
        gc_victim_ = sched.select_victim(
            space_, containers_.free_slot_fraction(),
            [this](std::uint64_t id) {
                const auto info = containers_.info_of(id);
                return info && info->sealed && !info->discarded;
            });
    }
    if (!gc_victim_) {
        ++gc_stats_.idle_steps;
        return Status::ok();
    }
    const std::uint64_t victim = *gc_victim_;
    ++gc_stats_.steps;
    // Concurrency witness: other write batches in flight while this
    // step runs on the commit sequencer (in_flight counts this batch).
    if (pipeline_ && pipeline_->in_flight() > 1)
        ++gc_stats_.concurrent_steps;

    const obs::StageTimer timer;
    FIDR_TRACE_SPAN(span, obs::Tpoint::kGcStep, victim, budget);
    Status status = Status::ok();
    bool evacuated = true;
    const std::uint64_t start_bytes = gc_stats_.relocated_bytes;
    for (const Pbn pbn : space_.live_pbns(victim)) {
        if (budget != 0 &&
            gc_stats_.relocated_bytes - start_bytes >= budget) {
            evacuated = false;  // Budget spent; resume next step.
            break;
        }
        status = gc_relocate(pbn);
        if (!status.is_ok())
            break;
    }
    if (status.is_ok() && evacuated) {
        FIDR_CHECK(space_.container_live_bytes(victim) == 0);
        Result<std::uint64_t> released = containers_.discard(victim);
        if (released.is_ok()) {
            space_.release_container(victim);
            // Backstop for images cached for chunks that died while
            // cached: survivors were re-keyed out one by one, so this
            // only sweeps entries already semantically dead.
            if (chunk_cache_)
                chunk_cache_->invalidate_container(victim);
            ++gc_stats_.containers_reclaimed;
            gc_stats_.reclaimed_bytes += released.value();
            gc_victim_.reset();
        } else {
            status = released.status();
        }
    }
    gc_pause_->record(timer.elapsed_ns());
    return status;
}

Status
FidrSystem::gc_step()
{
    return gc_step_impl(gc_scheduler_, config_.gc.step_budget_bytes);
}

void
FidrSystem::run_auto_gc()
{
    // One budgeted step per committed batch in steady state.  At or
    // below the reserve watermark, keep stepping (bounded, so one
    // commit can never stall indefinitely) until the log climbs back
    // above it or nothing is left to collect.  Errors are absorbed
    // into failed_steps: the batch this rides on already committed.
    constexpr int kMaxStepsPerCommit = 64;
    for (int i = 0; i < kMaxStepsPerCommit; ++i) {
        const std::uint64_t idle_before = gc_stats_.idle_steps;
        const Status status =
            gc_step_impl(gc_scheduler_, config_.gc.step_budget_bytes);
        if (!status.is_ok()) {
            ++gc_stats_.failed_steps;
            return;
        }
        if (gc_stats_.idle_steps != idle_before)
            return;  // Nothing eligible.
        if (!gc_scheduler_.under_pressure(
                containers_.free_slot_fraction()))
            return;
    }
}

Result<std::uint64_t>
FidrSystem::run_gc(double min_dead_fraction)
{
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    // Run to completion at the caller's threshold: unbudgeted steps
    // (whole victim per step) until selection comes up empty.
    GcConfig config = config_.gc;
    config.dead_fraction = min_dead_fraction;
    const GcScheduler scheduler(config);
    const std::uint64_t start_bytes = gc_stats_.reclaimed_bytes;
    for (;;) {
        const std::uint64_t idle_before = gc_stats_.idle_steps;
        const Status stepped = gc_step_impl(scheduler, 0);
        if (!stepped.is_ok())
            return stepped;
        if (gc_stats_.idle_steps != idle_before)
            break;
    }
    return gc_stats_.reclaimed_bytes - start_bytes;
}

Result<FidrSystem::FsckReport>
FidrSystem::fsck()
{
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    FsckReport report;
    report.superblock_seq = containers_.superblock_seq();
    if (report.superblock_seq < last_fsck_superblock_seq_)
        ++report.superblock_regressions;
    else
        last_fsck_superblock_seq_ = report.superblock_seq;

    if (!lba_table_.validate().is_ok())
        ++report.refcount_errors;

    // Reachability: every PBN any LBA references must resolve to a
    // readable chunk in a live (non-discarded) container.  Along the
    // way, sum the table's view of live payload per container for the
    // ledger cross-check below.
    std::unordered_map<std::uint64_t, std::uint64_t> table_live;
    lba_table_.for_each_pbn(
        [&](Pbn pbn, std::uint32_t refcount,
            const std::optional<tables::ChunkLocation> &location) {
            (void)pbn;
            if (refcount == 0)
                return;
            ++report.live_pbns_checked;
            if (!location) {
                ++report.missing_locations;
                return;
            }
            table_live[location->container_id] +=
                location->compressed_size;
            const auto info = containers_.info_of(location->container_id);
            if (!info || info->discarded ||
                !containers_.read(*location).is_ok()) {
                ++report.unreachable_chunks;
            }
        });

    // Space ledger vs mapping table, per container: ledger live bytes
    // must equal the table's located live payload, and live + dead
    // must never exceed the payload actually appended there.
    for (const auto &[container, usage] : space_.containers()) {
        const auto it = table_live.find(container);
        const std::uint64_t expect =
            it == table_live.end() ? 0 : it->second;
        if (usage.live_bytes != expect)
            ++report.space_mismatches;
        const auto info = containers_.info_of(container);
        if (!info || info->discarded ||
            usage.live_bytes + usage.dead_bytes > info->payload_bytes)
            ++report.space_mismatches;
    }
    for (const auto &[container, bytes] : table_live) {
        if (bytes > 0 && space_.containers().count(container) == 0)
            ++report.space_mismatches;
    }
    return report;
}

Status
FidrSystem::flush()
{
    // Pipeline barrier: surface any asynchronous failure (unsealing
    // retained batches back into the open buffer) before sealing the
    // remainder, then wait for everything to commit.
    const Status committed = drain_pipeline();
    if (!committed.is_ok())
        return committed;
    const Status batch = process_batch();
    if (!batch.is_ok())
        return batch;
    const Status drained = drain_pipeline();
    if (!drained.is_ok())
        return drained;
    const Status sealed = containers_.flush();
    if (!sealed.is_ok())
        return sealed;
    const Status billed = bill_container_seals();
    if (!billed.is_ok())
        return billed;
    return table_cache_->writeback_all();
}

Result<Buffer>
FidrSystem::read(Lba lba)
{
    // The size-1 batch: identical stage order, billing and fault
    // accounting to the pre-batching serial read path.
    const Lba one[1] = {lba};
    std::vector<Result<Buffer>> out = read_batch(one);
    return std::move(out.front());
}

FidrSystem::ReadSource
FidrSystem::read_source(cache::CacheTier from,
                        const tables::ChunkLocation &location) const
{
    // A warm image moves host DRAM -> engine and a ring image spill
    // SSD -> engine, both billed as chunk-cache traffic (not a chunk
    // fetch); a container image moves peer-to-peer from the SSD its
    // container landed on (the rotation bill_container_seals used).
    switch (from) {
      case cache::CacheTier::kWarm:
        return {pcie::kHostMemory, &memtag::kChunkCache, nullptr};
      case cache::CacheTier::kSpill:
        return {platform_.data_ssd_dev(spill_device_->ssd_index()),
                &memtag::kChunkCache, read_spill_reads_};
      default:
        return {platform_.data_ssd_dev(
                    containers_.ssd_index_of(location.container_id)),
                &memtag::kDataSsd, read_ssd_fetches_};
    }
}

void
FidrSystem::run_read_jobs(std::vector<ReadJob> &jobs)
{
    {
        FIDR_TRACE_SPAN(span, obs::Tpoint::kReadFetchLane, 0, jobs.size());
        for (ReadJob &job : jobs) {
            if (job.tier != cache::CacheTier::kHot)
                run_read_job(job);
        }
    }
    // Cache fills run after every job read its image: a fill can spill
    // warm tails into the ring and lap the image a later spill-hit job
    // of this batch is about to read.  Warm, spill and spill-fallback
    // jobs promote (a fallback displaces the stale ring entry), plain
    // misses insert.  The cache copies the payload (the job still
    // returns it) and takes the compressed image over.
    const obs::StageTimer fill_timer;
    if (chunk_cache_) {
        for (ReadJob &job : jobs) {
            if (job.tier == cache::CacheTier::kHot || !job.status.is_ok())
                continue;
            const cache::ChunkKey key{job.location.container_id,
                                      job.location.offset_units};
            FIDR_TPOINT(obs::Tpoint::kReadCacheInsert, key.container_id,
                        key.offset_units);
            if (job.tier == cache::CacheTier::kNone)
                chunk_cache_->insert(key, job.payload,
                                     std::move(job.compressed));
            else
                chunk_cache_->promote(key, job.payload,
                                      std::move(job.compressed));
        }
    }
    hist_.read_cache_fill->record(fill_timer.elapsed_ns(),
                                  obs::ScopedRequest::current_trace());
}

void
FidrSystem::run_read_job(ReadJob &job)
{
    const std::uint64_t trace = obs::ScopedRequest::current_trace();
    const pcie::DeviceId engine = platform_.decompression_engine();
    std::uint64_t fetch_ns = 0;
    std::uint64_t decompress_ns = 0;

    // 1. Pick the source.  A warm hit's image is already in hand.  A
    //    spill hit reads its image back from the ring and decodes it
    //    there, since only the decode proves a ring image intact: a
    //    failed read, or torn or lapped bytes failing the decode or the
    //    size check, fall back to the container (the tier is
    //    best-effort), and the ring's retries are discarded with the
    //    image.  Everything else reads its container.
    cache::CacheTier from = job.tier;
    if (from == cache::CacheTier::kSpill) {
        fault::RetryTally retries;
        const obs::StageTimer fetch_timer;
        Result<Buffer> image = fault::retry_counted(
            config_.transient_retries, retries, [&] {
                return spill_device_->read(job.spill.offset,
                                           job.spill.size);
            });
        fetch_ns = fetch_timer.elapsed_ns();
        if (image.is_ok()) {
            const obs::StageTimer decompress_timer;
            Result<Buffer> raw =
                decomp_.decompress_stateless(image.value());
            decompress_ns = decompress_timer.elapsed_ns();
            if (raw.is_ok() && raw.value().size() == job.spill.raw_size) {
                charge_retries(retries);
                job.compressed = image.take();
                job.payload = raw.take();
            }
        }
        if (job.payload.empty())
            from = cache::CacheTier::kNone;
    }
    const ReadSource source = read_source(from, job.location);
    if (from == cache::CacheTier::kNone) {
        fault::RetryTally retries;
        const obs::StageTimer fetch_timer;
        Result<Buffer> image = fault::retry_counted(
            config_.transient_retries, retries,
            [&] { return containers_.read(job.location); });
        fetch_ns = fetch_timer.elapsed_ns();
        charge_retries(retries);
        if (!image.is_ok()) {
            // The failed flash read still occupied the owning SSD's
            // channel: bill the attempted transfer to that SSD.
            if (containers_.sealed(job.location.container_id)) {
                platform_.fabric().dma(source.device, engine,
                                       job.location.compressed_size,
                                       *source.memtag);
            }
            hist_.read_fetch->record(fetch_ns, trace);
            job.status = image.status();
            return;
        }
        job.compressed = image.take();
        FIDR_TPOINT(obs::Tpoint::kReadSsdFetch, job.location.container_id,
                    job.compressed.size());
    }

    // 2. Bill the image's one DMA to the Decompression Engine, before
    //    anything is decompressed for it.
    if (source.reads != nullptr) {
        source.reads->add();
        hist_.read_fetch->record(fetch_ns, trace);
    }
    const Status moved = dma_checked(source.device, engine,
                                     job.compressed.size(), *source.memtag);
    if (!moved.is_ok()) {
        job.status = moved;
        return;
    }

    // 3. Decompress (a ring image was decoded when it was picked).
    if (job.payload.empty()) {
        const obs::StageTimer decompress_timer;
        Result<Buffer> raw = decomp_.decompress_stateless(job.compressed);
        decompress_ns = decompress_timer.elapsed_ns();
        if (raw.is_ok())
            job.payload = raw.take();
        else
            job.status = raw.status();  // kCorruption.
    }
    hist_.read_decompress->record(decompress_ns, trace);
    if (job.status.is_ok())
        decomp_.record();
}

std::vector<Result<Buffer>>
FidrSystem::read_batch(std::span<const Lba> lbas)
{
    // The whole batched read is one client-visible request: scope its
    // causal id over everything below, including the pipeline barrier
    // (time spent draining writes is genuinely this read's queueing).
    const std::uint64_t read_trace =
        obs::RequestContext::next_id_for_node(config_.node_index);
    obs::ScopedRequest request(read_trace, stream_tag_);

    // One pipeline barrier for the whole batch: in-flight write
    // batches commit before the NIC lookups and LBA resolves, so every
    // read sees its own preceding writes.  A sticky failure keeps its
    // error for the next write/flush; the affected data stays readable
    // from the unsealed NIC buffer.
    {
        const obs::StageTimer barrier_timer;
        if (pipeline_) {
            pipeline_->quiesce();
            if (pipeline_->failed())
                unseal_nic();
        }
        hist_.read_barrier->record(barrier_timer.elapsed_ns(),
                                   obs::ScopedRequest::current_trace());
    }
    pcie::Fabric &fabric = platform_.fabric();
    const obs::StageTimer batch_timer;
    FIDR_TRACE_SPAN(batch_span, obs::Tpoint::kReadBatch, lbas.size(),
                    kChunkSize);

    constexpr std::size_t kNoJob = SIZE_MAX;
    std::vector<Result<Buffer>> results(
        lbas.size(), Result<Buffer>(Status::internal("read pending")));
    std::vector<std::size_t> slot_job(lbas.size(), kNoJob);
    std::vector<ReadJob> jobs;
    jobs.reserve(lbas.size());
    FlatMap<cache::ChunkKey, std::size_t, cache::ChunkKeyHash> job_of(
        lbas.size());
    std::uint64_t probe_ns = 0;

    // Serial resolve stage, in input order: NIC buffer short-circuit,
    // LBA transfer + CPU billing, LBA-PBA lookup, then coalescing —
    // slots that resolve to the same physical chunk (duplicates under
    // dedup, repeated LBAs) collapse into one job in first-occurrence
    // order, so the chunk is fetched and decompressed exactly once.
    for (std::size_t i = 0; i < lbas.size(); ++i) {
        const Lba lba = lbas[i];
        ++stats_.chunks_read;
        FIDR_TPOINT(obs::Tpoint::kReadRequest, lba, kChunkSize);

        // Fig 6b step 2: LBA Lookup against the in-NIC write buffer.
        if (auto buffered = nic_.lookup_buffered(lba)) {
            FIDR_TPOINT(obs::Tpoint::kReadNicLookup, lba, 1);
            ++stats_.nic_read_hits;
            hist_.read_total->record(batch_timer.elapsed_ns(),
                                     obs::ScopedRequest::current_trace());
            results[i] = std::move(*buffered);
            continue;
        }
        FIDR_TPOINT(obs::Tpoint::kReadNicLookup, lba, 0);

        // Steps 3-4: LBA to host, LBA-PBA lookup.  With the read-stack
        // offload extension, the NVMe submission/completion handling
        // and data forwarding move to the FPGA and only the mapping
        // lookup stays on the CPU.
        const auto location = [&] {
            const obs::StageTimer timer;
            FIDR_TRACE_SPAN(span, obs::Tpoint::kReadLbaResolve, lba, 0);
            fabric.dma(platform_.nic(), pcie::kHostMemory, 16,
                       memtag::kNicHost);
            platform_.cpu().bill_us(cputag::kReadPath,
                                    config_.offload_read_stack
                                        ? calib::kCpuReadOffloadResidual
                                        : calib::kCpuReadPerChunk);
            const auto found = lba_table_.lookup(lba);
            hist_.read_resolve->record(timer.elapsed_ns(),
                                       obs::ScopedRequest::current_trace());
            return found;
        }();
        if (!location) {
            results[i] = Status::not_found("LBA never written");
            continue;
        }

        const cache::ChunkKey key{location->container_id,
                                  location->offset_units};
        if (const std::size_t *coalesced = job_of.find(key)) {
            jobs[*coalesced].last_slot = i;
            slot_job[i] = *coalesced;
            continue;
        }
        ReadJob job;
        job.location = *location;
        job.last_slot = i;
        // Chunk-cache probe (serial, so hit/miss order, LRU state and
        // ghost adaptation are deterministic).  A hot hit serves the
        // decompressed payload straight from host DRAM and skips the
        // job step entirely; a warm hit hands the job step the
        // compressed image (decompress, no SSD); a spill hit hands it
        // the ring location (spill read + decompress, no chunk fetch).
        if (chunk_cache_) {
            const obs::StageTimer probe_timer;
            cache::TierLookup cached = chunk_cache_->lookup(key);
            probe_ns += probe_timer.elapsed_ns();
            switch (cached.tier) {
              case cache::CacheTier::kHot:
                FIDR_TPOINT(obs::Tpoint::kReadCacheHit,
                            key.container_id, key.offset_units);
                job.tier = cache::CacheTier::kHot;
                job.payload = std::move(cached.raw);
                break;
              case cache::CacheTier::kWarm:
                FIDR_TPOINT(obs::Tpoint::kReadCacheWarmHit,
                            key.container_id, key.offset_units);
                job.tier = cache::CacheTier::kWarm;
                job.compressed = std::move(cached.compressed);
                break;
              case cache::CacheTier::kSpill:
                FIDR_TPOINT(obs::Tpoint::kReadCacheSpillHit,
                            key.container_id, key.offset_units);
                job.tier = cache::CacheTier::kSpill;
                job.spill = cached.spill;
                break;
              case cache::CacheTier::kNone:
                break;
            }
        }
        slot_job[i] = jobs.size();
        job_of.put(key, jobs.size());
        jobs.push_back(std::move(job));
    }
    hist_.read_cache_probe->record(probe_ns,
                                   obs::ScopedRequest::current_trace());
    FIDR_TPOINT(obs::Tpoint::kReadCoalesce, lbas.size(), jobs.size());

    // Steps 5-6, one job at a time in job order.
    run_read_jobs(jobs);

    // Step 7, serial in input order: payload to the NIC, out to the
    // client.  Cache hits travel host DRAM -> NIC (the chunk lives
    // decompressed in host memory); misses travel Decompression
    // Engine -> NIC peer-to-peer as before.
    for (std::size_t i = 0; i < lbas.size(); ++i) {
        if (slot_job[i] == kNoJob)
            continue;  // NIC buffer hit or resolve failure.
        ReadJob &job = jobs[slot_job[i]];
        if (!job.status.is_ok()) {
            results[i] = job.status;
            continue;
        }
        const obs::StageTimer timer;
        FIDR_TRACE_SPAN(span, obs::Tpoint::kReadNicReturn, lbas[i],
                        job.payload.size());
        const Status moved =
            job.tier == cache::CacheTier::kHot
                ? dma_checked(pcie::kHostMemory, platform_.nic(),
                              job.payload.size(), memtag::kChunkCache)
                : dma_checked(platform_.decompression_engine(),
                              platform_.nic(), job.payload.size(),
                              memtag::kNicHost);
        hist_.read_return->record(timer.elapsed_ns(),
                                  obs::ScopedRequest::current_trace());
        if (!moved.is_ok()) {
            results[i] = moved;
            continue;
        }
        // One copy per returned slot at most: the job's last slot takes
        // the payload, earlier coalesced slots copy it.
        if (i == job.last_slot)
            results[i] = std::move(job.payload);
        else
            results[i] = job.payload;
        hist_.read_total->record(batch_timer.elapsed_ns(),
                                     obs::ScopedRequest::current_trace());
    }
    return results;
}

obs::ObsSnapshot
FidrSystem::obs_snapshot() const
{
    obs::ObsSnapshot snap = metrics_.snapshot();

    // Flow counters: reduction accounting plus cache and tree state.
    snap.counters["write.chunks"] = stats_.chunks_written;
    snap.counters["write.unique_chunks"] = stats_.unique_chunks;
    snap.counters["write.duplicate_chunks"] = stats_.duplicates;
    snap.counters["write.raw_bytes"] = stats_.raw_bytes;
    snap.counters["write.stored_bytes"] = stats_.stored_bytes;
    snap.counters["read.chunks"] = stats_.chunks_read;
    snap.counters["read.nic_buffer_hits"] = stats_.nic_read_hits;
    snap.counters["journal.records"] = journal_records();

    // Degraded-mode and crash-repair accounting.
    snap.counters["fault.transient_retries"] =
        fault_stats_.transient_retries;
    snap.counters["fault.retry_exhausted"] = fault_stats_.retry_exhausted;
    snap.counters["fault.backoff_ns"] = fault_stats_.backoff_ns;
    snap.counters["fault.retire_deferred"] = fault_stats_.retire_deferred;
    snap.counters["write.dangling_repairs"] =
        fault_stats_.dangling_repairs;

    // Cluster protocol (zeros on a standalone system): where each
    // duplicate-suppressed write found its content, and ownership-move
    // unmaps that had to commit a buffered write first.
    snap.counters["cluster.refs_from_nic"] = cluster_stats_.refs_from_nic;
    snap.counters["cluster.refs_from_committed"] =
        cluster_stats_.refs_from_committed;
    snap.counters["cluster.unmap_commits"] = cluster_stats_.unmap_commits;
#if FIDR_FAULT_ENABLED
    // Per-site failpoint counters (quiet sites stay out of the report).
    const fault::FailpointRegistry &failpoints =
        fault::FailpointRegistry::instance();
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
        const auto site = static_cast<fault::Site>(s);
        const std::uint64_t hits = failpoints.hits(site);
        const std::uint64_t fires = failpoints.fires(site);
        if (hits == 0 && fires == 0)
            continue;
        const std::string prefix =
            std::string("fault.") + fault::site_name(site);
        snap.counters[prefix + ".hits"] = hits;
        snap.counters[prefix + ".fires"] = fires;
        if (failpoints.spike_ns(site) > 0)
            snap.counters[prefix + ".spike_ns"] = failpoints.spike_ns(site);
    }
#endif

    const cache::CacheStats cache = table_cache_->stats();
    snap.counters["cache.hits"] = cache.hits;
    snap.counters["cache.misses"] = cache.misses;
    snap.counters["cache.evictions"] = cache.evictions;
    snap.counters["cache.dirty_evictions"] = cache.dirty_evictions;
    snap.gauges["cache.hit_rate"] = cache.hit_rate();
    if (table_cache_->shard_count() > 1) {
        // Per-shard breakdown (Sec 5.5): imbalance shows up as skewed
        // hit/miss distributions across shards.
        for (std::size_t s = 0; s < table_cache_->shard_count(); ++s) {
            const cache::CacheStats shard = table_cache_->shard_stats(s);
            const std::string prefix =
                "cache.shard" + std::to_string(s);
            snap.counters[prefix + ".hits"] = shard.hits;
            snap.counters[prefix + ".misses"] = shard.misses;
            snap.counters[prefix + ".evictions"] = shard.evictions;
            snap.counters[prefix + ".dirty_evictions"] =
                shard.dirty_evictions;
        }
    }

    // Chunk read cache (zeros when disabled, so dashboards diffing a
    // cache-on run against cache-off see the keys either way).
    const cache::ChunkCacheStats read_cache =
        chunk_cache_ ? chunk_cache_->stats() : cache::ChunkCacheStats{};
    snap.counters["read.cache.hits"] = read_cache.hits;
    snap.counters["read.cache.misses"] = read_cache.misses;
    snap.counters["read.cache.insertions"] = read_cache.insertions;
    snap.counters["read.cache.evictions"] = read_cache.evictions;
    snap.counters["read.cache.invalidations"] = read_cache.invalidations;
    snap.counters["read.cache.rekeys"] = read_cache.rekeys;
    snap.counters["read.cache.bytes"] =
        chunk_cache_ ? chunk_cache_->used_bytes() : 0;
    snap.gauges["read.cache.hit_rate"] = read_cache.hit_rate();

    // Per-tier breakdown: where the hits came from, the
    // demotion/promotion flux between tiers, and the ghost-LRU signals
    // steering the hot/warm split.  Zeros with the cache off.
    snap.counters["read.cache.hot.hits"] = read_cache.hot.hits;
    snap.counters["read.cache.warm.hits"] = read_cache.warm.hits;
    snap.counters["read.cache.spill.hits"] = read_cache.spill.hits;
    snap.counters["read.cache.demotions"] = read_cache.demotions;
    snap.counters["read.cache.demote_passes"] =
        read_cache.demote_passes;
    snap.counters["read.cache.promotions"] = read_cache.promotions;
    snap.counters["read.cache.spill.writes"] = read_cache.spill_writes;
    snap.counters["read.cache.spill.write_failures"] =
        read_cache.spill_write_failures;
    snap.counters["read.cache.spill.overwritten"] =
        read_cache.spill_overwritten;
    snap.counters["read.cache.ghost.hot_hits"] =
        read_cache.ghost_hot_hits;
    snap.counters["read.cache.ghost.warm_hits"] =
        read_cache.ghost_warm_hits;
    snap.counters["read.cache.hot.bytes"] =
        chunk_cache_ ? chunk_cache_->hot_used_bytes() : 0;
    snap.counters["read.cache.warm.bytes"] =
        chunk_cache_ ? chunk_cache_->warm_used_bytes() : 0;
    snap.counters["read.cache.spill.bytes"] =
        chunk_cache_ ? chunk_cache_->spill_used_bytes() : 0;
    // Where the adaptive split currently sits, and the ghost-estimated
    // marginal gain per tier: the fraction of all probes a bigger
    // hot/warm tier would have upgraded (warm hit -> hot hit, miss ->
    // DRAM hit respectively).  These are the auto-sizing inputs.
    snap.gauges["read.cache.hot_target_fraction"] =
        chunk_cache_ && chunk_cache_->capacity_bytes() > 0
            ? static_cast<double>(chunk_cache_->hot_target_bytes()) /
                  static_cast<double>(chunk_cache_->capacity_bytes())
            : 0.0;
    const std::uint64_t probes = read_cache.hits + read_cache.misses;
    snap.gauges["read.cache.ghost.hot_gain"] =
        probes > 0 ? static_cast<double>(read_cache.ghost_hot_hits) /
                         static_cast<double>(probes)
                   : 0.0;
    snap.gauges["read.cache.ghost.warm_gain"] =
        probes > 0 ? static_cast<double>(read_cache.ghost_warm_hits) /
                         static_cast<double>(probes)
                   : 0.0;
    if (chunk_cache_) {
        // Per-tier section: hit share of each tier plus the ghost
        // gains, rendered by `fidr_obs_report snapshot`.
        const auto share = [&](std::uint64_t n) {
            return probes > 0 ? static_cast<double>(n) /
                                    static_cast<double>(probes)
                              : 0.0;
        };
        std::vector<obs::SnapshotRow> tiers;
        tiers.push_back({"hot hits (DRAM, decompressed)",
                         static_cast<double>(read_cache.hot.hits),
                         share(read_cache.hot.hits)});
        tiers.push_back({"warm hits (DRAM, compressed)",
                         static_cast<double>(read_cache.warm.hits),
                         share(read_cache.warm.hits)});
        tiers.push_back({"spill hits (SSD ring)",
                         static_cast<double>(read_cache.spill.hits),
                         share(read_cache.spill.hits)});
        tiers.push_back({"misses",
                         static_cast<double>(read_cache.misses),
                         share(read_cache.misses)});
        tiers.push_back({"ghost: marginal hot gain",
                         static_cast<double>(read_cache.ghost_hot_hits),
                         share(read_cache.ghost_hot_hits)});
        tiers.push_back({"ghost: marginal warm gain",
                         static_cast<double>(read_cache.ghost_warm_hits),
                         share(read_cache.ghost_warm_hits)});
        snap.sections["read_cache_tiers"] = std::move(tiers);
    }

    // Incremental GC and container-log durability accounting.
    snap.counters["gc.steps"] = gc_stats_.steps;
    snap.counters["gc.idle_steps"] = gc_stats_.idle_steps;
    snap.counters["gc.failed_steps"] = gc_stats_.failed_steps;
    snap.counters["gc.relocated_chunks"] = gc_stats_.relocated_chunks;
    snap.counters["gc.relocated_bytes"] = gc_stats_.relocated_bytes;
    snap.counters["gc.containers_reclaimed"] =
        gc_stats_.containers_reclaimed;
    snap.counters["gc.reclaimed_bytes"] = gc_stats_.reclaimed_bytes;
    snap.counters["gc.cache_rekeys"] = gc_stats_.cache_rekeys;
    snap.counters["gc.concurrent_steps"] = gc_stats_.concurrent_steps;
    // Relocation overhead relative to user payload: the write-amp GC
    // adds on top of the unique-chunk stores.
    snap.gauges["gc.write_amp"] =
        stats_.stored_bytes > 0
            ? static_cast<double>(gc_stats_.relocated_bytes) /
                  static_cast<double>(stats_.stored_bytes)
            : 0.0;
    const tables::ContainerLogStats &log_stats = containers_.stats();
    snap.counters["container.superblock_writes"] =
        log_stats.superblock_writes;
    snap.counters["container.superblock_write_failures"] =
        log_stats.superblock_write_failures;
    snap.counters["container.superblock_seq"] =
        containers_.superblock_seq();
    snap.counters["container.discards"] = log_stats.discards;
    snap.counters["container.headers_scanned"] =
        log_stats.headers_scanned;
    snap.counters["container.recovered"] = log_stats.containers_recovered;
    snap.counters["container.tail_adopted"] = log_stats.tail_adopted;
    snap.counters["container.used_slots"] = containers_.used_slots();
    snap.counters["container.total_slots"] = containers_.total_slots();
    snap.gauges["container.free_slot_fraction"] =
        containers_.free_slot_fraction();

    snap.gauges["write.dedup_rate"] = stats_.dedup_rate();
    snap.gauges["write.reduction_ratio"] =
        stats_.stored_bytes > 0
            ? static_cast<double>(stats_.raw_bytes) /
                  static_cast<double>(stats_.stored_bytes)
            : 0.0;

    if (!hw_shards_.empty()) {
        // Aggregate over the per-shard trees (one tree per cache shard
        // when cache_shards > 1, a single tree otherwise).
        hwtree::PipelineStats tree;
        for (const cache::HwTreeCacheIndex *hw : hw_shards_) {
            const hwtree::PipelineStats &s = hw->pipeline().stats();
            tree.searches += s.searches;
            tree.updates += s.updates;
            tree.crashes += s.crashes;
            tree.replays += s.replays;
        }
        snap.counters["tree.searches"] = tree.searches;
        snap.counters["tree.updates"] = tree.updates;
        snap.counters["tree.crashes"] = tree.crashes;
        snap.counters["tree.replays"] = tree.replays;
        snap.gauges["tree.crash_rate"] = tree.crash_rate();
    }

    const auto ledger_rows = [](const std::vector<sim::LedgerRow> &rows) {
        std::vector<obs::SnapshotRow> out;
        out.reserve(rows.size());
        for (const sim::LedgerRow &row : rows)
            out.push_back({row.tag, row.value, row.share});
        return out;
    };
    snap.sections["host_dram_bandwidth_bytes"] =
        ledger_rows(platform_.fabric().host_memory().report());
    snap.sections["cpu_core_seconds"] =
        ledger_rows(platform_.cpu().ledger().report());

    std::vector<obs::SnapshotRow> capacity;
    const host::HostMemory &memory = platform_.memory();
    for (const auto &[component, bytes] : memory.breakdown()) {
        capacity.push_back(
            {component, static_cast<double>(bytes),
             memory.used() > 0 ? static_cast<double>(bytes) /
                                     static_cast<double>(memory.used())
                               : 0.0});
    }
    snap.sections["host_dram_capacity_bytes"] = std::move(capacity);
    return snap;
}

}  // namespace fidr::core
