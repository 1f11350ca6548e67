#include "fidr/core/fidr_system.h"

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
    // every Fig 6 stage show up in obs_snapshot() from the start.  Each
    // keeps tail exemplars: the slowest kTailExemplars recorded samples
    // keep their request trace id, so a fat p99 names concrete traces
    // (`fidr_obs_report attribute` resolves them).  Configured here,
    // before any record, per the quiescence contract.  With
    // FIDR_TRACE=OFF no trace ids exist, so the reservoirs stay empty.
    constexpr std::size_t kTailExemplars = 4;
    const auto stage = [this](const char *name) {
        obs::Histogram *histogram = &metrics_.histogram(name);
        histogram->set_exemplar_capacity(kTailExemplars);
        return histogram;
    };
    hist_.nic_buffer = stage("write.nic_buffer");
    hist_.batch = stage("write.batch");
    hist_.hash = stage("write.hash");
    hist_.digest_xfer = stage("write.digest_xfer");
    hist_.bucket_index = stage("write.bucket_index");
    hist_.dedup_resolve = stage("write.dedup_resolve");
    hist_.verdict_xfer = stage("write.verdict_xfer");
    hist_.map_update = stage("write.map_update");
    hist_.compress = stage("write.compress");
    hist_.container_append = stage("write.container_append");
    hist_.journal = stage("write.journal");
    hist_.ref_barrier = stage("write.ref_barrier");
    hist_.read_total = stage("read.total");
    hist_.read_resolve = stage("read.lba_resolve");
    hist_.read_fetch = stage("read.ssd_fetch");
    hist_.read_decompress = stage("read.decompress");
    hist_.read_return = stage("read.nic_return");
    hist_.read_barrier = stage("read.barrier");
    hist_.read_cache_probe = stage("read.cache_probe");
    hist_.read_cache_fill = stage("read.cache_fill");
    read_ssd_fetches_ = &metrics_.counter("read.ssd_fetches");
    read_spill_reads_ = &metrics_.counter("read.cache.spill.reads");
    // GC pause cost per step, visible from the first snapshot even
    // before any step runs (eager creation, like the stage set).
    gc_pause_ = &metrics_.histogram("gc.pause_ns");

    // Stage-occupancy histograms: aggregate busy > wall-clock shows
    // real overlap between the hash workers and the commit sequencer.
    pipe_hash_busy_ = &metrics_.histogram("pipeline.stage.hash.busy_ns");
    pipe_execute_busy_ =
        &metrics_.histogram("pipeline.stage.execute.busy_ns");

    // Every sealed batch commits through the pipeline; depth 1 keeps
    // one batch in flight (WritePipeline rejects depth 0).
    WritePipelineConfig pipeline;
    pipeline.depth = config_.in_flight_batches;
    WritePipelineMetrics sinks;
    sinks.submit_stall_ns = &metrics_.histogram("pipeline.submit_stall_ns");
    sinks.queue_depth = &metrics_.histogram("pipeline.queue_depth");
    sinks.batches = &metrics_.counter("pipeline.batches");
    sinks.stalls = &metrics_.counter("pipeline.stalls");
    sinks.overlap_ns = &metrics_.counter("pipeline.overlap_ns");
    pipeline_ = std::make_unique<WritePipeline>(
        pipeline, nic_,
        [this](nic::SealedBatch &batch) { stage_hash(batch); },
        [this](nic::SealedBatch &batch) { return execute_batch(batch); },
        sinks);
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
        const Status committed = commit_open_batch();
        if (!committed.is_ok())
            return committed;
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
        process_batch();
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

void
FidrSystem::process_batch()
{
    nic::SealedBatch *batch = nic_.seal_batch();
    if (batch == nullptr)
        return;
    forget_open_chunks();

    // The sealed batch is one client-visible request: give it a causal
    // id here, at the seal, and let it ride in the batch — hash
    // workers and the commit sequencer restore the context from there.
    if (batch->trace_id == 0)
        batch->trace_id =
            obs::RequestContext::next_id_for_node(config_.node_index);
    batch->stream_tag = stream_tag_;
    obs::ScopedRequest request(batch->trace_id, batch->stream_tag);

    // Submit under the batch's context: admission stalls trace as this
    // request's queueing time.  submit fails only once an earlier batch
    // failed on the commit sequencer (sticky, possibly while this one
    // waited for admission).  The write that sealed the batch was
    // acked at NVRAM admission like every other write, so it does not
    // fail on the sequencer's behalf: the batch stays sealed next to
    // the aborted ones (a power cut replays all of them from NVRAM)
    // and the next barrier surfaces the sticky error and retries.
    (void)pipeline_->submit(batch->epoch);
}

Status
FidrSystem::drain_pipeline()
{
    pipeline_->quiesce();
    const Status error = pipeline_->take_error();
    // Failed/aborted batches return to the open buffer (their chunks
    // keep computed digests) and retry at the next flush.
    if (!error.is_ok())
        unseal_nic();
    return error;
}

Status
FidrSystem::commit_open_batch()
{
    const Status committed = drain_pipeline();
    if (!committed.is_ok())
        return committed;
    process_batch();
    return drain_pipeline();
}

Result<std::optional<Pbn>>
FidrSystem::resolve_committed_digest(const Digest &digest)
{
    Result<DedupLookup> looked = dedup_->lookup(digest);
    if (!looked.is_ok())
        return looked.status();
    const DedupLookup lookup = looked.value();
    bill_dedup_lookup(platform_, lookup, !config_.hw_cache_engine);
    if (lookup.verdict != ChunkVerdict::kDuplicate)
        return std::optional<Pbn>{};
    // A dangling entry, or one whose chunk is stored but unmapped, is
    // not a committed readable chunk; the caller falls back to a full
    // write, whose resolve stage repairs the entry.
    if (lba_table_.refcount(lookup.pbn) == 0 ||
        !lba_table_.location_of(lookup.pbn))
        return std::optional<Pbn>{};
    return std::optional<Pbn>{lookup.pbn};
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
    const obs::StageTimer barrier;
    const Status drained = drain_pipeline();
    hist_.ref_barrier->record(barrier.elapsed_ns(),
                              obs::ScopedRequest::current_trace());
    if (!drained.is_ok())
        return drained;
    // A NIC-buffered write of this LBA would commit after (and undo)
    // the reference; bounce so the router's full-write fallback
    // replaces the buffered chunk instead (newest-write-wins).
    if (nic_.has_buffered(lba))
        return Status::not_found("LBA has a buffered write pending");
    Result<std::optional<Pbn>> resolved = resolve_committed_digest(digest);
    if (!resolved.is_ok())
        return resolved.status();
    if (!resolved.value())
        return Status::not_found("digest is not a committed chunk here");
    const Pbn pbn = *resolved.value();

    // Mirror stage_apply/stage_commit for one duplicate chunk: map,
    // count, retire a displaced previous mapping, and make the records
    // durable as one extent before the reply.
    journal_stage(tables::JournalRecord::map(lba, pbn));
    const auto prev = lba_table_.map_lba(lba, pbn);
    ++stats_.chunks_written;
    stats_.raw_bytes += kChunkSize;
    ++stats_.duplicates;
    ++cluster_stats_.refs_from_committed;
    if (prev && *prev != pbn)
        retire_if_dead(*prev);
    return journal_commit();
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
    // (has_buffered sees only the open buffer, which a clean drain
    // leaves as it is.)
    const bool buffered = nic_.has_buffered(lba);
    const obs::StageTimer barrier;
    const Status committed =
        buffered ? commit_open_batch() : drain_pipeline();
    hist_.ref_barrier->record(barrier.elapsed_ns(),
                              obs::ScopedRequest::current_trace());
    if (!committed.is_ok())
        return committed;
    if (buffered)
        ++cluster_stats_.unmap_commits;
    if (!lba_table_.pbn_of(lba))
        return Status::ok();
    journal_stage(tables::JournalRecord::unmap(lba));
    const auto prev = lba_table_.unmap_lba(lba);
    if (prev)
        retire_if_dead(*prev);
    return journal_commit();
}

Status
FidrSystem::flush()
{
    // Pipeline barrier: surface any asynchronous failure (unsealing
    // retained batches back into the open buffer) before sealing the
    // remainder, then wait for everything to commit.
    const Status committed = commit_open_batch();
    if (!committed.is_ok())
        return committed;
    const Status sealed = containers_.flush();
    if (!sealed.is_ok())
        return sealed;
    const Status billed = bill_container_seals();
    if (!billed.is_ok())
        return billed;
    return table_cache_->writeback_all();
}
}  // namespace fidr::core
