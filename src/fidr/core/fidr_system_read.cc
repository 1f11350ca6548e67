#include "fidr/core/fidr_system.h"

#include "fidr/host/calibration.h"
#include "fidr/obs/trace.h"

namespace fidr::core {

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

Result<Buffer>
FidrSystem::read(Lba lba)
{
    // The size-1 batch: one read runs every read_batch stage, with the
    // same billing and fault accounting.
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
FidrSystem::run_read_jobs(std::vector<ReadJob> &jobs,
                          obs::StageTimer &clock)
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
    // returns it) and takes the compressed image over.  The fills are
    // timed from here (the jobs are timed per job).
    (void)clock.lap_ns();
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
    hist_.read_cache_fill->record(clock.lap_ns(),
                                  obs::ScopedRequest::current_trace());
}

void
FidrSystem::run_read_job(ReadJob &job)
{
    const std::uint64_t trace = obs::ScopedRequest::current_trace();
    const pcie::DeviceId engine = platform_.decompression_engine();
    std::uint64_t fetch_ns = 0;
    std::uint64_t decompress_ns = 0;
    // One clock read per stage boundary: each lap ends one stage and
    // starts the next, so the DMA billing between the fetch and the
    // decompress is timed with the decompress.
    obs::StageTimer clock;

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
        Result<Buffer> image = fault::retry_counted(
            config_.transient_retries, retries, [&] {
                return spill_device_->read(job.spill.offset,
                                           job.spill.size);
            });
        fetch_ns = clock.lap_ns();
        if (image.is_ok()) {
            Result<Buffer> raw =
                decomp_.decompress_stateless(image.value());
            decompress_ns = clock.lap_ns();
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
        Result<Buffer> image = fault::retry_counted(
            config_.transient_retries, retries,
            [&] { return containers_.read(job.location); });
        fetch_ns += clock.lap_ns();  // A spill fallback adds its read.
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
        Result<Buffer> raw = decomp_.decompress_stateless(job.compressed);
        decompress_ns = clock.lap_ns();
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
    //
    // Stage clock: each boundary between two timed stages is one clock
    // read, and `clock` holds the last one.  The barrier's end starts
    // the batch, and a slot's return is timed from the previous
    // slot's return (the first from the end of the cache fills).
    obs::StageTimer clock;
    pipeline_->quiesce();
    if (pipeline_->failed())
        unseal_nic();
    hist_.read_barrier->record(clock.lap_ns(),
                               obs::ScopedRequest::current_trace());
    const std::uint64_t batch_start_ns = clock.start_ns();
    pcie::Fabric &fabric = platform_.fabric();
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
            // `clock` still holds the batch start here.
            hist_.read_total->record(clock.elapsed_ns(),
                                     obs::ScopedRequest::current_trace());
            results[i] = std::move(*buffered);
            continue;
        }
        FIDR_TPOINT(obs::Tpoint::kReadNicLookup, lba, 0);

        // Steps 3-4: LBA to host, LBA-PBA lookup.  With the read-stack
        // offload extension, the NVMe submission/completion handling
        // and data forwarding move to the FPGA and only the mapping
        // lookup stays on the CPU.  The resolve's end reading starts
        // the cache probe.
        obs::StageTimer slot_clock;
        const auto location = [&] {
            FIDR_TRACE_SPAN(span, obs::Tpoint::kReadLbaResolve, lba, 0);
            fabric.dma(platform_.nic(), pcie::kHostMemory, 16,
                       memtag::kNicHost);
            platform_.cpu().bill_us(cputag::kReadPath,
                                    config_.offload_read_stack
                                        ? calib::kCpuReadOffloadResidual
                                        : calib::kCpuReadPerChunk);
            return lba_table_.lookup(lba);
        }();
        hist_.read_resolve->record(slot_clock.lap_ns(),
                                   obs::ScopedRequest::current_trace());
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
            cache::TierLookup cached = chunk_cache_->lookup(key);
            probe_ns += slot_clock.lap_ns();
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
    run_read_jobs(jobs, clock);

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
        FIDR_TRACE_SPAN(span, obs::Tpoint::kReadNicReturn, lbas[i],
                        job.payload.size());
        const Status moved =
            job.tier == cache::CacheTier::kHot
                ? dma_checked(pcie::kHostMemory, platform_.nic(),
                              job.payload.size(), memtag::kChunkCache)
                : dma_checked(platform_.decompression_engine(),
                              platform_.nic(), job.payload.size(),
                              memtag::kNicHost);
        hist_.read_return->record(clock.lap_ns(),
                                  obs::ScopedRequest::current_trace());
        if (!moved.is_ok()) {
            results[i] = moved;
            continue;
        }
        // The return's end reading is also the slot's read.total end.
        hist_.read_total->record(clock.start_ns() - batch_start_ns,
                                 obs::ScopedRequest::current_trace());
        // One copy per returned slot at most: the job's last slot takes
        // the payload, earlier coalesced slots copy it.
        if (i == job.last_slot)
            results[i] = std::move(job.payload);
        else
            results[i] = job.payload;
    }
    return results;
}
}  // namespace fidr::core
