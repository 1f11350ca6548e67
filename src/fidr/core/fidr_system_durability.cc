#include "fidr/core/fidr_system.h"

#include "fidr/common/bytes.h"
#include "fidr/fault/failpoint.h"
#include "fidr/obs/trace.h"

namespace fidr::core {

void
FidrSystem::journal_stage(const tables::JournalRecord &record)
{
    if (journal_)
        journal_->stage(record);
}

Status
FidrSystem::journal_commit()
{
    if (!journal_ || journal_->staged_records() == 0)
        return Status::ok();
    const obs::StageTimer timer;
    FIDR_TPOINT(obs::Tpoint::kWriteJournal, journal_->staged_records(),
                journal_->used_bytes());
    Status committed = journal_->commit();
    if (committed.code() == StatusCode::kOutOfSpace) {
        // Journal full: the checkpoint snapshot reflects every staged
        // record, then truncates the journal.
        committed = checkpoint();
    }
    hist_.journal->record(timer.elapsed_ns(),
                          obs::ScopedRequest::current_trace());
    return committed;
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
    journal_->stage(tables::JournalRecord::checkpoint());
    return journal_->commit();
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
    pipeline_->quiesce();
    (void)pipeline_->take_error();
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

    // The PBN keeps its identity but the physical key moved: re-key the
    // cached image, in whatever tier holds it, instead of dropping the
    // whole container's worth of cache (which made every GC pass a
    // read-latency cliff).  The cache is keyed by physical location and
    // both locations now hold these bytes, so the re-key is safe ahead
    // of the location update.
    if (chunk_cache_ &&
        chunk_cache_->rekey(
            {old_loc.container_id, old_loc.offset_units},
            {placed.value().container_id, placed.value().offset_units})) {
        ++gc_stats_.cache_rekeys;
    }
    // A crash around the journal record replays the new location (or
    // never saw it), and either copy is durable — the new one in
    // battery-backed open-buffer memory, the old one in a slot not yet
    // trimmed.
    const Status placed_ok =
        place_chunk(pbn, space_.digest_of(pbn), placed.value());
    if (!placed_ok.is_ok())
        return placed_ok;
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
    if (pipeline_->in_flight() > 1)
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
    // The relocations' extent is durable before the discard that drops
    // their old copies.
    const Status logged = journal_commit();
    if (status.is_ok())
        status = logged;
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
        const Status status = gc_step();
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
}  // namespace fidr::core
