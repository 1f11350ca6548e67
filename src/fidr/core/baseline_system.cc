#include "fidr/core/baseline_system.h"

#include "fidr/host/calibration.h"

namespace fidr::core {

BaselineSystem::BaselineSystem(const BaselineConfig &config)
    : config_(config),
      platform_(config.platform),
      index_(),
      table_cache_(platform_.hash_table(), index_, platform_.cache_lines()),
      dedup_(table_cache_),
      containers_(platform_.data_ssds(), config.container_bytes),
      predictor_(config.predictor_window,
                 config.predictor_fingerprint_bits),
      accel_(LzLevel::kFast)
{
    // The table cache content and the staging buffers live in host
    // DRAM in the baseline.
    FIDR_CHECK(platform_.memory()
                   .claim("table cache", table_cache_.capacity_bytes())
                   .is_ok());
    FIDR_CHECK(platform_.memory()
                   .claim("staging buffers",
                          config.batch_chunks * kChunkSize +
                              config.container_bytes)
                   .is_ok());
}

Status
BaselineSystem::write(Lba lba, Buffer data)
{
    if (data.size() != kChunkSize)
        return Status::invalid_argument("writes must be 4 KB chunks");

    // Fig 2a step 1: the NIC DMAs the payload into a host buffer.
    platform_.fabric().dma(platform_.nic(), pcie::kHostMemory, kChunkSize,
                           memtag::kNicHost);
    platform_.cpu().bill_us(cputag::kOrchestration,
                            calib::kCpuOrchestrationPerChunk);

    pending_newest_[lba] = pending_.size();
    pending_.push_back(PendingWrite{lba, std::move(data)});
    ++stats_.chunks_written;
    stats_.raw_bytes += kChunkSize;

    if (pending_.size() >= config_.batch_chunks)
        return process_batch();
    return Status::ok();
}

void
BaselineSystem::bill_container_seals()
{
    // Containers are staged in host memory; when one seals, a data SSD
    // DMA-reads it out through the root complex.
    while (sealed_billed_ < containers_.sealed_containers()) {
        const std::size_t ssd =
            sealed_billed_ % platform_.data_ssd_dev_count();
        platform_.fabric().dma(pcie::kHostMemory, platform_.data_ssd_dev(ssd),
                               config_.container_bytes, memtag::kDataSsd);
        ++sealed_billed_;
    }
}

Status
BaselineSystem::process_batch()
{
    if (pending_.empty())
        return Status::ok();
    const std::size_t n = pending_.size();
    const std::uint64_t batch_bytes = n * kChunkSize;
    pcie::Fabric &fabric = platform_.fabric();
    host::HostCpu &cpu = platform_.cpu();

    std::vector<Buffer> chunks;
    chunks.reserve(n);
    for (PendingWrite &w : pending_)
        chunks.push_back(std::move(w.data));

    // Step 2: the unique-chunk predictor scans every buffered byte.
    fabric.host_memory().add(memtag::kPrediction,
                             static_cast<double>(batch_bytes));
    cpu.bill_us(cputag::kPredictor, n * calib::kCpuPredictorPerChunk);
    const std::vector<bool> predicted = predictor_.predict_batch(chunks);

    // Step 3: one batch transfer to the integrated accelerator, which
    // hashes everything and compresses the predicted-unique chunks.
    fabric.dma(pcie::kHostMemory, platform_.compression_engine(),
               batch_bytes, memtag::kFpga);
    accel::BaselineBatchResult accel_out =
        accel_.process_batch(chunks, predicted);

    // Step 4: digests plus compressed predicted-unique data return to
    // host memory.
    std::uint64_t return_bytes = n * Digest::kSize;
    for (const accel::CompressedChunk &c : accel_out.compressed)
        return_bytes += c.data.size();
    fabric.dma(platform_.compression_engine(), pcie::kHostMemory,
               return_bytes, memtag::kFpga);

    // Step 5: host-side table management validates every prediction
    // against the Hash-PBN table cache.
    std::vector<Pbn> retire_candidates;
    for (std::size_t i = 0; i < n; ++i) {
        const Lba lba = pending_[i].lba;
        const Digest &digest = accel_out.digests[i];

        Result<DedupLookup> looked =
            dedup_.lookup_or_insert(digest, next_pbn_);
        if (!looked.is_ok())
            return looked.status();
        const DedupLookup &lookup = looked.value();

        // The baseline's table cache index is a software B+ tree.
        bill_dedup_lookup(platform_, lookup, /*software_index=*/true);

        if (lookup.verdict == ChunkVerdict::kDuplicate) {
            ++stats_.duplicates;
            if (predicted[i])
                ++false_uniques_;  // Compressed for nothing.
            const auto prev = lba_table_.map_lba(lba, lookup.pbn);
            if (prev && *prev != lookup.pbn)
                retire_candidates.push_back(*prev);
            continue;
        }

        // Actually unique.
        ++stats_.unique_chunks;
        const Pbn pbn = next_pbn_++;
        accel::CompressedChunk compressed;
        if (predicted[i]) {
            compressed = std::move(accel_out.compressed[i]);
        } else {
            // Misprediction: the accelerator never compressed this
            // chunk, forcing a second round trip (Sec 2.3).
            ++false_duplicates_;
            fabric.dma(pcie::kHostMemory, platform_.compression_engine(),
                       kChunkSize, memtag::kFpga);
            compressed = accel_.process_batch(
                std::span<const Buffer>(&chunks[i], 1),
                std::vector<bool>{true}).compressed[0];
            fabric.dma(platform_.compression_engine(), pcie::kHostMemory,
                       compressed.data.size(), memtag::kFpga);
        }

        Result<tables::ChunkLocation> placed =
            containers_.append(compressed.data);
        if (!placed.is_ok())
            return placed.status();
        stats_.stored_bytes += compressed.data.size();
        const auto prev = lba_table_.map_lba(lba, pbn);
        if (prev && *prev != pbn)
            retire_candidates.push_back(*prev);
        lba_table_.set_location(pbn, placed.value());
        lba_table_.set_digest(pbn, digest);
        bill_container_seals();
    }

    // Retire overwritten chunks only after the whole batch is mapped:
    // a later duplicate may re-reference a transiently dead PBN.
    for (const Pbn pbn : retire_candidates)
        retire_if_dead(pbn);

    pending_.clear();
    pending_newest_.clear();
    return Status::ok();
}

void
BaselineSystem::retire_if_dead(Pbn pbn)
{
    if (lba_table_.refcount(pbn) != 0)
        return;
    const std::optional<Digest> digest = lba_table_.digest_of(pbn);
    lba_table_.reclaim(pbn);
    if (digest) {
        Result<DedupLookup> removed = dedup_.remove(*digest);
        FIDR_CHECK(removed.is_ok());
    }
}

Status
BaselineSystem::flush()
{
    const Status batch = process_batch();
    if (!batch.is_ok())
        return batch;
    const Status sealed = containers_.flush();
    if (!sealed.is_ok())
        return sealed;
    bill_container_seals();
    return table_cache_.writeback_all();
}

std::vector<Result<Buffer>>
BaselineSystem::read_batch(std::span<const Lba> lbas)
{
    std::vector<Result<Buffer>> out;
    out.reserve(lbas.size());
    for (const Lba lba : lbas)
        out.push_back(read_one(lba));
    return out;
}

Result<Buffer>
BaselineSystem::read_one(Lba lba)
{
    ++stats_.chunks_read;
    pcie::Fabric &fabric = platform_.fabric();

    // Serve from the host-side request buffer when the write has not
    // been reduced yet.
    const auto pit = pending_newest_.find(lba);
    if (pit != pending_newest_.end()) {
        ++stats_.nic_read_hits;
        fabric.dma(pcie::kHostMemory, platform_.nic(), kChunkSize,
                   memtag::kNicHost);
        return pending_[pit->second].data;
    }

    platform_.cpu().bill_us(cputag::kReadPath, calib::kCpuReadPerChunk);

    const auto location = lba_table_.lookup(lba);
    if (!location)
        return Status::not_found("LBA never written");

    Result<Buffer> compressed = containers_.read(*location);
    if (!compressed.is_ok())
        return compressed.status();

    // Data SSD -> host -> decompression engine -> host -> NIC (Fig 2b).
    // The container lives on the SSD its id stripes to.
    fabric.dma(platform_.data_ssd_dev(
                   containers_.ssd_index_of(location->container_id)),
               pcie::kHostMemory,
               compressed.value().size(), memtag::kDataSsd);
    fabric.dma(pcie::kHostMemory, platform_.decompression_engine(),
               compressed.value().size(), memtag::kFpga);
    Result<Buffer> raw = decomp_.decompress(compressed.value());
    if (!raw.is_ok())
        return raw.status();
    fabric.dma(platform_.decompression_engine(), pcie::kHostMemory,
               raw.value().size(), memtag::kFpga);
    fabric.dma(pcie::kHostMemory, platform_.nic(), raw.value().size(),
               memtag::kNicHost);
    return raw;
}

}  // namespace fidr::core
