/**
 * @file
 * The baseline storage system: CIDR extended with 4 KB chunking and
 * software table caching (paper Sec 2.3, Fig 2).
 *
 * Write flow: the NIC DMAs client data into host memory; the
 * unique-chunk predictor scans the buffer; the batch scheduler ships
 * the whole batch to the integrated accelerator, which hashes every
 * chunk and compresses the predicted-unique ones; results return to
 * host memory; host software validates predictions against the
 * Hash-PBN table cache (B+-tree indexed, CPU managed); mispredicted
 * unique chunks take a second accelerator round-trip; compressed
 * unique chunks are staged in a host-memory container and the data
 * SSDs DMA it out.
 *
 * Read flow: LBA-PBA lookup on host, data SSD -> host memory ->
 * decompression engine -> host memory -> NIC.
 *
 * Every hop debits the host-DRAM ledger with its Table 1 tag and the
 * CPU ledger with its Fig 5b / Table 2 task tag, which is where the
 * bottleneck figures (Figs 4-5) come from.
 */
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "fidr/accel/engines.h"
#include "fidr/accel/predictor.h"
#include "fidr/cache/indexes.h"
#include "fidr/cache/table_cache.h"
#include "fidr/core/dedup_index.h"
#include "fidr/core/platform.h"
#include "fidr/core/server.h"
#include "fidr/tables/container.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::core {

/** Baseline system parameters. */
struct BaselineConfig {
    PlatformConfig platform;
    std::size_t batch_chunks = 256;         ///< Accelerator batch size.
    std::size_t predictor_window = 1 << 20; ///< Fingerprints kept.
    unsigned predictor_fingerprint_bits = 64;
    std::uint64_t container_bytes = 4 * kMiB;
};

/** The CIDR-like baseline server. */
class BaselineSystem : public StorageServer {
  public:
    explicit BaselineSystem(const BaselineConfig &config);

    Status write(Lba lba, Buffer data) override;
    /** One Fig 2b read per LBA, in input order. */
    std::vector<Result<Buffer>> read_batch(
        std::span<const Lba> lbas) override;
    Status flush() override;
    const ReductionStats &reduction() const override { return stats_; }

    Platform &platform() { return platform_; }
    const Platform &platform() const { return platform_; }
    cache::CacheStats cache_stats() const { return table_cache_.stats(); }
    const cache::IndexStats &index_stats() const { return index_.stats(); }
    /** The per-chunk record (mappings, locations, digests, live
     *  bytes), the same bookkeeping as FIDR's. */
    tables::LbaPbaTable &lba_table() { return lba_table_; }
    const tables::LbaPbaTable &lba_table() const { return lba_table_; }

    /** Mispredictions that forced a second accelerator pass. */
    std::uint64_t false_duplicate_predictions() const
    { return false_duplicates_; }
    std::uint64_t false_unique_predictions() const { return false_uniques_; }

  private:
    Status process_batch();
    Result<Buffer> read_one(Lba lba);
    void bill_container_seals();
    void retire_if_dead(Pbn pbn);

    BaselineConfig config_;
    Platform platform_;
    cache::BTreeCacheIndex index_;
    cache::TableCache table_cache_;
    DedupIndex dedup_;
    tables::LbaPbaTable lba_table_;
    tables::ContainerLog containers_;
    accel::UniqueChunkPredictor predictor_;
    accel::BaselineReductionAccelerator accel_;
    accel::DecompressionEngine decomp_;

    struct PendingWrite {
        Lba lba;
        Buffer data;
    };
    std::vector<PendingWrite> pending_;
    std::unordered_map<Lba, std::size_t> pending_newest_;

    Pbn next_pbn_ = 0;
    std::uint64_t sealed_billed_ = 0;
    std::uint64_t false_duplicates_ = 0;
    std::uint64_t false_uniques_ = 0;
    ReductionStats stats_;
};

}  // namespace fidr::core
