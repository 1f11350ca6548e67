/**
 * @file
 * Batched Fig 6b read plane: container coalescing and the read job.
 *
 * `FidrSystem::read_batch` mirrors what core::WritePipeline did for
 * Fig 6a — it splits the read flow into what is pure per-chunk work
 * and what is order-sensitive shared-state mutation:
 *
 *   1. *Resolve* (serial, input order): NIC LBA-lookup short-circuit,
 *      LBA transfer + CPU billing, LBA->PBA lookup.  Serial because it
 *      bills ledgers and touches the mapping table.
 *   2. *Coalesce* (serial): slots whose LBAs resolve to the same
 *      physical chunk — duplicates under dedup, or the same LBA twice
 *      in a batch — collapse into one ReadJob, in first-occurrence
 *      order, so each chunk is fetched and decompressed exactly once.
 *   3. *Fetch + decompress* (pure per-job): each miss job reads its
 *      compressed image from the container log and decompresses it.
 *      Flash page copies, the LZ kernel, and job-local retry counting
 *      only.  Runs on the calling thread: handing the jobs to worker
 *      lanes won at no measured batch size (DESIGN.md §11).
 *   4. *Bill + return* (serial, job then input order): every fabric
 *      DMA, per-SSD attribution, histogram, fault-stat merge and
 *      cache fill runs after the fetch stage, so results and ledgers
 *      do not depend on how stage 3 ran — the contract a future
 *      fan-out of stage 3 must keep.
 *
 * This file owns the job shape; the stages live in
 * FidrSystem::read_batch because they touch its state.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "fidr/cache/chunk_cache.h"
#include "fidr/common/status.h"
#include "fidr/common/types.h"
#include "fidr/fault/retry.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::core {

/** One coalesced physical-chunk read serving >= 1 batch slots. */
struct ReadJob {
    tables::ChunkLocation location;
    /** Data SSD holding the chunk's container (per-SSD billing). */
    std::size_t source_ssd = 0;
    /** Batch slot indexes this job's payload serves (>= 1). */
    std::vector<std::size_t> slots;

    bool cache_hit = false;       ///< Hot-tier hit: payload in hand.
    /** Which cache tier answered the probe (kNone = miss).  kHot sets
     *  cache_hit; kWarm carries `compressed`; kSpill carries `spill`.
     *  Warm/spill jobs still run the fetch stage (decompress, or spill
     *  read + decompress) but skip the container fetch. */
    cache::CacheTier tier = cache::CacheTier::kNone;
    bool fetch_ok = false;        ///< Compressed image in hand.
    Buffer payload;               ///< Decompressed chunk when ok.
    /** The chunk's compressed image: from the warm tier (resolve
     *  stage), the spill ring or the container fetch (fetch stage).
     *  Feeds the two-tier cache fill in the billing stage. */
    Buffer compressed;
    cache::SpillRef spill;        ///< kSpill: where the image lives.
    std::uint32_t raw_size = 0;   ///< Expected decompressed size.
    /** Spill read/decode failed; the job fell back to the normal
     *  container fetch (billed as a plain miss serially). */
    bool spill_fallback = false;
    std::uint64_t compressed_bytes = 0;
    /** Transient retries of the fetch that served the job (job-local;
     *  charged to FaultStats by the billing stage). */
    fault::RetryTally fetch_retries;
    Status status;                ///< First fetch/decompress error.
    bool ready = false;           ///< Set serially once billed + ok.

    std::uint64_t fetch_ns = 0;
    std::uint64_t decompress_ns = 0;
};

}  // namespace fidr::core
