/**
 * @file
 * Space reclamation (extension beyond the paper's evaluation).
 *
 * Deduplicated chunks die when the last LBA referencing them is
 * overwritten; their bytes remain inside sealed containers until a
 * compaction pass rewrites the surviving chunks and releases the
 * container.  SpaceTracker keeps the per-container live/dead ledger
 * and the PBN -> (digest, location) records compaction needs; the
 * FidrSystem wires it into the write path and exposes run_gc().
 */
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fidr/common/types.h"
#include "fidr/hash/digest.h"
#include "fidr/tables/lba_pba.h"

namespace fidr::core {

/** Live/dead payload accounting for one container. */
struct ContainerSpace {
    std::uint64_t live_bytes = 0;
    std::uint64_t dead_bytes = 0;
    std::vector<Pbn> pbns;  ///< Every PBN ever stored here.

    double
    dead_fraction() const
    {
        const std::uint64_t total = live_bytes + dead_bytes;
        return total > 0 ? static_cast<double>(dead_bytes) /
                               static_cast<double>(total)
                         : 0.0;
    }
};

/** Tracks chunk liveness across containers. */
class SpaceTracker {
  public:
    /**
     * Records a newly stored (or re-stored by GC relocation) chunk.
     * The digest is nullopt for chunks adopted by crash recovery —
     * the ledger is rebuilt from the LBA-PBA table, which does not
     * carry digests (the Hash-PBN table does, but its dirty lines may
     * have died with the host).
     */
    void on_store(Pbn pbn, const std::optional<Digest> &digest,
                  const tables::ChunkLocation &location);

    /**
     * Marks `pbn` dead (refcount reached zero).  Returns the digest so
     * the caller can drop the Hash-PBN entry; nullopt when the PBN is
     * unknown or already dead — or when it was recovered without a
     * digest (the dangling Hash-PBN entry is then repaired lazily at
     * dedup-resolve time).
     */
    std::optional<Digest> on_dead(Pbn pbn);

    /**
     * Recovery seeding: accounts `bytes` of dead payload to
     * `container` without naming the PBNs that died (their records
     * did not survive the crash; only the live set is rebuilt).
     */
    void seed_dead(std::uint64_t container, std::uint64_t bytes);

    /** Live payload bytes currently accounted to `container`. */
    std::uint64_t container_live_bytes(std::uint64_t container) const;

    /** Container ids whose dead share is at least `min_dead_fraction`. */
    std::vector<std::uint64_t> candidates(double min_dead_fraction) const;

    /** Live PBNs currently located in `container`. */
    std::vector<Pbn> live_pbns(std::uint64_t container) const;

    /** Digest of a live PBN (compaction support). */
    std::optional<Digest> digest_of(Pbn pbn) const;

    /** Forgets a container after compaction moved its live chunks. */
    void release_container(std::uint64_t container);

    std::uint64_t dead_bytes() const { return dead_bytes_; }
    std::uint64_t live_bytes() const { return live_bytes_; }

    const std::unordered_map<std::uint64_t, ContainerSpace> &
    containers() const
    {
        return containers_;
    }

  private:
    struct ChunkRecord {
        std::optional<Digest> digest;
        tables::ChunkLocation location;
        bool live = true;
    };

    std::unordered_map<Pbn, ChunkRecord> chunks_;
    std::unordered_map<std::uint64_t, ContainerSpace> containers_;
    std::uint64_t dead_bytes_ = 0;
    std::uint64_t live_bytes_ = 0;
};

}  // namespace fidr::core
