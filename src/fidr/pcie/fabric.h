/**
 * @file
 * PCIe fabric model: devices, switches, root complex, and DMA routing.
 *
 * FIDR's second key idea (paper Sec 5.1, 5.6) is peer-to-peer DMA:
 * groups of {NIC, Compression Engine, data SSDs} sit under a shared
 * PCIe switch so device-to-device transfers never touch host DRAM.
 * The baseline instead stages every transfer in host memory (one DMA
 * write into DRAM plus one DMA read out of it).
 *
 * This model routes each dma() by topology:
 *  - both endpoints under the same switch and P2P enabled: bytes debit
 *    only the two device links;
 *  - otherwise: bytes debit both device links, the root complex, and
 *    the host-DRAM ledger twice (write + read) — the stage-in-memory
 *    path;
 *  - endpoint kHostMemory: bytes cross the root complex and debit the
 *    DRAM ledger once.
 *
 * The host-DRAM ledger produced here is exactly what Figs 4/11 and
 * Table 1 report.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fidr/common/status.h"
#include "fidr/common/units.h"
#include "fidr/sim/ledger.h"

namespace fidr::pcie {

/** Opaque handle to a device registered in the fabric. */
struct DeviceId {
    std::size_t index = SIZE_MAX;
    bool valid() const { return index != SIZE_MAX; }
    bool operator==(const DeviceId &) const = default;
};

/** Handle to a PCIe switch. */
struct SwitchId {
    std::size_t index = SIZE_MAX;
    bool valid() const { return index != SIZE_MAX; }
    bool operator==(const SwitchId &) const = default;
};

/** Distinguished endpoint meaning "host DRAM via the root complex". */
inline constexpr DeviceId kHostMemory{SIZE_MAX - 1};

/** Per-device static attributes. */
struct DeviceInfo {
    std::string name;
    SwitchId parent;          ///< Invalid => directly on the root complex.
    Bandwidth link_bandwidth; ///< e.g. 16 GB/s for PCIe 3.0 x16.
};

/** Parameters of the whole fabric. */
struct FabricConfig {
    bool allow_p2p = true;      ///< Disabled to model the baseline.
};

/** Result of one routed DMA for callers that care about the path. */
enum class DmaPath {
    kPeerToPeer,    ///< Switch-local, bypassed host DRAM.
    kThroughHost,   ///< Device-to-device staged in host DRAM.
    kHostEndpoint,  ///< One endpoint was host DRAM itself.
};

/** PCIe topology with byte accounting. */
class Fabric {
  public:
    explicit Fabric(FabricConfig config = {});

    /** Adds a switch hanging off the root complex. */
    SwitchId add_switch(const std::string &name);

    /**
     * Registers a device.  Pass an invalid SwitchId to attach directly
     * to the root complex.
     */
    DeviceId add_device(const std::string &name, SwitchId parent,
                        Bandwidth link_bandwidth = gb_per_s(16));

    const DeviceInfo &info(DeviceId id) const;

    /**
     * Accounts one DMA of `bytes` from `src` to `dst`, attributing
     * host-DRAM traffic (if any) to `tag`.  Returns the path taken.
     */
    DmaPath dma(DeviceId src, DeviceId dst, std::uint64_t bytes,
                const std::string &tag);

    /**
     * Fallible variant: evaluates the pcie.dma failpoint first, so an
     * injected descriptor/link error surfaces as kUnavailable (or the
     * armed code) with nothing billed.  Paths that must handle device
     * errors (the FidrSystem data plane) use this; dma() stays for
     * infallible accounting-only callers.
     */
    Result<DmaPath> try_dma(DeviceId src, DeviceId dst,
                            std::uint64_t bytes, const std::string &tag);

    /** Host DRAM traffic ledger (tags chosen by callers). */
    const sim::BandwidthLedger &host_memory() const { return host_memory_; }
    sim::BandwidthLedger &host_memory() { return host_memory_; }

    /** Total bytes that crossed the root complex. */
    std::uint64_t root_complex_bytes() const { return root_complex_bytes_; }

    /** Bytes through a given device's link. */
    std::uint64_t link_bytes(DeviceId id) const;

    /** Bytes moved peer-to-peer (never touching DRAM). */
    std::uint64_t p2p_bytes() const { return p2p_bytes_; }

    /** try_dma() calls that failed with an injected error. */
    std::uint64_t dma_errors() const { return dma_errors_; }

    const FabricConfig &config() const { return config_; }

  private:
    struct DeviceState {
        DeviceInfo info;
        std::uint64_t bytes = 0;
    };

    DeviceState &state(DeviceId id);
    const DeviceState &state(DeviceId id) const;

    FabricConfig config_;
    std::vector<std::string> switches_;
    std::vector<DeviceState> devices_;
    sim::BandwidthLedger host_memory_;
    std::uint64_t root_complex_bytes_ = 0;
    std::uint64_t p2p_bytes_ = 0;
    std::uint64_t dma_errors_ = 0;
};

}  // namespace fidr::pcie
