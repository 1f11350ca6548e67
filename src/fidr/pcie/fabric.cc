#include "fidr/pcie/fabric.h"

#include "fidr/fault/failpoint.h"
#include "fidr/obs/trace.h"

namespace fidr::pcie {

namespace {

/** Packs a DMA's endpoints into one trace object id. */
[[maybe_unused]] std::uint64_t
dma_object_id(DeviceId src, DeviceId dst)
{
    return (static_cast<std::uint64_t>(src.index & 0xFFFFFFFF) << 32) |
           static_cast<std::uint64_t>(dst.index & 0xFFFFFFFF);
}

}  // namespace

Fabric::Fabric(FabricConfig config) : config_(config) {}

SwitchId
Fabric::add_switch(const std::string &name)
{
    switches_.push_back(name);
    return SwitchId{switches_.size() - 1};
}

DeviceId
Fabric::add_device(const std::string &name, SwitchId parent,
                   Bandwidth link_bandwidth)
{
    FIDR_CHECK(!parent.valid() || parent.index < switches_.size());
    devices_.push_back(DeviceState{DeviceInfo{name, parent, link_bandwidth}});
    return DeviceId{devices_.size() - 1};
}

Fabric::DeviceState &
Fabric::state(DeviceId id)
{
    FIDR_CHECK(id.valid() && id.index < devices_.size());
    return devices_[id.index];
}

const Fabric::DeviceState &
Fabric::state(DeviceId id) const
{
    FIDR_CHECK(id.valid() && id.index < devices_.size());
    return devices_[id.index];
}

const DeviceInfo &
Fabric::info(DeviceId id) const
{
    return state(id).info;
}

DmaPath
Fabric::dma(DeviceId src, DeviceId dst, std::uint64_t bytes,
            const std::string &tag)
{
    FIDR_CHECK(!(src == kHostMemory && dst == kHostMemory));
    FIDR_TPOINT(obs::Tpoint::kDma, dma_object_id(src, dst), bytes);

    if (src == kHostMemory || dst == kHostMemory) {
        DeviceState &dev = state(src == kHostMemory ? dst : src);
        dev.bytes += bytes;
        root_complex_bytes_ += bytes;
        host_memory_.add(tag, static_cast<double>(bytes));
        return DmaPath::kHostEndpoint;
    }

    DeviceState &s = state(src);
    DeviceState &d = state(dst);
    s.bytes += bytes;
    d.bytes += bytes;

    const bool same_switch = s.info.parent.valid() &&
                             s.info.parent == d.info.parent;
    if (config_.allow_p2p && same_switch) {
        p2p_bytes_ += bytes;
        return DmaPath::kPeerToPeer;
    }

    // Staged through host DRAM: DMA write into memory then DMA read out,
    // both crossing the root complex.
    root_complex_bytes_ += 2 * bytes;
    host_memory_.add(tag, 2.0 * static_cast<double>(bytes));
    return DmaPath::kThroughHost;
}

Result<DmaPath>
Fabric::try_dma(DeviceId src, DeviceId dst, std::uint64_t bytes,
                const std::string &tag)
{
    const fault::FaultDecision fd =
        FIDR_FAULT_EVAL(fault::Site::kPcieDma);
    if (fd.fire && fd.kind == fault::FaultKind::kError) {
        ++dma_errors_;
        return fault::to_status(fd, fault::Site::kPcieDma);
    }
    return dma(src, dst, bytes, tag);
}

std::uint64_t
Fabric::link_bytes(DeviceId id) const
{
    return state(id).bytes;
}

}  // namespace fidr::pcie
