// Unit tests for the PCIe fabric: routing and ledgers.

#include <gtest/gtest.h>

#include "fidr/pcie/fabric.h"

namespace fidr::pcie {
namespace {

struct Rig {
    Fabric fabric;
    SwitchId sw0, sw1;
    DeviceId nic, comp, ssd, other;

    explicit Rig(bool p2p = true)
        : fabric([p2p] {
              FabricConfig c;
              c.allow_p2p = p2p;
              return c;
          }())
    {
        sw0 = fabric.add_switch("sw0");
        sw1 = fabric.add_switch("sw1");
        nic = fabric.add_device("nic", sw0);
        comp = fabric.add_device("comp", sw0);
        ssd = fabric.add_device("ssd", sw0);
        other = fabric.add_device("other", sw1);
    }
};

TEST(Fabric, SameSwitchGoesPeerToPeer)
{
    Rig rig;
    EXPECT_EQ(rig.fabric.dma(rig.nic, rig.comp, 4096, "x"),
              DmaPath::kPeerToPeer);
    // P2P: no host memory traffic, no root complex crossing.
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().total(), 0);
    EXPECT_EQ(rig.fabric.root_complex_bytes(), 0u);
    EXPECT_EQ(rig.fabric.p2p_bytes(), 4096u);
    // Both endpoint links carry the bytes.
    EXPECT_EQ(rig.fabric.link_bytes(rig.nic), 4096u);
    EXPECT_EQ(rig.fabric.link_bytes(rig.comp), 4096u);
}

TEST(Fabric, CrossSwitchStagesThroughHost)
{
    Rig rig;
    EXPECT_EQ(rig.fabric.dma(rig.nic, rig.other, 1000, "stage"),
              DmaPath::kThroughHost);
    // Staged: one DMA write into DRAM plus one DMA read out.
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().bytes("stage"), 2000);
    EXPECT_EQ(rig.fabric.root_complex_bytes(), 2000u);
}

TEST(Fabric, P2pDisabledStagesEverything)
{
    Rig rig(false);
    EXPECT_EQ(rig.fabric.dma(rig.nic, rig.comp, 1000, "stage"),
              DmaPath::kThroughHost);
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().total(), 2000);
    EXPECT_EQ(rig.fabric.p2p_bytes(), 0u);
}

TEST(Fabric, HostEndpointCountsOnce)
{
    Rig rig;
    EXPECT_EQ(rig.fabric.dma(rig.nic, kHostMemory, 500, "in"),
              DmaPath::kHostEndpoint);
    EXPECT_EQ(rig.fabric.dma(kHostMemory, rig.ssd, 300, "out"),
              DmaPath::kHostEndpoint);
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().bytes("in"), 500);
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().bytes("out"), 300);
    EXPECT_EQ(rig.fabric.root_complex_bytes(), 800u);
}

TEST(Fabric, LedgerTagsAccumulate)
{
    Rig rig;
    rig.fabric.dma(rig.nic, kHostMemory, 100, "t");
    rig.fabric.dma(rig.comp, kHostMemory, 50, "t");
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().bytes("t"), 150);
    EXPECT_DOUBLE_EQ(rig.fabric.host_memory().share("t"), 1.0);
}

TEST(Fabric, DeviceInfoAccessible)
{
    Rig rig;
    EXPECT_EQ(rig.fabric.info(rig.nic).name, "nic");
    EXPECT_TRUE(rig.fabric.info(rig.nic).parent == rig.sw0);
}

}  // namespace
}  // namespace fidr::pcie
