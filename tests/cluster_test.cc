#include "topology/cluster.h"

#include <gtest/gtest.h>

#include "topology/presets.h"

namespace p2::topology {
namespace {

TEST(Cluster, A100Preset) {
  const Cluster c = MakeA100Cluster(4);
  EXPECT_EQ(c.num_devices(), 64);
  EXPECT_EQ(c.node.gpus_per_node, 16);
  EXPECT_EQ(c.node.transport, IntraNodeTransport::kNvSwitch);
  EXPECT_EQ(c.node.pcie_domains, 0);
  EXPECT_GT(c.node.local_bandwidth, c.node.nic_bandwidth);
  // Paper hierarchy for 4 A100 nodes: [4 16].
  EXPECT_EQ(c.hierarchy().ToShortString(), "[4 16]");
}

TEST(Cluster, V100Preset) {
  const Cluster c = MakeV100Cluster(2);
  EXPECT_EQ(c.num_devices(), 16);
  EXPECT_EQ(c.node.transport, IntraNodeTransport::kNvLinkRing);
  EXPECT_EQ(c.node.pcie_domains, 2);
  EXPECT_EQ(c.hierarchy().ToShortString(), "[2 8]");
}

TEST(Cluster, NodeAndRank) {
  const Cluster c = MakeV100Cluster(4);
  EXPECT_EQ(c.NodeOf(0), 0);
  EXPECT_EQ(c.NodeOf(7), 0);
  EXPECT_EQ(c.NodeOf(8), 1);
  EXPECT_EQ(c.NodeOf(31), 3);
  EXPECT_EQ(c.LocalRank(13), 5);
}

TEST(Cluster, PcieDomains) {
  const Cluster c = MakeV100Cluster(2);
  EXPECT_EQ(c.node.PcieDomainOf(0), 0);
  EXPECT_EQ(c.node.PcieDomainOf(3), 0);
  EXPECT_EQ(c.node.PcieDomainOf(4), 1);
  EXPECT_EQ(c.node.PcieDomainOf(7), 1);
  const Cluster a = MakeA100Cluster(2);
  EXPECT_EQ(a.node.PcieDomainOf(3), -1);
}

TEST(Cluster, PcieDomainRejectsBadRank) {
  const Cluster c = MakeV100Cluster(2);
  EXPECT_THROW(c.node.PcieDomainOf(8), std::out_of_range);
}

TEST(Cluster, ToStringMentionsShape) {
  const Cluster c = MakeA100Cluster(2);
  EXPECT_NE(c.ToString().find("2 nodes"), std::string::npos);
  EXPECT_NE(c.ToString().find("A100"), std::string::npos);
}

TEST(ClusterFingerprint, EqualForIdenticallyModeledMachines) {
  EXPECT_EQ(MakeA100Cluster(4).Fingerprint(), MakeA100Cluster(4).Fingerprint());
  EXPECT_EQ(MakeRackedA100Cluster(2, 2).Fingerprint(),
            MakeRackedA100Cluster(2, 2).Fingerprint());
}

TEST(ClusterFingerprint, IgnoresTheCosmeticNodeName) {
  // Two clusters differing only in the display name are the same machine to
  // the cost model and the flow simulator; a service must not build two
  // engines for them.
  Cluster a = MakeA100Cluster(4);
  Cluster b = a;
  b.node.name = "A100-renamed";
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(ClusterFingerprint, NormalizesUnreachableParameters) {
  // PCIe figures without PCIe domains, and rack-uplink figures on a
  // single-rack cluster, describe hardware that does not exist.
  Cluster a = MakeA100Cluster(4);  // pcie_domains == 0, racks == 1
  Cluster b = a;
  b.node.pcie_bandwidth = 999.0;
  b.rack_uplink_bandwidth = 123.0;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(ClusterFingerprint, RingNodePcieFiguresCountEvenWithoutDomains) {
  // An NVLink ring node always builds at least one PCIe switch, which carries
  // its cross-node traffic, so 0 domains still leaves the PCIe figures
  // modeled — and 0 and 1 domains build the same network.
  EXPECT_EQ(MakeV100Cluster(2).node.PcieSwitches(), 2);
  Cluster a = MakeV100Cluster(2);
  a.node.pcie_domains = 0;
  EXPECT_EQ(a.node.PcieSwitches(), 1);
  Cluster b = a;
  b.node.pcie_bandwidth = 1.0;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.node.pcie_latency *= 2.0;
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  b = a;
  b.node.pcie_domains = 1;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // On an NVSwitch node the same PCIe figures reach nothing.
  Cluster c = MakeA100Cluster(2);
  Cluster d = c;
  d.node.pcie_domains = 2;
  d.node.pcie_bandwidth = 1.0;
  EXPECT_EQ(d.node.PcieSwitches(), 0);
  EXPECT_EQ(c.Fingerprint(), d.Fingerprint());
}

TEST(ClusterFingerprint, CoversEveryCostParameter) {
  const Cluster base = MakeV100Cluster(4);  // has PCIe domains
  std::vector<Cluster> variants(10, base);
  variants[0].node.gpus_per_node = 4;
  variants[1].node.transport = IntraNodeTransport::kNvSwitch;
  variants[2].node.local_bandwidth += 1.0;
  variants[3].node.local_latency *= 2.0;
  variants[4].node.pcie_bandwidth += 1.0;
  variants[5].node.nic_bandwidth += 0.5;
  variants[6].node.nic_latency *= 2.0;
  variants[7].num_nodes = 8;
  variants[8].dcn_latency *= 2.0;
  variants[9].racks = 2;
  variants[9].rack_uplink_bandwidth = 10.0;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    EXPECT_NE(variants[i].Fingerprint(), base.Fingerprint()) << "variant " << i;
  }
  // And distinct variants are pairwise distinct, too.
  for (std::size_t i = 0; i < variants.size(); ++i) {
    for (std::size_t j = i + 1; j < variants.size(); ++j) {
      EXPECT_NE(variants[i].Fingerprint(), variants[j].Fingerprint())
          << i << " vs " << j;
    }
  }
}

TEST(ClusterFingerprint, RackUplinkMattersOnRackedClusters) {
  const Cluster a = MakeRackedA100Cluster(2, 2, 4.0);
  const Cluster b = MakeRackedA100Cluster(2, 2, 8.0);  // tighter uplinks
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

}  // namespace
}  // namespace p2::topology
