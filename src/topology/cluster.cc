#include "topology/cluster.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace p2::topology {

const char* ToString(IntraNodeTransport t) {
  switch (t) {
    case IntraNodeTransport::kNvSwitch:
      return "NVSwitch";
    case IntraNodeTransport::kNvLinkRing:
      return "NVLinkRing";
  }
  return "?";
}

int GpuNodeModel::PcieDomainOf(int local_rank) const {
  if (pcie_domains <= 0) return -1;
  if (local_rank < 0 || local_rank >= gpus_per_node) {
    throw std::out_of_range("GpuNodeModel::PcieDomainOf: bad rank");
  }
  const int per_domain = gpus_per_node / pcie_domains;
  return local_rank / per_domain;
}

int GpuNodeModel::PcieSwitches() const {
  return transport == IntraNodeTransport::kNvLinkRing
             ? std::max(1, pcie_domains)
             : 0;
}

SystemHierarchy Cluster::hierarchy() const {
  if (racks > 1) {
    if (num_nodes % racks != 0) {
      throw std::invalid_argument("Cluster: racks must divide num_nodes");
    }
    return SystemHierarchy({Level{"rack", racks},
                            Level{"node", num_nodes / racks},
                            Level{"gpu", node.gpus_per_node}});
  }
  return SystemHierarchy({Level{"node", num_nodes},
                          Level{"gpu", node.gpus_per_node}});
}

std::string Cluster::Fingerprint() const {
  // %.17g round-trips doubles exactly: clusters differing in any modeled
  // bandwidth or latency get distinct fingerprints.
  const auto f = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  std::ostringstream os;
  os << "gpu=" << node.gpus_per_node << ':'
     << topology::ToString(node.transport) << ";local=" << f(node.local_bandwidth)
     << ',' << f(node.local_latency);
  // Parameters that cannot reach the cost model or the flow simulator are
  // normalized away, not serialized: the PCIe figures of a node without PCIe
  // switches and a single-rack cluster's uplink figures describe hardware
  // that does not exist, so clusters differing only there are the same
  // machine.
  if (node.PcieSwitches() > 0) {
    os << ";pcie=" << node.PcieSwitches() << ',' << f(node.pcie_bandwidth)
       << ',' << f(node.pcie_latency);
  }
  os << ";nic=" << f(node.nic_bandwidth) << ',' << f(node.nic_latency)
     << ";nodes=" << num_nodes << ";dcn=" << f(dcn_latency);
  if (racks > 1) {
    os << ";racks=" << racks << ',' << f(rack_uplink_bandwidth) << ','
       << f(rack_uplink_latency);
  }
  return os.str();
}

std::string Cluster::ToString() const {
  std::ostringstream os;
  if (racks > 1) os << racks << " racks of ";
  os << (racks > 1 ? nodes_per_rack() : num_nodes) << " nodes, each with "
     << node.gpus_per_node << ' ' << node.name << " ("
     << topology::ToString(node.transport) << ")";
  return os.str();
}

}  // namespace p2::topology
