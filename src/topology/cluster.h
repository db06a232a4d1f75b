// GPU cluster models matching the paper's Figure 9 systems: a node model
// (intra-node transports) replicated `num_nodes` times over a data-center
// network. Consumed by both the analytic cost model (src/cost) and the
// flow-level runtime substrate (src/runtime).
#ifndef P2_TOPOLOGY_CLUSTER_H_
#define P2_TOPOLOGY_CLUSTER_H_

#include <cstdint>
#include <string>

#include "topology/system.h"

namespace p2::topology {

/// How GPUs inside one node talk to each other.
enum class IntraNodeTransport {
  kNvSwitch,    // every GPU has full-bandwidth access to a shared switch (A100)
  kNvLinkRing,  // GPUs form a physical ring; subgroups fall back to PCIe (V100)
};

const char* ToString(IntraNodeTransport t);

/// One machine. Bandwidths are GB/s for a single direction; latencies are
/// seconds per message hop.
struct GpuNodeModel {
  std::string name;
  int gpus_per_node = 8;
  IntraNodeTransport transport = IntraNodeTransport::kNvSwitch;

  double local_bandwidth = 270.0;  ///< per-GPU local link, one direction
  double local_latency = 2e-6;

  /// PCIe fallback domains (V100: 2 domains of gpus_per_node/2 GPUs behind one
  /// PCIe switch each). 0 means none on an NVSwitch node (A100-style); an
  /// NVLink ring node always has at least one (see PcieSwitches).
  int pcie_domains = 0;
  double pcie_bandwidth = 32.0;  ///< per-domain switch capacity, shared
  double pcie_latency = 5e-6;

  /// One NIC per node; its capacity is shared by every flow entering or
  /// leaving the node (and, for V100, by cross-PCIe-domain traffic —
  /// the paper's Fig. 9b modeling simplification).
  double nic_bandwidth = 7.5;  ///< 100 Gbps at 60% utilization ~ 7.5 GB/s
  double nic_latency = 1e-5;

  int PcieDomainOf(int local_rank) const;

  /// PCIe switches the node's network has (topology::Network::Build): none
  /// on an NVSwitch node, and max(1, pcie_domains) on an NVLink ring node,
  /// whose cross-node traffic crosses them.
  int PcieSwitches() const;
};

/// The largest node count a planner input may name: the tools' `--nodes`
/// and `--topology` flags, and the wire decoder's presets and clusters.
inline constexpr int kMaxNodes = 1 << 16;

/// A homogeneous cluster: `num_nodes` copies of `node` on a data-center
/// fabric. With `racks == 1` the fabric is non-blocking (per-path capacity =
/// NIC capacity; the NIC is the bottleneck, as in the paper's systems).
/// With `racks > 1` the nodes are distributed evenly over racks whose
/// uplinks to the core switch have `rack_uplink_bandwidth` capacity shared
/// by all cross-rack traffic of the rack — the classic oversubscribed
/// data-center topology, and a third hierarchy level for P2 to exploit.
struct Cluster {
  GpuNodeModel node;
  int num_nodes = 2;
  double dcn_latency = 2.5e-5;

  int racks = 1;
  double rack_uplink_bandwidth = 0.0;  ///< required when racks > 1
  double rack_uplink_latency = 5e-5;

  int num_devices() const { return num_nodes * node.gpus_per_node; }
  int NodeOf(int device) const { return device / node.gpus_per_node; }
  int LocalRank(int device) const { return device % node.gpus_per_node; }
  int nodes_per_rack() const { return num_nodes / racks; }
  int RackOf(int device) const { return NodeOf(device) / nodes_per_rack(); }

  /// The hierarchy the paper uses for these systems: [(node, N), (gpu, G)],
  /// or [(rack, R), (node, N/R), (gpu, G)] for racked clusters.
  SystemHierarchy hierarchy() const;

  /// Canonical identity of the *modeled* machine: every parameter the cost
  /// model or the runtime substrate reads, and nothing cosmetic. Two
  /// clusters with equal fingerprints produce identical plans for any
  /// query, so the planning service keys its engine registry by it
  /// (engine/service.h). Properties:
  ///   - renumbering/labelling-stable: the node `name` is display-only and
  ///     excluded, and parameters that cannot affect any plan are
  ///     normalized away (PCIe figures when the node has no PCIe switches,
  ///     rack uplink figures when there is a single rack), and a ring
  ///     node's 0 and 1 PCIe domains, which build one network, are equal;
  ///   - cost-parameter-aware: every bandwidth and latency is rendered with
  ///     %.17g, so distinct values never collide.
  std::string Fingerprint() const;

  std::string ToString() const;
};

}  // namespace p2::topology

#endif  // P2_TOPOLOGY_CLUSTER_H_
