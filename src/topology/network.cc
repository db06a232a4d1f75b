#include "topology/network.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

namespace p2::topology {

namespace {
constexpr double kGb = 1e9;
}

int Network::AddVertex() {
  is_gpu_vertex_.push_back(false);
  return num_vertices_++;
}

int Network::AddLink(int src, int dst, double gbps, double latency,
                     double congestion) {
  links_.push_back(Link{src, dst, gbps * kGb, latency, congestion});
  return static_cast<int>(links_.size()) - 1;
}

void Network::AddDuplex(int a, int b, double gbps, double latency,
                        double congestion) {
  AddLink(a, b, gbps, latency, congestion);
  AddLink(b, a, gbps, latency, congestion);
}

int Network::DeviceVertex(int device) const {
  return device_vertex_.at(static_cast<std::size_t>(device));
}

namespace {

// Deterministic per-NIC fabric factor in [0.92, 1.0]: the measured fabric's
// paths are not perfectly uniform (oversubscription, ECMP imbalance).
double FabricFactor(int node) {
  std::uint64_t h = static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ull;
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return 0.92 + 0.08 * static_cast<double>(h % 1000) / 999.0;
}

// Per-extra-flow NIC capacity degradation of the measured network.
constexpr double kNicCongestion = 0.02;

}  // namespace

Network Network::Build(const Cluster& cluster, NetworkFidelity fidelity) {
  Network net;
  const auto& node = cluster.node;
  net.num_devices_ = cluster.num_devices();
  const bool measured = fidelity == NetworkFidelity::kMeasured;

  const int core = net.AddVertex();  // core (data-center) switch

  // Rack switches: with racks > 1 every rack has an oversubscribed uplink
  // to the core shared by all its nodes' cross-rack traffic.
  std::vector<int> rack_switch;
  if (cluster.racks > 1) {
    if (cluster.rack_uplink_bandwidth <= 0.0) {
      throw std::invalid_argument(
          "Network: racked cluster needs rack_uplink_bandwidth");
    }
    for (int r = 0; r < cluster.racks; ++r) {
      const int sw = net.AddVertex();
      net.AddDuplex(sw, core, cluster.rack_uplink_bandwidth,
                    cluster.rack_uplink_latency,
                    measured ? kNicCongestion : 0.0);
      rack_switch.push_back(sw);
    }
  }

  for (int n = 0; n < cluster.num_nodes; ++n) {
    // NICs attach to their rack's switch, or directly to the core.
    const int dc = cluster.racks > 1
                       ? rack_switch[static_cast<std::size_t>(
                             n / cluster.nodes_per_rack())]
                       : core;
    std::vector<int> gpus;
    gpus.reserve(static_cast<std::size_t>(node.gpus_per_node));
    for (int g = 0; g < node.gpus_per_node; ++g) {
      const int v = net.AddVertex();
      net.is_gpu_vertex_[static_cast<std::size_t>(v)] = true;
      net.device_vertex_.push_back(v);
      gpus.push_back(v);
    }
    const int nic = net.AddVertex();
    const double nic_bw =
        measured ? node.nic_bandwidth * FabricFactor(n) : node.nic_bandwidth;
    const double nic_cong = measured ? kNicCongestion : 0.0;
    net.AddDuplex(nic, dc, nic_bw, cluster.dcn_latency, nic_cong);

    if (node.transport == IntraNodeTransport::kNvSwitch) {
      const int sw = net.AddVertex();
      for (int g = 0; g < node.gpus_per_node; ++g) {
        net.AddDuplex(gpus[static_cast<std::size_t>(g)], sw,
                      node.local_bandwidth, node.local_latency);
      }
      net.AddDuplex(sw, nic, node.nic_bandwidth, node.nic_latency, nic_cong);
    } else {
      // Physical NVLink ring.
      for (int g = 0; g < node.gpus_per_node; ++g) {
        const int next = (g + 1) % node.gpus_per_node;
        net.AddDuplex(gpus[static_cast<std::size_t>(g)],
                      gpus[static_cast<std::size_t>(next)],
                      node.local_bandwidth, node.local_latency);
      }
      // PCIe domains, each behind one switch, joined via the shared NIC.
      const int domains = node.PcieSwitches();
      const int per_domain = node.gpus_per_node / domains;
      for (int d = 0; d < domains; ++d) {
        const int sw = net.AddVertex();
        for (int g = d * per_domain; g < (d + 1) * per_domain; ++g) {
          net.AddDuplex(gpus[static_cast<std::size_t>(g)], sw,
                        node.pcie_bandwidth, node.pcie_latency);
        }
        net.AddDuplex(sw, nic, node.nic_bandwidth, node.nic_latency,
                      nic_cong);
      }
    }
  }
  net.ComputeRoutes();
  return net;
}

void Network::ComputeRoutes() {
  // Adjacency.
  std::vector<std::vector<int>> out(static_cast<std::size_t>(num_vertices_));
  for (int l = 0; l < static_cast<int>(links_.size()); ++l) {
    out[static_cast<std::size_t>(links_[static_cast<std::size_t>(l)].src)]
        .push_back(l);
  }

  routes_.assign(
      static_cast<std::size_t>(num_devices_) *
          static_cast<std::size_t>(num_devices_),
      {});

  // Per-source Dijkstra over (hops, inverse-bandwidth sum); GPU vertices are
  // terminal (no transit).
  for (int s = 0; s < num_devices_; ++s) {
    const int sv = DeviceVertex(s);
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::pair<double, double>> dist(
        static_cast<std::size_t>(num_vertices_), {inf, inf});
    std::vector<int> via_link(static_cast<std::size_t>(num_vertices_), -1);
    using Item = std::pair<std::pair<double, double>, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[static_cast<std::size_t>(sv)] = {0.0, 0.0};
    pq.push({{0.0, 0.0}, sv});
    while (!pq.empty()) {
      const auto [d, v] = pq.top();
      pq.pop();
      if (d > dist[static_cast<std::size_t>(v)]) continue;
      // No transit through GPUs other than the source itself.
      if (v != sv && is_gpu_vertex_[static_cast<std::size_t>(v)]) continue;
      for (int l : out[static_cast<std::size_t>(v)]) {
        const Link& link = links_[static_cast<std::size_t>(l)];
        const std::pair<double, double> nd = {d.first + 1.0,
                                              d.second + 1.0 / link.bandwidth};
        if (nd < dist[static_cast<std::size_t>(link.dst)]) {
          dist[static_cast<std::size_t>(link.dst)] = nd;
          via_link[static_cast<std::size_t>(link.dst)] = l;
          pq.push({nd, link.dst});
        }
      }
    }
    for (int t = 0; t < num_devices_; ++t) {
      if (t == s) continue;
      std::vector<int> path;
      int v = DeviceVertex(t);
      while (v != sv) {
        const int l = via_link[static_cast<std::size_t>(v)];
        if (l < 0) throw std::logic_error("Network: disconnected graph");
        path.push_back(l);
        v = links_[static_cast<std::size_t>(l)].src;
      }
      std::reverse(path.begin(), path.end());
      routes_[static_cast<std::size_t>(s) *
                  static_cast<std::size_t>(num_devices_) +
              static_cast<std::size_t>(t)] = std::move(path);
    }
  }
}

const std::vector<int>& Network::PathLinks(int src_device,
                                           int dst_device) const {
  if (src_device == dst_device) {
    throw std::invalid_argument("Network::PathLinks: src == dst");
  }
  return routes_.at(static_cast<std::size_t>(src_device) *
                        static_cast<std::size_t>(num_devices_) +
                    static_cast<std::size_t>(dst_device));
}

}  // namespace p2::topology
