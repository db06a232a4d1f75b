#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/math.h"
#include "topology/network.h"

namespace p2::cost {

namespace {

using core::Collective;
using topology::Cluster;
using topology::Network;

// Bytes each directed ring edge carries for a collective over n members
// whose per-member payload is `s_in` entering and `s_out` leaving the step.
double RingEdgeBytes(Collective op, int n, double s_in, double s_out) {
  const double nn = static_cast<double>(n);
  switch (op) {
    case Collective::kAllReduce:
      return 2.0 * (nn - 1.0) / nn * s_in;
    case Collective::kReduceScatter:
      return (nn - 1.0) / nn * s_in;
    case Collective::kAllGather:
      return (nn - 1.0) / nn * s_out;
    case Collective::kReduce:
      return s_in;  // pipelined chain: every byte traverses each edge once
    case Collective::kBroadcast:
      return s_out;
  }
  return s_in;
}

// Rounds (latency multiplier) of the schedule. A degenerate single-member
// group exchanges nothing: without the guard the ring formulas would charge
// `2*(n-1)`/`n-1` rounds — zero here, but negative garbage for an empty
// group, and the tree path would charge a phantom round — so latency is
// pinned to zero for n <= 1.
int Rounds(Collective op, core::NcclAlgo algo, int n) {
  if (n <= 1) return 0;
  if (algo == core::NcclAlgo::kTree && op != Collective::kReduceScatter &&
      op != Collective::kAllGather) {
    const int d = CeilLog2(n);
    return op == Collective::kAllReduce ? std::max(1, 2 * d) : std::max(1, d);
  }
  switch (op) {
    case Collective::kAllReduce:
      return 2 * (n - 1);
    default:
      return n - 1;
  }
}

// Static per-flow NIC degradation assumed by the model. The physical
// substrate degrades ~2%/flow (topology::Network, measured fidelity); the
// model assumes half of that because statically counted flows overestimate
// how many are simultaneously active.
constexpr double kModelNicCongestion = 0.01;

struct LinkLoads {
  std::vector<double> bytes;
  std::vector<int> flows;

  explicit LinkLoads(const Network& net)
      : bytes(net.links().size(), 0.0), flows(net.links().size(), 0) {}

  void Reset() {
    std::fill(bytes.begin(), bytes.end(), 0.0);
    std::fill(flows.begin(), flows.end(), 0);
  }

  void Charge(const Network& net, int src, int dst, double b) {
    if (src == dst) return;
    for (int l : net.PathLinks(src, dst)) {
      bytes[static_cast<std::size_t>(l)] += b;
      flows[static_cast<std::size_t>(l)] += 1;
    }
  }

  double BottleneckSeconds(const Network& net) const {
    double worst = 0.0;
    for (std::size_t l = 0; l < bytes.size(); ++l) {
      // NIC-class links (identified by their capacity) lose throughput as
      // concurrent flows pile up; see the class comment.
      const bool nic_class =
          net.links()[l].bandwidth <= 20e9;  // NIC/DCN capacity range
      const double degrade =
          nic_class ? 1.0 + kModelNicCongestion * std::max(0, flows[l] - 1)
                    : 1.0;
      worst = std::max(worst, bytes[l] * degrade / net.links()[l].bandwidth);
    }
    return worst;
  }
};

// The cost model's tree shape: GPUs chain inside each node, node heads form
// a *chain* across nodes. (The runtime substrate builds a balanced binary
// tree instead — one of the deliberate fidelity gaps between the two models.)
// `heads` is caller-owned scratch, reused across groups and steps.
void ChargeTree(const Network& net, const Cluster& cluster,
                const std::vector<int>& order, Collective op, double s_in,
                double s_out, LinkLoads& loads, std::vector<int>& heads) {
  const double s = op == Collective::kBroadcast ? s_out : s_in;
  const double factor = op == Collective::kAllReduce ? 2.0 : 1.0;
  heads.clear();
  int prev = -1;
  int prev_node = -1;
  for (int m : order) {
    const int node = cluster.NodeOf(m);
    if (node != prev_node) {
      heads.push_back(m);
      prev_node = node;
    } else {
      // Intra-node chain edge (both directions for AllReduce).
      loads.Charge(net, prev, m, s);
      if (factor > 1.0) loads.Charge(net, m, prev, s);
    }
    prev = m;
  }
  for (std::size_t i = 0; i + 1 < heads.size(); ++i) {
    loads.Charge(net, heads[i], heads[i + 1], s);
    if (factor > 1.0) loads.Charge(net, heads[i + 1], heads[i], s);
  }
}

void ChargeRing(const Network& net, const std::vector<int>& order,
                Collective op, double s_in, double s_out, LinkLoads& loads) {
  const int n = static_cast<int>(order.size());
  const double bytes = RingEdgeBytes(op, n, s_in, s_out);
  for (int i = 0; i < n; ++i) {
    loads.Charge(net, order[static_cast<std::size_t>(i)],
                 order[static_cast<std::size_t>((i + 1) % n)], bytes);
  }
}

double GroupLatency(const Network& net, const std::vector<int>& order) {
  // Worst per-message latency between ring neighbours.
  double alpha = 0.0;
  const int n = static_cast<int>(order.size());
  for (int i = 0; i < n; ++i) {
    const int src = order[static_cast<std::size_t>(i)];
    const int dst = order[static_cast<std::size_t>((i + 1) % n)];
    if (src == dst) continue;
    double lat = 0.0;
    for (int l : net.PathLinks(src, dst)) {
      lat += net.links()[static_cast<std::size_t>(l)].latency;
    }
    alpha = std::max(alpha, lat);
  }
  return alpha;
}

// Scratch buffers of one prediction call. PredictProgram allocates one set
// and reuses it across every step (and every group), so the per-step hot
// loop performs no heap allocation once the buffers have grown; `order`
// holds the group being charged, sorted into ring/chain member order.
struct PredictScratch {
  LinkLoads loads;
  std::vector<int> order;
  std::vector<int> heads;

  explicit PredictScratch(const Network& net) : loads(net) {}
};

double PredictStepImpl(const Network& net, const Cluster& cluster,
                       const core::LoweredStep& step, double payload_bytes,
                       NcclAlgo algo, PredictScratch& scratch) {
  scratch.loads.Reset();
  const double s_in = step.in_fraction * payload_bytes;
  const double s_out = step.out_fraction * payload_bytes;
  const bool ring_only = step.op == Collective::kReduceScatter ||
                         step.op == Collective::kAllGather;
  std::vector<int>& order = scratch.order;
  double latency = 0.0;
  for (const auto& group : step.groups) {
    order.clear();
    for (std::int64_t d : group) order.push_back(static_cast<int>(d));
    std::sort(order.begin(), order.end());

    if (algo == NcclAlgo::kRing || ring_only) {
      ChargeRing(net, order, step.op, s_in, s_out, scratch.loads);
    } else {
      ChargeTree(net, cluster, order, step.op, s_in, s_out, scratch.loads,
                 scratch.heads);
    }
    const int n = static_cast<int>(order.size());
    latency = std::max(latency,
                       Rounds(step.op, algo, n) * GroupLatency(net, order));
  }
  return scratch.loads.BottleneckSeconds(net) + latency;
}

}  // namespace


CostModel::CostModel(topology::Cluster cluster)
    : cluster_(std::move(cluster)),
      network_(std::make_shared<topology::Network>(
          topology::Network::Build(cluster_))) {}

double CostModel::PredictStep(const core::LoweredStep& step,
                              double payload_bytes, NcclAlgo algo) const {
  PredictScratch scratch(*network_);
  return PredictStepImpl(*network_, cluster_, step, payload_bytes, algo,
                         scratch);
}

double CostModel::PredictProgram(const core::LoweredProgram& program,
                                 double payload_bytes, NcclAlgo algo) const {
  PredictScratch scratch(*network_);
  double total = 0.0;
  for (const auto& step : program.steps) {
    total += PredictStepImpl(*network_, cluster_, step, payload_bytes, algo,
                             scratch);
  }
  return total;
}

}  // namespace p2::cost
