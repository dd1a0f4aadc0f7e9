// DsmCluster: the in-process virtual cluster — N DsmNodes over one
// net::FaultyFabric, each with its own protected pool view, sharing one
// TwinRegistry so twins alias the home's frame copy-on-write. It is the only
// code that builds an in-process cluster: the tests and DSM benches use it
// directly, and VirtualCluster (runtime/cluster.hpp) adds a Comm and a Team
// per rank on top. The parade_run launcher provides the equivalent
// multi-process deployment over SocketFabric.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dsm/node.hpp"
#include "net/faulty.hpp"

namespace parade::dsm {

class DsmCluster {
 public:
  /// The cluster-level Topology (rank ignored) carries the node count and
  /// barrier-tree fan-out; each node gets `topology.with_rank(r)`. Faults
  /// are injected when `faults` is an active plan; by default it is read
  /// from PARADE_FAULT_SEED / PARADE_FAULT_PLAN. Every node is started.
  explicit DsmCluster(
      const Topology& topology, DsmConfig config = {},
      const std::optional<net::FaultPlan>& faults = net::FaultPlan::from_env());
  ~DsmCluster();

  int size() const { return static_cast<int>(nodes_.size()); }
  DsmNode& node(NodeId rank) { return *nodes_[static_cast<std::size_t>(rank)]; }

  /// Runs `fn(rank)` on one fresh thread per node and joins them. Exceptions
  /// escaping `fn` abort (the protocol cannot unwind mid-barrier).
  void run(const std::function<void(NodeId)>& fn);

  /// Orderly teardown: nodes first (their comm threads drain), then the
  /// fabric, then the metrics export (PARADE_METRICS / PARADE_TRACE_OUT).
  /// Idempotent.
  void shutdown();

 private:
  net::FaultyFabric fabric_;
  std::vector<std::unique_ptr<DsmNode>> nodes_;
};

}  // namespace parade::dsm
