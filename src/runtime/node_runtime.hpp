// NodeRuntime: what the runtime adds to one cluster node's DSM engine — the
// message-passing communicator (sharing the node's channel with the DSM's
// communication thread via disjoint tag classes) and the thread team. The
// DsmNode belongs to whoever built it: dsm::DsmCluster in VirtualCluster,
// ProcessRuntime in a launcher process.
#pragma once

#include <atomic>
#include <functional>
#include <memory>

#include "dsm/node.hpp"
#include "mp/comm.hpp"
#include "runtime/config.hpp"
#include "runtime/context.hpp"
#include "runtime/team.hpp"

namespace parade {

class NodeRuntime {
 public:
  /// `dsm` must be started and outlive this runtime. Starts the team.
  NodeRuntime(dsm::DsmNode& dsm, const RuntimeConfig& config);
  ~NodeRuntime();

  /// Stops the team (idempotent); the DsmNode is its owner's to shut down.
  void shutdown();

  /// Runs `program` as this node's main thread (local thread 0 outside
  /// parallel regions). Installs the thread context for the duration.
  void main_entry(const std::function<void()>& program);

  NodeId node_id() const { return dsm_.rank(); }
  int num_nodes() const { return dsm_.size(); }
  /// The cluster shape every layer of this node was built with.
  const Topology& topology() const { return dsm_.topology(); }
  int threads_per_node() const { return config_.threads_per_node; }
  const RuntimeConfig& config() const { return config_; }

  dsm::DsmNode& dsm() { return dsm_; }
  mp::Comm& comm() { return *comm_; }
  Team& team() { return *team_; }

  /// Virtual time of the node's main thread after main_entry returned.
  VirtualUs final_vtime() const { return final_vtime_; }

  /// Hands out DSM lock ids for the omp_*_lock API. Per-node counter: SPMD
  /// programs initialize locks in the same order everywhere, so ids agree
  /// cluster-wide. Starts at 64, above the translator's critical-name range.
  int allocate_lock_id() {
    return 64 + lock_id_counter_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<int> lock_id_counter_{0};
  RuntimeConfig config_;
  dsm::DsmNode& dsm_;
  std::unique_ptr<mp::Comm> comm_;
  std::unique_ptr<Team> team_;
  VirtualUs final_vtime_ = 0.0;
};

}  // namespace parade
