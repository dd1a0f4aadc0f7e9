// Top-level runners.
//
// VirtualCluster: the default substrate — N nodes in one process. It is a
// dsm::DsmCluster (fabric, fault injection from PARADE_FAULT_*, shared twin
// registry, node threads, ordered shutdown and metrics export) plus one
// NodeRuntime (Comm + Team) per rank. exec() runs the same program on every
// node's main thread (redundant serial execution) and reports the slowest
// node's virtual time, which is what the figure benches plot as "execution
// time".
//
// ProcessRuntime: one node per OS process over Unix-domain sockets; created
// from the PARADE_RANK / PARADE_SIZE / PARADE_SOCKDIR environment the
// parade_run launcher sets up. It owns its one DsmNode.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsm/cluster.hpp"
#include "net/faulty.hpp"
#include "net/socket.hpp"
#include "runtime/node_runtime.hpp"

namespace parade {

class VirtualCluster {
 public:
  explicit VirtualCluster(const RuntimeConfig& config);

  int size() const { return dsm_.size(); }
  NodeRuntime& node(NodeId rank) { return *nodes_[static_cast<std::size_t>(rank)]; }

  /// Runs `program` on every node's main thread; returns the maximum final
  /// virtual time across nodes (µs).
  VirtualUs exec(const std::function<void()>& program);

  /// Stops the teams, then shuts the DsmCluster down. Idempotent; the
  /// destructor tears down in the same order (members in reverse).
  void shutdown();

 private:
  dsm::DsmCluster dsm_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

class ProcessRuntime {
 public:
  /// Builds the node from PARADE_RANK / PARADE_SIZE / PARADE_SOCKDIR (plus
  /// the usual runtime_config_from_env knobs).
  static Result<std::unique_ptr<ProcessRuntime>> from_env();
  ~ProcessRuntime();

  NodeRuntime& node() { return *node_; }

  /// Runs the program on this process's node; returns its final virtual time.
  VirtualUs exec(const std::function<void()>& program);

 private:
  ProcessRuntime() = default;
  std::unique_ptr<net::SocketFabric> fabric_;
  /// Fault decorator over the socket fabric (PARADE_FAULT_*); null when
  /// faults are disabled.
  std::unique_ptr<net::FaultyChannel> faulty_;
  std::unique_ptr<dsm::DsmNode> dsm_;
  std::unique_ptr<NodeRuntime> node_;
};

/// One-call helper for the figure benches: build a virtual cluster with
/// `config`, run `program`, tear down, return max virtual time in seconds.
double run_virtual_cluster_s(const RuntimeConfig& config,
                             const std::function<void()>& program);

}  // namespace parade
