#include "runtime/cluster.hpp"

#include <algorithm>

#include "common/env.hpp"
#include "obs/registry.hpp"

namespace parade {

VirtualCluster::VirtualCluster(const RuntimeConfig& config)
    : dsm_(Topology::cluster(config.nodes, config.barrier_fanout), config.dsm) {
  nodes_.reserve(static_cast<std::size_t>(config.nodes));
  for (NodeId rank = 0; rank < config.nodes; ++rank) {
    nodes_.push_back(std::make_unique<NodeRuntime>(dsm_.node(rank), config));
  }
}

VirtualUs VirtualCluster::exec(const std::function<void()>& program) {
  dsm_.run([&](NodeId rank) { node(rank).main_entry(program); });
  VirtualUs slowest = 0.0;
  for (auto& node : nodes_) slowest = std::max(slowest, node->final_vtime());
  return slowest;
}

void VirtualCluster::shutdown() {
  for (auto& node : nodes_) node->shutdown();
  dsm_.shutdown();
}

Result<std::unique_ptr<ProcessRuntime>> ProcessRuntime::from_env() {
  const auto rank = env::get_int("PARADE_RANK");
  const auto size = env::get_int("PARADE_SIZE");
  const auto dir = env::get_string("PARADE_SOCKDIR");
  if (!rank || !size || !dir) {
    return make_error(ErrorCode::kFailedPrecondition,
                      "PARADE_RANK/PARADE_SIZE/PARADE_SOCKDIR not set (run "
                      "under parade_run)");
  }
  auto fabric = net::SocketFabric::create(static_cast<NodeId>(*rank),
                                          static_cast<int>(*size), *dir);
  if (!fabric.is_ok()) return fabric.status();

  auto runtime = std::unique_ptr<ProcessRuntime>(new ProcessRuntime());
  runtime->fabric_ = std::move(fabric).value();
  RuntimeConfig config = runtime_config_from_env();
  config.nodes = static_cast<int>(*size);
  net::Channel* channel = runtime->fabric_.get();
  if (const auto faults = net::FaultPlan::from_env();
      faults && faults->active()) {
    runtime->faulty_ =
        std::make_unique<net::FaultyChannel>(*runtime->fabric_, *faults);
    channel = runtime->faulty_.get();
  }
  runtime->dsm_ = std::make_unique<dsm::DsmNode>(
      Topology{static_cast<NodeId>(*rank), config.nodes, config.barrier_fanout},
      *channel, config.dsm);
  if (Status s = runtime->dsm_->start(); !s) return s;
  runtime->node_ = std::make_unique<NodeRuntime>(*runtime->dsm_, config);
  return runtime;
}

ProcessRuntime::~ProcessRuntime() {
  if (node_) node_->shutdown();
  if (dsm_) dsm_->shutdown();
  if (fabric_) fabric_->shutdown();
  // Rank-suffixed under PARADE_RANK, so launcher processes do not clobber
  // one another's exports.
  obs::Registry::instance().export_if_configured("process_runtime");
}

VirtualUs ProcessRuntime::exec(const std::function<void()>& program) {
  node_->main_entry(program);
  return node_->final_vtime();
}

double run_virtual_cluster_s(const RuntimeConfig& config,
                             const std::function<void()>& program) {
  VirtualCluster cluster(config);
  const VirtualUs us = cluster.exec(program);
  cluster.shutdown();
  return us / 1e6;
}

}  // namespace parade
