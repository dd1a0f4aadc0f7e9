#include "dsm/cluster.hpp"

#include <thread>

#include "common/log.hpp"
#include "obs/registry.hpp"

namespace parade::dsm {

DsmCluster::DsmCluster(const Topology& topology, DsmConfig config,
                       const std::optional<net::FaultPlan>& faults)
    : fabric_(topology.nodes, faults) {
  // One registry across the whole in-process cluster: ranks share page
  // frames CoW-style instead of eagerly copying twins.
  auto twins = std::make_shared<TwinRegistry>(config.num_pages(),
                                              config.page_bytes,
                                              topology.nodes);
  nodes_.reserve(static_cast<std::size_t>(topology.nodes));
  for (NodeId rank = 0; rank < topology.nodes; ++rank) {
    auto node = std::make_unique<DsmNode>(topology.with_rank(rank),
                                          fabric_.channel(rank), config);
    node->set_twin_registry(twins);
    Status s = node->start();
    PARADE_CHECK_MSG(s.is_ok(), s.message());
    nodes_.push_back(std::move(node));
  }
}

DsmCluster::~DsmCluster() { shutdown(); }

void DsmCluster::run(const std::function<void(NodeId)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (NodeId rank = 0; rank < size(); ++rank) {
    threads.emplace_back([&fn, rank] {
      logging::set_thread_node_tag(rank);
      fn(rank);
    });
  }
  for (auto& thread : threads) thread.join();
}

void DsmCluster::shutdown() {
  for (auto& node : nodes_) {
    if (node) node->shutdown();
  }
  fabric_.shutdown();
  // Every in-process run (tests, benches, apps) exports here; no-op unless
  // PARADE_METRICS / PARADE_TRACE_OUT are set. Benches that run several
  // clusters re-export with their own label afterwards, which simply
  // overwrites this file with the final state.
  obs::Registry::instance().export_if_configured("dsm_cluster");
}

}  // namespace parade::dsm
