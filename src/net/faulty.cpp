#include "net/faulty.hpp"

#include <string>
#include <utility>

namespace parade::net {

FaultyChannel::FaultyChannel(Channel& inner, const FaultPlan& plan,
                             std::shared_ptr<std::atomic<std::int64_t>> epoch)
    : Channel(inner.rank(), inner.size()),
      inner_(inner),
      plan_(plan),
      epoch_(epoch ? std::move(epoch)
                   : std::make_shared<std::atomic<std::int64_t>>(0)) {
  links_.reserve(static_cast<std::size_t>(inner.size()));
  for (NodeId dst = 0; dst < inner.size(); ++dst) {
    auto link = std::make_unique<LinkState>();
    link->rng = LinkRng(plan_.seed, rank_, dst);
    links_.push_back(std::move(link));
  }
  auto& reg = obs::Registry::instance();
  metrics_.injected = &reg.counter(rank_, "net.fault.injected");
  metrics_.dropped = &reg.counter(rank_, "net.fault.dropped");
  metrics_.partition_dropped = &reg.counter(rank_, "net.fault.partition_dropped");
  metrics_.duplicated = &reg.counter(rank_, "net.fault.duplicated");
  metrics_.reordered = &reg.counter(rank_, "net.fault.reordered");
  metrics_.delayed = &reg.counter(rank_, "net.fault.delayed");
}

bool FaultyChannel::link_partitioned(NodeId dst,
                                     std::uint64_t msg_index) const {
  for (const PartitionEvent& event : plan_.partitions) {
    const bool on_link = (event.a == rank_ && event.b == dst) ||
                         (event.a == dst && event.b == rank_);
    if (!on_link) continue;
    const std::uint64_t position =
        event.by_epoch ? static_cast<std::uint64_t>(
                             epoch_->load(std::memory_order_relaxed))
                       : msg_index;
    if (position >= event.start && (!event.heal || position < *event.heal)) {
      return true;
    }
  }
  return false;
}

Status FaultyChannel::send(NodeId dst, Tag tag,
                           std::vector<std::uint8_t> payload, VirtualUs vtime) {
  // Self-delivery is a process-local queue hop with no loss model, and it
  // carries the shutdown message — never perturb it.
  if (!plan_.active() || dst == rank_) {
    return inner_.send(dst, tag, std::move(payload), vtime);
  }

  struct Outgoing {
    Tag tag;
    std::vector<std::uint8_t> payload;
    VirtualUs vtime;
  };
  std::vector<Outgoing> forward;
  {
    std::lock_guard lock(mutex_);
    PARADE_CHECK_MSG(dst >= 0 && dst < size_, "send to invalid rank");
    LinkState& link = *links_[static_cast<std::size_t>(dst)];
    const std::uint64_t index = link.msg_count++;
    // Epoch probe: each barrier departure the master forwards to rank 1
    // closes one epoch (see net/fault.hpp).
    if (rank_ == 0 && dst == 1 && tag == kFaultEpochProbeTag) {
      epoch_->fetch_add(1, std::memory_order_relaxed);
    }
    // Fixed draw schedule keeps the link stream aligned across plans.
    const double roll_drop = link.rng.draw();
    const double roll_delay = link.rng.draw();
    const double roll_reorder = link.rng.draw();
    const double roll_dup = link.rng.draw();

    if (link_partitioned(dst, index)) {
      metrics_.injected->add();
      metrics_.dropped->add();
      metrics_.partition_dropped->add();
      return Status::ok();  // lost on the wire; the sender cannot tell
    }
    if (roll_drop < plan_.drop_p) {
      metrics_.injected->add();
      metrics_.dropped->add();
      return Status::ok();
    }
    VirtualUs stamped = vtime;
    if (roll_delay < plan_.delay_p) {
      stamped += link.rng.draw() * plan_.delay_max_us;
      metrics_.injected->add();
      metrics_.delayed->add();
    }
    if (!link.stash && roll_reorder < plan_.reorder_p) {
      // Hold this message back until the link's next send overtakes it.
      MessageHeader header;
      header.src = rank_;
      header.dst = dst;
      header.tag = tag;
      header.vtime = stamped;
      link.stash = Message(header, std::move(payload));
      metrics_.injected->add();
      metrics_.reordered->add();
      return Status::ok();
    }
    forward.push_back({tag, payload, stamped});
    if (roll_dup < plan_.dup_p) {
      metrics_.injected->add();
      metrics_.duplicated->add();
      forward.push_back({tag, payload, stamped});
    }
    if (link.stash) {
      forward.push_back({link.stash->header.tag, std::move(link.stash->payload),
                         link.stash->header.vtime});
      link.stash.reset();
    }
  }

  Status result = Status::ok();
  for (Outgoing& out : forward) {
    Status s = inner_.send(dst, out.tag, std::move(out.payload), out.vtime);
    if (!s.is_ok()) result = s;
  }
  return result;
}

FaultyFabric::FaultyFabric(int size, const std::optional<FaultPlan>& plan)
    : inner_(size) {
  if (!plan || !plan->active()) return;
  auto epoch = std::make_shared<std::atomic<std::int64_t>>(0);
  channels_.reserve(static_cast<std::size_t>(size));
  for (NodeId rank = 0; rank < size; ++rank) {
    channels_.push_back(
        std::make_unique<FaultyChannel>(inner_.channel(rank), *plan, epoch));
  }
}

Channel& FaultyFabric::channel(NodeId rank) {
  PARADE_CHECK(rank >= 0 && rank < size());
  if (channels_.empty()) return inner_.channel(rank);
  return *channels_[static_cast<std::size_t>(rank)];
}

}  // namespace parade::net
