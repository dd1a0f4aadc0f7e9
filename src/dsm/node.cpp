#include "dsm/node.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "common/log.hpp"
#include "dsm/diff.hpp"
#include "dsm/notice.hpp"
#include "dsm/rules.hpp"
#include "dsm/sigsegv.hpp"
#include "obs/hist.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::dsm {

// ---------------------------------------------------------------------------
// Runtime invariant checking (PARADE_CHECKED): the protocol rules consulted
// below are pure functions (dsm/rules.hpp) shared with the model checker;
// these hooks re-assert their preconditions in the live engine and surface
// violations as `dsm.invariant.violations` instead of aborting, so chaos
// runs can finish and report every violation they hit.

void DsmNode::check_invariant(bool ok, const char* invariant, PageId page) {
#ifdef PARADE_CHECKED
  if (ok) return;
  if (invariant_violations_ != nullptr) invariant_violations_->add(1);
  PLOG_ERROR("DSM invariant violated: " << invariant << " (page " << page
                                        << ")");
  // Dump the trace ring while the evidence is still in it.
  obs::Registry::instance().flight_record(std::string("dsm.invariant.") +
                                          invariant);
#else
  (void)ok;
  (void)invariant;
  (void)page;
#endif
}

void DsmNode::set_state(PageEntry& entry, PageId page, PageState to) {
  check_invariant(rules::transition_allowed(entry.state, to), "fig5.edge",
                  page);
  entry.state = to;
}

// ---------------------------------------------------------------------------
// Critical-section dirty tracking (thread-local; a thread belongs to exactly
// one node, and page ids are node-relative).
namespace cs_tracking {
namespace {
thread_local int t_depth = 0;
thread_local std::vector<PageId> t_pages;
}  // namespace

void begin() { ++t_depth; }

void note_page(PageId page) {
  if (t_depth > 0) t_pages.push_back(page);
}

std::vector<PageId> end() {
  if (t_depth > 0) --t_depth;
  std::vector<PageId> pages;
  pages.swap(t_pages);
  return pages;
}

bool active() { return t_depth > 0; }
}  // namespace cs_tracking

// ---------------------------------------------------------------------------

DsmNode::DsmNode(const Topology& topology, net::Channel& channel,
                 DsmConfig config)
    : channel_(channel),
      topo_(topology),
      config_(config),
      stats_(topology.rank) {
  PARADE_CHECK_MSG(topo_.valid(), "invalid topology");
  PARADE_CHECK_MSG(topo_.rank == channel.rank() &&
                       topo_.nodes == channel.size(),
                   "topology disagrees with channel rank/size");
}

void DsmNode::set_twin_registry(std::shared_ptr<TwinRegistry> twins) {
  PARADE_CHECK_MSG(!started_, "set_twin_registry after start");
  twins_ = std::move(twins);
}

void DsmNode::post(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
                   VirtualUs vtime) {
  Status s = channel_.send(dst, tag, std::move(payload), vtime);
  if (!s.is_ok()) {
    PLOG_WARN("dsm send tag " << tag << " to node " << dst
                              << " dropped: " << s.to_string());
  }
}

template <typename WaitOnce, typename Resend>
void DsmNode::retry(const char* what, WaitOnce wait_once, Resend resend) {
  const Status s = config_.retry.run("dsm.partition", wait_once, resend);
  PARADE_CHECK_MSG(s.is_ok(), std::string(what) + ": " + s.message());
}

template <typename Accept, typename Resend>
void DsmNode::await(Tag tag, const char* what, Accept accept, Resend resend) {
  const net::Mailbox::Matcher match = [tag](const net::MessageHeader& h) {
    return h.tag == tag;
  };
  retry(
      what,
      [&](std::chrono::milliseconds timeout) {
        for (;;) {
          auto msg = channel_.inbox().recv_match_for(match, timeout);
          if (!msg.has_value()) {
            return channel_.inbox().closed() ? net::WaitOutcome::kClosed
                                             : net::WaitOutcome::kTimedOut;
          }
          if (accept(*msg)) return net::WaitOutcome::kDone;
        }
      },
      resend);
}

DsmNode::~DsmNode() { shutdown(); }

Status DsmNode::start() {
  PARADE_CHECK_MSG(!started_, "DsmNode already started");
  // Fresh metrics per cluster run: tests and benches build consecutive
  // virtual clusters in one process and assert exact protocol counts.
  obs::Registry::instance().reset_node(rank());
  invariant_violations_ =
      &obs::Registry::instance().counter(rank(), "dsm.invariant.violations");
  fetch_hist_ = &obs::Registry::instance().hist(rank(), "dsm.fetch_ns");
  lock_grant_hist_ =
      &obs::Registry::instance().hist(rank(), "dsm.lock_grant_ns");
  barrier_wait_hist_ =
      &obs::Registry::instance().hist(rank(), "dsm.barrier_wait_ns");
  auto mapping = SegmentPool::create(config_.pool_bytes, config_.page_bytes,
                                     config_.map_method);
  if (!mapping.is_ok()) return mapping.status();
  mapping_ = std::move(mapping).value();
  if (twins_ == nullptr) {
    // Solo registry (standalone node / socket fabric): no peer pool is ever
    // visible, so every twin privatizes eagerly — the safe degenerate mode.
    twins_ = std::make_shared<TwinRegistry>(config_.num_pages(),
                                            config_.page_bytes, size());
  }
  twins_->register_pool(rank(), mapping_.get());

  pages_ = std::make_unique<PageTable>(config_.num_pages(), /*initial_home=*/0);
  if (!config_.sharded_homes) {
    if (rank() == 0) {
      // The master starts as home of every page with a zero-filled, readable
      // copy; everyone else faults pages in on first access.
      if (Status s = mapping_->protect_app(0, config_.pool_bytes, PROT_READ);
          !s) {
        return s;
      }
      for (std::size_t p = 0; p < config_.num_pages(); ++p) {
        pages_->entry(static_cast<PageId>(p)).state = PageState::kReadOnly;
      }
    }
  } else {
    // Sharded directory: homes stripe round-robin (rules::default_home), so
    // every node seeds its own shard with a zero-filled, readable copy and
    // first-touch traffic spreads instead of storming node 0.
    for (std::size_t p = 0; p < config_.num_pages(); ++p) {
      const PageId page = static_cast<PageId>(p);
      PageEntry& entry = pages_->entry(page);
      entry.home = rules::default_home(page, size(), /*sharded=*/true);
      if (entry.home != rank()) continue;
      if (Status s = mapping_->protect_app(p * config_.page_bytes,
                                           config_.page_bytes, PROT_READ);
          !s) {
        return s;
      }
      entry.state = PageState::kReadOnly;
    }
  }

  // Project the translator's static protocol priors onto pages before the
  // first fault. Phased (epoch-ranged) priors are re-projected at each
  // barrier epoch (see project_priors / barrier()).
  for (const PagePrior& prior : config_.page_priors) {
    if (prior.phase < 0) continue;
    has_phased_priors_ = true;
    if (prior.phase > max_prior_phase_) max_prior_phase_ = prior.phase;
  }
  project_priors(epoch_);

  sigsegv::ensure_installed();
  sigsegv::register_range(mapping_->app_view(), config_.pool_bytes, this);
  comm_thread_ = std::thread([this] { comm_loop(); });
  started_ = true;
  return Status::ok();
}

void DsmNode::project_priors(Epoch epoch) {
  // Effective phase: epochs past the last phased prior keep the final
  // phase's projection (the translator's timeline ended; the tail of the
  // program keeps behaving like its last phase).
  const int effective =
      has_phased_priors_
          ? static_cast<int>(std::min<Epoch>(epoch, max_prior_phase_))
          : -1;
  if (effective == projected_phase_ && !prior_pin_home_.empty()) return;

  const std::size_t npages = config_.num_pages();
  prior_pin_home_.assign(npages, false);
  prior_update_.assign(npages, false);
  std::vector<bool> covered(npages, false);
  std::vector<bool> phased(npages, false);
  auto for_each_page = [&](const PagePrior& prior, auto&& fn) {
    const std::size_t first = prior.offset / config_.page_bytes;
    const std::size_t last =
        (prior.offset + prior.bytes - 1) / config_.page_bytes;
    for (std::size_t p = first; p <= last && p < npages; ++p) fn(p);
  };
  // Pass 1: whole-program priors (the sidecar's per-symbol records) apply at
  // every epoch.
  for (const PagePrior& prior : config_.page_priors) {
    if (prior.bytes == 0 || prior.phase >= 0) continue;
    for_each_page(prior, [&](std::size_t p) {
      covered[p] = true;
      if (!prior.migration_friendly) prior_pin_home_[p] = true;
      if (prior.prefer_update) prior_update_[p] = true;
    });
  }
  // Pass 2: priors of the current effective phase override. A page covered
  // by at least one current-phase prior takes its flags from the phase
  // projection only — a phase record may relax a whole-program pin (e.g. a
  // symbol that ping-pongs overall but has a sole writer this phase).
  for (const PagePrior& prior : config_.page_priors) {
    if (prior.bytes == 0 || prior.phase < 0 || prior.phase != effective) {
      continue;
    }
    for_each_page(prior, [&](std::size_t p) {
      if (!phased[p]) {
        phased[p] = true;
        prior_pin_home_[p] = false;
        prior_update_[p] = false;
      }
      covered[p] = true;
      if (!prior.migration_friendly) prior_pin_home_[p] = true;
      if (prior.prefer_update) prior_update_[p] = true;
    });
  }
  std::size_t seeded = 0;
  for (std::size_t p = 0; p < npages; ++p) {
    if (covered[p]) ++seeded;
  }
  stats_.inc_prior_seeded_pages(seeded);
  projected_phase_ = effective;
}

void DsmNode::shutdown() {
  if (!started_) return;
  started_ = false;
  // Benign failure: the comm thread may already have exited on mailbox close.
  (void)channel_.send(rank(), kTagShutdown, {}, 0.0);
  if (comm_thread_.joinable()) comm_thread_.join();
  // Withdraw the pool from the twin registry before the frames can unmap:
  // surviving ranks holding CoW aliases into them get private copies.
  if (twins_ != nullptr) twins_->unregister_pool(rank());
  sigsegv::unregister_range(mapping_->app_view());
}

void* DsmNode::shmalloc(std::size_t bytes, std::size_t align) {
  std::lock_guard lock(alloc_mutex_);
  PARADE_CHECK_MSG(align > 0 && (align & (align - 1)) == 0,
                   "alignment must be a power of two");
  alloc_offset_ = (alloc_offset_ + align - 1) & ~(align - 1);
  PARADE_CHECK_MSG(alloc_offset_ + bytes <= config_.pool_bytes,
                   "shared pool exhausted");
  void* p = mapping_->app_view() + alloc_offset_;
  alloc_offset_ += bytes;
  return p;
}

std::size_t DsmNode::offset_of(const void* p) const {
  const auto* byte_ptr = static_cast<const std::byte*>(p);
  PARADE_CHECK(byte_ptr >= mapping_->app_view() &&
               byte_ptr < mapping_->app_view() + config_.pool_bytes);
  return static_cast<std::size_t>(byte_ptr - mapping_->app_view());
}

std::byte* DsmNode::sys_page(PageId page) const {
  return mapping_->real_address(View::kSys, page, 0);
}

void DsmNode::protect(PageId page, int prot) {
  Status s = mapping_->protect_app(
      static_cast<std::size_t>(page) * config_.page_bytes, config_.page_bytes,
      prot);
  PARADE_CHECK_MSG(s.is_ok(), s.message());
}

// ---------------------------------------------------------------------------
// Fault path

bool DsmNode::handle_fault(void* addr, bool is_write) {
  const auto* byte_ptr = static_cast<const std::byte*>(addr);
  if (byte_ptr < mapping_->app_view() ||
      byte_ptr >= mapping_->app_view() + config_.pool_bytes) {
    return false;
  }
  const PageId page = static_cast<PageId>(
      static_cast<std::size_t>(byte_ptr - mapping_->app_view()) /
      config_.page_bytes);
  PageEntry& entry = pages_->entry(page);
  std::unique_lock lock(entry.mutex);

  if (is_write) {
    stats_.inc_write_faults();
  } else {
    stats_.inc_read_faults();
  }

  for (;;) {
    switch (rules::fault_action(entry.state, is_write)) {
      case rules::FaultAction::kStartFetch:
        fetch_page(page, lock, entry);
        continue;  // re-dispatch (a write fault still needs the upgrade)

      case rules::FaultAction::kJoinWaiters:
        set_state(entry, page, PageState::kBlocked);
        [[fallthrough]];
      case rules::FaultAction::kWaitForFetch:
        entry.cv.wait(lock, [&] {
          return entry.state == PageState::kReadOnly ||
                 entry.state == PageState::kDirty;
        });
        if (auto* clock = vtime::thread_clock()) {
          clock->sync_cpu();
          clock->merge(entry.ready_vtime);
        }
        continue;

      case rules::FaultAction::kUpgradeToDirty:
        upgrade_to_dirty(page, entry);
        return true;

      case rules::FaultAction::kDone:
        return true;
    }
  }
}

void DsmNode::fetch_page(PageId page, std::unique_lock<std::mutex>& lock,
                         PageEntry& entry) {
  set_state(entry, page, PageState::kTransient);
  const NodeId home = entry.home;
  PARADE_CHECK_MSG(home != rank(), "home node must never fault INVALID");
  const std::uint32_t seq = ++entry.fetch_seq;
  lock.unlock();

  stats_.inc_page_fetches();
  // Root span of the fetch trace: the request below carries its context, so
  // the home's page_serve span (and the reply's delivery) link back here.
  // Inert when tracing is off — the fault fast path gains no atomics.
  obs::ScopedSpan span(obs::TraceKind::kPageFault, rank(),
                       static_cast<Tag>(page));
  obs::ScopedHistTimer fetch_scope(fetch_hist_);
  const VirtualUs stamp = vtime::charge_send(config_.net.send_overhead_us);
  const auto payload = codec<PageRequestMsg>::encode({page, seq});
  post(home, kTagPageRequest, payload, stamp);

  lock.lock();
  // Only the thread that initiated the fetch retransmits; threads that piled
  // up behind it (BLOCKED) wait indefinitely — the fetcher either succeeds
  // and wakes them or aborts the process.
  const auto ready = [&] {
    return entry.state == PageState::kReadOnly ||
           entry.state == PageState::kDirty;
  };
  retry(
      "page fetch",
      [&](std::chrono::milliseconds timeout) {
        return entry.cv.wait_for(lock, timeout, ready)
                   ? net::WaitOutcome::kDone
                   : net::WaitOutcome::kTimedOut;
      },
      [&] {
        stats_.inc_retries();
        lock.unlock();
        post(home, kTagPageRequest, payload, stamp);
        lock.lock();
      });
  if (auto* clock = vtime::thread_clock()) {
    clock->sync_cpu();
    clock->merge(entry.ready_vtime);
  }
}

void DsmNode::upgrade_to_dirty(PageId page, PageEntry& entry) {
  if (rules::needs_twin(entry.home, rank())) {
    // Non-home writers keep a twin so the flush can diff (§5.2.1: the home
    // itself needs no twin — all diffs merge into its copy). The twin
    // starts as a CoW alias of the home's frame; the registry privatizes it
    // (one page copy through the sys view) only when the home's copy is
    // about to diverge.
    const bool shared =
        twins_->attach_twin(rank(), page, entry.home, entry.fetched_version);
    if (shared) {
      stats_.inc_twins_shared();
    } else {
      stats_.inc_twins_created();
    }
    check_invariant(twins_->has_twin(rank(), page), "twin.present", page);
  } else {
    // The home's own upgrade is a frame mutation no diff announces:
    // privatize any alias another rank holds and mark the frame unstable
    // until the flush downgrade re-stabilizes it (TwinRegistry versioning).
    const int privatized = twins_->mark_unstable(rank(), page);
    if (privatized > 0) stats_.inc_twin_privatizations(privatized);
  }
  protect(page, PROT_READ | PROT_WRITE);
  set_state(entry, page, PageState::kDirty);
  {
    std::lock_guard dirty_lock(dirty_mutex_);
    dirty_now_.push_back(page);
    interval_dirty_.insert(page);
  }
  cs_tracking::note_page(page);
}

// ---------------------------------------------------------------------------
// Flush

std::vector<PageId> DsmNode::drain_dirty_now() {
  std::lock_guard lock(dirty_mutex_);
  std::vector<PageId> pages;
  pages.swap(dirty_now_);
  return pages;
}

void DsmNode::flush_pages(const std::vector<PageId>& pages) {
  if (pages.empty()) return;
  std::lock_guard flush_lock(flush_mutex_);
  auto* clock = vtime::thread_clock();

  struct PendingDiff {
    NodeId home;
    std::vector<std::uint8_t> payload;  // kept for retransmission
    VirtualUs stamp;
  };
  std::unordered_map<std::uint32_t, PendingDiff> pending;  // by seq
  for (const PageId page : pages) {
    PageEntry& entry = pages_->entry(page);
    std::unique_lock lock(entry.mutex);
    if (entry.state != PageState::kDirty) continue;  // already flushed

    if (entry.home == rank()) {
      // Dirty window over: re-stabilize the frame so future serves can be
      // shared again (bumps the frame version past the unstable epoch).
      twins_->mark_stable(rank(), page);
      protect(page, PROT_READ);
      set_state(entry, page, PageState::kReadOnly);
      continue;
    }

    const std::uint32_t seq = next_seq();
    std::size_t diff_bytes = 0;
    std::vector<std::uint8_t> payload;
    // Diff runs stream from the sys view straight into the wire buffer
    // (codec<DiffMsg> layout). The pristine copy — CoW alias of the home's
    // frame or private twin frame — is read inside the registry's critical
    // section so a concurrent privatization cannot swap it mid-diff.
    WireBuffer buffer;
    buffer.put(page);
    buffer.put(seq);
    const bool had_twin =
        twins_->with_twin(rank(), page, [&](const std::byte* pristine) {
          diff_bytes = append_diff(
              buffer, reinterpret_cast<const std::uint8_t*>(sys_page(page)),
              reinterpret_cast<const std::uint8_t*>(pristine),
              config_.page_bytes);
        });
    check_invariant(had_twin, "twin.present", page);
    if (had_twin && diff_bytes > 0) payload = std::move(buffer).take();
    entry.release_twin(*twins_, rank(), page);
    protect(page, PROT_READ);
    set_state(entry, page, PageState::kReadOnly);
    const NodeId home = entry.home;
    lock.unlock();

    if (diff_bytes == 0) continue;  // page written but unchanged
    stats_.inc_diffs_created();
    stats_.inc_diff_bytes_sent(static_cast<std::int64_t>(diff_bytes));
    const VirtualUs stamp = vtime::charge_send(config_.net.send_overhead_us);
    post(home, kTagDiff, payload, stamp);
    pending.emplace(seq, PendingDiff{home, std::move(payload), stamp});
  }
  if (pending.empty()) return;

  await(
      kTagDiffAck, "diff ack",
      [&](const net::Message& ack) {
        auto acked_r = codec<DiffAckMsg>::try_decode(ack.payload);
        if (!acked_r.is_ok()) return false;  // malformed frame off the wire
        // Unknown seq: a duplicate ack, or one for a diff a previous flush
        // retransmitted right before its original ack arrived. Ignore.
        if (pending.erase(acked_r.value().seq) == 0) return false;
        if (clock != nullptr) {
          clock->sync_cpu();
          clock->merge(ack.header.vtime +
                       config_.net.transfer_us(ack.payload.size()));
        }
        return pending.empty();
      },
      [&] {
        for (const auto& [seq, diff] : pending) {
          stats_.inc_retries();
          post(diff.home, kTagDiff, diff.payload, diff.stamp);
        }
      });
}

// ---------------------------------------------------------------------------
// Barrier (one caller per node)
//
// The inter-node barrier runs over the k-ary gather/scatter tree described
// by topo_ (docs/SCALING.md). Every node gathers its direct children's
// aggregated subtree arrivals, merges their write-notice streams with its
// own, and — unless it is the root — forwards one coalesced arrival to its
// parent. The root closes the epoch (home migration, §5.2.2) and the
// departure is re-stamped hop by hop back down the same edges. The flat
// barrier is the degenerate fan-out where the root parents everyone, so
// flat vs tree is configuration, not a second code path.

void DsmNode::barrier() {
  auto* clock = vtime::thread_clock();
  if (clock != nullptr) clock->sync_cpu();

  // Every node's span for this barrier shares the deterministic epoch trace
  // id, so parade_trace can line them up without any extra communication;
  // arrive/depart messages sent inside carry this span as the cross-node
  // parent.
  obs::ScopedSpan span(obs::TraceKind::kBarrier, rank(),
                       static_cast<Tag>(epoch_),
                       obs::SpanContext{obs::epoch_trace_id(epoch_), 0});
  obs::ScopedHistTimer wait_scope(barrier_wait_hist_);

  flush_pages(drain_dirty_now());

  // This node's own write notices for the closing interval.
  std::vector<PageId> own_pages;
  {
    std::lock_guard lock(dirty_mutex_);
    own_pages.assign(interval_dirty_.begin(), interval_dirty_.end());
    interval_dirty_.clear();
  }
  std::sort(own_pages.begin(), own_pages.end());
  stats_.inc_write_notices_sent(static_cast<std::int64_t>(own_pages.size()));

  // Communication-thread CPU spent this phase either overlapped (dedicated
  // CPU) or serialized with computation (paper's 1T-1CPU / 2T-2CPU).
  const VirtualUs phase_comm = comm_ledger_.drain_phase();
  if (clock != nullptr && !config_.machine.comm_thread_dedicated()) {
    clock->add(phase_comm);
  }

  const std::vector<NodeId> children = topo_.children();
  auto gathered = gather_children(children.size());

  // Merge the children's streams with our own notices. Subtrees are
  // disjoint, so each modifier appears in at most one source; the map keeps
  // blocks modifier-sorted for re-packing and page order deterministic.
  std::map<NodeId, std::vector<PageId>> subtree_notices;
  if (!own_pages.empty()) subtree_notices[rank()] = std::move(own_pages);
  VirtualUs latest = clock != nullptr ? clock->now() : 0.0;
  const PageId num_pages = static_cast<PageId>(config_.num_pages());
  for (auto& [src, arrival] : gathered) {
    auto& [arr, contribution] = arrival;
    PARADE_CHECK_MSG(arr.epoch == epoch_, "barrier epoch mismatch");
    latest = std::max(latest, contribution);
    auto blocks =
        notice::try_unpack_notices(arr.notice_stream, size(), num_pages);
    // handle_barrier_arrive validated the stream before recording it.
    PARADE_CHECK_MSG(blocks.has_value(), "gathered notice stream malformed");
    for (auto& block : *blocks) {
      subtree_notices[block.modifier] = std::move(block.pages);
    }
  }
  // Gather-side processing: one receive overhead per direct child. At a
  // flat root this is the O(nodes) term the tree caps at O(fanout).
  latest +=
      static_cast<double>(children.size()) * config_.net.recv_overhead_us;

  BarrierDepartMsg depart;
  if (topo_.is_root()) {
    // The root closes the epoch: page -> modifiers across the whole tree,
    // then the §5.2.2 tie-break (rules::choose_home): unique modifier →
    // current home → smallest node id. Only a unique modifier ever migrates
    // the page — with several modifiers the old home holds the only merged
    // copy.
    std::map<PageId, std::vector<NodeId>> modifiers;
    for (const auto& [modifier, pages] : subtree_notices) {
      for (const PageId page : pages) modifiers[page].push_back(modifier);
    }
    depart.epoch = epoch_;
    depart.entries.reserve(modifiers.size());
    for (const auto& [page, mods] : modifiers) {
      DepartEntry entry;
      entry.page = page;
      const NodeId home = pages_->home_of(page);
      // A static prior that marked the page's symbol multi-writer pins the
      // home: migrating it would thrash between the writers' nodes.
      const rules::HomeDecision decision = rules::choose_home(
          home, mods, config_.home_migration && prior_allows_migration(page));
      entry.sole_modifier = decision.sole_modifier;
      entry.new_home = decision.new_home;
      if (entry.new_home != home) stats_.inc_home_migrations();
      depart.entries.push_back(entry);
    }
    depart.departure_vtime = latest;
    if (clock != nullptr) clock->merge(latest);
  } else {
    // Interior node or leaf: forward one coalesced subtree arrival to the
    // parent, then wait for the departure to come back down this edge.
    std::vector<notice::NoticeBlock> blocks;
    blocks.reserve(subtree_notices.size());
    for (auto& [modifier, pages] : subtree_notices) {
      blocks.push_back({modifier, std::move(pages)});
    }
    BarrierArriveMsg arrive;
    arrive.epoch = epoch_;
    arrive.notice_stream = notice::pack_notices(blocks);

    VirtualUs stamp = latest;
    if (clock != nullptr) {
      clock->merge(latest);
      clock->add(config_.net.send_overhead_us);
      stamp = clock->now();
    }
    const NodeId parent = topo_.parent();
    const auto payload = codec<BarrierArriveMsg>::encode(std::move(arrive));
    post(parent, kTagBarrierArrive, payload, stamp);
    await(
        kTagBarrierDepart, "barrier departure",
        [&](const net::Message& msg) {
          auto depart_r = codec<BarrierDepartMsg>::try_decode(msg.payload);
          if (!depart_r.is_ok()) return false;  // malformed frame off the wire
          BarrierDepartMsg got = std::move(depart_r).value();
          const auto action = rules::classify_barrier_depart(got.epoch, epoch_);
          if (action == rules::DepartAction::kIgnoreStale) return false;
          PARADE_CHECK_MSG(action == rules::DepartAction::kProcess,
                           "barrier departure from a future epoch");
          if (clock != nullptr) {
            clock->merge(got.departure_vtime +
                         config_.net.transfer_us(msg.payload.size()));
          }
          depart = std::move(got);
          return true;
        },
        // Either our arrival or the parent's departure was lost; resending
        // the arrival recovers both (every gather node re-answers closed
        // epochs on its child edges).
        [&] {
          stats_.inc_retries();
          post(parent, kTagBarrierArrive, payload, stamp);
        });
  }

  // Scatter the departure to our direct children, then apply it locally.
  if (!children.empty()) {
    forward_departure(depart, children,
                      clock != nullptr ? clock->now()
                                       : depart.departure_vtime);
    if (clock != nullptr) {
      clock->add(static_cast<double>(children.size()) *
                 config_.net.send_overhead_us);
    }
  }
  process_departure(depart);

  stats_.inc_barriers();
  obs::Registry::instance().close_epoch(rank(), epoch_);
  ++epoch_;
  // Phased priors track the program's barrier timeline: re-project when the
  // effective phase advances. Runs with app threads quiesced in the barrier,
  // so the bitmaps can be rewritten without a page-table lock.
  if (has_phased_priors_) project_priors(epoch_);
  if (clock != nullptr) clock->discard_cpu();
}

std::unordered_map<NodeId, std::pair<BarrierArriveMsg, VirtualUs>>
DsmNode::gather_children(std::size_t needed) {
  std::unordered_map<NodeId, std::pair<BarrierArriveMsg, VirtualUs>> gathered;
  if (needed == 0) return gathered;
  // The comm thread records arrivals (handle_barrier_arrive); wait for the
  // current epoch's set to complete. Children drive retransmission, so a
  // timeout here only bounds how long we tolerate a silent fabric.
  std::unique_lock lock(barrier_gather_.mutex);
  retry(
      "barrier gather",
      [&](std::chrono::milliseconds timeout) {
        for (;;) {
          auto it = barrier_gather_.arrivals.find(epoch_);
          const std::size_t have =
              it == barrier_gather_.arrivals.end() ? 0 : it->second.size();
          if (have == needed) {
            gathered = std::move(it->second);
            barrier_gather_.arrivals.erase(it);
            return net::WaitOutcome::kDone;
          }
          if (barrier_gather_.closed) return net::WaitOutcome::kClosed;
          if (barrier_gather_.cv.wait_for(lock, timeout) ==
              std::cv_status::timeout) {
            return net::WaitOutcome::kTimedOut;
          }
        }
      },
      [] {});
  return gathered;
}

void DsmNode::forward_departure(const BarrierDepartMsg& depart,
                                const std::vector<NodeId>& children,
                                VirtualUs base_vtime) {
  // Re-stamp at this hop: children merge our forwarding time (plus their own
  // transfer), not the root's, so a deep tree pays per-level latency
  // honestly. Send overheads serialize on this node's clock.
  const VirtualUs stamp =
      base_vtime +
      static_cast<double>(children.size()) * config_.net.send_overhead_us;
  BarrierDepartMsg down = depart;
  down.departure_vtime = stamp;
  const auto payload = codec<BarrierDepartMsg>::encode(std::move(down));
  {
    // Cache before sending: a child's retransmitted arrival for this epoch
    // may race in on the comm thread the moment the first departure is out.
    std::lock_guard lock(barrier_gather_.mutex);
    barrier_gather_.last_depart_epoch = depart.epoch;
    barrier_gather_.last_depart_payload = payload;
    barrier_gather_.last_depart_vtime = stamp;
  }
  for (const NodeId child : children) {
    post(child, kTagBarrierDepart, payload, stamp);
  }
}

void DsmNode::handle_barrier_arrive(const net::Message& message) {
  auto arrive_r = codec<BarrierArriveMsg>::try_decode(message.payload);
  if (!arrive_r.is_ok()) {
    PLOG_WARN("dropping malformed barrier arrival: "
              << arrive_r.status().to_string());
    return;
  }
  BarrierArriveMsg arrive = std::move(arrive_r).value();
  // Semantic validation of the coalesced notice stream happens here, off the
  // wire, so the barrier caller can trust every recorded arrival (its own
  // re-unpack is a hard check, not a soft-fail).
  if (!notice::try_unpack_notices(arrive.notice_stream, size(),
                                  static_cast<PageId>(config_.num_pages()))
           .has_value()) {
    PLOG_WARN("dropping barrier arrival with malformed notice stream");
    return;
  }
  const VirtualUs contribution =
      message.header.vtime + config_.net.transfer_us(message.payload.size());
  std::lock_guard lock(barrier_gather_.mutex);
  switch (rules::classify_barrier_arrival(arrive.epoch,
                                          barrier_gather_.last_depart_epoch)) {
    case rules::ArrivalAction::kReAnswerClosedEpoch:
      // The child never saw our departure and is retransmitting its
      // arrival. A child lags its parent by at most one epoch, so the
      // cached payload always matches.
      stats_.inc_retries();
      post(message.header.src, kTagBarrierDepart,
           barrier_gather_.last_depart_payload,
           barrier_gather_.last_depart_vtime);
      return;
    case rules::ArrivalAction::kIgnoreStale:
      return;
    case rules::ArrivalAction::kRecord:
      // barrier.epoch: a recordable arrival is always for the one epoch the
      // last departure on this edge left open (children lag or lead by at
      // most one).
      check_invariant(
          rules::arrival_epoch_plausible(arrive.epoch,
                                         barrier_gather_.last_depart_epoch),
          "barrier.epoch", /*page=*/-1);
      break;
  }
  // Duplicate arrivals for an open epoch simply overwrite their slot.
  barrier_gather_.arrivals[arrive.epoch][message.header.src] = {
      std::move(arrive), contribution};
  barrier_gather_.cv.notify_all();
}

void DsmNode::process_departure(const BarrierDepartMsg& msg) {
  for (const DepartEntry& e : msg.entries) {
    PageEntry& entry = pages_->entry(e.page);
    std::lock_guard lock(entry.mutex);
    const NodeId old_home = entry.home;
    entry.home = e.new_home;

    // Keep the copy when it is provably current: we are the new home, we
    // were the old home (all diffs merged into us), or we were the interval's
    // only modifier.
    if (rules::keep_copy_on_departure(rank(), e.new_home, old_home,
                                      e.sole_modifier)) {
      // The kept copy is current in content but was not stamped by a
      // versioned serve; a write fault next interval privatizes eagerly
      // rather than trusting a version from a superseded home epoch.
      entry.fetched_version = kNeverFetchedVersion;
      continue;
    }
    if (rules::invalidate_applies(entry.state)) {
      entry.release_twin(*twins_, rank(), e.page);
      protect(e.page, PROT_NONE);
      set_state(entry, e.page, PageState::kInvalid);
      stats_.inc_invalidations();
    }
  }
}

// ---------------------------------------------------------------------------
// DSM locks (conventional-SDSM path)

void DsmNode::lock_acquire(int lock_id) {
  PARADE_CHECK_MSG(lock_in_range(lock_id), "lock id range");
  // Serialize this node's threads on the lock before talking to the manager;
  // released in lock_release (see lock_gate_).
  lock_gate_[static_cast<std::size_t>(lock_id)].lock();
  stats_.inc_lock_acquires();
  const NodeId home = static_cast<NodeId>(lock_id % size());
  const VirtualUs stamp = vtime::charge_send(config_.net.send_overhead_us);
  const std::uint32_t seq = next_seq();
  const auto payload = codec<LockAcquireMsg>::encode({lock_id, seq});
  LockGrantMsg grant;
  {
    // Root span of the lock trace: the manager's lock_serve span and the
    // grant's delivery link back to it. The histogram measures
    // request-to-grant latency, retries included.
    obs::ScopedSpan span(obs::TraceKind::kLock, rank(), lock_id);
    obs::ScopedHistTimer grant_scope(lock_grant_hist_);
    post(home, kTagLockAcquire, payload, stamp);
    await(
        kTagLockGrantBase + lock_id, "lock grant",
        [&](const net::Message& msg) {
          auto grant_r = codec<LockGrantMsg>::try_decode(msg.payload);
          if (!grant_r.is_ok()) return false;  // malformed frame off the wire
          // Duplicate grant of an older acquire: drop and keep waiting.
          if (!rules::accept_response_seq(seq, grant_r.value().seq)) {
            return false;
          }
          grant = std::move(grant_r).value();
          if (auto* clock = vtime::thread_clock()) {
            clock->sync_cpu();
            clock->merge(msg.header.vtime +
                         config_.net.transfer_us(msg.payload.size()));
          }
          return true;
        },
        [&] {
          stats_.inc_retries();
          post(home, kTagLockAcquire, payload, stamp);
        });
  }

  // Lazy-release consistency, conservatively: invalidate every cached page
  // another node modified under this lock so the critical section sees the
  // most up-to-date values (unless we are its home — diffs merged into us).
  for (const WriteNotice& notice : grant.notices) {
    PageEntry& entry = pages_->entry(notice.page);
    std::lock_guard lock(entry.mutex);
    if (rules::invalidate_on_lock_notice(entry.state, entry.home, rank(),
                                         notice.modifier)) {
      protect(notice.page, PROT_NONE);
      set_state(entry, notice.page, PageState::kInvalid);
      stats_.inc_invalidations();
    }
  }

  cs_tracking::begin();
}

void DsmNode::lock_release(int lock_id) {
  PARADE_CHECK_MSG(lock_in_range(lock_id), "lock id range");
  std::vector<PageId> cs_pages = cs_tracking::end();
  // Dedup (a page may fault several times across nested sections).
  std::sort(cs_pages.begin(), cs_pages.end());
  cs_pages.erase(std::unique(cs_pages.begin(), cs_pages.end()),
                 cs_pages.end());
  flush_pages(cs_pages);

  const NodeId home = static_cast<NodeId>(lock_id % size());
  const VirtualUs stamp = vtime::charge_send(config_.net.send_overhead_us);
  const std::uint32_t seq = next_seq();
  const auto payload =
      codec<LockReleaseMsg>::encode({lock_id, std::move(cs_pages), seq});
  // Root span of the release trace (the manager-side hand-off links here).
  obs::ScopedSpan span(obs::TraceKind::kLock, rank(), lock_id);
  post(home, kTagLockRelease, payload, stamp);

  // Wait for the manager's ack so a lost release cannot strand the lock.
  // The ack is a reliability artifact, not part of the HLRC cost model
  // (release is asynchronous in the paper), so its vtime is not merged.
  await(
      kTagLockReleaseAckBase + lock_id, "lock release ack",
      [&](const net::Message& msg) {
        auto relack_r = codec<LockReleaseAckMsg>::try_decode(msg.payload);
        // Malformed frame, or a duplicate ack of an older release: drop.
        return relack_r.is_ok() &&
               rules::accept_response_seq(seq, relack_r.value().seq);
      },
      [&] {
        stats_.inc_retries();
        post(home, kTagLockRelease, payload, stamp);
      });
  lock_gate_[static_cast<std::size_t>(lock_id)].unlock();
}

// ---------------------------------------------------------------------------
// Communication thread

void DsmNode::comm_loop() {
  logging::set_thread_node_tag(rank());
  bool running = true;
  while (running) {
    auto msg = channel_.inbox().recv_match(
        [](const net::MessageHeader& h) { return comm_thread_tag(h.tag); });
    if (!msg.has_value()) break;  // mailbox closed

    // Barrier arrivals bypass the comm clock: the gathering barrier caller
    // accounts for them itself (one recv_overhead per direct child), same
    // as when it received the arrivals directly.
    if (msg->header.tag == kTagBarrierArrive) {
      handle_barrier_arrive(*msg);
      continue;
    }

    comm_clock_.merge(msg->header.vtime +
                      config_.net.transfer_us(msg->payload.size()));
    comm_clock_.add(config_.net.recv_overhead_us);
    comm_ledger_.charge(config_.net.recv_overhead_us);

    switch (msg->header.tag) {
      case kTagShutdown:
        running = false;
        break;
      case kTagPageRequest:
        serve_page_request(*msg);
        break;
      case kTagPageReply:
        install_page(*msg);
        break;
      case kTagDiff:
        apply_incoming_diff(*msg);
        break;
      case kTagLockAcquire:
        lock_manager_acquire(*msg);
        break;
      case kTagLockRelease:
        lock_manager_release(*msg);
        break;
      default:
        PLOG_WARN("comm thread ignoring tag " << msg->header.tag);
    }
  }
  // No more arrivals will be gathered; wake a barrier caller blocked in
  // gather_children so it fails loudly instead of hanging.
  {
    std::lock_guard lock(barrier_gather_.mutex);
    barrier_gather_.closed = true;
  }
  barrier_gather_.cv.notify_all();
}

void DsmNode::serve_page_request(const net::Message& message) {
  auto request_r = codec<PageRequestMsg>::try_decode(message.payload);
  if (!request_r.is_ok()) {
    PLOG_WARN("dropping malformed page request: "
              << request_r.status().to_string());
    return;
  }
  const PageRequestMsg request = std::move(request_r).value();
  if (!page_in_range(request.page)) {
    PLOG_WARN("dropping page request for out-of-range page " << request.page);
    return;
  }
  // Child of the requester's page_fault span (context off the wire); the
  // reply posted below inherits this span, closing the causal loop.
  obs::ScopedSpan span(
      obs::TraceKind::kPageServe, rank(), static_cast<Tag>(request.page),
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  stats_.inc_page_serves();
  comm_clock_.add(config_.net.page_service_us + config_.net.send_overhead_us);
  comm_ledger_.charge(config_.net.page_service_us +
                      config_.net.send_overhead_us);

  // The frame is encoded from the sys view straight into the wire buffer
  // (codec<PageReplyMsg> layout — the span decoders in protocol.hpp pin the
  // equivalence).
  WireBuffer buffer;
  buffer.put(request.page);
  buffer.put(request.seq);
  {
    // The serving copy is read through the system view; the home invariant
    // (see DESIGN.md) guarantees it is current.
    PageEntry& entry = pages_->entry(request.page);
    std::lock_guard lock(entry.mutex);
    // home.holds_copy: a node that believes it is home must hold page data.
    // (A retransmitted request can land after migration moved the home
    // away; the requester's seq gate discards the reply, so only the home
    // case is checkable here.)
    if (entry.home == rank()) {
      check_invariant(entry.state == PageState::kReadOnly ||
                          entry.state == PageState::kDirty,
                      "home.holds_copy", request.page);
    }
    // Version first, frame bytes second, both under the entry lock every
    // home-side frame mutation also takes: an interleaved bump can only
    // make the reply look OLDER than its bytes (safe — the requester
    // privatizes), never newer.
    buffer.put(twins_->frame_version(request.page));
    buffer.put(static_cast<std::uint32_t>(config_.page_bytes));
    buffer.put_bytes(sys_page(request.page), config_.page_bytes);
  }
  post(message.header.src, kTagPageReply, std::move(buffer).take(),
       comm_clock_.now());
}

void DsmNode::install_page(const net::Message& message) {
  auto reply_r = PageReplyView::from(message.span());
  if (!reply_r.is_ok() || reply_r.value().data.size() != config_.page_bytes ||
      !page_in_range(reply_r.value().page)) {
    PLOG_WARN("dropping malformed page reply");
    return;
  }
  const PageReplyView reply = reply_r.value();
  PageEntry& entry = pages_->entry(reply.page);
  std::lock_guard lock(entry.mutex);
  // A reply for a page no longer being fetched, or for a superseded fetch,
  // is a retransmission artifact (the original served both); drop it rather
  // than overwrite state another path owns.
  if (!rules::accept_page_reply(entry.state, entry.fetch_seq, reply.seq)) {
    return;
  }
  // Atomic page update (§5.1): write through the always-writable system view
  // first, only then open the application view. The copy reads directly out
  // of the delivered buffer (span view) — no intermediate reply vector on
  // either side of the wire.
  std::memcpy(sys_page(reply.page), reply.data.data(), config_.page_bytes);
  entry.fetched_version = reply.version;
  protect(reply.page, PROT_READ);
  entry.ready_vtime = message.header.vtime +
                      config_.net.transfer_us(message.payload.size()) +
                      config_.net.recv_overhead_us;
  set_state(entry, reply.page, PageState::kReadOnly);
  entry.cv.notify_all();
}

void DsmNode::apply_incoming_diff(const net::Message& message) {
  auto diff_r = DiffView::from(message.span());
  if (!diff_r.is_ok()) {
    PLOG_WARN("dropping malformed diff: " << diff_r.status().to_string());
    return;
  }
  const DiffView diff = diff_r.value();
  // Validate before accept_diff records the seq: a frame dropped after that
  // would be re-acked as a duplicate on retransmission, yet never applied.
  if (!page_in_range(diff.page) ||
      !diff_well_formed(config_.page_bytes, diff.diff.data(),
                        diff.diff.size())) {
    PLOG_WARN("dropping malformed diff for page " << diff.page);
    return;
  }
  // A retransmitted diff whose original already merged must not re-apply (the
  // page may have moved on since), but the sender is still waiting: re-ack.
  if (rules::accept_diff(diff_seen_, message.header.src, diff.seq)) {
    stats_.inc_diffs_applied();
    comm_clock_.add(config_.net.page_service_us);
    comm_ledger_.charge(config_.net.page_service_us);
    PageEntry& entry = pages_->entry(diff.page);
    std::lock_guard lock(entry.mutex);
    // The frame is about to diverge from what any CoW alias snapshotted:
    // privatize those twins first, then bump the frame version so replies
    // served before this merge can no longer seed a shared twin.
    const int privatized = twins_->begin_home_mutation(diff.page);
    if (privatized > 0) stats_.inc_twin_privatizations(privatized);
    (void)apply_diff(reinterpret_cast<std::uint8_t*>(sys_page(diff.page)),
                     config_.page_bytes, diff.diff.data(), diff.diff.size());
  }
  post(message.header.src, kTagDiffAck,
       codec<DiffAckMsg>::encode({diff.page, diff.seq}), comm_clock_.now());
}

void DsmNode::send_grant(NodeId to, std::int32_t lock_id) {
  ManagedLock& managed = managed_locks_[lock_id];
  LockGrantMsg grant;
  grant.lock_id = lock_id;
  grant.seq = managed.holder_seq;  // ties the grant to the winning acquire
  grant.notices.reserve(managed.notices.size());
  for (const auto& [page, modifier] : managed.notices) {
    grant.notices.push_back(WriteNotice{page, modifier});
  }
  if (to != rank()) stats_.inc_lock_remote_grants();
  comm_clock_.add(config_.net.send_overhead_us);
  comm_ledger_.charge(config_.net.send_overhead_us);
  post(to, kTagLockGrantBase + grant.lock_id,
       codec<LockGrantMsg>::encode(std::move(grant)), comm_clock_.now());
}

void DsmNode::lock_manager_acquire(const net::Message& message) {
  auto acquire_r = codec<LockAcquireMsg>::try_decode(message.payload);
  if (!acquire_r.is_ok()) {
    PLOG_WARN("dropping malformed lock acquire: "
              << acquire_r.status().to_string());
    return;
  }
  const LockAcquireMsg request = std::move(acquire_r).value();
  if (!lock_in_range(request.lock_id)) {
    PLOG_WARN("dropping lock acquire for out-of-range lock "
              << request.lock_id);
    return;
  }
  // Child of the requester's lock span; a grant sent here inherits it.
  obs::ScopedSpan span(
      obs::TraceKind::kLockServe, rank(), request.lock_id,
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  ManagedLock& managed = managed_locks_[request.lock_id];
  if (managed.acquire_seen.seen_or_insert(
          net::seq_key(message.header.src, request.seq))) {
    // Retransmitted acquire. Re-grant only when this exact request currently
    // holds the lock (its grant was lost); otherwise it is still queued or
    // was already served and released.
    if (managed.held && managed.holder == message.header.src &&
        managed.holder_seq == request.seq) {
      stats_.inc_retries();
      send_grant(message.header.src, request.lock_id);
    }
    return;
  }
  if (!managed.held) {
    managed.held = true;
    managed.holder = message.header.src;
    managed.holder_seq = request.seq;
    send_grant(message.header.src, request.lock_id);
  } else {
    managed.waiters.emplace_back(message.header.src, request.seq);
  }
}

void DsmNode::lock_manager_release(const net::Message& message) {
  auto release_r = codec<LockReleaseMsg>::try_decode(message.payload);
  if (!release_r.is_ok()) {
    PLOG_WARN("dropping malformed lock release: "
              << release_r.status().to_string());
    return;
  }
  const LockReleaseMsg release = std::move(release_r).value();
  if (!lock_in_range(release.lock_id) ||
      !std::all_of(release.dirtied_pages.begin(), release.dirtied_pages.end(),
                   [this](PageId page) { return page_in_range(page); })) {
    PLOG_WARN("dropping lock release with a lock or page id out of range");
    return;
  }
  // Child of the releaser's lock span; a handed-off grant inherits it, so a
  // waiter's grant traces back to the release that unblocked it.
  obs::ScopedSpan span(
      obs::TraceKind::kLockServe, rank(), release.lock_id,
      obs::SpanContext{message.header.trace_id, message.header.span_id});
  ManagedLock& managed = managed_locks_[release.lock_id];
  const bool duplicate = managed.release_seen.seen_or_insert(
      net::seq_key(message.header.src, release.seq));
  if (!duplicate && managed.held && managed.holder == message.header.src) {
    for (const PageId page : release.dirtied_pages) {
      managed.notices[page] = message.header.src;
    }
    if (!managed.waiters.empty()) {
      const auto [next, next_seq] = managed.waiters.front();
      managed.waiters.erase(managed.waiters.begin());
      managed.holder = next;
      managed.holder_seq = next_seq;
      send_grant(next, release.lock_id);
    } else {
      managed.held = false;
      managed.holder = kAnyNode;
    }
  }
  // Always ack — the releaser blocks until it hears one. The ack is pure
  // reliability traffic, so it carries the comm clock without extra cost.
  post(message.header.src, kTagLockReleaseAckBase + release.lock_id,
       codec<LockReleaseAckMsg>::encode({release.lock_id, release.seq}),
       comm_clock_.now());
}

}  // namespace parade::dsm
