// DsmNode: one cluster node's multi-threaded SDSM engine (paper §5).
//
// Responsibilities:
//  - shared pool with double mapping (atomic page update, §5.1),
//  - SIGSEGV fault path with the Figure-5 page state machine,
//  - HLRC with migratory home: twin/diff to the home, write notices
//    piggybacked on barrier arrival, home migration decided by the master at
//    barrier time (§5.2.2, §5.2.3),
//  - home-based lock manager for the conventional-SDSM personality (§2.2),
//  - a dedicated communication thread servicing remote requests (§5.3),
//  - virtual-time accounting hooks (vtime/).
//
// Threading contract: any number of application threads may fault and
// acquire locks; barrier() must be called by exactly one thread per node at
// a time (the runtime's hierarchical barrier guarantees this).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "common/topology.hpp"
#include "dsm/config.hpp"
#include "dsm/mapping.hpp"
#include "dsm/pagetable.hpp"
#include "dsm/protocol.hpp"
#include "dsm/rules.hpp"
#include "dsm/stats.hpp"
#include "net/channel.hpp"
#include "vtime/clock.hpp"

namespace parade::obs {
class Counter;
}

namespace parade::dsm {

class DsmNode {
 public:
  /// `topology` carries this node's rank, the cluster size, and the
  /// barrier-tree fan-out. Must agree with the channel's rank/size
  /// (checked).
  DsmNode(const Topology& topology, net::Channel& channel, DsmConfig config);
  ~DsmNode();

  DsmNode(const DsmNode&) = delete;
  DsmNode& operator=(const DsmNode&) = delete;

  /// Maps the pool, registers the fault range, starts the comm thread.
  Status start();
  /// Stops the comm thread and unregisters the pool (idempotent).
  void shutdown();

  NodeId rank() const { return topo_.rank; }
  int size() const { return topo_.nodes; }
  const Topology& topology() const { return topo_; }
  const DsmConfig& config() const { return config_; }

  /// Application view base of the shared pool (fault-managed).
  std::byte* base() const { return mapping_->app_view(); }
  std::size_t pool_bytes() const { return config_.pool_bytes; }

  /// Shares a cross-node twin registry (in-process clusters). Must be called
  /// before start(); without one the node builds a solo registry, in which
  /// no peer pool is visible and every twin privatizes eagerly.
  void set_twin_registry(std::shared_ptr<TwinRegistry> twins);
  TwinRegistry& twin_registry() { return *twins_; }

  /// SPMD bump allocator: every node must perform the identical allocation
  /// sequence; the same call index yields the same pool offset everywhere.
  void* shmalloc(std::size_t bytes, std::size_t align = 64);
  /// Offset of a pool pointer (for cross-checking SPMD allocation order).
  std::size_t offset_of(const void* p) const;

  /// Inter-node HLRC barrier: flush diffs, exchange write notices, migrate
  /// homes, invalidate. One caller per node.
  void barrier();

  /// Home-based DSM lock with lazy-release-style consistency (conventional
  /// SDSM path; also the fallback for non-analyzable critical sections).
  void lock_acquire(int lock_id);
  void lock_release(int lock_id);

  /// SIGSEGV entry point; returns false if `addr` is outside the pool.
  bool handle_fault(void* addr, bool is_write);

  DsmStats& stats() { return stats_; }
  vtime::CommLedger& comm_ledger() { return comm_ledger_; }
  PageTable& page_table() { return *pages_; }
  Epoch epoch() const { return epoch_; }

  /// Current home of `page` as this node believes it (tests/benches).
  NodeId home_of(PageId page) const { return pages_->home_of(page); }

  /// Static-prior queries (config_.page_priors projected onto pages at
  /// start(), and re-projected at each barrier epoch when the sidecar
  /// carries epoch-ranged phase priors). A page outside every prior range
  /// behaves as before: migration allowed, no update bias.
  bool prior_allows_migration(PageId page) const {
    const auto p = static_cast<std::size_t>(page);
    return p >= prior_pin_home_.size() || !prior_pin_home_[p];
  }
  bool prior_prefers_update(PageId page) const {
    const auto p = static_cast<std::size_t>(page);
    return p < prior_update_.size() && prior_update_[p];
  }

 private:
  // --- fault path helpers (application threads) ---
  void fetch_page(PageId page, std::unique_lock<std::mutex>& entry_lock,
                  PageEntry& entry);
  void upgrade_to_dirty(PageId page, PageEntry& entry);

  // --- flush (barrier / lock release) ---
  /// Sends diffs for the given DIRTY pages to their homes and downgrades them
  /// to READ_ONLY. Waits for all acks. Serialized by flush_mutex_.
  void flush_pages(const std::vector<PageId>& pages);
  std::vector<PageId> drain_dirty_now();

  // --- barrier internals (k-ary gather/scatter tree; flat == degenerate
  // tree where the root parents everyone — see docs/SCALING.md) ---
  /// Waits until every direct child's arrival for epoch_ is gathered;
  /// returns (and removes) the epoch's slot. `needed` == children count.
  std::unordered_map<NodeId, std::pair<BarrierArriveMsg, VirtualUs>>
  gather_children(std::size_t needed);
  /// Forwards the closing departure to the direct children (re-stamped so
  /// each hop pays its own latency) and caches it for re-answering lost
  /// departures on any child edge.
  void forward_departure(const BarrierDepartMsg& depart,
                         const std::vector<NodeId>& children,
                         VirtualUs base_vtime);
  void process_departure(const BarrierDepartMsg& msg);

  // --- communication thread ---
  void comm_loop();
  void serve_page_request(const net::Message& message);
  void install_page(const net::Message& message);
  void apply_incoming_diff(const net::Message& message);
  void handle_barrier_arrive(const net::Message& message);
  void lock_manager_acquire(const net::Message& message);
  void lock_manager_release(const net::Message& message);
  void send_grant(NodeId to, std::int32_t lock_id);

  /// channel_.send + warn-on-failure. DSM protocol sends only fail when a
  /// peer is down, which the blocking receive paths surface as a check
  /// failure anyway; the log pinpoints which send was dropped.
  void post(NodeId dst, Tag tag, std::vector<std::uint8_t> payload,
            VirtualUs vtime);

  /// Every DSM wait for a peer runs config_.retry.run here: the one abort
  /// site (after a `dsm.partition` flight record) for a peer silent past
  /// the budget. `what` names the exchange in the abort message.
  template <typename WaitOnce, typename Resend>
  void retry(const char* what, WaitOnce wait_once, Resend resend);
  /// retry() over inbox frames tagged `tag`, until `accept` says the
  /// exchange is complete. A frame it rejects (malformed, stale, partial
  /// progress) restarts a full timeout without spending an attempt.
  template <typename Accept, typename Resend>
  void await(Tag tag, const char* what, Accept accept, Resend resend);

  void protect(PageId page, int prot);
  std::byte* sys_page(PageId page) const;

  /// Range checks for ids that arrive off the wire: a frame naming a page
  /// or lock outside this node's tables is dropped, never dereferenced.
  bool page_in_range(PageId page) const {
    return page >= 0 && static_cast<std::size_t>(page) < config_.num_pages();
  }
  static bool lock_in_range(std::int32_t lock_id) {
    return lock_id >= 0 && lock_id < kMaxDsmLocks;
  }

  /// The single funnel for page-state changes: asserts the change is a legal
  /// Figure-5 edge (rules::transition_allowed) before assigning. The check
  /// only compiles in under the PARADE_CHECKED cmake option.
  void set_state(PageEntry& entry, PageId page, PageState to);
  /// Runtime invariant hook: under PARADE_CHECKED a failed check logs and
  /// bumps the `dsm.invariant.violations` obs counter; otherwise a no-op.
  void check_invariant(bool ok, const char* invariant, PageId page);

  /// Node-wide sequence source for diff and lock messages (page fetches use
  /// the per-page counter in PageEntry). Never returns 0.
  std::uint32_t next_seq() {
    return msg_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  net::Channel& channel_;
  Topology topo_;
  DsmConfig config_;
  std::unique_ptr<SegmentPool> mapping_;
  std::shared_ptr<TwinRegistry> twins_;
  std::unique_ptr<PageTable> pages_;
  DsmStats stats_;
  vtime::CommLedger comm_ledger_;
  /// `dsm.invariant.violations`: registered unconditionally (so tests can
  /// assert it is zero) but only ever incremented under PARADE_CHECKED.
  obs::Counter* invariant_violations_ = nullptr;
  /// Latency distributions (docs/OBSERVABILITY.md): remote fetch round-trip,
  /// lock request-to-grant, and barrier arrive-to-depart wait.
  obs::Histogram* fetch_hist_ = nullptr;
  obs::Histogram* lock_grant_hist_ = nullptr;
  obs::Histogram* barrier_wait_hist_ = nullptr;

  std::thread comm_thread_;
  vtime::ThreadClock comm_clock_;
  bool started_ = false;

  // Pages currently DIRTY on this node (appended on write upgrade).
  std::mutex dirty_mutex_;
  std::vector<PageId> dirty_now_;
  // Pages this node dirtied in the open barrier interval (write notices).
  std::unordered_set<PageId> interval_dirty_;

  std::mutex flush_mutex_;
  std::mutex alloc_mutex_;
  std::size_t alloc_offset_ = 0;

  /// Projects config_.page_priors onto the page bitmaps for `epoch`.
  /// Whole-program priors (phase == -1) apply everywhere; a page covered by
  /// at least one prior of the current phase takes its flags from the
  /// current-phase priors *only* (a phase projection may relax a
  /// whole-program pin). Epochs past the last phased prior keep the last
  /// phase's projection.
  void project_priors(Epoch epoch);

  // Static protocol priors by page, seeded from config_.page_priors in
  // start() and re-projected in barrier() right after the epoch advances
  // (the one point where no application thread is inside a fault handler),
  // read-only everywhere else.
  std::vector<bool> prior_pin_home_;  ///< barrier home migration vetoed
  std::vector<bool> prior_update_;    ///< update-path bias
  bool has_phased_priors_ = false;
  int max_prior_phase_ = -1;   ///< highest phased-prior epoch (sticky tail)
  int projected_phase_ = -2;   ///< effective phase currently projected

  Epoch epoch_ = 0;

  std::atomic<std::uint32_t> msg_seq_{0};

  // Local per-lock gate: threads of one node take turns doing the remote
  // acquire/release exchange for a given lock id. This keeps at most one
  // grant / release-ack wait in flight per (node, lock), which is what lets
  // those waits match responses by sequence number (a duplicate response can
  // then only ever be a retransmission artifact, never another thread's).
  // Held from lock_acquire until lock_release by the same thread.
  std::array<std::mutex, kMaxDsmLocks> lock_gate_;

  // Gather state for this node's direct children in the barrier tree, fed
  // by the comm thread so retransmitted arrivals are absorbed even while the
  // barrier caller sleeps. Every node with children runs the same per-edge
  // protocol the flat master ran against all workers; the cached departure
  // payload answers children whose departure message was lost (they
  // retransmit their arrival for the already-closed epoch).
  struct BarrierGather {
    std::mutex mutex;
    std::condition_variable cv;
    /// epoch -> src -> (decoded arrival, vtime contribution). Keyed by epoch
    /// because a fast child's next-epoch arrival can land before this node
    /// finishes the current one.
    std::unordered_map<
        Epoch, std::unordered_map<NodeId, std::pair<BarrierArriveMsg, VirtualUs>>>
        arrivals;
    std::optional<Epoch> last_depart_epoch;
    std::vector<std::uint8_t> last_depart_payload;
    VirtualUs last_depart_vtime = 0.0;
    bool closed = false;  ///< comm thread exited; no more arrivals will come
  };
  BarrierGather barrier_gather_;

  /// (src, seq) of diffs already merged; duplicates are re-acked, not
  /// re-applied (touched only by the comm thread).
  net::SeqWindow diff_seen_{4096};

  // Lock-manager state for locks homed here (touched only by comm thread).
  struct ManagedLock {
    bool held = false;
    NodeId holder = kAnyNode;
    std::uint32_t holder_seq = 0;  ///< seq of the acquire that won the lock
    /// Queued acquirers as (node, acquire seq) in arrival order.
    std::vector<std::pair<NodeId, std::uint32_t>> waiters;
    /// page -> most recent modifier under this lock.
    std::unordered_map<PageId, NodeId> notices;
    net::SeqWindow acquire_seen{256};
    net::SeqWindow release_seen{256};
  };
  std::unordered_map<std::int32_t, ManagedLock> managed_locks_;
};

/// Per-thread critical-section dirty tracking: while a CS is open, write
/// faults record pages here so lock_release flushes exactly the CS's pages.
namespace cs_tracking {
void begin();
void note_page(PageId page);
std::vector<PageId> end();
bool active();
}  // namespace cs_tracking

}  // namespace parade::dsm
