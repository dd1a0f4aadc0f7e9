// parade_perfbench: the solve loop behind perfbench/run.py.
//
//   parade_perfbench --workload=cg|helmholtz|sync --seed=N --seconds=S
//                    --mode=timed|traced|smoke [--export=PATH]
//
// Every solve builds its own VirtualCluster (modeled cLAN, 1Thread-2CPU
// nodes, PARADE_CPU_SCALE as set by the environment), runs one workload
// program on it, shuts it down and verifies the program's output. The driver
// prints one JSON line per solve and a closing "run" line; run.py turns them
// into the benchmark's metrics. See perfbench/README.md.
//
// Modes:
//   timed   untraced solves for --seconds: setup, wall and virtual time.
//   traced  untraced and traced solves in seeded pairs for --seconds, both
//           with the per-call recorder, with the registry-derived per-layer
//           numbers of the traced ones, then a few serial solves of the same
//           problem; the last traced solve's registry is written to --export.
//   smoke   one traced, verified solve written to --export.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "apps/cg.hpp"
#include "apps/helmholtz.hpp"
#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "runtime/api.hpp"
#include "runtime/cluster.hpp"
#include "vtime/cost_model.hpp"

namespace parade::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time the hypervisor took from this machine, summed over all CPUs, from
/// the "steal" column of /proc/stat; 0 where the kernel does not report it.
double host_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  static const double tick_s = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return got == 8 ? static_cast<double>(v[7]) * tick_s : 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- cluster shape ----------------------------------------------------------

/// Each node runs one compute thread (1Thread-2CPU) and one comm thread, so
/// the cluster needs 2 host CPUs per node. Two nodes when the host has four
/// CPUs; fewer when it has fewer, so the run never oversubscribes.
struct Shape {
  int nproc = 1;
  int nodes = 2;
};

Shape pick_shape() {
  Shape shape;
  cpu_set_t set;
  CPU_ZERO(&set);
  shape.nproc = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                             : 1;
  shape.nodes = std::clamp(shape.nproc / 2, 1, 2);
  return shape;
}

RuntimeConfig cluster_config(const Shape& shape) {
  RuntimeConfig config;
  config.nodes = shape.nodes;
  config.with_node_config(vtime::NodeConfig::k1Thread2Cpu);
  config.cpu_scale = vtime::cpu_scale_from_env();
  config.dsm.net = vtime::model_from_env();
  config.dsm.pool_bytes = 64u << 20;
  return config;
}

// ---- per-call recorder (traced runs of `sync`) ------------------------------

/// The runtime calls whose per-call cost the traced run reports.
enum class Call {
  kParallel,
  kBarrier,
  kTeamUpdate,
  kTeamReduce,
  kSingleSmall,
  kCriticalConventional,
  kSingleConventional,
  kCount
};

/// Raw host-ns and virtual-µs samples, one vector per (call, global thread)
/// so each thread appends only to its own slots.
class CallRecorder {
 public:
  explicit CallRecorder(int threads)
      : host_ns_(kCalls, std::vector<std::vector<double>>(threads)),
        virtual_us_(kCalls, std::vector<std::vector<double>>(threads)) {}

  template <typename F>
  void time(Call call, F&& body) {
    const auto host_start = Clock::now();
    const VirtualUs v_start = vtime_now();
    body();
    const VirtualUs v_end = vtime_now();
    const auto host_end = Clock::now();
    const auto slot = static_cast<std::size_t>(thread_id());
    const auto c = static_cast<std::size_t>(call);
    host_ns_[c][slot].push_back(
        std::chrono::duration<double, std::nano>(host_end - host_start).count());
    virtual_us_[c][slot].push_back(v_end - v_start);
  }

  /// Median over every sample of `call`; 0 when the solve made no such call.
  double host_us(Call call) const { return pooled_median(host_ns_, call) / 1e3; }
  double virtual_us(Call call) const { return pooled_median(virtual_us_, call); }

 private:
  static constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);
  using Samples = std::vector<std::vector<std::vector<double>>>;

  static double pooled_median(const Samples& samples, Call call) {
    std::vector<double> all;
    for (const auto& per_thread : samples[static_cast<std::size_t>(call)]) {
      all.insert(all.end(), per_thread.begin(), per_thread.end());
    }
    return median(std::move(all));
  }

  Samples host_ns_;
  Samples virtual_us_;
};

/// Runs `body`, timing it when a recorder is attached (every solve of a
/// traced run, so the timed solves carry no benchmark instrumentation).
template <typename F>
void call_into(CallRecorder* recorder, Call call, F&& body) {
  if (recorder == nullptr) {
    body();
  } else {
    recorder->time(call, std::forward<F>(body));
  }
}

// ---- workloads --------------------------------------------------------------

/// One workload: the SPMD program every node runs, its verification, and a
/// plain single-threaded solve of the same problem.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Called before each solve; clears per-node outputs.
  virtual void reset(const RuntimeConfig& config) = 0;
  virtual void program(CallRecorder* recorder) = 0;
  virtual bool verify() const = 0;
  virtual void solve_serial() = 0;
};

/// NAS CG class S on the NPB 2.3 makea matrix, checked against NPB's zeta.
class CgWorkload final : public Workload {
 public:
  CgWorkload() {
    if (!apps::cg_reference_zeta(params_, &reference_)) {
      std::fprintf(stderr, "perfbench: no NPB reference zeta for class S\n");
      std::exit(2);
    }
  }
  void reset(const RuntimeConfig& config) override {
    results_.assign(config.nodes, {});
  }
  void program(CallRecorder*) override {
    results_[static_cast<std::size_t>(node_id())] = apps::cg_parade(params_);
  }
  bool verify() const override {
    return std::all_of(results_.begin(), results_.end(), [&](const auto& r) {
      return std::abs(r.zeta - reference_) <= 1e-10 * std::abs(reference_);
    });
  }
  void solve_serial() override { (void)apps::cg_serial(params_); }

 private:
  const apps::CgParams params_ = apps::CgParams::class_s();
  double reference_ = 0.0;
  std::vector<apps::CgResult> results_;
};

/// 192x192 Jacobi Helmholtz, 60 fixed iterations, checked against the serial
/// solver on the same parameters (computed once, outside the timed solves).
class HelmholtzWorkload final : public Workload {
 public:
  HelmholtzWorkload() : reference_(apps::helmholtz_serial(params())) {}
  void reset(const RuntimeConfig& config) override {
    results_.assign(config.nodes, {});
  }
  void program(CallRecorder*) override {
    results_[static_cast<std::size_t>(node_id())] =
        apps::helmholtz_parade(params());
  }
  bool verify() const override {
    // Node 0 alone computes the RMS error; every node reports the residual.
    // The team reduction sums partial residuals in another order than the
    // serial loop, hence a relative tolerance rather than bit equality.
    const auto close = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
    };
    if (!close(results_[0].error, reference_.error)) return false;
    return std::all_of(results_.begin(), results_.end(), [&](const auto& r) {
      return r.iterations == reference_.iterations &&
             close(r.residual, reference_.residual);
    });
  }
  void solve_serial() override { (void)apps::helmholtz_serial(params()); }

 private:
  static apps::HelmholtzParams params() {
    apps::HelmholtzParams p;
    p.n = p.m = 192;
    p.max_iters = 60;
    p.tol = 0.0;
    return p;
  }
  const apps::HelmholtzResult reference_;
  std::vector<apps::HelmholtzResult> results_;
};

/// The EPCC construct mix behind the paper's Figures 6-7: each construct runs
/// kIterations times, the constructs in a seed-chosen order. Every thread
/// records what it observed; verification compares it with
/// kIterations x team size, or with kIterations for the run count of the
/// conventional single.
class SyncWorkload final : public Workload {
 public:
  static constexpr long kIterations = 200;

  enum Construct {
    kParallel,
    kBarrier,
    kCritical,      // team_update: translated `critical` and `atomic` alike
    kReduction,     // team_reduce
    kSingle,        // single_small
    kCriticalKdsm,  // critical_conventional (DSM lock)
    kSingleKdsm,    // single_conventional (DSM lock + flag + barrier)
    kConstructs
  };

  explicit SyncWorkload(std::uint64_t seed) {
    for (int c = 0; c < kConstructs; ++c) order_.push_back(static_cast<Construct>(c));
    std::mt19937_64 rng(seed);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  static const char* name(Construct c) {
    static const char* const kNames[] = {
        "parallel", "barrier",       "critical",   "reduction",
        "single",   "critical_kdsm", "single_kdsm"};
    return kNames[c];
  }
  const std::vector<Construct>& order() const { return order_; }

  void reset(const RuntimeConfig& config) override {
    team_ = config.total_threads();
    observed_.assign(kConstructs, std::vector<double>(team_, 0.0));
  }

  void program(CallRecorder* rec) override {
    for (const Construct c : order_) run(c, rec);
  }

  bool verify() const override {
    for (int c = 0; c < kConstructs; ++c) {
      const auto& seen = observed_[c];
      // The conventional single's body runs once per generation, not once
      // per thread.
      const double want =
          static_cast<double>(kIterations) * (c == kSingleKdsm ? 1 : team_);
      if (summed(static_cast<Construct>(c))) {
        if (std::accumulate(seen.begin(), seen.end(), 0.0) != want) return false;
      } else if (!std::all_of(seen.begin(), seen.end(),
                              [&](double v) { return v == want; })) {
        return false;
      }
    }
    return true;
  }

  void solve_serial() override {
    // The same counter updates on one thread: what the mix computes, without
    // any synchronization.
    volatile double sink = 0.0;
    for (int c = 0; c < kConstructs; ++c) {
      for (long i = 0; i < kIterations * team_; ++i) sink = sink + 1.0;
    }
  }

 private:
  /// Counts each thread contributes to (their sum is checked), as opposed to
  /// replicated or shared values every thread must read in full.
  static bool summed(Construct c) {
    return c == kParallel || c == kBarrier || c == kSingle;
  }

  double& slot(Construct c) { return observed_[c][static_cast<std::size_t>(thread_id())]; }

  void run(Construct c, CallRecorder* rec) {
    const long n = kIterations;
    switch (c) {
      case kParallel:
        for (long i = 0; i < n; ++i) {
          call_into(rec, Call::kParallel, [&] { parallel([&] { slot(c) += 1.0; }); });
        }
        return;
      case kBarrier:
        parallel([&] {
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kBarrier, [] { barrier(); });
            slot(c) += 1.0;
          }
        });
        return;
      case kCritical: {
        double replica = 0.0;
        parallel([&] {
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kTeamUpdate,
                      [&] { team_update(&replica, 1.0, mp::Op::kSum); });
          }
          slot(c) = replica;
        });
        return;
      }
      case kReduction:
        parallel([&] {
          double total = 0.0;
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kTeamReduce,
                      [&] { total += team_reduce(1.0, mp::Op::kSum); });
          }
          slot(c) = total;
        });
        return;
      case kSingle: {
        double value = -1.0;
        parallel([&] {
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kSingleSmall, [&] {
              single_small(&value, sizeof(value),
                           [&] { value = static_cast<double>(i); });
            });
            if (value == static_cast<double>(i)) slot(c) += 1.0;
          }
        });
        return;
      }
      case kCriticalKdsm: {
        auto* sum = shmalloc_array<double>(1);
        if (node_id() == 0) *sum = 0.0;
        barrier();
        parallel([&] {
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kCriticalConventional,
                      [&] { critical_conventional(1, [&] { *sum += 1.0; }); });
          }
          barrier();
          slot(c) = *sum;
        });
        return;
      }
      case kSingleKdsm: {
        // Reading the body's value after the call would race with the next
        // generation's write on another node, so the check counts runs.
        auto* flag = shmalloc_array<std::int64_t>(1);
        auto* runs = shmalloc_array<double>(1);
        if (node_id() == 0) {
          *flag = 0;
          *runs = 0.0;
        }
        barrier();
        parallel([&] {
          for (long i = 0; i < n; ++i) {
            call_into(rec, Call::kSingleConventional, [&] {
              single_conventional(2, flag, i + 1, [&] { *runs += 1.0; });
            });
          }
          slot(c) = *runs;
        });
        return;
      }
      case kConstructs:
        return;
    }
  }

  std::vector<Construct> order_;
  int team_ = 0;
  /// observed_[construct][global thread]; each thread writes its own slot.
  std::vector<std::vector<double>> observed_;
};

// ---- one solve --------------------------------------------------------------

struct Solve {
  bool traced = false;
  bool ok = false;
  double setup_s = 0.0;     // VirtualCluster constructor (pool, comm threads)
  double wall_s = 0.0;      // VirtualCluster::exec
  double vtime_s = 0.0;     // slowest node's virtual time
  double steal_share = 0.0; // share of the CPUs' time stolen during exec
  double shutdown_s = 0.0;  // VirtualCluster::shutdown
  double retries = 0.0;     // dsm.retry.count + mp.retry.count, all nodes
  std::map<std::string, double> layers;  // traced solves only
  std::vector<std::string> missing;      // registry names layers lacked
};

/// One solve's registry totals, summed over nodes: counters by name, timer
/// and histogram totals as "<name>.total_ns", histogram counts as
/// "<name>.count". A key that is not there reads 0 and is remembered, so a
/// renamed registry entry shows up as missing instead of as a quiet 0.
class RegistryTotals {
 public:
  explicit RegistryTotals(int nodes) {
    auto& registry = obs::Registry::instance();
    for (NodeId node = 0; node < nodes; ++node) {
      const obs::NodeSnapshot snap = registry.snapshot(node);
      for (const auto& [name, value] : snap.counters) {
        sum_[name] += static_cast<double>(value);
      }
      for (const auto& [name, t] : snap.timers) {
        // Team threads time their barrier waits as rt.barrier_wait.t<i>.
        const std::string key =
            name.rfind("rt.barrier_wait.", 0) == 0 ? "rt.barrier_wait" : name;
        sum_[key + ".total_ns"] += static_cast<double>(t.total_ns);
      }
      for (const auto& [name, h] : snap.hists) {
        sum_[name + ".total_ns"] += static_cast<double>(h.total_ns);
        sum_[name + ".count"] += static_cast<double>(h.count);
      }
    }
  }

  double get(const std::string& key) {
    const auto it = sum_.find(key);
    if (it != sum_.end()) return it->second;
    missing_.push_back(key);
    return 0.0;
  }
  const std::vector<std::string>& missing() const { return missing_; }

 private:
  std::map<std::string, double> sum_;
  std::vector<std::string> missing_;
};

/// Per-solve layer numbers. Times come from timer and histogram totals
/// (total / count for a per-call mean), never from histogram bucket
/// percentiles.
std::map<std::string, double> layer_metrics(RegistryTotals& totals,
                                            const CallRecorder& rec) {
  const auto get = [&](const std::string& key) { return totals.get(key); };
  const auto per_call_us = [&](const std::string& hist) {
    const double count = get(hist + ".count");
    return count > 0 ? get(hist + ".total_ns") / count / 1e3 : 0.0;
  };

  std::map<std::string, double> m;
  m["dsm.page_fetches"] = get("dsm.page_fetches");
  m["dsm.fetch_us"] = per_call_us("dsm.fetch_ns");
  m["dsm.fetch_busy_s"] = get("dsm.fetch_ns.total_ns") / 1e9;
  m["dsm.read_faults"] = get("dsm.read_faults");
  m["dsm.write_faults"] = get("dsm.write_faults");
  m["dsm.fetch_per_read_fault"] =
      get("dsm.read_faults") > 0 ? get("dsm.page_fetches") / get("dsm.read_faults")
                                 : 0.0;
  m["dsm.diffs_created"] = get("dsm.diffs_created");
  m["dsm.diff_bytes"] = get("dsm.diff_bytes_sent");
  m["dsm.write_notices"] = get("dsm.write_notices_sent");
  m["dsm.home_migrations"] = get("dsm.home_migrations");
  m["dsm.barriers"] = get("dsm.barriers");
  m["dsm.barrier_wait_s"] = get("dsm.barrier_wait_ns.total_ns") / 1e9;
  m["dsm.lock_acquires"] = get("dsm.lock_acquires");
  m["dsm.lock_grant_us"] = per_call_us("dsm.lock_grant_ns");
  m["dsm.critical_conventional_us"] = rec.host_us(Call::kCriticalConventional);
  m["dsm.single_conventional_us"] = rec.host_us(Call::kSingleConventional);
  m["dsm.retries"] = get("dsm.retry.count");

  m["mp.collectives"] = get("mp.barriers") + get("mp.bcasts") + get("mp.reduces") +
                        get("mp.allreduces") + get("mp.gathers") +
                        get("mp.allgathers");
  m["mp.collective_us"] = per_call_us("mp.collective_ns");
  m["mp.coll_bytes"] = get("mp.coll_payload_bytes");
  m["mp.recv_wait_s"] = get("mp.recv_wait.total_ns") / 1e9;
  m["mp.retries"] = get("mp.retry.count");

  m["net.dsm_msgs"] = get("net.send_msgs.dsm");
  m["net.dsm_bytes"] = get("net.send_bytes.dsm");
  m["net.coll_msgs"] = get("net.send_msgs.coll");
  m["net.coll_bytes"] = get("net.send_bytes.coll");

  m["runtime.parallel_regions"] = get("rt.parallel_regions");
  m["runtime.barrier_wait_s"] = get("rt.barrier_wait.total_ns") / 1e9;
  m["runtime.parallel_us"] = rec.host_us(Call::kParallel);
  m["runtime.barrier_us"] = rec.host_us(Call::kBarrier);
  m["runtime.critical_us"] = rec.host_us(Call::kTeamUpdate);
  m["runtime.reduction_us"] = rec.host_us(Call::kTeamReduce);
  m["runtime.single_us"] = rec.host_us(Call::kSingleSmall);

  m["vtime.critical_us"] = rec.virtual_us(Call::kTeamUpdate);
  m["vtime.critical_kdsm_us"] = rec.virtual_us(Call::kCriticalConventional);
  m["vtime.single_us"] = rec.virtual_us(Call::kSingleSmall);
  m["vtime.single_kdsm_us"] = rec.virtual_us(Call::kSingleConventional);
  return m;
}

/// One solve on a fresh cluster. `record` attaches the per-call recorder;
/// a traced run sets it on both solves of each untraced/traced pair, so
/// their wall-time ratio differs by PARADE_TRACE alone.
Solve run_solve(const RuntimeConfig& config, Workload& workload, bool traced,
                bool record) {
  auto& registry = obs::Registry::instance();
  registry.set_trace_enabled(traced);
  if (traced) registry.reset_trace();

  Solve solve;
  solve.traced = traced;
  workload.reset(config);
  std::optional<CallRecorder> recorder;
  if (record) recorder.emplace(config.total_threads());
  CallRecorder* rec = recorder ? &*recorder : nullptr;

  auto start = Clock::now();
  VirtualCluster cluster(config);
  solve.setup_s = seconds_since(start);

  const double steal_start = host_steal_s();
  start = Clock::now();
  const VirtualUs us = cluster.exec([&] { workload.program(rec); });
  solve.wall_s = seconds_since(start);
  static const double cpus =
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  solve.steal_share = (host_steal_s() - steal_start) / (solve.wall_s * cpus);
  solve.vtime_s = us / 1e6;

  start = Clock::now();
  cluster.shutdown();
  solve.shutdown_s = seconds_since(start);

  // The fabric is fault-free, so any retry is a failure, like a wrong answer.
  RegistryTotals totals(config.nodes);
  solve.retries = totals.get("dsm.retry.count") + totals.get("mp.retry.count");
  solve.ok = workload.verify() && solve.retries == 0;
  if (traced && rec != nullptr) solve.layers = layer_metrics(totals, *rec);
  solve.missing = totals.missing();
  return solve;
}

void print_solve(const Solve& s) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("kind");
  w.value("solve");
  w.key("traced");
  w.value(s.traced);
  w.key("ok");
  w.value(s.ok);
  w.key("setup_s");
  w.value(s.setup_s);
  w.key("wall_s");
  w.value(s.wall_s);
  w.key("vtime_s");
  w.value(s.vtime_s);
  w.key("shutdown_s");
  w.value(s.shutdown_s);
  w.key("steal_share");
  w.value(s.steal_share);
  w.key("retries");
  w.value(s.retries);
  w.key("missing");
  w.begin_array();
  for (const auto& name : s.missing) w.value(name);
  w.end_array();
  if (s.traced) {
    w.key("layers");
    w.begin_object();
    for (const auto& [name, value] : s.layers) {
      w.key(name);
      w.value(value);
    }
    w.end_object();
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::string mode;
  std::string export_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "parade_perfbench: %s\n"
               "usage: parade_perfbench --workload=cg|helmholtz|sync --seed=N "
               "--seconds=S --mode=timed|traced|smoke [--export=PATH]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) usage("bad argument");
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      args.workload = value;
    } else if (key == "mode") {
      args.mode = value;
    } else if (key == "export") {
      args.export_path = value;
    } else if (key == "seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes a whole number");
      have_seed = true;
    } else if (key == "seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0)) {
        usage("--seconds takes a positive number");
      }
    } else {
      usage("unknown flag");
    }
  }
  if (args.workload != "cg" && args.workload != "helmholtz" &&
      args.workload != "sync") {
    usage("unknown workload");
  }
  if (args.mode != "timed" && args.mode != "traced" && args.mode != "smoke") {
    usage("unknown mode");
  }
  if (!have_seed || (args.mode != "smoke" && args.seconds <= 0)) {
    usage("--seed and --seconds are required");
  }
  if (args.mode != "timed" && args.export_path.empty()) {
    usage("--export is required with --mode=traced|smoke");
  }
  return args;
}

/// A run keeps solving until its time is up, but never stops with fewer
/// solves than this: the tail percentile needs ten solves beyond it.
constexpr int kMinSolves = 21;
/// Serial solves of the same problem in a traced run (median reported).
constexpr int kSerialSolves = 5;

int main_impl(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Shape shape = pick_shape();
  const RuntimeConfig config = cluster_config(shape);

  std::unique_ptr<Workload> workload;
  std::vector<std::string> order;
  if (args.workload == "cg") {
    workload = std::make_unique<CgWorkload>();
  } else if (args.workload == "helmholtz") {
    workload = std::make_unique<HelmholtzWorkload>();
  } else {
    auto sync = std::make_unique<SyncWorkload>(args.seed);
    for (const auto c : sync->order()) order.push_back(SyncWorkload::name(c));
    workload = std::move(sync);
  }

  std::vector<double> serial_s;
  if (args.mode == "smoke") {
    print_solve(run_solve(config, *workload, /*traced=*/true, /*record=*/true));
  } else {
    // Untimed warm-up: page cache, allocator arenas and lazy statics.
    (void)run_solve(config, *workload, /*traced=*/false, /*record=*/false);
    std::mt19937_64 rng(args.seed);
    const auto start = Clock::now();
    for (int n = 0; n < kMinSolves || seconds_since(start) < args.seconds; ++n) {
      if (args.mode == "timed") {
        print_solve(run_solve(config, *workload, false, false));
      } else {
        // The seed decides which of each untraced/traced pair runs first.
        const bool traced_first = (rng() & 1) != 0;
        print_solve(run_solve(config, *workload, traced_first, true));
        print_solve(run_solve(config, *workload, !traced_first, true));
      }
    }
    if (args.mode == "traced") {
      for (int i = 0; i < kSerialSolves; ++i) {
        const auto t = Clock::now();
        workload->solve_serial();
        serial_s.push_back(seconds_since(t));
      }
    }
  }

  if (!args.export_path.empty()) {
    // The registry and trace ring hold the last solve, which is traced:
    // re-run one if the seeded order ended on an untraced solve.
    if (!obs::Registry::instance().trace_enabled()) {
      (void)run_solve(config, *workload, /*traced=*/true, /*record=*/true);
    }
    const Status s =
        obs::Registry::instance().export_to(args.export_path, args.workload);
    if (!s.is_ok()) {
      std::fprintf(stderr, "parade_perfbench: export failed: %s\n",
                   s.message().c_str());
      return 1;
    }
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  obs::JsonWriter w;
  w.begin_object();
  w.key("kind");
  w.value("run");
  w.key("workload");
  w.value(args.workload);
  w.key("seed");
  w.value(args.seed);
  w.key("nproc");
  w.value(static_cast<std::int64_t>(shape.nproc));
  w.key("nodes");
  w.value(static_cast<std::int64_t>(config.nodes));
  w.key("threads_per_node");
  w.value(static_cast<std::int64_t>(config.threads_per_node));
  w.key("node_config");
  w.value(vtime::to_string(vtime::NodeConfig::k1Thread2Cpu));
  w.key("cpu_scale");
  w.value(config.cpu_scale);
  w.key("net_latency_us");
  w.value(config.dsm.net.latency_us);
  w.key("construct_order");
  w.begin_array();
  for (const auto& name : order) w.value(name);
  w.end_array();
  w.key("serial_s");
  w.begin_array();
  for (const double s : serial_s) w.value(s);
  w.end_array();
  w.key("peak_rss_mb");
  w.value(static_cast<double>(usage_now.ru_maxrss) / 1024.0);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace
}  // namespace parade::perfbench

int main(int argc, char** argv) {
  return parade::perfbench::main_impl(argc, argv);
}
