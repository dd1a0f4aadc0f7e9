// google-benchmark microbenchmarks for the message-passing library:
// in-process ping-pong latency/bandwidth and collective operations at
// several node counts. Wall-clock numbers for the implementation itself.
// The collective benchmarks build the fabric and the rank threads once and
// time one collective per iteration, so each frame's ack wait is visible.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "mp/comm.hpp"
#include "net/inproc.hpp"
#include "vtime/cost_model.hpp"

namespace parade::mp {
namespace {

void must(const Status& s) { PARADE_CHECK_MSG(s.is_ok(), s.to_string()); }

void BM_PingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  net::InProcFabric fabric(2);
  Comm comm0(Topology::flat(0, 2), fabric.channel(0), vtime::ideal());
  Comm comm1(Topology::flat(1, 2), fabric.channel(1), vtime::ideal());
  std::vector<std::uint8_t> payload(bytes, 0xAB);

  std::atomic<bool> stop{false};
  std::thread echo([&] {
    for (;;) {
      auto data = comm1.try_recv_bytes(0, 5);
      if (!data) {
        if (stop.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
        continue;
      }
      must(comm1.send(0, 6, data->data(), data->size()));
    }
  });

  std::vector<std::uint8_t> buffer(bytes);
  for (auto _ : state) {
    must(comm0.send(1, 5, payload.data(), payload.size()));
    must(comm0.recv(1, 6, buffer.data(), buffer.size()));
  }
  stop.store(true);
  echo.join();
  fabric.shutdown();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * bytes));
}
BENCHMARK(BM_PingPong)->Arg(8)->Arg(4096)->Arg(65536);

/// `n` ranks over one in-process fabric, built once per benchmark. The
/// benchmark thread is rank 0; ranks 1..n-1 run on threads that live as long
/// as this object and perform `op` once per round that rank 0 starts.
class Ranks {
 public:
  Ranks(int n, std::function<void(Comm&)> op)
      : fabric_(n), op_(std::move(op)) {
    for (NodeId r = 0; r < n; ++r) {
      comms_.push_back(std::make_unique<Comm>(
          Topology::flat(r, n), fabric_.channel(r), vtime::ideal()));
    }
    for (NodeId r = 1; r < n; ++r) {
      workers_.emplace_back([this, r] { work(*comms_[r]); });
    }
  }

  ~Ranks() {
    stop_.store(true, std::memory_order_relaxed);
    round_.fetch_add(1, std::memory_order_release);
    for (auto& t : workers_) t.join();
    fabric_.shutdown();
  }

  /// Runs `op` once on every rank; returns the round's wall seconds.
  double round() {
    const auto start = std::chrono::steady_clock::now();
    done_.store(0, std::memory_order_relaxed);
    round_.fetch_add(1, std::memory_order_release);
    op_(*comms_[0]);
    const auto workers = static_cast<int>(workers_.size());
    while (done_.load(std::memory_order_acquire) < workers) {
      std::this_thread::yield();
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  }

 private:
  void work(Comm& comm) {
    for (std::uint64_t seen = 0;;) {
      std::uint64_t now;
      while ((now = round_.load(std::memory_order_acquire)) == seen) {
        std::this_thread::yield();
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = now;
      op_(comm);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  net::InProcFabric fabric_;
  std::function<void(Comm&)> op_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::vector<std::thread> workers_;
  std::atomic<std::uint64_t> round_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
};

void run_collective(benchmark::State& state,
                    const std::function<void(Comm&)>& op) {
  Ranks ranks(static_cast<int>(state.range(0)), op);
  for (auto _ : state) state.SetIterationTime(ranks.round());
}

void BM_Allreduce(benchmark::State& state) {
  run_collective(state, [](Comm& comm) {
    double value = static_cast<double>(comm.rank());
    must(comm.allreduce(&value, 1, DType::kDouble, Op::kSum));
    benchmark::DoNotOptimize(value);
  });
}
BENCHMARK(BM_Allreduce)->Arg(2)->Arg(4)->Arg(8)->UseManualTime();

void BM_Bcast64k(benchmark::State& state) {
  run_collective(state, [](Comm& comm) {
    static thread_local std::vector<std::uint8_t> data(65536, 1);
    must(comm.bcast(data.data(), data.size(), 0));
    benchmark::DoNotOptimize(data);
  });
}
BENCHMARK(BM_Bcast64k)->Arg(2)->Arg(8)->UseManualTime();

void BM_Barrier(benchmark::State& state) {
  run_collective(state, [](Comm& comm) { must(comm.barrier()); });
}
BENCHMARK(BM_Barrier)->Arg(2)->Arg(8)->UseManualTime();

}  // namespace
}  // namespace parade::mp

BENCHMARK_MAIN();
