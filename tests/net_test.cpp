#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>
#include <thread>

#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "net/mailbox.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace parade::net {
namespace {

Message make_msg(NodeId src, NodeId dst, Tag tag, std::size_t bytes = 0) {
  MessageHeader h;
  h.src = src;
  h.dst = dst;
  h.tag = tag;
  return Message(h, std::vector<std::uint8_t>(bytes, 0x5A));
}

TEST(Mailbox, FifoWithinMatch) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 7, 1));
  box.deliver(make_msg(0, 1, 7, 2));
  auto m1 = box.try_recv_match([](const MessageHeader& h) { return h.tag == 7; });
  auto m2 = box.try_recv_match([](const MessageHeader& h) { return h.tag == 7; });
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->payload.size(), 1u);
  EXPECT_EQ(m2->payload.size(), 2u);
}

TEST(Mailbox, PredicateSkipsNonMatching) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 3));
  box.deliver(make_msg(0, 1, 9));
  auto m = box.try_recv_match([](const MessageHeader& h) { return h.tag == 9; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.tag, 9);
  EXPECT_EQ(box.pending(), 1u);  // tag 3 still queued
}

TEST(Mailbox, BlockingRecvWakesOnDeliver) {
  Mailbox box;
  std::thread producer([&] { box.deliver(make_msg(2, 0, 11)); });
  auto m = box.recv_match([](const MessageHeader& h) { return h.tag == 11; });
  producer.join();
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 2);
}

TEST(Mailbox, CloseWakesBlockedReceivers) {
  Mailbox box;
  std::atomic<bool> got_null{false};
  std::thread consumer([&] {
    auto m = box.recv_match([](const MessageHeader&) { return true; });
    got_null.store(!m.has_value());
  });
  box.close();
  consumer.join();
  EXPECT_TRUE(got_null.load());
}

TEST(Mailbox, DrainsMatchesAfterClose) {
  Mailbox box;
  box.deliver(make_msg(0, 1, 5));
  box.close();
  auto m = box.recv_match([](const MessageHeader& h) { return h.tag == 5; });
  EXPECT_TRUE(m.has_value());
  auto none = box.recv_match([](const MessageHeader&) { return true; });
  EXPECT_FALSE(none.has_value());
}

TEST(Mailbox, PeerDownWakesBlockedWaiterWithUnavailable) {
  // Regression: a receiver blocked (no timeout) on a specific peer must not
  // hang forever when that peer's link dies — mark_peer_down has to wake it
  // with kUnavailable.
  Mailbox box;
  std::atomic<bool> woke_unavailable{false};
  std::thread waiter([&] {
    auto outcome = box.recv_match_from(
        /*peer=*/2, [](const MessageHeader&) { return true; });
    woke_unavailable.store(!outcome.message.has_value() &&
                           outcome.status.code() == ErrorCode::kUnavailable);
  });
  box.mark_peer_down(2);
  waiter.join();
  EXPECT_TRUE(woke_unavailable.load());
  EXPECT_TRUE(box.peer_down(2));
  EXPECT_FALSE(box.closed());  // the mailbox itself stays usable
}

TEST(Mailbox, PeerDownDrainsQueuedMessagesFirst) {
  Mailbox box;
  box.deliver(make_msg(2, 0, 7));
  box.mark_peer_down(2);
  // The queued message outlives the peer: drain it, then observe the error.
  auto first = box.recv_match_from(2, [](const MessageHeader& h) {
    return h.tag == 7;
  });
  ASSERT_TRUE(first.message.has_value());
  EXPECT_TRUE(first.status.is_ok());
  auto second = box.recv_match_from(2, [](const MessageHeader&) {
    return true;
  });
  EXPECT_FALSE(second.message.has_value());
  EXPECT_EQ(second.status.code(), ErrorCode::kUnavailable);
}

TEST(Mailbox, PeerDownLeavesOtherPeersAlone) {
  Mailbox box;
  box.mark_peer_down(2);
  // A bounded wait on a healthy peer times out normally instead of
  // inheriting the dead peer's error.
  auto outcome = box.recv_match_from(
      /*peer=*/3, [](const MessageHeader&) { return true; },
      std::chrono::milliseconds(10));
  EXPECT_FALSE(outcome.message.has_value());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kTimeout);
}

// RetryPolicy::run is the one retransmit loop of the DSM and MP layers; the
// exact call counts below are its contract.
struct RunCounts {
  int waits = 0;
  int resends = 0;
  std::chrono::milliseconds timeout{0};
};

Status run_with(const RetryPolicy& policy, RunCounts& counts,
                const std::function<WaitOutcome(int)>& outcome_of_wait) {
  return policy.run(
      "net_test.retry",
      [&](std::chrono::milliseconds timeout) {
        counts.timeout = timeout;
        return outcome_of_wait(++counts.waits);
      },
      [&] { ++counts.resends; });
}

TEST(RetryPolicyRun, TimeoutsExhaustTheBudget) {
  const RetryPolicy policy{.timeout_ms = 7, .max_attempts = 4};
  RunCounts counts;
  const Status s =
      run_with(policy, counts, [](int) { return WaitOutcome::kTimedOut; });
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_NE(s.message().find("net_test.retry"), std::string::npos);
  EXPECT_EQ(counts.waits, 4);
  EXPECT_EQ(counts.resends, 3);
  EXPECT_EQ(counts.timeout, std::chrono::milliseconds(7));
}

TEST(RetryPolicyRun, ClosedOnFirstWaitGivesUpWithoutResend) {
  const RetryPolicy policy{.timeout_ms = 7, .max_attempts = 4};
  RunCounts counts;
  const Status s =
      run_with(policy, counts, [](int) { return WaitOutcome::kClosed; });
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(counts.waits, 1);
  EXPECT_EQ(counts.resends, 0);
}

TEST(RetryPolicyRun, DoneAfterKTimeoutsResendsKTimes) {
  const RetryPolicy policy{.timeout_ms = 7, .max_attempts = 4};
  for (int k = 0; k < policy.max_attempts; ++k) {
    RunCounts counts;
    const Status s = run_with(policy, counts, [k](int wait) {
      return wait > k ? WaitOutcome::kDone : WaitOutcome::kTimedOut;
    });
    EXPECT_TRUE(s.is_ok()) << "k=" << k << ": " << s.to_string();
    EXPECT_EQ(counts.waits, k + 1);
    EXPECT_EQ(counts.resends, k);
  }
}

TEST(InProc, DeliversAcrossChannels) {
  InProcFabric fabric(3);
  ASSERT_TRUE(fabric.channel(0).send(2, 42, {1, 2, 3}, 0.0).is_ok());
  auto m = fabric.channel(2).inbox().recv_match(
      [](const MessageHeader& h) { return h.tag == 42; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 0);
  EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(InProc, SelfSend) {
  InProcFabric fabric(2);
  ASSERT_TRUE(fabric.channel(1).send(1, 9, {}, 0.0).is_ok());
  auto m = fabric.channel(1).inbox().try_recv_match(
      [](const MessageHeader& h) { return h.tag == 9; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->header.src, 1);
}

TEST(InProc, SendToClosedInboxReturnsUnavailable) {
  InProcFabric fabric(2);
  fabric.channel(1).shutdown();
  Status s = fabric.channel(0).send(1, 5, {1}, 0.0);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
}

TEST(InProc, ManyThreadsManyMessages) {
  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  InProcFabric fabric(kSenders + 1);
  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        ASSERT_TRUE(fabric.channel(s)
                        .send(kSenders, 100 + s,
                              {static_cast<std::uint8_t>(i)}, 0.0)
                        .is_ok());
      }
    });
  }
  int received = 0;
  while (received < kSenders * kPerSender) {
    auto m = fabric.channel(kSenders).inbox().recv_match(
        [](const MessageHeader& h) { return h.tag >= 100; });
    ASSERT_TRUE(m);
    ++received;
  }
  for (auto& t : senders) t.join();
}

TEST(Socket, FullMeshRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "parade-socket-test").string();
  std::filesystem::create_directories(dir);

  constexpr int kNodes = 3;
  std::vector<std::unique_ptr<SocketFabric>> fabrics(kNodes);
  std::vector<std::thread> joiners;
  for (int r = 0; r < kNodes; ++r) {
    joiners.emplace_back([&, r] {
      auto fabric = SocketFabric::create(r, kNodes, dir);
      ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
      fabrics[static_cast<std::size_t>(r)] = std::move(fabric).value();
    });
  }
  for (auto& t : joiners) t.join();

  // Every node sends its rank to every other node.
  for (int r = 0; r < kNodes; ++r) {
    for (int peer = 0; peer < kNodes; ++peer) {
      if (peer == r) continue;
      ASSERT_TRUE(fabrics[static_cast<std::size_t>(r)]
                      ->send(peer, 55, {static_cast<std::uint8_t>(r)}, 1.5)
                      .is_ok());
    }
  }
  for (int r = 0; r < kNodes; ++r) {
    std::set<int> sources;
    for (int k = 0; k < kNodes - 1; ++k) {
      auto m = fabrics[static_cast<std::size_t>(r)]->inbox().recv_match(
          [](const MessageHeader& h) { return h.tag == 55; });
      ASSERT_TRUE(m);
      EXPECT_DOUBLE_EQ(m->header.vtime, 1.5);
      sources.insert(m->header.src);
    }
    EXPECT_EQ(sources.size(), static_cast<std::size_t>(kNodes - 1));
  }
  for (auto& fabric : fabrics) fabric->shutdown();
  std::filesystem::remove_all(dir);
}

TEST(Socket, LargePayload) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "parade-socket-large").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<SocketFabric> f0, f1;
  std::thread t0([&] { f0 = std::move(SocketFabric::create(0, 2, dir)).value(); });
  std::thread t1([&] { f1 = std::move(SocketFabric::create(1, 2, dir)).value(); });
  t0.join();
  t1.join();

  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  ASSERT_TRUE(f0->send(1, 77, big, 0.0).is_ok());
  auto m = f1->inbox().recv_match(
      [](const MessageHeader& h) { return h.tag == 77; });
  ASSERT_TRUE(m);
  EXPECT_EQ(m->payload, big);
  f0->shutdown();
  f1->shutdown();
  std::filesystem::remove_all(dir);
}

/// Sends one message 0 -> 1 over a fresh socket pair and returns the
/// received header. When `traced`, the send runs inside a span and `sent`
/// receives its context.
MessageHeader socket_round_trip(const std::string& name, bool traced,
                                obs::SpanContext* sent) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / name).string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<SocketFabric> f0, f1;
  std::thread t0(
      [&] { f0 = std::move(SocketFabric::create(0, 2, dir)).value(); });
  std::thread t1(
      [&] { f1 = std::move(SocketFabric::create(1, 2, dir)).value(); });
  t0.join();
  t1.join();
  if (traced) {
    obs::ScopedSpan span(obs::TraceKind::kSend, 0, 81);
    *sent = span.context();
    EXPECT_TRUE(f0->send(1, 81, {2}, 0.0).is_ok());
  } else {
    EXPECT_TRUE(f0->send(1, 81, {1}, 0.0).is_ok());
  }
  auto m = f1->inbox().recv_match(
      [](const MessageHeader& h) { return h.tag == 81; });
  f0->shutdown();
  f1->shutdown();
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(m);
  return m ? m->header : MessageHeader{};
}

TEST(Socket, TraceIdsSurviveRoundTrip) {
  // Untraced sender: the frame still carries the extension, zeroed.
  obs::SpanContext unused;
  const MessageHeader plain =
      socket_round_trip("parade-sock-plain", false, &unused);
  EXPECT_EQ(plain.trace_id, 0u);
  EXPECT_EQ(plain.span_id, 0u);

  // Traced sender: the ambient span's ids arrive intact. The flag is only
  // flipped while no fabric thread is running (it is a plain bool).
  auto& reg = obs::Registry::instance();
  reg.set_trace_enabled(true);
  obs::SpanContext sent;
  const MessageHeader traced =
      socket_round_trip("parade-sock-traced", true, &sent);
  reg.set_trace_enabled(false);
  ASSERT_TRUE(sent.valid());
  EXPECT_EQ(traced.trace_id, sent.trace_id);
  EXPECT_EQ(traced.span_id, sent.span_id);
}

TEST(Socket, MagiclessFrameMarksPeerDown) {
  // A raw client completes rank 1's handshake, then writes a frame that
  // does not open with the wire magic (a bare 24-byte header, as an old or
  // foreign peer would). Rank 0 must drop the peer rather than parse the
  // bytes as a header: its recv from rank 1 reports kUnavailable.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "parade-sock-magic").string();
  std::filesystem::create_directories(dir);
  std::unique_ptr<SocketFabric> f0;
  std::thread t0([&] {
    auto fabric = SocketFabric::create(0, 2, dir);
    ASSERT_TRUE(fabric.is_ok()) << fabric.status().to_string();
    f0 = std::move(fabric).value();
  });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = dir + "/node-0.sock";
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  int fd = -1;
  for (int attempt = 0; attempt < 2500; ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    ::usleep(2000);
  }
  ASSERT_GE(fd, 0) << "rank 0 never listened";
  const std::int32_t rank = 1;
  ASSERT_EQ(::write(fd, &rank, sizeof(rank)), ssize_t{sizeof(rank)});
  t0.join();
  ASSERT_TRUE(f0);

  struct {
    std::int32_t src = 1, dst = 0, tag = 5;
    std::uint32_t payload_size = 0;
    double vtime = 0.0;
  } bare;
  static_assert(sizeof(bare) == 24);
  ASSERT_EQ(::write(fd, &bare, sizeof(bare)), ssize_t{sizeof(bare)});

  auto outcome = f0->inbox().recv_match_from(
      /*peer=*/1, [](const MessageHeader&) { return true; });
  EXPECT_FALSE(outcome.message.has_value());
  EXPECT_EQ(outcome.status.code(), ErrorCode::kUnavailable);

  ::close(fd);
  f0->shutdown();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace parade::net
