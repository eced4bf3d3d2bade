// Backend-parameterized transport conformance suite.
//
// Both TCP backends (epoll event loop, io_uring ring loop) must keep the
// same observable contracts: request/response framing, pipelining, the
// O(io_threads + executor_threads) server thread count, bounded-executor
// read throttling, torn-frame poisoning, partial-write recovery under
// send-buffer pressure, read-backpressure hysteresis, and client fault
// probes. Every test here runs once per backend; the io_uring instantiation
// skips cleanly when the kernel lacks the feature set (the skip message says
// why), so the suite stays green on old kernels while still proving parity
// where the ring exists.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "fault/fault_plane.h"
#include "net/frame.h"
#include "net/tcp_net.h"
#include "obs/metrics.h"

namespace dpr {
namespace {

void Echo(Slice request, std::string* response) {
  response->assign(request.data(), request.size());
  response->append("!");
}

class NetConformanceTest : public ::testing::TestWithParam<NetBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == NetBackend::kIoUring && !NetUringSupported()) {
      GTEST_SKIP() << "io_uring transport unsupported here (needs multishot "
                      "accept/recv + provided buffer rings, kernel ~6.0+); "
                      "epoll instantiation covers this contract";
    }
  }

  std::unique_ptr<RpcServer> MakeServer(TcpServerOptions options = {}) {
    options.backend = GetParam();
    return MakeTcpServer(0, options);
  }

  std::unique_ptr<RpcConnection> Connect(const std::string& address) {
    std::unique_ptr<RpcConnection> conn;
    Status s = ConnectTcp(address, TcpClientOptions{GetParam()}, &conn);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return conn;
  }
};

TEST_P(NetConformanceTest, RequestResponse) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start(Echo).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);
  std::string response;
  ASSERT_TRUE(conn->Call("tcp ping", &response).ok());
  EXPECT_EQ(response, "tcp ping!");
  conn.reset();
  server->Stop();
}

TEST_P(NetConformanceTest, PipelinedCallsMatchResponses) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start([](Slice req, std::string* resp) {
    resp->assign(req.data(), req.size());
  }).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);
  std::atomic<int> done{0};
  std::atomic<bool> mismatch{false};
  constexpr int kCalls = 200;
  for (int i = 0; i < kCalls; ++i) {
    const std::string msg = "msg" + std::to_string(i);
    conn->CallAsync(msg, [&, msg](Status s, Slice resp) {
      if (!s.ok() || resp != Slice(msg)) mismatch.store(true);
      done.fetch_add(1);
    });
  }
  Stopwatch timer;
  while (done.load() < kCalls && timer.ElapsedMillis() < 10000) {
    SleepMicros(1000);
  }
  EXPECT_EQ(done.load(), kCalls);
  EXPECT_FALSE(mismatch.load());
  conn.reset();
  server->Stop();
}

TEST_P(NetConformanceTest, MultipleClients) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start(Echo).ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      auto conn = Connect(server->address());
      ASSERT_NE(conn, nullptr);
      for (int i = 0; i < 50; ++i) {
        std::string response;
        ASSERT_TRUE(conn->Call("c" + std::to_string(c), &response).ok());
        ASSERT_EQ(response, "c" + std::to_string(c) + "!");
      }
    });
  }
  for (auto& t : clients) t.join();
  server->Stop();
}

// --- fixed-thread-count machinery -----------------------------------------
//
// These helpers talk the wire format directly over raw blocking sockets so
// opening N connections adds zero threads on the *client* side; any growth
// in the process's thread count therefore belongs to the server.

int CountProcessThreads() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int threads = -1;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (sscanf(line, "Threads: %d", &threads) == 1) break;
  }
  fclose(f);
  return threads;
}

int RawConnect(const std::string& address) {
  const size_t colon = address.rfind(':');
  const int port = atoi(address.c_str() + colon + 1);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, address.substr(0, colon).c_str(), &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << strerror(errno);
  return fd;
}

// Blocking loops over a raw socket; a short transfer just continues.
void SendAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t sent = send(fd, data, n, MSG_NOSIGNAL);
    ASSERT_GT(sent, 0) << strerror(errno);
    data += sent;
    n -= static_cast<size_t>(sent);
  }
}

void RecvAll(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t got = recv(fd, data, n, 0);
    ASSERT_GT(got, 0) << (got == 0 ? "peer closed" : strerror(errno));
    data += got;
    n -= static_cast<size_t>(got);
  }
}

// One synchronous request/response in the transport's frame format:
// [u32 payload-length][u64 request-id][payload].
void RawCall(int fd, uint64_t id, const std::string& payload,
             std::string* echo) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed64(&frame, id);
  frame.append(payload);
  ASSERT_NO_FATAL_FAILURE(SendAll(fd, frame.data(), frame.size()));
  char header[12];
  ASSERT_NO_FATAL_FAILURE(RecvAll(fd, header, sizeof(header)));
  const uint32_t len = DecodeFixed32(header);
  ASSERT_EQ(DecodeFixed64(header + 4), id);
  echo->resize(len);
  ASSERT_NO_FATAL_FAILURE(RecvAll(fd, echo->data(), len));
}

// The point of the loop architecture, on either backend: server-side thread
// count is O(io_threads + executor_threads), not O(connections). 64 live
// connections must not add a single thread beyond what the first used.
TEST_P(NetConformanceTest, ServerThreadCountIndependentOfConnectionCount) {
  auto server = MakeServer(TcpServerOptions{.io_threads = 2,
                                            .executor_threads = 2});
  ASSERT_TRUE(server->Start(Echo).ok());

  std::vector<int> fds;
  fds.push_back(RawConnect(server->address()));
  std::string echo;
  RawCall(fds[0], 1, "warmup", &echo);
  EXPECT_EQ(echo, "warmup!");
  const int baseline = CountProcessThreads();
  ASSERT_GT(baseline, 0);

  constexpr int kConns = 64;
  for (int i = 1; i < kConns; ++i) {
    fds.push_back(RawConnect(server->address()));
    RawCall(fds.back(), static_cast<uint64_t>(i) + 1,
            "conn" + std::to_string(i), &echo);
    ASSERT_EQ(echo, "conn" + std::to_string(i) + "!");
  }
  // Every connection is live and has served traffic; thread count is flat.
  EXPECT_EQ(CountProcessThreads(), baseline);

  for (int fd : fds) close(fd);
  server->Stop();
}

// The client side of the same property: every client connection of a
// backend rides one shared loop thread, so opening 64 clients (each
// serving a call) adds no thread after the first client started the loop.
TEST_P(NetConformanceTest, ClientThreadCountIndependentOfConnectionCount) {
  auto server = MakeServer(TcpServerOptions{.io_threads = 2,
                                            .executor_threads = 2});
  ASSERT_TRUE(server->Start(Echo).ok());

  std::vector<std::unique_ptr<RpcConnection>> conns;
  constexpr int kConns = 64;
  int baseline = -1;
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(Connect(server->address()));
    ASSERT_NE(conns.back(), nullptr);
    std::string response;
    const std::string msg = "client" + std::to_string(i);
    ASSERT_TRUE(conns.back()->Call(msg, &response).ok());
    ASSERT_EQ(response, msg + "!");
    if (i == 0) baseline = CountProcessThreads();
  }
  ASSERT_GT(baseline, 0);
  EXPECT_EQ(CountProcessThreads(), baseline);

  conns.clear();
  server->Stop();
}

// A tiny executor intake forces the loop thread to park in Submit while
// the queue is full (the bounded-intake read throttle); every pipelined
// request must still complete.
TEST_P(NetConformanceTest, SmallExecutorStillServes) {
  auto server = MakeServer(TcpServerOptions{.io_threads = 1,
                                            .executor_threads = 1,
                                            .executor_queue_capacity = 4});
  ASSERT_TRUE(server->Start(Echo).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);
  std::atomic<int> done{0};
  constexpr int kCalls = 100;  // far more than the executor's intake of 4
  for (int i = 0; i < kCalls; ++i) {
    conn->CallAsync("q" + std::to_string(i), [&](Status s, Slice) {
      EXPECT_TRUE(s.ok());
      done.fetch_add(1);
    });
  }
  Stopwatch timer;
  while (done.load() < kCalls && timer.ElapsedMillis() < 10000) {
    SleepMicros(1000);
  }
  EXPECT_EQ(done.load(), kCalls);
  conn.reset();
  server->Stop();
}

// End-to-end over the real framing layer: many pipelined frames large
// enough to overflow the send buffer repeatedly must all arrive intact and
// matched to their request ids. (On the uring backend the 128 KiB responses
// also span multiple provided buffers, exercising the carry path.)
TEST_P(NetConformanceTest, FramingSurvivesSendBufferPressure) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start([](Slice request, std::string* response) {
    response->assign(request.data(), request.size());
  }).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);

  constexpr int kCalls = 64;
  const std::string blob(128 * 1024, 'z');
  std::atomic<int> done{0};
  std::vector<Status> statuses(kCalls);
  std::vector<std::string> echoes(kCalls);
  for (int i = 0; i < kCalls; ++i) {
    std::string request = std::to_string(i) + ":" + blob;
    conn->CallAsync(std::move(request), [&, i](Status s, Slice response) {
      statuses[i] = s;
      echoes[i].assign(response.data(), response.size());
      done.fetch_add(1);
    });
  }
  for (int spins = 0; done.load() < kCalls && spins < 10000; ++spins) {
    usleep(1000);
  }
  ASSERT_EQ(done.load(), kCalls);
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << i << ": " << statuses[i].ToString();
    EXPECT_EQ(echoes[i], std::to_string(i) + ":" + blob) << i;
  }
  conn.reset();
  server->Stop();
}

// A frame torn mid-flush (bytes on the wire, then a hard failure) must
// poison the client connection on either backend: the peer's stream
// position is corrupt, so the pending call fails and later calls are
// rejected outright instead of desynchronizing the stream. Driven over a
// socketpair with deliberately tiny kernel buffers so the flush reliably
// parks mid-frame.
TEST_P(NetConformanceTest, TornFrameMidFlushPoisonsConnection) {
  Counter* poisoned = MetricsRegistry::Default().counter("net.tcp.poisoned");
  const uint64_t poisoned_before = poisoned->value();

  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0) << strerror(errno);
  int tiny = 1;  // the kernel clamps to its floor (~4KB total)
  for (int fd : fds) {
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)), 0);
    ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny)), 0);
  }
  std::unique_ptr<RpcConnection> conn =
      internal::WrapClientFdForTest(fds[0], GetParam());
  ASSERT_NE(conn, nullptr);

  // Far larger than the shrunken buffers: the flush lands part of the
  // frame, then parks waiting for buffer space that never comes.
  std::atomic<int> failures{0};
  conn->CallAsync(std::string(1024 * 1024, 'T'), [&](Status s, Slice) {
    EXPECT_FALSE(s.ok());
    failures.fetch_add(1);
  });
  usleep(20 * 1000);   // let the partial write happen
  close(fds[1]);       // mid-frame hard failure (EPIPE/ECONNRESET)

  for (int spins = 0; failures.load() < 1 && spins < 10000; ++spins) {
    usleep(1000);
  }
  ASSERT_EQ(failures.load(), 1);
  // The read side may fail the pending call a beat before the flush path
  // hits the torn-frame check; wait for the poison itself.
  for (int spins = 0;
       poisoned->value() < poisoned_before + 1 && spins < 10000; ++spins) {
    usleep(1000);
  }
  EXPECT_EQ(poisoned->value(), poisoned_before + 1);

  // The poisoned connection rejects new calls immediately.
  std::atomic<bool> rejected{false};
  conn->CallAsync("after poison", [&](Status s, Slice) {
    EXPECT_FALSE(s.ok());
    rejected.store(true);
  });
  for (int spins = 0; !rejected.load() && spins < 10000; ++spins) {
    usleep(1000);
  }
  EXPECT_TRUE(rejected.load());
}

// Read-backpressure integration: a server whose per-connection output
// budget is far smaller than the response volume must pause reads above
// the budget and resume below half of it (ReadGate) — and, crucially, every
// pipelined call still completes once the client drains.
TEST_P(NetConformanceTest, BackpressureHysteresisDrainsCompletely) {
  auto server = MakeServer(TcpServerOptions{
      .io_threads = 1,
      .executor_threads = 2,
      .max_output_queue_bytes = 32 * 1024});  // ~1.5 responses worth
  const std::string blob(20 * 1024, 'b');
  ASSERT_TRUE(server->Start([&blob](Slice req, std::string* resp) {
    resp->assign(req.data(), req.size());
    resp->append(blob);
  }).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);

  constexpr int kCalls = 64;  // >1 MiB of responses through a 32 KiB budget
  std::atomic<int> done{0};
  std::atomic<bool> bad{false};
  for (int i = 0; i < kCalls; ++i) {
    const std::string tag = "bp" + std::to_string(i);
    conn->CallAsync(tag, [&, tag](Status s, Slice resp) {
      if (!s.ok() || resp.view() != tag + blob) bad.store(true);
      done.fetch_add(1);
    });
  }
  Stopwatch timer;
  while (done.load() < kCalls && timer.ElapsedMillis() < 15000) {
    SleepMicros(1000);
  }
  EXPECT_EQ(done.load(), kCalls);
  EXPECT_FALSE(bad.load());
  conn.reset();
  server->Stop();
}

// Client fault probes must fire on the submit path of whichever backend
// carries the call: an armed net.drop consumes the call with TimedOut
// before any bytes reach the wire.
TEST_P(NetConformanceTest, ClientFaultProbesFireOnSubmitPath) {
  auto server = MakeServer();
  ASSERT_TRUE(server->Start(Echo).ok());
  auto conn = Connect(server->address());
  ASSERT_NE(conn, nullptr);

  ScopedFaultPlane plane(/*seed=*/7);
  FaultPlane::Instance().Arm(
      {.point = faults::kNetDrop, .probability = 1.0, .max_fires = 1});

  std::string response;
  Status dropped = conn->Call("will drop", &response);
  EXPECT_TRUE(dropped.IsTimedOut()) << dropped.ToString();
  EXPECT_GE(FaultPlane::Instance().fires(faults::kNetDrop), 1u);

  // The rule is exhausted (max_fires = 1): the connection still works.
  ASSERT_TRUE(conn->Call("after drop", &response).ok());
  EXPECT_EQ(response, "after drop!");
  conn.reset();
  server->Stop();
}

// An explicit kIoUring request never yields a null transport: on kernels
// without support it falls back to epoll and counts the fallback.
TEST(NetBackendTest, ExplicitUringRequestAlwaysServes) {
  Counter* fallbacks =
      MetricsRegistry::Default().counter("net.uring.fallbacks");
  const uint64_t before = fallbacks->value();
  auto server =
      MakeTcpServer(0, TcpServerOptions{.backend = NetBackend::kIoUring});
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->Start(Echo).ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(ConnectTcp(server->address(),
                         TcpClientOptions{NetBackend::kIoUring}, &conn)
                  .ok());
  std::string response;
  ASSERT_TRUE(conn->Call("ping", &response).ok());
  EXPECT_EQ(response, "ping!");
  conn.reset();
  server->Stop();
  if (!NetUringSupported()) {
    EXPECT_GE(fallbacks->value(), before + 2);  // server + client
  } else {
    EXPECT_EQ(fallbacks->value(), before);
  }
}

TEST(NetBackendTest, ResolveNeverReturnsAuto) {
  for (NetBackend b :
       {NetBackend::kAuto, NetBackend::kEpoll, NetBackend::kIoUring}) {
    const NetBackend resolved = ResolveNetBackend(b);
    EXPECT_NE(resolved, NetBackend::kAuto);
    if (!NetUringSupported()) EXPECT_EQ(resolved, NetBackend::kEpoll);
  }
  EXPECT_EQ(ResolveNetBackend(NetBackend::kEpoll), NetBackend::kEpoll);
}

// The hysteresis itself, as the single shared constant both backends use:
// pause strictly above the budget, stay paused until strictly below half.
TEST(ReadGateTest, PauseResumeHysteresis) {
  internal::ReadGate gate;
  constexpr size_t kBudget = 1000;
  static_assert(internal::ResumeReadsBelow(kBudget) == kBudget / 2,
                "resume threshold is half the budget");

  EXPECT_FALSE(gate.Update(kBudget, kBudget));  // at budget: not paused
  EXPECT_FALSE(gate.paused);
  EXPECT_TRUE(gate.Update(kBudget + 1, kBudget));  // above: pause flips
  EXPECT_TRUE(gate.paused);
  // Draining to between half and full budget must NOT resume (no flapping).
  EXPECT_FALSE(gate.Update(kBudget / 2, kBudget));
  EXPECT_TRUE(gate.paused);
  EXPECT_FALSE(gate.Update(kBudget - 1, kBudget));
  EXPECT_TRUE(gate.paused);
  // Strictly below half: resume flips once.
  EXPECT_TRUE(gate.Update(kBudget / 2 - 1, kBudget));
  EXPECT_FALSE(gate.paused);
  EXPECT_FALSE(gate.Update(0, kBudget));
}

std::string BackendName(const ::testing::TestParamInfo<NetBackend>& info) {
  return info.param == NetBackend::kIoUring ? "IoUring" : "Epoll";
}

INSTANTIATE_TEST_SUITE_P(Backends, NetConformanceTest,
                         ::testing::Values(NetBackend::kEpoll,
                                           NetBackend::kIoUring),
                         BackendName);

}  // namespace
}  // namespace dpr
