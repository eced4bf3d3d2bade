#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "common/sync.h"
#include "net/inmemory_net.h"
#include "net/tcp_net.h"

namespace dpr {
namespace {

class EchoFixture {
 public:
  static void Echo(Slice request, std::string* response) {
    response->assign(request.data(), request.size());
    response->append("!");
  }
};

TEST(InMemoryNetTest, RequestResponse) {
  InMemoryNetwork net;
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  std::string response;
  ASSERT_TRUE(conn->Call("hello", &response).ok());
  EXPECT_EQ(response, "hello!");
  server->Stop();
}

TEST(InMemoryNetTest, UnknownEndpointFails) {
  InMemoryNetwork net;
  auto conn = net.Connect("nope");
  std::string response;
  EXPECT_TRUE(conn->Call("x", &response).IsUnavailable());
}

TEST(InMemoryNetTest, ManyConcurrentCalls) {
  InMemoryNetwork net({.server_threads = 4});
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  std::atomic<int> done{0};
  constexpr int kCalls = 500;
  Mutex mu;
  CondVar cv;
  for (int i = 0; i < kCalls; ++i) {
    conn->CallAsync("m" + std::to_string(i), [&](Status s, Slice resp) {
      EXPECT_TRUE(s.ok());
      EXPECT_EQ(resp.view().back(), '!');
      if (done.fetch_add(1) + 1 == kCalls) cv.NotifyAll();
    });
  }
  MutexLock lock(mu);
  ASSERT_TRUE(cv.WaitFor(mu, std::chrono::seconds(10),
                         [&] { return done.load() == kCalls; }));
  server->Stop();
}

TEST(InMemoryNetTest, LatencyInjection) {
  InMemoryNetwork net({.server_threads = 1, .latency_us = 10000});
  auto server = net.CreateServer("svc");
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  auto conn = net.Connect("svc");
  Stopwatch timer;
  std::string response;
  ASSERT_TRUE(conn->Call("x", &response).ok());
  EXPECT_GE(timer.ElapsedMicros(), 15000u);  // 2x one-way latency
  server->Stop();
}

TEST(InMemoryNetTest, StopFailsPendingCalls) {
  InMemoryNetwork net({.server_threads = 1});
  auto server = net.CreateServer("svc");
  std::atomic<bool> failed{false};
  ASSERT_TRUE(server->Start([](Slice, std::string* out) {
    SleepMicros(20000);
    *out = "late";
  }).ok());
  auto conn = net.Connect("svc");
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    conn->CallAsync("x", [&](Status s, Slice) {
      if (!s.ok()) failed.store(true);
      done.fetch_add(1);
    });
  }
  SleepMicros(5000);
  server->Stop();
  // All callbacks must eventually fire (ok or failed), none may hang.
  Stopwatch timer;
  while (done.load() < 4 && timer.ElapsedMillis() < 5000) SleepMicros(1000);
  EXPECT_EQ(done.load(), 4);
  EXPECT_TRUE(failed.load());
}

TEST(TcpNetTest, RequestResponseOverLoopback) {
  auto server = MakeTcpServer(0);
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(ConnectTcp(server->address(), &conn).ok());
  std::string response;
  ASSERT_TRUE(conn->Call("tcp ping", &response).ok());
  EXPECT_EQ(response, "tcp ping!");
  conn.reset();
  server->Stop();
}

TEST(TcpNetTest, PipelinedCallsMatchResponses) {
  auto server = MakeTcpServer(0);
  ASSERT_TRUE(server->Start([](Slice req, std::string* resp) {
    resp->assign(req.data(), req.size());
  }).ok());
  std::unique_ptr<RpcConnection> conn;
  ASSERT_TRUE(ConnectTcp(server->address(), &conn).ok());
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

TEST(TcpNetTest, MultipleClients) {
  auto server = MakeTcpServer(0);
  ASSERT_TRUE(server->Start(EchoFixture::Echo).ok());
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<RpcConnection> conn;
      ASSERT_TRUE(ConnectTcp(server->address(), &conn).ok());
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

// Thread-count, bounded-executor, and torn-frame contracts are covered per
// backend in net_conformance_test.cc; only backend-independent connection
// setup behavior stays here.

TEST(TcpNetTest, ConnectToClosedPortFails) {
  std::unique_ptr<RpcConnection> conn;
  Status s = ConnectTcp("127.0.0.1:1", &conn);
  EXPECT_FALSE(s.ok());
}

TEST(TcpNetTest, BadAddressRejected) {
  std::unique_ptr<RpcConnection> conn;
  EXPECT_EQ(ConnectTcp("no-port-here", &conn).code(),
            Status::Code::kInvalidArgument);
  // Ports must be all digits in 1..65535: no silent truncation (70000 would
  // wrap to 4464) and no prefix parsing ("8x" is not port 8).
  for (const char* bad : {"127.0.0.1:70000", "127.0.0.1:", "127.0.0.1:8x"}) {
    EXPECT_EQ(ConnectTcp(bad, &conn).code(), Status::Code::kInvalidArgument)
        << bad;
  }
}

}  // namespace
}  // namespace dpr
