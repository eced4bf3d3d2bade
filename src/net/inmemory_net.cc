#include "net/inmemory_net.h"

#include <future>
#include <memory>
#include <utility>

#include "common/clock.h"
#include "common/hash.h"
#include "common/logging.h"
#include "fault/fault_plane.h"
#include "net/executor.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

// Queue depth and peak are the executor's own net.executor.* gauges.
Counter* RequestsCounter() {
  static Counter* const c =
      MetricsRegistry::Default().counter("net.inmemory.requests");
  return c;
}

}  // namespace

Status RpcConnection::Call(Slice request, std::string* response) {
  std::promise<Status> done;
  auto future = done.get_future();
  CallAsync(request.ToString(), [&](Status s, Slice resp) {
    if (s.ok() && response != nullptr) response->assign(resp.data(),
                                                        resp.size());
    done.set_value(std::move(s));
  });
  return future.get();
}

// ------------------------------------------------------------------- Server

class InMemoryNetwork::Server : public RpcServer {
 public:
  Server(InMemoryNetwork* net, std::string name, InMemoryNetOptions options)
      : net_(net), name_(std::move(name)), options_(options) {}

  ~Server() override {
    Stop();
    MutexLock guard(net_->mu_);
    net_->servers_.erase(name_);
  }

  Status Start(RpcHandler handler) override {
    MutexLock guard(mu_);
    if (running_) return Status::Busy("server already started");
    handler_ = std::move(handler);
    executor_ = std::make_shared<Executor>(ExecutorOptions{
        options_.server_threads, options_.queue_capacity,
        "net.inmemory.executor"});
    executor_->Start();
    running_ = true;
    stopping_ = false;
    return Status::OK();
  }

  void Stop() override {
    std::shared_ptr<Executor> executor;
    {
      MutexLock guard(mu_);
      if (!running_) return;
      // Accepted-but-unrun calls observe this and fail fast instead of
      // running the handler: the executor's drain-on-shutdown guarantee
      // turns into "every callback fires", never "every request executes".
      stopping_ = true;
      executor = executor_;
    }
    executor->Shutdown();
    MutexLock guard(mu_);
    running_ = false;
    executor_.reset();
  }

  std::string address() const override { return name_; }

  void Enqueue(std::string request, RpcConnection::ResponseCallback callback,
               uint64_t deliver_at_us) {
    RequestsCounter()->Add();
    std::shared_ptr<Executor> executor;
    {
      MutexLock guard(mu_);
      if (running_ && !stopping_) executor = executor_;
    }
    if (executor == nullptr) {
      callback(Status::Unavailable("server not running"), Slice());
      return;
    }
    // The call state rides in a shared_ptr so a submission rejected by a
    // racing Shutdown still owns the callback and can fail it.
    auto call = std::make_shared<Call>(
        Call{std::move(request), std::move(callback), deliver_at_us});
    const bool accepted = executor->Submit([this, call] { RunCall(*call); });
    if (!accepted) {
      call->callback(Status::Unavailable("server stopped"), Slice());
    }
  }

 private:
  struct Call {
    std::string request;
    RpcConnection::ResponseCallback callback;
    uint64_t deliver_at_us;
  };

  // Executor worker thread.
  void RunCall(Call& call) {
    bool dead;
    {
      MutexLock guard(mu_);
      dead = stopping_ || !running_;
    }
    if (dead) {
      call.callback(Status::Unavailable("server stopped"), Slice());
      return;
    }
    // Injected one-way latency: wait out the remaining delivery delay.
    const uint64_t now = NowMicros();
    if (call.deliver_at_us > now) SleepMicros(call.deliver_at_us - now);
    std::string response;
    handler_(Slice(call.request), &response);
    call.callback(Status::OK(), Slice(response));
  }

  InMemoryNetwork* net_;
  const std::string name_;
  const InMemoryNetOptions options_;
  Mutex mu_{LockRank::kTransport, "net.inmemory.server"};
  // Swapped whole on Start/Stop; callers snapshot a ref under mu_ so a
  // racing Stop cannot destroy it mid-Submit.
  std::shared_ptr<Executor> executor_ GUARDED_BY(mu_);
  // Written once in Start() before the executor workers are spawned (thread
  // creation publishes it); read lock-free in RunCall thereafter.
  RpcHandler handler_;
  bool running_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
};

// --------------------------------------------------------------- Connection

class InMemoryNetwork::Connection : public RpcConnection {
 public:
  Connection(InMemoryNetwork* net, std::string name, uint64_t latency_us)
      : net_(net), name_(std::move(name)), latency_us_(latency_us) {}

  void CallAsync(std::string request, ResponseCallback callback) override {
    Server* server = nullptr;
    {
      MutexLock guard(net_->mu_);
      auto it = net_->servers_.find(name_);
      if (it != net_->servers_.end()) server = it->second;
    }
    if (server == nullptr) {
      callback(Status::Unavailable("no such endpoint: " + name_), Slice());
      return;
    }
    // Model the full round trip as a single pre-handling delay.
    uint64_t deliver_at = latency_us_ > 0 ? NowMicros() + 2 * latency_us_ : 0;
    FaultPlane& plane = FaultPlane::Instance();
    if (plane.enabled()) {
      const uint64_t scope = HashBytes(name_.data(), name_.size());
      if (plane.ShouldFire(faults::kNetPartition, scope)) {
        callback(Status::Transient("injected partition to " + name_),
                 Slice());
        return;
      }
      if (plane.ShouldFire(faults::kNetDrop, scope)) {
        callback(Status::TimedOut("injected drop to " + name_), Slice());
        return;
      }
      uint64_t extra_us = 0;
      if (plane.ShouldFire(faults::kNetDelay, scope, &extra_us)) {
        if (deliver_at == 0) deliver_at = NowMicros();
        deliver_at += extra_us;
      }
      if (plane.ShouldFire(faults::kNetDuplicate, scope)) {
        // The duplicate is handled by the server but its response goes
        // nowhere, mirroring a retransmit whose reply loses the id race.
        server->Enqueue(request, [](Status, Slice) {}, deliver_at);
      }
    }
    server->Enqueue(std::move(request), std::move(callback), deliver_at);
  }

 private:
  InMemoryNetwork* net_;
  const std::string name_;
  const uint64_t latency_us_;
};

// ------------------------------------------------------------------ Network

InMemoryNetwork::InMemoryNetwork(InMemoryNetOptions options)
    : options_(options) {}

InMemoryNetwork::~InMemoryNetwork() {
  MutexLock guard(mu_);
  DPR_CHECK_MSG(servers_.empty(),
                "InMemoryNetwork destroyed with live servers");
}

std::unique_ptr<RpcServer> InMemoryNetwork::CreateServer(
    const std::string& name) {
  auto server = std::make_unique<Server>(this, name, options_);
  MutexLock guard(mu_);
  DPR_CHECK_MSG(servers_.emplace(name, server.get()).second,
                "duplicate endpoint %s", name.c_str());
  return server;
}

std::unique_ptr<RpcConnection> InMemoryNetwork::Connect(
    const std::string& name) {
  return std::make_unique<Connection>(this, name, options_.latency_us);
}

}  // namespace dpr
