// The TCP transport's one connection state machine, run by both backends
// through the completion interface in io_loop.h (epoll: event_loop.cc,
// io_uring: uring_net.cc). A Conn owns the outbound OutFrame queue and its
// single in-flight vectored send, ReadGate backpressure, the carry buffer
// for frames split across reads, torn-frame poisoning, and close
// accounting. ServerConn feeds decoded requests to the server's executor;
// ClientConn matches responses to pending calls. Every connection, client
// or server, lives on a loop thread: servers own io_threads loops, and all
// clients of a backend share one process-wide loop.

#include "net/tcp_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <vector>

#include "common/hash.h"
#include "common/sync.h"
#include "net/executor.h"
#include "net/frame.h"
#include "net/io_loop.h"
#include "obs/metrics.h"

namespace dpr {

namespace {

using internal::IoLoop;
using internal::OutFrame;
using internal::Stats;

class Conn : public IoLoop::Handler {
 public:
  // `server` connections publish their queue depth to
  // net.tcp.output_queue_bytes; a torn send poisons only client ones.
  Conn(IoLoop* loop, int fd, size_t out_budget, bool server)
      : loop_(loop), fd_(fd), out_budget_(out_budget), server_(server) {}

  ~Conn() override {
    if (fd_ >= 0) close(fd_);  // never handed to the loop
  }

  IoLoop* loop() const { return loop_; }

  // Loop thread: hand the socket to the loop and start reading.
  void StartOnLoop() {
    ch_ = loop_->Attach(fd_, this);
    fd_ = -1;
    loop_->SetRecv(ch_, true);
  }

  // Loop thread (posted by whoever queued a frame): start a send unless
  // one is in flight, whose completion picks the new frames up.
  void StartSendIfNeeded() {
    if (closed_ || send_inflight_) return;
    StartSend();
  }

  // Loop thread. Drops queued output (an in-flight send keeps its frames
  // until it completes, so the completion can still see a torn frame),
  // shuts the socket down, and tells the owner.
  void CloseOnLoop(const Status& reason) {
    if (closed_) return;
    closed_ = true;
    {
      MutexLock guard(out_mu_);
      writable_ = false;
    }
    if (!send_inflight_) DropOutputQueue();
    loop_->Close(ch_);
    OnClosing(reason);
  }

  void OnRecv(const char* data, size_t len) override {
    if (closed_) return;
    if (!IngestBytes(data, len)) {
      CloseOnLoop(Status::IOError("bad frame stream"));
    }
  }

  void OnRecvError(int err) override {
    CloseOnLoop(err == 0 ? Status::Transient("connection closed")
                         : internal::MapSocketError("recv", err));
  }

  void OnSendDone(ssize_t res) override {
    send_inflight_ = false;
    bool torn;
    bool more;
    size_t queued;
    {
      MutexLock guard(out_mu_);
      if (res > 0) {
        if (static_cast<size_t>(res) < send_bytes_) Stats().short_writes->Add();
        const size_t completed =
            internal::ConsumeWritten(&out_, static_cast<size_t>(res));
        out_bytes_ -= static_cast<size_t>(res);
        if (server_) Stats().output_queue_bytes->Sub(res);
        Stats().frames_sent->Add(completed);
        Stats().writev_frames->Add(completed);
      }
      torn = !out_.empty() && out_.front().offset > 0;
      more = !out_.empty();
      if (!more) flush_scheduled_ = false;
      queued = out_bytes_;
    }
    if (res < 0 || closed_) {
      // The stream ends here. With bytes of the front frame already on the
      // wire the peer would read our next header out of the middle of its
      // payload, so a client connection counts as poisoned; either way it
      // closes and every pending call fails instead of desynchronizing.
      if (torn && !server_) Stats().poisoned->Add();
      DropOutputQueue();
      CloseOnLoop(res < 0 ? internal::MapSocketError("sendmsg", -res)
                          : Status::Transient("connection closed"));
      return;
    }
    if (more) StartSend();
    // Backpressure hysteresis (internal::ReadGate): pause reads above the
    // output budget, resume below half of it.
    if (out_budget_ > 0 && read_gate_.Update(queued, out_budget_)) {
      loop_->SetRecv(ch_, !read_gate_.paused);
    }
  }

 protected:
  // One decoded inbound frame; `payload` is valid only for the call.
  virtual void OnFrame(uint64_t id, const char* payload, size_t len) = 0;
  // The connection began closing; queued output is gone.
  virtual void OnClosing(const Status& /*reason*/) {}

  // Any thread: queues the frame (twice when `duplicate`). Returns false
  // when the connection no longer takes output; *nudge asks the caller to
  // post StartSendIfNeeded.
  bool Enqueue(uint64_t id, std::string payload, bool duplicate,
               bool* nudge) {
    MutexLock guard(out_mu_);
    if (!writable_) return false;
    if (duplicate) PushFrame(internal::MakeFrame(id, payload));
    PushFrame(internal::MakeFrame(id, std::move(payload)));
    *nudge = !flush_scheduled_;
    flush_scheduled_ = true;
    return true;
  }

  // Any thread: later Enqueue calls fail.
  void StopOutput() {
    MutexLock guard(out_mu_);
    writable_ = false;
  }

  IoLoop* const loop_;

 private:
  void PushFrame(OutFrame f) REQUIRES(out_mu_) {
    out_bytes_ += f.size();
    if (server_) {
      Stats().output_queue_bytes->Add(static_cast<int64_t>(f.size()));
    }
    out_.push_back(std::move(f));
  }

  // Points the iovecs at the queued frames and submits one send. The
  // iovecs reference deque elements; std::deque never invalidates
  // references on push_back/pop_front, and only this loop thread pops, so
  // they stay valid until OnSendDone.
  void StartSend() {
    {
      MutexLock guard(out_mu_);
      if (out_.empty()) {
        flush_scheduled_ = false;
        return;
      }
      int iovcnt = 0;
      internal::BuildIovecs(out_, iov_, &iovcnt, &send_bytes_);
      memset(&msg_, 0, sizeof(msg_));
      msg_.msg_iov = iov_;
      msg_.msg_iovlen = static_cast<size_t>(iovcnt);
    }
    send_inflight_ = true;
    loop_->Send(ch_, &msg_);
  }

  void DropOutputQueue() {
    size_t dropped;
    {
      MutexLock guard(out_mu_);
      dropped = out_bytes_;
      out_.clear();
      out_bytes_ = 0;
      flush_scheduled_ = false;
    }
    if (server_ && dropped > 0) {
      Stats().output_queue_bytes->Sub(static_cast<int64_t>(dropped));
    }
  }

  // Decodes whole frames in place; a trailing partial frame (or one that
  // spans reads) rides carry_. Returns false on a garbage length prefix.
  bool IngestBytes(const char* data, size_t len) {
    bool garbage = false;
    auto on_frame = [this](uint64_t id, const char* p, size_t n) {
      OnFrame(id, p, n);
    };
    if (!carry_.empty()) {
      carry_.append(data, len);
      const size_t pos = internal::ParseFrameStream(
          carry_.data(), carry_.size(), &garbage, on_frame);
      carry_.erase(0, pos);
      return !garbage;
    }
    const size_t pos =
        internal::ParseFrameStream(data, len, &garbage, on_frame);
    if (pos < len) carry_.assign(data + pos, len - pos);
    return !garbage;
  }

  int fd_;
  const size_t out_budget_;
  const bool server_;

  // Loop-thread-only state.
  IoLoop::Channel* ch_ = nullptr;
  bool closed_ = false;
  bool send_inflight_ = false;
  internal::ReadGate read_gate_;
  std::string carry_;
  struct iovec iov_[internal::kMaxIov];
  msghdr msg_{};
  size_t send_bytes_ = 0;

  Mutex out_mu_{LockRank::kTransport, "net.tcp.conn_out"};
  std::deque<OutFrame> out_ GUARDED_BY(out_mu_);
  size_t out_bytes_ GUARDED_BY(out_mu_) = 0;
  // True while a flush is guaranteed to run (nudge posted or send in
  // flight); collapses redundant Post() wakeups under pipelining.
  bool flush_scheduled_ GUARDED_BY(out_mu_) = false;
  // Cleared on close: late responses and calls are refused instead of
  // queueing on a dead connection.
  bool writable_ GUARDED_BY(out_mu_) = true;
};

// ------------------------------------------------------------------- server

class TcpServer;

// One accepted socket, pinned to one loop. Handlers run on the server's
// shared executor; responses come back through SendResponse. The server's
// registry plus in-flight executor tasks hold shared_ptr refs, so a task
// finishing after the socket closed just drops its response.
class ServerConn final : public Conn,
                         public std::enable_shared_from_this<ServerConn> {
 public:
  ServerConn(TcpServer* server, IoLoop* loop, int fd, size_t out_budget)
      : Conn(loop, fd, out_budget, /*server=*/true), server_(server) {}

  // Any thread (executor workers).
  void SendResponse(uint64_t id, std::string payload) {
    bool nudge = false;
    if (!Enqueue(id, std::move(payload), /*duplicate=*/false, &nudge)) return;
    // Post rejection means the loop already stopped (server Stop): the
    // queued response dies with the connection.
    if (nudge) {
      (void)loop_->Post([self = shared_from_this()] {
        self->StartSendIfNeeded();
      });
    }
  }

 private:
  void OnFrame(uint64_t id, const char* payload, size_t len) override;
  void OnClosed() override;

  TcpServer* const server_;
};

class TcpServer final : public RpcServer {
 public:
  TcpServer(uint16_t port, const TcpServerOptions& options,
            std::vector<std::unique_ptr<IoLoop>> loops)
      : requested_port_(port), options_(options), loops_(std::move(loops)) {}

  ~TcpServer() override { Stop(); }

  Status Start(RpcHandler handler) override {
    handler_ = std::move(handler);
    stop_.store(false, std::memory_order_release);
    for (auto& loop : loops_) {
      if (loop == nullptr) return Status::IOError("event loop setup failed");
    }
    listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return Status::IOError("socket failed");
    internal::ConfigureSocket(listen_fd_, internal::SocketKind::kListener);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(requested_port_);
    if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError(std::string("bind: ") + strerror(errno));
    }
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    bound_port_ = ntohs(addr.sin_port);
    if (listen(listen_fd_, 128) != 0) {
      return Status::IOError(std::string("listen: ") + strerror(errno));
    }
    executor_ = std::make_unique<Executor>(ExecutorOptions{
        std::max(options_.executor_threads, 1u),
        std::max<size_t>(options_.executor_queue_capacity, 1),
        "net.tcp.executor"});
    executor_->Start();
    // The listener lives on loop 0; accepted sockets spread round-robin.
    DPR_RETURN_NOT_OK(
        loops_[0]->Listen(listen_fd_, [this](int fd) { AdoptSocket(fd); }));
    for (auto& loop : loops_) {
      IoLoop* raw = loop.get();
      raw->set_on_stop([this, raw] { CloseLoopConns(raw); });
      raw->StartThread();
    }
    LoopThreads()->Add(static_cast<int64_t>(loops_.size()));
    return Status::OK();
  }

  void Stop() override {
    if (stop_.exchange(true)) return;
    // Stop the loops first: each closes its connections and drains their
    // ops before the thread joins, so teardown below is single-threaded.
    for (auto& loop : loops_) {
      if (loop != nullptr) loop->Stop();
    }
    // A non-null executor means Start got far enough to start the loops.
    if (executor_ != nullptr) {
      LoopThreads()->Sub(static_cast<int64_t>(loops_.size()));
    }
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // Drain the executor: every accepted request task still runs (tasks
    // observe stop_ and skip the handler; their responses are refused).
    if (executor_) executor_->Shutdown();
    // Connections adopted by a loop that was already stopping never
    // closed; drop whatever remains.
    std::map<ServerConn*, std::shared_ptr<ServerConn>> conns;
    {
      MutexLock guard(conns_mu_);
      conns.swap(conns_);
    }
    Stats().server_conns->Sub(static_cast<int64_t>(conns.size()));
  }

  std::string address() const override {
    return "127.0.0.1:" + std::to_string(bound_port_);
  }

  // Drops the registry ref for a connection that fully closed. The object
  // survives while executor tasks still hold it.
  void ForgetConn(ServerConn* conn) {
    std::shared_ptr<ServerConn> ref;
    {
      MutexLock guard(conns_mu_);
      auto it = conns_.find(conn);
      if (it == conns_.end()) return;
      ref = std::move(it->second);
      conns_.erase(it);
    }
    Stats().server_conns->Sub(1);
  }

  // Loop thread: hand a decoded request to the shared executor. Submit
  // blocks while the bounded queue is full — the loop thread pausing here
  // is precisely the read-throttle the bounded intake exists to provide.
  void Dispatch(std::shared_ptr<ServerConn> conn, uint64_t id,
                std::string request) {
    (void)executor_->Submit(
        [this, conn = std::move(conn), id, request = std::move(request)] {
          if (stop_.load(std::memory_order_acquire)) return;
          std::string response;
          handler_(Slice(request), &response);
          conn->SendResponse(id, std::move(response));
        });
    // false only during Shutdown, when the sockets are closing anyway.
  }

 private:
  // Live server loop threads across every server.
  static Gauge* LoopThreads() {
    static Gauge* const threads =
        MetricsRegistry::Default().gauge("net.loop.threads");
    return threads;
  }

  // Loop 0 thread: register the socket and start it on its loop.
  void AdoptSocket(int fd) {
    Stats().accepted->Add();
    internal::ConfigureSocket(fd, internal::SocketKind::kData);
    IoLoop* loop = loops_[next_loop_++ % loops_.size()].get();
    auto conn = std::make_shared<ServerConn>(this, loop, fd,
                                             options_.max_output_queue_bytes);
    {
      MutexLock guard(conns_mu_);
      conns_[conn.get()] = conn;
    }
    Stats().server_conns->Add(1);
    if (loop == loops_[0].get()) {
      conn->StartOnLoop();
    } else if (!loop->Post([conn] { conn->StartOnLoop(); })) {
      ForgetConn(conn.get());
    }
  }

  // on_stop hook (that loop's thread): close every connection pinned there.
  void CloseLoopConns(IoLoop* loop) {
    std::vector<std::shared_ptr<ServerConn>> mine;
    {
      MutexLock guard(conns_mu_);
      for (auto& [ptr, conn] : conns_) {
        if (ptr->loop() == loop) mine.push_back(conn);
      }
    }
    for (auto& conn : mine) {
      conn->CloseOnLoop(Status::Unavailable("server stopping"));
    }
  }

  uint16_t requested_port_;
  TcpServerOptions options_;
  uint16_t bound_port_ = 0;
  int listen_fd_ = -1;
  RpcHandler handler_;
  // acquire/release: executor tasks read it to skip handlers during Stop.
  std::atomic<bool> stop_{true};
  std::unique_ptr<Executor> executor_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  size_t next_loop_ = 0;  // loop-0 thread only (accept path)
  Mutex conns_mu_{LockRank::kTransportLoop, "net.tcp.conns"};
  std::map<ServerConn*, std::shared_ptr<ServerConn>> conns_
      GUARDED_BY(conns_mu_);
};

void ServerConn::OnFrame(uint64_t id, const char* payload, size_t len) {
  server_->Dispatch(shared_from_this(), id, std::string(payload, len));
}

void ServerConn::OnClosed() { server_->ForgetConn(this); }

// ------------------------------------------------------------------- client

// CallAsync queues the frame and nudges the loop; response callbacks run
// on the loop thread, with a Slice valid only during the callback.
class ClientConn final : public Conn, public RpcConnection {
 public:
  ClientConn(IoLoop* loop, int fd, const std::string& peer)
      : Conn(loop, fd, /*out_budget=*/0, /*server=*/false),
        peer_scope_(HashBytes(peer.data(), peer.size())) {}

  ~ClientConn() override {
    StopOutput();
    // Hand the close to the loop thread and wait until no kernel op (or
    // loop-thread frame) references this object. The wait needs BOTH
    // conditions: the loop may have fully closed the connection (peer
    // reset, server stop) before this destructor ran, while the closure
    // below, capturing `this`, is still queued.
    const bool posted = loop_->Post([this] {
      CloseOnLoop(Status::Unavailable("connection destroyed"));
      MutexLock guard(close_mu_);
      close_task_ran_ = true;
      closed_cv_.NotifyAll();
    });
    if (posted) {
      MutexLock guard(close_mu_);
      closed_cv_.Wait(close_mu_, [this]() REQUIRES(close_mu_) {
        return fully_closed_ && close_task_ran_;
      });
    }
    FailPending(Status::Unavailable("connection destroyed"));
  }

  void CallAsync(std::string request, ResponseCallback callback) override {
    bool duplicate = false;
    if (!internal::ApplyClientNetFaults(peer_scope_, callback, &duplicate)) {
      return;
    }
    const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    {
      MutexLock guard(pending_mu_);
      pending_[id] = std::move(callback);
    }
    bool nudge = false;
    if (Enqueue(id, std::move(request), duplicate, &nudge) &&
        (!nudge || loop_->Post([this] { StartSendIfNeeded(); }))) {
      return;
    }
    ResponseCallback cb = TakePending(id);
    if (cb) cb(Status::Transient("connection closed"), Slice());
  }

 private:
  void OnFrame(uint64_t id, const char* payload, size_t len) override {
    ResponseCallback cb = TakePending(id);
    if (cb) cb(Status::OK(), Slice(payload, len));
  }

  void OnClosing(const Status& reason) override { FailPending(reason); }

  void OnClosed() override {
    MutexLock guard(close_mu_);
    fully_closed_ = true;
    closed_cv_.NotifyAll();
  }

  ResponseCallback TakePending(uint64_t id) {
    MutexLock guard(pending_mu_);
    auto it = pending_.find(id);
    if (it == pending_.end()) return nullptr;
    ResponseCallback cb = std::move(it->second);
    pending_.erase(it);
    return cb;
  }

  void FailPending(const Status& s) {
    std::map<uint64_t, ResponseCallback> orphans;
    {
      MutexLock guard(pending_mu_);
      orphans.swap(pending_);
    }
    for (auto& [id, cb] : orphans) {
      (void)id;
      cb(s, Slice());
    }
  }

  const uint64_t peer_scope_;
  // relaxed: request-id allocator; uniqueness is all that matters, the id
  // is published through pending_mu_.
  std::atomic<uint64_t> next_id_{1};
  Mutex pending_mu_{LockRank::kTransport, "net.tcp.pending"};
  std::map<uint64_t, ResponseCallback> pending_ GUARDED_BY(pending_mu_);
  Mutex close_mu_{LockRank::kTransport, "net.tcp.close"};
  CondVar closed_cv_;
  bool fully_closed_ GUARDED_BY(close_mu_) = false;
  bool close_task_ran_ GUARDED_BY(close_mu_) = false;
};

// Counts epoll serving a request that wanted io_uring: an explicit
// kIoUring, or kAuto on a kernel that supports the ring but could not set
// one up right now (fd limits, memlock).
void NoteEpollFallback(NetBackend requested) {
  if (requested == NetBackend::kIoUring ||
      (requested == NetBackend::kAuto && NetUringSupported())) {
    Stats().uring_fallbacks->Add();
  }
}

// Every client of a backend shares one loop thread. Leaked deliberately:
// client connections may outlive any scope, and the loop thread must
// survive until process exit (same pattern as DefaultIoEngine in the
// storage plane).
IoLoop* ClientLoop(bool uring) {
  auto start = [](std::unique_ptr<IoLoop> loop) {
    if (loop != nullptr) loop->StartThread();
    return loop.release();
  };
  if (uring) {
    static IoLoop* const ring_loop = start(internal::MakeUringLoop());
    return ring_loop;
  }
  static IoLoop* const epoll_loop = start(internal::MakeEpollLoop());
  return epoll_loop;
}

// Wraps a connected socket as a client on the requested backend's shared
// loop, falling back to epoll (counted) when the ring is unavailable.
std::unique_ptr<RpcConnection> WrapClientFd(int fd, const std::string& peer,
                                            NetBackend backend) {
  IoLoop* loop = nullptr;
  if (ResolveNetBackend(backend) == NetBackend::kIoUring) {
    loop = ClientLoop(/*uring=*/true);
  }
  if (loop == nullptr) {
    NoteEpollFallback(backend);
    loop = ClientLoop(/*uring=*/false);
  }
  if (loop == nullptr) {
    close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<ClientConn>(loop, fd, peer);
  ClientConn* raw = conn.get();
  if (!loop->Post([raw] { raw->StartOnLoop(); })) return nullptr;
  return conn;
}

// Parses the port of "host:port": all digits, 1..65535.
bool ParsePort(const std::string& text, uint16_t* port) {
  if (text.empty() || text.size() > 5 ||
      !std::all_of(text.begin(), text.end(),
                   [](char c) { return c >= '0' && c <= '9'; })) {
    return false;
  }
  const int value = std::stoi(text);
  if (value < 1 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

// Opens and connects the client socket; connection establishment stays
// synchronous on either backend.
Status OpenClientSocket(const std::string& address, int* out_fd) {
  const size_t colon = address.rfind(':');
  uint16_t port = 0;
  if (colon == std::string::npos ||
      !ParsePort(address.substr(colon + 1), &port)) {
    return Status::InvalidArgument("address must be host:port with port "
                                   "1-65535: " + address);
  }
  const std::string host = address.substr(0, colon);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket failed");
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    close(fd);
    return internal::MapSocketError("connect", err);
  }
  internal::ConfigureSocket(fd, internal::SocketKind::kData);
  *out_fd = fd;
  return Status::OK();
}

}  // namespace

NetBackend ResolveNetBackend(NetBackend requested) {
  if (requested == NetBackend::kEpoll) return NetBackend::kEpoll;
  return NetUringSupported() ? NetBackend::kIoUring : NetBackend::kEpoll;
}

std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port) {
  return MakeTcpServer(port, TcpServerOptions{});
}

std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port,
                                         const TcpServerOptions& options) {
  const uint32_t n = std::max(options.io_threads, 1u);
  std::vector<std::unique_ptr<IoLoop>> loops;
  if (ResolveNetBackend(options.backend) == NetBackend::kIoUring) {
    while (loops.size() < n) {
      loops.push_back(internal::MakeUringLoop());
      if (loops.back() == nullptr) {  // serve epoll instead of failing
        loops.clear();
        break;
      }
    }
  }
  if (loops.empty()) {
    NoteEpollFallback(options.backend);
    while (loops.size() < n) loops.push_back(internal::MakeEpollLoop());
  }
  return std::make_unique<TcpServer>(port, options, std::move(loops));
}

Status ConnectTcp(const std::string& address,
                  std::unique_ptr<RpcConnection>* out) {
  return ConnectTcp(address, TcpClientOptions{}, out);
}

Status ConnectTcp(const std::string& address, const TcpClientOptions& options,
                  std::unique_ptr<RpcConnection>* out) {
  int fd = -1;
  DPR_RETURN_NOT_OK(OpenClientSocket(address, &fd));
  *out = WrapClientFd(fd, address, options.backend);
  return *out != nullptr ? Status::OK()
                         : Status::IOError("client event loop unavailable");
}

namespace internal {

std::unique_ptr<RpcConnection> WrapClientFdForTest(int fd,
                                                   NetBackend backend) {
  return WrapClientFd(fd, "test-wrapped-fd", backend);
}

}  // namespace internal

}  // namespace dpr
