#ifndef DPR_NET_TCP_NET_H_
#define DPR_NET_TCP_NET_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "net/rpc.h"

namespace dpr {

/// Transport backend selector, runtime-resolved like the storage plane's
/// IoEngineKind: kAuto picks io_uring when the build compiled it in AND the
/// kernel supports the required feature set (multishot accept/recv +
/// provided buffer rings, ~6.0+), otherwise epoll. An explicit kIoUring
/// request that cannot be served falls back to epoll and bumps
/// `net.uring.fallbacks` — callers never get a null transport.
enum class NetBackend {
  kAuto,
  kEpoll,
  kIoUring,
};

/// Real-socket transport (loopback on one box reproduces the paper's
/// multi-process shard deployment). Frames are
/// [u32 payload-length][u64 request-id][payload]; requests pipeline freely
/// and responses are matched by id.
///
/// Both backends run one connection state machine (tcp_net.cc) over a small
/// completion interface (io_loop.h) that each backend's loop implements.
/// Servers own a fixed set of I/O loop threads (connections pinned
/// round-robin) that decode frames and hand execution to a shared bounded
/// Executor, so server thread count is O(io_threads + executor_threads)
/// regardless of connection count and a slow handler never stalls
/// unrelated connections. Every client connection of a backend rides one
/// process-wide loop thread, so client thread count is O(1) too. Output
/// queues per connection and is flushed vectored — every frame ready at
/// flush time coalesces into one sendmsg syscall (epoll) or one SENDMSG SQE
/// (uring), header + payload iovecs pointed at the queued frames in place.
/// A server connection whose output queue exceeds its byte budget stops
/// being read until the queue drains below half the budget (backpressure
/// hysteresis; see internal::ReadGate).
struct TcpServerOptions {
  /// Event-loop threads owning sockets (epoll loops or uring rings). The
  /// listener lives on loop 0.
  uint32_t io_threads = 2;
  /// Shared request-executor worker threads.
  uint32_t executor_threads = 2;
  /// Bounded executor intake; decoded requests beyond this throttle reads.
  size_t executor_queue_capacity = 4096;
  /// Per-connection output-queue byte budget: above it the connection's
  /// reads pause, below half of it they resume.
  size_t max_output_queue_bytes = 4 << 20;
  /// Transport backend; kAuto resolves at Start time.
  NetBackend backend = NetBackend::kAuto;
};

struct TcpClientOptions {
  /// Transport backend for the connection's I/O; kAuto resolves at connect
  /// time. All clients of a backend share one process-wide loop thread.
  NetBackend backend = NetBackend::kAuto;
};

/// Creates a TCP server bound to 127.0.0.1:`port` (0 picks an ephemeral
/// port; address() reports the bound "host:port").
std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port = 0);
std::unique_ptr<RpcServer> MakeTcpServer(uint16_t port,
                                         const TcpServerOptions& options);

/// Connects to "host:port" as produced by RpcServer::address(); the port
/// must be all digits in 1..65535 (kInvalidArgument otherwise). The client
/// mirrors the server's write path: CallAsync enqueues frames and the
/// connection's single in-flight send coalesces everything queued into one
/// vectored write. Response callbacks run on the shared client loop thread
/// and must not block on another call.
Status ConnectTcp(const std::string& address,
                  std::unique_ptr<RpcConnection>* out);
Status ConnectTcp(const std::string& address, const TcpClientOptions& options,
                  std::unique_ptr<RpcConnection>* out);

/// Applies the kAuto/fallback rules: returns the backend that would
/// actually serve a request for `requested` on this kernel (kEpoll or
/// kIoUring, never kAuto). Bench/test labeling helper.
NetBackend ResolveNetBackend(NetBackend requested);

/// Whether the io_uring transport backend is compiled in AND this kernel
/// supports every feature it needs (ring setup, multishot accept/recv,
/// provided buffer rings, async cancel). Cached after the first call.
bool NetUringSupported();

namespace internal {

/// Wraps an already-connected stream socket as a client RpcConnection on
/// the requested backend (tests use a socketpair end to drive torn-frame
/// scenarios that a real loopback connect cannot reach deterministically).
/// Falls back to epoll like ConnectTcp; null only when no client loop can
/// run.
std::unique_ptr<RpcConnection> WrapClientFdForTest(
    int fd, NetBackend backend = NetBackend::kEpoll);

}  // namespace internal

}  // namespace dpr

#endif  // DPR_NET_TCP_NET_H_
