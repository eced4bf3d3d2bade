#ifndef DPR_NET_IO_LOOP_H_
#define DPR_NET_IO_LOOP_H_

// The completion interface under the TCP transport. One connection state
// machine (tcp_net.cc) drives every socket of both backends through it;
// each backend is an IoLoop that turns its kernel interface into the same
// few completions:
//   * epoll (event_loop.cc) recv()s readiness into a per-loop kReadChunk
//     buffer, tries sendmsg() inline and arms EPOLLOUT on EAGAIN, and drops
//     EPOLLIN while reads are paused;
//   * io_uring (uring_net.cc) runs multishot accept/recv over a provided
//     buffer ring, parses straight out of the provided buffer, and keeps
//     one SENDMSG SQE in flight per channel.
//
// Threading: one loop thread per IoLoop. Handler callbacks, posted and
// deferred closures, and every channel call below run on it; Post is the
// only entry point for other threads.

#include <sys/types.h>

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"

struct msghdr;  // <sys/socket.h>

namespace dpr {
namespace internal {

class IoLoop {
 public:
  // Completion sink for one socket.
  class Handler {
   public:
    virtual ~Handler() = default;
    // Bytes arrived; `data` is valid only for the call.
    virtual void OnRecv(const char* data, size_t len) = 0;
    // Reads ended for good: `err` is 0 at end of stream, else an errno.
    virtual void OnRecvError(int err) = 0;
    // The last Send finished: bytes written, or -errno. Never delivered
    // inline from Send, so the handler may submit the next send here.
    virtual void OnSendDone(ssize_t res) = 0;
    // Close finished: no kernel op references the socket and the fd is
    // closed. Runs deferred (no handler frame on the stack), so the owner
    // may free the handler here.
    virtual void OnClosed() = 0;
  };

  // One socket's backend state; opaque to the connection. The loop frees
  // it right after Handler::OnClosed.
  struct Channel {
    Handler* handler;
    int fd;
  };

  IoLoop() = default;
  virtual ~IoLoop();

  IoLoop(const IoLoop&) = delete;
  IoLoop& operator=(const IoLoop&) = delete;

  void StartThread();
  // Runs the on_stop hook on the loop thread, retires every kernel op,
  // runs the deferred closures, and joins. Posts are rejected from here
  // on. Idempotent.
  void Stop();
  // Queues `fn` onto the loop thread. Returns false (fn dropped) once Stop
  // has begun.
  bool Post(std::function<void()> fn);
  // Loop thread: runs `fn` once the current completion or posted closure
  // returns, when no handler frame is on the stack.
  void Defer(std::function<void()> fn) { deferred_.push_back(std::move(fn)); }
  // Set before StartThread; the owner closes its channels here.
  void set_on_stop(std::function<void()> fn) { on_stop_ = std::move(fn); }

  // ---- loop thread only ----
  // Adopts a connected socket; no reads until SetRecv(ch, true).
  virtual Channel* Attach(int fd, Handler* handler) = 0;
  // Starts or pauses reads (backpressure).
  virtual void SetRecv(Channel* ch, bool on) = 0;
  // Submits one vectored send. `msg` and the memory it points at stay
  // untouched by the caller until OnSendDone.
  virtual void Send(Channel* ch, msghdr* msg) = 0;
  // Shuts the socket down; an in-flight send still completes, then the fd
  // closes and OnClosed follows. No further calls on `ch`.
  virtual void Close(Channel* ch) = 0;
  // Accepts on listening socket `fd`, handing each connection to
  // `on_accept` on this thread until Stop. May also run before
  // StartThread.
  virtual Status Listen(int fd, std::function<void(int)> on_accept) = 0;

 protected:
  // Creates the wake eventfd; false on failure.
  bool InitWake();
  // The loop body; returns once stopping_ is set and no op is left.
  virtual void Run() = 0;
  // Called on the loop thread as Stop begins, after the on_stop hook.
  virtual void OnStopping() {}
  void DrainPosted();
  void RunDeferred();

  int wake_fd_ = -1;
  bool stopping_ = false;  // loop thread only
  // relaxed: collapses redundant eventfd writes. The loop clears it only
  // after consuming the eventfd, so a Post that finds it set is already
  // queued for the next DrainPosted, and one after the clear signals anew.
  std::atomic<bool> wake_pending_{false};

 private:
  void Wake();

  std::thread thread_;
  std::function<void()> on_stop_;
  std::vector<std::function<void()>> deferred_;  // loop thread only
  Mutex post_mu_{LockRank::kTransportLoop, "net.loop.post"};
  std::vector<std::function<void()>> posted_ GUARDED_BY(post_mu_);
  bool accepting_posts_ GUARDED_BY(post_mu_) = false;
};

// Backend factories. Null when the backend cannot run here: epoll only on
// fd exhaustion, io_uring when compiled out, when the kernel lacks the
// feature set (see NetUringSupported), or when ring setup fails.
std::unique_ptr<IoLoop> MakeEpollLoop();
std::unique_ptr<IoLoop> MakeUringLoop();

}  // namespace internal
}  // namespace dpr

#endif  // DPR_NET_IO_LOOP_H_
