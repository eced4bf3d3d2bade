// Epoll backend of the completion interface (io_loop.h): a thin adapter
// that turns level-triggered readiness into IoLoop completions.
//
//  - Reads: EPOLLIN on a channel whose reads are on triggers one recv() of
//    up to kReadChunk bytes into the loop's buffer, delivered as OnRecv;
//    level triggering re-reports a socket that still has bytes. Pausing
//    drops EPOLLIN from the interest set.
//  - Sends: Send tries sendmsg() at once. On EAGAIN the msghdr parks on the
//    channel and EPOLLOUT is armed; writability retries it. Either way the
//    result reaches OnSendDone through Defer, never inline.
//  - Close: deregister, close the fd, complete a parked send with
//    -ECANCELED, then OnClosed — all without kernel ops left to wait for.

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/logging.h"
#include "net/frame.h"
#include "net/io_loop.h"
#include "obs/metrics.h"

namespace dpr {
namespace internal {
namespace {

struct EpollChannel : IoLoop::Channel {
  msghdr* parked_send = nullptr;  // send waiting for EPOLLOUT
  bool recv_on = false;
  bool closed = false;
  uint32_t events = 0;  // interest currently registered
};

class EpollLoop final : public IoLoop {
 public:
  ~EpollLoop() override {
    Stop();
    if (epoll_fd_ >= 0) close(epoll_fd_);
  }

  bool Init() {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0 || !InitWake()) return false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the wake channel
    return epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0;
  }

  Channel* Attach(int fd, Handler* handler) override {
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    auto* ch = new EpollChannel{{handler, fd}};
    Ctl(ch, EPOLL_CTL_ADD);
    return ch;
  }

  void SetRecv(Channel* ch, bool on) override {
    auto* c = static_cast<EpollChannel*>(ch);
    c->recv_on = on;
    UpdateInterest(c);
  }

  void Send(Channel* ch, msghdr* msg) override {
    TrySend(static_cast<EpollChannel*>(ch), msg);
  }

  void Close(Channel* ch) override {
    auto* c = static_cast<EpollChannel*>(ch);
    if (c->closed) return;
    c->closed = true;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    close(c->fd);
    if (c->parked_send != nullptr) {
      c->parked_send = nullptr;
      Defer([c] { c->handler->OnSendDone(-ECANCELED); });
    }
    Defer([c] {
      c->handler->OnClosed();
      delete c;
    });
  }

  Status Listen(int fd, std::function<void(int)> on_accept) override {
    listen_fd_ = fd;
    on_accept_ = std::move(on_accept);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IOError(std::string("epoll_ctl(listen): ") +
                             strerror(errno));
    }
    return Status::OK();
  }

 private:
  void Run() override {
    static Counter* const wakeups =
        MetricsRegistry::Default().counter("net.loop.wakeups");
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    for (;;) {
      DrainPosted();
      RunDeferred();
      if (stopping_) return;
      const int n = epoll_wait(epoll_fd_, events, kMaxEvents, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        DPR_ERROR("epoll_wait: %s", strerror(errno));
        return;
      }
      if (n > 0) wakeups->Add();
      for (int i = 0; i < n; ++i) {
        void* ptr = events[i].data.ptr;
        if (ptr == nullptr) {
          // Drain the eventfd, then clear the flag: a Post after the clear
          // signals again, and one before it was pushed in time for the
          // DrainPosted below. Clearing first would lose a wakeup — a write
          // landing between the clear and the read is swallowed while the
          // flag stays set, so later Posts never write.
          uint64_t drained;
          ssize_t r = read(wake_fd_, &drained, sizeof(drained));
          (void)r;
          wake_pending_.store(false, std::memory_order_relaxed);
        } else if (ptr == &listen_fd_) {
          AcceptAll();
        } else {
          OnReady(static_cast<EpollChannel*>(ptr), events[i].events);
        }
      }
      RunDeferred();
    }
  }

  void AcceptAll() {
    for (;;) {
      const int fd =
          accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd >= 0) {
        on_accept_(fd);
      } else if (errno != EINTR) {
        return;  // EAGAIN, or a transient accept error; epoll re-reports
      }
    }
  }

  void OnReady(EpollChannel* c, uint32_t events) {
    if (c->closed) return;  // closed earlier in this epoll batch
    const bool failed = (events & (EPOLLERR | EPOLLHUP)) != 0;
    if (c->parked_send != nullptr && (failed || (events & EPOLLOUT))) {
      msghdr* msg = c->parked_send;
      c->parked_send = nullptr;
      TrySend(c, msg);
    } else if (!c->recv_on && failed) {
      // Nobody is waiting on this socket to surface the error, and epoll
      // keeps reporting it; end the reads so the connection closes.
      c->handler->OnRecvError(ECONNRESET);
      return;
    }
    if (!c->recv_on || !(failed || (events & EPOLLIN))) return;
    Stats().recv_calls->Add();
    const ssize_t got = recv(c->fd, buf_, sizeof(buf_), 0);
    if (got > 0) {
      c->handler->OnRecv(buf_, static_cast<size_t>(got));
    } else if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                            errno != EINTR)) {
      const int err = got == 0 ? 0 : errno;
      c->recv_on = false;
      UpdateInterest(c);
      c->handler->OnRecvError(err);
    }
  }

  void TrySend(EpollChannel* c, msghdr* msg) {
    ssize_t res;
    for (;;) {
      // dprlint: allowed(net-raw-write) the epoll flush site; the
      // connection state machine carries partial-write offsets.
      res = sendmsg(c->fd, msg, MSG_NOSIGNAL);
      if (res >= 0) {
        Stats().writev_calls->Add();
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: resume from the same iovecs once writable.
        Stats().eagain_waits->Add();
        c->parked_send = msg;
        UpdateInterest(c);
        return;
      }
      res = -errno;
      break;
    }
    UpdateInterest(c);
    Defer([c, res] { c->handler->OnSendDone(res); });
  }

  void UpdateInterest(EpollChannel* c) {
    uint32_t events = c->recv_on ? uint32_t{EPOLLIN} : 0u;
    if (c->parked_send != nullptr) events |= EPOLLOUT;
    if (c->closed || events == c->events) return;
    c->events = events;
    Ctl(c, EPOLL_CTL_MOD);
  }

  // A failed registration means the socket is unusable; it surfaces as a
  // read error so the connection closes through the normal path.
  void Ctl(EpollChannel* c, int op) {
    epoll_event ev{};
    ev.events = c->events;
    ev.data.ptr = c;
    if (epoll_ctl(epoll_fd_, op, c->fd, &ev) != 0) {
      const int err = errno;
      Defer([c, err] { c->handler->OnRecvError(err); });
    }
  }

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  std::function<void(int)> on_accept_;
  char buf_[kReadChunk];
};

}  // namespace

std::unique_ptr<IoLoop> MakeEpollLoop() {
  auto loop = std::make_unique<EpollLoop>();
  if (!loop->Init()) return nullptr;
  return loop;
}

}  // namespace internal
}  // namespace dpr
