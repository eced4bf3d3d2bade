#include "net/io_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace dpr {
namespace internal {

IoLoop::~IoLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
}

bool IoLoop::InitWake() {
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  return wake_fd_ >= 0;
}

void IoLoop::StartThread() {
  {
    MutexLock guard(post_mu_);
    accepting_posts_ = true;
  }
  thread_ = std::thread([this] { Run(); });
}

void IoLoop::Stop() {
  if (!thread_.joinable()) return;
  {
    MutexLock guard(post_mu_);
    if (accepting_posts_) {
      posted_.push_back([this] {
        stopping_ = true;
        if (on_stop_) on_stop_();
        OnStopping();
      });
    }
    accepting_posts_ = false;
  }
  Wake();
  thread_.join();
}

bool IoLoop::Post(std::function<void()> fn) {
  {
    MutexLock guard(post_mu_);
    if (!accepting_posts_) return false;
    posted_.push_back(std::move(fn));
  }
  static Counter* const posted_tasks =
      MetricsRegistry::Default().counter("net.loop.posted_tasks");
  posted_tasks->Add();
  Wake();
  return true;
}

void IoLoop::Wake() {
  if (wake_pending_.exchange(true, std::memory_order_relaxed)) return;
  const uint64_t one = 1;
  // dprlint: allowed(net-raw-write) eventfd nudge, not a stream write.
  ssize_t n = write(wake_fd_, &one, sizeof(one));
  (void)n;  // eventfd writes cannot short-write; EAGAIN means "already
            // signaled", which is exactly what we wanted.
}

void IoLoop::DrainPosted() {
  std::vector<std::function<void()>> tasks;
  {
    MutexLock guard(post_mu_);
    tasks.swap(posted_);
  }
  for (auto& task : tasks) task();
}

void IoLoop::RunDeferred() {
  while (!deferred_.empty()) {
    std::vector<std::function<void()>> tasks;
    tasks.swap(deferred_);
    for (auto& task : tasks) task();
  }
}

}  // namespace internal
}  // namespace dpr
