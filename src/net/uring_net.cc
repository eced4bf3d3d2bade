// io_uring backend of the completion interface (io_loop.h): the loop
// replaces epoll_wait + recv + sendmsg with batched SQE submission on a
// per-loop ring (common/uring.h, the same core the storage engine sits on).
//
//  - Accept: one multishot IORING_OP_ACCEPT keeps the listener armed across
//    completions.
//  - Reads: one multishot IORING_OP_RECV per channel with
//    IOSQE_BUFFER_SELECT against a per-loop provided buffer ring
//    (IORING_REGISTER_PBUF_RING). Completions carry a buffer id; OnRecv
//    hands the connection the provided buffer itself (it parses in place),
//    then the buffer goes back on the ring.
//  - Writes: each Send is one IORING_OP_SENDMSG; the connection keeps at
//    most one in flight.
//  - Pause and close cancel the multishot recv (IORING_OP_ASYNC_CANCEL).
//  - Shutdown: cancel every armed op, then drain CQEs until the loop's
//    outstanding-op count hits zero — only then is it safe to unmap the
//    ring (the kernel holds pointers into channel memory while ops live).
//
// Op accounting rule: every pushed SQE eventually yields exactly one CQE
// without IORING_CQE_F_MORE (multishot CQEs with F_MORE mean the op is
// still armed). Both the loop-global outstanding count and the per-channel
// op count decrement on that uniform rule.

#include "net/tcp_net.h"

#if DPR_HAVE_IOURING

#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/uring.h"
#include "net/frame.h"
#include "net/io_loop.h"
#include "obs/metrics.h"

// The backend needs the 6.0-era UAPI (multishot recv/accept, provided
// buffer rings, SEND_ZC for the runtime probe); with older headers it
// compiles to the unsupported stubs at the bottom of this file. Only the
// multishot flags are macros (the rest are enum values, invisible to
// #ifdef), and IORING_RECV_MULTISHOT is the newest of the set, so the two
// flags proxy for everything this file names.
#if defined(IORING_RECV_MULTISHOT) && defined(IORING_ACCEPT_MULTISHOT)
#define DPR_URING_NET_COMPILED 1
#else
#define DPR_URING_NET_COMPILED 0
#endif

#endif  // DPR_HAVE_IOURING

#if DPR_HAVE_IOURING && DPR_URING_NET_COMPILED

namespace dpr {
namespace internal {
namespace {

// Provided-buffer ring geometry per loop: 64 buffers of kReadChunk (64 KiB)
// — 4 MiB of receive window shared by every connection on the loop.
// Buffers recycle as soon as their CQE is parsed, so exhaustion
// (-ENOBUFS, counted) needs 64 completions queued behind one drain pass.
constexpr uint32_t kBufEntries = 64;
constexpr uint16_t kBufGroup = 0;

// Small-integer user_data values for loop-owned ops; anything else is a
// channel pointer tagged in its low bit (heap objects are 8+ aligned).
constexpr uint64_t kUdWake = 1;
constexpr uint64_t kUdCancel = 2;  // every cancel op's own completion
constexpr uint64_t kUdAccept = 3;
constexpr uint64_t kTagRecv = 0;
constexpr uint64_t kTagSend = 1;

struct UringChannel : IoLoop::Channel {
  bool want_recv = false;
  bool recv_armed = false;
  bool ever_armed = false;
  bool in_send_done = false;
  bool closing = false;
  bool finished = false;
  uint32_t ops = 0;  // SQEs still referencing this channel
};

class UringLoop final : public IoLoop {
 public:
  ~UringLoop() override {
    Stop();
    if (buf_ring_ != nullptr) {
      ring_.UnregisterBufRing(kBufGroup);
      munmap(buf_ring_, buf_ring_sz_);
    }
    if (bufs_ != nullptr) munmap(bufs_, bufs_sz_);
  }

  // Ring + buffer-ring + eventfd setup, before any thread exists, so the
  // factory can fall back to epoll.
  bool Init(uint32_t entries) {
    if (!ring_.Init(entries) || !InitWake()) return false;
    buf_ring_sz_ = kBufEntries * sizeof(io_uring_buf);
    buf_ring_ = mmap(nullptr, buf_ring_sz_, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (buf_ring_ == MAP_FAILED) {
      buf_ring_ = nullptr;
      return false;
    }
    if (!ring_.RegisterBufRing(buf_ring_, kBufEntries, kBufGroup)) {
      munmap(buf_ring_, buf_ring_sz_);
      buf_ring_ = nullptr;
      return false;
    }
    bufs_sz_ = static_cast<size_t>(kBufEntries) * kReadChunk;
    bufs_ = static_cast<char*>(mmap(nullptr, bufs_sz_, PROT_READ | PROT_WRITE,
                                    MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
    if (bufs_ == MAP_FAILED) {
      bufs_ = nullptr;
      return false;
    }
    for (uint16_t bid = 0; bid < kBufEntries; ++bid) RecycleBuffer(bid);
    return true;
  }

  Channel* Attach(int fd, Handler* handler) override {
    return new UringChannel{{handler, fd}};
  }

  void SetRecv(Channel* ch, bool on) override {
    auto* c = static_cast<UringChannel*>(ch);
    c->want_recv = on;
    if (on) {
      MaybeArmRecv(c);
    } else if (c->recv_armed) {
      CancelOp(Ud(c, kTagRecv));
    }
  }

  void Send(Channel* ch, msghdr* msg) override {
    auto* c = static_cast<UringChannel*>(ch);
    // Resubmitting from a send completion: a partial write, or frames that
    // queued while the last SENDMSG was in flight.
    if (c->in_send_done) Stats().uring_resubmits->Add();
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_SENDMSG;
    sqe.fd = c->fd;
    sqe.addr = reinterpret_cast<uint64_t>(msg);
    sqe.len = 1;
    sqe.msg_flags = MSG_NOSIGNAL;
    sqe.user_data = Ud(c, kTagSend);
    PushOp(sqe);
    ++c->ops;
  }

  void Close(Channel* ch) override {
    auto* c = static_cast<UringChannel*>(ch);
    if (c->closing) return;
    c->closing = true;
    c->want_recv = false;
    // Wakes an in-flight send and ends the recv promptly.
    shutdown(c->fd, SHUT_RDWR);
    if (c->recv_armed) CancelOp(Ud(c, kTagRecv));
    MaybeFinish(c);
  }

  Status Listen(int fd, std::function<void(int)> on_accept) override {
    listen_fd_ = fd;
    on_accept_ = std::move(on_accept);
    ArmAccept();
    return Status::OK();
  }

 private:
  static uint64_t Ud(UringChannel* c, uint64_t tag) {
    return reinterpret_cast<uint64_t>(c) | tag;
  }

  void PushOp(const io_uring_sqe& sqe) {
    ring_.PushSqe(sqe);
    ++outstanding_ops_;
  }

  void MaybeArmRecv(UringChannel* c) {
    if (!c->want_recv || c->recv_armed || c->closing) return;
    if (c->ever_armed) Stats().uring_resubmits->Add();
    c->ever_armed = true;
    c->recv_armed = true;
    ++c->ops;
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_RECV;
    sqe.fd = c->fd;
    sqe.ioprio = IORING_RECV_MULTISHOT;
    sqe.flags = IOSQE_BUFFER_SELECT;
    sqe.buf_group = kBufGroup;
    sqe.user_data = Ud(c, kTagRecv);
    PushOp(sqe);
  }

  void ArmAccept() {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_ACCEPT;
    sqe.fd = listen_fd_;
    sqe.ioprio = IORING_ACCEPT_MULTISHOT;
    sqe.accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
    sqe.user_data = kUdAccept;
    PushOp(sqe);
    accept_armed_ = true;
  }

  void ArmWakeRead() {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_READ;
    sqe.fd = wake_fd_;
    sqe.addr = reinterpret_cast<uint64_t>(&wake_buf_);
    sqe.len = sizeof(wake_buf_);
    sqe.user_data = kUdWake;
    PushOp(sqe);
    wake_armed_ = true;
  }

  // The canceled op completes with -ECANCELED (or runs to completion if it
  // raced); the cancel op's own completion needs no action.
  void CancelOp(uint64_t target_ud) {
    io_uring_sqe sqe;
    memset(&sqe, 0, sizeof(sqe));
    sqe.opcode = IORING_OP_ASYNC_CANCEL;
    sqe.addr = target_ud;
    sqe.user_data = kUdCancel;
    PushOp(sqe);
  }

  void OnStopping() override {
    if (accept_armed_) CancelOp(kUdAccept);
    if (wake_armed_) CancelOp(kUdWake);
  }

  void Run() override {
    ArmWakeRead();
    for (;;) {
      DrainPosted();
      RunDeferred();
      if (ring_.pending() > 0) {
        Stats().uring_sqe_batches->Add(ring_.SubmitPending());
      }
      if (stopping_ && outstanding_ops_ == 0) break;
      if (!ring_.CqReady()) {
        // Combined submit-and-wait: one io_uring_enter parks until a CQE
        // (data, send completion, or the wake eventfd read) is available.
        Stats().uring_sqe_batches->Add(ring_.SubmitAndWait(1));
      }
      const unsigned reaped =
          ring_.DrainCqes([this](const io_uring_cqe& cqe) { HandleCqe(cqe); });
      if (reaped > 0) Stats().uring_cqe_reaped->Add(reaped);
      RunDeferred();
    }
    RunDeferred();
  }

  void HandleCqe(const io_uring_cqe& cqe) {
    const bool terminal = (cqe.flags & IORING_CQE_F_MORE) == 0;
    if (terminal) --outstanding_ops_;
    switch (cqe.user_data) {
      case kUdWake:
        wake_armed_ = false;
        wake_pending_.store(false, std::memory_order_relaxed);
        if (!stopping_) ArmWakeRead();
        return;
      case kUdCancel:
        return;
      case kUdAccept:
        if (terminal) accept_armed_ = false;
        if (cqe.res >= 0) on_accept_(cqe.res);
        // Re-arm when the multishot terminated for any reason other than
        // stop (ENFILE bursts, the kernel dropping the arm).
        if (terminal && !stopping_) {
          Stats().uring_resubmits->Add();
          ArmAccept();
        }
        return;
    }
    auto* c = reinterpret_cast<UringChannel*>(cqe.user_data & ~uint64_t{1});
    if ((cqe.user_data & 1) == kTagSend) {
      --c->ops;
      c->in_send_done = true;
      c->handler->OnSendDone(cqe.res);
      c->in_send_done = false;
    } else {
      OnRecvCqe(c, cqe.res, cqe.flags, terminal);
    }
    MaybeFinish(c);
  }

  void OnRecvCqe(UringChannel* c, int32_t res, uint32_t flags, bool terminal) {
    if (terminal) {
      c->recv_armed = false;
      --c->ops;
    }
    if (res > 0 && (flags & IORING_CQE_F_BUFFER) != 0) {
      const uint16_t bid = static_cast<uint16_t>(flags >>
                                                 IORING_CQE_BUFFER_SHIFT);
      if (!c->closing) {
        c->handler->OnRecv(BufferFor(bid), static_cast<size_t>(res));
      }
      RecycleBuffer(bid);
    } else if (res == -ENOBUFS) {
      Stats().uring_buffer_ring_exhausted->Add();
    } else if (res != -ECANCELED) {
      // End of stream, an error, or data without a provided buffer (a
      // broken BUFFER_SELECT contract: the stream is garbage).
      c->want_recv = false;
      if (!c->closing) c->handler->OnRecvError(res > 0 ? EIO : -res);
    }
    // A terminated multishot (ran out, ENOBUFS, a pause racing a resume)
    // re-arms while reads are still wanted.
    if (terminal) MaybeArmRecv(c);
  }

  // Once a closing channel has no op left, close the fd and hand the
  // channel back through the deferred OnClosed.
  void MaybeFinish(UringChannel* c) {
    if (!c->closing || c->ops != 0 || c->finished) return;
    c->finished = true;
    close(c->fd);
    Defer([c] {
      c->handler->OnClosed();
      delete c;
    });
  }

  char* BufferFor(uint16_t bid) { return bufs_ + size_t{bid} * kReadChunk; }

  // Returns the buffer to the provided ring (release-publishes the tail).
  //
  // Slot addressing is done with raw byte offsets, NOT through
  // io_uring_buf_ring::bufs[]: the UAPI declares that flexible array with
  // __DECLARE_FLEX_ARRAY, whose wrapper struct is empty in C and therefore
  // overlays the ring base — but in C++ an empty member has size 1 and gets
  // alignment-padded, shifting bufs[0] to offset 8. Writing through the C++
  // view lands every descriptor 8 bytes off; the kernel then reads zeroed /
  // torn descriptors and recv fails with ENOBUFS forever. The ABI says slot
  // i lives at byte offset i * sizeof(io_uring_buf) from the ring base
  // (slot 0 overlays the tail word, which is why the tail shares the ring).
  void RecycleBuffer(uint16_t bid) {
    constexpr uint32_t mask = kBufEntries - 1;
    auto* slot = reinterpret_cast<io_uring_buf*>(
        static_cast<char*>(buf_ring_) +
        size_t{buf_tail_ & mask} * sizeof(io_uring_buf));
    slot->addr = reinterpret_cast<uint64_t>(BufferFor(bid));
    slot->len = kReadChunk;
    slot->bid = bid;
    ++buf_tail_;
    // tail sits at offset 14 in both C and C++ (plain members, no flex
    // array involved), so the struct view is safe for the publish.
    auto* br = static_cast<io_uring_buf_ring*>(buf_ring_);
    reinterpret_cast<std::atomic<uint16_t>*>(&br->tail)->store(
        static_cast<uint16_t>(buf_tail_), std::memory_order_release);
  }

  UringRing ring_;
  uint64_t wake_buf_ = 0;
  // Loop-thread-only state.
  bool wake_armed_ = false;
  bool accept_armed_ = false;
  int listen_fd_ = -1;
  std::function<void(int)> on_accept_;
  size_t outstanding_ops_ = 0;
  void* buf_ring_ = nullptr;
  size_t buf_ring_sz_ = 0;
  char* bufs_ = nullptr;
  size_t bufs_sz_ = 0;
  uint32_t buf_tail_ = 0;
};

}  // namespace

std::unique_ptr<IoLoop> MakeUringLoop() {
  if (!NetUringSupported()) return nullptr;
  auto loop = std::make_unique<UringLoop>();
  if (!loop->Init(/*entries=*/256)) return nullptr;
  return loop;
}

}  // namespace internal

bool NetUringSupported() {
  static const bool supported = [] {
    UringRing ring;
    if (!ring.Init(8)) return false;
    // Opcode probes for everything the loop arms, plus IORING_OP_SEND_ZC as
    // a 6.0+ proxy: multishot recv and buffer-id CQEs shipped in the same
    // release, and the probe interface cannot see per-op flags.
    const uint8_t required[] = {IORING_OP_ACCEPT, IORING_OP_RECV,
                                IORING_OP_SENDMSG, IORING_OP_READ,
                                IORING_OP_ASYNC_CANCEL, IORING_OP_SEND_ZC};
    for (uint8_t op : required) {
      if (!ring.ProbeOpcode(op)) return false;
    }
    void* mem = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    if (mem == MAP_FAILED) return false;
    const bool pbuf = ring.RegisterBufRing(mem, 8, 0);
    if (pbuf) ring.UnregisterBufRing(0);
    munmap(mem, 4096);
    return pbuf;
  }();
  return supported;
}

}  // namespace dpr

#else  // !(DPR_HAVE_IOURING && DPR_URING_NET_COMPILED)

#include "net/io_loop.h"

namespace dpr {

bool NetUringSupported() { return false; }

namespace internal {
std::unique_ptr<IoLoop> MakeUringLoop() { return nullptr; }
}  // namespace internal

}  // namespace dpr

#endif  // DPR_HAVE_IOURING && DPR_URING_NET_COMPILED
