#ifndef DPR_NET_FRAME_H_
#define DPR_NET_FRAME_H_

// Wire-format and flush-path machinery under the TCP transport's one
// connection state machine (tcp_net.cc) and its two backends (epoll:
// event_loop.cc, io_uring: uring_net.cc). The contracts it encodes:
//   * frames are [u32 payload-length][u64 request-id][payload];
//   * a flush batch covers at most kMaxIov/2 frames (header + payload
//     iovec each), pointed at in place — payloads are never copied into a
//     staging buffer;
//   * partial writes carry a per-frame offset forward (OutFrame::offset);
//   * read backpressure pauses above the output-queue byte budget and
//     resumes below half of it (ReadGate — the single tested hysteresis,
//     not per-backend literals);
//   * client-side fault probes (drop/duplicate/delay/partition) fire on
//     the submit path of whichever backend carries the call.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "common/coding.h"
#include "common/status.h"
#include "net/rpc.h"

struct iovec;  // <sys/uio.h>

namespace dpr {

class Counter;
class Gauge;

namespace internal {

constexpr size_t kFrameHeader = 12;  // u32 length + u64 request id

// Upper bound on a single frame's payload. A length prefix beyond this is
// garbage (a desynchronized or hostile peer), and honoring it would pin an
// arbitrarily large allocation waiting for bytes that never come.
constexpr uint32_t kMaxFramePayload = 256u << 20;

// iovec budget per flush syscall/SQE: every queued frame contributes a
// header iovec and a payload iovec, so one sendmsg moves up to kMaxIov/2
// frames.
constexpr int kMaxIov = 64;

// Bytes pulled off a readable socket per event-loop pass (epoll backend)
// and the provided-buffer size fed to multishot recv (uring backend).
constexpr size_t kReadChunk = 64 * 1024;

// Classify a socket errno: peer resets and unreachable routes are transient
// (reconnect and retry), timeouts carry their own code, anything else is a
// hard I/O error.
Status MapSocketError(const char* op, int err);

// Call-site-cached registry pointers: one registration per process, relaxed
// atomics after that. Gauges move by deltas so concurrent servers aggregate.
// net.tcp.* series cover both backends (frame/byte accounting is backend-
// independent); net.uring.* series exist only for the ring loop.
struct TcpCounters {
  Counter* frames_sent;
  Counter* frames_received;
  Counter* short_writes;
  Counter* eagain_waits;
  Counter* poisoned;
  Counter* writev_calls;     // coalescing flush syscalls (sendmsg, epoll)
  Counter* writev_frames;    // frames completed by coalesced sends
  Counter* recv_calls;       // recv(2) syscalls (epoll read path)
  Counter* accepted;         // server sockets accepted
  Gauge* output_queue_bytes;  // bytes queued awaiting flush, all server conns
  Gauge* server_conns;        // live accepted connections
  // io_uring backend series (see DESIGN.md §4l syscall accounting):
  Counter* uring_sqe_batches;   // io_uring_enter calls from net loops
  Counter* uring_cqe_reaped;    // CQEs consumed by net loops
  Counter* uring_buffer_ring_exhausted;  // recv hit -ENOBUFS
  Counter* uring_resubmits;     // multishot re-arms + partial-send resubmits
  Counter* uring_fallbacks;     // uring requested but epoll served
};

const TcpCounters& Stats();

// Shared socket configuration. Data sockets get TCP_NODELAY (frames are
// small and pipelined; Nagle would serialize round trips behind delayed
// ACKs), listeners get SO_REUSEADDR (tests and restarts rebind fixed ports
// without waiting out TIME_WAIT).
enum class SocketKind { kListener, kData };
void ConfigureSocket(int fd, SocketKind kind);

// One queued outbound frame. Header and payload stay separate so flushes
// point iovecs at them in place — the payload is never copied into a
// staging buffer. `offset` tracks bytes already on the wire when a previous
// flush stopped mid-frame (partial write).
struct OutFrame {
  char header[kFrameHeader];
  std::string payload;
  size_t offset = 0;
  uint64_t id = 0;

  size_t size() const { return kFrameHeader + payload.size(); }
  size_t remaining() const { return size() - offset; }
};

OutFrame MakeFrame(uint64_t id, std::string payload);

// Points up to kMaxIov iovecs at the queued frames, honoring the front
// frame's partial-write offset. Returns the frame count covered (the last
// may be covered only partially if the iovec budget ran out mid-queue —
// harmless, the next flush picks it back up). *bytes gets the batch size.
int BuildIovecs(std::deque<OutFrame>& out, struct iovec* iov, int* iovcnt,
                size_t* bytes);

// Advances frame offsets past `wrote` flushed bytes, popping frames that
// completed. Returns how many frames finished.
size_t ConsumeWritten(std::deque<OutFrame>* out, size_t wrote);

// Parses every complete frame out of [data, data+len), invoking
// fn(request_id, payload_ptr, payload_len) per frame. Returns the bytes
// consumed (a trailing partial frame stays unconsumed for the caller to
// carry forward). Sets *garbage when a length prefix exceeds
// kMaxFramePayload — the stream is unrecoverable and the connection must
// close. Bumps net.tcp.frames_received per frame (via NoteFrameReceived,
// an out-of-line shim so this header does not pull in the metrics plane).
void NoteFrameReceived();

template <typename Fn>
size_t ParseFrameStream(const char* data, size_t len, bool* garbage,
                        Fn&& fn);

// Read-backpressure hysteresis shared by both backends: pause reads above
// the per-connection output-byte budget, resume below half of it, so a
// slow client draining responses doesn't flap the read arm.
constexpr size_t ResumeReadsBelow(size_t budget) { return budget / 2; }

struct ReadGate {
  bool paused = false;

  // Folds the current queue depth in; returns true when the pause state
  // flipped (the caller must re-arm or cancel its read interest).
  bool Update(size_t queued_bytes, size_t budget) {
    if (!paused && queued_bytes > budget) {
      paused = true;
      return true;
    }
    if (paused && queued_bytes < ResumeReadsBelow(budget)) {
      paused = false;
      return true;
    }
    return false;
  }
};

// Client-submit-path fault probes, shared by both backends so injected
// drop/duplicate/delay/partition faults fire regardless of which ring
// carries the frame. Returns false when the call was consumed by a fault
// (`callback` has already been invoked); otherwise the caller must send,
// twice with the same id when *duplicate was set (the server handles the
// frame twice, the first response resolves the call, and the loser is
// dropped as an unknown id — exactly like a duplicated datagram).
bool ApplyClientNetFaults(uint64_t peer_scope,
                          const RpcConnection::ResponseCallback& callback,
                          bool* duplicate);

// --- implementation ---

template <typename Fn>
size_t ParseFrameStream(const char* data, size_t len, bool* garbage,
                        Fn&& fn) {
  size_t pos = 0;
  while (len - pos >= kFrameHeader) {
    const uint32_t frame_len = DecodeFixed32(data + pos);
    if (frame_len > kMaxFramePayload) {
      *garbage = true;
      return pos;
    }
    if (len - pos < kFrameHeader + frame_len) break;
    const uint64_t id = DecodeFixed64(data + pos + 4);
    NoteFrameReceived();
    fn(id, data + pos + kFrameHeader, static_cast<size_t>(frame_len));
    pos += kFrameHeader + frame_len;
  }
  return pos;
}

}  // namespace internal

}  // namespace dpr

#endif  // DPR_NET_FRAME_H_
