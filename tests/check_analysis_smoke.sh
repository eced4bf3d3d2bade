#!/usr/bin/env bash
# Smoke test for the scripts/check_analysis.sh lint layer (tier-1, label
# `analysis`): dprlint must pass on the real tree, every check ID must fire
# on a seeded violation, and the uniform `dprlint: allowed(<id>)` opt-out
# must suppress each. ctest exports DPRLINT=<built binary>; running this by
# hand needs a built dprlint (or check_analysis.sh finds one under build*/).
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CHECK="$REPO_ROOT/scripts/check_analysis.sh"

echo "--- dprlint passes on the real tree"
"$CHECK" --lint-only

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# expect_finding <check-id> : the last seeded tree must produce exactly that
# check (grep on the [check-id] tag in the text output), and the gate must
# exit nonzero. expect_clean : the gate must pass.
expect_finding() {
  local id="$1"
  local out
  if out=$("$CHECK" --lint-only "$TMP" 2>&1); then
    echo "FAIL: lint accepted a seeded $id violation"
    echo "$out"
    exit 1
  fi
  if ! printf '%s\n' "$out" | grep -q "\[$id\]"; then
    echo "FAIL: expected a [$id] finding, got:"
    echo "$out"
    exit 1
  fi
}
expect_clean() {
  "$CHECK" --lint-only "$TMP"
}

echo "--- sync-prim fires on a naked std::mutex"
cat > "$TMP/bad.cc" <<'EOF'
#include <mutex>
std::mutex naked_mu;  // seeded violation
EOF
expect_finding sync-prim

echo "--- sync-prim honors the justified opt-out marker"
cat > "$TMP/bad.cc" <<'EOF'
#include <mutex>
// dprlint: allowed(sync-prim) third-party API interop needs the raw type.
std::mutex interop_mu;
EOF
expect_clean

echo "--- sync-prim ignores the spelling inside comments and strings"
cat > "$TMP/bad.cc" <<'EOF'
// a std::mutex mentioned in prose is fine
const char* kDoc = "std::mutex";
const char* kRaw = R"(std::lock_guard<std::mutex> g(mu);)";
EOF
expect_clean
rm -f "$TMP/bad.cc"

echo "--- net-raw-write fires on a raw send(2) under net/"
mkdir -p "$TMP/net"
cat > "$TMP/net/raw.cc" <<'EOF'
#include <sys/socket.h>
void Leak(int fd, const char* buf, unsigned long n) {
  (void)send(fd, buf, n, 0);  // seeded violation
}
EOF
expect_finding net-raw-write

echo "--- net-raw-write honors the justified opt-out marker"
cat > "$TMP/net/raw.cc" <<'EOF'
#include <sys/socket.h>
void Nudge(int fd, const char* buf, unsigned long n) {
  // dprlint: allowed(net-raw-write) control-plane nudge, not frame bytes.
  (void)send(fd, buf, n, 0);
}
EOF
expect_clean

echo "--- net-raw-write fires on a raw sendmsg(2) under net/"
cat > "$TMP/net/raw.cc" <<'EOF'
#include <sys/socket.h>
void Flush(int fd, msghdr* msg) {
  (void)sendmsg(fd, msg, 0);  // seeded violation
}
EOF
expect_finding net-raw-write

echo "--- net-raw-write fires on a hand-rolled io_uring_enter under net/"
cat > "$TMP/net/raw.cc" <<'EOF'
void Submit(int ring_fd) {
  (void)io_uring_enter(ring_fd, 1, 0, 0);  // seeded violation
}
EOF
expect_finding net-raw-write

echo "--- net-raw-write skips qualified ring-helper calls (ring.enter style)"
cat > "$TMP/net/raw.cc" <<'EOF'
struct Ring;
void Submit(Ring* ring) { (void)ring->io_uring_enter(1); }
EOF
expect_clean
rm -rf "$TMP/net"

echo "--- storage-raw-io fires on a raw pwrite(2) outside storage/"
cat > "$TMP/rawio.cc" <<'EOF'
#include <unistd.h>
void Leak(int fd, const char* buf, unsigned long n) {
  (void)pwrite(fd, buf, n, 0);  // seeded violation
  (void)fsync(fd);
}
EOF
expect_finding storage-raw-io

echo "--- storage-raw-io honors the file-scope opt-out marker"
cat > "$TMP/rawio.cc" <<'EOF'
// dprlint: allowed-file(storage-raw-io) bootstrap path before the engine.
#include <unistd.h>
void Nudge(int fd, const char* buf, unsigned long n) {
  (void)pwrite(fd, buf, n, 0);
  (void)fsync(fd);
}
EOF
expect_clean

echo "--- storage-raw-io exempts files under a storage/ backend directory"
mkdir -p "$TMP/storage"
mv "$TMP/rawio.cc" "$TMP/storage/engine.cc"
sed -i 's|// dprlint: allowed-file.*||' "$TMP/storage/engine.cc"
expect_clean
rm -rf "$TMP/storage"

echo "--- fsync-bypass fires on a direct SubmitFsync call outside storage/"
cat > "$TMP/fsync.cc" <<'EOF'
struct Device;
void Flush(Device* dev) {
  dev->SubmitFsync({});  // seeded violation
}
EOF
expect_finding fsync-bypass

echo "--- fsync-bypass honors the justified opt-out marker"
cat > "$TMP/fsync.cc" <<'EOF'
struct Device;
void Flush(Device* dev) {
  // dprlint: allowed(fsync-bypass) measures the raw device fsync.
  dev->SubmitFsync({});
}
EOF
expect_clean
rm -f "$TMP/fsync.cc"

echo "--- device-shim fires on a retired blocking Device member call"
cat > "$TMP/shim.cc" <<'EOF'
template <typename D> void Use(D* dev) {
  dev->WriteAt(0, "x", 1);  // seeded violation
}
EOF
expect_finding device-shim

echo "--- device-shim honors the justified opt-out marker"
cat > "$TMP/shim.cc" <<'EOF'
template <typename D> void Use(D* dev) {
  // dprlint: allowed(device-shim) unrelated API that shares the name.
  dev->WriteAt(0, "x", 1);
}
EOF
expect_clean
rm -f "$TMP/shim.cc"

echo "--- ckpt-interval fires on a fixed-interval checkpoint timer loop"
cat > "$TMP/timer.cc" <<'EOF'
struct Store;
bool stopped();
void SleepMicros(unsigned long us);
void Loop(Store* store, unsigned long checkpoint_interval_us) {
  while (!stopped()) {
    SleepMicros(checkpoint_interval_us);  // seeded violation
    store->TryCommit(0);
  }
}
EOF
expect_finding ckpt-interval

echo "--- ckpt-interval honors the justified opt-out marker"
cat > "$TMP/timer.cc" <<'EOF'
struct Store;
bool stopped();
void SleepMicros(unsigned long us);
void Loop(Store* store, unsigned long checkpoint_interval_us) {
  while (!stopped()) {
    // dprlint: allowed(ckpt-interval) GC pacing borrowing the constant.
    SleepMicros(checkpoint_interval_us);
    store->TryCommit(0);
  }
}
EOF
expect_clean

echo "--- ckpt-interval exempts the cadence controller plane itself"
mkdir -p "$TMP/ckpt"
mv "$TMP/timer.cc" "$TMP/ckpt/cadence.cc"
sed -i 's|// dprlint: allowed.*||' "$TMP/ckpt/cadence.cc"
expect_clean
rm -rf "$TMP/ckpt"

echo "--- ckpt-interval ignores sleeps in files that never drive checkpoints"
cat > "$TMP/pacer.cc" <<'EOF'
void SleepMicros(unsigned long us);
void Pace(unsigned long checkpoint_interval_us) {
  SleepMicros(checkpoint_interval_us);  // no checkpoint call in this file
}
EOF
expect_clean
rm -f "$TMP/pacer.cc"

echo "--- lock-blocking fires on SyncIo under a live guard"
cat > "$TMP/lock.cc" <<'EOF'
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
struct SyncIo { static int Write(int); };
Mutex mu_;
void Hold() {
  MutexLock guard(mu_);
  SyncIo::Write(1);  // seeded violation
}
EOF
expect_finding lock-blocking

echo "--- lock-blocking honors the justified opt-out marker"
cat > "$TMP/lock.cc" <<'EOF'
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
struct SyncIo { static int Write(int); };
Mutex mu_;
void Hold() {
  MutexLock guard(mu_);
  // dprlint: allowed(lock-blocking) the lock is this device's serializer.
  SyncIo::Write(1);
}
EOF
expect_clean
rm -f "$TMP/lock.cc"

echo "--- status-discard fires on a dropped Status return"
cat > "$TMP/status.cc" <<'EOF'
struct Status {};
Status DoWork();
void Caller() {
  DoWork();  // seeded violation: Status silently dropped
}
EOF
expect_finding status-discard

echo "--- status-discard accepts the (void) spelling and the marker"
cat > "$TMP/status.cc" <<'EOF'
struct Status {};
Status DoWork();
Status Other();
void Caller() {
  (void)DoWork();  // sanctioned discard spelling
  // dprlint: allowed(status-discard) best-effort probe; failure is fine.
  Other();
}
EOF
expect_clean
rm -f "$TMP/status.cc"

echo "--- atomic-comment fires on an undocumented atomic field"
cat > "$TMP/atomic.cc" <<'EOF'
#include <atomic>
struct S {
  std::atomic<int> hot_{0};
};
EOF
expect_finding atomic-comment

echo "--- atomic-relaxed fires on an unjustified relaxed operation"
cat > "$TMP/atomic.cc" <<'EOF'
#include <atomic>
std::atomic<int>* Cell();
int Peek() { return Cell()->load(std::memory_order_relaxed); }
EOF
expect_finding atomic-relaxed

echo "--- atomic checks honor the invariant comment (decl justifies uses)"
cat > "$TMP/atomic.cc" <<'EOF'
#include <atomic>
struct S {
  // relaxed: independent stat counter; only atomicity matters.
  std::atomic<int> hot_{0};
  int Peek() { return hot_.load(std::memory_order_relaxed); }
};
EOF
expect_clean
rm -f "$TMP/atomic.cc"

echo "--- callback-lock fires on a stored callback invoked under a guard"
cat > "$TMP/cb.cc" <<'EOF'
#include <functional>
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
struct S {
  Mutex mu_;
  std::function<void()> on_event_;
  void Fire() {
    MutexLock guard(mu_);
    on_event_();  // seeded violation
  }
};
EOF
expect_finding callback-lock

echo "--- callback-lock honors the justified opt-out marker"
cat > "$TMP/cb.cc" <<'EOF'
#include <functional>
struct Mutex {};
struct MutexLock { explicit MutexLock(Mutex& m); };
struct S {
  Mutex mu_;
  std::function<void()> on_event_;
  void Fire() {
    MutexLock guard(mu_);
    // dprlint: allowed(callback-lock) contract: callee takes no locks.
    on_event_();
  }
};
EOF
expect_clean
rm -f "$TMP/cb.cc"

echo "--- allow-syntax fires on a marker with an unknown check ID"
cat > "$TMP/marker.cc" <<'EOF'
// dprlint: allowed(no-such-check) bogus marker must be reported.
int x;
EOF
expect_finding allow-syntax

echo "--- allow-syntax fires on a marker without a justification"
cat > "$TMP/marker.cc" <<'EOF'
#include <mutex>
// dprlint: allowed(sync-prim)
std::mutex mu;
EOF
expect_finding allow-syntax
rm -f "$TMP/marker.cc"

echo "PASS"
