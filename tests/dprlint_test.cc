// Unit tests for tools/dprlint/: the C++ lexer that feeds every check, and
// each check in the registry against positive/negative snippets. All
// hermetic — AnalyzeSources takes (path, content) pairs, so the path-scoped
// checks (net/, storage/, ckpt/) are exercised with synthetic paths.
#include "dprlint.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lexer.h"

namespace dprlint {
namespace {

std::vector<std::string> Checks(const std::vector<Finding>& fs) {
  std::vector<std::string> ids;
  for (const Finding& f : fs) ids.push_back(f.check);
  return ids;
}

bool Has(const std::vector<Finding>& fs, const std::string& id) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const Finding& f) { return f.check == id; });
}

std::vector<Finding> Lint(const std::string& path, const std::string& src) {
  return AnalyzeSources({{path, src}});
}

// ------------------------------------------------------------------ lexer

TEST(Lexer, SeparatesCommentsFromCode) {
  LexedSource lx = Lex("int a; // trailing\n/* block */ int b;\n");
  ASSERT_GE(lx.line_count, 2);
  EXPECT_NE(lx.comments_by_line[1].find("trailing"), std::string::npos);
  EXPECT_NE(lx.comments_by_line[2].find("block"), std::string::npos);
  for (const Token& t : lx.tokens) {
    EXPECT_NE(t.text, "trailing");
    EXPECT_NE(t.text, "block");
  }
}

TEST(Lexer, BlockCommentsDoNotNest) {
  // Per the standard, the first */ terminates: `y` is code.
  LexedSource lx = Lex("/* outer /* inner */ int y; */\n");
  bool saw_y = false;
  for (const Token& t : lx.tokens)
    if (t.kind == Token::Kind::kIdent && t.text == "y") saw_y = true;
  EXPECT_TRUE(saw_y);
}

TEST(Lexer, RawStringsSwallowEverything) {
  LexedSource lx =
      Lex("const char* s = R\"x(std::mutex */ \" // not code)x\";\n");
  int strings = 0;
  for (const Token& t : lx.tokens) {
    if (t.kind == Token::Kind::kString) ++strings;
    EXPECT_NE(t.text, "mutex");
  }
  EXPECT_EQ(strings, 1);
  EXPECT_TRUE(lx.comments_by_line[1].empty());
}

TEST(Lexer, StringEmbeddedKeywordsAreNotCode) {
  LexedSource lx = Lex("const char* s = \"std::mutex m; \\\" still\";\n");
  for (const Token& t : lx.tokens) EXPECT_NE(t.text, "mutex");
}

TEST(Lexer, LineContinuationExtendsLineComments) {
  // The backslash-newline splices: `hidden` is comment text, not code.
  LexedSource lx = Lex("// spliced \\\nhidden\nint z;\n");
  for (const Token& t : lx.tokens) EXPECT_NE(t.text, "hidden");
  EXPECT_NE(lx.comments_by_line[2].find("hidden"), std::string::npos);
}

TEST(Lexer, PreprocessorLinesAreNotCodeTokens) {
  LexedSource lx = Lex("#define SLEEP(x) sleep_for(x)\nint w;\n");
  for (const Token& t : lx.tokens) {
    if (t.kind != Token::Kind::kPreproc) {
      EXPECT_NE(t.text, "sleep_for");
    }
  }
}

TEST(Lexer, DigitSeparatorsStayOneToken) {
  LexedSource lx = Lex("auto n = 1'000'000;\n");
  bool found = false;
  for (const Token& t : lx.tokens)
    if (t.kind == Token::Kind::kNumber && t.text == "1'000'000") found = true;
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ check: sync

TEST(SyncPrim, FlagsNakedPrimitive) {
  auto fs = Lint("a/b.cc", "#include <mutex>\nstd::mutex mu;\n");
  EXPECT_EQ(Checks(fs), std::vector<std::string>{"sync-prim"});
}

TEST(SyncPrim, ExemptsTheWrapperHeader) {
  EXPECT_TRUE(Lint("src/common/sync.h", "std::mutex mu;\n").empty());
}

TEST(SyncPrim, IgnoresCommentAndString) {
  EXPECT_TRUE(Lint("a/b.cc",
                  "// std::mutex in prose\n"
                  "const char* s = \"std::condition_variable\";\n")
                  .empty());
}

// ------------------------------------------------- checks: raw I/O + shim

TEST(RawCalls, NetWriteOnlyUnderNetDir) {
  const std::string src = "void F(int fd) { send(fd, \"x\", 1, 0); }\n";
  EXPECT_TRUE(Has(Lint("x/net/conn.cc", src), "net-raw-write"));
  EXPECT_FALSE(Has(Lint("x/other/conn.cc", src), "net-raw-write"));
}

TEST(RawCalls, MemberSpellingIsNotTheSyscall) {
  EXPECT_TRUE(
      Lint("x/net/conn.cc", "void F(S* s) { s->write(1); s.send(2); }\n")
          .empty());
}

TEST(RawCalls, SendmsgAndRingEnterCountAsNetWrites) {
  EXPECT_TRUE(Has(Lint("x/net/conn.cc",
                       "void F(int fd, msghdr* m) { sendmsg(fd, m, 0); }\n"),
                  "net-raw-write"));
  EXPECT_TRUE(Has(Lint("x/net/ring.cc",
                       "void F(int fd) { io_uring_enter(fd, 1, 0, 0); }\n"),
                  "net-raw-write"));
  // The UringRing helper's member spelling stays sanctioned.
  EXPECT_TRUE(Lint("x/net/ring.cc",
                   "void F(R* r) { r->io_uring_enter(1); }\n")
                  .empty());
}

TEST(RawCalls, StorageIoOutsideStorageDir) {
  const std::string src = "void F(int fd) { fsync(fd); }\n";
  EXPECT_TRUE(Has(Lint("src/faster/store.cc", src), "storage-raw-io"));
  EXPECT_TRUE(Lint("src/storage/device.cc", src).empty());
}

TEST(FsyncBypass, FlagsCallsButNotOverridesOutsideStorage) {
  const std::string call =
      "void F(Device* d, IoCallback cb) { d->SubmitFsync(cb); }\n";
  EXPECT_EQ(Checks(Lint("src/faster/store.cc", call)),
            std::vector<std::string>{"fsync-bypass"});
  EXPECT_TRUE(Has(Lint("bench/b.cc",
                       "void F(Device& d) { d.SubmitFsync({}); }\n"),
                  "fsync-bypass"));
  // Devices and SyncIo live under storage/: exempt.
  EXPECT_TRUE(Lint("src/storage/device.cc", call).empty());
  // Overrides and out-of-line definitions are not calls.
  EXPECT_TRUE(Lint("tests/t.cc",
                   "struct G : Device {\n"
                   "  void SubmitFsync(IoCallback done) override;\n"
                   "};\n"
                   "void G::SubmitFsync(IoCallback done) {}\n")
                  .empty());
  // A justified marker sanctions a test's call.
  EXPECT_TRUE(Lint("tests/t.cc",
                   "void F(Device* d) {\n"
                   "  // dprlint: allowed(fsync-bypass) pins the raw device.\n"
                   "  d->SubmitFsync({});\n"
                   "}\n")
                  .empty());
}

TEST(DeviceShim, FlagsRetiredMemberCalls) {
  auto fs = Lint("a.cc", "void F(D* d) { d->WriteAt(0, \"x\", 1); }\n");
  EXPECT_EQ(Checks(fs), std::vector<std::string>{"device-shim"});
}

// ------------------------------------------------- check: ckpt-interval

TEST(CkptInterval, FlagsFixedSleepOnlyInCheckpointDrivingFiles) {
  const std::string driving =
      "void Loop(S* s, unsigned long checkpoint_interval_us) {\n"
      "  SleepMicros(checkpoint_interval_us);\n"
      "  s->TryCommit(0);\n"
      "}\n";
  EXPECT_TRUE(Has(Lint("src/x/loop.cc", driving), "ckpt-interval"));
  // Same sleep, no checkpoint call in the file: not a rogue cadence loop.
  const std::string passive =
      "void Pace(unsigned long checkpoint_interval_us) {\n"
      "  SleepMicros(checkpoint_interval_us);\n"
      "}\n";
  EXPECT_TRUE(Lint("src/x/pace.cc", passive).empty());
  // The controller plane itself is exempt.
  EXPECT_TRUE(Lint("src/ckpt/cadence.cc", driving).empty());
}

TEST(CkptInterval, StatementScopedAcrossLines) {
  // Sleep call and interval expression on different lines of one statement
  // — the old same-line grep missed this spelling.
  const std::string src =
      "void Loop(S* s, Opts o) {\n"
      "  SleepMicros(\n"
      "      o.checkpoint_interval_us);\n"
      "  s->PerformCheckpoint(1);\n"
      "}\n";
  EXPECT_TRUE(Has(Lint("src/x/loop.cc", src), "ckpt-interval"));
}

// ------------------------------------------------- check: lock-blocking

namespace {
const char kLockPrelude[] =
    "struct Mutex {};\n"
    "struct MutexLock { explicit MutexLock(Mutex& m); };\n"
    "struct SyncIo { static int Write(int); static int Read(int); };\n"
    "void SleepMicros(unsigned long);\n"
    "Mutex mu_;\n";
}  // namespace

TEST(LockBlocking, FlagsSyncIoAndSleepUnderGuard) {
  auto fs = Lint("a.cc", std::string(kLockPrelude) +
                            "void F() {\n"
                            "  MutexLock g(mu_);\n"
                            "  SyncIo::Write(1);\n"
                            "  SleepMicros(10);\n"
                            "}\n");
  EXPECT_EQ(Checks(fs),
            (std::vector<std::string>{"lock-blocking", "lock-blocking"}));
}

TEST(LockBlocking, GuardScopeEndsAtBrace) {
  auto fs = Lint("a.cc", std::string(kLockPrelude) +
                            "void F() {\n"
                            "  { MutexLock g(mu_); }\n"
                            "  SyncIo::Write(1);\n"
                            "}\n");
  EXPECT_TRUE(fs.empty());
}

TEST(LockBlocking, LambdaBodyDoesNotInheritGuards) {
  // The lambda runs later, off-lock: its SyncIo call is not "under" g.
  auto fs = Lint("a.cc", std::string(kLockPrelude) +
                            "void Defer(int);\n"
                            "void F() {\n"
                            "  MutexLock g(mu_);\n"
                            "  auto fn = [] { SyncIo::Write(1); };\n"
                            "}\n");
  EXPECT_TRUE(fs.empty());
}

// ------------------------------------------------- check: status-discard

TEST(StatusDiscard, FlagsDroppedReturnAndAcceptsVoidCast) {
  auto fs = Lint("a.cc",
                "struct Status {};\n"
                "Status DoWork();\n"
                "void F() {\n"
                "  DoWork();\n"
                "  (void)DoWork();\n"
                "}\n");
  EXPECT_EQ(Checks(fs), std::vector<std::string>{"status-discard"});
  EXPECT_EQ(fs[0].line, 4);
}

TEST(StatusDiscard, HarvestsQualifiedAndMemberSpellings) {
  auto fs = Lint("a.cc",
                "struct Status {};\n"
                "struct Dev { Status Sync(); };\n"
                "void F(Dev* d) { d->Sync(); }\n");
  EXPECT_TRUE(Has(fs, "status-discard"));
}

TEST(StatusDiscard, AmbiguousNamesAreNotFlagged) {
  // `Poll` is also declared returning int elsewhere; bare-name evidence is
  // too weak, so the discard is allowed to pass.
  auto fs = AnalyzeSources(
      {{"a.h", "struct Status {};\nStatus Poll();\n"},
       {"b.h", "int Poll();\n"},
       {"c.cc", "void F() { Poll(); }\n"}});
  EXPECT_TRUE(fs.empty());
}

TEST(StatusDiscard, UsedReturnIsFine) {
  EXPECT_TRUE(Lint("a.cc",
                  "struct Status { bool ok(); };\n"
                  "Status DoWork();\n"
                  "bool F() { return DoWork().ok(); }\n"
                  "void G() { Status s = DoWork(); (void)s; }\n")
                  .empty());
}

// ------------------------------------------------ checks: atomic family

TEST(AtomicComment, RequiresInvariantCommentOnFields) {
  auto fs = Lint("src/x/s.h",
                "#include <atomic>\n"
                "struct S { std::atomic<int> hot_{0}; };\n");
  EXPECT_EQ(Checks(fs), std::vector<std::string>{"atomic-comment"});
}

TEST(AtomicComment, GroupCommentCoversContiguousRun) {
  EXPECT_TRUE(Lint("src/x/s.h",
                  "#include <atomic>\n"
                  "struct S {\n"
                  "  // relaxed: independent monotonic stat counters.\n"
                  "  std::atomic<int> a_{0};\n"
                  "  std::atomic<int> b_{0};\n"
                  "};\n")
                  .empty());
}

TEST(AtomicComment, SkipsTestAndBenchTrees) {
  const std::string src =
      "#include <atomic>\nstruct S { std::atomic<int> hot_{0}; };\n";
  EXPECT_TRUE(Lint("tests/s_test.cc", src).empty());
  EXPECT_TRUE(Lint("bench/s_bench.cc", src).empty());
}

TEST(AtomicRelaxed, AnnotatedDeclJustifiesUses) {
  // Uses of a field whose declaration documents the ordering are fine;
  // the same op on an undocumented cell is not.
  const std::string good =
      "#include <atomic>\n"
      "struct S {\n"
      "  // relaxed: stat counter, only atomicity matters.\n"
      "  std::atomic<int> n_{0};\n"
      "  int Get() { return n_.load(std::memory_order_relaxed); }\n"
      "};\n";
  EXPECT_TRUE(Lint("src/x/s.h", good).empty());
  const std::string bad =
      "#include <atomic>\n"
      "std::atomic<int>* Cell();\n"
      "int Get() { return Cell()->load(std::memory_order_relaxed); }\n";
  EXPECT_EQ(Checks(Lint("src/x/s.cc", bad)),
            std::vector<std::string>{"atomic-relaxed"});
}

TEST(AtomicRelaxed, AdjacentCommentJustifies) {
  EXPECT_TRUE(Lint("src/x/s.cc",
                  "#include <atomic>\n"
                  "std::atomic<int>* Cell();\n"
                  "int Get() {\n"
                  "  // relaxed: advisory read; the CAS below re-checks.\n"
                  "  return Cell()->load(std::memory_order_relaxed);\n"
                  "}\n")
                  .empty());
}

// ------------------------------------------------- check: callback-lock

TEST(CallbackLock, FlagsStoredCallbackInvokedUnderGuard) {
  auto fs = Lint("a.cc",
                "#include <functional>\n"
                "struct Mutex {};\n"
                "struct MutexLock { explicit MutexLock(Mutex& m); };\n"
                "struct S {\n"
                "  Mutex mu_;\n"
                "  std::function<void()> on_event_;\n"
                "  void Fire() {\n"
                "    MutexLock g(mu_);\n"
                "    on_event_();\n"
                "  }\n"
                "  void Ok() { on_event_(); }\n"
                "};\n");
  EXPECT_EQ(Checks(fs), std::vector<std::string>{"callback-lock"});
  EXPECT_EQ(fs[0].line, 9);
}

TEST(CallbackLock, TracksAliasedCallbackTypes) {
  auto fs = Lint("a.cc",
                "#include <functional>\n"
                "using DoneFn = std::function<void(int)>;\n"
                "struct Mutex {};\n"
                "struct MutexLock { explicit MutexLock(Mutex& m); };\n"
                "struct S {\n"
                "  Mutex mu_;\n"
                "  DoneFn done_;\n"
                "  void Fire() {\n"
                "    MutexLock g(mu_);\n"
                "    done_(1);\n"
                "  }\n"
                "};\n");
  EXPECT_TRUE(Has(fs, "callback-lock"));
}

// ------------------------------------------------------ escape hatches

TEST(Markers, LineAndBlockAboveAndFileScope) {
  const std::string line_marker =
      "#include <mutex>\n"
      "std::mutex mu;  // dprlint: allowed(sync-prim) interop with libfoo.\n";
  EXPECT_TRUE(Lint("a.cc", line_marker).empty());

  const std::string block_above =
      "#include <mutex>\n"
      "// dprlint: allowed(sync-prim) interop with libfoo; it hands us\n"
      "// a std::mutex to lock around its callbacks.\n"
      "std::mutex mu;\n";
  EXPECT_TRUE(Lint("a.cc", block_above).empty());

  const std::string file_scope =
      "// dprlint: allowed-file(sync-prim) FFI shim file, raw types only.\n"
      "#include <mutex>\n"
      "std::mutex a;\nstd::mutex b;\n";
  EXPECT_TRUE(Lint("a.cc", file_scope).empty());
}

TEST(Markers, SuppressOnlyTheNamedCheck) {
  // A sync-prim marker does not suppress the device-shim finding there.
  auto fs = Lint("a.cc",
                "void F(D* d) {\n"
                "  // dprlint: allowed(sync-prim) wrong id for this line.\n"
                "  d->WriteAt(0, \"x\", 1);\n"
                "}\n");
  EXPECT_TRUE(Has(fs, "device-shim"));
}

TEST(Markers, BadMarkersAreThemselvesFindings) {
  EXPECT_EQ(Checks(Lint("a.cc", "// dprlint: allowed(nope) why\nint x;\n")),
            std::vector<std::string>{"allow-syntax"});
  EXPECT_EQ(
      Checks(Lint("a.cc", "// dprlint: allowed(sync-prim)\nint x;\n")),
      std::vector<std::string>{"allow-syntax"});
}

// ---------------------------------------------------------- output shape

TEST(Output, JsonIsStableAndEscaped) {
  auto fs = Lint("a.cc", "#include <mutex>\nstd::mutex mu;\n");
  ASSERT_EQ(fs.size(), 1u);
  const std::string json = ToJson(fs);
  EXPECT_NE(json.find("\"check\":\"sync-prim\""), std::string::npos);
  EXPECT_NE(json.find("\"file\":\"a.cc\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":2"), std::string::npos);
}

TEST(Output, RegistryListsEveryReportableCheck) {
  std::vector<std::string> ids;
  for (const CheckInfo& c : Registry()) ids.push_back(c.id);
  for (const char* id :
       {"sync-prim", "net-raw-write", "storage-raw-io", "fsync-bypass",
        "device-shim",
        "ckpt-interval", "lock-blocking", "status-discard", "atomic-comment",
        "atomic-relaxed", "callback-lock", "allow-syntax"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

}  // namespace
}  // namespace dprlint
