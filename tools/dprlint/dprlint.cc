#include "dprlint.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "lexer.h"

namespace dprlint {
namespace {

// ---------------------------------------------------------------- registry

const std::vector<CheckInfo> kRegistry = {
    {"sync-prim",
     "naked std sync primitive outside common/sync.h; use the annotated, "
     "rank-checked dpr:: wrappers"},
    {"net-raw-write",
     "raw send(2)/write(2)/writev(2)/pwrite(2) under net/; queue frame bytes "
     "on a connection and let IoLoop::Send flush them (the epoll adapter's "
     "TrySend in net/event_loop.cc is the one sanctioned sendmsg)"},
    {"storage-raw-io",
     "raw block I/O syscall outside src/storage/; submit through the "
     "Device/IoEngine API"},
    {"fsync-bypass",
     "direct Device::SubmitFsync call outside src/storage/; durability "
     "points call SyncIo::Fsync, which is group commit"},
    {"device-shim",
     "retired blocking Device member shim (.WriteAt/.ReadAt); use "
     "SyncIo::Write/Read or the async Submit* API"},
    {"ckpt-interval",
     "fixed-interval checkpoint timer loop; run checkpoints from the "
     "CkptLoop tick loop (src/ckpt/)"},
    {"lock-blocking",
     "blocking call (SyncIo::*, SleepMicros, sleep_for, CondVar wait on a "
     "different mutex, Executor::Submit) while a lock guard is live"},
    {"status-discard",
     "result of a Status/StatusOr-returning call is silently discarded"},
    {"atomic-comment",
     "std::atomic field declaration without the one-line memory-order "
     "invariant comment"},
    {"atomic-relaxed",
     "memory_order_relaxed outside src/obs/ without an adjacent relaxed-"
     "justification comment or an annotated atomic field"},
    {"callback-lock",
     "stored std::function/callback invoked while a lock guard is live; "
     "copy it out and invoke after unlock"},
    {"allow-syntax",
     "malformed dprlint marker: unknown check ID or missing justification"},
};

bool KnownCheck(const std::string& id) {
  for (const auto& c : kRegistry) {
    if (id == c.id) return true;
  }
  return false;
}

// ---------------------------------------------------------------- paths

std::string NormalizePath(std::string p) {
  for (char& c : p) {
    if (c == '\\') c = '/';
  }
  return p;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `seg` appears as a whole directory segment of `path`
/// ("src/net/tcp.cc" has segment "net"; "internet/x.cc" does not).
bool HasSegment(const std::string& path, const std::string& seg) {
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    if (path.compare(pos, next - pos, seg) == 0 && next != path.size()) {
      return true;  // directory segments only, not the basename
    }
    pos = next + 1;
  }
  return false;
}

// ---------------------------------------------------------------- contexts

struct AllowMarker {
  std::string id;
  bool file_scope = false;
  bool known_id = false;
  bool has_why = false;
  int line = 0;
};

struct FileCtx {
  std::string path;  // normalized
  LexedSource lex;
  std::vector<Token> code;  // token stream minus preprocessor lines
  std::vector<AllowMarker> markers;
  std::set<std::string> file_allows;
  std::map<int, std::vector<size_t>> markers_by_line;  // into `markers`
};

/// Cross-file facts gathered in the harvest pass, before any check runs.
struct GlobalCtx {
  // status-discard: function names declared with a Status/StatusOr return
  // anywhere in the scan set, and names that are ambiguous because some
  // other declaration with the same name returns something else.
  std::set<std::string> status_bare;
  std::set<std::string> status_qual;  // "Class::Name"
  std::set<std::string> ambiguous_bare;
  // atomic-relaxed: atomic field name -> declaration carries the invariant
  // comment (true if any declaration of that name does).
  std::map<std::string, bool> atomic_fields;
  // callback-lock: type aliases of std::function, and names of fields /
  // parameters declared with a callback type.
  std::set<std::string> callback_aliases;
  std::set<std::string> callback_names;
};

const Token* Tok(const FileCtx& f, size_t i) {
  return i < f.code.size() ? &f.code[i] : nullptr;
}

bool IsIdent(const Token* t, const char* text = nullptr) {
  return t && t->kind == Token::Kind::kIdent && (!text || t->text == text);
}

bool IsPunct(const Token* t, const char* text) {
  return t && t->kind == Token::Kind::kPunct && t->text == text;
}

/// Skips a balanced (...) group; `i` points at the opener. Returns the index
/// one past the matching closer (or end of stream on malformed input).
size_t SkipParens(const FileCtx& f, size_t i) {
  int depth = 0;
  for (; i < f.code.size(); ++i) {
    if (IsPunct(&f.code[i], "(")) ++depth;
    if (IsPunct(&f.code[i], ")")) {
      if (--depth == 0) return i + 1;
    }
  }
  return i;
}

/// Skips balanced template angles; `i` points at "<". Counts ">>" as two
/// closers. Gives up (returns npos) at ";" — not a template argument list.
size_t SkipAngles(const FileCtx& f, size_t i) {
  int depth = 0;
  for (; i < f.code.size(); ++i) {
    const std::string& t = f.code[i].text;
    if (f.code[i].kind == Token::Kind::kPunct) {
      if (t == "<") ++depth;
      if (t == ">") {
        if (--depth == 0) return i + 1;
      }
      if (t == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      }
      if (t == ";" || t == "{" || t == "}") return std::string::npos;
    }
  }
  return std::string::npos;
}

/// Joins token spellings from [begin, end) with no separators: the first
/// constructor argument of `MutexLock g(worker->mu_)` reads back as
/// "worker->mu_" for exact comparison against CondVar wait arguments.
std::string JoinTokens(const FileCtx& f, size_t begin, size_t end) {
  std::string out;
  for (size_t i = begin; i < end && i < f.code.size(); ++i) {
    out += f.code[i].text;
  }
  return out;
}

/// First top-level argument of the call whose "(" is at `open`: token span
/// [open+1, stop) where stop is the first "," or the matching ")".
std::string FirstArg(const FileCtx& f, size_t open) {
  int depth = 0;
  for (size_t i = open; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "(") ++depth;
    if (t.text == ")") {
      if (--depth == 0) return JoinTokens(f, open + 1, i);
    }
    if (t.text == "," && depth == 1) return JoinTokens(f, open + 1, i);
  }
  return "";
}

// ---------------------------------------------------------------- markers

void ParseMarkers(FileCtx* f) {
  const std::string kTag = "dprlint:";
  for (int line = 1; line < static_cast<int>(f->lex.comments_by_line.size());
       ++line) {
    const std::string& text = f->lex.comments_by_line[line];
    size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string::npos) {
      size_t p = pos + kTag.size();
      pos = p;
      while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p])))
        ++p;
      bool file_scope = false;
      if (text.compare(p, 13, "allowed-file(") == 0) {
        file_scope = true;
        p += 13;
      } else if (text.compare(p, 8, "allowed(") == 0) {
        p += 8;
      } else {
        continue;  // prose mentioning "dprlint:" is not a marker
      }
      size_t close = text.find(')', p);
      AllowMarker m;
      m.line = line;
      m.file_scope = file_scope;
      if (close == std::string::npos) {
        m.id = text.substr(p);
      } else {
        m.id = text.substr(p, close - p);
        // Justification: everything after the close paren up to the next
        // marker; must contain at least one word.
        size_t why_end = text.find(kTag, close);
        std::string why = text.substr(
            close + 1, why_end == std::string::npos ? std::string::npos
                                                    : why_end - close - 1);
        for (char c : why) {
          if (std::isalnum(static_cast<unsigned char>(c))) {
            m.has_why = true;
            break;
          }
        }
      }
      m.known_id = KnownCheck(m.id);
      f->markers_by_line[line].push_back(f->markers.size());
      if (m.file_scope && m.known_id && m.has_why) f->file_allows.insert(m.id);
      f->markers.push_back(std::move(m));
    }
  }
}

bool LineAllows(const FileCtx& f, const std::string& check, int line) {
  auto it = f.markers_by_line.find(line);
  if (it == f.markers_by_line.end()) return false;
  for (size_t idx : it->second) {
    const AllowMarker& m = f.markers[idx];
    if (m.known_id && m.has_why && m.id == check) return true;
  }
  return false;
}

/// Uniform suppression semantics for every check: file-scope marker, marker
/// on the finding's line, or marker anywhere in the contiguous run of
/// comment-only lines immediately above it. (This is the documented fix for
/// the old awk lints' asymmetry, where only `prev` — exactly one line up —
/// was honored and only the storage lint understood file scope.)
bool Suppressed(const FileCtx& f, const std::string& check, int line) {
  if (f.file_allows.count(check)) return true;
  if (LineAllows(f, check, line)) return true;
  for (int l = line - 1; l >= 1; --l) {
    bool has_code = l < static_cast<int>(f.lex.line_has_code.size()) &&
                    f.lex.line_has_code[l];
    bool has_comment = l < static_cast<int>(f.lex.comments_by_line.size()) &&
                       !f.lex.comments_by_line[l].empty();
    if (has_code || !has_comment) break;  // run of comment-only lines ended
    if (LineAllows(f, check, l)) return true;
  }
  return false;
}

void Report(const FileCtx& f, std::vector<Finding>* out,
            const std::string& check, int line, int col, std::string message) {
  if (Suppressed(f, check, line)) return;
  out->push_back(Finding{check, f.path, line, col, std::move(message)});
}

// ---------------------------------------------------------------- comments

/// Concatenated comment text attached to a declaration that starts on
/// `first_line` and ends on `last_line`: comments on the declaration's own
/// lines plus the comment block immediately above it.
std::string DeclComment(const FileCtx& f, int first_line, int last_line) {
  std::string text;
  auto add = [&](int l) {
    if (l >= 1 && l < static_cast<int>(f.lex.comments_by_line.size()) &&
        !f.lex.comments_by_line[l].empty()) {
      text += f.lex.comments_by_line[l];
      text += ' ';
    }
  };
  for (int l = first_line; l <= last_line; ++l) add(l);
  for (int l = first_line - 1; l >= 1; --l) {
    bool has_code = l < static_cast<int>(f.lex.line_has_code.size()) &&
                    f.lex.line_has_code[l];
    bool has_comment = l < static_cast<int>(f.lex.comments_by_line.size()) &&
                       !f.lex.comments_by_line[l].empty();
    if (has_code || !has_comment) break;
    add(l);
  }
  return text;
}

/// The "established one-line memory-order invariant comment": the comment
/// must actually talk about ordering, not merely exist. Matches the idiom
/// already used across the tree ("relaxed: ...", "published with release;
/// ...", "seq_cst because ...").
bool IsOrderInvariantComment(const std::string& text) {
  static const char* kWords[] = {"relaxed", "acquire",  "release", "acq_rel",
                                 "seq_cst", "ordering", "ordered", "publish",
                                 "monotonic", "happens-before", "fence"};
  std::string lower;
  lower.reserve(text.size());
  for (char c : text)
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  for (const char* w : kWords) {
    if (lower.find(w) != std::string::npos) return true;
  }
  return false;
}

// ---------------------------------------------------------------- harvest

/// The atomic-invariant checks cover the protocol surface only: test and
/// bench code is full of throwaway counters whose ordering never crosses a
/// correctness boundary, and requiring invariant comments there would bury
/// the real findings in noise.
bool AtomicChecksApply(const FileCtx& f) {
  return !HasSegment(f.path, "tests") && !HasSegment(f.path, "bench") &&
         !HasSegment(f.path, "examples");
}

bool IsTypeContext(const FileCtx& f, size_t i) {
  // Token before position i (the start of a type spelling): a type that
  // opens a declaration is not preceded by "(", "," or "<" (those are
  // parameter and template-argument contexts).
  if (i == 0) return true;
  const Token& p = f.code[i - 1];
  if (p.kind != Token::Kind::kPunct) return true;
  return p.text != "(" && p.text != "," && p.text != "<";
}

const std::set<std::string>& TypePrefixKeywords() {
  static const std::set<std::string> kw = {
      "const",    "static",   "inline",  "virtual", "explicit", "constexpr",
      "extern",   "friend",   "mutable", "typename", "unsigned", "signed",
      "long",     "short",    "struct",  "class",   "enum",     "return",
      "new",      "delete",   "throw",   "case",    "else",     "do",
      "goto",     "using",    "typedef", "operator", "sizeof",  "alignof",
      "co_return", "co_await", "co_yield", "if",    "while",    "for",
      "switch",   "public",   "private", "protected", "template", "noexcept",
      "override", "final",    "auto",    "decltype"};
  return kw;
}

void HarvestStatusFuncs(const FileCtx& f, GlobalCtx* g) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (t.text == "Status" || t.text == "StatusOr") {
      if (!IsTypeContext(f, i)) continue;
      size_t j = i + 1;
      if (t.text == "StatusOr") {
        if (!IsPunct(Tok(f, j), "<")) continue;
        j = SkipAngles(f, j);
        if (j == std::string::npos) continue;
      }
      while (IsPunct(Tok(f, j), "*") || IsPunct(Tok(f, j), "&") ||
             IsPunct(Tok(f, j), "&&"))
        ++j;
      // Declarator chain: Name, or Class::Name (member definition).
      if (!IsIdent(Tok(f, j))) continue;
      std::string qual, name = Tok(f, j)->text;
      ++j;
      while (IsPunct(Tok(f, j), "::") && IsIdent(Tok(f, j + 1))) {
        qual = name;
        name = Tok(f, j + 1)->text;
        j += 2;
      }
      if (!IsPunct(Tok(f, j), "(")) continue;
      if (TypePrefixKeywords().count(name)) continue;
      g->status_bare.insert(name);
      if (!qual.empty()) g->status_qual.insert(qual + "::" + name);
    } else {
      // Ambiguity scan: `<other-type> <name> (` — two consecutive
      // identifiers followed by "(" is (almost) always a declaration, so a
      // name also declared with a non-Status return is never flagged on
      // bare-name evidence alone.
      const Token* n = Tok(f, i + 1);
      const Token* paren = Tok(f, i + 2);
      if (!IsIdent(n) || !IsPunct(paren, "(")) continue;
      if (TypePrefixKeywords().count(t.text)) continue;
      if (TypePrefixKeywords().count(n->text)) continue;
      if (!IsTypeContext(f, i)) continue;
      if (i > 0 && (IsPunct(&f.code[i - 1], ".") ||
                    IsPunct(&f.code[i - 1], "->")))
        continue;
      g->ambiguous_bare.insert(n->text);
    }
  }
}

void HarvestCallbackAliases(const FileCtx& f, GlobalCtx* g) {
  // using Alias = std::function<...>;   (typedef spelling is not used here)
  for (size_t i = 0; i + 5 < f.code.size(); ++i) {
    if (IsIdent(&f.code[i], "using") && IsIdent(Tok(f, i + 1)) &&
        IsPunct(Tok(f, i + 2), "=") && IsIdent(Tok(f, i + 3), "std") &&
        IsPunct(Tok(f, i + 4), "::") && IsIdent(Tok(f, i + 5), "function")) {
      g->callback_aliases.insert(f.code[i + 1].text);
    }
  }
}

void HarvestCallbackNames(const FileCtx& f, GlobalCtx* g) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    size_t j = std::string::npos;  // index after the callback type spelling
    if (IsIdent(&f.code[i], "std") && IsPunct(Tok(f, i + 1), "::") &&
        IsIdent(Tok(f, i + 2), "function") && IsPunct(Tok(f, i + 3), "<")) {
      if (!IsTypeContext(f, i)) {
        // Parameters of callback type count too: a lock-held invocation of
        // a callback argument is just as much a re-entrancy hazard.
      }
      j = SkipAngles(f, i + 3);
    } else if (f.code[i].kind == Token::Kind::kIdent &&
               g->callback_aliases.count(f.code[i].text)) {
      j = i + 1;
    }
    if (j == std::string::npos || j >= f.code.size()) continue;
    while (IsPunct(Tok(f, j), "&") || IsPunct(Tok(f, j), "*") ||
           IsPunct(Tok(f, j), "&&") || IsIdent(Tok(f, j), "const"))
      ++j;
    if (!IsIdent(Tok(f, j))) continue;
    const Token* after = Tok(f, j + 1);
    if (!after) continue;
    bool decl_end =
        (after->kind == Token::Kind::kPunct &&
         (after->text == ";" || after->text == "," || after->text == ")" ||
          after->text == "=" || after->text == "{")) ||
        after->kind == Token::Kind::kIdent;  // trailing macro (GUARDED_BY...)
    if (decl_end) g->callback_names.insert(f.code[j].text);
  }
}

void HarvestAtomicFields(const FileCtx& f, GlobalCtx* g,
                         std::vector<Finding>* findings, bool report) {
  // A contiguous run of atomic field declarations shares the invariant
  // comment written above the first one (the repo idiom for groups of stat
  // counters); track the previous declaration to implement the inheritance.
  int prev_last_line = -2;
  bool prev_has = false;
  for (size_t i = 0; i + 3 < f.code.size(); ++i) {
    if (!IsIdent(&f.code[i], "std") || !IsPunct(Tok(f, i + 1), "::") ||
        !IsIdent(Tok(f, i + 2), "atomic") || !IsPunct(Tok(f, i + 3), "<"))
      continue;
    if (!IsTypeContext(f, i)) continue;  // template arg or parameter type
    size_t j = SkipAngles(f, i + 3);
    if (j == std::string::npos || !IsIdent(Tok(f, j))) continue;
    const std::string& name = Tok(f, j)->text;
    const Token* after = Tok(f, j + 1);
    if (!after) continue;
    bool is_decl =
        (after->kind == Token::Kind::kPunct &&
         (after->text == ";" || after->text == "{" || after->text == "=" ||
          after->text == "," || after->text == "[")) ||
        after->kind == Token::Kind::kIdent;  // trailing macro
    if (!is_decl) continue;  // e.g. a function returning std::atomic<T>
    // Declaration line span: from the "std" token to the terminating ";".
    int first_line = f.code[i].line;
    int last_line = first_line;
    for (size_t k = j; k < f.code.size(); ++k) {
      last_line = f.code[k].line;
      if (IsPunct(&f.code[k], ";")) break;
    }
    bool has = IsOrderInvariantComment(DeclComment(f, first_line, last_line));
    if (!has && first_line == prev_last_line + 1 && prev_has) has = true;
    prev_last_line = last_line;
    prev_has = has;
    auto it = g->atomic_fields.find(name);
    if (it == g->atomic_fields.end()) {
      g->atomic_fields.emplace(name, has);
    } else {
      it->second = it->second || has;
    }
    if (report && AtomicChecksApply(f) && !has) {
      Report(f, findings, "atomic-comment", first_line, f.code[i].col,
             "std::atomic field '" + name +
                 "' lacks the one-line memory-order invariant comment "
                 "(say which orders its operations use and why they suffice)");
    }
  }
}

// ---------------------------------------------------------------- checks

void CheckSyncPrim(const FileCtx& f, std::vector<Finding>* out) {
  if (EndsWith(f.path, "common/sync.h")) return;  // the one allowed wrapper
  static const std::set<std::string> kPrims = {
      "mutex",          "shared_mutex",       "recursive_mutex",
      "timed_mutex",    "recursive_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",     "unique_lock",        "shared_lock",
      "scoped_lock"};
  for (size_t i = 0; i + 2 < f.code.size(); ++i) {
    if (IsIdent(&f.code[i], "std") && IsPunct(Tok(f, i + 1), "::") &&
        IsIdent(Tok(f, i + 2)) && kPrims.count(f.code[i + 2].text)) {
      Report(f, out, "sync-prim", f.code[i].line, f.code[i].col,
             "naked std::" + f.code[i + 2].text +
                 "; use dpr::Mutex/SharedMutex/CondVar from common/sync.h");
    }
  }
}

void CheckRawCalls(const FileCtx& f, std::vector<Finding>* out) {
  const bool in_net = HasSegment(f.path, "net");
  const bool in_storage = HasSegment(f.path, "storage");
  // sendmsg covers the vectored-flush syscall the epoll adapter issues;
  // io_uring_enter covers hand-rolled ring submission that would bypass
  // UringRing's batching counters (sqe_batches) and EINTR/EBUSY retry
  // policy. Sanctioned helpers carry `dprlint: allowed(net-raw-write)`.
  static const std::set<std::string> kNet = {"send",   "write",  "writev",
                                             "pwrite", "sendmsg",
                                             "io_uring_enter"};
  static const std::set<std::string> kStorage = {"pwrite", "pread", "pwritev",
                                                 "preadv", "fsync",
                                                 "fdatasync"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind != Token::Kind::kIdent) continue;
    if (!IsPunct(Tok(f, i + 1), "(")) continue;
    if (i > 0) {
      const Token& p = f.code[i - 1];
      if (p.kind == Token::Kind::kPunct &&
          (p.text == "." || p.text == "->" || p.text == "::"))
        continue;  // member or qualified call, not the libc symbol
    }
    if (in_net && kNet.count(t.text)) {
      Report(f, out, "net-raw-write", t.line, t.col,
             "raw " + t.text +
                 "(2) under net/ bypasses the connection flush path "
                 "(coalescing metrics + torn-frame accounting)");
    }
    if (!in_storage && kStorage.count(t.text)) {
      Report(f, out, "storage-raw-io", t.line, t.col,
             "raw " + t.text +
                 "(2) outside storage/ bypasses the IoEngine (submission "
                 "metrics, fault probes) and SyncIo::Fsync's group commit");
    }
  }
}

void CheckFsyncBypass(const FileCtx& f, std::vector<Finding>* out) {
  if (HasSegment(f.path, "storage")) return;  // devices and SyncIo itself
  for (size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (!IsIdent(&t, "SubmitFsync") || !IsPunct(Tok(f, i + 1), "(")) continue;
    // A declaration or out-of-line definition follows a type or `::`; a
    // call follows `.`/`->`, `return`, or other punctuation.
    if (i > 0) {
      const Token& p = f.code[i - 1];
      if (IsPunct(&p, "::")) continue;
      if (p.kind == Token::Kind::kIdent && p.text != "return") continue;
    }
    Report(f, out, "fsync-bypass", t.line, t.col,
           "direct SubmitFsync call bypasses group commit; durability "
           "points call SyncIo::Fsync");
  }
}

void CheckDeviceShim(const FileCtx& f, std::vector<Finding>* out) {
  for (size_t i = 1; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind != Token::Kind::kIdent ||
        (t.text != "WriteAt" && t.text != "ReadAt"))
      continue;
    const Token& p = f.code[i - 1];
    if (p.kind != Token::Kind::kPunct || (p.text != "." && p.text != "->"))
      continue;
    if (!IsPunct(Tok(f, i + 1), "(")) continue;
    Report(f, out, "device-shim", t.line, t.col,
           "blocking Device::" + t.text +
               " shim is retired; use SyncIo::Write/Read or SubmitWrite/"
               "SubmitRead");
  }
}

void CheckCkptInterval(const FileCtx& f, std::vector<Finding>* out) {
  if (HasSegment(f.path, "ckpt")) return;  // the tick loop itself
  if (!EndsWith(f.path, ".cc")) return;
  // Only files that drive checkpoints can host a rogue timer loop.
  bool drives = false;
  for (size_t i = 0; i + 1 < f.code.size(); ++i) {
    if (IsIdent(&f.code[i]) &&
        (f.code[i].text == "PerformCheckpoint" ||
         f.code[i].text == "TryCommit") &&
        IsPunct(Tok(f, i + 1), "(")) {
      drives = true;
      break;
    }
  }
  if (!drives) return;
  static const std::set<std::string> kSleeps = {"SleepMicros", "SleepFor",
                                                "sleep_for", "WaitFor"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (!IsIdent(&f.code[i]) || !kSleeps.count(f.code[i].text)) continue;
    if (!IsPunct(Tok(f, i + 1), "(")) continue;
    // The whole statement (back to the previous ;/{/} and forward to the
    // next ;) must mention a checkpoint_interval expression — this is the
    // scope upgrade over the old same-line awk match.
    size_t begin = i;
    while (begin > 0) {
      const Token& b = f.code[begin - 1];
      if (b.kind == Token::Kind::kPunct &&
          (b.text == ";" || b.text == "{" || b.text == "}"))
        break;
      --begin;
    }
    size_t end = i;
    while (end < f.code.size() && !IsPunct(&f.code[end], ";")) ++end;
    bool mentions_interval = false;
    for (size_t k = begin; k < end; ++k) {
      if (f.code[k].kind == Token::Kind::kIdent &&
          f.code[k].text.find("checkpoint_interval") != std::string::npos) {
        mentions_interval = true;
        break;
      }
    }
    if (mentions_interval) {
      Report(f, out, "ckpt-interval", f.code[i].line, f.code[i].col,
             "fixed checkpoint_interval sleep in a checkpoint-driving file; "
             "cadence belongs to CkptLoop's controller");
    }
  }
}

void CheckAtomicRelaxed(const FileCtx& f, const GlobalCtx& g,
                        std::vector<Finding>* out) {
  if (HasSegment(f.path, "obs")) return;  // metrics plane is all-relaxed
  if (!AtomicChecksApply(f)) return;
  static const std::set<std::string> kAtomicOps = {
      "load",          "store",         "exchange",
      "fetch_add",     "fetch_sub",     "fetch_or",
      "fetch_and",     "fetch_xor",     "compare_exchange_weak",
      "compare_exchange_strong", "test_and_set", "clear"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (!IsIdent(&f.code[i], "memory_order_relaxed")) continue;
    int line = f.code[i].line;
    // Adjacent justification: a comment mentioning "relaxed" on the line or
    // within the three lines above it.
    bool justified = false;
    for (int l = line; l >= line - 3 && l >= 1; --l) {
      if (l < static_cast<int>(f.lex.comments_by_line.size())) {
        std::string lower;
        for (char c : f.lex.comments_by_line[l])
          lower +=
              static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        if (lower.find("relaxed") != std::string::npos) {
          justified = true;
          break;
        }
      }
    }
    // Or: the operand is an atomic field whose declaration carries the
    // invariant comment — the justification lives at the declaration and
    // uses inherit it.
    if (!justified) {
      int depth = 0;
      for (size_t k = i; k-- > 0;) {
        const Token& t = f.code[k];
        if (t.kind != Token::Kind::kPunct) continue;
        if (t.text == ")") ++depth;
        if (t.text == "(") {
          if (depth == 0) {
            if (k >= 3 && IsIdent(&f.code[k - 1]) &&
                kAtomicOps.count(f.code[k - 1].text) &&
                (IsPunct(&f.code[k - 2], ".") ||
                 IsPunct(&f.code[k - 2], "->")) &&
                IsIdent(&f.code[k - 3])) {
              auto it = g.atomic_fields.find(f.code[k - 3].text);
              justified = it != g.atomic_fields.end() && it->second;
            }
            break;
          }
          --depth;
        }
      }
    }
    if (!justified) {
      Report(f, out, "atomic-relaxed", line, f.code[i].col,
             "memory_order_relaxed without an adjacent justification comment "
             "or an invariant-annotated atomic field");
    }
  }
}

// --- lock-scope machinery (lock-blocking + callback-lock) -------------------

void CheckLockScopes(const FileCtx& f, const GlobalCtx& g,
                     std::vector<Finding>* out) {
  struct Guard {
    int depth;
    std::string mutex;
    std::string type;
    int line;
  };
  std::vector<Guard> guards;
  std::vector<int> lambda_barriers;  // brace depth of each live lambda body
  std::set<size_t> lambda_bodies;    // token indexes of "{" starting a body
  int depth = 0;

  // Pre-scan for lambda bodies so the main walk can mark barriers: a "[" in
  // expression position introduces a lambda; its body brace severs guard
  // visibility (the body runs later, without the lock).
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (!IsPunct(&f.code[i], "[")) continue;
    bool expr_pos = false;
    if (i > 0) {
      const Token& p = f.code[i - 1];
      expr_pos = (p.kind == Token::Kind::kPunct &&
                  (p.text == "(" || p.text == "," || p.text == "=" ||
                   p.text == "{" || p.text == "&&" || p.text == "||")) ||
                 IsIdent(&p, "return");
    }
    if (!expr_pos) continue;
    int bdepth = 0;
    size_t j = i;
    for (; j < f.code.size(); ++j) {
      if (IsPunct(&f.code[j], "[")) ++bdepth;
      if (IsPunct(&f.code[j], "]")) {
        if (--bdepth == 0) break;
      }
    }
    if (j >= f.code.size()) continue;
    ++j;
    if (IsPunct(Tok(f, j), "(")) j = SkipParens(f, j);
    // Skip specifiers (mutable/noexcept/-> ret) within a short window.
    for (int hops = 0; hops < 10 && j < f.code.size(); ++hops, ++j) {
      const Token& t = f.code[j];
      if (IsPunct(&t, "{")) {
        lambda_bodies.insert(j);
        break;
      }
      if (t.kind == Token::Kind::kPunct &&
          (t.text == ";" || t.text == ")" || t.text == ","))
        break;  // not a lambda after all (array subscript etc.)
    }
  }

  auto live_guards = [&]() {
    std::vector<const Guard*> live;
    int barrier = lambda_barriers.empty() ? 0 : lambda_barriers.back();
    for (const Guard& gd : guards) {
      if (gd.depth >= barrier) live.push_back(&gd);
    }
    return live;
  };

  for (size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (IsPunct(&t, "{")) {
      ++depth;
      if (lambda_bodies.count(i)) lambda_barriers.push_back(depth);
      continue;
    }
    if (IsPunct(&t, "}")) {
      while (!guards.empty() && guards.back().depth >= depth) guards.pop_back();
      while (!lambda_barriers.empty() && lambda_barriers.back() >= depth)
        lambda_barriers.pop_back();
      --depth;
      continue;
    }
    if (t.kind != Token::Kind::kIdent) continue;

    // Guard declaration: [dpr::] MutexLock|ReaderMutexLock|WriterMutexLock
    // <name> ( <mutex-expr> ...
    if (t.text == "MutexLock" || t.text == "ReaderMutexLock" ||
        t.text == "WriterMutexLock") {
      bool qualified_other = false;
      if (i > 0 && IsPunct(&f.code[i - 1], "::")) {
        qualified_other = !(i >= 2 && IsIdent(&f.code[i - 2], "dpr"));
      }
      if (i > 0 && (IsPunct(&f.code[i - 1], ".") ||
                    IsPunct(&f.code[i - 1], "->")))
        qualified_other = true;
      const Token* name = Tok(f, i + 1);
      const Token* paren = Tok(f, i + 2);
      if (!qualified_other && IsIdent(name) && IsPunct(paren, "(")) {
        guards.push_back(
            Guard{depth, FirstArg(f, i + 2), t.text, t.line});
        continue;
      }
    }

    auto live = live_guards();
    if (live.empty()) continue;
    const Guard* inner = live.back();
    const std::string held = "'" + inner->mutex + "' (guard at line " +
                             std::to_string(inner->line) + ")";

    const Token* prev = i > 0 ? &f.code[i - 1] : nullptr;
    bool member = prev && prev->kind == Token::Kind::kPunct &&
                  (prev->text == "." || prev->text == "->");

    // SyncIo::* — the explicit blocking rendezvous; never under a lock.
    if (t.text == "SyncIo" && IsPunct(Tok(f, i + 1), "::") &&
        IsIdent(Tok(f, i + 2)) && IsPunct(Tok(f, i + 3), "(")) {
      Report(f, out, "lock-blocking", t.line, t.col,
             "SyncIo::" + f.code[i + 2].text + " while holding " + held);
      continue;
    }
    if (!IsPunct(Tok(f, i + 1), "(")) continue;

    if ((t.text == "SleepMicros" && !member) || t.text == "sleep_for") {
      Report(f, out, "lock-blocking", t.line, t.col,
             t.text + " while holding " + held);
      continue;
    }
    // CondVar wait: blocking on a mutex other than one of the held guards'
    // means some OTHER lock stays held across the wait.
    if (member && (t.text == "Wait" || t.text == "WaitFor")) {
      std::string arg = FirstArg(f, i + 1);
      if (!arg.empty()) {
        for (const Guard* gd : live) {
          if (gd->mutex != arg) {
            Report(f, out, "lock-blocking", t.line, t.col,
                   t.text + "(" + arg + ") while also holding '" + gd->mutex +
                       "' (guard at line " + std::to_string(gd->line) + ")");
            break;
          }
        }
      }
      continue;
    }
    // Executor::Submit blocks on the bounded queue when it is full.
    if (member && t.text == "Submit") {
      Report(f, out, "lock-blocking", t.line, t.col,
             "Submit (bounded executor, may block) while holding " + held);
      continue;
    }
    // Stored callback invoked under the lock: re-entrancy + latency hazard.
    if (!member && g.callback_names.count(t.text) &&
        !(prev && prev->kind == Token::Kind::kPunct && prev->text == "::") &&
        !(prev && prev->kind == Token::Kind::kIdent)) {
      Report(f, out, "callback-lock", t.line, t.col,
             "stored callback '" + t.text + "' invoked while holding " + held);
      continue;
    }
    if (member && g.callback_names.count(t.text)) {
      Report(f, out, "callback-lock", t.line, t.col,
             "stored callback '" + t.text + "' invoked while holding " + held);
      continue;
    }
  }
}

// --- status-discard ---------------------------------------------------------

void EvalCallStatement(const FileCtx& f, const GlobalCtx& g, size_t p,
                       size_t semi, std::vector<Finding>* out);

void CheckStatusDiscard(const FileCtx& f, const GlobalCtx& g,
                        std::vector<Finding>* out) {
  // Statement segmentation: runs between ;/{/} boundaries, with ";" only
  // counting at parenthesis depth 0 (for-headers don't split).
  size_t start = 0;
  int paren = 0;
  for (size_t i = 0; i < f.code.size(); ++i) {
    const Token& t = f.code[i];
    if (t.kind == Token::Kind::kPunct) {
      if (t.text == "(") ++paren;
      if (t.text == ")" && paren > 0) --paren;
      if (t.text == "{" || t.text == "}") {
        start = i + 1;
        paren = 0;
        continue;
      }
      if (t.text == ";" && paren == 0) {
        if (i > start) {
          // Evaluate [start, i] as a candidate expression statement.
          size_t p = start;
          // Strip single-statement control prefixes: if (...) Foo();
          while (p < i) {
            const Token& h = f.code[p];
            if (IsIdent(&h, "if") || IsIdent(&h, "while") ||
                IsIdent(&h, "for") || IsIdent(&h, "switch")) {
              ++p;
              if (IsPunct(Tok(f, p), "(")) p = SkipParens(f, p);
              continue;
            }
            if (IsIdent(&h, "else") || IsIdent(&h, "do")) {
              ++p;
              continue;
            }
            break;
          }
          EvalCallStatement(f, g, p, i, out);
        }
        start = i + 1;
        continue;
      }
    }
  }
}

/// [p, semi) is a statement body; flag it when it is a pure call expression
/// whose callee returns Status/StatusOr. `(void)Foo();` starts with "(" and
/// is the sanctioned explicit-discard spelling, so it never matches.
void EvalCallStatement(const FileCtx& f, const GlobalCtx& g, size_t p,
                       size_t semi, std::vector<Finding>* out) {
  if (p >= semi) return;
  static const std::set<std::string> kRefuse = {
      "return",  "co_return", "throw",   "delete",  "new",     "goto",
      "break",   "continue",  "using",   "typedef", "case",    "default",
      "static_assert", "template", "public", "private", "protected",
      "operator"};
  std::string qual, name;
  if (IsPunct(Tok(f, p), "::")) ++p;
  if (!IsIdent(Tok(f, p)) || kRefuse.count(f.code[p].text)) return;
  name = f.code[p].text;
  ++p;
  int call_line = 0, call_col = 0;
  while (p < semi) {
    // member / scope chain
    while (p < semi && (IsPunct(Tok(f, p), "::") || IsPunct(Tok(f, p), ".") ||
                        IsPunct(Tok(f, p), "->"))) {
      bool scope = f.code[p].text == "::";
      if (!IsIdent(Tok(f, p + 1))) return;
      qual = scope ? name : "";
      name = f.code[p + 1].text;
      p += 2;
    }
    // optional template arguments, only if a call follows
    if (IsPunct(Tok(f, p), "<")) {
      size_t after = SkipAngles(f, p);
      if (after == std::string::npos || !IsPunct(Tok(f, after), "("))
        return;
      p = after;
    }
    if (!IsPunct(Tok(f, p), "(")) return;
    call_line = f.code[p - 1].line;
    call_col = f.code[p - 1].col;
    p = SkipParens(f, p);
    if (p == semi) break;    // statement is exactly a call chain
    // a further member call keeps the chain going: a.b(x).c(y);
    if (!(IsPunct(Tok(f, p), ".") || IsPunct(Tok(f, p), "->"))) return;
  }
  if (p != semi) return;
  if (name.empty() || kRefuse.count(name)) return;
  bool is_status = false;
  if (!qual.empty() && g.status_qual.count(qual + "::" + name)) {
    is_status = true;
  } else if (g.status_bare.count(name) && !g.ambiguous_bare.count(name)) {
    is_status = true;
  }
  if (!is_status) return;
  Report(f, out, "status-discard", call_line, call_col,
         "result of Status-returning '" + name +
             "' is discarded; handle it, DPR_RETURN_NOT_OK it, or spell the "
             "discard (void)" + name + "(...) with a reason");
}

void CheckAllowSyntax(const FileCtx& f, std::vector<Finding>* out) {
  for (const AllowMarker& m : f.markers) {
    if (!m.known_id) {
      out->push_back(Finding{
          "allow-syntax", f.path, m.line, 1,
          "dprlint marker names unknown check '" + m.id +
              "' (see dprlint --list-checks); the marker is not honored"});
    } else if (!m.has_why) {
      out->push_back(Finding{
          "allow-syntax", f.path, m.line, 1,
          "dprlint allowed(" + m.id +
              ") marker lacks a justification; add one line on why the "
              "violation is safe — the marker is not honored without it"});
    }
  }
}

// ---------------------------------------------------------------- driver

std::vector<Finding> Analyze(std::vector<FileCtx>& files) {
  GlobalCtx g;
  std::vector<Finding> findings;
  for (FileCtx& f : files) ParseMarkers(&f);
  // Harvest pass 1: signatures, aliases, atomic declarations. Atomic
  // declarations also produce atomic-comment findings in the same sweep.
  for (FileCtx& f : files) {
    HarvestStatusFuncs(f, &g);
    HarvestCallbackAliases(f, &g);
  }
  std::vector<Finding> atomic_findings;
  for (FileCtx& f : files) {
    HarvestCallbackNames(f, &g);
    HarvestAtomicFields(f, &g, &atomic_findings, /*report=*/true);
  }
  // Check pass 2.
  for (FileCtx& f : files) {
    CheckSyncPrim(f, &findings);
    CheckRawCalls(f, &findings);
    CheckFsyncBypass(f, &findings);
    CheckDeviceShim(f, &findings);
    CheckCkptInterval(f, &findings);
    CheckLockScopes(f, g, &findings);
    CheckStatusDiscard(f, g, &findings);
    CheckAtomicRelaxed(f, g, &findings);
    CheckAllowSyntax(f, &findings);
  }
  findings.insert(findings.end(), atomic_findings.begin(),
                  atomic_findings.end());
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  return findings;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Minimal extraction of (check, file, line) triples from a --json findings
/// file; tolerant of formatting so a hand-edited baseline still loads.
std::set<std::string> LoadBaseline(const std::string& path,
                                   std::vector<std::string>* errors) {
  std::set<std::string> keys;
  std::ifstream in(path);
  if (!in) {
    errors->push_back("cannot read baseline: " + path);
    return keys;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  auto field = [&](size_t from, const char* key) -> std::string {
    size_t k = text.find(std::string("\"") + key + "\"", from);
    if (k == std::string::npos) return "";
    size_t colon = text.find(':', k);
    if (colon == std::string::npos) return "";
    size_t v = text.find_first_not_of(" \t\n", colon + 1);
    if (v == std::string::npos) return "";
    if (text[v] == '"') {
      size_t e = text.find('"', v + 1);
      return text.substr(v + 1, e - v - 1);
    }
    size_t e = text.find_first_of(",}\n", v);
    return text.substr(v, e - v);
  };
  size_t pos = 0;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    size_t end = text.find('}', pos);
    if (end == std::string::npos) break;
    std::string check = field(pos, "check");
    std::string file = field(pos, "file");
    std::string line = field(pos, "line");
    if (!check.empty() && !file.empty()) {
      keys.insert(check + "\x1f" + file + "\x1f" + line);
    }
    pos = end + 1;
  }
  return keys;
}

}  // namespace

const std::vector<CheckInfo>& Registry() { return kRegistry; }

std::vector<Finding> AnalyzeSources(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<FileCtx> ctxs;
  ctxs.reserve(files.size());
  for (const auto& [path, content] : files) {
    FileCtx ctx;
    ctx.path = NormalizePath(path);
    ctx.lex = Lex(content);
    for (const Token& t : ctx.lex.tokens) {
      if (t.kind != Token::Kind::kPreproc) ctx.code.push_back(t);
    }
    ctxs.push_back(std::move(ctx));
  }
  return Analyze(ctxs);
}

std::vector<Finding> RunOnPaths(const std::vector<std::string>& paths,
                                const std::string& baseline_path,
                                std::vector<std::string>* errors) {
  namespace fs = std::filesystem;
  std::vector<std::string> file_paths;
  auto want = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp" ||
           ext == ".cxx" || ext == ".hh";
  };
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(
               p, fs::directory_options::skip_permission_denied, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && want(it->path())) {
          file_paths.push_back(it->path().string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      file_paths.push_back(p);
    } else {
      errors->push_back("no such file or directory: " + p);
    }
  }
  std::sort(file_paths.begin(), file_paths.end());
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(file_paths.size());
  for (const std::string& p : file_paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      errors->push_back("cannot read: " + p);
      continue;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    sources.emplace_back(p, ss.str());
  }
  std::vector<Finding> findings = AnalyzeSources(sources);
  if (!baseline_path.empty()) {
    std::set<std::string> baseline = LoadBaseline(baseline_path, errors);
    if (!baseline.empty()) {
      std::vector<Finding> kept;
      for (Finding& fi : findings) {
        const std::string key =
            fi.check + "\x1f" + fi.file + "\x1f" + std::to_string(fi.line);
        if (!baseline.count(key)) kept.push_back(std::move(fi));
      }
      findings = std::move(kept);
    }
  }
  return findings;
}

std::string ToJson(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += (i ? ",\n " : "\n ");
    out += "{\"check\":\"" + JsonEscape(f.check) + "\",\"file\":\"" +
           JsonEscape(f.file) + "\",\"line\":" + std::to_string(f.line) +
           ",\"col\":" + std::to_string(f.col) + ",\"message\":\"" +
           JsonEscape(f.message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string ToText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ":" +
           std::to_string(f.col) + ": [" + f.check + "] " + f.message + "\n";
  }
  return out;
}

}  // namespace dprlint
