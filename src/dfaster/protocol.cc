#include "dfaster/protocol.h"

#include <cstring>

#include "common/coding.h"

namespace dpr {

namespace {
// Wire bytes per op (type, key, value) and per result (code, value).
constexpr size_t kOpBytes = 17;
constexpr size_t kResultBytes = 9;

// Writes a fixed64 at `p` (space already reserved); returns the next byte.
char* PutFixed64At(char* p, uint64_t v) {
  memcpy(p, &v, 8);
  return p + 8;
}
}  // namespace

void KvBatchRequest::Encode(const DprRequestHeader& header, bool install,
                            std::span<const KvOp> ops, std::string* dst) {
  dst->reserve(dst->size() + header.EncodedSize() + 5 +
               kOpBytes * ops.size());
  header.EncodeTo(dst);
  dst->push_back(install ? 1 : 0);
  PutFixed32(dst, static_cast<uint32_t>(ops.size()));
  const size_t at = dst->size();
  dst->resize(at + kOpBytes * ops.size());
  char* p = dst->data() + at;
  for (const KvOp& op : ops) {
    *p++ = static_cast<char>(op.type);
    p = PutFixed64At(p, op.key);
    p = PutFixed64At(p, op.value);
  }
}

bool KvBatchRequest::DecodeFrom(Slice input) {
  size_t consumed = 0;
  if (!header.DecodeFrom(input, &consumed)) return false;
  Decoder dec(Slice(input.data() + consumed, input.size() - consumed));
  uint8_t flags;
  if (!dec.GetBytes(&flags, 1)) return false;
  install = (flags & 1) != 0;
  uint32_t n;
  if (!dec.GetFixed32(&n)) return false;
  // Each op costs kOpBytes wire bytes; reject counts the payload cannot hold
  // (otherwise a hostile count triggers a huge allocation).
  if (n > dec.remaining() / kOpBytes) return false;
  ops.clear();
  ops.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KvOp op;
    uint8_t type;
    if (!dec.GetBytes(&type, 1) || !dec.GetFixed64(&op.key) ||
        !dec.GetFixed64(&op.value)) {
      return false;
    }
    op.type = static_cast<KvOp::Type>(type);
    ops.push_back(op);
  }
  return true;
}

void KvBatchResponse::EncodeTo(std::string* dst) const {
  dst->reserve(dst->size() + header.EncodedSize() + 4 +
               kResultBytes * results.size());
  header.EncodeTo(dst);
  PutFixed32(dst, static_cast<uint32_t>(results.size()));
  const size_t at = dst->size();
  dst->resize(at + kResultBytes * results.size());
  char* p = dst->data() + at;
  for (const KvOpResult& r : results) {
    *p++ = static_cast<char>(r.result);
    p = PutFixed64At(p, r.value);
  }
}

bool KvBatchResponse::DecodeFrom(Slice input) {
  size_t consumed = 0;
  if (!header.DecodeFrom(input, &consumed)) return false;
  Decoder dec(Slice(input.data() + consumed, input.size() - consumed));
  uint32_t n;
  if (!dec.GetFixed32(&n)) return false;
  if (n > dec.remaining() / kResultBytes) return false;
  results.clear();
  results.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    KvOpResult r;
    uint8_t result;
    if (!dec.GetBytes(&result, 1) || !dec.GetFixed64(&r.value)) return false;
    r.result = static_cast<KvResult>(result);
    results.push_back(r);
  }
  return true;
}

}  // namespace dpr
