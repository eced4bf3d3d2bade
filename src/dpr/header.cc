#include "dpr/header.h"

#include "common/coding.h"

namespace dpr {

void EncodeCut(std::string* dst, const DprCut& cut) {
  PutFixed32(dst, static_cast<uint32_t>(cut.size()));
  for (const auto& [w, v] : cut) {
    PutFixed32(dst, w);
    PutFixed64(dst, v);
  }
}

bool DecodeCut(Decoder* dec, DprCut* cut) {
  uint32_t n;
  if (!dec->GetFixed32(&n)) return false;
  if (n > dec->remaining() / 12) return false;  // 12 wire bytes per entry
  cut->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t w;
    uint64_t v;
    if (!dec->GetFixed32(&w) || !dec->GetFixed64(&v)) return false;
    (*cut)[w] = v;
  }
  return true;
}

void DprRequestHeader::EncodeTo(std::string* dst) const {
  PutFixed64(dst, session_id);
  PutFixed64(dst, world_line);
  PutFixed64(dst, version);
  PutFixed64(dst, cut_epoch);
  EncodeCut(dst, deps);
}

bool DprRequestHeader::DecodeFrom(Slice input, size_t* consumed) {
  Decoder dec(input);
  if (!dec.GetFixed64(&session_id) || !dec.GetFixed64(&world_line) ||
      !dec.GetFixed64(&version) || !dec.GetFixed64(&cut_epoch) ||
      !DecodeCut(&dec, &deps)) {
    return false;
  }
  if (consumed != nullptr) *consumed = input.size() - dec.remaining();
  return true;
}

void DprResponseHeader::EncodeTo(std::string* dst) const {
  dst->push_back(static_cast<char>(status));
  PutFixed64(dst, world_line);
  PutFixed64(dst, executed_version);
  PutFixed64(dst, cut_epoch);
  EncodeCut(dst, cut);
}

bool DprResponseHeader::DecodeFrom(Slice input, size_t* consumed) {
  Decoder dec(input);
  uint8_t status_byte;
  if (!dec.GetBytes(&status_byte, 1) || !dec.GetFixed64(&world_line) ||
      !dec.GetFixed64(&executed_version) || !dec.GetFixed64(&cut_epoch) ||
      !DecodeCut(&dec, &cut)) {
    return false;
  }
  status = static_cast<BatchStatus>(status_byte);
  if (consumed != nullptr) *consumed = input.size() - dec.remaining();
  return true;
}

}  // namespace dpr
