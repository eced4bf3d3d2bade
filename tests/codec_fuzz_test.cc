// Decode-side fuzzing: every wire/disk codec must reject or cleanly consume
// arbitrary byte strings without crashing, and every valid encoding must
// round-trip exactly.
#include <gtest/gtest.h>

#include <string>

#include "common/random.h"
#include "dfaster/protocol.h"
#include "dpr/header.h"
#include "respstore/resp_store.h"

namespace dpr {
namespace {

std::string RandomBytes(Random& rng, size_t max_len) {
  std::string out;
  const size_t n = rng.Uniform(max_len + 1);
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.Uniform(256)));
  }
  return out;
}

class CodecFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzz, DecodersSurviveGarbage) {
  Random rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::string bytes = RandomBytes(rng, 256);
    {
      DprRequestHeader h;
      (void)h.DecodeFrom(bytes);
    }
    {
      DprResponseHeader h;
      (void)h.DecodeFrom(bytes);
    }
    {
      KvBatchRequest r;
      (void)r.DecodeFrom(bytes);
    }
    {
      KvBatchResponse r;
      (void)r.DecodeFrom(bytes);
    }
    {
      RespCommand c;
      size_t consumed;
      (void)c.DecodeFrom(bytes, &consumed);
    }
    {
      RespReply r;
      size_t consumed;
      (void)r.DecodeFrom(bytes, &consumed);
    }
  }
  SUCCEED();
}

TEST_P(CodecFuzz, ValidEncodingsRoundTrip) {
  Random rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    // Request header.
    DprRequestHeader req;
    req.session_id = rng.Next();
    req.world_line = rng.Uniform(100) + 1;
    req.version = rng.Next() % 10000;
    req.cut_epoch = rng.Next();
    const int deps = static_cast<int>(rng.Uniform(5));
    for (int d = 0; d < deps; ++d) {
      req.deps[static_cast<WorkerId>(rng.Uniform(16))] = rng.Uniform(1000);
    }
    std::string buf;
    req.EncodeTo(&buf);
    DprRequestHeader decoded;
    size_t consumed = 0;
    ASSERT_TRUE(decoded.DecodeFrom(buf, &consumed));
    ASSERT_EQ(consumed, buf.size());
    ASSERT_EQ(decoded.session_id, req.session_id);
    ASSERT_EQ(decoded.world_line, req.world_line);
    ASSERT_EQ(decoded.version, req.version);
    ASSERT_EQ(decoded.cut_epoch, req.cut_epoch);
    ASSERT_EQ(decoded.deps, req.deps);

    // Response header, with and without cut entries.
    DprResponseHeader resp;
    resp.status = static_cast<DprResponseHeader::BatchStatus>(rng.Uniform(3));
    resp.world_line = rng.Uniform(100) + 1;
    resp.executed_version = rng.Next() % 10000;
    resp.cut_epoch = rng.Next();
    const int entries = static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < entries; ++e) {
      resp.cut[static_cast<WorkerId>(rng.Uniform(16))] = rng.Uniform(1000);
    }
    std::string rbuf;
    resp.EncodeTo(&rbuf);
    DprResponseHeader rdecoded;
    ASSERT_TRUE(rdecoded.DecodeFrom(rbuf, &consumed));
    ASSERT_EQ(consumed, rbuf.size());
    ASSERT_EQ(rdecoded.status, resp.status);
    ASSERT_EQ(rdecoded.world_line, resp.world_line);
    ASSERT_EQ(rdecoded.executed_version, resp.executed_version);
    ASSERT_EQ(rdecoded.cut_epoch, resp.cut_epoch);
    ASSERT_EQ(rdecoded.cut, resp.cut);

    // Batch with random ops.
    KvBatchRequest batch;
    batch.header = req;
    const int n = static_cast<int>(rng.Uniform(20));
    for (int o = 0; o < n; ++o) {
      batch.ops.push_back(
          KvOp{static_cast<KvOp::Type>(1 + rng.Uniform(4)), rng.Next(),
               rng.Next()});
    }
    std::string encoded;
    batch.EncodeTo(&encoded);
    KvBatchRequest round;
    ASSERT_TRUE(round.DecodeFrom(encoded));
    ASSERT_EQ(round.ops.size(), batch.ops.size());
    for (size_t o = 0; o < batch.ops.size(); ++o) {
      ASSERT_EQ(round.ops[o].key, batch.ops[o].key);
      ASSERT_EQ(round.ops[o].value, batch.ops[o].value);
      ASSERT_EQ(static_cast<int>(round.ops[o].type),
                static_cast<int>(batch.ops[o].type));
    }

    // Resp command stream.
    RespCommand cmd;
    cmd.op = static_cast<RespOp>(1 + rng.Uniform(7));
    cmd.key = RandomBytes(rng, 32);
    cmd.value = RandomBytes(rng, 64);
    std::string cbuf;
    cmd.EncodeTo(&cbuf);
    RespCommand cround;
    ASSERT_TRUE(cround.DecodeFrom(cbuf, &consumed));
    ASSERT_EQ(consumed, cbuf.size());
    ASSERT_EQ(cround.key, cmd.key);
    ASSERT_EQ(cround.value, cmd.value);
  }
}

// EncodeTo appends after whatever `dst` already holds (it reserves, never
// overwrites), and the appended bytes decode to the same batch.
TEST_P(CodecFuzz, EncodeAppendsToANonEmptyBuffer) {
  Random rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    KvBatchRequest req;
    req.header.session_id = rng.Next();
    req.header.version = rng.Uniform(1000);
    const int deps = static_cast<int>(rng.Uniform(5));
    for (int d = 0; d < deps; ++d) {
      req.header.deps[static_cast<WorkerId>(rng.Uniform(16))] =
          rng.Uniform(1000);
    }
    req.install = rng.Uniform(2) == 1;
    const int n = static_cast<int>(rng.Uniform(80));
    for (int o = 0; o < n; ++o) {
      req.ops.push_back(KvOp{static_cast<KvOp::Type>(1 + rng.Uniform(4)),
                             rng.Next(), rng.Next()});
    }
    KvBatchResponse resp;
    resp.header.executed_version = rng.Uniform(1000);
    const int entries = static_cast<int>(rng.Uniform(5));
    for (int e = 0; e < entries; ++e) {
      resp.header.cut[static_cast<WorkerId>(rng.Uniform(16))] =
          rng.Uniform(1000);
    }
    for (int o = 0; o < n; ++o) {
      resp.results.push_back(
          KvOpResult{static_cast<KvResult>(rng.Uniform(4)), rng.Next()});
    }

    const std::string prefix = "p" + RandomBytes(rng, 40);
    std::string req_buf = prefix;
    req.EncodeTo(&req_buf);
    ASSERT_EQ(req_buf.compare(0, prefix.size(), prefix), 0);
    const Slice req_tail(req_buf.data() + prefix.size(),
                         req_buf.size() - prefix.size());
    ASSERT_EQ(req_tail.size(),
              req.header.EncodedSize() + 5 + 17 * req.ops.size());
    std::string parts = prefix;
    KvBatchRequest::Encode(req.header, req.install, req.ops, &parts);
    ASSERT_EQ(parts, req_buf);
    KvBatchRequest req_round;
    ASSERT_TRUE(req_round.DecodeFrom(req_tail));
    ASSERT_EQ(req_round.header.session_id, req.header.session_id);
    ASSERT_EQ(req_round.header.deps, req.header.deps);
    ASSERT_EQ(req_round.install, req.install);
    ASSERT_EQ(req_round.ops.size(), req.ops.size());
    for (size_t o = 0; o < req.ops.size(); ++o) {
      ASSERT_EQ(req_round.ops[o].type, req.ops[o].type);
      ASSERT_EQ(req_round.ops[o].key, req.ops[o].key);
      ASSERT_EQ(req_round.ops[o].value, req.ops[o].value);
    }

    std::string resp_buf = prefix;
    resp.EncodeTo(&resp_buf);
    ASSERT_EQ(resp_buf.compare(0, prefix.size(), prefix), 0);
    const Slice resp_tail(resp_buf.data() + prefix.size(),
                          resp_buf.size() - prefix.size());
    ASSERT_EQ(resp_tail.size(),
              resp.header.EncodedSize() + 4 + 9 * resp.results.size());
    KvBatchResponse resp_round;
    ASSERT_TRUE(resp_round.DecodeFrom(resp_tail));
    ASSERT_EQ(resp_round.header.executed_version,
              resp.header.executed_version);
    ASSERT_EQ(resp_round.header.cut, resp.header.cut);
    ASSERT_EQ(resp_round.results.size(), resp.results.size());
    for (size_t o = 0; o < resp.results.size(); ++o) {
      ASSERT_EQ(resp_round.results[o].result, resp.results[o].result);
      ASSERT_EQ(resp_round.results[o].value, resp.results[o].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(101, 202, 303));

TEST(CodecFuzzTest, TruncatedValidEncodingsRejected) {
  KvBatchRequest batch;
  batch.header.session_id = 1;
  batch.ops.push_back(KvOp{KvOp::Type::kUpsert, 1, 2});
  std::string encoded;
  batch.EncodeTo(&encoded);
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    KvBatchRequest truncated;
    EXPECT_FALSE(truncated.DecodeFrom(Slice(encoded.data(), cut)))
        << "accepted a truncation at " << cut;
  }
}

}  // namespace
}  // namespace dpr
