// Byte-level freeze of cloudwalker-net-v1 (net/wire.h). The golden
// encodings here are the protocol: any edit to the wire structs that
// changes these bytes must bump kNetProtocolVersion, because an old
// worker would misread a new coordinator's frames (and vice versa).
// Compile-time layout is pinned by the static_asserts in wire.h and
// engine/walk.h; this suite pins the runtime byte stream.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/walk.h"
#include "net/wire.h"

namespace cloudwalker {
namespace {

// Hex-dumps a prefix of `bytes` for golden comparison.
std::string Hex(std::string_view bytes, size_t limit = 0) {
  static const char kDigits[] = "0123456789abcdef";
  if (limit == 0 || limit > bytes.size()) limit = bytes.size();
  std::string out;
  for (size_t i = 0; i < limit; ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(WireFormatTest, ProtocolConstantsFrozen) {
  EXPECT_EQ(kNetProtocolVersion, 1u);
  EXPECT_EQ(kNetProtocolName, "cloudwalker-net-v1");
  // "CWN1" little-endian: 'C'=0x43 'W'=0x57 'N'=0x4e '1'=0x31.
  EXPECT_EQ(kNetFrameMagic, 0x314e5743u);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kHello), 1);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kError), 8);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kSimRank), 0u);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kPpr), 1u);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kNode2Vec), 2u);
}

TEST(WireFormatTest, WalkerRecGoldenBytes) {
  const WalkerRec rec{0x04030201u, 0x08070605u, 0x0c0b0a09u};
  char buf[sizeof(WalkerRec)];
  std::memcpy(buf, &rec, sizeof(rec));
  EXPECT_EQ(Hex({buf, sizeof(buf)}), "0102030405060708090a0b0c");
}

TEST(WireFormatTest, HelloGoldenBytes) {
  HelloMsg msg;
  msg.protocol_version = 1;
  msg.shard = 2;
  msg.num_shards = 3;
  msg.strategy = 1;
  msg.snapshot_fingerprint = 0x1122334455667788ull;
  msg.plan_hash = 0xa1a2a3a4a5a6a7a8ull;
  msg.num_nodes = 2000;
  const std::string payload = EncodeHello(msg, "build");
  ASSERT_EQ(payload.size(), sizeof(HelloMsg) + 5);
  EXPECT_EQ(Hex(payload),
            "01000000"                           // protocol_version
            "02000000"                           // shard
            "03000000"                           // num_shards
            "01000000"                           // strategy
            "8877665544332211"                   // snapshot_fingerprint
            "a8a7a6a5a4a3a2a1"                   // plan_hash
            "d0070000"                           // num_nodes = 2000
            "00000000"                           // reserved
            "6275696c64");                       // "build"

  HelloMsg back;
  std::string build_info;
  ASSERT_TRUE(DecodeHello(payload, &back, &build_info).ok());
  EXPECT_EQ(back.snapshot_fingerprint, msg.snapshot_fingerprint);
  EXPECT_EQ(back.plan_hash, msg.plan_hash);
  EXPECT_EQ(back.num_nodes, msg.num_nodes);
  EXPECT_EQ(build_info, "build");

  const Status short_payload = DecodeHello("xy", &back, &build_info);
  EXPECT_TRUE(short_payload.IsInternal()) << short_payload.ToString();
}

TEST(WireFormatTest, SuperstepGoldenBytes) {
  SuperstepMsg msg;
  msg.phase = static_cast<uint32_t>(WalkPhase::kPpr);
  msg.step = 4;
  msg.source = 7;
  msg.num_walkers = 150;
  msg.seed = 97;
  msg.num_steps = 10;
  msg.dangling = 1;
  msg.alpha = 0.85;
  msg.max_trials = 64;
  const std::vector<WalkerRec> walkers = {{0, 5, 2}, {1, 9, 5}};
  const std::string payload = EncodeSuperstep(msg, walkers);
  ASSERT_EQ(payload.size(), sizeof(SuperstepMsg) + 2 * sizeof(WalkerRec));
  EXPECT_EQ(Hex(payload, sizeof(SuperstepMsg)),
            "01000000"            // phase = kPpr
            "04000000"            // step
            "07000000"            // source
            "96000000"            // num_walkers = 150
            "6100000000000000"    // seed = 97
            "0a000000"            // num_steps
            "01000000"            // dangling
            "333333333333eb3f"    // alpha = 0.85 (IEEE-754 LE)
            "0000000000000000"    // return_p
            "0000000000000000"    // in_out_q
            "40000000"            // max_trials = 64
            "02000000")           // walker_count
      << "superstep header bytes drifted";

  SuperstepMsg back;
  std::vector<WalkerRec> walkers_back;
  ASSERT_TRUE(DecodeSuperstep(payload, &back, &walkers_back).ok());
  EXPECT_EQ(back.seed, msg.seed);
  EXPECT_EQ(back.alpha, msg.alpha);
  ASSERT_EQ(walkers_back.size(), 2u);
  EXPECT_EQ(walkers_back[1].cur, 9u);

  // A payload whose length disagrees with walker_count is a protocol bug.
  const Status truncated =
      DecodeSuperstep(std::string_view(payload).substr(0, payload.size() - 1),
                      &back, &walkers_back);
  EXPECT_TRUE(truncated.IsInternal()) << truncated.ToString();
}

TEST(WireFormatTest, ResultGoldenRoundTrip) {
  ResultMsg msg;
  msg.step = 4;
  msg.steps = 123;
  msg.remote_rows = 17;
  msg.dead = 2;
  const std::vector<WalkerRec> survivors = {{3, 11, 9}};
  const std::vector<NodeId> endpoints = {11, 40};
  const std::vector<NodeId> terminals = {8};
  const std::string payload = EncodeResult(msg, survivors, endpoints,
                                           terminals);
  ASSERT_EQ(payload.size(),
            sizeof(ResultMsg) + sizeof(WalkerRec) + 3 * sizeof(NodeId));
  EXPECT_EQ(Hex(payload, sizeof(ResultMsg)),
            "04000000"            // step
            "01000000"            // survivor_count
            "02000000"            // endpoint_count
            "01000000"            // terminal_count
            "7b00000000000000"    // steps = 123
            "1100000000000000"    // remote_rows = 17
            "02000000"            // dead
            "00000000");          // reserved

  ResultMsg back;
  std::vector<WalkerRec> survivors_back;
  std::vector<NodeId> endpoints_back, terminals_back;
  ASSERT_TRUE(DecodeResult(payload, &back, &survivors_back, &endpoints_back,
                           &terminals_back)
                  .ok());
  EXPECT_EQ(back.steps, 123u);
  EXPECT_EQ(back.dead, 2u);
  ASSERT_EQ(survivors_back.size(), 1u);
  EXPECT_EQ(survivors_back[0].cur, 11u);
  EXPECT_EQ(endpoints_back, endpoints);
  EXPECT_EQ(terminals_back, terminals);

  const Status bad = DecodeResult("short", &back, &survivors_back,
                                  &endpoints_back, &terminals_back);
  EXPECT_TRUE(bad.IsInternal());
}

TEST(WireFormatTest, EmptyArraysRoundTrip) {
  // Zero counts decode into empty vectors whose data() may be null; the
  // decoders must not hand that pointer to memcpy.
  SuperstepMsg step;
  step.step = 3;
  const std::string step_payload = EncodeSuperstep(step, {});
  ASSERT_EQ(step_payload.size(), sizeof(SuperstepMsg));
  SuperstepMsg step_back;
  std::vector<WalkerRec> walkers_back;
  ASSERT_TRUE(DecodeSuperstep(step_payload, &step_back, &walkers_back).ok());
  EXPECT_EQ(step_back.step, 3u);
  EXPECT_EQ(step_back.walker_count, 0u);
  EXPECT_TRUE(walkers_back.empty());

  ResultMsg result;
  result.steps = 9;
  const std::string result_payload = EncodeResult(result, {}, {}, {});
  ASSERT_EQ(result_payload.size(), sizeof(ResultMsg));
  ResultMsg result_back;
  std::vector<WalkerRec> survivors_back;
  std::vector<NodeId> endpoints_back, terminals_back;
  ASSERT_TRUE(DecodeResult(result_payload, &result_back, &survivors_back,
                           &endpoints_back, &terminals_back)
                  .ok());
  EXPECT_EQ(result_back.steps, 9u);
  EXPECT_TRUE(survivors_back.empty());
  EXPECT_TRUE(endpoints_back.empty());
  EXPECT_TRUE(terminals_back.empty());
}

TEST(WireFormatTest, ErrorStatusRoundTrip) {
  const Status original = Status::FailedPrecondition("fingerprint mismatch");
  const Status back = DecodeErrorStatus(EncodeErrorStatus(original));
  EXPECT_EQ(back.code(), original.code());
  EXPECT_EQ(back.message(), original.message());

  // Codes outside the enum (a newer peer's vocabulary) degrade to
  // kInternal instead of fabricating an unknown code.
  const uint32_t bogus = 99;
  std::string payload(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  payload += "from the future";
  EXPECT_TRUE(DecodeErrorStatus(payload).IsInternal());
  EXPECT_TRUE(DecodeErrorStatus("").IsInternal());
}

TEST(WireFormatTest, NetPlanHashGoldenValues) {
  // Frozen plan-hash values: these change only if the hash chain (or
  // DeriveSeed itself) changes, which is a protocol break — a coordinator
  // and worker that disagree here would route walkers differently.
  EXPECT_EQ(NetPlanHash(PartitionStrategy::kHash, 3, 2000),
            8233517178171640401ull);
  EXPECT_EQ(NetPlanHash(PartitionStrategy::kRange, 3, 2000),
            4391613739870247616ull);
  EXPECT_EQ(NetPlanHash(PartitionStrategy::kHash, 4, 2000),
            14910021059417192956ull);
  // Every input distinguishes the hash.
  EXPECT_NE(NetPlanHash(PartitionStrategy::kHash, 3, 2000),
            NetPlanHash(PartitionStrategy::kHash, 3, 2001));
}

}  // namespace
}  // namespace cloudwalker
