// Byte-level freeze of cloudwalker-net-v2 (net/wire.h). The golden
// encodings here are the protocol: any edit to the wire structs that
// changes these bytes must bump kNetProtocolVersion, because an old
// worker would misread a new coordinator's frames (and vice versa).
// Compile-time layout is pinned by the static_asserts in wire.h; this
// suite pins the runtime byte stream.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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
  EXPECT_EQ(kNetProtocolVersion, 2u);
  EXPECT_EQ(kNetProtocolName, "cloudwalker-net-v2");
  // "CWN1" little-endian: 'C'=0x43 'W'=0x57 'N'=0x4e '1'=0x31.
  EXPECT_EQ(kNetFrameMagic, 0x314e5743u);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kHello), 1);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kError), 8);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kWalk), 9);
  EXPECT_EQ(static_cast<uint16_t>(MsgType::kWalkResult), 10);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kSimRank), 0u);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kPpr), 1u);
  EXPECT_EQ(static_cast<uint32_t>(WalkPhase::kNode2Vec), 2u);
}

TEST(WireFormatTest, HelloGoldenBytes) {
  HelloMsg msg;
  msg.protocol_version = 2;
  msg.snapshot_fingerprint = 0x1122334455667788ull;
  msg.num_nodes = 2000;
  const std::string payload = EncodeHello(msg, "build");
  ASSERT_EQ(payload.size(), sizeof(HelloMsg) + 5);
  EXPECT_EQ(Hex(payload),
            "02000000"                           // protocol_version
            "d0070000"                           // num_nodes = 2000
            "8877665544332211"                   // snapshot_fingerprint
            "6275696c64");                       // "build"

  HelloMsg back;
  std::string build_info;
  ASSERT_TRUE(DecodeHello(payload, &back, &build_info).ok());
  EXPECT_EQ(back.snapshot_fingerprint, msg.snapshot_fingerprint);
  EXPECT_EQ(back.num_nodes, msg.num_nodes);
  EXPECT_EQ(build_info, "build");

  const Status short_payload = DecodeHello("xy", &back, &build_info);
  EXPECT_TRUE(short_payload.IsInternal()) << short_payload.ToString();
}

TEST(WireFormatTest, WalkGoldenBytes) {
  WalkMsg msg;
  msg.phase = static_cast<uint32_t>(WalkPhase::kPpr);
  msg.source = 7;
  msg.seed = 97;
  msg.num_walkers = 150;
  msg.num_steps = 10;
  msg.dangling = 1;
  msg.max_trials = 64;
  msg.alpha = 0.85;
  msg.first = 100;
  msg.count = 50;
  const std::string payload = EncodeWalk(msg);
  ASSERT_EQ(payload.size(), sizeof(WalkMsg));
  EXPECT_EQ(Hex(payload),
            "01000000"            // phase = kPpr
            "07000000"            // source
            "6100000000000000"    // seed = 97
            "96000000"            // num_walkers = 150
            "0a000000"            // num_steps
            "01000000"            // dangling
            "40000000"            // max_trials = 64
            "333333333333eb3f"    // alpha = 0.85 (IEEE-754 LE)
            "0000000000000000"    // return_p
            "0000000000000000"    // in_out_q
            "64000000"            // first = 100
            "32000000")           // count = 50
      << "walk job bytes drifted";

  WalkMsg back;
  ASSERT_TRUE(DecodeWalk(payload, &back).ok());
  EXPECT_EQ(back.seed, msg.seed);
  EXPECT_EQ(back.alpha, msg.alpha);
  EXPECT_EQ(back.first, 100u);
  EXPECT_EQ(back.count, 50u);

  // The payload size is exact: short and long payloads are protocol bugs.
  const Status truncated = DecodeWalk(
      std::string_view(payload).substr(0, payload.size() - 1), &back);
  EXPECT_TRUE(truncated.IsInternal()) << truncated.ToString();
  const Status padded = DecodeWalk(payload + "x", &back);
  EXPECT_TRUE(padded.IsInternal()) << padded.ToString();
}

TEST(WireFormatTest, WalkResultGoldenRoundTrip) {
  WalkResultMsg msg;
  msg.first = 100;
  msg.count = 2;
  msg.steps = 123;
  const std::vector<std::vector<NodeId>> levels = {{11, 40}, {9}};
  const std::vector<NodeId> terminals = {8};
  const std::string payload = EncodeWalkResult(msg, levels, terminals);
  ASSERT_EQ(payload.size(),
            sizeof(WalkResultMsg) + 2 * sizeof(uint32_t) + 4 * sizeof(NodeId));
  EXPECT_EQ(Hex(payload),
            "64000000"            // first = 100
            "02000000"            // count
            "7b00000000000000"    // steps = 123
            "02000000"            // num_levels
            "01000000"            // terminal_count
            "02000000"            // level 1: 2 endpoints
            "01000000"            // level 2: 1 endpoint
            "0b000000" "28000000" // level 1: 11, 40
            "09000000"            // level 2: 9
            "08000000");          // terminal 8

  WalkResultMsg back;
  std::vector<std::vector<NodeId>> levels_back = {{1, 2, 3}, {}, {4}};
  std::vector<NodeId> terminals_back;
  ASSERT_TRUE(
      DecodeWalkResult(payload, &back, &levels_back, &terminals_back).ok());
  EXPECT_EQ(back.first, 100u);
  EXPECT_EQ(back.steps, 123u);
  EXPECT_EQ(levels_back, levels);
  EXPECT_EQ(terminals_back, terminals);

  // Every count is checked against the payload size: a short payload, one
  // byte missing or extra, and counts announcing more than the payload.
  EXPECT_TRUE(DecodeWalkResult("short", &back, &levels_back, &terminals_back)
                  .IsInternal());
  EXPECT_TRUE(DecodeWalkResult(
                  std::string_view(payload).substr(0, payload.size() - 1),
                  &back, &levels_back, &terminals_back)
                  .IsInternal());
  EXPECT_TRUE(DecodeWalkResult(payload + "x", &back, &levels_back,
                               &terminals_back)
                  .IsInternal());
  std::string huge = payload;
  const uint32_t many_levels = 0xffffffffu;
  std::memcpy(huge.data() + offsetof(WalkResultMsg, num_levels),
              &many_levels, sizeof(many_levels));
  EXPECT_TRUE(DecodeWalkResult(huge, &back, &levels_back, &terminals_back)
                  .IsInternal());
}

TEST(WireFormatTest, EmptyArraysRoundTrip) {
  // Zero counts decode into empty vectors whose data() may be null; the
  // decoders must not hand that pointer to memcpy.
  WalkResultMsg result;
  result.steps = 9;
  const std::string result_payload = EncodeWalkResult(result, {}, {});
  ASSERT_EQ(result_payload.size(), sizeof(WalkResultMsg));
  WalkResultMsg result_back;
  std::vector<std::vector<NodeId>> levels_back;
  std::vector<NodeId> terminals_back;
  ASSERT_TRUE(DecodeWalkResult(result_payload, &result_back, &levels_back,
                               &terminals_back)
                  .ok());
  EXPECT_EQ(result_back.steps, 9u);
  EXPECT_TRUE(levels_back.empty());
  EXPECT_TRUE(terminals_back.empty());

  // Levels that are all empty (every walker died at the first step).
  const std::vector<std::vector<NodeId>> dead = {{}, {}, {}};
  const std::string dead_payload = EncodeWalkResult(result, dead, {});
  ASSERT_EQ(dead_payload.size(), sizeof(WalkResultMsg) + 3 * sizeof(uint32_t));
  ASSERT_TRUE(DecodeWalkResult(dead_payload, &result_back, &levels_back,
                               &terminals_back)
                  .ok());
  EXPECT_EQ(levels_back, dead);
  EXPECT_TRUE(terminals_back.empty());
}

TEST(WireFormatTest, WalkResultFitsTheFrameCap) {
  // The reply bound is count x T node ids plus the header and T level
  // counts; at T = 10 the cap admits about 26.8M walkers per worker.
  constexpr uint64_t kFixed = sizeof(WalkResultMsg) + 10 * sizeof(uint32_t);
  constexpr uint32_t kMaxAtTen = static_cast<uint32_t>(
      (kNetMaxFramePayload - kFixed) / sizeof(NodeId) / 10);
  EXPECT_TRUE(WalkResultFits(kMaxAtTen, 10));
  EXPECT_FALSE(WalkResultFits(kMaxAtTen + 1, 10));
  EXPECT_FALSE(WalkResultFits(0xffffffffu, 0xffffffffu));
  EXPECT_FALSE(WalkResultFits(1, kNetMaxFramePayload / 4));
  EXPECT_TRUE(WalkResultFits(1000, 10));
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

}  // namespace
}  // namespace cloudwalker
