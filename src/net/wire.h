// cloudwalker-net-v2 — the wire protocol between the walk coordinator
// (net/remote_backend.h) and socket-connected walk workers
// (net/shard_worker.h). See DESIGN.md section 13 for the full tables.
//
// Every message is one frame: a 20-byte FrameHeader followed by
// `payload_len` payload bytes. Headers and payloads are CRC-32 stamped
// independently, so a corrupt or desynchronized stream is detected before
// a single payload byte is interpreted. All integers are little-endian;
// the structs below are trivially-copyable PODs whose exact byte layout
// is frozen by static_asserts beside them and golden-byte tests
// (tests/net/wire_format_test.cc) — the same discipline the snapshot
// format uses.
//
// Handshake: the coordinator opens with kHello carrying the protocol
// version, the snapshot fingerprint (snapshot/snapshot.h) and the node
// count. The worker either replies kHelloOk echoing the same fields (plus
// a build-info string) or rejects with kError and a diagnostic. A
// connection that has not completed the handshake accepts nothing but
// kHello. Every worker maps the whole in-CSR (the paper's Broadcasting
// model), so there is no shard plan to agree on.
//
// Walk jobs: the coordinator splits a walk's walker ids into one
// contiguous range per worker and sends each a kWalk frame carrying the
// complete job — program and parameters, source, seed, R', T, dangling
// policy, and the range. The worker runs the whole walk for its range and
// answers one kWalkResult with each level's raw endpoints (or PPR's
// terminals); it keeps no per-job state whatsoever. Replay after a worker
// death is therefore trivially deterministic: reconnect, re-handshake,
// resend the identical frame (every draw is a pure function of its
// fields and the pinned artifact).

#ifndef CLOUDWALKER_NET_WIRE_H_
#define CLOUDWALKER_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace cloudwalker {

/// Protocol compatibility pin: bumped on any wire-visible change. A
/// handshake between different versions is rejected by the worker with a
/// diagnostic naming both sides (the version leads every HelloMsg, so
/// the check reads it from any version's offer).
inline constexpr uint32_t kNetProtocolVersion = 2;
inline constexpr std::string_view kNetProtocolName = "cloudwalker-net-v2";

/// "CWN1", read as a little-endian uint32 — the first four bytes of every
/// frame on the wire (unchanged since v1; the version lives in kHello).
inline constexpr uint32_t kNetFrameMagic = 0x314e5743u;

/// Upper bound on one frame's payload; a header announcing more is
/// treated as stream corruption, not an allocation request.
inline constexpr uint32_t kNetMaxFramePayload = 1u << 30;

/// Frame types of cloudwalker-net-v2. Types 3 and 4 were v1's per-level
/// superstep frames; they are retired, never reused.
enum class MsgType : uint16_t {
  kHello = 1,         // coordinator -> worker: handshake offer
  kHelloOk = 2,       // worker -> coordinator: handshake accept + echo
  kHeartbeat = 5,     // coordinator -> worker: liveness probe
  kHeartbeatAck = 6,  // worker -> coordinator: liveness reply
  kShutdown = 7,      // coordinator -> worker: stop serving
  kError = 8,         // worker -> coordinator: encoded Status + close
  kWalk = 9,          // coordinator -> worker: walk one walker range
  kWalkResult = 10,   // worker -> coordinator: the range's raw output
};

/// The three walk programs a worker can run (the walk half of the six
/// query kinds; see engine/walk_backend.h).
enum class WalkPhase : uint32_t {
  kSimRank = 0,
  kPpr = 1,
  kNode2Vec = 2,
};

/// 20-byte frame header. `header_crc` covers the first 16 bytes (with the
/// field itself zeroed); `payload_crc` covers the payload bytes.
struct FrameHeader {
  uint32_t magic = kNetFrameMagic;
  uint16_t type = 0;   // MsgType
  uint16_t flags = 0;  // reserved, zero
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
  uint32_t header_crc = 0;
};
static_assert(std::is_trivially_copyable_v<FrameHeader>);
static_assert(sizeof(FrameHeader) == 20, "wire layout frozen since net-v1");
static_assert(offsetof(FrameHeader, magic) == 0);
static_assert(offsetof(FrameHeader, type) == 4);
static_assert(offsetof(FrameHeader, flags) == 6);
static_assert(offsetof(FrameHeader, payload_len) == 8);
static_assert(offsetof(FrameHeader, payload_crc) == 12);
static_assert(offsetof(FrameHeader, header_crc) == 16);

/// kHello / kHelloOk payload, followed by a free-form build-info string
/// (the rest of the payload; not part of the compatibility check). The
/// worker accepts iff every field matches its own snapshot.
struct HelloMsg {
  uint32_t protocol_version = kNetProtocolVersion;
  uint32_t num_nodes = 0;
  uint64_t snapshot_fingerprint = 0;  // SnapshotView::fingerprint()
};
static_assert(std::is_trivially_copyable_v<HelloMsg>);
static_assert(sizeof(HelloMsg) == 16, "wire layout frozen by net-v2");
static_assert(offsetof(HelloMsg, protocol_version) == 0);
static_assert(offsetof(HelloMsg, num_nodes) == 4);
static_assert(offsetof(HelloMsg, snapshot_fingerprint) == 8);

/// kWalk payload: one self-contained job — walk walker ids
/// [first, first + count) of an R'-walker, T-level walk of `phase` from
/// `source`. Unused program params are zero (e.g. alpha for SimRank).
struct WalkMsg {
  uint32_t phase = 0;  // WalkPhase
  uint32_t source = 0;
  uint64_t seed = 0;
  uint32_t num_walkers = 0;  // R', the whole walk's
  uint32_t num_steps = 0;    // T
  uint32_t dangling = 0;     // DanglingPolicy
  uint32_t max_trials = 0;   // node2vec trial cap
  double alpha = 0.0;        // PPR continuation probability
  double return_p = 0.0;     // node2vec p
  double in_out_q = 0.0;     // node2vec q
  uint32_t first = 0;        // the range's first walker id
  uint32_t count = 0;        // the range's walker count
};
static_assert(std::is_trivially_copyable_v<WalkMsg>);
static_assert(sizeof(WalkMsg) == 64, "wire layout frozen by net-v2");
static_assert(offsetof(WalkMsg, phase) == 0);
static_assert(offsetof(WalkMsg, seed) == 8);
static_assert(offsetof(WalkMsg, num_walkers) == 16);
static_assert(offsetof(WalkMsg, max_trials) == 28);
static_assert(offsetof(WalkMsg, alpha) == 32);
static_assert(offsetof(WalkMsg, first) == 56);
static_assert(offsetof(WalkMsg, count) == 60);

/// kWalkResult payload header, followed by `num_levels` uint32 endpoint
/// counts (one per level, T for a level program, none for PPR), then the
/// levels' endpoint NodeIds in level order, then `terminal_count` NodeIds
/// (PPR's terminals). The range echoes the request's.
struct WalkResultMsg {
  uint32_t first = 0;
  uint32_t count = 0;
  uint64_t steps = 0;  // walk steps the range took
  uint32_t num_levels = 0;
  uint32_t terminal_count = 0;
};
static_assert(std::is_trivially_copyable_v<WalkResultMsg>);
static_assert(sizeof(WalkResultMsg) == 24, "wire layout frozen by net-v2");
static_assert(offsetof(WalkResultMsg, first) == 0);
static_assert(offsetof(WalkResultMsg, steps) == 8);
static_assert(offsetof(WalkResultMsg, num_levels) == 16);
static_assert(offsetof(WalkResultMsg, terminal_count) == 20);

/// True when the largest kWalkResult a `count`-walker, `num_steps`-level
/// job can produce — its header, T level counts and count x T node ids
/// (PPR's at most `count` terminals fit inside that) — fits in one frame.
/// Coordinator and worker both refuse a job that fails this.
inline bool WalkResultFits(uint32_t count, uint32_t num_steps) {
  const uint64_t fixed =
      sizeof(WalkResultMsg) + uint64_t{num_steps} * sizeof(uint32_t);
  if (fixed > kNetMaxFramePayload) return false;
  return uint64_t{count} * num_steps <=
         (kNetMaxFramePayload - fixed) / sizeof(NodeId);
}

// --- Payload encode/decode -----------------------------------------------
//
// Encoders build a std::string payload (the framing layer stamps the
// CRCs); decoders memcpy back out of the payload view — never
// reinterpret_cast, since a std::string buffer carries no alignment
// guarantee. Decode errors are kInternal: the payload CRC already passed,
// so a malformed payload is a protocol bug, not line noise.

inline void AppendPod(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

// Copies `count` Ts from `p` into `out` and returns the position after
// them. An empty vector's data() may be null, which memcpy must never
// see, so a zero count copies nothing.
template <typename T>
const char* ReadArray(const char* p, uint32_t count, std::vector<T>* out) {
  const size_t bytes = size_t{count} * sizeof(T);
  out->resize(count);
  if (bytes != 0) std::memcpy(out->data(), p, bytes);
  return p + bytes;
}

inline std::string EncodeHello(const HelloMsg& msg,
                               std::string_view build_info) {
  std::string out;
  out.reserve(sizeof(HelloMsg) + build_info.size());
  AppendPod(&out, &msg, sizeof(msg));
  out.append(build_info);
  return out;
}

inline Status DecodeHello(std::string_view payload, HelloMsg* msg,
                          std::string* build_info) {
  if (payload.size() < sizeof(HelloMsg)) {
    return Status::Internal("net: short Hello payload (" +
                            std::to_string(payload.size()) + " bytes)");
  }
  std::memcpy(msg, payload.data(), sizeof(HelloMsg));
  build_info->assign(payload.substr(sizeof(HelloMsg)));
  return Status::Ok();
}

inline std::string EncodeWalk(const WalkMsg& msg) {
  std::string out;
  AppendPod(&out, &msg, sizeof(msg));
  return out;
}

inline Status DecodeWalk(std::string_view payload, WalkMsg* msg) {
  if (payload.size() != sizeof(WalkMsg)) {
    return Status::Internal("net: Walk payload is " +
                            std::to_string(payload.size()) +
                            " bytes, not " +
                            std::to_string(sizeof(WalkMsg)));
  }
  std::memcpy(msg, payload.data(), sizeof(WalkMsg));
  return Status::Ok();
}

/// Encodes a range's output: `levels` are levels 1..T in order (empty for
/// PPR), `terminals` PPR's. Sets the header's counts.
inline std::string EncodeWalkResult(WalkResultMsg msg,
                                    std::span<const std::vector<NodeId>> levels,
                                    std::span<const NodeId> terminals) {
  msg.num_levels = static_cast<uint32_t>(levels.size());
  msg.terminal_count = static_cast<uint32_t>(terminals.size());
  size_t endpoints = 0;
  for (const std::vector<NodeId>& level : levels) endpoints += level.size();
  std::string out;
  out.reserve(sizeof(WalkResultMsg) +
              (levels.size() + endpoints + terminals.size()) * sizeof(NodeId));
  AppendPod(&out, &msg, sizeof(msg));
  for (const std::vector<NodeId>& level : levels) {
    const uint32_t n = static_cast<uint32_t>(level.size());
    AppendPod(&out, &n, sizeof(n));
  }
  for (const std::vector<NodeId>& level : levels) {
    AppendPod(&out, level.data(), level.size() * sizeof(NodeId));
  }
  AppendPod(&out, terminals.data(), terminals.size_bytes());
  return out;
}

/// Decodes a kWalkResult into `levels` (one vector per level, level 1
/// first) and `terminals`, reusing their capacity. Every count is checked
/// against the payload size before anything is copied.
inline Status DecodeWalkResult(std::string_view payload, WalkResultMsg* msg,
                               std::vector<std::vector<NodeId>>* levels,
                               std::vector<NodeId>* terminals) {
  if (payload.size() < sizeof(WalkResultMsg)) {
    return Status::Internal("net: short WalkResult payload");
  }
  std::memcpy(msg, payload.data(), sizeof(WalkResultMsg));
  const uint64_t size = payload.size();
  const uint64_t counts_end =
      sizeof(WalkResultMsg) + uint64_t{msg->num_levels} * sizeof(uint32_t);
  // A frame payload holds at most 2^30 bytes (kNetMaxFramePayload), so
  // fewer than 2^28 level counts fit; they sum below 2^60, and the byte
  // total below cannot overflow.
  uint64_t endpoints = 0;
  std::vector<uint32_t> counts;
  if (counts_end <= size) {
    ReadArray(payload.data() + sizeof(WalkResultMsg), msg->num_levels,
              &counts);
    for (const uint32_t n : counts) endpoints += n;
  }
  const uint64_t want =
      counts_end + (endpoints + msg->terminal_count) * sizeof(NodeId);
  if (counts_end > size || want != size) {
    return Status::Internal(
        "net: WalkResult payload is " + std::to_string(size) +
        " bytes but its counts imply " +
        (counts_end > size ? std::string("more") : std::to_string(want)));
  }
  const char* p = payload.data() + counts_end;
  levels->resize(msg->num_levels);
  for (uint32_t t = 0; t < msg->num_levels; ++t) {
    p = ReadArray(p, counts[t], &(*levels)[t]);
  }
  ReadArray(p, msg->terminal_count, terminals);
  return Status::Ok();
}

/// kError payload: the status code as a uint32, then the message text.
/// The receiving side reconstitutes the Status so a worker-side
/// kFailedPrecondition (say, a fingerprint mismatch) surfaces to the
/// caller with its original code and diagnostic.
inline std::string EncodeErrorStatus(const Status& status) {
  const uint32_t code = static_cast<uint32_t>(status.code());
  std::string out;
  out.reserve(sizeof(code) + status.message().size());
  AppendPod(&out, &code, sizeof(code));
  out.append(status.message());
  return out;
}

inline Status DecodeErrorStatus(std::string_view payload) {
  if (payload.size() < sizeof(uint32_t)) {
    return Status::Internal("net: short Error payload");
  }
  uint32_t code = 0;
  std::memcpy(&code, payload.data(), sizeof(code));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kUnavailable)) {
    code = static_cast<uint32_t>(StatusCode::kInternal);
  }
  return Status(static_cast<StatusCode>(code),
                std::string(payload.substr(sizeof(uint32_t))));
}

}  // namespace cloudwalker

#endif  // CLOUDWALKER_NET_WIRE_H_
