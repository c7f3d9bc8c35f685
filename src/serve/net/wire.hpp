// Wire protocol of the networked planning tier.
//
// Length-prefixed binary frames over a byte stream (TCP), built for a
// fleet where every external byte is assumed hostile or late until
// validated.  Frame layout (all integers little-endian fixed-width, all
// doubles by IEEE-754 bit pattern):
//
//   offset  size
//   0       4     magic "FPLN"
//   4       2     u16 protocol version (kWireVersion)
//   6       2     u16 frame type (FrameType)
//   8       8     u64 request id — chosen by the client, echoed verbatim in
//                 the matching response so requests can be pipelined
//   16      4     u32 body length in bytes (<= the receiver's cap)
//   20      8     u64 FNV-1a checksum over type, request id, body length,
//                 and the body bytes (in that order) — every semantic
//                 header field is covered, so a single flipped bit cannot
//                 silently turn one frame type (or request pairing) into
//                 another; magic and version are validated directly
//   28      ...   body
//
// Validation is strict and total: bad magic, unknown version, unknown
// type, oversized length, or a checksum mismatch classifies the *stream*
// as garbage — the receiver answers with one Status frame naming the
// defect (best effort) and closes the connection.  A frame that parses is
// then body-validated field by field (bounds-checked cursor, no length
// trusted before it is checked against the bytes remaining); a body
// defect is MALFORMED.  Nothing a peer sends can crash the receiver: the
// frame-decoder fuzz battery (tests/serve/net/wire_fuzz_test.cpp) pins
// this under ASan/UBSan.
//
// The PlanRequest body maps 1:1 onto cache-key schema v4 (see
// serve/cache_key.cpp): every input plan_key() hashes is either carried in
// the body (t_max, planner kind, every AoOptions/PcoOptions field) or
// pinned by the platform fingerprint the body leads with — the server
// compares that fingerprint against its own platform and rejects skew
// with PLATFORM_MISMATCH instead of silently planning on different
// hardware than the client hashed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include <vector>

#include "serve/cache_key.hpp"
#include "serve/errors.hpp"
#include "serve/net/membership.hpp"
#include "serve/plan_cache.hpp"
#include "serve/service.hpp"

namespace foscil::serve::net {

/// Protocol version.  Bump on ANY frame or body layout change; a receiver
/// rejects every other version (no negotiation — plans are cheap to
/// recompute, fleets roll forward).  History: v1 checksummed only the
/// body; v2 extended coverage to the type/request-id/length header fields
/// after the fault-injection battery showed a single bit flip in the type
/// field could relabel a frame as another valid type; v3 dropped the
/// evaluation-engine byte from the PlanRequest body (cache-key schema v4).
inline constexpr std::uint16_t kWireVersion = 3;

inline constexpr char kFrameMagic[4] = {'F', 'P', 'L', 'N'};
inline constexpr std::size_t kFrameHeaderSize = 4 + 2 + 2 + 8 + 4 + 8;

/// Default cap on a frame body.  A plan response carries the full
/// schedule (two doubles per segment, up to 2 m + 1 segments per core), so
/// the cap is generous; everything a client *sends* is a few hundred
/// bytes and servers may configure a much tighter inbound cap.
inline constexpr std::uint32_t kMaxBodyBytes = 8u << 20;

/// Everything that can cross the wire.  Values are a wire contract:
/// append, never renumber.
enum class FrameType : std::uint16_t {
  kPlanRequest = 1,   ///< client -> server: plan (or serve cached) one key
  kPlanResponse = 2,  ///< server -> client: the served plan
  kStatus = 3,        ///< server -> client: rejection/annotation + hint
  kHealth = 4,        ///< client -> server: empty body
  kHealthReply = 5,   ///< server -> client: HealthInfo
  kReady = 6,         ///< client -> server: empty body
  kReadyReply = 7,    ///< server -> client: ReadyInfo
  kDrain = 8,         ///< client -> server: begin graceful drain
  kDrainReply = 9,    ///< server -> client: drain acknowledged
  kGossip = 10,       ///< any node -> server: sender's membership view
  kGossipReply = 11,  ///< server -> sender: the merged membership view
  kHandoff = 12,      ///< shard -> shard: epoch-fenced plan-cache batch
  kHandoffReply = 13, ///< receiving shard -> sender: apply outcome
};

[[nodiscard]] bool frame_type_known(std::uint16_t raw) noexcept;

/// Raised by body decoders on any structural defect; the transport maps it
/// to a kStatus{kMalformed} reply and closes.
class MalformedFrameError : public ServeError {
 public:
  using ServeError::ServeError;
};

struct Frame {
  FrameType type = FrameType::kStatus;
  std::uint64_t request_id = 0;
  std::string body;
};

/// Encode a complete frame (header + checksummed body).
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::uint64_t request_id,
                                       const std::string& body);

// ---- incremental frame decoding -------------------------------------------

/// Streaming frame decoder: feed bytes as they arrive, pull frames (or one
/// terminal defect) out.  This is the single place header validation
/// happens — the server, the client, and the fuzz battery all run their
/// inbound bytes through it.  After the first defect the assembler is
/// poisoned: the stream cannot be trusted to be frame-aligned anymore, so
/// the connection must be closed after the best-effort Status reply.
class FrameAssembler {
 public:
  enum class Result {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< `frame` holds the next decoded frame
    kBad,       ///< terminal: `defect` names it, `reply` classifies it
  };

  explicit FrameAssembler(std::uint32_t max_body_bytes = kMaxBodyBytes);

  /// Append raw bytes from the peer.
  void feed(const char* data, std::size_t size);

  /// Try to decode the next frame out of the buffered bytes.
  [[nodiscard]] Result next(Frame* frame);

  /// After kBad: human-readable defect and the status code to answer with
  /// before closing (kMalformed, kUnsupportedVersion, or kTooLarge).
  [[nodiscard]] const std::string& defect() const { return defect_; }
  [[nodiscard]] StatusCode reply() const { return reply_; }

  /// Bytes buffered but not yet consumed (bounded by header + max body).
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  [[nodiscard]] Result fail(StatusCode reply, std::string defect);

  std::uint32_t max_body_bytes_;
  std::string buffer_;
  std::string defect_;
  StatusCode reply_ = StatusCode::kOk;
  bool poisoned_ = false;
};

// ---- frame bodies ----------------------------------------------------------

/// kPlanRequest body.  Mirrors cache-key schema v4: the fingerprint pins
/// (model, levels, ambient); the explicit fields carry everything else
/// plan_key() hashes.  `deadline_s` is the client's *remaining* budget at
/// send time (< 0: none) — the server re-anchors it on its own clock and
/// the service propagates it into the planner's CancelToken.
struct WirePlanRequest {
  CacheKey platform_fp{};  ///< platform_fingerprint() of the client platform
  double t_max_c = 55.0;
  PlannerKind kind = PlannerKind::kAo;
  double deadline_s = -1.0;
  core::AoOptions ao{};
  core::PcoOptions pco{};  ///< pco.ao is authoritative for kPco requests
};

[[nodiscard]] std::string encode_plan_request(const WirePlanRequest& request);
/// Throws MalformedFrameError on any defect.
[[nodiscard]] WirePlanRequest decode_plan_request(const std::string& body);

/// kPlanResponse body: response metadata + the plan serialized through the
/// snapshot plan codec (bit-identical round trip by construction).
struct WirePlanResponse {
  bool cache_hit = false;
  bool degraded = false;
  double server_seconds = 0.0;  ///< submit -> response on the server clock
  ServedPlan plan;
};

[[nodiscard]] std::string encode_plan_response(const WirePlanResponse& r);
[[nodiscard]] WirePlanResponse decode_plan_response(const std::string& body);

/// kStatus body: one entry of the stable taxonomy plus the retry-after
/// hint (the EWMA backlog estimate for SHED, the breaker backoff for
/// BREAKER_OPEN, 0 otherwise) and a diagnostic message.
struct WireStatus {
  StatusCode code = StatusCode::kOk;
  double retry_after_s = 0.0;
  std::string message;
};

[[nodiscard]] std::string encode_status(const WireStatus& status);
[[nodiscard]] WireStatus decode_status(const std::string& body);

/// kHealthReply body: the service counters an operator dashboard needs,
/// plus the per-code rejection breakdown and the socket tier's own state.
struct HealthInfo {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t planned = 0;
  std::uint64_t fast_path_hits = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t snapshot_saves = 0;
  std::uint64_t snapshot_loads = 0;
  std::uint16_t load_state = 0;  ///< LoadState as stable u16
  std::uint8_t ready = 0;
  std::uint8_t draining = 0;
  std::uint64_t connections = 0;
  double ewma_plan_seconds = 0.0;
  double retry_after_hint_s = 0.0;
  /// Indexed by status_index(); includes the framing-layer codes the
  /// server counts itself on top of the service's breakdown.
  std::array<std::uint64_t, kStatusCodeCount> rejections_by_code{};
};

[[nodiscard]] std::string encode_health(const HealthInfo& info);
[[nodiscard]] HealthInfo decode_health(const std::string& body);

/// kReadyReply body.  `ready` flips true only after the warm-restore
/// attempt (successful or failed-to-cold-start) has finished — a load
/// balancer gates traffic on it so a restarted shard never serves cold
/// misses it is still about to warm away.
struct ReadyInfo {
  std::uint8_t ready = 0;
  std::uint8_t draining = 0;
  std::uint64_t warm_plans = 0;      ///< plans restored from the snapshot
  std::uint64_t load_failures = 0;   ///< corrupt/missing snapshot attempts
};

[[nodiscard]] std::string encode_ready(const ReadyInfo& info);
[[nodiscard]] ReadyInfo decode_ready(const std::string& body);

// ---- membership gossip -----------------------------------------------------

/// kGossip body: who is speaking (servers advertise their shard endpoint
/// and incarnation so the receiver can mark them alive first-hand; clients
/// send an empty endpoint) plus the sender's full membership view.
struct WireGossip {
  std::uint8_t sender_is_shard = 0;
  Endpoint sender;               ///< meaningful only when sender_is_shard
  std::uint64_t sender_incarnation = 0;
  MembershipView view;
};

[[nodiscard]] std::string encode_gossip(const WireGossip& gossip);
[[nodiscard]] WireGossip decode_gossip(const std::string& body);

/// kGossipReply body: the responder's identity plus its view *after*
/// merging the sender's — one round trip converges both tables.
struct WireGossipReply {
  Endpoint responder;
  std::uint64_t responder_incarnation = 0;
  MembershipView view;
};

[[nodiscard]] std::string encode_gossip_reply(const WireGossipReply& reply);
[[nodiscard]] WireGossipReply decode_gossip_reply(const std::string& body);

// ---- live cache handoff ----------------------------------------------------

/// kHandoff body: a batch of plan records (snapshot plan codec — the same
/// bytes a snapshot file or a PlanResponse carries) fenced by the sender's
/// membership epoch.  A receiver whose epoch is newer answers one Status
/// frame with kStaleEpoch and applies nothing: a partitioned former owner
/// can never clobber the new topology's entries.
struct WireHandoff {
  std::uint64_t epoch = 0;
  std::vector<ServedPlan> plans;
};

[[nodiscard]] std::string encode_handoff(const WireHandoff& handoff);
[[nodiscard]] WireHandoff decode_handoff(const std::string& body);

/// kHandoffReply body: what the receiving shard did with the batch.
/// Existing entries are never overwritten (`skipped_existing`) — a plan is
/// a pure function of its key, so the entry already there is the truth.
struct WireHandoffReply {
  std::uint64_t epoch = 0;  ///< receiver's epoch after adopting the fence
  std::uint64_t accepted = 0;
  std::uint64_t skipped_existing = 0;
};

[[nodiscard]] std::string encode_handoff_reply(const WireHandoffReply& r);
[[nodiscard]] WireHandoffReply decode_handoff_reply(const std::string& body);

/// FNV-1a over raw bytes (the same construction the snapshot file uses;
/// not a security boundary).
[[nodiscard]] std::uint64_t fnv1a_bytes(const std::string& bytes) noexcept;

/// The frame checksum: FNV-1a over the semantic header fields (type,
/// request id, body length, little-endian) followed by the body bytes.
[[nodiscard]] std::uint64_t frame_checksum(std::uint16_t type,
                                           std::uint64_t request_id,
                                           std::uint32_t body_size,
                                           const std::string& body) noexcept;

}  // namespace foscil::serve::net
