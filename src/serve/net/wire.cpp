#include "serve/net/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "serve/snapshot.hpp"
#include "sim/modal.hpp"

namespace foscil::serve::net {

namespace {

std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double bits_double(std::uint64_t bits) {
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Little-endian appender for frame bodies (and headers).
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i)
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void f64(double v) { u64(double_bits(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes_.append(s);
  }
  void raw(const std::string& s) { bytes_.append(s); }

  [[nodiscard]] std::string take() { return std::move(bytes_); }
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Bounds-checked cursor over an untrusted body.  Every read is checked
/// against the bytes remaining before it happens; a length field is never
/// trusted until it has been checked.  Overruns and value-domain defects
/// throw MalformedFrameError naming the defect.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i)
      v = static_cast<std::uint16_t>(
          v | static_cast<std::uint16_t>(
                  static_cast<unsigned char>(bytes_[pos_ + i]))
                  << (8 * i));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() { return bits_double(u64()); }
  /// A double that must be finite (wire values feeding the planners; a NaN
  /// or infinity here would poison the numerics or the cache key).
  double finite() {
    const double v = f64();
    if (!std::isfinite(v)) fail("non-finite floating-point field");
    return v;
  }
  std::string str(std::uint64_t max_len) {
    const std::uint64_t n = u64();
    if (n > max_len) fail("string length " + std::to_string(n) + " over cap");
    need(n);
    std::string s(bytes_.data() + pos_, static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean field holds " + std::to_string(v));
    return v == 1;
  }

  void expect_exhausted() const {
    if (pos_ != bytes_.size())
      fail(std::to_string(bytes_.size() - pos_) +
           " trailing bytes after body");
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw MalformedFrameError("malformed frame body: " + what);
  }

 private:
  void need(std::uint64_t n) const {
    if (n > bytes_.size() - pos_)
      fail("truncated body (needed " + std::to_string(n) + " bytes at " +
           std::to_string(pos_) + ")");
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

constexpr std::uint64_t kMaxMessageBytes = 4096;  ///< diagnostic strings
constexpr std::uint64_t kMaxHostBytes = 253;      ///< RFC 1035 name bound
constexpr std::uint64_t kMaxMembers = 1024;       ///< gossip view cap
constexpr std::uint64_t kMaxHandoffPlans = 4096;  ///< one batch's plan cap

void write_endpoint(Writer& w, const Endpoint& endpoint) {
  w.str(endpoint.host);
  w.u16(endpoint.port);
}

Endpoint read_endpoint(Reader& r) {
  Endpoint endpoint;
  endpoint.host = r.str(kMaxHostBytes);
  endpoint.port = r.u16();
  return endpoint;
}

void write_view(Writer& w, const MembershipView& view) {
  w.u64(view.epoch);
  w.u64(view.members.size());
  for (const MemberRecord& member : view.members) {
    write_endpoint(w, member.endpoint);
    w.u8(static_cast<std::uint8_t>(member.health));
    w.u64(member.incarnation);
  }
}

MembershipView read_view(Reader& r) {
  MembershipView view;
  view.epoch = r.u64();
  const std::uint64_t count = r.u64();
  if (count > kMaxMembers)
    r.fail("membership view of " + std::to_string(count) + " members");
  view.members.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    MemberRecord member;
    member.endpoint = read_endpoint(r);
    const std::uint8_t health = r.u8();
    if (health > static_cast<std::uint8_t>(MemberHealth::kDead))
      r.fail("member health holds " + std::to_string(health));
    member.health = static_cast<MemberHealth>(health);
    member.incarnation = r.u64();
    view.members.push_back(std::move(member));
  }
  return view;
}

}  // namespace

std::uint64_t fnv1a_bytes(const std::string& bytes) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

bool frame_type_known(std::uint16_t raw) noexcept {
  return raw >= static_cast<std::uint16_t>(FrameType::kPlanRequest) &&
         raw <= static_cast<std::uint16_t>(FrameType::kHandoffReply);
}

std::uint64_t frame_checksum(std::uint16_t type, std::uint64_t request_id,
                             std::uint32_t body_size,
                             const std::string& body) noexcept {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (value >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  mix(type, 2);
  mix(request_id, 8);
  mix(body_size, 4);
  for (const char c : body) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string encode_frame(FrameType type, std::uint64_t request_id,
                         const std::string& body) {
  FOSCIL_EXPECTS(body.size() <= kMaxBodyBytes);
  Writer w;
  w.raw(std::string(kFrameMagic, sizeof(kFrameMagic)));
  w.u16(kWireVersion);
  const std::uint16_t raw_type = static_cast<std::uint16_t>(type);
  w.u16(raw_type);
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.u64(frame_checksum(raw_type, request_id,
                       static_cast<std::uint32_t>(body.size()), body));
  w.raw(body);
  return w.take();
}

// ---- FrameAssembler --------------------------------------------------------

FrameAssembler::FrameAssembler(std::uint32_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

void FrameAssembler::feed(const char* data, std::size_t size) {
  if (poisoned_) return;  // the stream is already condemned
  buffer_.append(data, size);
}

FrameAssembler::Result FrameAssembler::fail(StatusCode reply,
                                            std::string defect) {
  poisoned_ = true;
  reply_ = reply;
  defect_ = std::move(defect);
  buffer_.clear();
  return Result::kBad;
}

FrameAssembler::Result FrameAssembler::next(Frame* frame) {
  FOSCIL_EXPECTS(frame != nullptr);
  if (poisoned_) return Result::kBad;
  if (buffer_.size() < kFrameHeaderSize) return Result::kNeedMore;

  // Header fields, validated in layout order so the defect reported is the
  // first one on the wire.  The header is only consumed once the whole
  // frame (header + body) is buffered.
  if (std::memcmp(buffer_.data(), kFrameMagic, sizeof(kFrameMagic)) != 0)
    return fail(StatusCode::kMalformed, "bad frame magic");

  const auto byte_at = [&](std::size_t i) {
    return static_cast<std::uint64_t>(
        static_cast<unsigned char>(buffer_[i]));
  };
  const auto read_u16 = [&](std::size_t at) {
    return static_cast<std::uint16_t>(byte_at(at) | (byte_at(at + 1) << 8));
  };
  const auto read_u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(byte_at(at + static_cast<std::size_t>(i)))
           << (8 * i);
    return v;
  };
  const auto read_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= byte_at(at + static_cast<std::size_t>(i)) << (8 * i);
    return v;
  };

  const std::uint16_t version = read_u16(4);
  if (version != kWireVersion)
    return fail(StatusCode::kUnsupportedVersion,
                "protocol version " + std::to_string(version) +
                    " (this build speaks " + std::to_string(kWireVersion) +
                    ")");
  const std::uint16_t raw_type = read_u16(6);
  if (!frame_type_known(raw_type))
    return fail(StatusCode::kMalformed,
                "unknown frame type " + std::to_string(raw_type));
  const std::uint64_t request_id = read_u64(8);
  const std::uint32_t body_size = read_u32(16);
  if (body_size > max_body_bytes_)
    return fail(StatusCode::kTooLarge,
                "declared body of " + std::to_string(body_size) +
                    " bytes exceeds the " + std::to_string(max_body_bytes_) +
                    "-byte cap");
  const std::uint64_t declared_checksum = read_u64(20);

  if (buffer_.size() < kFrameHeaderSize + body_size) return Result::kNeedMore;

  std::string body = buffer_.substr(kFrameHeaderSize, body_size);
  if (frame_checksum(raw_type, request_id, body_size, body) !=
      declared_checksum)
    return fail(StatusCode::kMalformed, "frame checksum mismatch");

  buffer_.erase(0, kFrameHeaderSize + body_size);
  frame->type = static_cast<FrameType>(raw_type);
  frame->request_id = request_id;
  frame->body = std::move(body);
  return Result::kFrame;
}

// ---- plan request ----------------------------------------------------------

std::string encode_plan_request(const WirePlanRequest& request) {
  Writer w;
  w.u64(request.platform_fp.hi);
  w.u64(request.platform_fp.lo);
  w.f64(request.t_max_c);
  w.u8(request.kind == PlannerKind::kPco ? 1 : 0);
  w.f64(request.deadline_s);
  const core::AoOptions& ao =
      request.kind == PlannerKind::kPco ? request.pco.ao : request.ao;
  w.f64(ao.base_period);
  w.f64(ao.transition_overhead);
  w.f64(ao.t_unit_fraction);
  w.u32(static_cast<std::uint32_t>(ao.max_m));
  w.u32(static_cast<std::uint32_t>(ao.m_search_patience));
  w.u8(static_cast<std::uint8_t>(ao.tpt_policy));
  w.u8(static_cast<std::uint8_t>(ao.mode_choice));
  w.f64(ao.t_max_margin);
  if (request.kind == PlannerKind::kPco) {
    w.u32(static_cast<std::uint32_t>(request.pco.phase_grid));
    w.u32(static_cast<std::uint32_t>(request.pco.phase_rounds));
    w.u32(static_cast<std::uint32_t>(request.pco.peak_samples));
    w.u32(static_cast<std::uint32_t>(request.pco.final_peak_samples));
  }
  return w.take();
}

WirePlanRequest decode_plan_request(const std::string& body) {
  Reader r(body);
  WirePlanRequest request;
  request.platform_fp.hi = r.u64();
  request.platform_fp.lo = r.u64();
  request.t_max_c = r.finite();
  const std::uint8_t kind = r.u8();
  if (kind > 1)
    r.fail("planner kind holds " + std::to_string(kind));
  request.kind = kind == 1 ? PlannerKind::kPco : PlannerKind::kAo;
  request.deadline_s = r.f64();
  if (std::isnan(request.deadline_s))
    r.fail("NaN deadline");

  core::AoOptions ao;
  ao.base_period = r.finite();
  if (!(ao.base_period > 0.0)) r.fail("non-positive base period");
  ao.transition_overhead = r.finite();
  if (ao.transition_overhead < 0.0) r.fail("negative transition overhead");
  ao.t_unit_fraction = r.finite();
  if (!(ao.t_unit_fraction > 0.0)) r.fail("non-positive t_unit fraction");
  const std::uint32_t max_m = r.u32();
  if (max_m == 0 || max_m > (1u << 24)) r.fail("m-search cap out of range");
  ao.max_m = static_cast<int>(max_m);
  const std::uint32_t patience = r.u32();
  if (patience == 0 || patience > (1u << 24))
    r.fail("m-search patience out of range");
  ao.m_search_patience = static_cast<int>(patience);
  const std::uint8_t tpt = r.u8();
  if (tpt > static_cast<std::uint8_t>(core::TptPolicy::kHottestCore))
    r.fail("TPT policy holds " + std::to_string(tpt));
  ao.tpt_policy = static_cast<core::TptPolicy>(tpt);
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(core::ModeChoice::kExtremes))
    r.fail("mode choice holds " + std::to_string(mode));
  ao.mode_choice = static_cast<core::ModeChoice>(mode);
  ao.t_max_margin = r.finite();
  if (ao.t_max_margin < 0.0) r.fail("negative T_max margin");

  if (request.kind == PlannerKind::kAo) {
    request.ao = ao;
  } else {
    request.pco.ao = ao;
    const auto bounded = [&](const char* what) {
      const std::uint32_t v = r.u32();
      if (v == 0 || v > (1u << 20))
        r.fail(std::string(what) + " out of range");
      return static_cast<int>(v);
    };
    request.pco.phase_grid = bounded("phase grid");
    request.pco.phase_rounds = bounded("phase rounds");
    request.pco.peak_samples = bounded("peak samples");
    request.pco.final_peak_samples = bounded("final peak samples");
  }
  r.expect_exhausted();
  return request;
}

// ---- plan response ---------------------------------------------------------

std::string encode_plan_response(const WirePlanResponse& response) {
  Writer w;
  w.u8(response.cache_hit ? 1 : 0);
  w.u8(response.degraded ? 1 : 0);
  w.f64(response.server_seconds);
  w.str(encode_plan_bytes(response.plan));
  return w.take();
}

WirePlanResponse decode_plan_response(const std::string& body) {
  Reader r(body);
  WirePlanResponse response;
  response.cache_hit = r.boolean();
  response.degraded = r.boolean();
  response.server_seconds = r.f64();
  const std::string plan_bytes = r.str(kMaxBodyBytes);
  r.expect_exhausted();
  try {
    response.plan = decode_plan_bytes(plan_bytes, "wire plan");
  } catch (const SnapshotError& error) {
    throw MalformedFrameError(error.what());
  }
  return response;
}

// ---- status ----------------------------------------------------------------

std::string encode_status(const WireStatus& status) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(status.code));
  w.f64(status.retry_after_s);
  w.str(status.message.substr(
      0, std::min<std::size_t>(status.message.size(), kMaxMessageBytes)));
  return w.take();
}

WireStatus decode_status(const std::string& body) {
  Reader r(body);
  WireStatus status;
  const std::uint16_t code = r.u16();
  if (code >= kStatusCodeCount)
    r.fail("status code holds " + std::to_string(code));
  status.code = static_cast<StatusCode>(code);
  status.retry_after_s = r.f64();
  if (std::isnan(status.retry_after_s) || status.retry_after_s < 0.0)
    r.fail("invalid retry-after hint");
  status.message = r.str(kMaxMessageBytes);
  r.expect_exhausted();
  return status;
}

// ---- health ----------------------------------------------------------------

std::string encode_health(const HealthInfo& info) {
  Writer w;
  w.u64(info.submitted);
  w.u64(info.completed);
  w.u64(info.planned);
  w.u64(info.fast_path_hits);
  w.u64(info.cache_entries);
  w.u64(info.cache_hits);
  w.u64(info.cache_lookups);
  w.u64(info.snapshot_saves);
  w.u64(info.snapshot_loads);
  w.u16(info.load_state);
  w.u8(info.ready);
  w.u8(info.draining);
  w.u64(info.connections);
  w.f64(info.ewma_plan_seconds);
  w.f64(info.retry_after_hint_s);
  w.u64(kStatusCodeCount);
  for (const std::uint64_t count : info.rejections_by_code) w.u64(count);
  return w.take();
}

HealthInfo decode_health(const std::string& body) {
  Reader r(body);
  HealthInfo info;
  info.submitted = r.u64();
  info.completed = r.u64();
  info.planned = r.u64();
  info.fast_path_hits = r.u64();
  info.cache_entries = r.u64();
  info.cache_hits = r.u64();
  info.cache_lookups = r.u64();
  info.snapshot_saves = r.u64();
  info.snapshot_loads = r.u64();
  info.load_state = r.u16();
  if (info.load_state > 2) r.fail("load state holds " +
                                  std::to_string(info.load_state));
  info.ready = r.boolean() ? 1 : 0;
  info.draining = r.boolean() ? 1 : 0;
  info.connections = r.u64();
  info.ewma_plan_seconds = r.f64();
  info.retry_after_hint_s = r.f64();
  // Forward-compatible within a protocol version: a peer that appends new
  // codes sends a larger count; the decoder keeps the ones it knows.
  const std::uint64_t codes = r.u64();
  if (codes > 4096) r.fail("status-code count " + std::to_string(codes));
  for (std::uint64_t i = 0; i < codes; ++i) {
    const std::uint64_t count = r.u64();
    if (i < kStatusCodeCount) info.rejections_by_code[i] = count;
  }
  r.expect_exhausted();
  return info;
}

// ---- gossip ----------------------------------------------------------------

std::string encode_gossip(const WireGossip& gossip) {
  Writer w;
  w.u8(gossip.sender_is_shard);
  write_endpoint(w, gossip.sender);
  w.u64(gossip.sender_incarnation);
  write_view(w, gossip.view);
  return w.take();
}

WireGossip decode_gossip(const std::string& body) {
  Reader r(body);
  WireGossip gossip;
  gossip.sender_is_shard = r.boolean() ? 1 : 0;
  gossip.sender = read_endpoint(r);
  gossip.sender_incarnation = r.u64();
  gossip.view = read_view(r);
  r.expect_exhausted();
  return gossip;
}

std::string encode_gossip_reply(const WireGossipReply& reply) {
  Writer w;
  write_endpoint(w, reply.responder);
  w.u64(reply.responder_incarnation);
  write_view(w, reply.view);
  return w.take();
}

WireGossipReply decode_gossip_reply(const std::string& body) {
  Reader r(body);
  WireGossipReply reply;
  reply.responder = read_endpoint(r);
  reply.responder_incarnation = r.u64();
  reply.view = read_view(r);
  r.expect_exhausted();
  return reply;
}

// ---- handoff ---------------------------------------------------------------

std::string encode_handoff(const WireHandoff& handoff) {
  FOSCIL_EXPECTS(handoff.plans.size() <= kMaxHandoffPlans);
  Writer w;
  w.u64(handoff.epoch);
  w.u64(handoff.plans.size());
  for (const ServedPlan& plan : handoff.plans)
    w.str(encode_plan_bytes(plan));
  return w.take();
}

WireHandoff decode_handoff(const std::string& body) {
  Reader r(body);
  WireHandoff handoff;
  handoff.epoch = r.u64();
  const std::uint64_t count = r.u64();
  if (count > kMaxHandoffPlans)
    r.fail("handoff batch of " + std::to_string(count) + " plans");
  handoff.plans.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string plan_bytes = r.str(kMaxBodyBytes);
    try {
      handoff.plans.push_back(
          decode_plan_bytes(plan_bytes, "handoff plan"));
    } catch (const SnapshotError& error) {
      throw MalformedFrameError(error.what());
    }
  }
  r.expect_exhausted();
  return handoff;
}

std::string encode_handoff_reply(const WireHandoffReply& reply) {
  Writer w;
  w.u64(reply.epoch);
  w.u64(reply.accepted);
  w.u64(reply.skipped_existing);
  return w.take();
}

WireHandoffReply decode_handoff_reply(const std::string& body) {
  Reader r(body);
  WireHandoffReply reply;
  reply.epoch = r.u64();
  reply.accepted = r.u64();
  reply.skipped_existing = r.u64();
  r.expect_exhausted();
  return reply;
}

// ---- ready -----------------------------------------------------------------

std::string encode_ready(const ReadyInfo& info) {
  Writer w;
  w.u8(info.ready);
  w.u8(info.draining);
  w.u64(info.warm_plans);
  w.u64(info.load_failures);
  return w.take();
}

ReadyInfo decode_ready(const std::string& body) {
  Reader r(body);
  ReadyInfo info;
  info.ready = r.boolean() ? 1 : 0;
  info.draining = r.boolean() ? 1 : 0;
  info.warm_plans = r.u64();
  info.load_failures = r.u64();
  r.expect_exhausted();
  return info;
}

}  // namespace foscil::serve::net
