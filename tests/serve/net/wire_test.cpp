// Wire codec battery: every body round-trips losslessly, the plan payload
// round-trips bit-identically (it reuses the snapshot plan codec), and the
// decoders reject value-domain defects a well-formed frame can still
// carry.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "serve/net/wire.hpp"
#include "serve/service.hpp"
#include "../../test_support.hpp"

namespace foscil::serve::net {
namespace {

WirePlanRequest sample_request() {
  WirePlanRequest request;
  request.platform_fp = {0x1234567890ABCDEFull, 0xFEDCBA0987654321ull};
  request.t_max_c = 61.5;
  request.kind = PlannerKind::kAo;
  request.deadline_s = 0.25;
  request.ao.base_period = 0.02;
  request.ao.transition_overhead = 1e-4;
  request.ao.max_m = 256;
  request.ao.m_search_patience = 6;
  request.ao.tpt_policy = core::TptPolicy::kHottestCore;
  request.ao.mode_choice = core::ModeChoice::kExtremes;
  request.ao.t_max_margin = 0.75;
  return request;
}

TEST(WireCodec, FrameRoundTripsThroughAssembler) {
  const std::string frame_bytes =
      encode_frame(FrameType::kPlanRequest, 42, "hello body");
  FrameAssembler assembler;
  assembler.feed(frame_bytes.data(), frame_bytes.size());
  Frame frame;
  ASSERT_EQ(assembler.next(&frame), FrameAssembler::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPlanRequest);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.body, "hello body");
  EXPECT_EQ(assembler.next(&frame), FrameAssembler::Result::kNeedMore);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(WireCodec, PipelinedFramesDecodeInOrder) {
  std::string stream;
  for (std::uint64_t id = 1; id <= 5; ++id)
    stream += encode_frame(FrameType::kHealth, id, "");
  FrameAssembler assembler;
  // Feed byte by byte: the assembler must produce every frame regardless
  // of how the transport fragments the stream.
  Frame frame;
  std::uint64_t next_id = 1;
  for (const char byte : stream) {
    assembler.feed(&byte, 1);
    while (assembler.next(&frame) == FrameAssembler::Result::kFrame)
      EXPECT_EQ(frame.request_id, next_id++);
  }
  EXPECT_EQ(next_id, 6u);
}

TEST(WireCodec, PlanRequestRoundTripsEveryField) {
  const WirePlanRequest request = sample_request();
  const WirePlanRequest decoded =
      decode_plan_request(encode_plan_request(request));
  EXPECT_EQ(decoded.platform_fp, request.platform_fp);
  EXPECT_EQ(decoded.t_max_c, request.t_max_c);
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.deadline_s, request.deadline_s);
  EXPECT_EQ(decoded.ao.base_period, request.ao.base_period);
  EXPECT_EQ(decoded.ao.transition_overhead, request.ao.transition_overhead);
  EXPECT_EQ(decoded.ao.t_unit_fraction, request.ao.t_unit_fraction);
  EXPECT_EQ(decoded.ao.max_m, request.ao.max_m);
  EXPECT_EQ(decoded.ao.m_search_patience, request.ao.m_search_patience);
  EXPECT_EQ(decoded.ao.tpt_policy, request.ao.tpt_policy);
  EXPECT_EQ(decoded.ao.mode_choice, request.ao.mode_choice);
  EXPECT_EQ(decoded.ao.t_max_margin, request.ao.t_max_margin);
}

TEST(WireCodec, PcoRequestCarriesItsOwnOptionBlock) {
  WirePlanRequest request = sample_request();
  request.kind = PlannerKind::kPco;
  request.pco.ao = request.ao;
  request.pco.phase_grid = 24;
  request.pco.phase_rounds = 3;
  request.pco.peak_samples = 64;
  request.pco.final_peak_samples = 128;
  const WirePlanRequest decoded =
      decode_plan_request(encode_plan_request(request));
  EXPECT_EQ(decoded.kind, PlannerKind::kPco);
  EXPECT_EQ(decoded.pco.ao.max_m, request.pco.ao.max_m);
  EXPECT_EQ(decoded.pco.phase_grid, 24);
  EXPECT_EQ(decoded.pco.phase_rounds, 3);
  EXPECT_EQ(decoded.pco.peak_samples, 64);
  EXPECT_EQ(decoded.pco.final_peak_samples, 128);
}

TEST(WireCodec, RequestBodyMapsOntoCacheKeySchema) {
  // Two requests differing in any hashed field must produce different
  // bodies (the wire carries everything plan_key() hashes), and identical
  // requests identical bodies — the 1:1 mapping the protocol promises.
  const WirePlanRequest base = sample_request();
  EXPECT_EQ(encode_plan_request(base), encode_plan_request(base));
  WirePlanRequest changed = base;
  changed.ao.t_max_margin += 0.25;
  EXPECT_NE(encode_plan_request(base), encode_plan_request(changed));
  changed = base;
  changed.t_max_c += 0.5;
  EXPECT_NE(encode_plan_request(base), encode_plan_request(changed));
  changed = base;
  changed.platform_fp.lo ^= 1;
  EXPECT_NE(encode_plan_request(base), encode_plan_request(changed));
}

TEST(WireCodec, PlanResponseRoundTripsBitIdentical) {
  const core::Platform platform = testing::grid_platform(1, 3);
  PlanRequest request;
  request.platform = platform;
  request.t_max_c = 60.0;
  request.ao.max_m = 32;
  const std::shared_ptr<const ServedPlan> plan = plan_direct(request);

  WirePlanResponse response;
  response.cache_hit = true;
  response.server_seconds = 0.125;
  response.plan = *plan;
  const WirePlanResponse decoded =
      decode_plan_response(encode_plan_response(response));
  EXPECT_TRUE(decoded.cache_hit);
  EXPECT_EQ(decoded.server_seconds, 0.125);
  EXPECT_TRUE(plans_bit_identical(decoded.plan.result, plan->result));
  EXPECT_EQ(decoded.plan.certificate_rise, plan->certificate_rise);
  EXPECT_EQ(decoded.plan.certified_safe, plan->certified_safe);
  EXPECT_EQ(decoded.plan.key, plan->key);
}

TEST(WireCodec, StatusRoundTripsAndRejectsUnknownCodes) {
  WireStatus status;
  status.code = StatusCode::kBreakerOpen;
  status.retry_after_s = 1.5;
  status.message = "open for key";
  const WireStatus decoded = decode_status(encode_status(status));
  EXPECT_EQ(decoded.code, StatusCode::kBreakerOpen);
  EXPECT_EQ(decoded.retry_after_s, 1.5);
  EXPECT_EQ(decoded.message, "open for key");

  // A code beyond the taxonomy is a body defect, not a crash or a bogus
  // enum value handed to the caller.
  std::string body = encode_status(status);
  body[0] = static_cast<char>(0xFF);
  body[1] = static_cast<char>(0xFF);
  EXPECT_THROW((void)decode_status(body), MalformedFrameError);
}

TEST(WireCodec, HealthAndReadyRoundTrip) {
  HealthInfo health;
  health.submitted = 100;
  health.completed = 90;
  health.cache_entries = 40;
  health.load_state = 1;
  health.ready = 1;
  health.connections = 7;
  health.retry_after_hint_s = 0.05;
  health.rejections_by_code[status_index(StatusCode::kShed)] = 3;
  const HealthInfo health_decoded = decode_health(encode_health(health));
  EXPECT_EQ(health_decoded.submitted, 100u);
  EXPECT_EQ(health_decoded.completed, 90u);
  EXPECT_EQ(health_decoded.cache_entries, 40u);
  EXPECT_EQ(health_decoded.load_state, 1u);
  EXPECT_EQ(health_decoded.ready, 1u);
  EXPECT_EQ(health_decoded.connections, 7u);
  EXPECT_EQ(health_decoded.retry_after_hint_s, 0.05);
  EXPECT_EQ(health_decoded.rejections_by_code[status_index(StatusCode::kShed)],
            3u);

  ReadyInfo ready;
  ready.ready = 1;
  ready.warm_plans = 16;
  const ReadyInfo ready_decoded = decode_ready(encode_ready(ready));
  EXPECT_EQ(ready_decoded.ready, 1u);
  EXPECT_EQ(ready_decoded.draining, 0u);
  EXPECT_EQ(ready_decoded.warm_plans, 16u);
}

TEST(WireCodec, ValueDomainDefectsAreMalformed) {
  // Well-formed frames carrying out-of-domain values must be rejected by
  // the body decoder, never passed into the planners.
  WirePlanRequest request = sample_request();
  request.t_max_c = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)decode_plan_request(encode_plan_request(request)),
               MalformedFrameError);
  request = sample_request();
  request.ao.base_period = -1.0;
  EXPECT_THROW((void)decode_plan_request(encode_plan_request(request)),
               MalformedFrameError);
  request = sample_request();
  request.ao.max_m = 0;
  EXPECT_THROW((void)decode_plan_request(encode_plan_request(request)),
               MalformedFrameError);

  // Truncated and padded bodies are structural defects.
  const std::string body = encode_plan_request(sample_request());
  EXPECT_THROW((void)decode_plan_request(body.substr(0, body.size() - 1)),
               MalformedFrameError);
  EXPECT_THROW((void)decode_plan_request(body + "x"), MalformedFrameError);
}

TEST(StatusTaxonomy, CodesAreStableAndNamed) {
  // Wire contract: these numeric values may never change.
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kOk), 0);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kMalformed), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kUnsupportedVersion), 2);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kTooLarge), 3);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kPlatformMismatch), 4);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kNotReady), 5);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kQueueFull), 6);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kDeadlineExpired), 7);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kShed), 8);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kBreakerOpen), 9);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kStopping), 10);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kPlannerFailed), 11);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kCancelled), 12);
  EXPECT_EQ(static_cast<std::uint16_t>(StatusCode::kDegraded), 13);
  for (std::size_t i = 0; i < kStatusCodeCount; ++i) {
    EXPECT_NE(std::string(status_code_name(static_cast<StatusCode>(i))),
              "UNKNOWN");
  }
}

TEST(StatusTaxonomy, ServiceExceptionsMapToCodes) {
  EXPECT_EQ(status_code_of(QueueFullError()), StatusCode::kQueueFull);
  EXPECT_EQ(status_code_of(DeadlineExpiredError()),
            StatusCode::kDeadlineExpired);
  EXPECT_EQ(status_code_of(OverloadedError(0.5)), StatusCode::kShed);
  EXPECT_EQ(status_code_of(BreakerOpenError(1.0, "boom")),
            StatusCode::kBreakerOpen);
  EXPECT_EQ(status_code_of(ServiceStoppedError()), StatusCode::kStopping);
  EXPECT_EQ(status_code_of(CancelledError()), StatusCode::kCancelled);
  EXPECT_EQ(status_code_of(std::runtime_error("planner blew up")),
            StatusCode::kPlannerFailed);
  // Retry-after hints survive the mapping.
  EXPECT_EQ(retry_after_of(OverloadedError(0.5)), 0.5);
  EXPECT_EQ(retry_after_of(BreakerOpenError(1.0, "boom")), 1.0);
  EXPECT_EQ(retry_after_of(std::runtime_error("x")), 0.0);
  // Only transient conditions invite a retry.
  EXPECT_TRUE(status_retryable(StatusCode::kShed));
  EXPECT_TRUE(status_retryable(StatusCode::kNotReady));
  EXPECT_TRUE(status_retryable(StatusCode::kQueueFull));
  EXPECT_TRUE(status_retryable(StatusCode::kBreakerOpen));
  EXPECT_TRUE(status_retryable(StatusCode::kStopping));
  EXPECT_FALSE(status_retryable(StatusCode::kMalformed));
  EXPECT_FALSE(status_retryable(StatusCode::kPlatformMismatch));
  EXPECT_FALSE(status_retryable(StatusCode::kPlannerFailed));
  EXPECT_FALSE(status_retryable(StatusCode::kDeadlineExpired));
}

}  // namespace
}  // namespace foscil::serve::net
