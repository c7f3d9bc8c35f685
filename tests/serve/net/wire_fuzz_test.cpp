// Deterministic structured-fuzz battery for the frame decoder — the
// single inbound-byte path of the networked tier (satellite of the
// robustness contract in serve/net/wire.hpp).
//
// Every case asserts the same invariant: no input, however corrupt, may
// crash the assembler or the body decoders.  The only permitted outcomes
// are kNeedMore, a fully validated frame, or kBad carrying a MALFORMED /
// UNSUPPORTED_VERSION / TOO_LARGE reply and a poisoned stream.  This file
// runs in the ASan/UBSan CI lane, so "no crash" means no overflow, no
// uninitialized read, and no UB — not just no segfault.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/net/wire.hpp"
#include "util/rng.hpp"

namespace foscil::serve::net {
namespace {

std::string sample_frame() {
  WirePlanRequest request;
  request.platform_fp = {7, 9};
  request.t_max_c = 55.0;
  return encode_frame(FrameType::kPlanRequest, 17,
                      encode_plan_request(request));
}

/// Feed `bytes` and classify: returns every decoded frame, asserts the
/// decoder lands in a defined state.
struct FuzzOutcome {
  std::vector<Frame> frames;
  bool bad = false;
  StatusCode reply = StatusCode::kOk;
};

FuzzOutcome drive(const std::string& bytes, std::size_t chunk = 7) {
  FrameAssembler assembler;
  FuzzOutcome outcome;
  for (std::size_t at = 0; at < bytes.size(); at += chunk) {
    assembler.feed(bytes.data() + at, std::min(chunk, bytes.size() - at));
    Frame frame;
    for (;;) {
      const FrameAssembler::Result result = assembler.next(&frame);
      if (result == FrameAssembler::Result::kNeedMore) break;
      if (result == FrameAssembler::Result::kBad) {
        outcome.bad = true;
        outcome.reply = assembler.reply();
        EXPECT_FALSE(assembler.defect().empty());
        // Poisoned is terminal: more bytes may not resurrect the stream.
        assembler.feed(bytes.data(), std::min<std::size_t>(8, bytes.size()));
        EXPECT_EQ(assembler.next(&frame), FrameAssembler::Result::kBad);
        return outcome;
      }
      outcome.frames.push_back(frame);
    }
  }
  return outcome;
}

TEST(WireFuzz, TruncationAtEveryBoundary) {
  // Every strict prefix of a valid frame must yield kNeedMore (never a
  // frame, never a crash); the full frame must decode.
  const std::string frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    const FuzzOutcome outcome = drive(frame.substr(0, len), 3);
    EXPECT_FALSE(outcome.bad) << "prefix length " << len;
    EXPECT_TRUE(outcome.frames.empty()) << "prefix length " << len;
  }
  const FuzzOutcome full = drive(frame, 1);
  EXPECT_FALSE(full.bad);
  ASSERT_EQ(full.frames.size(), 1u);
  EXPECT_EQ(full.frames[0].request_id, 17u);
}

TEST(WireFuzz, EverySingleBitFlipIsHandled) {
  // Flip each bit of a valid frame in turn.  The checksum covers every
  // semantic header field plus the body, so NO flip may ever yield a
  // frame: the outcome is a classified defect or more-bytes-wanted
  // (length-field flips that *grow* the declared body) — never a decoded
  // frame, never a crash.
  const std::string frame = sample_frame();
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      const FuzzOutcome outcome = drive(mutated);
      EXPECT_TRUE(outcome.frames.empty())
          << "byte " << byte << " bit " << bit
          << " decoded despite corruption";
      if (outcome.bad) {
        EXPECT_TRUE(outcome.reply == StatusCode::kMalformed ||
                    outcome.reply == StatusCode::kUnsupportedVersion ||
                    outcome.reply == StatusCode::kTooLarge)
            << "byte " << byte << " bit " << bit;
      }
    }
  }
}

TEST(WireFuzz, CorruptedBodyBitsFailTheChecksum) {
  // Body corruption specifically must be caught by the FNV-1a checksum
  // (the header survives intact, so only the checksum stands between a
  // flipped payload bit and the body decoder).
  const std::string frame = sample_frame();
  for (std::size_t byte = kFrameHeaderSize; byte < frame.size(); ++byte) {
    std::string mutated = frame;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x10);
    const FuzzOutcome outcome = drive(mutated);
    EXPECT_TRUE(outcome.bad) << "body byte " << byte;
    EXPECT_EQ(outcome.reply, StatusCode::kMalformed) << "body byte " << byte;
  }
}

TEST(WireFuzz, OversizedDeclaredLengthIsRejectedBeforeBuffering) {
  // A header declaring a body over the cap must be rejected from the
  // header alone — the assembler may not wait for (or try to buffer) the
  // phantom gigabytes.
  std::string frame = sample_frame();
  const std::uint32_t huge = kMaxBodyBytes + 1;
  for (int i = 0; i < 4; ++i)
    frame[16 + static_cast<std::size_t>(i)] =
        static_cast<char>((huge >> (8 * i)) & 0xFF);
  FrameAssembler assembler;
  assembler.feed(frame.data(), kFrameHeaderSize);  // header only
  Frame decoded;
  EXPECT_EQ(assembler.next(&decoded), FrameAssembler::Result::kBad);
  EXPECT_EQ(assembler.reply(), StatusCode::kTooLarge);
}

TEST(WireFuzz, TightReceiverCapIsEnforced) {
  // A server configured with a small inbound cap rejects bodies a default
  // assembler would accept.
  const std::string frame = sample_frame();
  FrameAssembler tight(16);
  tight.feed(frame.data(), frame.size());
  Frame decoded;
  EXPECT_EQ(tight.next(&decoded), FrameAssembler::Result::kBad);
  EXPECT_EQ(tight.reply(), StatusCode::kTooLarge);
}

TEST(WireFuzz, VersionSkewIsClassified) {
  // Version 1 (the body-only-checksum ancestor) and version 2 (whose plan
  // requests still carried the evaluation-engine byte) are skew like any
  // other.
  for (const std::uint16_t version :
       {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{2},
        std::uint16_t{0xFFFF}}) {
    std::string frame = sample_frame();
    frame[4] = static_cast<char>(version & 0xFF);
    frame[5] = static_cast<char>(version >> 8);
    const FuzzOutcome outcome = drive(frame);
    EXPECT_TRUE(outcome.bad);
    EXPECT_EQ(outcome.reply, StatusCode::kUnsupportedVersion);
  }
}

TEST(WireFuzz, UnknownTypesAndBadMagicAreMalformed) {
  std::string frame = sample_frame();
  frame[6] = static_cast<char>(0xEE);
  frame[7] = static_cast<char>(0xEE);
  FuzzOutcome outcome = drive(frame);
  EXPECT_TRUE(outcome.bad);
  EXPECT_EQ(outcome.reply, StatusCode::kMalformed);

  frame = sample_frame();
  frame[0] = 'X';
  outcome = drive(frame);
  EXPECT_TRUE(outcome.bad);
  EXPECT_EQ(outcome.reply, StatusCode::kMalformed);
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  // Unstructured noise: any classified outcome is acceptable, crashing or
  // hanging is not.  Seeded, so a failure reproduces.
  Rng rng(20260808);
  for (int trial = 0; trial < 200; ++trial) {
    const int len = rng.uniform_int(0, 256);
    std::string noise;
    for (int i = 0; i < len; ++i)
      noise.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    (void)drive(noise, static_cast<std::size_t>(rng.uniform_int(1, 16)));
  }
}

TEST(WireFuzz, RandomlyCorruptedBodiesNeverCrashTheDecoders) {
  // Structured attack on the body decoders: valid frame envelope (magic,
  // version, type, length, recomputed checksum) around a corrupted body,
  // so the bytes reach decode_plan_request / decode_status / decode_health
  // instead of dying at the checksum.  The decoders must throw
  // MalformedFrameError or decode — nothing else.
  Rng rng(987654321);
  WirePlanRequest request;
  request.platform_fp = {1, 2};
  const std::string bodies[] = {
      encode_plan_request(request),
      encode_status({StatusCode::kShed, 0.25, "x"}),
      encode_health(HealthInfo{}),
      encode_ready(ReadyInfo{}),
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::string body = bodies[rng.uniform_int(0, 3)];
    const int mutations = rng.uniform_int(1, 8);
    for (int m = 0; m < mutations && !body.empty(); ++m) {
      const std::size_t at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(body.size()) - 1));
      body[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    if (rng.uniform_int(0, 3) == 0)
      body = body.substr(0, static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<int>(body.size()))));
    try {
      (void)decode_plan_request(body);
    } catch (const MalformedFrameError&) {
    }
    try {
      (void)decode_status(body);
    } catch (const MalformedFrameError&) {
    }
    try {
      (void)decode_health(body);
    } catch (const MalformedFrameError&) {
    }
    try {
      (void)decode_ready(body);
    } catch (const MalformedFrameError&) {
    }
  }
}

TEST(WireFuzz, GarbageAfterAValidFrameStillPoisonsCleanly) {
  // A peer that speaks one good frame then turns to noise: the good frame
  // decodes, the noise classifies, the stream dies.
  const std::string good = sample_frame();
  std::string stream = good + "GARBAGE GARBAGE GARBAGE GARBAGE";
  const FuzzOutcome outcome = drive(stream);
  EXPECT_EQ(outcome.frames.size(), 1u);
  EXPECT_TRUE(outcome.bad);
  EXPECT_EQ(outcome.reply, StatusCode::kMalformed);
}

}  // namespace
}  // namespace foscil::serve::net
