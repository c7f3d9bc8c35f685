// Crash-safe persistence: snapshots round-trip the plan cache and the
// identify state bit-identically, corrupt files of every flavor are
// rejected with a clean SnapshotError (never a crash, never a partial
// load), and the service warm-starts from a good snapshot while starting
// cold — and still serving — from a bad one.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "../test_support.hpp"

namespace foscil::serve {
namespace {

std::string temp_path(const std::string& name) {
  // ctest runs each test case as its own process, possibly in parallel;
  // the pid keeps concurrently-running cases off each other's files.
  return ::testing::TempDir() + "foscil_" + std::to_string(::getpid()) +
         "_" + name;
}

PlanRequest request_2x2(double t_max_c, PlannerKind kind = PlannerKind::kAo) {
  PlanRequest request;
  request.platform = testing::grid_platform(2, 2);
  request.t_max_c = t_max_c;
  request.kind = kind;
  return request;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void expect_served_plans_equal(const ServedPlan& a, const ServedPlan& b) {
  EXPECT_TRUE(plans_bit_identical(a.result, b.result));
  // The certificate and flags must survive verbatim too — a reloaded plan
  // is served without re-certification.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.certificate_rise),
            std::bit_cast<std::uint64_t>(b.certificate_rise));
  EXPECT_EQ(a.certified_safe, b.certified_safe);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.degraded, b.degraded);
}

SnapshotData real_snapshot_data() {
  SnapshotData data;
  data.plans.push_back(*plan_direct(request_2x2(55.0)));
  data.plans.push_back(*plan_direct(request_2x2(65.0, PlannerKind::kPco)));
  PlanRequest degraded = request_2x2(60.0);
  degraded.ao.max_m = 16;
  data.plans.push_back(*plan_direct(degraded, /*degraded=*/true));
  return data;
}

// ---- round trips ---------------------------------------------------------

TEST(Snapshot, RoundTripsPlansBitIdentically) {
  const std::string path = temp_path("roundtrip.snap");
  const SnapshotData saved = real_snapshot_data();
  save_snapshot(path, saved);

  const SnapshotData loaded = load_snapshot(path);
  ASSERT_EQ(loaded.plans.size(), saved.plans.size());
  for (std::size_t i = 0; i < saved.plans.size(); ++i)
    expect_served_plans_equal(saved.plans[i], loaded.plans[i]);
  EXPECT_FALSE(loaded.identify.has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, RoundTripsIdentifyStateBitIdentically) {
  const std::string path = temp_path("identify.snap");
  SnapshotData saved;
  core::IdentifyState state;
  state.theta = linalg::Vector{0.125, -3.5e-7, 1.0 / 3.0};
  state.covariance = linalg::Matrix(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      state.covariance(r, c) = 1.0 / (1.0 + static_cast<double>(r * 3 + c));
  state.updates = 417;
  state.polls = 1234;
  state.seconds = 98.7654321;
  saved.identify = state;
  save_snapshot(path, saved);

  const SnapshotData loaded = load_snapshot(path);
  ASSERT_TRUE(loaded.identify.has_value());
  const core::IdentifyState& got = *loaded.identify;
  ASSERT_EQ(got.theta.size(), state.theta.size());
  for (std::size_t i = 0; i < state.theta.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.theta[i]),
              std::bit_cast<std::uint64_t>(state.theta[i]));
  ASSERT_EQ(got.covariance.rows(), state.covariance.rows());
  ASSERT_EQ(got.covariance.cols(), state.covariance.cols());
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.covariance(r, c)),
                std::bit_cast<std::uint64_t>(state.covariance(r, c)));
  EXPECT_EQ(got.updates, state.updates);
  EXPECT_EQ(got.polls, state.polls);
  EXPECT_EQ(got.seconds, state.seconds);
  std::remove(path.c_str());
}

TEST(Snapshot, SaveIntoMissingDirectoryThrowsAndLeavesNoFile) {
  const std::string path =
      temp_path("no_such_dir") + "/deeper/also_missing.snap";
  EXPECT_THROW(save_snapshot(path, SnapshotData{}), SnapshotError);
}

// ---- corruption battery --------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_path("corruption.snap");
    save_snapshot(path_, real_snapshot_data());
    good_ = read_file(path_);
    ASSERT_GE(good_.size(), 32u) << "header alone is 32 bytes";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expect_rejected(const std::string& bytes, const char* what) {
    write_file(path_, bytes);
    EXPECT_THROW((void)load_snapshot(path_), SnapshotError) << what;
  }

  std::string path_;
  std::string good_;  // a known-good snapshot image to corrupt
};

TEST_F(SnapshotCorruption, MissingFileIsRejected) {
  std::remove(path_.c_str());
  EXPECT_THROW((void)load_snapshot(path_), SnapshotError);
}

TEST_F(SnapshotCorruption, EmptyFileIsRejected) {
  expect_rejected("", "empty file");
}

TEST_F(SnapshotCorruption, WrongMagicIsRejected) {
  std::string bad = good_;
  bad.replace(0, 8, "NOTASNAP");
  expect_rejected(bad, "wrong magic");
}

TEST_F(SnapshotCorruption, FutureFormatVersionIsRejected) {
  // The u32 version lives at offset 8; make it a far-future value.
  std::string bad = good_;
  bad[8] = static_cast<char>(0xE7);
  bad[9] = static_cast<char>(0x03);  // little-endian 999
  expect_rejected(bad, "future version");
  // A version-1 snapshot keys its plans under cache-key schema v3, which
  // still hashed the evaluation engine: reject, never migrate.
  bad = good_;
  bad[8] = 1;
  bad[9] = 0;
  expect_rejected(bad, "version 1");
}

TEST_F(SnapshotCorruption, NonZeroReservedFlagsAreRejected) {
  std::string bad = good_;
  bad[12] = static_cast<char>(bad[12] ^ 0x01);
  expect_rejected(bad, "reserved flags");
}

TEST_F(SnapshotCorruption, TruncatedHeaderIsRejected) {
  expect_rejected(good_.substr(0, 10), "truncated inside the header");
}

TEST_F(SnapshotCorruption, TruncatedPayloadIsRejected) {
  expect_rejected(good_.substr(0, good_.size() - 7), "truncated payload");
}

TEST_F(SnapshotCorruption, FlippedPayloadByteIsRejectedByChecksum) {
  std::string bad = good_;
  bad[40] = static_cast<char>(bad[40] ^ 0x10);  // inside the payload
  expect_rejected(bad, "flipped payload byte");
}

TEST_F(SnapshotCorruption, FlippedChecksumByteIsRejected) {
  std::string bad = good_;
  bad[24] = static_cast<char>(bad[24] ^ 0x01);  // checksum field itself
  expect_rejected(bad, "flipped checksum byte");
}

TEST_F(SnapshotCorruption, TrailingGarbageIsRejected) {
  expect_rejected(good_ + "extra", "bytes after the payload");
}

TEST_F(SnapshotCorruption, ErrorMessageNamesTheFile) {
  write_file(path_, "");
  try {
    (void)load_snapshot(path_);
    FAIL() << "expected SnapshotError";
  } catch (const SnapshotError& error) {
    EXPECT_NE(std::string(error.what()).find(path_), std::string::npos);
  }
}

// ---- service integration -------------------------------------------------

TEST(SnapshotService, WarmRestartServesBitIdenticalPlansWithoutReplanning) {
  const std::string path = temp_path("warm_restart.snap");
  std::remove(path.c_str());

  std::vector<PlanRequest> requests = {request_2x2(50.0), request_2x2(58.0),
                                       request_2x2(66.0, PlannerKind::kPco)};
  std::vector<std::shared_ptr<const ServedPlan>> first_life;
  {
    ServiceOptions options;
    options.workers = 2;
    options.snapshot_path = path;  // stop() flushes the final snapshot
    PlanningService service(options);
    for (const PlanRequest& request : requests)
      first_life.push_back(service.submit(request).get().plan);
    EXPECT_EQ(service.stats().snapshot_load_failures, 1u)
        << "no snapshot yet: the warm-start attempt fails and is counted";
  }

  ServiceOptions options;
  options.workers = 2;
  options.snapshot_path = path;
  PlanningService revived(options);
  const ServiceStats booted = revived.stats();
  EXPECT_EQ(booted.snapshot_loads, 1u);
  EXPECT_EQ(booted.snapshot_load_failures, 0u);
  EXPECT_EQ(booted.cache.entries, requests.size());

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const PlanResponse response = revived.submit(requests[i]).get();
    EXPECT_TRUE(response.cache_hit) << "request " << i;
    expect_served_plans_equal(*first_life[i], *response.plan);
  }
  EXPECT_EQ(revived.stats().planned, 0u)
      << "a warm start plans nothing for repeated traffic";
  std::remove(path.c_str());
}

TEST(SnapshotService, CorruptSnapshotMeansCountedColdStartNotACrash) {
  const std::string path = temp_path("cold_start.snap");
  {
    ServiceOptions options;
    options.workers = 1;
    options.snapshot_path = path;
    PlanningService service(options);
    (void)service.submit(request_2x2(55.0)).get();
  }
  // Corrupt the flushed snapshot in place.
  std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 40u);
  bytes[40] = static_cast<char>(bytes[40] ^ 0xFF);
  write_file(path, bytes);

  ServiceOptions options;
  options.workers = 1;
  options.snapshot_path = path;
  PlanningService service(options);
  const ServiceStats booted = service.stats();
  EXPECT_EQ(booted.snapshot_loads, 0u);
  EXPECT_EQ(booted.snapshot_load_failures, 1u);
  EXPECT_EQ(booted.cache.entries, 0u) << "cold cache, no partial load";

  // Degraded to cold — but degraded gracefully: the service still serves.
  const PlanResponse response = service.submit(request_2x2(55.0)).get();
  EXPECT_FALSE(response.cache_hit);
  ASSERT_NE(response.plan, nullptr);
  EXPECT_TRUE(response.plan->certified_safe);
  std::remove(path.c_str());
}

TEST(SnapshotService, PeriodicFlushWritesWithoutStopping) {
  const std::string path = temp_path("periodic.snap");
  std::remove(path.c_str());
  ServiceOptions options;
  options.workers = 1;
  options.snapshot_path = path;
  options.snapshot_period_s = 0.02;
  PlanningService service(options);
  (void)service.submit(request_2x2(55.0)).get();

  // The background thread must flush on its own while the service runs.
  for (int i = 0; i < 200 && service.stats().snapshot_saves == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(service.stats().snapshot_saves, 1u);
  const SnapshotData on_disk = load_snapshot(path);
  EXPECT_EQ(on_disk.plans.size(), 1u);
  service.stop();
  std::remove(path.c_str());
}

TEST(SnapshotService, ExplicitSaveRestoresLruOrderAcrossRestart) {
  const std::string path = temp_path("lru_order.snap");
  ServiceOptions options;
  options.workers = 1;
  options.cache_capacity = 2;  // tight cache: order decides who survives
  options.cache_shards = 1;
  PlanningService service(options);
  const PlanRequest a = request_2x2(50.0);
  const PlanRequest b = request_2x2(60.0);
  (void)service.submit(a).get();
  (void)service.submit(b).get();
  (void)service.submit(a).get();  // touch a: b is now the LRU victim
  service.save_snapshot_file(path);
  EXPECT_EQ(service.stats().snapshot_saves, 1u);

  ServiceOptions revived_options;
  revived_options.workers = 1;
  revived_options.cache_capacity = 2;
  revived_options.cache_shards = 1;
  revived_options.snapshot_path = path;
  PlanningService revived(revived_options);
  // A new insert must evict b (least recently used before the restart),
  // not a — proving the snapshot preserved recency order.
  (void)revived.submit(request_2x2(70.0)).get();
  EXPECT_TRUE(revived.submit(a).get().cache_hit);
  EXPECT_FALSE(revived.submit(b).get().cache_hit);
  std::remove(path.c_str());
}

TEST(SnapshotService, ConcurrentFlushersNeverCorruptTheSnapshotFile) {
  // Regression: the periodic flusher, explicit save_snapshot_file callers,
  // and stop()'s final flush all target the same path.  Without the flush
  // mutex two writers interleave stage-and-rename and a reader can observe
  // a torn file.  Hammer every writer concurrently while mutating the
  // cache; the file must load cleanly at every moment and after stop().
  const std::string path = temp_path("concurrent_flush.snap");
  std::remove(path.c_str());
  {
    ServiceOptions options;
    options.workers = 2;
    options.snapshot_path = path;
    options.snapshot_period_s = 0.005;  // aggressive periodic flusher
    PlanningService service(options);
    (void)service.submit(request_2x2(55.0)).get();
    // Seed the file before any concurrent reader looks: a not-yet-created
    // file is a legal state but not the torn-write defect under test.
    service.save_snapshot_file(path);

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w)
      writers.emplace_back([&service, &path, &done] {
        while (!done.load()) service.save_snapshot_file(path);
      });
    std::thread mutator([&service, &done] {
      double t_max = 56.0;
      while (!done.load()) {
        (void)service.submit(request_2x2(t_max)).get();
        t_max += 0.5;
      }
    });
    // Concurrent reader: every observable file state must parse.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    int loads = 0;
    while (std::chrono::steady_clock::now() < until) {
      EXPECT_NO_THROW((void)load_snapshot(path)) << "torn snapshot observed";
      ++loads;
    }
    EXPECT_GT(loads, 0);
    done.store(true);
    for (std::thread& writer : writers) writer.join();
    mutator.join();
    service.stop();  // final flush races nothing: writers are joined
  }
  // The file stop() left behind warms a fresh service.
  ServiceOptions revived_options;
  revived_options.workers = 1;
  revived_options.snapshot_path = path;
  PlanningService revived(revived_options);
  EXPECT_EQ(revived.stats().snapshot_loads, 1u);
  EXPECT_GE(revived.stats().cache.entries, 1u);
  std::remove(path.c_str());
}

TEST(SnapshotService, IdentifyStateTravelsThroughServiceSnapshots) {
  const std::string path = temp_path("service_identify.snap");
  {
    ServiceOptions options;
    options.workers = 1;
    options.snapshot_path = path;
    PlanningService service(options);
    core::IdentifyState state;
    state.theta = linalg::Vector{1.5, -2.25};
    state.covariance = linalg::Matrix(2, 2, 0.5);
    state.updates = 12;
    state.polls = 99;
    state.seconds = 3.75;
    service.set_identify_state(state);
  }
  ServiceOptions options;
  options.workers = 1;
  options.snapshot_path = path;
  PlanningService service(options);
  const std::optional<core::IdentifyState> loaded =
      service.loaded_identify_state();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->theta.size(), 2u);
  EXPECT_EQ(loaded->theta[0], 1.5);
  EXPECT_EQ(loaded->theta[1], -2.25);
  EXPECT_EQ(loaded->updates, 12u);
  EXPECT_EQ(loaded->polls, 99u);
  EXPECT_EQ(loaded->seconds, 3.75);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace foscil::serve
