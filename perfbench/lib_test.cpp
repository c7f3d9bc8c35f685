// Unit tests of the benchmark's measurement helpers (lib.hpp).
#include "lib.hpp"

#include <gtest/gtest.h>

#include <set>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankReturnsAMeasuredSample) {
  EXPECT_EQ(percentile(one_to(100), 50), 50.0);
  EXPECT_EQ(percentile(one_to(100), 99), 99.0);
  EXPECT_EQ(percentile(one_to(1000), 99), 990.0);
  EXPECT_EQ(percentile(one_to(7), 50), 4.0);
  EXPECT_EQ(percentile({3.5}, 99), 3.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50)));
}

TEST(Percentile, CountsSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99), 10u);
  EXPECT_EQ(samples_beyond(1000, 99.9), 1u);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(5, 99), 0u);
}

TEST(Percentile, HighestSupportedKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(40), 75.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
}

TEST(Percentile, BlockedTakesTheMedianOfPerBlockPercentiles) {
  // Three blocks of 100: p99 is rank 99 of each, i.e. offset + 98.
  std::vector<double> values;
  for (double offset : {0.0, 1000.0, 500.0})
    for (int i = 0; i < 100; ++i) values.push_back(offset + i);
  EXPECT_EQ(perfbench::blocked_percentile(values, 100, 99.0), 598.0);
  // A short remainder joins the last block instead of forming its own
  // (a fourth block {0} would make the median 98).
  values.push_back(0.0);
  EXPECT_EQ(perfbench::blocked_percentile(values, 100, 99.0), 598.0);
  // Fewer samples than a block form one block.
  EXPECT_EQ(perfbench::blocked_percentile({3.0, 1.0, 2.0}, 100, 50.0), 2.0);
  EXPECT_TRUE(std::isnan(perfbench::blocked_percentile({}, 100, 50.0)));
}

TEST(Percentile, BlockedIgnoresOneSlowStretch) {
  // Nine blocks of 1000; one slow stretch covers a whole block with 10x
  // latency.  The whole-run p99 lands in it; the blocked p99 does not.
  std::vector<double> values;
  for (int b = 0; b < 9; ++b)
    for (int i = 0; i < 1000; ++i)
      values.push_back((b == 4 ? 10.0 : 1.0) * (1.0 + i % 100 / 100.0));
  EXPECT_GE(perfbench::percentile(values, 99.0), 10.0);
  EXPECT_LT(perfbench::blocked_percentile(values, 1000, 99.0), 2.0);
}

TEST(Generation, ZipfKeysAreDeterministicPerSeed) {
  const ZipfSampler zipf(100000, 1.1);
  auto draw = [&](std::uint64_t seed) {
    SplitMix rng(seed);
    const std::vector<std::size_t> perm = permutation(100000, rng);
    std::vector<std::size_t> keys;
    for (int i = 0; i < 2000; ++i) keys.push_back(perm[zipf.rank(rng.uniform())]);
    return keys;
  };
  EXPECT_EQ(draw(42), draw(42));
  EXPECT_NE(draw(42), draw(43));
}

TEST(Generation, ZipfFavoursLowRanks) {
  const ZipfSampler zipf(100000, 1.1);
  SplitMix rng(1);
  std::size_t top = 0, head = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const std::size_t r = zipf.rank(rng.uniform());
    ASSERT_LT(r, 100000u);
    top += r == 0;
    head += r < 1024;
  }
  // The sample frequencies match the distribution's own masses.
  EXPECT_NEAR(static_cast<double>(top) / n, zipf.head_mass(1), 0.01);
  EXPECT_NEAR(static_cast<double>(head) / n, zipf.head_mass(1024), 0.01);
  EXPECT_GT(zipf.head_mass(1024), 0.6);
  EXPECT_LT(zipf.head_mass(1024), 0.9);
}

TEST(Generation, ArrivalsAreDeterministicPoisson) {
  auto arrivals = [](std::uint64_t seed) {
    SplitMix rng(seed);
    return poisson_arrivals(300.0, 100.0, rng);
  };
  const std::vector<double> a = arrivals(5);
  EXPECT_EQ(a, arrivals(5));
  EXPECT_NE(a, arrivals(6));
  EXPECT_NEAR(static_cast<double>(a.size()), 30000.0, 600.0);  // ~3.5 sigma
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 100.0);
}

TEST(Generation, StratifiedValuesCoverEveryStratumPerBlock) {
  SplitMix rng(9);
  const std::vector<double> v = stratified_values(24, 8, 53.0, 57.0, rng);
  ASSERT_EQ(v.size(), 24u);
  EXPECT_EQ(std::set<double>(v.begin(), v.end()).size(), 24u);
  for (std::size_t block = 0; block < 3; ++block) {
    std::set<int> strata;
    for (std::size_t i = 0; i < 8; ++i) {
      const double x = v[block * 8 + i];
      ASSERT_GE(x, 53.0);
      ASSERT_LT(x, 57.0);
      strata.insert(static_cast<int>((x - 53.0) / 0.5));
    }
    EXPECT_EQ(strata.size(), 8u);
  }
  SplitMix again(9);
  EXPECT_EQ(v, stratified_values(24, 8, 53.0, 57.0, again));
}

/// A single-sender open loop on a fake clock: requests due every 10 ms,
/// each served in 1 ms, except that request 0 stalls the server for 500 ms.
std::vector<Sent> fake_open_loop(double stall) {
  std::vector<double> due;
  for (int i = 0; i < 100; ++i) due.push_back(0.01 * i);
  std::vector<Sent> out(due.size());
  std::atomic<std::size_t> next{0};
  double clock = 0.0;
  open_loop_sender(
      due, next, out, [&] { return clock; },
      [&](double t) { clock = std::max(clock, t); },
      [&](std::size_t i) {
        clock += i == 0 ? stall : 0.001;
        return true;
      });
  return out;
}

TEST(OpenLoop, LatencyCountsFromTheIntendedSendTime) {
  const std::vector<Sent> calm = fake_open_loop(0.001);
  for (const Sent& s : calm) {
    EXPECT_NEAR(s.latency(), 0.001, 1e-12);
    EXPECT_NEAR(s.lag(), 0.0, 1e-12);
  }
  const std::vector<Sent> stalled = fake_open_loop(0.5);
  EXPECT_NEAR(stalled[0].latency(), 0.5, 1e-12);
  // Request 1 was due at 10 ms but could only leave at 500 ms: its
  // latency carries the wait the stall imposed, not just its 1 ms service.
  EXPECT_NEAR(stalled[1].lag(), 0.49, 1e-12);
  EXPECT_NEAR(stalled[1].latency(), 0.491, 1e-12);
  // Each later request is charged the remaining backlog until it drains.
  for (std::size_t i = 1; i < 40; ++i)
    EXPECT_GT(stalled[i].latency(), 0.1) << i;
  EXPECT_NEAR(stalled.back().latency(), 0.001, 1e-12);
  // A closed-loop measurement (from the actual send) would hide all of it.
  for (std::size_t i = 1; i < stalled.size(); ++i)
    EXPECT_NEAR(stalled[i].done - stalled[i].sent, 0.001, 1e-12);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"request", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},    // overlaps a: [1, 6] is covered once
      {"c", 9.0, 12.0, 0, 1},   // runs past the parent: clipped to [9, 10]
      {"a.x", 2.0, 3.0, 1, 1},  // child of a
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);

  const auto by_name = self_times_by_name(spans);
  EXPECT_EQ(by_name.at("request"), std::vector<double>{4.0});
  EXPECT_EQ(by_name.at("a"), std::vector<double>{2.0});
}

TEST(Spans, AppendRebasesParents) {
  Trace a;
  a.close(a.open("x", 0.0, -1, 1), 1.0);
  Trace b;
  const std::size_t root = b.open("root", 0.0, -1, 2);
  b.close(b.open("child", 0.5, static_cast<long>(root), 2), 1.5);
  b.close(root, 2.0);
  a.append(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_DOUBLE_EQ(self_times(a.spans())[1], 1.0);
}

}  // namespace
}  // namespace perfbench
