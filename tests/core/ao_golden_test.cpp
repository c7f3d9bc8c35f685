// Golden AO plans, pinned bit for bit: m, the evaluation count, and the bit
// patterns of the throughput and the peak rise, as planned when candidate
// scans still built every candidate schedule from scratch and fanned out
// across threads.  The values must not move for either ablation, for PCO
// (which continues from AO's internal state on the same analyzer), or
// under the forced-scalar kernels.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/ao.hpp"
#include "core/pco.hpp"
#include "linalg/simd.hpp"

namespace foscil::core {
namespace {

struct Golden {
  int m;
  std::size_t evaluations;
  std::uint64_t throughput_bits;
  std::uint64_t peak_rise_bits;
};

void expect_golden(const SchedulerResult& result, const Golden& golden) {
  EXPECT_EQ(result.m, golden.m);
  EXPECT_EQ(result.evaluations, golden.evaluations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.throughput),
            golden.throughput_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(result.peak_rise),
            golden.peak_rise_bits);
  EXPECT_TRUE(result.feasible);
}

Platform paper_platform(std::size_t rows, std::size_t cols, int levels) {
  return make_grid_platform(rows, cols,
                            power::VoltageLevels::paper_table4(levels));
}

struct GoldenCase {
  double t_max_c;
  Golden plan;
  std::size_t hottest_core_evaluations;  // kHottestCore lands on the same
                                         // plan with fewer candidates
};

class GoldenAo : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenAo, BitIdenticalForEveryThreadCountAndAblation) {
  const GoldenCase& c = GetParam();
  const Platform platform = paper_platform(4, 4, 2);
  expect_golden(run_ao(platform, c.t_max_c), c.plan);
  {
    SCOPED_TRACE("kHottestCore");
    AoOptions options;
    options.tpt_policy = TptPolicy::kHottestCore;
    Golden hottest = c.plan;
    hottest.evaluations = c.hottest_core_evaluations;
    expect_golden(run_ao(platform, c.t_max_c, options), hottest);
  }
  {
    // With two levels the extremes are the neighbors: same plan.
    SCOPED_TRACE("kExtremes");
    AoOptions options;
    options.mode_choice = ModeChoice::kExtremes;
    expect_golden(run_ao(platform, c.t_max_c, options), c.plan);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPlatform4x4, GoldenAo,
    ::testing::Values(
        GoldenCase{53.0,
                   {38, 36097, 0x3fe5e4838985bed6ull, 0x4031ffc8285c25fbull},
                   2302},
        GoldenCase{55.0,
                   {38, 40321, 0x3fe69edc7c2a604aull, 0x4033ff6b5e98e574ull},
                   2566},
        GoldenCase{57.0,
                   {38, 43537, 0x3fe759f5e84ecc95ull, 0x4035ffacc141bb2full},
                   2767}),
    [](const ::testing::TestParamInfo<GoldenCase>& param_info) {
      return "tmax" +
             std::to_string(static_cast<int>(param_info.param.t_max_c));
    });

TEST(GoldenAoPlans, ThreeLevelNeighboringAndExtremes) {
  // With three levels the extremes ablation really changes the mode pair.
  const Platform platform = paper_platform(4, 4, 3);
  AoOptions options;
  expect_golden(run_ao(platform, 55.0, options),
                {30, 14473, 0x3fe9624aaadc247eull, 0x4033ffac4adbfc4aull});
  options.mode_choice = ModeChoice::kExtremes;
  expect_golden(run_ao(platform, 55.0, options),
                {38, 40321, 0x3fe69edc7c2a604aull, 0x4033ff6b5e98e574ull});
}

TEST(GoldenAoPlans, ForcedScalarKernelsPlanTheSameBits) {
  struct ScalarKernels {
    ScalarKernels()
        : previous(linalg::simd::set_active_level(
              linalg::simd::Level::kScalar)) {}
    ~ScalarKernels() { linalg::simd::set_active_level(previous); }
    linalg::simd::Level previous;
  };
  const ScalarKernels forced;
  // Build the platform under the forced level too: its eigendecomposition
  // runs through the kernels.
  const Platform platform = paper_platform(4, 4, 2);
  expect_golden(run_ao(platform, 55.0, AoOptions{}),
                {38, 40321, 0x3fe69edc7c2a604aull, 0x4033ff6b5e98e574ull});
}

TEST(GoldenAoPlans, PcoContinuesFromTheSameAoState) {
  const SchedulerResult result =
      run_pco(paper_platform(3, 3, 2), 55.0, PcoOptions{});
  expect_golden(result,
                {41, 15115, 0x3fe7e381e2a3a3b8ull, 0x4033ff4589120994ull});
}

}  // namespace
}  // namespace foscil::core
