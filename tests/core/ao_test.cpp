#include "core/ao.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "../test_support.hpp"
#include "core/exs.hpp"
#include "core/ideal.hpp"
#include "core/lns.hpp"
#include "sim/peak.hpp"

namespace foscil::core {
namespace {

TEST(AoOscillations, WorkPreservingSplit) {
  const power::VoltageLevels levels({0.6, 0.8, 1.0, 1.3});
  linalg::Vector ideal{0.9, 0.8, 1.25};
  const auto cores = detail::make_oscillations(ideal, levels);
  ASSERT_EQ(cores.size(), 3u);
  // 0.9 sits halfway between 0.8 and 1.0.
  EXPECT_TRUE(cores[0].oscillating);
  EXPECT_EQ(cores[0].v_low, 0.8);
  EXPECT_EQ(cores[0].v_high, 1.0);
  EXPECT_NEAR(cores[0].ratio_high, 0.5, 1e-12);
  EXPECT_NEAR(cores[0].mean_speed(), 0.9, 1e-12);
  // 0.8 is an exact level: constant mode.
  EXPECT_FALSE(cores[1].oscillating);
  EXPECT_NEAR(cores[1].mean_speed(), 0.8, 1e-12);
  // 1.25 between 1.0 and 1.3.
  EXPECT_TRUE(cores[2].oscillating);
  EXPECT_NEAR(cores[2].mean_speed(), 1.25, 1e-12);
}

TEST(AoOscillations, DeltaRepaysTransitionStalls) {
  CoreOscillation osc;
  osc.v_low = 0.6;
  osc.v_high = 1.3;
  osc.ratio_high = 0.4;
  osc.oscillating = true;
  const double tau = 5e-6;
  const double delta = osc.delta(tau);
  EXPECT_NEAR(delta, (1.3 + 0.6) * tau / (1.3 - 0.6), 1e-18);
  // Work bookkeeping: extending high by delta and losing tau at each mode
  // exactly restores the target work (Sec. V).
  const double period = 0.01;
  const double high = osc.ratio_high * period + delta;
  const double low = (1.0 - osc.ratio_high) * period - delta;
  const double work = 1.3 * (high - tau) + 0.6 * (low - tau);
  EXPECT_NEAR(work, osc.mean_speed() * period, 1e-12);
}

TEST(AoOscillations, ZeroTauBoundIsUnlimited) {
  // With no transition stall there is no per-core cost to oscillating
  // faster, so the bound degenerates to INT_MAX and the caller's max_m cap
  // is the only limit.
  const power::VoltageLevels levels({0.6, 1.3});
  linalg::Vector ideal{1.0, 1.1};
  const auto cores = detail::make_oscillations(ideal, levels);
  EXPECT_EQ(detail::oscillation_bound(cores, 0.05, 0.0),
            std::numeric_limits<int>::max());
  // A non-oscillating chip still reports 1 regardless of tau.
  linalg::Vector exact{0.6, 1.3};
  const auto constant = detail::make_oscillations(exact, levels);
  EXPECT_EQ(detail::oscillation_bound(constant, 0.05, 0.0), 1);
}

TEST(AoOscillations, BoundShrinksWithLargerTau) {
  const power::VoltageLevels levels({0.6, 1.3});
  linalg::Vector ideal{1.0, 1.1};
  const auto cores = detail::make_oscillations(ideal, levels);
  const int m_5us = detail::oscillation_bound(cores, 0.05, 5e-6);
  const int m_50us = detail::oscillation_bound(cores, 0.05, 5e-5);
  const int m_500us = detail::oscillation_bound(cores, 0.05, 5e-4);
  EXPECT_GT(m_5us, m_50us);
  EXPECT_GT(m_50us, m_500us);
  EXPECT_GE(m_500us, 1);
}

TEST(AoOscillations, ScheduleBuilderProducesStepUpSubPeriod) {
  const power::VoltageLevels levels({0.6, 1.3});
  linalg::Vector ideal{1.0, 1.3};  // second core exact at the top level
  const auto cores = detail::make_oscillations(ideal, levels);
  const auto s = detail::build_oscillating_schedule(cores, 0.05, 10, 5e-6);
  EXPECT_NEAR(s.period(), 0.005, 1e-12);
  EXPECT_TRUE(s.is_step_up());
  EXPECT_EQ(s.core_segments(0).size(), 2u);
  EXPECT_EQ(s.core_segments(1).size(), 1u);
}

TEST(Ao, StageTimesPartitionTheRun) {
  const Platform platform = make_grid_platform(
      4, 4, power::VoltageLevels::paper_table4(2));
  const sim::SteadyStateAnalyzer analyzer =
      sim::planning_analyzer(platform.model);
  const detail::AoInternal run =
      detail::run_ao_internal(platform, 55.0, AoOptions{}, analyzer);
  const detail::AoStages& stages = run.stages;
  EXPECT_GT(stages.seed_s, 0.0);
  EXPECT_GT(stages.m_search_s, 0.0);
  EXPECT_GT(stages.tpt_s, 0.0);
  EXPECT_GE(stages.final_peak_s, 0.0);
  const double sum =
      stages.seed_s + stages.m_search_s + stages.tpt_s + stages.final_peak_s;
  EXPECT_NEAR(sum, run.result.seconds, 0.05 * run.result.seconds);
  EXPECT_GE(stages.m_search_candidates,
            static_cast<std::size_t>(AoOptions{}.m_search_patience));
  EXPECT_GT(stages.tpt_candidates, 1u);  // the incumbent plus >= 1 scan
  EXPECT_EQ(stages.m_search_candidates + stages.tpt_candidates,
            run.result.evaluations);
}

TEST(Ao, MeetsTheConstraintExactly) {
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 2},
                            {1, 3},
                            {2, 3},
                            {3, 3}}) {
    const Platform p = testing::grid_platform(rows, cols);
    const SchedulerResult r = run_ao(p, 55.0);
    EXPECT_TRUE(r.feasible) << rows << "x" << cols;
    EXPECT_LE(r.peak_celsius, 55.0 + 1e-6);
    // The constraint is *active* unless everything saturated at 1.3 V.
    if (r.throughput < 1.3 - 1e-9) {
      EXPECT_GT(r.peak_celsius, 55.0 - 0.5);
    }
  }
}

TEST(Ao, BeatsExsOnCoarseLevels) {
  // The headline claim: with few discrete modes, oscillation recovers the
  // throughput EXS leaves on the table.
  for (auto [rows, cols] : {std::pair<std::size_t, std::size_t>{1, 3},
                            {2, 3},
                            {3, 3}}) {
    const Platform p = testing::grid_platform(rows, cols);
    const double exs = run_exs(p, 55.0).throughput;
    const double ao = run_ao(p, 55.0).throughput;
    EXPECT_GE(ao, exs - 1e-9) << rows << "x" << cols;
  }
}

TEST(Ao, StaysWithinIdealThroughput) {
  const Platform p = testing::grid_platform(1, 3);
  const SchedulerResult r = run_ao(p, 65.0);
  const IdealVoltages ideal =
      ideal_constant_voltages(*p.model, p.rise_budget(65.0), 1.3);
  double ideal_thr = 0.0;
  for (std::size_t i = 0; i < 3; ++i) ideal_thr += ideal.voltages[i];
  ideal_thr /= 3.0;
  EXPECT_LE(r.throughput, ideal_thr + 1e-9);
  // ...and lands within 15% of it on the two-mode platform.
  EXPECT_GT(r.throughput, 0.85 * ideal_thr);
}

TEST(Ao, ReportedPeakMatchesIndependentSimulation) {
  const Platform p = testing::grid_platform(1, 3);
  const SchedulerResult r = run_ao(p, 65.0);
  const sim::SteadyStateAnalyzer analyzer(p.model);
  const double sampled = sim::sampled_peak(analyzer, r.schedule, 96).rise;
  EXPECT_NEAR(sampled, r.peak_rise, 1e-6);
}

TEST(Ao, PicksMGreaterThanOneWhenOscillationPaysOff) {
  const Platform p = testing::grid_platform(1, 3);
  const SchedulerResult r = run_ao(p, 65.0);
  EXPECT_GT(r.m, 1);
}

TEST(Ao, LargerTauForcesSmallerM) {
  const Platform p = testing::grid_platform(1, 3);
  AoOptions fast;
  fast.transition_overhead = 5e-6;
  AoOptions slow;
  slow.transition_overhead = 1e-3;
  const SchedulerResult r_fast = run_ao(p, 65.0, fast);
  const SchedulerResult r_slow = run_ao(p, 65.0, slow);
  EXPECT_LE(r_slow.m, r_fast.m);
  // Heavy transition cost cannot *improve* throughput.
  EXPECT_LE(r_slow.throughput, r_fast.throughput + 1e-9);
}

TEST(Ao, ZeroTauIsSupportedAndCapsAtMaxM) {
  const Platform p = testing::grid_platform(1, 2);
  AoOptions options;
  options.transition_overhead = 0.0;
  options.max_m = 64;
  const SchedulerResult r = run_ao(p, 60.0, options);
  EXPECT_TRUE(r.feasible);
  EXPECT_LE(r.m, 64);
}

TEST(Ao, SaturatedPlatformRunsAllMax) {
  // At a very relaxed threshold every core just runs 1.3 V; no oscillation.
  const Platform p = testing::grid_platform(1, 2);
  const SchedulerResult r = run_ao(p, 80.0);
  EXPECT_TRUE(r.feasible);
  EXPECT_NEAR(r.throughput, 1.3, 1e-9);
  EXPECT_EQ(r.m, 1);
}

TEST(Ao, ExactMidLevelNeedsNoOscillation) {
  // Craft levels so a core's ideal voltage is (nearly) an exact level: use
  // the full-range set and check AO throughput ~= LNS throughput + <=1 step.
  const Platform p = testing::grid_platform(
      1, 3, power::VoltageLevels::paper_full_range().values());
  const SchedulerResult ao = run_ao(p, 65.0);
  const SchedulerResult lns = run_lns(p, 65.0);
  EXPECT_GE(ao.throughput, lns.throughput - 1e-9);
  EXPECT_LT(ao.throughput - lns.throughput, 0.05 + 1e-9);
}

TEST(Ao, ThroughputMonotoneInThreshold) {
  const Platform p = testing::grid_platform(2, 3);
  double prev = 0.0;
  for (double t_max : {50.0, 55.0, 60.0, 65.0}) {
    const double thr = run_ao(p, t_max).throughput;
    EXPECT_GE(thr, prev - 1e-6) << t_max;
    prev = thr;
  }
}

}  // namespace
}  // namespace foscil::core
