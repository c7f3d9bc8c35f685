// Differential battery for the modal evaluation engine (sim/modal.hpp):
// every quantity the planners consume must match the reference dense walk
// to roundoff, on randomized platforms and schedules; AO and PCO planned on
// a reference analyzer must agree with the modal plans; and EXS must pick
// the winner of a brute-force enumeration for any thread count.
#include "sim/modal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "../test_support.hpp"
#include "core/ao.hpp"
#include "core/exs.hpp"
#include "core/pco.hpp"
#include "sim/peak.hpp"
#include "sim/steady.hpp"

namespace foscil::sim {
namespace {

constexpr double kAgreeTol = 1e-10;

TEST(ModalEvaluator, StableBoundaryMatchesReferenceOnRandomPlatforms) {
  Rng rng(901);
  const std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {1, 2}, {2, 2}, {2, 3}};
  for (const auto& [rows, cols] : grids) {
    const auto platform = testing::grid_platform(rows, cols);
    const SteadyStateAnalyzer reference(platform.model);
    const ModalEvaluator modal(platform.model);
    for (int trial = 0; trial < 8; ++trial) {
      const auto s = testing::random_schedule(
          rng, platform.num_cores(), rng.uniform(0.02, 0.3), 4);
      const linalg::Vector expect = reference.stable_boundary(s);
      const linalg::Vector got = modal.stable_boundary(s);
      EXPECT_LT((got - expect).inf_norm(), kAgreeTol)
          << rows << "x" << cols << " trial " << trial;
    }
  }
}

TEST(ModalEvaluator, PeriodEndMatchesReferenceTransient) {
  Rng rng(907);
  const auto platform = testing::grid_platform(2, 2);
  const SteadyStateAnalyzer reference(platform.model);
  const ModalEvaluator modal(platform.model);
  for (int trial = 0; trial < 8; ++trial) {
    const auto s =
        testing::random_schedule(rng, platform.num_cores(), 0.1, 5);
    const linalg::Vector expect = reference.simulator().period_end(
        s, reference.simulator().ambient_start());
    const linalg::Vector got =
        platform.model->spectral().w() * modal.period_end_modal(s);
    EXPECT_LT((got - expect).inf_norm(), kAgreeTol) << "trial " << trial;
  }
}

TEST(ModalEvaluator, CoreRisesMatchFullBackTransform) {
  // The die-row fast path must equal slicing the full back-transform.
  Rng rng(911);
  const auto platform = testing::grid_platform(2, 3);
  const ModalEvaluator modal(platform.model);
  for (int trial = 0; trial < 5; ++trial) {
    const auto s =
        testing::random_schedule(rng, platform.num_cores(), 0.05, 4);
    const linalg::Vector rises = modal.stable_core_rises(s);
    const linalg::Vector full =
        platform.model->core_rises(modal.stable_boundary(s));
    EXPECT_LT((rises - full).inf_norm(), 1e-12) << "trial " << trial;
  }
}

TEST(ModalEvaluator, AnalyzerDispatchesToSelectedEngine) {
  const auto platform = testing::grid_platform(2, 2);
  const SteadyStateAnalyzer reference(platform.model,
                                      EvalEngine::kReference);
  const SteadyStateAnalyzer modal(platform.model, EvalEngine::kModal);
  EXPECT_EQ(reference.engine(), EvalEngine::kReference);
  EXPECT_EQ(modal.engine(), EvalEngine::kModal);
  EXPECT_EQ(reference.modal(), nullptr);
  ASSERT_NE(modal.modal(), nullptr);

  Rng rng(913);
  const auto s = testing::random_schedule(rng, platform.num_cores(), 0.1, 3);
  EXPECT_LT(
      (modal.stable_boundary(s) - reference.stable_boundary(s)).inf_norm(),
      kAgreeTol);
  EXPECT_LT((modal.stable_core_rises(s) - reference.stable_core_rises(s))
                .inf_norm(),
            kAgreeTol);
  const PeakInfo ref_peak = step_up_peak(reference, sched::to_step_up(s));
  const PeakInfo mod_peak = step_up_peak(modal, sched::to_step_up(s));
  EXPECT_EQ(mod_peak.core, ref_peak.core);
  EXPECT_NEAR(mod_peak.rise, ref_peak.rise, kAgreeTol);
}

TEST(ModalEvaluator, MemoizesVoltageStatesAndIntervalFactors) {
  const auto platform = testing::grid_platform(2, 2);
  const ModalEvaluator modal(platform.model);
  Rng rng(917);
  const auto s = testing::random_schedule(rng, platform.num_cores(), 0.1, 3);
  const std::size_t states = s.state_intervals().size();

  const linalg::Vector first = modal.stable_boundary(s);
  const std::size_t entries = modal.cache_entries();
  EXPECT_GE(entries, 1u);
  EXPECT_LE(entries, states);

  // Re-evaluating hits the memo for every interval and changes nothing.
  const std::uint64_t hits_before = modal.cache_hits();
  const linalg::Vector second = modal.stable_boundary(s);
  EXPECT_EQ(modal.cache_entries(), entries);
  EXPECT_GE(modal.cache_hits(), hits_before + states);
  EXPECT_EQ((second - first).inf_norm(), 0.0);  // cached factors are exact
}

TEST(ModalEvaluator, ConcurrentEvaluationsAgree) {
  // Many threads hammer one shared evaluator with a mix of schedules; every
  // thread must observe exactly the single-threaded answers (the memo is
  // the only mutable state, and it only ever stores values identical to a
  // fresh computation).
  const auto platform = testing::grid_platform(2, 2);
  const ModalEvaluator modal(platform.model);
  Rng rng(919);
  std::vector<sched::PeriodicSchedule> schedules;
  std::vector<linalg::Vector> expected;
  for (int i = 0; i < 6; ++i) {
    schedules.push_back(
        testing::random_schedule(rng, platform.num_cores(), 0.08, 4));
    expected.push_back(modal.stable_boundary(schedules.back()));
  }

  constexpr int kThreads = 16;
  std::vector<double> worst(kThreads, 0.0);
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      double local = 0.0;
      for (int rep = 0; rep < 40; ++rep) {
        const std::size_t i =
            static_cast<std::size_t>((t + rep) % schedules.size());
        const linalg::Vector got = modal.stable_boundary(schedules[i]);
        local = std::max(local, (got - expected[i]).inf_norm());
      }
      worst[static_cast<std::size_t>(t)] = local;
    });
  }
  for (auto& th : pool) th.join();
  for (double w : worst) EXPECT_EQ(w, 0.0);
}

class EngineDifferential : public ::testing::Test {
 protected:
  EngineDifferential()
      : platform_(testing::grid_platform(2, 2, {0.6, 0.8, 1.0, 1.3})),
        reference_(platform_.model, EvalEngine::kReference),
        modal_(platform_.model, EvalEngine::kModal) {}

  core::Platform platform_;
  SteadyStateAnalyzer reference_;
  SteadyStateAnalyzer modal_;
};

TEST_F(EngineDifferential, RunAoAgreesAcrossEngines) {
  for (const double t_max : {50.0, 55.0, 60.0}) {
    const auto ref =
        core::detail::run_ao_internal(platform_, t_max, {}, reference_).result;
    const auto mod =
        core::detail::run_ao_internal(platform_, t_max, {}, modal_).result;
    EXPECT_EQ(mod.m, ref.m) << "t_max " << t_max;
    EXPECT_EQ(mod.feasible, ref.feasible) << "t_max " << t_max;
    EXPECT_NEAR(mod.throughput, ref.throughput, 1e-9) << "t_max " << t_max;
    EXPECT_NEAR(mod.peak_rise, ref.peak_rise, kAgreeTol) << "t_max " << t_max;
    // run_ao is the modal plan, even on an analyzer whose memo is warm from
    // the other thresholds (the memo stores exact values only).
    const auto plain = core::run_ao(platform_, t_max);
    EXPECT_EQ(plain.m, mod.m) << "t_max " << t_max;
    EXPECT_EQ(plain.throughput, mod.throughput) << "t_max " << t_max;
    EXPECT_EQ(plain.peak_rise, mod.peak_rise) << "t_max " << t_max;
  }
}

TEST_F(EngineDifferential, RunPcoAgreesAcrossEngines) {
  const auto ref =
      core::detail::run_pco_internal(platform_, 55.0, {}, reference_);
  const auto mod = core::detail::run_pco_internal(platform_, 55.0, {}, modal_);
  EXPECT_EQ(mod.m, ref.m);
  EXPECT_EQ(mod.feasible, ref.feasible);
  EXPECT_NEAR(mod.throughput, ref.throughput, 1e-9);
  EXPECT_NEAR(mod.peak_rise, ref.peak_rise, 1e-8);
}

TEST_F(EngineDifferential, RunExsBitIdenticalAcrossEnginesAndThreads) {
  // Brute-force oracle over all 4^4 single-mode assignments, on the
  // model's own LU steady-state solve rather than EXS's precomputed
  // inverse and incremental odometer.
  constexpr double kT = 55.0;
  const auto& model = *platform_.model;
  const std::vector<double>& levels = platform_.levels.values();
  const std::size_t cores = platform_.num_cores();
  const double budget = platform_.rise_budget(kT);
  struct Assignment {
    std::vector<double> voltages;
    double throughput;
    double peak;
  };
  std::vector<Assignment> feasible;
  std::size_t total = 1;
  for (std::size_t c = 0; c < cores; ++c) total *= levels.size();
  for (std::size_t index = 0; index < total; ++index) {
    linalg::Vector voltages(cores);
    std::size_t rest = index;
    double speed_sum = 0.0;
    for (std::size_t c = 0; c < cores; ++c) {
      voltages[c] = levels[rest % levels.size()];
      rest /= levels.size();
      speed_sum += voltages[c];
    }
    const double peak =
        model.core_rises(model.steady_state(voltages)).max();
    // The oracle is only meaningful where roundoff cannot flip feasibility.
    ASSERT_GT(std::abs(peak - budget), 1e-9 * budget) << "index " << index;
    if (peak > budget) continue;
    feasible.push_back({std::vector<double>(voltages.data(),
                                            voltages.data() + cores),
                        speed_sum / static_cast<double>(cores), peak});
  }
  ASSERT_FALSE(feasible.empty());
  double best_throughput = -1.0;
  for (const auto& a : feasible)
    best_throughput = std::max(best_throughput, a.throughput);
  double best_peak = std::numeric_limits<double>::infinity();
  for (const auto& a : feasible)
    if (a.throughput == best_throughput)
      best_peak = std::min(best_peak, a.peak);

  core::ExsOptions options;
  options.threads = 1;
  const auto serial = core::run_exs(platform_, kT, options);
  ASSERT_TRUE(serial.feasible);
  EXPECT_EQ(serial.throughput, best_throughput);
  EXPECT_NEAR(serial.peak_rise, best_peak, 1e-9);
  // The winner is one of the oracle's optimal assignments.
  std::vector<double> winner(cores);
  for (std::size_t c = 0; c < cores; ++c)
    winner[c] = serial.schedule.voltage_at(c, 0.0);
  bool optimal = false;
  for (const auto& a : feasible)
    optimal = optimal || (a.voltages == winner &&
                          a.throughput == best_throughput &&
                          std::abs(a.peak - best_peak) <= 1e-9);
  EXPECT_TRUE(optimal);

  options.threads = 4;
  const auto parallel = core::run_exs(platform_, kT, options);
  EXPECT_EQ(parallel.feasible, serial.feasible);
  EXPECT_EQ(parallel.throughput, serial.throughput);
  EXPECT_EQ(parallel.peak_rise, serial.peak_rise);
  for (std::size_t c = 0; c < cores; ++c)
    EXPECT_EQ(parallel.schedule.voltage_at(c, 0.0), winner[c]);
}

}  // namespace
}  // namespace foscil::sim
