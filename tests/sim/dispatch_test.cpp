// Dispatch-level differential battery (DESIGN.md §14): the full modal
// evaluation stack — single candidates, batches, and whole planning runs —
// must produce bit-identical results whether the kernel table is the forced
// scalar oracle or the best level this CPU offers, and must stay within the
// usual 1e-10 envelope of the reference dense walk on both.  Grids go up to
// 8x8 (~200 thermal nodes) so the vector loops run many full lane groups,
// not just tails.
#include <gtest/gtest.h>

#include <vector>

#include "../test_support.hpp"
#include "core/ao.hpp"
#include "linalg/simd.hpp"
#include "sim/modal.hpp"
#include "sim/peak.hpp"
#include "sim/steady.hpp"

namespace foscil::sim {
namespace {

constexpr double kAgreeTol = 1e-10;

using linalg::simd::Level;
using linalg::simd::set_active_level;

class ScopedLevel {
 public:
  explicit ScopedLevel(Level level) : previous_(set_active_level(level)) {}
  ~ScopedLevel() { set_active_level(previous_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level previous_;
};

bool has_avx2() {
  return linalg::simd::detected_level() == Level::kAvx2;
}

// Platforms (and their eigendecompositions) are built per dispatch level:
// the spectral factorization itself runs through the kernels, so forcing
// the level *before* construction exercises the whole pipeline under it.
struct LevelRun {
  std::vector<linalg::Vector> boundaries;
  std::vector<linalg::Vector> rises;
  std::vector<linalg::Vector> batch_rises;
};

LevelRun evaluate_under_level(Level level, std::size_t rows, std::size_t cols,
                              unsigned seed) {
  const ScopedLevel forced(level);
  const auto platform = testing::grid_platform(rows, cols);
  const ModalEvaluator modal(platform.model);
  Rng rng(seed);
  std::vector<sched::PeriodicSchedule> schedules;
  for (int trial = 0; trial < 6; ++trial)
    schedules.push_back(testing::random_schedule(
        rng, platform.num_cores(), rng.uniform(0.02, 0.2), 4));
  LevelRun run;
  for (const auto& s : schedules) {
    run.boundaries.push_back(modal.stable_boundary(s));
    run.rises.push_back(modal.stable_core_rises(s));
  }
  run.batch_rises =
      modal.batch_stable_core_rises(schedules.data(), schedules.size());
  return run;
}

TEST(SimdDispatchDifferential, ModalBatteryBitIdenticalAcrossLevels) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {2, 3}, {4, 4}, {8, 8}};
  for (const auto& [rows, cols] : grids) {
    const unsigned seed = static_cast<unsigned>(1000 + rows * 100 + cols);
    const LevelRun scalar =
        evaluate_under_level(Level::kScalar, rows, cols, seed);
    const LevelRun best = evaluate_under_level(Level::kAvx2, rows, cols, seed);
    ASSERT_EQ(scalar.boundaries.size(), best.boundaries.size());
    for (std::size_t i = 0; i < scalar.boundaries.size(); ++i) {
      EXPECT_EQ((scalar.boundaries[i] - best.boundaries[i]).inf_norm(), 0.0)
          << rows << "x" << cols << " schedule " << i;
      EXPECT_EQ((scalar.rises[i] - best.rises[i]).inf_norm(), 0.0)
          << rows << "x" << cols << " schedule " << i;
      EXPECT_EQ((scalar.batch_rises[i] - best.batch_rises[i]).inf_norm(), 0.0)
          << rows << "x" << cols << " schedule " << i;
    }
  }
}

TEST(SimdDispatchDifferential, ModalMatchesReferenceUnderBothLevels) {
  const std::vector<Level> levels =
      has_avx2() ? std::vector<Level>{Level::kScalar, Level::kAvx2}
                 : std::vector<Level>{Level::kScalar};
  for (const Level level : levels) {
    const ScopedLevel forced(level);
    const auto platform = testing::grid_platform(2, 3);
    const SteadyStateAnalyzer reference(platform.model);
    const ModalEvaluator modal(platform.model);
    Rng rng(1203);
    for (int trial = 0; trial < 6; ++trial) {
      const auto s = testing::random_schedule(
          rng, platform.num_cores(), rng.uniform(0.02, 0.2), 4);
      EXPECT_LT(
          (modal.stable_boundary(s) - reference.stable_boundary(s)).inf_norm(),
          kAgreeTol)
          << linalg::simd::level_name(level) << " trial " << trial;
    }
  }
}

TEST(SimdDispatchDifferential, BatchEqualsSinglesOnBothEngines) {
  // batch_stable_core_rises is documented bit-identical to the per-schedule
  // loop — on the modal engine (amortized SoA pass) and on the reference
  // engine (plain loop), at the active dispatch level whatever it is.
  const auto platform = testing::grid_platform(4, 4);
  Rng rng(1301);
  std::vector<sched::PeriodicSchedule> schedules;
  for (int trial = 0; trial < 9; ++trial)
    schedules.push_back(testing::random_step_up_schedule(
        rng, platform.num_cores(), rng.uniform(0.02, 0.2), 3));
  for (const auto engine : {EvalEngine::kReference, EvalEngine::kModal}) {
    const SteadyStateAnalyzer analyzer(platform.model, engine);
    const std::vector<linalg::Vector> batch =
        analyzer.batch_stable_core_rises(schedules.data(), schedules.size());
    ASSERT_EQ(batch.size(), schedules.size());
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const linalg::Vector single = analyzer.stable_core_rises(schedules[i]);
      EXPECT_EQ((batch[i] - single).inf_norm(), 0.0)
          << eval_engine_name(engine) << " schedule " << i;
    }
    // And the batched peaks carry the same argmax/rise/time.
    const std::vector<PeakInfo> peaks =
        batch_step_up_peaks(analyzer, schedules);
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const PeakInfo single = step_up_peak(analyzer, schedules[i]);
      EXPECT_EQ(peaks[i].rise, single.rise);
      EXPECT_EQ(peaks[i].core, single.core);
      EXPECT_EQ(peaks[i].time, single.time);
    }
  }
}

TEST(SimdDispatchDifferential, EmptyBatchIsEmpty) {
  const auto platform = testing::grid_platform(2, 2);
  const SteadyStateAnalyzer analyzer(platform.model, EvalEngine::kModal);
  EXPECT_TRUE(analyzer.batch_stable_core_rises(nullptr, 0).empty());
}

core::SchedulerResult ao_under_level(Level level, std::size_t rows,
                                     std::size_t cols, double t_max) {
  const ScopedLevel forced(level);
  const auto platform =
      testing::grid_platform(rows, cols, {0.6, 0.8, 1.0, 1.3});
  return core::run_ao(platform, t_max);
}

TEST(SimdDispatchDifferential, RunAoPlansBitIdenticalAcrossLevels) {
  if (!has_avx2()) GTEST_SKIP() << "no AVX2 on this host";
  const std::vector<std::pair<std::size_t, std::size_t>> grids = {{2, 3},
                                                                  {4, 4}};
  for (const auto& [rows, cols] : grids) {
    for (const double t_max : {50.0, 55.0}) {
      const auto scalar = ao_under_level(Level::kScalar, rows, cols, t_max);
      const auto best = ao_under_level(Level::kAvx2, rows, cols, t_max);
      EXPECT_EQ(best.m, scalar.m) << rows << "x" << cols << " " << t_max;
      EXPECT_EQ(best.feasible, scalar.feasible);
      EXPECT_EQ(best.throughput, scalar.throughput);  // bit-identical plan
      EXPECT_EQ(best.peak_rise, scalar.peak_rise);
      EXPECT_EQ(best.evaluations, scalar.evaluations);
      for (std::size_t core = 0; core < scalar.schedule.num_cores(); ++core) {
        const auto& ss = scalar.schedule.core_segments(core);
        const auto& bs = best.schedule.core_segments(core);
        ASSERT_EQ(bs.size(), ss.size());
        for (std::size_t seg = 0; seg < ss.size(); ++seg) {
          EXPECT_EQ(bs[seg].duration, ss[seg].duration);
          EXPECT_EQ(bs[seg].voltage, ss[seg].voltage);
        }
      }
    }
  }
}

}  // namespace
}  // namespace foscil::sim
