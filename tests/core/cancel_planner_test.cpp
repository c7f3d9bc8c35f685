// Cooperative cancellation of the planners: a fired token stops run_ao /
// run_pco / run_exs with CancelledError, and a token that never fires
// leaves the planned result bit-identical to a run with no token at all,
// since the checks live between candidate evaluations, never inside the
// numerics.
#include <gtest/gtest.h>

#include "core/ao.hpp"
#include "core/exs.hpp"
#include "core/pco.hpp"
#include "serve/plan_cache.hpp"
#include "../test_support.hpp"
#include "util/cancel.hpp"

namespace foscil {
namespace {

using Clock = CancelToken::Clock;

core::Platform platform_3x3() { return testing::grid_platform(3, 3); }

TEST(CancelPlanner, PreCancelledTokenStopsAoImmediately) {
  CancelToken token;
  token.cancel();
  core::AoOptions options;
  options.cancel = &token;
  EXPECT_THROW((void)core::run_ao(platform_3x3(), 55.0, options),
               CancelledError);
}

TEST(CancelPlanner, PreCancelledTokenStopsPcoImmediately) {
  CancelToken token;
  token.cancel();
  core::PcoOptions options;
  options.ao.cancel = &token;
  EXPECT_THROW((void)core::run_pco(platform_3x3(), 55.0, options),
               CancelledError);
}

TEST(CancelPlanner, PreCancelledTokenStopsExsImmediately) {
  CancelToken token;
  token.cancel();
  core::ExsOptions options;
  options.cancel = &token;
  EXPECT_THROW((void)core::run_exs(testing::grid_platform(2, 2), 55.0,
                                   options),
               CancelledError);
}

TEST(CancelPlanner, ExpiredDeadlineStopsAo) {
  CancelToken token;
  token.set_deadline(Clock::now() - std::chrono::milliseconds(1));
  core::AoOptions options;
  options.cancel = &token;
  EXPECT_THROW((void)core::run_ao(platform_3x3(), 55.0, options),
               CancelledError);
}

TEST(CancelPlanner, DeadlineFiringMidRunStopsAoPromptly) {
  // Arm a deadline well inside the planner's runtime (an uncancelled 3x3
  // AO run takes tens of milliseconds) and check the run both cancels and
  // returns without burning the full search.
  CancelToken token;
  core::AoOptions options;
  options.cancel = &token;
  token.set_deadline(Clock::now() + std::chrono::milliseconds(2));
  const Clock::time_point started = Clock::now();
  try {
    (void)core::run_ao(platform_3x3(), 55.0, options);
    // A machine fast enough to finish inside the budget is legal; nothing
    // further to assert in that case.
  } catch (const CancelledError&) {
    // Cancellation must be prompt: within one candidate evaluation, far
    // below the full search time.  Use a loose wall bound to stay robust
    // on slow CI machines.
    const double seconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    EXPECT_LT(seconds, 5.0);
  }
}

TEST(CancelPlanner, DeadlineFiringMidTptStopsWithinOneBatch) {
  // A fine ratio step makes the TPT scan ~90% of the plan, in tens of
  // thousands of batches of one candidate per adjustable core.  A deadline
  // armed halfway through the TPT stage of an identical uncancelled run
  // must stop the serial default promptly: the overshoot past the deadline
  // stays far below the TPT time still left (one batch is ~1/25000 of it;
  // the bound leaves room for a loaded machine).
  const core::Platform platform = core::make_grid_platform(
      4, 4, power::VoltageLevels::paper_table4(2));
  core::AoOptions options;
  options.t_unit_fraction = 1e-4;
  const sim::SteadyStateAnalyzer analyzer =
      sim::planning_analyzer(platform.model);
  const core::detail::AoStages stages =
      core::detail::run_ao_internal(platform, 55.0, options, analyzer).stages;
  ASSERT_GT(stages.tpt_s, 0.0);

  CancelToken token;
  options.cancel = &token;
  const double fire_after_s =
      stages.seed_s + stages.m_search_s + 0.5 * stages.tpt_s;
  const Clock::time_point started = Clock::now();
  const Clock::time_point deadline =
      started + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(fire_after_s));
  token.set_deadline(deadline);
  EXPECT_THROW((void)core::run_ao(platform, 55.0, options), CancelledError);
  const double overshoot_s =
      std::chrono::duration<double>(Clock::now() - deadline).count();
  EXPECT_LT(overshoot_s, 0.25 * stages.tpt_s);
}

TEST(CancelPlanner, UnfiredTokenLeavesAoBitIdentical) {
  const core::Platform platform = platform_3x3();
  core::AoOptions plain;
  const core::SchedulerResult reference = core::run_ao(platform, 55.0, plain);

  CancelToken token;
  token.set_deadline(Clock::now() + std::chrono::hours(1));
  core::AoOptions with_token;
  with_token.cancel = &token;
  const core::SchedulerResult result =
      core::run_ao(platform, 55.0, with_token);
  EXPECT_TRUE(serve::plans_bit_identical(reference, result));
}

TEST(CancelPlanner, UnfiredTokenLeavesPcoBitIdentical) {
  const core::Platform platform = testing::grid_platform(2, 2);
  core::PcoOptions plain;
  const core::SchedulerResult reference =
      core::run_pco(platform, 55.0, plain);

  CancelToken token;
  token.set_deadline(Clock::now() + std::chrono::hours(1));
  core::PcoOptions with_token;
  with_token.ao.cancel = &token;
  const core::SchedulerResult result =
      core::run_pco(platform, 55.0, with_token);
  EXPECT_TRUE(serve::plans_bit_identical(reference, result));
}

TEST(CancelPlanner, UnfiredTokenLeavesExsBitIdentical) {
  const core::Platform platform = testing::grid_platform(2, 2);
  core::ExsOptions plain;
  const core::SchedulerResult reference =
      core::run_exs(platform, 55.0, plain);

  CancelToken token;
  core::ExsOptions with_token = plain;
  with_token.cancel = &token;
  const core::SchedulerResult result =
      core::run_exs(platform, 55.0, with_token);
  EXPECT_TRUE(serve::plans_bit_identical(reference, result));
}

}  // namespace
}  // namespace foscil
