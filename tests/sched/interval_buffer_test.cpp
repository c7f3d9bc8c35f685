// Differential battery for the flat state-interval merge
// (PeriodicSchedule::state_intervals_into and its state_intervals wrapper):
// breakpoints, lengths and per-core voltages must equal, bit for bit, an
// oracle that sorts and merges the breakpoints on its own and samples every
// core with voltage_at at each interval midpoint.  One buffer is reused
// across every schedule, in an order that shrinks and grows it, so stale
// rows or breakpoints from an earlier fill would show.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "../test_support.hpp"

namespace foscil::sched {
namespace {

constexpr double kMergeTol = 1e-9;  // relative to the period, as merged

struct OracleInterval {
  double start = 0.0;
  double length = 0.0;
  std::vector<double> voltages;
};

std::vector<OracleInterval> oracle_intervals(const PeriodicSchedule& s) {
  std::vector<double> breaks{0.0, s.period()};
  for (std::size_t core = 0; core < s.num_cores(); ++core) {
    const auto& segs = s.core_segments(core);
    double cursor = 0.0;
    for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
      cursor += segs[i].duration;
      breaks.push_back(cursor);
    }
  }
  std::sort(breaks.begin(), breaks.end());
  const double tol = kMergeTol * s.period();
  std::vector<double> merged;
  for (const double b : breaks)
    if (merged.empty() || b - merged.back() > tol) merged.push_back(b);
  if (s.period() - merged.back() <= tol) merged.back() = s.period();
  else merged.push_back(s.period());

  std::vector<OracleInterval> out(merged.size() - 1);
  for (std::size_t k = 0; k + 1 < merged.size(); ++k) {
    out[k].start = merged[k];
    out[k].length = merged[k + 1] - merged[k];
    const double midpoint = out[k].start + 0.5 * out[k].length;
    for (std::size_t core = 0; core < s.num_cores(); ++core)
      out[k].voltages.push_back(s.voltage_at(core, midpoint));
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_matches_oracle(const PeriodicSchedule& s, IntervalBuffer& flat,
                           const std::string& label) {
  s.state_intervals_into(flat);
  const std::vector<OracleInterval> expected = oracle_intervals(s);
  const std::vector<StateInterval> wrapped = s.state_intervals();
  ASSERT_EQ(flat.size(), expected.size()) << label;
  ASSERT_EQ(wrapped.size(), expected.size()) << label;
  ASSERT_EQ(flat.num_cores(), s.num_cores()) << label;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_TRUE(same_bits(flat.start(k), expected[k].start))
        << label << " interval " << k;
    EXPECT_TRUE(same_bits(flat.length(k), expected[k].length))
        << label << " interval " << k;
    EXPECT_TRUE(same_bits(wrapped[k].start, expected[k].start)) << label;
    EXPECT_TRUE(same_bits(wrapped[k].length, expected[k].length)) << label;
    for (std::size_t core = 0; core < s.num_cores(); ++core) {
      EXPECT_TRUE(same_bits(flat.voltages(k)[core], expected[k].voltages[core]))
          << label << " interval " << k << " core " << core;
      EXPECT_TRUE(
          same_bits(wrapped[k].voltages[core], expected[k].voltages[core]))
          << label << " interval " << k << " core " << core;
    }
  }
}

const std::vector<double> kLevels{0.6, 0.8, 1.0, 1.3};

/// Two-segment step-up cycle (an AO core) with its break at `fraction`.
std::vector<Segment> oscillation(double period, double fraction) {
  return {Segment{fraction * period, 0.6},
          Segment{(1.0 - fraction) * period, 1.3}};
}

TEST(IntervalBuffer, DefaultBufferIsEmpty) {
  const IntervalBuffer flat;
  EXPECT_EQ(flat.size(), 0u);
  EXPECT_EQ(flat.num_cores(), 0u);
}

TEST(IntervalBuffer, RandomSchedulesAcrossChipSizesAndSubPeriods) {
  Rng rng(1409);
  IntervalBuffer flat;
  // Core counts out of order, so the reused buffer both grows and shrinks.
  for (const std::size_t cores : {std::size_t{16}, std::size_t{1},
                                  std::size_t{64}, std::size_t{3}}) {
    for (const int m : {1, 2, 37, 512, 4096}) {
      const double period = 0.05 / static_cast<double>(m);
      for (int trial = 0; trial < 4; ++trial) {
        const PeriodicSchedule s =
            testing::random_schedule(rng, cores, period, 6, kLevels);
        expect_matches_oracle(s, flat,
                              "cores " + std::to_string(cores) + " m " +
                                  std::to_string(m) + " trial " +
                                  std::to_string(trial));
      }
    }
  }
}

TEST(IntervalBuffer, BreakpointsWithinMergeToleranceOfEachOtherAndTheEnds) {
  IntervalBuffer flat;
  for (const int m : {1, 64, 4096}) {
    const double period = 0.05 / static_cast<double>(m);
    const double tol = kMergeTol * period;
    // Chains of breakpoints spaced just under and just over the tolerance:
    // the merge compares against the last kept breakpoint, so a chain of
    // sub-tolerance steps keeps every other one, and a step just over it
    // opens a sliver interval.
    for (const double step : {0.3, 0.6, 0.9, 0.999, 1.001, 1.1, 1.7}) {
      PeriodicSchedule s(9, period);
      for (std::size_t core = 0; core < 6; ++core)
        s.set_core_segments(
            core, oscillation(period, 0.4 + static_cast<double>(core) * step *
                                                 kMergeTol));
      // A break within the tolerance of the period end, one within it of
      // the start, and one just outside the end tolerance.
      s.set_core_segments(6, {Segment{period - 0.5 * tol, 0.8},
                              Segment{0.5 * tol, 1.0}});
      s.set_core_segments(7, {Segment{0.7 * tol, 1.3},
                              Segment{period - 0.7 * tol, 0.6}});
      s.set_core_segments(8, {Segment{period - 1.5 * tol, 1.0},
                              Segment{1.5 * tol, 0.6}});
      expect_matches_oracle(s, flat,
                            "m " + std::to_string(m) + " step " +
                                std::to_string(step));
    }
  }
}

TEST(IntervalBuffer, PhaseRotatedAndConstantCores) {
  Rng rng(1423);
  IntervalBuffer flat;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t cores = 1 + rng.index(12);
    const double period = 0.05 / static_cast<double>(rng.uniform_int(1, 4096));
    PeriodicSchedule s(cores, period);
    for (std::size_t core = 0; core < cores; ++core) {
      switch (rng.index(3)) {
        case 0:  // constant core
          s.set_core_segments(core, {Segment{period, rng.pick(kLevels)}});
          break;
        case 1:  // AO oscillation
          s.set_core_segments(core,
                              oscillation(period, rng.uniform(0.05, 0.95)));
          break;
        default:  // PCO: the oscillation rotated by a sub-period offset
          s.set_core_segments(
              core,
              rotate_segments(oscillation(period, rng.uniform(0.05, 0.95)),
                              period, rng.uniform(0.0, period)));
          break;
      }
    }
    expect_matches_oracle(s, flat, "trial " + std::to_string(trial));
  }
}

TEST(IntervalBuffer, AssignCoreSegmentsMatchesSetCoreSegments) {
  // The copying setter must store the same rescaled bits as the moving one.
  Rng rng(1427);
  for (int trial = 0; trial < 50; ++trial) {
    const double period = rng.uniform(1e-5, 1.0);
    const std::size_t count = 1 + rng.index(5);
    std::vector<Segment> segments;
    for (const double w : rng.simplex(count))
      segments.push_back({w * period * (1.0 + 1e-12), rng.pick(kLevels)});
    PeriodicSchedule moved(1, period);
    PeriodicSchedule copied(1, period);
    moved.set_core_segments(0, segments);
    copied.assign_core_segments(0, segments);
    ASSERT_EQ(copied.core_segments(0).size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_TRUE(same_bits(copied.core_segments(0)[i].duration,
                            moved.core_segments(0)[i].duration));
      EXPECT_EQ(copied.core_segments(0)[i].voltage,
                moved.core_segments(0)[i].voltage);
    }
  }
}

TEST(IntervalBuffer, ResetMatchesAFreshSchedule) {
  PeriodicSchedule s(3, 0.02);
  s.set_core_segments(1, oscillation(0.02, 0.3));
  s.reset(0.005);
  const PeriodicSchedule fresh(3, 0.005);
  EXPECT_EQ(s.period(), fresh.period());
  for (std::size_t core = 0; core < 3; ++core) {
    ASSERT_EQ(s.core_segments(core).size(), 1u);
    EXPECT_EQ(s.core_segments(core)[0].duration, 0.005);
    EXPECT_EQ(s.core_segments(core)[0].voltage, 0.0);
  }
  EXPECT_THROW(s.reset(0.0), ContractViolation);
}

}  // namespace
}  // namespace foscil::sched
