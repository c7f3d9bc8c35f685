#include "core/ao.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/ideal.hpp"
#include "sched/transforms.hpp"
#include "sim/peak.hpp"
#include "util/stopwatch.hpp"

namespace foscil::core {

namespace detail {

std::vector<CoreOscillation> make_oscillations(
    const linalg::Vector& ideal_voltages,
    const power::VoltageLevels& levels, ModeChoice mode_choice) {
  std::vector<CoreOscillation> cores(ideal_voltages.size());
  for (std::size_t i = 0; i < ideal_voltages.size(); ++i) {
    // Ideal voltages below the lowest level (possible on thermally starved
    // cores, e.g. upper tiers of a 3D stack) oscillate between the
    // power-gated mode (v = f = 0, Sec. II-A) and the lowest level.
    if (ideal_voltages[i] < levels.lowest() - 1e-12) {
      CoreOscillation& osc = cores[i];
      osc.v_low = 0.0;
      osc.v_high = levels.lowest();
      if (ideal_voltages[i] <= 0.0) {
        osc.oscillating = false;  // fully off
        continue;
      }
      osc.oscillating = true;
      osc.ratio_high = ideal_voltages[i] / levels.lowest();
      continue;
    }
    power::NeighboringModes modes = levels.neighbors(ideal_voltages[i]);
    if (mode_choice == ModeChoice::kExtremes && !modes.exact()) {
      // Ablation of Theorem 4: realize the same mean speed with the widest
      // available mode pair instead of the neighboring one.
      modes.low = levels.lowest();
      modes.high = levels.highest();
    }
    CoreOscillation& osc = cores[i];
    osc.v_low = modes.low;
    osc.v_high = modes.high;
    if (modes.exact()) {
      osc.oscillating = false;
      osc.ratio_high = 0.0;
      continue;
    }
    osc.oscillating = true;
    // eq. (11): work-preserving split between the two neighboring modes.
    osc.ratio_high =
        (ideal_voltages[i] - modes.low) / (modes.high - modes.low);
    FOSCIL_ASSERT(osc.ratio_high > 0.0 && osc.ratio_high < 1.0);
  }
  return cores;
}

int oscillation_bound(const std::vector<CoreOscillation>& cores,
                      double base_period, double tau) {
  FOSCIL_EXPECTS(base_period > 0.0);
  FOSCIL_EXPECTS(tau >= 0.0);
  int bound = std::numeric_limits<int>::max();
  bool any = false;
  for (const auto& core : cores) {
    if (!core.oscillating) continue;
    any = true;
    if (tau == 0.0) continue;  // no stall => no per-core bound
    const double t_low = (1.0 - core.ratio_high) * base_period;
    const double per_m_cost = core.delta(tau) + tau;
    const int m_i = static_cast<int>(std::floor(t_low / per_m_cost));
    bound = std::min(bound, std::max(1, m_i));
  }
  if (!any) return 1;
  return bound;  // INT_MAX when tau == 0 (caller caps with max_m)
}

void oscillation_segments(const CoreOscillation& osc, double sub_period,
                          double tau, std::vector<sched::Segment>& out) {
  if (!osc.oscillating || osc.ratio_high <= 0.0 || osc.ratio_high >= 1.0) {
    const double level = !osc.oscillating
                             ? osc.v_low
                             : (osc.ratio_high <= 0.0 ? osc.v_low
                                                      : osc.v_high);
    out.assign(1, sched::Segment{sub_period, level});
    return;
  }
  const double delta = tau > 0.0 ? osc.delta(tau) : 0.0;
  const double low = (1.0 - osc.ratio_high) * sub_period - delta;
  const double high = osc.ratio_high * sub_period + delta;
  FOSCIL_ASSERT(low > 0.0);
  out.assign(
      {sched::Segment{low, osc.v_low}, sched::Segment{high, osc.v_high}});
  // Rotate the segment list in place rather than phase_shift-ing the whole
  // schedule, which copied every core's segments once per shifted core.
  if (osc.phase_offset != 0.0)
    out = sched::rotate_segments(out, sub_period, osc.phase_offset);
}

void build_oscillating_schedule(const std::vector<CoreOscillation>& cores,
                                double base_period, int m, double tau,
                                sched::PeriodicSchedule& out,
                                std::vector<sched::Segment>& segments) {
  FOSCIL_EXPECTS(m >= 1);
  FOSCIL_EXPECTS(out.num_cores() == cores.size());
  const double sub_period = base_period / static_cast<double>(m);
  out.reset(sub_period);
  for (std::size_t i = 0; i < cores.size(); ++i) {
    oscillation_segments(cores[i], sub_period, tau, segments);
    out.assign_core_segments(i, segments);
  }
}

sched::PeriodicSchedule build_oscillating_schedule(
    const std::vector<CoreOscillation>& cores, double base_period, int m,
    double tau) {
  FOSCIL_EXPECTS(m >= 1);
  sched::PeriodicSchedule schedule(cores.size(),
                                   base_period / static_cast<double>(m));
  std::vector<sched::Segment> segments;
  build_oscillating_schedule(cores, base_period, m, tau, schedule, segments);
  return schedule;
}

namespace {

/// Mean chip speed delivered by the oscillation parameters (stall work is
/// repaid by the delta extension, so this is the delivered throughput).
double oscillation_throughput(const std::vector<CoreOscillation>& cores) {
  double total = 0.0;
  for (const auto& core : cores) total += core.mean_speed();
  return total / static_cast<double>(cores.size());
}

}  // namespace

AoInternal run_ao_internal(const Platform& platform, double t_max_c,
                           const AoOptions& options,
                           const sim::SteadyStateAnalyzer& analyzer) {
  FOSCIL_EXPECTS(options.base_period > 0.0);
  FOSCIL_EXPECTS(options.transition_overhead >= 0.0);
  FOSCIL_EXPECTS(options.t_unit_fraction > 0.0 &&
                 options.t_unit_fraction < 1.0);
  FOSCIL_EXPECTS(options.t_max_margin >= 0.0);
  const Stopwatch timer;
  const double rise_target =
      platform.rise_budget(t_max_c) - options.t_max_margin;
  FOSCIL_EXPECTS(rise_target > 0.0);
  const auto& model = *platform.model;
  FOSCIL_EXPECTS(&analyzer.model() == &model);
  const double tau = options.transition_overhead;
  const auto throw_if_cancelled = [&] {
    if (options.cancel != nullptr) options.cancel->throw_if_cancelled();
  };
  AoInternal internal;
  AoStages& stages = internal.stages;

  // Steps 1-2: ideal voltages -> neighboring-mode oscillation parameters.
  const IdealVoltages ideal = ideal_constant_voltages(
      model, rise_target, platform.levels.highest());
  std::vector<CoreOscillation> cores = detail::make_oscillations(
      ideal.voltages, platform.levels, options.mode_choice);
  const std::size_t num_cores = cores.size();
  // Scan state kept for the whole run, so the scans allocate nothing per
  // candidate: the rise batch (interval buffer, memo views, boundary
  // block), a schedule to mutate into each candidate, and segment scratch.
  sim::RiseBatch batch(analyzer);
  sched::PeriodicSchedule candidate(num_cores, options.base_period);
  std::vector<sched::Segment> segments;
  double stage_start = timer.seconds();
  stages.seed_s = stage_start;

  // Step 3: search m in [1, M] for the lowest peak (Theorem 5 modulated by
  // the per-transition extension cost).
  const int bound = std::min(
      options.max_m,
      detail::oscillation_bound(cores, options.base_period, tau));
  int best_m = 1;
  double best_peak = std::numeric_limits<double>::infinity();
  {
    // Evaluate the m window in blocks of m_search_patience candidates, one
    // rise batch each, while reproducing the sequential early-stop rule
    // exactly: the patience fold walks the block in ascending m, so a stop
    // mid-block wastes at most patience-1 evaluations and changes nothing.
    const int block = std::max(1, options.m_search_patience);
    int stale = 0;
    int next = 1;
    bool stop = false;
    while (!stop && next <= bound) {
      // Cancellation check point: between batches, never inside the
      // evaluation.
      throw_if_cancelled();
      const int count = std::min(block, bound - next + 1);
      batch.clear();
      for (int i = 0; i < count; ++i) {
        detail::build_oscillating_schedule(cores, options.base_period,
                                           next + i, tau, candidate, segments);
        // Theorem 1 puts the peak at the period end.
        FOSCIL_EXPECTS(candidate.is_step_up());
        batch.add(candidate);
      }
      batch.finish();
      stages.m_search_candidates += static_cast<std::size_t>(count);
      for (int i = 0; i < count && !stop; ++i) {
        const double* rises = batch.core_rises(static_cast<std::size_t>(i));
        const double peak = *std::max_element(rises, rises + num_cores);
        if (peak < best_peak - 1e-12) {
          best_peak = peak;
          best_m = next + i;
          stale = 0;
        } else if (++stale >= options.m_search_patience) {
          stop = true;
        }
      }
      next += count;
    }
  }
  stages.m_search_s = timer.seconds() - stage_start;
  stage_start += stages.m_search_s;

  // Step 4: TPT-guided ratio reduction until the peak obeys the budget.
  // The incumbent schedule is built once; a candidate that lowers core j's
  // ratio differs from it only in core j's cycle, so the scan mutates a
  // copy of the incumbent into each candidate and back, and the winner's
  // cycle is written into the incumbent — every core's cycle depends on
  // that core alone, so this is bit-identical to rebuilding the schedule.
  const double u = options.t_unit_fraction;  // ratio step (t_unit / t_p)
  const double tolerance = rise_target * 1e-9;
  const double sub_period = options.base_period / static_cast<double>(best_m);
  sched::PeriodicSchedule incumbent(num_cores, sub_period);
  detail::build_oscillating_schedule(cores, options.base_period, best_m, tau,
                                     incumbent, segments);
  linalg::Vector core_rises = analyzer.stable_core_rises(incumbent);
  ++stages.tpt_candidates;
  std::vector<std::size_t> scan;
  scan.reserve(num_cores);
  while (core_rises.max() > rise_target + tolerance) {
    throw_if_cancelled();
    const std::size_t hottest = core_rises.argmax();
    const bool hottest_adjustable =
        cores[hottest].oscillating && cores[hottest].ratio_high > 0.0;
    scan.clear();
    for (std::size_t j = 0; j < num_cores; ++j) {
      if (!cores[j].oscillating || cores[j].ratio_high <= 0.0) continue;
      // Ablation: the naive policy only ever slows the hottest core down
      // (falling back to the full scan when that core has no knob left).
      if (options.tpt_policy == TptPolicy::kHottestCore &&
          hottest_adjustable && j != hottest)
        continue;
      scan.push_back(j);
    }
    if (scan.empty()) break;  // no adjustable core remains
    candidate = incumbent;  // reuses the candidate's storage
    batch.clear();
    for (const std::size_t j : scan) {
      CoreOscillation lowered = cores[j];
      lowered.ratio_high = std::max(0.0, lowered.ratio_high - u);
      detail::oscillation_segments(lowered, sub_period, tau, segments);
      candidate.assign_core_segments(j, segments);
      batch.add(candidate);
      detail::oscillation_segments(cores[j], sub_period, tau, segments);
      candidate.assign_core_segments(j, segments);
    }
    batch.finish();
    stages.tpt_candidates += scan.size();
    // Fold in ascending-core order with a strict `>`: the lowest core wins
    // a tie.
    double best_tpt = -1.0;
    std::size_t best_i = scan.size();
    for (std::size_t i = 0; i < scan.size(); ++i) {
      const std::size_t j = scan[i];
      const double new_ratio = std::max(0.0, cores[j].ratio_high - u);
      const double speed_loss =
          (cores[j].v_high - cores[j].v_low) *
          (cores[j].ratio_high - new_ratio);
      if (speed_loss <= 0.0) continue;
      const double delta_t =
          core_rises[hottest] - batch.core_rises(i)[hottest];
      const double tpt = delta_t / speed_loss;
      if (tpt > best_tpt) {
        best_tpt = tpt;
        best_i = i;
      }
    }
    if (best_i == scan.size()) break;  // every candidate lost zero speed
    const std::size_t best_core = scan[best_i];
    cores[best_core].ratio_high =
        std::max(0.0, cores[best_core].ratio_high - u);
    detail::oscillation_segments(cores[best_core], sub_period, tau, segments);
    incumbent.assign_core_segments(best_core, segments);
    std::copy_n(batch.core_rises(best_i), num_cores, core_rises.data());
  }
  stages.tpt_s = timer.seconds() - stage_start;
  stage_start += stages.tpt_s;

  const sim::PeakInfo peak = sim::step_up_peak(analyzer, incumbent);

  internal.cores = cores;
  SchedulerResult& result = internal.result;
  result.scheduler = "AO";
  result.feasible = peak.rise <= rise_target * (1.0 + 1e-6);
  result.schedule = std::move(incumbent);
  result.throughput = detail::oscillation_throughput(cores);
  result.peak_rise = peak.rise;
  result.peak_celsius = platform.to_celsius(peak.rise);
  result.m = best_m;
  result.evaluations = stages.m_search_candidates + stages.tpt_candidates;
  result.seconds = timer.seconds();
  stages.final_peak_s = result.seconds - stage_start;
  return internal;
}

}  // namespace detail

SchedulerResult run_ao(const Platform& platform, double t_max_c,
                       const AoOptions& options) {
  const sim::SteadyStateAnalyzer analyzer =
      sim::planning_analyzer(platform.model);
  return detail::run_ao_internal(platform, t_max_c, options, analyzer).result;
}

}  // namespace foscil::core
