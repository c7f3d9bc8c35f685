#include "core/pco.hpp"

#include <algorithm>
#include <cmath>

#include "sim/peak.hpp"
#include "util/stopwatch.hpp"

namespace foscil::core {

namespace {

double mean_speed(const std::vector<CoreOscillation>& cores) {
  double total = 0.0;
  for (const auto& core : cores) total += core.mean_speed();
  return total / static_cast<double>(cores.size());
}

}  // namespace

namespace detail {

SchedulerResult run_pco_internal(const Platform& platform, double t_max_c,
                                 const PcoOptions& options,
                                 const sim::SteadyStateAnalyzer& analyzer) {
  FOSCIL_EXPECTS(options.phase_grid >= 2);
  FOSCIL_EXPECTS(options.phase_rounds >= 1);
  const Stopwatch timer;
  const double rise_target = platform.rise_budget(t_max_c);
  const double tau = options.ao.transition_overhead;

  // AO and the phase search share one analyzer, so the AO stage's memoized
  // factors are reused (the memo stores exact values only, so sharing
  // cannot move a bit).
  detail::AoInternal ao =
      detail::run_ao_internal(platform, t_max_c, options.ao, analyzer);
  std::vector<CoreOscillation> cores = ao.cores;
  const int m = ao.result.m;
  const double base_period = options.ao.base_period;
  const double sub_period = base_period / static_cast<double>(m);
  std::size_t evaluations = ao.result.evaluations;

  auto peak_of = [&](const std::vector<CoreOscillation>& state,
                     int samples) {
    // Cancellation check point: the phase-search and refill loops call this
    // once per candidate, so a fired token stops within one evaluation and
    // never perturbs a candidate that does get evaluated.
    if (options.ao.cancel != nullptr) options.ao.cancel->throw_if_cancelled();
    const auto schedule =
        detail::build_oscillating_schedule(state, base_period, m, tau);
    ++evaluations;
    return sim::sampled_peak(analyzer, schedule, samples).rise;
  };

  // Phase search: greedy coordinate descent over a sub-period offset grid.
  // Shifting changes only when each core is hot, never how much it works,
  // so the throughput is untouched while the peak can only improve
  // (offset 0 stays in the candidate set).
  double current_peak = peak_of(cores, options.peak_samples);
  for (int round = 0; round < options.phase_rounds; ++round) {
    bool improved = false;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      if (!cores[i].oscillating || cores[i].ratio_high <= 0.0 ||
          cores[i].ratio_high >= 1.0)
        continue;
      double best_offset = cores[i].phase_offset;
      double best_peak = current_peak;
      for (int g = 0; g < options.phase_grid; ++g) {
        const double offset = sub_period * static_cast<double>(g) /
                              static_cast<double>(options.phase_grid);
        if (offset == cores[i].phase_offset) continue;
        std::vector<CoreOscillation> candidate = cores;
        candidate[i].phase_offset = offset;
        const double peak = peak_of(candidate, options.peak_samples);
        if (peak < best_peak - 1e-12) {
          best_peak = peak;
          best_offset = offset;
        }
      }
      if (best_offset != cores[i].phase_offset) {
        cores[i].phase_offset = best_offset;
        current_peak = best_peak;
        improved = true;
      }
    }
    if (!improved) break;
  }

  // Headroom refill: grow the most profitable core's high ratio while the
  // peak stays within budget.
  const double u = options.ao.t_unit_fraction;
  const double tolerance = rise_target * 1e-9;
  while (current_peak < rise_target - tolerance) {
    double best_gain = 0.0;
    std::size_t best_core = cores.size();
    double best_peak = current_peak;
    for (std::size_t j = 0; j < cores.size(); ++j) {
      if (!cores[j].oscillating || cores[j].ratio_high >= 1.0) continue;
      std::vector<CoreOscillation> candidate = cores;
      candidate[j].ratio_high = std::min(1.0, candidate[j].ratio_high + u);
      // Growing a ratio into the degenerate constant-v_high corner would
      // remove the transition pair mid-search; keep ratios interior.
      if (candidate[j].ratio_high >= 1.0) continue;
      const double peak = peak_of(candidate, options.peak_samples);
      if (peak > rise_target + tolerance) continue;
      const double gain = (cores[j].v_high - cores[j].v_low) *
                          (candidate[j].ratio_high - cores[j].ratio_high);
      if (gain > best_gain) {
        best_gain = gain;
        best_core = j;
        best_peak = peak;
      }
    }
    if (best_core == cores.size()) break;  // nothing fits under the budget
    cores[best_core].ratio_high =
        std::min(1.0, cores[best_core].ratio_high + u);
    current_peak = best_peak;
  }

  const auto final_schedule =
      detail::build_oscillating_schedule(cores, base_period, m, tau);
  const double final_peak = sim::sampled_peak(analyzer, final_schedule,
                                              options.final_peak_samples)
                                .rise;

  SchedulerResult result;
  result.scheduler = "PCO";
  result.feasible = final_peak <= rise_target * (1.0 + 1e-6);
  result.schedule = final_schedule;
  result.throughput = mean_speed(cores);
  result.peak_rise = final_peak;
  result.peak_celsius = platform.to_celsius(final_peak);
  result.m = m;
  result.evaluations = evaluations;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace detail

SchedulerResult run_pco(const Platform& platform, double t_max_c,
                        const PcoOptions& options) {
  // The phase search samples *interior* temperatures (sampled_peak), whose
  // interval advances stay on the dense reference arithmetic; the modal
  // engine still accelerates every stable_boundary solve underneath.
  const sim::SteadyStateAnalyzer analyzer =
      sim::planning_analyzer(platform.model);
  return detail::run_pco_internal(platform, t_max_c, options, analyzer);
}

}  // namespace foscil::core
