// PCO — phase-conscious oscillation (Sec. V/VI).
//
// AO constrains every candidate to a step-up schedule so the peak is cheap
// to locate (Theorem 1).  That alignment is thermally pessimistic: stacking
// every core's high interval at the sub-period end maximizes instantaneous
// power density.  PCO starts from AO's solution, then
//  1. phase-shifts each core's high/low pattern within the sub-period
//     (greedy coordinate descent over an offset grid) to spread the high
//     intervals spatially, re-evaluating the peak with the general sampled
//     identifier, and
//  2. refills the opened temperature headroom by growing high-mode ratios
//     until the peak touches T_max again.
#pragma once

#include "core/ao.hpp"

namespace foscil::core {

struct PcoOptions {
  AoOptions ao;                 ///< underlying AO configuration
  int phase_grid = 16;          ///< offsets tried per core per round
  int phase_rounds = 2;         ///< coordinate-descent sweeps
  int peak_samples = 48;        ///< samples per state interval (search)
  int final_peak_samples = 96;  ///< samples for the reported peak
};

[[nodiscard]] SchedulerResult run_pco(const Platform& platform,
                                      double t_max_c,
                                      const PcoOptions& options = {});

namespace detail {

/// run_pco on a caller-supplied analyzer built on platform.model; AO's
/// stage runs on the same analyzer (see detail::run_ao_internal).
[[nodiscard]] SchedulerResult run_pco_internal(
    const Platform& platform, double t_max_c, const PcoOptions& options,
    const sim::SteadyStateAnalyzer& analyzer);

}  // namespace detail

}  // namespace foscil::core
