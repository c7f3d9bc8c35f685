#include "sim/peak.hpp"

#include <algorithm>

namespace foscil::sim {

PeakInfo step_up_peak(const SteadyStateAnalyzer& analyzer,
                      const sched::PeriodicSchedule& s) {
  FOSCIL_EXPECTS(s.is_step_up());
  const linalg::Vector cores = analyzer.stable_core_rises(s);
  PeakInfo info;
  info.core = cores.argmax();
  info.rise = cores[info.core];
  info.time = s.period();
  return info;
}

std::vector<PeakInfo> batch_step_up_peaks(
    const SteadyStateAnalyzer& analyzer,
    const std::vector<sched::PeriodicSchedule>& schedules) {
  RiseBatch batch(analyzer);
  for (const auto& s : schedules) {
    FOSCIL_EXPECTS(s.is_step_up());
    batch.add(s);
  }
  batch.finish();
  const std::size_t cores = analyzer.model().num_cores();
  std::vector<PeakInfo> peaks(schedules.size());
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const double* rises = batch.core_rises(i);
    peaks[i].core = static_cast<std::size_t>(
        std::max_element(rises, rises + cores) - rises);
    peaks[i].rise = rises[peaks[i].core];
    peaks[i].time = schedules[i].period();
  }
  return peaks;
}

PeakInfo sampled_peak(const SteadyStateAnalyzer& analyzer,
                      const sched::PeriodicSchedule& s,
                      int samples_per_interval) {
  FOSCIL_EXPECTS(samples_per_interval >= 1);
  const auto& model = analyzer.model();
  const auto& sim = analyzer.simulator();
  const auto intervals = s.state_intervals();

  PeakInfo info;
  linalg::Vector at_start = analyzer.stable_boundary(s);
  double now = 0.0;

  // Consider the period boundary itself first.
  {
    const linalg::Vector cores = model.core_rises(at_start);
    info.core = cores.argmax();
    info.rise = cores[info.core];
    info.time = 0.0;
  }

  for (const auto& interval : intervals) {
    for (int k = 1; k <= samples_per_interval; ++k) {
      const double local = interval.length * static_cast<double>(k) /
                           static_cast<double>(samples_per_interval);
      const linalg::Vector temps =
          sim.advance(at_start, interval.voltages, local);
      const linalg::Vector cores = model.core_rises(temps);
      const std::size_t hottest = cores.argmax();
      if (cores[hottest] > info.rise) {
        info.rise = cores[hottest];
        info.core = hottest;
        info.time = now + local;
      }
      if (k == samples_per_interval) at_start = temps;
    }
    now += interval.length;
  }
  return info;
}

}  // namespace foscil::sim
