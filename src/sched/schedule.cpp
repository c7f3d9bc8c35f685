#include "sched/schedule.hpp"

#include <algorithm>
#include <cmath>

namespace foscil::sched {

namespace {
/// Relative tolerance for period bookkeeping.
constexpr double kRelTol = 1e-9;
}  // namespace

PeriodicSchedule::PeriodicSchedule(std::size_t num_cores, double period)
    : period_(period), segments_(num_cores) {
  FOSCIL_EXPECTS(num_cores >= 1);
  FOSCIL_EXPECTS(period > 0.0);
  for (auto& core : segments_) core = {Segment{period, 0.0}};
}

PeriodicSchedule PeriodicSchedule::constant(const linalg::Vector& voltages,
                                            double period) {
  PeriodicSchedule schedule(voltages.size(), period);
  for (std::size_t core = 0; core < voltages.size(); ++core) {
    FOSCIL_EXPECTS(voltages[core] >= 0.0);
    schedule.set_core_segments(core, {Segment{period, voltages[core]}});
  }
  return schedule;
}

namespace {
/// Sum of a core cycle's durations after the checks every setter shares.
double checked_total(std::span<const Segment> segments, double period) {
  FOSCIL_EXPECTS(!segments.empty());
  double total = 0.0;
  for (const auto& seg : segments) {
    FOSCIL_EXPECTS(seg.duration > 0.0);
    FOSCIL_EXPECTS(seg.voltage >= 0.0);
    total += seg.duration;
  }
  FOSCIL_EXPECTS(std::abs(total - period) <= kRelTol * period * 1e3);
  return total;
}
}  // namespace

void PeriodicSchedule::reset(double period) {
  FOSCIL_EXPECTS(period > 0.0);
  period_ = period;
  for (auto& core : segments_) core.assign(1, Segment{period, 0.0});
}

void PeriodicSchedule::set_core_segments(std::size_t core,
                                         std::vector<Segment> segments) {
  FOSCIL_EXPECTS(core < segments_.size());
  const double total = checked_total(segments, period_);
  // Rescale so the durations sum to the period exactly; this keeps the
  // state-interval merge free of spurious slivers.
  const double scale = period_ / total;
  for (auto& seg : segments) seg.duration *= scale;
  segments_[core] = std::move(segments);
}

void PeriodicSchedule::assign_core_segments(
    std::size_t core, std::span<const Segment> segments) {
  FOSCIL_EXPECTS(core < segments_.size());
  const double scale = period_ / checked_total(segments, period_);
  std::vector<Segment>& stored = segments_[core];
  stored.assign(segments.begin(), segments.end());
  for (auto& seg : stored) seg.duration *= scale;
}

void PeriodicSchedule::restore_core_segments(std::size_t core,
                                             std::vector<Segment> segments) {
  FOSCIL_EXPECTS(core < segments_.size());
  (void)checked_total(segments, period_);
  segments_[core] = std::move(segments);
}

double PeriodicSchedule::voltage_at(std::size_t core, double t) const {
  FOSCIL_EXPECTS(core < segments_.size());
  double local = std::fmod(t, period_);
  if (local < 0.0) local += period_;
  double cursor = 0.0;
  for (const auto& seg : segments_[core]) {
    cursor += seg.duration;
    if (local < cursor) return seg.voltage;
  }
  return segments_[core].back().voltage;
}

std::vector<StateInterval> PeriodicSchedule::state_intervals() const {
  IntervalBuffer flat;
  state_intervals_into(flat);
  std::vector<StateInterval> intervals(flat.size());
  for (std::size_t k = 0; k < flat.size(); ++k) {
    StateInterval& interval = intervals[k];
    interval.start = flat.start(k);
    interval.length = flat.length(k);
    interval.voltages = linalg::Vector(flat.num_cores());
    std::copy_n(flat.voltages(k), flat.num_cores(), interval.voltages.data());
  }
  return intervals;
}

void PeriodicSchedule::state_intervals_into(IntervalBuffer& out) const {
  // Gather all per-core breakpoints (cumulative durations).
  std::vector<double>& breaks = out.breaks_;
  breaks.assign({0.0, period_});
  for (const auto& core : segments_) {
    double cursor = 0.0;
    for (std::size_t s = 0; s + 1 < core.size(); ++s) {
      cursor += core[s].duration;
      breaks.push_back(cursor);
    }
  }
  std::sort(breaks.begin(), breaks.end());
  // Merge in place: the write cursor never passes the read cursor.
  const double merge_tol = kRelTol * period_;
  std::size_t merged = 0;
  for (const double b : breaks) {
    if (merged == 0 || b - breaks[merged - 1] > merge_tol)
      breaks[merged++] = b;
  }
  breaks.resize(merged);
  if (period_ - breaks.back() <= merge_tol) breaks.back() = period_;
  else breaks.push_back(period_);

  // Per-core cursor walk: interval midpoints are strictly increasing, so
  // each core's segment list is traversed once for the whole schedule
  // instead of restarting a voltage_at scan per (interval, core).  The
  // cursor takes the same sequential prefix sums voltage_at computes and
  // applies the same strict `<`, so the sampled voltages are bit-identical
  // (fmod is exact for 0 <= midpoint < period, so voltage_at's wrap is a
  // no-op here).
  const std::size_t cores = num_cores();
  const std::size_t intervals = breaks.size() - 1;
  out.cores_ = cores;
  out.voltages_.resize(intervals * cores);
  out.midpoints_.resize(intervals);
  for (std::size_t k = 0; k < intervals; ++k)
    out.midpoints_[k] = out.start(k) + 0.5 * out.length(k);
  for (std::size_t core = 0; core < cores; ++core) {
    const auto& segs = segments_[core];
    std::size_t index = 0;
    double end = segs.front().duration;
    double* column = out.voltages_.data() + core;
    for (std::size_t k = 0; k < intervals; ++k) {
      while (out.midpoints_[k] >= end && index + 1 < segs.size()) {
        ++index;
        end += segs[index].duration;
      }
      column[k * cores] = segs[index].voltage;
    }
  }
}

double PeriodicSchedule::throughput() const {
  double total = 0.0;
  for (std::size_t core = 0; core < num_cores(); ++core)
    total += core_work(core);
  return total / (static_cast<double>(num_cores()) * period_);
}

double PeriodicSchedule::core_work(std::size_t core) const {
  FOSCIL_EXPECTS(core < segments_.size());
  double work = 0.0;
  for (const auto& seg : segments_[core])
    work += seg.voltage * seg.duration;  // speed == voltage (Sec. II-A)
  return work;
}

bool PeriodicSchedule::is_step_up(double tol) const {
  for (const auto& core : segments_) {
    for (std::size_t s = 0; s + 1 < core.size(); ++s)
      if (core[s + 1].voltage < core[s].voltage - tol) return false;
  }
  return true;
}

PeriodicSchedule PeriodicSchedule::simplified(double voltage_tol) const {
  PeriodicSchedule out(num_cores(), period_);
  for (std::size_t core = 0; core < num_cores(); ++core) {
    std::vector<Segment> merged;
    for (const auto& seg : segments_[core]) {
      if (seg.duration <= 0.0) continue;
      if (!merged.empty() &&
          std::abs(merged.back().voltage - seg.voltage) <= voltage_tol) {
        merged.back().duration += seg.duration;
      } else {
        merged.push_back(seg);
      }
    }
    FOSCIL_ASSERT(!merged.empty());
    out.set_core_segments(core, std::move(merged));
  }
  return out;
}

}  // namespace foscil::sched
